//! Request-level serving simulation for the RPU reproduction.
//!
//! The per-token figures answer "how fast is one decode step"; this
//! crate answers the production question above it: **what latency do
//! users see at a given offered load?** It simulates a stream of
//! requests — seeded Poisson arrivals, bursty on/off (MMPP-style)
//! arrivals, trace replay, or a closed loop of clients, multiplexing
//! multiple tenant [`ClassSpec`]s with their own SLOs — flowing
//! through a continuous-batching scheduler
//! ([`serve_with`]) whose admission/eviction order is a pluggable
//! [`SchedulingPolicy`]: FIFO ([`Fifo`]), predicted-length
//! shortest-job-first ([`ShortestJobFirst`]), priority classes with
//! bounded-starvation aging ([`PriorityAging`]) or preemptive
//! deadline-aware admission ([`DeadlineEdf`]). Policies change who
//! waits, never how much work is done. The result is an SLO report:
//! TTFT/TPOT/end-to-end latency at p50/p95/p99 and goodput against
//! [`SloTargets`] — aggregate ([`SloReport`]) and per class
//! ([`MultiClassReport`]).
//!
//! Above the single machine sits the fleet layer: a [`Fleet`] (built
//! with [`FleetBuilder`]) of N replica schedulers (each with its own
//! policy, cost model and KV capacity — heterogeneous SKUs welcome)
//! fronted by a pluggable [`Router`] that sees a [`RoutingView`] of
//! replica-published [`ReplicaTelemetry`] and the live/draining mask:
//! blind [`RoundRobin`], backlog-driven [`JoinShortestQueue`],
//! occupancy-driven [`LeastKvLoad`] or consistent-hashing
//! [`SessionAffinity`]. [`FleetReport`] adds per-replica utilisation
//! and load imbalance on top of the same SLO metrics.
//!
//! The replica set itself is dynamic: [`FleetEvent`]s join, drain,
//! cleanly retire or fail replicas at deterministic sim times
//! ([`lifecycle`]), failures displace in-flight work back through the
//! router at a re-prefill cost, and the reactive [`Autoscaler`]
//! ([`run_autoscaled`]) turns windowed p99-TTFT/KV-occupancy signals
//! into those events under hysteresis — trading machine-seconds
//! against SLO attainment on diurnal load
//! ([`ArrivalProcess::DiurnalOnOff`]).
//!
//! Machine costs enter through the [`CostModel`] trait, so this crate
//! stays independent of the simulator stack: `rpu-core` adapts
//! `RpuSystem` (event-driven simulation with memoised decode steps)
//! behind it, while [`AnalyticCostModel`] provides a closed-form
//! machine for tests. Everything is deterministic — a fixed workload
//! seed reproduces the schedule bit-for-bit, for every policy, router
//! and fleet size.
//!
//! Determinism is load-bearing, so it has its own tooling layer. The
//! seed is the checkpoint: re-running a workload reproduces its run bit
//! for bit. [`FleetRun`] unrolls the one serving loop — [`serve_with`]
//! is a one-replica run of it — into a run that can be stepped and
//! [audited](FleetRun::audit) between steps, in release builds too,
//! against a rebuild of its derived state. Every router in the crate is
//! deterministic, so a re-run with the same seed, fleet, router and
//! injected lifecycle events makes the same picks and transitions and
//! ends in a report that digests ([`digest_fleet_report`]) identically.
//! A run keeps no record of its decisions beyond a per-replica count of
//! the requests routed to it; a test that needs the picks themselves
//! wraps its [`Router`] and records what `route` returns.
//! [`fuzz_tape`] generates adversarial workloads (flash bursts,
//! zero-length prompts, KV-filling monster contexts, deadline
//! inversions, session churn) to stress all of it.
//!
//! # Examples
//!
//! ```
//! use rpu_serve::{
//!     serve_with, AnalyticCostModel, ClassSpec, MultiClassReport, PriorityAging,
//!     ServeConfig, Workload,
//! };
//!
//! // Interactive chat sharing the machine with offline batch traffic.
//! let workload = Workload::poisson(100.0, 512, 64, 32)
//!     .with_classes(vec![ClassSpec::interactive(), ClassSpec::batch()]);
//! let report = serve_with(
//!     &workload,
//!     &mut AnalyticCostModel::small(),
//!     &ServeConfig::default(),
//!     &mut PriorityAging::new(2.0),
//! );
//! let slo = MultiClassReport::new(&report, &workload.classes);
//! assert_eq!(slo.aggregate.completed, 32);
//! assert_eq!(slo.classes.len(), 2);
//! ```

#![warn(missing_docs)]

mod arrivals;
mod autoscale;
mod class;
mod cost;
mod digest;
mod fleet;
pub mod lifecycle;
mod metrics;
mod min_tree;
mod policy;
mod request;
mod rng;
mod router;
mod routing_index;
mod scheduler;
pub mod snapshot;

pub use arrivals::{fuzz_tape, ArrivalProcess, FuzzFamily, RequestSource, Workload};
pub use autoscale::{run_autoscaled, Autoscaler, AutoscalerConfig};
pub use class::{ClassSpec, SloTargets};
pub use cost::{AnalyticCostModel, CostModel};
pub use digest::{digest_fleet_report, digest_serve_report, ReportDigest};
pub use fleet::{
    Fleet, FleetBuilder, FleetReplica, FleetReport, FleetRun, MergeOrder, PerfCounters, TtftWindow,
};
pub use lifecycle::{churn_tape, FleetEvent, FleetEventKind, LifecycleCounts, LifecycleState};
pub use metrics::{ClassSlo, MultiClassReport, SloReport};
pub use policy::{
    ActiveRequest, DeadlineEdf, Fifo, PriorityAging, QueuedRequest, SchedulingPolicy,
    ShortestJobFirst,
};
pub use request::{Request, RequestRecord};
pub use rng::ServeRng;
pub use router::{
    JoinShortestQueue, LeastKvLoad, ReplicaTelemetry, RoundRobin, Router, RoutingView,
    SessionAffinity,
};
pub use routing_index::FleetRoutingIndex;
pub use scheduler::{serve, serve_with, RunStats, ServeConfig, ServeReport};
pub use snapshot::SnapshotError;
