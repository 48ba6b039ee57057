//! Fleet-scale serving: N scheduler replicas behind one router, with a
//! first-class dynamic replica set.
//!
//! A single [`crate::serve_with`] run answers "what does one machine do
//! under load?"; a [`Fleet`] answers the question above it: **how many
//! machines, and how do you route to them?** Each replica is an
//! independent deterministic scheduler instance with its own
//! [`SchedulingPolicy`], its own [`CostModel`] (and therefore its own
//! KV capacity — heterogeneous SKUs are just different cost models) and
//! its own clock. A [`Router`] dispatches every arriving request to one
//! replica, seeing nothing but a [`crate::RoutingView`] of the
//! replicas' published telemetry and lifecycle mask.
//!
//! Fleets are built with [`FleetBuilder`], which names every axis a
//! replica group varies on — count, scheduler config, cost model
//! (SKU), policy and initial [`LifecycleState`] — plus fleet-wide
//! knobs like the failure migration delay.
//!
//! # Replica lifecycle
//!
//! The replica set is dynamic: a fleet provisions a fixed number of
//! *slots*, each slot moves between [`LifecycleState`]s through
//! [`FleetEvent`]s injected at deterministic sim times (see
//! [`crate::lifecycle`] for the transition table). A draining replica
//! admits no new work but finishes what it holds; a failed replica
//! loses its queued and in-flight requests, which re-enter the fleet
//! through the router after the migration delay and pay a full
//! re-prefill. Lifecycle events ride the command log and the
//! `RPUSNAP1` snapshot, so churned runs replay and resume
//! bit-identically.
//!
//! # Simulation order
//!
//! The fleet driver interleaves the replicas in **global event order**:
//! a request is routed exactly at its arrival time, once every
//! replica's next scheduling event lies at or beyond it, so the
//! telemetry the router sees is what real replicas would publish at
//! that instant — not a stale snapshot and not the future. Ties go
//! lifecycle event, then displaced re-route, then arrival, then
//! scheduler step. Replica completions feed the shared arrival source,
//! so closed-loop workloads work across the fleet (a client's next
//! request may be routed to a *different* replica than its last). With
//! one replica the driver is the single-machine scheduler:
//! [`crate::serve_with`] runs it, and the differential suite pins its
//! reports to a committed table of digests recorded from the retired
//! stand-alone single-machine loop.
//!
//! # Example
//!
//! A four-replica fleet shortens the interactive tail a single machine
//! of the same total capacity cannot, and the run is bit-reproducible:
//!
//! ```
//! use rpu_serve::{
//!     AnalyticCostModel, Fifo, FleetBuilder, JoinShortestQueue, ServeConfig, Workload,
//! };
//!
//! let wl = Workload::poisson(1500.0, 256, 32, 64);
//! let mut fleet = FleetBuilder::new()
//!     .group(
//!         4,
//!         &ServeConfig::default(),
//!         || Box::new(AnalyticCostModel::small()),
//!         || Box::new(Fifo),
//!     )
//!     .build();
//! let a = fleet.serve(&wl, &mut JoinShortestQueue);
//! let b = fleet.serve(&wl, &mut JoinShortestQueue);
//! assert_eq!(a.aggregate.records.len(), 64);
//! assert_eq!(a, b);
//! assert_eq!(a.assigned.iter().sum::<u32>(), 64);
//! ```

use std::collections::VecDeque;

use crate::arrivals::{RequestSource, Workload};
use crate::class::ClassSpec;
use crate::cost::CostModel;
use crate::digest::ReportDigest;
use crate::lifecycle::{FleetEvent, FleetEventKind, LifecycleCounts, LifecycleState};
use crate::metrics::MultiClassReport;
use crate::min_tree::MinTree;
use crate::policy::{QueuedRequest, SchedulingPolicy};
use crate::replay::{CommandLog, LoggedPicks};
use crate::request::{Request, RequestRecord};
use crate::router::{ReplicaTelemetry, Router, RoutingView};
use crate::routing_index::FleetRoutingIndex;
use crate::scheduler::{Core, RunStats, ServeConfig, ServeReport};
use crate::snapshot::{
    fnv1a, section, workload_fingerprint, SnapshotError, SnapshotReader, SnapshotWriter, KIND_FLEET,
};
use rpu_util::stats::percentile_mut;

/// One replica of a serving fleet: a machine (cost model), a scheduling
/// policy and the scheduler knobs it runs under.
pub struct FleetReplica {
    /// The replica's machine model — its KV capacity and decode/prefill
    /// latencies. Replicas may differ (heterogeneous SKUs).
    pub cost: Box<dyn CostModel>,
    /// The replica's local admission/eviction policy.
    pub policy: Box<dyn SchedulingPolicy>,
    /// The replica's scheduler configuration.
    pub config: ServeConfig,
}

/// Builds a [`Fleet`] one replica group at a time.
///
/// The builder names every axis a group varies on — count, scheduler
/// config, cost model (SKU), policy and initial [`LifecycleState`] —
/// plus fleet-wide knobs like the failure migration delay. Slots added
/// `Down` are spare capacity an autoscaler (or an injected
/// [`FleetEvent::Join`][FleetEventKind::Join]) can bring up mid-run.
///
/// ```
/// use rpu_serve::{
///     AnalyticCostModel, Fifo, FleetBuilder, LifecycleState, ServeConfig,
/// };
///
/// let fleet = FleetBuilder::new()
///     .migration_delay_s(0.005)
///     .group(
///         2,
///         &ServeConfig::default(),
///         || Box::new(AnalyticCostModel::small()),
///         || Box::new(Fifo),
///     )
///     .group_with_state(
///         LifecycleState::Down,
///         2,
///         &ServeConfig::default(),
///         || Box::new(AnalyticCostModel::small()),
///         || Box::new(Fifo),
///     )
///     .build();
/// assert_eq!(fleet.len(), 4);
/// ```
#[must_use]
pub struct FleetBuilder {
    replicas: Vec<FleetReplica>,
    states: Vec<LifecycleState>,
    migration_delay_s: f64,
}

impl Default for FleetBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl FleetBuilder {
    /// An empty builder: no replicas, zero migration delay.
    pub fn new() -> Self {
        Self {
            replicas: Vec::new(),
            states: Vec::new(),
            migration_delay_s: 0.0,
        }
    }

    /// Sets the failure migration delay: how long a request displaced
    /// by a replica failure waits before it is re-routed (detection
    /// plus KV re-steering time). Displaced requests also pay a full
    /// re-prefill on their new replica.
    pub fn migration_delay_s(mut self, s: f64) -> Self {
        self.migration_delay_s = s;
        self
    }

    /// Adds one explicit replica, initially [`LifecycleState::Live`].
    pub fn replica(self, replica: FleetReplica) -> Self {
        self.replica_with_state(LifecycleState::default(), replica)
    }

    /// Adds one explicit replica in the given initial state.
    pub fn replica_with_state(mut self, state: LifecycleState, replica: FleetReplica) -> Self {
        self.replicas.push(replica);
        self.states.push(state);
        self
    }

    /// Adds `count` identical replicas from factory closures (one
    /// fresh cost model and policy per replica), initially
    /// [`LifecycleState::Live`].
    pub fn group(
        self,
        count: usize,
        config: &ServeConfig,
        cost: impl FnMut() -> Box<dyn CostModel>,
        policy: impl FnMut() -> Box<dyn SchedulingPolicy>,
    ) -> Self {
        self.group_with_state(LifecycleState::default(), count, config, cost, policy)
    }

    /// Adds `count` identical replicas in the given initial state.
    /// Groups added [`LifecycleState::Down`] are provisioned spare
    /// slots: they cost nothing until a join brings them up.
    pub fn group_with_state(
        mut self,
        state: LifecycleState,
        count: usize,
        config: &ServeConfig,
        mut cost: impl FnMut() -> Box<dyn CostModel>,
        mut policy: impl FnMut() -> Box<dyn SchedulingPolicy>,
    ) -> Self {
        for _ in 0..count {
            self.replicas.push(FleetReplica {
                cost: cost(),
                policy: policy(),
                config: *config,
            });
            self.states.push(state);
        }
        self
    }

    /// Finishes the fleet.
    ///
    /// # Panics
    ///
    /// Panics if no replicas were added, none starts live, any
    /// replica's `max_batch` is zero, or the migration delay is
    /// negative or non-finite.
    pub fn build(self) -> Fleet {
        assert!(
            !self.replicas.is_empty(),
            "a fleet needs at least one replica"
        );
        for r in &self.replicas {
            assert!(r.config.max_batch >= 1, "max_batch must admit at least one");
        }
        assert!(
            self.migration_delay_s.is_finite() && self.migration_delay_s >= 0.0,
            "migration delay must be finite and non-negative"
        );
        assert!(
            self.states.contains(&LifecycleState::Live),
            "a fleet needs at least one live replica"
        );
        Fleet {
            replicas: self.replicas,
            initial_states: self.states,
            migration_delay_s: self.migration_delay_s,
        }
    }
}

/// A fleet of scheduler replicas fronted by a [`Router`].
pub struct Fleet {
    replicas: Vec<FleetReplica>,
    initial_states: Vec<LifecycleState>,
    migration_delay_s: f64,
}

impl Fleet {
    /// Number of provisioned replica slots (whatever their state).
    #[must_use]
    pub fn len(&self) -> usize {
        self.replicas.len()
    }

    /// Always `false` in practice — construction rejects empty fleets —
    /// but answered from the data, not the invariant.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.replicas.is_empty()
    }

    /// Each slot's initial lifecycle state, in replica order.
    #[must_use]
    pub fn initial_states(&self) -> &[LifecycleState] {
        &self.initial_states
    }

    /// The failure migration delay, seconds.
    #[must_use]
    pub fn migration_delay_s(&self) -> f64 {
        self.migration_delay_s
    }

    /// Serves a workload across the fleet under `router`.
    ///
    /// Deterministic: the schedule depends only on the workload (seed
    /// included), the replicas' cost models/policies/configs, the
    /// router and any lifecycle events injected on the run (none
    /// here — use [`Fleet::start`] and [`FleetRun::inject`] for
    /// churn). Reusing a fleet is fine — cost-model memoisation
    /// carries over, scheduler state does not.
    ///
    /// # Panics
    ///
    /// Panics if the router returns an out-of-range or unroutable
    /// replica index.
    #[must_use]
    pub fn serve(&mut self, workload: &Workload, router: &mut dyn Router) -> FleetReport {
        let mut run = self.start(workload);
        while run.step(self, router) {}
        run.into_report()
    }

    /// Begins a resumable run over `workload` — [`Fleet::serve`]
    /// unrolled into a [`FleetRun`] you can step, snapshot, restore
    /// and inject lifecycle events into.
    ///
    /// # Panics
    ///
    /// Panics if the workload is invalid (see
    /// [`crate::RequestSource::new`]).
    #[must_use]
    pub fn start(&self, workload: &Workload) -> FleetRun {
        FleetRun::new(
            workload,
            self.replicas.iter().map(|r| r.config),
            kv_caps(&self.replicas),
            self.initial_states.clone(),
            self.migration_delay_s,
        )
    }

    /// Replays a recorded [`CommandLog`] against this fleet: the one
    /// fleet driver ([`FleetRun::step`]) runs again, with the log's
    /// picks standing in for the router and each logged lifecycle
    /// transition injected just before the event index that applied
    /// it. Deterministic policies reproduce their decisions, so the
    /// replayed report digests identically to the recorded run.
    ///
    /// # Panics
    ///
    /// Panics if the log does not belong to this workload/fleet: it
    /// runs out of picks, has decisions left over, or names a replica
    /// or transition the replayed run cannot take.
    #[must_use]
    pub fn replay(&mut self, workload: &Workload, log: &CommandLog) -> FleetReport {
        let mut run = self.start(workload);
        let mut router = LoggedPicks(log.picks().iter());
        let mut transitions = log.transitions().iter().peekable();
        loop {
            // A transition must fire at its own event index, not up
            // front: the autoscaler injects at a boundary whose
            // equal-time events have already run.
            if let Some(&(_, ev)) = transitions.next_if(|t| t.0 == run.events()) {
                run.inject(ev);
            }
            if !run.step(self, &mut router) {
                break;
            }
        }
        assert!(
            router.0.next().is_none() && transitions.next().is_none(),
            "log has decisions left over"
        );
        run.into_report()
    }
}

/// A resumable fleet run: [`Fleet::serve`] unrolled into an object you
/// can step, snapshot (router and lifecycle state included) and
/// restore such that the finished [`FleetReport`] is byte-identical to
/// an uninterrupted run.
///
/// The fleet itself (cost models, policies, configs) stays outside the
/// snapshot — it is rebuilt by the caller, exactly like the workload —
/// but everything dynamic lives in here: arrival source, per-replica
/// core state, lifecycle states, pending events, displaced requests,
/// router state and the command log.
pub struct FleetRun {
    source: RequestSource,
    cores: Vec<Core>,
    /// The global wake-up calendar: a winner tree whose leaf `i` holds
    /// [`wake_key`] of replica `i`'s next scheduling event (`+∞` for an
    /// idle replica), so the root is the earliest `(tick, replica)`. A
    /// replica's leaf is overwritten after every event that touches it
    /// — nothing else can move its next event — so picking the next
    /// step is a root read and keeping it current one `O(log R)`
    /// pull-up, instead of a scan of every replica per event. Not
    /// serialised: rebuilt deterministically from the cores on resume.
    wake: MinTree<u64>,
    /// Cached per-replica telemetry, index-aligned with `cores`. A
    /// replica's published counters can only change when an event
    /// touches it (a lifecycle transition included), so the driver
    /// refreshes exactly one entry per event instead of recollecting
    /// the whole fleet on every arrival — the difference between
    /// `O(1)` and `O(n)` routing at 1000 replicas. Not serialised:
    /// rebuilt deterministically from the cores on resume, like the
    /// wake-up calendar.
    telemetry: Vec<ReplicaTelemetry>,
    /// Ordered indexes over `telemetry`, plus the routable bitset
    /// derived from `states` — the mask and `O(log R)` lookups every
    /// [`RoutingView`] reads. One dirty mark per event and one bit flip
    /// per lifecycle transition keep it in sync; like the telemetry
    /// cache it is derived state, rebuilt on resume, never serialised.
    index: FleetRoutingIndex,
    /// Each replica's published KV capacity, cached once at run start:
    /// capacities are fixed per cost model, so the per-event telemetry
    /// refresh skips the virtual call.
    kv_caps: Vec<u64>,
    /// The router's picks and the applied transitions — the decisions
    /// [`Fleet::replay`] needs, and the source of the report's
    /// per-replica assignment counts.
    log: CommandLog,
    events: u64,
    fingerprint: u64,
    /// Each slot's current lifecycle state, in replica order — the
    /// source of truth the index's routable bitset is derived from.
    states: Vec<LifecycleState>,
    /// Injected lifecycle events not yet applied, sorted by time
    /// (stable: equal-time events apply in injection order).
    pending_events: VecDeque<FleetEvent>,
    /// Requests displaced by failures, each with the sim time its
    /// migration delay expires, in displacement order.
    displaced: VecDeque<(f64, QueuedRequest)>,
    /// The run's global clock: the time of the last executed event.
    now_s: f64,
    migration_delay_s: f64,
    /// Machine-seconds accrued up to `ms_anchor_s`: one second per
    /// non-down replica per sim second. Accrued lazily — the non-down
    /// count only changes at lifecycle events, so the integral is
    /// advanced exactly there (and once more at report time).
    ms_accrued: f64,
    ms_anchor_s: f64,
    /// Slots not [`LifecycleState::Down`], kept by `apply_transition`
    /// so an accrual is `O(1)` instead of a scan of `states`. Derived
    /// from `states`: recounted on resume, never serialised.
    up: usize,
    counts: LifecycleCounts,
}

/// Per-subsystem hot-path counters for one [`FleetRun`] — the numbers
/// behind the repro driver's `--counters` report. All counts are since
/// run start (or resume; they are diagnostic state, not part of the
/// snapshot wire format). The wake calendar keeps no counter: it
/// writes one leaf per event, so its work is [`FleetRun::events`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Routing-index leaf refreshes applied (each an `O(log R)`
    /// winner-tree pull-up per tree).
    pub index_leaf_updates: u64,
    /// Routing-index dirty marks observed (one per event that touched
    /// a replica's telemetry or lifecycle state).
    pub index_marks: u64,
}

/// The telemetry every replica currently publishes, given each one's
/// KV capacity — the cache the router reads, rebuilt wholesale only at
/// run start and resume.
fn cached_telemetry(cores: &[Core], kv_caps: &[u64]) -> Vec<ReplicaTelemetry> {
    cores
        .iter()
        .zip(kv_caps)
        .map(|(c, &kv)| c.telemetry(kv))
        .collect()
}

/// Slots that cost machine-seconds: every one not down.
fn count_up(states: &[LifecycleState]) -> usize {
    states
        .iter()
        .filter(|s| **s != LifecycleState::Down)
        .count()
}

/// Each replica's published KV capacity, in replica order.
fn kv_caps(replicas: &[FleetReplica]) -> Vec<u64> {
    replicas
        .iter()
        .map(|r| r.cost.kv_capacity_tokens())
        .collect()
}

/// The wake calendar's key for a tick: the sign-fold of its IEEE-754
/// bits, under which `f64::total_cmp` order is unsigned integer order.
///
/// # Panics
///
/// Panics if `tick` is NaN — a wake-up must order against every other.
fn wake_key(tick: f64) -> u64 {
    assert!(!tick.is_nan(), "wake-up ticks must be comparable");
    let bits = tick.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`wake_key`].
fn wake_tick(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// The state a [`FleetRun`] derives from its cores, KV capacities and
/// lifecycle states instead of serialising: the wake-up tree, the
/// telemetry cache and the routing index with its routable bitset.
struct Derived {
    wake: MinTree<u64>,
    telemetry: Vec<ReplicaTelemetry>,
    index: FleetRoutingIndex,
}

impl Derived {
    /// Builds the derived state for a fresh or thawed run, the wake
    /// tree bottom-up from every core's next event. Identical
    /// `(tick, replica)` keys reproduce a frozen run's step order
    /// exactly, and identical counters reproduce its routing. Fresh
    /// cores are idle (next event at infinity) until the first arrival.
    fn build(kv_caps: &[u64], cores: &[Core], states: &[LifecycleState]) -> Self {
        let keys = cores.iter().map(|c| wake_key(c.next_event_s())).collect();
        let wake = MinTree::new(keys, wake_key(f64::INFINITY));
        let telemetry = cached_telemetry(cores, kv_caps);
        let routable: Vec<bool> = states.iter().map(|s| s.is_routable()).collect();
        let index = FleetRoutingIndex::new(&telemetry, &routable);
        Self {
            wake,
            telemetry,
            index,
        }
    }
}

/// What one [`FleetRun::advance`] call did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Advance {
    /// Executed one event.
    Stepped,
    /// Executed nothing: the next event lies after the bound.
    Paused,
    /// Executed nothing: the run is complete.
    Done,
}

/// When each kind of event could next run, in tie order. Re-routes and
/// arrivals need a live replica: with none they wait for a join
/// (draining replicas may still step their in-flight work meanwhile),
/// so they read as never.
struct NextEvents {
    lifecycle: f64,
    reroute: f64,
    arrival: f64,
    wake: f64,
    /// Re-routes or arrivals are pending with no live replica to route
    /// them to.
    starved: bool,
}

impl NextEvents {
    /// The earliest candidate time (infinite when nothing can run).
    fn earliest(&self) -> f64 {
        self.lifecycle
            .min(self.reroute)
            .min(self.arrival)
            .min(self.wake)
    }
}

impl std::fmt::Debug for FleetRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRun")
            .field("replicas", &self.cores.len())
            .field("events", &self.events)
            .field("now_s", &self.now_s)
            .field("fingerprint", &format_args!("{:016x}", self.fingerprint))
            .field("lifecycle", &self.counts)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FleetRun {
    /// A fresh run over `workload`, no events executed yet: one idle
    /// core per config, with the given KV capacities, initial lifecycle
    /// states and failure migration delay. [`Fleet::start`] passes its
    /// replicas'; [`crate::serve_with`] passes one live machine's.
    ///
    /// # Panics
    ///
    /// Panics if the workload is invalid (see
    /// [`crate::RequestSource::new`]) or a config's `max_batch` is zero.
    pub(crate) fn new(
        workload: &Workload,
        configs: impl IntoIterator<Item = ServeConfig>,
        kv_caps: Vec<u64>,
        states: Vec<LifecycleState>,
        migration_delay_s: f64,
    ) -> Self {
        let source = RequestSource::new(workload);
        let cores: Vec<Core> = configs.into_iter().map(Core::new).collect();
        let Derived {
            wake,
            telemetry,
            index,
        } = Derived::build(&kv_caps, &cores, &states);
        Self {
            source,
            cores,
            wake,
            telemetry,
            index,
            kv_caps,
            log: CommandLog::default(),
            events: 0,
            fingerprint: workload_fingerprint(workload),
            up: count_up(&states),
            states,
            pending_events: VecDeque::new(),
            displaced: VecDeque::new(),
            now_s: 0.0,
            migration_delay_s,
            ms_accrued: 0.0,
            ms_anchor_s: 0.0,
            counts: LifecycleCounts::default(),
        }
    }

    /// Executes exactly one global event — a lifecycle transition, a
    /// displaced request re-routed, an arrival routed and enqueued, or
    /// one replica's scheduler step — logging any transition or routing
    /// decision it made. Returns `false` once the run is complete.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is not the fleet this run was started on
    /// (replica count differs), the router picks an out-of-range or
    /// unroutable replica, or work remains with every replica down and
    /// no lifecycle event scheduled (a wedged fleet).
    pub fn step(&mut self, fleet: &mut Fleet, router: &mut dyn Router) -> bool {
        self.advance_fleet(fleet, router, f64::INFINITY) == Advance::Stepped
    }

    /// [`FleetRun::advance`] with each replica's scheduler step run on
    /// `fleet`'s machine and policy for it.
    fn advance_fleet(
        &mut self,
        fleet: &mut Fleet,
        router: &mut dyn Router,
        until_s: f64,
    ) -> Advance {
        assert_eq!(
            self.cores.len(),
            fleet.replicas.len(),
            "fleet changed size mid-run"
        );
        self.advance(until_s, router, |i, core, source| {
            let replica = &mut fleet.replicas[i];
            core.step(replica.cost.as_mut(), replica.policy.as_mut(), source);
        })
    }

    /// The event loop behind [`FleetRun::step`],
    /// [`FleetRun::step_until`] and [`crate::serve_with`]: selects the
    /// next global event once and executes it unless it lies after
    /// `until_s` (by the clamped time [`FleetRun::next_time`] reports),
    /// with `step_core(i, core, source)` running replica `i`'s
    /// scheduler step on the machine and policy the caller holds for it.
    pub(crate) fn advance(
        &mut self,
        until_s: f64,
        router: &mut dyn Router,
        mut step_core: impl FnMut(usize, &mut Core, &mut RequestSource),
    ) -> Advance {
        let next = self.next_events();
        let earliest = next.earliest();
        if !earliest.is_finite() {
            assert!(
                !next.starved,
                "fleet wedged: requests pending with no live replica \
                 and no scheduled lifecycle event"
            );
            return Advance::Done;
        }
        if earliest.max(self.now_s) > until_s {
            return Advance::Paused;
        }
        // Tie order: lifecycle transitions apply first (so a router
        // never sees a mask one event stale), then displaced re-routes,
        // then arrivals, then scheduler steps — a request is routed at
        // its arrival time, before any replica runs a scheduling event
        // at or after it, so every replica's telemetry is current as of
        // the arrival.
        let touched = if next.lifecycle <= next.reroute
            && next.lifecycle <= next.arrival
            && next.lifecycle <= next.wake
        {
            let ev = self.pending_events.pop_front().expect("lifecycle is due");
            self.accrue_machine_seconds(ev.at_s);
            self.now_s = self.now_s.max(ev.at_s);
            let i = self.apply_transition(&ev);
            self.index.set_routable(i, self.states[i].is_routable());
            self.telemetry[i] = self.cores[i].telemetry(self.kv_caps[i]);
            debug_assert_eq!(
                self.telemetry,
                cached_telemetry(&self.cores, &self.kv_caps),
                "telemetry cache drifted after lifecycle event"
            );
            self.log.push_transition(self.events, ev);
            router.on_fleet_event(
                &ev,
                &RoutingView::new(&self.telemetry, &self.index, ev.at_s),
            );
            i
        } else if next.reroute <= next.arrival && next.reroute <= next.wake {
            let (due, q) = self.displaced.pop_front().expect("re-route is due");
            // A re-route can come due while later events were already
            // executing (zero delay, or the clock ran ahead); it fires
            // at the current clock, never in the past.
            let t = due.max(self.now_s);
            self.now_s = t;
            let pick = self.route(router, &q.req);
            self.cores[pick].enqueue_displaced(q, t);
            pick
        } else if next.arrival <= next.wake {
            let req = self.source.pop_ready(next.arrival).expect("arrival is due");
            self.now_s = self.now_s.max(next.arrival);
            let pick = self.route(router, &req);
            self.cores[pick].enqueue(req);
            pick
        } else {
            let (which, _) = self.wake.min();
            self.now_s = self.now_s.max(next.wake);
            step_core(which, &mut self.cores[which], &mut self.source);
            which
        };
        // Only the touched replica's next event and telemetry can have
        // moved (cores share nothing but the arrival source, which is
        // re-read above every step).
        self.wake
            .set(touched, wake_key(self.cores[touched].next_event_s()));
        self.telemetry[touched] = self.cores[touched].telemetry(self.kv_caps[touched]);
        self.index.mark_dirty(touched);
        self.events += 1;
        Advance::Stepped
    }

    /// Asks the router for a live replica for `req` at the current
    /// clock and logs the pick.
    fn route(&mut self, router: &mut dyn Router, req: &Request) -> usize {
        debug_assert_eq!(
            self.telemetry,
            cached_telemetry(&self.cores, &self.kv_caps),
            "telemetry cache drifted from the cores"
        );
        let pick = router.route(
            req,
            &RoutingView::new(&self.telemetry, &self.index, self.now_s),
        );
        assert!(pick < self.cores.len(), "router picked out of range");
        assert!(
            self.states[pick].is_routable(),
            "router picked an unroutable replica"
        );
        self.log.push_pick(pick);
        pick
    }

    /// Advances the machine-seconds integral to `t`: each non-down (live
    /// or draining) replica pays for its time whether or not it decodes.
    fn accrue_machine_seconds(&mut self, t: f64) {
        debug_assert!(
            t >= self.ms_anchor_s,
            "machine-seconds accrual went backwards"
        );
        debug_assert_eq!(
            self.up,
            count_up(&self.states),
            "up-count drifted from the lifecycle states"
        );
        self.ms_accrued += self.up as f64 * (t - self.ms_anchor_s);
        self.ms_anchor_s = t;
    }

    /// Applies one lifecycle transition to the slot it targets, enforcing
    /// the legality table in [`crate::lifecycle`]; a failure's displaced
    /// requests queue for re-routing after the migration delay. Returns
    /// the slot index.
    fn apply_transition(&mut self, ev: &FleetEvent) -> usize {
        let i = ev.replica as usize;
        let (state, core) = (&mut self.states[i], &mut self.cores[i]);
        match ev.kind {
            FleetEventKind::Join => {
                assert_eq!(*state, LifecycleState::Down, "join of a non-down replica");
                *state = LifecycleState::Live;
                self.up += 1;
                self.counts.joins += 1;
            }
            FleetEventKind::Drain => {
                assert_eq!(*state, LifecycleState::Live, "drain of a non-live replica");
                *state = LifecycleState::Draining;
                self.counts.drains += 1;
            }
            FleetEventKind::Leave => {
                assert_eq!(
                    *state,
                    LifecycleState::Draining,
                    "leave of a non-draining replica"
                );
                assert!(
                    core.queue_len() == 0 && core.active_len() == 0,
                    "leave of a non-idle replica"
                );
                *state = LifecycleState::Down;
                self.up -= 1;
                self.counts.leaves += 1;
            }
            FleetEventKind::Fail => {
                assert_ne!(*state, LifecycleState::Down, "fail of a down replica");
                *state = LifecycleState::Down;
                self.up -= 1;
                self.counts.fails += 1;
                let lost = core.fail();
                self.counts.displaced += lost.len() as u32;
                let due = ev.at_s + self.migration_delay_s;
                self.displaced.extend(lost.into_iter().map(|q| (due, q)));
            }
        }
        i
    }

    /// Schedules a lifecycle event on this run. Events apply in time
    /// order (equal times: injection order) interleaved with the
    /// run's own events; legality is checked when the event fires.
    ///
    /// # Panics
    ///
    /// Panics if the event time is non-finite or in the past, or the
    /// replica index is out of range.
    pub fn inject(&mut self, ev: FleetEvent) {
        assert!(
            ev.at_s.is_finite() && ev.at_s >= self.now_s,
            "lifecycle events must be injected at or after the current sim time"
        );
        assert!(
            (ev.replica as usize) < self.cores.len(),
            "lifecycle event targets an unknown replica"
        );
        let idx = self.pending_events.partition_point(|e| e.at_s <= ev.at_s);
        self.pending_events.insert(idx, ev);
    }

    /// The sim time of the next event this run would execute, or
    /// `None` when it is complete (or wedged — [`FleetRun::step`]
    /// distinguishes the two). [`FleetRun::step_until`] stops on the
    /// same time without asking for it first: each of its events
    /// selects the next event once.
    #[must_use]
    pub fn next_time(&self) -> Option<f64> {
        let next = self.next_events().earliest();
        // Events never run in the past: one that came due while the
        // clock ran ahead (a re-route or arrival held back by an
        // all-down fleet) fires at the current clock.
        next.is_finite().then(|| next.max(self.now_s))
    }

    /// The candidate times [`FleetRun::step`] and [`FleetRun::next_time`]
    /// both choose from.
    fn next_events(&self) -> NextEvents {
        // The index maintains the live count incrementally, so this is
        // O(1) instead of a mask scan per event.
        let any_live = self.index.live_count() > 0;
        debug_assert_eq!(
            any_live,
            self.states.iter().any(|s| s.is_routable()),
            "index live count drifted from the lifecycle states"
        );
        let reroute = self
            .displaced
            .front()
            .map_or(f64::INFINITY, |&(due, _)| due);
        let arrival = self.source.next_arrival_s().unwrap_or(f64::INFINITY);
        let routable = |t: f64| if any_live { t } else { f64::INFINITY };
        NextEvents {
            lifecycle: self
                .pending_events
                .front()
                .map_or(f64::INFINITY, |e| e.at_s),
            reroute: routable(reroute),
            arrival: routable(arrival),
            // The tree's root is the earliest replica event; ties on
            // the tick go to the lowest replica index.
            wake: wake_tick(self.wake.min().1),
            starved: !any_live && (reroute.is_finite() || arrival.is_finite()),
        }
    }

    /// Steps the run until its next event — the time
    /// [`FleetRun::next_time`] reports — lies strictly after `t` (or it
    /// finishes). Returns `true` while events remain — the
    /// autoscaler's control loop: advance to the next decision
    /// boundary, look at the fleet, inject, repeat. Each event costs
    /// what a [`FleetRun::step`] costs: the check against `t` reuses
    /// the step's own event selection.
    ///
    /// # Panics
    ///
    /// Panics on the same conditions as [`FleetRun::step`].
    pub fn step_until(&mut self, fleet: &mut Fleet, router: &mut dyn Router, t: f64) -> bool {
        loop {
            match self.advance_fleet(fleet, router, t) {
                Advance::Stepped => {}
                Advance::Paused => return true,
                Advance::Done => return false,
            }
        }
    }

    /// Events executed so far.
    #[must_use]
    pub fn events(&self) -> u64 {
        self.events
    }

    /// The run's global clock: the sim time of the last executed event.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Each slot's current lifecycle state, in replica order.
    #[must_use]
    pub fn states(&self) -> &[LifecycleState] {
        &self.states
    }

    /// Lifecycle transitions applied so far.
    #[must_use]
    pub fn lifecycle_counts(&self) -> LifecycleCounts {
        self.counts
    }

    /// The decisions recorded so far: router picks and applied
    /// lifecycle transitions.
    #[must_use]
    pub fn log(&self) -> &CommandLog {
        &self.log
    }

    /// Point-in-time lifecycle counters summed across replicas, for
    /// conservation checks at snapshot points.
    #[must_use]
    pub fn stats(&self) -> RunStats {
        RunStats {
            issued: self.source.issued(),
            pending_arrivals: self.source.pending(),
            queued: self.cores.iter().map(|c| c.queue_len() as u32).sum(),
            active: self.cores.iter().map(|c| c.active_len() as u32).sum(),
            completed: self.cores.iter().map(Core::completed).sum(),
            rejected: self.cores.iter().map(Core::rejected).sum(),
            displaced: self.displaced.len() as u32,
        }
    }

    /// What every replica currently publishes to the router, recomputed
    /// from the cores and `fleet`'s cost models — the cross-check for
    /// [`FleetRun::telemetry_cache`], and the counters cap invariants
    /// are checked against.
    ///
    /// # Panics
    ///
    /// Panics if `fleet` is not the fleet this run was started on.
    #[must_use]
    pub fn telemetry(&self, fleet: &Fleet) -> Vec<ReplicaTelemetry> {
        assert_eq!(
            self.cores.len(),
            fleet.replicas.len(),
            "fleet changed size mid-run"
        );
        let fresh = cached_telemetry(&self.cores, &kv_caps(&fleet.replicas));
        debug_assert_eq!(self.telemetry, fresh, "telemetry cache drifted");
        fresh
    }

    /// The telemetry cache every [`RoutingView`] reads: what each
    /// replica publishes as of the last executed event, borrowed
    /// rather than recomputed ([`FleetRun::telemetry`] recomputes it).
    #[must_use]
    pub fn telemetry_cache(&self) -> &[ReplicaTelemetry] {
        &self.telemetry
    }

    /// Per-subsystem hot-path counters accumulated so far —
    /// routing-index maintenance (routing decisions are
    /// `self.log().picks().len()`). Diagnostic only (the repro driver's `--counters` report): never
    /// serialised, reset on resume.
    #[must_use]
    pub fn perf_counters(&self) -> PerfCounters {
        let (index_leaf_updates, index_marks) = self.index.update_counts();
        PerfCounters {
            index_leaf_updates,
            index_marks,
        }
    }

    /// Freezes the whole run — source, every core, lifecycle state,
    /// pending events, displaced requests, router state, command log —
    /// into a versioned, checksummed byte stream.
    #[must_use]
    pub fn snapshot(&self, router: &dyn Router) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(section::RUN);
        w.put_u8(KIND_FLEET);
        w.put_u64(self.fingerprint);
        w.put_u64(self.events);
        w.put_usize(self.cores.len());
        w.end_section();
        w.begin_section(section::LIFECYCLE);
        w.put_usize(self.states.len());
        for s in &self.states {
            s.save(&mut w);
        }
        w.put_f64(self.now_s);
        w.put_f64(self.ms_accrued);
        w.put_f64(self.ms_anchor_s);
        w.put_f64(self.migration_delay_s);
        w.put_u32(self.counts.joins);
        w.put_u32(self.counts.drains);
        w.put_u32(self.counts.leaves);
        w.put_u32(self.counts.fails);
        w.put_u32(self.counts.displaced);
        w.put_usize(self.pending_events.len());
        for ev in &self.pending_events {
            ev.save(&mut w);
        }
        w.put_usize(self.displaced.len());
        for (due, q) in &self.displaced {
            w.put_f64(*due);
            q.save(&mut w);
        }
        w.end_section();
        w.begin_section(section::SOURCE);
        self.source.save(&mut w);
        w.end_section();
        for core in &self.cores {
            w.begin_section(section::CORE);
            core.save(&mut w);
            w.end_section();
        }
        w.begin_section(section::ROUTER);
        router.save_state(&mut w);
        w.end_section();
        w.begin_section(section::LOG);
        self.log.save(&mut w);
        w.end_section();
        w.finish()
    }

    /// Thaws a run frozen by [`FleetRun::snapshot`]. The same workload
    /// and an identically configured fleet must be supplied; `router`
    /// has its frozen state restored in place. Resuming continues
    /// bit-identically to the run that was frozen — pending lifecycle
    /// events and displaced requests included.
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: corruption, truncation, version skew, a
    /// different workload, or a fleet whose replica count, configs or
    /// migration delay differ from the frozen run's.
    pub fn resume(
        workload: &Workload,
        fleet: &Fleet,
        router: &mut dyn Router,
        bytes: &[u8],
    ) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        r.begin_section(section::RUN)?;
        if r.get_u8()? != KIND_FLEET {
            return Err(SnapshotError::Corrupt("not a fleet snapshot"));
        }
        let fingerprint = r.get_u64()?;
        if fingerprint != workload_fingerprint(workload) {
            return Err(SnapshotError::WorkloadMismatch);
        }
        let events = r.get_u64()?;
        let n = r.get_usize()?;
        if n != fleet.replicas.len() {
            return Err(SnapshotError::Corrupt("replica count differs"));
        }
        r.end_section()?;
        r.begin_section(section::LIFECYCLE)?;
        if r.get_usize()? != n {
            return Err(SnapshotError::Corrupt("lifecycle state count differs"));
        }
        let mut states = Vec::with_capacity(n);
        for _ in 0..n {
            states.push(LifecycleState::load(&mut r)?);
        }
        let now_s = r.get_f64()?;
        let ms_accrued = r.get_f64()?;
        let ms_anchor_s = r.get_f64()?;
        // A run's clock is finite, its accrual anchor sits between 0 and
        // the clock, and what it accrued is finite and non-negative: the
        // anchor only ever moves forward to an applied event's time.
        let clocks_ok = now_s.is_finite()
            && (0.0..=now_s).contains(&ms_anchor_s)
            && ms_accrued.is_finite()
            && ms_accrued >= 0.0;
        if !clocks_ok {
            return Err(SnapshotError::Corrupt("lifecycle clocks out of order"));
        }
        let migration_delay_s = r.get_f64()?;
        if migration_delay_s != fleet.migration_delay_s {
            return Err(SnapshotError::Corrupt("migration delay differs"));
        }
        let counts = LifecycleCounts {
            joins: r.get_u32()?,
            drains: r.get_u32()?,
            leaves: r.get_u32()?,
            fails: r.get_u32()?,
            displaced: r.get_u32()?,
        };
        let num_pending = r.get_count(13)?;
        // `inject` keeps pending events sorted and none before the clock.
        let mut pending_events = VecDeque::with_capacity(num_pending);
        let mut earliest = now_s;
        for _ in 0..num_pending {
            let ev = FleetEvent::load(&mut r)?;
            if !ev.at_s.is_finite() || ev.at_s < earliest || (ev.replica as usize) >= n {
                return Err(SnapshotError::Corrupt("bad pending lifecycle event"));
            }
            earliest = ev.at_s;
            pending_events.push_back(ev);
        }
        let num_displaced = r.get_count(16)?;
        let mut displaced = VecDeque::with_capacity(num_displaced);
        for _ in 0..num_displaced {
            let due = r.get_f64()?;
            if due.is_nan() {
                return Err(SnapshotError::Corrupt("displaced due time is NaN"));
            }
            displaced.push_back((due, QueuedRequest::load(&mut r)?));
        }
        r.end_section()?;
        r.begin_section(section::SOURCE)?;
        let source = RequestSource::restore(workload, &mut r)?;
        r.end_section()?;
        let mut cores = Vec::with_capacity(n);
        for replica in &fleet.replicas {
            r.begin_section(section::CORE)?;
            let core = Core::restore(&mut r)?;
            if core.config() != replica.config {
                return Err(SnapshotError::Corrupt("replica config differs"));
            }
            cores.push(core);
            r.end_section()?;
        }
        for (state, core) in states.iter().zip(&cores) {
            if *state == LifecycleState::Down && (core.queue_len() > 0 || core.active_len() > 0) {
                return Err(SnapshotError::Corrupt("down replica holds work"));
            }
        }
        r.begin_section(section::ROUTER)?;
        router.load_state(&mut r)?;
        r.end_section()?;
        r.begin_section(section::LOG)?;
        let log = CommandLog::load(&mut r, n, events)?;
        r.end_section()?;
        let kv_caps = kv_caps(&fleet.replicas);
        let Derived {
            wake,
            telemetry,
            index,
        } = Derived::build(&kv_caps, &cores, &states);
        Ok(Self {
            source,
            cores,
            wake,
            telemetry,
            index,
            kv_caps,
            log,
            events,
            fingerprint,
            up: count_up(&states),
            states,
            pending_events,
            displaced,
            now_s,
            migration_delay_s,
            ms_accrued,
            ms_anchor_s,
            counts,
        })
    }

    /// Digest of the full frozen state (snapshot bytes hashed). Two
    /// runs share a state digest exactly when they would snapshot to
    /// identical bytes.
    #[must_use]
    pub fn state_digest(&self, router: &dyn Router) -> ReportDigest {
        ReportDigest(fnv1a(&self.snapshot(router)))
    }

    /// Finalises the run and yields the merged fleet report.
    #[must_use]
    pub fn into_report(mut self) -> FleetReport {
        debug_assert!(self.source.exhausted());
        debug_assert!(
            self.displaced.is_empty(),
            "report taken with displaced requests in flight"
        );
        self.accrue_machine_seconds(self.now_s);
        let mut assigned = vec![0u32; self.cores.len()];
        for &pick in self.log.picks() {
            assigned[pick as usize] += 1;
        }
        let replicas: Vec<ServeReport> = self.cores.into_iter().map(Core::into_report).collect();
        let aggregate = merge(&replicas);
        FleetReport {
            replicas,
            assigned,
            aggregate,
            machine_seconds: self.ms_accrued,
            lifecycle: self.counts,
        }
    }
}

/// A forward-only reader of the TTFTs a [`FleetRun`] completed in a
/// trailing window — the autoscaler's latency signal.
///
/// A core appends its records in finish-time order and never removes
/// one (a failure displaces only queued and in-flight work), so the
/// records that finished before a window's start stay before every
/// later window's start. The reader keeps one cursor per replica past
/// them and one sample buffer it refills per query: a query costs
/// `O(replicas + window)` plus the cursors' forward moves, which sum
/// to the run's record count over the whole run. Create one per run
/// with [`TtftWindow::new`].
#[derive(Debug)]
pub struct TtftWindow {
    /// Per replica, the index of its first record not known to finish
    /// before `since_s`.
    cursors: Vec<usize>,
    /// The last query's samples, NaN-free and permuted by selection.
    samples: Vec<f64>,
    /// The last query's window start.
    since_s: f64,
}

impl TtftWindow {
    /// A reader over `run`'s replicas, before any query.
    #[must_use]
    pub fn new(run: &FleetRun) -> Self {
        Self {
            cursors: vec![0; run.cores.len()],
            samples: Vec::new(),
            since_s: f64::NEG_INFINITY,
        }
    }

    /// The p99 TTFT of the requests `run` completed at or after sim time
    /// `t` (non-NaN samples only), or `None` when there are none. The
    /// value equals [`rpu_util::stats::Percentiles::from_samples`]'s
    /// `p99` over the same samples, bit for bit.
    ///
    /// # Panics
    ///
    /// Panics if `t` is below (or NaN after) the previous query's
    /// start — the reader only moves forward — or `run` has a
    /// different replica count than the run it was created for.
    pub fn p99_since(&mut self, run: &FleetRun, t: f64) -> Option<f64> {
        assert!(
            t >= self.since_s,
            "TTFT window moved backwards: queried since {t} after {}",
            self.since_s
        );
        assert_eq!(
            self.cursors.len(),
            run.cores.len(),
            "TTFT window read across runs of different widths"
        );
        self.since_s = t;
        self.samples.clear();
        for (cursor, core) in self.cursors.iter_mut().zip(&run.cores) {
            let recs = core.records();
            while recs.get(*cursor).is_some_and(|r| r.finish_s < t) {
                *cursor += 1;
            }
            self.samples.extend(
                recs[*cursor..]
                    .iter()
                    .map(RequestRecord::ttft_s)
                    .filter(|x| !x.is_nan()),
            );
        }
        (!self.samples.is_empty()).then(|| percentile_mut(&mut self.samples, 99.0))
    }
}

/// Folds per-replica reports into one fleet-wide [`ServeReport`] whose
/// records are the completion order over the replicas' own records.
///
/// Counts, busy times and iterations are sums over replicas (in replica
/// order, so the fold is deterministic); the makespan spans the
/// earliest arrival to the latest completion anywhere in the fleet;
/// `peak_batch`/`peak_reserved_tokens` are the largest any single
/// replica saw (per-replica peaks do not add across machines). Note
/// [`ServeReport::utilization`] on the merged report is therefore
/// *machine-seconds per wall-second* — up to N for an N-replica fleet;
/// [`FleetReport::fleet_utilization`] normalises it.
pub(crate) fn merge(replicas: &[ServeReport]) -> ServeReport<MergeOrder> {
    let table = record_table(replicas);
    let records = MergeOrder::of(&table);
    let mut rejected_requests: Vec<_> = replicas
        .iter()
        .flat_map(|r| r.rejected_requests.iter().copied())
        .collect();
    rejected_requests.sort_by_key(|r| r.id);
    // Both folds run in completion order, as they did over the owned
    // aggregate, so a signed-zero tie resolves to the same bits.
    let (mut first_arrival, mut last_finish) = (f64::INFINITY, f64::NEG_INFINITY);
    for r in records.gather(table) {
        first_arrival = first_arrival.min(r.arrival_s);
        last_finish = last_finish.max(r.finish_s);
    }
    let first_arrival = rejected_requests
        .iter()
        .map(|r| r.arrival_s)
        .fold(first_arrival, f64::min);
    ServeReport {
        makespan_s: if last_finish.is_finite() && first_arrival.is_finite() {
            (last_finish - first_arrival).max(0.0)
        } else {
            0.0
        },
        records,
        rejected: replicas.iter().map(|r| r.rejected).sum(),
        rejected_requests,
        preemptions: replicas.iter().map(|r| r.preemptions).sum(),
        decode_busy_s: replicas.iter().map(|r| r.decode_busy_s).sum(),
        prefill_busy_s: replicas.iter().map(|r| r.prefill_busy_s).sum(),
        decode_iterations: replicas.iter().map(|r| r.decode_iterations).sum(),
        peak_batch: replicas.iter().map(|r| r.peak_batch).max().unwrap_or(0),
        peak_reserved_tokens: replicas
            .iter()
            .map(|r| r.peak_reserved_tokens)
            .max()
            .unwrap_or(0),
    }
}

/// Each replica's records as one slice, indexed by replica: the table
/// a [`MergeOrder`] is read through.
fn record_table(replicas: &[ServeReport]) -> Vec<&[RequestRecord]> {
    replicas.iter().map(|r| r.records.as_slice()).collect()
}

/// A fleet's completion order: one `(replica, index)` pair per
/// completed request, naming `replicas[replica].records[index]`.
///
/// The fleet aggregate holds this instead of a second copy of every
/// record — 8 bytes per request against a 56-byte [`RequestRecord`] —
/// and [`FleetReport::records`] reads the replicas' records through it.
/// The order is `finish_s` under `f64::total_cmp`, ids breaking exact
/// ties.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MergeOrder(Vec<(u32, u32)>);

impl MergeOrder {
    /// Completed requests in the order.
    #[must_use]
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no request completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Merges the replicas' records, one slice per replica in `table`.
    ///
    /// A core records completions in clock order, so each replica's
    /// records are already sorted by `finish_s`. A winner tree over the
    /// replicas' next records, keyed like the wake calendar, merges
    /// them straight into an order of exact capacity, lower replica
    /// first on ties. A run of equal finish times can still be out of
    /// id order — across replicas, and within one, whose
    /// same-iteration completions are pushed in batch order — so each
    /// such run is sorted by the full comparator last. Runs are grouped
    /// by `==`, not by bits, so a replica's `0.0, -0.0` (in order under
    /// `<=`, not under `total_cmp`) is put right as well.
    fn of(table: &[&[RequestRecord]]) -> Self {
        let head = |r: usize, at: u32| {
            table[r]
                .get(at as usize)
                .map_or(u64::MAX, |rec| wake_key(rec.finish_s))
        };
        let total = table.iter().map(|recs| recs.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut next = vec![0u32; table.len()];
        let mut heads = MinTree::new((0..table.len()).map(|r| head(r, 0)).collect(), u64::MAX);
        for _ in 0..total {
            // A drained replica's `u64::MAX` never beats a record: the
            // largest key a non-NaN finish time folds to is `+inf`'s.
            let (r, _) = heads.min();
            order.push((r as u32, next[r]));
            next[r] += 1;
            heads.set(r, head(r, next[r]));
        }
        let rec = |&(r, i): &(u32, u32)| &table[r as usize][i as usize];
        for run in order.chunk_by_mut(|a, b| rec(a).finish_s == rec(b).finish_s) {
            if run.len() > 1 {
                run.sort_by(|a, b| {
                    let (a, b) = (rec(a), rec(b));
                    a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id))
                });
            }
        }
        Self(order)
    }

    /// The records the order names, read through `table`.
    fn gather<'a>(
        &'a self,
        table: Vec<&'a [RequestRecord]>,
    ) -> impl ExactSizeIterator<Item = &'a RequestRecord> + Clone + 'a {
        self.0
            .iter()
            .map(move |&(r, i)| &table[r as usize][i as usize])
    }
}

/// The outcome of serving one workload across a fleet.
///
/// Every completion record is stored once, in the replica that
/// completed it; the aggregate holds the fleet-wide completion order
/// over them, and [`FleetReport::records`] reads them in that order.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One [`ServeReport`] per replica, in replica order. Each is
    /// anchored at the first arrival *routed to that replica*, and owns
    /// its records in the order the replica completed them.
    ///
    /// The aggregate's order indexes these records by position, so
    /// they must stay as the run left them: after a replica's records
    /// are shortened, reordered or swapped for another report's,
    /// [`FleetReport::records`], [`FleetReport::multi_class`] and
    /// [`crate::digest_fleet_report`] panic or read the wrong records.
    pub replicas: Vec<ServeReport>,
    /// Requests the router sent to each replica (completions plus
    /// rejections, displaced re-routes included), index-aligned with
    /// `replicas`.
    pub assigned: Vec<u32>,
    /// The fleet-wide merged report: counts and busy-times summed,
    /// makespan spanning the whole run, and in place of records the
    /// completion order over the replicas' records
    /// ([`FleetReport::records`] reads through it). It is valid only
    /// with the `replicas` it was merged from.
    pub aggregate: ServeReport<MergeOrder>,
    /// Machine-seconds of capacity paid for: one second per non-down
    /// (live or draining) replica per sim second, integrated over the
    /// run. The cost axis the autoscaler trades against SLO-hours.
    pub machine_seconds: f64,
    /// Lifecycle transitions the run applied, and the requests
    /// failures displaced.
    pub lifecycle: LifecycleCounts,
}

impl FleetReport {
    /// Every completed request's record in fleet-wide completion order:
    /// `finish_s` under `f64::total_cmp`, ids breaking exact ties. The
    /// records are the replicas' own, read through the aggregate's
    /// [`MergeOrder`].
    ///
    /// # Panics
    ///
    /// Panics when the order names a record that is gone: a replica's
    /// records were shortened after the run (see
    /// [`FleetReport::replicas`]).
    pub fn records(&self) -> impl ExactSizeIterator<Item = &RequestRecord> + Clone + '_ {
        self.aggregate.records.gather(record_table(&self.replicas))
    }

    /// Number of provisioned replica slots.
    #[must_use]
    pub fn num_replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Each replica's decode-busy time as a fraction of the *fleet*
    /// makespan — comparable across replicas, unlike the per-replica
    /// [`ServeReport::utilization`] which is anchored at each replica's
    /// own first arrival.
    #[must_use]
    pub fn per_replica_utilization(&self) -> Vec<f64> {
        let span = self.aggregate.makespan_s;
        self.replicas
            .iter()
            .map(|r| {
                if span > 0.0 {
                    r.decode_busy_s / span
                } else {
                    0.0
                }
            })
            .collect()
    }

    /// Fleet decode utilisation: total decode-busy machine-seconds over
    /// `N x` makespan, in `[0, 1]`.
    #[must_use]
    pub fn fleet_utilization(&self) -> f64 {
        let span = self.aggregate.makespan_s * self.replicas.len() as f64;
        if span > 0.0 {
            self.aggregate.decode_busy_s / span
        } else {
            0.0
        }
    }

    /// Load imbalance across replicas: max over mean of per-replica
    /// decode-busy time. 1.0 is perfectly balanced; `N` means one
    /// replica did all the work. An idle fleet reports 1.0.
    #[must_use]
    pub fn imbalance(&self) -> f64 {
        let max = self
            .replicas
            .iter()
            .map(|r| r.decode_busy_s)
            .fold(0.0, f64::max);
        let mean = self.aggregate.decode_busy_s / self.replicas.len() as f64;
        if mean > 0.0 {
            max / mean
        } else {
            1.0
        }
    }

    /// Per-class and aggregate SLO metrics over the merged fleet
    /// report. Rates are fleet-wide (over the fleet makespan); the
    /// `utilization` field inside is the merged machine-seconds ratio —
    /// see [`FleetReport::fleet_utilization`] for the normalised one.
    #[must_use]
    pub fn multi_class(&self, classes: &[ClassSpec]) -> MultiClassReport {
        let stored = self.replicas.iter().flat_map(|r| r.records.iter());
        MultiClassReport::over(self.records(), stored, &self.aggregate, classes)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::cost::AnalyticCostModel;
    use crate::lifecycle::churn_tape;
    use crate::policy::Fifo;
    use crate::router::{JoinShortestQueue, RoundRobin, SessionAffinity};
    use rpu_models::LengthDistribution;
    use rpu_util::stats::{percentile, Percentiles};

    impl FleetRun {
        /// The replicas' cores, for tests that hand-edit frozen state.
        pub(crate) fn cores_mut(&mut self) -> &mut [Core] {
            &mut self.cores
        }
    }

    fn fleet(n: usize) -> Fleet {
        FleetBuilder::new()
            .group(
                n,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build()
    }

    #[test]
    fn negative_zero_and_negative_ticks_order_like_total_cmp() {
        let ticks = [
            f64::NEG_INFINITY,
            -1.5,
            -0.0,
            0.0,
            1e-300,
            2.5,
            f64::INFINITY,
        ];
        for (a, b) in ticks.iter().zip(&ticks[1..]) {
            assert!(wake_key(*a) < wake_key(*b), "{a} must wake before {b}");
        }
        for t in ticks {
            assert_eq!(wake_tick(wake_key(t)).to_bits(), t.to_bits());
        }
    }

    #[test]
    #[should_panic(expected = "wake-up ticks must be comparable")]
    fn nan_tick_is_rejected() {
        let _ = wake_key(f64::NAN);
    }

    #[test]
    fn infinite_tick_means_idle() {
        // An idle replica's `+∞` wake-up orders after every finite one,
        // so the tree names it only once every replica is idle.
        let never = wake_key(f64::INFINITY);
        assert!(wake_key(f64::MAX) < never);
        let mut t = MinTree::new(vec![never; 3], never);
        assert_eq!(wake_tick(t.min().1), f64::INFINITY);
        t.set(2, wake_key(1.0));
        assert_eq!(t.min(), (2, wake_key(1.0)));
        t.set(2, never); // rescheduled to `+∞`: idle again
        assert_eq!(wake_tick(t.min().1), f64::INFINITY);
    }

    /// The wake tree read as a calendar: the earliest `(tick, replica)`
    /// that is not idle, if any. Ticks compare by bits so `-0.0` and
    /// `0.0` stay apart.
    fn next_wake(t: &MinTree<u64>) -> Option<(u64, usize)> {
        let (i, k) = t.min();
        (k != wake_key(f64::INFINITY)).then(|| (wake_tick(k).to_bits(), i))
    }

    /// The naive calendar: replica → live finite tick; the lowest
    /// `(tick, replica)` is what the tree must name next.
    fn model_next(model: &std::collections::BTreeMap<usize, f64>) -> Option<(u64, usize)> {
        model
            .iter()
            .min_by(|a, b| a.1.total_cmp(b.1).then(a.0.cmp(b.0)))
            .map(|(&i, &tick)| (tick.to_bits(), i))
    }

    /// Drives the wake tree the way the fleet does — reschedule (to
    /// `+∞` for idle), cancel, pop the earliest (which idles it), peek —
    /// and checks it against the naive calendar after every step, then
    /// drains both.
    fn check_wake_tree(
        seed: u64,
        width: usize,
        n_ops: usize,
        draw_tick: impl Fn(&mut crate::ServeRng) -> f64,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        use proptest::prop_assert_eq;
        let never = wake_key(f64::INFINITY);
        let mut rng = crate::ServeRng::new(seed);
        let mut t = MinTree::new(vec![never; width], never);
        let mut model = std::collections::BTreeMap::new();
        for _ in 0..n_ops {
            let id = (rng.next_u64() % width as u64) as usize;
            match rng.next_u64() % 5 {
                0 | 1 => {
                    let tick = draw_tick(&mut rng);
                    t.set(id, wake_key(tick));
                    if tick == f64::INFINITY {
                        model.remove(&id);
                    } else {
                        model.insert(id, tick);
                    }
                }
                2 => {
                    t.set(id, never);
                    model.remove(&id);
                }
                3 => {
                    let want = model_next(&model);
                    prop_assert_eq!(next_wake(&t), want, "pop disagrees with model");
                    if let Some((_, i)) = want {
                        t.set(i, never);
                        model.remove(&i);
                    }
                }
                _ => prop_assert_eq!(next_wake(&t), model_next(&model), "peek disagrees"),
            }
            let live = (0..width).filter(|&i| t.key(i) != never).count();
            prop_assert_eq!(live, model.len(), "live count drifted");
            for (&i, &tick) in &model {
                prop_assert_eq!(wake_tick(t.key(i)).to_bits(), tick.to_bits());
            }
        }
        let mut drained = Vec::new();
        while let Some((tick, i)) = next_wake(&t) {
            drained.push((tick, i));
            t.set(i, never);
        }
        let mut expected: Vec<_> = model.iter().map(|(&i, &tick)| (tick, i)).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let expected: Vec<_> = expected
            .iter()
            .map(|&(tick, i)| (tick.to_bits(), i))
            .collect();
        prop_assert_eq!(drained, expected);
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Random reschedule / cancel / pop / peek interleavings over 16
        /// replicas never lose or duplicate a wake-up, and wake-ups
        /// surface in `(tick, replica)` order.
        #[test]
        fn wake_tree_agrees_with_the_naive_model(
            seed in 0u64..1 << 48,
            n_ops in 1usize..400,
        ) {
            check_wake_tree(seed, 16, n_ops, |rng| {
                if rng.next_u64().is_multiple_of(16) {
                    f64::INFINITY
                } else {
                    (rng.next_u64() % 1000) as f64 / 8.0
                }
            })?;
        }

        /// The same at a padded width of 96 replicas, with negative
        /// ticks, signed zeros and a spread wide enough to exercise the
        /// sign-folded key across its whole range.
        #[test]
        fn wide_wake_tree_agrees_with_the_naive_model(
            seed in 0u64..1 << 48,
            n_ops in 1usize..500,
        ) {
            check_wake_tree(seed, 96, n_ops, |rng| match rng.next_u64() % 8 {
                0 => f64::INFINITY,
                1 => -((rng.next_u64() % 64) as f64) / 4.0,
                2 => -0.0,
                3 => (rng.next_u64() % (1 << 40)) as f64,
                _ => (rng.next_u64() % 4096) as f64 / 16.0,
            })?;
        }
    }

    /// `width` replicas of finish-sorted records. Finish times come from
    /// a small grid (signed zeros included) so ties are common within
    /// and across replicas, ids are shuffled so tied runs arrive out of
    /// id order, and about a quarter of the replicas are empty.
    pub(crate) fn random_replicas(seed: u64, width: usize) -> Vec<ServeReport> {
        let mut rng = crate::rng::ServeRng::new(seed);
        let lens: Vec<usize> = (0..width)
            .map(|_| match rng.next_u64() % 4 {
                0 => 0,
                _ => 1 + (rng.next_u64() % 12) as usize,
            })
            .collect();
        let mut ids: Vec<u32> = (0..lens.iter().sum::<usize>() as u32).collect();
        for i in (1..ids.len()).rev() {
            ids.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let mut ids = ids.into_iter();
        lens.iter()
            .map(|&len| {
                let mut records: Vec<RequestRecord> = (0..len)
                    .map(|_| {
                        let finish_s = match rng.next_u64() % 16 {
                            0 => -0.0,
                            1 => 0.0,
                            k => (k % 6) as f64 / 4.0,
                        };
                        RequestRecord {
                            id: ids.next().expect("one id per record"),
                            arrival_s: 0.0,
                            admit_s: 0.0,
                            first_token_s: 0.0,
                            finish_s,
                            prompt_len: 1,
                            output_len: 1,
                            tenant: 0,
                            class: 0,
                            preemptions: 0,
                        }
                    })
                    .collect();
                // Core order: non-decreasing by `<=`, so signed zeros
                // stay in whatever order they were drawn.
                records.sort_by(|a, b| a.finish_s.partial_cmp(&b.finish_s).expect("no NaN"));
                ServeReport {
                    records,
                    rejected: 0,
                    rejected_requests: vec![],
                    preemptions: 0,
                    makespan_s: 0.0,
                    decode_busy_s: 0.0,
                    prefill_busy_s: 0.0,
                    decode_iterations: 0,
                    peak_batch: 0,
                    peak_reserved_tokens: 0,
                }
            })
            .collect()
    }

    /// A fleet report over `replicas`, merged as `into_report` merges.
    pub(crate) fn report_of(replicas: Vec<ServeReport>) -> FleetReport {
        FleetReport {
            aggregate: merge(&replicas),
            assigned: vec![0; replicas.len()],
            replicas,
            machine_seconds: 0.0,
            lifecycle: LifecycleCounts::default(),
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// The completion-order view equals the collect-and-sort the
        /// owned aggregate was once built by, record for record and bit
        /// for bit, and the order costs one exact-capacity pair per
        /// record.
        #[test]
        fn merge_equals_the_sort_it_replaced(
            seed in 0u64..1 << 48,
            width in proptest::sample::select(vec![1usize, 3, 64, 1000]),
        ) {
            let report = report_of(random_replicas(seed, width));
            let mut expected: Vec<RequestRecord> = report
                .replicas
                .iter()
                .flat_map(|r| r.records.iter().copied())
                .collect();
            expected.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
            let bits = |recs: &[RequestRecord]| -> Vec<(u32, u64)> {
                recs.iter().map(|r| (r.id, r.finish_s.to_bits())).collect()
            };
            let viewed: Vec<RequestRecord> = report.records().copied().collect();
            proptest::prop_assert_eq!(bits(&viewed), bits(&expected));
            let order = &report.aggregate.records.0;
            proptest::prop_assert_eq!(order.capacity(), expected.len());
            proptest::prop_assert_eq!(std::mem::size_of_val(order.as_slice()), 8 * expected.len());
        }
    }

    #[test]
    #[should_panic(expected = "at least one replica")]
    fn empty_fleet_is_rejected() {
        let _ = FleetBuilder::new().build();
    }

    #[test]
    #[should_panic(expected = "max_batch")]
    fn zero_batch_replica_is_rejected() {
        let _ = FleetBuilder::new()
            .group(
                2,
                &ServeConfig {
                    max_batch: 0,
                    ..ServeConfig::default()
                },
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "at least one live replica")]
    fn all_down_fleet_is_rejected() {
        let _ = FleetBuilder::new()
            .group_with_state(
                LifecycleState::Down,
                2,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build();
    }

    #[test]
    #[should_panic(expected = "migration delay")]
    fn negative_migration_delay_is_rejected() {
        let _ = fleet_with_delay(-1.0);
    }

    fn fleet_with_delay(delay: f64) -> Fleet {
        FleetBuilder::new()
            .migration_delay_s(delay)
            .group(
                2,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build()
    }

    #[test]
    fn fleet_completes_everything_and_accounts_assignments() {
        let wl = Workload::poisson(2000.0, 256, 32, 96);
        let r = fleet(3).serve(&wl, &mut RoundRobin::new());
        assert_eq!(r.aggregate.records.len(), 96);
        assert_eq!(r.aggregate.rejected, 0);
        assert_eq!(r.assigned, vec![32, 32, 32]);
        assert_eq!(
            r.replicas.iter().map(|p| p.records.len()).sum::<usize>(),
            96
        );
        assert_eq!(r.lifecycle, LifecycleCounts::default());
        assert!(r.machine_seconds > 0.0);
        // Merged records are in completion order.
        let merged: Vec<&RequestRecord> = r.records().collect();
        assert!(merged.windows(2).all(|w| w[0].finish_s <= w[1].finish_s));
    }

    #[test]
    fn more_replicas_shorten_the_interactive_tail() {
        let wl = Workload::poisson(3000.0, 512, 32, 96);
        let p99 = |n: usize| {
            let r = fleet(n).serve(&wl, &mut JoinShortestQueue);
            let mut ttfts: Vec<f64> = r.records().map(RequestRecord::ttft_s).collect();
            ttfts.sort_by(f64::total_cmp);
            ttfts[ttfts.len() * 99 / 100]
        };
        assert!(p99(4) < p99(1), "4 replicas {} vs 1 {}", p99(4), p99(1));
    }

    #[test]
    fn closed_loop_works_across_the_fleet() {
        let wl = Workload {
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 6,
                think_s: 0.002,
            },
            ..Workload::poisson(1.0, 128, 16, 48)
        };
        let a = fleet(3).serve(&wl, &mut JoinShortestQueue);
        let b = fleet(3).serve(&wl, &mut JoinShortestQueue);
        assert_eq!(a.aggregate.records.len(), 48);
        assert_eq!(a, b, "closed-loop fleet runs must be bit-reproducible");
    }

    #[test]
    fn affinity_keeps_sessions_on_one_replica() {
        let wl = Workload {
            classes: vec![crate::class::ClassSpec {
                tenants: 8,
                ..crate::class::ClassSpec::interactive()
            }],
            ..Workload::poisson(500.0, 128, 8, 64)
        };
        let r = fleet(4).serve(&wl, &mut SessionAffinity::new());
        // Every session's requests completed on exactly one replica.
        for rep in &r.replicas {
            for rec in &rep.records {
                for other in r.replicas.iter().filter(|o| !std::ptr::eq(*o, rep)) {
                    assert!(
                        !other.records.iter().any(|x| x.tenant == rec.tenant),
                        "tenant {} split across replicas",
                        rec.tenant
                    );
                }
            }
        }
    }

    #[test]
    fn heterogeneous_capacity_is_published_honestly() {
        // One big replica, one tiny one: least-KV routing must see the
        // different capacities, and oversized requests only fit the big
        // machine.
        let wl = Workload {
            prompt_lens: LengthDistribution::Fixed(2000),
            output_lens: LengthDistribution::Fixed(8),
            ..Workload::poisson(100.0, 1, 1, 10)
        };
        let mut f = FleetBuilder::new()
            .replica(FleetReplica {
                cost: Box::new(AnalyticCostModel {
                    kv_capacity_tokens: 64 * 1024,
                    ..AnalyticCostModel::small()
                }),
                policy: Box::new(Fifo),
                config: ServeConfig::default(),
            })
            .replica(FleetReplica {
                cost: Box::new(AnalyticCostModel {
                    kv_capacity_tokens: 1024,
                    ..AnalyticCostModel::small()
                }),
                policy: Box::new(Fifo),
                config: ServeConfig::default(),
            })
            .build();
        let r = f.serve(&wl, &mut JoinShortestQueue);
        // 2008-token reservations never fit the 1024-token replica, and
        // JSQ respects published capacity, so nothing is rejected.
        assert_eq!(r.aggregate.records.len(), 10);
        assert_eq!(r.aggregate.rejected, 0);
        assert_eq!(r.assigned[1], 0, "JSQ routed over the small replica's KV");
    }

    #[test]
    fn fleet_metrics_are_well_formed() {
        let wl = Workload::poisson(2000.0, 256, 32, 64);
        let r = fleet(4).serve(&wl, &mut JoinShortestQueue);
        assert_eq!(r.num_replicas(), 4);
        let util = r.per_replica_utilization();
        assert_eq!(util.len(), 4);
        assert!(util.iter().all(|u| (0.0..=1.0 + 1e-9).contains(u)));
        assert!((0.0..=1.0 + 1e-9).contains(&r.fleet_utilization()));
        assert!(r.imbalance() >= 1.0 - 1e-9);
        assert!(r.imbalance() <= 4.0 + 1e-9);
        let m = r.multi_class(&[ClassSpec::interactive()]);
        assert_eq!(m.aggregate.completed, 64);
    }

    #[test]
    fn drained_replica_admits_nothing_new() {
        let wl = Workload::poisson(2000.0, 256, 32, 96);
        let mut f = fleet(3);
        let mut router = RoundRobin::new();
        let mut run = f.start(&wl);
        run.inject(FleetEvent {
            at_s: 0.0,
            replica: 1,
            kind: FleetEventKind::Drain,
        });
        while run.step(&mut f, &mut router) {}
        let r = run.into_report();
        assert_eq!(r.assigned[1], 0, "drained replica was routed to");
        assert_eq!(r.lifecycle.drains, 1);
        assert_eq!(
            r.aggregate.records.len() + r.aggregate.rejected as usize,
            96
        );
    }

    #[test]
    fn failure_displaces_and_conserves_requests() {
        let wl = Workload::poisson(2000.0, 256, 32, 96);
        let mut f = fleet_with_delay(0.004);
        let mut router = RoundRobin::new();
        let mut run = f.start(&wl);
        run.inject(FleetEvent {
            at_s: 0.01,
            replica: 1,
            kind: FleetEventKind::Fail,
        });
        while run.step(&mut f, &mut router) {}
        let r = run.into_report();
        assert_eq!(r.lifecycle.fails, 1);
        assert!(
            r.lifecycle.displaced >= 1,
            "failure at 0.01 displaced nothing"
        );
        assert_eq!(
            r.aggregate.records.len() as u32 + r.aggregate.rejected,
            96,
            "every request completes or is rejected exactly once"
        );
        // Displaced requests re-enter through the router: the survivor
        // absorbs them, so assignments over-count total requests.
        assert!(u64::from(r.assigned.iter().sum::<u32>()) >= 96);
    }

    #[test]
    fn drain_then_leave_cuts_machine_seconds() {
        // A rate one replica sustains: the makespan is arrival-bound,
        // so running two machines instead of one buys nothing but cost.
        let wl = Workload::poisson(200.0, 256, 32, 64);
        let run_with = |drain: bool| {
            let mut f = fleet(2);
            let mut router = RoundRobin::new();
            let mut run = f.start(&wl);
            if drain {
                run.inject(FleetEvent {
                    at_s: 0.0,
                    replica: 1,
                    kind: FleetEventKind::Drain,
                });
                run.inject(FleetEvent {
                    at_s: 0.0,
                    replica: 1,
                    kind: FleetEventKind::Leave,
                });
            }
            while run.step(&mut f, &mut router) {}
            run.into_report()
        };
        let static_run = run_with(false);
        let scaled_down = run_with(true);
        assert_eq!(scaled_down.lifecycle.leaves, 1);
        assert!(
            scaled_down.machine_seconds < static_run.machine_seconds,
            "leaving a replica must cost fewer machine-seconds: {} vs {}",
            scaled_down.machine_seconds,
            static_run.machine_seconds
        );
    }

    #[test]
    fn churned_run_replays_identically() {
        let wl = Workload::poisson(1500.0, 256, 24, 80);
        let mut f = fleet_with_delay(0.002);
        let mut router = JoinShortestQueue;
        let mut run = f.start(&wl);
        for ev in churn_tape(2, 11, 0.04, 6) {
            run.inject(ev);
        }
        while run.step(&mut f, &mut router) {}
        let log = run.log().clone();
        let recorded = run.into_report();
        assert!(recorded.lifecycle.events() > 0, "tape applied no events");
        let replayed = f.replay(&wl, &log);
        assert_eq!(recorded, replayed);
    }

    #[test]
    fn churned_run_survives_snapshot_resume() {
        let wl = Workload::poisson(1500.0, 256, 24, 80);
        let mut f = fleet_with_delay(0.002);
        let mut router = JoinShortestQueue;

        let mut straight = f.start(&wl);
        for ev in churn_tape(2, 5, 0.04, 6) {
            straight.inject(ev);
        }
        let mut resumed = f.start(&wl);
        for ev in churn_tape(2, 5, 0.04, 6) {
            resumed.inject(ev);
        }
        // Freeze/thaw midway, with events and possibly displaced
        // requests outstanding, then finish both runs.
        for _ in 0..200 {
            if !resumed.step(&mut f, &mut router) {
                break;
            }
        }
        let bytes = resumed.snapshot(&router);
        let mut thawed = FleetRun::resume(&wl, &f, &mut router, &bytes).unwrap();
        assert_eq!(thawed.state_digest(&router), {
            let mut r2 = JoinShortestQueue;
            let bytes2 = thawed.snapshot(&r2);
            let t2 = FleetRun::resume(&wl, &f, &mut r2, &bytes2).unwrap();
            t2.state_digest(&r2)
        });
        while thawed.step(&mut f, &mut router) {}
        while straight.step(&mut f, &mut router) {}
        assert_eq!(straight.into_report(), thawed.into_report());
    }

    #[test]
    fn ttft_window_matches_a_full_filter_under_churn() {
        // The forward-only window must hold exactly the samples a filter
        // over every record returns, and select the same p99, at every
        // probe time — non-decreasing across failures that strand a
        // replica's records while its clock stands still, and across
        // joins. Probes trail the clock by 50 ms, as the autoscaler's
        // windows do, so each window still holds records.
        let brute = |run: &FleetRun, t: f64| -> Vec<f64> {
            run.cores
                .iter()
                .flat_map(|c| c.records().iter().filter(move |r| r.finish_s >= t))
                .map(RequestRecord::ttft_s)
                .filter(|x| !x.is_nan())
                .collect()
        };
        let bits = |xs: &[f64]| -> Vec<u64> {
            let mut xs = xs.to_vec();
            xs.sort_by(f64::total_cmp);
            xs.into_iter().map(f64::to_bits).collect()
        };
        let wl = Workload::poisson(1500.0, 256, 24, 240);
        let mut f = fleet_with_delay(0.002);
        let mut router = JoinShortestQueue;
        let mut run = f.start(&wl);
        for ev in churn_tape(2, 11, 0.04, 8) {
            run.inject(ev);
        }
        let mut window = TtftWindow::new(&run);
        let mut since = f64::NEG_INFINITY;
        let (mut probes, mut widest) = (0u32, 0usize);
        loop {
            let more = run.step(&mut f, &mut router);
            if run.events().is_multiple_of(17) || !more {
                let until = if more {
                    run.now_s() - 0.05
                } else {
                    f64::INFINITY
                };
                let mut ts = vec![since, until, 0.0, run.now_s()];
                for c in &run.cores {
                    for r in c.records() {
                        ts.extend([r.finish_s, r.finish_s - 1e-6, r.finish_s + 1e-6]);
                    }
                }
                ts.retain(|&t| t >= since && t <= until);
                ts.sort_by(f64::total_cmp);
                for t in ts {
                    let p99 = window.p99_since(&run, t);
                    let want = brute(&run, t);
                    assert_eq!(bits(&window.samples), bits(&want), "t = {t}");
                    let p99 = p99.map(f64::to_bits);
                    assert_eq!(
                        p99,
                        (!want.is_empty()).then(|| percentile(&want, 99.0).to_bits()),
                        "t = {t}"
                    );
                    assert_eq!(
                        p99,
                        (!want.is_empty()).then(|| Percentiles::from_samples(&want).p99.to_bits()),
                        "t = {t}"
                    );
                    since = t;
                    probes += 1;
                    widest = widest.max(want.len());
                }
            }
            if !more {
                break;
            }
        }
        assert_eq!(window.p99_since(&run, f64::INFINITY), None);
        let counts = run.lifecycle_counts();
        assert!(counts.fails > 0, "tape applied no failure");
        assert!(counts.joins > 0, "tape applied no join");
        assert!(probes > 700, "too few probes: {probes}");
        assert!(widest > 15, "windows stayed narrow: {widest}");
    }

    #[test]
    #[should_panic(expected = "TTFT window moved backwards")]
    fn ttft_window_rejects_a_backward_query() {
        let run = fleet(2).start(&Workload::poisson(1500.0, 256, 24, 8));
        let mut window = TtftWindow::new(&run);
        let _ = window.p99_since(&run, 0.5);
        let _ = window.p99_since(&run, 0.25);
    }

    #[test]
    fn machine_seconds_match_a_brute_integral_over_churn_storms() {
        // The maintained up-count must integrate exactly as a rescan of
        // the lifecycle states at every logged transition does, bit for
        // bit, through storms of joins, drains and failures.
        for width in [64u32, 1000] {
            let wl = Workload::poisson(f64::from(width) * 40.0, 64, 8, 2 * width);
            let mut f = FleetBuilder::new()
                .migration_delay_s(0.001)
                .group(
                    width as usize,
                    &ServeConfig::default(),
                    || Box::new(AnalyticCostModel::small()),
                    || Box::new(Fifo),
                )
                .build();
            let mut router = RoundRobin::new();
            let mut run = f.start(&wl);
            for ev in churn_tape(width, 7, 0.04, width / 2) {
                run.inject(ev);
            }
            while run.step(&mut f, &mut router) {}
            let (log, end_s) = (run.log().clone(), run.now_s());
            let report = run.into_report();
            assert_eq!(report.lifecycle.events(), width / 2, "width {width}");
            let mut states = f.initial_states().to_vec();
            let (mut brute, mut anchor) = (0.0, 0.0);
            let mut accrue = |states: &[LifecycleState], t: f64| {
                let up = states.iter().filter(|s| **s != LifecycleState::Down);
                brute += up.count() as f64 * (t - anchor);
                anchor = t;
            };
            for &(_, ev) in log.transitions() {
                accrue(&states, ev.at_s);
                states[ev.replica as usize] = match ev.kind {
                    FleetEventKind::Join => LifecycleState::Live,
                    FleetEventKind::Drain => LifecycleState::Draining,
                    FleetEventKind::Leave | FleetEventKind::Fail => LifecycleState::Down,
                };
            }
            accrue(&states, end_s);
            assert_eq!(
                report.machine_seconds.to_bits(),
                brute.to_bits(),
                "width {width}: {} vs {brute}",
                report.machine_seconds
            );
        }
    }

    #[test]
    fn stats_conserve_across_failures() {
        let wl = Workload::poisson(2000.0, 256, 32, 64);
        let mut f = fleet_with_delay(0.05);
        let mut router = RoundRobin::new();
        let mut run = f.start(&wl);
        run.inject(FleetEvent {
            at_s: 0.008,
            replica: 0,
            kind: FleetEventKind::Fail,
        });
        loop {
            assert!(run.stats().conserved(), "stats leak: {:?}", run.stats());
            if !run.step(&mut f, &mut router) {
                break;
            }
        }
    }

    #[test]
    #[should_panic(expected = "wedged")]
    fn all_replicas_down_with_work_left_panics() {
        let wl = Workload::poisson(2000.0, 256, 32, 64);
        let mut f = fleet(1);
        let mut router = RoundRobin::new();
        let mut run = f.start(&wl);
        // Failing the only replica with arrivals left wedges the fleet.
        run.inject(FleetEvent {
            at_s: 0.001,
            replica: 0,
            kind: FleetEventKind::Fail,
        });
        while run.step(&mut f, &mut router) {}
    }

    #[test]
    fn down_slot_joins_and_takes_traffic() {
        let wl = Workload::poisson(2000.0, 256, 32, 96);
        let mut f = FleetBuilder::new()
            .group(
                1,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .group_with_state(
                LifecycleState::Down,
                1,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build();
        let mut router = RoundRobin::new();
        let mut run = f.start(&wl);
        run.inject(FleetEvent {
            at_s: 0.005,
            replica: 1,
            kind: FleetEventKind::Join,
        });
        while run.step(&mut f, &mut router) {}
        let r = run.into_report();
        assert_eq!(r.lifecycle.joins, 1);
        assert!(r.assigned[1] > 0, "joined replica took no traffic");
    }
}
