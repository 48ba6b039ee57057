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
//! one replica the driver degenerates to exactly the single-machine
//! scheduler; the differential suite asserts record-for-record
//! equality.
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
//! assert_eq!(a.aggregate, b.aggregate);
//! assert_eq!(a.assigned.iter().sum::<u32>(), 64);
//! ```

use std::collections::VecDeque;

use crate::arrivals::{RequestSource, Workload};
use crate::calendar::CalendarQueue;
use crate::class::ClassSpec;
use crate::cost::CostModel;
use crate::digest::ReportDigest;
use crate::lifecycle::{FleetEvent, FleetEventKind, LifecycleCounts, LifecycleState};
use crate::metrics::MultiClassReport;
use crate::policy::{QueuedRequest, SchedulingPolicy};
use crate::replay::{CommandLog, LoggedPicks};
use crate::request::{Request, RequestRecord};
use crate::router::{ReplicaTelemetry, RouteStats, Router, RoutingView};
use crate::routing_index::FleetRoutingIndex;
use crate::scheduler::{Core, RunStats, ServeConfig, ServeReport};
use crate::snapshot::{
    fnv1a, section, workload_fingerprint, SnapshotError, SnapshotReader, SnapshotWriter, KIND_FLEET,
};

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
        let source = RequestSource::new(workload);
        let cores: Vec<Core> = self.replicas.iter().map(|r| Core::new(r.config)).collect();
        let states = self.initial_states.clone();
        let Derived {
            wake,
            telemetry,
            index,
            kv_caps,
            routable,
        } = Derived::build(self, &cores, &states);
        FleetRun {
            source,
            cores,
            wake,
            telemetry,
            index,
            route_stats: RouteStats::default(),
            kv_caps,
            log: CommandLog::default(),
            events: 0,
            fingerprint: workload_fingerprint(workload),
            states,
            routable,
            pending_events: VecDeque::new(),
            displaced: VecDeque::new(),
            now_s: 0.0,
            migration_delay_s: self.migration_delay_s,
            ms_accrued: 0.0,
            ms_anchor_s: 0.0,
            counts: LifecycleCounts::default(),
        }
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
    /// The global wake-up calendar: each replica's next scheduling
    /// event, keyed `(tick, replica)`. A replica's entry is refreshed
    /// after every event that touches it — nothing else can move its
    /// next event — so the driver pops the globally earliest event in
    /// amortised `O(1)` (a timing wheel; see [`CalendarQueue`]) instead
    /// of scanning every replica per event. Not serialised: rebuilt
    /// deterministically from the cores on resume.
    wake: CalendarQueue,
    /// Cached per-replica telemetry, index-aligned with `cores`. A
    /// replica's published counters can only change when an event
    /// touches it (a lifecycle transition included), so the driver
    /// refreshes exactly one entry per event instead of recollecting
    /// the whole fleet on every arrival — the difference between
    /// `O(1)` and `O(n)` routing at 1000 replicas. Not serialised:
    /// rebuilt deterministically from the cores on resume, like the
    /// wake-up calendar.
    telemetry: Vec<ReplicaTelemetry>,
    /// Ordered indexes over `telemetry` and `routable` — the routers'
    /// `O(log R)` lookup structure. One dirty mark per event keeps it
    /// in sync; like the telemetry cache it is derived state, rebuilt
    /// on resume, never serialised.
    index: FleetRoutingIndex,
    /// Routing-path counters, shared into every view handed a router.
    route_stats: RouteStats,
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
    /// Each slot's current lifecycle state, in replica order.
    states: Vec<LifecycleState>,
    /// `states[i].is_routable()`, cached as the mask the router sees.
    routable: Vec<bool>,
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
    counts: LifecycleCounts,
}

/// Per-subsystem hot-path counters for one [`FleetRun`] — the numbers
/// behind the repro driver's `--counters` report. All counts are since
/// run start (or resume; they are diagnostic state, not part of the
/// snapshot wire format).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Routing decisions made (arrivals plus displaced re-routes).
    pub route_calls: u64,
    /// Routing lookups answered from the [`FleetRoutingIndex`].
    pub route_index_hits: u64,
    /// Linear `O(R)` routing scans taken. Zero for the built-in
    /// routers outside join-shortest-queue's KV-saturated slow path.
    pub route_scan_fallbacks: u64,
    /// Routing-index leaf refreshes applied (each an `O(log R)`
    /// tournament pull-up).
    pub index_leaf_updates: u64,
    /// Routing-index dirty marks observed (one per event that touched
    /// a replica's telemetry or lifecycle state).
    pub index_marks: u64,
    /// Insertions into the fleet wake calendar.
    pub wheel_ops: u64,
}

/// The telemetry every replica currently publishes — the cache the
/// router reads, rebuilt wholesale only at run start and resume.
fn cached_telemetry(cores: &[Core], replicas: &[FleetReplica]) -> Vec<ReplicaTelemetry> {
    cores
        .iter()
        .zip(replicas)
        .map(|(c, r)| c.telemetry(r.cost.kv_capacity_tokens()))
        .collect()
}

/// The state a [`FleetRun`] derives from its cores and lifecycle states
/// instead of serialising: the wake-up calendar, the telemetry cache,
/// the routable mask, the routing index and the KV capacities.
struct Derived {
    wake: CalendarQueue,
    telemetry: Vec<ReplicaTelemetry>,
    index: FleetRoutingIndex,
    kv_caps: Vec<u64>,
    routable: Vec<bool>,
}

impl Derived {
    /// Builds the derived state for a fresh or thawed run. Identical
    /// `(tick, replica)` keys reproduce a frozen run's pop order
    /// exactly, and identical counters reproduce its routing. Fresh
    /// cores are idle (next event at infinity), so a fresh run's
    /// calendar starts empty and the first arrival seeds it.
    fn build(fleet: &Fleet, cores: &[Core], states: &[LifecycleState]) -> Self {
        let mut wake = CalendarQueue::with_components(cores.len());
        for (i, core) in cores.iter().enumerate() {
            wake.schedule(i as u32, core.next_event_s());
        }
        let telemetry = cached_telemetry(cores, &fleet.replicas);
        let routable: Vec<bool> = states.iter().map(|s| s.is_routable()).collect();
        let index = FleetRoutingIndex::new(&telemetry, &routable);
        let kv_caps = fleet
            .replicas
            .iter()
            .map(|r| r.cost.kv_capacity_tokens())
            .collect();
        Self {
            wake,
            telemetry,
            index,
            kv_caps,
            routable,
        }
    }
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
        assert_eq!(
            self.cores.len(),
            fleet.replicas.len(),
            "fleet changed size mid-run"
        );
        let next = self.next_events();
        if !next.earliest().is_finite() {
            assert!(
                !next.starved,
                "fleet wedged: requests pending with no live replica \
                 and no scheduled lifecycle event"
            );
            return false;
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
            self.routable[i] = self.states[i].is_routable();
            self.index.set_routable(i, self.routable[i]);
            self.telemetry[i] = self.cores[i].telemetry(self.kv_caps[i]);
            debug_assert_eq!(
                self.telemetry,
                cached_telemetry(&self.cores, &fleet.replicas),
                "telemetry cache drifted after lifecycle event"
            );
            self.log.push_transition(self.events, ev);
            router.on_fleet_event(
                &ev,
                &RoutingView::new(&self.telemetry, &self.routable, ev.at_s)
                    .with_index(&self.index)
                    .with_stats(&self.route_stats),
            );
            i
        } else if next.reroute <= next.arrival && next.reroute <= next.wake {
            let (due, q) = self.displaced.pop_front().expect("re-route is due");
            // A re-route can come due while later events were already
            // executing (zero delay, or the clock ran ahead); it fires
            // at the current clock, never in the past.
            let t = due.max(self.now_s);
            self.now_s = t;
            let pick = self.route(fleet, router, &q.req);
            self.cores[pick].enqueue_displaced(q, t);
            pick
        } else if next.arrival <= next.wake {
            let req = self.source.pop_ready(next.arrival).expect("arrival is due");
            self.now_s = self.now_s.max(next.arrival);
            let pick = self.route(fleet, router, &req);
            self.cores[pick].enqueue(req);
            pick
        } else {
            let (tick, which) = self.wake.pop().expect("next_event is finite");
            self.now_s = self.now_s.max(tick);
            let which = which as usize;
            let replica = &mut fleet.replicas[which];
            self.cores[which].step(
                replica.cost.as_mut(),
                replica.policy.as_mut(),
                &mut self.source,
            );
            which
        };
        // Only the touched replica's next event and telemetry can have
        // moved (cores share nothing but the arrival source, which is
        // re-read above every step).
        self.wake
            .schedule(touched as u32, self.cores[touched].next_event_s());
        self.telemetry[touched] = self.cores[touched].telemetry(self.kv_caps[touched]);
        self.index.mark_dirty(touched);
        self.events += 1;
        true
    }

    /// Asks the router for a live replica for `req` at the current
    /// clock and logs the pick.
    fn route(&mut self, fleet: &Fleet, router: &mut dyn Router, req: &Request) -> usize {
        debug_assert_eq!(
            self.telemetry,
            cached_telemetry(&self.cores, &fleet.replicas),
            "telemetry cache drifted from the cores"
        );
        self.route_stats.note_route_call();
        let pick = router.route(
            req,
            &RoutingView::new(&self.telemetry, &self.routable, self.now_s)
                .with_index(&self.index)
                .with_stats(&self.route_stats),
        );
        assert!(pick < self.cores.len(), "router picked out of range");
        assert!(self.routable[pick], "router picked an unroutable replica");
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
        let up = self
            .states
            .iter()
            .filter(|s| !matches!(s, LifecycleState::Down))
            .count();
        self.ms_accrued += up as f64 * (t - self.ms_anchor_s);
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
                self.counts.leaves += 1;
            }
            FleetEventKind::Fail => {
                assert_ne!(*state, LifecycleState::Down, "fail of a down replica");
                *state = LifecycleState::Down;
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
    /// distinguishes the two).
    #[must_use]
    pub fn next_time(&mut self) -> Option<f64> {
        let next = self.next_events().earliest();
        // Events never run in the past: one that came due while the
        // clock ran ahead (a re-route or arrival held back by an
        // all-down fleet) fires at the current clock.
        next.is_finite().then(|| next.max(self.now_s))
    }

    /// The candidate times [`FleetRun::step`] and [`FleetRun::next_time`]
    /// both choose from.
    fn next_events(&mut self) -> NextEvents {
        // The index maintains the live count incrementally, so this is
        // O(1) instead of a mask scan per event.
        let any_live = self.index.live_count() > 0;
        debug_assert_eq!(
            any_live,
            self.routable.iter().any(|&r| r),
            "index live count drifted from the routable mask"
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
            // The calendar's head is the earliest replica event; ties
            // on the tick pop the lowest replica index.
            wake: self.wake.peek().map_or(f64::INFINITY, |(t, _)| t),
            starved: !any_live && (reroute.is_finite() || arrival.is_finite()),
        }
    }

    /// Steps the run until its next event lies strictly after `t` (or
    /// it finishes). Returns `true` while events remain — the
    /// autoscaler's control loop: advance to the next decision
    /// boundary, look at the fleet, inject, repeat.
    pub fn step_until(&mut self, fleet: &mut Fleet, router: &mut dyn Router, t: f64) -> bool {
        while let Some(next) = self.next_time() {
            if next > t {
                return true;
            }
            if !self.step(fleet, router) {
                return false;
            }
        }
        // No candidate event at all: let step() decide between clean
        // completion and a wedged-fleet panic.
        self.step(fleet, router)
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

    /// What every replica currently publishes to the router — the
    /// counters cap invariants are checked against.
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
        let fresh = cached_telemetry(&self.cores, &fleet.replicas);
        debug_assert_eq!(self.telemetry, fresh, "telemetry cache drifted");
        fresh
    }

    /// TTFTs of every request that completed at or after sim time `t`,
    /// in replica order then per-replica completion order — the
    /// autoscaler's windowed latency sample. Each replica's records are
    /// sorted by finish time, so the window is found by binary search:
    /// O(replicas · log records + window), not a rescan of the run.
    #[must_use]
    pub fn ttfts_completed_since(&self, t: f64) -> Vec<f64> {
        fn window(c: &Core, t: f64) -> &[RequestRecord] {
            let recs = c.records();
            &recs[recs.partition_point(|r| r.finish_s < t)..]
        }
        // Sized exactly up front: a growing collect at every control
        // boundary measurably raised the autoscaled run's peak RSS.
        let n = self.cores.iter().map(|c| window(c, t).len()).sum();
        let mut ttfts = Vec::with_capacity(n);
        for c in &self.cores {
            ttfts.extend(window(c, t).iter().map(RequestRecord::ttft_s));
        }
        ttfts
    }

    /// Per-subsystem hot-path counters accumulated so far — calendar
    /// insertions, routing-index maintenance and routing decisions.
    /// Diagnostic only (the repro driver's `--counters` report): never
    /// serialised, reset on resume.
    #[must_use]
    pub fn perf_counters(&self) -> PerfCounters {
        let (index_leaf_updates, index_marks) = self.index.update_counts();
        PerfCounters {
            route_calls: self.route_stats.route_calls(),
            route_index_hits: self.route_stats.index_hits(),
            route_scan_fallbacks: self.route_stats.scan_fallbacks(),
            index_leaf_updates,
            index_marks,
            wheel_ops: self.wake.scheduled_ops(),
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
        if now_s.is_nan() || ms_accrued.is_nan() || ms_anchor_s.is_nan() {
            return Err(SnapshotError::Corrupt("lifecycle clock state is NaN"));
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
        let mut pending_events = VecDeque::with_capacity(num_pending);
        for _ in 0..num_pending {
            let ev = FleetEvent::load(&mut r)?;
            if !ev.at_s.is_finite() || (ev.replica as usize) >= n {
                return Err(SnapshotError::Corrupt("bad pending lifecycle event"));
            }
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
        let Derived {
            wake,
            telemetry,
            index,
            kv_caps,
            routable,
        } = Derived::build(fleet, &cores, &states);
        Ok(Self {
            source,
            cores,
            wake,
            telemetry,
            index,
            route_stats: RouteStats::default(),
            kv_caps,
            log,
            events,
            fingerprint,
            states,
            routable,
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

/// Folds per-replica reports into one fleet-wide [`ServeReport`].
///
/// Counts, busy times and iterations are sums over replicas (in replica
/// order, so the fold is deterministic); the makespan spans the
/// earliest arrival to the latest completion anywhere in the fleet;
/// `peak_batch`/`peak_reserved_tokens` are the largest any single
/// replica saw (per-replica peaks do not add across machines). Note
/// [`ServeReport::utilization`] on the merged report is therefore
/// *machine-seconds per wall-second* — up to N for an N-replica fleet;
/// [`FleetReport::fleet_utilization`] normalises it.
pub(crate) fn merge(replicas: &[ServeReport]) -> ServeReport {
    let mut records: Vec<RequestRecord> = replicas
        .iter()
        .flat_map(|r| r.records.iter().copied())
        .collect();
    // Fleet-wide completion order; ids break exact finish-time ties.
    records.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
    let mut rejected_requests: Vec<_> = replicas
        .iter()
        .flat_map(|r| r.rejected_requests.iter().copied())
        .collect();
    rejected_requests.sort_by_key(|r| r.id);
    let first_arrival = records
        .iter()
        .map(|r| r.arrival_s)
        .chain(rejected_requests.iter().map(|r| r.arrival_s))
        .fold(f64::INFINITY, f64::min);
    let last_finish = records
        .iter()
        .map(|r| r.finish_s)
        .fold(f64::NEG_INFINITY, f64::max);
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

/// The outcome of serving one workload across a fleet.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// One [`ServeReport`] per replica, in replica order. Each is
    /// anchored at the first arrival *routed to that replica*.
    pub replicas: Vec<ServeReport>,
    /// Requests the router sent to each replica (completions plus
    /// rejections, displaced re-routes included), index-aligned with
    /// `replicas`.
    pub assigned: Vec<u32>,
    /// The fleet-wide merged report: records in completion order,
    /// counts and busy-times summed, makespan spanning the whole run.
    pub aggregate: ServeReport,
    /// Machine-seconds of capacity paid for: one second per non-down
    /// (live or draining) replica per sim second, integrated over the
    /// run. The cost axis the autoscaler trades against SLO-hours.
    pub machine_seconds: f64,
    /// Lifecycle transitions the run applied, and the requests
    /// failures displaced.
    pub lifecycle: LifecycleCounts,
}

impl FleetReport {
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
        MultiClassReport::new(&self.aggregate, classes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::ArrivalProcess;
    use crate::cost::AnalyticCostModel;
    use crate::lifecycle::churn_tape;
    use crate::policy::Fifo;
    use crate::router::{JoinShortestQueue, RoundRobin, SessionAffinity};
    use rpu_models::LengthDistribution;

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
        assert!(r
            .aggregate
            .records
            .windows(2)
            .all(|w| w[0].finish_s <= w[1].finish_s));
    }

    #[test]
    fn more_replicas_shorten_the_interactive_tail() {
        let wl = Workload::poisson(3000.0, 512, 32, 96);
        let p99 = |n: usize| {
            let r = fleet(n).serve(&wl, &mut JoinShortestQueue);
            let mut ttfts: Vec<f64> = r
                .aggregate
                .records
                .iter()
                .map(RequestRecord::ttft_s)
                .collect();
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
        // The binary-searched window must return exactly what filtering
        // every record returns, in the same order, at every probe time
        // — including mid-run, across failures that strand a replica's
        // records while its clock stands still.
        let brute = |run: &FleetRun, t: f64| -> Vec<f64> {
            run.cores
                .iter()
                .flat_map(|c| c.records().iter().filter(move |r| r.finish_s >= t))
                .map(RequestRecord::ttft_s)
                .collect()
        };
        let wl = Workload::poisson(1500.0, 256, 24, 120);
        let mut f = fleet_with_delay(0.002);
        let mut router = JoinShortestQueue;
        let mut run = f.start(&wl);
        for ev in churn_tape(2, 11, 0.04, 8) {
            run.inject(ev);
        }
        let mut probes = 0u32;
        loop {
            let more = run.step(&mut f, &mut router);
            if run.events().is_multiple_of(17) || !more {
                let mut ts = vec![f64::NEG_INFINITY, 0.0, run.now_s(), f64::INFINITY];
                for c in &run.cores {
                    for r in c.records() {
                        ts.extend([r.finish_s, r.finish_s - 1e-6, r.finish_s + 1e-6]);
                    }
                }
                for t in ts {
                    assert_eq!(run.ttfts_completed_since(t), brute(&run, t), "t = {t}");
                    probes += 1;
                }
            }
            if !more {
                break;
            }
        }
        assert!(run.lifecycle_counts().fails > 0, "tape applied no failure");
        assert!(probes > 1000, "too few probes: {probes}");
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
