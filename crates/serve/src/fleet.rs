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
//! re-prefill. Lifecycle events fire at their injected sim times, so a
//! churned run re-runs bit-identically from the same injections.
//!
//! # Simulation order
//!
//! The fleet driver interleaves the replicas in **global event order**:
//! a request is routed exactly at its arrival time, once every
//! replica's next scheduling event lies at or beyond it, so the
//! telemetry the router sees is what real replicas would publish at
//! that instant — not stale counters and not the future. Ties go
//! lifecycle event, then displaced re-route, then arrival, then
//! scheduler step. A replica whose next iterations complete nothing
//! runs them within one step, ahead of the global clock, and is rewound
//! to the instant an event reaches it, so the order is the one a replica
//! stepping one decode iteration per event would keep. Replica
//! completions feed the shared arrival source,
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
use crate::lifecycle::{FleetEvent, FleetEventKind, LifecycleCounts, LifecycleState};
use crate::metrics::{ClassMoments, MultiClassReport};
use crate::min_tree::MinTree;
use crate::policy::{QueuedRequest, SchedulingPolicy};
use crate::request::{Request, RequestRecord};
use crate::router::{ReplicaTelemetry, Router, RoutingView};
use crate::routing_index::FleetRoutingIndex;
use crate::scheduler::{Core, RunStats, ServeConfig, ServeReport};
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

    /// Begins a run over `workload` — [`Fleet::serve`] unrolled into a
    /// [`FleetRun`] you can step, audit and inject lifecycle events
    /// into.
    ///
    /// # Panics
    ///
    /// Panics if the workload is invalid (see
    /// [`crate::RequestSource::new`]).
    #[must_use]
    pub fn start(&self, workload: &Workload) -> FleetRun {
        FleetRun::new(
            workload,
            self.replicas
                .iter()
                .map(|r| (r.config, r.cost.kv_capacity_tokens())),
            self.initial_states.clone(),
            self.migration_delay_s,
        )
    }
}

/// A fleet run: [`Fleet::serve`] unrolled into an object you can step,
/// inject lifecycle events into and [audit](FleetRun::audit) between
/// steps.
///
/// The fleet itself (cost models, policies, configs) and the router
/// stay with the caller; everything dynamic lives in here: arrival
/// source, per-replica core state, lifecycle states, pending events,
/// displaced requests and per-replica assignment counts. Nothing in it
/// grows with the number of requests routed beyond what the cores
/// record. A run is reproduced by running it again: the workload's
/// seed, the fleet, the router and the injected events fix every
/// decision, so a re-run makes the same picks and transitions.
pub struct FleetRun {
    source: RequestSource,
    cores: Vec<Core>,
    /// The global wake-up calendar: a 4-ary winner tree whose leaf `i`
    /// holds [`wake_key`] of replica `i`'s next scheduling event (`+∞`
    /// for an idle replica), so the root is the earliest `(tick,
    /// replica)`. A replica's leaf is overwritten after every event that
    /// touches it — nothing else can move its next event — so picking
    /// the next step is a root read and keeping it current one pull-up
    /// of `log₄ R` levels (five at 1000 replicas), each a four-way
    /// minimum over one contiguous sibling group, instead of a scan of
    /// every replica per event. Derived from the cores:
    /// [`FleetRun::audit`] checks it against a rebuild.
    wake: MinTree<u64>,
    /// The routers' telemetry cache, its ordered indexes and the
    /// routable bitset derived from `states` — everything a
    /// [`RoutingView`] reads. A replica's published counters can only
    /// change when an event touches it (a lifecycle transition
    /// included), so the driver refreshes exactly one entry per event
    /// instead of recollecting the whole fleet on every arrival — the
    /// difference between `O(1)` and `O(n)` routing at 1000 replicas —
    /// and flips one bit per lifecycle transition. Derived from the
    /// cores and `states`, like the wake-up calendar.
    index: FleetRoutingIndex,
    /// Requests routed to each replica so far (arrivals and displaced
    /// re-routes), in replica order: the report's `assigned`.
    assigned: Vec<u32>,
    events: u64,
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
    /// How far the run has got in the order a loop stepping one decode
    /// iteration per event keeps, as `(tick, replica)`: a replica's
    /// iteration starting at `tick` has run once its position is at or
    /// before this one. The latest wake-up sets it to its own position,
    /// and a [`FleetRun::step_until`] pause at `t` to `(t, usize::MAX)`,
    /// since every wake-up at or before `t` has run. An event at a tick
    /// that a wake-up created (a rejection's closed-loop follow-up) or
    /// that was injected at a pause thus follows the iterations starting
    /// then on every replica that would have stepped them first.
    frontier: (f64, usize),
    migration_delay_s: f64,
    /// Machine-seconds accrued up to `ms_anchor_s`: one second per
    /// non-down replica per sim second. Accrued lazily — the non-down
    /// count only changes at lifecycle events, so the integral is
    /// advanced exactly there (and once more at report time).
    ms_accrued: f64,
    ms_anchor_s: f64,
    /// Slots not [`LifecycleState::Down`], kept by `apply_transition`
    /// so an accrual is `O(1)` instead of a scan of `states`. Derived
    /// from `states`.
    up: usize,
    counts: LifecycleCounts,
}

/// Per-subsystem hot-path counters for one [`FleetRun`] — the numbers
/// behind the repro driver's `--counters` report. All counts are since
/// run start and diagnostic only: no report or digest reads them. The
/// wake calendar keeps no counter: it writes one leaf per event, so its
/// work is [`FleetRun::events`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerfCounters {
    /// Routing-index leaf refreshes applied (each one pull-up of
    /// `log₄ R` four-way levels per winner tree).
    pub index_leaf_updates: u64,
    /// Routing-index dirty marks observed (one per event that touched
    /// a replica's telemetry or lifecycle state).
    pub index_marks: u64,
}

/// The telemetry every replica currently publishes, from each core's
/// incremental counters.
fn cached_telemetry(cores: &[Core]) -> Vec<ReplicaTelemetry> {
    cores.iter().map(Core::telemetry).collect()
}

/// Slots that cost machine-seconds: every one not down.
fn count_up(states: &[LifecycleState]) -> usize {
    states
        .iter()
        .filter(|s| **s != LifecycleState::Down)
        .count()
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

/// The state a [`FleetRun`] derives from its cores and lifecycle
/// states: the wake-up tree and the routing index with its telemetry
/// cache and routable bitset. A run maintains it one entry per event;
/// [`FleetRun::audit`] compares that against a rebuild.
struct Derived {
    wake: MinTree<u64>,
    index: FleetRoutingIndex,
}

impl Derived {
    /// Builds the derived state of `cores` in `states` from first
    /// principles: the wake tree bottom-up from every core's next
    /// event, and the telemetry by scanning each core's queue and batch
    /// rather than reading its incremental counters. This is a fresh
    /// run's state (its cores are empty and idle until the first
    /// arrival), and the reference an audit checks a running one by.
    fn build(cores: &[Core], states: &[LifecycleState]) -> Self {
        let keys = cores.iter().map(|c| wake_key(c.next_event_s())).collect();
        let wake = MinTree::new(keys, wake_key(f64::INFINITY));
        let routable: Vec<bool> = states.iter().map(|s| s.is_routable()).collect();
        let telemetry = cores.iter().map(Core::telemetry_scan).collect();
        let index = FleetRoutingIndex::new(telemetry, &routable);
        Self { wake, index }
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

/// Where a [`FleetRun`]'s next event comes from, declared in tie
/// order. At equal ticks lifecycle transitions apply first (so a
/// router never sees a mask one event stale), then displaced
/// re-routes, then arrivals, then scheduler steps — a request is
/// routed at its arrival time, before any replica runs a scheduling
/// event at or after it, so every replica's telemetry is current as of
/// the arrival.
#[derive(Debug, Clone, Copy)]
enum Source {
    Lifecycle,
    Reroute,
    Arrival,
    Wake,
}

impl std::fmt::Debug for FleetRun {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FleetRun")
            .field("replicas", &self.cores.len())
            .field("events", &self.events)
            .field("now_s", &self.now_s)
            .field("lifecycle", &self.counts)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl FleetRun {
    /// A fresh run over `workload`, no events executed yet: one idle
    /// core per `(config, KV capacity)` machine, with the given initial
    /// lifecycle states and failure migration delay. [`Fleet::start`]
    /// passes its replicas'; [`crate::serve_with`] passes one live
    /// machine's.
    ///
    /// # Panics
    ///
    /// Panics if the workload is invalid (see
    /// [`crate::RequestSource::new`]) or a config's `max_batch` is zero.
    pub(crate) fn new(
        workload: &Workload,
        machines: impl IntoIterator<Item = (ServeConfig, u64)>,
        states: Vec<LifecycleState>,
        migration_delay_s: f64,
    ) -> Self {
        let source = RequestSource::new(workload);
        let cores: Vec<Core> = machines
            .into_iter()
            .map(|(config, kv_capacity_tokens)| Core::new(config, kv_capacity_tokens))
            .collect();
        let Derived { wake, index } = Derived::build(&cores, &states);
        Self {
            source,
            assigned: vec![0; cores.len()],
            cores,
            wake,
            index,
            events: 0,
            up: count_up(&states),
            states,
            pending_events: VecDeque::new(),
            displaced: VecDeque::new(),
            now_s: 0.0,
            frontier: (f64::NEG_INFINITY, 0),
            migration_delay_s,
            ms_accrued: 0.0,
            ms_anchor_s: 0.0,
            counts: LifecycleCounts::default(),
        }
    }

    /// Executes exactly one global event — a lifecycle transition, a
    /// displaced request re-routed, an arrival routed and enqueued, or
    /// one replica's scheduler step (which may run several decode
    /// iterations; see [`FleetRun::events`]) — counting any routing
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
        let Some((tick, source)) = self.next_event() else {
            // Nothing can run. Routable work with a finite time left
            // means it waits for a live replica that no scheduled event
            // brings back.
            assert!(
                !self.displaced.front().is_some_and(|d| d.0.is_finite())
                    && !self.source.next_arrival_s().is_some_and(f64::is_finite),
                "fleet wedged: requests pending with no live replica \
                 and no scheduled lifecycle event"
            );
            return Advance::Done;
        };
        if tick.max(self.now_s) > until_s {
            self.pass((until_s, usize::MAX));
            return Advance::Paused;
        }
        let (touched, fired) = match source {
            Source::Lifecycle => {
                let ev = self.pending_events.pop_front().expect("lifecycle is due");
                self.accrue_machine_seconds(ev.at_s);
                self.now_s = self.now_s.max(ev.at_s);
                let i = self.apply_transition(&ev);
                self.index.set_routable(i, self.states[i].is_routable());
                (i, Some(ev))
            }
            Source::Reroute => {
                let (due, q) = self.displaced.pop_front().expect("re-route is due");
                // A re-route can come due while later events were
                // already executing (zero delay, or the clock ran
                // ahead); it fires at the current clock, never in the
                // past.
                let t = due.max(self.now_s);
                self.now_s = t;
                let pick = self.route(router, &q.req);
                self.rewind(pick);
                self.cores[pick].enqueue_displaced(q, t);
                (pick, None)
            }
            Source::Arrival => {
                let req = self.source.pop_ready(tick).expect("arrival is due");
                self.now_s = self.now_s.max(tick);
                let pick = self.route(router, &req);
                self.rewind(pick);
                self.cores[pick].enqueue(req);
                (pick, None)
            }
            Source::Wake => {
                let (which, key) = self.wake.min();
                debug_assert_eq!(
                    key,
                    wake_key(self.cores[which].next_event_s()),
                    "stale wake key: replica {which}'s leaf is not its core's next event"
                );
                self.now_s = self.now_s.max(tick);
                self.pass((tick, which));
                step_core(which, &mut self.cores[which], &mut self.source);
                (which, None)
            }
        };
        // Only the touched replica's next event and telemetry can have
        // moved (cores share nothing but the arrival source, which is
        // re-read above every step).
        self.wake
            .set(touched, wake_key(self.cores[touched].next_event_s()));
        self.index.update(touched, self.cores[touched].telemetry());
        if let Some(ev) = fired {
            router.on_fleet_event(&ev, &self.view(ev.at_s));
        }
        self.events += 1;
        Advance::Stepped
    }

    /// Moves `frontier` up to `at` if `at` lies further on.
    fn pass(&mut self, at: (f64, usize)) {
        if at > self.frontier {
            self.frontier = at;
        }
    }

    /// Rewinds replica `i` to the current clock before an event touches
    /// it: the decode iterations it ran ahead that had not begun by now
    /// are taken back, as if it had stepped one iteration per event.
    /// One beginning exactly now has run only if the frontier has passed
    /// its position; otherwise this event outranks it.
    fn rewind(&mut self, i: usize) {
        let begun = (self.now_s, i) <= self.frontier;
        self.cores[i].rewind(self.now_s, begun);
    }

    /// The view every router call reads: the routing index at `now_s`.
    fn view(&self, now_s: f64) -> RoutingView<'_> {
        debug_assert_eq!(
            self.index.telemetry(),
            cached_telemetry(&self.cores),
            "telemetry cache drifted from the cores"
        );
        RoutingView::new(&self.index, now_s)
    }

    /// Asks the router for a live replica for `req` at the current
    /// clock and counts the pick against it.
    fn route(&mut self, router: &mut dyn Router, req: &Request) -> usize {
        let pick = router.route(req, &self.view(self.now_s));
        assert!(pick < self.cores.len(), "router picked out of range");
        assert!(
            self.states[pick].is_routable(),
            "router picked an unroutable replica"
        );
        self.assigned[pick] += 1;
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
        if ev.kind == FleetEventKind::Fail {
            self.rewind(i);
        }
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
        // Events never run in the past: one that came due while the
        // clock ran ahead (a re-route or arrival held back by an
        // all-down fleet) fires at the current clock.
        self.next_event().map(|(tick, _)| tick.max(self.now_s))
    }

    /// The next event's `(tick, source)` key — the one selection rule
    /// behind [`FleetRun::step`] and [`FleetRun::next_time`] — or
    /// `None` when nothing can run.
    fn next_event(&self) -> Option<(f64, Source)> {
        // The index maintains the live count incrementally, so this is
        // O(1) instead of a mask scan per event.
        let any_live = self.index.live_count() > 0;
        debug_assert_eq!(
            any_live,
            self.states.iter().any(|s| s.is_routable()),
            "index live count drifted from the lifecycle states"
        );
        // Re-routes and arrivals need a live replica: with none they
        // wait for a join (draining replicas may still step their
        // in-flight work meanwhile), so they read as never.
        let routable = |t: Option<f64>| t.filter(|_| any_live).unwrap_or(f64::INFINITY);
        let candidates = [
            (
                self.pending_events
                    .front()
                    .map_or(f64::INFINITY, |e| e.at_s),
                Source::Lifecycle,
            ),
            (
                routable(self.displaced.front().map(|d| d.0)),
                Source::Reroute,
            ),
            (routable(self.source.next_arrival_s()), Source::Arrival),
            // The tree's root is the earliest replica event; ties on
            // the tick go to the lowest replica index.
            (wake_tick(self.wake.min().1), Source::Wake),
        ];
        // The first minimum in rank order: a later source wins only
        // when strictly earlier under IEEE `<`, so equal ticks (`-0.0`
        // against `+0.0` included) go to the source ranked first.
        let mut next = candidates[0];
        for c in candidates {
            if c.0 < next.0 {
                next = c;
            }
        }
        next.0.is_finite().then_some(next)
    }

    /// Steps the run until its next event — the time
    /// [`FleetRun::next_time`] reports — lies strictly after `t` (or it
    /// finishes). Returns `true` while events remain — the
    /// autoscaler's control loop: advance to the next decision
    /// boundary, look at the fleet, inject, repeat. Each event costs
    /// what a [`FleetRun::step`] costs: the check against `t` reuses
    /// the step's own event selection. An event injected afterwards at
    /// `t` itself comes after every decode iteration that began at or
    /// before `t`, as it would had each iteration been its own event,
    /// even on a replica that ran them ahead within one step.
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

    /// Events the loop executed so far: lifecycle transitions, re-routes,
    /// arrivals and replica wake-ups. A wake-up may run many decode
    /// iterations (a replica runs the ones that complete nothing inside
    /// one step), so an event is not a fixed amount of work: count
    /// requests or decode iterations
    /// ([`ServeReport::decode_iterations`]) for that.
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

    /// Point-in-time lifecycle counters summed across replicas, for
    /// conservation checks mid-run ([`FleetRun::audit`] makes one).
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
    /// from the cores — the cross-check for
    /// [`FleetRun::telemetry_cache`], and the counters cap invariants
    /// are checked against.
    #[must_use]
    pub fn telemetry(&self) -> Vec<ReplicaTelemetry> {
        let fresh = cached_telemetry(&self.cores);
        debug_assert_eq!(self.index.telemetry(), fresh, "telemetry cache drifted");
        fresh
    }

    /// The telemetry cache every [`RoutingView`] reads: what each
    /// replica publishes as of the last executed event, borrowed
    /// rather than recomputed ([`FleetRun::telemetry`] recomputes it).
    #[must_use]
    pub fn telemetry_cache(&self) -> &[ReplicaTelemetry] {
        self.index.telemetry()
    }

    /// Per-subsystem hot-path counters accumulated so far —
    /// routing-index maintenance (routing decisions are the report's
    /// [`FleetReport::assigned`] total). Diagnostic only: the repro
    /// driver's `--counters` report.
    #[must_use]
    pub fn perf_counters(&self) -> PerfCounters {
        let (index_leaf_updates, index_marks) = self.index.update_counts();
        PerfCounters {
            index_leaf_updates,
            index_marks,
        }
    }

    /// Rebuilds the state this run derives from its cores and
    /// lifecycle states, checks what the run maintains against it, and
    /// returns the run's counters. It checks, in order:
    ///
    /// - every wake-tree key, then the wake winner;
    /// - the routing index's telemetry, routable mask and live count,
    ///   then both routing argmins. The rebuild scans each core's queue
    ///   and batch for its telemetry, so this also checks the cores'
    ///   incremental counters;
    /// - every core's caps, on the rebuilt telemetry: its batch holds at
    ///   most `max_batch` requests and reserves at most its KV capacity;
    /// - every core's pending run-ahead (the decode iterations a core
    ///   runs past the fleet clock while nothing outside it could see
    ///   them): replayed from its checkpoint, it lands exactly on the
    ///   core's clock, decode-busy time and iteration count; the core
    ///   could still run ahead (empty queue, a slot decoding); and each
    ///   slot joined the run at the first iteration starting at or after
    ///   its prefill's end, with its first token by that iteration's end;
    /// - the up-count machine-seconds accrue by;
    /// - request conservation ([`RunStats::conserved`]).
    ///
    /// `O(replicas + queued requests)` per call, in any build. An audit
    /// changes nothing: a run audited after every event makes the same
    /// picks, transitions, report and digests as one never audited.
    ///
    /// # Panics
    ///
    /// Panics at the first part that differs, naming it and the index
    /// of the next event.
    pub fn audit(&self) -> RunStats {
        let at = self.events;
        let fresh = Derived::build(&self.cores, &self.states);
        if let Some(i) = (0..self.cores.len()).find(|&i| self.wake.key(i) != fresh.wake.key(i)) {
            panic!("audit at event {at}: wake key of replica {i} differs from a rebuild");
        }
        assert_eq!(
            self.wake.min(),
            fresh.wake.min(),
            "audit at event {at}: wake winner differs from a rebuild"
        );
        if let Some(part) = self.index.drift_from(&fresh.index) {
            panic!("audit at event {at}: routing index {part} differs from a rebuild");
        }
        for (i, (core, t)) in self.cores.iter().zip(fresh.index.telemetry()).enumerate() {
            assert!(
                t.active_requests <= core.max_batch(),
                "audit at event {at}: replica {i} batch {} exceeds max_batch {}",
                t.active_requests,
                core.max_batch()
            );
            assert!(
                t.reserved_tokens <= t.kv_capacity_tokens,
                "audit at event {at}: replica {i} reserves {} of {} KV tokens",
                t.reserved_tokens,
                t.kv_capacity_tokens
            );
            if let Err(e) = core.check_run() {
                panic!("audit at event {at}: replica {i}: {e}");
            }
        }
        assert_eq!(
            self.up,
            count_up(&self.states),
            "audit at event {at}: up-count differs from the lifecycle states"
        );
        let stats = self.stats();
        assert!(
            stats.conserved(),
            "audit at event {at}: requests not conserved: {stats:?}"
        );
        stats
    }

    /// Finalises the run and yields the merged fleet report.
    ///
    /// # Panics
    ///
    /// Panics unless the run has finished: arrivals still to come,
    /// displaced requests in flight, or an issued request that neither
    /// completed nor was rejected (say, one a stalled policy stranded)
    /// would otherwise vanish from the report.
    #[must_use]
    pub fn into_report(mut self) -> FleetReport {
        assert!(
            self.source.exhausted(),
            "report taken with arrivals still to come"
        );
        assert!(
            self.displaced.is_empty(),
            "report taken with displaced requests in flight"
        );
        let stats = self.stats();
        assert_eq!(
            u64::from(stats.issued),
            u64::from(stats.completed) + u64::from(stats.rejected),
            "report taken with requests neither completed nor rejected: {stats:?}"
        );
        self.accrue_machine_seconds(self.now_s);
        let replicas: Vec<ServeReport> = self.cores.into_iter().map(Core::into_report).collect();
        let aggregate = merge(&replicas);
        FleetReport {
            replicas,
            assigned: self.assigned,
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
/// earliest arrival to the latest completion anywhere in the fleet,
/// folded in completion order while [`MergeOrder::of`] emits it;
/// `peak_batch`/`peak_reserved_tokens` are the largest any single
/// replica saw (per-replica peaks do not add across machines). Note
/// [`ServeReport::utilization`] on the merged report is therefore
/// *machine-seconds per wall-second* — up to N for an N-replica fleet;
/// [`FleetReport::fleet_utilization`] normalises it.
pub(crate) fn merge(replicas: &[ServeReport]) -> ServeReport<MergeOrder> {
    let (records, first_arrival, last_finish) = MergeOrder::of(&record_table(replicas));
    let mut rejected_requests: Vec<_> = replicas
        .iter()
        .flat_map(|r| r.rejected_requests.iter().copied())
        .collect();
    rejected_requests.sort_by_key(|r| r.id);
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

/// About how many records one window of [`MergeOrder::of`] sorts: a
/// buffer of this many 24-byte entries stays in L2.
const WINDOW: usize = 4096;

/// A fleet's completion order: one `(replica, index)` pair per
/// completed request, naming `replicas[replica].records[index]`.
///
/// The fleet aggregate holds this instead of a second copy of every
/// record — 8 bytes per request against a 56-byte [`RequestRecord`] —
/// and [`FleetReport::records`] reads the replicas' records through it.
/// The order is `finish_s` under `f64::total_cmp`, ids breaking exact
/// ties. Beside it are the latency moments [`FleetReport::multi_class`]
/// reads, folded in that order as the merge emitted it.
#[derive(Debug, Clone)]
pub struct MergeOrder {
    order: Vec<(u32, u32)>,
    moments: ClassMoments,
}

/// Orders are equal when they name the same records in the same
/// order: the moments beside them are folded from those records.
impl PartialEq for MergeOrder {
    fn eq(&self, other: &Self) -> bool {
        self.order == other.order
    }
}

impl Eq for MergeOrder {}

impl MergeOrder {
    /// Completed requests in the order.
    #[must_use]
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Whether no request completed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Merges the replicas' records, one slice per replica in `table`,
    /// and returns the order with the first arrival and last finish
    /// among them (`+inf`/`-inf` when there are none).
    ///
    /// A core records completions in clock order, so each replica's
    /// records are sorted by `finish_s` under IEEE `<=`. The merge
    /// emits them a window at a time. With `stride = WINDOW / n` over
    /// the `n` replicas that have records left, the window ends at the
    /// smallest `finish_s` any of them has `stride` records ahead; every
    /// replica's records up to that end (IEEE `<=`) join the window,
    /// which is sorted by `(total_cmp finish_s, id)` and appended.
    /// Every record left behind finishes strictly later, so windows
    /// never interleave, and the replica that set the end advances by
    /// more than `stride`. The sort puts tied runs in id order and a
    /// replica's `0.0, -0.0` (in order under `<=`, not under
    /// `total_cmp`) right, since the IEEE boundary never splits them.
    ///
    /// The replicas' reads are independent loads, and each window's
    /// records are folded into the makespan ends and the latency
    /// moments while they are still in cache.
    ///
    /// # Panics
    ///
    /// Panics if a `finish_s` is NaN.
    fn of(table: &[&[RequestRecord]]) -> (Self, f64, f64) {
        let total = table.iter().map(|recs| recs.len()).sum();
        let mut order = Vec::with_capacity(total);
        let mut moments = ClassMoments::default();
        let (mut first_arrival, mut last_finish) = (f64::INFINITY, f64::NEG_INFINITY);
        let mut next = vec![0usize; table.len()];
        let mut live: Vec<usize> = (0..table.len()).filter(|&r| !table[r].is_empty()).collect();
        let mut window: Vec<(u64, u32, u32, u32)> = Vec::new();
        while !live.is_empty() {
            let stride = (WINDOW / live.len()).max(1);
            let end = live
                .iter()
                .filter_map(|&r| table[r].get(next[r] + stride))
                .fold(f64::INFINITY, |end, rec| end.min(rec.finish_s));
            for &r in &live {
                let at = &mut next[r];
                while let Some(rec) = table[r].get(*at).filter(|rec| rec.finish_s <= end) {
                    window.push((wake_key(rec.finish_s), rec.id, r as u32, *at as u32));
                    *at += 1;
                }
            }
            assert!(!window.is_empty(), "completion times must be comparable");
            live.retain(|&r| next[r] < table[r].len());
            window.sort_unstable();
            for &(_, _, r, i) in &window {
                let rec = &table[r as usize][i as usize];
                first_arrival = first_arrival.min(rec.arrival_s);
                last_finish = last_finish.max(rec.finish_s);
                moments.push(rec);
                order.push((r, i));
            }
            window.clear();
        }
        (Self { order, moments }, first_arrival, last_finish)
    }

    /// The records the order names, read through `table`.
    fn gather<'a>(
        &'a self,
        table: Vec<&'a [RequestRecord]>,
    ) -> impl ExactSizeIterator<Item = &'a RequestRecord> + Clone + 'a {
        self.order
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
    ///
    /// The means and maxima come from the aggregate's [`MergeOrder`],
    /// which folded them in completion order as it merged; the counts
    /// and quantiles are read from the replicas' records in place.
    #[must_use]
    pub fn multi_class(&self, classes: &[ClassSpec]) -> MultiClassReport {
        let stored = self.replicas.iter().flat_map(|r| r.records.iter());
        MultiClassReport::over(
            stored,
            &self.aggregate.records.moments,
            &self.aggregate,
            classes,
        )
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
    /// Latencies vary on a grid too, a few TTFTs and TPOTs are NaN, and
    /// classes are drawn from `0`, `1` and `3`: class 2 stays empty and
    /// class 3 is outside a three-class spec.
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
                let records = (0..len)
                    .map(|_| {
                        let finish_s = match rng.next_u64() % 16 {
                            0 => -0.0,
                            1 => 0.0,
                            k => (k % 6) as f64 / 4.0,
                        };
                        let e2e = (rng.next_u64() % 8) as f64 / 8.0;
                        let first_token_s = match rng.next_u64() % 32 {
                            0 => f64::NAN,
                            k => finish_s - e2e * (k % 4) as f64 / 4.0,
                        };
                        RequestRecord {
                            id: ids.next().expect("one id per record"),
                            arrival_s: finish_s - e2e,
                            admit_s: 0.0,
                            first_token_s,
                            finish_s,
                            prompt_len: 1,
                            output_len: 1 + (rng.next_u64() % 4) as u32,
                            tenant: 0,
                            class: [0, 1, 3][(rng.next_u64() % 3) as usize],
                            preemptions: 0,
                        }
                    })
                    .collect();
                replica_of(records)
            })
            .collect()
    }

    /// A replica report holding `records`, put in core order:
    /// non-decreasing by `<=`, so signed zeros stay in whatever order
    /// they were drawn.
    fn replica_of(mut records: Vec<RequestRecord>) -> ServeReport {
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
    }

    /// Reshapes random replicas into one of [`MergeOrder::of`]'s edge
    /// cases, with fresh ids:
    ///
    /// 1. replica 0 holds an equal-`finish_s` run of three windows'
    ///    strides, so a window end falls inside it;
    /// 2. replica 0 holds a stride of `-0.25` records, then signed
    ///    zeros in both orders, so the first window ends on a zero and
    ///    every replica's zeros straddle it under `total_cmp`;
    /// 3. every replica but the last is empty;
    /// 4. every replica is empty.
    ///
    /// Any other `shape` leaves the replicas as drawn.
    fn reshape(mut replicas: Vec<ServeReport>, shape: u8) -> Vec<ServeReport> {
        let mut next_id = replicas.iter().map(|r| r.records.len()).sum::<usize>() as u32;
        let mut fresh = |finish_s: f64| {
            next_id += 1;
            RequestRecord {
                id: next_id,
                arrival_s: finish_s - 1.0,
                admit_s: 0.0,
                first_token_s: finish_s - 0.5,
                finish_s,
                prompt_len: 1,
                output_len: 2,
                tenant: 0,
                class: 1,
                preemptions: 0,
            }
        };
        // The stride once replica 0 holds records.
        let live = 1 + replicas[1..]
            .iter()
            .filter(|r| !r.records.is_empty())
            .count();
        let stride = (WINDOW / live).max(1);
        match shape {
            1 => {
                replicas[0] = replica_of((0..3 * stride + 2).map(|_| fresh(0.5)).collect());
            }
            2 => {
                let mut records: Vec<RequestRecord> = (0..stride).map(|_| fresh(-0.25)).collect();
                records.extend([-0.0, 0.0, 0.0, -0.0, -0.0, 0.0].map(&mut fresh));
                replicas[0] = replica_of(records);
            }
            3 => {
                let last = replicas.len() - 1;
                for r in &mut replicas[..last] {
                    r.records.clear();
                }
            }
            4 => replicas.iter_mut().for_each(|r| r.records.clear()),
            _ => {}
        }
        replicas
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
        /// record. Widths run past `WINDOW`, where the stride is one,
        /// and [`reshape`] adds ties longer than a stride, signed zeros
        /// across a window end and empty fleets.
        #[test]
        fn merge_equals_the_sort_it_replaced(
            seed in 0u64..1 << 48,
            width in proptest::sample::select(vec![1usize, 3, 64, 1000, 6000]),
            shape in 0u8..6,
        ) {
            let report = report_of(reshape(random_replicas(seed, width), shape));
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
            let order = &report.aggregate.records.order;
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
        assert_eq!(r.replicas.len(), 4);
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
        // The seed and the injected events are the whole checkpoint: a
        // re-run on a fresh fleet makes the same picks and transitions
        // and reports the same bits.
        let wl = Workload::poisson(1500.0, 256, 24, 80);
        let churned = || {
            let mut f = fleet_with_delay(0.002);
            let mut router = Recording::new(JoinShortestQueue);
            let mut run = f.start(&wl);
            for ev in churn_tape(2, 11, 0.04, 6) {
                run.inject(ev);
            }
            while run.step(&mut f, &mut router) {}
            (run.into_report(), router.picks, router.transitions)
        };
        let (recorded, picks, transitions) = churned();
        assert!(recorded.lifecycle.events() > 0, "tape applied no events");
        let mut assigned = vec![0u32; recorded.replicas.len()];
        for &pick in &picks {
            assigned[pick] += 1;
        }
        assert_eq!(recorded.assigned, assigned, "assigned miscounts the picks");
        assert_eq!(churned(), (recorded, picks, transitions));
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
        // the lifecycle states at every applied transition does, bit for
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
            let mut router = Recording::new(RoundRobin::new());
            let mut run = f.start(&wl);
            for ev in churn_tape(width, 7, 0.04, width / 2) {
                run.inject(ev);
            }
            while run.step(&mut f, &mut router) {}
            let end_s = run.now_s();
            let report = run.into_report();
            assert_eq!(report.lifecycle.events(), width / 2, "width {width}");
            let mut states = f.initial_states().to_vec();
            let (mut brute, mut anchor) = (0.0, 0.0);
            let mut accrue = |states: &[LifecycleState], t: f64| {
                let up = states.iter().filter(|s| **s != LifecycleState::Down);
                brute += up.count() as f64 * (t - anchor);
                anchor = t;
            };
            for ev in &router.transitions {
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

    /// Wraps a router and records the decisions a run made through it:
    /// every pick `route` returned, and every lifecycle transition the
    /// run applied, in order.
    struct Recording<R> {
        inner: R,
        picks: Vec<usize>,
        transitions: Vec<FleetEvent>,
    }

    impl<R> Recording<R> {
        fn new(inner: R) -> Self {
            Self {
                inner,
                picks: Vec::new(),
                transitions: Vec::new(),
            }
        }
    }

    impl<R: Router> Router for Recording<R> {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
            let pick = self.inner.route(req, view);
            self.picks.push(pick);
            pick
        }

        fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
            self.inner.on_fleet_event(event, view);
            self.transitions.push(*event);
        }
    }

    /// Routes each request to the routable replica with the shortest
    /// queue, ties going by a fixed per-request preference order — so
    /// the recorded picks show which request was routed when, and what
    /// the queues held at that moment.
    struct Preferences(&'static [&'static [usize]]);

    impl Router for Preferences {
        fn name(&self) -> &'static str {
            "preferences"
        }

        fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
            self.0[req.id as usize]
                .iter()
                .copied()
                .filter(|&i| view.is_routable(i))
                .min_by_key(|&i| view.replica(i).queue_depth)
                .expect("a preferred replica is routable")
        }
    }

    #[test]
    fn one_tick_runs_lifecycle_then_reroute_then_arrival_then_wake() {
        // Request 0 arrives at 0 and is still decoding on replica 0 at
        // t = 1, when request 1 arrives. Also at t = 1: replica 0 fails
        // (re-routing request 0 with no delay) and down replica 3 joins.
        // Each tie shows in the recorded decisions:
        // * lifecycle before re-route: the join is the very next event
        //   after the failure;
        // * re-route before arrival: request 0 is routed first, to its
        //   first choice 1, so request 1 cannot take 1 too;
        // * arrival before wake: request 1 is routed before replica 1's
        //   wake at t = 1 admits request 0, so replica 1's queue is
        //   still full and request 1 goes to its second choice, 3.
        let wl = Workload {
            arrivals: ArrivalProcess::Trace {
                arrivals_s: vec![0.0, 1.0],
            },
            ..Workload::poisson(1.0, 64, 2000, 2)
        };
        let mut f = FleetBuilder::new()
            .group(
                3,
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
        let mut router = Recording::new(Preferences(&[&[0, 1, 2, 3], &[1, 3, 2, 0]]));
        let mut run = f.start(&wl);
        for (replica, kind) in [(0, FleetEventKind::Fail), (3, FleetEventKind::Join)] {
            run.inject(FleetEvent {
                at_s: 1.0,
                replica,
                kind,
            });
        }
        while run.next_time() < Some(1.0) {
            assert!(run.step(&mut f, &mut router));
        }
        let first = run.events();
        // Each transition tagged with the 0-based index of the event
        // that applied it.
        let mut transitions = Vec::new();
        while run.step(&mut f, &mut router) {
            if router.transitions.len() > transitions.len() {
                let ev = router.transitions[transitions.len()];
                transitions.push((run.events() - 1, ev.replica, ev.kind));
            }
        }
        assert_eq!(
            transitions,
            [
                (first, 0, FleetEventKind::Fail),
                (first + 1, 3, FleetEventKind::Join)
            ]
        );
        assert_eq!(router.picks, [0, 1, 3]);
        assert_eq!(run.into_report().aggregate.records.len(), 2);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale wake key")]
    fn stale_wake_key_fails_fast() {
        // An idle replica's leaf claims a wake-up at 0: the next event
        // is a step of a core with nothing to do.
        let mut f = fleet(3);
        let mut run = f.start(&Workload::poisson(1500.0, 256, 24, 8));
        run.wake.set(1, wake_key(0.0));
        let _ = run.step(&mut f, &mut RoundRobin::new());
    }
}
