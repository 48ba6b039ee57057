//! Fleet routing: which replica gets the next request.
//!
//! A [`crate::Fleet`] fronts N independent scheduler replicas with one
//! [`Router`]. The router is deliberately blind to everything except
//! the [`RoutingView`] — per-replica [`ReplicaTelemetry`] (the counters
//! a real replica would publish: queue depth, KV occupancy and
//! capacity), the routable mask and `O(log R)` argmins of the
//! fleet's [`FleetRoutingIndex`], and the sim clock — so routing
//! policies stay honest: no peeking at another replica's policy
//! internals or the sampled lengths of its resident requests.
//!
//! | Router | Picks | Uses telemetry | Stateful |
//! |---|---|---|---|
//! | [`RoundRobin`] | next *routable* replica in turn | no | cursor |
//! | [`JoinShortestQueue`] | fewest queued + resident requests | yes | no |
//! | [`LeastKvLoad`] | lowest committed-KV fraction | yes | no |
//! | [`SessionAffinity`] | consistent hash of the session key | no | ring cache |
//!
//! All four stock routers re-steer around draining and down replicas:
//! the mask excludes them from candidacy, and [`SessionAffinity`]
//! walks a session's ring successors so its keys land on the nearest
//! live replica — and snap back home when the replica rejoins.

use crate::lifecycle::FleetEvent;
use crate::request::Request;
use crate::routing_index::FleetRoutingIndex;
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// The load counters one replica publishes to the router.
///
/// Everything here is a running total the replica already tracks for
/// its own report; none of it requires oracle knowledge of request
/// contents beyond the conservative reservations admission itself uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicaTelemetry {
    /// Requests routed to this replica but not yet admitted.
    pub queue_depth: u32,
    /// Requests resident in the serving batch (prefilling or decoding).
    pub active_requests: u32,
    /// Conservative KV reservation (prompt + full output) of the
    /// resident requests, tokens.
    pub reserved_tokens: u64,
    /// Conservative KV reservation of the queued requests, tokens.
    pub queued_tokens: u64,
    /// The replica's KV capacity as published by its cost model.
    pub kv_capacity_tokens: u64,
}

impl ReplicaTelemetry {
    /// Requests on this replica in any state: queued plus resident.
    #[must_use]
    pub fn backlog(&self) -> u32 {
        self.queue_depth + self.active_requests
    }

    /// KV tokens already committed to this replica: resident
    /// reservations plus everything waiting in its queue.
    #[must_use]
    pub fn committed_tokens(&self) -> u64 {
        self.reserved_tokens + self.queued_tokens
    }

    /// Committed KV tokens as a fraction of capacity (may exceed 1 when
    /// the queue holds more work than the machine fits at once).
    #[must_use]
    pub fn kv_load(&self) -> f64 {
        self.committed_tokens() as f64 / self.kv_capacity_tokens.max(1) as f64
    }

    /// `true` when `tokens` more KV tokens fit alongside everything
    /// already committed to this replica.
    #[must_use]
    pub fn has_kv_headroom(&self, tokens: u64) -> bool {
        self.committed_tokens().saturating_add(tokens) <= self.kv_capacity_tokens
    }
}

/// Everything a router may see when placing one request: the fleet's
/// [`FleetRoutingIndex`] — which owns the index-aligned telemetry of
/// every provisioned replica slot and whose routable bitset is `true`
/// only for live replicas (draining and down slots must not receive
/// new work) — and the sim clock.
///
/// New routing inputs land here as fields instead of breaking every
/// downstream [`Router`] `impl` with a signature change.
///
/// # Writing an `O(log R)` custom router
///
/// Every view answers [`RoutingView::min_backlog_replica`],
/// [`RoutingView::min_kv_load_replica`] and
/// [`RoutingView::next_routable_from`] from its index in `O(log R)`
/// (the last by a bitset word scan). Custom routers get that cost by
/// phrasing their decision through those lookups instead of scanning
/// [`RoutingView::routable`]:
///
/// ```
/// use rpu_serve::{
///     AnalyticCostModel, Fifo, FleetBuilder, JoinShortestQueue, Request, Router, RoutingView,
///     ServeConfig, Workload,
/// };
///
/// /// Shortest queue while the pick has KV headroom; overflow spills
/// /// to the replica with the lowest committed-KV fraction.
/// struct ShortestWithSpill;
///
/// impl Router for ShortestWithSpill {
///     fn name(&self) -> &'static str {
///         "shortest-spill"
///     }
///
///     fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
///         let pick = view.min_backlog_replica().expect("some replica is routable");
///         if view.replica(pick).has_kv_headroom(req.reserved_tokens()) {
///             pick
///         } else {
///             view.min_kv_load_replica().expect("some replica is routable")
///         }
///     }
/// }
///
/// let mut fleet = FleetBuilder::new()
///     .group(
///         4,
///         &ServeConfig::default(),
///         || Box::new(AnalyticCostModel::small()),
///         || Box::new(Fifo),
///     )
///     .build();
/// let workload = Workload::poisson(800.0, 256, 16, 40);
/// let report = fleet.serve(&workload, &mut ShortestWithSpill);
/// assert_eq!(report.aggregate.records.len(), 40);
/// // While every replica has headroom, this *is* join-shortest-queue:
/// // the two routers make identical decisions.
/// let jsq = fleet.serve(&workload, &mut JoinShortestQueue);
/// assert_eq!(report.assigned, jsq.assigned);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RoutingView<'a> {
    index: &'a FleetRoutingIndex,
    now_s: f64,
}

impl<'a> RoutingView<'a> {
    /// Bundles one routing decision's inputs: the fleet's index (with
    /// the telemetry it owns) and the sim clock.
    #[must_use]
    pub fn new(index: &'a FleetRoutingIndex, now_s: f64) -> Self {
        Self { index, now_s }
    }

    /// Provisioned replica slots (routable or not).
    #[must_use]
    pub fn len(&self) -> usize {
        self.telemetry().len()
    }

    /// `true` when the fleet has no provisioned slots at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.telemetry().is_empty()
    }

    /// The sim clock at the moment of this routing decision, seconds.
    #[must_use]
    pub fn now_s(&self) -> f64 {
        self.now_s
    }

    /// Index-aligned telemetry for every provisioned slot.
    #[must_use]
    pub fn telemetry(&self) -> &'a [ReplicaTelemetry] {
        self.index.telemetry()
    }

    /// Telemetry of one replica slot.
    #[must_use]
    pub fn replica(&self, i: usize) -> &'a ReplicaTelemetry {
        &self.telemetry()[i]
    }

    /// Whether slot `i` may receive new work (live, not draining/down).
    #[must_use]
    pub fn is_routable(&self, i: usize) -> bool {
        self.index.is_routable(i)
    }

    /// Indices of the replicas that may receive new work, ascending.
    pub fn routable(&self) -> impl Iterator<Item = usize> + 'a {
        self.index.routable()
    }

    /// How many replicas may receive new work: `O(1)`.
    #[must_use]
    pub fn routable_count(&self) -> usize {
        self.index.live_count()
    }

    /// The routable replica with the fewest requests on it, ties broken
    /// by lowest index — the exact argmin `(backlog, index)` order
    /// [`JoinShortestQueue`] ranks by. `None` when nothing is routable.
    /// `O(log R)`.
    #[must_use]
    pub fn min_backlog_replica(&self) -> Option<usize> {
        self.index.min_backlog_replica()
    }

    /// The routable replica with the lowest committed-KV fraction,
    /// ties broken by backlog then index — [`LeastKvLoad`]'s exact
    /// comparison order (`f64::total_cmp` on the fraction). `None`
    /// when nothing is routable. `O(log R)`.
    #[must_use]
    pub fn min_kv_load_replica(&self) -> Option<usize> {
        self.index.min_kv_load_replica()
    }

    /// The first routable replica in the wrapping slot order `start,
    /// start + 1, .., len - 1, 0, .., start - 1` — [`RoundRobin`]'s
    /// probe, a bitset word scan. `None` when nothing is routable.
    ///
    /// # Panics
    ///
    /// Panics when `start` is not a valid slot index.
    #[must_use]
    pub fn next_routable_from(&self, start: usize) -> Option<usize> {
        assert!(start < self.len(), "start slot out of range");
        self.index.next_routable_from(start)
    }
}

/// A dispatch policy for a [`crate::Fleet`].
///
/// [`Router::route`] is called once per request, at its arrival time,
/// with a [`RoutingView`] over every provisioned replica slot
/// (index-aligned with the fleet). The returned index must be in range
/// *and routable*; the fleet panics otherwise. Decisions must be
/// deterministic functions of the arguments plus the router's own
/// state — fleet runs are bit-reproducible for a fixed workload seed.
///
/// [`Router::on_fleet_event`] fires after the fleet applies each
/// lifecycle event, so stateful routers can rebuild caches or shed
/// affinity for a dead replica; the default does nothing.
///
/// # Worked example
///
/// A custom router is one `impl`. Fewest-committed-tokens, sending
/// each request to the routable replica with the least KV committed to
/// its batch and queue:
///
/// ```
/// use rpu_serve::{
///     AnalyticCostModel, Fifo, FleetBuilder, Request, Router, RoutingView, ServeConfig, Workload,
/// };
///
/// struct FewestTokens;
///
/// impl Router for FewestTokens {
///     fn name(&self) -> &'static str {
///         "fewest-tokens"
///     }
///
///     fn route(&mut self, _req: &Request, view: &RoutingView<'_>) -> usize {
///         // Candidates come from the routable mask — draining and
///         // down replicas never take new work. Ties broken by index
///         // to stay deterministic.
///         view.routable()
///             .min_by_key(|&i| (view.replica(i).committed_tokens(), i))
///             .expect("some replica is routable")
///     }
/// }
///
/// let mut fleet = FleetBuilder::new()
///     .group(
///         3,
///         &ServeConfig::default(),
///         || Box::new(AnalyticCostModel::small()),
///         || Box::new(Fifo),
///     )
///     .build();
/// let report = fleet.serve(&Workload::poisson(800.0, 256, 16, 30), &mut FewestTokens);
/// // Routing spreads the work; the fleet completes all of it.
/// assert_eq!(report.aggregate.records.len(), 30);
/// assert!(report.assigned.iter().all(|&n| n > 0));
/// ```
pub trait Router {
    /// Router name for reports and tables.
    fn name(&self) -> &'static str;

    /// Picks the replica index for one arriving request. The pick must
    /// be routable in `view`.
    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize;

    /// Notifies the router that the fleet just applied `event`; `view`
    /// reflects the fleet *after* the transition. Stateful routers use
    /// this to invalidate caches keyed on the live set. The default
    /// does nothing, which is correct for every router whose decisions
    /// derive purely from the view.
    fn on_fleet_event(&mut self, event: &FleetEvent, view: &RoutingView<'_>) {
        let _ = (event, view);
    }

    /// Does nothing, and can never be called: no [`SnapshotWriter`]
    /// exists (see [`crate::snapshot`]). Kept so that routers which
    /// forward it still compile.
    fn save_state(&self, w: &mut SnapshotWriter) {
        let _ = w;
    }

    /// Does nothing, and can never be called: no [`SnapshotReader`]
    /// exists. Kept so that routers which forward it still compile.
    ///
    /// # Errors
    ///
    /// None: [`SnapshotError`] has no values.
    fn load_state(&mut self, r: &mut SnapshotReader<'_>) -> Result<(), SnapshotError> {
        let _ = r;
        Ok(())
    }
}

/// Blind rotation: requests go to routable replicas in turn, ignoring
/// telemetry. The baseline every informed router is measured against.
/// Draining or down slots are skipped; the cursor still advances past
/// the pick, so a rejoining replica slots back into the rotation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundRobin {
    next: usize,
}

impl RoundRobin {
    /// A cursor starting at replica 0.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _req: &Request, view: &RoutingView<'_>) -> usize {
        let n = view.len();
        let start = self.next % n;
        let Some(i) = view.next_routable_from(start) else {
            panic!("no routable replica to round-robin onto");
        };
        self.next = (i + 1) % n;
        i
    }
}

/// Join-shortest-queue: the routable replica with the fewest requests
/// on it (queued plus resident), restricted to replicas whose
/// published KV capacity still has room for this request's
/// conservative reservation. Only when *no* routable replica has KV
/// headroom does it fall back to the shortest routable queue outright
/// (the replica's own admission back-pressure then queues the request
/// until space frees).
///
/// The common case is one `O(log R)` lookup: the global backlog argmin
/// that has KV headroom *is* the headroom-restricted argmin (the
/// restricted set is a subset containing it). Only when the argmin is
/// KV-saturated does the exact `O(R)` restricted scan run.
#[derive(Debug, Clone, Copy, Default)]
pub struct JoinShortestQueue;

impl Router for JoinShortestQueue {
    fn name(&self) -> &'static str {
        "jsq"
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        let need = req.reserved_tokens();
        let g = view
            .min_backlog_replica()
            .expect("some replica is routable");
        if view.replica(g).has_kv_headroom(need) {
            return g;
        }
        // The shortest replica is KV-saturated: run the exact
        // headroom-restricted scan. An empty restricted set means no
        // routable replica fits the request, and the overall-shortest
        // `g` takes it (its admission back-pressure queues the work).
        view.routable()
            .filter(|&i| view.replica(i).has_kv_headroom(need))
            .min_by_key(|&i| (view.replica(i).backlog(), i))
            .unwrap_or(g)
    }
}

/// Least-KV-load: the routable replica with the lowest committed-KV
/// fraction of its own capacity. On heterogeneous fleets this is the
/// natural weighting — a half-full large replica beats a half-full
/// small one only when its *fraction* is lower — with backlog and
/// index breaking ties.
#[derive(Debug, Clone, Copy, Default)]
pub struct LeastKvLoad;

impl Router for LeastKvLoad {
    fn name(&self) -> &'static str {
        "least-kv"
    }

    fn route(&mut self, _req: &Request, view: &RoutingView<'_>) -> usize {
        view.min_kv_load_replica()
            .expect("some replica is routable")
    }
}

/// Session affinity by consistent hashing: every session key maps to a
/// fixed point on a hash ring of replica virtual nodes, so a session's
/// repeated turns always land on the replica that served — and whose
/// KV cache warmed on — its earlier ones. Resizing the fleet moves only
/// the sessions whose ring successor is a new replica's virtual node;
/// everyone else keeps their placement (the property tests pin this).
///
/// The ring covers every *provisioned* slot; when a session's home
/// replica is draining or down, the lookup walks the ring's successors
/// to the nearest routable replica — a deterministic spill target that
/// inherits the session until the home replica rejoins, at which point
/// the session snaps back (the ring itself never changes, so no other
/// placement moves).
#[derive(Debug, Clone)]
pub struct SessionAffinity {
    vnodes: u32,
    /// Ring for the last-seen fleet size: (point hash, replica),
    /// sorted by hash. Empty until the first route.
    ring: Vec<(u64, usize)>,
    ring_replicas: usize,
}

impl Default for SessionAffinity {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionAffinity {
    /// Affinity with the default 64 virtual nodes per replica (a
    /// max/mean key imbalance of a few percent at small fleet sizes).
    #[must_use]
    pub fn new() -> Self {
        Self::with_vnodes(64)
    }

    /// Affinity with an explicit virtual-node count per replica.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes` is zero (an empty ring routes nothing).
    #[must_use]
    pub fn with_vnodes(vnodes: u32) -> Self {
        assert!(vnodes >= 1, "affinity needs at least one vnode per replica");
        Self {
            vnodes,
            ring: Vec::new(),
            ring_replicas: 0,
        }
    }

    fn rebuild(&mut self, replicas: usize) {
        self.ring.clear();
        for r in 0..replicas {
            for k in 0..self.vnodes {
                // One word per (replica, vnode): mix() is a bijection,
                // so distinct virtual nodes never collide on the ring.
                let point = mix(((r as u64) << 32) | u64::from(k));
                self.ring.push((point, r));
            }
        }
        self.ring.sort_unstable();
        self.ring_replicas = replicas;
    }
}

impl Router for SessionAffinity {
    fn name(&self) -> &'static str {
        "affinity"
    }

    fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
        if self.ring.is_empty() || self.ring_replicas != view.len() {
            self.rebuild(view.len());
        }
        // A salted key hash keeps session points decoupled from ring
        // points (mix is a bijection, so an unsalted key equal to a
        // vnode word would always collide with it).
        let key = mix(req.session ^ 0xA5A5_5A5A_D1D1_1D1D);
        let start = self.ring.partition_point(|&(point, _)| point < key);
        let n = self.ring.len();
        for k in 0..n {
            let replica = self.ring[(start + k) % n].1;
            if view.is_routable(replica) {
                return replica;
            }
        }
        panic!("no routable replica on the affinity ring");
    }
}

/// SplitMix64 finalisation: a fast, deterministic bijection on `u64`
/// used for ring points and session keys.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idle(kv_capacity_tokens: u64) -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: 0,
            active_requests: 0,
            reserved_tokens: 0,
            queued_tokens: 0,
            kv_capacity_tokens,
        }
    }

    fn req(session: u64) -> Request {
        Request {
            id: 0,
            arrival_s: 0.0,
            prompt_len: 128,
            output_len: 16,
            tenant: 0,
            session,
            class: 0,
            priority: 0,
            deadline_s: 0.5,
        }
    }

    /// Routes over a view whose index marks the `mask` slots routable.
    fn route_masked<R: Router>(
        r: &mut R,
        rq: &Request,
        fleet: &[ReplicaTelemetry],
        mask: &[bool],
    ) -> usize {
        let index = FleetRoutingIndex::new(fleet.to_vec(), mask);
        r.route(rq, &RoutingView::new(&index, 0.0))
    }

    /// Routes over an all-routable view — the static-fleet case every
    /// pre-lifecycle test exercised.
    fn route_all_live<R: Router>(r: &mut R, rq: &Request, fleet: &[ReplicaTelemetry]) -> usize {
        route_masked(r, rq, fleet, &vec![true; fleet.len()])
    }

    #[test]
    fn view_exposes_mask_clock_and_counts() {
        let fleet = vec![idle(4096); 3];
        let index = FleetRoutingIndex::new(fleet.clone(), &[true, false, true]);
        let view = RoutingView::new(&index, 1.25);
        assert_eq!(view.len(), 3);
        assert!(!view.is_empty());
        assert_eq!(view.now_s(), 1.25);
        assert_eq!(view.routable_count(), 2);
        assert_eq!(view.routable().collect::<Vec<_>>(), vec![0, 2]);
        assert!(view.is_routable(0) && !view.is_routable(1));
        assert_eq!(view.replica(2), &fleet[2]);
        assert_eq!(view.telemetry().len(), 3);
    }

    #[test]
    fn round_robin_rotates() {
        let fleet = vec![idle(4096); 3];
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..7)
            .map(|_| route_all_live(&mut rr, &req(0), &fleet))
            .collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
    }

    #[test]
    fn round_robin_skips_unroutable_replicas() {
        let fleet = vec![idle(4096); 4];
        let mask = vec![true, false, true, false];
        let mut rr = RoundRobin::new();
        let picks: Vec<usize> = (0..5)
            .map(|_| route_masked(&mut rr, &req(0), &fleet, &mask))
            .collect();
        // Only replicas 0 and 2 are live: the rotation alternates.
        assert_eq!(picks, vec![0, 2, 0, 2, 0]);
    }

    #[test]
    fn jsq_prefers_fewest_requests_with_headroom() {
        let mut fleet = vec![idle(4096); 3];
        fleet[0].queue_depth = 2;
        fleet[1].active_requests = 1;
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 2);
        // Fill replica 2's KV: the next-shortest with headroom wins.
        fleet[2].reserved_tokens = 4096;
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 1);
    }

    #[test]
    fn jsq_falls_back_to_shortest_when_nothing_fits() {
        let mut fleet = vec![idle(100); 2];
        fleet[0].queue_depth = 3;
        fleet[1].queue_depth = 1;
        // Request reserves 144 tokens: over both capacities.
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 1);
    }

    #[test]
    fn jsq_never_picks_an_unroutable_replica() {
        let mut fleet = vec![idle(4096); 3];
        // Replica 0 is idle (shortest) but draining: 1 must win even
        // with a deeper queue.
        fleet[1].queue_depth = 2;
        fleet[2].queue_depth = 5;
        let mask = vec![false, true, true];
        assert_eq!(
            route_masked(&mut JoinShortestQueue, &req(0), &fleet, &mask),
            1
        );
        // Same in the no-headroom fallback path.
        let mut tight = vec![idle(10); 3];
        tight[1].queue_depth = 4;
        tight[2].queue_depth = 3;
        assert_eq!(
            route_masked(&mut JoinShortestQueue, &req(0), &tight, &mask),
            2
        );
    }

    #[test]
    fn least_kv_compares_fractions_not_absolutes() {
        let mut fleet = vec![idle(8192), idle(1024)];
        fleet[0].reserved_tokens = 4096; // 50 % of a big replica
        fleet[1].reserved_tokens = 256; // 25 % of a small one
        assert_eq!(route_all_live(&mut LeastKvLoad, &req(0), &fleet), 1);
    }

    #[test]
    fn least_kv_ignores_unroutable_replicas() {
        let mut fleet = vec![idle(8192); 3];
        fleet[1].reserved_tokens = 4096;
        fleet[2].reserved_tokens = 8192;
        // Replica 0 is the emptiest but down.
        let mask = vec![false, true, true];
        assert_eq!(route_masked(&mut LeastKvLoad, &req(0), &fleet, &mask), 1);
    }

    #[test]
    fn affinity_is_sticky_per_session_and_spreads_sessions() {
        let fleet = vec![idle(4096); 4];
        let mut aff = SessionAffinity::new();
        let mut hits = vec![0u32; 4];
        for session in 0..256u64 {
            let first = route_all_live(&mut aff, &req(session), &fleet);
            for _ in 0..3 {
                assert_eq!(route_all_live(&mut aff, &req(session), &fleet), first);
            }
            hits[first] += 1;
        }
        assert!(
            hits.iter().all(|&h| h > 0),
            "some replica never chosen: {hits:?}"
        );
    }

    #[test]
    fn affinity_spills_to_ring_successor_and_snaps_back() {
        let fleet = vec![idle(4096); 4];
        let mut aff = SessionAffinity::new();
        for session in 0..256u64 {
            let home = route_all_live(&mut aff, &req(session), &fleet);
            let mut mask = vec![true; 4];
            mask[home] = false;
            let spill = route_masked(&mut aff, &req(session), &fleet, &mask);
            assert_ne!(spill, home, "session {session} routed to a masked replica");
            // Deterministic spill target: same mask, same answer.
            assert_eq!(spill, route_masked(&mut aff, &req(session), &fleet, &mask));
            // Home replica back: the session snaps back, nothing moved.
            assert_eq!(route_all_live(&mut aff, &req(session), &fleet), home);
        }
    }

    #[test]
    fn affinity_resize_moves_keys_only_to_the_new_replica() {
        let small = vec![idle(4096); 3];
        let grown = vec![idle(4096); 4];
        let mut aff = SessionAffinity::new();
        let mut moved = 0u32;
        for session in 0..512u64 {
            let before = route_all_live(&mut aff, &req(session), &small);
            let after = route_all_live(&mut aff, &req(session), &grown);
            if before != after {
                assert_eq!(after, 3, "session {session} moved to an old replica");
                moved += 1;
            }
        }
        // Roughly 1/4 of the keyspace belongs to the new replica.
        assert!((32..=224).contains(&moved), "moved {moved} of 512");
    }

    #[test]
    #[should_panic(expected = "vnode")]
    fn zero_vnodes_rejected() {
        let _ = SessionAffinity::with_vnodes(0);
    }

    #[test]
    fn affinity_shrink_remaps_only_the_lost_replicas_keys() {
        // The reverse resize path: removing a replica must scatter only
        // its own keys; every other session keeps its placement.
        let grown = vec![idle(4096); 5];
        let small = vec![idle(4096); 4];
        let mut aff = SessionAffinity::new();
        let mut lost = 0u32;
        for session in 0..512u64 {
            let before = route_all_live(&mut aff, &req(session), &grown);
            let after = route_all_live(&mut aff, &req(session), &small);
            if before == 4 {
                lost += 1; // had to move somewhere in 0..4
                assert!(after < 4);
            } else {
                assert_eq!(before, after, "session {session} moved without cause");
            }
        }
        assert!(lost > 0, "replica 4 owned no keys — test is vacuous");
    }

    #[test]
    fn affinity_resize_round_trip_restores_every_placement() {
        // Grow then shrink back: the ring is a pure function of the
        // replica count, so placements must be exactly the originals.
        let small = vec![idle(4096); 3];
        let grown = vec![idle(4096); 6];
        let mut aff = SessionAffinity::new();
        let before: Vec<usize> = (0..256u64)
            .map(|s| route_all_live(&mut aff, &req(s), &small))
            .collect();
        for s in 0..256u64 {
            let _ = route_all_live(&mut aff, &req(s), &grown);
        }
        let after: Vec<usize> = (0..256u64)
            .map(|s| route_all_live(&mut aff, &req(s), &small))
            .collect();
        assert_eq!(before, after);
    }

    #[test]
    fn affinity_single_replica_routes_everything_to_it() {
        let fleet = vec![idle(4096)];
        let mut aff = SessionAffinity::with_vnodes(1);
        for session in 0..64u64 {
            assert_eq!(route_all_live(&mut aff, &req(session), &fleet), 0);
        }
    }

    #[test]
    fn jsq_breaks_backlog_ties_by_lowest_index() {
        // All replicas idle: identical backlog, identical headroom. The
        // deterministic tie-break must pick index 0 — and stay stable
        // when later replicas are equally short.
        let fleet = vec![idle(4096); 4];
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 0);
        let mut fleet = vec![idle(4096); 4];
        fleet[0].queue_depth = 1;
        // 1, 2, 3 tie at backlog 0: lowest index wins.
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 1);
    }

    #[test]
    fn jsq_tie_break_is_by_index_even_in_the_fallback_path() {
        // No replica has headroom; two tie on backlog. Index decides.
        let mut fleet = vec![idle(10); 3];
        fleet[0].queue_depth = 5;
        fleet[1].queue_depth = 2;
        fleet[2].queue_depth = 2;
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 1);
    }

    #[test]
    fn jsq_mixed_queue_and_active_counts_sum_into_the_backlog() {
        let mut fleet = vec![idle(4096); 2];
        fleet[0].queue_depth = 1;
        fleet[0].active_requests = 1; // backlog 2
        fleet[1].active_requests = 2; // backlog 2 — tie, index 0 wins
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 0);
        fleet[1].active_requests = 1; // backlog 1 — strict winner
        assert_eq!(route_all_live(&mut JoinShortestQueue, &req(0), &fleet), 1);
    }

    #[test]
    fn default_fleet_event_hook_is_a_no_op() {
        use crate::lifecycle::{FleetEvent, FleetEventKind};
        let index = FleetRoutingIndex::new(vec![idle(4096); 2], &[true, false]);
        let view = RoutingView::new(&index, 3.0);
        let ev = FleetEvent {
            at_s: 3.0,
            replica: 1,
            kind: FleetEventKind::Drain,
        };
        // Stateless routers take the default hook; it must not disturb
        // subsequent picks.
        let mut jsq = JoinShortestQueue;
        jsq.on_fleet_event(&ev, &view);
        assert_eq!(jsq.route(&req(0), &view), 0);
    }
}
