//! Differential battery for the `O(log R)` routing index: under random
//! telemetry delta streams and lifecycle storms, every indexed lookup
//! stays bit-identical to the full rescan it replaces, and every stock
//! router decides exactly as a scan oracle says it should.
//!
//! Two layers:
//!
//! * **index vs rescan** — a [`FleetRoutingIndex`] driven by the same
//!   `O(1)` telemetry updates and routable flips the fleet driver
//!   issues is compared against scans of a model copy of the telemetry
//!   with the routers' exact comparison order, query by query, through
//!   hundreds of random mutations;
//! * **router vs oracle** — each stock router routes the same request
//!   over the same telemetry twice, once on a view over the
//!   incrementally maintained index and once on a view over an index
//!   rebuilt from scratch. The picks must match each other, and the
//!   join-shortest-queue, least-KV and round-robin picks must match
//!   oracles built from the scans below, KV-saturated fallback paths
//!   included.

use proptest::prelude::*;
use rpu_serve::{
    FleetRoutingIndex, JoinShortestQueue, LeastKvLoad, ReplicaTelemetry, Request, RoundRobin,
    Router, RoutingView, ServeRng, SessionAffinity,
};

fn tel(rng: &mut ServeRng) -> ReplicaTelemetry {
    // Small ranges on purpose: ties on backlog and on the KV fraction
    // must be common, or the tie-break order goes untested.
    ReplicaTelemetry {
        queue_depth: (rng.next_u64() % 5) as u32,
        active_requests: (rng.next_u64() % 4) as u32,
        reserved_tokens: rng.next_u64() % 4096,
        queued_tokens: rng.next_u64() % 2048,
        kv_capacity_tokens: 1 + (rng.next_u64() % 4) * 2048,
    }
}

fn req(rng: &mut ServeRng) -> Request {
    // Prompt lengths span "always fits" to "fits nowhere", so the
    // join-shortest-queue headroom filter and its saturated fallback
    // both come up.
    let prompt_len = match rng.next_u64() % 4 {
        0 => 16,
        1 => 256,
        2 => 2048,
        _ => 100_000,
    };
    Request {
        id: (rng.next_u64() % 1_000_000) as u32,
        arrival_s: 0.0,
        prompt_len,
        output_len: (rng.next_u64() % 64) as u32 + 1,
        tenant: 0,
        session: rng.next_u64(),
        class: 0,
        priority: 0,
        deadline_s: 1.0,
    }
}

/// The exact scans the built-in routers used before the index.
fn scan_backlog(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
    (0..telemetry.len())
        .filter(|&i| routable[i])
        .min_by_key(|&i| (telemetry[i].backlog(), i))
}

fn scan_kv(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
    (0..telemetry.len())
        .filter(|&i| routable[i])
        .min_by(|&a, &b| {
            telemetry[a]
                .kv_load()
                .total_cmp(&telemetry[b].kv_load())
                .then(telemetry[a].backlog().cmp(&telemetry[b].backlog()))
                .then(a.cmp(&b))
        })
}

fn scan_next_routable(routable: &[bool], start: usize) -> Option<usize> {
    let n = routable.len();
    (0..n).map(|k| (start + k) % n).find(|&i| routable[i])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random interleavings of telemetry deltas, lifecycle flips and
    /// queries: every indexed answer equals the full rescan, at every
    /// step, across fleet widths spanning bitset words and tree
    /// padding.
    #[test]
    fn index_tracks_full_rescans_through_delta_storms(
        seed in 0u64..1 << 48,
        n in 1usize..170,
        ops in 1usize..300,
    ) {
        let mut rng = ServeRng::new(seed);
        let mut telemetry: Vec<ReplicaTelemetry> = (0..n).map(|_| tel(&mut rng)).collect();
        let mut routable: Vec<bool> = (0..n).map(|_| !rng.next_u64().is_multiple_of(4)).collect();
        let mut idx = FleetRoutingIndex::new(telemetry.clone(), &routable);
        for step in 0..ops {
            let i = (rng.next_u64() % n as u64) as usize;
            match rng.next_u64() % 6 {
                // The driver's per-event path: one replica's telemetry
                // moves, one O(1) update.
                0 | 1 => {
                    telemetry[i] = tel(&mut rng);
                    idx.update(i, telemetry[i]);
                }
                // Lifecycle storm: drain/fail/join at random.
                2 => {
                    routable[i] = !routable[i];
                    idx.set_routable(i, routable[i]);
                }
                3 => {
                    prop_assert_eq!(
                        idx.min_backlog_replica(),
                        scan_backlog(&telemetry, &routable),
                        "backlog argmin diverged at step {}", step
                    );
                }
                4 => {
                    prop_assert_eq!(
                        idx.min_kv_load_replica(),
                        scan_kv(&telemetry, &routable),
                        "kv argmin diverged at step {}", step
                    );
                }
                _ => {
                    prop_assert_eq!(
                        idx.next_routable_from(i),
                        scan_next_routable(&routable, i),
                        "next-routable diverged at step {}", step
                    );
                }
            }
            prop_assert_eq!(
                idx.live_count(),
                routable.iter().filter(|&&r| r).count(),
                "live count drifted at step {}", step
            );
        }
        // Closing sweep: all three lookups, every wrap start.
        prop_assert_eq!(idx.min_backlog_replica(), scan_backlog(&telemetry, &routable));
        prop_assert_eq!(idx.min_kv_load_replica(), scan_kv(&telemetry, &routable));
        for start in 0..n {
            prop_assert_eq!(idx.next_routable_from(start), scan_next_routable(&routable, start));
        }
    }

    /// Every stock router picks the same replica on the incrementally
    /// maintained index and on one rebuilt from scratch, request after
    /// request, through lifecycle flips and telemetry churn; the
    /// join-shortest-queue, least-KV and round-robin picks equal their
    /// scan oracles.
    #[test]
    fn stock_routers_match_scan_oracles_on_incremental_and_rebuilt_indexes(
        seed in 0u64..1 << 48,
        n in 1usize..150,
        rounds in 1usize..80,
    ) {
        let mut rng = ServeRng::new(seed);
        let mut telemetry: Vec<ReplicaTelemetry> = (0..n).map(|_| tel(&mut rng)).collect();
        let mut routable: Vec<bool> = (0..n).map(|_| !rng.next_u64().is_multiple_of(3)).collect();
        // Routers panic with nothing routable; pin one replica live.
        let anchor = (rng.next_u64() % n as u64) as usize;
        routable[anchor] = true;
        let mut idx = FleetRoutingIndex::new(telemetry.clone(), &routable);
        // Stateful routers advance in lockstep on both sides, and the
        // round-robin oracle keeps its own cursor.
        let mut rr_incremental = RoundRobin::new();
        let mut rr_rebuilt = RoundRobin::new();
        let mut rr_cursor = 0usize;
        let mut aff_incremental = SessionAffinity::new();
        let mut aff_rebuilt = SessionAffinity::new();
        for round in 0..rounds {
            let request = req(&mut rng);
            let rebuilt_idx = FleetRoutingIndex::new(telemetry.clone(), &routable);
            let incremental = RoutingView::new(&idx, round as f64);
            let rebuilt = RoutingView::new(&rebuilt_idx, round as f64);
            prop_assert_eq!(
                incremental.routable().collect::<Vec<_>>(),
                (0..n).filter(|&i| routable[i]).collect::<Vec<_>>()
            );
            prop_assert_eq!(
                incremental.routable_count(),
                routable.iter().filter(|&&r| r).count()
            );

            // JSQ: the shortest routable replica with KV headroom, or
            // the shortest routable replica when none has any.
            let need = request.reserved_tokens();
            let fits: Vec<bool> = (0..n)
                .map(|i| routable[i] && telemetry[i].has_kv_headroom(need))
                .collect();
            let jsq_oracle = scan_backlog(&telemetry, &fits)
                .or_else(|| scan_backlog(&telemetry, &routable))
                .expect("the anchor is routable");
            let jsq = JoinShortestQueue.route(&request, &incremental);
            prop_assert_eq!(jsq, jsq_oracle, "jsq left its oracle at round {}", round);
            prop_assert_eq!(jsq, JoinShortestQueue.route(&request, &rebuilt));

            let kv_oracle = scan_kv(&telemetry, &routable).expect("the anchor is routable");
            let kv = LeastKvLoad.route(&request, &incremental);
            prop_assert_eq!(kv, kv_oracle, "least-kv left its oracle at round {}", round);
            prop_assert_eq!(kv, LeastKvLoad.route(&request, &rebuilt));

            let rr_oracle = scan_next_routable(&routable, rr_cursor).expect("the anchor is routable");
            rr_cursor = (rr_oracle + 1) % n;
            let rr = rr_incremental.route(&request, &incremental);
            prop_assert_eq!(rr, rr_oracle, "round-robin left its oracle at round {}", round);
            prop_assert_eq!(rr, rr_rebuilt.route(&request, &rebuilt));

            let aff = aff_incremental.route(&request, &incremental);
            prop_assert!(routable[aff], "affinity picked unroutable {} at round {}", aff, round);
            prop_assert_eq!(aff, aff_rebuilt.route(&request, &rebuilt));

            // Churn between decisions, exactly as a fleet run would:
            // telemetry updates, lifecycle flips.
            for _ in 0..(rng.next_u64() % 4) {
                let i = (rng.next_u64() % n as u64) as usize;
                telemetry[i] = tel(&mut rng);
                idx.update(i, telemetry[i]);
            }
            if rng.next_u64().is_multiple_of(3) {
                let i = (rng.next_u64() % n as u64) as usize;
                if i != anchor {
                    routable[i] = !routable[i];
                    idx.set_routable(i, routable[i]);
                }
            }
        }
    }
}
