//! Property suite for the fleet layer.
//!
//! Two invariant families over randomly generated workloads, fleet
//! sizes and routers:
//!
//! 1. **Token conservation across the fleet** — the sum of per-replica
//!    output tokens equals the aggregate's, every issued request ends
//!    its lifecycle exactly once (completed on one replica or
//!    rejected), and no request id appears twice anywhere.
//! 2. **Per-replica reports sum exactly to the fleet report** — counts,
//!    busy-times and iterations are additive; peaks are maxima; the
//!    fleet makespan covers every replica's span.

use proptest::prelude::*;
use rpu_models::LengthDistribution;
use rpu_serve::{
    AnalyticCostModel, ArrivalProcess, ClassSpec, FleetBuilder, JoinShortestQueue, LeastKvLoad,
    PriorityAging, RoundRobin, Router, ServeConfig, SessionAffinity, SloTargets, Workload,
};

fn machine() -> AnalyticCostModel {
    AnalyticCostModel::small()
}

fn arb_lengths(cap: u32) -> impl Strategy<Value = LengthDistribution> {
    prop_oneof![
        (1u32..=cap).prop_map(LengthDistribution::Fixed),
        (1u32..=64, 128u32..=256).prop_map(|(lo, hi)| LengthDistribution::Uniform { lo, hi }),
        (4.0f64..64.0).prop_map(move |mean| LengthDistribution::Exponential { mean, cap }),
    ]
}

fn arb_classes() -> impl Strategy<Value = Vec<ClassSpec>> {
    (
        arb_lengths(256),
        arb_lengths(96),
        1u32..=8,
        arb_lengths(512),
        arb_lengths(192),
        1usize..=2,
    )
        .prop_map(|(pl, ol, tenants, bpl, bol, n)| {
            [
                ClassSpec {
                    share: 2.0,
                    tenants,
                    prompt_lens: Some(pl),
                    output_lens: Some(ol),
                    slo: SloTargets::interactive(),
                    ..ClassSpec::interactive()
                },
                ClassSpec {
                    share: 1.0,
                    prompt_lens: Some(bpl),
                    output_lens: Some(bol),
                    ..ClassSpec::batch()
                },
            ]
            .into_iter()
            .take(n)
            .collect()
        })
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop_oneof![
            (50.0f64..4000.0).prop_map(|rate_rps| ArrivalProcess::Poisson { rate_rps }),
            (1u32..=8, 0.0f64..0.02)
                .prop_map(|(clients, think_s)| ArrivalProcess::ClosedLoop { clients, think_s }),
        ],
        arb_classes(),
        4u32..40,
        0u64..1 << 48,
    )
        .prop_map(|(arrivals, classes, num_requests, seed)| {
            Workload {
                arrivals,
                prompt_lens: LengthDistribution::Fixed(64),
                output_lens: LengthDistribution::Fixed(16),
                num_requests,
                seed,
                classes: vec![],
            }
            .with_classes(classes)
        })
}

fn arb_fleet_size() -> impl Strategy<Value = usize> {
    1usize..=5
}

fn build_router(i: usize) -> Box<dyn Router> {
    match i {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastKvLoad),
        _ => Box::new(SessionAffinity::new()),
    }
}

fn serve(
    wl: &Workload,
    n: usize,
    router: &mut dyn Router,
    cfg: &ServeConfig,
) -> rpu_serve::FleetReport {
    let mut fleet = FleetBuilder::new()
        .group(
            n,
            cfg,
            || Box::new(machine()),
            || Box::new(PriorityAging::new(0.25)),
        )
        .build();
    fleet.serve(wl, router)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fleet_conserves_tokens_and_lifecycles(
        wl in arb_workload(),
        n in arb_fleet_size(),
        router_idx in 0usize..4,
        max_batch in 1u32..=6,
    ) {
        let mut router = build_router(router_idx);
        let cfg = ServeConfig { max_batch, ..ServeConfig::default() };
        let r = serve(&wl, n, router.as_mut(), &cfg);
        // Sum of per-replica output tokens == aggregate output tokens.
        let per_replica: u64 = r.replicas.iter().map(|p| p.output_tokens()).sum();
        let aggregate: u64 = r.records().map(|rec| u64::from(rec.output_len)).sum();
        prop_assert_eq!(per_replica, aggregate);
        // Every issued request ends exactly once: completed or rejected.
        prop_assert_eq!(
            r.aggregate.records.len() as u32 + r.aggregate.rejected,
            wl.num_requests
        );
        let mut ids: Vec<u32> = r
            .records()
            .map(|rec| rec.id)
            .chain(r.aggregate.rejected_requests.iter().map(|req| req.id))
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "a request id appeared twice");
        // Completed requests emitted exactly their sampled output.
        for rec in r.records() {
            prop_assert!(rec.output_len >= 1);
            prop_assert!(rec.finish_s >= rec.first_token_s);
        }
    }

    #[test]
    fn per_replica_reports_sum_to_fleet_report(
        wl in arb_workload(),
        n in arb_fleet_size(),
        router_idx in 0usize..4,
    ) {
        let mut router = build_router(router_idx);
        let cfg = ServeConfig::default();
        let r = serve(&wl, n, router.as_mut(), &cfg);
        prop_assert_eq!(r.replicas.len(), n);
        prop_assert_eq!(r.assigned.len(), n);
        // Additive counters (summed in replica order, exactly as the
        // merge does, so f64 sums are bit-equal).
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.records.len()).sum::<usize>(),
            r.aggregate.records.len()
        );
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.rejected).sum::<u32>(),
            r.aggregate.rejected
        );
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.preemptions).sum::<u32>(),
            r.aggregate.preemptions
        );
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.decode_iterations).sum::<u64>(),
            r.aggregate.decode_iterations
        );
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.decode_busy_s).sum::<f64>(),
            r.aggregate.decode_busy_s
        );
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.prefill_busy_s).sum::<f64>(),
            r.aggregate.prefill_busy_s
        );
        // Peaks are maxima, not sums.
        prop_assert_eq!(
            r.replicas.iter().map(|p| p.peak_batch).max().unwrap_or(0),
            r.aggregate.peak_batch
        );
        prop_assert_eq!(
            r.replicas
                .iter()
                .map(|p| p.peak_reserved_tokens)
                .max()
                .unwrap_or(0),
            r.aggregate.peak_reserved_tokens
        );
        // The fleet makespan covers every replica's own span, and the
        // utilisation identities hold.
        for p in &r.replicas {
            prop_assert!(p.makespan_s <= r.aggregate.makespan_s + 1e-9);
        }
        prop_assert!(r.fleet_utilization() <= 1.0 + 1e-9);
        prop_assert!(r.imbalance() >= 1.0 - 1e-9);
        prop_assert!(r.imbalance() <= n as f64 + 1e-9);
        // Assignments partition the workload.
        prop_assert_eq!(r.assigned.iter().sum::<u32>(), wl.num_requests);
    }

    #[test]
    fn fleet_runs_are_bit_reproducible(
        wl in arb_workload(),
        n in arb_fleet_size(),
    ) {
        let cfg = ServeConfig::default();
        let mut r1 = SessionAffinity::new();
        let mut r2 = SessionAffinity::new();
        let a = serve(&wl, n, &mut r1, &cfg);
        let b = serve(&wl, n, &mut r2, &cfg);
        prop_assert_eq!(a, b);
    }
}
