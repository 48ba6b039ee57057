//! Property suite for snapshot/restore equivalence.
//!
//! The contract under test: `restore(snapshot(s))` resumes
//! bit-identically — for any seeded workload, snapshotting at *any*
//! event index and restoring into a fresh machine yields a final
//! report **byte-identical** to the uninterrupted run. One property
//! per scheduling policy (64 cases each) on a single machine (a
//! one-replica fleet, as [`serve_with`] runs it), plus a fleet-level
//! property over one to four replicas and every router. Both freeze
//! router state and close the triangle: uninterrupted == resumed ==
//! replayed-from-log; the single machine's also matches a fresh
//! [`serve_with`] run.

use proptest::prelude::*;
use rpu_models::LengthDistribution;
use rpu_serve::{
    digest_fleet_report, digest_serve_report, serve_with, AnalyticCostModel, ArrivalProcess,
    ClassSpec, DeadlineEdf, Fifo, FleetBuilder, FleetRun, JoinShortestQueue, LeastKvLoad,
    PriorityAging, RoundRobin, Router, SchedulingPolicy, ServeConfig, SessionAffinity,
    ShortestJobFirst, SloTargets, Workload,
};

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        prop_oneof![
            (100.0f64..4000.0).prop_map(|rate_rps| ArrivalProcess::Poisson { rate_rps }),
            (1u32..=8, 0.0f64..0.02)
                .prop_map(|(clients, think_s)| ArrivalProcess::ClosedLoop { clients, think_s }),
        ],
        8u32..48,
        0u64..1 << 48,
        1usize..=2,
    )
        .prop_map(|(arrivals, num_requests, seed, n_classes)| {
            let classes = [
                ClassSpec {
                    share: 2.0,
                    tenants: 3,
                    prompt_lens: Some(LengthDistribution::Uniform { lo: 8, hi: 192 }),
                    output_lens: Some(LengthDistribution::Uniform { lo: 2, hi: 24 }),
                    slo: SloTargets::interactive(),
                    ..ClassSpec::interactive()
                },
                ClassSpec {
                    share: 1.0,
                    prompt_lens: Some(LengthDistribution::Uniform { lo: 64, hi: 512 }),
                    output_lens: Some(LengthDistribution::Uniform { lo: 8, hi: 48 }),
                    ..ClassSpec::batch()
                },
            ]
            .into_iter()
            .take(n_classes)
            .collect();
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

/// Runs the workload on one machine (a one-replica fleet) with the
/// given policy factory: once uninterrupted, once snapshotted at `cut`
/// (taken modulo the run length) and restored into a fresh run, once
/// replayed from the recorded log. Asserts byte-identical reports and
/// digests, and that a fresh [`serve_with`] run is the replica's report.
fn assert_serve_cut_equivalence(
    wl: &Workload,
    cut: u64,
    make_policy: impl Fn() -> Box<dyn SchedulingPolicy>,
) -> Result<(), TestCaseError> {
    let cfg = ServeConfig::default();
    let machine = || {
        FleetBuilder::new()
            .group(
                1,
                &cfg,
                || Box::new(AnalyticCostModel::small()),
                &make_policy,
            )
            .build()
    };

    let mut fleet = machine();
    let mut router = RoundRobin::new();
    let mut full = fleet.start(wl);
    while full.step(&mut fleet, &mut router) {}
    let total = full.events();
    let log = full.log().clone();
    let uninterrupted = full.into_report();

    let cut = cut % total.max(1);
    let mut fleet_a = machine();
    let mut router_a = RoundRobin::new();
    let mut head = fleet_a.start(wl);
    for _ in 0..cut {
        prop_assert!(head.step(&mut fleet_a, &mut router_a));
    }
    let bytes = head.snapshot(&router_a);

    let mut fleet_b = machine();
    let mut router_b = RoundRobin::new();
    let mut tail =
        FleetRun::resume(wl, &fleet_b, &mut router_b, &bytes).expect("snapshot must thaw");
    while tail.step(&mut fleet_b, &mut router_b) {}
    let resumed = tail.into_report();

    prop_assert_eq!(&resumed, &uninterrupted, "resumed report differs");
    prop_assert_eq!(
        digest_serve_report(&resumed.replicas[0]),
        digest_serve_report(&uninterrupted.replicas[0])
    );
    prop_assert_eq!(
        digest_fleet_report(&resumed),
        digest_fleet_report(&uninterrupted)
    );

    // Close the triangle: the replayed log and a fresh serve_with run
    // match too.
    let replayed = machine().replay(wl, &log);
    prop_assert_eq!(&replayed, &uninterrupted, "replayed report differs");
    let direct = serve_with(
        wl,
        &mut AnalyticCostModel::small(),
        &cfg,
        make_policy().as_mut(),
    );
    prop_assert_eq!(
        &direct,
        &uninterrupted.replicas[0],
        "serve_with report differs"
    );
    Ok(())
}

fn build_router(i: usize) -> Box<dyn Router> {
    match i {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastKvLoad),
        _ => Box::new(SessionAffinity::new()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fifo_snapshot_at_any_event_resumes_identically(
        wl in arb_workload(),
        cut in 0u64..10_000,
    ) {
        assert_serve_cut_equivalence(&wl, cut, || Box::new(Fifo))?;
    }

    #[test]
    fn sjf_snapshot_at_any_event_resumes_identically(
        wl in arb_workload(),
        cut in 0u64..10_000,
    ) {
        assert_serve_cut_equivalence(&wl, cut, || Box::new(ShortestJobFirst::for_workload(&wl)))?;
    }

    #[test]
    fn priority_aging_snapshot_at_any_event_resumes_identically(
        wl in arb_workload(),
        cut in 0u64..10_000,
    ) {
        assert_serve_cut_equivalence(&wl, cut, || Box::new(PriorityAging::new(0.5)))?;
    }

    #[test]
    fn deadline_edf_snapshot_at_any_event_resumes_identically(
        wl in arb_workload(),
        cut in 0u64..10_000,
    ) {
        assert_serve_cut_equivalence(&wl, cut, || Box::new(DeadlineEdf))?;
    }

    #[test]
    fn fleet_snapshot_at_any_event_resumes_identically(
        wl in arb_workload(),
        cut in 0u64..10_000,
        n in 1usize..=4,
        router_idx in 0usize..4,
    ) {
        let cfg = ServeConfig::default();
        let build_fleet = || FleetBuilder::new().group(
            n,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.25)),
        ).build();

        let mut fleet = build_fleet();
        let mut router = build_router(router_idx);
        let mut full = fleet.start(&wl);
        while full.step(&mut fleet, router.as_mut()) {}
        let total = full.events();
        let log = full.log().clone();
        let uninterrupted = full.into_report();

        let cut = cut % total.max(1);
        let mut fleet_a = build_fleet();
        let mut router_a = build_router(router_idx);
        let mut head = fleet_a.start(&wl);
        for _ in 0..cut {
            prop_assert!(head.step(&mut fleet_a, router_a.as_mut()));
        }
        let bytes = head.snapshot(router_a.as_ref());

        let mut fleet_b = build_fleet();
        let mut router_b = build_router(router_idx);
        let mut tail = FleetRun::resume(&wl, &fleet_b, router_b.as_mut(), &bytes)
            .expect("snapshot must thaw");
        while tail.step(&mut fleet_b, router_b.as_mut()) {}
        let resumed = tail.into_report();

        prop_assert_eq!(&resumed, &uninterrupted, "resumed fleet report differs");
        prop_assert_eq!(
            digest_fleet_report(&resumed),
            digest_fleet_report(&uninterrupted)
        );

        let mut fleet_c = build_fleet();
        let replayed = fleet_c.replay(&wl, &log);
        prop_assert_eq!(&replayed, &uninterrupted, "replayed fleet report differs");
    }
}
