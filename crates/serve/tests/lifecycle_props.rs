//! Property suite for replica lifecycle and failure recovery.
//!
//! Three invariant families over randomly generated workloads, fleet
//! sizes, routers and [`churn_tape`] lifecycle storms:
//!
//! 1. **Draining admits nothing new** — walking the command log with a
//!    replayed lifecycle-state machine, no `Enqueue` or `Reroute`
//!    command ever targets a replica that is draining or down at that
//!    point in the log.
//! 2. **Failure conserves requests** — every issued request still ends
//!    its lifecycle exactly once (completed or rejected, no duplicate
//!    ids), even when failures displace in-flight work through the
//!    router, and the assignment counters account for every enqueue
//!    *and* every re-route.
//! 3. **Churned runs digest identically three ways** — straight run ==
//!    snapshot-at-every-lifecycle-boundary-then-resume == command-log
//!    replay, down to full-report equality (including machine-seconds
//!    and lifecycle counters).
//!
//! A fourth property pins the fleet's next-event rule: `next_time`
//! predicts every `step` under churn and under a full blackout, with
//! and without a migration delay.

use proptest::prelude::*;
use rpu_serve::{
    churn_tape, digest_fleet_report, AnalyticCostModel, Command, Fleet, FleetBuilder, FleetEvent,
    FleetEventKind, FleetRun, JoinShortestQueue, LeastKvLoad, LifecycleState, PriorityAging,
    RoundRobin, Router, ServeConfig, SessionAffinity, Workload,
};

fn build_router(i: usize) -> Box<dyn Router> {
    match i {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastKvLoad),
        _ => Box::new(SessionAffinity::new()),
    }
}

/// A uniform fleet of `n` small replicas with a short migration delay,
/// so displaced work re-enters the router mid-run.
fn build_fleet(n: usize, cfg: &ServeConfig) -> Fleet {
    build_fleet_with_delay(n, cfg, 0.002)
}

/// [`build_fleet`] with an explicit failure migration delay.
fn build_fleet_with_delay(n: usize, cfg: &ServeConfig, delay_s: f64) -> Fleet {
    FleetBuilder::new()
        .migration_delay_s(delay_s)
        .group(
            n,
            cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.25)),
        )
        .build()
}

/// Runs the workload under the churn storm to completion, returning
/// the finished run for inspection.
fn churned_run(
    wl: &Workload,
    fleet: &mut Fleet,
    router: &mut dyn Router,
    events: &[FleetEvent],
) -> FleetRun {
    let mut run = fleet.start(wl);
    for ev in events {
        run.inject(*ev);
    }
    while run.step(fleet, router) {}
    run
}

/// Replays lifecycle transitions alongside the log cursor.
fn apply(states: &mut [LifecycleState], ev: &FleetEvent) {
    states[ev.replica as usize] = match ev.kind {
        FleetEventKind::Join => LifecycleState::Live,
        FleetEventKind::Drain => LifecycleState::Draining,
        FleetEventKind::Leave | FleetEventKind::Fail => LifecycleState::Down,
    };
}

fn arb_case() -> impl Strategy<Value = (Workload, usize, usize, Vec<FleetEvent>)> {
    (
        (2usize..=4, 0usize..4, 200.0f64..2000.0, 24u32..=48),
        (0u64..1 << 40, 2u32..=6, 0.005f64..0.05),
    )
        .prop_map(
            |((n, router_idx, rate, requests), (seed, churn, horizon))| {
                let wl = Workload {
                    seed,
                    ..Workload::poisson(rate, 96, 24, requests)
                };
                let events = churn_tape(n as u32, seed ^ 0x11FE, horizon, churn);
                (wl, n, router_idx, events)
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A draining (or down) replica never receives new work: every
    /// `Enqueue` and every `Reroute` in the command log targets a
    /// replica that is live at that point in the log.
    #[test]
    fn draining_replicas_are_never_admitted_new_work(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        let mut fleet = build_fleet(n, &cfg);
        let mut router = build_router(router_idx);
        let run = churned_run(&wl, &mut fleet, router.as_mut(), &events);
        let mut states = vec![LifecycleState::Live; n];
        for (i, cmd) in run.log().commands().iter().enumerate() {
            match cmd {
                Command::Enqueue { replica } | Command::Reroute { replica } => {
                    prop_assert_eq!(
                        states[*replica as usize],
                        LifecycleState::Live,
                        "log position {}: replica {} admitted while {}",
                        i,
                        replica,
                        states[*replica as usize].name()
                    );
                }
                Command::Lifecycle(ev) => apply(&mut states, ev),
                Command::Step { .. } => {}
            }
        }
    }

    /// Failures displace in-flight work but never lose or duplicate a
    /// request: terminal states still sum to the workload, ids stay
    /// unique, and `assigned` counts every enqueue plus every re-route.
    #[test]
    fn failure_and_reenqueue_conserve_requests(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        let mut fleet = build_fleet(n, &cfg);
        let mut router = build_router(router_idx);
        let run = churned_run(&wl, &mut fleet, router.as_mut(), &events);
        let stats = run.stats();
        prop_assert!(stats.conserved(), "terminal leak: {stats:?}");
        let (mut enqueues, mut reroutes) = (0u32, 0u32);
        for cmd in run.log().commands() {
            match cmd {
                Command::Enqueue { .. } => enqueues += 1,
                Command::Reroute { .. } => reroutes += 1,
                _ => {}
            }
        }
        let report = run.into_report();
        prop_assert_eq!(
            report.aggregate.records.len() as u32 + report.aggregate.rejected,
            wl.num_requests,
            "not every request reached exactly one terminal state"
        );
        let mut ids: Vec<u32> = report
            .replicas
            .iter()
            .flat_map(|r| r.records.iter().map(|rec| rec.id))
            .collect();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(ids.len(), before, "a request id completed twice");
        prop_assert_eq!(enqueues, wl.num_requests);
        prop_assert_eq!(
            report.assigned.iter().sum::<u32>(),
            enqueues + reroutes,
            "assignment counters miss an enqueue or re-route"
        );
        prop_assert_eq!(report.lifecycle.events(), events.len() as u32);
    }

    /// Churn-heavy runs freeze/thaw and replay identically: the digest
    /// (and the full report, machine-seconds and lifecycle counters
    /// included) matches at every lifecycle event boundary.
    #[test]
    fn churned_runs_digest_identically_three_ways(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        let mut fleet = build_fleet(n, &cfg);
        let mut router = build_router(router_idx);
        let mut run = fleet.start(&wl);
        for ev in &events {
            run.inject(*ev);
        }
        // Freeze at every lifecycle boundary as the straight run passes it.
        let mut boundary_snaps = Vec::new();
        while run.step(&mut fleet, router.as_mut()) {
            if matches!(run.log().commands().last(), Some(Command::Lifecycle(_))) {
                boundary_snaps.push(run.snapshot(router.as_ref()));
            }
        }
        prop_assert_eq!(boundary_snaps.len(), events.len());
        let log = run.log().clone();
        let reference = run.into_report();
        let reference_digest = digest_fleet_report(&reference);

        // Thaw each boundary into a fresh fleet + router and run out.
        for (b, bytes) in boundary_snaps.iter().enumerate() {
            let mut fleet2 = build_fleet(n, &cfg);
            let mut router2 = build_router(router_idx);
            let mut resumed = FleetRun::resume(&wl, &fleet2, router2.as_mut(), bytes)
                .unwrap_or_else(|e| panic!("boundary {b}: resume failed: {e}"));
            while resumed.step(&mut fleet2, router2.as_mut()) {}
            let report = resumed.into_report();
            prop_assert_eq!(
                digest_fleet_report(&report),
                reference_digest,
                "boundary {} resume diverged",
                b
            );
            prop_assert_eq!(&report, &reference, "boundary {} full report differs", b);
        }

        // Command-log replay reproduces the same report.
        let mut fleet3 = build_fleet(n, &cfg);
        let replayed = fleet3.replay(&wl, &log);
        prop_assert_eq!(digest_fleet_report(&replayed), reference_digest);
        prop_assert_eq!(&replayed, &reference, "replay full report differs");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// `next_time` and `step` share one next-event rule: before every
    /// step, `next_time()` is `Some(t)` exactly when the step executes
    /// an event, and that event moves the clock to `now.max(t)`, bit
    /// for bit. Displaced work is re-routed at once and after a 2 ms
    /// migration delay, under the churn storm and under a blackout
    /// that leaves no live replica while arrivals and re-routes wait.
    #[test]
    fn next_time_predicts_every_step(case in arb_case()) {
        let (wl, n, router_idx, churn) = case;
        let cfg = ServeConfig::default();
        // Every replica fails, then all rejoin: arrivals and displaced
        // work wait with no live replica, then run behind the clock.
        let blackout: Vec<FleetEvent> = [(0.002, FleetEventKind::Fail), (0.008, FleetEventKind::Join)]
            .into_iter()
            .flat_map(|(at_s, kind)| {
                (0..n as u32).map(move |replica| FleetEvent { at_s, replica, kind })
            })
            .collect();
        let tapes = [("churn", &churn), ("blackout", &blackout)];
        for ((tape, events), delay_s) in tapes.into_iter().flat_map(|t| [(t, 0.0), (t, 0.002)]) {
            let mut fleet = build_fleet_with_delay(n, &cfg, delay_s);
            let mut router = build_router(router_idx);
            let mut run = fleet.start(&wl);
            for ev in events {
                run.inject(*ev);
            }
            loop {
                let next = run.next_time();
                let before = run.now_s();
                let stepped = run.step(&mut fleet, router.as_mut());
                prop_assert_eq!(
                    next.is_some(),
                    stepped,
                    "{} tape, delay {}s, event {}: next_time {:?} but step returned {}",
                    tape,
                    delay_s,
                    run.events(),
                    next,
                    stepped
                );
                let Some(t) = next else { break };
                prop_assert_eq!(
                    run.now_s().to_bits(),
                    before.max(t).to_bits(),
                    "{} tape, delay {}s, event {}: clock {} after next_time {}",
                    tape,
                    delay_s,
                    run.events(),
                    run.now_s(),
                    t
                );
            }
        }
    }
}
