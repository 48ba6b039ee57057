//! Property suite for replica lifecycle and failure recovery.
//!
//! Three invariant families over randomly generated workloads, fleet
//! sizes, routers and [`churn_tape`] lifecycle storms:
//!
//! 1. **Draining admits nothing new** — every router pick targets a
//!    replica that is live right after the step that made it.
//! 2. **Failure conserves requests** — every issued request still ends
//!    its lifecycle exactly once (completed or rejected, no duplicate
//!    ids), even when failures displace in-flight work through the
//!    router, and the router picks once per arrival *and* per
//!    re-route, which the assignment counters sum to.
//! 3. **Churned runs digest identically three ways** — a straight run
//!    audited at every lifecycle boundary ([`FleetRun::audit`]) == an
//!    unaudited re-run == a re-run audited after every event, down to
//!    full-report equality (including machine-seconds and lifecycle
//!    counters).
//!
//! A fourth property pins the fleet's next-event rule: `next_time`
//! predicts every `step` under churn and under a full blackout, with
//! and without a migration delay. A fifth audits autoscaled runs at
//! every control boundary, where the controller injects transitions
//! that tie with arrivals, and re-runs them through [`run_autoscaled`].

use proptest::prelude::*;
use rpu_models::LengthDistribution;
use rpu_serve::{
    churn_tape, digest_fleet_report, run_autoscaled, AnalyticCostModel, ArrivalProcess, Autoscaler,
    AutoscalerConfig, ClassSpec, Fifo, Fleet, FleetBuilder, FleetEvent, FleetEventKind, FleetRun,
    JoinShortestQueue, LeastKvLoad, LifecycleState, PriorityAging, Request, RoundRobin, Router,
    RoutingView, ServeConfig, SessionAffinity, TtftWindow, Workload,
};

fn build_router(i: usize) -> Box<dyn Router> {
    match i {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastKvLoad),
        _ => Box::new(SessionAffinity::new()),
    }
}

/// Wraps a router and records every pick `route` returned, in order.
struct Recording {
    inner: Box<dyn Router>,
    picks: Vec<usize>,
}

impl Recording {
    fn new(inner: Box<dyn Router>) -> Self {
        Self {
            inner,
            picks: Vec::new(),
        }
    }
}

impl Router for Recording {
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

/// Starts the workload with the churn storm injected.
fn churned_start(wl: &Workload, fleet: &Fleet, events: &[FleetEvent]) -> FleetRun {
    let mut run = fleet.start(wl);
    for ev in events {
        run.inject(*ev);
    }
    run
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
    /// pick — arrival or re-route — targets a replica that is live
    /// right after the step that made it (a routing step applies no
    /// transition, so that is its state at routing time).
    #[test]
    fn draining_replicas_are_never_admitted_new_work(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        let mut fleet = build_fleet(n, &cfg);
        let mut router = Recording::new(build_router(router_idx));
        let mut run = churned_start(&wl, &fleet, &events);
        let mut routed = 0;
        while run.step(&mut fleet, &mut router) {
            let picks = &router.picks;
            if picks.len() > routed {
                routed = picks.len();
                let pick = picks[routed - 1];
                prop_assert_eq!(
                    run.states()[pick],
                    LifecycleState::Live,
                    "pick {}: replica {} admitted while {}",
                    routed - 1,
                    pick,
                    run.states()[pick].name()
                );
            }
        }
    }

    /// Failures displace in-flight work but never lose or duplicate a
    /// request: terminal states still sum to the workload, ids stay
    /// unique, the router picks a replica for every arrival plus every
    /// displaced request, and `assigned` counts every pick.
    #[test]
    fn failure_and_reenqueue_conserve_requests(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        let mut fleet = build_fleet(n, &cfg);
        let mut router = Recording::new(build_router(router_idx));
        let mut run = churned_start(&wl, &fleet, &events);
        while run.step(&mut fleet, &mut router) {}
        let stats = run.stats();
        prop_assert!(stats.conserved(), "terminal leak: {stats:?}");
        let picks = router.picks.len() as u32;
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
        prop_assert_eq!(
            picks,
            wl.num_requests + report.lifecycle.displaced,
            "the router missed an arrival or re-route pick"
        );
        prop_assert_eq!(
            report.assigned.iter().sum::<u32>(),
            picks,
            "assignment counters miss a pick"
        );
        prop_assert_eq!(report.lifecycle.events(), events.len() as u32);
    }

    /// Churn-heavy runs audit clean at every lifecycle event boundary
    /// — the routable mask, up-count, wake tree and routing index each
    /// transition derives equal a rebuild — and the audited run's
    /// digest (and full report, machine-seconds and lifecycle counters
    /// included) matches an unaudited re-run and a re-run audited after
    /// every event.
    #[test]
    fn churned_runs_digest_identically_three_ways(case in arb_case()) {
        let (wl, n, router_idx, events) = case;
        let cfg = ServeConfig::default();
        // `audit_after(applied, stepped)` says whether to audit after a
        // step, given the transitions applied before and after it.
        let run_with = |audit_after: fn(u32, u32) -> bool| {
            let mut fleet = build_fleet(n, &cfg);
            let mut router = build_router(router_idx);
            let mut run = churned_start(&wl, &fleet, &events);
            let mut audits = 0;
            loop {
                let applied = run.lifecycle_counts().events();
                if !run.step(&mut fleet, router.as_mut()) {
                    break;
                }
                if audit_after(applied, run.lifecycle_counts().events()) {
                    run.audit();
                    audits += 1;
                }
            }
            (run.into_report(), audits)
        };
        // Audit at every lifecycle boundary as the straight run passes it.
        let (reference, boundaries) = run_with(|before, after| after > before);
        prop_assert_eq!(boundaries, events.len());
        let reference_digest = digest_fleet_report(&reference);

        // The seed is the checkpoint: an unaudited re-run reproduces it.
        let (report, _) = run_with(|_, _| false);
        prop_assert_eq!(digest_fleet_report(&report), reference_digest);
        prop_assert_eq!(&report, &reference, "re-run full report differs");

        // So does one audited after every event.
        let (report, _) = run_with(|_, _| true);
        prop_assert_eq!(digest_fleet_report(&report), reference_digest);
        prop_assert_eq!(&report, &reference, "audited re-run full report differs");
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

/// [`run_autoscaled`]'s control loop, unrolled so the run can be
/// audited ([`FleetRun::audit`]) at every control boundary, before the
/// controller reads it. Each boundary also checks the telemetry cache
/// the controller reads against a recomputation.
fn autoscaled_run(
    wl: &Workload,
    fleet: &mut Fleet,
    router: &mut dyn Router,
    config: AutoscalerConfig,
) -> FleetRun {
    let mut scaler = Autoscaler::new(config);
    let mut run = fleet.start(wl);
    let mut ttfts = TtftWindow::new(&run);
    let mut boundary = config.interval_s;
    while run.step_until(fleet, router, boundary) {
        run.audit();
        let p99 = ttfts.p99_since(&run, (boundary - config.window_s).max(0.0));
        assert_eq!(
            run.telemetry_cache(),
            run.telemetry(),
            "telemetry cache drifted at boundary {boundary}"
        );
        for ev in scaler.control(boundary, run.states(), run.telemetry_cache(), p99) {
            run.inject(ev);
        }
        boundary += config.interval_s;
    }
    run
}

/// One live replica plus four spare slots for the autoscaler to join.
fn elastic_fleet() -> Fleet {
    let cfg = ServeConfig::default();
    FleetBuilder::new()
        .group(
            1,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .group_with_state(
            LifecycleState::Down,
            4,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .build()
}

/// A trace with one arrival exactly on every control boundary — the
/// boundary accumulated the way the controller accumulates it — and,
/// over the first half, a burst on every `burst_every`-th one: the
/// controller joins under the bursts and drains in the quiet tail, its
/// injections tying with arrivals that have already run. Yields the
/// burst size with the tape: a burst of at least one full batch (8) on
/// top of the boundary's own arrival always makes the controller join,
/// while thinner ones sometimes do not (2 of 400 sampled tapes with
/// bursts down to 4 never scaled).
fn arb_boundary_tape() -> impl Strategy<Value = (Workload, usize)> {
    (16usize..=60, 1usize..=4, 4usize..=48, 0u64..1 << 40).prop_map(
        |(boundaries, burst_every, burst, seed)| {
            let interval = AutoscalerConfig::default().interval_s;
            let mut arrivals_s = Vec::new();
            let mut t = 0.0;
            for b in 0..boundaries {
                t += interval;
                let bursting = b < boundaries / 2 && b % burst_every == 0;
                let n = if bursting { 1 + burst } else { 1 };
                arrivals_s.extend(std::iter::repeat_n(t, n));
            }
            let wl = Workload {
                num_requests: arrivals_s.len() as u32,
                arrivals: ArrivalProcess::Trace { arrivals_s },
                prompt_lens: LengthDistribution::Uniform { lo: 64, hi: 1024 },
                output_lens: LengthDistribution::Uniform { lo: 8, hi: 96 },
                seed,
                classes: vec![ClassSpec::interactive()],
            };
            (wl, burst)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// An autoscaled run audits clean at every control boundary — where
    /// a join injected at the boundary lands after that boundary's
    /// arrivals have already run — and re-runs identically: the
    /// hand-driven, audited loop is pinned to [`run_autoscaled`], report
    /// and digest. Every case with a burst of a full batch or more joins
    /// at least once, so those cases exercise the tied boundary.
    #[test]
    fn autoscaled_runs_replay_identically(tape in arb_boundary_tape()) {
        let (wl, burst) = tape;
        let config = AutoscalerConfig::default();
        let mut fleet = elastic_fleet();
        let recorded =
            autoscaled_run(&wl, &mut fleet, &mut RoundRobin::new(), config).into_report();
        let library = run_autoscaled(
            &mut elastic_fleet(),
            &wl,
            &mut RoundRobin::new(),
            &mut Autoscaler::new(config),
        );
        prop_assert_eq!(&library, &recorded, "hand-driven loop drifted");
        prop_assert_eq!(digest_fleet_report(&library), digest_fleet_report(&recorded));
        if burst >= 8 {
            prop_assert!(recorded.lifecycle.joins > 0, "the autoscaler never joined");
        }
    }
}
