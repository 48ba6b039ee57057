//! The adversarial fuzzing battery.
//!
//! Every hostile tape family from [`rpu_serve::fuzz_tape`] — flash
//! bursts, zero-length prompts, KV-filling monster contexts,
//! deadline-inverted priority mixes, session-churn storms, replica-churn
//! arrival storms — is swept across **all four scheduling policies ×
//! all four routers** on a small heterogeneity-free fleet. The
//! replica-churn family additionally re-runs with a [`churn_tape`]
//! lifecycle storm injected, so failures displace live work mid-tape.
//! Every 64 events the battery audits the run ([`FleetRun::audit`]):
//! the wake tree, the routing index and the up-count equal a rebuild
//! from the cores, no replica's batch exceeds `max_batch` or its
//! resident KV reservation its capacity, and every issued request is
//! pending, queued, active, completed, rejected or displaced, exactly
//! once ([`RunStats`]). Auditing after every event changes no digest,
//! pick, transition or counter, and a release-only leg audits a
//! paper-scale churned run: a million requests across 1000 replicas.
//! A long-prefill leg, small and (release only) 1000 replicas wide,
//! audits runs whose prefills span many decode iterations, so requests
//! join a replica's run-ahead mid-way.
//!
//! Hostile arrival processes fail loudly rather than losing requests:
//! a rate whose mean gap is not finite, or a trace or think time that
//! is not finite and non-negative, panics when the source is built; so
//! does a rate whose mean gaps over the whole run overflow. A lazy draw
//! that still produces a non-finite time panics at that draw.
//!
//! Hostile cost models are rejected where the scheduler reads them: a
//! decode step that is not finite and positive, or a prefill that is
//! not finite and non-negative, panics with the value, the batch and the
//! context instead of running the clock backwards (a negative TTFT),
//! failing later elsewhere (NaN) or stalling the run silently (`+∞`).
//! A decode step too small to move the clock it lands on panics too,
//! instead of finishing requests with zero latency.

use std::panic::{self, AssertUnwindSafe};

use rpu_models::LengthDistribution;
use rpu_serve::{
    churn_tape, digest_fleet_report, fuzz_tape, AnalyticCostModel, ArrivalProcess, ClassSpec,
    CostModel, DeadlineEdf, Fifo, Fleet, FleetBuilder, FleetEvent, FleetRun, FuzzFamily,
    JoinShortestQueue, LeastKvLoad, PerfCounters, PriorityAging, ReportDigest, Request, RoundRobin,
    Router, RoutingView, RunStats, SchedulingPolicy, ServeConfig, SessionAffinity,
    ShortestJobFirst, Workload,
};

const REPLICAS: usize = 3;
const POLICIES: usize = 4;
const ROUTERS: usize = 4;

fn build_policy(i: usize, wl: &Workload) -> Box<dyn SchedulingPolicy> {
    match i {
        0 => Box::new(Fifo),
        1 => Box::new(ShortestJobFirst::for_workload(wl)),
        2 => Box::new(PriorityAging::new(0.5)),
        _ => Box::new(DeadlineEdf),
    }
}

fn build_router(i: usize) -> Box<dyn Router> {
    match i {
        0 => Box::new(RoundRobin::new()),
        1 => Box::new(JoinShortestQueue),
        2 => Box::new(LeastKvLoad),
        _ => Box::new(SessionAffinity::new()),
    }
}

fn build_fleet(cfg: &ServeConfig, wl: &Workload, policy_idx: usize) -> Fleet {
    FleetBuilder::new()
        .group(
            REPLICAS,
            cfg,
            || Box::new(AnalyticCostModel::small()),
            || build_policy(policy_idx, wl),
        )
        .build()
}

/// Audits `run`. An audit failure is re-raised with `ctx`, after the
/// audit's own message.
fn audit(run: &FleetRun, ctx: &str) -> RunStats {
    panic::catch_unwind(AssertUnwindSafe(|| run.audit()))
        .unwrap_or_else(|_| panic!("{ctx}: audit failed at event {}", run.events()))
}

/// The full battery: 6 families × 4 policies × 4 routers. Each cell
/// audits at every checkpoint and once more at the end, where every
/// request must have reached a terminal state.
#[test]
fn battery_every_family_policy_router() {
    let cfg = ServeConfig::default();
    for family in FuzzFamily::ALL {
        for policy_idx in 0..POLICIES {
            let wl = fuzz_tape(family, 0x0BAD_5EED ^ policy_idx as u64);
            for router_idx in 0..ROUTERS {
                let ctx = format!(
                    "{}/{}/{}",
                    family.name(),
                    build_policy(policy_idx, &wl).name(),
                    router_idx
                );

                // Reference run, checking invariants as it goes.
                let mut fleet = build_fleet(&cfg, &wl, policy_idx);
                let mut router = build_router(router_idx);
                let mut run = fleet.start(&wl);
                let mut checkpoints = 0u32;
                while run.step(&mut fleet, router.as_mut()) {
                    if run.events().is_multiple_of(64) {
                        audit(&run, &ctx);
                        checkpoints += 1;
                    }
                }
                assert!(checkpoints > 0, "{ctx}: battery never checkpointed");
                let final_stats = audit(&run, &ctx);
                assert_eq!(
                    final_stats.pending_arrivals, 0,
                    "{ctx}: arrivals left pending at completion"
                );
                assert_eq!(
                    u64::from(final_stats.completed) + u64::from(final_stats.rejected),
                    u64::from(wl.num_requests),
                    "{ctx}: not every request reached a terminal state"
                );
                // No lifecycle events: every request was routed once.
                assert_eq!(
                    run.into_report().assigned.iter().sum::<u32>(),
                    wl.num_requests,
                    "{ctx}: assignment counts miss a pick"
                );
            }
        }
    }
}

/// The replica-churn leg: the hostile ReplicaChurn arrival tape paired
/// with an injected [`churn_tape`] lifecycle storm, across every policy
/// × router. Same checkpoint audit as the main battery, and every
/// injected lifecycle event must have applied by the end.
#[test]
fn churn_battery_lifecycle_storms() {
    let cfg = ServeConfig::default();
    for policy_idx in 0..POLICIES {
        let wl = fuzz_tape(FuzzFamily::ReplicaChurn, 0x0BAD_5EED ^ policy_idx as u64);
        let storm = churn_tape(REPLICAS as u32, 0xC0DE ^ policy_idx as u64, 0.08, 8);
        assert!(!storm.is_empty(), "churn storm generated no events");
        for router_idx in 0..ROUTERS {
            let ctx = format!(
                "replica-churn/{}/{}",
                build_policy(policy_idx, &wl).name(),
                router_idx
            );

            // The storm is injected up front.
            let mut fleet = build_fleet(&cfg, &wl, policy_idx);
            let mut router = build_router(router_idx);
            let mut run = fleet.start(&wl);
            for ev in &storm {
                run.inject(*ev);
            }
            while run.step(&mut fleet, router.as_mut()) {
                if run.events().is_multiple_of(64) {
                    audit(&run, &ctx);
                }
            }
            let final_stats = audit(&run, &ctx);
            assert_eq!(
                u64::from(final_stats.completed) + u64::from(final_stats.rejected),
                u64::from(wl.num_requests),
                "{ctx}: not every request reached a terminal state"
            );
            assert_eq!(
                run.into_report().lifecycle.events(),
                storm.len() as u32,
                "{ctx}: not every lifecycle event was applied"
            );
        }
    }
}

/// Wraps a router and records the decisions a run made through it:
/// every pick `route` returned, and every lifecycle transition the run
/// applied, in order.
struct Recording {
    inner: Box<dyn Router>,
    picks: Vec<usize>,
    transitions: Vec<FleetEvent>,
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
        self.transitions.push(*event);
    }
}

/// What a run decided and produced: its picks, its transitions, its
/// report digest and its routing-index counters.
type Decided = (Vec<usize>, Vec<FleetEvent>, ReportDigest, PerfCounters);

/// Runs `wl` (with `storm` injected) to completion, auditing after
/// every event when `audit` is set.
fn run_audited(
    wl: &Workload,
    storm: &[FleetEvent],
    policy_idx: usize,
    router_idx: usize,
    audit: bool,
) -> Decided {
    let mut fleet = build_fleet(&ServeConfig::default(), wl, policy_idx);
    let mut router = Recording {
        inner: build_router(router_idx),
        picks: Vec::new(),
        transitions: Vec::new(),
    };
    let mut run = fleet.start(wl);
    for ev in storm {
        run.inject(*ev);
    }
    while run.step(&mut fleet, &mut router) {
        if audit {
            run.audit();
        }
    }
    let counters = run.perf_counters();
    let digest = digest_fleet_report(&run.into_report());
    (router.picks, router.transitions, digest, counters)
}

/// An audit changes nothing: every family under every router (the
/// policy rotating with the family), and the replica-churn tape under a
/// lifecycle storm, audited after every event, makes the same picks and
/// transitions as the same run never audited, digests identically and
/// keeps the same routing-index counters.
#[test]
fn auditing_every_event_changes_no_digest() {
    for (f, family) in FuzzFamily::ALL.into_iter().enumerate() {
        let policy_idx = f % POLICIES;
        let wl = fuzz_tape(family, 0xA0D1 ^ f as u64);
        let storm = if family == FuzzFamily::ReplicaChurn {
            churn_tape(REPLICAS as u32, 0xA0D1, 0.08, 8)
        } else {
            Vec::new()
        };
        for router_idx in 0..ROUTERS {
            assert_eq!(
                run_audited(&wl, &storm, policy_idx, router_idx, true),
                run_audited(&wl, &storm, policy_idx, router_idx, false),
                "{}/{router_idx}: auditing changed the run",
                family.name()
            );
        }
    }
}

/// Serves `wl` on one machine; the hostile-arrival cases below must
/// panic before or during this, never report a short run.
fn serve_hostile(arrivals: ArrivalProcess, num_requests: u32) {
    let wl = Workload {
        arrivals,
        num_requests,
        ..Workload::poisson(1.0, 64, 8, num_requests)
    };
    let _ = rpu_serve::serve(
        &wl,
        &mut AnalyticCostModel::small(),
        &ServeConfig::default(),
    );
}

/// The paper-scale audit: the `wide_rr` benchmark shape (1000 analytic
/// replicas under FIFO at 280 req/s each, batch cap 8) at a million
/// requests, routed by JSQ through a 250-event lifecycle storm spread
/// over the first 80% of the arrival span, audited every 2048 events.
/// Release builds only: it is the event loop at full width and length.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn paper_scale_churned_run_audits_clean() {
    const WIDTH: u32 = 1000;
    const REQUESTS: u32 = 1_000_000;
    const RATE_RPS: f64 = 280.0 * WIDTH as f64;
    let wl = Workload {
        seed: 0x5CA1E ^ u64::from(WIDTH),
        ..Workload::poisson(RATE_RPS, 256, 16, REQUESTS)
    };
    let cfg = ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    };
    let mut fleet = FleetBuilder::new()
        .migration_delay_s(0.002)
        .group(
            WIDTH as usize,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .build();
    let storm = churn_tape(WIDTH, 0x5CA1E, 0.8 * f64::from(REQUESTS) / RATE_RPS, 250);
    let mut run = fleet.start(&wl);
    for ev in &storm {
        run.inject(*ev);
    }
    let mut audits = 0u32;
    while run.step(&mut fleet, &mut JoinShortestQueue) {
        if run.events().is_multiple_of(2048) {
            audit(&run, "paper-scale");
            audits += 1;
        }
    }
    let stats = audit(&run, "paper-scale");
    assert!(audits >= 800, "only {audits} audits");
    assert_eq!(
        u64::from(stats.completed) + u64::from(stats.rejected),
        u64::from(REQUESTS),
        "not every request reached a terminal state"
    );
    let report = run.into_report();
    assert_eq!(report.lifecycle.events(), storm.len() as u32);
    assert!(
        report.lifecycle.displaced > 0,
        "the storm displaced nothing"
    );
}

/// The `wide_jsq_mixed` benchmark's two-class mix: short interactive
/// requests and a batch class of 1536-token prompts.
fn long_prefill_mix(rate_rps: f64, requests: u32, seed: u64) -> Workload {
    Workload {
        seed,
        ..Workload::poisson(rate_rps, 1, 1, requests)
    }
    .with_classes(vec![
        ClassSpec {
            share: 0.8,
            tenants: 24,
            prompt_lens: Some(LengthDistribution::Uniform { lo: 64, hi: 384 }),
            output_lens: Some(LengthDistribution::Exponential {
                mean: 24.0,
                cap: 96,
            }),
            ..ClassSpec::interactive()
        },
        ClassSpec {
            share: 0.2,
            tenants: 4,
            prompt_lens: Some(LengthDistribution::Fixed(1536)),
            output_lens: Some(LengthDistribution::Fixed(384)),
            ..ClassSpec::batch()
        },
    ])
}

/// [`AnalyticCostModel::small`] with a prefill ten times slower: a
/// batch-class prefill spans some twenty decode iterations, so requests
/// join the batch while their replica runs ahead.
fn long_prefill_machine() -> AnalyticCostModel {
    AnalyticCostModel {
        prefill_token_s: 2e-5,
        kv_capacity_tokens: 8192,
        ..AnalyticCostModel::small()
    }
}

/// Builds `width` [`long_prefill_machine`]s, batch cap 4.
fn long_prefill_fleet(
    width: usize,
    policy: impl Fn() -> Box<dyn SchedulingPolicy> + 'static,
) -> Fleet {
    FleetBuilder::new()
        .migration_delay_s(0.002)
        .group(
            width,
            &ServeConfig {
                max_batch: 4,
                ..ServeConfig::default()
            },
            || Box::new(long_prefill_machine()),
            policy,
        )
        .build()
}

/// The long-prefill shape across every policy × router on a small
/// fleet under a lifecycle storm, audited every 8 events: cores run
/// ahead while slots are still prefilling, and arrivals, re-routes and
/// failures rewind them across those slots' joins.
#[test]
fn long_prefill_battery_audits_mid_run_joins() {
    for policy_idx in 0..POLICIES {
        let wl = long_prefill_mix(120.0, 240, 0x10_4E ^ policy_idx as u64);
        let storm = churn_tape(REPLICAS as u32, 0x10_4E ^ policy_idx as u64, 1.0, 8);
        for router_idx in 0..ROUTERS {
            let ctx = format!("long-prefill/{policy_idx}/{router_idx}");
            let policy_wl = wl.clone();
            let mut fleet =
                long_prefill_fleet(REPLICAS, move || build_policy(policy_idx, &policy_wl));
            let mut router = build_router(router_idx);
            let mut run = fleet.start(&wl);
            for ev in &storm {
                run.inject(*ev);
            }
            while run.step(&mut fleet, router.as_mut()) {
                if run.events().is_multiple_of(8) {
                    audit(&run, &ctx);
                }
            }
            let stats = audit(&run, &ctx);
            assert_eq!(
                u64::from(stats.completed) + u64::from(stats.rejected),
                u64::from(wl.num_requests),
                "{ctx}: not every request reached a terminal state"
            );
        }
    }
}

/// The long-prefill shape at the `wide_jsq_mixed` benchmark's width:
/// 1000 replicas under priority aging, routed by JSQ through a
/// 250-event lifecycle storm, 200k requests, audited every 512
/// events. Release builds only.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn wide_long_prefill_run_audits_clean() {
    const WIDTH: usize = 1000;
    const REQUESTS: u32 = 200_000;
    const RATE_RPS: f64 = 15.0 * WIDTH as f64;
    let wl = long_prefill_mix(RATE_RPS, REQUESTS, 0x10_4E);
    let mut fleet = long_prefill_fleet(WIDTH, || Box::new(PriorityAging::new(2.0)));
    let storm = churn_tape(
        WIDTH as u32,
        0x10_4E,
        0.8 * f64::from(REQUESTS) / RATE_RPS,
        250,
    );
    let mut run = fleet.start(&wl);
    for ev in &storm {
        run.inject(*ev);
    }
    let mut audits = 0u32;
    while run.step(&mut fleet, &mut JoinShortestQueue) {
        if run.events().is_multiple_of(512) {
            audit(&run, "wide long-prefill");
            audits += 1;
        }
    }
    let stats = audit(&run, "wide long-prefill");
    assert!(audits >= 800, "only {audits} audits");
    assert_eq!(
        u64::from(stats.completed) + u64::from(stats.rejected),
        u64::from(REQUESTS),
        "not every request reached a terminal state"
    );
    assert!(
        run.into_report().lifecycle.displaced > 0,
        "the storm displaced nothing"
    );
}

#[test]
#[should_panic(expected = "has no finite horizon for 20 requests")]
fn min_positive_poisson_rate_is_rejected() {
    serve_hostile(
        ArrivalProcess::Poisson {
            rate_rps: f64::MIN_POSITIVE,
        },
        20,
    );
}

#[test]
#[should_panic(expected = "has no finite mean gap")]
fn subnormal_poisson_rate_is_rejected() {
    serve_hostile(ArrivalProcess::Poisson { rate_rps: 5e-324 }, 20);
}

/// Arrivals near `1e300` s: a 2 ms decode step rounds away at that
/// clock.
#[test]
#[should_panic(expected = "decode step did not move the clock")]
fn decode_step_below_the_clock_resolution_is_rejected() {
    serve_hostile(ArrivalProcess::Poisson { rate_rps: 1e-300 }, 20);
}

#[test]
#[should_panic(expected = "think time must be finite and non-negative")]
fn nan_think_time_is_rejected() {
    serve_hostile(
        ArrivalProcess::ClosedLoop {
            clients: 2,
            think_s: f64::NAN,
        },
        10,
    );
}

#[test]
#[should_panic(expected = "think time must be finite and non-negative")]
fn infinite_think_time_is_rejected() {
    serve_hostile(
        ArrivalProcess::ClosedLoop {
            clients: 2,
            think_s: f64::INFINITY,
        },
        10,
    );
}

#[test]
#[should_panic(expected = "trace arrival times must be finite and non-negative")]
fn nan_trace_time_is_rejected() {
    serve_hostile(
        ArrivalProcess::Trace {
            arrivals_s: vec![0.0, f64::NAN, 1.0],
        },
        3,
    );
}

#[test]
#[should_panic(expected = "trace arrival times must be finite and non-negative")]
fn infinite_trace_time_is_rejected() {
    serve_hostile(
        ArrivalProcess::Trace {
            arrivals_s: vec![0.0, f64::INFINITY, 1.0],
        },
        3,
    );
}

/// The tapes themselves are deterministic in (family, seed) and differ
/// across seeds and families.
#[test]
fn fuzz_tapes_are_deterministic_and_distinct() {
    for family in FuzzFamily::ALL {
        assert_eq!(
            fuzz_tape(family, 7),
            fuzz_tape(family, 7),
            "{}",
            family.name()
        );
        assert_ne!(
            fuzz_tape(family, 7),
            fuzz_tape(family, 8),
            "{}",
            family.name()
        );
    }
    assert_ne!(
        fuzz_tape(FuzzFamily::FlashBurst, 7),
        fuzz_tape(FuzzFamily::ZeroPrompt, 7)
    );
}

/// The hostile properties each family promises actually materialise.
#[test]
fn fuzz_tapes_are_actually_hostile() {
    // Zero-prompt tapes schedule genuinely empty prompts.
    let wl = fuzz_tape(FuzzFamily::ZeroPrompt, 3);
    let report = rpu_serve::serve_with(
        &wl,
        &mut AnalyticCostModel::small(),
        &ServeConfig::default(),
        &mut Fifo,
    );
    assert!(
        report.records.iter().any(|r| r.prompt_len == 0),
        "zero-prompt tape produced no zero-length prompt"
    );

    // Monster-context tapes overflow the small machine's KV budget.
    let wl = fuzz_tape(FuzzFamily::MonsterContext, 3);
    let report = rpu_serve::serve_with(
        &wl,
        &mut AnalyticCostModel::small(),
        &ServeConfig::default(),
        &mut Fifo,
    );
    assert!(
        report.rejected > 0,
        "monster-context tape rejected nothing on a 4096-token machine"
    );

    // Flash-burst tapes really do pile arrivals onto shared instants.
    let wl = fuzz_tape(FuzzFamily::FlashBurst, 3);
    let rpu_serve::ArrivalProcess::Trace { arrivals_s } = &wl.arrivals else {
        panic!("flash-burst tape is not a trace");
    };
    let mut sorted = arrivals_s.clone();
    sorted.sort_by(f64::total_cmp);
    assert!(
        sorted.windows(2).any(|w| w[0] == w[1]),
        "flash-burst tape has no simultaneous arrivals"
    );
}

/// [`AnalyticCostModel::small`] with every third `decode_step_s` call,
/// or every third `prefill_s` call, priced at `bad` seconds instead (a
/// replica asks for one decode price per stretch of iterations at one
/// batch and context bucket, not one per iteration).
struct Mispriced {
    bad: f64,
    decode: bool,
    calls: u32,
}

impl Mispriced {
    fn price(&mut self, good: f64, this_call: bool) -> f64 {
        self.calls += u32::from(this_call);
        if this_call && self.calls.is_multiple_of(3) {
            self.bad
        } else {
            good
        }
    }

    /// Serves 400 Poisson requests on one replica.
    fn serve(bad: f64, decode: bool) {
        let wl = Workload::poisson(50.0, 64, 16, 400);
        let mut cost = Self {
            bad,
            decode,
            calls: 0,
        };
        let _ = rpu_serve::serve(&wl, &mut cost, &ServeConfig::default());
    }
}

impl CostModel for Mispriced {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        let good = AnalyticCostModel::small().decode_step_s(batch, max_context);
        self.price(good, self.decode)
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        let good = AnalyticCostModel::small().prefill_s(prompt_len);
        self.price(good, !self.decode)
    }

    fn kv_capacity_tokens(&self) -> u64 {
        AnalyticCostModel::small().kv_capacity_tokens()
    }
}

#[test]
#[should_panic(
    expected = "decode step must be finite and positive: cost model said NaN s for batch"
)]
fn nan_decode_step_is_rejected() {
    Mispriced::serve(f64::NAN, true);
}

#[test]
#[should_panic(
    expected = "decode step must be finite and positive: cost model said -0.002 s for batch"
)]
fn negative_decode_step_is_rejected() {
    Mispriced::serve(-2e-3, true);
}

#[test]
#[should_panic(expected = "decode step must be finite and positive: cost model said 0 s for batch")]
fn zero_decode_step_is_rejected() {
    Mispriced::serve(0.0, true);
}

#[test]
#[should_panic(
    expected = "decode step must be finite and positive: cost model said inf s for batch"
)]
fn infinite_decode_step_is_rejected() {
    Mispriced::serve(f64::INFINITY, true);
}

#[test]
#[should_panic(
    expected = "prefill must be finite and non-negative: cost model said NaN s for context"
)]
fn nan_prefill_is_rejected() {
    Mispriced::serve(f64::NAN, false);
}

#[test]
#[should_panic(
    expected = "prefill must be finite and non-negative: cost model said -0.002 s for context"
)]
fn negative_prefill_is_rejected() {
    Mispriced::serve(-2e-3, false);
}
