//! The adversarial fuzzing battery.
//!
//! Every hostile tape family from [`rpu_serve::fuzz_tape`] — flash
//! bursts, zero-length prompts, KV-filling monster contexts,
//! deadline-inverted priority mixes, session-churn storms, replica-churn
//! arrival storms — is swept across **all four scheduling policies ×
//! all four routers** on a small heterogeneity-free fleet. The
//! replica-churn family additionally re-runs with a [`churn_tape`]
//! lifecycle storm injected, so failures displace live work mid-tape. At periodic checkpoints mid-run the
//! battery asserts:
//!
//! 1. **Conservation** — every issued request is pending, queued,
//!    active, completed or rejected, exactly once ([`RunStats`]).
//! 2. **Caps** — no replica's batch exceeds `max_batch` and no
//!    replica's resident KV reservation exceeds its capacity.
//! 3. **Snapshot closure** — freezing the run and thawing it into a
//!    fresh fleet+router re-freezes to the *same bytes*.
//!
//! And per run, the three-way digest equality the whole subsystem
//! promises: run-to-completion == snapshot-at-midpoint-then-resume ==
//! command-log replay.
//!
//! Hostile cost models are rejected where the scheduler reads them: a
//! decode step that is not finite and positive, or a prefill that is
//! not finite and non-negative, panics with the value, the batch and the
//! context instead of running the clock backwards (a negative TTFT),
//! failing later elsewhere (NaN) or stalling the run silently (`+∞`).

use rpu_serve::{
    churn_tape, digest_fleet_report, fuzz_tape, AnalyticCostModel, CostModel, DeadlineEdf, Fifo,
    Fleet, FleetBuilder, FleetRun, FuzzFamily, JoinShortestQueue, LeastKvLoad, PriorityAging,
    RoundRobin, Router, RunStats, SchedulingPolicy, ServeConfig, SessionAffinity, ShortestJobFirst,
    Workload,
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

fn assert_checkpoint_invariants(run: &FleetRun, cfg: &ServeConfig, ctx: &str) -> RunStats {
    let stats = run.stats();
    assert!(
        stats.conserved(),
        "{ctx}: lifecycle leak at event {}: {stats:?}",
        run.events()
    );
    for (i, t) in run.telemetry().iter().enumerate() {
        assert!(
            t.active_requests <= cfg.max_batch,
            "{ctx}: replica {i} batch {} exceeds max_batch {} at event {}",
            t.active_requests,
            cfg.max_batch,
            run.events()
        );
        assert!(
            t.reserved_tokens <= t.kv_capacity_tokens,
            "{ctx}: replica {i} reserves {} of {} KV tokens at event {}",
            t.reserved_tokens,
            t.kv_capacity_tokens,
            run.events()
        );
    }
    stats
}

/// The full battery: 6 families × 4 policies × 4 routers. Each cell
/// checks conservation/cap/snapshot invariants at every checkpoint and
/// the three-way digest equality at the end.
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
                        assert_checkpoint_invariants(&run, &cfg, &ctx);
                        // Snapshot closure: thaw into a fresh router,
                        // re-freeze, bytes must match.
                        let bytes = run.snapshot(router.as_ref());
                        let mut router2 = build_router(router_idx);
                        let thawed = FleetRun::resume(&wl, &fleet, router2.as_mut(), &bytes)
                            .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
                        assert_eq!(
                            thawed.snapshot(router2.as_ref()),
                            bytes,
                            "{ctx}: thaw/re-freeze changed bytes at event {}",
                            run.events()
                        );
                        checkpoints += 1;
                    }
                }
                assert!(checkpoints > 0, "{ctx}: battery never checkpointed");
                let final_stats = assert_checkpoint_invariants(&run, &cfg, &ctx);
                assert_eq!(
                    final_stats.pending_arrivals, 0,
                    "{ctx}: arrivals left pending at completion"
                );
                assert_eq!(
                    u64::from(final_stats.completed) + u64::from(final_stats.rejected),
                    u64::from(wl.num_requests),
                    "{ctx}: not every request reached a terminal state"
                );
                let total_events = run.events();
                let log = run.log().clone();
                let reference = digest_fleet_report(&run.into_report());

                // Midpoint snapshot → resume in a fresh fleet+router →
                // identical final digest.
                let mut fleet_a = build_fleet(&cfg, &wl, policy_idx);
                let mut router_a = build_router(router_idx);
                let mut first_half = fleet_a.start(&wl);
                for _ in 0..total_events / 2 {
                    assert!(first_half.step(&mut fleet_a, router_a.as_mut()));
                }
                let frozen = first_half.snapshot(router_a.as_ref());
                let mut fleet_b = build_fleet(&cfg, &wl, policy_idx);
                let mut router_b = build_router(router_idx);
                let mut second_half = FleetRun::resume(&wl, &fleet_b, router_b.as_mut(), &frozen)
                    .unwrap_or_else(|e| panic!("{ctx}: midpoint resume failed: {e}"));
                while second_half.step(&mut fleet_b, router_b.as_mut()) {}
                assert_eq!(
                    digest_fleet_report(&second_half.into_report()),
                    reference,
                    "{ctx}: snapshot-at-midpoint-then-resume diverged"
                );

                // Command-log replay → identical final digest.
                let mut fleet_c = build_fleet(&cfg, &wl, policy_idx);
                assert_eq!(
                    digest_fleet_report(&fleet_c.replay(&wl, &log)),
                    reference,
                    "{ctx}: command-log replay diverged"
                );
            }
        }
    }
}

/// The replica-churn leg: the hostile ReplicaChurn arrival tape paired
/// with an injected [`churn_tape`] lifecycle storm, across every policy
/// × router. Same checkpoint invariants as the main battery, plus the
/// three-way digest equality with lifecycle commands riding the log.
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

            // Reference run with the storm injected up front; pending
            // events ride the snapshot and the command log.
            let mut fleet = build_fleet(&cfg, &wl, policy_idx);
            let mut router = build_router(router_idx);
            let mut run = fleet.start(&wl);
            for ev in &storm {
                run.inject(*ev);
            }
            while run.step(&mut fleet, router.as_mut()) {
                if run.events().is_multiple_of(64) {
                    assert_checkpoint_invariants(&run, &cfg, &ctx);
                    let bytes = run.snapshot(router.as_ref());
                    let mut router2 = build_router(router_idx);
                    let thawed = FleetRun::resume(&wl, &fleet, router2.as_mut(), &bytes)
                        .unwrap_or_else(|e| panic!("{ctx}: resume failed: {e}"));
                    assert_eq!(
                        thawed.snapshot(router2.as_ref()),
                        bytes,
                        "{ctx}: thaw/re-freeze changed bytes at event {}",
                        run.events()
                    );
                }
            }
            let final_stats = assert_checkpoint_invariants(&run, &cfg, &ctx);
            assert_eq!(
                u64::from(final_stats.completed) + u64::from(final_stats.rejected),
                u64::from(wl.num_requests),
                "{ctx}: not every request reached a terminal state"
            );
            let total_events = run.events();
            let log = run.log().clone();
            let report = run.into_report();
            assert_eq!(
                report.lifecycle.events(),
                storm.len() as u32,
                "{ctx}: not every lifecycle event was applied"
            );
            let reference = digest_fleet_report(&report);

            // Midpoint snapshot → resume → identical digest. Events
            // applied before the midpoint live in the restored states;
            // the rest ride the snapshot's pending list.
            let mut fleet_a = build_fleet(&cfg, &wl, policy_idx);
            let mut router_a = build_router(router_idx);
            let mut first_half = fleet_a.start(&wl);
            for ev in &storm {
                first_half.inject(*ev);
            }
            for _ in 0..total_events / 2 {
                assert!(first_half.step(&mut fleet_a, router_a.as_mut()));
            }
            let frozen = first_half.snapshot(router_a.as_ref());
            let mut fleet_b = build_fleet(&cfg, &wl, policy_idx);
            let mut router_b = build_router(router_idx);
            let mut second_half = FleetRun::resume(&wl, &fleet_b, router_b.as_mut(), &frozen)
                .unwrap_or_else(|e| panic!("{ctx}: midpoint resume failed: {e}"));
            while second_half.step(&mut fleet_b, router_b.as_mut()) {}
            assert_eq!(
                digest_fleet_report(&second_half.into_report()),
                reference,
                "{ctx}: churned snapshot-resume diverged"
            );

            // Command-log replay carries the lifecycle commands.
            let mut fleet_c = build_fleet(&cfg, &wl, policy_idx);
            assert_eq!(
                digest_fleet_report(&fleet_c.replay(&wl, &log)),
                reference,
                "{ctx}: churned command-log replay diverged"
            );
        }
    }
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

/// [`AnalyticCostModel::small`] with every third decode step, or every
/// third prefill, priced at `bad` seconds instead.
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
