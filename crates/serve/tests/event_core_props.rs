//! Audits over the event core's layout: a batch that has turned over
//! (completions behind it, several requests still resident) must audit
//! clean at every later event, publishing no stale telemetry, and an
//! audited run must finish bit-identically to one never audited. A
//! mid-run fleet audit rebuilds the wake calendar from the cores and
//! must find the maintained one equal. The wake calendar's winner tree
//! itself is pinned against a naive argmin by the `min_tree` unit
//! property, and against a naive calendar of wake-up ticks by the
//! fleet's `wake_tree_agrees_with_the_naive_model` unit properties.

use rpu_serve::{
    AnalyticCostModel, Fifo, Fleet, FleetBuilder, FleetReport, FleetRun, PriorityAging, RoundRobin,
    ServeConfig, SessionAffinity, Workload,
};

/// One machine under priority aging: a one-replica fleet.
fn machine(cfg: &ServeConfig) -> Fleet {
    FleetBuilder::new()
        .group(
            1,
            cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.02)),
        )
        .build()
}

/// The turned-over workload: long prompts make prefill (~4 ms) span
/// several decode steps (~1.4 ms), so freshly admitted slots are still
/// prefilling while earlier ones decode; varied output lengths stagger
/// completions so the batch turns over while others stay resident.
fn turnover_workload() -> (Workload, ServeConfig) {
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    (wl, cfg)
}

/// Steps a one-machine run until its batch has turned over — at least
/// one request completed while at least two stay resident. Returns the
/// machine, its router and the live run. Panics if the workload never
/// reaches that shape.
fn run_to_turnover(wl: &Workload, cfg: &ServeConfig) -> (Fleet, RoundRobin, FleetRun) {
    let mut fleet = machine(cfg);
    let mut router = RoundRobin::new();
    let mut run = fleet.start(wl);
    loop {
        assert!(
            run.step(&mut fleet, &mut router),
            "run finished before reaching a turned-over mid-run state"
        );
        let stats = run.stats();
        if stats.completed >= 1 && stats.active >= 2 {
            return (fleet, router, run);
        }
    }
}

/// The same workload on the same machine, never audited.
fn straight(wl: &Workload, cfg: &ServeConfig) -> FleetReport {
    machine(cfg).serve(wl, &mut RoundRobin::new())
}

/// A mid-run audit of a batch that has turned over passes, and the run
/// then finishes bit-identically to one never audited.
#[test]
fn turned_over_batch_audits_clean_and_finishes_bit_identically() {
    let (wl, cfg) = turnover_workload();
    let (mut fleet, mut router, mut run) = run_to_turnover(&wl, &cfg);
    let stats = run.audit();
    assert!(stats.completed >= 1 && stats.active >= 2, "{stats:?}");
    while run.step(&mut fleet, &mut router) {}
    assert_eq!(run.into_report(), straight(&wl, &cfg));
}

/// Once the batch has turned over, the telemetry the router reads must
/// never hold a completed request's tokens: at every event to the end,
/// the audit rebuilds it by scanning the core's queue and batch and
/// finds the published counters (in-flight tokens, committed KV) equal —
/// in release builds too, where the core's own scan check is off.
#[test]
fn turned_over_batch_never_publishes_stale_telemetry() {
    let (wl, cfg) = turnover_workload();
    let (mut fleet, mut router, mut run) = run_to_turnover(&wl, &cfg);
    let mut audits = 0;
    loop {
        run.audit();
        audits += 1;
        if !run.step(&mut fleet, &mut router) {
            break;
        }
    }
    assert!(audits > 10, "too few audits: {audits}");
    assert_eq!(run.into_report(), straight(&wl, &cfg));
}

/// The fleet variant: audit three replicas mid-prefill under session
/// affinity. The audit rebuilds the wake tree and the routing index
/// from the cores and must find the maintained ones equal, and the run
/// then finishes bit-identically to one never audited.
#[test]
fn fleet_mid_run_audit_finds_the_wake_calendar_intact() {
    let wl = Workload::poisson(4000.0, 384, 24, 96);
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let mk_fleet = || {
        FleetBuilder::new()
            .group(
                3,
                &cfg,
                || Box::new(AnalyticCostModel::small()) as _,
                || Box::new(Fifo) as _,
            )
            .build()
    };
    let mut fleet = mk_fleet();
    let mut router = SessionAffinity::new();
    let mut run = fleet.start(&wl);
    for _ in 0..150 {
        assert!(run.step(&mut fleet, &mut router));
    }
    let stats = run.audit();
    assert!(stats.active > 0, "no replica mid-flight: {stats:?}");
    while run.step(&mut fleet, &mut router) {}
    assert_eq!(
        run.into_report(),
        mk_fleet().serve(&wl, &mut SessionAffinity::new())
    );
}
