//! Snapshot closure over the event core's layout: mid-run snapshots
//! of a batch that has turned over must thaw to identical bytes,
//! identical telemetry and a bit-identical finish, and a thawed fleet
//! must rebuild its wake calendar losslessly. The wake calendar's
//! winner tree itself is pinned against a naive argmin by the
//! `min_tree` unit property, and against a naive calendar of wake-up
//! ticks by the fleet's `wake_tree_agrees_with_the_naive_model` unit
//! properties.

use rpu_serve::{
    AnalyticCostModel, Fifo, Fleet, FleetBuilder, FleetRun, PriorityAging, RoundRobin, ServeConfig,
    SessionAffinity, Workload,
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
/// one request completed while at least two stay resident — then
/// freezes it. Returns the machine, its router, the live run and the
/// bytes. Panics if the workload never reaches that shape.
fn freeze_after_turnover(
    wl: &Workload,
    cfg: &ServeConfig,
) -> (Fleet, RoundRobin, FleetRun, Vec<u8>) {
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
            let bytes = run.snapshot(&router);
            return (fleet, router, run, bytes);
        }
    }
}

/// Mid-run freeze of a batch that has turned over (completions behind
/// it, several requests resident): the thawed run must re-freeze to
/// the same bytes and finish bit-identically to the uninterrupted
/// original.
#[test]
fn fragmented_mid_run_snapshot_resumes_bit_identically() {
    let (wl, cfg) = turnover_workload();
    let (mut fleet_a, mut router_a, mut original, bytes) = freeze_after_turnover(&wl, &cfg);
    let mut fleet_b = machine(&cfg);
    let mut router_b = RoundRobin::new();
    let mut resumed = FleetRun::resume(&wl, &fleet_b, &mut router_b, &bytes).expect("thaws");
    // Closure: freezing the thawed state reproduces the bytes exactly
    // — the batch and the rebuilt counters lose nothing in the round
    // trip.
    assert_eq!(
        resumed.snapshot(&router_b),
        bytes,
        "re-freeze must be bit-identical"
    );
    while original.step(&mut fleet_a, &mut router_a) {}
    while resumed.step(&mut fleet_b, &mut router_b) {}
    assert_eq!(original.into_report(), resumed.into_report());
}

/// Restoring a run whose batch has turned over must not resurrect
/// stale telemetry: the thawed core's published counters (in-flight
/// tokens, committed KV) must equal the frozen original's exactly — a
/// completed request's tokens leaking back in would misroute
/// every subsequent arrival. The continuation runs under debug
/// cross-checks (incremental counters vs recomputation by scan), so
/// drift introduced later in the run is caught too.
#[test]
fn thawed_batch_turnover_does_not_resurrect_stale_telemetry() {
    let (wl, cfg) = turnover_workload();
    let (mut fleet_a, mut router_a, mut original, bytes) = freeze_after_turnover(&wl, &cfg);
    let mut fleet_b = machine(&cfg);
    let mut router_b = RoundRobin::new();
    let mut resumed = FleetRun::resume(&wl, &fleet_b, &mut router_b, &bytes).expect("thaws");
    assert_eq!(
        resumed.telemetry()[0],
        original.telemetry()[0],
        "thawed telemetry differs at the freeze point"
    );
    loop {
        assert_eq!(
            resumed.telemetry()[0],
            original.telemetry()[0],
            "telemetry drifts after event {}",
            original.events()
        );
        let more = original.step(&mut fleet_a, &mut router_a);
        if !resumed.step(&mut fleet_b, &mut router_b) {
            assert!(!more, "runs finish at different event counts");
            break;
        }
        assert!(more, "runs finish at different event counts");
    }
    assert_eq!(original.into_report(), resumed.into_report());
}

/// The fleet variant: freeze with replicas mid-prefill, thaw into a
/// fresh fleet + router, and demand byte-identical re-freeze plus a
/// bit-identical finish. The fleet's wake tree is *not* serialized —
/// this is the test that rebuilding it on resume is lossless.
#[test]
fn fleet_mid_run_snapshot_resumes_bit_identically() {
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
    let mut fleet_a = mk_fleet();
    let mut router_a = SessionAffinity::new();
    let mut run_a = fleet_a.start(&wl);
    for _ in 0..150 {
        assert!(run_a.step(&mut fleet_a, &mut router_a));
    }
    let bytes = run_a.snapshot(&router_a);
    let fleet_b = mk_fleet();
    let mut router_b = SessionAffinity::new();
    let mut run_b = FleetRun::resume(&wl, &fleet_b, &mut router_b, &bytes).expect("thaws");
    assert_eq!(
        run_b.snapshot(&router_b),
        bytes,
        "fleet re-freeze must be bit-identical"
    );
    let mut fleet_b = fleet_b;
    while run_a.step(&mut fleet_a, &mut router_a) {}
    while run_b.step(&mut fleet_b, &mut router_b) {}
    assert_eq!(run_a.into_report(), run_b.into_report());
}
