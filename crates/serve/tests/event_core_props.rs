//! Property suite for the event core's calendar — the
//! [`CalendarQueue`] behind the fleet's wake-ups — plus snapshot
//! closure over the core layout.
//!
//! The calendar is checked against a naive model (a map of live
//! wake-ups) under random interleavings of schedule / reschedule /
//! cancel / pop / peek: no wake-up is ever lost or duplicated, pops
//! surface in `(tick, id)` order with FIFO-by-id tie-breaks, and the
//! heap never grows past the compaction bound. Mid-run snapshots of a
//! batch that has turned over must thaw to identical bytes, identical
//! telemetry and a bit-identical finish.

use proptest::prelude::*;
use rpu_serve::{
    AnalyticCostModel, CalendarQueue, Fifo, FleetBuilder, FleetRun, PriorityAging, ServeConfig,
    ServeRng, ServeRun, SessionAffinity, Workload,
};
use std::collections::BTreeMap;

/// The naive calendar: id → live tick. The minimum of `(tick, id)`
/// over its entries is what a correct queue must pop next.
fn model_min(model: &BTreeMap<u32, f64>) -> Option<(f64, u32)> {
    model
        .iter()
        .map(|(&id, &tick)| (tick, id))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of schedule / cancel / pop / peek agree
    /// with the naive model at every step, and draining at the end
    /// yields exactly the model's surviving wake-ups, in order.
    #[test]
    fn calendar_agrees_with_the_naive_model(seed in 0u64..1 << 48, n_ops in 1usize..400) {
        let mut rng = ServeRng::new(seed);
        let mut q = CalendarQueue::with_components(8);
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        for _ in 0..n_ops {
            let id = (rng.next_u64() % 16) as u32;
            match rng.next_u64() % 5 {
                // Schedule / reschedule (occasionally to infinity).
                0 | 1 => {
                    let tick = if rng.next_u64().is_multiple_of(16) {
                        f64::INFINITY
                    } else {
                        (rng.next_u64() % 1000) as f64 / 8.0
                    };
                    q.schedule(id, tick);
                    if tick.is_finite() {
                        model.insert(id, tick);
                    } else {
                        model.remove(&id);
                    }
                }
                2 => {
                    q.cancel(id);
                    model.remove(&id);
                }
                3 => {
                    let got = q.pop();
                    let want = model_min(&model);
                    prop_assert_eq!(got, want, "pop disagrees with model");
                    if let Some((_, id)) = want {
                        model.remove(&id);
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek(), model_min(&model), "peek disagrees");
                }
            }
            prop_assert_eq!(q.len(), model.len(), "live count drifted");
            for (&id, &tick) in &model {
                prop_assert_eq!(q.scheduled_at(id), Some(tick));
            }
        }
        // Drain: every surviving wake-up surfaces exactly once, in
        // nondecreasing (tick, id) order — none lost, none duplicated.
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        let mut expected: Vec<(f64, u32)> =
            model.iter().map(|(&id, &tick)| (tick, id)).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(drained, expected);
        prop_assert!(q.is_empty());
        prop_assert_eq!(q.pop(), None);
    }

    /// The timing-wheel mode (large component counts skip the linear
    /// small mode entirely) agrees with the same naive model: bucket
    /// redistribution, the overflow rung and lazy stale entries never
    /// lose, duplicate or reorder a wake-up. Wide tick ranges force
    /// traffic through every rung; negative ticks and signed zeros
    /// exercise the packed-key fold.
    #[test]
    fn wheel_mode_calendar_agrees_with_the_naive_model(
        seed in 0u64..1 << 48,
        n_ops in 1usize..500,
    ) {
        let mut rng = ServeRng::new(seed);
        // 64 components start directly in wheel mode.
        let mut q = CalendarQueue::with_components(64);
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        for _ in 0..n_ops {
            let id = (rng.next_u64() % 96) as u32;
            match rng.next_u64() % 5 {
                0 | 1 => {
                    let tick = match rng.next_u64() % 8 {
                        0 => f64::INFINITY,
                        1 => -((rng.next_u64() % 64) as f64) / 4.0,
                        2 => -0.0,
                        // Wide spread: hits high rungs and forces
                        // redistribution as the cursor advances.
                        3 => (rng.next_u64() % (1 << 40)) as f64,
                        _ => (rng.next_u64() % 4096) as f64 / 16.0,
                    };
                    q.schedule(id, tick);
                    if tick.is_finite() {
                        model.insert(id, tick);
                    } else {
                        model.remove(&id);
                    }
                }
                2 => {
                    q.cancel(id);
                    model.remove(&id);
                }
                3 => {
                    let got = q.pop();
                    let want = model_min(&model);
                    prop_assert_eq!(got, want, "wheel pop disagrees with model");
                    if let Some((_, id)) = want {
                        model.remove(&id);
                    }
                }
                _ => {
                    prop_assert_eq!(q.peek(), model_min(&model), "wheel peek disagrees");
                }
            }
            prop_assert_eq!(q.len(), model.len(), "wheel live count drifted");
        }
        let mut drained = Vec::new();
        while let Some(e) = q.pop() {
            drained.push(e);
        }
        let mut expected: Vec<(f64, u32)> =
            model.iter().map(|(&id, &tick)| (tick, id)).collect();
        expected.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        prop_assert_eq!(drained, expected);
        prop_assert!(q.is_empty());
    }

    /// A calendar that starts in small mode and is pushed past the
    /// small-mode population cap promotes to the wheel mid-stream; the
    /// promotion must be invisible to the model — same pops, same
    /// peeks, same live set, before and after.
    #[test]
    fn promotion_mid_stream_is_invisible_to_the_model(
        seed in 0u64..1 << 48,
        n_ops in 1usize..300,
    ) {
        let mut rng = ServeRng::new(seed);
        // Starts small (8 <= the small cap)...
        let mut q = CalendarQueue::with_components(8);
        let mut model: BTreeMap<u32, f64> = BTreeMap::new();
        // ...then 48 distinct live ids force a promotion.
        for id in 0..48u32 {
            let tick = (rng.next_u64() % 2048) as f64 / 8.0;
            q.schedule(id, tick);
            model.insert(id, tick);
            prop_assert_eq!(q.peek(), model_min(&model), "peek drifted during growth");
        }
        for _ in 0..n_ops {
            let id = (rng.next_u64() % 64) as u32;
            match rng.next_u64() % 4 {
                0 | 1 => {
                    let tick = (rng.next_u64() % 4096) as f64 / 8.0;
                    q.schedule(id, tick);
                    model.insert(id, tick);
                }
                2 => {
                    q.cancel(id);
                    model.remove(&id);
                }
                _ => {
                    let got = q.pop();
                    let want = model_min(&model);
                    prop_assert_eq!(got, want, "post-promotion pop disagrees");
                    if let Some((_, id)) = want {
                        model.remove(&id);
                    }
                }
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some(got) = q.pop() {
            let want = model_min(&model).expect("model has an entry for every pop");
            prop_assert_eq!(got, want);
            model.remove(&want.1);
        }
        prop_assert!(model.is_empty(), "wake-ups lost across promotion");
    }

    /// The lazy heap stays within the compaction bound no matter how
    /// adversarial the reschedule pattern is.
    #[test]
    fn calendar_heap_is_bounded_by_live_entries(seed in 0u64..1 << 48) {
        let mut rng = ServeRng::new(seed);
        let mut q = CalendarQueue::new();
        let mut live_cap = 0usize;
        for _ in 0..5000 {
            let id = (rng.next_u64() % 12) as u32;
            q.schedule(id, (rng.next_u64() % 1_000_000) as f64);
            live_cap = live_cap.max(q.len());
        }
        // Compaction triggers above max(64, 2 * live); one uncompacted
        // push can sit on top.
        prop_assert!(
            q.heap_entries() <= (2 * live_cap).max(64) + 1,
            "heap holds {} entries for {} live ids",
            q.heap_entries(),
            live_cap
        );
    }
}

/// Steps a run until its batch has turned over — at least one request
/// completed while at least two stay resident — then freezes it.
/// Panics if the workload never reaches that shape.
fn freeze_after_turnover(wl: &Workload, cfg: &ServeConfig) -> (ServeRun, Vec<u8>) {
    let mut run = ServeRun::new(wl, cfg);
    let mut cost = AnalyticCostModel::small();
    loop {
        assert!(
            run.step(&mut cost, &mut PriorityAging::new(0.02)),
            "run finished before reaching a turned-over mid-run state"
        );
        let stats = run.stats();
        if stats.completed >= 1 && stats.active >= 2 {
            let bytes = run.snapshot();
            return (run, bytes);
        }
    }
}

/// Mid-run freeze of a batch that has turned over (completions behind
/// it, several requests resident): the thawed run must re-freeze to
/// the same bytes and finish bit-identically to the uninterrupted
/// original.
#[test]
fn fragmented_mid_run_snapshot_resumes_bit_identically() {
    // Long prompts make prefill (~4 ms) span several decode steps
    // (~1.4 ms), so freshly admitted slots are still prefilling while
    // earlier ones decode; varied output lengths stagger completions
    // so the batch turns over while others stay resident.
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_after_turnover(&wl, &cfg);
    let mut resumed = ServeRun::resume(&wl, &bytes).expect("snapshot thaws");
    // Closure: freezing the thawed state reproduces the bytes exactly
    // — the batch and the rebuilt counters lose nothing in the round
    // trip.
    assert_eq!(resumed.snapshot(), bytes, "re-freeze must be bit-identical");
    let mut cost_a = AnalyticCostModel::small();
    let mut cost_b = AnalyticCostModel::small();
    let mut pol_a = PriorityAging::new(0.02);
    let mut pol_b = PriorityAging::new(0.02);
    while original.step(&mut cost_a, &mut pol_a) {}
    while resumed.step(&mut cost_b, &mut pol_b) {}
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
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_after_turnover(&wl, &cfg);
    let mut resumed = ServeRun::resume(&wl, &bytes).expect("snapshot thaws");
    let kv = AnalyticCostModel::small().kv_capacity_tokens;
    assert_eq!(
        resumed.telemetry(kv),
        original.telemetry(kv),
        "thawed telemetry differs at the freeze point"
    );
    let mut cost_a = AnalyticCostModel::small();
    let mut cost_b = AnalyticCostModel::small();
    let mut pol_a = PriorityAging::new(0.02);
    let mut pol_b = PriorityAging::new(0.02);
    loop {
        assert_eq!(
            resumed.telemetry(kv),
            original.telemetry(kv),
            "telemetry drifts after event {}",
            original.events()
        );
        let more = original.step(&mut cost_a, &mut pol_a);
        if !resumed.step(&mut cost_b, &mut pol_b) {
            assert!(!more, "runs finish at different event counts");
            break;
        }
        assert!(more, "runs finish at different event counts");
    }
    assert_eq!(original.into_report(), resumed.into_report());
}

/// The fleet variant: freeze with replicas mid-prefill, thaw into a
/// fresh fleet + router, and demand byte-identical re-freeze plus a
/// bit-identical finish. The fleet's wake calendar is *not*
/// serialized — this is the test that rebuilding it on resume is
/// lossless.
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
