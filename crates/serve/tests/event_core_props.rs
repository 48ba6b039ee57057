//! Property suite for the event core's two storage primitives — the
//! [`CalendarQueue`] and the [`Slab`] — plus snapshot closure over the
//! new core layout.
//!
//! The calendar is checked against a naive model (a map of live
//! wake-ups) under random interleavings of schedule / reschedule /
//! cancel / pop / peek: no wake-up is ever lost or duplicated, pops
//! surface in `(tick, id)` order with FIFO-by-id tie-breaks, and the
//! heap never grows past the compaction bound. The slab is checked
//! against a map model: keys are never aliased while live, lookups and
//! removals always agree, and the raw layout round-trips through
//! serialization preserving free-list reuse order.

use proptest::prelude::*;
use rpu_serve::{
    AnalyticCostModel, CalendarQueue, Fifo, FleetBuilder, FleetRun, PriorityAging, ServeConfig,
    ServeRng, ServeRun, SessionAffinity, Slab, Workload,
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

    /// Slab keys behave like map keys: never aliased while live,
    /// lookups always agree, reuse only after removal.
    #[test]
    fn slab_agrees_with_the_naive_model(seed in 0u64..1 << 48, n_ops in 1usize..400) {
        let mut rng = ServeRng::new(seed);
        let mut slab: Slab<u64> = Slab::new();
        let mut model: BTreeMap<u32, u64> = BTreeMap::new();
        let mut peak = 0u32;
        for op in 0..n_ops {
            if rng.next_u64().is_multiple_of(2) {
                let value = rng.next_u64();
                let key = slab.insert(value);
                prop_assert!(
                    !model.contains_key(&key),
                    "op {op}: key {key} aliased while live"
                );
                model.insert(key, value);
            } else {
                let key = (rng.next_u64() % 16) as u32;
                prop_assert_eq!(slab.remove(key), model.remove(&key));
            }
            peak = peak.max(model.len() as u32);
            prop_assert_eq!(slab.len(), model.len());
            prop_assert_eq!(slab.peak_occupancy(), peak);
            for (&key, &value) in &model {
                prop_assert_eq!(slab.get(key), Some(&value));
                prop_assert!(slab.contains(key));
            }
            let live: Vec<(u32, u64)> = slab.iter().map(|(k, v)| (k, *v)).collect();
            let want: Vec<(u32, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
            prop_assert_eq!(live, want, "iteration order must be ascending keys");
        }
    }

    /// The raw layout — free chain included — survives serialization:
    /// a reloaded slab re-serializes to identical words and hands out
    /// identical keys for identical insert sequences.
    #[test]
    fn slab_layout_roundtrips_preserving_reuse_order(seed in 0u64..1 << 48) {
        let mut rng = ServeRng::new(seed);
        let mut slab: Slab<u64> = Slab::new();
        for _ in 0..120 {
            if rng.next_u64().is_multiple_of(2) {
                slab.insert(rng.next_u64());
            } else {
                slab.remove((rng.next_u64() % 16) as u32);
            }
        }
        let save = |s: &Slab<u64>| {
            let mut words: Vec<u64> = Vec::new();
            s.save(
                &mut words,
                |w, x| w.push(u64::from(x)),
                |w, v| w.push(*v),
            );
            words
        };
        let words = save(&slab);
        let mut cursor = (words.clone(), 0usize);
        let mut reloaded: Slab<u64> = Slab::load(
            &mut cursor,
            |c| {
                let w = c.0.get(c.1).copied().ok_or("eof")?;
                c.1 += 1;
                u32::try_from(w).map_err(|_| "overflow")
            },
            |c| {
                let w = c.0.get(c.1).copied().ok_or("eof")?;
                c.1 += 1;
                Ok(w)
            },
            |_| "corrupt",
        )
        .expect("pristine layout thaws");
        prop_assert_eq!(cursor.1, words.len(), "loader consumed every word");
        prop_assert_eq!(&save(&reloaded), &words, "reload must re-serialize identically");
        // Key reuse order is part of the layout: identical inserts on
        // the original and the reload must yield identical keys.
        for _ in 0..40 {
            prop_assert_eq!(slab.insert(7), reloaded.insert(7));
        }
    }
}

/// Fleet-scale occupancy: thousands of resident requests force the
/// slab's cell vector to grow repeatedly, and key discipline must hold
/// through churn — a key handed out while another request lives under
/// it would corrupt two requests' state at once.
#[test]
fn slab_keys_never_alias_at_fleet_scale_occupancy() {
    let mut slab: Slab<u32> = Slab::new();
    let mut live: BTreeMap<u32, u32> = BTreeMap::new();
    let mut rng = ServeRng::new(0xF1EE7);
    for v in 0..6000u32 {
        let k = slab.insert(v);
        assert!(live.insert(k, v).is_none(), "key {k} aliased while live");
    }
    assert_eq!(slab.peak_occupancy(), 6000);
    for round in 1..=3u32 {
        // Free roughly half at random, then refill: every handed-out
        // key must be vacant in the model, and every survivor must
        // still read back its own value.
        let keys: Vec<u32> = live.keys().copied().collect();
        for &k in &keys {
            if rng.next_u64().is_multiple_of(2) {
                assert_eq!(slab.remove(k), live.remove(&k));
            }
        }
        for v in 0..1000u32 {
            let value = round * 10_000 + v;
            let k = slab.insert(value);
            assert!(
                live.insert(k, value).is_none(),
                "key {k} aliased while live"
            );
        }
        for (&k, &v) in &live {
            assert_eq!(slab.get(k), Some(&v));
        }
    }
    // Churn reused freed cells instead of growing the slab.
    assert_eq!(slab.capacity(), 6000, "reuse must not grow the slab");
}

/// The raw-layout round trip at 1000-replica occupancy: thousands of
/// cells, a long fragmented free chain,
/// and the reload must re-serialize identically and hand out identical
/// keys — reuse order is part of the layout contract at every scale.
#[test]
fn slab_layout_roundtrips_at_fleet_scale_occupancy() {
    let mut slab: Slab<u64> = Slab::new();
    let keys: Vec<u32> = (0..4096u64).map(|v| slab.insert(v)).collect();
    for &k in keys.iter().rev().step_by(3) {
        slab.remove(k);
    }
    let save = |s: &Slab<u64>| {
        let mut words: Vec<u64> = Vec::new();
        s.save(&mut words, |w, x| w.push(u64::from(x)), |w, v| w.push(*v));
        words
    };
    let words = save(&slab);
    let mut cursor = (words.clone(), 0usize);
    let mut reloaded: Slab<u64> = Slab::load(
        &mut cursor,
        |c| {
            let w = c.0.get(c.1).copied().ok_or("eof")?;
            c.1 += 1;
            u32::try_from(w).map_err(|_| "overflow")
        },
        |c| {
            let w = c.0.get(c.1).copied().ok_or("eof")?;
            c.1 += 1;
            Ok(w)
        },
        |_| "corrupt",
    )
    .expect("pristine layout thaws");
    assert_eq!(cursor.1, words.len(), "loader consumed every word");
    assert_eq!(
        save(&reloaded),
        words,
        "reload must re-serialize identically"
    );
    assert_eq!(reloaded.peak_occupancy(), 4096);
    // Reuse order: ~1366 freed cells, then fresh growth — identical on
    // both sides.
    for v in 0..1500u64 {
        assert_eq!(slab.insert(v), reloaded.insert(v));
    }
}

/// Steps a run until its core holds a non-empty wake-up heap *and* a
/// fragmented slab (free holes below live cells), then freezes it.
/// Panics if the workload never reaches that shape.
fn freeze_fragmented(wl: &Workload, cfg: &ServeConfig) -> (ServeRun, Vec<u8>) {
    let mut run = ServeRun::new(wl, cfg);
    let mut cost = AnalyticCostModel::small();
    loop {
        assert!(
            run.step(&mut cost, &mut PriorityAging::new(0.02)),
            "run finished before reaching a fragmented mid-run state"
        );
        let stats = run.stats();
        let fragmented = run.peak_slab_occupancy() > stats.active && stats.active >= 1;
        if fragmented && run.pending_wakeups() > 0 {
            let bytes = run.snapshot();
            return (run, bytes);
        }
    }
}

/// Mid-run freeze with a non-empty event heap and a fragmented slab:
/// the thawed run must re-freeze to the same bytes and finish
/// bit-identically to the uninterrupted original.
#[test]
fn fragmented_mid_run_snapshot_resumes_bit_identically() {
    // Long prompts make prefill (~4 ms) span several decode steps
    // (~1.4 ms), so freshly admitted slots hold future wake-ups while
    // earlier ones decode; varied output lengths stagger completions
    // so the slab fragments while a prefill is pending.
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_fragmented(&wl, &cfg);
    let mut resumed = ServeRun::resume(&wl, &bytes).expect("snapshot thaws");
    // Closure: freezing the thawed state reproduces the bytes exactly
    // — the slab's raw layout (free chain, peak) and the rebuilt
    // calendar lose nothing in the round trip.
    assert_eq!(resumed.snapshot(), bytes, "re-freeze must be bit-identical");
    let mut cost_a = AnalyticCostModel::small();
    let mut cost_b = AnalyticCostModel::small();
    let mut pol_a = PriorityAging::new(0.02);
    let mut pol_b = PriorityAging::new(0.02);
    while original.step(&mut cost_a, &mut pol_a) {}
    while resumed.step(&mut cost_b, &mut pol_b) {}
    assert_eq!(original.into_report(), resumed.into_report());
}

/// Restoring a run whose slab holds freed-then-reused cells must not
/// resurrect stale telemetry: the thawed core's published counters
/// (in-flight tokens, committed KV) must equal the frozen original's
/// exactly — a freed slot's tokens leaking back in would misroute
/// every subsequent arrival. The continuation runs under debug
/// cross-checks (incremental counters vs recomputation by scan), so
/// drift introduced later in the run is caught too.
#[test]
fn thawed_arena_reuse_does_not_resurrect_stale_telemetry() {
    let mut wl = Workload::poisson(2000.0, 2000, 8, 64);
    wl.output_lens = rpu_models::LengthDistribution::Uniform { lo: 2, hi: 16 };
    let cfg = ServeConfig {
        max_batch: 4,
        ..ServeConfig::default()
    };
    let (mut original, bytes) = freeze_fragmented(&wl, &cfg);
    let stats = original.stats();
    assert!(
        original.peak_slab_occupancy() > stats.active,
        "freeze point must hold freed-then-reusable slots"
    );
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
