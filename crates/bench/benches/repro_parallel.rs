//! Engine-speedup bench: the fleet_sweep grid (the heaviest repro
//! target) at `jobs` = 1/2/4/8, plus the raw `par_map` overhead on a
//! trivial grid.
//!
//! Every run builds a fresh shared cost model, so each iteration pays
//! the full simulator cost once per distinct decode step — the work the
//! engine actually parallelises. On a single-core host the four job
//! counts land within noise of each other (the differential suite
//! separately guarantees they emit identical bytes); on a multi-core
//! host the wall-clock ratio `jobs1 / jobsN` is the engine's speedup on
//! a real sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::checks::expect_band;
use rpu_bench::perf::{record_or_gate, PerfSnapshot};
use rpu_core::engine::{grid, Engine};
use rpu_core::experiments::fleet_sweep;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    // Determinism gate before timing anything: every job count renders
    // the same bytes.
    let reference = fleet_sweep::run_with(&Engine::sequential())
        .table()
        .to_string();
    for jobs in [2usize, 4, 8] {
        let t = fleet_sweep::run_with(&Engine::new(jobs))
            .table()
            .to_string();
        assert_eq!(reference, t, "jobs = {jobs} diverged from sequential");
    }
    expect_band(
        "fleet sweep renders its capacity table",
        fleet_sweep::run().table().len() as f64,
        fleet_sweep::RATE_SWEEP.len() as f64,
        fleet_sweep::RATE_SWEEP.len() as f64,
    );

    let mut g = c.benchmark_group("repro_parallel");
    g.sample_size(10);
    for jobs in [1usize, 2, 4, 8] {
        g.bench_function(&format!("fleet_sweep_jobs{jobs}"), |b| {
            let engine = Engine::new(jobs);
            b.iter(|| fleet_sweep::run_with(black_box(&engine)));
        });
    }
    // The engine's own dispatch overhead, isolated from the simulator:
    // a 4096-point trivial grid.
    for jobs in [1usize, 8] {
        g.bench_function(&format!("par_map_overhead_jobs{jobs}"), |b| {
            let engine = Engine::new(jobs);
            let points = grid(
                &(0u64..64).collect::<Vec<_>>(),
                &(0u64..64).collect::<Vec<_>>(),
            );
            b.iter(|| engine.par_map(black_box(&points), |i, &(x, y)| x * y + i as u64));
        });
    }
    g.finish();

    // Record the engine trajectory into BENCH_repro_parallel.json,
    // gated on the sequential sweep *rate* (sweeps/sec — a
    // higher-is-better metric the >25% rule can bite on): a
    // ratio < 0.75 regression fails the bench-trajectory CI leg. The
    // jobs-8 speedup stays informational — it depends on the runner's
    // core count — and moves via deliberate BENCH_BLESS re-blesses.
    // Each rate is the fastest of `PASSES` sweeps: one ~44 ms pass
    // reads host noise, and the sweep is deterministic, so the minimum
    // is the least-interference time.
    let seq_s = fastest_of(|| fleet_sweep::run_with(&Engine::new(1)));
    let par_s = fastest_of(|| fleet_sweep::run_with(&Engine::new(8)));
    let mut snap = PerfSnapshot::new();
    snap.put("fleet_sweep_per_sec", (1.0 / seq_s * 1e3).round() / 1e3);
    snap.put("fleet_sweep_jobs1_ms", (seq_s * 1e3).round());
    snap.put("fleet_sweep_jobs8_ms", (par_s * 1e3).round());
    snap.put(
        "engine_speedup_jobs8",
        (seq_s / par_s * 100.0).round() / 100.0,
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_repro_parallel.json");
    record_or_gate(&path, &snap, "fleet_sweep_per_sec", 0.75);
}

/// Timed passes per recorded sweep rate.
const PASSES: u32 = 5;

/// The fastest of [`PASSES`] timed calls of `f`, in seconds.
fn fastest_of<T>(mut f: impl FnMut() -> T) -> f64 {
    (0..PASSES)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

criterion_group!(benches, bench);
criterion_main!(benches);
