//! Engine-speedup bench: the fleet_sweep grid (the heaviest repro
//! target) at `jobs` = 1/2/4/8, plus the raw `par_map` overhead on a
//! trivial grid.
//!
//! Every run builds a fresh shared cost model, so each iteration pays
//! the full simulator cost once per distinct decode step — the work the
//! engine actually parallelises. On a single-core host the four job
//! counts land within noise of each other; on a multi-core host the
//! wall-clock ratio `jobs1 / jobsN` is the engine's speedup on a real
//! sweep. The bench prints its timings and gates none of them; that
//! every job count renders identical bytes is checked by
//! `tests/repro_differential.rs`.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::checks::expect_band;
use rpu_core::engine::{grid, Engine};
use rpu_core::experiments::fleet_sweep;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
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
}

criterion_group!(benches, bench);
criterion_main!(benches);
