//! Serving bench: continuous-batching scheduler throughput and the
//! simulator-backed load sweep.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::checks::expect_band;
use rpu_core::experiments::serving_sweep;
use rpu_core::serving::RpuCostModel;
use rpu_core::RpuSystem;
use rpu_models::{ModelConfig, Precision};
use rpu_serve::{serve, AnalyticCostModel, ServeConfig, SloReport, SloTargets, Workload};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    // Headline shape: at the lightest rung of the sweep most requests
    // meet the interactive SLO; past saturation goodput rolls over.
    let s = serving_sweep::run();
    expect_band(
        "light-load SLO attainment",
        s.points[0].slo.slo_attainment,
        0.9,
        1.0,
    );
    let peak = s
        .points
        .iter()
        .map(|p| p.slo.goodput_rps)
        .fold(0.0, f64::max);
    expect_band(
        "goodput rollover past saturation",
        s.points.last().expect("non-empty sweep").slo.goodput_rps / peak,
        0.0,
        0.999,
    );

    // Pure scheduler throughput: analytic cost model, no simulator.
    c.bench_function("serving_scheduler_analytic", |b| {
        let wl = Workload::poisson(400.0, 512, 64, 128);
        let cfg = ServeConfig::default();
        b.iter(|| {
            let mut cost = AnalyticCostModel::small();
            let r = serve(black_box(&wl), &mut cost, &cfg);
            SloReport::new(&r, &SloTargets::interactive())
        });
    });

    // One simulator-backed load point, including the memoised
    // decode-step simulations.
    c.bench_function("serving_rpu_load_point", |b| {
        let model = ModelConfig::llama3_8b();
        let cfg = ServeConfig {
            max_batch: serving_sweep::MAX_BATCH,
            ..ServeConfig::default()
        };
        let sys = RpuSystem::with_optimal_memory(
            &model,
            Precision::mxfp4_inference(),
            serving_sweep::MAX_BATCH,
            cfg.bucket(serving_sweep::PROMPT_LEN + serving_sweep::OUTPUT_LEN),
            serving_sweep::NUM_CUS,
        )
        .expect("8B deploys");
        let wl = serving_sweep::workload(240.0);
        b.iter(|| {
            let mut cost = RpuCostModel::new(sys, model, &cfg);
            black_box(serve(&wl, &mut cost, &cfg))
        });
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
