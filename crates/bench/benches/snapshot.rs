//! Snapshot layer overhead: what freezing, thawing and digesting a
//! mid-flight serving run costs.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::perf::{record_or_gate, PerfSnapshot};
use rpu_serve::{
    AnalyticCostModel, Fifo, FleetBuilder, FleetRun, PriorityAging, RoundRobin, Router,
    ServeConfig, SessionAffinity, Workload,
};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

fn bench(c: &mut Criterion) {
    let cfg = ServeConfig::default();

    // A single machine (a one-replica fleet, as `serve_with` runs it)
    // frozen mid-flight: a deep queue, a full batch and a long
    // completed-record history — the expensive snapshot shape.
    let wl = Workload::poisson(1500.0, 512, 48, 256);
    let mut serving = FleetBuilder::new()
        .group(
            1,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .build();
    let mut serve_router = RoundRobin::new();
    let mut run = serving.start(&wl);
    for _ in 0..1500 {
        if !run.step(&mut serving, &mut serve_router) {
            break;
        }
    }
    let thaw = |bytes: &[u8]| {
        FleetRun::resume(&wl, &serving, &mut RoundRobin::new(), bytes).expect("pristine bytes")
    };
    c.bench_function("snapshot_serve_freeze", |b| {
        b.iter(|| black_box(run.snapshot(&serve_router)));
    });
    let bytes = run.snapshot(&serve_router);
    c.bench_function("snapshot_serve_thaw", |b| {
        b.iter(|| thaw(black_box(&bytes)));
    });
    c.bench_function("snapshot_serve_state_digest", |b| {
        b.iter(|| black_box(run.state_digest(&serve_router)));
    });

    // Fleet snapshot including router state.
    let mut fleet = FleetBuilder::new()
        .group(
            4,
            &cfg,
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.25)),
        )
        .build();
    let mut router = SessionAffinity::new();
    let mut fleet_run = fleet.start(&wl);
    for _ in 0..1500 {
        if !fleet_run.step(&mut fleet, &mut router) {
            break;
        }
    }
    c.bench_function("snapshot_fleet_freeze", |b| {
        b.iter(|| black_box(fleet_run.snapshot(&router)));
    });
    let fleet_bytes = fleet_run.snapshot(&router);
    c.bench_function("snapshot_fleet_thaw", |b| {
        b.iter(|| {
            let mut thaw_router: Box<dyn Router> = Box::new(SessionAffinity::new());
            FleetRun::resume(
                black_box(&wl),
                black_box(&fleet),
                thaw_router.as_mut(),
                black_box(&fleet_bytes),
            )
            .expect("pristine bytes")
        });
    });

    // Record the freeze/thaw trajectory into BENCH_snapshot.json,
    // gated: a >25% regression in freeze throughput (ratio < 0.75)
    // fails the bench-trajectory CI leg. 200 iterations amortise the
    // shared-runner noise the old informational gate was hedging
    // against; re-bless deliberate movement with BENCH_BLESS=1.
    let iters = 200u32;
    let t = Instant::now();
    for _ in 0..iters {
        black_box(run.snapshot(&serve_router));
    }
    let freeze_per_sec = f64::from(iters) / t.elapsed().as_secs_f64();
    let t = Instant::now();
    for _ in 0..iters {
        black_box(thaw(&bytes));
    }
    let thaw_per_sec = f64::from(iters) / t.elapsed().as_secs_f64();
    let mut snap = PerfSnapshot::new();
    snap.put("serve_freeze_per_sec", freeze_per_sec.round());
    snap.put("serve_thaw_per_sec", thaw_per_sec.round());
    snap.put("serve_snapshot_bytes", bytes.len() as f64);
    snap.put("fleet_snapshot_bytes", fleet_bytes.len() as f64);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_snapshot.json");
    record_or_gate(&path, &snap, "serve_freeze_per_sec", 0.75);
}

criterion_group!(benches, bench);
criterion_main!(benches);
