//! Event-core throughput: the calendar-queue fleet driver on a
//! 100k-request, 128-replica workload.
//!
//! This bench is the measured half of the event-core story. The scan
//! reference it was originally measured against is retired (the
//! differential battery in `crates/serve/tests/event_core_diff.rs`
//! now closes the core under its own snapshot/replay mechanisms, and
//! the scan-era cross-checks survive as `debug_assert`s inside the
//! core); what remains load-bearing is the absolute trajectory. The
//! headline numbers — events/sec, ns/event, the largest batch any
//! replica held (kept under its historical key `peak_slab_occupancy`)
//! — are recorded into `BENCH_event_core.json` at the workspace root via
//! [`rpu_bench::perf::record_or_gate`]:
//!
//! - `BENCH_BLESS=1 cargo bench --bench event_core` re-records the
//!   committed baseline;
//! - a plain run gates against it, failing on a >25% events/sec
//!   regression (ratio < 0.75).

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::perf::{record_or_gate, PerfSnapshot};
use rpu_serve::{
    AnalyticCostModel, CostModel, Fifo, Fleet, FleetBuilder, FleetReport, RoundRobin,
    SchedulingPolicy, ServeConfig, Workload,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Replica count for the headline measurement. Wide fleets are the
/// regime the calendar migration targeted: per-event cost must stay
/// logarithmic in the fleet width (the `fleet_scale` bench pushes the
/// width itself to 1000).
const REPLICAS: usize = 128;
const NUM_REQUESTS: u32 = 100_000;

fn workload() -> Workload {
    // ~95% utilization across 128 replicas: queues run deep, so the
    // telemetry cache and calendar wake-ups work over a real backlog.
    Workload::poisson(52_000.0, 256, 16, NUM_REQUESTS)
}

fn config() -> ServeConfig {
    ServeConfig {
        max_batch: 8,
        ..ServeConfig::default()
    }
}

fn mk_fleet(replicas: usize) -> Fleet {
    FleetBuilder::new()
        .group(
            replicas,
            &config(),
            || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>,
            || Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        )
        .build()
}

/// Runs the calendar-queue driver to completion, returning the report,
/// the number of discrete events processed and the wall time.
fn run_calendar(wl: &Workload, replicas: usize) -> (FleetReport, u64, Duration) {
    let mut fleet = mk_fleet(replicas);
    let mut router = RoundRobin::new();
    let start = Instant::now();
    let mut run = fleet.start(wl);
    let mut events = 0u64;
    while run.step(&mut fleet, &mut router) {
        events += 1;
    }
    let elapsed = start.elapsed();
    (run.into_report(), events, elapsed)
}

/// The headline measurement: one full 100k-request run, repeated
/// best-of-3, then recorded or gated against the committed
/// `BENCH_event_core.json`.
fn headline(c: &mut Criterion) {
    let wl = workload();

    // Warm the allocator and caches with a short run before timing.
    let small = Workload::poisson(20_000.0, 256, 16, 2_000);
    let _ = run_calendar(&small, REPLICAS);

    // Best-of-3: the run is deterministic, so the minimum wall time is
    // the least-interference measurement — the right statistic to gate
    // on a shared machine.
    let (fast, events, mut fast_t) = run_calendar(&wl, REPLICAS);
    for _ in 0..2 {
        let (again, e, t) = run_calendar(&wl, REPLICAS);
        assert_eq!((e, &again), (events, &fast), "nondeterministic run");
        fast_t = fast_t.min(t);
    }
    let peak = fast.aggregate.peak_batch;

    let events_per_sec = events as f64 / fast_t.as_secs_f64();
    let ns_per_event = fast_t.as_nanos() as f64 / events as f64;
    println!(
        "event_core: {events} events in {:.3} s ({events_per_sec:.0} events/s, \
         {ns_per_event:.0} ns/event), peak batch {peak}",
        fast_t.as_secs_f64(),
    );

    let mut snap = PerfSnapshot::new();
    snap.put("events_per_sec", events_per_sec.round());
    snap.put("ns_per_event", ns_per_event.round());
    snap.put("peak_slab_occupancy", f64::from(peak));
    snap.put("fleet_events", events as f64);
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_event_core.json");
    record_or_gate(&path, &snap, "events_per_sec", 0.75);

    // A repeatable criterion sample on a smaller slice of the same
    // workload, so `cargo bench` trend lines have a stable target.
    let sampled = Workload::poisson(20_000.0, 256, 16, 5_000);
    let mut g = c.benchmark_group("event_core");
    g.sample_size(10);
    g.bench_function("calendar_fleet_5k", |b| {
        b.iter(|| run_calendar(&sampled, 8))
    });
    g.finish();
}

criterion_group!(benches, headline);
criterion_main!(benches);
