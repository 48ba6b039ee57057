//! Sustained autoscaled serving: the elastic fleet held for 200k
//! requests of diurnal load.
//!
//! The `autoscale` registry target scores the autoscaler against
//! static fleets at a test-cheap request count; this bench is its
//! timed counterpart — best-of-three passes of the same elastic fleet
//! shape and controller ([`autoscale::scaler_config`]) over a long
//! diurnal tape, with the headline numbers recorded into
//! `BENCH_autoscale.json` at the workspace root via
//! [`rpu_bench::perf::record_or_gate`]:
//!
//! - `BENCH_BLESS=1 cargo bench --bench autoscale` re-records the
//!   committed baseline;
//! - a plain run gates against it, failing on a >25% requests/sec
//!   regression (ratio < 0.75) — the lifecycle machinery (routable
//!   masks, telemetry refresh, control boundaries) must stay off the
//!   serving hot path;
//! - the bench also asserts flatness, as `router_scale` does across
//!   widths: µs/request at 200k requests must stay within 1.5× of the
//!   value at 25k requests of the same tape. A control loop whose
//!   windowed reads rescan every completed record is quadratic in run
//!   length and fails this.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::perf::{record_or_gate, PerfSnapshot};
use rpu_core::experiments::autoscale::{self, Condition};
use rpu_serve::{
    digest_fleet_report, run_autoscaled, Autoscaler, JoinShortestQueue, ReportDigest, Workload,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// The sustained run: the registry workload's diurnal arrival process
/// held for many compressed days.
const NUM_REQUESTS: u32 = 200_000;

/// The short run the sustained one's per-request cost is held against.
const SHORT_REQUESTS: u32 = 25_000;

/// Largest allowed growth of µs/request from the short run to the
/// sustained one.
const MAX_GROWTH: f64 = 1.5;

fn sustained_workload(num_requests: u32) -> Workload {
    Workload {
        num_requests,
        ..autoscale::diurnal_workload()
    }
}

/// Best-of-`passes` wall time over full autoscaled passes of `wl`,
/// with the controller's joins and drains; every pass must reproduce
/// the first pass's digest and decisions bit for bit.
fn best_of(wl: &Workload, passes: u32) -> (u32, u32, Duration) {
    let (digest, joins, drains, mut elapsed) = run_timed(wl);
    for _ in 1..passes {
        let (d, j, dr, el) = run_timed(wl);
        assert_eq!(d, digest, "autoscaled run must be deterministic");
        assert_eq!((j, dr), (joins, drains), "controller decisions drifted");
        elapsed = elapsed.min(el);
    }
    (joins, drains, elapsed)
}

/// One full autoscaled pass, timing the serving loop plus the control
/// loop riding it (both are the product under test).
fn run_timed(wl: &Workload) -> (ReportDigest, u32, u32, Duration) {
    let mut fleet = Condition::Autoscaled.fleet();
    let mut router = JoinShortestQueue;
    let mut scaler = Autoscaler::new(autoscale::scaler_config());
    let start = Instant::now();
    let report = run_autoscaled(&mut fleet, wl, &mut router, &mut scaler);
    let elapsed = start.elapsed();
    assert_eq!(
        report.aggregate.records.len() as u32 + report.aggregate.rejected,
        wl.num_requests,
        "sustained run lost requests"
    );
    (
        digest_fleet_report(&report),
        report.lifecycle.joins,
        report.lifecycle.drains,
        elapsed,
    )
}

fn headline(c: &mut Criterion) {
    // Warm up on the registry-sized workload.
    let _ = run_timed(&autoscale::diurnal_workload());

    // Best of three full passes; the digests pin that the controller's
    // decisions are bit-identical pass to pass.
    let (joins, drains, elapsed) = best_of(&sustained_workload(NUM_REQUESTS), 3);
    assert!(joins >= 1, "sustained diurnal load never triggered a join");
    let requests_per_sec = f64::from(NUM_REQUESTS) / elapsed.as_secs_f64();
    let us_per_request = elapsed.as_micros() as f64 / f64::from(NUM_REQUESTS);
    println!(
        "autoscale: {NUM_REQUESTS} requests in {:.3} s ({requests_per_sec:.0} req/s, \
         {us_per_request:.2} us/req), {joins} joins, {drains} drains",
        elapsed.as_secs_f64(),
    );

    // Flatness: the same tape cut short must cost about as much per
    // request as the sustained run.
    let (_, _, short) = best_of(&sustained_workload(SHORT_REQUESTS), 3);
    let short_us = short.as_micros() as f64 / f64::from(SHORT_REQUESTS);
    let growth = us_per_request / short_us;
    println!(
        "autoscale: {SHORT_REQUESTS} requests at {short_us:.2} us/req; \
         {NUM_REQUESTS} requests cost {growth:.2}x that per request"
    );
    assert!(
        growth <= MAX_GROWTH,
        "us/request grows {growth:.2}x from {SHORT_REQUESTS} to {NUM_REQUESTS} requests \
         (limit {MAX_GROWTH}x) — per-request cost is growing with run length"
    );

    let mut snap = PerfSnapshot::new();
    snap.put("requests_per_sec", requests_per_sec.round());
    snap.put("us_per_request", (us_per_request * 100.0).round() / 100.0);
    snap.put("joins", f64::from(joins));
    snap.put("drains", f64::from(drains));
    snap.put("requests", f64::from(NUM_REQUESTS));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_autoscale.json");
    record_or_gate(&path, &snap, "requests_per_sec", 0.75);

    // A repeatable criterion sample on the registry-sized condition,
    // so `cargo bench` trend lines have a stable target.
    let mut g = c.benchmark_group("autoscale");
    g.sample_size(10);
    g.bench_function("autoscaled_registry_point", |b| {
        b.iter(|| autoscale::run_point(Condition::Autoscaled))
    });
    g.finish();
}

criterion_group!(benches, headline);
criterion_main!(benches);
