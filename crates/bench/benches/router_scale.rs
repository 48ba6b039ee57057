//! Route-decision cost across fleet widths: the `O(log R)` pin.
//!
//! Before the routing index, an informed router (join-shortest-queue,
//! least-KV-load) paid an `O(replicas)` telemetry scan on every route
//! call — at 1000 replicas that scan dominated the event loop, and
//! per-request cost grew with fleet width. With the 4-ary winner-tree
//! index the route decision is an `O(1)` root read after lazy leaf
//! repairs of `log₄ R` levels each (five at width 1000), so informed
//! routing at width 1000 must cost about what blind round-robin costs,
//! not a multiple of it.
//!
//! This bench times the three stock routers through the fleet-scale
//! workload at the sweep's bottom and top rungs (8 and 1000 replicas,
//! constant per-replica load) and records the headline numbers into
//! `BENCH_router_scale.json`:
//!
//! - `BENCH_BLESS=1 cargo bench --bench router_scale` re-records the
//!   committed baseline;
//! - a plain run gates `jsq_requests_per_sec_w1000` against it,
//!   failing on a >25% regression (ratio < 0.75) — the informed-router
//!   rate at paper scale is the number the index bought;
//! - the bench itself asserts the structural pin: at width 1000, a
//!   request routed by join-shortest-queue or least-KV costs at most 2x
//!   one routed round-robin, both timed on this machine in the same
//!   run. The retired scan put that multiple at 3x and growing with
//!   width; the index holds it near 1x with margin for machine noise.
//!
//! Every rate is per request, not per event: a replica runs the decode
//! iterations that complete nothing inside one event, so how much work
//! an event stands for depends on the router's interleaving.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_bench::perf::{record_or_gate, PerfSnapshot};
use rpu_core::experiments::fleet_scale::{scale_config, scale_workload};
use rpu_serve::{
    AnalyticCostModel, CostModel, Fifo, Fleet, FleetBuilder, JoinShortestQueue, LeastKvLoad,
    RoundRobin, Router, SchedulingPolicy, Workload,
};
use std::path::Path;
use std::time::{Duration, Instant};

/// Bottom and top rungs of the registry sweep: the width axis the
/// route cost must stay flat-ish across.
const WIDTHS: [u32; 2] = [8, 1000];

/// Requests per replica — enough events per rung that the route path
/// dominates noise, cheap enough that six timed runs stay CI-sized.
const REQ_PER_REPLICA: u32 = 1000;

fn mk_fleet(replicas: usize) -> Fleet {
    FleetBuilder::new()
        .group(
            replicas,
            &scale_config(),
            || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>,
            || Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        )
        .build()
}

/// One full pass of the workload through one router; returns events
/// processed (to check determinism) and the timed event-loop duration.
fn run_once(wl: &Workload, replicas: usize, router: &mut dyn Router) -> (u64, Duration) {
    let mut fleet = mk_fleet(replicas);
    let mut run = fleet.start(wl);
    let start = Instant::now();
    while run.step(&mut fleet, router) {}
    (run.events(), start.elapsed())
}

/// Best-of-`passes` ns/request and requests/sec for one router at one
/// width (the minimum is the least-noise estimator, as in the other
/// gated benches).
fn measure(
    wl: &Workload,
    replicas: usize,
    mk: &dyn Fn() -> Box<dyn Router>,
    passes: u32,
) -> (f64, f64) {
    let (events, mut elapsed) = run_once(wl, replicas, mk().as_mut());
    for _ in 1..passes {
        let (ev, el) = run_once(wl, replicas, mk().as_mut());
        assert_eq!(ev, events, "event count must be deterministic");
        if el < elapsed {
            elapsed = el;
        }
    }
    let requests = f64::from(wl.num_requests);
    let ns_per_request = elapsed.as_nanos() as f64 / requests;
    let requests_per_sec = requests / elapsed.as_secs_f64();
    (ns_per_request, requests_per_sec)
}

type MkRouter = Box<dyn Fn() -> Box<dyn Router>>;

fn headline(c: &mut Criterion) {
    let routers: [(&str, MkRouter); 3] = [
        (
            "rr",
            Box::new(|| Box::new(RoundRobin::new()) as Box<dyn Router>),
        ),
        (
            "jsq",
            Box::new(|| Box::new(JoinShortestQueue) as Box<dyn Router>),
        ),
        ("kv", Box::new(|| Box::new(LeastKvLoad) as Box<dyn Router>)),
    ];

    // Warm-up: one cheap pass so page cache and frequency are settled
    // before the first timed rung.
    let warm = scale_workload(8, 8 * REQ_PER_REPLICA);
    let _ = run_once(&warm, 8, &mut RoundRobin::new());

    let mut snap = PerfSnapshot::new();
    let mut ns = std::collections::BTreeMap::new();
    for &width in &WIDTHS {
        let wl = scale_workload(width, width * REQ_PER_REPLICA);
        // The top rung is the gated number: best of three. The bottom
        // rung only anchors the flatness ratio: best of two.
        let passes = if width == 1000 { 3 } else { 2 };
        for (name, mk) in &routers {
            let (ns_per_request, requests_per_sec) = measure(&wl, width as usize, mk, passes);
            println!(
                "router_scale: {name} @ {width} replicas: {ns_per_request:.0} ns/request \
                 ({requests_per_sec:.0} requests/s)"
            );
            snap.put(
                &format!("{name}_ns_per_request_w{width}"),
                ns_per_request.round(),
            );
            ns.insert((name.to_string(), width), ns_per_request);
        }
    }
    for (name, _) in &routers {
        let w8 = ns[&(name.to_string(), 8)];
        let w1000 = ns[&(name.to_string(), 1000)];
        // >1 is cache pressure and deeper queues, not routing; the
        // structural assertion below is the routing pin.
        snap.put(
            &format!("{name}_w1000_over_w8"),
            (w1000 / w8 * 100.0).round() / 100.0,
        );
    }

    // The structural pin: informed routing at paper scale costs about
    // a round-robin request, not a scan of 1000 replicas.
    let rr = ns[&("rr".to_string(), 1000)];
    for name in ["jsq", "kv"] {
        let informed = ns[&(name.to_string(), 1000)];
        assert!(
            informed <= 2.0 * rr,
            "{name} at width 1000 costs {informed:.0} ns/request vs round-robin {rr:.0} — \
             the O(R) route scan is back"
        );
    }

    // Re-derive from the recorded ns/request so the gate metric and the
    // printed numbers cannot drift apart.
    let jsq_rps = 1e9 / ns[&("jsq".to_string(), 1000)];
    snap.put("jsq_requests_per_sec_w1000", jsq_rps.round());
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_router_scale.json");
    record_or_gate(&path, &snap, "jsq_requests_per_sec_w1000", 0.75);

    // A repeatable criterion sample on the 64-wide rung so `cargo
    // bench` trend lines have a stable target.
    let sampled = scale_workload(64, 64 * 100);
    let mut g = c.benchmark_group("router_scale");
    g.sample_size(10);
    g.bench_function("jsq_fleet_64", |b| {
        b.iter(|| run_once(&sampled, 64, &mut JoinShortestQueue))
    });
    g.finish();
}

criterion_group!(benches, headline);
criterion_main!(benches);
