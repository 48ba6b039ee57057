//! Route-decision cost across fleet widths.
//!
//! Before the routing index, an informed router (join-shortest-queue,
//! least-KV-load) paid an `O(replicas)` telemetry scan on every route
//! call — at 1000 replicas that scan dominated the event loop, and
//! per-request cost grew with fleet width. With the 4-ary winner-tree
//! index the route decision is an `O(1)` root read after lazy leaf
//! repairs of `log₄ R` levels each (five at width 1000), so informed
//! routing at width 1000 should cost about what blind round-robin
//! costs, not a multiple of it.
//!
//! This bench times the three stock routers through the fleet-scale
//! workload at the sweep's bottom and top rungs (8 and 1000 replicas,
//! constant per-replica load) and prints ns/request and requests/s for
//! each. It asserts no timing. The `O(log R)` routing is pinned by
//! count instead: the test
//! `fleet_scale::tests::jsq_probe_routes_every_request_off_the_index_argmin`
//! checks that join-shortest-queue never reaches its `O(R)` scan at
//! widths 64 and 1000. The speed gate is `scripts/perf_ab.py`, whose
//! `wide_jsq_mixed` workload routes by join-shortest-queue at width
//! 1000 and is timed against a base revision on the same machine.
//!
//! Every rate is per request, not per event: a replica runs the decode
//! iterations that complete nothing inside one event, so how much work
//! an event stands for depends on the router's interleaving.

use criterion::{criterion_group, criterion_main, Criterion};
use rpu_core::experiments::fleet_scale::{scale_config, scale_workload};
use rpu_serve::{
    AnalyticCostModel, CostModel, Fifo, Fleet, FleetBuilder, JoinShortestQueue, LeastKvLoad,
    RoundRobin, Router, SchedulingPolicy, Workload,
};
use std::time::{Duration, Instant};

/// Bottom and top rungs of the registry sweep: the width axis the
/// route cost should stay flat-ish across.
const WIDTHS: [u32; 2] = [8, 1000];

/// Requests per replica: enough events per rung that the route path
/// dominates noise, cheap enough that the timed runs stay seconds long.
const REQ_PER_REPLICA: u32 = 1000;

/// Timed passes per router and width; the fastest is reported, as the
/// least-interference estimate of a deterministic run.
const PASSES: u32 = 2;

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

/// Fastest-of-[`PASSES`] ns/request and requests/sec for one router at
/// one width.
fn measure(wl: &Workload, replicas: usize, mk: &dyn Fn() -> Box<dyn Router>) -> (f64, f64) {
    let (events, mut elapsed) = run_once(wl, replicas, mk().as_mut());
    for _ in 1..PASSES {
        let (ev, el) = run_once(wl, replicas, mk().as_mut());
        assert_eq!(ev, events, "event count must be deterministic");
        elapsed = elapsed.min(el);
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

    for &width in &WIDTHS {
        let wl = scale_workload(width, width * REQ_PER_REPLICA);
        for (name, mk) in &routers {
            let (ns_per_request, requests_per_sec) = measure(&wl, width as usize, mk);
            println!(
                "router_scale: {name} @ {width} replicas: {ns_per_request:.0} ns/request \
                 ({requests_per_sec:.0} requests/s)"
            );
        }
    }

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
