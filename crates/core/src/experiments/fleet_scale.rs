//! Fleet scale: the event core's width sweep to 1000 replicas.
//!
//! The fleet sweep asks a capacity question at planner scale (a
//! handful of replicas); this sweep asks the *event core* question
//! behind it: **does the fleet event driver keep its per-event cost
//! flat as the fleet gets wide?** It drives the same analytic-cost
//! serving stack across fleets of 8 to 1000 replicas at a constant
//! per-replica offered load (~95% decode utilisation), and reports
//! events processed, events per request, the largest batch any replica
//! held and the fleet-report digest at every width.
//!
//! The registry run keeps the request count small (a fixed number of
//! requests *per replica*) so the sweep stays cheap enough for the
//! golden/differential gates that execute every registry target. The
//! full-scale run is timed by perfbench's `wide_rr` workload, which
//! copies this sweep's 1000-wide shape (CI runs it at 10M requests),
//! and the `router_scale` bench reuses [`scale_workload`] and
//! [`scale_config`] across widths.
//!
//! The digest column is the determinism pin: the golden snapshot holds
//! the exact [`rpu_serve::ReportDigest`] of every width, so any change
//! to routing order, batch turnover or telemetry accounting at 1000
//! replicas shows up as a byte diff — at every engine job count.

use crate::engine::Engine;
use rpu_serve::{
    digest_fleet_report, AnalyticCostModel, CostModel, Fifo, FleetBuilder, FleetRun,
    JoinShortestQueue, LeastKvLoad, ReportDigest, RoundRobin, Router, SchedulingPolicy,
    ServeConfig, SessionAffinity, Workload,
};
use rpu_util::table::{Cell, Table};

/// Fleet widths swept, ascending. The top rung is the paper-scale
/// target: 1000 replicas behind one router.
pub const WIDTH_SWEEP: [u32; 4] = [8, 64, 256, 1000];

/// Requests per replica in the registry sweep — enough churn that
/// every replica's batch turns over, small enough that the 1000-replica
/// rung stays test-cheap.
pub const REQUESTS_PER_REPLICA: u32 = 8;

/// Offered load per replica, requests/second. Saturating-but-stable
/// on [`AnalyticCostModel::small`] with 256/16 token requests: decode
/// stays ~fully busy and queues run deep enough to keep batches full,
/// but the backlog does not grow without bound — at an *overloaded*
/// rate a long run's per-replica queue grows linearly and admission
/// cost with it, which is a property of the workload, not the event
/// core this sweep measures.
pub const RATE_PER_REPLICA_RPS: f64 = 280.0;

/// Serving batch-size cap per replica.
pub const MAX_BATCH: u32 = 8;

/// The swept workload at one fleet width: constant per-replica load,
/// width-dependent seed so no two rungs share an arrival tape.
#[must_use]
pub fn scale_workload(replicas: u32, num_requests: u32) -> Workload {
    Workload {
        seed: 0x5CA1E ^ u64::from(replicas),
        ..Workload::poisson(
            RATE_PER_REPLICA_RPS * f64::from(replicas),
            256,
            16,
            num_requests,
        )
    }
}

/// The serving config every swept replica runs — shared with the
/// `router_scale` bench so its timed runs exercise exactly the registry
/// sweep's machine shape.
#[must_use]
pub fn scale_config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    }
}

/// One fleet width's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct ScalePoint {
    /// Fleet width.
    pub replicas: u32,
    /// Requests served.
    pub requests: u32,
    /// Discrete events the driver processed.
    pub events: u64,
    /// Highest number of simultaneously resident requests any single
    /// replica's batch ever held (the table's "peak slab" column, a
    /// header kept for byte-stable goldens).
    pub peak_batch: u32,
    /// Fleet decode utilisation over the run.
    pub fleet_utilization: f64,
    /// Decode-load imbalance (max/mean) across replicas.
    pub imbalance: f64,
    /// Digest of the full fleet report — the determinism pin.
    pub digest: ReportDigest,
}

/// Runs one width to completion through the fleet event driver and
/// summarises it. Deterministic per `(replicas, workload)`.
#[must_use]
pub fn run_point(replicas: u32, wl: &Workload) -> ScalePoint {
    let mut fleet = FleetBuilder::new()
        .group(
            replicas as usize,
            &scale_config(),
            || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>,
            || Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        )
        .build();
    let mut router = RoundRobin::new();
    let mut run = fleet.start(wl);
    while run.step(&mut fleet, &mut router) {}
    let events = run.events();
    let report = run.into_report();
    ScalePoint {
        replicas,
        requests: wl.num_requests,
        events,
        peak_batch: report.aggregate.peak_batch,
        fleet_utilization: report.fleet_utilization(),
        imbalance: report.imbalance(),
        digest: digest_fleet_report(&report),
    }
}

/// Results of the scale sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScale {
    /// Samples, ascending fleet width.
    pub points: Vec<ScalePoint>,
}

/// Runs the sweep sequentially.
#[must_use]
pub fn run() -> FleetScale {
    run_with(&Engine::sequential())
}

/// Runs the sweep with each fleet width as one engine grid point. The
/// widths are independent runs, so the engine fans them out; the
/// digests pin that job count never leaks into any rung's report.
#[must_use]
pub fn run_with(engine: &Engine) -> FleetScale {
    let points = engine.par_map(&WIDTH_SWEEP, |_, &replicas| {
        let wl = scale_workload(replicas, replicas * REQUESTS_PER_REPLICA);
        run_point(replicas, &wl)
    });
    FleetScale { points }
}

impl FleetScale {
    /// The sample at one fleet width.
    ///
    /// # Panics
    ///
    /// Panics if the width is not a sweep rung.
    #[must_use]
    pub fn point(&self, replicas: u32) -> &ScalePoint {
        self.points
            .iter()
            .find(|p| p.replicas == replicas)
            .expect("width is a sweep rung")
    }

    /// Renders the sweep as one table: a row per fleet width with the
    /// event counts, occupancy and the report digest.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Fleet scale: calendar event core, {} req/s per replica, batch {MAX_BATCH}, \
                 {REQUESTS_PER_REPLICA} requests per replica",
                RATE_PER_REPLICA_RPS
            ),
            &[
                "replicas",
                "requests",
                "events",
                "events/req",
                "peak slab",
                "fleet util",
                "imbalance",
                "digest",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                Cell::int(i64::from(p.replicas)),
                Cell::int(i64::from(p.requests)),
                Cell::int(p.events as i64),
                Cell::num(p.events as f64 / f64::from(p.requests), 2),
                Cell::int(i64::from(p.peak_batch)),
                Cell::num(p.fleet_utilization, 3),
                Cell::num(p.imbalance, 2),
                Cell::str(p.digest.to_string()),
            ]);
        }
        t
    }
}

/// Fleet width of the `repro --counters` probe: the sweep's 64 rung.
const PROBE_REPLICAS: u32 = 64;

/// Requests the probe routes per replica.
const PROBE_REQUESTS_PER_REPLICA: u32 = 50;

/// Runs the counters probe — a `replicas`-wide rung at the sweep's own
/// saturating-but-stable load — to completion under `router`.
fn run_probe(replicas: u32, router: &mut dyn Router) -> FleetRun {
    let mut fleet = FleetBuilder::new()
        .group(
            replicas as usize,
            &scale_config(),
            || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>,
            || Box::new(Fifo) as Box<dyn SchedulingPolicy>,
        )
        .build();
    let requests = replicas * PROBE_REQUESTS_PER_REPLICA;
    let mut run = fleet.start(&scale_workload(replicas, requests));
    while run.step(&mut fleet, router) {}
    run
}

/// Per-subsystem hot-path counters behind the `repro --counters`
/// probe: the 64-replica rung run once per built-in router, one line
/// each with the routing decisions the run counted per replica and the
/// [`rpu_serve::PerfCounters`] the fleet driver kept. CI checks that
/// every router routed something.
#[must_use]
pub fn counters_report() -> String {
    type MkRouter = fn() -> Box<dyn Router>;
    let routers: [(&str, MkRouter); 4] = [
        ("round_robin", || Box::new(RoundRobin::new())),
        ("jsq", || Box::new(JoinShortestQueue)),
        ("least_kv", || Box::new(LeastKvLoad)),
        ("affinity", || Box::new(SessionAffinity::new())),
    ];
    let requests = PROBE_REPLICAS * PROBE_REQUESTS_PER_REPLICA;
    let mut out = String::new();
    for (name, mk) in routers {
        let run = run_probe(PROBE_REPLICAS, mk().as_mut());
        let c = run.perf_counters();
        let route_calls: u32 = run.into_report().assigned.iter().sum();
        out.push_str(&format!(
            "counters[{name}]: replicas={PROBE_REPLICAS} requests={requests} \
             route_calls={route_calls} index_leaf_updates={} index_marks={}\n",
            c.index_leaf_updates, c.index_marks,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_serve::{Request, RoutingView};
    use std::sync::OnceLock;

    /// The sweep is deterministic; run it once and share it across the
    /// suite (the reproducibility test still runs its own fresh copies).
    fn sweep() -> &'static FleetScale {
        static CACHE: OnceLock<FleetScale> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    #[test]
    fn sweeps_every_width_to_completion() {
        let s = sweep();
        assert_eq!(s.points.len(), WIDTH_SWEEP.len());
        for (&w, p) in WIDTH_SWEEP.iter().zip(&s.points) {
            assert_eq!(p.replicas, w);
            assert_eq!(p.requests, w * REQUESTS_PER_REPLICA);
            // Every request costs at least an enqueue event plus one
            // scheduling step; completed work means a busy fleet.
            assert!(p.events > u64::from(p.requests));
            assert!(p.peak_batch >= 1);
            assert!(p.fleet_utilization > 0.0);
            assert!(p.imbalance >= 1.0 - 1e-9);
        }
    }

    #[test]
    fn top_rung_reaches_a_thousand_replicas() {
        // Acceptance: the sweep's top rung really is the paper-scale
        // width, and its digest is pinned (any drift in batch turnover or
        // routing order at width 1000 must fail loudly here and in the
        // golden).
        let p = sweep().point(1000);
        assert_eq!(p.replicas, 1000);
        assert_eq!(p.requests, 8000);
        assert_eq!(
            p.digest,
            digest_fleet_report(&{
                let wl = scale_workload(1000, 8000);
                let mut fleet = FleetBuilder::new()
                    .group(
                        1000,
                        &scale_config(),
                        || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>,
                        || Box::new(Fifo) as Box<dyn SchedulingPolicy>,
                    )
                    .build();
                fleet.serve(&wl, &mut RoundRobin::new())
            })
        );
    }

    #[test]
    fn bit_reproducible_across_invocations_and_job_counts() {
        // Acceptance: digest equality between `--jobs 1` and `--jobs N`
        // at every width — the thousand-replica smoke test for the
        // engine's index-stamping.
        let a = sweep();
        assert_eq!(a, &run());
        assert_eq!(a, &run_with(&Engine::new(8)));
    }

    #[test]
    fn counters_probe_covers_every_builtin_router() {
        // The CI perf-counters leg greps these lines: one per built-in
        // router, and the routed work must actually show up in them.
        let report = counters_report();
        let lines: Vec<&str> = report.lines().collect();
        assert_eq!(lines.len(), 4, "one line per built-in router:\n{report}");
        for name in ["round_robin", "jsq", "least_kv", "affinity"] {
            assert!(
                lines
                    .iter()
                    .any(|l| l.starts_with(&format!("counters[{name}]"))),
                "missing router line `{name}`:\n{report}"
            );
        }
        for line in &lines {
            assert!(
                !line.contains("route_calls=0 "),
                "probe routed nothing: {line}"
            );
        }
    }

    /// [`JoinShortestQueue`], checked on every route of the probe: the
    /// index's backlog argmin has KV headroom, so the router's `O(R)`
    /// saturated scan (the crate's one `O(R)` routing path) never runs,
    /// and the pick is that argmin.
    struct ArgminCheckedJsq {
        routes: u32,
    }

    impl Router for ArgminCheckedJsq {
        fn name(&self) -> &'static str {
            "jsq-argmin-checked"
        }

        fn route(&mut self, req: &Request, view: &RoutingView<'_>) -> usize {
            let argmin = view
                .min_backlog_replica()
                .expect("some replica is routable");
            assert!(
                view.replica(argmin).has_kv_headroom(req.reserved_tokens()),
                "request {} met a KV-saturated argmin: JSQ would scan",
                req.id
            );
            let pick = JoinShortestQueue.route(req, view);
            assert_eq!(pick, argmin, "request {} left the argmin", req.id);
            self.routes += 1;
            pick
        }
    }

    #[test]
    fn jsq_probe_routes_every_request_off_the_index_argmin() {
        // The probe load keeps every JSQ decision on the O(log R)
        // lookup: no route reaches the headroom-restricted scan, at the
        // probe's width or at paper scale. A count, not a timing, pins
        // the routing cost.
        for replicas in [PROBE_REPLICAS, 1000] {
            let mut router = ArgminCheckedJsq { routes: 0 };
            let run = run_probe(replicas, &mut router);
            let requests = replicas * PROBE_REQUESTS_PER_REPLICA;
            assert_eq!(router.routes, requests, "width {replicas}");
            assert_eq!(
                run.into_report().assigned.iter().sum::<u32>(),
                requests,
                "width {replicas}"
            );
        }
    }

    #[test]
    fn table_has_one_row_per_width_and_carries_digests() {
        let t = sweep().table();
        assert_eq!(t.len(), WIDTH_SWEEP.len());
        let rendered = t.to_string();
        for p in &sweep().points {
            assert!(
                rendered.contains(&p.digest.to_string()),
                "digest column missing width {}",
                p.replicas
            );
        }
    }
}
