//! One measured run of one workload, executed in its own process: the
//! untraced whole run behind the end-to-end metrics, and the phase
//! split plus traced run behind the per-layer metrics.

use crate::procfs;
use crate::trace::{calibrate, Recorder, Tallies, TimedRouter};
use crate::workloads::{Kind, Spec, DEFAULT_SEED};
use rpu_serve::{
    digest_fleet_report, run_autoscaled, Autoscaler, Fleet, FleetEvent, FleetReport, FleetRun,
    LifecycleCounts, ReportDigest, Router, Workload,
};
use std::rc::Rc;
use std::time::Instant;

/// End-to-end metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("requests_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_ttft_p50_ms", "ms"),
    ("sim_ttft_p99_ms", "ms"),
    ("sim_goodput_rps", "1/s"),
    ("sim_machine_s", "s"),
];

/// Per-layer metrics: `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("fleet.build_s", "s"),
    ("arrivals.tape_s", "s"),
    ("arrivals.tape_mb", "MB"),
    ("fleet.loop_s", "s"),
    ("fleet.events", "count"),
    ("fleet.events_per_request", "events/req"),
    ("fleet.loop_ns_per_event", "ns"),
    ("fleet.loop_mb", "MB"),
    ("fleet.into_report_s", "s"),
    ("fleet.report_mb", "MB"),
    ("metrics.multi_class_s", "s"),
    ("digest.digest_s", "s"),
    ("fleet.route_events", "count"),
    ("fleet.route_event_ns", "ns"),
    ("fleet.step_events", "count"),
    ("fleet.step_event_ns", "ns"),
    ("fleet.lifecycle_events", "count"),
    ("fleet.lifecycle_event_ns", "ns"),
    ("router.route_calls", "count"),
    ("router.route_ns", "ns"),
    ("router.share", "ratio"),
    ("policy.calls", "count"),
    ("policy.ns", "ns"),
    ("policy.share", "ratio"),
    ("cost.calls", "count"),
    ("cost.ns", "ns"),
    ("cost.share", "ratio"),
    ("fleet.driver_ns_per_event", "ns"),
    ("autoscale.us_per_request", "us"),
    ("autoscale.growth", "ratio"),
    ("autoscale.control_share", "ratio"),
    ("lifecycle.joins", "count"),
    ("lifecycle.drains", "count"),
    ("lifecycle.fails", "count"),
    ("lifecycle.displaced", "count"),
    ("trace.overhead_share", "ratio"),
    ("trace.unattributed_share", "ratio"),
    ("trace.calibration_ns", "ns"),
];

/// Set-up is timed at least this many times per process...
const MIN_SETUPS: usize = 5;
/// ...and until this much host time is spent on it, capped at
/// [`MAX_SETUPS`] timings.
const SETUP_BUDGET_S: f64 = 0.1;
/// Upper bound on set-up timings per process.
const MAX_SETUPS: usize = 1000;

/// Requests a process simulated, across all its runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counts {
    /// Requests issued.
    pub attempted: u64,
    /// Requests that completed.
    pub completed: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
}

/// What one measured process reports.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// Request accounting over every run the process made.
    pub counts: Counts,
    /// Digest of the benchmark run's fleet report.
    pub digest: ReportDigest,
    /// `(name, value)` for every metric of the mode.
    pub metrics: Vec<(&'static str, f64)>,
    /// Every set-up timing of an end-to-end process, seconds; the
    /// invocation pools them into `setup_s`. Empty for traced runs.
    pub setups: Vec<f64>,
}

impl Counts {
    /// Adds one finished run, panicking if it lost a request.
    fn add(&mut self, wl: &Workload, report: &FleetReport) {
        let completed = report.aggregate.records.len() as u64;
        let rejected = u64::from(report.aggregate.rejected);
        let attempted = u64::from(wl.num_requests);
        assert_eq!(
            completed + rejected,
            attempted,
            "run lost requests: {completed} completed + {rejected} rejected of {attempted}"
        );
        self.attempted += attempted;
        self.completed += completed;
        self.rejected += rejected;
    }
}

/// Checks a finished benchmark-length run's digest against the pin.
fn check_pin(spec: &Spec, digest: ReportDigest) {
    if spec.seed == DEFAULT_SEED {
        if let Some(pinned) = spec.kind.pinned_digest(spec.requests) {
            assert_eq!(
                digest,
                pinned,
                "{} at seed {DEFAULT_SEED}, {} requests: digest differs from the pin",
                spec.kind.name(),
                spec.requests
            );
        }
    }
}

/// A run that is set up and ready to execute.
enum Started {
    /// Stepped through [`FleetRun::step`].
    Stepped {
        fleet: Fleet,
        run: Box<FleetRun>,
        router: Box<dyn Router>,
    },
    /// Driven by [`run_autoscaled`], which starts the run itself.
    Autoscaled {
        fleet: Fleet,
        scaler: Autoscaler,
        router: Box<dyn Router>,
    },
}

impl Started {
    /// Set-up: fleet (and controller) construction, plus the arrival
    /// tape and injected churn for stepped runs.
    fn new(spec: &Spec, wl: &Workload) -> Self {
        let fleet = spec.fleet(None);
        let router = spec.router();
        match spec.scaler() {
            Some(scaler) => Self::Autoscaled {
                fleet,
                scaler,
                router,
            },
            None => {
                let mut run = fleet.start(wl);
                for ev in spec.churn() {
                    run.inject(ev);
                }
                Self::Stepped {
                    fleet,
                    run: Box::new(run),
                    router,
                }
            }
        }
    }

    fn finish(self, wl: &Workload) -> FleetReport {
        match self {
            Self::Stepped {
                mut fleet,
                mut run,
                mut router,
            } => {
                while run.step(&mut fleet, router.as_mut()) {}
                run.into_report()
            }
            Self::Autoscaled {
                mut fleet,
                mut scaler,
                mut router,
            } => run_autoscaled(&mut fleet, wl, router.as_mut(), &mut scaler),
        }
    }
}

/// Median of a non-empty sample (mean of the middle pair when even).
pub fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        0.5 * (xs[n / 2 - 1] + xs[n / 2])
    }
}

/// Mean of the best tenth (at least one) of a non-empty sample: the
/// lowest values when `lower` is set, else the highest. On a shared
/// host a co-tenant's burst slows whatever runs beside it for seconds at
/// a time; the fast end of many short timings reads the program's own
/// cost, where the median reads how busy the host was.
pub fn fast_end(xs: &mut [f64], lower: bool) -> f64 {
    assert!(!xs.is_empty(), "fast end of nothing");
    xs.sort_by(f64::total_cmp);
    if !lower {
        xs.reverse();
    }
    let best = &xs[..xs.len().div_ceil(10)];
    best.iter().sum::<f64>() / best.len() as f64
}

/// The untraced whole run a user executes: set-up (repeated; every
/// timing returned), the event loop or the autoscaled loop, the report
/// merge, the SLO summary and the digest. The `setup_s` metric is this
/// process's [`fast_end`]; the invocation recomputes it over the pooled
/// timings of all its processes.
pub fn end_to_end(spec: &Spec) -> Outcome {
    let wl = spec.workload();
    // Each set-up is timed on its own, the previous one dropped first,
    // so the heap stays the same size from one to the next.
    let mut setups = Vec::new();
    let mut started = None;
    let budget = Instant::now();
    while setups.len() < MIN_SETUPS
        || (budget.elapsed().as_secs_f64() < SETUP_BUDGET_S && setups.len() < MAX_SETUPS)
    {
        drop(started.take());
        let t = Instant::now();
        started = Some(Started::new(spec, &wl));
        setups.push(t.elapsed().as_secs_f64());
    }
    let started = started.expect("set up at least once");
    let last_setup_s = *setups.last().expect("set up at least once");

    let t = Instant::now();
    let report = started.finish(&wl);
    let slo = report.multi_class(&wl.classes);
    let digest = digest_fleet_report(&report);
    let run_s = last_setup_s + t.elapsed().as_secs_f64();

    let mut counts = Counts::default();
    counts.add(&wl, &report);
    check_pin(spec, digest);
    let metrics = vec![
        ("setup_s", fast_end(&mut setups.clone(), true)),
        ("requests_per_s", f64::from(spec.requests) / run_s),
        ("peak_rss_mb", procfs::current().hwm_mb()),
        ("sim_ttft_p50_ms", slo.aggregate.ttft.p50 * 1e3),
        ("sim_ttft_p99_ms", slo.aggregate.ttft.p99 * 1e3),
        ("sim_goodput_rps", slo.aggregate.goodput_rps),
        ("sim_machine_s", report.machine_seconds),
    ];
    Outcome {
        counts,
        digest,
        metrics,
        setups,
    }
}

/// Host time and memory of each phase of one untraced stepped run.
#[derive(Debug, Clone, Copy)]
struct Phases {
    build_s: f64,
    tape_s: f64,
    tape_mb: f64,
    loop_s: f64,
    events: u64,
    loop_mb: f64,
    into_report_s: f64,
    report_mb: f64,
    multi_class_s: f64,
    digest_s: f64,
    digest: ReportDigest,
    lifecycle: LifecycleCounts,
}

/// Runs `spec` through [`FleetRun::step`] with `lifecycle` injected up
/// front, timing and measuring every phase; no decorators.
fn phases(spec: &Spec, wl: &Workload, lifecycle: &[FleetEvent], counts: &mut Counts) -> Phases {
    let secs = |t: Instant| t.elapsed().as_secs_f64();
    let t = Instant::now();
    let mut fleet = spec.fleet(None);
    let build_s = secs(t);
    let mut router = spec.router();

    let m0 = procfs::current();
    let t = Instant::now();
    let mut run = fleet.start(wl);
    let tape_s = secs(t);
    let m1 = procfs::current();
    for &ev in lifecycle {
        run.inject(ev);
    }

    let t = Instant::now();
    while run.step(&mut fleet, router.as_mut()) {}
    let loop_s = secs(t);
    let events = run.events();
    let m2 = procfs::current();

    let t = Instant::now();
    let report = run.into_report();
    let into_report_s = secs(t);
    let m3 = procfs::current();

    let t = Instant::now();
    let slo = report.multi_class(&wl.classes);
    let multi_class_s = secs(t);
    std::hint::black_box(&slo);

    let t = Instant::now();
    let digest = digest_fleet_report(&report);
    let digest_s = secs(t);
    counts.add(wl, &report);
    Phases {
        build_s,
        tape_s,
        tape_mb: m1.rss_mb() - m0.rss_mb(),
        loop_s,
        events,
        loop_mb: m2.rss_mb() - m1.rss_mb(),
        into_report_s,
        report_mb: m3.rss_mb() - m2.rss_mb(),
        multi_class_s,
        digest_s,
        digest,
        lifecycle: report.lifecycle,
    }
}

/// Event classes of the traced loop.
const ROUTE: usize = 0;
const STEP: usize = 1;
const LIFECYCLE: usize = 2;

/// What the traced run measured.
#[derive(Debug)]
struct Traced {
    /// `(events, host ns)` per event class.
    rows: [(u64, u64); 3],
    loop_ns: f64,
    tallies: Rc<Tallies>,
    digest: ReportDigest,
}

/// Runs `spec` with the router, every policy and every cost model
/// wrapped in timing decorators, timing each [`FleetRun::step`] call
/// and classifying it from outside: an event that called the router is
/// a route event, one that changed `lifecycle_counts()` a lifecycle
/// event, any other a step event.
fn traced(spec: &Spec, wl: &Workload, lifecycle: &[FleetEvent], counts: &mut Counts) -> Traced {
    let tallies = Rc::new(Tallies::default());
    let mut fleet = spec.fleet(Some(&tallies));
    let mut inner = spec.router();
    let mut router = TimedRouter::new(inner.as_mut(), Rc::clone(&tallies));
    let mut run = fleet.start(wl);
    for &ev in lifecycle {
        run.inject(ev);
    }
    let mut rows = [(0u64, 0u64); 3];
    let start = Instant::now();
    let mut prev = start;
    loop {
        let routes = tallies.router.calls();
        let life = run.lifecycle_counts();
        if !run.step(&mut fleet, &mut router) {
            break;
        }
        // One clock read per event: everything since the previous
        // event's read, bookkeeping included, is charged to this one.
        let now = Instant::now();
        let class = if run.lifecycle_counts() != life {
            LIFECYCLE
        } else if tallies.router.calls() != routes {
            ROUTE
        } else {
            STEP
        };
        rows[class].0 += 1;
        rows[class].1 += (now - prev).as_nanos() as u64;
        prev = now;
    }
    let loop_ns = start.elapsed().as_nanos() as f64;
    let report = run.into_report();
    counts.add(wl, &report);
    Traced {
        rows,
        loop_ns,
        tallies,
        digest: digest_fleet_report(&report),
    }
}

/// An untraced [`run_autoscaled`] pass: host seconds, the report
/// digest, and the lifecycle events the controller applied.
fn autoscaled(spec: &Spec, counts: &mut Counts) -> (f64, ReportDigest, Vec<FleetEvent>) {
    let wl = spec.workload();
    let mut fleet = spec.fleet(None);
    let mut scaler = spec.scaler().expect("an autoscaled workload");
    let mut inner = spec.router();
    let mut router = Recorder::new(inner.as_mut());
    let t = Instant::now();
    let report = run_autoscaled(&mut fleet, &wl, &mut router, &mut scaler);
    let secs = t.elapsed().as_secs_f64();
    counts.add(&wl, &report);
    (secs, digest_fleet_report(&report), router.events)
}

/// The per-layer run: the phase split of one untraced run, then the
/// traced run, whose digest must match. The autoscaled workload first
/// runs [`run_autoscaled`] at full and quarter length, then re-drives
/// the controller's recorded decisions through [`FleetRun::step`] so
/// the loop splits like the others.
pub fn layers(spec: &Spec) -> Outcome {
    let calib = calibrate();
    let wl = spec.workload();
    let mut counts = Counts::default();

    let mut auto = None;
    let lifecycle = if spec.kind == Kind::AutoscaleDiurnal {
        let (full_s, digest, events) = autoscaled(spec, &mut counts);
        check_pin(spec, digest);
        let (quarter_s, _, _) = autoscaled(&spec.with_requests(spec.requests / 4), &mut counts);
        auto = Some((full_s, quarter_s, digest));
        events
    } else {
        spec.churn()
    };

    let p = phases(spec, &wl, &lifecycle, &mut counts);
    check_pin(spec, p.digest);
    let t = traced(spec, &wl, &lifecycle, &mut counts);
    assert_eq!(
        t.digest, p.digest,
        "the traced run must reproduce the untraced digest"
    );

    let requests = f64::from(spec.requests);
    let events = p.events as f64;
    let untraced_loop_ns = p.loop_s * 1e9;
    let per = |total: f64, n: f64| if n > 0.0 { total / n } else { 0.0 };
    let tl = &t.tallies;
    let (router_ns, policy_ns, cost_ns) = (
        tl.router.self_ns(&calib),
        tl.policy.self_ns(&calib),
        tl.cost.self_ns(&calib),
    );
    let row_sum: u64 = t.rows.iter().map(|r| r.1).sum();
    let (us_per_request, growth, control_share) = match auto {
        Some((full_s, quarter_s, digest)) => {
            assert_eq!(
                digest, p.digest,
                "re-driving the controller's decisions must reproduce the autoscaled run"
            );
            let us = full_s * 1e6 / requests;
            let quarter_us = quarter_s * 1e6 / f64::from(spec.requests / 4);
            let replayed_s = p.tape_s + p.loop_s + p.into_report_s;
            (us, us / quarter_us, 1.0 - replayed_s / full_s)
        }
        None => (0.0, 0.0, 0.0),
    };
    let lc = p.lifecycle;
    let metrics = vec![
        ("fleet.build_s", p.build_s),
        ("arrivals.tape_s", p.tape_s),
        ("arrivals.tape_mb", p.tape_mb),
        ("fleet.loop_s", p.loop_s),
        ("fleet.events", events),
        ("fleet.events_per_request", events / requests),
        ("fleet.loop_ns_per_event", per(untraced_loop_ns, events)),
        ("fleet.loop_mb", p.loop_mb),
        ("fleet.into_report_s", p.into_report_s),
        ("fleet.report_mb", p.report_mb),
        ("metrics.multi_class_s", p.multi_class_s),
        ("digest.digest_s", p.digest_s),
        ("fleet.route_events", t.rows[ROUTE].0 as f64),
        (
            "fleet.route_event_ns",
            per(t.rows[ROUTE].1 as f64, t.rows[ROUTE].0 as f64),
        ),
        ("fleet.step_events", t.rows[STEP].0 as f64),
        (
            "fleet.step_event_ns",
            per(t.rows[STEP].1 as f64, t.rows[STEP].0 as f64),
        ),
        ("fleet.lifecycle_events", t.rows[LIFECYCLE].0 as f64),
        (
            "fleet.lifecycle_event_ns",
            per(t.rows[LIFECYCLE].1 as f64, t.rows[LIFECYCLE].0 as f64),
        ),
        ("router.route_calls", tl.router.calls() as f64),
        ("router.route_ns", per(router_ns, tl.router.calls() as f64)),
        ("router.share", router_ns / t.loop_ns),
        ("policy.calls", tl.policy.calls() as f64),
        ("policy.ns", per(policy_ns, tl.policy.calls() as f64)),
        ("policy.share", policy_ns / t.loop_ns),
        ("cost.calls", tl.cost.calls() as f64),
        ("cost.ns", per(cost_ns, tl.cost.calls() as f64)),
        ("cost.share", cost_ns / t.loop_ns),
        (
            "fleet.driver_ns_per_event",
            per(
                (untraced_loop_ns - router_ns - policy_ns - cost_ns).max(0.0),
                events,
            ),
        ),
        ("autoscale.us_per_request", us_per_request),
        ("autoscale.growth", growth),
        ("autoscale.control_share", control_share),
        ("lifecycle.joins", f64::from(lc.joins)),
        ("lifecycle.drains", f64::from(lc.drains)),
        ("lifecycle.fails", f64::from(lc.fails)),
        ("lifecycle.displaced", f64::from(lc.displaced)),
        ("trace.overhead_share", t.loop_ns / untraced_loop_ns - 1.0),
        ("trace.unattributed_share", 1.0 - row_sum as f64 / t.loop_ns),
        ("trace.calibration_ns", calib.in_interval_ns),
    ];
    Outcome {
        counts,
        digest: p.digest,
        metrics,
        setups: Vec::new(),
    }
}
