//! Tests of the benchmark itself: the decorators are transparent, the
//! traced rows cover the traced loop, the metric names fit the schema
//! and the plain-text protocols round-trip. Run them optimised:
//! `cargo test --release --offline --manifest-path perfbench/Cargo.toml`.

use crate::run::{self, Outcome, END_TO_END, PER_LAYER};
use crate::workloads::{Kind, Spec, DEFAULT_SEED};
use crate::{parse_args, parse_outcome, render_outcome, result_json};
use rpu_serve::{digest_fleet_report, run_autoscaled, ReportDigest};

/// Each workload at the short length whose digest is pinned.
fn short(kind: Kind) -> Spec {
    let requests = match kind {
        Kind::WideRr | Kind::AutoscaleDiurnal => 4000,
        Kind::WideJsqMixed => 2000,
    };
    Spec::new(kind, DEFAULT_SEED, Some(requests))
}

/// The digest of a run made with nothing but the simulator's own API:
/// no decorators, no recorder.
fn plain_digest(spec: &Spec) -> ReportDigest {
    let wl = spec.workload();
    let mut fleet = spec.fleet(None);
    let mut router = spec.router();
    let report = match spec.scaler() {
        Some(mut scaler) => run_autoscaled(&mut fleet, &wl, router.as_mut(), &mut scaler),
        None => {
            let mut run = fleet.start(&wl);
            for ev in spec.churn() {
                run.inject(ev);
            }
            while run.step(&mut fleet, router.as_mut()) {}
            run.into_report()
        }
    };
    digest_fleet_report(&report)
}

fn metric(out: &Outcome, name: &str) -> f64 {
    out.metrics
        .iter()
        .find(|m| m.0 == name)
        .unwrap_or_else(|| panic!("metric {name} missing"))
        .1
}

#[test]
fn decorators_leave_every_workload_digest_unchanged() {
    for kind in Kind::ALL {
        let spec = short(kind);
        let plain = plain_digest(&spec);
        assert_eq!(
            Some(plain),
            kind.pinned_digest(spec.requests),
            "{}",
            kind.name()
        );
        // `layers` asserts internally that the traced run (and, for the
        // autoscaled workload, the recorder pass and the re-driven run)
        // reproduce the phase run's digest; `end_to_end` checks the pin.
        assert_eq!(run::layers(&spec).digest, plain, "{}", kind.name());
        assert_eq!(run::end_to_end(&spec).digest, plain, "{}", kind.name());
    }
}

#[test]
fn other_seeds_change_the_inputs() {
    for kind in Kind::ALL {
        let spec = short(kind);
        let other = Spec { seed: 7, ..spec };
        assert_ne!(spec.workload().seed, other.workload().seed);
        assert_ne!(plain_digest(&spec), plain_digest(&other), "{}", kind.name());
    }
}

#[test]
fn traced_rows_cover_the_traced_loop() {
    for kind in Kind::ALL {
        let out = run::layers(&short(kind));
        let unattributed = metric(&out, "trace.unattributed_share");
        assert!(
            unattributed.abs() <= 0.10,
            "{}: route, step and lifecycle rows miss {unattributed} of the traced loop",
            kind.name()
        );
        let classified = metric(&out, "fleet.route_events")
            + metric(&out, "fleet.step_events")
            + metric(&out, "fleet.lifecycle_events");
        assert_eq!(classified, metric(&out, "fleet.events"), "{}", kind.name());
        // Every arrival is routed once; failures add re-routes.
        let requests = f64::from(short(kind).requests);
        let routes = metric(&out, "router.route_calls");
        assert_eq!(routes, metric(&out, "fleet.route_events"));
        assert_eq!(routes, requests + metric(&out, "lifecycle.displaced"));
    }
}

#[test]
fn every_run_reports_its_whole_metric_set() {
    let spec = short(Kind::AutoscaleDiurnal);
    let names = |out: &Outcome| out.metrics.iter().map(|m| m.0).collect::<Vec<_>>();
    let e2e: Vec<_> = END_TO_END.iter().map(|m| m.0).collect();
    let layers: Vec<_> = PER_LAYER.iter().map(|m| m.0).collect();
    assert_eq!(names(&run::end_to_end(&spec)), e2e);
    assert_eq!(names(&run::layers(&spec)), layers);
}

fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

fn valid_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

#[test]
fn metric_names_and_units_fit_the_schema() {
    assert!(END_TO_END.len() <= 16);
    assert!(PER_LAYER.len() <= 128);
    let all: Vec<_> = END_TO_END.iter().chain(&PER_LAYER).collect();
    for (i, (name, unit)) in all.iter().enumerate() {
        assert!(valid_name(name), "bad metric name {name}");
        assert!(valid_unit(unit), "bad unit {unit} of {name}");
        assert!(
            all[..i].iter().all(|m| m.0 != *name),
            "metric {name} listed twice"
        );
    }
    for kind in Kind::ALL {
        assert!(valid_name(kind.name()));
    }
    assert!(!valid_name("_leading"));
    assert!(!valid_name("sp ace"));
}

#[test]
fn benchmark_json_names_exactly_the_reported_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let names: Vec<&str> = text
        .split("\"name\": \"")
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect();
    let expected: Vec<&str> = Kind::ALL
        .iter()
        .map(|k| k.name())
        .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0))
        .collect();
    assert_eq!(names, expected);
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = &text[text.find(&format!("\"name\": \"{name}\"")).expect("listed")..];
        let entry = &entry[..entry.find('}').expect("entry closes")];
        assert!(
            entry.contains(&format!("\"unit\": \"{unit}\"")),
            "{name} has another unit in BENCHMARK.json"
        );
    }
}

#[test]
fn arguments_parse_and_reject_bad_input() {
    let argv = |s: &str| s.split_whitespace().map(String::from).collect::<Vec<_>>();
    let a = parse_args(&argv("--workload wide_rr --seed 3 --seconds 10 --trace 1")).unwrap();
    assert_eq!(a.spec, Spec::new(Kind::WideRr, 3, None));
    assert!(a.trace && !a.child);
    assert!((a.seconds - 10.0).abs() < f64::EPSILON);
    let short = parse_args(&argv("--workload autoscale_diurnal --requests 400 --child")).unwrap();
    assert_eq!(short.spec.requests, 400);
    assert!(short.child && !short.trace);
    for bad in [
        "--workload nope",
        "--seed 1",
        "--workload wide_rr --trace 2",
        "--workload wide_rr --seed -1",
        "--workload wide_rr --seconds",
        "--workload wide_rr --bogus 1",
        "--workload wide_rr --requests 2",
    ] {
        assert!(parse_args(&argv(bad)).is_err(), "accepted `{bad}`");
    }
}

#[test]
fn child_protocol_round_trips() {
    let out = Outcome {
        counts: run::Counts {
            attempted: 10,
            completed: 9,
            rejected: 1,
        },
        digest: ReportDigest(0x0123_4567_89ab_cdef),
        metrics: vec![
            ("setup_s", 2.76e-7),
            ("requests_per_s", 579_779.340_667_559),
        ],
        setups: vec![2.76e-7, 3.0e-3, 0.1],
    };
    let back = parse_outcome(&render_outcome(&out)).expect("parses");
    assert_eq!(back.counts, out.counts);
    assert_eq!(back.digest, out.digest);
    assert_eq!(back.metrics, out.metrics);
    assert_eq!(back.setups, out.setups);
    let traced = Outcome {
        setups: Vec::new(),
        ..out
    };
    assert!(parse_outcome(&render_outcome(&traced))
        .expect("parses")
        .setups
        .is_empty());
    assert!(parse_outcome("metric unknown_metric 1.0\n").is_none());
    assert!(parse_outcome("garbage\n").is_none());
}

#[test]
fn fast_end_averages_the_best_tenth() {
    let mut xs: Vec<f64> = (1..=20).rev().map(f64::from).collect();
    assert_eq!(run::fast_end(&mut xs, true), 1.5);
    assert_eq!(run::fast_end(&mut xs, false), 19.5);
    // Fewer than ten samples: the single best one.
    assert_eq!(run::fast_end(&mut [3.0, 1.0, 2.0], true), 1.0);
    assert_eq!(run::fast_end(&mut [3.0, 1.0, 2.0], false), 3.0);
    // Eleven samples round up to two.
    let mut eleven: Vec<f64> = (0..11).map(f64::from).collect();
    assert_eq!(run::fast_end(&mut eleven, true), 0.5);
}

#[test]
fn result_line_is_one_json_object_with_the_contract_keys() {
    let line = result_json(
        true,
        12,
        0,
        &[("setup_s", "s", 0.5), ("peak_rss_mb", "MB", 2.0)],
    );
    assert_eq!(
        line,
        "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
         {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}, \
         \"peak_rss_mb\": {\"value\": 2.0, \"unit\": \"MB\"}}}"
    );
    assert!(!line.contains('\n'));
}
