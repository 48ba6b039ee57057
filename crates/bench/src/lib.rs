//! Benchmark harness for the RPU reproduction.
//!
//! Each Criterion bench target under `benches/` regenerates one paper
//! figure by calling the same `rpu_core::experiments::*::run()`
//! functions the `repro` binary prints, so benchmark timings measure the
//! exact code paths that produce the published numbers.
//!
//! The [`checks`] module hosts lightweight result assertions shared by
//! the benches, so a bench run also validates the figure's headline
//! shape (who wins, by roughly what factor).

#![warn(missing_docs)]

/// Shared sanity checks used by the bench targets.
pub mod checks {
    /// Panics unless `value` lies within `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics when the value falls outside the expected band, so a
    /// regression in a figure's headline number fails the bench run.
    pub fn expect_band(what: &str, value: f64, lo: f64, hi: f64) {
        assert!(
            value >= lo && value <= hi,
            "{what}: {value} outside expected band [{lo}, {hi}]"
        );
    }
}

/// Measured performance snapshots: the `BENCH_*.json` trajectory.
///
/// The `router_scale` and `repro_parallel` bench targets record their
/// headline numbers (ns/event per router and width, sweeps/sec, …) as
/// a [`perf::PerfSnapshot`] and pass it through
/// [`perf::record_or_gate`], which follows the repo's golden-drift
/// pattern:
///
/// - `BENCH_BLESS=1 cargo bench …` (re)writes the committed JSON — the
///   deliberate act that moves the trajectory;
/// - a plain bench run *gates* instead: it parses the committed
///   baseline and fails if the gate metric regressed below the allowed
///   ratio (CI uses 0.75, i.e. >25% throughput regression fails).
///
/// The serving simulator's whole-run shapes are not gated here but by
/// `scripts/perf_ab.py`, which times `perfbench` at a base revision and
/// at the working tree on the same machine; an absolute baseline drifts
/// with the host it was recorded on.
///
/// The JSON is hand-rolled (no serde in this tree): a flat
/// `{"schema": …, "metrics": {name: number, …}}` object, one metric
/// per line, written with Rust's shortest-roundtrip float formatting
/// so a bless is reproducible byte-for-byte from the same numbers.
pub mod perf {
    use std::fmt::Write as _;
    use std::path::Path;

    /// Schema tag stamped into every perf snapshot.
    pub const SCHEMA: &str = "rpu-perf-v1";

    /// An ordered set of named measurements from one bench run.
    #[derive(Debug, Clone, PartialEq, Default)]
    pub struct PerfSnapshot {
        metrics: Vec<(String, f64)>,
    }

    impl PerfSnapshot {
        /// An empty snapshot.
        #[must_use]
        pub fn new() -> Self {
            Self::default()
        }

        /// Appends (or overwrites) a metric.
        pub fn put(&mut self, name: &str, value: f64) {
            if let Some(slot) = self.metrics.iter_mut().find(|(n, _)| n == name) {
                slot.1 = value;
            } else {
                self.metrics.push((name.to_string(), value));
            }
        }

        /// Reads a metric back.
        #[must_use]
        pub fn get(&self, name: &str) -> Option<f64> {
            self.metrics
                .iter()
                .find(|(n, _)| n == name)
                .map(|&(_, v)| v)
        }

        /// Renders the snapshot as the committed JSON document.
        #[must_use]
        pub fn to_json(&self) -> String {
            let mut out = String::from("{\n");
            let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
            out.push_str("  \"metrics\": {\n");
            for (i, (name, value)) in self.metrics.iter().enumerate() {
                let sep = if i + 1 == self.metrics.len() { "" } else { "," };
                let _ = writeln!(out, "    \"{name}\": {value}{sep}");
            }
            out.push_str("  }\n}\n");
            out
        }

        /// Parses a document produced by [`PerfSnapshot::to_json`].
        /// Returns `None` on schema mismatch or malformed lines.
        #[must_use]
        pub fn parse(json: &str) -> Option<Self> {
            if !json.contains(&format!("\"schema\": \"{SCHEMA}\"")) {
                return None;
            }
            let mut snap = Self::new();
            for line in json.lines() {
                let line = line.trim().trim_end_matches(',');
                let Some(rest) = line.strip_prefix('"') else {
                    continue;
                };
                let (name, value) = rest.split_once("\": ")?;
                if name == "schema" || value.starts_with('{') {
                    continue;
                }
                snap.put(name, value.parse().ok()?);
            }
            if snap.metrics.is_empty() {
                None
            } else {
                Some(snap)
            }
        }
    }

    /// Records or gates a perf snapshot against the committed baseline
    /// at `path`.
    ///
    /// With `BENCH_BLESS` set in the environment the snapshot is
    /// written to `path` and accepted. Otherwise the baseline is read
    /// and the run fails if `fresh[gate_metric] < min_ratio *
    /// baseline[gate_metric]` — higher is assumed better.
    ///
    /// # Panics
    ///
    /// Panics when the baseline is missing or unreadable (bless first),
    /// when either snapshot lacks the gate metric, or when the gate
    /// detects a regression past `min_ratio`.
    pub fn record_or_gate(path: &Path, fresh: &PerfSnapshot, gate_metric: &str, min_ratio: f64) {
        let measured = fresh
            .get(gate_metric)
            .unwrap_or_else(|| panic!("fresh snapshot lacks gate metric {gate_metric}"));
        if std::env::var_os("BENCH_BLESS").is_some() {
            std::fs::write(path, fresh.to_json())
                .unwrap_or_else(|e| panic!("cannot bless {}: {e}", path.display()));
            println!("BLESSED {}: {gate_metric} = {measured}", path.display());
            return;
        }
        let baseline_json = std::fs::read_to_string(path).unwrap_or_else(|e| {
            panic!(
                "no perf baseline at {} ({e}); run with BENCH_BLESS=1 to record one",
                path.display()
            )
        });
        let baseline = PerfSnapshot::parse(&baseline_json)
            .unwrap_or_else(|| panic!("unparseable perf baseline at {}", path.display()));
        let committed = baseline
            .get(gate_metric)
            .unwrap_or_else(|| panic!("baseline lacks gate metric {gate_metric}"));
        let ratio = measured / committed;
        println!(
            "PERF {}: {gate_metric} measured {measured} vs committed {committed} (x{ratio:.3})",
            path.display()
        );
        assert!(
            ratio >= min_ratio,
            "{gate_metric} regressed: {measured} is {ratio:.3}x the committed {committed} \
             (gate: {min_ratio}); if intentional, re-bless with BENCH_BLESS=1"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::checks::expect_band;
    use super::perf::PerfSnapshot;

    #[test]
    fn expect_band_accepts_inside() {
        expect_band("x", 1.0, 0.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "outside expected band")]
    fn expect_band_rejects_outside() {
        expect_band("x", 3.0, 0.5, 2.0);
    }

    fn sample() -> PerfSnapshot {
        let mut snap = PerfSnapshot::new();
        snap.put("events_per_sec", 1_234_567.0);
        snap.put("ns_per_event", 810.25);
        snap.put("peak_slab_occupancy", 8.0);
        snap
    }

    #[test]
    fn perf_snapshot_roundtrips_through_json() {
        let snap = sample();
        let json = snap.to_json();
        let back = PerfSnapshot::parse(&json).expect("own output parses");
        assert_eq!(back, snap);
        assert_eq!(back.to_json(), json, "re-render must be byte-identical");
        assert_eq!(back.get("ns_per_event"), Some(810.25));
        assert_eq!(back.get("missing"), None);
    }

    #[test]
    fn perf_snapshot_rejects_foreign_documents() {
        assert_eq!(PerfSnapshot::parse("{}"), None);
        assert_eq!(
            PerfSnapshot::parse("{\"schema\": \"other-v9\", \"metrics\": {\"x\": 1}}"),
            None
        );
        let mangled = sample().to_json().replace("810.25", "fast");
        assert_eq!(PerfSnapshot::parse(&mangled), None);
    }

    #[test]
    fn perf_gate_passes_within_ratio_and_blesses() {
        let dir = std::env::temp_dir().join(format!("rpu-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_gate_ok.json");
        std::fs::write(&path, sample().to_json()).expect("seed baseline");
        let mut slower = sample();
        slower.put("events_per_sec", 1_000_000.0); // 0.81x: inside the gate
        super::perf::record_or_gate(&path, &slower, "events_per_sec", 0.75);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    #[should_panic(expected = "regressed")]
    fn perf_gate_fails_past_ratio() {
        let dir = std::env::temp_dir().join(format!("rpu-perf-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("temp dir");
        let path = dir.join("BENCH_gate_bad.json");
        std::fs::write(&path, sample().to_json()).expect("seed baseline");
        let mut slower = sample();
        slower.put("events_per_sec", 500_000.0); // 0.4x: >25% regression
        let result = std::panic::catch_unwind(|| {
            super::perf::record_or_gate(&path, &slower, "events_per_sec", 0.75);
        });
        std::fs::remove_file(&path).ok();
        if let Err(payload) = result {
            std::panic::resume_unwind(payload);
        }
    }
}
