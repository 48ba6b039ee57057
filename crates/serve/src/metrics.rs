//! SLO reporting: latency percentiles, goodput and utilisation —
//! aggregate and per SLO class.

use crate::class::{ClassSpec, SloTargets};
use crate::request::RequestRecord;
use crate::scheduler::ServeReport;
use rpu_util::stats::{Moments, Percentiles};
use rpu_util::table::{num, Table};

/// Aggregated serving metrics for one run (or one class of it).
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// Time-to-first-token summary, seconds.
    pub ttft: Percentiles,
    /// Time-per-output-token summary, seconds.
    pub tpot: Percentiles,
    /// End-to-end latency summary, seconds.
    pub e2e: Percentiles,
    /// Completed requests.
    pub completed: u32,
    /// Rejected (over-capacity) requests.
    pub rejected: u32,
    /// Completed requests per second over the makespan.
    pub throughput_rps: f64,
    /// Output tokens per second over the makespan.
    pub throughput_tok_s: f64,
    /// Requests per second that met *both* SLO targets. An honest zero
    /// when nothing completed: zero requests per second is exactly
    /// what the class delivered.
    pub goodput_rps: f64,
    /// Fraction of completed requests meeting both SLO targets. `NaN`
    /// when nothing completed — 0-of-0 is not an attainment of 0% (or
    /// 100%), and tables render it as "n/a".
    pub slo_attainment: f64,
    /// Decode-machine utilisation over the makespan. Machine-wide even
    /// in per-class reports (classes share the decode machine).
    pub utilization: f64,
    /// Largest concurrent batch observed (machine-wide).
    pub peak_batch: u32,
    /// Largest conservative KV reservation observed, tokens
    /// (machine-wide).
    pub peak_reserved_tokens: u64,
}

impl SloReport {
    /// Summarises a serve run against one set of SLO targets.
    #[must_use]
    pub fn new(report: &ServeReport, slo: &SloTargets) -> Self {
        let mut counts = Counts::default();
        let mut moments = Latencies::default();
        for r in &report.records {
            counts.push(r, *slo);
            moments.push(r);
        }
        let mut scratch = Vec::with_capacity(report.records.len());
        summarise(
            &counts,
            &moments,
            report.records.iter(),
            report.rejected,
            report,
            &mut scratch,
        )
    }
}

/// The order-free half of one [`SloReport`]: completions, those that
/// met their targets, and output tokens.
#[derive(Debug, Clone, Copy, Default)]
struct Counts {
    completed: usize,
    good: usize,
    tokens: u64,
}

impl Counts {
    /// Counts `r`, judged against `slo`.
    fn push(&mut self, r: &RequestRecord, slo: SloTargets) {
        self.completed += 1;
        self.good += usize::from(r.ttft_s() <= slo.ttft_s && r.tpot_s() <= slo.tpot_s);
        self.tokens += u64::from(r.output_len);
    }
}

/// The order-dependent half of one [`SloReport`]: the latency means
/// and maxima accumulated in the order the records are pushed
/// (completion order, so the means keep their bits).
#[derive(Debug, Clone, Copy, Default)]
struct Latencies {
    ttft: Moments,
    tpot: Moments,
    e2e: Moments,
}

impl Latencies {
    fn push(&mut self, r: &RequestRecord) {
        self.ttft.push(r.ttft_s());
        self.tpot.push(r.tpot_s());
        self.e2e.push(r.e2e_s());
    }
}

/// The order-dependent half of a [`MultiClassReport`]: the latency
/// moments of every record and of each class index's records, pushed
/// in completion order. A fleet folds them while it merges its
/// completion order ([`crate::MergeOrder`]); a single machine pushes
/// its own records.
#[derive(Debug, Clone, Default)]
pub(crate) struct ClassMoments {
    all: Latencies,
    /// Indexed by [`RequestRecord::class`], whether or not a
    /// [`ClassSpec`] names the class.
    by_class: Vec<Latencies>,
}

impl ClassMoments {
    /// Accumulates `r` into the aggregate and into its class.
    pub(crate) fn push(&mut self, r: &RequestRecord) {
        self.all.push(r);
        let class = usize::from(r.class);
        if class >= self.by_class.len() {
            self.by_class.resize(class + 1, Latencies::default());
        }
        self.by_class[class].push(r);
    }
}

/// Builds one [`SloReport`] from its `counts` and `moments` and its
/// records, `stored` in any order — whichever is cheapest to read.
/// Rates share the run's makespan, so per-class rates sum to the
/// aggregate's.
///
/// `stored` is walked once per latency summary, to fill the quantile
/// samples: one caller-owned scratch buffer serves every summary,
/// filled, summarised by selection (no sort, no per-metric
/// allocation), refilled.
fn summarise<'a, R>(
    counts: &Counts,
    moments: &Latencies,
    stored: impl Iterator<Item = &'a RequestRecord> + Clone,
    rejected: u32,
    run: &ServeReport<R>,
    scratch: &mut Vec<f64>,
) -> SloReport {
    let mut summary = |sample: fn(&RequestRecord) -> f64, moments| {
        scratch.clear();
        scratch.extend(stored.clone().map(sample));
        Percentiles::from_parts(scratch, moments)
    };
    let ttft = summary(RequestRecord::ttft_s, moments.ttft);
    let tpot = summary(RequestRecord::tpot_s, moments.tpot);
    let e2e = summary(RequestRecord::e2e_s, moments.e2e);
    let (completed, good) = (counts.completed, counts.good);
    let span = run.makespan_s.max(f64::MIN_POSITIVE);
    SloReport {
        ttft,
        tpot,
        e2e,
        completed: completed as u32,
        rejected,
        throughput_rps: completed as f64 / span,
        throughput_tok_s: counts.tokens as f64 / span,
        goodput_rps: good as f64 / span,
        slo_attainment: if completed > 0 {
            good as f64 / completed as f64
        } else {
            f64::NAN
        },
        utilization: run.utilization(),
        peak_batch: run.peak_batch,
        peak_reserved_tokens: run.peak_reserved_tokens,
    }
}

/// One class's slice of a multi-tenant run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSlo {
    /// Class name (from its [`ClassSpec`]).
    pub name: &'static str,
    /// The targets this class was judged against.
    pub slo: SloTargets,
    /// The class's metrics (rates over the shared makespan).
    pub report: SloReport,
}

/// Per-class and aggregate SLO metrics for a multi-tenant run.
///
/// The aggregate judges every record against *its own class's* targets,
/// so per-class counts and rates sum to the aggregate's (the policy
/// property suite asserts this): `completed`, `rejected`,
/// `throughput_rps`, `throughput_tok_s` and `goodput_rps` are additive
/// across classes.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiClassReport {
    /// Whole-run metrics, each record judged per its class SLO.
    pub aggregate: SloReport,
    /// One entry per workload class, in class order.
    pub classes: Vec<ClassSlo>,
}

/// Formats a metric cell, rendering the NaN "no samples" sentinel as
/// "n/a" so an empty class is visibly distinct from a zero-latency or
/// zero-attainment one.
fn cell(v: f64, prec: usize) -> String {
    if v.is_nan() {
        "n/a".to_owned()
    } else {
        num(v, prec)
    }
}

impl MultiClassReport {
    /// Summarises a serve run per SLO class. Records whose class index
    /// is out of range (impossible for tapes generated by
    /// [`crate::RequestSource`]) are judged against interactive targets
    /// in the aggregate and dropped from per-class slices.
    #[must_use]
    pub fn new(report: &ServeReport, classes: &[ClassSpec]) -> Self {
        let mut moments = ClassMoments::default();
        for r in &report.records {
            moments.push(r);
        }
        Self::over(report.records.iter(), &moments, report, classes)
    }

    /// [`MultiClassReport::new`] over records held outside `report`: a
    /// fleet's, `stored` replica by replica, whose latency `moments`
    /// its [`crate::MergeOrder`] folded in completion order. Only the
    /// means need that order; the counts and each summary's quantile
    /// samples are read from `stored`.
    pub(crate) fn over<'a, R>(
        stored: impl Iterator<Item = &'a RequestRecord> + Clone,
        moments: &ClassMoments,
        report: &ServeReport<R>,
        classes: &[ClassSpec],
    ) -> Self {
        let mut aggregate = Counts::default();
        let mut per_class = vec![Counts::default(); classes.len()];
        for r in stored.clone() {
            match classes.get(usize::from(r.class)) {
                Some(spec) => {
                    aggregate.push(r, spec.slo);
                    per_class[usize::from(r.class)].push(r, spec.slo);
                }
                None => aggregate.push(r, SloTargets::interactive()),
            }
        }
        // Every class's sample fits the aggregate's buffer.
        let mut scratch = Vec::with_capacity(aggregate.completed);
        let aggregate = summarise(
            &aggregate,
            &moments.all,
            stored.clone(),
            report.rejected,
            report,
            &mut scratch,
        );
        let per_class = classes
            .iter()
            .zip(&per_class)
            .enumerate()
            .map(|(i, (spec, counts))| {
                let rejected = report
                    .rejected_requests
                    .iter()
                    .filter(|r| usize::from(r.class) == i)
                    .count() as u32;
                ClassSlo {
                    name: spec.name,
                    slo: spec.slo,
                    report: summarise(
                        counts,
                        &moments.by_class.get(i).copied().unwrap_or_default(),
                        stored.clone().filter(|r| usize::from(r.class) == i),
                        rejected,
                        report,
                        &mut scratch,
                    ),
                }
            })
            .collect();
        Self {
            aggregate,
            classes: per_class,
        }
    }

    /// The report for a named class, if present.
    #[must_use]
    pub fn class(&self, name: &str) -> Option<&ClassSlo> {
        self.classes.iter().find(|c| c.name == name)
    }

    /// Renders one row per class plus the aggregate: completion counts,
    /// TTFT/TPOT tails (milliseconds) and goodput.
    #[must_use]
    pub fn table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &[
                "class",
                "done/rej",
                "TTFT p50 (ms)",
                "TTFT p99 (ms)",
                "TPOT p99 (ms)",
                "goodput (req/s)",
                "SLO %",
            ],
        );
        let mut row = |name: &str, r: &SloReport| {
            t.row(&[
                name.to_owned(),
                format!("{}/{}", r.completed, r.rejected),
                cell(r.ttft.p50 * 1e3, 2),
                cell(r.ttft.p99 * 1e3, 2),
                cell(r.tpot.p99 * 1e3, 2),
                num(r.goodput_rps, 1),
                cell(r.slo_attainment * 100.0, 1),
            ]);
        };
        for c in &self.classes {
            row(c.name, &c.report);
        }
        row("(all)", &self.aggregate);
        t
    }
}

impl SloReport {
    /// Renders the report as an aligned text table (milliseconds for
    /// latencies), matching the repo's figure-table style.
    #[must_use]
    pub fn table(&self, title: &str) -> Table {
        let mut t = Table::new(title, &["metric", "p50", "p95", "p99", "mean", "max"]);
        let ms = |p: &Percentiles| -> Vec<String> {
            [p.p50, p.p95, p.p99, p.mean, p.max]
                .iter()
                .map(|v| cell(v * 1e3, 2))
                .collect()
        };
        let mut row = vec!["TTFT (ms)".to_owned()];
        row.extend(ms(&self.ttft));
        t.row(&row);
        let mut row = vec!["TPOT (ms)".to_owned()];
        row.extend(ms(&self.tpot));
        t.row(&row);
        let mut row = vec!["E2E (ms)".to_owned()];
        row.extend(ms(&self.e2e));
        t.row(&row);
        t.row(&[
            "completed / rejected".into(),
            format!("{} / {}", self.completed, self.rejected),
        ]);
        t.row(&[
            "throughput".into(),
            format!(
                "{} req/s, {} tok/s",
                num(self.throughput_rps, 1),
                num(self.throughput_tok_s, 0)
            ),
        ]);
        t.row(&[
            "goodput".into(),
            format!(
                "{} req/s ({}% in SLO)",
                num(self.goodput_rps, 1),
                cell(self.slo_attainment * 100.0, 1)
            ),
        ]);
        t.row(&[
            "decode utilisation".into(),
            format!("{}%", num(self.utilization * 100.0, 1)),
        ]);
        t.row(&[
            "peak batch / KV tokens".into(),
            format!("{} / {}", self.peak_batch, self.peak_reserved_tokens),
        ]);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use crate::cost::AnalyticCostModel;
    use crate::scheduler::{serve, ServeConfig};
    use crate::Workload;
    use rpu_models::LengthDistribution;

    fn report() -> ServeReport {
        serve(
            &Workload::poisson(200.0, 256, 32, 48),
            &mut AnalyticCostModel::small(),
            &ServeConfig::default(),
        )
    }

    fn two_class_report() -> (ServeReport, Vec<ClassSpec>) {
        let classes = vec![
            ClassSpec {
                share: 0.5,
                output_lens: Some(LengthDistribution::Fixed(8)),
                ..ClassSpec::interactive()
            },
            ClassSpec {
                share: 0.5,
                output_lens: Some(LengthDistribution::Fixed(64)),
                ..ClassSpec::batch()
            },
        ];
        let wl = Workload::poisson(500.0, 256, 1, 64).with_classes(classes.clone());
        (
            serve(
                &wl,
                &mut AnalyticCostModel::small(),
                &ServeConfig::default(),
            ),
            classes,
        )
    }

    #[test]
    fn percentiles_are_ordered() {
        let s = SloReport::new(&report(), &SloTargets::interactive());
        assert!(s.ttft.p50 <= s.ttft.p95 && s.ttft.p95 <= s.ttft.p99);
        assert!(s.e2e.p99 <= s.e2e.max);
        assert!(s.ttft.p50 > 0.0);
        assert_eq!(s.completed, 48);
    }

    #[test]
    fn goodput_never_exceeds_throughput() {
        let s = SloReport::new(&report(), &SloTargets::interactive());
        assert!(s.goodput_rps <= s.throughput_rps + 1e-12);
        assert!((0.0..=1.0).contains(&s.slo_attainment));
        assert!((0.0..=1.0 + 1e-9).contains(&s.utilization));
    }

    #[test]
    fn impossible_slo_zeroes_goodput() {
        let slo = SloTargets {
            ttft_s: 0.0,
            tpot_s: 0.0,
        };
        let s = SloReport::new(&report(), &slo);
        assert_eq!(s.goodput_rps, 0.0);
        assert_eq!(s.slo_attainment, 0.0);
    }

    #[test]
    fn table_renders_all_metrics() {
        let s = SloReport::new(&report(), &SloTargets::interactive());
        let rendered = s.table("serve").to_string();
        for needle in ["TTFT", "TPOT", "E2E", "goodput", "utilisation"] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
    }

    #[test]
    fn empty_run_is_well_defined() {
        let r = ServeReport {
            records: vec![],
            rejected: 0,
            rejected_requests: vec![],
            preemptions: 0,
            makespan_s: 0.0,
            decode_busy_s: 0.0,
            prefill_busy_s: 0.0,
            decode_iterations: 0,
            peak_batch: 0,
            peak_reserved_tokens: 0,
        };
        let s = SloReport::new(&r, &SloTargets::interactive());
        assert_eq!(s.completed, 0);
        assert!(
            s.slo_attainment.is_nan(),
            "0-of-0 must not read as an attainment"
        );
        assert_eq!(s.goodput_rps, 0.0, "zero delivered req/s is honest");
        assert!(s.ttft.p99.is_nan(), "no samples, no percentile");
        assert!(s.throughput_rps.is_finite());
        // And the rendering makes the absence visible instead of
        // printing a perfect-looking zero.
        let rendered = s.table("empty").to_string();
        assert!(
            rendered.contains("n/a"),
            "empty run renders n/a:\n{rendered}"
        );
        assert!(
            rendered.contains("(n/a% in SLO)"),
            "attainment renders n/a:\n{rendered}"
        );
    }

    #[test]
    fn empty_class_renders_na_rows() {
        // A two-class workload where one class never completes a
        // request: its row must say "n/a", not "0.00" (which would be
        // indistinguishable from a perfect SLO).
        let (r, mut classes) = two_class_report();
        classes.push(ClassSpec {
            name: "ghost",
            share: 0.0,
            ..ClassSpec::batch()
        });
        let m = MultiClassReport::new(&r, &classes);
        let ghost = m.class("ghost").expect("ghost class");
        assert_eq!(ghost.report.completed, 0);
        assert!(ghost.report.slo_attainment.is_nan());
        let rendered = m.table("classes").to_string();
        let row = rendered
            .lines()
            .find(|l| l.contains("ghost"))
            .expect("ghost row");
        assert!(row.contains("0/0"), "row: {row}");
        assert!(row.contains("n/a"), "row: {row}");
        assert!(!row.contains("0.00"), "zero percentile leaked: {row}");
    }

    #[test]
    fn per_class_counts_sum_to_aggregate() {
        let (r, classes) = two_class_report();
        let m = MultiClassReport::new(&r, &classes);
        assert_eq!(m.classes.len(), 2);
        let sum_completed: u32 = m.classes.iter().map(|c| c.report.completed).sum();
        assert_eq!(sum_completed, m.aggregate.completed);
        let sum_goodput: f64 = m.classes.iter().map(|c| c.report.goodput_rps).sum();
        assert!((sum_goodput - m.aggregate.goodput_rps).abs() < 1e-9);
        let sum_tok: f64 = m.classes.iter().map(|c| c.report.throughput_tok_s).sum();
        assert!((sum_tok - m.aggregate.throughput_tok_s).abs() < 1e-9);
    }

    #[test]
    fn per_class_slices_see_their_own_lengths() {
        let (r, classes) = two_class_report();
        let m = MultiClassReport::new(&r, &classes);
        let interactive = m.class("interactive").expect("interactive class");
        let batch = m.class("batch").expect("batch class");
        assert!(interactive.report.completed > 0 && batch.report.completed > 0);
        // The batch class generates 8x the output tokens per request.
        let per_req = |c: &ClassSlo| c.report.throughput_tok_s / c.report.throughput_rps;
        assert!(per_req(batch) > 4.0 * per_req(interactive));
    }

    #[test]
    fn multi_class_table_lists_every_class_and_aggregate() {
        let (r, classes) = two_class_report();
        let rendered = MultiClassReport::new(&r, &classes)
            .table("classes")
            .to_string();
        for needle in ["interactive", "batch", "(all)", "TTFT"] {
            assert!(rendered.contains(needle), "missing {needle}");
        }
    }
}
