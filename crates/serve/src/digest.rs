//! Stable digests of serving reports.
//!
//! A [`ReportDigest`] is a 64-bit FNV-1a hash over every field of a
//! [`ServeReport`] or [`FleetReport`], with floats canonicalised
//! (`-0.0` folds into `+0.0`, every NaN into one bit pattern) so the
//! digest is a pure function of the *values*, not their encodings.
//! Two runs agree on their digest exactly when they produced the same
//! report — which makes digests the currency of the differential
//! machinery: re-run checks compare digests instead of lugging whole
//! reports around.

use crate::fleet::FleetReport;
use crate::request::{Request, RequestRecord};
use crate::scheduler::ServeReport;
use std::fmt;

/// A stable 64-bit digest of a report.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReportDigest(pub u64);

impl fmt::Display for ReportDigest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Streaming FNV-1a 64 hasher feeding a [`ReportDigest`].
#[derive(Debug, Clone)]
pub(crate) struct DigestWriter {
    h: u64,
}

impl DigestWriter {
    /// A hasher at the FNV offset basis.
    #[must_use]
    pub fn new() -> Self {
        Self {
            h: 0xCBF2_9CE4_8422_2325,
        }
    }

    /// Feeds raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.h ^= u64::from(b);
            self.h = self.h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feeds a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Feeds a `usize` as a `u64`.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Feeds an `f64` canonically: `-0.0` hashes as `+0.0` and every
    /// NaN as one fixed pattern, so digests never depend on which of
    /// several equal-valued bit patterns a computation produced.
    pub fn f64(&mut self, v: f64) {
        self.u64(canonical_f64_bits(v));
    }

    /// The finished digest.
    #[must_use]
    pub fn finish(&self) -> ReportDigest {
        ReportDigest(self.h)
    }
}

/// The canonical bit pattern digests hash an `f64` as.
#[must_use]
pub(crate) fn canonical_f64_bits(v: f64) -> u64 {
    if v.is_nan() {
        0x7FF8_0000_0000_0000
    } else if v == 0.0 {
        0 // +0.0 and -0.0 compare equal; hash them the same
    } else {
        v.to_bits()
    }
}

fn hash_request(w: &mut DigestWriter, r: &Request) {
    w.u32(r.id);
    w.f64(r.arrival_s);
    w.u32(r.prompt_len);
    w.u32(r.output_len);
    w.u32(r.tenant);
    w.u64(r.session);
    w.bytes(&[r.class, r.priority]);
    w.f64(r.deadline_s);
}

fn hash_record(w: &mut DigestWriter, r: &RequestRecord) {
    w.u32(r.id);
    w.f64(r.arrival_s);
    w.f64(r.admit_s);
    w.f64(r.first_token_s);
    w.f64(r.finish_s);
    w.u32(r.prompt_len);
    w.u32(r.output_len);
    w.u32(r.tenant);
    w.bytes(&[r.class]);
    w.u32(r.preemptions);
}

/// Hashes a report whose records are `records` — its own, or a fleet
/// aggregate's read through the completion order.
fn hash_serve_report<'a, R>(
    w: &mut DigestWriter,
    records: impl ExactSizeIterator<Item = &'a RequestRecord>,
    r: &ServeReport<R>,
) {
    w.usize(records.len());
    for rec in records {
        hash_record(w, rec);
    }
    w.u32(r.rejected);
    w.usize(r.rejected_requests.len());
    for req in &r.rejected_requests {
        hash_request(w, req);
    }
    w.u32(r.preemptions);
    w.f64(r.makespan_s);
    w.f64(r.decode_busy_s);
    w.f64(r.prefill_busy_s);
    w.u64(r.decode_iterations);
    w.u32(r.peak_batch);
    w.u64(r.peak_reserved_tokens);
}

/// Digest of a single-machine report: every record, rejection and
/// counter, floats canonicalised.
#[must_use]
pub fn digest_serve_report(report: &ServeReport) -> ReportDigest {
    let mut w = DigestWriter::new();
    hash_serve_report(&mut w, report.records.iter(), report);
    w.finish()
}

/// Digest of a fleet report: per-replica reports in replica order, the
/// assignment vector, then the merged aggregate. The aggregate hashes
/// as a report that owns its records in completion order
/// ([`FleetReport::records`]), so the digest is the same bytes whether
/// the aggregate stores records or only their order.
#[must_use]
pub fn digest_fleet_report(report: &FleetReport) -> ReportDigest {
    let mut w = DigestWriter::new();
    w.usize(report.replicas.len());
    for r in &report.replicas {
        hash_serve_report(&mut w, r.records.iter(), r);
    }
    for &n in &report.assigned {
        w.u32(n);
    }
    hash_serve_report(&mut w, report.records(), &report.aggregate);
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::ClassSpec;
    use crate::cost::AnalyticCostModel;
    use crate::fleet::FleetBuilder;
    use crate::metrics::MultiClassReport;
    use crate::policy::Fifo;
    use crate::router::RoundRobin;
    use crate::scheduler::{serve, ServeConfig};
    use crate::Workload;

    #[test]
    fn digest_is_stable_across_runs_and_sensitive_to_the_report() {
        let wl = Workload::poisson(400.0, 128, 16, 24);
        let a = serve(
            &wl,
            &mut AnalyticCostModel::small(),
            &ServeConfig::default(),
        );
        let b = serve(
            &wl,
            &mut AnalyticCostModel::small(),
            &ServeConfig::default(),
        );
        assert_eq!(digest_serve_report(&a), digest_serve_report(&b));
        let other = serve(
            &Workload { seed: 1, ..wl },
            &mut AnalyticCostModel::small(),
            &ServeConfig::default(),
        );
        assert_ne!(digest_serve_report(&a), digest_serve_report(&other));
    }

    #[test]
    fn float_canonicalisation_folds_equivalent_values() {
        assert_eq!(canonical_f64_bits(0.0), canonical_f64_bits(-0.0));
        assert_eq!(canonical_f64_bits(f64::NAN), canonical_f64_bits(-f64::NAN));
        assert_ne!(canonical_f64_bits(1.0), canonical_f64_bits(2.0));
        assert_eq!(canonical_f64_bits(f64::INFINITY), f64::INFINITY.to_bits());
    }

    #[test]
    fn empty_workload_fleet_report_digests_stably() {
        // Satellite regression: a 0-request workload must merge to a
        // digestable report — no NaNs anywhere, same digest every time.
        let run = || {
            let mut fleet = FleetBuilder::new()
                .group(
                    3,
                    &ServeConfig::default(),
                    || Box::new(AnalyticCostModel::small()),
                    || Box::new(Fifo),
                )
                .build();
            fleet.serve(&Workload::default(), &mut RoundRobin::new())
        };
        let a = run();
        let b = run();
        assert_eq!(a.aggregate.records.len(), 0);
        assert_eq!(digest_fleet_report(&a), digest_fleet_report(&b));
        assert_eq!(a.aggregate.makespan_s, 0.0);
        assert!(!a.fleet_utilization().is_nan());
        assert!(!a.imbalance().is_nan());
        for u in a.per_replica_utilization() {
            assert!(!u.is_nan());
        }
    }

    /// The fleet digest as it was when the aggregate owned a sorted
    /// copy of every record: the replicas, the assignments, then an
    /// owned aggregate built by collect-and-sort, hashed field by
    /// field.
    fn owned_aggregate_digest(report: &FleetReport) -> ReportDigest {
        fn hash_owned(w: &mut DigestWriter, r: &ServeReport) {
            w.usize(r.records.len());
            for rec in &r.records {
                hash_record(w, rec);
            }
            w.u32(r.rejected);
            w.usize(r.rejected_requests.len());
            for req in &r.rejected_requests {
                hash_request(w, req);
            }
            w.u32(r.preemptions);
            w.f64(r.makespan_s);
            w.f64(r.decode_busy_s);
            w.f64(r.prefill_busy_s);
            w.u64(r.decode_iterations);
            w.u32(r.peak_batch);
            w.u64(r.peak_reserved_tokens);
        }
        let mut w = DigestWriter::new();
        w.usize(report.replicas.len());
        for r in &report.replicas {
            hash_owned(&mut w, r);
        }
        for &n in &report.assigned {
            w.u32(n);
        }
        hash_owned(&mut w, &owned_aggregate(report));
        w.finish()
    }

    /// The aggregate as it was built when it owned its records: every
    /// replica's records collected and sorted into completion order.
    fn owned_aggregate(report: &FleetReport) -> ServeReport {
        let mut records: Vec<RequestRecord> = report
            .replicas
            .iter()
            .flat_map(|r| r.records.iter().copied())
            .collect();
        records.sort_by(|a, b| a.finish_s.total_cmp(&b.finish_s).then(a.id.cmp(&b.id)));
        report.aggregate.with_records(records)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(64))]

        /// Finish-time ties within and across replicas, signed zeros
        /// and empty replicas: the view digests as the owned, sorted
        /// aggregate did.
        #[test]
        fn view_digest_equals_the_owned_aggregate_digest(
            seed in 0u64..1 << 48,
            width in proptest::sample::select(vec![1usize, 3, 64]),
        ) {
            let report = crate::fleet::tests::report_of(
                crate::fleet::tests::random_replicas(seed, width),
            );
            proptest::prop_assert_eq!(
                digest_fleet_report(&report),
                owned_aggregate_digest(&report)
            );
        }

        /// The SLO summaries of random replicas — classes in and out of
        /// the spec, one class empty, NaN latencies — equal the owned
        /// aggregate's bit for bit: the merge folds the same moments in
        /// the same order as [`MultiClassReport::new`] does.
        #[test]
        fn view_multi_class_equals_the_owned_aggregate_multi_class(
            seed in 0u64..1 << 48,
            width in proptest::sample::select(vec![1usize, 3, 64, 1000]),
        ) {
            let report = crate::fleet::tests::report_of(
                crate::fleet::tests::random_replicas(seed, width),
            );
            let classes = [
                ClassSpec::interactive(),
                ClassSpec::batch(),
                ClassSpec { name: "empty", ..ClassSpec::batch() },
            ];
            proptest::prop_assert_eq!(
                format!("{:?}", report.multi_class(&classes)),
                format!("{:?}", MultiClassReport::new(&owned_aggregate(&report), &classes))
            );
        }

        /// The same on simulated fleets under churn, with half the
        /// replicas too small for the longest prompts rejecting them.
        /// The SLO summaries read through the view (means in completion
        /// order, quantiles from the replicas' records) equal those of
        /// the owned aggregate bit for bit, an empty class's NaNs
        /// included.
        #[test]
        fn churned_fleet_digest_equals_the_owned_aggregate_digest(
            seed in 0u64..1 << 48,
            width in proptest::sample::select(vec![1usize, 3, 64]),
        ) {
            use crate::lifecycle::churn_tape;
            use rpu_models::LengthDistribution;
            let wl = Workload {
                prompt_lens: LengthDistribution::Uniform { lo: 8, hi: 1600 },
                output_lens: LengthDistribution::Uniform { lo: 1, hi: 24 },
                seed,
                classes: vec![ClassSpec::interactive(), ClassSpec::batch()],
                ..Workload::poisson(400.0 * width as f64, 1, 1, 256)
            };
            let small = AnalyticCostModel {
                kv_capacity_tokens: 1024,
                ..AnalyticCostModel::small()
            };
            let mut fleet = FleetBuilder::new()
                .migration_delay_s(0.002)
                .group(
                    width.div_ceil(2),
                    &ServeConfig::default(),
                    || Box::new(small),
                    || Box::new(Fifo),
                )
                .group(
                    width / 2,
                    &ServeConfig::default(),
                    || Box::new(AnalyticCostModel::small()),
                    || Box::new(Fifo),
                )
                .build();
            let mut router = RoundRobin::new();
            let mut run = fleet.start(&wl);
            if width > 1 {
                // Spread over the first half of the arrival span.
                for ev in churn_tape(width as u32, seed, 0.32 / width as f64, 6) {
                    run.inject(ev);
                }
            }
            while run.step(&mut fleet, &mut router) {}
            let report = run.into_report();
            proptest::prop_assert!(report.aggregate.rejected > 0, "no rejections");
            proptest::prop_assert!(width == 1 || report.lifecycle.events() > 0, "no churn");
            proptest::prop_assert_eq!(
                digest_fleet_report(&report),
                owned_aggregate_digest(&report)
            );
            let classes = [
                ClassSpec::interactive(),
                ClassSpec::batch(),
                ClassSpec { name: "unrouted", ..ClassSpec::batch() },
            ];
            proptest::prop_assert_eq!(
                format!("{:?}", report.multi_class(&classes)),
                format!("{:?}", MultiClassReport::new(&owned_aggregate(&report), &classes))
            );
        }
    }

    #[test]
    fn digest_renders_as_sixteen_hex_digits() {
        assert_eq!(format!("{}", ReportDigest(0xAB)), "00000000000000ab");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        let fnv = |bytes: &[u8]| {
            let mut w = DigestWriter::new();
            w.bytes(bytes);
            w.finish().0
        };
        assert_eq!(fnv(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv(b"foobar"), 0x85944171F73967E8);
    }
}
