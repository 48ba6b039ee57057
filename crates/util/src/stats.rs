//! Small statistics helpers used by trace post-processing and the
//! serving metrics.

/// Arithmetic mean of a slice; `0.0` for an empty slice.
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// The `p`-th percentile (`0.0 ..= 100.0`) of a sample set, by linear
/// interpolation between closest ranks; `NaN` for an empty slice — an
/// empty sample set *has* no percentiles, and reporting `0.0` would be
/// indistinguishable from a genuinely instant latency (a class with
/// zero completed requests must not read as a perfect SLO).
///
/// The input need not be sorted; a sorted copy is taken internally.
/// NaN samples have no rank and are ignored (a slice of only NaNs
/// behaves like an empty one); a NaN `p` yields `NaN`; `p` outside
/// `0 ..= 100` clamps. A single sample is every percentile.
///
/// # Examples
///
/// ```
/// use rpu_util::stats::percentile;
///
/// let xs = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(percentile(&xs, 0.0), 1.0);
/// assert_eq!(percentile(&xs, 50.0), 2.5);
/// assert_eq!(percentile(&xs, 100.0), 4.0);
/// assert_eq!(percentile(&[2.0, f64::NAN], 50.0), 2.0);
/// assert!(percentile(&[], 99.0).is_nan());
/// ```
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut clean: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
    percentile_mut(&mut clean, p)
}

/// [`percentile`] without the sort: selection over a caller-owned
/// scratch slice, `O(n)` instead of `O(n log n)` and allocation-free.
/// Returns bit-identical results to [`percentile`] on the same
/// samples — the reporting path's quantile equivalence test pins this
/// exhaustively.
///
/// The slice must already be NaN-free ([`percentile`] filters; here
/// the caller owns that step, so one scratch buffer can serve many
/// quantiles). The slice may be permuted, not sorted: repeated calls
/// at different `p` on the same scratch stay correct, since selection
/// is order-independent. When the low rank of `p` is one of the top
/// two (p99 over at most 101 samples), one scan finds them instead.
///
/// # Panics
///
/// Debug-panics when the slice contains a NaN sample. In release a
/// NaN ranks after every number (`f64::total_cmp` order) instead of
/// being dropped.
#[must_use]
pub fn percentile_mut(xs: &mut [f64], p: f64) -> f64 {
    debug_assert!(
        xs.iter().all(|x| !x.is_nan()),
        "percentile_mut needs a NaN-free slice"
    );
    if p.is_nan() || xs.is_empty() {
        return f64::NAN;
    }
    let (lo, hi, frac) = ranks(xs.len(), p);
    if lo + 2 < xs.len() {
        return select_percentile(xs, 0, p).0;
    }
    // The largest and second-largest samples under `total_cmp`, ties
    // counted: the sorted copy's last two.
    let mut top = xs[0];
    let mut second = None;
    for &x in &xs[1..] {
        if x.total_cmp(&top).is_gt() {
            second = Some(top);
            top = x;
        } else if second.is_none_or(|s| x.total_cmp(&s).is_gt()) {
            second = Some(x);
        }
    }
    let at = |rank: usize| {
        if rank + 1 == xs.len() {
            top
        } else {
            second.expect("a rank below the top needs two samples")
        }
    };
    let (lo_v, hi_v) = (at(lo), at(hi));
    lo_v + frac * (hi_v - lo_v)
}

/// The low and high ranks of `p` among `len` samples, and how far
/// between them the percentile lies.
fn ranks(len: usize, p: f64) -> (usize, usize, f64) {
    let rank = (p.clamp(0.0, 100.0) / 100.0) * (len - 1) as f64;
    let lo = rank.floor() as usize;
    (lo, rank.ceil() as usize, rank - lo as f64)
}

/// [`percentile_mut`]'s selection over the non-empty, NaN-free `xs`,
/// made inside `xs[from..]`: every element before `from` must rank at
/// or below every element from it on, and `from` must not exceed the
/// low rank of `p`. Returns the percentile and that low rank, which
/// partitions `xs` the same way for a later call at a higher `p`.
fn select_percentile(xs: &mut [f64], from: usize, p: f64) -> (f64, usize) {
    let (lo, hi, frac) = ranks(xs.len(), p);
    let (_, &mut lo_v, right) = xs[from..].select_nth_unstable_by(lo - from, f64::total_cmp);
    let hi_v = if hi == lo {
        lo_v
    } else {
        // `hi == lo + 1`, so the next order statistic is the smallest
        // element of the right partition. Ties under `total_cmp` are
        // bit-identical values, so this minimum is exactly the sorted
        // copy's `[hi]`.
        right
            .iter()
            .copied()
            .min_by(f64::total_cmp)
            .expect("hi < len, so the right partition is non-empty")
    };
    (lo_v + frac * (hi_v - lo_v), lo)
}

/// The p50/p95/p99 latency summary used by SLO reporting, with the mean
/// and maximum alongside.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Percentiles {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Largest sample.
    pub max: f64,
}

impl Percentiles {
    /// Summarises a sample set (all fields `NaN` for an empty slice —
    /// "no samples" must not masquerade as "zero latency"). NaN
    /// samples are dropped before summarising, consistently with
    /// [`percentile`], so the mean and maximum stay well-defined.
    #[must_use]
    pub fn from_samples(xs: &[f64]) -> Self {
        let mut scratch: Vec<f64> = xs.to_vec();
        Self::from_scratch(&mut scratch)
    }

    /// [`Percentiles::from_samples`] over a caller-owned scratch
    /// buffer: the mean and maximum accumulate in sample order (so the
    /// mean matches [`Percentiles::from_samples`] bit-for-bit), then
    /// the quantiles are selected as in [`Percentiles::from_parts`].
    /// The buffer is left NaN-free and permuted; reusing it across
    /// metrics amortises the one allocation the summary needs.
    #[must_use]
    pub fn from_scratch(scratch: &mut Vec<f64>) -> Self {
        let mut moments = Moments::new();
        for &x in scratch.iter() {
            moments.push(x);
        }
        Self::from_parts(scratch, moments)
    }

    /// The summary of a sample set whose mean and maximum were already
    /// accumulated into `moments`, in the order the mean must keep,
    /// with the quantiles selected from `scratch` — the same samples
    /// in any order. NaNs are filtered out of `scratch` in place, then
    /// each quantile is selected without sorting, each inside the
    /// previous one's right partition: p95 among the samples at or
    /// above the p50 rank, p99 among those at or above the p95 rank.
    /// Order statistics are exact, so each equals [`percentile`] bit
    /// for bit whatever the order of `scratch`.
    ///
    /// # Panics
    ///
    /// Debug-panics when `scratch` and `moments` count different
    /// non-NaN samples.
    #[must_use]
    pub fn from_parts(scratch: &mut Vec<f64>, moments: Moments) -> Self {
        scratch.retain(|x| !x.is_nan());
        debug_assert_eq!(scratch.len(), moments.n, "moments of other samples");
        if scratch.is_empty() {
            return Self {
                p50: f64::NAN,
                p95: f64::NAN,
                p99: f64::NAN,
                mean: f64::NAN,
                max: f64::NAN,
            };
        }
        let (p50, lo) = select_percentile(scratch, 0, 50.0);
        let (p95, lo) = select_percentile(scratch, lo, 95.0);
        let (p99, _) = select_percentile(scratch, lo, 99.0);
        Self {
            p50,
            p95,
            p99,
            mean: moments.sum / moments.n as f64,
            max: moments.max,
        }
    }
}

/// The order-dependent half of a [`Percentiles`] summary: the count,
/// sum and maximum of a sample stream, NaNs skipped. The sum folds
/// left to right from the seed [`Iterator::sum`] uses, so `sum / n` is
/// [`mean`] of the NaN-free samples, bit for bit. The maximum is taken
/// under [`f64::total_cmp`], so `+0.0` beats `-0.0` in every build
/// (`f64::max` leaves the sign of a zero tie unspecified).
#[derive(Debug, Clone, Copy)]
pub struct Moments {
    n: usize,
    sum: f64,
    max: f64,
}

impl Default for Moments {
    fn default() -> Self {
        Self::new()
    }
}

impl Moments {
    /// No samples yet.
    #[must_use]
    pub fn new() -> Self {
        Self {
            n: 0,
            sum: std::iter::empty::<f64>().sum(),
            max: f64::NEG_INFINITY,
        }
    }

    /// Accumulates `x` unless it is NaN.
    pub fn push(&mut self, x: f64) {
        if !x.is_nan() {
            self.n += 1;
            self.sum += x;
            if x.total_cmp(&self.max).is_gt() {
                self.max = x;
            }
        }
    }
}

/// Linear interpolation of `y` at `x` over sorted `(x, y)` samples.
///
/// Clamps to the first/last sample outside the range. Returns `None` for an
/// empty sample set.
#[must_use]
pub fn interp(samples: &[(f64, f64)], x: f64) -> Option<f64> {
    let first = samples.first()?;
    if x <= first.0 {
        return Some(first.1);
    }
    let last = samples.last().expect("non-empty");
    if x >= last.0 {
        return Some(last.1);
    }
    for w in samples.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if x >= x0 && x <= x1 {
            if x1 == x0 {
                return Some(y0);
            }
            let t = (x - x0) / (x1 - x0);
            return Some(y0 + t * (y1 - y0));
        }
    }
    Some(last.1)
}

/// Accumulates samples into fixed-width time bins (used for power traces).
///
/// # Examples
///
/// ```
/// use rpu_util::stats::Binner;
///
/// let mut b = Binner::new(1.0);
/// b.add(0.5, 2.0);
/// b.add(1.5, 4.0);
/// assert_eq!(b.bins(), &[2.0, 4.0]);
/// ```
#[derive(Debug, Clone)]
pub struct Binner {
    width: f64,
    bins: Vec<f64>,
}

impl Binner {
    /// Creates a binner with the given bin width (same unit as `t` in
    /// [`Binner::add`]).
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    #[must_use]
    pub fn new(width: f64) -> Self {
        assert!(width > 0.0, "bin width must be positive");
        Self {
            width,
            bins: Vec::new(),
        }
    }

    /// Adds `amount` into the bin containing time `t` (negative `t` clamps
    /// to the first bin).
    pub fn add(&mut self, t: f64, amount: f64) {
        let idx = (t.max(0.0) / self.width).floor() as usize;
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// Spreads `amount` uniformly over the interval `[t0, t1)` across bins.
    pub fn add_interval(&mut self, t0: f64, t1: f64, amount: f64) {
        if t1 <= t0 || amount == 0.0 {
            if t1 == t0 {
                self.add(t0, amount);
            }
            return;
        }
        let rate = amount / (t1 - t0);
        let mut t = t0.max(0.0);
        while t < t1 {
            let idx = (t / self.width).floor();
            let mut bin_end = (idx + 1.0) * self.width;
            if bin_end <= t {
                // Floating-point rounding can place the computed bin
                // boundary at or before `t`; skip to the next boundary so
                // the sweep always makes forward progress.
                bin_end = (idx + 2.0) * self.width;
            }
            let seg_end = bin_end.min(t1);
            // Attribute the segment at its midpoint: when rounding
            // forced a boundary skip, `t` itself may sit in the next
            // bin, and the midpoint always lands in the bin that owns
            // the bulk of the segment.
            self.add(0.5 * (t + seg_end), rate * (seg_end - t));
            t = seg_end;
        }
    }

    /// The accumulated bins.
    #[must_use]
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// The bin width supplied at construction.
    #[must_use]
    pub fn width(&self) -> f64 {
        self.width
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_interval_makes_progress_on_hostile_boundaries() {
        // Regression: with a 50 ns bin width, rounding could compute a
        // bin boundary at or before `t`, looping forever. Sweep many
        // boundary-adjacent intervals and require termination + mass
        // conservation.
        let mut b = Binner::new(50e-9);
        let mut total = 0.0;
        for i in 0..10_000u64 {
            let t0 = i as f64 * 50e-9;
            let t1 = t0 + 37.3e-9;
            b.add_interval(t0, t1, 1.0);
            total += 1.0;
        }
        let sum: f64 = b.bins().iter().sum();
        assert!((sum - total).abs() / total < 1e-6, "mass {sum} vs {total}");
    }

    #[test]
    fn mean_basics() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(mean(&[2.0, 4.0]), 3.0);
    }

    /// The sort-based reference [`percentile`] replaced: a full
    /// `total_cmp` sort, then closest-rank interpolation.
    fn percentile_by_sort(xs: &[f64], p: f64) -> f64 {
        if p.is_nan() {
            return f64::NAN;
        }
        let mut sorted: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        if sorted.is_empty() {
            return f64::NAN;
        }
        sorted.sort_by(f64::total_cmp);
        let rank = (p.clamp(0.0, 100.0) / 100.0) * (sorted.len() - 1) as f64;
        let lo = rank.floor() as usize;
        let hi = rank.ceil() as usize;
        let frac = rank - lo as f64;
        sorted[lo] + frac * (sorted[hi] - sorted[lo])
    }

    #[test]
    fn selection_percentile_equals_sort_percentile_exhaustively() {
        // Every sample tuple up to length 4 over a value set chosen to
        // stress the edges — signed zeros, infinities, ties, NaN (which
        // must be dropped, not ranked) — against every interesting p.
        // Bit-for-bit: the selection path is a pure optimisation.
        let values = [
            0.0,
            -0.0,
            1.0,
            -1.5,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::NAN,
            1e-300,
        ];
        let ps = [
            f64::NAN,
            -10.0,
            0.0,
            12.5,
            50.0,
            66.6,
            95.0,
            99.0,
            100.0,
            250.0,
        ];
        let mut cases = 0u64;
        for len in 0..=4usize {
            let combos = values.len().pow(len as u32);
            for seed in 0..combos {
                let mut xs = Vec::with_capacity(len);
                let mut s = seed;
                for _ in 0..len {
                    xs.push(values[s % values.len()]);
                    s /= values.len();
                }
                for &p in &ps {
                    let reference = percentile_by_sort(&xs, p);
                    let fast = percentile(&xs, p);
                    assert_eq!(
                        reference.to_bits(),
                        fast.to_bits(),
                        "diverged on xs={xs:?} p={p}"
                    );
                    cases += 1;
                }
                assert_summary_matches_the_sort(&xs);
            }
        }
        assert!(cases > 30_000, "exhaustive sweep ran {cases} cases");
    }

    /// The nested-selection summary against the sort-based reference,
    /// one quantile at a time, and its mean and maximum against an
    /// in-order fold of the NaN-free samples (the maximum under
    /// `total_cmp`, [`Moments`]' rule for a zero tie).
    fn assert_summary_matches_the_sort(xs: &[f64]) {
        let s = Percentiles::from_scratch(&mut xs.to_vec());
        let got = [s.p50, s.p95, s.p99].map(f64::to_bits);
        let want = [50.0, 95.0, 99.0].map(|p| percentile_by_sort(xs, p).to_bits());
        assert_eq!(got, want, "quantiles diverged on xs={xs:?}");
        let clean: Vec<f64> = xs.iter().copied().filter(|x| !x.is_nan()).collect();
        let (mean, max) = if clean.is_empty() {
            (f64::NAN, f64::NAN)
        } else {
            let max = clean.iter().copied().max_by(f64::total_cmp).unwrap();
            (super::mean(&clean), max)
        };
        assert_eq!(
            (s.mean.to_bits(), s.max.to_bits()),
            (mean.to_bits(), max.to_bits()),
            "mean/max diverged on xs={xs:?}"
        );
        // The quantiles may be selected from the samples in any order.
        let mut moments = Moments::new();
        xs.iter().for_each(|&x| moments.push(x));
        let mut reversed: Vec<f64> = xs.iter().rev().copied().collect();
        let parts = Percentiles::from_parts(&mut reversed, moments);
        let bits = |s: Percentiles| [s.p50, s.p95, s.p99, s.mean, s.max].map(f64::to_bits);
        assert_eq!(bits(parts), bits(s), "from_parts diverged on xs={xs:?}");
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        /// The nested selection at lengths the exhaustive sweep cannot
        /// reach, over a tie-heavy value set with signed zeros,
        /// infinities and NaNs.
        #[test]
        fn nested_selection_matches_the_sort_at_length(
            seed in 0u64..1 << 48,
            len in 5usize..2000,
        ) {
            let values = [0.0, -0.0, 1.0, -1.5, 2.0, f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 1e-300];
            let mut s = seed;
            let xs: Vec<f64> = (0..len)
                .map(|_| {
                    s = s.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
                    if (s >> 60) < 4 {
                        (s >> 40) as f64 / 4096.0
                    } else {
                        values[(s >> 33) as usize % values.len()]
                    }
                })
                .collect();
            assert_summary_matches_the_sort(&xs);
        }
    }

    /// Single quantiles whose low rank is one of the top two (p99 up
    /// to 101 samples, p100 always), which one scan answers, and those
    /// just below, which selection answers, against the sort.
    #[test]
    fn top_two_scan_matches_the_sort() {
        let values = [0.0, -0.0, 1.0, -1.5, 2.0, f64::INFINITY, f64::NEG_INFINITY];
        let mut s = 7u64;
        for len in 1..=130usize {
            for _ in 0..8 {
                let xs: Vec<f64> = (0..len)
                    .map(|_| {
                        s = s
                            .wrapping_mul(6_364_136_223_846_793_005)
                            .wrapping_add(1_442_695_040_888_963_407);
                        if (s >> 60) < 8 {
                            (s >> 56) as f64 / 4.0
                        } else {
                            values[(s >> 33) as usize % values.len()]
                        }
                    })
                    .collect();
                for p in [95.0, 98.0, 99.0, 99.5, 100.0] {
                    assert_eq!(
                        percentile_mut(&mut xs.clone(), p).to_bits(),
                        percentile_by_sort(&xs, p).to_bits(),
                        "p{p} diverged on xs={xs:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn from_scratch_matches_from_samples_and_reuses_the_buffer() {
        let xs = [3.0, f64::NAN, 1.0, 2.0, f64::NAN, -0.0, 9.5];
        let mut scratch: Vec<f64> = Vec::with_capacity(xs.len());
        scratch.extend_from_slice(&xs);
        let cap = scratch.capacity();
        let a = Percentiles::from_scratch(&mut scratch);
        let b = Percentiles::from_samples(&xs);
        assert_eq!(
            (a.p50.to_bits(), a.p95.to_bits(), a.p99.to_bits()),
            (b.p50.to_bits(), b.p95.to_bits(), b.p99.to_bits())
        );
        assert_eq!(a.mean.to_bits(), b.mean.to_bits());
        assert_eq!(a.max.to_bits(), b.max.to_bits());
        assert_eq!(scratch.capacity(), cap, "summary must not reallocate");
        // All-NaN and empty scratches summarise like empty samples.
        scratch.clear();
        scratch.extend_from_slice(&[f64::NAN, f64::NAN]);
        let empty = Percentiles::from_scratch(&mut scratch);
        assert!(empty.p99.is_nan() && empty.mean.is_nan() && empty.max.is_nan());
    }

    #[test]
    fn percentile_interpolates_between_ranks() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert!((percentile(&xs, 50.0) - 50.5).abs() < 1e-12);
        assert!((percentile(&xs, 99.0) - 99.01).abs() < 1e-12);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        // Out-of-range p clamps, single sample is every percentile.
        assert_eq!(percentile(&[7.0], 250.0), 7.0);
        assert!(percentile(&[], 50.0).is_nan());
    }

    #[test]
    fn percentile_edge_cases_are_total() {
        // Empty slice: there is no percentile, and the sentinel must
        // not collide with a real (zero) latency.
        assert!(percentile(&[], 0.0).is_nan());
        assert!(percentile(&[], 100.0).is_nan());
        // Single sample: every percentile is that sample.
        for p in [0.0, 37.5, 50.0, 99.0, 100.0] {
            assert_eq!(percentile(&[42.0], p), 42.0);
        }
        // NaN samples are rank-less and ignored.
        assert_eq!(percentile(&[f64::NAN, 1.0, 3.0], 50.0), 2.0);
        assert!(percentile(&[f64::NAN], 50.0).is_nan());
        assert!(percentile(&[f64::NAN, f64::NAN], 99.0).is_nan());
        // NaN p has no defined rank either.
        assert!(percentile(&[1.0, 2.0], f64::NAN).is_nan());
        // Infinite p clamps like any out-of-range p.
        assert_eq!(percentile(&[1.0, 2.0], f64::INFINITY), 2.0);
        assert_eq!(percentile(&[1.0, 2.0], f64::NEG_INFINITY), 1.0);
    }

    #[test]
    fn percentiles_summary_drops_nan_samples() {
        let s = Percentiles::from_samples(&[1.0, f64::NAN, 3.0]);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.max, 3.0);
        let all_nan = Percentiles::from_samples(&[f64::NAN, f64::NAN]);
        assert!(all_nan.max.is_nan());
        assert!(all_nan.p50.is_nan());
        assert!(all_nan.mean.is_nan());
    }

    #[test]
    fn percentiles_summary() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let s = Percentiles::from_samples(&xs);
        assert_eq!(s.p50, 2.5);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.max, 4.0);
        assert!(s.p95 <= s.p99 && s.p99 <= s.max);
    }

    #[test]
    fn percentiles_of_negative_samples_keep_ordering() {
        let s = Percentiles::from_samples(&[-3.0, -1.0]);
        assert_eq!(s.max, -1.0);
        assert!(s.p50 <= s.p99 && s.p99 <= s.max);
        let empty = Percentiles::from_samples(&[]);
        assert!(empty.max.is_nan());
    }

    #[test]
    fn interp_clamps_and_interpolates() {
        let s = [(0.0, 0.0), (10.0, 100.0)];
        assert_eq!(interp(&s, -5.0), Some(0.0));
        assert_eq!(interp(&s, 5.0), Some(50.0));
        assert_eq!(interp(&s, 20.0), Some(100.0));
        assert_eq!(interp(&[], 1.0), None);
    }

    #[test]
    fn binner_interval_conserves_mass() {
        let mut b = Binner::new(0.25);
        b.add_interval(0.1, 2.3, 10.0);
        let total: f64 = b.bins().iter().sum();
        assert!((total - 10.0).abs() < 1e-9);
    }

    #[test]
    fn binner_zero_length_interval() {
        let mut b = Binner::new(1.0);
        b.add_interval(1.0, 1.0, 5.0);
        assert_eq!(b.bins()[1], 5.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn binner_rejects_zero_width() {
        let _ = Binner::new(0.0);
    }
}
