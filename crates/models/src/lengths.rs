//! Prompt/output token-length distributions for request-level serving.
//!
//! A serving workload is characterised by how long its prompts and
//! generations are, not just by one (batch, seq) point. Each
//! distribution here maps a uniform draw `u ∈ [0, 1)` to a token count
//! through its inverse CDF, so sampling is deterministic given the
//! caller's random stream — the serving simulator stays bit-reproducible
//! across runs for a fixed seed.

/// A distribution over token counts (prompt or output lengths).
///
/// # Examples
///
/// ```
/// use rpu_models::LengthDistribution;
///
/// let d = LengthDistribution::Uniform { lo: 100, hi: 300 };
/// assert_eq!(d.sample(0.0), 100);
/// assert_eq!(d.sample(0.9999999), 300);
/// assert!((d.mean() - 200.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum LengthDistribution {
    /// Every request has exactly this many tokens.
    Fixed(u32),
    /// Uniform over `lo ..= hi` tokens.
    Uniform {
        /// Smallest length, inclusive.
        lo: u32,
        /// Largest length, inclusive.
        hi: u32,
    },
    /// Exponential with the given mean, truncated to `1 ..= cap` tokens
    /// (long-tail chat/completion traffic).
    Exponential {
        /// Mean length before truncation.
        mean: f64,
        /// Hard upper truncation (context-window limit).
        cap: u32,
    },
    /// An empirical histogram: `(length, weight)` pairs sampled in
    /// proportion to their weights (trace-derived length mixes).
    Empirical(Vec<(u32, f64)>),
}

impl LengthDistribution {
    /// Maps a uniform draw `u ∈ [0, 1)` to a length via the inverse CDF.
    /// Randomly drawn lengths are always at least one token; an explicit
    /// [`LengthDistribution::Fixed`]`(0)` is honoured as zero, so
    /// adversarial workloads can model empty prompts deliberately.
    ///
    /// # Panics
    ///
    /// Panics on an [`LengthDistribution::Empirical`] histogram that is
    /// empty or has no positive weight.
    #[must_use]
    pub fn sample(&self, u: f64) -> u32 {
        let u = u.clamp(0.0, 1.0 - 1e-12);
        let len = match self {
            Self::Fixed(n) => return *n,
            Self::Uniform { lo, hi } => {
                let (lo, hi) = (*lo.min(hi), *lo.max(hi));
                let span = f64::from(hi - lo) + 1.0;
                lo + (u * span).floor() as u32
            }
            Self::Exponential { mean, cap } => {
                let x = -mean.max(1.0) * (1.0 - u).ln();
                (x.round() as u32).min(*cap)
            }
            Self::Empirical(bins) => {
                let total: f64 = bins.iter().map(|(_, w)| w.max(0.0)).sum();
                assert!(
                    total > 0.0,
                    "empirical length histogram needs positive weight"
                );
                let mut acc = 0.0;
                let mut chosen = bins.last().expect("non-empty histogram").0;
                for (len, w) in bins {
                    acc += w.max(0.0) / total;
                    if u < acc {
                        chosen = *len;
                        break;
                    }
                }
                chosen
            }
        };
        len.max(1)
    }

    /// Expected length, tokens (ignoring the ≥ 1 floor and the
    /// exponential truncation, which shift it negligibly for realistic
    /// parameters).
    #[must_use]
    pub fn mean(&self) -> f64 {
        match self {
            Self::Fixed(n) => f64::from(*n),
            Self::Uniform { lo, hi } => (f64::from(*lo) + f64::from(*hi)) / 2.0,
            Self::Exponential { mean, .. } => mean.max(1.0),
            Self::Empirical(bins) => {
                let total: f64 = bins.iter().map(|(_, w)| w.max(0.0)).sum();
                if total <= 0.0 {
                    return 0.0;
                }
                bins.iter()
                    .map(|(l, w)| f64::from(*l) * w.max(0.0))
                    .sum::<f64>()
                    / total
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_ignores_the_draw() {
        let d = LengthDistribution::Fixed(128);
        assert_eq!(d.sample(0.0), 128);
        assert_eq!(d.sample(0.73), 128);
        assert_eq!(d.mean(), 128.0);
    }

    #[test]
    fn uniform_covers_both_endpoints() {
        let d = LengthDistribution::Uniform { lo: 10, hi: 12 };
        let mut seen = std::collections::HashSet::new();
        for i in 0..100 {
            seen.insert(d.sample(f64::from(i) / 100.0));
        }
        assert_eq!(seen, [10u32, 11, 12].into_iter().collect());
    }

    #[test]
    fn exponential_is_monotone_in_u_and_capped() {
        let d = LengthDistribution::Exponential {
            mean: 200.0,
            cap: 1000,
        };
        assert!(d.sample(0.1) < d.sample(0.9));
        assert_eq!(d.sample(0.999_999_999), 1000);
        // Median of an exponential is mean * ln 2.
        let med = d.sample(0.5);
        assert!((f64::from(med) - 200.0 * 2.0f64.ln()).abs() < 2.0, "{med}");
    }

    #[test]
    fn empirical_respects_weights() {
        let d = LengthDistribution::Empirical(vec![(100, 3.0), (1000, 1.0)]);
        assert_eq!(d.sample(0.5), 100);
        assert_eq!(d.sample(0.8), 1000);
        assert_eq!(d.mean(), 325.0);
    }

    #[test]
    fn random_lengths_are_at_least_one_token() {
        let d = LengthDistribution::Exponential { mean: 1.0, cap: 8 };
        assert!(d.sample(0.0) >= 1);
        let u = LengthDistribution::Uniform { lo: 0, hi: 0 };
        assert!(u.sample(0.5) >= 1);
    }

    #[test]
    fn explicit_fixed_zero_is_honoured() {
        // Zero-length prompts are a deliberate adversarial input, not a
        // sampling artefact: only the Fixed variant may produce them.
        assert_eq!(LengthDistribution::Fixed(0).sample(0.5), 0);
    }
}
