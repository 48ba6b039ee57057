//! A tiny deterministic random stream for workload generation.
//!
//! The serving simulator must be bit-reproducible: two runs with the
//! same seed produce identical request tapes, schedules and SLO numbers.
//! SplitMix64 gives a full-period 64-bit stream from one seed with no
//! external dependencies.

/// Deterministic splitmix64 generator.
///
/// # Examples
///
/// ```
/// use rpu_serve::ServeRng;
///
/// let mut a = ServeRng::new(7);
/// let mut b = ServeRng::new(7);
/// assert_eq!(a.next_f64(), b.next_f64());
/// ```
#[derive(Debug, Clone)]
pub struct ServeRng(u64);

impl ServeRng {
    /// Creates a generator from a 64-bit seed.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        Self(seed)
    }

    /// Returns the next raw 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a uniform `f64` in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns an exponentially distributed draw with the given mean
    /// (inter-arrival times of a Poisson process).
    pub fn next_exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.next_f64()).ln()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_seed_sensitive() {
        let mut a = ServeRng::new(1);
        let mut b = ServeRng::new(1);
        let mut c = ServeRng::new(2);
        let (xa, xb, xc) = (a.next_u64(), b.next_u64(), c.next_u64());
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn uniform_draws_stay_in_unit_interval() {
        let mut r = ServeRng::new(99);
        for _ in 0..10_000 {
            let u = r.next_f64();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn exponential_mean_converges() {
        let mut r = ServeRng::new(3);
        let n = 50_000;
        let sum: f64 = (0..n).map(|_| r.next_exp(0.25)).sum();
        let mean = sum / f64::from(n);
        assert!((mean - 0.25).abs() < 0.01, "mean {mean}");
    }
}
