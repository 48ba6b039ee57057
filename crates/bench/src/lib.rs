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
//!
//! Timings here are measurements, not gates. The one speed gate is
//! `scripts/perf_ab.py`, which times the whole-run benchmark at a base
//! revision and at the working tree on the same machine.

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

#[cfg(test)]
mod tests {
    use super::checks::expect_band;

    #[test]
    fn expect_band_accepts_inside() {
        expect_band("x", 1.0, 0.5, 2.0);
    }

    #[test]
    #[should_panic(expected = "outside expected band")]
    fn expect_band_rejects_outside() {
        expect_band("x", 3.0, 0.5, 2.0);
    }
}
