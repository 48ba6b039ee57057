//! Unit constants and conversions used throughout the workspace.
//!
//! Conventions:
//! - capacities are **bytes** (`f64` for analytics, `u64` in the simulator),
//! - bandwidths are **bytes/second**,
//! - times are **seconds** in analytical models and **picoseconds** (`u64`)
//!   inside the event-driven simulator,
//! - energies are **joules** in totals and **picojoules per bit** for device
//!   coefficients, matching the paper's tables.

/// One kilobyte (decimal, `1e3` bytes).
pub const KB: f64 = 1e3;
/// One megabyte (decimal, `1e6` bytes).
pub const MB: f64 = 1e6;
/// One gigabyte (decimal, `1e9` bytes).
pub const GB: f64 = 1e9;
/// One terabyte (decimal, `1e12` bytes).
pub const TB: f64 = 1e12;

/// One kibibyte (`1024` bytes).
pub const KIB: f64 = 1024.0;
/// One mebibyte (`1024^2` bytes).
pub const MIB: f64 = 1024.0 * 1024.0;
/// One gibibyte (`1024^3` bytes).
pub const GIB: f64 = 1024.0 * 1024.0 * 1024.0;

/// One microsecond in seconds.
pub const US: f64 = 1e-6;
/// One millisecond in seconds.
pub const MS: f64 = 1e-3;
/// One nanosecond in seconds.
pub const NS: f64 = 1e-9;

/// Picoseconds per second (the simulator's clock domain).
pub const PS_PER_S: f64 = 1e12;

/// Converts picojoules to joules.
#[must_use]
pub fn pj_to_j(pj: f64) -> f64 {
    pj * 1e-12
}

/// Converts a per-bit energy in pJ/bit and a byte count into joules.
///
/// # Examples
///
/// ```
/// use rpu_util::units::energy_j;
///
/// // 1 GB moved at 1 pJ/bit is 8 mJ.
/// let j = energy_j(1.0, 1e9);
/// assert!((j - 8e-3).abs() < 1e-9);
/// ```
#[must_use]
pub fn energy_j(pj_per_bit: f64, bytes: f64) -> f64 {
    pj_to_j(pj_per_bit) * bytes * 8.0
}

/// Converts seconds to simulator picoseconds, rounding to the nearest tick.
#[must_use]
pub fn secs_to_ps(s: f64) -> u64 {
    (s * PS_PER_S).round().max(0.0) as u64
}

/// Converts simulator picoseconds to seconds.
#[must_use]
pub fn ps_to_secs(ps: u64) -> f64 {
    ps as f64 / PS_PER_S
}

/// Formats a byte count with a human-friendly binary suffix.
///
/// # Examples
///
/// ```
/// assert_eq!(rpu_util::units::fmt_bytes(768.0 * 1024.0 * 1024.0), "768.0 MiB");
/// ```
#[must_use]
pub fn fmt_bytes(bytes: f64) -> String {
    let abs = bytes.abs();
    if abs >= GIB {
        format!("{:.1} GiB", bytes / GIB)
    } else if abs >= MIB {
        format!("{:.1} MiB", bytes / MIB)
    } else if abs >= KIB {
        format!("{:.1} KiB", bytes / KIB)
    } else {
        format!("{bytes:.0} B")
    }
}

/// Formats a duration in seconds using an adaptive unit (s/ms/µs/ns).
///
/// # Examples
///
/// ```
/// assert_eq!(rpu_util::units::fmt_time(2.9e-3), "2.90 ms");
/// ```
#[must_use]
pub fn fmt_time(secs: f64) -> String {
    let abs = secs.abs();
    if abs >= 1.0 {
        format!("{secs:.2} s")
    } else if abs >= 1e-3 {
        format!("{:.2} ms", secs / MS)
    } else if abs >= 1e-6 {
        format!("{:.2} µs", secs / US)
    } else {
        format!("{:.2} ns", secs / NS)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_of_zero_bytes_is_zero() {
        assert_eq!(energy_j(3.44, 0.0), 0.0);
    }

    #[test]
    fn ps_round_trip() {
        let s = 1.25e-3;
        let ps = secs_to_ps(s);
        assert!((ps_to_secs(ps) - s).abs() < 1e-12);
    }

    #[test]
    fn fmt_bytes_suffixes() {
        assert_eq!(fmt_bytes(512.0), "512 B");
        assert_eq!(fmt_bytes(2048.0), "2.0 KiB");
        assert_eq!(fmt_bytes(48.0 * GIB), "48.0 GiB");
    }

    #[test]
    fn fmt_time_suffixes() {
        assert_eq!(fmt_time(2.0), "2.00 s");
        assert_eq!(fmt_time(450e-9), "450.00 ns");
        assert_eq!(fmt_time(12e-6), "12.00 µs");
    }

    #[test]
    fn gib_vs_gb() {
        let ratio = GIB / GB;
        assert!(ratio > 1.07 && ratio < 1.08);
    }
}
