//! HBM-CO stack configuration and derived bandwidth/capacity geometry.

use std::fmt;

/// Capacity of a single DRAM bank at 1.0× sub-array scaling, in bytes.
///
/// 24 MiB per bank: the HBM3e-like baseline (4 ranks × 4 layers × 4
/// channels × 2 pseudo-channels × 4 bank groups × 4 banks = 2048 banks)
/// totals exactly 48 GiB, matching the "48 GB" HBM3e stack the paper
/// cites (DRAM capacities are binary).
pub const BANK_CAPACITY_BYTES: f64 = 24.0 * 1024.0 * 1024.0;

/// Bandwidth of one pseudo-channel: 256 bits per 1 GHz cycle = 32 GB/s,
/// as described in Section III of the paper.
pub const PCH_BANDWIDTH: f64 = 32e9;

/// Parameterised HBM-CO stack configuration.
///
/// Bandwidth is set by the interface geometry (`layers_per_rank ×
/// channels_per_layer × pseudo_channels` pseudo-channels at 32 GB/s each);
/// only one rank drives the interface at a time, and only one bank per
/// bank group is needed to saturate a pseudo-channel (sub-array level
/// parallelism), so `ranks`, `banks_per_group` and `subarray_scale` are
/// pure capacity knobs — the paper's key insight.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmCoConfig {
    /// Number of ranks stacked on the shared interface (1–4). Capacity
    /// scales linearly; bandwidth is unchanged.
    pub ranks: u32,
    /// DRAM dies per rank (HBM convention: 4).
    pub layers_per_rank: u32,
    /// Channels per DRAM layer (1–4). Scales bandwidth *and* capacity,
    /// leaving BW/Cap unchanged while shrinking the die and shoreline.
    pub channels_per_layer: u32,
    /// Pseudo-channels per channel (HBM convention: 2).
    pub pseudo_channels: u32,
    /// Bank groups per pseudo-channel (HBM convention: 4).
    pub bank_groups: u32,
    /// Banks per bank group (1, 2 or 4). Pure capacity knob.
    pub banks_per_group: u32,
    /// Sub-array scaling of bank capacity (0.5, 0.75 or 1.0). Pure
    /// capacity knob.
    pub subarray_scale: f64,
}

/// Error returned by [`HbmCoConfig::validate`] for out-of-range fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError {
    field: &'static str,
    detail: String,
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid HBM-CO config: {} ({})", self.field, self.detail)
    }
}

impl std::error::Error for ConfigError {}

impl HbmCoConfig {
    /// The HBM3e-like baseline: 4 ranks × 4 layers, 4 channels/layer,
    /// full banks and sub-arrays → 48 GB, 1.024 TB/s.
    #[must_use]
    pub fn hbm3e_like() -> Self {
        Self {
            ranks: 4,
            layers_per_rank: 4,
            channels_per_layer: 4,
            pseudo_channels: 2,
            bank_groups: 4,
            banks_per_group: 4,
            subarray_scale: 1.0,
        }
    }

    /// The paper's candidate Pareto-optimal HBM-CO: ranks 4→1,
    /// banks/group 4→1, channels/layer 4→1, keeping 4 layers per rank →
    /// 768 MiB, 256 GB/s, BW/Cap ≈ 318/s (the paper's decimal-unit
    /// convention reports 341/s).
    #[must_use]
    pub fn candidate() -> Self {
        Self {
            ranks: 1,
            channels_per_layer: 1,
            banks_per_group: 1,
            ..Self::hbm3e_like()
        }
    }

    /// Checks all fields against the manufacturable ranges used in the
    /// paper's design space.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] naming the offending field.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let err = |field, detail: String| Err(ConfigError { field, detail });
        if !(1..=4).contains(&self.ranks) {
            return err("ranks", format!("{} not in 1..=4", self.ranks));
        }
        if self.layers_per_rank != 4 {
            return err("layers_per_rank", format!("{} != 4", self.layers_per_rank));
        }
        if !(1..=4).contains(&self.channels_per_layer) {
            return err(
                "channels_per_layer",
                format!("{} not in 1..=4", self.channels_per_layer),
            );
        }
        if self.pseudo_channels != 2 {
            return err("pseudo_channels", format!("{} != 2", self.pseudo_channels));
        }
        if self.bank_groups != 4 {
            return err("bank_groups", format!("{} != 4", self.bank_groups));
        }
        if ![1, 2, 4].contains(&self.banks_per_group) {
            return err(
                "banks_per_group",
                format!("{} not in {{1,2,4}}", self.banks_per_group),
            );
        }
        if ![0.5, 0.75, 1.0].contains(&self.subarray_scale) {
            return err(
                "subarray_scale",
                format!("{} not in {{0.5,0.75,1.0}}", self.subarray_scale),
            );
        }
        Ok(())
    }

    /// Total DRAM dies in the stack.
    #[must_use]
    pub fn total_layers(&self) -> u32 {
        self.ranks * self.layers_per_rank
    }

    /// Pseudo-channels exposed on the interface (one active rank).
    #[must_use]
    pub fn num_pchs(&self) -> u32 {
        self.layers_per_rank * self.channels_per_layer * self.pseudo_channels
    }

    /// Stack bandwidth in bytes/second.
    #[must_use]
    pub fn bandwidth_bytes_per_s(&self) -> f64 {
        f64::from(self.num_pchs()) * PCH_BANDWIDTH
    }

    /// Stack capacity in bytes.
    #[must_use]
    pub fn capacity_bytes(&self) -> f64 {
        f64::from(self.ranks)
            * f64::from(self.layers_per_rank)
            * f64::from(self.channels_per_layer)
            * f64::from(self.pseudo_channels)
            * f64::from(self.bank_groups)
            * f64::from(self.banks_per_group)
            * self.subarray_scale
            * BANK_CAPACITY_BYTES
    }

    /// Capacity behind a single pseudo-channel, i.e. per RPU core, in
    /// bytes.
    #[must_use]
    pub fn capacity_per_pch(&self) -> f64 {
        self.capacity_bytes() / f64::from(self.num_pchs())
    }

    /// Bandwidth-to-capacity ratio in 1/seconds — the paper's key metric
    /// for latency-bound inference.
    #[must_use]
    pub fn bw_per_cap(&self) -> f64 {
        self.bandwidth_bytes_per_s() / self.capacity_bytes()
    }

    /// Short human-readable label, e.g. `R1 B1 C1 S1.00`.
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "R{} B{} C{} S{:.2}",
            self.ranks, self.banks_per_group, self.channels_per_layer, self.subarray_scale
        )
    }
}

impl fmt::Display for HbmCoConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ranks | {} banks/group | {} ch/layer | {:.2}x sub-arrays",
            self.ranks, self.banks_per_group, self.channels_per_layer, self.subarray_scale
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_util::assert_approx;
    use rpu_util::units::{GIB, MIB};

    #[test]
    fn hbm3e_like_geometry() {
        let c = HbmCoConfig::hbm3e_like();
        c.validate().unwrap();
        assert_approx(c.capacity_bytes(), 48.0 * GIB, 1e-9, "HBM3e capacity");
        assert_approx(c.bandwidth_bytes_per_s(), 1024e9, 1e-9, "HBM3e bandwidth");
        assert_eq!(c.num_pchs(), 32);
        assert_eq!(c.total_layers(), 16);
        // Paper: BW/Cap ~ 27/s for an HBM3e stack (1280/48); our 1 TB/s
        // convention gives ~21/s — same order.
        assert!(c.bw_per_cap() > 15.0 && c.bw_per_cap() < 30.0);
    }

    #[test]
    fn candidate_geometry() {
        let c = HbmCoConfig::candidate();
        c.validate().unwrap();
        // Paper labels this "768 MB"; exactly 1/64 of the 48 GiB stack.
        assert_approx(c.capacity_bytes(), 768.0 * MIB, 1e-9, "candidate capacity");
        assert_approx(
            c.bandwidth_bytes_per_s(),
            256e9,
            1e-9,
            "candidate bandwidth",
        );
        // Paper: BW/Cap = 341 in its decimal convention; 318 in strict SI.
        assert_approx(c.bw_per_cap(), 341.3, 0.08, "candidate BW/Cap");
        assert_eq!(c.num_pchs(), 8);
        assert_approx(c.capacity_per_pch(), 96.0 * MIB, 1e-9, "candidate MiB/core");
    }

    #[test]
    fn fig9_optimum_is_192mb_per_core() {
        // The Fig. 9 optimum for Llama3-405B on 64 CUs: the candidate
        // with a second rank.
        let c = HbmCoConfig {
            ranks: 2,
            ..HbmCoConfig::candidate()
        };
        c.validate().unwrap();
        assert_approx(
            c.capacity_per_pch(),
            192.0 * MIB,
            1e-9,
            "Fig.9 optimum MiB/core",
        );
        // Bandwidth is unchanged by the extra rank.
        assert_approx(c.bandwidth_bytes_per_s(), 256e9, 1e-9, "Fig.9 optimum BW");
    }

    #[test]
    fn capacity_knobs_do_not_change_bandwidth() {
        let base = HbmCoConfig::candidate();
        for ranks in 1..=4 {
            for banks in [1, 2, 4] {
                for sa in [0.5, 0.75, 1.0] {
                    let c = HbmCoConfig {
                        ranks,
                        banks_per_group: banks,
                        subarray_scale: sa,
                        ..base
                    };
                    assert_eq!(c.bandwidth_bytes_per_s(), base.bandwidth_bytes_per_s());
                }
            }
        }
    }

    #[test]
    fn channels_preserve_bw_per_cap() {
        let c1 = HbmCoConfig {
            channels_per_layer: 1,
            ..HbmCoConfig::hbm3e_like()
        };
        let c4 = HbmCoConfig::hbm3e_like();
        assert_approx(
            c1.bw_per_cap(),
            c4.bw_per_cap(),
            1e-12,
            "channels BW/Cap invariance",
        );
    }

    #[test]
    fn validation_errors_name_fields() {
        let bad = HbmCoConfig {
            ranks: 7,
            ..HbmCoConfig::hbm3e_like()
        };
        let err = bad.validate().unwrap_err();
        assert!(err.to_string().contains("ranks"));

        let bad = HbmCoConfig {
            banks_per_group: 3,
            ..HbmCoConfig::hbm3e_like()
        };
        assert!(bad
            .validate()
            .unwrap_err()
            .to_string()
            .contains("banks_per_group"));

        let bad = HbmCoConfig {
            subarray_scale: 0.9,
            ..HbmCoConfig::hbm3e_like()
        };
        assert!(bad.validate().is_err());
    }

    #[test]
    fn display_is_fig9_style() {
        let s = HbmCoConfig {
            ranks: 2,
            ..HbmCoConfig::candidate()
        }
        .to_string();
        assert!(s.contains("2 ranks"));
        assert!(s.contains("1 banks/group"));
    }
}
