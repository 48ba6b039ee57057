//! Silicon-area model of the reasoning core and compute-unit die,
//! following the Fig. 6 area/shoreline specification table (N2-class
//! constants).
//!
//! The central claim this model supports (§IV, Contribution 2): *"for
//! the same compute die area, the RPU exposes nearly 10× more memory IO
//! shoreline than the H100 (600 mm vs. 60 mm)"*, because many small
//! chiplets maximise the perimeter-to-area ratio that a reticle-limited
//! monolithic die minimises.

use crate::spec::{CoreSpec, CuSpec};

/// TMAC (8×8 vector-tile multiplier) area, µm² (Fig. 6: 0.16 × 0.08 mm).
pub const TMAC_UM2: f64 = 12_800.0;

/// HP-VOPs unit area, µm² (Fig. 6: 0.16 × 0.01 mm, 8 ops/cycle).
pub const HP_VOPS_UM2: f64 = 1_600.0;

/// Instruction cache area, µm² (Fig. 6: 20 µm × 350 µm).
pub const ICACHE_UM2: f64 = 7_000.0;

/// SRAM density, MB per mm² (Fig. 6 energy/area table, N2).
pub const SRAM_MB_PER_MM2: f64 = 4.0;

/// Memory-bus wiring footprint per core, µm² (Fig. 6: 400 µm × 40 µm).
pub const MEM_BUS_UM2: f64 = 16_000.0;

/// Network-bus wiring footprint per core, µm² (Fig. 6: 400 µm × 100 µm).
pub const NET_BUS_UM2: f64 = 40_000.0;

/// HBM-CO IO shoreline bandwidth density, bytes/s per mm (Fig. 6:
/// 102.5 GB/s/mm).
pub const HBM_IO_GBPS_PER_MM: f64 = 102.5e9;

/// UCIe-S (substrate) shoreline bandwidth density, bytes/s per mm
/// (Fig. 6: 128 GB/s/mm).
pub const UCIE_GBPS_PER_MM: f64 = 128e9;

/// H100 reference die area, mm² (reticle-limited monolithic die).
pub const H100_DIE_MM2: f64 = 814.0;

/// H100 reference memory shoreline, mm (§IV: ~60 mm across its HBM
/// sites).
pub const H100_SHORELINE_MM: f64 = 60.0;

/// Area breakdown of one reasoning core, mm².
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreArea {
    /// Tile multipliers (4 TMACs).
    pub tmacs: f64,
    /// HP-VOPs vector unit.
    pub vops: f64,
    /// SRAM buffers (memory, network, act/acc).
    pub sram: f64,
    /// Instruction cache.
    pub icache: f64,
    /// Memory + network bus wiring.
    pub buses: f64,
}

impl CoreArea {
    /// Total core logic area, mm².
    #[must_use]
    pub fn total(&self) -> f64 {
        self.tmacs + self.vops + self.sram + self.icache + self.buses
    }
}

/// Computes the area of one reasoning core from its specification.
///
/// # Examples
///
/// ```
/// use rpu_arch::{core_area, CoreSpec};
///
/// let a = core_area(&CoreSpec::paper());
/// // A reasoning core is a fraction of a square millimetre.
/// assert!(a.total() < 0.5);
/// ```
#[must_use]
pub fn core_area(core: &CoreSpec) -> CoreArea {
    let sram_mb = core.sram_bytes() as f64 / (1024.0 * 1024.0);
    CoreArea {
        tmacs: f64::from(core.tmacs) * TMAC_UM2 * 1e-6,
        vops: HP_VOPS_UM2 * 1e-6,
        sram: sram_mb / SRAM_MB_PER_MM2,
        icache: ICACHE_UM2 * 1e-6,
        buses: (MEM_BUS_UM2 + NET_BUS_UM2) * 1e-6,
    }
}

/// Shoreline length required to terminate `bandwidth` bytes/s of HBM-CO
/// IO, mm.
#[must_use]
pub fn hbm_shoreline_mm(bandwidth: f64) -> f64 {
    bandwidth / HBM_IO_GBPS_PER_MM
}

/// Memory-IO shoreline per unit compute-die area for a CU, mm per mm².
#[must_use]
pub fn shoreline_per_area(cu: &CuSpec) -> f64 {
    cu.shoreline_mm() / cu.die_area_mm2()
}

/// The §IV headline: RPU shoreline at H100-equivalent total compute die
/// area, mm.
#[must_use]
pub fn rpu_shoreline_at_h100_area(cu: &CuSpec) -> f64 {
    shoreline_per_area(cu) * H100_DIE_MM2
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CoreSpec, CuSpec};

    #[test]
    fn core_logic_fits_its_floorplan_slot() {
        // Fig. 6 allocates 16 cores on a 16 mm x 2.75 mm compute die;
        // each core's logic must fit a sixteenth of it with room for
        // routing and the stream decoder.
        let core = core_area(&CoreSpec::paper());
        let cu = CuSpec::paper();
        let slot = cu.die_area_mm2() / f64::from(cu.cores);
        // ~52 % logic+SRAM, leaving the rest for the stream decoder,
        // pipeline arbiters, routing and the IO shoreline ring.
        assert!(
            core.total() < 0.6 * slot,
            "core {} mm2 vs slot {} mm2",
            core.total(),
            slot
        );
    }

    #[test]
    fn sram_dominates_core_area() {
        // ~832 KB of buffers at 4 MB/mm2 dwarfs 4 TMACs + VOPs: the RPU
        // spends its area on dataflow buffering, not arithmetic.
        let a = core_area(&CoreSpec::paper());
        let sram_fraction = a.sram / a.total();
        assert!(sram_fraction > 0.5, "SRAM fraction {sram_fraction}");
        assert!(a.tmacs < a.sram);
    }

    #[test]
    fn tmac_area_matches_fig6() {
        let a = core_area(&CoreSpec::paper());
        // 4 x 12800 um2.
        assert!((a.tmacs - 4.0 * 12_800.0 * 1e-6).abs() < 1e-12);
    }

    #[test]
    fn cu_shoreline_terminates_its_bandwidth() {
        // A CU's dual 256 GB/s shorelines need 2 x 2.5 mm of HBM-CO IO;
        // its 2 x 16 mm edges provide ample margin.
        let cu = CuSpec::paper();
        let need = hbm_shoreline_mm(512e9);
        assert!(
            need < cu.shoreline_mm(),
            "need {need} mm vs have {}",
            cu.shoreline_mm()
        );
    }

    #[test]
    fn ten_x_shoreline_claim_vs_h100() {
        // §IV: "for the same compute die area, the RPU exposes nearly
        // 10x more memory IO shoreline than the H100 (600mm vs. 60mm)".
        let cu = CuSpec::paper();
        let rpu_mm = rpu_shoreline_at_h100_area(&cu);
        assert!(
            rpu_mm > 400.0 && rpu_mm < 800.0,
            "RPU shoreline at H100 area: {rpu_mm} mm (paper: ~600)"
        );
        let ratio = rpu_mm / H100_SHORELINE_MM;
        assert!(
            ratio > 7.0 && ratio < 13.0,
            "shoreline ratio {ratio} (paper: ~10x)"
        );
    }

    #[test]
    fn breakdown_sums_to_total() {
        let a = core_area(&CoreSpec::paper());
        let sum = a.tmacs + a.vops + a.sram + a.icache + a.buses;
        assert!((a.total() - sum).abs() < 1e-15);
    }
}
