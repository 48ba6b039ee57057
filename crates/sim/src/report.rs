//! Simulation results: latency, utilisation, energy and traces.

use rpu_isa::ShardPlan;
use rpu_models::KernelKind;
use std::collections::HashMap;

/// Per-core energy by component, joules (Fig. 8's power legend).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct EnergyBuckets {
    /// HBM-CO device energy (activation, movement, TSV, IO).
    pub mem_device: f64,
    /// On-chip SRAM reads/writes.
    pub sram: f64,
    /// TMAC array.
    pub tmac: f64,
    /// HP-VOPs.
    pub vops: f64,
    /// Stream-decoder dequantisation.
    pub decode: f64,
    /// Ring network (UCIe links + net-buffer writes).
    pub net: f64,
}

impl EnergyBuckets {
    /// Total energy, joules.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.mem_device + self.sram + self.tmac + self.vops + self.decode + self.net
    }

    /// Memory-subsystem share (device + SRAM), the paper's dominant
    /// component.
    #[must_use]
    pub fn memory_fraction(&self) -> f64 {
        if self.total() == 0.0 {
            0.0
        } else {
            (self.mem_device + self.sram) / self.total()
        }
    }
}

/// Busy time of one kernel on each pipeline (aggregated over layers).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelStat {
    /// Memory-pipeline busy seconds attributed to this kernel.
    pub mem_busy_s: f64,
    /// Compute-pipeline busy seconds.
    pub comp_busy_s: f64,
    /// Network-pipeline busy seconds.
    pub net_busy_s: f64,
}

/// Binned utilisation / power / buffer traces (the Fig. 8 timelines).
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// Bin width, seconds.
    pub bin_s: f64,
    /// Memory-pipeline utilisation per bin (0..1).
    pub mem_util: Vec<f64>,
    /// Compute-pipeline utilisation per bin.
    pub comp_util: Vec<f64>,
    /// Network-pipeline utilisation per bin.
    pub net_util: Vec<f64>,
    /// Average power per bin, watts (per CU: 16 cores).
    pub power_w: Vec<f64>,
    /// Buffer occupancy samples `(time s, occupied bytes)` (per core).
    pub buffer_samples: Vec<(f64, u64)>,
}

/// The result of simulating one decode step on the representative core.
#[derive(Debug, Clone)]
pub struct SimReport {
    /// End-to-end step latency, seconds.
    pub total_time_s: f64,
    /// Memory-pipeline busy time, seconds.
    pub mem_busy_s: f64,
    /// Compute-pipeline busy time, seconds.
    pub comp_busy_s: f64,
    /// Network-pipeline busy time, seconds.
    pub net_busy_s: f64,
    /// Bytes streamed from memory by this core (weights + KV).
    pub streamed_bytes: u64,
    /// Bytes written back to memory (KV appends).
    pub stored_bytes: u64,
    /// FLOPs executed by this core.
    pub flops: f64,
    /// Peak combined buffer occupancy observed, bytes.
    pub peak_buffer_bytes: u64,
    /// Per-core energy by component.
    pub energy: EnergyBuckets,
    /// Per-kernel busy breakdown.
    pub kernels: HashMap<KernelKind, KernelStat>,
    /// Optional binned traces.
    pub trace: Option<Trace>,
    /// The shard plan the program was compiled for.
    pub plan: ShardPlan,
    /// Per-core memory read bandwidth used for utilisation, bytes/s.
    pub core_mem_bandwidth: f64,
    /// Per-core peak compute, FLOP/s.
    pub core_peak_flops: f64,
}

impl SimReport {
    /// Memory-bandwidth utilisation of the step: streamed bytes over the
    /// bandwidth-time product.
    #[must_use]
    pub fn mem_bw_utilization(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.streamed_bytes as f64 / (self.total_time_s * self.core_mem_bandwidth)
    }

    /// Compute utilisation of the step.
    #[must_use]
    pub fn compute_utilization(&self) -> f64 {
        if self.total_time_s == 0.0 {
            return 0.0;
        }
        self.flops / (self.total_time_s * self.core_peak_flops)
    }

    /// System-wide energy for the step, joules: per-core energy times
    /// the core count (mirrored symmetry).
    #[must_use]
    pub fn system_energy_j(&self) -> f64 {
        self.energy.total() * self.plan.total_cores()
    }

    /// Average system power during the step, watts.
    #[must_use]
    pub fn avg_system_power_w(&self) -> f64 {
        if self.total_time_s == 0.0 {
            0.0
        } else {
            self.system_energy_j() / self.total_time_s
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> SimReport {
        SimReport {
            total_time_s: 1e-3,
            mem_busy_s: 0.9e-3,
            comp_busy_s: 0.2e-3,
            net_busy_s: 0.1e-3,
            streamed_bytes: 32_000_000,
            stored_bytes: 1000,
            flops: 1e9,
            peak_buffer_bytes: 123,
            energy: EnergyBuckets {
                mem_device: 6e-3,
                sram: 1e-3,
                tmac: 0.5e-3,
                vops: 0.1e-3,
                decode: 0.05e-3,
                net: 0.2e-3,
            },
            kernels: HashMap::new(),
            trace: None,
            plan: ShardPlan::new(4, 16),
            core_mem_bandwidth: 32e9,
            core_peak_flops: 1e12,
        }
    }

    #[test]
    fn bw_utilization_math() {
        let r = report();
        // 32 MB over 1 ms at 32 GB/s = 100 %.
        assert!((r.mem_bw_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn energy_total_and_memory_fraction() {
        let e = report().energy;
        assert!((e.total() - 7.85e-3).abs() < 1e-9);
        assert!(e.memory_fraction() > 0.85);
    }

    #[test]
    fn system_energy_scales_by_cores() {
        let r = report();
        assert!((r.system_energy_j() - r.energy.total() * 64.0).abs() < 1e-12);
    }

    #[test]
    fn zero_time_degenerate() {
        let mut r = report();
        r.total_time_s = 0.0;
        assert_eq!(r.mem_bw_utilization(), 0.0);
        assert_eq!(r.compute_utilization(), 0.0);
        assert_eq!(r.avg_system_power_w(), 0.0);
    }
}
