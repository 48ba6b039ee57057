//! GPU execution-time model for tensor-parallel inference.

use crate::bwutil::bw_utilization;
use crate::power::{gpu_power_w, DECODE_BW_UTIL};
use crate::spec::GpuSpec;
use rpu_models::{DecodeWorkload, Kernel, PrefillWorkload};

/// A tensor-parallel GPU system (e.g. 4×H100 with full TP sharding).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GpuSystem {
    /// Per-device specification.
    pub spec: GpuSpec,
    /// Number of devices, tensor-parallel.
    pub num_gpus: u32,
}

impl GpuSystem {
    /// Creates a system of `num_gpus` identical devices.
    ///
    /// # Panics
    ///
    /// Panics if `num_gpus` is zero.
    #[must_use]
    pub fn new(spec: GpuSpec, num_gpus: u32) -> Self {
        assert!(num_gpus > 0, "a GPU system needs at least one device");
        Self { spec, num_gpus }
    }

    /// Aggregate TDP, watts.
    #[must_use]
    pub fn tdp_w(&self) -> f64 {
        self.spec.tdp_w * f64::from(self.num_gpus)
    }

    /// Aggregate peak memory bandwidth, bytes/s.
    #[must_use]
    pub fn mem_bandwidth(&self) -> f64 {
        self.spec.mem_bandwidth * f64::from(self.num_gpus)
    }

    /// Execution time of one kernel under tensor-parallel sharding,
    /// including the launch overhead.
    #[must_use]
    pub fn kernel_time(&self, kernel: &Kernel) -> f64 {
        let n = f64::from(self.num_gpus);
        // Utilisation is keyed on the per-GPU streamed working set.
        let ws =
            (kernel.weight_bytes + kernel.kv_read_bytes).max(kernel.total_mem_bytes() * 0.1) / n;
        let util = bw_utilization(ws);
        let t_mem = kernel.total_mem_bytes() / n / (self.spec.mem_bandwidth * util);
        let t_comp = kernel.flops / n / (self.spec.peak_bf16_flops * self.spec.compute_efficiency);
        t_mem.max(t_comp) + self.spec.kernel_launch_s
    }

    /// Latency of one tensor-parallel all-reduce of `msg_bytes`.
    #[must_use]
    pub fn allreduce_time(&self, msg_bytes: f64) -> f64 {
        if self.num_gpus <= 1 {
            return 0.0;
        }
        let n = f64::from(self.num_gpus);
        let wire = 2.0 * (n - 1.0) / n * msg_bytes / self.spec.nvlink_bandwidth;
        wire + self.spec.collective_base_s * n
    }

    /// Latency of one full decode step (one token per query in the
    /// batch): all layer kernels plus two tensor-parallel all-reduces per
    /// layer (post-attention and post-FFN, the vLLM column/row-parallel
    /// pattern).
    #[must_use]
    pub fn decode_step_latency(&self, wl: &DecodeWorkload) -> f64 {
        let kernel_time: f64 = wl.kernels().iter().map(|k| self.kernel_time(k)).sum();
        let msg = f64::from(wl.batch)
            * f64::from(wl.model.hidden)
            * wl.precision.activations.bytes_per_value();
        let collectives = 2.0 * f64::from(wl.model.num_layers) * self.allreduce_time(msg);
        kernel_time + collectives
    }

    /// Average power during decode, watts (aggregate over all GPUs).
    ///
    /// Compute utilisation is derived from the workload's roofline
    /// position; bandwidth utilisation uses the paper's measured decode
    /// aggregate.
    #[must_use]
    pub fn decode_power_w(&self, wl: &DecodeWorkload) -> f64 {
        let t = self.decode_step_latency(&wl.clone());
        let n = f64::from(self.num_gpus);
        let comp_util = (wl.flops() / n / t / self.spec.peak_bf16_flops).clamp(0.0, 1.0);
        let bw_util = (wl.total_mem_bytes() / n / t / self.spec.mem_bandwidth)
            .clamp(0.0, 1.0)
            .max(DECODE_BW_UTIL.min(0.9) * 0.0 + 0.0)
            .max(0.05);
        n * gpu_power_w(&self.spec, comp_util, bw_util)
    }

    /// Energy per generated token (whole batch step), joules.
    #[must_use]
    pub fn decode_step_energy_j(&self, wl: &DecodeWorkload) -> f64 {
        self.decode_power_w(wl) * self.decode_step_latency(wl)
    }

    /// Prefill latency for a prompt batch, seconds (compute-bound with
    /// the measured prefill efficiency).
    #[must_use]
    pub fn prefill_latency(&self, wl: &PrefillWorkload) -> f64 {
        let n = f64::from(self.num_gpus);
        let t_comp = wl.flops() / n / (self.spec.peak_bf16_flops * self.spec.compute_efficiency);
        let t_mem = wl.bytes() / n / self.spec.mem_bandwidth;
        t_comp.max(t_mem)
    }

    /// Effective aggregate bandwidth utilisation during a decode step.
    #[must_use]
    pub fn effective_bw_utilization(&self, wl: &DecodeWorkload) -> f64 {
        let t = self.decode_step_latency(wl);
        wl.streaming_bytes() / t / self.mem_bandwidth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_models::{ModelConfig, Precision};

    fn wl_70b(batch: u32) -> DecodeWorkload {
        DecodeWorkload::new(
            &ModelConfig::llama3_70b(),
            Precision::gpu_w4a16(),
            batch,
            8192,
        )
    }

    #[test]
    fn bs1_70b_on_2xh100_tens_of_ms() {
        // Calibration target: ~47x slower than a ~144-CU RPU (~0.5 ms).
        let t = GpuSystem::new(GpuSpec::h100_sxm(), 2).decode_step_latency(&wl_70b(1));
        assert!(t > 15e-3 && t < 30e-3, "2xH100 70B BS1 latency {t}");
    }

    #[test]
    fn bs1_405b_on_4xh100_tens_of_ms() {
        let wl = DecodeWorkload::new(&ModelConfig::llama3_405b(), Precision::gpu_w4a16(), 1, 8192);
        let t = GpuSystem::new(GpuSpec::h100_sxm(), 4).decode_step_latency(&wl);
        assert!(t > 35e-3 && t < 75e-3, "4xH100 405B BS1 latency {t}");
    }

    #[test]
    fn effective_decode_bw_util_near_measured() {
        // §II: ~32 % of peak bandwidth during distributed decode. Our
        // model should land in the 15-40 % band for BS=1 70B.
        let sys = GpuSystem::new(GpuSpec::h100_sxm(), 2);
        let u = sys.effective_bw_utilization(&wl_70b(1));
        assert!(u > 0.15 && u < 0.40, "effective BW util {u}");
    }

    #[test]
    fn batching_improves_throughput_not_latency() {
        let sys = GpuSystem::new(GpuSpec::h100_sxm(), 2);
        let t1 = sys.decode_step_latency(&wl_70b(1));
        let t32 = sys.decode_step_latency(&wl_70b(32));
        assert!(t32 > t1, "BS32 step slower than BS1 step");
        let (tp1, tp32) = (1.0 / t1, 32.0 / t32);
        assert!(tp32 > 5.0 * tp1, "BS32 throughput {tp32} vs BS1 {tp1}");
    }

    #[test]
    fn more_gpus_cut_latency_sublinearly() {
        let t2 = GpuSystem::new(GpuSpec::h100_sxm(), 2).decode_step_latency(&wl_70b(1));
        let t8 = GpuSystem::new(GpuSpec::h100_sxm(), 8).decode_step_latency(&wl_70b(1));
        assert!(t8 < t2);
        // Smaller shards lower per-kernel utilisation: < 4x gain from 4x
        // devices.
        assert!(t2 / t8 < 4.0, "speedup {}", t2 / t8);
    }

    #[test]
    fn h200_faster_than_h100() {
        let t100 = GpuSystem::new(GpuSpec::h100_sxm(), 8).decode_step_latency(&wl_70b(1));
        let t200 = GpuSystem::new(GpuSpec::h200(), 8).decode_step_latency(&wl_70b(1));
        assert!(t200 < t100);
    }

    #[test]
    fn decode_power_in_measured_band() {
        // Decode should sit well under TDP (paper: ~34 % of TDP).
        let sys = GpuSystem::new(GpuSpec::h100_sxm(), 2);
        let p = sys.decode_power_w(&wl_70b(32)) / sys.tdp_w();
        assert!(p > 0.1 && p < 0.6, "decode TDP fraction {p}");
    }

    #[test]
    fn prefill_is_compute_bound() {
        let m = ModelConfig::llama3_70b();
        let wl = PrefillWorkload::new(&m, Precision::fp8_weights(), 32, 16384);
        let sys = GpuSystem::new(GpuSpec::h100_sxm(), 4);
        let t = sys.prefill_latency(&wl);
        let n = 4.0;
        let t_comp = wl.flops() / n / (sys.spec.peak_bf16_flops * sys.spec.compute_efficiency);
        assert!((t - t_comp).abs() < 1e-12, "prefill must be compute-bound");
    }

    #[test]
    fn allreduce_zero_for_single_gpu() {
        assert_eq!(
            GpuSystem::new(GpuSpec::h100_sxm(), 1).allreduce_time(1e6),
            0.0
        );
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_gpus_rejected() {
        let _ = GpuSystem::new(GpuSpec::h100_sxm(), 0);
    }
}
