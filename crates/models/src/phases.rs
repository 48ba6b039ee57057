//! Prefill and decode phase workloads (the Splitwise/Dynamo split the
//! paper assumes: prefill on GPUs, decode on the RPU).

use crate::config::ModelConfig;
use crate::dtype::Precision;
use crate::kernels::{layer_kernels, lm_head_kernel, Kernel};

/// One token-generation (decode) step across the whole model.
///
/// Aggregates the per-layer kernel decomposition plus the LM head.
#[derive(Debug, Clone)]
pub struct DecodeWorkload {
    /// The model being decoded.
    pub model: ModelConfig,
    /// Deployment precision.
    pub precision: Precision,
    /// Concurrent queries.
    pub batch: u32,
    /// Context length of each query.
    pub seq_len: u32,
    kernels: Vec<Kernel>,
}

impl DecodeWorkload {
    /// Builds the workload for one decode step.
    #[must_use]
    pub fn new(model: &ModelConfig, precision: Precision, batch: u32, seq_len: u32) -> Self {
        let mut kernels = Vec::new();
        for layer in 0..model.num_layers {
            kernels.extend(layer_kernels(model, precision, batch, seq_len, layer));
        }
        kernels.push(lm_head_kernel(model, precision, batch));
        Self {
            model: *model,
            precision,
            batch,
            seq_len,
            kernels,
        }
    }

    /// All kernels of the step, in execution order.
    #[must_use]
    pub fn kernels(&self) -> &[Kernel] {
        &self.kernels
    }

    /// Total FLOPs of the step.
    #[must_use]
    pub fn flops(&self) -> f64 {
        self.kernels.iter().map(|k| k.flops).sum()
    }

    /// Weight bytes streamed in the step.
    #[must_use]
    pub fn weight_bytes(&self) -> f64 {
        self.kernels.iter().map(|k| k.weight_bytes).sum()
    }

    /// KV-cache bytes read in the step.
    #[must_use]
    pub fn kv_read_bytes(&self) -> f64 {
        self.kernels.iter().map(|k| k.kv_read_bytes).sum()
    }

    /// Fundamental streaming traffic: weights + KV reads + KV writes.
    #[must_use]
    pub fn streaming_bytes(&self) -> f64 {
        self.kernels.iter().map(Kernel::streaming_bytes).sum()
    }

    /// GPU-style memory traffic including activation round-trips.
    #[must_use]
    pub fn total_mem_bytes(&self) -> f64 {
        self.kernels.iter().map(Kernel::total_mem_bytes).sum()
    }

    /// Average arithmetic intensity of the step, FLOPs/byte, over the
    /// fundamental streaming traffic.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops() / self.streaming_bytes()
    }
}

/// A prefill phase: `prompt_len` tokens processed in parallel for each of
/// `batch` queries.
///
/// Prefill is compute-bound: weights are read once while every token
/// multiplies against them, and attention grows quadratically.
#[derive(Debug, Clone, Copy)]
pub struct PrefillWorkload {
    /// The model.
    pub model: ModelConfig,
    /// Deployment precision.
    pub precision: Precision,
    /// Concurrent queries.
    pub batch: u32,
    /// Prompt tokens per query.
    pub prompt_len: u32,
}

impl PrefillWorkload {
    /// Builds a prefill workload.
    #[must_use]
    pub fn new(model: &ModelConfig, precision: Precision, batch: u32, prompt_len: u32) -> Self {
        Self {
            model: *model,
            precision,
            batch,
            prompt_len,
        }
    }

    /// Total FLOPs: 2 × active-params × tokens, plus causal attention
    /// (~seq²) terms.
    #[must_use]
    pub fn flops(&self) -> f64 {
        let m = &self.model;
        let tokens = f64::from(self.batch) * f64::from(self.prompt_len);
        let mut param_flops = 0.0;
        for idx in 0..m.num_layers {
            param_flops += m.attn_params_per_layer() + m.layer_active_ffn_params(idx);
        }
        // Causal attention: sum over positions ~ S^2/2 per head pair.
        let s = f64::from(self.prompt_len);
        let attn = 4.0
            * f64::from(m.num_layers)
            * f64::from(m.num_heads)
            * f64::from(m.head_dim)
            * (s * s / 2.0)
            * f64::from(self.batch);
        2.0 * param_flops * tokens + attn
    }

    /// Memory traffic: one weight pass plus the KV cache written.
    #[must_use]
    pub fn bytes(&self) -> f64 {
        let kv = self.model.kv_bytes_per_token(self.precision)
            * f64::from(self.batch)
            * f64::from(self.prompt_len);
        self.model.weight_bytes(self.precision) + kv
    }

    /// Arithmetic intensity, FLOPs/byte.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        self.flops() / self.bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_util::assert_approx;

    #[test]
    fn decode_streams_full_dense_model() {
        let m = ModelConfig::llama3_70b();
        let p = Precision::mxfp4_inference();
        let wl = DecodeWorkload::new(&m, p, 1, 8192);
        // Streamed weights ~= stored weights for a dense model.
        assert_approx(
            wl.weight_bytes(),
            m.weight_bytes(p),
            1e-9,
            "dense streaming",
        );
    }

    #[test]
    fn maverick_streams_only_active_experts() {
        let m = ModelConfig::llama4_maverick();
        let p = Precision::mxfp4_inference();
        let wl = DecodeWorkload::new(&m, p, 1, 8192);
        // ~17B active of ~400B total at BS=1.
        assert!(wl.weight_bytes() < 0.1 * m.weight_bytes(p));
    }

    #[test]
    fn decode_flops_track_active_params() {
        let m = ModelConfig::llama3_8b();
        let p = Precision::mxfp4_inference();
        let wl = DecodeWorkload::new(&m, p, 1, 128);
        // ~2 FLOPs per active (non-embedding) parameter at short context.
        let active = m.total_params() - f64::from(m.vocab) * f64::from(m.hidden);
        assert_approx(wl.flops(), 2.0 * active, 0.1, "decode FLOPs");
    }

    #[test]
    fn decode_ai_rises_with_batch() {
        let m = ModelConfig::llama3_70b();
        let p = Precision::mxfp4_inference();
        let ai1 = DecodeWorkload::new(&m, p, 1, 8192).arithmetic_intensity();
        let ai32 = DecodeWorkload::new(&m, p, 32, 8192).arithmetic_intensity();
        assert!(ai32 > 4.0 * ai1, "ai1={ai1} ai32={ai32}");
    }

    #[test]
    fn prefill_far_more_intense_than_decode() {
        let m = ModelConfig::llama3_70b();
        let p = Precision::fp8_weights();
        let d = DecodeWorkload::new(&m, p, 32, 8192).arithmetic_intensity();
        let f = PrefillWorkload::new(&m, p, 32, 16384).arithmetic_intensity();
        assert!(f > 20.0 * d, "prefill AI {f} vs decode AI {d}");
    }

    #[test]
    fn kernel_count_scales_with_layers() {
        let m = ModelConfig::llama3_8b();
        let p = Precision::mxfp4_inference();
        let wl = DecodeWorkload::new(&m, p, 1, 1024);
        // 12 kernels per dense layer + 1 LM head.
        assert_eq!(wl.kernels().len() as u32, m.num_layers * 12 + 1);
    }
}
