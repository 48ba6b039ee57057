//! Transformer model configurations and the paper's model zoo.

use crate::dtype::Precision;
use std::fmt;

/// Mixture-of-experts configuration (Llama4-style: routed experts plus an
/// always-active shared expert, optionally interleaved with dense layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MoeConfig {
    /// Number of routed experts per MoE layer.
    pub num_experts: u32,
    /// Routed experts activated per token (top-k).
    pub experts_per_token: u32,
    /// Hidden dimension of each routed expert's FFN.
    pub expert_intermediate: u32,
    /// Hidden dimension of the shared (always-active) expert; 0 if none.
    pub shared_intermediate: u32,
    /// An MoE layer occurs every `interleave_step` layers (1 = every
    /// layer, 2 = alternating with dense layers, Llama4-Maverick style).
    pub interleave_step: u32,
}

/// A decoder-only transformer configuration.
///
/// Shapes follow the public Llama3/Llama4 architectures; the paper's
/// workloads are derived from these (e.g. the Llama4-Maverick fused
/// gate/up projection of 5k×32k ≈ 168 M parameters called out in §I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelConfig {
    /// Display name.
    pub name: &'static str,
    /// Number of transformer layers.
    pub num_layers: u32,
    /// Model (hidden) dimension.
    pub hidden: u32,
    /// Query heads.
    pub num_heads: u32,
    /// KV heads (GQA groups).
    pub num_kv_heads: u32,
    /// Per-head dimension.
    pub head_dim: u32,
    /// Dense FFN hidden dimension (also the Llama4 dense-layer MLP).
    pub intermediate: u32,
    /// Vocabulary size.
    pub vocab: u32,
    /// MoE structure, if any.
    pub moe: Option<MoeConfig>,
}

impl ModelConfig {
    /// Llama3-8B: 32 layers, 4096 hidden, 32/8 heads, 14336 FFN.
    #[must_use]
    pub fn llama3_8b() -> Self {
        Self {
            name: "Llama3-8B",
            num_layers: 32,
            hidden: 4096,
            num_heads: 32,
            num_kv_heads: 8,
            head_dim: 128,
            intermediate: 14336,
            vocab: 128_256,
            moe: None,
        }
    }

    /// Llama3-70B: 80 layers, 8192 hidden, 64/8 heads, 28672 FFN.
    #[must_use]
    pub fn llama3_70b() -> Self {
        Self {
            name: "Llama3-70B",
            num_layers: 80,
            hidden: 8192,
            num_heads: 64,
            num_kv_heads: 8,
            head_dim: 128,
            intermediate: 28672,
            vocab: 128_256,
            moe: None,
        }
    }

    /// Llama3-405B: 126 layers, 16384 hidden, 128/8 heads, 53248 FFN.
    #[must_use]
    pub fn llama3_405b() -> Self {
        Self {
            name: "Llama3-405B",
            num_layers: 126,
            hidden: 16384,
            num_heads: 128,
            num_kv_heads: 8,
            head_dim: 128,
            intermediate: 53248,
            vocab: 128_256,
            moe: None,
        }
    }

    /// Llama4-Scout: 48 layers, 16 routed experts (top-1) + shared expert
    /// in every layer; ~109 B total / ~17 B active parameters.
    #[must_use]
    pub fn llama4_scout() -> Self {
        Self {
            name: "Llama4-Scout",
            num_layers: 48,
            hidden: 5120,
            num_heads: 40,
            num_kv_heads: 8,
            head_dim: 128,
            intermediate: 16384,
            vocab: 202_048,
            moe: Some(MoeConfig {
                num_experts: 16,
                experts_per_token: 1,
                expert_intermediate: 8192,
                shared_intermediate: 8192,
                interleave_step: 1,
            }),
        }
    }

    /// Llama4-Maverick: 48 layers, 128 routed experts (top-1) + shared
    /// expert, MoE on alternating layers; ~400 B total / ~17 B active.
    #[must_use]
    pub fn llama4_maverick() -> Self {
        Self {
            name: "Llama4-Maverick",
            num_layers: 48,
            hidden: 5120,
            num_heads: 40,
            num_kv_heads: 8,
            head_dim: 128,
            intermediate: 16384,
            vocab: 202_048,
            moe: Some(MoeConfig {
                num_experts: 128,
                experts_per_token: 1,
                expert_intermediate: 8192,
                shared_intermediate: 8192,
                interleave_step: 2,
            }),
        }
    }

    /// The full zoo evaluated in the paper.
    #[must_use]
    pub fn zoo() -> Vec<Self> {
        vec![
            Self::llama3_8b(),
            Self::llama3_70b(),
            Self::llama3_405b(),
            Self::llama4_scout(),
            Self::llama4_maverick(),
        ]
    }

    /// `true` when layer `idx` (0-based) is an MoE layer.
    #[must_use]
    pub fn is_moe_layer(&self, idx: u32) -> bool {
        match self.moe {
            // Convention: with interleave_step = s, layers s-1, 2s-1, ...
            // are MoE (Maverick alternates starting with a dense layer).
            Some(m) => (idx + 1).is_multiple_of(m.interleave_step),
            None => false,
        }
    }

    /// Attention parameters per layer (QKV + output projections).
    #[must_use]
    pub fn attn_params_per_layer(&self) -> f64 {
        let h = f64::from(self.hidden);
        let q = f64::from(self.num_heads) * f64::from(self.head_dim);
        let kv = 2.0 * f64::from(self.num_kv_heads) * f64::from(self.head_dim);
        h * (q + kv) + q * h
    }

    /// Dense FFN parameters (gate + up + down projections).
    #[must_use]
    pub fn dense_ffn_params(&self) -> f64 {
        3.0 * f64::from(self.hidden) * f64::from(self.intermediate)
    }

    /// Total parameters, including embeddings and an untied LM head.
    #[must_use]
    pub fn total_params(&self) -> f64 {
        let h = f64::from(self.hidden);
        let embed = 2.0 * f64::from(self.vocab) * h;
        let mut per_layers = f64::from(self.num_layers) * self.attn_params_per_layer();
        for idx in 0..self.num_layers {
            per_layers += self.layer_ffn_params(idx);
        }
        embed + per_layers
    }

    /// FFN parameters of layer `idx` (all experts for MoE layers).
    #[must_use]
    pub fn layer_ffn_params(&self, idx: u32) -> f64 {
        self.ffn_params(idx, |m| m.num_experts)
    }

    /// Parameters *activated* per token in layer `idx` (routed top-k plus
    /// shared expert for MoE layers).
    #[must_use]
    pub fn layer_active_ffn_params(&self, idx: u32) -> f64 {
        self.ffn_params(idx, |m| m.experts_per_token)
    }

    /// FFN parameters of layer `idx` counting `experts(moe)` routed
    /// experts of an MoE layer, plus its router and shared expert.
    fn ffn_params(&self, idx: u32, experts: fn(MoeConfig) -> u32) -> f64 {
        let Some(m) = self.moe.filter(|_| self.is_moe_layer(idx)) else {
            return self.dense_ffn_params();
        };
        let h = f64::from(self.hidden);
        let router = h * f64::from(m.num_experts);
        let routed = f64::from(experts(m)) * 3.0 * h * f64::from(m.expert_intermediate);
        let shared = 3.0 * h * f64::from(m.shared_intermediate);
        router + routed + shared
    }

    /// Bytes of weight storage required (all layers + LM head; the
    /// embedding table is excluded — only one row is gathered per token
    /// and it is kept host-side in the paper's deployment model).
    #[must_use]
    pub fn weight_bytes(&self, precision: Precision) -> f64 {
        let bytes = precision.weights.bytes_per_value();
        let head = f64::from(self.vocab) * f64::from(self.hidden);
        let mut params = f64::from(self.num_layers) * self.attn_params_per_layer() + head;
        for idx in 0..self.num_layers {
            params += self.layer_ffn_params(idx);
        }
        params * bytes
    }

    /// KV-cache bytes per token per query (both K and V, all layers).
    #[must_use]
    pub fn kv_bytes_per_token(&self, precision: Precision) -> f64 {
        2.0 * f64::from(self.num_layers)
            * f64::from(self.num_kv_heads)
            * f64::from(self.head_dim)
            * precision.kv_cache.bytes_per_value()
    }

    /// Total memory footprint for `batch` concurrent queries at context
    /// length `seq_len`: weights + KV cache.
    #[must_use]
    pub fn footprint_bytes(&self, precision: Precision, batch: u32, seq_len: u32) -> f64 {
        self.weight_bytes(precision)
            + self.kv_bytes_per_token(precision) * f64::from(batch) * f64::from(seq_len)
    }

    /// Expected number of *distinct* routed experts activated by a batch
    /// of `batch` tokens in one MoE layer (uniform routing assumption).
    ///
    /// Drives the batched-MoE bandwidth behaviour of Fig. 11: Maverick's
    /// 128 experts keep per-expert loads light up to large batches.
    #[must_use]
    pub fn expected_active_experts(&self, batch: u32) -> f64 {
        match self.moe {
            Some(m) => {
                let e = f64::from(m.num_experts);
                let k = f64::from(m.experts_per_token) * f64::from(batch);
                e * (1.0 - (1.0 - 1.0 / e).powf(k))
            }
            None => 0.0,
        }
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_util::assert_approx;

    fn moe_layers(m: &ModelConfig) -> u32 {
        (0..m.num_layers).filter(|&i| m.is_moe_layer(i)).count() as u32
    }

    #[test]
    fn total_params_match_names() {
        assert_approx(ModelConfig::llama3_8b().total_params(), 8e9, 0.05, "8B");
        assert_approx(
            ModelConfig::llama3_70b().total_params(),
            70.6e9,
            0.02,
            "70B",
        );
        assert_approx(
            ModelConfig::llama3_405b().total_params(),
            405e9,
            0.01,
            "405B",
        );
        assert_approx(
            ModelConfig::llama4_scout().total_params(),
            109e9,
            0.06,
            "Scout",
        );
        assert_approx(
            ModelConfig::llama4_maverick().total_params(),
            400e9,
            0.03,
            "Maverick",
        );
    }

    #[test]
    fn maverick_fused_gate_up_is_168m() {
        // §I: "the fused gate/up projection MLP layer in Llama4-Maverick
        // contains just 168 million parameters (5k x 32k)".
        let m = ModelConfig::llama4_maverick();
        let fused = f64::from(m.hidden) * 2.0 * f64::from(m.intermediate);
        assert_approx(fused, 168e6, 0.01, "Maverick fused gate/up");
    }

    #[test]
    fn maverick_interleaves_moe() {
        let m = ModelConfig::llama4_maverick();
        assert_eq!(moe_layers(&m), 24);
        assert!(!m.is_moe_layer(0));
        assert!(m.is_moe_layer(1));
    }

    #[test]
    fn scout_all_layers_moe() {
        let m = ModelConfig::llama4_scout();
        assert_eq!(moe_layers(&m), m.num_layers);
    }

    #[test]
    fn dense_models_have_no_moe_layers() {
        let m = ModelConfig::llama3_70b();
        assert_eq!(moe_layers(&m), 0);
        assert!(!m.is_moe_layer(0));
        assert_eq!(m.expected_active_experts(64), 0.0);
    }

    #[test]
    fn gqa_ratios_match_paper() {
        // §VI: 405B has "16 queries per KV head"; §VIII: Llama4 has
        // "only 5 queries per KV head".
        let m405 = ModelConfig::llama3_405b();
        assert_eq!(m405.num_heads / m405.num_kv_heads, 16);
        let mav = ModelConfig::llama4_maverick();
        assert_eq!(mav.num_heads / mav.num_kv_heads, 5);
    }

    #[test]
    fn llama405b_fits_64cu_system_at_4bit() {
        // Fig. 9: 64 CUs x 16 cores x 192 MiB/core must hold the 4-bit
        // 405B weights plus a BS=1 8k FP8 KV cache.
        let m = ModelConfig::llama3_405b();
        let p = Precision::mxfp4_inference();
        let needed = m.footprint_bytes(p, 1, 8192);
        let capacity = 64.0 * 16.0 * 192.0 * 1024.0 * 1024.0;
        assert!(needed <= capacity, "needed {needed} > capacity {capacity}");
        // ...but not with one tier less (144 MiB/core).
        let smaller = 64.0 * 16.0 * 144.0 * 1024.0 * 1024.0;
        assert!(needed > smaller, "needed {needed} <= smaller {smaller}");
    }

    #[test]
    fn kv_bytes_per_token_405b() {
        // 2 x 126 layers x 8 KV heads x 128 dims x 1 B (FP8) = 258 KB.
        let m = ModelConfig::llama3_405b();
        let p = Precision::mxfp4_inference();
        assert_approx(m.kv_bytes_per_token(p), 258e3, 0.01, "405B KV/token");
    }

    #[test]
    fn expected_active_experts_saturates() {
        let mav = ModelConfig::llama4_maverick();
        assert_approx(mav.expected_active_experts(1), 1.0, 1e-9, "BS1 experts");
        let e128 = mav.expected_active_experts(128);
        assert!(e128 > 70.0 && e128 < 128.0, "BS128 experts {e128}");
        // Scout saturates its 16 experts much earlier.
        let scout = ModelConfig::llama4_scout();
        assert!(scout.expected_active_experts(64) > 15.0);
    }

    #[test]
    fn footprint_grows_with_batch_and_seq() {
        let m = ModelConfig::llama3_8b();
        let p = Precision::mxfp4_inference();
        let base = m.footprint_bytes(p, 1, 8192);
        assert!(m.footprint_bytes(p, 2, 8192) > base);
        assert!(m.footprint_bytes(p, 1, 16384) > base);
    }
}
