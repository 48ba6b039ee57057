//! Per-layer kernel decomposition of transformer inference.
//!
//! Each decode step of a layer is broken into the kernel sequence the
//! paper's Fig. 8 timelines show (`wQKV`, `K$/QKᵀ`, `V$/s(QKᵀ)V`, `wO`,
//! `wUp/wGate`, `wDown`, plus vector ops and MoE routing). Every kernel
//! carries its FLOPs and its byte traffic split by source (weights,
//! KV cache, activations), which downstream crates turn into rooflines,
//! GPU-baseline timings and RPU instruction streams.

use crate::config::ModelConfig;
use crate::dtype::Precision;
use std::fmt;

/// Which layer-level operation a kernel implements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelKind {
    /// Pre-attention RMS norm (+ residual bookkeeping).
    InputNorm,
    /// Fused QKV projection (`wQKV`).
    QkvProj,
    /// Rotary position embeddings.
    Rope,
    /// Append the new token's K/V to the cache.
    KvAppend,
    /// `QKᵀ` attention scores against the K cache.
    AttnScore,
    /// Softmax (including the distributed max / exp-sum collectives).
    Softmax,
    /// `s(QKᵀ)V` context against the V cache.
    AttnContext,
    /// Attention output projection (`wO`).
    OutProj,
    /// Post-attention RMS norm.
    PostNorm,
    /// Fused gate/up FFN projection (`wUp/wGate`).
    GateUp,
    /// SiLU activation and elementwise multiply.
    Activation,
    /// FFN down projection (`wDown`).
    Down,
    /// MoE router (token-to-expert scores).
    Router,
    /// Routed experts' fused gate/up (aggregated over active experts).
    MoeGateUp,
    /// Routed experts' down projection.
    MoeDown,
    /// Shared expert fused gate/up.
    SharedGateUp,
    /// Shared expert down projection.
    SharedDown,
    /// Final language-model head.
    LmHead,
}

impl fmt::Display for KernelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            KernelKind::InputNorm => "norm",
            KernelKind::QkvProj => "wQKV",
            KernelKind::Rope => "rope",
            KernelKind::KvAppend => "KV$ append",
            KernelKind::AttnScore => "K$/QK^T",
            KernelKind::Softmax => "softmax",
            KernelKind::AttnContext => "V$/s(QK^T)V",
            KernelKind::OutProj => "wO",
            KernelKind::PostNorm => "norm2",
            KernelKind::GateUp => "wUp/wGate",
            KernelKind::Activation => "silu",
            KernelKind::Down => "wDown",
            KernelKind::Router => "router",
            KernelKind::MoeGateUp => "moe wUp/wGate",
            KernelKind::MoeDown => "moe wDown",
            KernelKind::SharedGateUp => "shared wUp/wGate",
            KernelKind::SharedDown => "shared wDown",
            KernelKind::LmHead => "lm head",
        };
        f.write_str(s)
    }
}

impl KernelKind {
    /// Every kind in declaration order, so `ALL[kind as usize] == kind`:
    /// per-kind tallies can live in a plain array.
    pub const ALL: [KernelKind; 18] = [
        KernelKind::InputNorm,
        KernelKind::QkvProj,
        KernelKind::Rope,
        KernelKind::KvAppend,
        KernelKind::AttnScore,
        KernelKind::Softmax,
        KernelKind::AttnContext,
        KernelKind::OutProj,
        KernelKind::PostNorm,
        KernelKind::GateUp,
        KernelKind::Activation,
        KernelKind::Down,
        KernelKind::Router,
        KernelKind::MoeGateUp,
        KernelKind::MoeDown,
        KernelKind::SharedGateUp,
        KernelKind::SharedDown,
        KernelKind::LmHead,
    ];
}

/// Broad execution class of a kernel (selects pipeline behaviour).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelClass {
    /// Weight-streaming vector–matrix multiply.
    Vmm,
    /// KV-cache-streaming attention kernel.
    Attention,
    /// Elementwise / reduction vector operation (HP-VOPs on the RPU).
    VectorOp,
    /// Pure memory write (KV append).
    MemWrite,
}

/// A single kernel invocation with its arithmetic and traffic accounting.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Kernel {
    /// Operation identity.
    pub kind: KernelKind,
    /// Execution class.
    pub class: KernelClass,
    /// Floating-point operations (multiply-accumulate = 2 FLOPs).
    pub flops: f64,
    /// Weight bytes streamed from memory.
    pub weight_bytes: f64,
    /// KV-cache bytes read from memory.
    pub kv_read_bytes: f64,
    /// KV-cache bytes written to memory.
    pub kv_write_bytes: f64,
    /// Activation bytes consumed.
    pub act_in_bytes: f64,
    /// Activation bytes produced.
    pub act_out_bytes: f64,
    /// GEMM rows (batch) for `Vmm` kernels, else 0.
    pub m: u64,
    /// Contraction dimension for `Vmm` kernels, else 0.
    pub k: u64,
    /// Output columns for `Vmm` kernels, else 0.
    pub n: u64,
}

impl Kernel {
    /// Total off-chip memory traffic on a GPU-style architecture, where
    /// intermediate activations of matrix kernels round-trip through
    /// memory: weights + KV + activations.
    #[must_use]
    pub fn total_mem_bytes(&self) -> f64 {
        self.weight_bytes
            + self.kv_read_bytes
            + self.kv_write_bytes
            + self.act_in_bytes
            + self.act_out_bytes
    }

    /// Memory traffic that is fundamental (weights + KV cache), i.e. what
    /// a perfectly on-chip-buffered architecture such as the RPU streams.
    #[must_use]
    pub fn streaming_bytes(&self) -> f64 {
        self.weight_bytes + self.kv_read_bytes + self.kv_write_bytes
    }

    /// Arithmetic intensity over total memory traffic, FLOPs/byte.
    #[must_use]
    pub fn arithmetic_intensity(&self) -> f64 {
        let b = self.total_mem_bytes();
        if b == 0.0 {
            0.0
        } else {
            self.flops / b
        }
    }

    fn zero(kind: KernelKind, class: KernelClass) -> Self {
        Self {
            kind,
            class,
            flops: 0.0,
            weight_bytes: 0.0,
            kv_read_bytes: 0.0,
            kv_write_bytes: 0.0,
            act_in_bytes: 0.0,
            act_out_bytes: 0.0,
            m: 0,
            k: 0,
            n: 0,
        }
    }

    /// Builds a weight-streaming VMM kernel: `[m × k] · [k × n]`.
    #[must_use]
    pub fn vmm(kind: KernelKind, m: u64, k: u64, n: u64, precision: Precision) -> Self {
        let (mf, kf, nf) = (m as f64, k as f64, n as f64);
        let act = precision.activations.bytes_per_value();
        Self {
            flops: 2.0 * mf * kf * nf,
            weight_bytes: kf * nf * precision.weights.bytes_per_value(),
            act_in_bytes: mf * kf * act,
            act_out_bytes: mf * nf * act,
            m,
            k,
            n,
            ..Self::zero(kind, KernelClass::Vmm)
        }
    }

    fn vector_op(kind: KernelKind, elems: f64, flops_per_elem: f64, precision: Precision) -> Self {
        let act = precision.activations.bytes_per_value();
        Self {
            flops: elems * flops_per_elem,
            act_in_bytes: elems * act,
            act_out_bytes: elems * act,
            ..Self::zero(kind, KernelClass::VectorOp)
        }
    }
}

/// Kernel sequence for one decode step of layer `layer_idx`, with `batch`
/// concurrent queries each at context length `seq_len`.
///
/// Every FFN block follows one rule, gate/up VMM → SiLU → down VMM: the
/// dense FFN, the routed experts (weights of the expected distinct
/// active experts, `batch` x top-k token rows) and the shared expert,
/// which a model with `shared_intermediate == 0` does not have. The RPU
/// compiler lowers the same blocks.
///
/// # Examples
///
/// ```
/// use rpu_models::{layer_kernels, ModelConfig, Precision, KernelKind};
///
/// let ks = layer_kernels(
///     &ModelConfig::llama3_8b(),
///     Precision::mxfp4_inference(),
///     1,
///     16 * 1024,
///     0,
/// );
/// assert!(ks.iter().any(|k| k.kind == KernelKind::QkvProj));
/// assert!(ks.iter().any(|k| k.kind == KernelKind::AttnScore));
/// ```
#[must_use]
pub fn layer_kernels(
    model: &ModelConfig,
    precision: Precision,
    batch: u32,
    seq_len: u32,
    layer_idx: u32,
) -> Vec<Kernel> {
    let b = u64::from(batch);
    let bf = batch as f64;
    let s = seq_len as f64;
    let h = u64::from(model.hidden);
    let hf = model.hidden as f64;
    let nh = model.num_heads as f64;
    let nkv = model.num_kv_heads as f64;
    let hd = model.head_dim as f64;
    let q_dim = u64::from(model.num_heads) * u64::from(model.head_dim);
    let kv_dim = 2 * u64::from(model.num_kv_heads) * u64::from(model.head_dim);
    let kvb = precision.kv_cache.bytes_per_value();
    let act = precision.activations.bytes_per_value();

    let mut ks = Vec::with_capacity(16);

    // Attention block.
    ks.push(Kernel::vector_op(
        KernelKind::InputNorm,
        bf * hf,
        4.0,
        precision,
    ));
    ks.push(Kernel::vmm(
        KernelKind::QkvProj,
        b,
        h,
        q_dim + kv_dim,
        precision,
    ));
    ks.push(Kernel::vector_op(
        KernelKind::Rope,
        bf * (nh + nkv) * hd,
        4.0,
        precision,
    ));
    ks.push(Kernel {
        kv_write_bytes: bf * (nkv * 2.0) * hd * kvb,
        act_in_bytes: bf * (nkv * 2.0) * hd * act,
        ..Kernel::zero(KernelKind::KvAppend, KernelClass::MemWrite)
    });
    // QK^T: every query attends over its own K cache (no cross-query
    // reuse; GQA shares K among num_heads / num_kv_heads queries).
    ks.push(Kernel {
        flops: 2.0 * bf * nh * hd * s,
        kv_read_bytes: bf * nkv * hd * s * kvb,
        act_in_bytes: bf * nh * hd * act,
        act_out_bytes: bf * nh * s * act,
        ..Kernel::zero(KernelKind::AttnScore, KernelClass::Attention)
    });
    ks.push(Kernel::vector_op(
        KernelKind::Softmax,
        bf * nh * s,
        5.0,
        precision,
    ));
    ks.push(Kernel {
        flops: 2.0 * bf * nh * hd * s,
        kv_read_bytes: bf * nkv * hd * s * kvb,
        act_in_bytes: bf * nh * s * act,
        act_out_bytes: bf * nh * hd * act,
        ..Kernel::zero(KernelKind::AttnContext, KernelClass::Attention)
    });
    ks.push(Kernel::vmm(KernelKind::OutProj, b, q_dim, h, precision));
    ks.push(Kernel::vector_op(
        KernelKind::PostNorm,
        bf * hf,
        4.0,
        precision,
    ));

    // FFN block: one rule for the dense FFN, the routed experts and the
    // shared expert (skipped when the model has none).
    let moe = model.moe.filter(|_| model.is_moe_layer(layer_idx));
    let Some(moe) = moe else {
        let dense = (KernelKind::GateUp, KernelKind::Down);
        let dims = [b, h, u64::from(model.intermediate)];
        ks.extend(ffn_block(dense, 1.0, bf, dims, precision));
        return ks;
    };
    let e = u64::from(moe.num_experts);
    ks.push(Kernel::vmm(KernelKind::Router, b, h, e, precision));
    // Routed experts: weights streamed for each *distinct* active
    // expert; FLOPs proportional to tokens x top-k.
    let routed = (KernelKind::MoeGateUp, KernelKind::MoeDown);
    let active = model.expected_active_experts(batch);
    let tokens = bf * f64::from(moe.experts_per_token);
    let inner = u64::from(moe.expert_intermediate);
    ks.extend(ffn_block(routed, active, tokens, [b, h, inner], precision));
    if moe.shared_intermediate > 0 {
        let shared = (KernelKind::SharedGateUp, KernelKind::SharedDown);
        let inner = u64::from(moe.shared_intermediate);
        ks.extend(ffn_block(shared, 1.0, bf, [b, h, inner], precision));
    }
    ks
}

/// One FFN block: gate/up VMM → SiLU → down VMM over a batch of `b`
/// rows, hidden width `h` and inner width `inner`. `streamed` weight
/// copies stream (the expected distinct active experts for the routed
/// block, else 1) and `tokens` rows flow through it (`b` x top-k for the
/// routed block, else `b`).
fn ffn_block(
    (up, down): (KernelKind, KernelKind),
    streamed: f64,
    tokens: f64,
    [b, h, inner]: [u64; 3],
    precision: Precision,
) -> [Kernel; 3] {
    let (hf, i) = (h as f64, inner as f64);
    let wb = precision.weights.bytes_per_value();
    let act = precision.activations.bytes_per_value();
    [
        Kernel {
            flops: 2.0 * tokens * hf * 2.0 * i,
            weight_bytes: streamed * hf * 2.0 * i * wb,
            act_in_bytes: tokens * hf * act,
            act_out_bytes: tokens * 2.0 * i * act,
            m: b,
            k: h,
            n: 2 * inner,
            ..Kernel::zero(up, KernelClass::Vmm)
        },
        Kernel::vector_op(KernelKind::Activation, tokens * i, 4.0, precision),
        Kernel {
            flops: 2.0 * tokens * i * hf,
            weight_bytes: streamed * i * hf * wb,
            act_in_bytes: tokens * i * act,
            act_out_bytes: tokens * hf * act,
            m: b,
            k: inner,
            n: h,
            ..Kernel::zero(down, KernelClass::Vmm)
        },
    ]
}

/// The final LM-head VMM (`hidden × vocab`), executed once per decode
/// step.
#[must_use]
pub fn lm_head_kernel(model: &ModelConfig, precision: Precision, batch: u32) -> Kernel {
    Kernel::vmm(
        KernelKind::LmHead,
        u64::from(batch),
        u64::from(model.hidden),
        u64::from(model.vocab),
        precision,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_util::assert_approx;

    fn dense_setup() -> (ModelConfig, Precision) {
        (ModelConfig::llama3_70b(), Precision::mxfp4_inference())
    }

    #[test]
    fn all_kinds_are_indexed_by_their_discriminant() {
        for (i, k) in KernelKind::ALL.iter().enumerate() {
            assert_eq!(*k as usize, i, "{k}");
        }
    }

    #[test]
    fn dense_layer_has_expected_kernels() {
        let (m, p) = dense_setup();
        let ks = layer_kernels(&m, p, 1, 8192, 0);
        let kinds: Vec<KernelKind> = ks.iter().map(|k| k.kind).collect();
        assert!(kinds.contains(&KernelKind::QkvProj));
        assert!(kinds.contains(&KernelKind::GateUp));
        assert!(kinds.contains(&KernelKind::Down));
        assert!(!kinds.contains(&KernelKind::Router));
    }

    #[test]
    fn vmm_flops_and_bytes() {
        let p = Precision::bf16();
        let k = Kernel::vmm(KernelKind::GateUp, 1, 1024, 2048, p);
        assert_approx(k.flops, 2.0 * 1024.0 * 2048.0, 1e-12, "VMM flops");
        assert_approx(
            k.weight_bytes,
            1024.0 * 2048.0 * 2.0,
            1e-12,
            "VMM weight bytes",
        );
        assert!(k.arithmetic_intensity() < 1.1); // BS=1 BF16 is ~1 FLOP/B
    }

    #[test]
    fn weights_shared_across_batch() {
        let (m, p) = dense_setup();
        let b1: f64 = layer_kernels(&m, p, 1, 8192, 0)
            .iter()
            .map(|k| k.weight_bytes)
            .sum();
        let b32: f64 = layer_kernels(&m, p, 32, 8192, 0)
            .iter()
            .map(|k| k.weight_bytes)
            .sum();
        assert_approx(b1, b32, 1e-12, "dense weight bytes are batch-invariant");
    }

    #[test]
    fn kv_scales_with_batch_and_seq() {
        let (m, p) = dense_setup();
        let kv = |b, s| -> f64 {
            layer_kernels(&m, p, b, s, 0)
                .iter()
                .map(|k| k.kv_read_bytes)
                .sum()
        };
        assert_approx(kv(2, 8192), 2.0 * kv(1, 8192), 1e-12, "KV batch scaling");
        assert_approx(kv(1, 16384), 2.0 * kv(1, 8192), 1e-12, "KV seq scaling");
    }

    #[test]
    fn batching_raises_vmm_intensity() {
        let (m, p) = dense_setup();
        let ai = |b: u32| {
            let ks = layer_kernels(&m, p, b, 8192, 0);
            let gu = ks.iter().find(|k| k.kind == KernelKind::GateUp).unwrap();
            gu.arithmetic_intensity()
        };
        assert!(
            ai(32) > 8.0 * ai(1) / 2.0,
            "batching must raise AI substantially"
        );
        assert!(ai(1) < 4.0);
    }

    #[test]
    fn attention_intensity_is_batch_invariant() {
        // KV$ is query-unique: batching does not amortise it (the paper's
        // reason why attention stays memory-bound).
        let (m, p) = dense_setup();
        let ai = |b: u32| {
            let ks = layer_kernels(&m, p, b, 8192, 0);
            let a = ks.iter().find(|k| k.kind == KernelKind::AttnScore).unwrap();
            a.flops / (a.kv_read_bytes + a.kv_write_bytes)
        };
        assert_approx(ai(1), ai(32), 1e-9, "attention AI vs batch");
    }

    #[test]
    fn gqa_attention_intensity_matches_ratio() {
        // FLOPs / KV byte = 2 x (queries per KV head) / kv bytes-per-value.
        let p = Precision::mxfp4_inference(); // FP8 KV: 1 byte
        let m405 = ModelConfig::llama3_405b();
        let ks = layer_kernels(&m405, p, 1, 8192, 0);
        let a = ks.iter().find(|k| k.kind == KernelKind::AttnScore).unwrap();
        assert_approx(
            a.flops / a.kv_read_bytes,
            32.0,
            1e-9,
            "405B QK^T FLOPs/KV-byte",
        );
    }

    #[test]
    fn moe_layer_streams_only_active_experts() {
        let m = ModelConfig::llama4_maverick();
        let p = Precision::mxfp4_inference();
        // Layer 1 is MoE for Maverick.
        let ks = layer_kernels(&m, p, 1, 8192, 1);
        let moe_w: f64 = ks
            .iter()
            .filter(|k| matches!(k.kind, KernelKind::MoeGateUp | KernelKind::MoeDown))
            .map(|k| k.weight_bytes)
            .sum();
        // One active expert at BS=1: 3 x 5120 x 8192 params at 4 bits.
        let expect = 3.0 * 5120.0 * 8192.0 * 4.0 / 8.0;
        assert_approx(moe_w, expect, 1e-6, "BS=1 MoE weight bytes");
    }

    #[test]
    fn maverick_dense_layer_has_no_router() {
        let m = ModelConfig::llama4_maverick();
        let p = Precision::mxfp4_inference();
        let ks = layer_kernels(&m, p, 1, 8192, 0); // layer 0 is dense
        assert!(ks.iter().all(|k| k.kind != KernelKind::Router));
        assert!(ks.iter().any(|k| k.kind == KernelKind::GateUp));
    }

    #[test]
    fn lm_head_shape() {
        let m = ModelConfig::llama3_8b();
        let k = lm_head_kernel(&m, Precision::mxfp4_inference(), 4);
        assert_eq!(k.m, 4);
        assert_eq!(k.k, 4096);
        assert_eq!(k.n, 128_256);
    }

    #[test]
    fn streaming_bytes_exclude_activations() {
        let (m, p) = dense_setup();
        for k in layer_kernels(&m, p, 8, 4096, 0) {
            assert!(k.streaming_bytes() <= k.total_mem_bytes());
        }
    }
}
