//! Compiler: lowers a transformer decode step to per-core instruction
//! streams (§VI, "RPU ISA and Compiler").
//!
//! The lowering follows the paper's distributed-VMM strategy: weight
//! matrices are column-sharded across all cores, each core computes its
//! output fragment and the network pipeline all-gathers fragments around
//! the outer ring while compute proceeds on locally available data.
//! Attention uses the GQA head-group gathers of §VI ②, softmax uses the
//! distributed max / exp-sum reductions, and MoE layers stream only the
//! experts a batch activates.
//!
//! Every FFN block follows one rule: gate/up VMM → SiLU → all-gather →
//! down VMM → all-gather. The dense FFN, the routed experts and the
//! shared expert differ only in their kernels, input, streamed weight
//! copies and token rows; `wO` shares the down-and-gather tail. A MoE
//! model without a shared expert (`shared_intermediate == 0`) emits no
//! shared-expert block, and its post-attention norm feeds the router
//! alone.

use crate::instr::{CollectiveKind, Instr, Op, Production, Tag};
use crate::program::CoreProgram;
use rpu_models::{KernelKind, ModelConfig, Precision};

/// How the model is sharded across the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardPlan {
    /// Number of compute units.
    pub num_cus: u32,
    /// Cores per CU (16 in the paper spec).
    pub cores_per_cu: u32,
}

impl ShardPlan {
    /// Creates a plan.
    #[must_use]
    pub fn new(num_cus: u32, cores_per_cu: u32) -> Self {
        Self {
            num_cus,
            cores_per_cu,
        }
    }

    /// Total cores, i.e. the column-shard denominator.
    #[must_use]
    pub fn total_cores(&self) -> f64 {
        f64::from(self.num_cus) * f64::from(self.cores_per_cu)
    }

    /// Number of CUs a GQA KV head group spans (§VI ②: KV vectors span
    /// up to eight CUs).
    #[must_use]
    pub fn head_group_cus(&self) -> u32 {
        self.num_cus.min(8)
    }
}

struct Lowering<'a> {
    model: &'a ModelConfig,
    precision: Precision,
    batch: f64,
    seq_len: f64,
    plan: ShardPlan,
    /// Layer the emitted instructions belong to (`u32::MAX` for the LM
    /// head).
    layer: u32,
    program: CoreProgram,
    next_tag: Tag,
}

impl Lowering<'_> {
    fn tag(&mut self) -> Tag {
        let t = self.next_tag;
        self.next_tag += 1;
        t
    }

    fn act_bytes(&self) -> f64 {
        self.precision.activations.bytes_per_value()
    }

    fn weight_bytes(&self) -> f64 {
        self.precision.weights.bytes_per_value()
    }

    fn push(&mut self, kernel: KernelKind, op: Op) {
        let layer = self.layer;
        self.program.push(Instr { kernel, layer, op });
    }

    /// A fresh output tag of `bytes` (at least 1) read by `valid_count`
    /// consumers.
    fn production(&mut self, bytes: f64, valid_count: u8) -> Production {
        Production {
            tag: self.tag(),
            bytes: bytes.ceil().max(1.0) as u64,
            valid_count,
        }
    }

    /// Emits a MemLoad + Vmm pair for a column-sharded VMM and returns
    /// the output-fragment tag.
    fn vmm(
        &mut self,
        kernel: KernelKind,
        weight_bytes_total: f64,
        flops_total: f64,
        out_bytes_per_core: f64,
        acts: Vec<Tag>,
        out_consumers: u8,
    ) -> Tag {
        let weights = self.tag();
        let shard = 1.0 / self.plan.total_cores();
        let weight_bytes = (weight_bytes_total * shard).ceil().max(1.0) as u64;
        let flops = (flops_total * shard).ceil() as u64;
        self.push(
            kernel,
            Op::MemLoad {
                out: weights,
                bytes: weight_bytes,
                valid_count: 1,
            },
        );
        let out = self.production(out_bytes_per_core, out_consumers);
        self.push(
            kernel,
            Op::Vmm {
                weights,
                acts,
                out: Some(out),
                weight_bytes,
                flops,
            },
        );
        out.tag
    }

    fn vops(
        &mut self,
        kernel: KernelKind,
        inputs: Vec<Tag>,
        flops: f64,
        out_bytes: f64,
        out_consumers: u8,
    ) -> Tag {
        let out = self.production(out_bytes, out_consumers);
        self.push(
            kernel,
            Op::VOps {
                inputs,
                out: Some(out),
                flops: flops.ceil() as u64,
            },
        );
        out.tag
    }

    fn collective(
        &mut self,
        kernel: KernelKind,
        kind: CollectiveKind,
        input: Tag,
        fragment_bytes: f64,
        out_bytes: f64,
        participants: u32,
    ) -> Tag {
        let out = self.production(out_bytes, 1);
        self.push(
            kernel,
            Op::Collective {
                kind,
                input: Some(input),
                out: Some(out),
                fragment_bytes: fragment_bytes.ceil().max(1.0) as u64,
                participants,
            },
        );
        out.tag
    }

    /// Ring all-gather of `input`'s fragments into `full_bytes` across
    /// every CU.
    fn all_gather(&mut self, kernel: KernelKind, input: Tag, full_bytes: f64) -> Tag {
        let n_cus = self.plan.num_cus;
        let fragment_bytes = full_bytes / f64::from(n_cus);
        self.collective(
            kernel,
            CollectiveKind::AllGather,
            input,
            fragment_bytes,
            full_bytes,
            n_cus,
        )
    }

    /// A column-sharded VMM onto the hidden dimension followed by the
    /// all-gather of its fragments: `wO` and every FFN down projection.
    fn project_and_gather(
        &mut self,
        kernel: KernelKind,
        weight_bytes: f64,
        flops: f64,
        input: Tag,
    ) -> Tag {
        let (b, h, act) = (self.batch, f64::from(self.model.hidden), self.act_bytes());
        let c = self.plan.total_cores();
        let frag = self.vmm(kernel, weight_bytes, flops, b * h / c * act, vec![input], 1);
        self.all_gather(kernel, frag, b * h * act)
    }

    /// One FFN block: gate/up VMM on `input` → SiLU → all-gather → down
    /// VMM → all-gather. `streamed` weight copies stream (the expected
    /// distinct active experts for the routed block, else 1) and
    /// `tokens` rows of width `inner` flow through it.
    fn ffn_block(
        &mut self,
        (up, down): (KernelKind, KernelKind),
        input: Tag,
        streamed: f64,
        tokens: f64,
        inner: f64,
    ) -> Tag {
        let h = f64::from(self.model.hidden);
        let act = self.act_bytes();
        let wb = self.weight_bytes();
        let c = self.plan.total_cores();
        let gate_up = self.vmm(
            up,
            streamed * h * 2.0 * inner * wb,
            2.0 * tokens * h * 2.0 * inner,
            tokens * 2.0 * inner / c * act,
            vec![input],
            1,
        );
        let silu = self.vops(
            KernelKind::Activation,
            vec![gate_up],
            4.0 * tokens * inner / c,
            tokens * inner / c * act,
            1,
        );
        let silu_full = self.all_gather(up, silu, tokens * inner * act);
        self.project_and_gather(
            down,
            streamed * inner * h * wb,
            2.0 * tokens * inner * h,
            silu_full,
        )
    }

    /// Lowers the post-attention norm and the FFN of the current layer;
    /// returns the gathered output vectors the next layer's norm sums.
    fn lower_ffn(&mut self, x2: Tag) -> Vec<Tag> {
        let (m, b) = (self.model, self.batch);
        let h = f64::from(m.hidden);
        let act = self.act_bytes();
        let wb = self.weight_bytes();
        let c = self.plan.total_cores();
        let moe = m.moe.filter(|_| m.is_moe_layer(self.layer));
        let shared = moe.map_or(0, |moe| moe.shared_intermediate);
        // Post-attention norm; in an MoE layer the shared expert, if
        // any, reads it as well as the router.
        let x2n = self.vops(
            KernelKind::PostNorm,
            vec![x2],
            4.0 * b * h / c,
            b * h * act,
            1 + u8::from(shared > 0),
        );
        let Some(moe) = moe else {
            let dense = (KernelKind::GateUp, KernelKind::Down);
            return vec![self.ffn_block(dense, x2n, 1.0, b, f64::from(m.intermediate))];
        };

        // Router: tiny VMM + ring reduction of routing decisions.
        let e = f64::from(moe.num_experts);
        let n_cus = self.plan.num_cus;
        let r_frag = self.vmm(
            KernelKind::Router,
            h * e * wb,
            2.0 * b * h * e,
            b * e / c * act,
            vec![x2n],
            1,
        );
        let route = self.collective(
            KernelKind::Router,
            CollectiveKind::Reduce,
            r_frag,
            b * e * act / f64::from(n_cus),
            b * 16.0,
            n_cus,
        );

        // Routed experts (weights for distinct active experts only).
        let routed = (KernelKind::MoeGateUp, KernelKind::MoeDown);
        let active = m.expected_active_experts(self.batch as u32);
        let tokens = b * f64::from(moe.experts_per_token);
        let inner = f64::from(moe.expert_intermediate);
        let mut out = vec![self.ffn_block(routed, route, active, tokens, inner)];

        // Shared (always-active) expert.
        if shared > 0 {
            let kinds = (KernelKind::SharedGateUp, KernelKind::SharedDown);
            out.push(self.ffn_block(kinds, x2n, 1.0, b, f64::from(shared)));
        }
        out
    }

    fn lower_layer(&mut self, x_tags: Vec<Tag>) -> Vec<Tag> {
        let m = self.model;
        let b = self.batch;
        let s = self.seq_len;
        let h = f64::from(m.hidden);
        let nh = f64::from(m.num_heads);
        let nkv = f64::from(m.num_kv_heads);
        let hd = f64::from(m.head_dim);
        let act = self.act_bytes();
        let wb = self.weight_bytes();
        let kvb = self.precision.kv_cache.bytes_per_value();
        let c = self.plan.total_cores();
        let q_dim = nh * hd;
        let kv_dim = 2.0 * nkv * hd;
        let group = self.plan.head_group_cus();

        // Pre-attention norm (each core normalises the slice it feeds
        // to its column shard, so the work is sharded too).
        let xn = self.vops(
            KernelKind::InputNorm,
            x_tags,
            4.0 * b * h / c,
            b * h * act,
            1,
        );

        // wQKV.
        let qkv = self.vmm(
            KernelKind::QkvProj,
            h * (q_dim + kv_dim) * wb,
            2.0 * b * h * (q_dim + kv_dim),
            b * (q_dim + kv_dim) / c * act,
            vec![xn],
            1,
        );

        // Gather Q/K/V fragments within the GQA head group.
        let qkv_g = self.collective(
            KernelKind::QkvProj,
            CollectiveKind::GroupGather,
            qkv,
            b * (q_dim + kv_dim) / c * act,
            b * (q_dim + kv_dim) / c * act * f64::from(group),
            group,
        );

        // Rotary embeddings; output feeds both the KV append and QK^T.
        let qkv_r = self.vops(
            KernelKind::Rope,
            vec![qkv_g],
            4.0 * b * (nh + nkv) * hd / c * f64::from(group),
            b * (q_dim + kv_dim) / c * act * f64::from(group),
            2,
        );

        // KV append (this layer's shard of the new token's K/V).
        self.push(
            KernelKind::KvAppend,
            Op::MemStore {
                input: Some(qkv_r),
                bytes: (b * kv_dim * kvb / c).ceil().max(1.0) as u64,
            },
        );

        // QK^T against the streamed K cache shard.
        let k_bytes = b * s * nkv * hd * kvb;
        let scores = self.vmm(
            KernelKind::AttnScore,
            k_bytes,
            2.0 * b * nh * hd * s,
            b * nh * s / c * act,
            vec![qkv_r],
            2,
        );

        // Distributed softmax: max + exp-sum ring reductions, then the
        // local normalisation.
        let sm_stats = self.collective(
            KernelKind::Softmax,
            CollectiveKind::Reduce,
            scores,
            b * nh * 4.0 / f64::from(self.plan.num_cus),
            b * nh * 8.0,
            group,
        );
        let probs = self.vops(
            KernelKind::Softmax,
            vec![scores, sm_stats],
            5.0 * b * nh * s / c,
            b * nh * s / c * act,
            1,
        );

        // s(QK^T)V against the streamed V cache shard.
        let ctx = self.vmm(
            KernelKind::AttnContext,
            b * s * nkv * hd * kvb,
            2.0 * b * nh * hd * s,
            b * q_dim / c * act,
            vec![probs],
            1,
        );

        // wO + all-gather of the attention output.
        let x2 = self.project_and_gather(
            KernelKind::OutProj,
            q_dim * h * wb,
            2.0 * b * q_dim * h,
            ctx,
        );
        self.lower_ffn(x2)
    }

    fn lower_lm_head(&mut self, x_tags: Vec<Tag>) {
        let m = self.model;
        let b = self.batch;
        let h = f64::from(m.hidden);
        let v = f64::from(m.vocab);
        let act = self.act_bytes();
        let c = self.plan.total_cores();
        self.layer = u32::MAX;

        let xn = self.vops(
            KernelKind::InputNorm,
            x_tags,
            4.0 * b * h / c,
            b * h * act,
            1,
        );
        let logits = self.vmm(
            KernelKind::LmHead,
            h * v * self.weight_bytes(),
            2.0 * b * h * v,
            b * v / c * act,
            vec![xn],
            1,
        );
        // Final token-selection reduction back to the host.
        self.collective(
            KernelKind::LmHead,
            CollectiveKind::Reduce,
            logits,
            b * 8.0,
            b * 8.0,
            self.plan.num_cus,
        );
    }
}

/// Compiles one decode step (one generated token for each of `batch`
/// queries at context `seq_len`) into the three per-core instruction
/// streams of a representative core.
///
/// All sizes are per-core shares under column sharding across
/// `plan.total_cores()` cores; ring collectives are expressed at CU
/// granularity.
#[must_use]
pub fn compile_decode_step(
    model: &ModelConfig,
    precision: Precision,
    batch: u32,
    seq_len: u32,
    plan: &ShardPlan,
) -> CoreProgram {
    let mut l = Lowering {
        model,
        precision,
        batch: f64::from(batch),
        seq_len: f64::from(seq_len),
        plan: *plan,
        layer: 0,
        program: CoreProgram::default(),
        next_tag: 0,
    };

    // Inject the embedded input token vector(s).
    let x0 = l.tag();
    let bytes = (l.batch * f64::from(model.hidden) * l.act_bytes()).ceil() as u64;
    l.push(
        KernelKind::InputNorm,
        Op::Inject {
            out: Production {
                tag: x0,
                bytes,
                valid_count: 1,
            },
        },
    );

    let mut x_tags = vec![x0];
    for layer in 0..model.num_layers {
        l.layer = layer;
        x_tags = l.lower_layer(x_tags);
    }
    l.lower_lm_head(x_tags);
    l.program
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_models::DecodeWorkload;
    use rpu_util::assert_approx;

    fn compile_8b(batch: u32, n_cus: u32) -> CoreProgram {
        compile_decode_step(
            &ModelConfig::llama3_8b(),
            Precision::mxfp4_inference(),
            batch,
            16 * 1024,
            &ShardPlan::new(n_cus, 16),
        )
    }

    #[test]
    fn dataflow_is_valid_for_all_models() {
        for m in ModelConfig::zoo() {
            let prog = compile_decode_step(
                &m,
                Precision::mxfp4_inference(),
                1,
                8192,
                &ShardPlan::new(64, 16),
            );
            prog.validate_dataflow()
                .unwrap_or_else(|e| panic!("{}: {e}", m.name));
        }
    }

    #[test]
    fn per_core_bytes_match_analytical_model() {
        // Compiler totals x core count must agree with the analytical
        // kernel decomposition (weights + KV reads).
        let m = ModelConfig::llama3_8b();
        let p = Precision::mxfp4_inference();
        let plan = ShardPlan::new(64, 16);
        let prog = compile_decode_step(&m, p, 1, 16 * 1024, &plan);
        let wl = DecodeWorkload::new(&m, p, 1, 16 * 1024);
        let sim_total = prog.stats().weight_bytes * plan.total_cores();
        let expect = wl.weight_bytes() + wl.kv_read_bytes();
        assert_approx(sim_total, expect, 0.01, "streamed bytes");
    }

    #[test]
    fn per_core_flops_match_analytical_model() {
        let m = ModelConfig::llama3_70b();
        let p = Precision::mxfp4_inference();
        let plan = ShardPlan::new(128, 16);
        let prog = compile_decode_step(&m, p, 4, 8192, &plan);
        let wl = DecodeWorkload::new(&m, p, 4, 8192);
        let sim_total = prog.stats().flops * plan.total_cores();
        // VOps norm flops are counted whole-vector in the workload but
        // sharded in the compiler; agreement within a few percent.
        assert_approx(sim_total, wl.flops(), 0.05, "FLOPs");
    }

    #[test]
    fn store_bytes_cover_kv_append() {
        let m = ModelConfig::llama3_8b();
        let p = Precision::mxfp4_inference();
        let plan = ShardPlan::new(64, 16);
        let prog = compile_decode_step(&m, p, 2, 8192, &plan);
        let total_store = prog.stats().store_bytes * plan.total_cores();
        // 2 queries x 2 x 8 KV heads x 128 x 32 layers x 1 B.
        let expect = 2.0 * m.kv_bytes_per_token(p);
        assert_approx(total_store, expect, 0.05, "KV append bytes");
    }

    #[test]
    fn collectives_scale_with_layers() {
        let prog = compile_8b(1, 64);
        let stats = prog.stats();
        // >= 4 collectives per layer (group gather, softmax, wO gather,
        // FFN gathers) + LM head.
        assert!(stats.collectives >= 4 * 32);
        assert!(stats.collectives < 10 * 32);
    }

    #[test]
    fn three_streams_populated() {
        let prog = compile_8b(1, 64);
        assert!(!prog.mem.is_empty());
        assert!(!prog.comp.is_empty());
        assert!(!prog.net.is_empty());
    }

    #[test]
    fn weight_bytes_scale_inverse_with_cores() {
        let p64 = compile_8b(1, 64).stats().weight_bytes;
        let p128 = compile_8b(1, 128).stats().weight_bytes;
        assert_approx(p64, 2.0 * p128, 0.01, "per-core share halves");
    }

    #[test]
    fn moe_streams_fewer_weights_than_dense_equivalent() {
        let mav = ModelConfig::llama4_maverick();
        let p = Precision::mxfp4_inference();
        let plan = ShardPlan::new(64, 16);
        let prog = compile_decode_step(&mav, p, 1, 8192, &plan);
        let streamed = prog.stats().weight_bytes * plan.total_cores();
        // At BS=1 only ~17B of ~400B params stream per token.
        assert!(streamed < 0.15 * mav.weight_bytes(p));
    }
}
