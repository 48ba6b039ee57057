//! Adapting [`RpuSystem`] to the request-level serving simulator.
//!
//! `rpu-serve`'s continuous-batching scheduler is machine-agnostic: it
//! asks a [`CostModel`] for decode-iteration and prefill latencies and
//! for the KV capacity it admits against. [`RpuCostModel`] answers
//! those questions with the real stack — each distinct (batch,
//! bucketed-context) decode iteration is compiled and run through the
//! event-driven simulator once via [`RpuSystem::token_latency`], and
//! the capacity is the largest KV residency [`RpuSystem::fits`]
//! accepts, found once at construction. A replica admits a
//! conservative reservation `reserved` exactly when
//! `reserved <= kv_capacity_tokens()`.
//!
//! Prices live in dense tables shaped by the [`ServeConfig`] the model
//! is built for: one slot per decode step `(batch, context bucket)` the
//! scheduler can ask for, and one per prompt length up to the capacity.
//! A slot is filled on first use and never changes, so a repeated step
//! costs two atomic loads and no lock. A key outside that shape is
//! priced directly each time it is asked for and not stored.
//!
//! Prefill follows the paper's Splitwise/Dynamo assumption (prefill on
//! GPUs, decode on the RPU) by default: [`PrefillBackend::Gpu`] prices
//! prompts on the calibrated GPU baseline with its measured kernel
//! efficiencies. [`PrefillBackend::OnRpu`] instead charges the RPU's
//! own *ideal* roofline — an optimistic bound, since the decoupled
//! pipelines are not modelled for prefill — and pairs with the
//! scheduler's `collocated_prefill` stall to study single-box
//! interference.

use crate::RpuSystem;
use rpu_gpu::{GpuSpec, GpuSystem};
use rpu_models::{ModelConfig, Precision, PrefillWorkload};
use rpu_serve::{CostModel, ServeConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

/// Where prefill runs and how it is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefillBackend {
    /// A disaggregated GPU prefill tier (the paper's deployment model).
    Gpu(GpuSystem),
    /// Prefill on the RPU itself, at its roofline.
    OnRpu,
}

/// [`RpuSystem`] as a serving cost model, with each price computed once.
///
/// A cheap `Send + Sync` handle: clones share the immutable machine
/// and its price tables. A homogeneous `rpu_serve::Fleet` wants N cost
/// models for N replicas, but each distinct (batch, bucketed-context)
/// decode step prices identically on identical machines — simulating it
/// once per replica would multiply the slowest part of a fleet sweep by
/// N for bit-equal results. Handing every replica, and every worker
/// thread of a parallel sweep, a clone of one model simulates each step
/// once.
///
/// The tables are shaped by the [`ServeConfig`] passed at construction:
/// decode slots cover `1 <= batch <= max_batch` at every multiple of
/// `seq_bucket` up to the bucketed capacity, and prefill slots cover
/// every prompt length up to the capacity. That is every key the
/// scheduler asks for under that config, since admission caps a
/// reservation at the capacity. Each in-shape key is priced exactly
/// once across all clones and threads: a thread that asks for a key
/// another thread is pricing waits for that price. A hit takes no
/// lock. A key outside the shape (a larger batch, an unbucketed or
/// longer context, a longer prompt), or past a table's 2^20 slots, is
/// priced directly on every call and not stored. Memory grows with the
/// 1024-slot chunks touched, not with the capacity.
#[derive(Debug, Clone)]
pub struct RpuCostModel(Arc<Machine>);

/// The state every clone of one [`RpuCostModel`] shares.
#[derive(Debug)]
struct Machine {
    sys: RpuSystem,
    model: ModelConfig,
    prefill: PrefillBackend,
    /// Largest KV residency `sys.fits` accepts.
    kv_capacity_tokens: u64,
    max_batch: u32,
    /// The config's `seq_bucket`, at least 1.
    seq_bucket: u32,
    /// Context buckets `0..=bucket(capacity) / seq_bucket`.
    buckets: u32,
    /// Decode prices at slot `bucket * max_batch + batch - 1`.
    decode_table: PriceTable,
    /// Prefill prices at slot `prompt_len`.
    prefill_table: PriceTable,
    /// Decode-step simulations run.
    decode_sims: AtomicUsize,
}

/// Slots per lazily allocated chunk of a [`PriceTable`].
const CHUNK: usize = 1024;

/// Most slots one [`PriceTable`] holds; keys past it are priced
/// directly. It bounds the chunk directory, allocated up front at 24
/// bytes a chunk: with `seq_bucket` 1, a wide batch and a capacity of
/// millions of tokens, the decode key space runs to billions of slots.
const MAX_SLOTS: usize = 1 << 20;

/// Prices at slots `0..len`, each filled once on first use: a fixed
/// directory of chunks, each allocated on first touch.
#[derive(Debug)]
struct PriceTable {
    len: usize,
    chunks: Box<[OnceLock<Chunk>]>,
}

/// `CHUNK` price slots, allocated together on the first touch of any.
type Chunk = Box<[OnceLock<f64>]>;

impl PriceTable {
    fn new(len: usize) -> Self {
        let len = len.min(MAX_SLOTS);
        Self {
            len,
            chunks: (0..len.div_ceil(CHUNK)).map(|_| OnceLock::new()).collect(),
        }
    }

    /// The price stored at `slot`, running `price` to fill it on first
    /// use; `price`'s value itself when `slot` is `None` or past the
    /// table.
    fn get_or_price(&self, slot: Option<usize>, price: impl FnOnce() -> f64) -> f64 {
        match slot.filter(|&s| s < self.len) {
            Some(s) => *self.chunks[s / CHUNK]
                .get_or_init(|| (0..CHUNK).map(|_| OnceLock::new()).collect())[s % CHUNK]
                .get_or_init(price),
            None => price(),
        }
    }
}

impl RpuCostModel {
    /// Builds the paper-default cost model: decode on `sys`, prefill on
    /// one H100, with price tables shaped for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s weights alone do not fit `sys`'s memory.
    #[must_use]
    pub fn new(sys: RpuSystem, model: ModelConfig, config: &ServeConfig) -> Self {
        Self::with_prefill(
            sys,
            model,
            config,
            PrefillBackend::Gpu(GpuSystem::new(GpuSpec::h100_sxm(), 1)),
        )
    }

    /// Builds a cost model with an explicit prefill backend, with price
    /// tables shaped for `config`.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s weights alone do not fit `sys`'s memory: such
    /// a machine could admit nothing, not even an empty reservation.
    #[must_use]
    pub fn with_prefill(
        sys: RpuSystem,
        model: ModelConfig,
        config: &ServeConfig,
        prefill: PrefillBackend,
    ) -> Self {
        assert!(
            sys.fits(&model, 1, 0),
            "{} weights do not fit {sys}",
            model.name
        );
        // Binary search the capacity boundary once: `fits` is monotone
        // in tokens (KV bytes only grow), so the largest accepted
        // residency is well-defined.
        let (mut lo, mut hi) = (0u32, u32::MAX);
        while lo < hi {
            let mid = lo + (hi - lo) / 2 + (hi - lo) % 2;
            if sys.fits(&model, 1, mid) {
                lo = mid;
            } else {
                hi = mid - 1;
            }
        }
        let seq_bucket = config.seq_bucket.max(1);
        let buckets = config.bucket(lo) / seq_bucket + 1;
        let decode_slots = (buckets as usize).saturating_mul(config.max_batch as usize);
        Self(Arc::new(Machine {
            sys,
            model,
            prefill,
            kv_capacity_tokens: u64::from(lo),
            max_batch: config.max_batch,
            seq_bucket,
            buckets,
            decode_table: PriceTable::new(decode_slots),
            prefill_table: PriceTable::new(lo as usize + 1),
            decode_sims: AtomicUsize::new(0),
        }))
    }

    /// Number of decode-step simulations run so far by this model and
    /// every clone of it. Each in-shape (batch, bucketed-context) key
    /// runs once, and the scheduler's context bucketing keeps those few.
    #[must_use]
    pub fn distinct_decode_sims(&self) -> usize {
        self.0.decode_sims.load(Ordering::Relaxed)
    }
}

impl Machine {
    /// The decode table's slot for a step, or `None` outside its shape.
    fn decode_slot(&self, batch: u32, context: u32) -> Option<usize> {
        let bucket = context / self.seq_bucket;
        let in_shape = (1..=self.max_batch).contains(&batch)
            && context.is_multiple_of(self.seq_bucket)
            && bucket < self.buckets;
        in_shape.then(|| bucket as usize * self.max_batch as usize + (batch - 1) as usize)
    }
}

impl CostModel for RpuCostModel {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        let m = &*self.0;
        m.decode_table
            .get_or_price(m.decode_slot(batch, max_context), || {
                m.decode_sims.fetch_add(1, Ordering::Relaxed);
                m.sys
                    .token_latency(&m.model, batch, max_context)
                    .expect("decode step simulates")
            })
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        let m = &*self.0;
        m.prefill_table
            .get_or_price(Some(prompt_len as usize), || match m.prefill {
                PrefillBackend::Gpu(gpus) => {
                    // The GPU tier's own W4A16 deployment precision.
                    let wl = PrefillWorkload::new(&m.model, Precision::gpu_w4a16(), 1, prompt_len);
                    gpus.prefill_latency(&wl)
                }
                PrefillBackend::OnRpu => {
                    // Deployment precision on the RPU's own roofline.
                    let wl = PrefillWorkload::new(&m.model, m.sys.precision, 1, prompt_len);
                    (wl.bytes() / m.sys.arch.mem_bandwidth())
                        .max(wl.flops() / m.sys.arch.peak_flops())
                }
            })
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.0.kv_capacity_tokens
    }
}

/// Builds the shared serving test-bed every request-level sweep starts
/// from: Llama3-8B decode at MXFP4 on `num_cus` CUs with a GPU prefill
/// tier, provisioned for `longest_context` (prompt + output tokens of
/// the longest class, bucketed), and one [`RpuCostModel`] priced for
/// that config, whose clones all runs — across policies, routers, fleet sizes and
/// sweep worker threads — price decode steps through and admit against.
///
/// Returns the [`ServeConfig`] (batch capped at `max_batch`) alongside
/// the cost model so callers sweep the exact machine the model prices.
///
/// # Panics
///
/// Panics if Llama3-8B cannot be deployed at `num_cus` (it can at every
/// scale the sweeps use).
#[must_use]
pub fn sweep_cost_model(
    num_cus: u32,
    max_batch: u32,
    longest_context: u32,
) -> (ServeConfig, RpuCostModel) {
    let model = ModelConfig::llama3_8b();
    let prec = Precision::mxfp4_inference();
    let config = ServeConfig {
        max_batch,
        ..ServeConfig::default()
    };
    // Provision for the *bucketed* maximum context: decode iterations
    // are priced at bucketed contexts, so that is the KV footprint the
    // machine must actually hold.
    let max_context = config.bucket(longest_context);
    let sys = RpuSystem::with_optimal_memory(&model, prec, max_batch, max_context, num_cus)
        .expect("Llama3-8B deploys at every sweep scale");
    let cost = RpuCostModel::new(sys, model, &config);
    (config, cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_serve::{serve, ServeConfig, Workload};

    fn system() -> (RpuSystem, ModelConfig) {
        let model = ModelConfig::llama3_8b();
        let prec = Precision::mxfp4_inference();
        let sys = RpuSystem::with_optimal_memory(&model, prec, 8, 4096, 64).unwrap();
        (sys, model)
    }

    #[test]
    fn decode_costs_are_priced_once_and_positive() {
        let (sys, model) = system();
        let mut cm = RpuCostModel::new(sys, model, &ServeConfig::default());
        let a = cm.decode_step_s(1, 1024);
        let b = cm.decode_step_s(1, 1024);
        assert_eq!(a, b);
        assert!(a > 0.0);
        assert_eq!(cm.distinct_decode_sims(), 1);
        // Larger batch at the same context costs more.
        assert!(cm.decode_step_s(8, 1024) > a);
        assert_eq!(cm.distinct_decode_sims(), 2);
    }

    #[test]
    fn prefill_backends_price_prompts_sensibly() {
        let (sys, model) = system();
        let mut gpu = RpuCostModel::new(sys, model, &ServeConfig::default());
        let mut rpu =
            RpuCostModel::with_prefill(sys, model, &ServeConfig::default(), PrefillBackend::OnRpu);
        for cm in [&mut gpu, &mut rpu] {
            let short = cm.prefill_s(256);
            let long = cm.prefill_s(4096);
            assert!(short > 0.0);
            assert!(long > short, "prefill must grow with prompt length");
            // Stored: identical draw, no drift.
            assert_eq!(cm.prefill_s(256), short);
        }
        // The backends are genuinely different machines.
        assert_ne!(gpu.prefill_s(2048), rpu.prefill_s(2048));
        // Prefill is compute-bound at 2k tokens: both tiers take
        // milliseconds-to-tens-of-milliseconds, far above a decode step.
        let decode = gpu.decode_step_s(1, 2048);
        assert!(gpu.prefill_s(2048) > 10.0 * decode);
    }

    #[test]
    fn fits_tracks_kv_residency() {
        // One replica admits a reservation equal to the published
        // capacity and rejects one token more.
        let (sys, model) = system();
        let cm = RpuCostModel::new(sys, model, &ServeConfig::default());
        let cap = u32::try_from(cm.kv_capacity_tokens()).unwrap();
        assert!(cap >= 8 * 4096, "provisioned for batch 8 x 4096: {cap}");
        let served = |prompt_len: u32| {
            let wl = Workload::poisson(10.0, prompt_len, 1, 1);
            let r = serve(&wl, &mut cm.clone(), &ServeConfig::default());
            (r.records.len(), r.rejected)
        };
        assert_eq!(served(cap - 1), (1, 0));
        assert_eq!(served(cap), (0, 1));
    }

    #[test]
    fn published_capacity_is_the_fits_boundary() {
        // The capacity is the machine's own rule's boundary, across
        // models and CU counts.
        let prec = Precision::mxfp4_inference();
        for (model, cus) in [
            (ModelConfig::llama3_8b(), 16),
            (ModelConfig::llama3_8b(), 64),
            (ModelConfig::llama3_70b(), 64),
            (ModelConfig::llama3_405b(), 128),
        ] {
            let sys = RpuSystem::with_optimal_memory(&model, prec, 4, 8192, cus).unwrap();
            let cap = RpuCostModel::new(sys, model, &ServeConfig::default()).kv_capacity_tokens();
            let cap = u32::try_from(cap).unwrap();
            assert!(sys.fits(&model, 1, cap), "{} on {cus} CUs", model.name);
            assert!(!sys.fits(&model, 1, cap + 1), "{} on {cus} CUs", model.name);
        }
    }

    #[test]
    #[should_panic(expected = "weights do not fit")]
    fn a_machine_that_cannot_hold_the_weights_is_rejected() {
        let (sys, _) = system();
        let _ = RpuCostModel::new(sys, ModelConfig::llama3_405b(), &ServeConfig::default());
    }

    #[test]
    fn shared_cost_model_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpuCostModel>();
        // Concurrent lookups through clones of one model agree and
        // share one table.
        let (sys, model) = system();
        let shared = RpuCostModel::new(sys, model, &ServeConfig::default());
        let priced: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    let mut cm = shared.clone();
                    s.spawn(move || cm.decode_step_s(2, 1024))
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert!(priced.windows(2).all(|w| w[0] == w[1]));
        assert_eq!(shared.distinct_decode_sims(), 1);
    }

    #[test]
    fn sweep_cost_model_prices_like_the_handwritten_setup() {
        let (config, mut cost) = sweep_cost_model(64, 8, 1024 + 128);
        assert_eq!(config.max_batch, 8);
        let model = ModelConfig::llama3_8b();
        let prec = Precision::mxfp4_inference();
        let sys = RpuSystem::with_optimal_memory(&model, prec, 8, config.bucket(1024 + 128), 64)
            .expect("8B deploys on 64 CUs");
        let mut by_hand = RpuCostModel::new(sys, model, &config);
        assert_eq!(cost.decode_step_s(4, 1024), by_hand.decode_step_s(4, 1024));
        assert_eq!(cost.prefill_s(1024), by_hand.prefill_s(1024));
        assert_eq!(cost.kv_capacity_tokens(), by_hand.kv_capacity_tokens());
    }

    #[test]
    fn shared_handles_share_one_memo_cache() {
        let (sys, model) = system();
        let shared = RpuCostModel::new(sys, model, &ServeConfig::default());
        let mut a = shared.clone();
        let mut b = shared.clone();
        let x = a.decode_step_s(2, 1024);
        let y = b.decode_step_s(2, 1024);
        assert_eq!(x, y);
        assert_eq!(shared.distinct_decode_sims(), 1);
        assert_eq!(a.prefill_s(512), b.prefill_s(512));
        assert_eq!(a.kv_capacity_tokens(), b.kv_capacity_tokens());
    }

    #[test]
    fn end_to_end_serve_with_the_real_stack() {
        let (sys, model) = system();
        let mut cm = RpuCostModel::new(sys, model, &ServeConfig::default());
        let wl = Workload::poisson(100.0, 512, 16, 12);
        let cfg = ServeConfig {
            max_batch: 4,
            ..ServeConfig::default()
        };
        let r = serve(&wl, &mut cm, &cfg);
        assert_eq!(r.records.len(), 12);
        assert!(r.peak_batch <= 4);
        // Bucketing bounds the distinct simulator calls.
        assert!(cm.distinct_decode_sims() <= 4 * 4);
    }

    /// The GPU tier's prefill price, computed the way the model does.
    fn gpu_prefill_s(model: &ModelConfig, prompt_len: u32) -> f64 {
        let wl = PrefillWorkload::new(model, Precision::gpu_w4a16(), 1, prompt_len);
        GpuSystem::new(GpuSpec::h100_sxm(), 1).prefill_latency(&wl)
    }

    #[test]
    fn clones_on_four_threads_price_each_key_once_and_bit_equal() {
        let (sys, model) = system();
        let cfg = ServeConfig::default();
        let keys: Vec<(u32, u32)> = (0..=2048 / cfg.seq_bucket)
            .flat_map(|b| (1..=cfg.max_batch).map(move |batch| (batch, b * cfg.seq_bucket)))
            .collect();
        let prompts: Vec<u32> = (0..64).map(|i| 1 + i * 997).collect();
        let shared = RpuCostModel::new(sys, model, &cfg);
        let start = std::sync::Barrier::new(4);
        let priced: Vec<(Vec<f64>, Vec<f64>)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let mut cm = shared.clone();
                    let (keys, prompts, start) = (&keys, &prompts, &start);
                    s.spawn(move || {
                        // The threads start together, each at its own
                        // offset into the keys, and so race on the first
                        // prices.
                        start.wait();
                        let n = keys.len();
                        let mut decode = vec![0.0; n];
                        for k in 0..n {
                            let j = (k + t * n / 4) % n;
                            decode[j] = cm.decode_step_s(keys[j].0, keys[j].1);
                        }
                        let prefill = prompts.iter().map(|&p| cm.prefill_s(p)).collect();
                        (decode, prefill)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(shared.distinct_decode_sims(), keys.len());
        let mut fresh = RpuCostModel::new(sys, model, &cfg);
        let decode: Vec<u64> = keys
            .iter()
            .map(|&(b, c)| fresh.decode_step_s(b, c).to_bits())
            .collect();
        let prefill: Vec<u64> = prompts
            .iter()
            .map(|&p| fresh.prefill_s(p).to_bits())
            .collect();
        for (d, p) in &priced {
            assert_eq!(d.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), decode);
            assert_eq!(p.iter().map(|x| x.to_bits()).collect::<Vec<_>>(), prefill);
        }
    }

    #[test]
    fn keys_outside_the_table_are_priced_directly_and_not_stored() {
        let (sys, model) = system();
        let cfg = ServeConfig::default();
        let mut cm = RpuCostModel::new(sys, model, &cfg);
        let cap = u32::try_from(cm.kv_capacity_tokens()).unwrap();
        let past_last_bucket = cfg.bucket(cap) + cfg.seq_bucket;
        for (batch, context) in [(cfg.max_batch + 1, 1024), (2, 1000), (1, past_last_bucket)] {
            let sims = cm.distinct_decode_sims();
            let direct = sys.token_latency(&model, batch, context).unwrap();
            assert_eq!(cm.decode_step_s(batch, context).to_bits(), direct.to_bits());
            assert_eq!(cm.decode_step_s(batch, context).to_bits(), direct.to_bits());
            assert_eq!(cm.distinct_decode_sims(), sims + 2, "({batch}, {context})");
        }
        for prompt in [cap, cap + 1, u32::MAX] {
            let direct = gpu_prefill_s(&model, prompt);
            assert_eq!(cm.prefill_s(prompt).to_bits(), direct.to_bits(), "{prompt}");
        }
    }
}
