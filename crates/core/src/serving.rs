//! Adapting [`RpuSystem`] to the request-level serving simulator.
//!
//! `rpu-serve`'s continuous-batching scheduler is machine-agnostic: it
//! asks a [`CostModel`] for decode-iteration and prefill latencies and
//! for KV-capacity admission. [`RpuCostModel`] answers those questions
//! with the real stack — each distinct (batch, bucketed-context) decode
//! iteration is compiled and run through the event-driven simulator
//! once via [`RpuSystem::token_latency`] and memoised, and admission
//! uses [`RpuSystem::fits`] on the conservative KV reservation.
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
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Where prefill runs and how it is priced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PrefillBackend {
    /// A disaggregated GPU prefill tier (the paper's deployment model).
    Gpu(GpuSystem),
    /// Prefill on the RPU itself, at its roofline.
    OnRpu,
}

/// [`RpuSystem`] as a serving cost model, with memoised simulator runs.
#[derive(Debug, Clone)]
pub struct RpuCostModel {
    sys: RpuSystem,
    model: ModelConfig,
    prefill: PrefillBackend,
    /// Precision used to price GPU-side prefill.
    gpu_precision: Precision,
    /// Largest KV residency `sys.fits` accepts, precomputed once for
    /// fleet telemetry.
    kv_capacity_tokens: u64,
    decode_cache: HashMap<(u32, u32), f64>,
    prefill_cache: HashMap<u32, f64>,
}

impl RpuCostModel {
    /// Builds the paper-default cost model: decode on `sys`, prefill on
    /// one H100.
    #[must_use]
    pub fn new(sys: RpuSystem, model: ModelConfig) -> Self {
        Self::with_prefill(
            sys,
            model,
            PrefillBackend::Gpu(GpuSystem::new(GpuSpec::h100_sxm(), 1)),
        )
    }

    /// Builds a cost model with an explicit prefill backend.
    #[must_use]
    pub fn with_prefill(sys: RpuSystem, model: ModelConfig, prefill: PrefillBackend) -> Self {
        // Binary search the capacity boundary once: `fits` is monotone
        // in tokens (KV bytes only grow), so the largest accepted
        // residency is well-defined. Published in fleet telemetry.
        let kv_capacity_tokens = if sys.fits(&model, 1, 0) {
            let (mut lo, mut hi) = (0u32, u32::MAX);
            while lo < hi {
                let mid = lo + (hi - lo) / 2 + (hi - lo) % 2;
                if sys.fits(&model, 1, mid) {
                    lo = mid;
                } else {
                    hi = mid - 1;
                }
            }
            u64::from(lo)
        } else {
            0
        };
        Self {
            sys,
            model,
            prefill,
            gpu_precision: Precision::gpu_w4a16(),
            kv_capacity_tokens,
            decode_cache: HashMap::new(),
            prefill_cache: HashMap::new(),
        }
    }

    /// Number of distinct decode-step simulations performed so far —
    /// the scheduler's context bucketing keeps this small.
    #[must_use]
    pub fn distinct_decode_sims(&self) -> usize {
        self.decode_cache.len()
    }
}

/// Simulates one decode iteration — the expensive, deterministic call
/// both the exclusive and the shared cost model memoise.
fn simulate_decode(sys: &RpuSystem, model: &ModelConfig, batch: u32, max_context: u32) -> f64 {
    sys.token_latency(model, batch, max_context)
        .expect("decode step simulates")
}

/// Prices one prompt's prefill on the configured backend.
fn price_prefill(
    sys: &RpuSystem,
    model: &ModelConfig,
    gpu_precision: Precision,
    prefill: &PrefillBackend,
    prompt_len: u32,
) -> f64 {
    match prefill {
        PrefillBackend::Gpu(gpus) => {
            let wl = PrefillWorkload::new(model, gpu_precision, 1, prompt_len);
            gpus.prefill_latency(&wl)
        }
        PrefillBackend::OnRpu => {
            // Deployment precision on the RPU's own roofline.
            let wl = PrefillWorkload::new(model, sys.precision, 1, prompt_len);
            (wl.bytes() / sys.arch.mem_bandwidth()).max(wl.flops() / sys.arch.peak_flops())
        }
    }
}

impl CostModel for RpuCostModel {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        if let Some(v) = self.decode_cache.get(&(batch, max_context)) {
            return *v;
        }
        let v = simulate_decode(&self.sys, &self.model, batch, max_context);
        self.decode_cache.insert((batch, max_context), v);
        v
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        if let Some(v) = self.prefill_cache.get(&prompt_len) {
            return *v;
        }
        let v = price_prefill(
            &self.sys,
            &self.model,
            self.gpu_precision,
            &self.prefill,
            prompt_len,
        );
        self.prefill_cache.insert(prompt_len, v);
        v
    }

    fn fits(&self, context_tokens: u64) -> bool {
        // Weights + `context_tokens` resident KV tokens: exactly the
        // (batch = 1, seq = tokens) footprint.
        let tokens = u32::try_from(context_tokens).unwrap_or(u32::MAX);
        self.sys.fits(&self.model, 1, tokens)
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.kv_capacity_tokens
    }
}

/// One memoised [`RpuCostModel`] shared by every replica of a fleet
/// SKU — and, because it is `Send + Sync`, by every worker thread of a
/// parallel sweep.
///
/// A homogeneous `rpu_serve::Fleet` wants N cost models for N replicas,
/// but each distinct (batch, bucketed-context) decode step prices
/// identically on identical machines — simulating it once per replica
/// would multiply the slowest part of a fleet sweep by N for bit-equal
/// results. Handles clone cheaply and share one mutex-guarded cache;
/// the cache only ever stores deterministic simulator outputs, so
/// sharing changes nothing but wall-clock time — no matter which
/// thread populates an entry first, it holds the same value.
#[derive(Debug, Clone)]
pub struct SharedRpuCostModel(Arc<Mutex<RpuCostModel>>);

impl SharedRpuCostModel {
    /// Wraps a cost model for sharing.
    #[must_use]
    pub fn new(inner: RpuCostModel) -> Self {
        Self(Arc::new(Mutex::new(inner)))
    }

    /// Number of distinct decode-step simulations across *all* handles.
    ///
    /// # Panics
    ///
    /// Panics if a sweep worker panicked while holding the memo lock.
    #[must_use]
    pub fn distinct_decode_sims(&self) -> usize {
        self.lock().distinct_decode_sims()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, RpuCostModel> {
        self.0.lock().expect("cost-model cache poisoned")
    }
}

impl CostModel for SharedRpuCostModel {
    /// Double-checked memoisation: the lock is held only for the cache
    /// lookup and the insert, never across the event-driven simulation
    /// — so a cache miss on one worker never blocks the other workers'
    /// cache hits. Two workers racing on the same miss both simulate,
    /// but the simulator is deterministic, so whichever insert lands
    /// first holds the identical value.
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        let (sys, model) = {
            let guard = self.lock();
            if let Some(v) = guard.decode_cache.get(&(batch, max_context)) {
                return *v;
            }
            (guard.sys, guard.model)
        };
        let v = simulate_decode(&sys, &model, batch, max_context);
        *self
            .lock()
            .decode_cache
            .entry((batch, max_context))
            .or_insert(v)
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        let (sys, model, gpu_precision, prefill) = {
            let guard = self.lock();
            if let Some(v) = guard.prefill_cache.get(&prompt_len) {
                return *v;
            }
            (guard.sys, guard.model, guard.gpu_precision, guard.prefill)
        };
        let v = price_prefill(&sys, &model, gpu_precision, &prefill, prompt_len);
        *self.lock().prefill_cache.entry(prompt_len).or_insert(v)
    }

    fn fits(&self, context_tokens: u64) -> bool {
        self.lock().fits(context_tokens)
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.lock().kv_capacity_tokens()
    }
}

/// Builds the shared serving test-bed every request-level sweep starts
/// from: Llama3-8B decode at MXFP4 on `num_cus` CUs with a GPU prefill
/// tier, provisioned for `longest_context` (prompt + output tokens of
/// the longest class, bucketed), and one memoised [`SharedRpuCostModel`]
/// that all runs — across policies, routers, fleet sizes and sweep
/// worker threads — price decode steps through.
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
) -> (ServeConfig, SharedRpuCostModel) {
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
    let cost = SharedRpuCostModel::new(RpuCostModel::new(sys, model));
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
    fn decode_costs_are_memoised_and_positive() {
        let (sys, model) = system();
        let mut cm = RpuCostModel::new(sys, model);
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
        let mut gpu = RpuCostModel::new(sys, model);
        let mut rpu = RpuCostModel::with_prefill(sys, model, PrefillBackend::OnRpu);
        for cm in [&mut gpu, &mut rpu] {
            let short = cm.prefill_s(256);
            let long = cm.prefill_s(4096);
            assert!(short > 0.0);
            assert!(long > short, "prefill must grow with prompt length");
            // Memoised: identical draw, no drift.
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
        let (sys, model) = system();
        let cm = RpuCostModel::new(sys, model);
        assert!(cm.fits(8 * 4096));
        assert!(!cm.fits(u64::from(u32::MAX)));
    }

    #[test]
    fn published_capacity_is_the_fits_boundary() {
        let (sys, model) = system();
        let cm = RpuCostModel::new(sys, model);
        let cap = cm.kv_capacity_tokens();
        assert!(cap >= 8 * 4096, "provisioned for batch 8 x 4096: {cap}");
        assert!(cm.fits(cap));
        assert!(!cm.fits(cap + 1));
    }

    #[test]
    fn shared_cost_model_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SharedRpuCostModel>();
        // Concurrent lookups through clones of one handle agree and
        // share the memo cache.
        let (sys, model) = system();
        let shared = SharedRpuCostModel::new(RpuCostModel::new(sys, model));
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
        let mut by_hand = RpuCostModel::new(sys, model);
        assert_eq!(cost.decode_step_s(4, 1024), by_hand.decode_step_s(4, 1024));
        assert_eq!(cost.prefill_s(1024), by_hand.prefill_s(1024));
        assert_eq!(cost.kv_capacity_tokens(), by_hand.kv_capacity_tokens());
    }

    #[test]
    fn shared_handles_share_one_memo_cache() {
        let (sys, model) = system();
        let shared = SharedRpuCostModel::new(RpuCostModel::new(sys, model));
        let mut a = shared.clone();
        let mut b = shared.clone();
        let x = a.decode_step_s(2, 1024);
        let y = b.decode_step_s(2, 1024);
        assert_eq!(x, y);
        assert_eq!(shared.distinct_decode_sims(), 1);
        assert_eq!(a.kv_capacity_tokens(), b.kv_capacity_tokens());
        assert!(a.fits(1024) && b.fits(1024));
    }

    #[test]
    fn end_to_end_serve_with_the_real_stack() {
        let (sys, model) = system();
        let mut cm = RpuCostModel::new(sys, model);
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
}
