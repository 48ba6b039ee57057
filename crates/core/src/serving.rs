//! Adapting [`RpuSystem`] to the request-level serving simulator.
//!
//! `rpu-serve`'s continuous-batching scheduler is machine-agnostic: it
//! asks a [`CostModel`] for decode-iteration and prefill latencies and
//! for the KV capacity it admits against. [`RpuCostModel`] answers
//! those questions with the real stack — each distinct (batch,
//! bucketed-context) decode iteration is compiled and run through the
//! event-driven simulator once via [`RpuSystem::token_latency`] and
//! memoised, and the capacity is the largest KV residency
//! [`RpuSystem::fits`] accepts, found once at construction. A replica
//! admits a conservative reservation `reserved` exactly when
//! `reserved <= kv_capacity_tokens()`.
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
use std::hash::Hash;
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
///
/// A cheap `Send + Sync` handle: clones share the immutable machine
/// and one memo. A homogeneous `rpu_serve::Fleet` wants N cost models
/// for N replicas, but each distinct (batch, bucketed-context) decode
/// step prices identically on identical machines — simulating it once
/// per replica would multiply the slowest part of a fleet sweep by N
/// for bit-equal results. Handing every replica, and every worker
/// thread of a parallel sweep, a clone of one model simulates each step
/// once. The memo only ever stores deterministic simulator outputs, so
/// sharing changes nothing but wall-clock time — no matter which clone
/// or thread fills an entry first, it holds the same value.
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
    memo: Mutex<Memo>,
}

/// Priced decode steps by (batch, bucketed context) and prefills by
/// prompt length.
#[derive(Debug, Default)]
struct Memo {
    decode: HashMap<(u32, u32), f64>,
    prefill: HashMap<u32, f64>,
}

impl RpuCostModel {
    /// Builds the paper-default cost model: decode on `sys`, prefill on
    /// one H100.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s weights alone do not fit `sys`'s memory.
    #[must_use]
    pub fn new(sys: RpuSystem, model: ModelConfig) -> Self {
        Self::with_prefill(
            sys,
            model,
            PrefillBackend::Gpu(GpuSystem::new(GpuSpec::h100_sxm(), 1)),
        )
    }

    /// Builds a cost model with an explicit prefill backend.
    ///
    /// # Panics
    ///
    /// Panics if `model`'s weights alone do not fit `sys`'s memory: such
    /// a machine could admit nothing, not even an empty reservation.
    #[must_use]
    pub fn with_prefill(sys: RpuSystem, model: ModelConfig, prefill: PrefillBackend) -> Self {
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
        Self(Arc::new(Machine {
            sys,
            model,
            prefill,
            kv_capacity_tokens: u64::from(lo),
            memo: Mutex::default(),
        }))
    }

    /// Number of distinct decode-step simulations performed so far by
    /// this model and every clone of it — the scheduler's context
    /// bucketing keeps this small.
    ///
    /// # Panics
    ///
    /// Panics if a thread panicked while holding the memo lock.
    #[must_use]
    pub fn distinct_decode_sims(&self) -> usize {
        self.memo().decode.len()
    }

    fn memo(&self) -> std::sync::MutexGuard<'_, Memo> {
        self.0.memo.lock().expect("cost-model memo poisoned")
    }

    /// Double-checked memoisation: the lock is held only for the
    /// lookup and the insert, never across `price` — so a miss on one
    /// thread never blocks the other threads' hits. Two threads racing
    /// on the same miss both price it, but pricing is deterministic,
    /// so whichever insert lands first holds the identical value.
    fn memoised<K: Eq + Hash>(
        &self,
        table: fn(&mut Memo) -> &mut HashMap<K, f64>,
        key: K,
        price: impl FnOnce(&Machine) -> f64,
    ) -> f64 {
        if let Some(&v) = table(&mut self.memo()).get(&key) {
            return v;
        }
        let v = price(&self.0);
        *table(&mut self.memo()).entry(key).or_insert(v)
    }
}

impl CostModel for RpuCostModel {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        self.memoised(
            |m| &mut m.decode,
            (batch, max_context),
            |m| {
                m.sys
                    .token_latency(&m.model, batch, max_context)
                    .expect("decode step simulates")
            },
        )
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        self.memoised(
            |m| &mut m.prefill,
            prompt_len,
            |m| match m.prefill {
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
            },
        )
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.0.kv_capacity_tokens
    }
}

/// Builds the shared serving test-bed every request-level sweep starts
/// from: Llama3-8B decode at MXFP4 on `num_cus` CUs with a GPU prefill
/// tier, provisioned for `longest_context` (prompt + output tokens of
/// the longest class, bucketed), and one memoised [`RpuCostModel`]
/// whose clones all runs — across policies, routers, fleet sizes and
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
    (config, RpuCostModel::new(sys, model))
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
        // One replica admits a reservation equal to the published
        // capacity and rejects one token more.
        let (sys, model) = system();
        let cm = RpuCostModel::new(sys, model);
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
            let cap = RpuCostModel::new(sys, model).kv_capacity_tokens();
            let cap = u32::try_from(cap).unwrap();
            assert!(sys.fits(&model, 1, cap), "{} on {cus} CUs", model.name);
            assert!(!sys.fits(&model, 1, cap + 1), "{} on {cus} CUs", model.name);
        }
    }

    #[test]
    #[should_panic(expected = "weights do not fit")]
    fn a_machine_that_cannot_hold_the_weights_is_rejected() {
        let (sys, _) = system();
        let _ = RpuCostModel::new(sys, ModelConfig::llama3_405b());
    }

    #[test]
    fn shared_cost_model_crosses_threads() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<RpuCostModel>();
        // Concurrent lookups through clones of one model agree and
        // share the memo.
        let (sys, model) = system();
        let shared = RpuCostModel::new(sys, model);
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
        let shared = RpuCostModel::new(sys, model);
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
