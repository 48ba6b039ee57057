//! The cost-model boundary between the scheduler and a machine model.
//!
//! `rpu-serve` sits below `rpu-core` in the workspace layering, so it
//! cannot name `RpuSystem` directly. Instead the scheduler drives this
//! trait; `rpu-core` implements it on top of `RpuSystem::token_latency`
//! (with memoised simulator calls), and the in-crate
//! [`AnalyticCostModel`] provides a closed-form memory-bandwidth
//! machine for unit and property tests.
//!
//! Capacity is stated once: a replica admits a conservative KV
//! reservation `reserved` exactly when
//! `reserved <= kv_capacity_tokens()`, and publishes the same number in
//! its fleet telemetry. The scheduler reads it once per replica, when a
//! run starts.

/// Machine costs as seen by the continuous-batching scheduler.
pub trait CostModel {
    /// Latency of one decode iteration emitting one token for each of
    /// `batch` concurrent queries at (bucketed) context `max_context`,
    /// seconds.
    ///
    /// The price must be a function of its arguments alone: a replica
    /// asks once for a stretch of iterations at one `(batch,
    /// max_context)` and reuses the answer for all of them, including
    /// when it replays decode iterations it ran ahead of the fleet
    /// clock. A model that memoises its prices (as `rpu-core`'s
    /// `RpuCostModel` does, in a table shared by every replica) relies
    /// on the same rule.
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64;

    /// Latency to prefill one request's `prompt_len` tokens, seconds.
    fn prefill_s(&mut self, prompt_len: u32) -> f64;

    /// `true` when a residency of `context_tokens` KV tokens fits:
    /// `context_tokens <= self.kv_capacity_tokens()`, the one admission
    /// rule. The scheduler never calls it.
    #[deprecated(note = "admission is `reserved <= kv_capacity_tokens()`")]
    fn fits(&self, context_tokens: u64) -> bool {
        context_tokens <= self.kv_capacity_tokens()
    }

    /// The largest KV residency (tokens, summed over all admitted
    /// requests at their conservative maximum) that fits the machine's
    /// memory alongside the weights. A replica admits a reservation
    /// `reserved` exactly when `reserved <= kv_capacity_tokens()`, and
    /// publishes this capacity in its fleet telemetry so routers can
    /// reason about relative KV headroom across heterogeneous machines.
    /// Read once per replica when a run starts, so it must not change
    /// over the model's life.
    fn kv_capacity_tokens(&self) -> u64;
}

/// A closed-form memory-bandwidth cost model: one decode iteration
/// streams the weights once plus every resident KV byte; prefill costs a
/// fixed time per prompt token. Used by the serve-crate test suites and
/// as a fast stand-in when no simulator is wanted.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalyticCostModel {
    /// Time to stream the weights once, seconds (decode floor).
    pub weight_stream_s: f64,
    /// Extra seconds per resident KV token per iteration.
    pub kv_token_s: f64,
    /// Prefill seconds per prompt token.
    pub prefill_token_s: f64,
    /// KV capacity, tokens.
    pub kv_capacity_tokens: u64,
}

impl AnalyticCostModel {
    /// A small, fast machine for tests: 1 ms weight stream, light KV
    /// traffic, 4k-token KV capacity.
    #[must_use]
    pub const fn small() -> Self {
        Self {
            weight_stream_s: 1e-3,
            kv_token_s: 1e-7,
            prefill_token_s: 2e-6,
            kv_capacity_tokens: 4096,
        }
    }
}

impl CostModel for AnalyticCostModel {
    fn decode_step_s(&mut self, batch: u32, max_context: u32) -> f64 {
        self.weight_stream_s + self.kv_token_s * f64::from(batch) * f64::from(max_context)
    }

    fn prefill_s(&mut self, prompt_len: u32) -> f64 {
        self.prefill_token_s * f64::from(prompt_len)
    }

    fn kv_capacity_tokens(&self) -> u64 {
        self.kv_capacity_tokens
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{serve, ServeConfig, Workload};

    #[test]
    fn decode_cost_grows_with_batch_and_context() {
        let mut m = AnalyticCostModel::small();
        let base = m.decode_step_s(1, 128);
        assert!(m.decode_step_s(8, 128) > base);
        assert!(m.decode_step_s(1, 4096) > base);
    }

    #[test]
    fn capacity_gate() {
        // One replica admits a reservation equal to its published
        // capacity and rejects one token more.
        let cap = u32::try_from(AnalyticCostModel::small().kv_capacity_tokens()).unwrap();
        let served = |prompt_len: u32| {
            let wl = Workload::poisson(10.0, prompt_len, 32, 3);
            let r = serve(
                &wl,
                &mut AnalyticCostModel::small(),
                &ServeConfig::default(),
            );
            (r.records.len(), r.rejected)
        };
        assert_eq!(served(cap - 32), (3, 0));
        assert_eq!(served(cap - 31), (0, 3));
    }

    #[test]
    #[allow(deprecated)]
    fn published_capacity_is_the_fits_boundary() {
        // The provided `fits` body is the admission rule.
        let m = AnalyticCostModel::small();
        assert!(m.fits(m.kv_capacity_tokens()));
        assert!(!m.fits(m.kv_capacity_tokens() + 1));
    }
}
