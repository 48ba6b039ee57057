//! End-to-end reasoning-turn deployment: the Splitwise/Dynamo split the
//! paper assumes (§I), with prefill on a GPU system, KV-cache handoff
//! over the ring station's external network, and decode on the RPU.
//!
//! This module operationalises the paper's application domain (§IX):
//! human-computer interaction tolerates roughly ten seconds before users
//! context-switch, so a reasoning model that thinks for thousands of
//! tokens needs the RPU's token latency to stay interactive.

use crate::RpuSystem;
use rpu_gpu::GpuSystem;
use rpu_models::{DecodeWorkload, ModelConfig, PrefillWorkload};
use rpu_sim::SimError;

/// The interaction-latency threshold from the HCI literature the paper
/// cites (§IX): beyond ~10 s, working memory decays and users context
/// switch.
pub const INTERACTION_THRESHOLD_S: f64 = 10.0;

/// A reasoning workload: prompt, hidden chain-of-thought, and the
/// visible answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReasoningTask {
    /// Prompt length, tokens (prefill).
    pub prompt_tokens: u32,
    /// Hidden reasoning ("thinking") tokens generated before the answer.
    pub reasoning_tokens: u32,
    /// Visible answer tokens.
    pub answer_tokens: u32,
}

impl ReasoningTask {
    /// Multi-step planning: short prompt, long deliberation.
    #[must_use]
    pub fn planning() -> Self {
        Self {
            prompt_tokens: 2 * 1024,
            reasoning_tokens: 8 * 1024,
            answer_tokens: 1024,
        }
    }

    /// Iterative coding: large context (repository excerpts), moderate
    /// deliberation.
    #[must_use]
    pub fn coding() -> Self {
        Self {
            prompt_tokens: 16 * 1024,
            reasoning_tokens: 4 * 1024,
            answer_tokens: 2 * 1024,
        }
    }

    /// Writing assistance: medium prompt, shallow deliberation.
    #[must_use]
    pub fn writing() -> Self {
        Self {
            prompt_tokens: 4 * 1024,
            reasoning_tokens: 2 * 1024,
            answer_tokens: 2 * 1024,
        }
    }

    /// Total generated (decode) tokens.
    #[must_use]
    pub fn decode_tokens(&self) -> u32 {
        self.reasoning_tokens + self.answer_tokens
    }
}

/// A disaggregated deployment: GPU prefill engine + RPU decode engine.
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    /// The prefill system (compute-bound work stays on GPUs, §I).
    pub prefill: GpuSystem,
    /// The decode system.
    pub decode: RpuSystem,
    /// KV-cache handoff bandwidth between the engines, bytes/s (the
    /// ring station's external network, e.g. 100 Gb Ethernet per §IV).
    pub kv_link_bytes_per_s: f64,
}

/// Per-phase latency of one reasoning turn, seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TurnLatency {
    /// Prompt prefill on the GPU engine.
    pub prefill_s: f64,
    /// KV-cache transfer into RPU memory.
    pub kv_transfer_s: f64,
    /// Token generation (reasoning + answer) on the decode engine.
    pub decode_s: f64,
}

impl TurnLatency {
    /// End-to-end turn latency.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.prefill_s + self.kv_transfer_s + self.decode_s
    }

    /// `true` when the turn completes within the interaction threshold.
    #[must_use]
    pub fn interactive(&self) -> bool {
        self.total() <= INTERACTION_THRESHOLD_S
    }
}

impl Deployment {
    /// A deployment with the paper's ring-station external network
    /// (100 Gb Ethernet ≈ 12.5 GB/s).
    #[must_use]
    pub fn new(prefill: GpuSystem, decode: RpuSystem) -> Self {
        Self {
            prefill,
            decode,
            kv_link_bytes_per_s: 12.5e9,
        }
    }

    /// Latency of one full reasoning turn for `model` on `task`,
    /// batch 1 (the latency-critical interactive regime).
    ///
    /// Decode latency is simulated once at the turn's mid-generation
    /// context and scaled by the token count (token latency varies
    /// slowly with context within one turn).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn turn_latency(
        &self,
        model: &ModelConfig,
        task: &ReasoningTask,
    ) -> Result<TurnLatency, SimError> {
        let prefill_wl = PrefillWorkload::new(model, self.decode.precision, 1, task.prompt_tokens);
        let prefill_s = self.prefill.prefill_latency(&prefill_wl);

        let kv_bytes =
            model.kv_bytes_per_token(self.decode.precision) * f64::from(task.prompt_tokens);
        let kv_transfer_s = kv_bytes / self.kv_link_bytes_per_s;

        let mid_seq = task.prompt_tokens + task.decode_tokens() / 2;
        let per_token = self.decode.token_latency(model, 1, mid_seq)?;
        Ok(TurnLatency {
            prefill_s,
            kv_transfer_s,
            decode_s: per_token * f64::from(task.decode_tokens()),
        })
    }

    /// The same turn served entirely by the GPU system (prefill and
    /// decode), for comparison.
    #[must_use]
    pub fn gpu_only_turn_latency(&self, model: &ModelConfig, task: &ReasoningTask) -> TurnLatency {
        let prefill_wl = PrefillWorkload::new(
            model,
            rpu_models::Precision::gpu_w4a16(),
            1,
            task.prompt_tokens,
        );
        let prefill_s = self.prefill.prefill_latency(&prefill_wl);
        let mid_seq = task.prompt_tokens + task.decode_tokens() / 2;
        let wl = DecodeWorkload::new(model, rpu_models::Precision::gpu_w4a16(), 1, mid_seq);
        TurnLatency {
            prefill_s,
            kv_transfer_s: 0.0,
            decode_s: self.prefill.decode_step_latency(&wl) * f64::from(task.decode_tokens()),
        }
    }

    /// Maximum decode tokens that keep a turn under the interaction
    /// threshold, given the task's prompt.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn max_interactive_tokens(
        &self,
        model: &ModelConfig,
        task: &ReasoningTask,
    ) -> Result<u32, SimError> {
        let base = self.turn_latency(model, task)?;
        let fixed = base.prefill_s + base.kv_transfer_s;
        if fixed >= INTERACTION_THRESHOLD_S {
            return Ok(0);
        }
        let per_token = base.decode_s / f64::from(task.decode_tokens());
        Ok(((INTERACTION_THRESHOLD_S - fixed) / per_token) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpu_gpu::GpuSpec;
    use rpu_models::Precision;

    fn deployment_70b() -> (ModelConfig, Deployment) {
        let model = ModelConfig::llama3_70b();
        let decode =
            RpuSystem::with_optimal_memory(&model, Precision::mxfp4_inference(), 1, 32 * 1024, 128)
                .expect("70B fits");
        (
            model,
            Deployment::new(GpuSystem::new(GpuSpec::h100_sxm(), 4), decode),
        )
    }

    #[test]
    fn planning_turn_is_interactive_on_rpu_not_on_gpu() {
        // The paper's motivation in one assertion: a multi-step planning
        // turn (9k generated tokens) stays interactive on the RPU but
        // blows far past the threshold on the GPU system.
        let (model, d) = deployment_70b();
        let task = ReasoningTask::planning();
        let rpu = d.turn_latency(&model, &task).expect("simulates");
        let gpu = d.gpu_only_turn_latency(&model, &task);
        assert!(rpu.interactive(), "RPU turn {}s", rpu.total());
        assert!(
            !gpu.interactive(),
            "GPU turn {}s should exceed 10s",
            gpu.total()
        );
        assert!(gpu.total() / rpu.total() > 5.0);
    }

    #[test]
    fn decode_dominates_rpu_turn() {
        // Prefill and KV handoff are small against thousands of decode
        // steps.
        let (model, d) = deployment_70b();
        let t = d
            .turn_latency(&model, &ReasoningTask::planning())
            .expect("simulates");
        assert!(
            t.decode_s > 0.8 * t.total(),
            "decode share {}",
            t.decode_s / t.total()
        );
    }

    #[test]
    fn kv_transfer_scales_with_prompt() {
        let (model, d) = deployment_70b();
        let short = d
            .turn_latency(&model, &ReasoningTask::writing())
            .expect("simulates");
        let long = d
            .turn_latency(&model, &ReasoningTask::coding())
            .expect("simulates");
        assert!(long.kv_transfer_s > 2.0 * short.kv_transfer_s);
    }

    #[test]
    fn max_interactive_tokens_is_thousands_on_rpu() {
        // §IX: reasoning requires thousands of tokens within the
        // interaction budget — exactly what the RPU unlocks.
        let (model, d) = deployment_70b();
        let n = d
            .max_interactive_tokens(&model, &ReasoningTask::planning())
            .expect("simulates");
        assert!(n > 5_000, "interactive budget {n} tokens");
    }

    #[test]
    fn task_presets_are_consistent() {
        for t in [
            ReasoningTask::planning(),
            ReasoningTask::coding(),
            ReasoningTask::writing(),
        ] {
            assert_eq!(t.decode_tokens(), t.reasoning_tokens + t.answer_tokens);
            assert!(t.reasoning_tokens > 0);
        }
    }
}
