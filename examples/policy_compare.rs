//! Scheduling policies head-to-head on a saturated two-class fleet.
//!
//! Serves the policy-sweep workload — interactive chat (priority 0,
//! 500 ms TTFT SLO) sharing a 64-CU RPU with offline batch jobs
//! (priority 2, relaxed SLO, 2k prompts, 1k generations) — at an
//! offered load past FIFO's collapse point, once per scheduling
//! policy, and prints each policy's per-class SLO table plus the
//! sweep's crossover summary.
//!
//! ```text
//! cargo run --release --example policy_compare
//! ```

use rpu::core::experiments::policy_sweep::{self, PolicyKind};
use rpu::core::serving::RpuCostModel;
use rpu::serve::{serve_with, MultiClassReport, ServeConfig};
use rpu::{ModelConfig, Precision, RpuSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::llama3_8b();
    let precision = Precision::mxfp4_inference();
    let config = ServeConfig {
        max_batch: policy_sweep::MAX_BATCH,
        ..ServeConfig::default()
    };
    let max_context = config.bucket(2048 + 1024);
    let sys = RpuSystem::with_optimal_memory(
        &model,
        precision,
        policy_sweep::MAX_BATCH,
        max_context,
        policy_sweep::NUM_CUS,
    )?;
    println!("decode tier : {sys}");

    // One saturating load: past FIFO's collapse, inside priority's
    // sustainable region.
    let rate = 400.0;
    let wl = policy_sweep::workload(rate);
    let classes = policy_sweep::classes();
    let mut cost = RpuCostModel::new(sys, model, &config);
    for kind in PolicyKind::ALL {
        let mut policy = kind.build(&wl);
        let report = serve_with(&wl, &mut cost, &config, policy.as_mut());
        let slo = MultiClassReport::new(&report, &classes);
        println!();
        println!(
            "{}",
            slo.table(&format!(
                "{} @ {rate:.0} req/s ({} preemptions)",
                kind.name(),
                report.preemptions
            ))
        );
    }

    // The full ladder: where each policy stops holding the interactive
    // p99 TTFT target.
    let sweep = policy_sweep::run();
    println!();
    println!("{}", sweep.table());
    println!();
    for kind in PolicyKind::ALL {
        println!(
            "{:9} sustains the interactive SLO to {:>4.0} req/s",
            kind.name(),
            sweep.sustained_load_rps(kind)
        );
    }
    Ok(())
}
