//! Serving: request-level SLOs under continuous batching.
//!
//! Deploys Llama3-8B decode on a 64-CU RPU with a GPU prefill tier
//! (the paper's Splitwise-style split), then serves three workloads:
//! a light Poisson load, a saturating Poisson load, and a closed loop
//! of chatty clients. Each prints the TTFT/TPOT/E2E percentile table.
//!
//! ```text
//! cargo run --release --example serving
//! ```

use rpu::core::serving::RpuCostModel;
use rpu::models::LengthDistribution;
use rpu::serve::{serve, ArrivalProcess, ServeConfig, SloReport, SloTargets, Workload};
use rpu::{ModelConfig, Precision, RpuSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let model = ModelConfig::llama3_8b();
    let precision = Precision::mxfp4_inference();
    let (max_batch, max_context) = (8, 2048);
    let sys = RpuSystem::with_optimal_memory(&model, precision, max_batch, max_context, 64)?;
    println!("decode tier : {sys}");

    let config = ServeConfig {
        max_batch,
        ..ServeConfig::default()
    };
    let slo = SloTargets::interactive();

    // Open loop: the same seeded request tape at two offered loads.
    for (label, rate) in [("light load", 80.0), ("saturating load", 640.0)] {
        let wl = Workload {
            arrivals: ArrivalProcess::Poisson { rate_rps: rate },
            prompt_lens: LengthDistribution::Uniform { lo: 256, hi: 1024 },
            output_lens: LengthDistribution::Exponential {
                mean: 96.0,
                cap: 512,
            },
            num_requests: 96,
            seed: 7,
            ..Workload::default()
        };
        let mut cost = RpuCostModel::new(sys, model, &config);
        let report = serve(&wl, &mut cost, &config);
        let summary = SloReport::new(&report, &slo);
        println!();
        println!(
            "{}",
            summary.table(&format!("{label}: Poisson {rate:.0} req/s"))
        );
        println!(
            "({} decode iterations, {} distinct simulator calls)",
            report.decode_iterations,
            cost.distinct_decode_sims()
        );
    }

    // Closed loop: 16 clients thinking for 250 ms between turns.
    let wl = Workload {
        arrivals: ArrivalProcess::ClosedLoop {
            clients: 16,
            think_s: 0.25,
        },
        prompt_lens: LengthDistribution::Fixed(512),
        output_lens: LengthDistribution::Fixed(64),
        num_requests: 64,
        seed: 7,
        ..Workload::default()
    };
    let mut cost = RpuCostModel::new(sys, model, &config);
    let report = serve(&wl, &mut cost, &config);
    println!();
    println!(
        "{}",
        SloReport::new(&report, &slo).table("closed loop: 16 clients, 250 ms think time")
    );
    Ok(())
}
