//! Capacity planning for a replica fleet, router by router.
//!
//! Serves the fleet-sweep workload — interactive chat multiplexed with
//! heavy offline batch jobs — across fleets of 16-CU RPU replicas at a
//! load far past what one replica sustains, and answers the planner's
//! question per routing policy: how many replicas until the interactive
//! p99 TTFT target holds? Ends with a heterogeneous-fleet aside: one
//! big replica plus small ones, which only the KV-aware routers use
//! sensibly.
//!
//! ```text
//! cargo run --release --example fleet_capacity
//! ```

use rpu::core::experiments::fleet_sweep::{self, RouterKind};
use rpu::core::serving::RpuCostModel;
use rpu::serve::{Fifo, FleetBuilder, FleetReplica, JoinShortestQueue, ServeConfig};
use rpu::{ModelConfig, Precision, RpuSystem};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The full capacity curve: offered load vs replicas needed, per
    // router.
    let sweep = fleet_sweep::run();
    println!("{}", sweep.table());
    println!();
    let top = *fleet_sweep::RATE_SWEEP.last().expect("non-empty sweep");
    for kind in RouterKind::ALL {
        println!(
            "{:9} holds the interactive SLO at {top:.0} req/s with {:>2} replicas",
            kind.name(),
            sweep.replicas_needed(kind, top)
        );
    }
    println!(
        "\n=> telemetry-driven routing saves {} replica(s) over round-robin at {top:.0} req/s\n",
        sweep.top_rung_savings()
    );

    // Heterogeneous aside: one 64-CU replica and two 16-CU ones behind
    // join-shortest-queue. The router only sees published telemetry —
    // queue depths and each replica's own KV capacity, the same
    // capacity that replica admits against — yet sends the big box the
    // most requests. The two small replicas are clones of one cost
    // model, so they simulate each decode step once between them.
    let model = ModelConfig::llama3_8b();
    let precision = Precision::mxfp4_inference();
    let config = ServeConfig {
        max_batch: fleet_sweep::MAX_BATCH,
        ..ServeConfig::default()
    };
    let max_context = config.bucket(1536 + 384);
    let machine = |cus: u32| -> Result<RpuCostModel, Box<dyn std::error::Error>> {
        let sys = RpuSystem::with_optimal_memory(
            &model,
            precision,
            fleet_sweep::MAX_BATCH,
            max_context,
            cus,
        )?;
        Ok(RpuCostModel::new(sys, model, &config))
    };
    let replica = |cost: &RpuCostModel| FleetReplica {
        cost: Box::new(cost.clone()),
        policy: Box::new(Fifo),
        config,
    };
    let (big, small) = (machine(64)?, machine(16)?);
    let mut fleet = FleetBuilder::new()
        .replica(replica(&big))
        .replica(replica(&small))
        .replica(replica(&small))
        .build();
    let report = fleet.serve(&fleet_sweep::workload(top), &mut JoinShortestQueue);
    let slo = report.multi_class(&fleet_sweep::classes());
    println!(
        "{}",
        slo.table(&format!(
            "heterogeneous fleet (64+16+16 CUs) @ {top:.0} req/s, jsq"
        ))
    );
    println!();
    println!(
        "assigned {:?} requests; per-replica decode utilisation {:?} %; imbalance {:.2}",
        report.assigned,
        report
            .per_replica_utilization()
            .iter()
            .map(|u| (u * 100.0).round())
            .collect::<Vec<_>>(),
        report.imbalance()
    );
    Ok(())
}
