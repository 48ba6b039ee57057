//! Fleet sweep: capacity planning across router policies.
//!
//! The policy sweep asks "which *scheduler* holds the interactive SLO
//! on one machine?"; this sweep asks the question a capacity planner
//! asks next: **at a given offered load, how many replicas do I need —
//! and how much does the router choice change that number?** It serves
//! a two-class workload (interactive chat sharing the fleet with
//! offline batch jobs) across [`rpu_serve::Fleet`]s of 1..N
//! simulator-backed replicas, once per [`RouterKind`], and reports the
//! minimum replica count at which the interactive class's p99 TTFT
//! meets its target.
//!
//! The headline is the capacity-planning gap: blind round-robin keeps
//! landing long batch jobs on already-backlogged replicas, so at high
//! load it needs strictly more replicas than join-shortest-queue (and
//! least-KV-load) to hold the same tail — telemetry-driven routing is
//! worth real machines.

use crate::engine::{grid, Engine};
use crate::serving::{sweep_cost_model, RpuCostModel};
use rpu_models::{LengthDistribution, ModelConfig};
use rpu_serve::{
    ArrivalProcess, ClassSpec, Fifo, FleetBuilder, FleetReport, JoinShortestQueue, LeastKvLoad,
    RoundRobin, Router, ServeConfig, SessionAffinity, Workload,
};
use rpu_util::table::{num, Cell, Table};

/// Decode CUs per replica (a quarter of the policy sweep's machine:
/// capacity planning is about counting small boxes, not sizing one big
/// one).
pub const NUM_CUS: u32 = 16;

/// Serving batch-size cap per replica.
pub const MAX_BATCH: u32 = 4;

/// Requests simulated per (load, router, fleet-size) point.
pub const NUM_REQUESTS: u32 = 128;

/// Largest fleet tried before a router is declared unable to hold the
/// SLO at a load.
pub const MAX_REPLICAS: u32 = 10;

/// Offered loads, requests/second. One replica holds the bottom rung;
/// the top rung needs most of the allowed fleet.
pub const RATE_SWEEP: [f64; 4] = [50.0, 100.0, 200.0, 400.0];

/// The fleet routers under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Blind rotation (the baseline).
    RoundRobin,
    /// Fewest queued + resident requests, KV-capacity aware.
    Jsq,
    /// Lowest committed-KV fraction.
    LeastKv,
    /// Consistent hashing on the session key.
    Affinity,
}

impl RouterKind {
    /// Every router, in table order.
    pub const ALL: [Self; 4] = [Self::RoundRobin, Self::Jsq, Self::LeastKv, Self::Affinity];

    /// Short name for tables and golden keys.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::RoundRobin => "rr",
            Self::Jsq => "jsq",
            Self::LeastKv => "least-kv",
            Self::Affinity => "affinity",
        }
    }

    /// Instantiates the router (fresh cursor/ring state per run).
    #[must_use]
    pub fn build(self) -> Box<dyn Router> {
        match self {
            Self::RoundRobin => Box::new(RoundRobin::new()),
            Self::Jsq => Box::new(JoinShortestQueue),
            Self::LeastKv => Box::new(LeastKvLoad),
            Self::Affinity => Box::new(SessionAffinity::new()),
        }
    }
}

/// The two tenant classes sharing the fleet: many short interactive
/// sessions and a few heavy batch jobs. The batch jobs are what blind
/// routing mishandles — two of them stacked on one replica wedge its
/// queue for hundreds of milliseconds.
#[must_use]
pub fn classes() -> Vec<ClassSpec> {
    vec![
        ClassSpec {
            share: 0.8,
            tenants: 24,
            prompt_lens: Some(LengthDistribution::Uniform { lo: 64, hi: 384 }),
            output_lens: Some(LengthDistribution::Exponential {
                mean: 24.0,
                cap: 96,
            }),
            ..ClassSpec::interactive()
        },
        ClassSpec {
            share: 0.2,
            tenants: 4,
            prompt_lens: Some(LengthDistribution::Fixed(1536)),
            output_lens: Some(LengthDistribution::Fixed(384)),
            ..ClassSpec::batch()
        },
    ]
}

/// The swept workload at one offered load.
#[must_use]
pub fn workload(rate_rps: f64) -> Workload {
    Workload {
        arrivals: ArrivalProcess::Poisson { rate_rps },
        prompt_lens: LengthDistribution::Fixed(256),
        output_lens: LengthDistribution::Fixed(32),
        num_requests: NUM_REQUESTS,
        seed: 0xF1EE7,
        classes: vec![],
    }
    .with_classes(classes())
}

/// One router's capacity answer at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct RouterCapacity {
    /// Which router.
    pub router: RouterKind,
    /// Minimum replicas holding the interactive p99 TTFT target, or
    /// `None` if even [`MAX_REPLICAS`] does not.
    pub replicas_needed: Option<u32>,
    /// Interactive-class p99 TTFT at that fleet size (at
    /// [`MAX_REPLICAS`] when the target was never met), seconds.
    pub p99_ttft_s: f64,
    /// Decode-load imbalance (max/mean) at that fleet size.
    pub imbalance: f64,
    /// Fleet decode utilisation at that fleet size.
    pub fleet_utilization: f64,
}

/// All routers at one offered load.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityPoint {
    /// Offered load, requests/second.
    pub rate_rps: f64,
    /// One entry per [`RouterKind::ALL`] entry, in that order.
    pub routers: Vec<RouterCapacity>,
}

impl CapacityPoint {
    /// The capacity answer for one router.
    ///
    /// # Panics
    ///
    /// Panics if the router is missing (the sweep always runs all).
    #[must_use]
    pub fn router(&self, router: RouterKind) -> &RouterCapacity {
        self.routers
            .iter()
            .find(|r| r.router == router)
            .expect("sweep runs every router")
    }
}

/// Results of the fleet sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSweep {
    /// Model served.
    pub model: &'static str,
    /// Decode CUs per replica.
    pub num_cus: u32,
    /// Samples, ascending offered load.
    pub points: Vec<CapacityPoint>,
}

/// Runs one fleet simulation: `n` identical replicas (FIFO admission,
/// shared memoised cost model) under one router.
fn run_fleet(
    n: u32,
    cost: &RpuCostModel,
    config: &ServeConfig,
    wl: &Workload,
    router: RouterKind,
) -> FleetReport {
    let mut fleet = FleetBuilder::new()
        .group(
            n as usize,
            config,
            || Box::new(cost.clone()),
            || Box::new(Fifo),
        )
        .build();
    fleet.serve(wl, router.build().as_mut())
}

/// Runs the sweep sequentially: Llama3-8B decode on 16-CU replicas,
/// GPU prefill tier, every router at every load, fleets grown until
/// the interactive p99 TTFT target holds.
#[must_use]
pub fn run() -> FleetSweep {
    run_with(&Engine::sequential())
}

/// Runs the sweep with every (load, router) pair as one engine grid
/// point — the grow-the-fleet loop inside a point is inherently
/// sequential (each size decides whether to try the next), but the
/// 16 points are independent.
///
/// Every replica of every fleet size — across all worker threads —
/// shares one memoised cost model: identical machines price identical
/// decode steps, so the slow part (event-driven simulation) runs once
/// per distinct (batch, context) across the whole sweep, and the cache
/// holds the same deterministic values no matter which thread fills it.
///
/// # Panics
///
/// Panics if the model cannot be deployed at [`NUM_CUS`] (it can).
#[must_use]
pub fn run_with(engine: &Engine) -> FleetSweep {
    let model = ModelConfig::llama3_8b();
    // Provision each replica for the longest class's bucketed context
    // (the batch class: 1536 prompt + 384 output tokens).
    let (config, cost) = sweep_cost_model(NUM_CUS, MAX_BATCH, 1536 + 384);
    let specs = classes();
    let target = specs[0].slo.ttft_s;

    let points_grid = grid(&RATE_SWEEP, &RouterKind::ALL);
    let capacities = engine.par_map(&points_grid, |_, &(rate_rps, kind)| {
        let wl = workload(rate_rps);
        // Grow the fleet until the target holds; when even
        // MAX_REPLICAS does not, the last-tried state is reported
        // with `replicas_needed: None`.
        let mut capacity: Option<RouterCapacity> = None;
        for n in 1..=MAX_REPLICAS {
            let report = run_fleet(n, &cost, &config, &wl, kind);
            let p99 = report.multi_class(&specs).classes[0].report.ttft.p99;
            let met = p99 <= target;
            capacity = Some(RouterCapacity {
                router: kind,
                replicas_needed: met.then_some(n),
                p99_ttft_s: p99,
                imbalance: report.imbalance(),
                fleet_utilization: report.fleet_utilization(),
            });
            if met {
                break;
            }
        }
        capacity.expect("at least one fleet size is tried")
    });
    // Reassemble the row-major grid into one CapacityPoint per rate.
    let mut capacities = capacities.into_iter();
    let points = RATE_SWEEP
        .iter()
        .map(|&rate_rps| CapacityPoint {
            rate_rps,
            routers: capacities.by_ref().take(RouterKind::ALL.len()).collect(),
        })
        .collect();
    FleetSweep {
        model: model.name,
        num_cus: NUM_CUS,
        points,
    }
}

impl FleetSweep {
    /// Minimum replicas holding the interactive p99 TTFT target for one
    /// router at one offered load ([`MAX_REPLICAS`]` + 1` when it never
    /// holds — a sortable "more than the budget" sentinel).
    ///
    /// # Panics
    ///
    /// Panics if the rate is not a sweep rung.
    #[must_use]
    pub fn replicas_needed(&self, router: RouterKind, rate_rps: f64) -> u32 {
        let point = self
            .points
            .iter()
            .find(|p| p.rate_rps == rate_rps)
            .expect("rate is a sweep rung");
        point
            .router(router)
            .replicas_needed
            .unwrap_or(MAX_REPLICAS + 1)
    }

    /// Replicas the informed routers save over round-robin at the top
    /// rung: `rr - min(jsq, least-kv, affinity)`. The sweep's headline;
    /// positive means telemetry is worth machines.
    #[must_use]
    pub fn top_rung_savings(&self) -> i64 {
        let top = *RATE_SWEEP.last().expect("non-empty sweep");
        let best_informed = [RouterKind::Jsq, RouterKind::LeastKv, RouterKind::Affinity]
            .into_iter()
            .map(|k| self.replicas_needed(k, top))
            .min()
            .expect("non-empty router set");
        i64::from(self.replicas_needed(RouterKind::RoundRobin, top)) - i64::from(best_informed)
    }

    /// Renders the sweep as one table: per load, each router's minimum
    /// replica count (with the p99 TTFT it achieves there).
    #[must_use]
    pub fn table(&self) -> Table {
        let target = classes()[0].slo.ttft_s;
        let mut header: Vec<String> = vec!["req/s".into()];
        for kind in RouterKind::ALL {
            header.push(format!("{} replicas", kind.name()));
        }
        for kind in RouterKind::ALL {
            header.push(format!("{} p99 TTFT (ms)", kind.name()));
        }
        header.push("jsq imbalance".into());
        let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
        let mut t = Table::new(
            &format!(
                "Fleet sweep: {} on {}-CU replicas, batch {}, replicas to hold \
                 interactive p99 TTFT <= {} ms (max {})",
                self.model,
                self.num_cus,
                MAX_BATCH,
                num(target * 1e3, 0),
                MAX_REPLICAS
            ),
            &header_refs,
        );
        for p in &self.points {
            let mut row = vec![Cell::num(p.rate_rps, 0)];
            for kind in RouterKind::ALL {
                row.push(match p.router(kind).replicas_needed {
                    Some(n) => Cell::int(i64::from(n)),
                    None => Cell::str(format!(">{MAX_REPLICAS}")),
                });
            }
            for kind in RouterKind::ALL {
                row.push(Cell::num(p.router(kind).p99_ttft_s * 1e3, 2));
            }
            row.push(Cell::num(p.router(RouterKind::Jsq).imbalance, 2));
            t.push_row(row);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The sweep is deterministic; run it once and share it across the
    /// suite (the reproducibility test still runs its own fresh copy).
    fn sweep() -> &'static FleetSweep {
        static CACHE: OnceLock<FleetSweep> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    #[test]
    fn headline_informed_routing_saves_replicas_at_high_load() {
        // Acceptance: at the top rung, join-shortest-queue (or another
        // telemetry-driven router) holds the interactive p99 TTFT
        // target with strictly fewer replicas than round-robin.
        let s = sweep();
        let top = *RATE_SWEEP.last().unwrap();
        let rr = s.replicas_needed(RouterKind::RoundRobin, top);
        let jsq = s.replicas_needed(RouterKind::Jsq, top);
        assert!(
            jsq < rr,
            "JSQ must need fewer replicas than round-robin at {top} req/s: jsq {jsq} vs rr {rr}"
        );
        assert!(s.top_rung_savings() >= 1);
    }

    #[test]
    fn every_router_meets_the_target_within_budget_at_the_bottom_rung() {
        let s = sweep();
        for kind in RouterKind::ALL {
            let n = s.replicas_needed(kind, RATE_SWEEP[0]);
            assert!(
                n <= MAX_REPLICAS,
                "{} needs {n} replicas at the bottom rung",
                kind.name()
            );
        }
    }

    #[test]
    fn replica_demand_is_monotone_in_load() {
        let s = sweep();
        for kind in RouterKind::ALL {
            for w in s.points.windows(2) {
                let lo = w[0]
                    .router(kind)
                    .replicas_needed
                    .unwrap_or(MAX_REPLICAS + 1);
                let hi = w[1]
                    .router(kind)
                    .replicas_needed
                    .unwrap_or(MAX_REPLICAS + 1);
                assert!(
                    hi >= lo,
                    "{}: more load needs at least as many replicas ({lo} -> {hi})",
                    kind.name()
                );
            }
        }
    }

    #[test]
    fn capacity_points_carry_sane_fleet_metrics() {
        let s = sweep();
        assert_eq!(s.points.len(), RATE_SWEEP.len());
        for p in &s.points {
            assert_eq!(p.routers.len(), RouterKind::ALL.len());
            for r in &p.routers {
                assert!(r.p99_ttft_s > 0.0);
                assert!(r.imbalance >= 1.0 - 1e-9);
                assert!((0.0..=1.0 + 1e-9).contains(&r.fleet_utilization));
            }
        }
    }

    #[test]
    fn bit_reproducible_across_invocations_and_job_counts() {
        // Acceptance: the whole sweep (every router, load and fleet
        // size) is bit-reproducible for the fixed seed — sequentially
        // and through the parallel engine.
        let a = sweep();
        assert_eq!(a, &run());
        assert_eq!(a, &run_with(&Engine::new(8)));
    }

    #[test]
    fn table_has_one_row_per_rate() {
        let t = sweep().table();
        assert_eq!(t.len(), RATE_SWEEP.len());
        let rendered = t.to_string();
        assert!(rendered.contains("jsq"), "missing router column");
    }
}
