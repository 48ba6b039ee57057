//! The benchmark's three workloads, defined here and nowhere else.
//!
//! Every parameter is a copy of the value the matching registry
//! experiment used when the benchmark was written (`fleet_scale`,
//! `fleet_sweep`, `autoscale` in `rpu-core`), so an experiment edit
//! cannot silently change a benchmark workload. The one shared builder
//! is [`sweep_cost_model`], the memoised RPU cost model.

use crate::trace::{Tallies, TimedCost, TimedPolicy};
use rpu_core::sweep_cost_model;
use rpu_models::LengthDistribution;
use rpu_serve::{
    churn_tape, AnalyticCostModel, ArrivalProcess, Autoscaler, AutoscalerConfig, ClassSpec,
    CostModel, Fifo, Fleet, FleetBuilder, FleetEvent, JoinShortestQueue, LifecycleState,
    PriorityAging, ReportDigest, RoundRobin, Router, SchedulingPolicy, ServeConfig, Workload,
};
use std::rc::Rc;

/// The seed whose report digests are pinned below; any other seed is
/// checked for conservation and determinism only.
pub const DEFAULT_SEED: u64 = 0;

/// Replicas in both wide workloads.
pub const WIDE_REPLICAS: usize = 1000;

/// `wide_rr` offered load per replica, requests/second (`fleet_scale`).
pub const RR_RATE_PER_REPLICA: f64 = 280.0;
/// `wide_rr` batch cap (`fleet_scale`).
pub const RR_MAX_BATCH: u32 = 8;

/// `wide_jsq_mixed` offered load per replica, requests/second.
pub const MIXED_RATE_PER_REPLICA: f64 = 45.0;
/// `wide_jsq_mixed` decode CUs per replica (`fleet_sweep`).
pub const MIXED_NUM_CUS: u32 = 16;
/// `wide_jsq_mixed` batch cap (`fleet_sweep`).
pub const MIXED_MAX_BATCH: u32 = 4;
/// Longest context a `wide_jsq_mixed` replica is provisioned for: the
/// batch class's 1536 prompt + 384 output tokens (`fleet_sweep`).
pub const MIXED_LONGEST_CONTEXT: u32 = 1536 + 384;
/// `PriorityAging` horizon, seconds.
pub const MIXED_AGING_S: f64 = 2.0;
/// Lifecycle events in the `wide_jsq_mixed` churn storm.
pub const MIXED_CHURN_EVENTS: u32 = 250;
/// Share of the nominal arrival span the churn storm is spread over.
pub const MIXED_CHURN_SPAN_SHARE: f64 = 0.8;

/// `autoscale_diurnal` provisioned slots (`autoscale`).
pub const AUTO_PROVISIONED: usize = 6;
/// `autoscale_diurnal` slots live at start (`autoscale`).
pub const AUTO_INITIAL_LIVE: usize = 2;
/// `autoscale_diurnal` batch cap (`autoscale`).
pub const AUTO_MAX_BATCH: u32 = 8;

/// Failure migration delay of the fleets with lifecycle churn, seconds
/// (`autoscale`).
pub const MIGRATION_DELAY_S: f64 = 0.002;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 1000 analytic replicas, FIFO, round-robin, saturating Poisson.
    WideRr,
    /// 1000 memoised-RPU replicas, priority aging, JSQ, two-class mix,
    /// replica churn.
    WideJsqMixed,
    /// The elastic 6-slot fleet under the reactive autoscaler.
    AutoscaleDiurnal,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Self; 3] = [Self::WideRr, Self::WideJsqMixed, Self::AutoscaleDiurnal];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Self::WideRr => "wide_rr",
            Self::WideJsqMixed => "wide_jsq_mixed",
            Self::AutoscaleDiurnal => "autoscale_diurnal",
        }
    }

    /// Parses a `--workload` name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests one benchmark run simulates.
    pub fn default_requests(self) -> u32 {
        match self {
            Self::WideRr => 100_000,
            Self::WideJsqMixed => 50_000,
            Self::AutoscaleDiurnal => 50_000,
        }
    }

    /// The report digest pinned for this workload at [`DEFAULT_SEED`]
    /// and `requests`, if one is pinned for that length.
    pub fn pinned_digest(self, requests: u32) -> Option<ReportDigest> {
        PINNED
            .iter()
            .find(|&&(k, n, _)| k == self && n == requests)
            .map(|&(_, _, d)| ReportDigest(d))
    }
}

/// `(workload, requests, digest)` at [`DEFAULT_SEED`]: each workload at
/// its benchmark length and at the short length the tests run.
const PINNED: [(Kind, u32, u64); 6] = [
    (Kind::WideRr, 100_000, 0xd6d1_f013_45b1_7e6c),
    (Kind::WideJsqMixed, 50_000, 0x0d0a_54de_f387_7477),
    (Kind::AutoscaleDiurnal, 50_000, 0xdbd7_3280_4325_282a),
    (Kind::WideRr, 4000, 0x3b4b_aa6f_b0a0_80c9),
    (Kind::WideJsqMixed, 2000, 0x78c2_45f7_153f_7645),
    (Kind::AutoscaleDiurnal, 4000, 0x9284_1fa1_f0dc_e67a),
];

/// One workload at one seed and length: everything a run is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spec {
    /// Which workload.
    pub kind: Kind,
    /// The benchmark seed (`--seed`).
    pub seed: u64,
    /// Requests simulated.
    pub requests: u32,
}

/// Mixes the benchmark seed into a workload's own base seed; seed 0
/// keeps the base seed of the experiment the workload was copied from.
fn mix(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// The `fleet_sweep` two-class mix: short interactive sessions sharing
/// the fleet with heavy batch jobs.
fn mixed_classes() -> Vec<ClassSpec> {
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

/// The `autoscale` controller: eager scale-up, conservative scale-down.
pub fn scaler_config() -> AutoscalerConfig {
    AutoscalerConfig {
        interval_s: 0.0125,
        window_s: 0.05,
        ttft_p99_high_s: 0.025,
        kv_high: 0.75,
        kv_low: 0.2,
        up_after: 1,
        down_after: 12,
        cooldown_s: 0.0125,
        min_live: 1,
        max_live: AUTO_PROVISIONED,
    }
}

impl Spec {
    /// A workload at a seed, at its default length unless `requests`
    /// overrides it.
    pub fn new(kind: Kind, seed: u64, requests: Option<u32>) -> Self {
        Self {
            kind,
            seed,
            requests: requests.unwrap_or_else(|| kind.default_requests()),
        }
    }

    /// The same workload and seed at another length.
    pub fn with_requests(self, requests: u32) -> Self {
        Self { requests, ..self }
    }

    /// The arrival tape's description.
    pub fn workload(&self) -> Workload {
        match self.kind {
            Kind::WideRr => Workload {
                seed: mix(0x5CA1E ^ WIDE_REPLICAS as u64, self.seed),
                ..Workload::poisson(
                    RR_RATE_PER_REPLICA * WIDE_REPLICAS as f64,
                    256,
                    16,
                    self.requests,
                )
            },
            Kind::WideJsqMixed => Workload {
                arrivals: ArrivalProcess::Poisson {
                    rate_rps: self.mixed_rate_rps(),
                },
                prompt_lens: LengthDistribution::Fixed(256),
                output_lens: LengthDistribution::Fixed(32),
                num_requests: self.requests,
                seed: mix(0xF1EE7, self.seed),
                classes: vec![],
            }
            .with_classes(mixed_classes()),
            Kind::AutoscaleDiurnal => Workload {
                arrivals: ArrivalProcess::DiurnalOnOff {
                    rate_rps: 900.0,
                    mean_on_s: 0.02,
                    mean_off_s: 0.01,
                    period_s: 0.5,
                    trough: 0.15,
                    flash_every_s: 0.35,
                    flash_width_s: 0.02,
                    flash_mult: 2.0,
                },
                seed: mix(0xD1A_CA5E, self.seed),
                ..Workload::poisson(900.0, 256, 16, self.requests)
            },
        }
    }

    fn mixed_rate_rps(&self) -> f64 {
        MIXED_RATE_PER_REPLICA * WIDE_REPLICAS as f64
    }

    /// Builds the fleet. With `tallies`, every replica's cost model and
    /// policy is wrapped in a timing decorator charging to them.
    pub fn fleet(&self, tallies: Option<&Rc<Tallies>>) -> Fleet {
        let cost_wrap = |c: Box<dyn CostModel>| -> Box<dyn CostModel> {
            match tallies {
                Some(t) => Box::new(TimedCost::new(c, Rc::clone(t))),
                None => c,
            }
        };
        let policy_wrap = |p: Box<dyn SchedulingPolicy>| -> Box<dyn SchedulingPolicy> {
            match tallies {
                Some(t) => Box::new(TimedPolicy::new(p, Rc::clone(t))),
                None => p,
            }
        };
        let analytic = || cost_wrap(Box::new(AnalyticCostModel::small()));
        let fifo = || policy_wrap(Box::new(Fifo));
        match self.kind {
            Kind::WideRr => FleetBuilder::new()
                .group(WIDE_REPLICAS, &config(RR_MAX_BATCH), analytic, fifo)
                .build(),
            Kind::WideJsqMixed => {
                let (cfg, shared) =
                    sweep_cost_model(MIXED_NUM_CUS, MIXED_MAX_BATCH, MIXED_LONGEST_CONTEXT);
                FleetBuilder::new()
                    .migration_delay_s(MIGRATION_DELAY_S)
                    .group(
                        WIDE_REPLICAS,
                        &cfg,
                        || cost_wrap(Box::new(shared.clone())),
                        || policy_wrap(Box::new(PriorityAging::new(MIXED_AGING_S))),
                    )
                    .build()
            }
            Kind::AutoscaleDiurnal => {
                let cfg = config(AUTO_MAX_BATCH);
                FleetBuilder::new()
                    .migration_delay_s(MIGRATION_DELAY_S)
                    .group(AUTO_INITIAL_LIVE, &cfg, analytic, fifo)
                    .group_with_state(
                        LifecycleState::Down,
                        AUTO_PROVISIONED - AUTO_INITIAL_LIVE,
                        &cfg,
                        analytic,
                        fifo,
                    )
                    .build()
            }
        }
    }

    /// A fresh router.
    pub fn router(&self) -> Box<dyn Router> {
        match self.kind {
            Kind::WideRr => Box::new(RoundRobin::new()),
            Kind::WideJsqMixed | Kind::AutoscaleDiurnal => Box::new(JoinShortestQueue),
        }
    }

    /// Lifecycle events injected before the run starts: the churn storm
    /// of `wide_jsq_mixed`, spread over the first
    /// [`MIXED_CHURN_SPAN_SHARE`] of the nominal arrival span.
    pub fn churn(&self) -> Vec<FleetEvent> {
        match self.kind {
            Kind::WideJsqMixed => churn_tape(
                WIDE_REPLICAS as u32,
                self.workload().seed,
                MIXED_CHURN_SPAN_SHARE * f64::from(self.requests) / self.mixed_rate_rps(),
                MIXED_CHURN_EVENTS,
            ),
            Kind::WideRr | Kind::AutoscaleDiurnal => Vec::new(),
        }
    }

    /// The controller, for the autoscaled workload.
    pub fn scaler(&self) -> Option<Autoscaler> {
        (self.kind == Kind::AutoscaleDiurnal).then(|| Autoscaler::new(scaler_config()))
    }
}

fn config(max_batch: u32) -> ServeConfig {
    ServeConfig {
        max_batch,
        ..ServeConfig::default()
    }
}
