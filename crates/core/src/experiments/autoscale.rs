//! Autoscale: SLO-seconds lost vs machine-seconds spent.
//!
//! The fleet sweep answers the static planner's question — how many
//! replicas hold the SLO at a fixed offered load. This experiment asks
//! the elastic one: **on a diurnal load with flash crowds, what does a
//! reactive autoscaler buy over static over-provisioning?** Every
//! condition serves the *same* [`diurnal_workload`] — a compressed
//! diurnal cycle ([`ArrivalProcess::DiurnalOnOff`]) whose envelope
//! swings between a deep trough and a peak several replicas wide, with
//! periodic flash crowds doubling the instantaneous rate — and the
//! table reports two cost axes, measured identically for all rows:
//!
//! - **machine-seconds**: replica-seconds in a non-down lifecycle
//!   state ([`rpu_serve::FleetReport::machine_seconds`]) — what you
//!   pay;
//! - **SLO-violation-seconds**: wall-clock spent in fixed arrival
//!   windows whose windowed p99 TTFT misses [`TTFT_TARGET_S`] — what
//!   your users lose (the compressed-day analogue of SLO-hours lost
//!   vs machine-hours spent).
//!
//! Static fleets of 2–6 always-live replicas bracket the trade: small
//! fleets are cheap and violate through every peak, the 6-wide fleet
//! holds the SLO by burning machines through every trough. The
//! autoscaled condition provisions the same 6 slots but starts only
//! [`AUTOSCALED_INITIAL_LIVE`] live and lets the reactive
//! [`Autoscaler`] join/drain replicas under hysteresis as the windowed
//! p99 TTFT and KV occupancy move.
//!
//! The digest column pins every condition's full fleet report, so the
//! golden snapshot catches any drift in lifecycle ordering, autoscaler
//! decisions or re-routing — at every engine job count.

use crate::engine::Engine;
use rpu_serve::{
    digest_fleet_report, run_autoscaled, AnalyticCostModel, ArrivalProcess, Autoscaler,
    AutoscalerConfig, CostModel, Fifo, FleetBuilder, FleetReport, JoinShortestQueue,
    LifecycleState, ReportDigest, SchedulingPolicy, ServeConfig, Workload,
};
use rpu_util::stats::Percentiles;
use rpu_util::table::{Cell, Table};

/// Provisioned replica slots — the static ceiling and the autoscaler's
/// `max_live`.
pub const PROVISIONED: usize = 6;

/// Live replicas the autoscaled condition starts with; the remaining
/// slots are provisioned down (spares).
pub const AUTOSCALED_INITIAL_LIVE: usize = 2;

/// Static always-live fleet widths bracketing the trade.
pub const STATIC_WIDTHS: [usize; 4] = [2, 3, 4, 6];

/// The compressed-day p99 TTFT target every condition is scored
/// against (and the autoscaler's scale-up trigger).
pub const TTFT_TARGET_S: f64 = 0.025;

/// Fixed window the violation clock integrates over, seconds: the run
/// is cut into arrival windows of this width and each window whose p99
/// TTFT misses [`TTFT_TARGET_S`] counts as violated wall-clock.
pub const SLO_WINDOW_S: f64 = 0.05;

/// Serving batch cap per replica (shared across conditions).
pub const MAX_BATCH: u32 = 8;

/// The diurnal workload every condition serves: ~0.5 s compressed
/// "days" swinging between a 135 req/s trough and a 900 req/s peak,
/// with a 2x flash crowd cutting in every 0.35 s. ~3 days of load.
#[must_use]
pub fn diurnal_workload() -> Workload {
    Workload {
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
        seed: 0xD1A_CA5E,
        ..Workload::poisson(900.0, 256, 16, 512)
    }
}

/// The serving config every replica runs.
#[must_use]
pub fn scale_config() -> ServeConfig {
    ServeConfig {
        max_batch: MAX_BATCH,
        ..ServeConfig::default()
    }
}

/// The reactive controller under test: scale-up is eager (one hot
/// control boundary joins a spare), scale-down is conservative (a
/// sustained cold stretch drains one), the asymmetry that keeps the
/// controller from oscillating through every diurnal shoulder.
#[must_use]
pub fn scaler_config() -> AutoscalerConfig {
    AutoscalerConfig {
        interval_s: 0.0125,
        window_s: 0.05,
        ttft_p99_high_s: TTFT_TARGET_S,
        kv_high: 0.75,
        kv_low: 0.2,
        up_after: 1,
        down_after: 12,
        cooldown_s: 0.0125,
        min_live: 1,
        max_live: PROVISIONED,
    }
}

/// One experimental condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Condition {
    /// A fixed fleet of `n` always-live replicas.
    Static(usize),
    /// [`PROVISIONED`] slots, [`AUTOSCALED_INITIAL_LIVE`] initially
    /// live, driven by the reactive [`Autoscaler`].
    Autoscaled,
}

/// Every condition, in table order: static widths ascending, then the
/// autoscaler.
pub const CONDITIONS: [Condition; 5] = [
    Condition::Static(STATIC_WIDTHS[0]),
    Condition::Static(STATIC_WIDTHS[1]),
    Condition::Static(STATIC_WIDTHS[2]),
    Condition::Static(STATIC_WIDTHS[3]),
    Condition::Autoscaled,
];

/// One condition's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscalePoint {
    /// The condition this row measures.
    pub condition: Condition,
    /// Replica-seconds spent in a non-down state.
    pub machine_seconds: f64,
    /// Wall-clock seconds in arrival windows whose p99 TTFT missed
    /// [`TTFT_TARGET_S`].
    pub slo_violation_s: f64,
    /// Whole-run p99 TTFT, seconds.
    pub p99_ttft_s: f64,
    /// Requests completed / rejected.
    pub completed: u32,
    /// Requests rejected at admission.
    pub rejected: u32,
    /// Autoscaler joins applied (0 for static rows).
    pub joins: u32,
    /// Autoscaler drains applied (0 for static rows).
    pub drains: u32,
    /// Digest of the full fleet report — the determinism pin.
    pub digest: ReportDigest,
}

impl Condition {
    /// The row label.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Self::Static(n) => format!("static-{n}"),
            Self::Autoscaled => format!("autoscaled {AUTOSCALED_INITIAL_LIVE}..{PROVISIONED}"),
        }
    }

    /// Builds this condition's fleet.
    #[must_use]
    pub fn fleet(self) -> rpu_serve::Fleet {
        let cfg = scale_config();
        let cost = || Box::new(AnalyticCostModel::small()) as Box<dyn CostModel>;
        let policy = || Box::new(Fifo) as Box<dyn SchedulingPolicy>;
        match self {
            Self::Static(n) => FleetBuilder::new().group(n, &cfg, cost, policy).build(),
            Self::Autoscaled => FleetBuilder::new()
                .migration_delay_s(0.002)
                .group(AUTOSCALED_INITIAL_LIVE, &cfg, cost, policy)
                .group_with_state(
                    LifecycleState::Down,
                    PROVISIONED - AUTOSCALED_INITIAL_LIVE,
                    &cfg,
                    cost,
                    policy,
                )
                .build(),
        }
    }
}

/// Sums the wall-clock spent in violated arrival windows: the run is
/// cut into [`SLO_WINDOW_S`]-wide windows by arrival time and each
/// window whose completed-request p99 TTFT exceeds [`TTFT_TARGET_S`]
/// contributes its full width. Identical scoring for every condition.
#[must_use]
pub fn slo_violation_seconds(report: &FleetReport) -> f64 {
    let horizon = report.records().fold(0.0f64, |m, r| m.max(r.arrival_s));
    let windows = (horizon / SLO_WINDOW_S).floor() as usize + 1;
    let mut ttfts: Vec<Vec<f64>> = vec![Vec::new(); windows];
    for r in report.records() {
        ttfts[(r.arrival_s / SLO_WINDOW_S).floor() as usize].push(r.ttft_s());
    }
    let violated = ttfts
        .iter()
        .filter(|w| !w.is_empty() && Percentiles::from_samples(w).p99 > TTFT_TARGET_S)
        .count();
    violated as f64 * SLO_WINDOW_S
}

/// Runs one condition to completion and scores it. Deterministic per
/// condition. perfbench's `autoscale_diurnal` workload times the
/// autoscaled condition's shape.
#[must_use]
pub fn run_point(condition: Condition) -> AutoscalePoint {
    let wl = diurnal_workload();
    let mut fleet = condition.fleet();
    let mut router = JoinShortestQueue;
    let report = match condition {
        Condition::Static(_) => fleet.serve(&wl, &mut router),
        Condition::Autoscaled => {
            let mut scaler = Autoscaler::new(scaler_config());
            run_autoscaled(&mut fleet, &wl, &mut router, &mut scaler)
        }
    };
    let ttfts: Vec<f64> = report
        .records()
        .map(rpu_serve::RequestRecord::ttft_s)
        .collect();
    AutoscalePoint {
        condition,
        machine_seconds: report.machine_seconds,
        slo_violation_s: slo_violation_seconds(&report),
        p99_ttft_s: Percentiles::from_samples(&ttfts).p99,
        completed: report.aggregate.records.len() as u32,
        rejected: report.aggregate.rejected,
        joins: report.lifecycle.joins,
        drains: report.lifecycle.drains,
        digest: digest_fleet_report(&report),
    }
}

/// Results of the autoscale comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct AutoscaleSweep {
    /// One point per [`CONDITIONS`] entry, in order.
    pub points: Vec<AutoscalePoint>,
}

/// Runs every condition sequentially.
#[must_use]
pub fn run() -> AutoscaleSweep {
    run_with(&Engine::sequential())
}

/// Runs every condition as one engine grid point; conditions are
/// independent runs, so the engine fans them out and the digests pin
/// that job count never leaks into any row.
#[must_use]
pub fn run_with(engine: &Engine) -> AutoscaleSweep {
    let points = engine.par_map(&CONDITIONS, |_, &c| run_point(c));
    AutoscaleSweep { points }
}

impl AutoscaleSweep {
    /// The point for one condition.
    ///
    /// # Panics
    ///
    /// Panics if the condition was not swept.
    #[must_use]
    pub fn point(&self, condition: Condition) -> &AutoscalePoint {
        self.points
            .iter()
            .find(|p| p.condition == condition)
            .expect("condition is swept")
    }

    /// Renders the headline table: SLO-seconds lost vs machine-seconds
    /// spent, a row per condition.
    #[must_use]
    pub fn table(&self) -> Table {
        let mut t = Table::new(
            &format!(
                "Autoscale: SLO-seconds lost vs machine-seconds spent — diurnal load with \
                 flash crowds, p99 TTFT target {:.0} ms over {:.0} ms windows",
                TTFT_TARGET_S * 1e3,
                SLO_WINDOW_S * 1e3,
            ),
            &[
                "condition",
                "machine-s",
                "slo-viol-s",
                "p99 ttft ms",
                "completed",
                "rejected",
                "joins",
                "drains",
                "digest",
            ],
        );
        for p in &self.points {
            t.push_row(vec![
                Cell::str(p.condition.label()),
                Cell::num(p.machine_seconds, 3),
                Cell::num(p.slo_violation_s, 2),
                Cell::num(p.p99_ttft_s * 1e3, 2),
                Cell::int(i64::from(p.completed)),
                Cell::int(i64::from(p.rejected)),
                Cell::int(i64::from(p.joins)),
                Cell::int(i64::from(p.drains)),
                Cell::str(p.digest.to_string()),
            ]);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// The sweep is deterministic; run it once and share it (the
    /// reproducibility test still runs its own fresh copies).
    fn sweep() -> &'static AutoscaleSweep {
        static CACHE: OnceLock<AutoscaleSweep> = OnceLock::new();
        CACHE.get_or_init(run)
    }

    #[test]
    fn sweeps_every_condition_and_serves_every_request() {
        let s = sweep();
        assert_eq!(s.points.len(), CONDITIONS.len());
        for (c, p) in CONDITIONS.iter().zip(&s.points) {
            assert_eq!(p.condition, *c);
            assert_eq!(
                p.completed + p.rejected,
                diurnal_workload().num_requests,
                "{}: lost requests",
                c.label()
            );
            assert!(p.machine_seconds > 0.0);
        }
    }

    #[test]
    fn autoscaler_actually_scales_and_static_rows_do_not() {
        let s = sweep();
        let auto = s.point(Condition::Autoscaled);
        assert!(auto.joins >= 1, "autoscaler never joined a spare");
        for &w in &STATIC_WIDTHS {
            let p = s.point(Condition::Static(w));
            assert_eq!((p.joins, p.drains), (0, 0), "static-{w} saw lifecycle");
        }
    }

    #[test]
    fn the_headline_trade_off_materialises() {
        // Acceptance: the table actually shows the trade. The smallest
        // static fleet violates the SLO more than the full one; full
        // static provisioning burns more machine-seconds than the
        // autoscaler; the autoscaler holds violations below the
        // smallest static fleet.
        let s = sweep();
        let tight = s.point(Condition::Static(STATIC_WIDTHS[0]));
        let full = s.point(Condition::Static(PROVISIONED));
        let auto = s.point(Condition::Autoscaled);
        assert!(
            tight.slo_violation_s > full.slo_violation_s,
            "under-provisioning shows no SLO cost: {} vs {}",
            tight.slo_violation_s,
            full.slo_violation_s
        );
        assert!(
            auto.machine_seconds < full.machine_seconds,
            "autoscaler spends no fewer machine-seconds than static-{PROVISIONED}: {} vs {}",
            auto.machine_seconds,
            full.machine_seconds
        );
        assert!(
            auto.slo_violation_s < tight.slo_violation_s,
            "autoscaler loses no fewer SLO-seconds than static-{}: {} vs {}",
            STATIC_WIDTHS[0],
            auto.slo_violation_s,
            tight.slo_violation_s
        );
    }

    #[test]
    fn bit_reproducible_across_invocations_and_job_counts() {
        let a = sweep();
        assert_eq!(a, &run());
        assert_eq!(a, &run_with(&Engine::new(8)));
    }

    #[test]
    fn table_has_one_row_per_condition_and_carries_digests() {
        let t = sweep().table();
        assert_eq!(t.len(), CONDITIONS.len());
        let rendered = t.to_string();
        for p in &sweep().points {
            assert!(
                rendered.contains(&p.digest.to_string()),
                "digest column missing {}",
                p.condition.label()
            );
        }
    }
}
