//! A reactive fleet autoscaler: windowed tail-latency and KV-occupancy
//! signals turned into lifecycle events under hysteresis.
//!
//! The [`Autoscaler`] runs a fixed-interval control loop over a
//! [`crate::FleetRun`]: at every decision boundary it looks at the p99
//! TTFT of requests completed in the trailing window and the mean KV
//! occupancy of the live replicas, and emits [`FleetEvent`]s —
//! [`Join`][FleetEventKind::Join] a spare slot when hot,
//! [`Drain`][FleetEventKind::Drain] the highest-index live replica
//! when cold, and a housekeeping [`Leave`][FleetEventKind::Leave] for
//! every draining replica that has gone idle. Scaling decisions are
//! double-gated: a signal must persist for a configured number of
//! consecutive boundaries (`up_after`/`down_after`) *and* a cooldown
//! must have elapsed since the last scaling action, so a flash crowd
//! does not see-saw the fleet.
//!
//! Everything is deterministic: the controller reads only simulated
//! state, so an autoscaled run re-runs exactly like any other fleet
//! run.
//!
//! A control boundary costs `O(replicas + window)` and allocates only
//! for the events it emits: the p99 comes from a forward-only
//! [`TtftWindow`] that never revisits a record finished before an
//! earlier window, and the occupancy from the telemetry cache the
//! router reads ([`crate::FleetRun::telemetry_cache`]).

use crate::arrivals::Workload;
use crate::fleet::{Fleet, FleetReport, TtftWindow};
use crate::lifecycle::{FleetEvent, FleetEventKind, LifecycleState};
use crate::router::{ReplicaTelemetry, Router};

/// Knobs of the reactive autoscaler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Control-loop decision interval, seconds.
    pub interval_s: f64,
    /// Trailing window the p99 TTFT is measured over, seconds.
    pub window_s: f64,
    /// Scale-up trips when the windowed p99 TTFT exceeds this, seconds.
    pub ttft_p99_high_s: f64,
    /// Scale-up trips when mean live KV occupancy exceeds this
    /// fraction.
    pub kv_high: f64,
    /// Scale-down requires mean live KV occupancy below this fraction.
    pub kv_low: f64,
    /// Consecutive hot boundaries before a join is emitted.
    pub up_after: u32,
    /// Consecutive cold boundaries before a drain is emitted.
    pub down_after: u32,
    /// Minimum time between scaling actions, seconds.
    pub cooldown_s: f64,
    /// Never drain below this many live replicas.
    pub min_live: usize,
    /// Never join above this many live replicas.
    pub max_live: usize,
}

impl Default for AutoscalerConfig {
    /// Defaults tuned for the compressed sim timescale of the bundled
    /// experiments (runs lasting single-digit seconds): a 50 ms control
    /// interval over a 100 ms window, hysteresis of 2-up/4-down, and a
    /// 100 ms cooldown.
    fn default() -> Self {
        Self {
            interval_s: 0.05,
            window_s: 0.1,
            ttft_p99_high_s: 0.25,
            kv_high: 0.85,
            kv_low: 0.25,
            up_after: 2,
            down_after: 4,
            cooldown_s: 0.1,
            min_live: 1,
            max_live: usize::MAX,
        }
    }
}

/// The reactive controller: holds the hysteresis streaks and cooldown
/// clock between decision boundaries.
#[derive(Debug, Clone)]
pub struct Autoscaler {
    config: AutoscalerConfig,
    hot_streak: u32,
    cold_streak: u32,
    last_scale_s: f64,
}

impl Autoscaler {
    /// Builds a controller.
    ///
    /// # Panics
    ///
    /// Panics if the interval or window is not positive, the
    /// thresholds are not ordered (`kv_low < kv_high`), the cooldown
    /// is NaN, or `min_live` is zero or exceeds `max_live`.
    #[must_use]
    pub fn new(config: AutoscalerConfig) -> Self {
        assert!(
            config.interval_s > 0.0 && config.window_s > 0.0,
            "autoscaler interval and window must be positive"
        );
        assert!(
            config.kv_low < config.kv_high,
            "kv_low must sit below kv_high"
        );
        assert!(
            config.ttft_p99_high_s > 0.0,
            "TTFT threshold must be positive"
        );
        assert!(
            !config.cooldown_s.is_nan(),
            "autoscaler cooldown must not be NaN"
        );
        assert!(
            config.min_live >= 1 && config.min_live <= config.max_live,
            "need 1 <= min_live <= max_live"
        );
        Self {
            config,
            hot_streak: 0,
            cold_streak: 0,
            last_scale_s: f64::NEG_INFINITY,
        }
    }

    /// The controller's knobs.
    #[must_use]
    pub fn config(&self) -> &AutoscalerConfig {
        &self.config
    }

    /// One control decision: reads the fleet's lifecycle states,
    /// per-replica telemetry and the windowed p99 TTFT (`None` when
    /// nothing completed in the window), and returns the lifecycle
    /// events to inject at `now_s`. At most one scaling action (join
    /// or drain) is emitted per call; housekeeping leaves for idle
    /// draining replicas are always emitted and never gated.
    pub fn control(
        &mut self,
        now_s: f64,
        states: &[LifecycleState],
        telemetry: &[ReplicaTelemetry],
        p99_ttft_s: Option<f64>,
    ) -> Vec<FleetEvent> {
        assert_eq!(
            states.len(),
            telemetry.len(),
            "states and telemetry must cover the same replicas"
        );
        let mut events = Vec::new();
        // One pass: housekeeping leaves, plus the live replicas' count,
        // occupancy sum and highest index.
        let (mut live, mut top_live, mut kv_sum) = (0usize, 0usize, 0.0);
        for (i, (s, t)) in states.iter().zip(telemetry).enumerate() {
            match s {
                // A draining replica that has gone idle exits cleanly,
                // regardless of hysteresis — holding an empty machine
                // in Draining would burn machine-seconds for nothing.
                LifecycleState::Draining if t.queue_depth == 0 && t.active_requests == 0 => {
                    events.push(FleetEvent {
                        at_s: now_s,
                        replica: i as u32,
                        kind: FleetEventKind::Leave,
                    });
                }
                LifecycleState::Live => {
                    live += 1;
                    top_live = i;
                    kv_sum += t.kv_load();
                }
                _ => {}
            }
        }
        let kv = if live == 0 { 0.0 } else { kv_sum / live as f64 };
        let p99 = p99_ttft_s.unwrap_or(0.0);
        let hot = p99 > self.config.ttft_p99_high_s || kv > self.config.kv_high;
        let cold = !hot && kv < self.config.kv_low && p99 < 0.5 * self.config.ttft_p99_high_s;
        if hot {
            self.hot_streak += 1;
            self.cold_streak = 0;
        } else if cold {
            self.cold_streak += 1;
            self.hot_streak = 0;
        } else {
            self.hot_streak = 0;
            self.cold_streak = 0;
        }
        let cooled = now_s - self.last_scale_s >= self.config.cooldown_s;
        if self.hot_streak >= self.config.up_after && cooled && live < self.config.max_live {
            // Bring up the first spare slot, if the fleet has one.
            if let Some(spare) = states.iter().position(|s| *s == LifecycleState::Down) {
                events.push(FleetEvent {
                    at_s: now_s,
                    replica: spare as u32,
                    kind: FleetEventKind::Join,
                });
                self.hot_streak = 0;
                self.cold_streak = 0;
                self.last_scale_s = now_s;
            }
        } else if self.cold_streak >= self.config.down_after
            && cooled
            && live > self.config.min_live
        {
            // Retire the highest-index live replica: joins prefer low
            // indices, so the fleet contracts from the top and slot
            // indices stay stable for static groups below.
            events.push(FleetEvent {
                at_s: now_s,
                replica: top_live as u32,
                kind: FleetEventKind::Drain,
            });
            self.hot_streak = 0;
            self.cold_streak = 0;
            self.last_scale_s = now_s;
        }
        events
    }
}

/// Serves `workload` across `fleet` with the autoscaler in the loop:
/// the run advances [`AutoscalerConfig::interval_s`] at a time, the
/// controller reads the windowed tail latency and occupancy at each
/// boundary, and its events are injected back into the run. Fully
/// deterministic — same fleet, workload, router and config, same
/// report.
///
/// A boundary reads the p99 through one [`TtftWindow`] held for the
/// whole run and the occupancy from the run's telemetry cache, so it
/// costs `O(replicas + window)`, not a rescan of the run's records.
///
/// # Panics
///
/// Panics on the same conditions as [`Fleet::serve`].
#[must_use]
pub fn run_autoscaled(
    fleet: &mut Fleet,
    workload: &Workload,
    router: &mut dyn Router,
    scaler: &mut Autoscaler,
) -> FleetReport {
    let mut run = fleet.start(workload);
    let mut ttfts = TtftWindow::new(&run);
    let interval = scaler.config.interval_s;
    let window = scaler.config.window_s;
    let mut boundary = interval;
    while run.step_until(fleet, router, boundary) {
        let p99 = ttfts.p99_since(&run, (boundary - window).max(0.0));
        for ev in scaler.control(boundary, run.states(), run.telemetry_cache(), p99) {
            run.inject(ev);
        }
        boundary += interval;
    }
    run.into_report()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticCostModel;
    use crate::fleet::FleetBuilder;
    use crate::policy::Fifo;
    use crate::router::JoinShortestQueue;
    use crate::scheduler::ServeConfig;

    fn elastic_fleet(live: usize, spare: usize) -> Fleet {
        FleetBuilder::new()
            .migration_delay_s(0.002)
            .group(
                live,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .group_with_state(
                LifecycleState::Down,
                spare,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build()
    }

    fn overload_workload() -> Workload {
        // ~3x what one small replica sustains, long enough to trip the
        // hysteresis several times over.
        Workload::poisson(900.0, 256, 32, 900)
    }

    fn idle_telemetry() -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: 0,
            active_requests: 0,
            reserved_tokens: 0,
            queued_tokens: 0,
            kv_capacity_tokens: 4096,
        }
    }

    #[test]
    #[should_panic(expected = "kv_low")]
    fn inverted_kv_thresholds_are_rejected() {
        let _ = Autoscaler::new(AutoscalerConfig {
            kv_low: 0.9,
            kv_high: 0.5,
            ..AutoscalerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "cooldown must not be NaN")]
    fn nan_cooldown_is_rejected() {
        // A NaN cooldown fails every `>=` against it, so the controller
        // would never scale.
        let _ = Autoscaler::new(AutoscalerConfig {
            cooldown_s: f64::NAN,
            ..AutoscalerConfig::default()
        });
    }

    #[test]
    #[should_panic(expected = "min_live")]
    fn zero_min_live_is_rejected() {
        let _ = Autoscaler::new(AutoscalerConfig {
            min_live: 0,
            ..AutoscalerConfig::default()
        });
    }

    #[test]
    fn control_joins_under_sustained_heat_with_hysteresis_and_cooldown() {
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            up_after: 2,
            cooldown_s: 1.0,
            ..AutoscalerConfig::default()
        });
        let states = [LifecycleState::Live, LifecycleState::Down];
        let telemetry = vec![idle_telemetry(); 2];
        let hot = Some(10.0);
        // First hot boundary: streak too short, nothing happens.
        assert!(scaler.control(0.1, &states, &telemetry, hot).is_empty());
        // Second: join the spare slot.
        let evs = scaler.control(0.2, &states, &telemetry, hot);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, FleetEventKind::Join);
        assert_eq!(evs[0].replica, 1);
        // Still hot, but within cooldown: no double-join.
        assert!(scaler.control(0.3, &states, &telemetry, hot).is_empty());
        assert!(scaler.control(0.4, &states, &telemetry, hot).is_empty());
    }

    #[test]
    fn control_drains_the_top_replica_when_cold_and_leaves_when_idle() {
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            down_after: 2,
            cooldown_s: 0.0,
            min_live: 1,
            ..AutoscalerConfig::default()
        });
        let states = [LifecycleState::Live, LifecycleState::Live];
        let telemetry = vec![idle_telemetry(); 2];
        assert!(scaler.control(0.1, &states, &telemetry, None).is_empty());
        let evs = scaler.control(0.2, &states, &telemetry, None);
        assert_eq!(evs.len(), 1);
        assert_eq!(evs[0].kind, FleetEventKind::Drain);
        assert_eq!(evs[0].replica, 1, "contracts from the top");
        // Once draining and idle, the housekeeping leave fires
        // immediately, ungated by streaks or cooldown.
        let states = [LifecycleState::Live, LifecycleState::Draining];
        let evs = scaler.control(0.3, &states, &telemetry, None);
        assert!(evs
            .iter()
            .any(|e| e.kind == FleetEventKind::Leave && e.replica == 1));
    }

    #[test]
    fn min_live_floor_holds() {
        let mut scaler = Autoscaler::new(AutoscalerConfig {
            down_after: 1,
            cooldown_s: 0.0,
            min_live: 1,
            ..AutoscalerConfig::default()
        });
        let states = [LifecycleState::Live];
        let telemetry = vec![idle_telemetry(); 1];
        for k in 1..8 {
            assert!(
                scaler
                    .control(0.1 * f64::from(k), &states, &telemetry, None)
                    .is_empty(),
                "drained below min_live"
            );
        }
    }

    #[test]
    fn autoscaled_run_is_deterministic_and_actually_scales() {
        let wl = overload_workload();
        let run = || {
            let mut f = elastic_fleet(1, 3);
            let mut scaler = Autoscaler::new(AutoscalerConfig::default());
            run_autoscaled(&mut f, &wl, &mut JoinShortestQueue, &mut scaler)
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "autoscaled runs must be bit-reproducible");
        assert!(a.lifecycle.joins >= 1, "overload never tripped a join");
        assert_eq!(
            a.aggregate.records.len() as u32 + a.aggregate.rejected,
            wl.num_requests
        );
        assert!(a.machine_seconds > 0.0);
    }

    #[test]
    fn autoscaling_beats_the_single_replica_tail() {
        let wl = overload_workload();
        let mut static_one = elastic_fleet(1, 0);
        let static_report = static_one.serve(&wl, &mut JoinShortestQueue);
        let mut f = elastic_fleet(1, 3);
        let mut scaler = Autoscaler::new(AutoscalerConfig::default());
        let scaled_report = run_autoscaled(&mut f, &wl, &mut JoinShortestQueue, &mut scaler);
        let p99 = |r: &FleetReport| {
            let mut t: Vec<f64> = r
                .records()
                .map(crate::request::RequestRecord::ttft_s)
                .collect();
            t.sort_by(f64::total_cmp);
            t[t.len() * 99 / 100]
        };
        assert!(
            p99(&scaled_report) < p99(&static_report),
            "joins never relieved the tail: {} vs {}",
            p99(&scaled_report),
            p99(&static_report)
        );
    }
}
