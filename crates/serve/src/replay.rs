//! Command logs: record every scheduling decision, replay it later.
//!
//! A [`CommandLog`] is the event-level trace of a run: one
//! [`Command`] per enqueue (which carries the router's replica choice),
//! per scheduler step, per replica lifecycle transition and per
//! displaced-request re-route, in global event order. Because every layer
//! of the simulator is deterministic, replaying the log against the
//! same workload and machine reproduces the run decision-for-decision
//! — the replayed report digests identically to the recorded one. That
//! makes the log the ground truth [`crate::bisect`] searches when two
//! engine builds disagree.

use crate::arrivals::{RequestSource, Workload};
use crate::cost::CostModel;
use crate::lifecycle::FleetEvent;
use crate::policy::SchedulingPolicy;
use crate::scheduler::{Core, ServeConfig, ServeReport};
use crate::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// One recorded scheduling event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Command {
    /// The next pending arrival was routed to (and enqueued on) the
    /// given replica. Single-machine runs always record replica 0.
    Enqueue {
        /// Replica index the router chose.
        replica: u32,
    },
    /// The given replica ran one scheduler step (one admission phase,
    /// then a decode iteration or clock jump).
    Step {
        /// Replica index that stepped.
        replica: u32,
    },
    /// A replica lifecycle transition was applied (fleet runs only).
    Lifecycle(FleetEvent),
    /// A request displaced by a replica failure finished its migration
    /// delay and was re-routed to (and enqueued on) the given replica.
    Reroute {
        /// Replica index the router chose for the displaced request.
        replica: u32,
    },
}

/// The decision trace of one run, in global event order.
///
/// # Worked example
///
/// Record a run with [`crate::ServeRun`], then replay its log: the
/// replayed report digests identically to the recorded one.
///
/// ```
/// use rpu_serve::{
///     digest_serve_report, AnalyticCostModel, Fifo, ServeConfig, ServeRun, Workload,
/// };
///
/// let wl = Workload::poisson(300.0, 128, 16, 24);
/// let cfg = ServeConfig::default();
///
/// // Record: drive a run to completion, keeping its command log.
/// let mut run = ServeRun::new(&wl, &cfg);
/// let mut cost = AnalyticCostModel::small();
/// while run.step(&mut cost, &mut Fifo) {}
/// let log = run.log().clone();
/// let recorded = run.into_report();
///
/// // Replay: the log drives a fresh core through the same decisions.
/// let replayed = log.replay_serve(&wl, &mut AnalyticCostModel::small(), &cfg, &mut Fifo);
/// assert_eq!(
///     digest_serve_report(&recorded),
///     digest_serve_report(&replayed),
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommandLog {
    commands: Vec<Command>,
}

impl CommandLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    pub(crate) fn push(&mut self, cmd: Command) {
        self.commands.push(cmd);
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.commands.len()
    }

    /// `true` when nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.commands.is_empty()
    }

    /// The event at index `i`, if recorded.
    #[must_use]
    pub fn get(&self, i: usize) -> Option<Command> {
        self.commands.get(i).copied()
    }

    /// All recorded events, in order.
    #[must_use]
    pub fn commands(&self) -> &[Command] {
        &self.commands
    }

    /// Replays a single-machine log against a fresh core: arrivals pop
    /// and scheduler steps run exactly where the log says, with no
    /// event-ordering scan of its own.
    ///
    /// # Panics
    ///
    /// Panics if the log does not belong to this workload/machine
    /// (an enqueue with no arrival pending, or a replica other than 0).
    #[must_use]
    pub fn replay_serve(
        &self,
        workload: &Workload,
        cost: &mut dyn CostModel,
        config: &ServeConfig,
        policy: &mut dyn SchedulingPolicy,
    ) -> ServeReport {
        let mut source = RequestSource::new(workload);
        let mut core = Core::new(*config);
        for cmd in &self.commands {
            match *cmd {
                Command::Enqueue { replica } => {
                    assert_eq!(replica, 0, "single-machine log routed off replica 0");
                    let t = source
                        .next_arrival_s()
                        .expect("log enqueues with no arrival pending");
                    let req = source.pop_ready(t).expect("arrival is due");
                    core.enqueue(req);
                }
                Command::Step { replica } => {
                    assert_eq!(replica, 0, "single-machine log stepped off replica 0");
                    core.step(cost, policy, &mut source);
                }
                Command::Lifecycle(_) | Command::Reroute { .. } => {
                    panic!("single-machine log carries fleet lifecycle commands")
                }
            }
        }
        debug_assert!(source.exhausted());
        core.into_report()
    }

    pub(crate) fn save(&self, w: &mut SnapshotWriter) {
        w.put_usize(self.commands.len());
        for cmd in &self.commands {
            match *cmd {
                Command::Enqueue { replica } => {
                    w.put_u8(0);
                    w.put_u32(replica);
                }
                Command::Step { replica } => {
                    w.put_u8(1);
                    w.put_u32(replica);
                }
                Command::Lifecycle(ev) => {
                    w.put_u8(2);
                    ev.save(w);
                }
                Command::Reroute { replica } => {
                    w.put_u8(3);
                    w.put_u32(replica);
                }
            }
        }
    }

    pub(crate) fn load(r: &mut SnapshotReader<'_>) -> Result<Self, SnapshotError> {
        let n = r.get_count(5)?;
        let mut commands = Vec::with_capacity(n);
        for _ in 0..n {
            commands.push(match r.get_u8()? {
                0 => Command::Enqueue {
                    replica: r.get_u32()?,
                },
                1 => Command::Step {
                    replica: r.get_u32()?,
                },
                2 => Command::Lifecycle(FleetEvent::load(r)?),
                3 => Command::Reroute {
                    replica: r.get_u32()?,
                },
                _ => return Err(SnapshotError::Corrupt("bad command tag")),
            });
        }
        Ok(Self { commands })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::AnalyticCostModel;
    use crate::digest::digest_serve_report;
    use crate::policy::{DeadlineEdf, Fifo, PriorityAging, ShortestJobFirst};
    use crate::scheduler::{serve_with, ServeRun};

    #[test]
    fn replay_matches_recording_for_every_policy() {
        let wl = Workload::poisson(1200.0, 256, 24, 40);
        let cfg = ServeConfig::default();
        let policies: [&mut dyn SchedulingPolicy; 4] = [
            &mut Fifo,
            &mut ShortestJobFirst::for_workload(&wl),
            &mut PriorityAging::new(0.5),
            &mut DeadlineEdf,
        ];
        for policy in policies {
            let mut run = ServeRun::new(&wl, &cfg);
            let mut cost = AnalyticCostModel::small();
            while run.step(&mut cost, policy) {}
            let log = run.log().clone();
            let recorded = run.into_report();
            let replayed = log.replay_serve(&wl, &mut AnalyticCostModel::small(), &cfg, policy);
            assert_eq!(
                digest_serve_report(&recorded),
                digest_serve_report(&replayed),
                "{}",
                policy.name()
            );
            assert_eq!(recorded, replayed);
        }
    }

    #[test]
    fn recorded_run_equals_direct_serve_with() {
        let wl = Workload::poisson(800.0, 128, 16, 32);
        let cfg = ServeConfig::default();
        let direct = serve_with(&wl, &mut AnalyticCostModel::small(), &cfg, &mut Fifo);
        let mut run = ServeRun::new(&wl, &cfg);
        let mut cost = AnalyticCostModel::small();
        while run.step(&mut cost, &mut Fifo) {}
        assert_eq!(direct, run.into_report());
    }

    #[test]
    fn log_round_trips_through_snapshot_bytes() {
        let wl = Workload::poisson(500.0, 64, 8, 16);
        let cfg = ServeConfig::default();
        let mut run = ServeRun::new(&wl, &cfg);
        let mut cost = AnalyticCostModel::small();
        while run.step(&mut cost, &mut Fifo) {}
        let log = run.log().clone();

        let mut w = SnapshotWriter::new();
        w.begin_section(9);
        log.save(&mut w);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(9).unwrap();
        let loaded = CommandLog::load(&mut r).unwrap();
        r.end_section().unwrap();
        assert_eq!(log, loaded);
        assert!(!loaded.is_empty());
        assert_eq!(loaded.get(0), Some(Command::Enqueue { replica: 0 }));
    }
}
