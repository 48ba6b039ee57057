//! Decision logs: record what the fleet driver cannot recompute, then
//! replay it through that same driver.
//!
//! Every layer of the simulator is deterministic given the workload,
//! the fleet and two kinds of outside decision: the replica a router
//! picked for each routed request, and the lifecycle transitions
//! injected into the run. A [`CommandLog`] holds exactly those — the
//! picks in routing order, and each applied transition tagged with the
//! 0-based event index that applied it. Scheduler steps, arrival pops
//! and re-route timing follow from the deterministic event calendar,
//! so they are not logged. [`crate::Fleet::replay`] runs the one fleet
//! driver ([`crate::FleetRun::step`]) with the log standing in for the
//! router, and the replayed report digests identically to the recorded
//! one. A single machine ([`crate::serve_with`]) is a one-replica run
//! whose log holds only picks of replica 0.

use crate::lifecycle::FleetEvent;
use crate::request::Request;
use crate::router::{Router, RoutingView};

/// The outside decisions of one fleet run, in the order it made them.
///
/// # Worked example
///
/// Record a churned run with [`crate::FleetRun`], then replay its log
/// with [`crate::Fleet::replay`]: the replayed report digests
/// identically to the recorded one.
///
/// ```
/// use rpu_serve::{
///     churn_tape, digest_fleet_report, AnalyticCostModel, Fifo, FleetBuilder,
///     JoinShortestQueue, ServeConfig, Workload,
/// };
///
/// let wl = Workload::poisson(1500.0, 128, 16, 48);
/// let mut fleet = FleetBuilder::new()
///     .migration_delay_s(0.002)
///     .group(
///         3,
///         &ServeConfig::default(),
///         || Box::new(AnalyticCostModel::small()),
///         || Box::new(Fifo),
///     )
///     .build();
///
/// // Record: a router and a lifecycle storm make the decisions.
/// let mut run = fleet.start(&wl);
/// for ev in churn_tape(3, 7, 0.02, 4) {
///     run.inject(ev);
/// }
/// while run.step(&mut fleet, &mut JoinShortestQueue) {}
/// let log = run.log().clone();
/// let displaced = run.lifecycle_counts().displaced;
/// assert_eq!(log.picks().len(), 48 + displaced as usize);
/// assert_eq!(log.transitions().len(), 4);
/// let recorded = run.into_report();
///
/// // Replay: the same driver, with the log standing in for the router.
/// let replayed = fleet.replay(&wl, &log);
/// assert_eq!(
///     digest_fleet_report(&recorded),
///     digest_fleet_report(&replayed),
/// );
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CommandLog {
    picks: Vec<u32>,
    transitions: Vec<(u64, FleetEvent)>,
}

impl CommandLog {
    /// The replica chosen for every routed request — fresh arrivals and
    /// displaced re-routes alike — in routing order.
    #[must_use]
    pub fn picks(&self) -> &[u32] {
        &self.picks
    }

    /// Every applied lifecycle transition, tagged with the 0-based run
    /// event index that applied it (strictly increasing).
    #[must_use]
    pub fn transitions(&self) -> &[(u64, FleetEvent)] {
        &self.transitions
    }

    pub(crate) fn push_pick(&mut self, replica: usize) {
        self.picks.push(replica as u32);
    }

    pub(crate) fn push_transition(&mut self, event: u64, ev: FleetEvent) {
        self.transitions.push((event, ev));
    }
}

/// A router that hands out a recorded log's picks in order — the only
/// thing [`crate::Fleet::replay`] swaps into the fleet driver.
pub(crate) struct LoggedPicks<'a>(pub(crate) std::slice::Iter<'a, u32>);

impl Router for LoggedPicks<'_> {
    fn name(&self) -> &'static str {
        "logged-picks"
    }

    fn route(&mut self, _req: &Request, _view: &RoutingView<'_>) -> usize {
        *self.0.next().expect("log ran out of picks") as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Workload;
    use crate::cost::AnalyticCostModel;
    use crate::fleet::{Fleet, FleetBuilder};
    use crate::lifecycle::churn_tape;
    use crate::policy::Fifo;
    use crate::router::JoinShortestQueue;
    use crate::scheduler::ServeConfig;

    fn fleet() -> Fleet {
        FleetBuilder::new()
            .migration_delay_s(0.002)
            .group(
                3,
                &ServeConfig::default(),
                || Box::new(AnalyticCostModel::small()),
                || Box::new(Fifo),
            )
            .build()
    }

    /// A churned fleet run's log.
    fn recorded(wl: &Workload) -> CommandLog {
        let mut f = fleet();
        let mut run = f.start(wl);
        for ev in churn_tape(3, 5, 0.02, 4) {
            run.inject(ev);
        }
        while run.step(&mut f, &mut JoinShortestQueue) {}
        run.log().clone()
    }

    #[test]
    #[should_panic(expected = "log ran out of picks")]
    fn replay_of_a_log_with_too_few_picks_panics() {
        let wl = Workload::poisson(1500.0, 64, 8, 32);
        let mut log = recorded(&wl);
        log.picks.pop();
        let _ = fleet().replay(&wl, &log);
    }

    #[test]
    #[should_panic(expected = "decisions left over")]
    fn replay_of_a_log_with_too_many_picks_panics() {
        let wl = Workload::poisson(1500.0, 64, 8, 32);
        let mut log = recorded(&wl);
        log.picks.push(0);
        let _ = fleet().replay(&wl, &log);
    }
}
