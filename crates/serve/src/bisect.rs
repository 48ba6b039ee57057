//! Divergence bisection: find the first event where two engines differ.
//!
//! When two engine builds (or two configurations that should be
//! equivalent) produce different reports for the same workload, the
//! interesting question is *which decision* first went a different
//! way. A run's [state digest](crate::FleetRun::state_digest) hashes
//! its full frozen state. A decision that differs at event `k` changes
//! that state at once, and append-only records carry the difference
//! forward: every core's completed-request records and the command
//! log of router picks and lifecycle transitions. So
//! divergence is monotone in the event index — the digests differ
//! after every `n > k` and agree after every `n <= k` — which is what
//! lets [`bisect_divergence`] binary-search the first divergent event
//! with `O(log n)` probes instead of a linear scan.
//!
//! A *probe* is a closure `FnMut(u64) -> ReportDigest` that runs its
//! engine from scratch for at most `n` events and returns the state
//! digest at that point. Probes must be deterministic: calling
//! `probe(n)` twice must return the same digest, so any stateful cost
//! model, policy or router must be constructed fresh inside the
//! closure on every call.

use crate::digest::ReportDigest;

/// What [`bisect_divergence`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BisectOutcome {
    /// The two engines agree after every probed event count — no
    /// divergence within the given horizon.
    Identical,
    /// The two engines already disagree before executing any event:
    /// their initial states (workload fingerprint, configuration, or
    /// router state) differ, so no event can be blamed.
    InitialStateDiffers,
    /// The engines agree up to and including event `event - 1` and
    /// first disagree while executing event `event` (0-based run event
    /// index, as counted by [`crate::FleetRun::events`]).
    DivergedAt {
        /// 0-based index of the first divergent event.
        event: u64,
    },
}

impl BisectOutcome {
    /// The offending event index, if the engines diverged mid-run.
    #[must_use]
    pub fn event(&self) -> Option<u64> {
        match *self {
            Self::DivergedAt { event } => Some(event),
            _ => None,
        }
    }
}

/// Binary-searches the first event index (in `0..max_events`) where
/// the two probes' state digests diverge.
///
/// `probe(n)` must run its engine from a fresh start for at most `n`
/// events and return the state digest there; see the [module
/// docs](self) for the determinism contract. `max_events` is the
/// horizon to search — typically the recorded run's
/// [`events()`](crate::FleetRun::events) count (probing past the end
/// of a run is fine: a completed run simply stops stepping, so its
/// digest plateaus).
///
/// Costs `2 + ceil(log2(max_events))` probes, each of which replays
/// from scratch — `O(n log n)` simulated events overall.
pub fn bisect_divergence(
    max_events: u64,
    probe_a: &mut dyn FnMut(u64) -> ReportDigest,
    probe_b: &mut dyn FnMut(u64) -> ReportDigest,
) -> BisectOutcome {
    if probe_a(0) != probe_b(0) {
        return BisectOutcome::InitialStateDiffers;
    }
    if max_events == 0 || probe_a(max_events) == probe_b(max_events) {
        return BisectOutcome::Identical;
    }
    // Invariant: digests agree after `lo` events, differ after `hi`.
    let (mut lo, mut hi) = (0u64, max_events);
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if probe_a(mid) == probe_b(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // First differing state is after `hi` events, so the event with
    // 0-based index `hi - 1` is the first divergent one.
    BisectOutcome::DivergedAt { event: hi - 1 }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::Workload;
    use crate::cost::AnalyticCostModel;
    use crate::fleet::{Fleet, FleetBuilder};
    use crate::policy::{ActiveRequest, Fifo, QueuedRequest, SchedulingPolicy};
    use crate::router::RoundRobin;
    use crate::scheduler::ServeConfig;

    /// Behaves exactly like [`Fifo`] until its `deviate_on`-th
    /// `select` call, where it picks the back of the queue instead —
    /// a seeded synthetic divergence with a knowable first event.
    #[derive(Clone)]
    struct DivergeAfter {
        inner: Fifo,
        deviate_on: u32,
        calls: u32,
    }

    impl SchedulingPolicy for DivergeAfter {
        fn name(&self) -> &'static str {
            "diverge-after"
        }

        fn select(&mut self, queue: &[QueuedRequest], clock: f64) -> Option<usize> {
            self.calls += 1;
            if self.calls == self.deviate_on && queue.len() > 1 {
                return Some(queue.len() - 1);
            }
            self.inner.select(queue, clock)
        }

        fn preempt_victim(
            &mut self,
            active: &[ActiveRequest],
            candidate: &QueuedRequest,
            clock: f64,
        ) -> Option<usize> {
            self.inner.preempt_victim(active, candidate, clock)
        }
    }

    /// One machine under `policy`: a one-replica fleet.
    fn machine(cfg: &ServeConfig, policy: impl SchedulingPolicy + Clone + 'static) -> Fleet {
        FleetBuilder::new()
            .group(
                1,
                cfg,
                || Box::new(AnalyticCostModel::small()),
                || Box::new(policy.clone()),
            )
            .build()
    }

    fn digest_after(
        wl: &Workload,
        cfg: &ServeConfig,
        policy: impl SchedulingPolicy + Clone + 'static,
        events: u64,
    ) -> ReportDigest {
        let mut fleet = machine(cfg, policy);
        let mut router = RoundRobin::new();
        let mut run = fleet.start(wl);
        for _ in 0..events {
            if !run.step(&mut fleet, &mut router) {
                break;
            }
        }
        run.state_digest(&router)
    }

    #[test]
    fn identical_engines_report_identical() {
        let wl = Workload::poisson(900.0, 96, 16, 24);
        let cfg = ServeConfig::default();
        let total = {
            let mut fleet = machine(&cfg, Fifo);
            let mut router = RoundRobin::new();
            let mut run = fleet.start(&wl);
            while run.step(&mut fleet, &mut router) {}
            run.events()
        };
        let outcome =
            bisect_divergence(total, &mut |n| digest_after(&wl, &cfg, Fifo, n), &mut |n| {
                digest_after(&wl, &cfg, Fifo, n)
            });
        assert_eq!(outcome, BisectOutcome::Identical);
        assert_eq!(outcome.event(), None);
    }

    #[test]
    fn differing_configs_differ_before_any_event() {
        let wl = Workload::poisson(900.0, 96, 16, 24);
        let a = ServeConfig::default();
        let b = ServeConfig {
            max_batch: a.max_batch + 1,
            ..a
        };
        let outcome = bisect_divergence(64, &mut |n| digest_after(&wl, &a, Fifo, n), &mut |n| {
            digest_after(&wl, &b, Fifo, n)
        });
        assert_eq!(outcome, BisectOutcome::InitialStateDiffers);
    }

    #[test]
    fn pinpoints_a_seeded_divergence_to_the_exact_event() {
        // High arrival rate so the queue has depth when the wrapped
        // policy deviates — otherwise picking "the back" is the front.
        let wl = Workload::poisson(4000.0, 160, 24, 32);
        let cfg = ServeConfig::default();

        let fresh_divergent = || DivergeAfter {
            inner: Fifo,
            deviate_on: 7,
            calls: 0,
        };

        // Ground truth by linear scan: step both runs in lockstep and
        // find the first event count where the digests differ.
        let (mut fleet_a, mut router_a) = (machine(&cfg, Fifo), RoundRobin::new());
        let (mut fleet_b, mut router_b) = (machine(&cfg, fresh_divergent()), RoundRobin::new());
        let mut a = fleet_a.start(&wl);
        let mut b = fleet_b.start(&wl);
        let mut first_divergent_event = None;
        let mut n = 0u64;
        loop {
            let more_a = a.step(&mut fleet_a, &mut router_a);
            let more_b = b.step(&mut fleet_b, &mut router_b);
            n += 1;
            if a.state_digest(&router_a) != b.state_digest(&router_b) {
                first_divergent_event = Some(n - 1);
                break;
            }
            if !more_a && !more_b {
                break;
            }
        }
        let expected = first_divergent_event.expect("seeded divergence must fire");
        assert!(
            expected > 0,
            "divergence should not be at the very first event"
        );

        // Finish run A to get the search horizon.
        while a.step(&mut fleet_a, &mut router_a) {}
        let outcome = bisect_divergence(
            a.events(),
            &mut |k| digest_after(&wl, &cfg, Fifo, k),
            &mut |k| digest_after(&wl, &cfg, fresh_divergent(), k),
        );
        assert_eq!(outcome, BisectOutcome::DivergedAt { event: expected });
        assert_eq!(outcome.event(), Some(expected));
    }

    #[test]
    fn zero_horizon_with_equal_initial_state_is_identical() {
        let wl = Workload::poisson(900.0, 96, 16, 24);
        let cfg = ServeConfig::default();
        let outcome = bisect_divergence(0, &mut |n| digest_after(&wl, &cfg, Fifo, n), &mut |n| {
            digest_after(&wl, &cfg, Fifo, n)
        });
        assert_eq!(outcome, BisectOutcome::Identical);
    }
}
