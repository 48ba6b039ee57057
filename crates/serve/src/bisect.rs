//! Divergence bisection: find the first event where two engines differ.
//!
//! When two engine builds (or two configurations that should be
//! equivalent) produce different reports for the same workload, the
//! interesting question is *which decision* first went a different
//! way. A run's [state digest](crate::ServeRun::state_digest) hashes
//! its full frozen state. A decision that differs at event `k` changes
//! that state at once, and append-only records carry the difference
//! forward: every core's completed-request records and, for fleets,
//! the command log of router picks and lifecycle transitions. So
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
    /// index, as counted by [`crate::ServeRun::events`]).
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
/// [`events()`](crate::ServeRun::events) count (probing past the end
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
    use crate::policy::{ActiveRequest, Fifo, QueuedRequest, SchedulingPolicy};
    use crate::scheduler::{ServeConfig, ServeRun};

    /// Behaves exactly like [`Fifo`] until its `deviate_on`-th
    /// `select` call, where it picks the back of the queue instead —
    /// a seeded synthetic divergence with a knowable first event.
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

    fn digest_after(
        wl: &Workload,
        cfg: &ServeConfig,
        policy: &mut dyn SchedulingPolicy,
        events: u64,
    ) -> ReportDigest {
        let mut run = ServeRun::new(wl, cfg);
        let mut cost = AnalyticCostModel::small();
        for _ in 0..events {
            if !run.step(&mut cost, policy) {
                break;
            }
        }
        run.state_digest()
    }

    #[test]
    fn identical_engines_report_identical() {
        let wl = Workload::poisson(900.0, 96, 16, 24);
        let cfg = ServeConfig::default();
        let total = {
            let mut run = ServeRun::new(&wl, &cfg);
            let mut cost = AnalyticCostModel::small();
            while run.step(&mut cost, &mut Fifo) {}
            run.events()
        };
        let outcome = bisect_divergence(
            total,
            &mut |n| digest_after(&wl, &cfg, &mut Fifo, n),
            &mut |n| digest_after(&wl, &cfg, &mut Fifo, n),
        );
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
        let outcome =
            bisect_divergence(64, &mut |n| digest_after(&wl, &a, &mut Fifo, n), &mut |n| {
                digest_after(&wl, &b, &mut Fifo, n)
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
        let mut a = ServeRun::new(&wl, &cfg);
        let mut b = ServeRun::new(&wl, &cfg);
        let mut cost_a = AnalyticCostModel::small();
        let mut cost_b = AnalyticCostModel::small();
        let mut policy_b = fresh_divergent();
        let mut first_divergent_event = None;
        let mut n = 0u64;
        loop {
            let more_a = a.step(&mut cost_a, &mut Fifo);
            let more_b = b.step(&mut cost_b, &mut policy_b);
            n += 1;
            if a.state_digest() != b.state_digest() {
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
        while a.step(&mut cost_a, &mut Fifo) {}
        let outcome = bisect_divergence(
            a.events(),
            &mut |k| digest_after(&wl, &cfg, &mut Fifo, k),
            &mut |k| digest_after(&wl, &cfg, &mut fresh_divergent(), k),
        );
        assert_eq!(outcome, BisectOutcome::DivergedAt { event: expected });
        assert_eq!(outcome.event(), Some(expected));
    }

    #[test]
    fn zero_horizon_with_equal_initial_state_is_identical() {
        let wl = Workload::poisson(900.0, 96, 16, 24);
        let cfg = ServeConfig::default();
        let outcome = bisect_divergence(
            0,
            &mut |n| digest_after(&wl, &cfg, &mut Fifo, n),
            &mut |n| digest_after(&wl, &cfg, &mut Fifo, n),
        );
        assert_eq!(outcome, BisectOutcome::Identical);
    }
}
