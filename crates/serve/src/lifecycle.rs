//! Replica lifecycle: the fleet's replica set as a first-class
//! dynamic quantity.
//!
//! A fleet provisions a fixed number of replica *slots*; each slot is
//! in one [`LifecycleState`] and moves between states through
//! [`FleetEvent`]s applied at deterministic sim times:
//!
//! | Event | Transition | Semantics |
//! |---|---|---|
//! | `Join` | `Down -> Live` | the slot starts admitting new work |
//! | `Drain` | `Live -> Draining` | no new admissions; in-flight work finishes |
//! | `Leave` | `Draining -> Down` | clean exit, only legal once idle |
//! | `Fail` | `Live\|Draining -> Down` | crash: in-flight requests are lost and re-enqueued through the router after a migration delay, paying a full re-prefill |
//!
//! Events fire at their injected sim times and re-run bit-identically —
//! a churned fleet's run and its re-run with the same injections digest
//! the same, as a static one's do — and `FleetRun::audit` checks the state each
//! transition derives (routable mask, up-count, wake tree) against a
//! rebuild at every boundary. [`churn_tape`] generates adversarial but
//! always-legal event storms for the fuzz battery.

use crate::rng::ServeRng;

/// The lifecycle state of one provisioned replica slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LifecycleState {
    /// Admitting new work and stepping.
    #[default]
    Live,
    /// Admitting nothing new, finishing in-flight work.
    Draining,
    /// Empty and unroutable (never joined, left, or failed).
    Down,
}

impl LifecycleState {
    /// Whether a router may send *new* work to a replica in this state.
    #[must_use]
    pub fn is_routable(self) -> bool {
        matches!(self, Self::Live)
    }

    /// Short name for tables and error messages.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Live => "live",
            Self::Draining => "draining",
            Self::Down => "down",
        }
    }
}

/// What happens to a replica slot at a [`FleetEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetEventKind {
    /// `Down -> Live`: the slot starts taking traffic.
    Join,
    /// `Live -> Draining`: stop admitting, finish in-flight work.
    Drain,
    /// `Draining -> Down`: clean exit; legal only once the replica is
    /// idle (no queued or active requests).
    Leave,
    /// `Live|Draining -> Down`: crash. In-flight requests are lost and
    /// re-enqueued through the router after the fleet's migration
    /// delay, paying a full re-prefill of their prompt + generated
    /// tokens.
    Fail,
}

impl FleetEventKind {
    /// Short name for logs and tables.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Join => "join",
            Self::Drain => "drain",
            Self::Leave => "leave",
            Self::Fail => "fail",
        }
    }
}

/// One replica lifecycle event, applied at a deterministic sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// Sim time the event fires, seconds.
    pub at_s: f64,
    /// Provisioned slot index the event targets.
    pub replica: u32,
    /// The transition.
    pub kind: FleetEventKind,
}

/// Counts of lifecycle transitions a fleet run applied, plus the
/// in-flight requests failures displaced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LifecycleCounts {
    /// `Join` events applied.
    pub joins: u32,
    /// `Drain` events applied.
    pub drains: u32,
    /// `Leave` events applied.
    pub leaves: u32,
    /// `Fail` events applied.
    pub fails: u32,
    /// Queued + in-flight requests displaced by failures and
    /// re-enqueued through the router.
    pub displaced: u32,
}

impl LifecycleCounts {
    /// Total lifecycle events applied.
    #[must_use]
    pub fn events(&self) -> u32 {
        self.joins + self.drains + self.leaves + self.fails
    }
}

/// Generates a deterministic, always-legal replica-churn storm: joins,
/// drains and fails over `provisioned` slots (all initially live),
/// with strictly increasing event times spread over roughly
/// `horizon_s` seconds.
///
/// Legality is maintained by construction: at least one replica stays
/// live at all times (a drain or a fail of a live replica is only
/// generated while two or more are live; draining replicas may still
/// fail), and only down slots join. `Leave` is never generated — its
/// legality depends on runtime queue state, which a pre-run tape
/// cannot see; clean exits are the autoscaler's job.
///
/// Each event draws one move uniformly from the legal moves listed in
/// slot order: `Join` for a down slot, `Drain` then `Fail` for a live
/// one, `Fail` for a draining one. Two Fenwick trees find the drawn move
/// in O(log slots) without listing them.
///
/// # Panics
///
/// Panics when `provisioned` is zero or the horizon is not positive.
#[must_use]
pub fn churn_tape(provisioned: u32, seed: u64, horizon_s: f64, events: u32) -> Vec<FleetEvent> {
    assert!(provisioned >= 1, "a churn tape needs at least one slot");
    assert!(horizon_s > 0.0, "churn horizon must be positive");
    let mut rng = ServeRng::new(seed ^ 0x5AFE_C0DE_D00D_F00D);
    let mut states = vec![LifecycleState::Live; provisioned as usize];
    let mut index = MoveIndex::all_live(provisioned as usize);
    let mut live = provisioned;
    let mut t = 0.0;
    let mut out = Vec::new();
    while (out.len() as u32) < events {
        t += rng.next_exp(horizon_s / f64::from(events.max(1)));
        // A live slot offers two moves while another stays live; every
        // down or draining slot offers one.
        let live_moves = if live > 1 { 2 } else { 0 };
        let total = live_moves * u64::from(live) + u64::from(provisioned - live);
        let r = rng.next_u64() % total.max(1);
        if total == 0 {
            break; // one slot, permanently live: nothing legal to emit
        }
        let (slot, offset) = index.find(live_moves, r);
        let kind = match states[slot] {
            LifecycleState::Down => FleetEventKind::Join,
            LifecycleState::Live if offset == 0 => FleetEventKind::Drain,
            LifecycleState::Live | LifecycleState::Draining => FleetEventKind::Fail,
        };
        match kind {
            FleetEventKind::Join => {
                states[slot] = LifecycleState::Live;
                index.set_live(slot, true);
                live += 1;
            }
            FleetEventKind::Drain => {
                states[slot] = LifecycleState::Draining;
                index.set_live(slot, false);
                live -= 1;
            }
            FleetEventKind::Fail => {
                if states[slot] == LifecycleState::Live {
                    index.set_live(slot, false);
                    live -= 1;
                }
                states[slot] = LifecycleState::Down;
            }
            FleetEventKind::Leave => unreachable!("churn tapes never emit leave"),
        }
        out.push(FleetEvent {
            at_s: t,
            replica: slot as u32,
            kind,
        });
    }
    out
}

/// Two Fenwick trees over the slots of a [`churn_tape`]: one counts
/// live slots, the other down-or-draining slots. Slot `i` weighs
/// `live_moves` if live and 1 otherwise, and [`MoveIndex::find`] walks
/// both trees at once to the slot holding a given unit of weight.
struct MoveIndex {
    /// 1-based: `live[i]` sums live slots `i - lowbit(i)..i`.
    live: Vec<u32>,
    /// 1-based, like `live`, over down-or-draining slots.
    not_live: Vec<u32>,
}

impl MoveIndex {
    fn all_live(slots: usize) -> Self {
        // A tree over all-ones counts `lowbit(i)` at node `i`.
        Self {
            live: (0..=slots).map(|i| (i & i.wrapping_neg()) as u32).collect(),
            not_live: vec![0; slots + 1],
        }
    }

    /// Moves `slot` into (`true`) or out of (`false`) the live tree.
    fn set_live(&mut self, slot: usize, live: bool) {
        let (add, sub) = if live {
            (&mut self.live, &mut self.not_live)
        } else {
            (&mut self.not_live, &mut self.live)
        };
        let mut i = slot + 1;
        while i < add.len() {
            add[i] += 1;
            sub[i] -= 1;
            i += i & i.wrapping_neg();
        }
    }

    /// The slot holding unit `r` of the total weight, and `r`'s offset
    /// within that slot's weight. `r` must be below the total.
    fn find(&self, live_moves: u64, mut r: u64) -> (usize, u64) {
        let n = self.live.len() - 1;
        let mut pos = 0;
        let mut step = n.next_power_of_two();
        while step > 0 {
            let next = pos + step;
            if next <= n {
                let w = live_moves * u64::from(self.live[next]) + u64::from(self.not_live[next]);
                if w <= r {
                    pos = next;
                    r -= w;
                }
            }
            step >>= 1;
        }
        (pos, r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The move list [`churn_tape`] draws from, built in full for each
    /// event: the O(events × slots) reference the fast tape must match.
    fn churn_tape_reference(
        provisioned: u32,
        seed: u64,
        horizon_s: f64,
        events: u32,
    ) -> Vec<FleetEvent> {
        assert!(provisioned >= 1, "a churn tape needs at least one slot");
        assert!(horizon_s > 0.0, "churn horizon must be positive");
        let mut rng = ServeRng::new(seed ^ 0x5AFE_C0DE_D00D_F00D);
        let mut states = vec![LifecycleState::Live; provisioned as usize];
        let mut live = provisioned;
        let mut t = 0.0;
        let mut out = Vec::new();
        while (out.len() as u32) < events {
            t += rng.next_exp(horizon_s / f64::from(events.max(1)));
            let mut moves: Vec<(FleetEventKind, u32)> = Vec::new();
            for (i, &s) in states.iter().enumerate() {
                let i = i as u32;
                match s {
                    LifecycleState::Down => moves.push((FleetEventKind::Join, i)),
                    LifecycleState::Live if live > 1 => {
                        moves.push((FleetEventKind::Drain, i));
                        moves.push((FleetEventKind::Fail, i));
                    }
                    LifecycleState::Live => {}
                    LifecycleState::Draining => moves.push((FleetEventKind::Fail, i)),
                }
            }
            let Some(&(kind, replica)) = moves
                .get((rng.next_u64() % moves.len().max(1) as u64) as usize)
                .filter(|_| !moves.is_empty())
            else {
                break; // one slot, permanently live: nothing legal to emit
            };
            match kind {
                FleetEventKind::Join => {
                    states[replica as usize] = LifecycleState::Live;
                    live += 1;
                }
                FleetEventKind::Drain => {
                    states[replica as usize] = LifecycleState::Draining;
                    live -= 1;
                }
                FleetEventKind::Fail => {
                    if states[replica as usize] == LifecycleState::Live {
                        live -= 1;
                    }
                    states[replica as usize] = LifecycleState::Down;
                }
                FleetEventKind::Leave => unreachable!("churn tapes never emit leave"),
            }
            out.push(FleetEvent {
                at_s: t,
                replica,
                kind,
            });
        }
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        #[test]
        fn churn_tape_matches_the_full_move_list(
            width in prop::sample::select(vec![1u32, 2, 3, 64, 1000]),
            seed in 0u64..u64::MAX,
            events in prop_oneof![Just(0u32), 1u32..400],
            horizon_s in 0.01f64..10.0,
        ) {
            let fast = churn_tape(width, seed, horizon_s, events);
            let reference = churn_tape_reference(width, seed, horizon_s, events);
            prop_assert_eq!(fast.len(), reference.len());
            for (a, b) in fast.iter().zip(&reference) {
                prop_assert_eq!(a.at_s.to_bits(), b.at_s.to_bits());
                prop_assert_eq!((a.replica, a.kind), (b.replica, b.kind));
            }
        }
    }

    #[test]
    fn states_route_and_name_consistently() {
        assert!(LifecycleState::Live.is_routable());
        assert!(!LifecycleState::Draining.is_routable());
        assert!(!LifecycleState::Down.is_routable());
        assert_eq!(LifecycleState::default(), LifecycleState::Live);
        assert_eq!(LifecycleState::Draining.name(), "draining");
        assert_eq!(FleetEventKind::Fail.name(), "fail");
    }

    #[test]
    fn churn_tape_is_deterministic_and_seed_sensitive() {
        let a = churn_tape(4, 7, 2.0, 24);
        assert_eq!(a, churn_tape(4, 7, 2.0, 24));
        assert_ne!(a, churn_tape(4, 8, 2.0, 24));
        assert_eq!(a.len(), 24);
    }

    #[test]
    fn churn_tape_is_always_legal_and_keeps_one_replica_live() {
        for seed in 0..16u64 {
            let tape = churn_tape(5, seed, 3.0, 64);
            let mut states = [LifecycleState::Live; 5];
            let mut last = f64::NEG_INFINITY;
            for ev in &tape {
                assert!(ev.at_s > last, "times must increase");
                last = ev.at_s;
                let s = states[ev.replica as usize];
                let live = states
                    .iter()
                    .filter(|s| **s == LifecycleState::Live)
                    .count();
                match ev.kind {
                    FleetEventKind::Join => {
                        assert_eq!(s, LifecycleState::Down);
                        states[ev.replica as usize] = LifecycleState::Live;
                    }
                    FleetEventKind::Drain => {
                        assert_eq!(s, LifecycleState::Live);
                        assert!(live > 1, "drain must not empty the live set");
                        states[ev.replica as usize] = LifecycleState::Draining;
                    }
                    FleetEventKind::Fail => {
                        assert_ne!(s, LifecycleState::Down);
                        if s == LifecycleState::Live {
                            assert!(live > 1, "fail must not empty the live set");
                        }
                        states[ev.replica as usize] = LifecycleState::Down;
                    }
                    FleetEventKind::Leave => panic!("tapes never emit leave"),
                }
                assert!(states.contains(&LifecycleState::Live), "live set emptied");
            }
            assert!(!tape.is_empty());
        }
    }

    #[test]
    fn single_slot_tape_is_empty() {
        // One provisioned slot can never legally drain or fail.
        assert!(churn_tape(1, 3, 1.0, 8).is_empty());
    }

    #[test]
    fn counts_total_their_fields() {
        let c = LifecycleCounts {
            joins: 1,
            drains: 2,
            leaves: 3,
            fails: 4,
            displaced: 9,
        };
        assert_eq!(c.events(), 10);
    }
}
