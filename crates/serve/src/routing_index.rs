//! Incremental ordered indexes over replica telemetry: `O(log R)`
//! routing lookups for a fleet of `R` replicas.
//!
//! The fleet driver refreshes exactly one replica's telemetry per
//! event, so a full `O(R)` scan per routing decision re-reads `R - 1`
//! entries that cannot have changed. [`FleetRoutingIndex`] owns the
//! fleet's telemetry and turns that scan into an indexed lookup:
//!
//! * two 4-ary **winner trees** (`MinTree`) hold every *routable*
//!   replica keyed exactly as the built-in routers compare them —
//!   backlog for [`crate::JoinShortestQueue`] and `(kv-load bits,
//!   backlog)`, packed into one `u128`, for [`crate::LeastKvLoad`]. The
//!   argmin is a root read and a leaf refresh is one pull-up of
//!   `log₄ R` levels (five at 1000 replicas), each a four-way minimum
//!   over one contiguous group of siblings;
//! * a **routable bitset** answers "first routable replica at or after
//!   slot `i`, wrapping" — [`crate::RoundRobin`]'s probe — by word
//!   scan instead of a per-slot loop. It is the fleet's one routable
//!   mask: every [`crate::RoutingView`] reads it.
//!
//! Updates are split in two so runs that never query a tree never pay
//! for it: [`FleetRoutingIndex::update`] stores a replica's new
//! telemetry and **marks** it dirty in `O(1)`, and the first query
//! **flushes** the accumulated dirty set (each replica at most once)
//! before reading the root. Lifecycle transitions update the bitset
//! eagerly — it is the cheap index and the one `RoundRobin` needs
//! fresh. The telemetry and the trees have one owner, so the keys a
//! flush reads are always the entries the marks were issued for.
//!
//! The trees preserve the routers' exact comparison order. Both
//! routers break their last tie on the lowest replica index, and a
//! winner tree breaks ties on tree position — the first minimum among
//! a node's four children, so the lowest leaf wins — so the index
//! never enters a key. KV load is
//! `ReplicaTelemetry::kv_load()` — a non-negative `f64`, whose IEEE bit
//! pattern orders identically to `f64::total_cmp` — paired with the
//! backlog for the tie-break. Unroutable replicas hold all-ones keys,
//! which no backlog (a `u32`) or load reaches, so they never win.
//!
//! The index is *derived* state: it is built from the cores'
//! telemetry and the lifecycle states at run start, maintained one
//! replica per event after that, and checked against a fresh build by
//! [`crate::FleetRun::audit`]. Routers
//! reach it through [`crate::RoutingView::min_backlog_replica`] and
//! friends; custom routers get the same `O(log R)` answers by calling
//! those methods instead of scanning.

use std::cell::RefCell;

use crate::min_tree::MinTree;
use crate::router::ReplicaTelemetry;

/// Sentinel key for unroutable replicas: loses to every real key.
const NO_KEY: u64 = u64::MAX;

/// Sentinel least-KV-load key: `(NO_KEY, NO_KEY)`.
const NO_KV_KEY: u128 = u128::MAX;

/// A replica's two tree keys: the join-shortest-queue backlog and the
/// least-KV-load `(kv-load bits, backlog)` pair, or the sentinels when
/// it is unroutable. `kv_load()` is non-negative, so its raw bits order
/// exactly as `f64::total_cmp`. The pair is packed high/low into one
/// `u128`, whose order is the pair's lexicographic order and compares
/// without a branch.
fn keys(t: &ReplicaTelemetry, routable: bool) -> (u64, u128) {
    if routable {
        let backlog = u64::from(t.backlog());
        let load = u128::from(t.kv_load().to_bits());
        (backlog, load << 64 | u128::from(backlog))
    } else {
        (NO_KEY, NO_KV_KEY)
    }
}

/// Whether bit `i` of a routable bitset is set.
fn bit(live: &[u64], i: usize) -> bool {
    (live[i / 64] >> (i % 64)) & 1 == 1
}

/// The lazily flushed half of the index: both winner trees and the
/// dirty set awaiting their next query.
#[derive(Debug, Clone)]
struct Trees {
    /// Winner tree over backlogs.
    backlog: MinTree<u64>,
    /// Winner tree over packed `(kv-load bits, backlog)` pairs.
    kv: MinTree<u128>,
    /// Replicas whose leaves are stale, each listed at most once.
    dirty: Vec<u32>,
    /// `dirty` membership, indexed by replica.
    dirty_mask: Vec<bool>,
    /// Leaf refreshes applied (each one `log₄ R`-level pull-up per
    /// tree).
    leaf_updates: u64,
}

impl Trees {
    /// Recomputes every dirty leaf of both trees from the current
    /// telemetry and routable bitset.
    fn flush(&mut self, telemetry: &[ReplicaTelemetry], live: &[u64]) {
        while let Some(i) = self.dirty.pop() {
            let i = i as usize;
            self.dirty_mask[i] = false;
            let (bk, kk) = keys(&telemetry[i], bit(live, i));
            if self.backlog.key(i) != bk || self.kv.key(i) != kk {
                self.backlog.set(i, bk);
                self.kv.set(i, kk);
                self.leaf_updates += 1;
            }
        }
    }
}

/// One fleet's replica telemetry and the routing indexes over it —
/// see the module docs for the design.
///
/// Owned by [`crate::FleetRun`], which [`FleetRoutingIndex::update`]s
/// one replica per event and flips bitset bits on lifecycle
/// transitions; queries come from routers via [`crate::RoutingView`],
/// which reads the telemetry from here too. The telemetry and bitset
/// reads are plain loads; only the trees' lazy flush needs interior
/// mutability, so a `RoutingView` can carry a shared reference.
#[derive(Debug)]
pub struct FleetRoutingIndex {
    /// Each provisioned slot's published telemetry, index-aligned.
    telemetry: Vec<ReplicaTelemetry>,
    /// Routable bitset, one bit per slot, maintained eagerly.
    live: Vec<u64>,
    /// Number of set bits in `live`.
    live_count: usize,
    /// Dirty marks observed (one per telemetry delta event).
    marks: u64,
    trees: RefCell<Trees>,
}

impl FleetRoutingIndex {
    /// Builds the index over a fleet's current telemetry and routable
    /// mask (index-aligned), taking ownership of the telemetry.
    ///
    /// # Panics
    ///
    /// Panics when the two disagree on the replica count.
    #[must_use]
    pub fn new(telemetry: Vec<ReplicaTelemetry>, routable: &[bool]) -> Self {
        assert_eq!(
            telemetry.len(),
            routable.len(),
            "telemetry and routable mask must cover the same replicas"
        );
        let n = telemetry.len();
        let mut live = vec![0u64; n.div_ceil(64).max(1)];
        let mut live_count = 0;
        for (i, &r) in routable.iter().enumerate() {
            if r {
                live[i / 64] |= 1u64 << (i % 64);
                live_count += 1;
            }
        }
        let (backlog, kv) = telemetry
            .iter()
            .zip(routable)
            .map(|(t, &r)| keys(t, r))
            .unzip();
        Self {
            telemetry,
            live,
            live_count,
            marks: 0,
            trees: RefCell::new(Trees {
                backlog: MinTree::new(backlog, NO_KEY),
                kv: MinTree::new(kv, NO_KV_KEY),
                dirty: Vec::with_capacity(n),
                dirty_mask: vec![false; n],
                leaf_updates: 0,
            }),
        }
    }

    /// Every provisioned slot's telemetry, index-aligned.
    pub(crate) fn telemetry(&self) -> &[ReplicaTelemetry] {
        &self.telemetry
    }

    /// Stores replica `i`'s current telemetry and marks its tree leaves
    /// dirty: `O(1)`. The stale leaves are recomputed lazily on the
    /// next tree query.
    pub fn update(&mut self, i: usize, telemetry: ReplicaTelemetry) {
        self.telemetry[i] = telemetry;
        self.mark_dirty(i);
    }

    /// Records that replica `i`'s keys may have changed: `O(1)`,
    /// deduplicated.
    fn mark_dirty(&mut self, i: usize) {
        self.marks += 1;
        let trees = self.trees.get_mut();
        if !trees.dirty_mask[i] {
            trees.dirty_mask[i] = true;
            trees.dirty.push(i as u32);
        }
    }

    /// Flips replica `i`'s routable bit (eagerly — the bitset must be
    /// fresh for every query) and marks its tree leaves dirty.
    pub fn set_routable(&mut self, i: usize, routable: bool) {
        if self.is_routable(i) != routable {
            self.live[i / 64] ^= 1u64 << (i % 64);
            if routable {
                self.live_count += 1;
            } else {
                self.live_count -= 1;
            }
        }
        self.mark_dirty(i);
    }

    /// Whether slot `i` may receive new work.
    pub(crate) fn is_routable(&self, i: usize) -> bool {
        bit(&self.live, i)
    }

    /// Indices of the routable replicas, ascending.
    pub(crate) fn routable(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.telemetry.len()).filter(|&i| self.is_routable(i))
    }

    /// How many replicas are currently routable.
    #[must_use]
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// The routable replica minimising `(backlog, index)` — the
    /// argmin [`crate::JoinShortestQueue`] ranks by — or `None` when
    /// nothing is routable. Flushes pending dirty marks first.
    #[must_use]
    pub fn min_backlog_replica(&self) -> Option<usize> {
        let mut trees = self.trees.borrow_mut();
        trees.flush(&self.telemetry, &self.live);
        let (i, key) = trees.backlog.min();
        (key != NO_KEY).then_some(i)
    }

    /// The routable replica minimising `(kv_load, backlog, index)`
    /// under `f64::total_cmp` — [`crate::LeastKvLoad`]'s exact order —
    /// or `None` when nothing is routable.
    #[must_use]
    pub fn min_kv_load_replica(&self) -> Option<usize> {
        let mut trees = self.trees.borrow_mut();
        trees.flush(&self.telemetry, &self.live);
        let (i, key) = trees.kv.min();
        (key != NO_KV_KEY).then_some(i)
    }

    /// First routable replica in the wrapping slot order `start, start
    /// + 1, .., n - 1, 0, ..` — [`crate::RoundRobin`]'s probe — or
    /// `None` when nothing is routable.
    #[must_use]
    pub fn next_routable_from(&self, start: usize) -> Option<usize> {
        if self.live_count == 0 {
            return None;
        }
        debug_assert!(start < self.telemetry.len());
        let nw = self.live.len();
        let w0 = start / 64;
        let head = self.live[w0] & (!0u64 << (start % 64));
        if head != 0 {
            return Some(w0 * 64 + head.trailing_zeros() as usize);
        }
        for k in 1..=nw {
            let w = (w0 + k) % nw;
            let m = if w == w0 {
                // Back at the start word: only the bits before `start`
                // remain candidates.
                self.live[w0] & !(!0u64 << (start % 64))
            } else {
                self.live[w]
            };
            if m != 0 {
                return Some(w * 64 + m.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Names the first part of this index that differs from `fresh`,
    /// an index built from the same fleet's current telemetry and
    /// routable mask: a replica's telemetry, the routable mask, the
    /// live count, or one of the two argmins. The argmins are read from
    /// flushed copies of the trees, so checking moves no counter and
    /// leaves every later query as it was.
    pub(crate) fn drift_from(&self, fresh: &Self) -> Option<String> {
        let mut pairs = self.telemetry.iter().zip(&fresh.telemetry);
        if let Some(i) = pairs.position(|(a, b)| a != b) {
            return Some(format!("telemetry of replica {i}"));
        }
        if self.live != fresh.live {
            return Some("routable mask".into());
        }
        if self.live_count != fresh.live_count {
            return Some("live count".into());
        }
        let argmins = |index: &Self| {
            let mut trees = index.trees.borrow().clone();
            trees.flush(&index.telemetry, &index.live);
            (trees.backlog.min(), trees.kv.min())
        };
        let (mine, theirs) = (argmins(self), argmins(fresh));
        if mine.0 != theirs.0 {
            return Some("backlog argmin".into());
        }
        (mine.1 != theirs.1).then(|| "KV-load argmin".into())
    }

    /// `(leaf updates applied, dirty marks observed)` since
    /// construction — the index-maintenance counters behind the
    /// driver's `--counters` report.
    #[must_use]
    pub fn update_counts(&self) -> (u64, u64) {
        (self.trees.borrow().leaf_updates, self.marks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tel(queue: u32, active: u32, reserved: u64, cap: u64) -> ReplicaTelemetry {
        ReplicaTelemetry {
            queue_depth: queue,
            active_requests: active,
            reserved_tokens: reserved,
            queued_tokens: 0,
            kv_capacity_tokens: cap,
        }
    }

    /// Reference scans with the routers' exact comparison order.
    fn scan_backlog(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
        (0..telemetry.len())
            .filter(|&i| routable[i])
            .min_by_key(|&i| (telemetry[i].backlog(), i))
    }

    fn scan_kv(telemetry: &[ReplicaTelemetry], routable: &[bool]) -> Option<usize> {
        (0..telemetry.len())
            .filter(|&i| routable[i])
            .min_by(|&a, &b| {
                telemetry[a]
                    .kv_load()
                    .total_cmp(&telemetry[b].kv_load())
                    .then(telemetry[a].backlog().cmp(&telemetry[b].backlog()))
                    .then(a.cmp(&b))
            })
    }

    #[test]
    fn argmins_match_scans_after_incremental_updates() {
        let routable = vec![true; 13];
        let mut idx = FleetRoutingIndex::new(
            (0..13)
                .map(|i| tel(i % 3, 0, u64::from(i) * 100, 4096))
                .collect(),
            &routable,
        );
        assert_eq!(
            idx.min_backlog_replica(),
            scan_backlog(idx.telemetry(), &routable)
        );
        assert_eq!(
            idx.min_kv_load_replica(),
            scan_kv(idx.telemetry(), &routable)
        );
        // A deterministic little churn: bump one replica at a time.
        for step in 0..200usize {
            let i = (step * 7) % 13;
            let mut t = idx.telemetry()[i];
            t.queue_depth = (step % 5) as u32;
            t.reserved_tokens = (step as u64 * 37) % 5000;
            idx.update(i, t);
            assert_eq!(
                idx.min_backlog_replica(),
                scan_backlog(idx.telemetry(), &routable),
                "backlog argmin diverged at step {step}"
            );
            assert_eq!(
                idx.min_kv_load_replica(),
                scan_kv(idx.telemetry(), &routable),
                "kv argmin diverged at step {step}"
            );
        }
    }

    #[test]
    fn unroutable_replicas_never_win() {
        let mut routable = vec![true; 5];
        let mut idx =
            FleetRoutingIndex::new((0..5).map(|i| tel(i, 0, 0, 4096)).collect(), &routable);
        assert_eq!(idx.min_backlog_replica(), Some(0));
        idx.set_routable(0, false);
        routable[0] = false;
        assert_eq!(idx.min_backlog_replica(), Some(1));
        assert_eq!(
            idx.min_kv_load_replica(),
            scan_kv(idx.telemetry(), &routable)
        );
        idx.set_routable(0, true);
        assert_eq!(idx.min_backlog_replica(), Some(0));
    }

    #[test]
    fn empty_and_all_down_fleets_answer_none() {
        let idx = FleetRoutingIndex::new(Vec::new(), &[]);
        assert_eq!(idx.min_backlog_replica(), None);
        assert_eq!(idx.live_count(), 0);
        let idx = FleetRoutingIndex::new(vec![tel(0, 0, 0, 1024); 3], &[false; 3]);
        assert_eq!(idx.min_backlog_replica(), None);
        assert_eq!(idx.min_kv_load_replica(), None);
        assert_eq!(idx.next_routable_from(1), None);
    }

    #[test]
    fn next_routable_wraps_like_the_round_robin_probe() {
        // 130 slots spans three bitset words; punch a sparse pattern.
        let n = 130;
        let mut routable = vec![false; n];
        for &i in &[3usize, 64, 65, 127, 129] {
            routable[i] = true;
        }
        let idx = FleetRoutingIndex::new(vec![tel(0, 0, 0, 1024); n], &routable);
        let reference = |start: usize| (0..n).map(|k| (start + k) % n).find(|&i| routable[i]);
        for start in 0..n {
            assert_eq!(
                idx.next_routable_from(start),
                reference(start),
                "start {start}"
            );
        }
    }

    #[test]
    fn dirty_marks_deduplicate_and_flush_once() {
        let mut idx = FleetRoutingIndex::new(vec![tel(1, 0, 0, 1024); 4], &[true; 4]);
        for _ in 0..10 {
            idx.update(2, tel(0, 0, 0, 1024));
        }
        assert_eq!(idx.min_backlog_replica(), Some(2));
        let (updates, marks) = idx.update_counts();
        assert_eq!(marks, 10);
        assert_eq!(
            updates, 1,
            "dedup must collapse repeated marks into one refresh"
        );
        // An unchanged leaf costs no pull-up on the next flush.
        idx.update(2, tel(0, 0, 0, 1024));
        let _ = idx.min_backlog_replica();
        assert_eq!(idx.update_counts().0, 1);
    }
}
