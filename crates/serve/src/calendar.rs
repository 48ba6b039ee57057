//! The calendar queue at the heart of the discrete-event serving core.
//!
//! A [`CalendarQueue`] holds at most one pending wake-up per component
//! (a fleet replica), keyed `(next_tick, id)`: the component that wants
//! to run earliest pops first, ties broken by the lowest id — exactly
//! the order the pre-calendar drivers recovered by scanning every
//! component per event.
//!
//! # Layout: a hierarchical timing wheel with a small-population mode
//!
//! A queue starts in a *small mode*: live entries sit in a plain
//! unsorted array scanned linearly, with no bucket structure allocated
//! at all. That is the right shape for a narrow fleet's wake calendar
//! (the autoscaler's handful of replica slots, say): a linear scan of a
//! few cache-resident pairs beats any indexed structure's bookkeeping.
//! The mode was measured to earn its keep: forcing the wheel instead
//! costs ~7% of whole-run requests/s on the autoscaled diurnal
//! benchmark (`perfbench` workload `autoscale_diurnal`, 6 replica
//! slots; slower in 6 of 6 interleaved pairs on a 2-core x86 machine).
//! The first time the live population crosses [`SMALL_CAP`]
//! entries the queue promotes itself, once and permanently, to the
//! wheel below. Queues sized for a wide id space up front
//! ([`CalendarQueue::with_components`]) skip the small mode entirely.
//!
//! The wheel is a 64-radix hierarchical timing wheel (a calendar queue
//! in the classic sense) over a *monotone* `u64` image of the `f64`
//! tick — the standard sign-fold of the IEEE-754 bit pattern, under
//! which `total_cmp` order becomes unsigned integer order. Eleven
//! rungs of 64 buckets each cover all 64 key bits, the top rung
//! doubling as the overflow rung for keys far beyond the cursor:
//!
//! ```text
//! key bits:   63......60 | 59...54 | ... | 11...6 | 5...0
//! rung:          10      |    9    | ... |   1    |   0
//!                ▲ overflow rung         fine rungs ▲
//!
//! rung 0:  [b0][b1][b2] … [b63]   one bucket per exact key
//! rung 1:  [b0][b1][b2] … [b63]   64 keys per bucket
//!   ⋮                             (×64 per rung)
//! rung 10: [b0][b1][b2] … [b63]   2⁶⁰ keys per bucket
//! ```
//!
//! An entry lands on the rung of the highest bit in which its key
//! differs from the cursor (the key of the last popped minimum), so
//! near-term wake-ups sit on fine rungs and far-future ones coarse.
//! Popping scans per-rung occupancy bitmaps for the first non-empty
//! bucket; a hit on a coarse rung *redistributes* its bucket down the
//! hierarchy (each entry cascades through at most 11 buckets over its
//! lifetime), so `schedule`, `cancel` and `pop` are all O(1)
//! amortized — no per-operation `O(log n)` sift as with the binary
//! heap this replaces. Keys at or before the cursor (a wake-up
//! scheduled "in the past" after later pops) clamp into the cursor's
//! own rung-0 anchor bucket and therefore still pop first, in full
//! `(tick, id)` order.
//!
//! In wheel mode, rescheduling and cancellation are *lazy*: superseded
//! entries stay in their bucket and are discarded when a bucket scan
//! surfaces them, identified by a per-schedule sequence number.
//! Sequence numbers also make the order total and FIFO: of two live
//! entries with equal `(tick, id)` — which cannot coexist, since an id
//! holds one live entry — and, more practically, of any stream of
//! equal-tick wake-ups across ids, the earlier-scheduled id wins only
//! through its id, and re-scheduling the same id at the same tick
//! preserves its original bucket position without drift. The wheel is
//! compacted automatically when stale entries outnumber live ones.
//! Small mode is eager instead — it never holds a stale entry.
//!
//! ```
//! use rpu_serve::CalendarQueue;
//!
//! let mut q = CalendarQueue::new();
//! q.schedule(0, 3.0);
//! q.schedule(1, 1.5);
//! q.schedule(2, 3.0);
//! q.schedule(1, 4.0); // reschedule: the 1.5 entry is replaced
//! assert_eq!(q.peek(), Some((3.0, 0))); // tie at 3.0 → lowest id
//! assert_eq!(q.pop(), Some((3.0, 0)));
//! assert_eq!(q.pop(), Some((3.0, 2)));
//! assert_eq!(q.pop(), Some((4.0, 1)));
//! assert_eq!(q.pop(), None);
//! ```

/// Sentinel marking an id with no live entry.
const NONE_SEQ: u64 = u64::MAX;
/// Null link / empty bucket sentinel in the entry pool.
const NIL: u32 = u32::MAX;
/// Bits resolved per rung.
const RUNG_BITS: u32 = 6;
/// Buckets per rung.
const RUNG_LEN: usize = 1 << RUNG_BITS;
/// Rungs covering all 64 key bits (the top rung is the overflow rung).
const RUNGS: usize = 64usize.div_ceil(RUNG_BITS as usize);
/// Total buckets across the wheel.
const BUCKETS: usize = RUNGS * RUNG_LEN;
/// Largest live population served by the linear small mode; one more
/// live entry promotes the queue to the wheel.
const SMALL_CAP: usize = 32;

/// Monotone map from a (non-NaN) tick to an unsigned key:
/// `a.total_cmp(&b) == map(a).cmp(&map(b))`. Invertible via
/// [`tick_of`], so entries store only the key and comparisons are
/// plain integer compares on the hot path.
#[inline]
fn key_of(tick: f64) -> u64 {
    let bits = tick.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// Inverse of [`key_of`].
#[inline]
fn tick_of(key: u64) -> f64 {
    if key >> 63 == 1 {
        f64::from_bits(key & !(1 << 63))
    } else {
        f64::from_bits(!key)
    }
}

/// One pooled wheel entry; buckets are intrusive singly-linked lists.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u64,
    seq: u64,
    id: u32,
    next: u32,
}

/// Per-id bookkeeping: the sequence number of the live entry (or
/// [`NONE_SEQ`]), its key, and — in small mode — the index of its
/// entry in the small array, kept for O(1) reschedule and cancel.
#[derive(Debug, Clone, Copy)]
struct IdState {
    seq: u64,
    key: u64,
    slot: u32,
}

const EMPTY_ID: IdState = IdState {
    seq: NONE_SEQ,
    key: 0,
    slot: 0,
};

/// Location of the memoized minimum: its bucket, pool index, and the
/// pool index of its predecessor in the bucket list ([`NIL`] at the
/// head) — everything `pop` needs to unlink it in O(1).
#[derive(Debug, Clone, Copy)]
struct Memo {
    bucket: u32,
    entry: u32,
    prev: u32,
}

/// A min-queue of component wake-ups keyed `(tick, id)`, with lazy
/// rescheduling/cancellation and automatic compaction — backed by a
/// hierarchical timing wheel past `SMALL_CAP` (32) live entries and a
/// flat scanned array below it (see the module docs for the layout).
///
/// Ids are small dense integers (replica indices); the
/// per-id state lives in a plain `Vec` grown on demand, so every
/// operation is allocation-free once the queue has seen its largest id
/// and the entry pool its peak population.
#[derive(Debug, Clone)]
pub struct CalendarQueue {
    /// Small-mode storage: the live `(key, id)` set, unsorted, eager
    /// (no stale entries). Unused once promoted to the wheel.
    small: Vec<(u64, u32)>,
    /// Small-mode memoized minimum: an index into `small`, valid until
    /// the next structural change.
    small_memo: Option<u32>,
    /// Bucket heads into the pool, rung-major: bucket `r * 64 + s`.
    /// Empty until the queue promotes to wheel mode.
    buckets: Vec<u32>,
    /// Per-rung occupancy bitmap: bit `s` set ⇔ bucket `(r, s)` non-empty.
    occ: [u64; RUNGS],
    /// Entry storage; freed cells are chained through `free`.
    pool: Vec<Entry>,
    /// Head of the pool free list.
    free: u32,
    ids: Vec<IdState>,
    /// Monotone schedule counter; identifies the live entry per id.
    seq: u64,
    /// Number of ids with a live entry.
    live: usize,
    /// Number of superseded/cancelled entries still sitting in the
    /// wheel. Tracked explicitly — every stored entry is either the
    /// live entry of its id or stale, so `stored == live + stale` —
    /// and compaction triggers on `stale > live` rather than inferring
    /// staleness from the population.
    stale: usize,
    /// Pool cells currently linked into buckets (live + stale), kept
    /// O(1) so debug accounting checks stay cheap.
    pooled: usize,
    /// Key of the last popped minimum: the wheel's rotation anchor.
    /// Entries are placed by the highest bit in which their key
    /// differs from it; keys at or before it clamp into its rung-0
    /// anchor bucket. Maintained in both modes so promotion starts
    /// from a current anchor.
    cur: u64,
    /// Cached location of the current minimum (wheel mode), valid
    /// until the next structural change.
    memo: Option<Memo>,
}

impl Default for CalendarQueue {
    fn default() -> Self {
        Self {
            small: Vec::new(),
            small_memo: None,
            buckets: Vec::new(),
            occ: [0; RUNGS],
            pool: Vec::new(),
            free: NIL,
            ids: Vec::new(),
            seq: 0,
            live: 0,
            stale: 0,
            pooled: 0,
            cur: 0,
            memo: None,
        }
    }
}

impl CalendarQueue {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty queue with state preallocated for ids `0..n`. Queues
    /// wide enough to outgrow the small mode start in wheel mode.
    #[must_use]
    pub fn with_components(n: usize) -> Self {
        let mut q = Self::new();
        q.ids.resize(n, EMPTY_ID);
        if n > SMALL_CAP {
            q.buckets = vec![NIL; BUCKETS];
            q.pool.reserve(n);
        }
        q
    }

    /// `true` while the queue still runs in the linear small mode.
    #[inline]
    fn is_small(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Number of live (scheduled, not cancelled or superseded) entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live
    }

    /// `true` when no component has a pending wake-up.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total entry insertions since construction (every finite
    /// [`CalendarQueue::schedule`] that placed or moved an entry) — the
    /// wheel-ops counter behind the driver's `--counters` report.
    #[must_use]
    pub fn scheduled_ops(&self) -> u64 {
        self.seq
    }

    /// The tick `id` is currently scheduled at, if any.
    #[must_use]
    pub fn scheduled_at(&self, id: u32) -> Option<f64> {
        self.ids
            .get(id as usize)
            .filter(|s| s.seq != NONE_SEQ)
            .map(|s| tick_of(s.key))
    }

    fn state_mut(&mut self, id: u32) -> &mut IdState {
        let idx = id as usize;
        if idx >= self.ids.len() {
            self.ids.resize(idx + 1, EMPTY_ID);
        }
        &mut self.ids[idx]
    }

    /// The bucket for `key` relative to the current anchor: the rung of
    /// the highest differing bit, or the anchor's own rung-0 bucket for
    /// keys at or before it.
    #[inline]
    fn bucket_of(&self, key: u64) -> u32 {
        if key <= self.cur {
            // A wake-up at or before the anchor (a "past" schedule
            // after later pops): clamp into the anchor bucket, where
            // the next bucket scan orders it by its true tick.
            (self.cur & (RUNG_LEN as u64 - 1)) as u32
        } else {
            let rung = (63 - (key ^ self.cur).leading_zeros()) / RUNG_BITS;
            let slot = (key >> (rung * RUNG_BITS)) & (RUNG_LEN as u64 - 1);
            rung * RUNG_LEN as u32 + slot as u32
        }
    }

    /// Allocates a pooled cell for `e`.
    #[inline]
    fn alloc(&mut self, e: Entry) -> u32 {
        self.pooled += 1;
        if self.free == NIL {
            self.pool.push(e);
            (self.pool.len() - 1) as u32
        } else {
            let idx = self.free;
            self.free = self.pool[idx as usize].next;
            self.pool[idx as usize] = e;
            idx
        }
    }

    /// Returns `cell` to the free list.
    #[inline]
    fn release(&mut self, cell: u32) {
        self.pooled -= 1;
        self.pool[cell as usize].next = self.free;
        self.free = cell;
    }

    /// Links a fresh entry into its bucket (wheel mode only).
    #[inline]
    fn insert(&mut self, key: u64, id: u32, seq: u64) {
        debug_assert!(!self.is_small(), "wheel insert before promotion");
        let b = self.bucket_of(key);
        // A head insert into the memoized minimum's bucket would break
        // the memo's recorded predecessor; recompute on next use.
        if self.memo.is_some_and(|m| m.bucket == b) {
            self.memo = None;
        }
        let head = self.buckets[b as usize];
        let cell = self.alloc(Entry {
            key,
            seq,
            id,
            next: head,
        });
        self.buckets[b as usize] = cell;
        self.occ[b as usize / RUNG_LEN] |= 1 << (b as usize % RUNG_LEN);
    }

    /// Moves every live entry out of the small array and into a freshly
    /// allocated wheel. Happens at most once per queue; pop order is a
    /// pure function of the live `(tick, id)` set in both modes.
    #[cold]
    fn promote(&mut self) {
        self.buckets = vec![NIL; BUCKETS];
        self.small_memo = None;
        let small = std::mem::take(&mut self.small);
        self.pool.reserve(small.len() + 1);
        for (key, id) in small {
            let seq = self.ids[id as usize].seq;
            self.insert(key, id, seq);
        }
    }

    /// Schedules (or reschedules) `id` to wake at `tick`, replacing any
    /// previous wake-up for the same id. An infinite tick means "never"
    /// and is equivalent to [`CalendarQueue::cancel`]. NaN ticks are
    /// rejected — a wake-up time must order against every other.
    ///
    /// # Panics
    ///
    /// Panics if `tick` is NaN.
    pub fn schedule(&mut self, id: u32, tick: f64) {
        assert!(!tick.is_nan(), "wake-up ticks must be comparable");
        if !tick.is_finite() {
            self.cancel(id);
            return;
        }
        self.seq += 1;
        let seq = self.seq;
        let key = key_of(tick);
        let st = self.state_mut(id);
        let was_live = st.seq != NONE_SEQ;
        if was_live && tick_of(st.key) == tick {
            // Idempotent reschedule at the unchanged tick: keep the
            // existing entry instead of shadowing it — a busy
            // component re-announcing "now" every event must not grow
            // the wheel.
            return;
        }
        st.seq = seq;
        st.key = key;
        let slot = st.slot;
        if self.is_small() {
            if was_live {
                self.small[slot as usize].0 = key;
            } else {
                self.live += 1;
                let pos = self.small.len();
                if pos < SMALL_CAP {
                    self.small.push((key, id));
                    self.ids[id as usize].slot = pos as u32;
                } else {
                    self.promote();
                    self.insert(key, id, seq);
                    return;
                }
            }
            // The memoized minimum survives unless this id owned it or
            // the new key beats it.
            if let Some(mi) = self.small_memo {
                let (mk, mid) = self.small[mi as usize];
                if mid == id || (key, id) < (mk, mid) {
                    self.small_memo = None;
                }
            }
            return;
        }
        if was_live {
            // The previous entry for this id is now shadowed.
            self.stale += 1;
        } else {
            self.live += 1;
        }
        // The memoized minimum survives unless this id owned it (its
        // old entry just went stale) or the new key beats it.
        if let Some(m) = self.memo {
            let e = self.pool[m.entry as usize];
            if e.id == id || (key, id) < (e.key, e.id) {
                self.memo = None;
            }
        }
        self.insert(key, id, seq);
        self.maybe_compact();
    }

    /// Cancels `id`'s pending wake-up, if any. In wheel mode the entry
    /// goes stale and is skipped when a bucket scan surfaces it — or
    /// reclaimed when cancellations push the stale population past the
    /// live one, so cancel-heavy runs compact as promptly as
    /// reschedule-heavy ones. In small mode the entry is removed
    /// outright.
    pub fn cancel(&mut self, id: u32) {
        let Some(st) = self.ids.get_mut(id as usize) else {
            return;
        };
        if st.seq == NONE_SEQ {
            return;
        }
        st.seq = NONE_SEQ;
        let slot = st.slot;
        self.live -= 1;
        if self.is_small() {
            self.small.swap_remove(slot as usize);
            if let Some(&(_, moved)) = self.small.get(slot as usize) {
                self.ids[moved as usize].slot = slot;
            }
            // swap_remove may have moved the memoized index.
            self.small_memo = None;
            return;
        }
        self.stale += 1;
        if let Some(m) = self.memo {
            if self.pool[m.entry as usize].id == id {
                self.memo = None;
            }
        }
        self.maybe_compact();
    }

    /// The earliest live wake-up `(tick, id)` without consuming it.
    /// Stale entries encountered on the way are discarded.
    pub fn peek(&mut self) -> Option<(f64, u32)> {
        if self.is_small() {
            return self.small_min().map(|i| {
                let (key, id) = self.small[i as usize];
                (tick_of(key), id)
            });
        }
        self.find_min().map(|m| {
            let e = self.pool[m.entry as usize];
            (tick_of(e.key), e.id)
        })
    }

    /// Consumes and returns the earliest live wake-up `(tick, id)`.
    pub fn pop(&mut self) -> Option<(f64, u32)> {
        if self.is_small() {
            let i = self.small_min()?;
            let (key, id) = self.small.swap_remove(i as usize);
            if let Some(&(_, moved)) = self.small.get(i as usize) {
                self.ids[moved as usize].slot = i;
            }
            self.small_memo = None;
            self.ids[id as usize].seq = NONE_SEQ;
            self.live -= 1;
            // Keep the anchor current so a later promotion places
            // entries relative to where the clock actually is.
            self.cur = self.cur.max(key);
            return Some((tick_of(key), id));
        }
        let m = self.find_min()?;
        let e = self.pool[m.entry as usize];
        // Unlink from the bucket list and retire the cell.
        if m.prev == NIL {
            self.buckets[m.bucket as usize] = e.next;
            if e.next == NIL {
                self.occ[m.bucket as usize / RUNG_LEN] &= !(1 << (m.bucket as usize % RUNG_LEN));
            }
        } else {
            self.pool[m.prev as usize].next = e.next;
        }
        self.release(m.entry);
        self.memo = None;
        self.ids[e.id as usize].seq = NONE_SEQ;
        self.live -= 1;
        Some((tick_of(e.key), e.id))
    }

    /// Index of the minimum live `(tick, id)` in the small array,
    /// memoized until the next structural change.
    #[inline]
    fn small_min(&mut self) -> Option<u32> {
        if let Some(i) = self.small_memo {
            return Some(i);
        }
        if self.small.is_empty() {
            return None;
        }
        let mut best = 0usize;
        for i in 1..self.small.len() {
            if self.small[i] < self.small[best] {
                best = i;
            }
        }
        self.small_memo = Some(best as u32);
        Some(best as u32)
    }

    /// Locates the minimum live entry, redistributing coarse-rung
    /// buckets down the wheel and discarding stale entries on the way.
    /// Advances the anchor to the minimum's key.
    fn find_min(&mut self) -> Option<Memo> {
        if let Some(m) = self.memo {
            return Some(m);
        }
        if self.live == 0 {
            return None;
        }
        loop {
            let rung = (0..RUNGS).find(|&r| self.occ[r] != 0)?;
            let slot = self.occ[rung].trailing_zeros() as usize;
            let b = rung * RUNG_LEN + slot;
            if rung == 0 {
                if let Some(m) = self.scan_bucket(b as u32) {
                    let key = self.pool[m.entry as usize].key;
                    self.cur = self.cur.max(key);
                    self.memo = Some(m);
                    return Some(m);
                }
            } else {
                self.redistribute(b);
            }
        }
    }

    /// Scans rung-0 bucket `b` for its minimum live `(tick, id)`,
    /// unlinking and freeing every stale entry on the way. Clears the
    /// bucket's occupancy bit (and returns `None`) when nothing live
    /// remains.
    fn scan_bucket(&mut self, b: u32) -> Option<Memo> {
        let mut best: Option<Memo> = None;
        let mut prev = NIL;
        let mut cell = self.buckets[b as usize];
        while cell != NIL {
            let e = self.pool[cell as usize];
            if self.ids[e.id as usize].seq == e.seq {
                let better = best.is_none_or(|m| {
                    let cur = self.pool[m.entry as usize];
                    (e.key, e.id) < (cur.key, cur.id)
                });
                if better {
                    best = Some(Memo {
                        bucket: b,
                        entry: cell,
                        prev,
                    });
                }
                prev = cell;
                cell = e.next;
            } else {
                // Stale: unlink in place and reclaim the cell.
                let next = e.next;
                if prev == NIL {
                    self.buckets[b as usize] = next;
                } else {
                    self.pool[prev as usize].next = next;
                }
                self.release(cell);
                self.stale -= 1;
                cell = next;
            }
        }
        if self.buckets[b as usize] == NIL {
            self.occ[b as usize / RUNG_LEN] &= !(1 << (b as usize % RUNG_LEN));
        }
        best
    }

    /// Empties coarse bucket `b`, advances the anchor to its minimum
    /// live key, and re-places its live entries — each lands at least
    /// one rung lower, so every entry cascades at most [`RUNGS`] times
    /// over its lifetime.
    fn redistribute(&mut self, b: usize) {
        let mut cell = self.buckets[b];
        self.buckets[b] = NIL;
        self.occ[b / RUNG_LEN] &= !(1 << (b % RUNG_LEN));
        // First pass: drop stale cells, find the minimum live key.
        let mut head = NIL;
        let mut min_key = u64::MAX;
        while cell != NIL {
            let e = self.pool[cell as usize];
            if self.ids[e.id as usize].seq == e.seq {
                self.pool[cell as usize].next = head;
                head = cell;
                min_key = min_key.min(e.key);
            } else {
                self.release(cell);
                self.stale -= 1;
            }
            cell = e.next;
        }
        if head == NIL {
            return;
        }
        // All live keys here sit strictly past the anchor (past keys
        // clamp into rung 0), so the minimum drags it forward — which
        // is exactly what sends the re-placed entries down the wheel.
        debug_assert!(min_key > self.cur, "coarse rung held a pre-anchor key");
        self.cur = min_key;
        while head != NIL {
            let e = self.pool[head as usize];
            let next = e.next;
            let nb = self.bucket_of(e.key);
            debug_assert!((nb as usize) < b, "redistribution must descend");
            self.pool[head as usize].next = self.buckets[nb as usize];
            self.buckets[nb as usize] = head;
            self.occ[nb as usize / RUNG_LEN] |= 1 << (nb as usize % RUNG_LEN);
            head = next;
        }
    }

    /// Rebuilds the wheel from live entries when stale ones dominate,
    /// bounding memory by the live set instead of the reschedule
    /// history. Deterministic: the rebuilt wheel is a pure function of
    /// the live `(tick, id, seq)` set and the anchor, and pop order
    /// depends only on that set either way.
    fn maybe_compact(&mut self) {
        debug_assert_eq!(
            self.pooled,
            self.live + self.stale,
            "stale accounting drifted from the pool"
        );
        if self.live + self.stale > 64 && self.stale > self.live {
            self.buckets.fill(NIL);
            self.occ = [0; RUNGS];
            self.pool.clear();
            self.free = NIL;
            self.memo = None;
            self.stale = 0;
            self.pooled = 0;
            for idx in 0..self.ids.len() {
                let st = self.ids[idx];
                if st.seq != NONE_SEQ {
                    self.insert(st.key, idx as u32, st.seq);
                }
            }
        }
    }

    /// Total stored entries including stale ones — exposed so tests can
    /// pin the compaction bound.
    #[must_use]
    pub fn heap_entries(&self) -> usize {
        self.live + self.stale
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_tick_then_id_order() {
        let mut q = CalendarQueue::with_components(4);
        q.schedule(3, 2.0);
        q.schedule(1, 1.0);
        q.schedule(2, 1.0);
        q.schedule(0, 3.0);
        assert_eq!(q.len(), 4);
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((1.0, 2)));
        assert_eq!(q.pop(), Some((2.0, 3)));
        assert_eq!(q.pop(), Some((3.0, 0)));
        assert_eq!(q.pop(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn reschedule_supersedes_and_cancel_removes() {
        let mut q = CalendarQueue::new();
        q.schedule(0, 5.0);
        q.schedule(1, 6.0);
        q.schedule(0, 7.0); // supersede
        q.cancel(1);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek(), Some((7.0, 0)));
        assert_eq!(q.pop(), Some((7.0, 0)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn infinite_tick_means_never() {
        let mut q = CalendarQueue::new();
        q.schedule(0, f64::INFINITY);
        assert!(q.is_empty());
        q.schedule(0, 1.0);
        q.schedule(0, f64::INFINITY); // cancel via reschedule
        assert_eq!(q.pop(), None);
    }

    #[test]
    #[should_panic(expected = "comparable")]
    fn nan_tick_is_rejected() {
        CalendarQueue::new().schedule(0, f64::NAN);
    }

    #[test]
    fn idempotent_reschedule_does_not_grow_the_heap() {
        let mut q = CalendarQueue::new();
        q.schedule(0, 1.0);
        for _ in 0..1000 {
            q.schedule(0, 1.0);
        }
        assert_eq!(q.heap_entries(), 1);
        assert_eq!(q.scheduled_at(0), Some(1.0));
    }

    #[test]
    fn stale_entries_are_bounded_by_compaction() {
        let mut q = CalendarQueue::new();
        // Constantly reschedule a handful of ids to new ticks: without
        // compaction the wheel would hold one entry per reschedule.
        for round in 0..10_000u32 {
            q.schedule(round % 8, f64::from(round));
        }
        assert_eq!(q.len(), 8);
        assert!(
            q.heap_entries() <= 2 * 8 + 64,
            "wheel kept {} entries for 8 live ids",
            q.heap_entries()
        );
    }

    #[test]
    fn cancel_heavy_tapes_compact_without_oscillation() {
        // Adversarial schedule/cancel tape: a wide wave of wake-ups is
        // scheduled and then almost entirely cancelled, repeatedly.
        // Cancellation never touched the compaction trigger before the
        // explicit stale counter, so each wave's dead entries survived
        // in the wheel until the *next* schedule happened to fire the
        // population-based check — and a cancel-heavy fleet run
        // oscillated between giant backlogs and bursty compactions.
        let mut q = CalendarQueue::new();
        for wave in 0..50u32 {
            for id in 0..2000u32 {
                q.schedule(id, f64::from(wave * 2000 + id));
            }
            for id in 0..1999u32 {
                q.cancel(id);
            }
            assert_eq!(q.len(), 1, "only id 1999 survives each wave");
            assert!(
                q.heap_entries() <= 64,
                "wave {wave}: wheel kept {} entries for 1 live id",
                q.heap_entries()
            );
        }
        assert_eq!(q.pop().map(|(_, id)| id), Some(1999));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn scheduled_at_tracks_the_live_entry() {
        let mut q = CalendarQueue::new();
        assert_eq!(q.scheduled_at(5), None);
        q.schedule(5, 2.5);
        assert_eq!(q.scheduled_at(5), Some(2.5));
        q.schedule(5, 9.0);
        assert_eq!(q.scheduled_at(5), Some(9.0));
        q.cancel(5);
        assert_eq!(q.scheduled_at(5), None);
    }

    #[test]
    fn peek_discards_stale_prefix_without_losing_live_entries() {
        let mut q = CalendarQueue::new();
        q.schedule(0, 1.0);
        q.schedule(1, 2.0);
        q.schedule(0, 3.0); // 1.0 entry superseded
        assert_eq!(q.peek(), Some((2.0, 1)));
        assert_eq!(q.pop(), Some((2.0, 1)));
        assert_eq!(q.pop(), Some((3.0, 0)));
    }

    #[test]
    fn ids_beyond_preallocation_grow_on_demand() {
        let mut q = CalendarQueue::with_components(2);
        q.schedule(100, 1.0);
        assert_eq!(q.pop(), Some((1.0, 100)));
    }

    #[test]
    fn schedule_before_the_anchor_still_pops_first() {
        // Pop past t=5, then schedule earlier wake-ups: they clamp into
        // the anchor bucket but pop in true (tick, id) order. Run wide
        // enough to sit in wheel mode.
        let mut q = CalendarQueue::with_components(64);
        q.schedule(0, 5.0);
        assert_eq!(q.pop(), Some((5.0, 0)));
        q.schedule(1, 1.0);
        q.schedule(2, 0.5);
        q.schedule(3, 7.0);
        assert_eq!(q.pop(), Some((0.5, 2)));
        assert_eq!(q.pop(), Some((1.0, 1)));
        assert_eq!(q.pop(), Some((7.0, 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn negative_zero_and_negative_ticks_order_like_total_cmp() {
        for wide in [false, true] {
            let mut q = if wide {
                CalendarQueue::with_components(64)
            } else {
                CalendarQueue::new()
            };
            q.schedule(0, 0.0);
            q.schedule(1, -0.0);
            q.schedule(2, -1.5);
            assert_eq!(q.pop(), Some((-1.5, 2)));
            assert_eq!(q.pop(), Some((-0.0, 1)));
            assert_eq!(q.pop(), Some((0.0, 0)));
        }
    }

    #[test]
    fn promotion_from_small_to_wheel_preserves_order() {
        // Fill past SMALL_CAP so the queue promotes mid-stream, with
        // interleaved reschedules and cancels on both sides of the
        // boundary; pops must come out in exact (tick, id) order.
        let mut q = CalendarQueue::new();
        for id in 0..(SMALL_CAP as u32 + 20) {
            q.schedule(id, f64::from((id * 7) % 40));
        }
        assert!(!q.is_small(), "population beyond SMALL_CAP must promote");
        q.schedule(3, 100.0);
        q.cancel(5);
        let mut prev = (f64::NEG_INFINITY, 0u32);
        let mut n = 0;
        while let Some((tick, id)) = q.pop() {
            assert!(
                prev.0.total_cmp(&tick).then(prev.1.cmp(&id)).is_lt(),
                "out of order: {prev:?} then ({tick}, {id})"
            );
            prev = (tick, id);
            n += 1;
        }
        assert_eq!(n, SMALL_CAP + 19);
    }

    #[test]
    fn interleaved_pop_schedule_stays_sorted_against_a_model() {
        // Deterministic pseudo-random tape vs a sort-based model.
        let mut q = CalendarQueue::new();
        let mut model: Vec<(f64, u32)> = Vec::new();
        let mut state = 0x1234_5678_u64;
        let mut rng = move || {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            state >> 33
        };
        for _ in 0..5_000 {
            let r = rng();
            let id = (r % 64) as u32;
            match r % 5 {
                0..=2 => {
                    let tick = (rng() % 10_000) as f64 / 16.0;
                    model.retain(|&(_, mid)| mid != id);
                    model.push((tick, id));
                    q.schedule(id, tick);
                }
                3 => {
                    model.retain(|&(_, mid)| mid != id);
                    q.cancel(id);
                }
                _ => {
                    model.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                    let want = if model.is_empty() {
                        None
                    } else {
                        Some(model.remove(0))
                    };
                    assert_eq!(q.pop(), want);
                }
            }
        }
        model.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        for want in model {
            assert_eq!(q.pop(), Some(want));
        }
        assert_eq!(q.pop(), None);
    }
}
