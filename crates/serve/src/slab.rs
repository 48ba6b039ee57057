//! Indexed slab storage with free-list reuse over a plain `Vec`.
//!
//! The event core keeps every in-flight request in a [`Slab`]: inserts
//! return a dense `u32` key, removals push the vacated cell onto an
//! intrusive free list, and later inserts reuse the most recently freed
//! cell first (LIFO). Keys are indices into one `Vec` of cells, so a
//! key stays valid however the vector grows. In steady state — a fleet
//! running at a stable batch size — the slab stops allocating entirely;
//! the only growth is the high-water mark, which it reports as
//! [`Slab::peak_occupancy`] for the perf trajectory.
//!
//! Keys are never aliased while live: a key returned by
//! [`Slab::insert`] stays valid until exactly one matching
//! [`Slab::remove`], and accessing a freed key returns `None` rather
//! than another request's state. Fragmentation (which cells are free,
//! in which chain order) is part of observable behaviour — reuse order
//! determines future key assignment — so snapshots serialise the raw
//! cell layout and free-chain verbatim; see [`Slab::save`].

/// Sentinel: end of the free chain / no free cell.
const NIL: u32 = u32::MAX;

#[derive(Debug, Clone)]
enum Cell<T> {
    Occupied(T),
    /// A vacant cell holding the key of the next free cell (or [`NIL`]).
    Free(u32),
}

/// A growable store of `T` addressed by stable `u32` keys, with LIFO
/// free-list reuse and peak-occupancy tracking.
#[derive(Debug, Clone)]
pub struct Slab<T> {
    cells: Vec<Cell<T>>,
    free_head: u32,
    live: u32,
    peak: u32,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Self {
            cells: Vec::new(),
            free_head: NIL,
            live: 0,
            peak: 0,
        }
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of live entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.live as usize
    }

    /// `true` when no entry is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Highest number of simultaneously live entries ever observed.
    #[must_use]
    pub fn peak_occupancy(&self) -> u32 {
        self.peak
    }

    /// Total cells ever materialised (live + free). Keys are always
    /// `< capacity()`.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.cells.len()
    }

    /// Stores `value`, returning its key. Reuses the most recently
    /// freed cell if one exists, otherwise appends a new cell.
    ///
    /// # Panics
    ///
    /// Panics if the slab would exceed `u32::MAX - 1` cells.
    pub fn insert(&mut self, value: T) -> u32 {
        let key = if self.free_head != NIL {
            let key = self.free_head;
            let cell = self
                .cells
                .get_mut(key as usize)
                .expect("free head in range");
            match *cell {
                Cell::Free(next) => {
                    self.free_head = next;
                    *cell = Cell::Occupied(value);
                    key
                }
                Cell::Occupied(_) => unreachable!("free head points at a live cell"),
            }
        } else {
            let key = u32::try_from(self.cells.len()).expect("slab key space exhausted");
            assert!(key != NIL, "slab key space exhausted");
            self.cells.push(Cell::Occupied(value));
            key
        };
        self.live += 1;
        self.peak = self.peak.max(self.live);
        key
    }

    /// Removes and returns the entry at `key`, or `None` if the key is
    /// out of range or already free (double-remove is a no-op, never an
    /// alias).
    pub fn remove(&mut self, key: u32) -> Option<T> {
        match self.cells.get_mut(key as usize) {
            Some(cell @ Cell::Occupied(_)) => {
                let old = std::mem::replace(cell, Cell::Free(self.free_head));
                self.free_head = key;
                self.live -= 1;
                match old {
                    Cell::Occupied(v) => Some(v),
                    Cell::Free(_) => unreachable!(),
                }
            }
            _ => None,
        }
    }

    /// Shared access to the entry at `key`.
    #[must_use]
    pub fn get(&self, key: u32) -> Option<&T> {
        match self.cells.get(key as usize) {
            Some(Cell::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// Exclusive access to the entry at `key`.
    pub fn get_mut(&mut self, key: u32) -> Option<&mut T> {
        match self.cells.get_mut(key as usize) {
            Some(Cell::Occupied(v)) => Some(v),
            _ => None,
        }
    }

    /// `true` if `key` addresses a live entry.
    #[must_use]
    pub fn contains(&self, key: u32) -> bool {
        matches!(self.cells.get(key as usize), Some(Cell::Occupied(_)))
    }

    /// Live `(key, &entry)` pairs in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &T)> {
        self.cells.iter().enumerate().filter_map(|(i, c)| match c {
            Cell::Occupied(v) => Some((i as u32, v)),
            Cell::Free(_) => None,
        })
    }

    /// Drops every entry and the free chain, keeping the allocation.
    /// Peak occupancy is preserved — it describes the slab's lifetime,
    /// not the current run of entries.
    pub fn clear(&mut self) {
        self.cells.clear();
        self.free_head = NIL;
        self.live = 0;
    }

    /// Serialises the raw cell layout through `ctx` (typically a
    /// snapshot writer): `put_u32` receives framing words, `put_item`
    /// each live entry in cell order. The free chain is written
    /// explicitly so a reload reproduces key-reuse order — and
    /// therefore future key assignments — exactly.
    pub fn save<C>(
        &self,
        ctx: &mut C,
        mut put_u32: impl FnMut(&mut C, u32),
        mut put_item: impl FnMut(&mut C, &T),
    ) {
        put_u32(ctx, u32::try_from(self.cells.len()).expect("slab fits u32"));
        put_u32(ctx, self.free_head);
        put_u32(ctx, self.peak);
        for cell in self.cells.iter() {
            match cell {
                Cell::Occupied(v) => {
                    put_u32(ctx, 1);
                    put_item(ctx, v);
                }
                Cell::Free(next) => {
                    put_u32(ctx, 0);
                    put_u32(ctx, *next);
                }
            }
        }
    }

    /// Rebuilds a slab from the layout written by [`Slab::save`].
    /// `get_u32` yields framing words (or an error `E`), `get_item`
    /// each live entry. The free chain is validated: every link must
    /// stay in range, address a free cell, and visit each free cell
    /// exactly once — a corrupted chain is reported through `corrupt`
    /// rather than allowed to alias live keys later. The declared cell
    /// count is not trusted for preallocation, so hostile counts fail
    /// at the first missing word instead of provoking a giant
    /// allocation.
    pub fn load<C, E>(
        ctx: &mut C,
        mut get_u32: impl FnMut(&mut C) -> Result<u32, E>,
        mut get_item: impl FnMut(&mut C) -> Result<T, E>,
        corrupt: impl Fn(&'static str) -> E,
    ) -> Result<Self, E> {
        let n = get_u32(ctx)?;
        let free_head = get_u32(ctx)?;
        let peak = get_u32(ctx)?;
        let mut cells = Vec::new();
        let mut live = 0u32;
        let mut free = 0u32;
        for _ in 0..n {
            match get_u32(ctx)? {
                1 => {
                    cells.push(Cell::Occupied(get_item(ctx)?));
                    live += 1;
                }
                0 => {
                    cells.push(Cell::Free(get_u32(ctx)?));
                    free += 1;
                }
                _ => return Err(corrupt("slab cell tag")),
            }
        }
        if peak < live {
            return Err(corrupt("slab peak below live count"));
        }
        // Walk the free chain: it must thread every free cell exactly
        // once and terminate at NIL without leaving the slab.
        let mut visited = 0u32;
        let mut cursor = free_head;
        while cursor != NIL {
            if cursor as usize >= cells.len() {
                return Err(corrupt("slab free chain out of range"));
            }
            match cells.get(cursor as usize) {
                Some(&Cell::Free(next)) => {
                    visited += 1;
                    if visited > free {
                        return Err(corrupt("slab free chain cycle"));
                    }
                    cursor = next;
                }
                _ => return Err(corrupt("slab free chain hits live cell")),
            }
        }
        if visited != free {
            return Err(corrupt("slab free chain misses cells"));
        }
        Ok(Self {
            cells,
            free_head,
            live,
            peak,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut s = Slab::new();
        let a = s.insert("a");
        let b = s.insert("b");
        assert_eq!(s.len(), 2);
        assert_eq!(s.get(a), Some(&"a"));
        assert_eq!(s.get(b), Some(&"b"));
        assert_eq!(s.remove(a), Some("a"));
        assert_eq!(s.get(a), None);
        assert!(!s.contains(a));
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn freed_keys_are_reused_lifo() {
        let mut s = Slab::new();
        let a = s.insert(1);
        let b = s.insert(2);
        let c = s.insert(3);
        s.remove(b);
        s.remove(a);
        // LIFO: a freed last, reused first.
        assert_eq!(s.insert(4), a);
        assert_eq!(s.insert(5), b);
        assert_eq!(s.insert(6), 3); // chain empty → fresh cell
        assert_eq!(s.get(c), Some(&3));
        assert_eq!(s.capacity(), 4);
    }

    #[test]
    fn double_remove_is_a_noop() {
        let mut s = Slab::new();
        let a = s.insert(7);
        assert_eq!(s.remove(a), Some(7));
        assert_eq!(s.remove(a), None);
        assert_eq!(s.remove(999), None);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn peak_occupancy_is_a_high_water_mark() {
        let mut s = Slab::new();
        let a = s.insert(0);
        let b = s.insert(0);
        s.insert(0);
        assert_eq!(s.peak_occupancy(), 3);
        s.remove(a);
        s.remove(b);
        assert_eq!(s.peak_occupancy(), 3);
        s.insert(0);
        assert_eq!(s.peak_occupancy(), 3);
    }

    #[test]
    fn iter_yields_live_entries_in_key_order() {
        let mut s = Slab::new();
        let a = s.insert(10);
        let b = s.insert(20);
        let c = s.insert(30);
        s.remove(b);
        let got: Vec<(u32, i32)> = s.iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(got, vec![(a, 10), (c, 30)]);
    }

    fn roundtrip(s: &Slab<u64>) -> Slab<u64> {
        let mut words = Vec::new();
        s.save(
            &mut words,
            |ws, w| ws.push(w),
            |ws, v: &u64| {
                ws.push((*v >> 32) as u32);
                ws.push(*v as u32);
            },
        );
        let mut it = words.into_iter();
        Slab::load(
            &mut it,
            |it| it.next().ok_or("eof"),
            |it| -> Result<u64, &'static str> {
                let hi = it.next().ok_or("eof")?;
                let lo = it.next().ok_or("eof")?;
                Ok((u64::from(hi) << 32) | u64::from(lo))
            },
            |m| m,
        )
        .unwrap_or_else(|e| panic!("load failed: {e}"))
    }

    #[test]
    fn save_load_preserves_fragmentation_and_reuse_order() {
        let mut s = Slab::new();
        let keys: Vec<u32> = (0..6u64).map(|v| s.insert(v)).collect();
        s.remove(keys[1]);
        s.remove(keys[4]);
        s.remove(keys[2]);
        let mut restored = roundtrip(&s);
        assert_eq!(restored.len(), s.len());
        assert_eq!(restored.peak_occupancy(), s.peak_occupancy());
        // Reuse order must match the original exactly.
        let mut orig = s;
        for v in 100..103 {
            assert_eq!(orig.insert(v), restored.insert(v));
        }
    }

    fn load_words(words: &[u32]) -> Result<Slab<u64>, &'static str> {
        let mut it = words.iter().copied();
        Slab::load(&mut it, |it| it.next().ok_or("eof"), |_| Ok(0u64), |m| m)
    }

    #[test]
    fn load_rejects_corrupt_layouts() {
        // A free chain that points at a live cell: n=2, free_head=0,
        // peak=2, both cells tagged live.
        let err = load_words(&[2, 0, 2, 1, 1]).unwrap_err();
        assert!(err.contains("live cell"), "got: {err}");

        // A self-cycle in the free chain: cell 0 is free and links to
        // itself.
        let err = load_words(&[1, 0, 0, 0, 0]).unwrap_err();
        assert!(err.contains("cycle"), "got: {err}");

        // A dangling free cell the chain never reaches.
        let err = load_words(&[1, NIL, 0, 0, NIL]).unwrap_err();
        assert!(err.contains("misses"), "got: {err}");

        // An unknown cell tag.
        let err = load_words(&[1, NIL, 1, 9]).unwrap_err();
        assert!(err.contains("tag"), "got: {err}");

        // A recorded peak below the live count.
        let err = load_words(&[1, NIL, 0, 1]).unwrap_err();
        assert!(err.contains("peak"), "got: {err}");
    }

    #[test]
    fn clear_keeps_peak() {
        let mut s = Slab::new();
        s.insert(1);
        s.insert(2);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.peak_occupancy(), 2);
        assert_eq!(s.insert(3), 0);
    }
}
