//! A winner tree: the argmin of a fixed set of slots, kept current
//! under single-slot writes.
//!
//! Every per-replica "which slot has the smallest key?" question in the
//! fleet — the wake calendar and both routing-index argmins — asks it
//! over a dense id range `0..R` that holds exactly one key per slot. A
//! [`MinTree`] answers it with a flat, power-of-two-padded tournament:
//! the leaves hold the keys, every internal node holds the index of the
//! leaf that wins its subtree, ties go to the left child (the lowest
//! index), so the root names the `(key, index)` minimum. Reading it is
//! `O(1)`; overwriting one key is one `O(log R)` pull-up that stops at
//! the first ancestor whose winner neither changed nor is the written
//! slot.

/// A min winner tree over `n` slots (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MinTree<K> {
    /// Leaf keys, padded to a power of two with a key no real slot
    /// undercuts.
    keys: Vec<K>,
    /// Winning leaf per node, 1-based (root at `[1]`); node `j`'s
    /// children are `2j` and `2j + 1`, and leaf `i` is node
    /// `keys.len() + i`, whose entry is `i` itself.
    win: Vec<u32>,
}

impl<K: Ord + Copy> MinTree<K> {
    /// Builds the tree over `keys` bottom-up in `O(n)`. Padding leaves
    /// hold `pad`, which must be at least every key a slot will hold;
    /// ties with it still go to the real slot, which sits to its left.
    pub(crate) fn new(mut keys: Vec<K>, pad: K) -> Self {
        let size = keys.len().next_power_of_two();
        keys.resize(size, pad);
        let mut win = vec![0; size];
        win.extend(0..size as u32);
        // Each node's winner: the lower key, the left child on ties.
        for node in (1..size).rev() {
            let (l, r) = (win[2 * node], win[2 * node + 1]);
            win[node] = if keys[r as usize] < keys[l as usize] {
                r
            } else {
                l
            };
        }
        Self { keys, win }
    }

    /// Slot `i`'s current key.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> K {
        self.keys[i]
    }

    /// Overwrites slot `i`'s key and replays its path to the root. The
    /// path's winner index rides along, so each level reads only the
    /// sibling subtree's winner — a load that does not wait on the
    /// level below.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, k: K) {
        if self.keys[i] == k {
            return;
        }
        self.keys[i] = k;
        let (mut w, mut wk) = (i as u32, k);
        let mut node = self.keys.len() + i;
        while node > 1 {
            let s = self.win[node ^ 1];
            let sk = self.keys[s as usize];
            // The sibling wins on a lower key, or on a tie when it is the
            // left child (`node` odd): with `Ordering` as -1/0/1 that is
            // `cmp < parity`. Which side wins is data-dependent, so the
            // index is picked with a mask (a conditional move) and its
            // key re-read: a branch here measured slower than the
            // timing wheel this tree replaced.
            let sibling_wins = ((sk.cmp(&wk) as i8) < (node & 1) as i8) as u32;
            w ^= (w ^ s) & sibling_wins.wrapping_neg();
            wk = self.keys[w as usize];
            node /= 2;
            if self.win[node] == w && w as usize != i {
                break;
            }
            self.win[node] = w;
        }
    }

    /// The minimum `(slot, key)`, lowest slot on ties.
    #[inline]
    pub(crate) fn min(&self) -> (usize, K) {
        let w = self.win[1] as usize;
        (w, self.keys[w])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NO_KEY: u64 = u64::MAX;
    /// The sign-folded image of `+∞` — the wake tree's idle key.
    const INF_KEY: u64 = f64::INFINITY.to_bits() | 1 << 63;

    /// The reference: a scan for the lowest `(key, index)`.
    fn naive_min(keys: &[u64]) -> (usize, u64) {
        let (i, &k) = keys
            .iter()
            .enumerate()
            .min_by_key(|&(i, &k)| (k, i))
            .expect("non-empty");
        (i, k)
    }

    #[test]
    fn ties_go_to_the_lowest_index() {
        let mut t = MinTree::new(vec![2, 1, 1, 3], NO_KEY);
        assert_eq!(t.min(), (1, 1));
        t.set(1, 4);
        assert_eq!(t.min(), (2, 1));
        t.set(0, 1);
        assert_eq!(t.min(), (0, 1));
        t.set(0, 9);
        t.set(2, 9);
        assert_eq!(t.min(), (3, 3));
    }

    #[test]
    fn padding_never_beats_a_real_slot() {
        // Three slots pad to four; the padding key ties the real ones.
        let t = MinTree::new(vec![NO_KEY; 3], NO_KEY);
        assert_eq!(t.min(), (0, NO_KEY));
        let mut t = MinTree::new(vec![5, 7, 6], 7);
        t.set(0, 7);
        t.set(2, 7);
        assert_eq!(t.min(), (0, 7));
        // Zero slots: the lone padding leaf answers.
        assert_eq!(MinTree::new(Vec::<u64>::new(), NO_KEY).min(), (0, NO_KEY));
    }

    #[test]
    fn overwriting_a_slot_supersedes_its_old_key() {
        let mut t = MinTree::new(vec![NO_KEY; 2], NO_KEY);
        t.set(0, 5);
        t.set(1, 6);
        t.set(0, 7); // supersedes 5: the old key no longer wins
        assert_eq!(t.min(), (1, 6));
        t.set(1, NO_KEY); // back to the padding key: the slot drops out
        assert_eq!(t.min(), (0, 7));
    }

    #[test]
    fn key_tracks_the_last_write() {
        let mut t = MinTree::new(vec![NO_KEY; 6], NO_KEY);
        assert_eq!(t.key(5), NO_KEY);
        t.set(5, 25);
        assert_eq!(t.key(5), 25);
        t.set(5, 90);
        assert_eq!(t.key(5), 90);
        t.set(5, NO_KEY);
        assert_eq!(t.key(5), NO_KEY);
        assert!((0..5).all(|i| t.key(i) == NO_KEY), "other slots untouched");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random writes — repeated equal keys, the routing index's
        /// `NO_KEY` and the wake tree's `+∞` key included — leave the
        /// root equal to a naive argmin (lowest index on ties) after
        /// every write, at every width the fleet uses: one replica, the
        /// autoscaler's six slots, odd widths that pad, and 1000.
        #[test]
        fn tree_agrees_with_a_naive_argmin(
            seed in 0u64..1 << 48,
            width in prop::sample::select(vec![1usize, 2, 3, 6, 64, 1000]),
            n_ops in 1usize..400,
        ) {
            let mut rng = crate::ServeRng::new(seed);
            let draw = |rng: &mut crate::ServeRng| match rng.next_u64() % 8 {
                0 => NO_KEY,
                1 => INF_KEY,
                // A narrow range makes equal keys common.
                _ => rng.next_u64() % 8,
            };
            let mut model: Vec<u64> = (0..width).map(|_| draw(&mut rng)).collect();
            let mut t = MinTree::new(model.clone(), NO_KEY);
            prop_assert_eq!(t.min(), naive_min(&model), "after the build");
            for op in 0..n_ops {
                let i = (rng.next_u64() % width as u64) as usize;
                let k = draw(&mut rng);
                model[i] = k;
                t.set(i, k);
                prop_assert_eq!(t.min(), naive_min(&model), "after write {}", op);
                prop_assert_eq!(t.key(i), k);
            }
        }
    }
}
