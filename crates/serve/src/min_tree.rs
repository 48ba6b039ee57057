//! A winner tree: the argmin of a fixed set of slots, kept current
//! under single-slot writes.
//!
//! Every per-replica "which slot has the smallest key?" question in the
//! fleet — the wake calendar and both routing-index argmins — asks it
//! over a dense id range `0..R` that holds exactly one key per slot. A
//! [`MinTree`] answers it with a flat, power-of-four-padded tournament
//! with four children per node: the leaves hold the keys, every
//! internal node holds the `(key, leaf)` that wins its subtree, ties go
//! to the first minimum among the children (the lowest index), so the
//! root names the `(key, index)` minimum. Reading it is one load;
//! overwriting one key is one pull-up of `log₄ R` levels — five at
//! `R = 1000` — that stops at the first ancestor whose winner does not
//! change. Each level reads one contiguous group of four siblings.

/// A min winner tree over `n` slots (see the module docs).
#[derive(Debug, Clone)]
pub(crate) struct MinTree<K> {
    /// Leaf keys, padded to a power of four (at least four) with a key
    /// no real slot undercuts.
    keys: Vec<K>,
    /// Each internal node's winning `(key, leaf)`, root at `[0]`; node
    /// `j`'s children are `4j + 1 ..= 4j + 4`, where a child `c` past
    /// the last node is leaf `c - nodes.len()`.
    nodes: Vec<(K, u32)>,
}

/// The first minimum of four `(key, leaf)` candidates in position order,
/// picked as two pairs and a final: ties keep the earlier one.
#[inline]
fn first_min<K: Ord + Copy>([a, b, c, d]: [(K, u32); 4]) -> (K, u32) {
    let l = if b.0 < a.0 { b } else { a };
    let r = if d.0 < c.0 { d } else { c };
    if r.0 < l.0 {
        r
    } else {
        l
    }
}

impl<K: Ord + Copy> MinTree<K> {
    /// Builds the tree over `keys` bottom-up in `O(n)`. Padding leaves
    /// hold `pad`, which must be at least every key a slot will hold;
    /// ties with it still go to the real slot, which sits before it.
    pub(crate) fn new(mut keys: Vec<K>, pad: K) -> Self {
        let mut size = 4;
        while size < keys.len() {
            size *= 4;
        }
        keys.resize(size, pad);
        let mut tree = Self {
            keys,
            nodes: vec![(pad, 0); (size - 1) / 3],
        };
        for node in (0..tree.nodes.len()).rev() {
            tree.nodes[node] = tree.winner(node);
        }
        tree
    }

    /// The winner among `node`'s four children, read from the leaves
    /// or from the nodes a level down.
    #[inline]
    fn winner(&self, node: usize) -> (K, u32) {
        let first = 4 * node + 1;
        let group = match first.checked_sub(self.nodes.len()) {
            Some(leaf) => std::array::from_fn(|j| (self.keys[leaf + j], (leaf + j) as u32)),
            None => self.nodes[first..first + 4]
                .try_into()
                .expect("four children"),
        };
        first_min(group)
    }

    /// Slot `i`'s current key.
    #[inline]
    pub(crate) fn key(&self, i: usize) -> K {
        self.keys[i]
    }

    /// Overwrites slot `i`'s key and replays its path to the root,
    /// recomputing each ancestor's four-way winner until one comes out
    /// unchanged: every ancestor above it then sees the same children.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, k: K) {
        if self.keys[i] == k {
            return;
        }
        self.keys[i] = k;
        let mut child = self.nodes.len() + i;
        while child > 0 {
            let node = (child - 1) / 4;
            let w = self.winner(node);
            if self.nodes[node] == w {
                break;
            }
            self.nodes[node] = w;
            child = node;
        }
    }

    /// The minimum `(slot, key)`, lowest slot on ties.
    #[inline]
    pub(crate) fn min(&self) -> (usize, K) {
        let (k, w) = self.nodes[0];
        (w as usize, k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const NO_KEY: u64 = u64::MAX;
    /// The sign-folded image of `+∞` — the wake tree's idle key.
    const INF_KEY: u64 = f64::INFINITY.to_bits() | 1 << 63;

    impl<K> MinTree<K> {
        /// Every internal node's `(key, leaf)`, root first.
        fn nodes(&self) -> &[(K, u32)] {
            &self.nodes
        }
    }

    /// The reference: a scan for the lowest `(key, index)`.
    fn naive_min<K: Ord + Copy>(keys: &[K]) -> (usize, K) {
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
        // Zero slots: the first padding leaf answers.
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

    #[test]
    fn a_full_pull_up_at_width_1000_writes_five_nodes() {
        // The fleet's width: 1000 slots pad to 1024 leaves, five levels
        // of four-way nodes. Raising the root winner's key — what every
        // decode step does to the wake calendar — moves the winner at
        // every level, so the pull-up runs to the root: the worst case.
        // `set` writes a node only when its winner changes, so the
        // nodes that differ are the nodes written.
        let mut t = MinTree::new((0..1000).collect(), NO_KEY);
        for step in 0..1000 {
            let before = t.nodes().to_vec();
            let (w, k) = t.min();
            t.set(w, k + 1000);
            let written = before.iter().zip(t.nodes()).filter(|(a, b)| a != b).count();
            assert_eq!(written, 5, "pull-up {step} wrote {written} nodes");
        }
        assert_eq!(t.nodes().len(), (1024 - 1) / 3);
    }

    /// Replays one random write sequence on a tree and a plain array,
    /// checking the root against a naive argmin after every write and
    /// every internal node against a fresh build at the end.
    fn check_writes<K: Ord + Copy + std::fmt::Debug>(
        seed: u64,
        width: usize,
        n_ops: usize,
        pad: K,
        draw: impl Fn(&mut crate::ServeRng) -> K,
    ) -> Result<(), TestCaseError> {
        let mut rng = crate::ServeRng::new(seed);
        let mut model: Vec<K> = (0..width).map(|_| draw(&mut rng)).collect();
        let mut t = MinTree::new(model.clone(), pad);
        prop_assert_eq!(t.min(), naive_min(&model), "after the build");
        for op in 0..n_ops {
            let i = (rng.next_u64() % width as u64) as usize;
            let k = draw(&mut rng);
            model[i] = k;
            t.set(i, k);
            prop_assert_eq!(t.min(), naive_min(&model), "after write {}", op);
            prop_assert_eq!(t.key(i), k);
        }
        // A wrong early exit can leave a stale node the root hides.
        let fresh = MinTree::new(model, pad);
        prop_assert_eq!(
            t.nodes(),
            fresh.nodes(),
            "internal nodes after {} writes",
            n_ops
        );
        Ok(())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random writes — repeated equal keys, the routing index's
        /// `NO_KEY` and the wake tree's `+∞` key included — leave the
        /// root equal to a naive argmin (lowest index on ties) after
        /// every write, and every internal node equal to a fresh
        /// build's, for `u64` and `u128` keys. Widths cover the fleet's
        /// (one replica, the autoscaler's six slots, 1000) and every
        /// edge of the power-of-four padding.
        #[test]
        fn tree_agrees_with_a_naive_argmin(
            seed in 0u64..1 << 48,
            width in prop::sample::select(vec![
                1usize, 2, 3, 4, 5, 6, 15, 16, 17, 64, 1000, 1024, 1025,
            ]),
            n_ops in 1usize..400,
        ) {
            let draw = |rng: &mut crate::ServeRng| match rng.next_u64() % 8 {
                0 => NO_KEY,
                1 => INF_KEY,
                // A narrow range makes equal keys common.
                _ => rng.next_u64() % 8,
            };
            check_writes(seed, width, n_ops, NO_KEY, draw)?;
            // Packed pairs like the KV tree's: equal high halves are
            // common, so the low half often decides.
            let draw_pair = |rng: &mut crate::ServeRng| match rng.next_u64() % 8 {
                0 => u128::MAX,
                k => u128::from(k % 3) << 64 | u128::from(rng.next_u64() % 4),
            };
            check_writes(seed, width, n_ops, u128::MAX, draw_pair)?;
        }
    }
}
