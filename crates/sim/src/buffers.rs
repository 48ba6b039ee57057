//! SRAM buffer and tag-table state with pipeline-arbiter semantics.

use rpu_isa::Tag;

/// Which per-core SRAM buffer a tag lives in; its discriminant indexes
/// [`DataflowState`]'s buffer array.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BufferId {
    /// Memory buffer (fed by the memory DMA).
    Mem,
    /// Network / global buffer (fed by the network DMA).
    Net,
    /// Activation / accumulator buffers (fed by the compute pipeline).
    Act,
}

/// State of one tag: bytes published, bytes drained, and the remaining
/// valid count.
#[derive(Debug, Clone, Copy, Default)]
struct TagState {
    published: u64,
    total: u64,
    /// Bytes drained by the streaming consumer (weight streams).
    drained: u64,
    valid_count: u8,
    consumed_count: u8,
    buffer: Option<BufferId>,
}

/// Occupancy-tracked SRAM buffer.
#[derive(Debug, Clone)]
pub struct BufferState {
    /// Capacity in bytes.
    pub capacity: u64,
    /// Currently occupied bytes (may transiently exceed capacity by one
    /// publication — the "at least one message" rule that prevents
    /// deadlock on vectors larger than the buffer).
    pub occupied: u64,
    /// Elastic buffers never refuse publications. Used for the
    /// activation/accumulator buffer: the compiler tiles activations
    /// through stripes (§V), so a full-size symbolic activation tag must
    /// not exert backpressure — on hardware it would stream through the
    /// stripe register files. Occupancy is still tracked for reporting.
    pub elastic: bool,
}

impl BufferState {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new(capacity: u64) -> Self {
        Self {
            capacity,
            occupied: 0,
            elastic: false,
        }
    }

    /// Creates an empty elastic buffer (never refuses publications).
    #[must_use]
    pub fn new_elastic(capacity: u64) -> Self {
        Self {
            capacity,
            occupied: 0,
            elastic: true,
        }
    }

    /// `true` when a producer may publish more bytes.
    #[must_use]
    pub fn can_accept(&self) -> bool {
        self.elastic || self.occupied < self.capacity
    }
}

/// The arbiter-guarded dataflow state of one core: three buffers plus the
/// tag table.
///
/// Both are addressed by index, never hashed: the buffers by
/// [`BufferId`], and the tags by their number, since the compiler
/// allocates tags densely from 0. [`DataflowState::declare`] grows the
/// tag table to cover the tag it declares. A tag that was never
/// declared reads as empty: nothing published, never fully published,
/// and it cannot be published to.
#[derive(Debug, Clone)]
pub struct DataflowState {
    buffers: [BufferState; 3],
    tags: Vec<TagState>,
}

impl DataflowState {
    /// Creates the per-core state with the given buffer capacities.
    #[must_use]
    pub fn new(mem_cap: u64, net_cap: u64, act_cap: u64) -> Self {
        // Only the memory buffer exerts hard backpressure: it bounds how
        // far the memory DMA can prefetch ahead of compute (the Fig. 8
        // lookahead window). Network and activation buffers are elastic:
        // on hardware, gathered activations stream through stripe-
        // granular consumption (§V) rather than being held whole, so the
        // symbolic whole-tensor tags must not head-of-line block.
        Self {
            buffers: [
                BufferState::new(mem_cap),
                BufferState::new_elastic(net_cap),
                BufferState::new_elastic(act_cap),
            ],
            tags: Vec::new(),
        }
    }

    /// Declares a tag before any publish: total size, valid count and
    /// home buffer.
    pub fn declare(&mut self, tag: Tag, total: u64, valid_count: u8, buffer: BufferId) {
        let i = tag as usize;
        if i >= self.tags.len() {
            self.tags.resize(i + 1, TagState::default());
        }
        let e = &mut self.tags[i];
        e.total = total;
        e.valid_count = valid_count;
        e.buffer = Some(buffer);
    }

    /// A tag's state; `None` past the table. A gap in the table holds
    /// the default state, which answers every query like a tag never
    /// declared: nothing published and no home buffer.
    fn tag(&self, tag: Tag) -> Option<&TagState> {
        self.tags.get(tag as usize)
    }

    /// A declared tag's state and its home buffer, for a mutation.
    ///
    /// # Panics
    ///
    /// Panics with `what` if the tag was never declared.
    fn tag_mut(&mut self, tag: Tag, what: &str) -> (&mut TagState, &mut BufferState) {
        let b = self.tag(tag).and_then(|t| t.buffer).expect(what);
        (&mut self.tags[tag as usize], &mut self.buffers[b as usize])
    }

    /// Buffer state accessor.
    #[must_use]
    pub fn buffer(&self, id: BufferId) -> &BufferState {
        &self.buffers[id as usize]
    }

    /// `true` if the tag's home buffer can accept another publication.
    #[must_use]
    pub fn can_publish(&self, tag: Tag) -> bool {
        self.tag(tag)
            .and_then(|t| t.buffer)
            .is_some_and(|b| self.buffers[b as usize].can_accept())
    }

    /// Publishes `bytes` under `tag`, occupying buffer space.
    ///
    /// # Panics
    ///
    /// Panics if the tag was never declared.
    pub fn publish(&mut self, tag: Tag, bytes: u64) {
        let (t, buf) = self.tag_mut(tag, "publish to undeclared tag");
        t.published += bytes;
        buf.occupied += bytes;
    }

    /// Bytes published under a tag so far.
    #[must_use]
    pub fn published(&self, tag: Tag) -> u64 {
        self.tag(tag).map_or(0, |t| t.published)
    }

    /// `true` once the producer has published the tag's full size.
    #[must_use]
    pub fn fully_published(&self, tag: Tag) -> bool {
        self.tag(tag)
            .is_some_and(|t| t.total > 0 && t.published >= t.total)
    }

    /// Bytes available to the streaming consumer (published − drained).
    #[must_use]
    pub fn stream_available(&self, tag: Tag) -> u64 {
        self.tag(tag)
            .map_or(0, |t| t.published.saturating_sub(t.drained))
    }

    /// Drains `bytes` of a stream tag (single-consumer weight streams),
    /// freeing buffer space immediately.
    ///
    /// # Panics
    ///
    /// Panics if the tag was never declared or if more bytes are drained
    /// than were published.
    pub fn drain(&mut self, tag: Tag, bytes: u64) {
        let (t, buf) = self.tag_mut(tag, "drain of undeclared tag");
        assert!(
            t.drained + bytes <= t.published,
            "drained past published bytes on tag {tag}"
        );
        t.drained += bytes;
        buf.occupied = buf.occupied.saturating_sub(bytes);
    }

    /// Records one consumption of a fully-published tag (the arbiter
    /// decrements the valid counter); frees its remaining buffer space
    /// when the count reaches zero.
    ///
    /// # Panics
    ///
    /// Panics if the tag was never declared, and on arbiter underflow
    /// (more consumptions than the declared valid count).
    pub fn consume(&mut self, tag: Tag) {
        let (t, buf) = self.tag_mut(tag, "consume of undeclared tag");
        assert!(
            t.consumed_count < t.valid_count,
            "valid-counter underflow on tag {tag}"
        );
        t.consumed_count += 1;
        if t.consumed_count == t.valid_count {
            let remaining = t.published.saturating_sub(t.drained);
            t.drained = t.published;
            buf.occupied = buf.occupied.saturating_sub(remaining);
        }
    }

    /// Total bytes currently occupying all buffers.
    #[must_use]
    pub fn total_occupied(&self) -> u64 {
        self.buffers.iter().map(|b| b.occupied).sum()
    }

    /// Occupied bytes of one buffer.
    #[must_use]
    pub fn occupied(&self, id: BufferId) -> u64 {
        self.buffers[id as usize].occupied
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;
    use std::collections::HashMap;

    fn state() -> DataflowState {
        DataflowState::new(512 * 1024, 256 * 1024, 64 * 1024)
    }

    #[test]
    fn publish_occupies_space() {
        let mut s = state();
        s.declare(1, 1000, 1, BufferId::Mem);
        s.publish(1, 400);
        assert_eq!(s.occupied(BufferId::Mem), 400);
        assert!(!s.fully_published(1));
        s.publish(1, 600);
        assert!(s.fully_published(1));
    }

    #[test]
    fn drain_frees_space_incrementally() {
        let mut s = state();
        s.declare(1, 1000, 1, BufferId::Mem);
        s.publish(1, 1000);
        s.drain(1, 300);
        assert_eq!(s.occupied(BufferId::Mem), 700);
        assert_eq!(s.stream_available(1), 700);
    }

    #[test]
    fn consume_frees_remaining_when_counter_hits_zero() {
        let mut s = state();
        s.declare(2, 100, 2, BufferId::Act);
        s.publish(2, 100);
        s.consume(2);
        assert_eq!(
            s.occupied(BufferId::Act),
            100,
            "space held until last consumer"
        );
        s.consume(2);
        assert_eq!(s.occupied(BufferId::Act), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn arbiter_underflow_detected() {
        let mut s = state();
        s.declare(3, 10, 1, BufferId::Act);
        s.publish(3, 10);
        s.consume(3);
        s.consume(3);
    }

    #[test]
    #[should_panic(expected = "drained past published")]
    fn overdrain_detected() {
        let mut s = state();
        s.declare(4, 100, 1, BufferId::Mem);
        s.publish(4, 10);
        s.drain(4, 20);
    }

    #[test]
    fn can_publish_respects_capacity() {
        let mut s = DataflowState::new(100, 100, 100);
        s.declare(1, 1000, 1, BufferId::Mem);
        assert!(s.can_publish(1));
        s.publish(1, 100);
        assert!(!s.can_publish(1), "full buffer rejects further publishes");
        s.drain(1, 50);
        assert!(s.can_publish(1));
    }

    #[test]
    fn overshoot_allowed_once() {
        // A publication may exceed capacity if the buffer had room —
        // the deadlock-avoidance rule for vectors larger than a buffer.
        let mut s = DataflowState::new(100, 100, 100);
        s.declare(1, 500, 1, BufferId::Mem);
        assert!(s.can_publish(1));
        s.publish(1, 500);
        assert_eq!(s.occupied(BufferId::Mem), 500);
        assert!(!s.can_publish(1));
    }

    #[test]
    fn net_and_act_buffers_are_elastic() {
        // Gathered activations stream through stripe-granular consumption
        // on hardware; the symbolic tags must never head-of-line block.
        let mut s = DataflowState::new(100, 100, 100);
        s.declare(1, 500, 1, BufferId::Net);
        s.declare(2, 500, 1, BufferId::Act);
        s.publish(1, 500);
        s.publish(2, 500);
        assert!(s.can_publish(1), "net buffer must stay elastic");
        assert!(s.can_publish(2), "act buffer must stay elastic");
    }

    /// The tag table as a hash map, the way the state kept it before
    /// tags were addressed by index: the reference the property below
    /// checks every query against.
    #[derive(Default)]
    struct Reference {
        tags: HashMap<Tag, TagState>,
        occupied: [u64; 3],
    }

    impl Reference {
        fn declare(&mut self, tag: Tag, total: u64, valid_count: u8, buffer: BufferId) {
            let e = self.tags.entry(tag).or_default();
            e.total = total;
            e.valid_count = valid_count;
            e.buffer = Some(buffer);
        }

        fn occupy(&mut self, tag: Tag) -> &mut u64 {
            let b = self.tags[&tag].buffer.unwrap();
            &mut self.occupied[b as usize]
        }
    }

    const BUFFERS: [BufferId; 3] = [BufferId::Mem, BufferId::Net, BufferId::Act];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn index_addressed_state_answers_like_a_hash_map(seed in 0u64..u64::MAX) {
            let mut rng = TestRng::new(seed);
            let caps = [rng.below(4096), rng.below(4096), rng.below(4096)];
            let mut s = DataflowState::new(caps[0], caps[1], caps[2]);
            let mut r = Reference::default();
            for _ in 0..rng.below(200) {
                // Tags past the declared range stay undeclared, and a
                // sparse draw leaves gaps inside it.
                let tag = rng.below(24) as Tag;
                let declared = r.tags.contains_key(&tag);
                match rng.below(4) {
                    0 => {
                        let total = rng.below(3000);
                        let valid = 1 + rng.below(3) as u8;
                        let buffer = BUFFERS[rng.below(3) as usize];
                        s.declare(tag, total, valid, buffer);
                        r.declare(tag, total, valid, buffer);
                    }
                    1 if declared => {
                        let bytes = rng.below(1000);
                        s.publish(tag, bytes);
                        r.tags.get_mut(&tag).unwrap().published += bytes;
                        *r.occupy(tag) += bytes;
                    }
                    2 if declared => {
                        let t = r.tags[&tag];
                        let bytes = rng.below(t.published - t.drained + 1);
                        s.drain(tag, bytes);
                        r.tags.get_mut(&tag).unwrap().drained += bytes;
                        let o = r.occupy(tag);
                        *o = o.saturating_sub(bytes);
                    }
                    3 if declared && r.tags[&tag].consumed_count < r.tags[&tag].valid_count => {
                        s.consume(tag);
                        let t = r.tags.get_mut(&tag).unwrap();
                        t.consumed_count += 1;
                        if t.consumed_count == t.valid_count {
                            let remaining = t.published.saturating_sub(t.drained);
                            t.drained = t.published;
                            let o = r.occupy(tag);
                            *o = o.saturating_sub(remaining);
                        }
                    }
                    _ => {}
                }
                for q in 0..32 {
                    let t = r.tags.get(&q);
                    prop_assert_eq!(s.published(q), t.map_or(0, |t| t.published));
                    prop_assert_eq!(
                        s.fully_published(q),
                        t.is_some_and(|t| t.total > 0 && t.published >= t.total)
                    );
                    prop_assert_eq!(
                        s.stream_available(q),
                        t.map_or(0, |t| t.published.saturating_sub(t.drained))
                    );
                    let accepts = |b: BufferId| {
                        let i = b as usize;
                        i > 0 || r.occupied[i] < caps[i]
                    };
                    prop_assert_eq!(s.can_publish(q), t.and_then(|t| t.buffer).is_some_and(accepts));
                }
                for b in BUFFERS {
                    prop_assert_eq!(s.occupied(b), r.occupied[b as usize]);
                }
                prop_assert_eq!(s.total_occupied(), r.occupied.iter().sum::<u64>());
            }
        }
    }

    #[test]
    #[should_panic(expected = "publish to undeclared tag")]
    fn publish_to_a_gap_in_the_tag_table_panics() {
        let mut s = state();
        s.declare(5, 10, 1, BufferId::Mem);
        s.publish(2, 1);
    }
}
