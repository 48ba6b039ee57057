//! Checkpointed reproduction runs: persist rendered targets mid-sweep,
//! resume later, emit bytes identical to an uninterrupted run.
//!
//! A full `repro` regeneration walks every registry target; on a slow
//! machine (or under a CI wall clock) that is the kind of run worth
//! interrupting. [`RunCheckpoint`] captures the completed prefix — each
//! target's *rendered output*, keyed by name, plus the output format —
//! in the same versioned, checksummed byte format the serving layer
//! uses for run snapshots ([`rpu_serve::snapshot`]). Because every
//! experiment is deterministic, re-rendering a missing target later
//! produces exactly the bytes it would have produced in one sitting, so
//! a checkpointed-and-resumed regeneration is byte-identical to an
//! uninterrupted one — the repro smoke job diffs the two against the
//! golden files to prove it.
//!
//! [`render_resumed`] completes a checkpoint in one parallel sweep
//! (via [`Engine::par_map_resume`], which only computes the missing
//! targets); [`advance`] makes bounded progress — at most `max_new`
//! targets, in registry order — for `--checkpoint-every`/`--halt-after`
//! style drivers that persist between batches.

use super::{render, Experiment, Format};
use crate::engine::Engine;
use rpu_serve::snapshot::{SnapshotError, SnapshotReader, SnapshotWriter};

/// Section id for the checkpoint payload. Distinct from the serving
/// run sections (1–5) so a checkpoint never thaws as a run snapshot's
/// leading section or vice versa.
const SECTION_CHECKPOINT: u8 = 64;

/// The completed prefix of a reproduction run: rendered outputs keyed
/// by target name, plus the format they were rendered in.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunCheckpoint {
    format: Format,
    entries: Vec<(String, String)>,
}

impl RunCheckpoint {
    /// An empty checkpoint for runs rendered in `format`.
    #[must_use]
    pub fn new(format: Format) -> Self {
        Self {
            format,
            entries: Vec::new(),
        }
    }

    /// The format every entry was rendered in.
    #[must_use]
    pub fn format(&self) -> Format {
        self.format
    }

    /// Number of completed targets.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when no target has completed yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The rendered output recorded for `name`, if completed.
    #[must_use]
    pub fn rendered(&self, name: &str) -> Option<&str> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, body)| body.as_str())
    }

    /// Records `body` as the rendered output of `name`, replacing any
    /// prior entry for the same target.
    pub fn record(&mut self, name: &str, body: String) {
        if let Some(entry) = self.entries.iter_mut().find(|(n, _)| n == name) {
            entry.1 = body;
        } else {
            self.entries.push((name.to_string(), body));
        }
    }

    /// Serialises the checkpoint into the snapshot byte format (magic,
    /// versions, one checksummed section).
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(SECTION_CHECKPOINT);
        w.put_u8(match self.format {
            Format::Text => 0,
            Format::Json => 1,
            Format::Csv => 2,
        });
        w.put_usize(self.entries.len());
        for (name, body) in &self.entries {
            w.put_str(name);
            w.put_str(body);
        }
        w.end_section();
        w.finish()
    }

    /// Deserialises a checkpoint written by [`RunCheckpoint::to_bytes`].
    ///
    /// # Errors
    ///
    /// Any [`SnapshotError`]: corruption, truncation, version skew, or
    /// a byte stream that is a run snapshot rather than a checkpoint.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = SnapshotReader::new(bytes)?;
        r.begin_section(SECTION_CHECKPOINT)?;
        let format = match r.get_u8()? {
            0 => Format::Text,
            1 => Format::Json,
            2 => Format::Csv,
            _ => return Err(SnapshotError::Corrupt("bad format tag")),
        };
        let n = r.get_count(16)?;
        let mut entries = Vec::with_capacity(n);
        for _ in 0..n {
            let name = r.get_str()?;
            let body = r.get_str()?;
            entries.push((name, body));
        }
        r.end_section()?;
        if !r.is_exhausted() {
            return Err(SnapshotError::Corrupt("trailing bytes after checkpoint"));
        }
        Ok(Self { format, entries })
    }
}

/// Completes `checkpoint` over `targets` in one resumable parallel
/// sweep and returns every target's rendered output, in target order.
///
/// Already-checkpointed targets are *not* re-run — their recorded
/// bytes are returned as-is ([`Engine::par_map_resume`] skips them);
/// missing targets run with `inner` grid parallelism while `outer`
/// fans the targets themselves out. For deterministic experiments the
/// returned outputs are byte-identical to an uninterrupted
/// [`render`] sweep. All fresh results are folded back into
/// `checkpoint`.
pub fn render_resumed(
    targets: &[&dyn Experiment],
    outer: &Engine,
    inner: &Engine,
    checkpoint: &mut RunCheckpoint,
) -> Vec<String> {
    let format = checkpoint.format();
    let partial: Vec<Option<String>> = targets
        .iter()
        .map(|t| checkpoint.rendered(t.name()).map(String::from))
        .collect();
    let bodies = outer.par_map_resume(targets, partial, |_, t| render(*t, &t.run(inner), format));
    for (t, body) in targets.iter().zip(&bodies) {
        checkpoint.record(t.name(), body.clone());
    }
    bodies
}

/// Runs at most `max_new` not-yet-checkpointed targets, in target
/// order, folding their rendered outputs into `checkpoint`. Returns
/// how many targets actually ran (less than `max_new` once the sweep
/// nears completion; zero when the checkpoint already covers every
/// target). Drivers persist the checkpoint between calls to get
/// `--checkpoint-every` semantics.
pub fn advance(
    targets: &[&dyn Experiment],
    engine: &Engine,
    checkpoint: &mut RunCheckpoint,
    max_new: usize,
) -> usize {
    let format = checkpoint.format();
    let mut fresh = 0;
    for t in targets {
        if fresh >= max_new {
            break;
        }
        if checkpoint.rendered(t.name()).is_some() {
            continue;
        }
        checkpoint.record(t.name(), render(*t, &t.run(engine), format));
        fresh += 1;
    }
    fresh
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::{find, registry};

    fn cheap_targets() -> Vec<&'static dyn Experiment> {
        // Closed-form figures: fast enough to run several times per test.
        ["fig4", "fig3", "design-points"]
            .iter()
            .map(|n| find(n).expect("registry target"))
            .collect()
    }

    #[test]
    fn checkpoint_bytes_round_trip() {
        let mut ck = RunCheckpoint::new(Format::Csv);
        ck.record("fig4", "alpha\n".into());
        ck.record("fig9", "beta — émis\n".into());
        let thawed = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert_eq!(thawed, ck);
        assert_eq!(thawed.format(), Format::Csv);
        assert_eq!(thawed.rendered("fig9"), Some("beta — émis\n"));
        assert_eq!(thawed.rendered("fig1"), None);
        assert_eq!(thawed.len(), 2);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let ck = RunCheckpoint::new(Format::Text);
        let thawed = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        assert!(thawed.is_empty());
        assert_eq!(thawed.format(), Format::Text);
    }

    #[test]
    fn corrupt_checkpoints_are_rejected() {
        let mut ck = RunCheckpoint::new(Format::Text);
        ck.record("fig4", "body".into());
        let bytes = ck.to_bytes();
        for i in 0..bytes.len() {
            let mut evil = bytes.clone();
            evil[i] ^= 0xFF;
            assert!(
                RunCheckpoint::from_bytes(&evil).is_err(),
                "flipping checkpoint byte {i} was accepted"
            );
        }
        for cut in 0..bytes.len() {
            assert!(RunCheckpoint::from_bytes(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn record_replaces_by_name() {
        let mut ck = RunCheckpoint::new(Format::Text);
        ck.record("fig4", "old".into());
        ck.record("fig4", "new".into());
        assert_eq!(ck.len(), 1);
        assert_eq!(ck.rendered("fig4"), Some("new"));
    }

    #[test]
    fn resumed_render_is_byte_identical_to_uninterrupted() {
        let targets = cheap_targets();
        let seq = Engine::sequential();
        let uninterrupted: Vec<String> = targets
            .iter()
            .map(|t| render(*t, &t.run(&seq), Format::Text))
            .collect();

        // Interrupt after one target, persist, thaw, finish.
        let mut ck = RunCheckpoint::new(Format::Text);
        assert_eq!(advance(&targets, &seq, &mut ck, 1), 1);
        assert_eq!(ck.len(), 1);
        let mut thawed = RunCheckpoint::from_bytes(&ck.to_bytes()).unwrap();
        let resumed = render_resumed(&targets, &Engine::new(3), &seq, &mut thawed);
        assert_eq!(resumed, uninterrupted);
        assert_eq!(thawed.len(), targets.len());
    }

    #[test]
    fn advance_is_bounded_and_terminates() {
        let targets = cheap_targets();
        let seq = Engine::sequential();
        let mut ck = RunCheckpoint::new(Format::Text);
        assert_eq!(advance(&targets, &seq, &mut ck, 2), 2);
        assert_eq!(advance(&targets, &seq, &mut ck, 2), 1);
        assert_eq!(advance(&targets, &seq, &mut ck, 2), 0);
        assert_eq!(ck.len(), targets.len());
        // And the piecewise outputs equal the one-shot ones.
        for t in &targets {
            let direct = render(*t, &t.run(&seq), Format::Text);
            assert_eq!(ck.rendered(t.name()), Some(direct.as_str()));
        }
    }

    #[test]
    fn run_snapshots_and_checkpoints_do_not_cross_thaw() {
        // A serving run snapshot (one machine: a one-replica fleet)
        // must not parse as a checkpoint.
        let wl = rpu_serve::Workload::poisson(500.0, 64, 8, 8);
        let mut fleet = rpu_serve::FleetBuilder::new()
            .group(
                1,
                &rpu_serve::ServeConfig::default(),
                || Box::new(rpu_serve::AnalyticCostModel::small()),
                || Box::new(rpu_serve::Fifo),
            )
            .build();
        let mut router = rpu_serve::RoundRobin::new();
        let mut run = fleet.start(&wl);
        while run.step(&mut fleet, &mut router) {}
        assert!(matches!(
            RunCheckpoint::from_bytes(&run.snapshot(&router)),
            Err(SnapshotError::SectionMismatch { .. })
        ));
    }

    #[test]
    fn registry_is_untouched_by_the_checkpoint_layer() {
        assert_eq!(registry().len(), 20);
    }
}
