//! Hostile-bytes suite: corrupted and truncated snapshots must fail
//! with a typed [`SnapshotError`] — never panic, never silently
//! resume from mangled state.
//!
//! The suite takes real mid-run snapshots (single-machine and fleet),
//! then exhaustively flips every byte and cuts every prefix, asserting
//! each mutation is rejected. Targeted cases pin the typed variant:
//! bad magic, format-version skew, per-section checksum mismatch,
//! truncation, and cross-kind / cross-workload confusion.

use rpu_serve::snapshot::MAGIC;
use rpu_serve::{
    churn_tape, AnalyticCostModel, Fifo, Fleet, FleetBuilder, FleetEvent, FleetRun, PriorityAging,
    RoundRobin, Router, ServeConfig, ServeRun, SessionAffinity, SnapshotError, Workload,
};

fn serve_snapshot_at(events: u64) -> (Workload, Vec<u8>) {
    let wl = Workload::poisson(1500.0, 192, 24, 48);
    let cfg = ServeConfig::default();
    let mut run = ServeRun::new(&wl, &cfg);
    let mut cost = AnalyticCostModel::small();
    for _ in 0..events {
        assert!(run.step(&mut cost, &mut Fifo));
    }
    (wl, run.snapshot())
}

fn fleet3() -> Fleet {
    FleetBuilder::new()
        .group(
            3,
            &ServeConfig::default(),
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.25)),
        )
        .build()
}

fn fleet_snapshot_at(events: u64) -> (Workload, Fleet, Vec<u8>) {
    churned_fleet_snapshot_at(events, &[])
}

/// A three-replica fleet snapshot after `events` events, with the
/// `churn` lifecycle tape injected at the start.
fn churned_fleet_snapshot_at(events: u64, churn: &[FleetEvent]) -> (Workload, Fleet, Vec<u8>) {
    let wl = Workload::poisson(1500.0, 192, 24, 48);
    let mut serving = fleet3();
    let mut router = SessionAffinity::new();
    let mut run = serving.start(&wl);
    for ev in churn {
        run.inject(*ev);
    }
    for _ in 0..events {
        assert!(run.step(&mut serving, &mut router));
    }
    (wl, fleet3(), run.snapshot(&router))
}

/// Offset of the first section id: magic + format version + the
/// length-prefixed crate version string. Integration tests compile
/// inside the `rpu-serve` package, so this is the writer's version.
fn header_len() -> usize {
    MAGIC.len() + 4 + 8 + env!("CARGO_PKG_VERSION").len()
}

#[test]
fn every_single_byte_flip_is_rejected() {
    let (wl, bytes) = serve_snapshot_at(40);
    assert!(
        ServeRun::resume(&wl, &bytes).is_ok(),
        "pristine bytes must thaw"
    );
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xFF;
        assert!(
            ServeRun::resume(&wl, &evil).is_err(),
            "flipping byte {i} of {} was accepted",
            bytes.len()
        );
    }
}

#[test]
fn every_proper_prefix_truncation_is_rejected() {
    let (wl, bytes) = serve_snapshot_at(40);
    for cut in 0..bytes.len() {
        let err = ServeRun::resume(&wl, &bytes[..cut]).expect_err("a proper prefix was accepted");
        if cut >= header_len() {
            assert!(
                matches!(err, SnapshotError::Truncated),
                "truncation at {cut} (past the header) gave {err:?}"
            );
        }
    }
}

#[test]
fn bad_magic_is_typed() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    bytes[0] = b'X';
    assert!(matches!(
        ServeRun::resume(&wl, &bytes),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn format_version_skew_is_typed() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    bytes[MAGIC.len()] = bytes[MAGIC.len()].wrapping_add(1);
    let err = ServeRun::resume(&wl, &bytes).expect_err("future format accepted");
    let SnapshotError::VersionMismatch { found, expected } = err else {
        panic!("expected VersionMismatch, got {err:?}");
    };
    assert_ne!(found, expected);
}

#[test]
fn crate_version_skew_is_typed() {
    let (wl, bytes) = serve_snapshot_at(10);
    // Rewrite the embedded crate version string to a different one of
    // the same length, leaving everything else intact.
    let start = MAGIC.len() + 4 + 8;
    let mut evil = bytes.clone();
    evil[start] = evil[start].wrapping_add(1);
    assert!(matches!(
        ServeRun::resume(&wl, &evil),
        Err(SnapshotError::VersionMismatch { .. })
    ));
}

#[test]
fn payload_corruption_is_a_checksum_mismatch_naming_the_section() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    // First section is RUN: id byte, 8-byte length, then payload.
    let payload = header_len() + 1 + 8;
    bytes[payload] ^= 0x01;
    let err = ServeRun::resume(&wl, &bytes).expect_err("corrupt payload accepted");
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { section: 1 }),
        "got {err:?}"
    );
}

#[test]
fn empty_and_tiny_inputs_are_rejected_without_panicking() {
    let (wl, _) = serve_snapshot_at(1);
    assert!(matches!(
        ServeRun::resume(&wl, &[]),
        Err(SnapshotError::Truncated)
    ));
    for n in 1..MAGIC.len() {
        assert!(ServeRun::resume(&wl, &MAGIC[..n]).is_err());
    }
    assert!(matches!(
        ServeRun::resume(&wl, &MAGIC),
        Err(SnapshotError::Truncated)
    ));
}

#[test]
fn resuming_under_a_different_workload_is_a_workload_mismatch() {
    let (_, bytes) = serve_snapshot_at(10);
    let other = Workload::poisson(1500.0, 192, 24, 47);
    assert!(matches!(
        ServeRun::resume(&other, &bytes),
        Err(SnapshotError::WorkloadMismatch)
    ));
}

#[test]
fn fleet_and_serve_snapshots_do_not_cross_thaw() {
    let (wl, fleet, fleet_bytes) = fleet_snapshot_at(20);
    assert!(matches!(
        ServeRun::resume(&wl, &fleet_bytes),
        Err(SnapshotError::Corrupt(_))
    ));
    let (swl, serve_bytes) = serve_snapshot_at(20);
    let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
    assert!(matches!(
        FleetRun::resume(&swl, &fleet, router.as_mut(), &serve_bytes),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn fleet_byte_flips_and_truncations_are_rejected() {
    let (wl, fleet, bytes) = fleet_snapshot_at(64);
    {
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        assert!(
            FleetRun::resume(&wl, &fleet, router.as_mut(), &bytes).is_ok(),
            "pristine fleet bytes must thaw"
        );
    }
    // Sampled flips (every 7th byte) keep the fleet half of the sweep
    // cheap; the serve half above is exhaustive over the same format.
    for i in (0..bytes.len()).step_by(7) {
        let mut evil = bytes.clone();
        evil[i] ^= 0xFF;
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        assert!(
            FleetRun::resume(&wl, &fleet, router.as_mut(), &evil).is_err(),
            "flipping fleet byte {i} was accepted"
        );
    }
    for cut in (0..bytes.len()).step_by(7) {
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        assert!(
            FleetRun::resume(&wl, &fleet, router.as_mut(), &bytes[..cut]).is_err(),
            "fleet prefix {cut} was accepted"
        );
    }
}

#[test]
fn resuming_into_a_wrong_sized_fleet_is_rejected() {
    let (wl, _, bytes) = fleet_snapshot_at(20);
    let smaller = FleetBuilder::new()
        .group(
            2,
            &ServeConfig::default(),
            || Box::new(AnalyticCostModel::small()),
            || Box::new(PriorityAging::new(0.25)),
        )
        .build();
    let mut router: Box<dyn Router> = Box::new(RoundRobin::new());
    assert!(matches!(
        FleetRun::resume(&wl, &smaller, router.as_mut(), &bytes),
        Err(SnapshotError::Corrupt(_))
    ));
}

/// Walks the section framing: returns `(id, payload_start, payload_len)`
/// per section, in stream order. Layout per section: 1-byte id, 8-byte
/// LE payload length, payload, 8-byte FNV-1a checksum.
fn sections(bytes: &[u8]) -> Vec<(u8, usize, usize)> {
    let mut out = Vec::new();
    let mut at = header_len();
    while at + 9 <= bytes.len() {
        let id = bytes[at];
        let len = u64::from_le_bytes(bytes[at + 1..at + 9].try_into().expect("8 bytes")) as usize;
        out.push((id, at + 9, len));
        at += 9 + len + 8;
    }
    out
}

/// Flips `payload[i]` and repairs the section checksum so the mutation
/// reaches the structural validators instead of dying at the hash.
fn mutate_checksummed(bytes: &[u8], start: usize, len: usize, i: usize) -> Vec<u8> {
    let mut evil = bytes.to_vec();
    evil[start + i] ^= 0xFF;
    let sum = rpu_serve::snapshot::fnv1a(&evil[start..start + len]);
    evil[start + len..start + len + 8].copy_from_slice(&sum.to_le_bytes());
    evil
}

/// Checksum-*valid* hostile mutations of the core section — the queue,
/// the resident slots and their ready times, the clocks, the
/// completion records and counters — must hit the structural
/// validators: every byte flip either fails typed or thaws into a
/// state that can be stepped without panicking. This is the no-panic
/// guarantee for the dense batch layout that checksums alone cannot
/// give (a hostile writer can always recompute them).
#[test]
fn checksummed_core_mutations_are_rejected_or_thaw_steppable() {
    let (wl, bytes) = serve_snapshot_at(40);
    let (_, start, len) = sections(&bytes)
        .into_iter()
        .find(|s| s.0 == 3)
        .expect("serve snapshots carry a core section");
    let mut thawed = 0u32;
    for i in 0..len {
        let evil = mutate_checksummed(&bytes, start, len, i);
        match ServeRun::resume(&wl, &evil) {
            Err(_) => {} // typed rejection — never a panic
            Ok(mut run) => {
                thawed += 1;
                // A mutation that still parses must yield a steppable
                // state (bounded: a mutated output length can
                // legitimately lengthen the run).
                let mut cost = AnalyticCostModel::small();
                for _ in 0..5_000 {
                    if !run.step(&mut cost, &mut Fifo) {
                        break;
                    }
                }
            }
        }
    }
    // Sanity: the sweep exercised both outcomes (some flips survive
    // parsing — float payloads — and plenty are structurally refused).
    assert!(thawed > 0, "no core mutation thawed: sweep too weak?");
    assert!(
        u64::from(thawed) < len as u64,
        "every core mutation thawed: validators missing?"
    );
}

/// The fleet resume path rebuilds its wake calendar from each thawed
/// core — checksum-valid per-replica core mutations must never panic
/// it (NaN clocks and ready times, and records out of finish order,
/// fail typed instead).
#[test]
fn checksummed_fleet_core_mutations_never_panic_the_wake_rebuild() {
    let (wl, fleet, bytes) = fleet_snapshot_at(64);
    for (id, start, len) in sections(&bytes) {
        if id != 3 {
            continue;
        }
        // Sampled: the serve-side sweep above is exhaustive on the
        // same core format; here the target is the wake rebuild.
        for i in (0..len).step_by(3) {
            let evil = mutate_checksummed(&bytes, start, len, i);
            let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
            if let Ok(mut run) = FleetRun::resume(&wl, &fleet, router.as_mut(), &evil) {
                let mut serving = fleet3();
                for _ in 0..2_000 {
                    if !run.step(&mut serving, router.as_mut()) {
                        break;
                    }
                }
            }
        }
    }
}

/// Checksum-valid flips of the fleet LOG section — router picks and
/// indexed lifecycle transitions — must fail typed (a pick or a
/// transition naming a replica out of range, transition indices out of
/// order or past the run's event count, a count the payload cannot
/// hold) or thaw into a run that steps to its report without panicking.
/// A resumed run never re-reads its log except to count picks into the
/// report, so that is the path a surviving flip must not break.
#[test]
fn checksummed_fleet_log_mutations_are_rejected_or_thaw_steppable() {
    let churn = churn_tape(3, 0xC4, 0.02, 4);
    let (wl, fleet, bytes) = churned_fleet_snapshot_at(96, &churn);
    {
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        let run = FleetRun::resume(&wl, &fleet, router.as_mut(), &bytes).expect("pristine bytes");
        assert!(
            !run.log().transitions().is_empty(),
            "the snapshot must carry applied transitions"
        );
    }
    let (_, start, len) = sections(&bytes)
        .into_iter()
        .find(|s| s.0 == 5)
        .expect("fleet snapshots carry a log section");
    let (mut rejected, mut thawed) = (0u32, 0u32);
    for i in 0..len {
        let evil = mutate_checksummed(&bytes, start, len, i);
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        match FleetRun::resume(&wl, &fleet, router.as_mut(), &evil) {
            Err(_) => rejected += 1,
            Ok(mut run) => {
                thawed += 1;
                let mut serving = fleet3();
                while run.step(&mut serving, router.as_mut()) {}
                let report = run.into_report();
                assert_eq!(report.assigned.len(), 3, "flipping log byte {i}");
            }
        }
    }
    // Every pick flip lands out of range; transition times survive.
    assert!(rejected > 0, "no log mutation was rejected");
    assert!(thawed > 0, "no log mutation thawed: sweep too weak?");
}
