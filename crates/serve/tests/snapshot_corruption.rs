//! Hostile-bytes suite: corrupted and truncated snapshots must fail
//! with a typed [`SnapshotError`] — never panic, never silently
//! resume from mangled state.
//!
//! The suite takes real mid-run snapshots (one machine — a
//! one-replica fleet, as `serve_with` runs it — and a three-replica
//! fleet), then exhaustively flips every byte and cuts every prefix of
//! the one-machine snapshot, asserting each mutation is rejected.
//! Targeted cases pin the typed variant: bad magic, format-version
//! skew, per-section checksum mismatch, truncation, trailing bytes, a
//! retired snapshot kind and cross-workload confusion.

use rpu_serve::snapshot::MAGIC;
use rpu_serve::{
    churn_tape, digest_fleet_report, AnalyticCostModel, Fifo, Fleet, FleetBuilder, FleetEvent,
    FleetRun, PriorityAging, ReportDigest, RoundRobin, Router, ServeConfig, SessionAffinity,
    SnapshotError, Workload,
};

/// One machine under FIFO: a one-replica fleet.
fn machine() -> Fleet {
    FleetBuilder::new()
        .group(
            1,
            &ServeConfig::default(),
            || Box::new(AnalyticCostModel::small()),
            || Box::new(Fifo),
        )
        .build()
}

/// A one-machine snapshot after `events` events.
fn serve_snapshot_at(events: u64) -> (Workload, Vec<u8>) {
    let wl = Workload::poisson(1500.0, 192, 24, 48);
    let mut serving = machine();
    let mut router = RoundRobin::new();
    let mut run = serving.start(&wl);
    for _ in 0..events {
        assert!(run.step(&mut serving, &mut router));
    }
    (wl, run.snapshot(&router))
}

/// Thaws a one-machine snapshot into a fresh machine and router.
fn resume_serve(wl: &Workload, bytes: &[u8]) -> Result<FleetRun, SnapshotError> {
    FleetRun::resume(wl, &machine(), &mut RoundRobin::new(), bytes)
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
        resume_serve(&wl, &bytes).is_ok(),
        "pristine bytes must thaw"
    );
    for i in 0..bytes.len() {
        let mut evil = bytes.clone();
        evil[i] ^= 0xFF;
        assert!(
            resume_serve(&wl, &evil).is_err(),
            "flipping byte {i} of {} was accepted",
            bytes.len()
        );
    }
}

#[test]
fn every_proper_prefix_truncation_is_rejected() {
    let (wl, bytes) = serve_snapshot_at(40);
    for cut in 0..bytes.len() {
        let err = resume_serve(&wl, &bytes[..cut]).expect_err("a proper prefix was accepted");
        if cut >= header_len() {
            assert!(
                matches!(err, SnapshotError::Truncated),
                "truncation at {cut} (past the header) gave {err:?}"
            );
        }
    }
}

/// A snapshot ends with its LOG section: one byte past it, on the
/// one-machine and on the fleet snapshot, is corruption, not a resume.
#[test]
fn trailing_bytes_after_the_last_section_are_rejected() {
    let (wl, mut bytes) = serve_snapshot_at(40);
    bytes.push(0);
    assert!(matches!(
        resume_serve(&wl, &bytes),
        Err(SnapshotError::Corrupt(_))
    ));
    let (wl, fleet, mut bytes) = fleet_snapshot_at(64);
    bytes.push(0);
    let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
    assert!(matches!(
        FleetRun::resume(&wl, &fleet, router.as_mut(), &bytes),
        Err(SnapshotError::Corrupt(_))
    ));
}

#[test]
fn bad_magic_is_typed() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    bytes[0] = b'X';
    assert!(matches!(
        resume_serve(&wl, &bytes),
        Err(SnapshotError::BadMagic)
    ));
}

#[test]
fn format_version_skew_is_typed() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    bytes[MAGIC.len()] = bytes[MAGIC.len()].wrapping_add(1);
    let err = resume_serve(&wl, &bytes).expect_err("future format accepted");
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
        resume_serve(&wl, &evil),
        Err(SnapshotError::VersionMismatch { .. })
    ));
}

#[test]
fn payload_corruption_is_a_checksum_mismatch_naming_the_section() {
    let (wl, mut bytes) = serve_snapshot_at(10);
    // First section is RUN: id byte, 8-byte length, then payload.
    let payload = header_len() + 1 + 8;
    bytes[payload] ^= 0x01;
    let err = resume_serve(&wl, &bytes).expect_err("corrupt payload accepted");
    assert!(
        matches!(err, SnapshotError::ChecksumMismatch { section: 1 }),
        "got {err:?}"
    );
}

#[test]
fn empty_and_tiny_inputs_are_rejected_without_panicking() {
    let (wl, _) = serve_snapshot_at(1);
    assert!(matches!(
        resume_serve(&wl, &[]),
        Err(SnapshotError::Truncated)
    ));
    for n in 1..MAGIC.len() {
        assert!(resume_serve(&wl, &MAGIC[..n]).is_err());
    }
    assert!(matches!(
        resume_serve(&wl, &MAGIC),
        Err(SnapshotError::Truncated)
    ));
}

#[test]
fn resuming_under_a_different_workload_is_a_workload_mismatch() {
    let (_, bytes) = serve_snapshot_at(10);
    let other = Workload::poisson(1500.0, 192, 24, 47);
    assert!(matches!(
        resume_serve(&other, &bytes),
        Err(SnapshotError::WorkloadMismatch)
    ));
}

/// A one-machine snapshot and a three-replica one are the same kind
/// but not interchangeable: each fails typed in the other's fleet. A
/// snapshot carrying the retired single-machine kind tag `1` in its RUN
/// header — checksum repaired, so only the tag is wrong — fails typed
/// too, never thawing and never panicking.
#[test]
fn fleet_and_serve_snapshots_do_not_cross_thaw() {
    let (wl, fleet, fleet_bytes) = fleet_snapshot_at(20);
    assert!(matches!(
        resume_serve(&wl, &fleet_bytes),
        Err(SnapshotError::Corrupt(_))
    ));
    let (swl, serve_bytes) = serve_snapshot_at(20);
    let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
    assert!(matches!(
        FleetRun::resume(&swl, &fleet, router.as_mut(), &serve_bytes),
        Err(SnapshotError::Corrupt(_))
    ));
    let (_, start, len) = sections(&serve_bytes)[0];
    assert_eq!(serve_bytes[start], 2, "the RUN section opens with the kind");
    let retired = set_checksummed(&serve_bytes, start, len, 0, 1);
    assert!(matches!(
        resume_serve(&swl, &retired),
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
    // Sampled flips (every 7th byte) keep the three-replica half of
    // the sweep cheap; the one-machine half above is exhaustive over
    // the same format.
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

/// A ROUTER section claiming an affinity ring of `u64::MAX` replicas,
/// checksum repaired, must never size a ring from that count: the
/// resume either finishes with the pristine resume's report digest or
/// fails typed. A thawed run re-snapshots to the mutated bytes.
#[test]
fn hostile_affinity_ring_count_never_sizes_a_ring() {
    let (wl, fleet, bytes) = fleet_snapshot_at(40);
    let (_, start, len) = sections(&bytes)
        .into_iter()
        .find(|s| s.0 == 4)
        .expect("fleet snapshots carry a router section");
    assert_eq!(
        len, 12,
        "affinity state: u32 vnodes, then the u64 ring count"
    );
    let mut evil = bytes.clone();
    for i in 4..12 {
        evil = set_checksummed(&evil, start, len, i, 0xFF);
    }
    let finish = |bytes: &[u8]| -> Result<ReportDigest, SnapshotError> {
        let mut router = SessionAffinity::new();
        let mut run = FleetRun::resume(&wl, &fleet, &mut router, bytes)?;
        assert_eq!(
            run.snapshot(&router),
            bytes,
            "re-snapshot changed the bytes"
        );
        let mut serving = fleet3();
        while run.step(&mut serving, &mut router) {}
        Ok(digest_fleet_report(&run.into_report()))
    };
    let pristine = finish(&bytes).expect("pristine bytes thaw");
    if let Ok(digest) = finish(&evil) {
        assert_eq!(digest, pristine, "the hostile ring count changed routing");
    }
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

/// Sets `payload[i]` to `value` and repairs the section checksum so the
/// mutation reaches the structural validators instead of dying at the
/// hash.
fn set_checksummed(bytes: &[u8], start: usize, len: usize, i: usize, value: u8) -> Vec<u8> {
    let mut evil = bytes.to_vec();
    evil[start + i] = value;
    let sum = rpu_serve::snapshot::fnv1a(&evil[start..start + len]);
    evil[start + len..start + len + 8].copy_from_slice(&sum.to_le_bytes());
    evil
}

/// Flips `payload[i]`, checksum repaired (see [`set_checksummed`]).
fn mutate_checksummed(bytes: &[u8], start: usize, len: usize, i: usize) -> Vec<u8> {
    set_checksummed(bytes, start, len, i, !bytes[start + i])
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
        .expect("one-machine snapshots carry a core section");
    let mut thawed = 0u32;
    for i in 0..len {
        let evil = mutate_checksummed(&bytes, start, len, i);
        let mut router = RoundRobin::new();
        match FleetRun::resume(&wl, &machine(), &mut router, &evil) {
            Err(_) => {} // typed rejection — never a panic
            Ok(mut run) => {
                thawed += 1;
                // A mutation that still parses must yield a steppable
                // state (bounded: a mutated output length can
                // legitimately lengthen the run).
                let mut serving = machine();
                for _ in 0..5_000 {
                    if !run.step(&mut serving, &mut router) {
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
        // Sampled: the one-machine sweep above is exhaustive on the
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

/// Checksum-valid flips of the LIFECYCLE section's clocks — `now_s`,
/// the machine-seconds accrual and its anchor, and every pending
/// lifecycle event's time — must fail typed or thaw into a run that
/// steps to a report whose `machine_seconds` is finite and
/// non-negative. A resumed run accrues machine-seconds forward from its
/// anchor to each event it applies, so an anchor past the clock, or a
/// pending event before the clock or before the event ahead of it,
/// would run the accrual backwards. The kind and replica bytes are left
/// out: they reach the transition legality checks, not the clocks.
#[test]
fn checksummed_lifecycle_clock_mutations_are_rejected_or_accrue_forward() {
    let churn = churn_tape(3, 0xC4, 0.02, 4);
    let (wl, fleet, bytes) = churned_fleet_snapshot_at(20, &churn);
    let (_, start, len) = sections(&bytes)
        .into_iter()
        .find(|s| s.0 == 6)
        .expect("fleet snapshots carry a lifecycle section");
    let payload = &bytes[start..start + len];
    let f64_at = |at: usize| f64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    // Layout: replica count (8 bytes), one state byte per replica, then
    // now_s, ms_accrued, ms_anchor_s and the migration delay (8 each),
    // five u32 counts, the pending-event count (8) and each pending
    // event as at_s (8), replica (4), kind (1).
    let clocks = 8 + 3;
    let pending_at = clocks + 4 * 8 + 5 * 4;
    {
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        let run = FleetRun::resume(&wl, &fleet, router.as_mut(), &bytes).expect("pristine bytes");
        assert_eq!(
            f64_at(clocks).to_bits(),
            run.now_s().to_bits(),
            "now_s offset"
        );
    }
    let pending = u64::from_le_bytes(
        payload[pending_at..pending_at + 8]
            .try_into()
            .expect("8 bytes"),
    ) as usize;
    assert!(pending > 0, "the snapshot must still hold pending events");
    let mut targets: Vec<usize> = (clocks..clocks + 3 * 8).collect();
    for k in 0..pending {
        let at_s = pending_at + 8 + 13 * k;
        targets.extend(at_s..at_s + 8);
    }
    let (mut rejected, mut thawed) = (0u32, 0u32);
    for i in targets {
        let evil = mutate_checksummed(&bytes, start, len, i);
        let mut router: Box<dyn Router> = Box::new(SessionAffinity::new());
        match FleetRun::resume(&wl, &fleet, router.as_mut(), &evil) {
            Err(_) => rejected += 1,
            Ok(mut run) => {
                thawed += 1;
                let mut serving = fleet3();
                while run.step(&mut serving, router.as_mut()) {}
                let machine_s = run.into_report().machine_seconds;
                assert!(
                    machine_s.is_finite() && machine_s >= 0.0,
                    "flipping lifecycle byte {i} accrued {machine_s:e} machine-seconds"
                );
            }
        }
    }
    assert!(rejected > 0, "no clock mutation was rejected");
    assert!(thawed > 0, "no clock mutation thawed: sweep too weak?");
}
