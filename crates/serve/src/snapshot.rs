//! Versioned, dependency-free binary snapshots.
//!
//! A snapshot freezes a mid-flight serving run — scheduler cores and
//! their serving batches, the arrival source's RNG and pending tape,
//! router state — into a plain `Vec<u8>` that a later process restores
//! bit-identically. The format is deliberately dumb: no external
//! serialisation crates, just little-endian primitives inside
//! checksummed sections, so corruption surfaces as a typed
//! [`SnapshotError`] instead of a silently wrong resume.
//!
//! # On-disk format
//!
//! | Offset | Bytes | Field |
//! |---|---|---|
//! | 0 | 8 | magic `RPUSNAP1` |
//! | 8 | 4 | format version (little-endian `u32`) |
//! | 12 | 8 + n | crate version (length-prefixed UTF-8) |
//! | … | — | sections, back to back |
//!
//! Each section is:
//!
//! | Bytes | Field |
//! |---|---|
//! | 1 | section id |
//! | 8 | payload length (little-endian `u64`) |
//! | len | payload (little-endian primitives) |
//! | 8 | FNV-1a 64 checksum of the payload |
//!
//! Writers and readers must agree on section order and contents —
//! there is no self-describing schema. The format version is bumped on
//! any layout change; the crate version is recorded for diagnostics
//! and checked exactly, because snapshot equivalence is only
//! guaranteed between identical builds.

use std::error::Error;
use std::fmt;

/// Section ids used by run snapshots, in stream order.
pub(crate) mod section {
    /// Run header: snapshot kind, workload fingerprint, event count,
    /// replica count.
    pub const RUN: u8 = 1;
    /// The arrival source's dynamic state.
    pub const SOURCE: u8 = 2;
    /// One scheduler core (repeated per replica, in replica order).
    pub const CORE: u8 = 3;
    /// Router state (fleet snapshots only).
    pub const ROUTER: u8 = 4;
    /// The fleet's command log recorded so far: router picks and
    /// indexed lifecycle transitions (fleet snapshots only; written
    /// last).
    pub const LOG: u8 = 5;
    /// Replica lifecycle state: per-slot states, pending fleet events,
    /// displaced requests and machine-seconds accounting (fleet
    /// snapshots only; written between RUN and SOURCE).
    pub const LIFECYCLE: u8 = 6;
}

/// Snapshot kind tag: single-machine run.
pub(crate) const KIND_SERVE: u8 = 1;
/// Snapshot kind tag: fleet run.
pub(crate) const KIND_FLEET: u8 = 2;

/// Fingerprint of a workload's full static description. Snapshots
/// store this instead of the workload itself (class specs hold
/// `&'static str` names that cannot round-trip through bytes); restore
/// demands the caller supply an identical workload.
pub(crate) fn workload_fingerprint(workload: &crate::arrivals::Workload) -> u64 {
    fnv1a(format!("{workload:?}").as_bytes())
}

/// Magic bytes opening every snapshot.
pub const MAGIC: [u8; 8] = *b"RPUSNAP1";

/// Layout version written into (and demanded from) every snapshot.
/// Version 2 introduced the slab-backed core layout (raw slab cells,
/// free chain and active key list replacing the dense active vector).
/// Version 3 added the fleet LIFECYCLE section (replica states,
/// pending fleet events, displaced requests, machine-seconds) and the
/// lifecycle/re-route command-log tags.
/// Version 4 shrank the command log to router picks plus lifecycle
/// transitions tagged with their event index, made the LOG section
/// fleet-only, and dropped the RUN section's per-replica assignment
/// counts (reports now derive them from the picks).
/// Version 5 replaced the slab-backed core layout with a dense batch:
/// each resident slot (request, ready time, context) in admission
/// order, with no cell keys or free chain.
pub const FORMAT_VERSION: u32 = 5;

/// Why a snapshot could not be restored. Every decode failure is one
/// of these — restoring never panics on hostile bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The leading magic bytes are not `RPUSNAP1`.
    BadMagic,
    /// The snapshot was written by a different format or crate version.
    VersionMismatch {
        /// Version recorded in the snapshot.
        found: String,
        /// Version this build expects.
        expected: String,
    },
    /// A section's payload does not hash to its recorded checksum.
    ChecksumMismatch {
        /// Id of the failing section.
        section: u8,
    },
    /// The byte stream ends before the declared content does.
    Truncated,
    /// A section id other than the expected one was encountered.
    SectionMismatch {
        /// Id found in the stream.
        found: u8,
        /// Id the reader was asked for.
        expected: u8,
    },
    /// A checksum-valid payload decoded to something structurally
    /// impossible (bad enum tag, count exceeding the payload, …).
    Corrupt(&'static str),
    /// The snapshot was taken against a different workload than the
    /// one offered at restore time.
    WorkloadMismatch,
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::BadMagic => write!(f, "not a snapshot (bad magic)"),
            Self::VersionMismatch { found, expected } => {
                write!(f, "snapshot version {found} incompatible with {expected}")
            }
            Self::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            Self::Truncated => write!(f, "snapshot truncated"),
            Self::SectionMismatch { found, expected } => {
                write!(f, "expected section {expected}, found {found}")
            }
            Self::Corrupt(what) => write!(f, "corrupt snapshot: {what}"),
            Self::WorkloadMismatch => {
                write!(f, "snapshot was taken against a different workload")
            }
        }
    }
}

impl Error for SnapshotError {}

/// FNV-1a 64-bit hash — the checksum and digest primitive used
/// throughout the snapshot layer. Not cryptographic; it detects the
/// accidental corruption (bit rot, truncation, partial writes) that
/// threatens checkpoint files.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Builds a snapshot byte stream: header first, then checksummed
/// sections. Primitives may only be written inside an open section.
///
/// ```
/// use rpu_serve::snapshot::{SnapshotReader, SnapshotWriter};
///
/// let mut w = SnapshotWriter::new();
/// w.begin_section(7);
/// w.put_u32(42);
/// w.put_f64(1.5);
/// w.end_section();
/// let bytes = w.finish();
///
/// let mut r = SnapshotReader::new(&bytes).unwrap();
/// r.begin_section(7).unwrap();
/// assert_eq!(r.get_u32().unwrap(), 42);
/// assert_eq!(r.get_f64().unwrap(), 1.5);
/// r.end_section().unwrap();
/// ```
#[derive(Debug)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
    /// `(section id, offset of the length field)` while a section is
    /// open.
    open: Option<(u8, usize)>,
}

impl Default for SnapshotWriter {
    fn default() -> Self {
        Self::new()
    }
}

impl SnapshotWriter {
    /// A writer with the header (magic, format version, crate version)
    /// already emitted.
    #[must_use]
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        buf.extend_from_slice(&MAGIC);
        buf.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        let crate_version = env!("CARGO_PKG_VERSION").as_bytes();
        buf.extend_from_slice(&(crate_version.len() as u64).to_le_bytes());
        buf.extend_from_slice(crate_version);
        Self { buf, open: None }
    }

    /// Opens a section. Panics if one is already open (writer misuse is
    /// a bug in this crate, not a data error).
    pub fn begin_section(&mut self, id: u8) {
        assert!(self.open.is_none(), "section {id} opened inside another");
        self.buf.push(id);
        let len_at = self.buf.len();
        self.buf.extend_from_slice(&0u64.to_le_bytes());
        self.open = Some((id, len_at));
    }

    /// Closes the open section, patching its length and appending the
    /// payload checksum.
    pub fn end_section(&mut self) {
        let (_, len_at) = self.open.take().expect("no section open");
        let payload_start = len_at + 8;
        let len = (self.buf.len() - payload_start) as u64;
        self.buf[len_at..payload_start].copy_from_slice(&len.to_le_bytes());
        let checksum = fnv1a(&self.buf[payload_start..]);
        self.buf.extend_from_slice(&checksum.to_le_bytes());
    }

    /// Finishes the stream. Panics if a section is still open.
    #[must_use]
    pub fn finish(self) -> Vec<u8> {
        assert!(self.open.is_none(), "finish() with a section open");
        self.buf
    }

    fn payload(&mut self) -> &mut Vec<u8> {
        assert!(self.open.is_some(), "write outside any section");
        &mut self.buf
    }

    /// Writes one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.payload().push(v);
    }

    /// Writes a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.payload().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.payload().extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64`.
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Writes an `f64` by bit pattern — infinities, NaNs and signed
    /// zeros round-trip exactly.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Writes a `bool` as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Writes an `Option<f64>` as a presence byte plus the bits.
    pub fn put_opt_f64(&mut self, v: Option<f64>) {
        match v {
            Some(x) => {
                self.put_u8(1);
                self.put_f64(x);
            }
            None => self.put_u8(0),
        }
    }

    /// Writes a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_usize(bytes.len());
        self.payload().extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Decodes a snapshot byte stream, validating the header up front and
/// each section's bounds and checksum as it is entered.
#[derive(Debug)]
pub struct SnapshotReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// End of the open section's payload, or `usize::MAX` outside one.
    section_end: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Validates magic and versions; positions the reader at the first
    /// section.
    pub fn new(bytes: &'a [u8]) -> Result<Self, SnapshotError> {
        if bytes.len() < MAGIC.len() {
            return Err(SnapshotError::Truncated);
        }
        if bytes[..MAGIC.len()] != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let mut r = Self {
            bytes,
            pos: MAGIC.len(),
            section_end: usize::MAX,
        };
        let format = u32::from_le_bytes(r.take::<4>()?);
        if format != FORMAT_VERSION {
            return Err(SnapshotError::VersionMismatch {
                found: format!("format {format}"),
                expected: format!("format {FORMAT_VERSION}"),
            });
        }
        let len = u64::from_le_bytes(r.take::<8>()?) as usize;
        if r.bytes.len() - r.pos < len {
            return Err(SnapshotError::Truncated);
        }
        let crate_version = std::str::from_utf8(&r.bytes[r.pos..r.pos + len])
            .map_err(|_| SnapshotError::Corrupt("crate version is not UTF-8"))?;
        let expected = env!("CARGO_PKG_VERSION");
        if crate_version != expected {
            return Err(SnapshotError::VersionMismatch {
                found: crate_version.to_string(),
                expected: expected.to_string(),
            });
        }
        r.pos += len;
        Ok(r)
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], SnapshotError> {
        let limit = self.bytes.len().min(self.section_end);
        if limit - self.pos < N {
            return Err(if self.section_end == usize::MAX {
                SnapshotError::Truncated
            } else {
                // The section's bytes are all present and checksummed;
                // running off its end means the payload itself lies.
                SnapshotError::Corrupt("read past section end")
            });
        }
        let mut out = [0u8; N];
        out.copy_from_slice(&self.bytes[self.pos..self.pos + N]);
        self.pos += N;
        Ok(out)
    }

    /// Enters the next section, which must carry `id`. Validates its
    /// bounds and checksum before any payload is handed out.
    pub fn begin_section(&mut self, id: u8) -> Result<(), SnapshotError> {
        assert_eq!(
            self.section_end,
            usize::MAX,
            "section opened inside another"
        );
        let found = u8::from_le_bytes(self.take::<1>()?);
        if found != id {
            return Err(SnapshotError::SectionMismatch {
                found,
                expected: id,
            });
        }
        let len = u64::from_le_bytes(self.take::<8>()?) as usize;
        let remaining = self.bytes.len() - self.pos;
        // Payload plus its 8-byte trailing checksum must both be there.
        if remaining < len || remaining - len < 8 {
            return Err(SnapshotError::Truncated);
        }
        let payload = &self.bytes[self.pos..self.pos + len];
        let mut stored = [0u8; 8];
        stored.copy_from_slice(&self.bytes[self.pos + len..self.pos + len + 8]);
        if fnv1a(payload) != u64::from_le_bytes(stored) {
            return Err(SnapshotError::ChecksumMismatch { section: id });
        }
        self.section_end = self.pos + len;
        Ok(())
    }

    /// Leaves the open section. The payload must have been consumed
    /// exactly — leftover bytes mean writer and reader disagree on the
    /// schema.
    pub fn end_section(&mut self) -> Result<(), SnapshotError> {
        assert_ne!(self.section_end, usize::MAX, "no section open");
        if self.pos != self.section_end {
            return Err(SnapshotError::Corrupt("section payload not fully consumed"));
        }
        self.section_end = usize::MAX;
        self.pos += 8; // skip the checksum, validated at begin_section
        Ok(())
    }

    /// `true` once every section has been consumed.
    #[must_use]
    pub fn is_exhausted(&self) -> bool {
        self.section_end == usize::MAX && self.pos == self.bytes.len()
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, SnapshotError> {
        Ok(u8::from_le_bytes(self.take::<1>()?))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, SnapshotError> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, SnapshotError> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    /// Reads a `u64`-encoded `usize`.
    pub fn get_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupt("count exceeds usize"))
    }

    /// Reads an element count that must be collateralised by at least
    /// `min_bytes_each` payload bytes per element, so hostile counts
    /// cannot provoke huge allocations.
    pub fn get_count(&mut self, min_bytes_each: usize) -> Result<usize, SnapshotError> {
        let n = self.get_usize()?;
        let left = self.section_end.min(self.bytes.len()) - self.pos;
        if n.checked_mul(min_bytes_each.max(1))
            .is_none_or(|need| need > left)
        {
            return Err(SnapshotError::Corrupt("count exceeds section payload"));
        }
        Ok(n)
    }

    /// Reads an `f64` by bit pattern.
    pub fn get_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Reads a `bool`, rejecting any byte other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(SnapshotError::Corrupt("bool byte out of range")),
        }
    }

    /// Reads an `Option<f64>`.
    pub fn get_opt_f64(&mut self) -> Result<Option<f64>, SnapshotError> {
        if self.get_bool()? {
            Ok(Some(self.get_f64()?))
        } else {
            Ok(None)
        }
    }

    /// Reads a length-prefixed byte string. The length is collateral
    /// checked like [`SnapshotReader::get_count`].
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, SnapshotError> {
        let n = self.get_count(1)?;
        let out = self.bytes[self.pos..self.pos + n].to_vec();
        self.pos += n;
        Ok(out)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, SnapshotError> {
        String::from_utf8(self.get_bytes()?)
            .map_err(|_| SnapshotError::Corrupt("string is not UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip() -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.begin_section(1);
        w.put_u8(7);
        w.put_u32(u32::MAX);
        w.put_u64(0xDEAD_BEEF_CAFE_F00D);
        w.put_f64(f64::INFINITY);
        w.put_f64(f64::NEG_INFINITY);
        w.put_f64(-0.0);
        w.put_bool(true);
        w.put_opt_f64(None);
        w.put_opt_f64(Some(2.5));
        w.end_section();
        w.begin_section(2);
        w.put_usize(3);
        w.end_section();
        w.finish()
    }

    #[test]
    fn primitives_round_trip_exactly() {
        let bytes = round_trip();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert_eq!(r.get_u8().unwrap(), 7);
        assert_eq!(r.get_u32().unwrap(), u32::MAX);
        assert_eq!(r.get_u64().unwrap(), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(r.get_f64().unwrap(), f64::INFINITY);
        assert_eq!(r.get_f64().unwrap(), f64::NEG_INFINITY);
        assert!(r.get_f64().unwrap().is_sign_negative());
        assert!(r.get_bool().unwrap());
        assert_eq!(r.get_opt_f64().unwrap(), None);
        assert_eq!(r.get_opt_f64().unwrap(), Some(2.5));
        r.end_section().unwrap();
        r.begin_section(2).unwrap();
        assert_eq!(r.get_usize().unwrap(), 3);
        r.end_section().unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = round_trip();
        bytes[0] ^= 0xFF;
        assert_eq!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::BadMagic
        );
    }

    #[test]
    fn short_stream_is_truncated_not_bad_magic() {
        assert_eq!(
            SnapshotReader::new(b"RPU").unwrap_err(),
            SnapshotError::Truncated
        );
    }

    #[test]
    fn format_version_mismatch_is_typed() {
        let mut bytes = round_trip();
        bytes[8] = 0xFE; // low byte of the format version
        assert!(matches!(
            SnapshotReader::new(&bytes).unwrap_err(),
            SnapshotError::VersionMismatch { .. }
        ));
    }

    #[test]
    fn payload_corruption_is_a_checksum_mismatch() {
        let mut bytes = round_trip();
        let n = bytes.len();
        // Flip a byte inside the last section's payload (before its
        // trailing checksum).
        bytes[n - 10] ^= 0x01;
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        let _ = (
            r.get_u8(),
            r.get_u32(),
            r.get_u64(),
            r.get_f64(),
            r.get_f64(),
            r.get_f64(),
            r.get_bool(),
            r.get_opt_f64(),
            r.get_opt_f64(),
        );
        r.end_section().unwrap();
        assert_eq!(
            r.begin_section(2).unwrap_err(),
            SnapshotError::ChecksumMismatch { section: 2 }
        );
    }

    #[test]
    fn truncated_section_is_typed() {
        let bytes = round_trip();
        let cut = &bytes[..bytes.len() - 4];
        let mut r = SnapshotReader::new(cut).unwrap();
        r.begin_section(1).unwrap();
        let _ = (
            r.get_u8(),
            r.get_u32(),
            r.get_u64(),
            r.get_f64(),
            r.get_f64(),
            r.get_f64(),
            r.get_bool(),
            r.get_opt_f64(),
            r.get_opt_f64(),
        );
        r.end_section().unwrap();
        assert_eq!(r.begin_section(2).unwrap_err(), SnapshotError::Truncated);
    }

    #[test]
    fn wrong_section_id_is_typed() {
        let bytes = round_trip();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        assert_eq!(
            r.begin_section(9).unwrap_err(),
            SnapshotError::SectionMismatch {
                found: 1,
                expected: 9
            }
        );
    }

    #[test]
    fn hostile_count_cannot_demand_huge_allocations() {
        let mut w = SnapshotWriter::new();
        w.begin_section(1);
        w.put_usize(usize::MAX / 2);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(1).unwrap();
        assert_eq!(
            r.get_count(4).unwrap_err(),
            SnapshotError::Corrupt("count exceeds section payload")
        );
    }

    #[test]
    fn strings_and_bytes_round_trip() {
        let mut w = SnapshotWriter::new();
        w.begin_section(3);
        w.put_str("==== fig4 — mémoire\n");
        w.put_bytes(&[0, 255, 7]);
        w.put_str("");
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(3).unwrap();
        assert_eq!(r.get_str().unwrap(), "==== fig4 — mémoire\n");
        assert_eq!(r.get_bytes().unwrap(), vec![0, 255, 7]);
        assert_eq!(r.get_str().unwrap(), "");
        r.end_section().unwrap();
        assert!(r.is_exhausted());
    }

    #[test]
    fn hostile_string_length_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(3);
        w.put_usize(1 << 40); // length prefix with no bytes behind it
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(3).unwrap();
        assert_eq!(
            r.get_str().unwrap_err(),
            SnapshotError::Corrupt("count exceeds section payload")
        );
    }

    #[test]
    fn non_utf8_string_is_rejected() {
        let mut w = SnapshotWriter::new();
        w.begin_section(3);
        w.put_bytes(&[0xFF, 0xFE]);
        w.end_section();
        let bytes = w.finish();
        let mut r = SnapshotReader::new(&bytes).unwrap();
        r.begin_section(3).unwrap();
        assert_eq!(
            r.get_str().unwrap_err(),
            SnapshotError::Corrupt("string is not UTF-8")
        );
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a(b""), 0xCBF2_9CE4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xAF63_DC4C_8601_EC8C);
        assert_eq!(fnv1a(b"foobar"), 0x85944171F73967E8);
    }
}
