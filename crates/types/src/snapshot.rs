//! Checkpoint/restore for long-running online runs: serialisable scheduler
//! state.
//!
//! The paper's online algorithms are *stateful* competitive schedulers whose
//! committed frontier is never revised; suspending and resuming a run must
//! therefore not perturb a single decision.  This module provides the
//! workspace-wide building blocks for that:
//!
//! * [`StateBlob`] — a versioned, self-describing snapshot of one run's
//!   dynamic state, with a binary wire format
//!   ([`StateBlob::to_bytes`]/[`StateBlob::from_bytes`]: magic, format
//!   version, kind, state version, length-prefixed payload, FNV-1a
//!   checksum).  Decoding is total: truncated or corrupted bytes produce a
//!   [`SnapshotError`], never a panic.
//! * [`BlobWriter`]/[`BlobReader`] — the hand-rolled little-endian
//!   primitives payloads are built from.  The build environment has no
//!   serde, so every field is written explicitly; readers bounds-check
//!   every access.
//! * [`SnapshotPart`] — a component that knows how to encode itself into a
//!   payload and decode itself back.  Implemented here for the primitive
//!   types and the model types ([`Job`], [`Segment`], [`Schedule`], …);
//!   the algorithm crates implement it for their internal structures
//!   (partitions, plan caches, speed indexes).
//!
//! The run-state contract built from these parts is
//! [`LogCheckpointable`](crate::seglog::LogCheckpointable): a blob holds a
//! run's *live* state plus a cursor into the run's append-only
//! [`SegmentLog`](crate::seglog::SegmentLog), which holds the committed
//! frontier.  All seven online scheduler states in the workspace implement
//! it.  The restore-equivalence integration tests
//! (`tests/incremental_equivalence.rs`) pin it for every algorithm: a run
//! suspended and restored at arbitrary cut points — including mid-burst —
//! produces the same decisions, duals and schedule as the uninterrupted
//! run.  On top of it, `pss-sim` builds checkpoint-at-interval streaming
//! and the crash drill (kill a worker, restore from the last checkpoint,
//! replay the delta).

use crate::job::{Job, JobId};
use crate::segment::{Schedule, Segment};

/// Magic bytes opening every serialised [`StateBlob`].
const BLOB_MAGIC: [u8; 4] = *b"PSSC";

/// Version of the binary container format itself (bumped only if the
/// framing — not a particular state's payload — changes shape).
const BLOB_FORMAT_VERSION: u16 = 1;

/// Hard cap on the decoded kind-string length; real kinds are a few bytes,
/// so anything larger is corruption.
const MAX_KIND_LEN: usize = 256;

/// An error produced while decoding a snapshot.
///
/// Decoding is *total*: malformed input of any shape — truncated buffers,
/// bad magic, checksum mismatches, out-of-range lengths, unknown versions —
/// is reported through this type and never panics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer ended before the expected data (truncation).
    Truncated,
    /// The container framing is malformed (bad magic, bad checksum,
    /// impossible lengths).
    Corrupted(String),
    /// The blob is well-formed but describes a different state kind than
    /// the one being restored.
    WrongKind {
        /// The kind the caller expected.
        expected: String,
        /// The kind recorded in the blob.
        found: String,
    },
    /// The blob's state version is not understood by this build.
    UnsupportedVersion(u16),
    /// The payload decoded structurally but violates an invariant of the
    /// state being restored (e.g. mismatched table lengths).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::Truncated => write!(f, "snapshot truncated"),
            SnapshotError::Corrupted(why) => write!(f, "snapshot corrupted: {why}"),
            SnapshotError::WrongKind { expected, found } => {
                write!(
                    f,
                    "snapshot kind mismatch: expected {expected}, found {found}"
                )
            }
            SnapshotError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot state version {v}")
            }
            SnapshotError::Invalid(why) => write!(f, "invalid snapshot state: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<SnapshotError> for crate::error::ScheduleError {
    fn from(e: SnapshotError) -> Self {
        crate::error::ScheduleError::Internal(format!("checkpoint: {e}"))
    }
}

/// FNV-1a 64-bit hash, the integrity checksum of the wire format (this is a
/// corruption check, not a cryptographic signature).
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A versioned snapshot of one run's complete dynamic state.
///
/// A blob is self-describing: it records which *kind* of state it holds
/// (e.g. `"replan"`, `"pd"`, `"bkp"`) and that state's payload version, so
/// [`restore_with_log`](crate::seglog::LogCheckpointable::restore_with_log)
/// can reject blobs from the wrong algorithm or an incompatible build
/// instead of misinterpreting them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateBlob {
    kind: String,
    version: u16,
    payload: Vec<u8>,
}

impl StateBlob {
    /// Wraps a payload with its kind tag and state version.
    pub fn new(kind: impl Into<String>, version: u16, payload: Vec<u8>) -> Self {
        Self {
            kind: kind.into(),
            version,
            payload,
        }
    }

    /// The state kind recorded in the blob.
    pub fn kind(&self) -> &str {
        &self.kind
    }

    /// The payload's state version.
    pub fn version(&self) -> u16 {
        self.version
    }

    /// The raw payload bytes.
    pub fn payload(&self) -> &[u8] {
        &self.payload
    }

    /// Size of the serialised blob in bytes (header + payload + checksum) —
    /// what `to_bytes` produces, without serialising.
    pub fn size_bytes(&self) -> usize {
        // magic + format version + kind len + kind + state version +
        // payload len + payload + checksum.
        4 + 2 + 4 + self.kind.len() + 2 + 8 + self.payload.len() + 8
    }

    /// Serialises the blob into the binary wire format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.size_bytes());
        out.extend_from_slice(&BLOB_MAGIC);
        out.extend_from_slice(&BLOB_FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&(self.kind.len() as u32).to_le_bytes());
        out.extend_from_slice(self.kind.as_bytes());
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let checksum = fnv1a(&out);
        out.extend_from_slice(&checksum.to_le_bytes());
        out
    }

    /// Parses the binary wire format back into a blob.
    ///
    /// Any malformation — truncation, bad magic, unknown format version, a
    /// checksum mismatch (every bit flip is caught), trailing garbage —
    /// returns an error; this function never panics.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = BlobReader::new(bytes);
        let magic = r.read_exact(4)?;
        if magic != BLOB_MAGIC {
            return Err(SnapshotError::Corrupted("bad magic".into()));
        }
        let format = r.read_u16()?;
        if format != BLOB_FORMAT_VERSION {
            return Err(SnapshotError::Corrupted(format!(
                "unknown container format version {format}"
            )));
        }
        let kind_len = r.read_u32()? as usize;
        if kind_len > MAX_KIND_LEN {
            return Err(SnapshotError::Corrupted(format!(
                "kind length {kind_len} out of range"
            )));
        }
        let kind_bytes = r.read_exact(kind_len)?;
        let kind = std::str::from_utf8(kind_bytes)
            .map_err(|_| SnapshotError::Corrupted("kind is not UTF-8".into()))?
            .to_string();
        let version = r.read_u16()?;
        let payload_len = r.read_u64()? as usize;
        if payload_len > r.remaining() {
            return Err(SnapshotError::Truncated);
        }
        let payload = r.read_exact(payload_len)?.to_vec();
        let checked = r.position();
        let checksum = r.read_u64()?;
        if r.remaining() != 0 {
            return Err(SnapshotError::Corrupted("trailing bytes".into()));
        }
        let checked_bytes = bytes.get(..checked).ok_or(SnapshotError::Truncated)?;
        if fnv1a(checked_bytes) != checksum {
            return Err(SnapshotError::Corrupted("checksum mismatch".into()));
        }
        Ok(Self {
            kind,
            version,
            payload,
        })
    }

    /// Checks the blob's kind and state version against what a restorer
    /// expects, returning a [`BlobReader`] over the payload.  The helper
    /// every restore implementation starts with.
    pub fn expect(&self, kind: &str, version: u16) -> Result<BlobReader<'_>, SnapshotError> {
        if self.kind != kind {
            return Err(SnapshotError::WrongKind {
                expected: kind.into(),
                found: self.kind.clone(),
            });
        }
        if self.version != version {
            return Err(SnapshotError::UnsupportedVersion(self.version));
        }
        Ok(BlobReader::new(&self.payload))
    }
}

/// Little-endian payload writer: the encoding half of the hand-rolled
/// codec.  All integers are fixed-width little-endian; floats are their
/// IEEE-754 bit patterns (so restores are *bit*-exact, including signed
/// zeros, infinities and NaN payloads); collections are length-prefixed.
#[derive(Debug, Default)]
pub struct BlobWriter {
    buf: Vec<u8>,
}

impl BlobWriter {
    /// A fresh, empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, returning the payload bytes.
    pub fn into_payload(self) -> Vec<u8> {
        self.buf
    }

    /// Writes a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Writes a `bool` as one byte (0/1).
    pub fn write_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Writes a `u16`.
    pub fn write_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u32`.
    pub fn write_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `u64`.
    pub fn write_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Writes a `usize` as a `u64` (platform-independent).
    pub fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }

    /// Writes an `f64` as its IEEE-754 bit pattern.
    pub fn write_f64(&mut self, v: f64) {
        self.write_u64(v.to_bits());
    }

    /// Writes a length-prefixed byte slice.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        self.buf.extend_from_slice(bytes);
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Writes any [`SnapshotPart`].
    pub fn write_part<T: SnapshotPart>(&mut self, part: &T) {
        part.encode(self);
    }

    /// Writes a length-prefixed sequence of parts.
    pub fn write_seq<T: SnapshotPart>(&mut self, items: &[T]) {
        self.write_u64(items.len() as u64);
        for item in items {
            item.encode(self);
        }
    }
}

/// Bounds-checked payload reader: the decoding half of the codec.  Every
/// read validates the remaining length first, so truncated or corrupted
/// payloads surface as [`SnapshotError`]s, never as panics.
#[derive(Debug)]
pub struct BlobReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> BlobReader<'a> {
    /// A reader over the given payload.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Returns an error unless the payload was consumed exactly.
    pub fn finish(&self) -> Result<(), SnapshotError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(SnapshotError::Corrupted(format!(
                "{} unread payload bytes",
                self.remaining()
            )))
        }
    }

    fn read_exact(&mut self, n: usize) -> Result<&'a [u8], SnapshotError> {
        // `remaining() < n` already implies the range is in bounds; the
        // `.get` keeps the read total even if that reasoning rots.
        if self.remaining() < n {
            return Err(SnapshotError::Truncated);
        }
        let out = self
            .buf
            .get(self.pos..self.pos + n)
            .ok_or(SnapshotError::Truncated)?;
        self.pos += n;
        Ok(out)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self) -> Result<u8, SnapshotError> {
        match self.read_exact(1)? {
            &[b] => Ok(b),
            _ => Err(SnapshotError::Truncated),
        }
    }

    /// Reads a `bool` (rejecting bytes other than 0/1).
    pub fn read_bool(&mut self) -> Result<bool, SnapshotError> {
        match self.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupted(format!(
                "invalid bool byte {other}"
            ))),
        }
    }

    /// Reads a `u16`.
    pub fn read_u16(&mut self) -> Result<u16, SnapshotError> {
        let b: [u8; 2] = self
            .read_exact(2)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u16::from_le_bytes(b))
    }

    /// Reads a `u32`.
    pub fn read_u32(&mut self) -> Result<u32, SnapshotError> {
        let b: [u8; 4] = self
            .read_exact(4)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Reads a `u64`.
    pub fn read_u64(&mut self) -> Result<u64, SnapshotError> {
        let b: [u8; 8] = self
            .read_exact(8)?
            .try_into()
            .map_err(|_| SnapshotError::Truncated)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Reads a `usize` (stored as `u64`), rejecting values that cannot fit.
    pub fn read_usize(&mut self) -> Result<usize, SnapshotError> {
        let v = self.read_u64()?;
        usize::try_from(v).map_err(|_| SnapshotError::Corrupted(format!("usize overflow: {v}")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn read_f64(&mut self) -> Result<f64, SnapshotError> {
        Ok(f64::from_bits(self.read_u64()?))
    }

    /// Reads a sequence length, validating it against the bytes actually
    /// remaining (`min_elem_bytes` per element) so a corrupted length can
    /// neither over-allocate nor run past the end.
    pub fn read_len(&mut self, min_elem_bytes: usize) -> Result<usize, SnapshotError> {
        let len = self.read_usize()?;
        if len
            .checked_mul(min_elem_bytes.max(1))
            .is_none_or(|total| total > self.remaining())
        {
            return Err(SnapshotError::Truncated);
        }
        Ok(len)
    }

    /// Reads a length-prefixed byte slice.
    pub fn read_bytes(&mut self) -> Result<&'a [u8], SnapshotError> {
        let len = self.read_len(1)?;
        self.read_exact(len)
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<String, SnapshotError> {
        let bytes = self.read_bytes()?;
        std::str::from_utf8(bytes)
            .map(|s| s.to_string())
            .map_err(|_| SnapshotError::Corrupted("string is not UTF-8".into()))
    }

    /// Reads any [`SnapshotPart`].
    pub fn read_part<T: SnapshotPart>(&mut self) -> Result<T, SnapshotError> {
        T::decode(self)
    }

    /// Reads a length-prefixed sequence of parts.
    pub fn read_seq<T: SnapshotPart>(&mut self) -> Result<Vec<T>, SnapshotError> {
        let len = self.read_len(1)?;
        let mut out = Vec::with_capacity(len.min(self.remaining()));
        for _ in 0..len {
            out.push(T::decode(self)?);
        }
        Ok(out)
    }
}

/// A component of a run's state that can encode itself into a payload and
/// decode itself back — the building block checkpoint payloads are
/// assembled from.  Decoding must be total (errors, never panics) and
/// round-trip exact: `decode(encode(x)) == x` bit for bit.
pub trait SnapshotPart: Sized {
    /// Appends this value's encoding to the writer.
    fn encode(&self, w: &mut BlobWriter);

    /// Decodes one value from the reader.
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError>;
}

impl SnapshotPart for u64 {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_u64(*self);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        r.read_u64()
    }
}

impl SnapshotPart for usize {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(*self);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        r.read_usize()
    }
}

impl SnapshotPart for f64 {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_f64(*self);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        r.read_f64()
    }
}

impl SnapshotPart for bool {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_bool(*self);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        r.read_bool()
    }
}

impl<T: SnapshotPart> SnapshotPart for Option<T> {
    fn encode(&self, w: &mut BlobWriter) {
        match self {
            None => w.write_bool(false),
            Some(v) => {
                w.write_bool(true);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        if r.read_bool()? {
            Ok(Some(T::decode(r)?))
        } else {
            Ok(None)
        }
    }
}

impl<T: SnapshotPart> SnapshotPart for Vec<T> {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_seq(self);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        r.read_seq()
    }
}

impl<A: SnapshotPart, B: SnapshotPart> SnapshotPart for (A, B) {
    fn encode(&self, w: &mut BlobWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: SnapshotPart, B: SnapshotPart, C: SnapshotPart> SnapshotPart for (A, B, C) {
    fn encode(&self, w: &mut BlobWriter) {
        self.0.encode(w);
        self.1.encode(w);
        self.2.encode(w);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl SnapshotPart for JobId {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.index());
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(JobId(r.read_usize()?))
    }
}

impl SnapshotPart for Job {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.id.index());
        w.write_f64(self.release);
        w.write_f64(self.deadline);
        w.write_f64(self.work);
        w.write_f64(self.value);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let id = r.read_usize()?;
        let release = r.read_f64()?;
        let deadline = r.read_f64()?;
        let work = r.read_f64()?;
        let value = r.read_f64()?;
        Ok(Job::new(id, release, deadline, work, value))
    }
}

impl SnapshotPart for Segment {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.machine);
        w.write_f64(self.start);
        w.write_f64(self.end);
        w.write_f64(self.speed);
        w.write_part(&self.job);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Segment {
            machine: r.read_usize()?,
            start: r.read_f64()?,
            end: r.read_f64()?,
            speed: r.read_f64()?,
            job: r.read_part()?,
        })
    }
}

impl SnapshotPart for Schedule {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.machines);
        w.write_seq(&self.segments);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        // Restored verbatim (no re-push): `Schedule::push` drops degenerate
        // segments, and a restore must reproduce the segment list bit for
        // bit, not re-filter it.
        let machines = r.read_usize()?;
        let segments = r.read_seq()?;
        Ok(Schedule { machines, segments })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip_bit_exactly() {
        let mut w = BlobWriter::new();
        w.write_u8(7);
        w.write_bool(true);
        w.write_u16(0xBEEF);
        w.write_u32(0xDEAD_BEEF);
        w.write_u64(u64::MAX);
        w.write_usize(12345);
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            w.write_f64(v);
        }
        w.write_str("hello");
        let payload = w.into_payload();
        let mut r = BlobReader::new(&payload);
        assert_eq!(r.read_u8().unwrap(), 7);
        assert!(r.read_bool().unwrap());
        assert_eq!(r.read_u16().unwrap(), 0xBEEF);
        assert_eq!(r.read_u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.read_u64().unwrap(), u64::MAX);
        assert_eq!(r.read_usize().unwrap(), 12345);
        for v in [0.0, -0.0, 1.5, f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            assert_eq!(r.read_f64().unwrap().to_bits(), v.to_bits());
        }
        assert_eq!(r.read_str().unwrap(), "hello");
        r.finish().unwrap();
    }

    #[test]
    fn schedule_and_jobs_round_trip() {
        let mut s = Schedule::empty(2);
        s.push(Segment::work(0, 0.0, 1.5, 2.0, JobId(3)));
        s.push(Segment::work(1, 1.0, 2.0, 0.5, JobId(0)));
        let job = Job::new(4, 0.25, 3.5, 1.25, 9.0);
        let mut w = BlobWriter::new();
        w.write_part(&s);
        w.write_part(&job);
        let payload = w.into_payload();
        let mut r = BlobReader::new(&payload);
        let s2: Schedule = r.read_part().unwrap();
        let j2: Job = r.read_part().unwrap();
        r.finish().unwrap();
        assert_eq!(s.segments, s2.segments);
        assert_eq!(s.machines, s2.machines);
        assert_eq!(job, j2);
    }

    #[test]
    fn blob_wire_format_round_trips() {
        let blob = StateBlob::new("demo", 3, vec![1, 2, 3, 4, 5]);
        let bytes = blob.to_bytes();
        assert_eq!(bytes.len(), blob.size_bytes());
        let back = StateBlob::from_bytes(&bytes).unwrap();
        assert_eq!(back, blob);
        assert_eq!(back.kind(), "demo");
        assert_eq!(back.version(), 3);
        assert_eq!(back.payload(), &[1, 2, 3, 4, 5]);
    }

    #[test]
    fn every_truncation_is_an_error_not_a_panic() {
        let bytes = StateBlob::new("truncate-me", 1, (0..64u8).collect()).to_bytes();
        for len in 0..bytes.len() {
            assert!(
                StateBlob::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let bytes = StateBlob::new("flip-me", 2, (0..32u8).collect()).to_bytes();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    StateBlob::from_bytes(&corrupted).is_err(),
                    "flip of byte {i} bit {bit} must fail"
                );
            }
        }
    }

    #[test]
    fn expect_checks_kind_and_version() {
        let blob = StateBlob::new("avr", 1, Vec::new());
        assert!(blob.expect("avr", 1).is_ok());
        assert!(matches!(
            blob.expect("bkp", 1),
            Err(SnapshotError::WrongKind { .. })
        ));
        assert!(matches!(
            blob.expect("avr", 2),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
    }

    #[test]
    fn oversized_sequence_lengths_are_rejected_without_allocation() {
        // A payload claiming 2^60 elements must fail the length check, not
        // attempt the allocation.
        let mut w = BlobWriter::new();
        w.write_u64(1u64 << 60);
        let payload = w.into_payload();
        let mut r = BlobReader::new(&payload);
        assert!(r.read_seq::<f64>().is_err());
        let mut r = BlobReader::new(&payload);
        assert!(r.read_bytes().is_err());
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut bytes = StateBlob::new("t", 1, vec![9]).to_bytes();
        bytes.push(0);
        assert!(StateBlob::from_bytes(&bytes).is_err());
    }
}
