//! Append-only realised-segment log: the O(active) checkpoint substrate.
//!
//! The paper's prefix-stability invariant — a committed segment is never
//! revised — means a run's committed frontier is *immutable history*, not
//! live state, so it belongs in an append-only log shared by every
//! checkpoint of the run, not in each snapshot.  A blob that carried the
//! frontier inline would grow with the stream; one that carries a cursor
//! into the log stays O(active).  This module provides that log and the
//! conventions the rest of the workspace builds on:
//!
//! * [`SegmentLog`] — a per-run/per-shard append-only log of realised
//!   segments, organised as checksummed *records* (one per append).  The
//!   wire format reuses the [`StateBlob`] container plus a per-record
//!   FNV-1a checksum, and decoding is total: truncation or corruption of
//!   any record is a [`SnapshotError`], never a panic.
//! * [`LogCursor`] — a position in the log (a count of realised segments).
//! * [`FrontierPart`] — what a snapshot payload stores in place of its
//!   committed frontier: the frontier's machine count and its end cursor
//!   in the log.  [`FrontierPart::resolve`] reassembles the frontier from
//!   the log.
//! * [`LogCheckpointable`] — the checkpoint contract every online run
//!   state implements: [`snapshot_live`](LogCheckpointable::snapshot_live)
//!   syncs the log with the run's frontier and captures only live state
//!   plus the cursor; [`restore_with_log`](LogCheckpointable::restore_with_log)
//!   reassembles the run from the `(log, blob)` pair bit-identically.
//!
//! # Compaction
//!
//! [`SegmentLog::compact`] consolidates records below a cursor (the newest
//! retained checkpoint's cursor, in practice) into a single prefix, so the
//! number of record *envelopes* — the granularity at which tails are
//! shipped during shard moves — stays proportional to the retained
//! checkpoint chain, not to the number of bursts ever fed.  Segment *data*
//! is never discarded: `frontier()` is the run's output, and bit-identical
//! reassembly from any retained checkpoint needs every segment below that
//! checkpoint's cursor.  The log is the durable O(events) artefact; the
//! point of this module is that each *blob* is O(active).
//!
//! # Recovery discipline
//!
//! Recovery is write-ahead-log shaped: restore the blob, then
//! [`truncate`](SegmentLog::truncate) the log to the blob's cursor *before*
//! replaying the journal delta — replay re-commits the truncated segments
//! through the run itself, so skipping the truncation would duplicate them.

use crate::segment::{Schedule, Segment};
use crate::snapshot::{fnv1a, BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};

/// Blob kind under which a serialised log travels.
const LOG_KIND: &str = "seglog";

/// Wire version of the log payload.
const LOG_VERSION: u16 = 1;

/// A position in a [`SegmentLog`]: the number of realised segments below
/// it.  Cursors are what live-state snapshots store in place of the
/// committed frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct LogCursor(pub u64);

impl LogCursor {
    /// The cursor as a segment count.
    pub fn segments(self) -> u64 {
        self.0
    }
}

impl SnapshotPart for LogCursor {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_u64(self.0);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(LogCursor(r.read_u64()?))
    }
}

/// One append to the log: the segments realised by one committed batch (or
/// one shipped tail), together with the cursor they start at.
#[derive(Debug, Clone, PartialEq)]
struct SegmentRecord {
    /// Cursor before this record's segments (records are contiguous:
    /// `base` equals the previous record's end).
    base: u64,
    segments: Vec<Segment>,
}

impl SegmentRecord {
    /// Encodes the record body (base + segments) — the bytes the
    /// per-record checksum covers.
    fn encode_body(&self) -> Vec<u8> {
        let mut w = BlobWriter::new();
        w.write_u64(self.base);
        w.write_seq(&self.segments);
        w.into_payload()
    }

    fn encode(&self, w: &mut BlobWriter) {
        let body = self.encode_body();
        w.write_u64(fnv1a(&body));
        w.write_bytes(&body);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let checksum = r.read_u64()?;
        let body = r.read_bytes()?;
        if fnv1a(body) != checksum {
            return Err(SnapshotError::Corrupted("record checksum mismatch".into()));
        }
        let mut br = BlobReader::new(body);
        let base = br.read_u64()?;
        let segments = br.read_seq()?;
        br.finish()?;
        Ok(SegmentRecord { base, segments })
    }
}

/// An append-only log of one run's realised segments.
///
/// The log mirrors the run's committed frontier: after every committed
/// batch, [`sync_from`](SegmentLog::sync_from) appends the frontier's new
/// segments as one checksummed record.  Checkpoints then store only a
/// [`LogCursor`]; [`reassemble`](SegmentLog::reassemble) rebuilds the
/// frontier below any cursor bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLog {
    machines: usize,
    /// Segments consolidated out of compacted records (always the log's
    /// first `prefix.len()` segments).
    prefix: Vec<Segment>,
    /// Live records, contiguous after the prefix.
    records: Vec<SegmentRecord>,
}

impl SegmentLog {
    /// An empty log for a run on `machines` machines.
    pub fn new(machines: usize) -> Self {
        Self {
            machines,
            prefix: Vec::new(),
            records: Vec::new(),
        }
    }

    /// The machine count the log's segments are laid out on.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The log's end cursor: the total number of realised segments held.
    pub fn cursor(&self) -> LogCursor {
        let live: u64 = self.records.iter().map(|r| r.segments.len() as u64).sum();
        LogCursor(self.prefix.len() as u64 + live)
    }

    /// Number of live record envelopes (compaction consolidates these; the
    /// count is what stays O(retained checkpoints)).
    pub fn record_count(&self) -> usize {
        self.records.len()
    }

    /// Appends the frontier's segments beyond the current cursor as one
    /// record, returning the new end cursor.  A no-delta sync appends no
    /// record.  A frontier *shorter* than the log, or on a different
    /// machine count, violates prefix stability and is an error.
    pub fn sync_from(&mut self, frontier: &Schedule) -> Result<LogCursor, SnapshotError> {
        if frontier.machines != self.machines {
            return Err(SnapshotError::Invalid(format!(
                "frontier has {} machines, log has {}",
                frontier.machines, self.machines
            )));
        }
        let have = self.cursor().0 as usize;
        if frontier.segments.len() < have {
            return Err(SnapshotError::Invalid(format!(
                "frontier holds {} segments but the log already holds {}; \
                 committed segments are immutable",
                frontier.segments.len(),
                have
            )));
        }
        if frontier.segments.len() > have {
            self.records.push(SegmentRecord {
                base: have as u64,
                segments: frontier.segments.get(have..).unwrap_or_default().to_vec(),
            });
        }
        Ok(self.cursor())
    }

    /// Discards everything at or beyond `cursor` (write-ahead-log tail
    /// truncation, used before journal replay on recovery).  Truncating
    /// beyond the end is an error.
    pub fn truncate(&mut self, cursor: LogCursor) -> Result<(), SnapshotError> {
        if cursor > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "cannot truncate log of {} segments to cursor {}",
                self.cursor().0,
                cursor.0
            )));
        }
        let keep = cursor.0;
        if keep <= self.prefix.len() as u64 {
            self.prefix.truncate(keep as usize);
            self.records.clear();
            return Ok(());
        }
        while let Some(last) = self.records.last_mut() {
            let end = last.base + last.segments.len() as u64;
            if end <= keep {
                break;
            }
            if last.base >= keep {
                self.records.pop();
            } else {
                last.segments.truncate((keep - last.base) as usize);
                break;
            }
        }
        Ok(())
    }

    /// Consolidates every record wholly below `cursor` into the prefix,
    /// dropping their envelopes.  Segment data is never discarded (see the
    /// module docs); this bounds the number of record envelopes by the
    /// retained checkpoint chain.  Cursors beyond the end are clamped.
    pub fn compact(&mut self, cursor: LogCursor) {
        let limit = cursor.0.min(self.cursor().0);
        let mut folded = 0;
        for rec in &self.records {
            if rec.base + rec.segments.len() as u64 <= limit {
                folded += 1;
            } else {
                break;
            }
        }
        for rec in self.records.drain(..folded) {
            self.prefix.extend(rec.segments);
        }
    }

    /// Rebuilds the committed frontier below `cursor` — bit-identical to
    /// the schedule the run held when the cursor was captured.  A cursor
    /// beyond the log's end (the log was truncated below a checkpoint that
    /// references it) is an error.
    pub fn reassemble(&self, cursor: LogCursor) -> Result<Schedule, SnapshotError> {
        if cursor > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "log holds {} segments but the snapshot cursor is {}",
                self.cursor().0,
                cursor.0
            )));
        }
        let mut segments = Vec::with_capacity(cursor.0 as usize);
        segments.extend_from_slice(&self.prefix);
        for rec in &self.records {
            segments.extend_from_slice(&rec.segments);
        }
        segments.truncate(cursor.0 as usize);
        Ok(Schedule {
            machines: self.machines,
            segments,
        })
    }

    /// Serialises the whole log into a [`StateBlob`] (kind `"seglog"`).
    pub fn to_blob(&self) -> StateBlob {
        let mut w = BlobWriter::new();
        w.write_usize(self.machines);
        w.write_seq(&self.prefix);
        w.write_u64(self.records.len() as u64);
        for rec in &self.records {
            rec.encode(&mut w);
        }
        StateBlob::new(LOG_KIND, LOG_VERSION, w.into_payload())
    }

    /// Serialises the whole log into wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_blob().to_bytes()
    }

    /// Decodes a log from a [`StateBlob`], verifying contiguity and every
    /// per-record checksum.
    pub fn from_blob(blob: &StateBlob) -> Result<Self, SnapshotError> {
        // Total kind/version check (returns Err). pss-lint: allow(codec-totality)
        let mut r = blob.expect(LOG_KIND, LOG_VERSION)?;
        let machines = r.read_usize()?;
        let prefix: Vec<Segment> = r.read_seq()?;
        let count = r.read_len(8)?;
        let mut records = Vec::with_capacity(count);
        let mut next = prefix.len() as u64;
        for _ in 0..count {
            let rec = SegmentRecord::decode(&mut r)?;
            if rec.base != next {
                return Err(SnapshotError::Invalid(format!(
                    "record base {} does not continue the log at {next}",
                    rec.base
                )));
            }
            next += rec.segments.len() as u64;
            records.push(rec);
        }
        r.finish()?;
        Ok(Self {
            machines,
            prefix,
            records,
        })
    }

    /// Decodes a log from wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let blob = StateBlob::from_bytes(bytes)?;
        Self::from_blob(&blob)
    }

    /// Serialises the log's tail at or beyond `from` — the half of a
    /// `(log tail, blob)` pair shipped during shard moves.  The tail is a
    /// single checksummed record based at `from`.
    pub fn encode_tail(&self, from: LogCursor) -> Result<Vec<u8>, SnapshotError> {
        if from > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "tail start {} is beyond the log end {}",
                from.0,
                self.cursor().0
            )));
        }
        let full = self.reassemble(self.cursor())?;
        let segments = full
            .segments
            .get(from.0 as usize..)
            .unwrap_or_default()
            .to_vec();
        let rec = SegmentRecord {
            base: from.0,
            segments,
        };
        let mut w = BlobWriter::new();
        rec.encode(&mut w);
        Ok(StateBlob::new("seglog-tail", LOG_VERSION, w.into_payload()).to_bytes())
    }

    /// Absorbs a tail produced by [`encode_tail`](SegmentLog::encode_tail):
    /// the log is truncated to the tail's base, then the tail's segments
    /// are appended as one record.  A tail based beyond the log's end
    /// (missing history) is an error.
    pub fn absorb_tail(&mut self, bytes: &[u8]) -> Result<LogCursor, SnapshotError> {
        let blob = StateBlob::from_bytes(bytes)?;
        // pss-lint: allow(codec-totality) — total kind/version check.
        let mut r = blob.expect("seglog-tail", LOG_VERSION)?;
        let rec = SegmentRecord::decode(&mut r)?;
        r.finish()?;
        if LogCursor(rec.base) > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "tail base {} is beyond the log end {}",
                rec.base,
                self.cursor().0
            )));
        }
        self.truncate(LogCursor(rec.base))?;
        if !rec.segments.is_empty() {
            self.records.push(rec);
        }
        Ok(self.cursor())
    }
}

/// The committed frontier as stored inside a snapshot payload: its machine
/// count and its end cursor in the run's [`SegmentLog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrontierPart {
    /// Machine count of the frontier (checked against the log).
    pub machines: usize,
    /// End cursor of the frontier in the log.
    pub cursor: LogCursor,
}

impl FrontierPart {
    /// Appends `frontier`'s new segments to `log` and returns the part that
    /// points at the synced frontier.
    pub fn sync(log: &mut SegmentLog, frontier: &Schedule) -> Result<Self, SnapshotError> {
        Ok(FrontierPart {
            machines: frontier.machines,
            cursor: log.sync_from(frontier)?,
        })
    }

    /// Reassembles the frontier [`Schedule`] from `log`.  A log on a
    /// different machine count is invalid; a cursor beyond the log's end
    /// is an error (see [`SegmentLog::reassemble`]).
    pub fn resolve(self, log: &SegmentLog) -> Result<Schedule, SnapshotError> {
        if log.machines() != self.machines {
            return Err(SnapshotError::Invalid(format!(
                "snapshot frontier has {} machines, log has {}",
                self.machines,
                log.machines()
            )));
        }
        log.reassemble(self.cursor)
    }
}

impl SnapshotPart for FrontierPart {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_usize(self.machines);
        w.write_part(&self.cursor);
    }
    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(FrontierPart {
            machines: r.read_usize()?,
            cursor: r.read_part()?,
        })
    }
}

/// A run state that can be suspended into a `(log, blob)` pair and resumed
/// without perturbing a single future decision.
///
/// # Contract
///
/// `snapshot_live` first syncs `log` with the run's frontier (so the
/// cursor and the frontier agree by construction), then captures only the
/// run's *live* state — pending sets, indexes, plan caches, grid cursors —
/// plus the cursor.  For any prefix of a valid arrival stream,
/// `restore_with_log(&run.snapshot_live(log)?, log)` must yield a run
/// whose `frontier()` and every future decision, dual and segment are
/// bit-identical to the original's (solver-accuracy-bounded for iterative
/// planners).  See the checkpoint recipe in `src/README.md` for the
/// compaction, truncation and cadence rules.
///
/// Both methods are total: mismatched machine counts, truncated logs,
/// corrupted payloads and wrong-kind/wrong-version blobs are errors, never
/// panics.
pub trait LogCheckpointable: Sized {
    /// Syncs `log` with the run's committed frontier and captures the
    /// run's live state plus the resulting cursor.
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError>;

    /// Reconstructs a run from a live-state snapshot, reassembling its
    /// frontier from `log`.
    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError>;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::JobId;

    fn seg(machine: usize, start: f64, id: usize) -> Segment {
        Segment::work(machine, start, start + 1.0, 1.5, JobId(id))
    }

    fn sample_log() -> SegmentLog {
        let mut log = SegmentLog::new(2);
        let mut frontier = Schedule::empty(2);
        for burst in 0..4 {
            for k in 0..=burst {
                frontier
                    .segments
                    .push(seg(k % 2, burst as f64 + k as f64, k));
            }
            log.sync_from(&frontier).unwrap();
        }
        log
    }

    #[test]
    fn sync_appends_only_the_delta_and_reassembles_bit_identically() {
        let mut log = SegmentLog::new(2);
        let mut frontier = Schedule::empty(2);
        frontier.segments.push(seg(0, 0.0, 1));
        frontier.segments.push(seg(1, 0.5, 2));
        let c1 = log.sync_from(&frontier).unwrap();
        assert_eq!(c1, LogCursor(2));
        // No-delta sync appends nothing.
        assert_eq!(log.sync_from(&frontier).unwrap(), c1);
        assert_eq!(log.record_count(), 1);
        frontier.segments.push(seg(0, 2.0, 3));
        let c2 = log.sync_from(&frontier).unwrap();
        assert_eq!(c2, LogCursor(3));
        let back = log.reassemble(c2).unwrap();
        assert_eq!(back.segments, frontier.segments);
        let mid = log.reassemble(c1).unwrap();
        assert_eq!(mid.segments, frontier.segments[..2]);
    }

    #[test]
    fn shrinking_or_mismatched_frontiers_are_rejected() {
        let mut log = SegmentLog::new(2);
        let mut frontier = Schedule::empty(2);
        frontier.segments.push(seg(0, 0.0, 1));
        log.sync_from(&frontier).unwrap();
        frontier.segments.clear();
        assert!(matches!(
            log.sync_from(&frontier),
            Err(SnapshotError::Invalid(_))
        ));
        let other = Schedule::empty(3);
        assert!(matches!(
            log.sync_from(&other),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn truncate_cuts_records_and_straddled_tails() {
        let mut log = sample_log();
        let full = log.cursor();
        assert_eq!(full, LogCursor(1 + 2 + 3 + 4));
        // Cut inside the third record.
        log.truncate(LogCursor(4)).unwrap();
        assert_eq!(log.cursor(), LogCursor(4));
        let s = log.reassemble(LogCursor(4)).unwrap();
        assert_eq!(s.segments.len(), 4);
        // Reassembling beyond the new end fails.
        assert!(log.reassemble(full).is_err());
        // Truncate to zero clears everything.
        log.truncate(LogCursor(0)).unwrap();
        assert_eq!(log.cursor(), LogCursor(0));
        assert!(log.truncate(LogCursor(1)).is_err());
    }

    #[test]
    fn compaction_drops_envelopes_never_segments() {
        let mut log = sample_log();
        let full = log.cursor();
        let before = log.reassemble(full).unwrap();
        assert_eq!(log.record_count(), 4);
        // Compact below a cursor inside the third record: only the first
        // two records fold.
        log.compact(LogCursor(4));
        assert_eq!(log.record_count(), 2);
        assert_eq!(log.reassemble(full).unwrap().segments, before.segments);
        // Compact everything.
        log.compact(LogCursor(u64::MAX));
        assert_eq!(log.record_count(), 0);
        assert_eq!(log.cursor(), full);
        assert_eq!(log.reassemble(full).unwrap().segments, before.segments);
        // Truncation into the compacted prefix still works.
        log.truncate(LogCursor(2)).unwrap();
        assert_eq!(
            log.reassemble(LogCursor(2)).unwrap().segments,
            before.segments[..2]
        );
    }

    #[test]
    fn wire_round_trip_is_exact_including_after_compaction() {
        let mut log = sample_log();
        log.compact(LogCursor(3));
        let bytes = log.to_bytes();
        let back = SegmentLog::from_bytes(&bytes).unwrap();
        assert_eq!(back, log);
        let full = log.cursor();
        assert_eq!(
            back.reassemble(full).unwrap().segments,
            log.reassemble(full).unwrap().segments
        );
    }

    #[test]
    fn every_truncation_and_bit_flip_of_a_log_file_is_an_error() {
        let bytes = sample_log().to_bytes();
        for len in 0..bytes.len() {
            assert!(
                SegmentLog::from_bytes(&bytes[..len]).is_err(),
                "truncation to {len} bytes must fail"
            );
        }
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupted = bytes.clone();
                corrupted[i] ^= 1 << bit;
                assert!(
                    SegmentLog::from_bytes(&corrupted).is_err(),
                    "flip of byte {i} bit {bit} must fail"
                );
            }
        }
    }

    #[test]
    fn non_contiguous_records_are_rejected() {
        // Hand-assemble a payload whose second record skips a base.
        let rec = |base: u64, n: usize| SegmentRecord {
            base,
            segments: (0..n).map(|k| seg(0, k as f64, k)).collect(),
        };
        let mut w = BlobWriter::new();
        w.write_usize(1);
        w.write_seq::<Segment>(&[]);
        w.write_u64(2);
        rec(0, 2).encode(&mut w);
        rec(5, 1).encode(&mut w);
        let blob = StateBlob::new("seglog", 1, w.into_payload());
        assert!(matches!(
            SegmentLog::from_blob(&blob),
            Err(SnapshotError::Invalid(_))
        ));
    }

    #[test]
    fn tails_ship_and_absorb() {
        let log = sample_log();
        let full = log.cursor();
        // A receiver that already has the first two segments.
        let mut receiver = log.clone();
        receiver.truncate(LogCursor(2)).unwrap();
        let tail = log.encode_tail(LogCursor(2)).unwrap();
        let end = receiver.absorb_tail(&tail).unwrap();
        assert_eq!(end, full);
        assert_eq!(
            receiver.reassemble(full).unwrap().segments,
            log.reassemble(full).unwrap().segments
        );
        // Absorbing is idempotent under re-delivery (WAL truncation).
        let end2 = receiver.absorb_tail(&tail).unwrap();
        assert_eq!(end2, full);
        // A tail based beyond the receiver's history is an error.
        let mut empty = SegmentLog::new(2);
        assert!(empty.absorb_tail(&tail).is_err());
        // A tail from a diverged log still absorbs at its base (the base
        // governs truncation), and corrupted tails are errors.
        let mut corrupted = tail.clone();
        corrupted[tail.len() / 2] ^= 0x40;
        assert!(receiver.absorb_tail(&corrupted).is_err());
    }

    #[test]
    fn frontier_part_round_trips_and_resolves() {
        let mut log = sample_log();
        let full = log.reassemble(log.cursor()).unwrap();
        let part = FrontierPart::sync(&mut log, &full).unwrap();
        assert_eq!(part.cursor, log.cursor());
        assert_eq!(log.record_count(), 4, "a synced frontier appends nothing");
        let mut w = BlobWriter::new();
        w.write_part(&part);
        let payload = w.into_payload();
        let mut r = BlobReader::new(&payload);
        let back: FrontierPart = r.read_part().unwrap();
        r.finish().unwrap();
        assert_eq!(back, part);
        assert_eq!(back.resolve(&log).unwrap().segments, full.segments);
        let wrong = SegmentLog::new(3);
        assert!(matches!(
            part.resolve(&wrong),
            Err(SnapshotError::Invalid(_))
        ));
        let short = SegmentLog::new(2);
        assert!(part.resolve(&short).is_err());
    }
}
