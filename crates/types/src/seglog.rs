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
//!   segments: one flat vector, whose length is its cursor.  Its wire
//!   format is the [`StateBlob`] container, whose checksum covers every
//!   byte, so decoding is total: truncation or corruption anywhere is a
//!   [`SnapshotError`], never a panic.
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
//! Segment data is never discarded: `frontier()` is the run's output, and
//! bit-identical reassembly from any retained checkpoint needs every
//! segment below that checkpoint's cursor.  The log is the durable
//! O(events) artefact; the point of this module is that each *blob* is
//! O(active).
//!
//! # Recovery discipline
//!
//! Recovery is write-ahead-log shaped: restore the blob, then
//! [`truncate`](SegmentLog::truncate) the log to the blob's cursor *before*
//! replaying the journal delta — replay re-commits the truncated segments
//! through the run itself, so skipping the truncation would duplicate them.

use crate::segment::{Schedule, Segment};
use crate::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};

/// Blob kind under which a serialised log travels.
const LOG_KIND: &str = "seglog";

/// Blob kind under which a shipped tail travels.
const TAIL_KIND: &str = "seglog-tail";

/// Wire version of the log and tail payloads.
const LOG_VERSION: u16 = 2;

/// Segments a new log reserves room for (48 KiB).  On perfbench's serve-pd
/// (`--seconds 5`, seeds 1–10, 2-vCPU guest), a log grown from empty read
/// `decide_p99_us` higher than one with this first block on 10 of 10 seeds
/// (medians 9.37 and 7.07 µs), `ingest_rate` lower on 10 of 10 (574k and
/// 658k arrivals/s) and `peak_rss_mb` higher (15.3 and 13.5 MB).
const FIRST_BLOCK: usize = 1024;

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

/// An append-only log of one run's realised segments.
///
/// The log mirrors the run's committed frontier: after every committed
/// batch, [`sync_from`](SegmentLog::sync_from) appends the frontier's new
/// segments.  Checkpoints then store only a [`LogCursor`];
/// [`reassemble`](SegmentLog::reassemble) rebuilds the frontier below any
/// cursor bit-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentLog {
    machines: usize,
    segments: Vec<Segment>,
}

impl SegmentLog {
    /// An empty log for a run on `machines` machines.
    pub fn new(machines: usize) -> Self {
        Self {
            machines,
            segments: Vec::with_capacity(FIRST_BLOCK),
        }
    }

    /// The machine count the log's segments are laid out on.
    pub fn machines(&self) -> usize {
        self.machines
    }

    /// The log's end cursor: the total number of realised segments held.
    pub fn cursor(&self) -> LogCursor {
        LogCursor(self.segments.len() as u64)
    }

    /// Appends the frontier's segments beyond the current cursor, returning
    /// the new end cursor.  A frontier *shorter* than the log, or on a
    /// different machine count, violates prefix stability and is an error.
    pub fn sync_from(&mut self, frontier: &Schedule) -> Result<LogCursor, SnapshotError> {
        if frontier.machines != self.machines {
            return Err(SnapshotError::Invalid(format!(
                "frontier has {} machines, log has {}",
                frontier.machines, self.machines
            )));
        }
        let have = self.segments.len();
        let Some(fresh) = frontier.segments.get(have..) else {
            return Err(SnapshotError::Invalid(format!(
                "frontier holds {} segments but the log already holds {have}; \
                 committed segments are immutable",
                frontier.segments.len()
            )));
        };
        self.segments.extend_from_slice(fresh);
        Ok(self.cursor())
    }

    /// Discards everything at or beyond `cursor` (write-ahead-log tail
    /// truncation, used before journal replay on recovery).  Truncating
    /// beyond the end is an error.
    pub fn truncate(&mut self, cursor: LogCursor) -> Result<(), SnapshotError> {
        if cursor > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "cannot truncate log of {} segments to cursor {}",
                self.segments.len(),
                cursor.0
            )));
        }
        self.segments.truncate(cursor.0 as usize);
        Ok(())
    }

    /// Does nothing: the log is one flat vector, with nothing to fold.
    /// Kept because perfbench's serve-pd replay still calls it.
    pub fn compact(&mut self, _cursor: LogCursor) {}

    /// Rebuilds the committed frontier below `cursor` — bit-identical to
    /// the schedule the run held when the cursor was captured.  A cursor
    /// beyond the log's end (the log was truncated below a checkpoint that
    /// references it) is an error.
    pub fn reassemble(&self, cursor: LogCursor) -> Result<Schedule, SnapshotError> {
        let end = usize::try_from(cursor.0).unwrap_or(usize::MAX);
        let segments = self.segments.get(..end).ok_or_else(|| {
            SnapshotError::Invalid(format!(
                "log holds {} segments but the snapshot cursor is {}",
                self.segments.len(),
                cursor.0
            ))
        })?;
        Ok(Schedule {
            machines: self.machines,
            segments: segments.to_vec(),
        })
    }

    /// Serialises the whole log into a [`StateBlob`] (kind `"seglog"`).
    pub fn to_blob(&self) -> StateBlob {
        let mut w = BlobWriter::new();
        w.write_usize(self.machines);
        w.write_seq(&self.segments);
        StateBlob::new(LOG_KIND, LOG_VERSION, w.into_payload())
    }

    /// Serialises the whole log into wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        self.to_blob().to_bytes()
    }

    /// Decodes a log from a [`StateBlob`].
    pub fn from_blob(blob: &StateBlob) -> Result<Self, SnapshotError> {
        // Total kind/version check (returns Err). pss-lint: allow(codec-totality)
        let mut r = blob.expect(LOG_KIND, LOG_VERSION)?;
        let machines = r.read_usize()?;
        let segments = r.read_seq()?;
        r.finish()?;
        Ok(Self { machines, segments })
    }

    /// Decodes a log from wire bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let blob = StateBlob::from_bytes(bytes)?;
        Self::from_blob(&blob)
    }

    /// Serialises the log's tail at or beyond `from` (kind
    /// `"seglog-tail"`: the base cursor and the segments) — the half of a
    /// `(log tail, blob)` pair shipped during shard moves.
    pub fn encode_tail(&self, from: LogCursor) -> Result<Vec<u8>, SnapshotError> {
        let start = usize::try_from(from.0).unwrap_or(usize::MAX);
        let tail = self.segments.get(start..).ok_or_else(|| {
            SnapshotError::Invalid(format!(
                "tail start {} is beyond the log end {}",
                from.0,
                self.segments.len()
            ))
        })?;
        let mut w = BlobWriter::new();
        w.write_part(&from);
        w.write_seq(tail);
        Ok(StateBlob::new(TAIL_KIND, LOG_VERSION, w.into_payload()).to_bytes())
    }

    /// Absorbs a tail produced by [`encode_tail`](SegmentLog::encode_tail):
    /// the log is truncated to the tail's base, then the tail's segments
    /// are appended.  A tail based beyond the log's end (missing history)
    /// is an error.
    pub fn absorb_tail(&mut self, bytes: &[u8]) -> Result<LogCursor, SnapshotError> {
        let blob = StateBlob::from_bytes(bytes)?;
        // pss-lint: allow(codec-totality) — total kind/version check.
        let mut r = blob.expect(TAIL_KIND, LOG_VERSION)?;
        let base: LogCursor = r.read_part()?;
        let segments: Vec<Segment> = r.read_seq()?;
        r.finish()?;
        if base > self.cursor() {
            return Err(SnapshotError::Invalid(format!(
                "tail base {} is beyond the log end {}",
                base.0,
                self.segments.len()
            )));
        }
        self.segments.truncate(base.0 as usize);
        self.segments.extend(segments);
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
/// truncation and cadence rules.
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
        assert_eq!(log.cursor(), c1);
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

    /// A splitmix64 stream: pss-types cannot depend on pss-workloads'
    /// generators.
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        /// A draw from `0..=max`.
        fn upto(&mut self, max: usize) -> usize {
            (self.next() % (max as u64 + 1)) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Asserts the log holds exactly the model's segments.
    fn assert_matches_model(log: &SegmentLog, model: &[Segment], machines: usize, at: &str) {
        assert_eq!(log.machines(), machines, "{at}: machines");
        assert_eq!(log.cursor(), LogCursor(model.len() as u64), "{at}: cursor");
        let all = log.reassemble(log.cursor()).unwrap();
        assert_eq!(all.machines, machines, "{at}: reassembled machines");
        assert_eq!(all.segments, model, "{at}: segments");
    }

    /// Random sequences of every log operation against a plain `Vec`
    /// model: cursor, reassembled segments and errors agree after every
    /// step.  `CHECKPOINT_SMOKE=1` widens the number of sequences.
    #[test]
    fn the_log_matches_a_plain_vector_model() {
        let sequences = if std::env::var_os("CHECKPOINT_SMOKE").is_some() {
            2_000
        } else {
            150
        };
        for seed in 0..sequences {
            let mut gen = Gen(seed);
            let machines = 1 + gen.upto(2);
            let mut log = SegmentLog::new(machines);
            let mut model: Vec<Segment> = Vec::new();
            // The run's frontier: the model plus segments not yet synced.
            let mut frontier = Schedule::empty(machines);
            let mut next_job = 0;
            for step in 0..60 {
                let at = format!("seed {seed} step {step}");
                let len = model.len();
                match gen.upto(7) {
                    0 | 1 => {
                        for _ in 0..gen.upto(5) {
                            let start = gen.unit() * 100.0;
                            frontier.segments.push(Segment::work(
                                gen.upto(machines - 1),
                                start,
                                start + gen.unit(),
                                gen.unit() * 4.0,
                                JobId(next_job),
                            ));
                            next_job += 1;
                        }
                        let end = log.sync_from(&frontier).unwrap();
                        let fresh = frontier.segments.get(len..).unwrap_or_default();
                        model.extend_from_slice(fresh);
                        assert_eq!(end, LogCursor(model.len() as u64), "{at}: sync");
                    }
                    2 => {
                        // A frontier shorter than the log, or on another
                        // machine count, is refused and changes nothing.
                        if len > 0 {
                            let mut shrunk = Schedule::empty(machines);
                            shrunk.segments = model[..gen.upto(len - 1)].to_vec();
                            assert!(
                                matches!(log.sync_from(&shrunk), Err(SnapshotError::Invalid(_))),
                                "{at}: shrunk frontier"
                            );
                        }
                        let other = Schedule::empty(machines + 1);
                        assert!(
                            matches!(log.sync_from(&other), Err(SnapshotError::Invalid(_))),
                            "{at}: machine count"
                        );
                    }
                    3 => {
                        let cut = gen.upto(len + 2);
                        let result = log.truncate(LogCursor(cut as u64));
                        if cut > len {
                            assert!(
                                matches!(result, Err(SnapshotError::Invalid(_))),
                                "{at}: truncate beyond the end"
                            );
                        } else {
                            result.unwrap();
                            model.truncate(cut);
                            // The run re-commits from the cut on.
                            frontier.segments.truncate(cut);
                        }
                    }
                    4 => {
                        let cut = gen.upto(len + 2);
                        match log.reassemble(LogCursor(cut as u64)) {
                            Ok(prefix) => {
                                assert!(cut <= len, "{at}: reassemble beyond the end");
                                assert_eq!(prefix.machines, machines, "{at}: machines");
                                assert_eq!(prefix.segments, model[..cut], "{at}: prefix");
                            }
                            Err(e) => {
                                assert!(cut > len, "{at}: reassemble failed: {e}");
                                assert!(matches!(e, SnapshotError::Invalid(_)), "{at}: {e}");
                            }
                        }
                    }
                    5 => {
                        let from = gen.upto(len + 1);
                        let tail = log.encode_tail(LogCursor(from as u64));
                        if from > len {
                            assert!(
                                matches!(tail, Err(SnapshotError::Invalid(_))),
                                "{at}: tail beyond the end"
                            );
                            continue;
                        }
                        let tail = tail.unwrap();
                        let base = gen.upto(len);
                        let mut receiver = log.clone();
                        receiver.truncate(LogCursor(base as u64)).unwrap();
                        let absorbed = receiver.absorb_tail(&tail);
                        if from > base {
                            assert!(
                                matches!(absorbed, Err(SnapshotError::Invalid(_))),
                                "{at}: tail based beyond the receiver's end"
                            );
                            assert_matches_model(&receiver, &model[..base], machines, &at);
                        } else {
                            assert_eq!(absorbed.unwrap(), LogCursor(len as u64), "{at}");
                            assert_matches_model(&receiver, &model, machines, &at);
                        }
                        let mut corrupted = tail.clone();
                        let byte = gen.upto(tail.len() - 1);
                        corrupted[byte] ^= 1 << gen.upto(7);
                        assert!(receiver.absorb_tail(&corrupted).is_err(), "{at}: bit flip");
                    }
                    6 => {
                        log = SegmentLog::from_bytes(&log.to_bytes()).unwrap();
                    }
                    _ => log.compact(LogCursor(gen.upto(len + 2) as u64)),
                }
                assert_matches_model(&log, &model, machines, &at);
            }
        }
    }

    #[test]
    fn frontier_part_round_trips_and_resolves() {
        let mut log = sample_log();
        let full = log.reassemble(log.cursor()).unwrap();
        let part = FrontierPart::sync(&mut log, &full).unwrap();
        assert_eq!(part.cursor, log.cursor());
        assert_eq!(
            log.cursor(),
            LogCursor(10),
            "a synced frontier appends nothing"
        );
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
