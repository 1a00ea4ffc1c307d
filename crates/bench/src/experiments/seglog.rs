//! E18 — O(active) checkpoints over the realised-segment log.
//!
//! PR 10 splits the committed frontier out of checkpoint blobs into an
//! append-only segment log: blobs hold only live state plus a log cursor,
//! so their size stops growing with the stream.  This experiment measures
//! the claim and drills the recovery path:
//!
//! 1. **Live blob size vs stream length** — every algorithm streamed at
//!    two lengths with a checkpoint after *every* burst (the cadence the
//!    log is built for), against the legacy full-frontier blobs of
//!    [`run_checkpointed`](pss_sim::StreamingSimulation::run_checkpointed)
//!    as the differential baseline.  For the replanning family (OA, qOA,
//!    OA(m), CLL) the live blob must stay flat while the legacy blob grows
//!    linearly; AVR and BKP still carry O(events) job-history tables, so
//!    the log removes only the frontier term of their growth.  PD keeps
//!    only its uncommitted intervals: after a sentinel job released past
//!    every deadline, its live blob must have the same size at both
//!    lengths.
//! 2. **Recovery from the `(log, blob)` pair** — a mid-stream kill for
//!    every algorithm: truncate the surviving log to the checkpoint's
//!    cursor, restore through `restore_with_log`, replay the delta, and
//!    require the result to equal the uninterrupted run on every
//!    deterministic field.

use std::time::Instant;

use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::{seglog_to_json, Table};
use pss_sim::{coalesce_arrivals, StreamingSimulation};
use pss_types::{LogCheckpointable, SegmentLog};

use super::burst::{burst_instance, COALESCE_WINDOW};
use super::checkpoint::{streams_agree, streams_agree_tol};
use super::ExperimentOutput;
use crate::support::check;

/// Retained chain depth, mirroring the daemon's default.
const CHAIN: usize = 4;

/// Final live and legacy blob sizes of one (algorithm, length) cell, for
/// the flatness gates computed after the sweep.
struct SizeSample {
    algorithm: String,
    live_bytes: usize,
    legacy_bytes: usize,
}

/// Streams one algorithm with per-burst O(active) checkpoints and with the
/// legacy full-frontier path, pushes the size row, and returns whether the
/// logged stream matched the plain one plus the two final blob sizes.
fn size_row<A>(algo: &A, instance: &Instance, table: &mut Table) -> (bool, SizeSample)
where
    A: OnlineAlgorithm + ?Sized,
    A::Run: LogCheckpointable,
{
    let sim = StreamingSimulation::with_coalescing(COALESCE_WINDOW);
    let plain = sim.run(algo, instance).expect("plain stream");
    // Per-burst cadence: a checkpoint after every ingested batch — the
    // worst case for capture cost and exactly what the log makes cheap.
    let (stream, chain, log) = sim
        .run_checkpointed_logged(algo, instance, 1, CHAIN)
        .expect("logged stream");
    // Legacy baseline at the same cadence, so both final blobs sit at the
    // same cut (full-frontier capture is where the quadratic cost shows).
    let (_, legacy_chain) = sim
        .run_checkpointed(algo, instance, 1)
        .expect("legacy stream");
    let ok = streams_agree(&plain, &stream);

    let last = chain.last().expect("at least the initial checkpoint");
    let legacy_last = legacy_chain.last().expect("legacy chain nonempty");
    let wire = last.blob.to_bytes();
    let started = Instant::now();
    let decoded = StateBlob::from_bytes(&wire).expect("wire decode");
    let _restored =
        <A::Run as LogCheckpointable>::restore_with_log(&decoded, &log).expect("restore with log");
    let restore_secs = started.elapsed().as_secs_f64();
    let mean_capture = chain.iter().map(|c| c.capture_secs).sum::<f64>() / chain.len() as f64;
    table.push_row(vec![
        stream.algorithm.clone(),
        instance.len().to_string(),
        stream.batches.to_string(),
        wire.len().to_string(),
        fmt_f64(legacy_last.blob.size_bytes() as f64 / 1024.0),
        fmt_f64(log.to_bytes().len() as f64 / 1024.0),
        fmt_f64(seglog_to_json(&log).len() as f64 / 1024.0),
        log.record_count().to_string(),
        fmt_f64(mean_capture * 1e6),
        fmt_f64(restore_secs * 1e6),
    ]);
    (
        ok,
        SizeSample {
            algorithm: stream.algorithm.clone(),
            live_bytes: wire.len(),
            legacy_bytes: legacy_last.blob.size_bytes(),
        },
    )
}

/// Streams `instance` through PD in coalesced bursts, then feeds one
/// sentinel job released 1 after the last deadline and returns the size of
/// the live blob captured after it: every earlier window has elapsed, so a
/// history-free state holds the sentinel alone.
fn pd_live_bytes_after_sentinel(instance: &Instance) -> usize {
    let mut run = PdScheduler::coarse().start_for(instance).expect("PD run");
    for (feed_time, ids) in coalesce_arrivals(instance, COALESCE_WINDOW) {
        let jobs: Vec<Job> = ids.iter().map(|&id| *instance.job(id)).collect();
        run.on_arrivals(&jobs, feed_time).expect("PD burst");
    }
    let release = instance.horizon().1 + 1.0;
    let sentinel = Job::new(instance.len(), release, release + 1.0, 0.1, 1e6);
    run.on_arrival(&sentinel, release).expect("PD sentinel");
    let mut log = SegmentLog::new(instance.machines);
    run.snapshot_live(&mut log)
        .expect("PD live snapshot")
        .to_bytes()
        .len()
}

/// Runs the `(log, blob)` crash drill for one algorithm and pushes its
/// recovery row; returns whether the recovered stream equals the
/// uninterrupted one.
fn recovery_row<A>(algo: &A, instance: &Instance, table: &mut Table, exact: bool) -> bool
where
    A: OnlineAlgorithm + ?Sized,
    A::Run: LogCheckpointable,
{
    let sim = StreamingSimulation::with_coalescing(COALESCE_WINDOW);
    let plain = sim.run(algo, instance).expect("plain stream");
    let kill_at = plain.batches / 2;
    let (recovered, stats, log) = sim
        .run_with_failover_logged(algo, instance, 1, kill_at)
        .expect("logged failover");
    let ok = if exact {
        streams_agree(&plain, &recovered)
    } else {
        streams_agree_tol(&plain, &recovered, 1e-9)
    } && log.reassemble(log.cursor()).is_ok();
    table.push_row(vec![
        recovered.algorithm.clone(),
        instance.len().to_string(),
        stats.killed_at_batch.to_string(),
        stats.replayed_events.to_string(),
        stats.checkpoint_bytes.to_string(),
        fmt_f64(stats.restore_secs * 1e6),
        fmt_f64(stats.replay_secs * 1e3),
        fmt_f64(stats.recovery_secs() * 1e3),
    ]);
    ok
}

/// Runs E18.
pub fn run(quick: bool) -> ExperimentOutput {
    let (n_small, n_large) = if quick { (96, 384) } else { (1000, 4000) };
    let burst = 8usize;

    // ---- Table 1: live blob size vs stream length, legacy baseline.
    let mut size = Table::new(
        "O(active) blob size vs stream length (per-burst cadence; legacy full-frontier baseline)",
        &[
            "algorithm",
            "n",
            "bursts",
            "live blob (B)",
            "legacy blob (KiB)",
            "log (KiB)",
            "log JSON (KiB)",
            "records",
            "capture mean (us)",
            "restore (us)",
        ],
    );
    let mut equivalent = true;
    let mut samples: Vec<SizeSample> = Vec::new();
    let mut pd_sentinel_bytes = Vec::new();
    for &n in &[n_small, n_large] {
        let instance = burst_instance(1, n, burst, 18_000 + n as u64);
        pd_sentinel_bytes.push(pd_live_bytes_after_sentinel(&instance));
        let moa_instance = burst_instance(1, n / 4, burst, 18_100 + n as u64);
        let mut push = |ok: bool, sample: SizeSample| {
            equivalent &= ok;
            samples.push(sample);
        };
        let (ok, s) = size_row(&OaScheduler, &instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&QoaScheduler::default(), &instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&MultiOaScheduler::default(), &moa_instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&CllScheduler, &instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&PdScheduler::coarse(), &instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&AvrScheduler, &instance, &mut size);
        push(ok, s);
        let (ok, s) = size_row(&BkpScheduler::default(), &instance, &mut size);
        push(ok, s);
    }

    // The flatness gate: for every replanning-family algorithm, the live
    // blob at the long stream stays within 1.5x of the short one while the
    // legacy full-frontier blob at least doubles; and every live blob
    // undercuts its legacy counterpart at the same cut.
    let replan_family = ["OA", "qOA", "OA(m)", "CLL"];
    let mut flat = true;
    let mut grew = true;
    let (mut live_ratio, mut legacy_ratio) = (0f64, f64::INFINITY);
    for name in replan_family {
        let per_algo: Vec<&SizeSample> = samples.iter().filter(|s| s.algorithm == name).collect();
        let (small, large) = (per_algo[0], per_algo[1]);
        let lr = large.live_bytes as f64 / small.live_bytes as f64;
        let gr = large.legacy_bytes as f64 / small.legacy_bytes as f64;
        flat &= lr <= 1.5;
        grew &= gr >= 2.0;
        live_ratio = live_ratio.max(lr);
        legacy_ratio = legacy_ratio.min(gr);
    }
    let undercut = samples.iter().all(|s| s.live_bytes < s.legacy_bytes);

    // ---- Table 2: recovery from the (log, blob) pair.
    let mut recovery = Table::new(
        "Recovery from (log, blob): kill at half the stream, truncate the log to the \
         checkpoint cursor, restore with the log, replay the delta",
        &[
            "algorithm",
            "n",
            "killed at batch",
            "replayed events",
            "live blob (B)",
            "restore (us)",
            "replay (ms)",
            "recovery total (ms)",
        ],
    );
    let mut recovered_identical = true;
    {
        let instance = burst_instance(1, n_small, burst, 18_200);
        let moa_instance = burst_instance(1, n_small / 4, burst, 18_300);
        recovered_identical &= recovery_row(&OaScheduler, &instance, &mut recovery, true);
        recovered_identical &=
            recovery_row(&QoaScheduler::default(), &instance, &mut recovery, true);
        recovered_identical &= recovery_row(
            &MultiOaScheduler::default(),
            &moa_instance,
            &mut recovery,
            false,
        );
        recovered_identical &= recovery_row(&CllScheduler, &instance, &mut recovery, true);
        recovered_identical &= recovery_row(&PdScheduler::coarse(), &instance, &mut recovery, true);
        recovered_identical &= recovery_row(&AvrScheduler, &instance, &mut recovery, true);
        recovered_identical &=
            recovery_row(&BkpScheduler::default(), &instance, &mut recovery, true);
    }

    ExperimentOutput {
        id: "E18".into(),
        title: "O(active) checkpoints: blob size flat vs stream length, (log, blob) recovery"
            .into(),
        tables: vec![size, recovery],
        notes: vec![
            format!(
                "logged checkpoint streams match the plain runs bit-for-bit \
                 (decisions, duals, schedules, costs): {}",
                check(equivalent)
            ),
            format!(
                "(log, blob) recovery equals the uninterrupted run on every deterministic \
                 field (exact; solver accuracy for OA(m)): {}",
                check(recovered_identical)
            ),
            format!(
                "replanning-family live blobs stay flat over a {}x longer stream (worst \
                 growth {:.2}x) while legacy full-frontier blobs grow (least growth {:.2}x): {}",
                n_large / n_small,
                live_ratio,
                legacy_ratio,
                check(flat && grew)
            ),
            format!(
                "every live blob undercuts the legacy full-frontier blob at the same cut: {}",
                check(undercut)
            ),
            format!(
                "after a sentinel job released past every deadline, PD's live blob has the \
                 same size at n = {n_small} and n = {n_large} ({} B vs {} B): {}",
                pd_sentinel_bytes[0],
                pd_sentinel_bytes[1],
                check(pd_sentinel_bytes[0] == pd_sentinel_bytes[1])
            ),
            "AVR and BKP blobs still carry O(events) job-history tables — the segment \
             log removes only the committed-frontier term of their growth; shrinking those \
             tables to live-only is future work"
                .into(),
        ],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_quick_produces_both_tables_and_passing_notes() {
        let out = run(true);
        assert_eq!(out.tables.len(), 2);
        // 7 algorithms x 2 lengths; 7 recovery rows.
        assert_eq!(out.tables[0].rows.len(), 14);
        assert_eq!(out.tables[1].rows.len(), 7);
        // Every note but the last (informational) one is a yes/NO gate,
        // including PD's history-free blob after the sentinel gap.
        assert_eq!(out.notes.len(), 6);
        for note in &out.notes[..5] {
            assert!(note.contains("yes"), "failing E18 note: {note}");
        }
    }
}
