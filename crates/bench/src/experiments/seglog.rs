//! E18 — checkpoints over the realised-segment log: blob size, capture and
//! restore cost, and recovery.
//!
//! A checkpoint is a `(log, blob)` pair: the committed frontier lives in an
//! append-only segment log, and the blob holds only live state plus a log
//! cursor, so its size does not grow with the stream.  This experiment
//! measures the claim and drills the recovery path:
//!
//! 1. **Live blob and log size vs stream length** — every algorithm
//!    streamed at two lengths with a checkpoint after *every* burst (the
//!    cadence the log is built for).  For the replanning family (OA, qOA,
//!    OA(m), CLL) the live blob must stay flat while the log — the run's
//!    O(events) history — grows with the stream.  PD keeps only its
//!    uncommitted intervals and AVR only its active set: after a sentinel
//!    job released past every deadline, each of their live blobs must have
//!    the same size at both lengths.  BKP keeps its live jobs in its
//!    deadline list, and beside them only the release history its speed
//!    bound reads (a release-list entry and a prefix work per released job,
//!    40 B, plus hull vertices): after the sentinel, its live blob may grow
//!    by at most 48 B per added arrival.  AVR runs its speed profile in EDF
//!    order, so its log must hold at most 3 segments per job.
//! 2. **Recovery from the `(log, blob)` pair** — a mid-stream kill for
//!    every algorithm: truncate the surviving log to the checkpoint's
//!    cursor, restore through `restore_with_log`, replay the delta, and
//!    require the result to equal the uninterrupted run on every
//!    deterministic field.

use std::time::Instant;

use pss_core::prelude::*;
use pss_metrics::table::fmt_f64;
use pss_metrics::Table;
use pss_sim::{coalesce_arrivals, StreamReport, StreamingSimulation};

use super::burst::{burst_instance, COALESCE_WINDOW};
use super::ExperimentOutput;
use crate::support::check;

/// Retained chain depth, mirroring the daemon's default.
const CHAIN: usize = 4;

/// BKP's live blob growth bound after the sentinel job, in bytes per added
/// arrival: a release-list entry and a prefix work (40 B) per released job,
/// plus room for hull vertices.
const BKP_BYTES_PER_ARRIVAL: f64 = 48.0;

/// Final live blob and log sizes of one (algorithm, length) cell, for the
/// flatness gate computed after the sweep.
struct SizeSample {
    algorithm: String,
    jobs: usize,
    live_bytes: usize,
    log_bytes: usize,
    log_segments: u64,
}

/// Deterministic-field equality of two stream reports: the records `==`
/// (latencies excluded), batches, schedules and cost bits.
fn streams_agree(a: &StreamReport, b: &StreamReport) -> bool {
    a.batches == b.batches
        && a.schedule.segments == b.schedule.segments
        && a.record == b.record
        && a.report.total_cost().to_bits() == b.report.total_cost().to_bits()
}

/// OA(m)'s schedules come from an iterative solver; its recovered run is
/// compared at solver tolerance with exact decisions instead of bitwise.
fn streams_agree_tol(a: &StreamReport, b: &StreamReport, tol: f64) -> bool {
    a.batches == b.batches
        && a.events.len() == b.events.len()
        && a.events
            .iter()
            .zip(&b.events)
            .all(|(x, y)| x.job == y.job && x.accepted == y.accepted)
        && (a.report.total_cost() - b.report.total_cost()).abs()
            <= tol * a.report.total_cost().max(1.0)
}

/// Streams one algorithm with per-burst checkpoints, pushes the size row,
/// and returns whether the checkpointed stream matched the plain one plus
/// the final blob and log sizes.
fn size_row<A>(algo: &A, instance: &Instance, table: &mut Table) -> (bool, SizeSample)
where
    A: OnlineAlgorithm + ?Sized,
    A::Run: LogCheckpointable,
{
    let sim = StreamingSimulation::with_coalescing(COALESCE_WINDOW);
    let plain = sim.run(algo, instance).expect("plain stream");
    // Per-burst cadence: a checkpoint after every ingested batch — the
    // worst case for capture cost and exactly what the log makes cheap.
    let (stream, chain) = sim
        .run_checkpointed(algo, instance, 1, CHAIN)
        .expect("checkpointed stream");
    let ok = streams_agree(&plain, &stream);

    let (log, retained) = (chain.log(), chain.checkpoints());
    let wire = &retained.back().expect("at least one checkpoint").wire;
    let log_bytes = log.to_bytes().len();
    let started = Instant::now();
    let decoded = StateBlob::from_bytes(wire).expect("wire decode");
    let _restored =
        <A::Run as LogCheckpointable>::restore_with_log(&decoded, log).expect("restore with log");
    let restore_secs = started.elapsed().as_secs_f64();
    let mean_capture = retained.iter().map(|c| c.capture_secs).sum::<f64>() / retained.len() as f64;
    table.push_row(vec![
        stream.algorithm.clone(),
        instance.len().to_string(),
        stream.batches.to_string(),
        wire.len().to_string(),
        fmt_f64(log_bytes as f64 / 1024.0),
        log.record_count().to_string(),
        fmt_f64(mean_capture * 1e6),
        fmt_f64(restore_secs * 1e6),
    ]);
    (
        ok,
        SizeSample {
            algorithm: stream.algorithm.clone(),
            jobs: instance.len(),
            live_bytes: wire.len(),
            log_bytes,
            log_segments: log.cursor().segments(),
        },
    )
}

/// Streams `instance` through `algo` in coalesced bursts, then feeds one
/// sentinel job released 1 after the last deadline and returns the size of
/// the live blob captured after it: every earlier window has elapsed, so a
/// history-free state holds the sentinel alone.
fn live_bytes_after_sentinel<A>(algo: &A, instance: &Instance) -> usize
where
    A: OnlineAlgorithm + ?Sized,
    A::Run: LogCheckpointable,
{
    let mut run = algo.start_for(instance).expect("sentinel run");
    for (feed_time, ids) in coalesce_arrivals(instance, COALESCE_WINDOW) {
        let jobs: Vec<Job> = ids.iter().map(|&id| *instance.job(id)).collect();
        run.on_arrivals(&jobs, feed_time).expect("burst");
    }
    let release = instance.horizon().1 + 1.0;
    let sentinel = Job::new(instance.len(), release, release + 1.0, 0.1, 1e6);
    run.on_arrival(&sentinel, release).expect("sentinel");
    let mut log = SegmentLog::new(instance.machines);
    run.snapshot_live(&mut log)
        .expect("live snapshot")
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
    let (recovered, stats, chain) = sim
        .run_with_failover(algo, instance, 1, kill_at)
        .expect("failover stream");
    let log = chain.log();
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

    // ---- Table 1: live blob and log size vs stream length.
    let mut size = Table::new(
        "O(active) blob and segment-log size vs stream length (per-burst cadence)",
        &[
            "algorithm",
            "n",
            "bursts",
            "live blob (B)",
            "log (KiB)",
            "records",
            "capture mean (us)",
            "restore (us)",
        ],
    );
    let mut equivalent = true;
    let mut samples: Vec<SizeSample> = Vec::new();
    let (mut pd_sentinel_bytes, mut avr_sentinel_bytes) = (Vec::new(), Vec::new());
    let mut bkp_sentinel_bytes = Vec::new();
    for &n in &[n_small, n_large] {
        let instance = burst_instance(1, n, burst, 18_000 + n as u64);
        pd_sentinel_bytes.push(live_bytes_after_sentinel(&PdScheduler::coarse(), &instance));
        avr_sentinel_bytes.push(live_bytes_after_sentinel(&AvrScheduler, &instance));
        bkp_sentinel_bytes.push(live_bytes_after_sentinel(
            &BkpScheduler::default(),
            &instance,
        ));
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
    // log, which holds the committed frontier, at least doubles.
    let replan_family = ["OA", "qOA", "OA(m)", "CLL"];
    let mut flat = true;
    let mut grew = true;
    let (mut live_ratio, mut log_ratio) = (0f64, f64::INFINITY);
    for name in replan_family {
        let per_algo: Vec<&SizeSample> = samples.iter().filter(|s| s.algorithm == name).collect();
        let (small, large) = (per_algo[0], per_algo[1]);
        let lr = large.live_bytes as f64 / small.live_bytes as f64;
        let gr = large.log_bytes as f64 / small.log_bytes as f64;
        flat &= lr <= 1.5;
        grew &= gr >= 2.0;
        live_ratio = live_ratio.max(lr);
        log_ratio = log_ratio.min(gr);
    }

    // AVR's segment bound: a segment ends only at a feed time, a deadline
    // or a completion.
    let avr_logs: Vec<&SizeSample> = samples.iter().filter(|s| s.algorithm == "AVR").collect();
    let avr_bounded = avr_logs.iter().all(|s| s.log_segments <= 3 * s.jobs as u64);

    // BKP's growth per added arrival after the sentinel: only the release
    // history behind its speed bound may still grow.
    let bkp_growth =
        (bkp_sentinel_bytes[1] as f64 - bkp_sentinel_bytes[0] as f64) / (n_large - n_small) as f64;

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
                "checkpointed streams match the plain runs bit-for-bit \
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
                 growth {:.2}x) while the segment log grows with it (least growth {:.2}x): {}",
                n_large / n_small,
                live_ratio,
                log_ratio,
                check(flat && grew)
            ),
            format!(
                "after a sentinel job released past every deadline, PD's and AVR's live \
                 blobs each have the same size at n = {n_small} and n = {n_large} (PD {} B vs \
                 {} B, AVR {} B vs {} B): {}",
                pd_sentinel_bytes[0],
                pd_sentinel_bytes[1],
                avr_sentinel_bytes[0],
                avr_sentinel_bytes[1],
                check(
                    pd_sentinel_bytes[0] == pd_sentinel_bytes[1]
                        && avr_sentinel_bytes[0] == avr_sentinel_bytes[1]
                )
            ),
            format!(
                "AVR's segment log holds at most 3 segments per job at n = {n_small} and \
                 n = {n_large} ({} and {} segments): {}",
                avr_logs[0].log_segments,
                avr_logs[1].log_segments,
                check(avr_bounded)
            ),
            format!(
                "after the sentinel job, BKP's live blob grows by at most \
                 {BKP_BYTES_PER_ARRIVAL} B per added arrival between n = {n_small} and \
                 n = {n_large} ({} B vs {} B, {bkp_growth:.1} B per arrival): {}",
                bkp_sentinel_bytes[0],
                bkp_sentinel_bytes[1],
                check(bkp_growth <= BKP_BYTES_PER_ARRIVAL)
            ),
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
        // Every note is a yes/NO gate, including PD's and AVR's
        // history-free blobs after the sentinel gap, AVR's segment bound and
        // BKP's blob growth.
        assert_eq!(out.notes.len(), 6);
        for note in &out.notes {
            assert!(note.contains("yes"), "failing E18 note: {note}");
        }
    }
}
