//! The BKP algorithm (Bansal, Kimbrel & Pruhs).
//!
//! BKP runs, at every time `t`, at speed `e · v(t)` where
//!
//! ```text
//! v(t) = max_{t' > t}  w(t, e·t − (e−1)·t', t') / (e · (t' − t))
//! ```
//!
//! and `w(t, t1, t2)` is the total work of jobs released by time `t` whose
//! availability window is contained in `[t1, t2]`.  Jobs are processed in
//! EDF order.  BKP is `2(α/(α−1))^α e^α`-competitive (≈ `2e^{α+1}` for large
//! α) and outperforms OA for large `α`.
//!
//! ### Discretisation note
//!
//! The speed `e·v(t)` varies continuously with `t`, so this implementation
//! evaluates it on a uniform time grid ([`BkpScheduler::resolution`] steps
//! over the instance horizon) and holds it constant within each step.  A
//! configurable safety margin (default 2%) compensates for the
//! discretisation error so that all jobs still finish; the induced energy
//! error is of the same order.  BKP is only used as a context baseline in
//! the classical-scheduling experiment (E9), where this accuracy is ample.
//!
//! The event-driven [`BkpState`] executes the same grid incrementally: the
//! speed of a step is fixed when the step is first entered (it only depends
//! on jobs released by the step's start, so later arrivals cannot change
//! it), and the EDF sub-segment in flight when an arrival lands mid-step is
//! completed before the dispatcher re-evaluates — exactly reproducing the
//! batch loop.  Because the grid itself is derived from the instance
//! horizon, [`OnlineAlgorithm::start_for`] picks the grid; a pure
//! [`start`](OnlineAlgorithm::start) requires an explicit
//! [`step`](BkpScheduler::step) width.
//!
//! ### The deadline-indexed event path
//!
//! The naive `bkp_speed` scan evaluates `v(t)` by enumerating `O(k)`
//! candidate times `t'` and summing `O(k)` jobs for each — `O(k²)` per grid
//! step for `k` released jobs.  [`BkpState`] instead keeps a resident
//! `BkpSpeedIndex` across arrivals: released jobs sorted by deadline and
//! by release (releases arrive in nondecreasing order, so the release list
//! appends at the back; the deadline list's live tail holds only active
//! jobs, so both insertions are `O(active)` or better).  For a
//! query at time `t`, every job `j` has a *key*
//! `max(d_j, (e·t − r_j)/(e−1))` — the first candidate at which it is
//! counted — and the supremum of `w/(e·(t'−t))` is attained at the keys.
//! Splitting jobs into deadline-keyed and crossing-keyed groups (monotone
//! in `e·t`, so the split is a per-job predicate), the two presorted lists
//! yield all keys in ascending order by a single merge, and one prefix-sum
//! sweep evaluates every candidate — `O(k)` per grid evaluation, with no
//! per-candidate rescan.  EDF dispatch inside a step similarly replaces its
//! full-history scan with a lazy min-deadline heap.
//! [`BkpScheduler::batch_schedule`] keeps the naive scan, so the
//! equivalence tests pin the index against an independent implementation.
//!
//! On top of the merge, the index **prunes far-future candidate keys**:
//! expired jobs are dropped from the deadline list permanently (they stay
//! crossing-keyed forever), and the whole aged history — every job old
//! enough that its crossing key exceeds all deadline keys — is aggregated
//! by a single `O(log n)` max-slope query on a convex hull of
//! release/prefix-work points instead of being swept job by job.  A grid
//! evaluation costs `O(active + recent + log n)` instead of `O(released)`,
//! so per-arrival tail latencies stop growing with the stream length.

use std::collections::BinaryHeap;

use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
use pss_types::{
    check_arrival, num, Decision, Instance, Job, OnlineAlgorithm, OnlineScheduler, Schedule,
    ScheduleError, Segment,
};

/// The BKP scheduler (single machine).
#[derive(Debug, Clone, Copy)]
pub struct BkpScheduler {
    /// Number of uniform time steps used to evaluate the speed profile when
    /// the horizon is known upfront (the batch path and
    /// [`OnlineAlgorithm::start_for`]).
    pub resolution: usize,
    /// Multiplicative safety margin on the speed to absorb discretisation
    /// error (1.0 = none).
    pub speed_margin: f64,
    /// Explicit grid step width for horizon-free streaming runs started via
    /// [`OnlineAlgorithm::start`]; `None` derives the step from the horizon
    /// via `resolution` (and makes `start` without an instance an error).
    pub step: Option<f64>,
}

impl Default for BkpScheduler {
    fn default() -> Self {
        Self {
            resolution: 4000,
            speed_margin: 1.02,
            step: None,
        }
    }
}

/// The BKP speed `e·v(t)` at time `t`, given the jobs released so far: the
/// naive `O(k²)` scan behind [`BkpScheduler::batch_schedule`] and
/// [`BkpScheduler::speed_at`].
fn bkp_speed(jobs: &[Job], t: f64) -> f64 {
    let e = std::f64::consts::E;
    // Candidate t': all deadlines after t, plus the points where the
    // left endpoint e·t − (e−1)·t' crosses a release time.
    let mut candidates: Vec<f64> = jobs
        .iter()
        .filter(|j| j.release <= t + 1e-12 && j.deadline > t)
        .map(|j| j.deadline)
        .collect();
    for j in jobs.iter().filter(|j| j.release <= t + 1e-12) {
        let crossing = (e * t - j.release) / (e - 1.0);
        if crossing > t {
            candidates.push(crossing);
        }
    }
    let mut v = 0.0_f64;
    for &t2 in &candidates {
        if t2 <= t {
            continue;
        }
        let t1 = e * t - (e - 1.0) * t2;
        let work: f64 = jobs
            .iter()
            .filter(|j| {
                j.release <= t + 1e-12
                    && num::approx_ge(j.release, t1)
                    && num::approx_le(j.deadline, t2)
            })
            .map(|j| j.work)
            .sum();
        v = v.max(work / (e * (t2 - t)));
    }
    e * v
}

/// One job as the speed index sees it: `phi = r + (e−1)·d` decides whether
/// the job's key at query time `t` is its deadline (`phi ≥ e·t`) or its
/// release-crossing `(e·t − r)/(e−1)` (`phi < e·t`) — the job's key is the
/// maximum of the two, and `phi` compares them without recomputing either.
#[derive(Debug, Clone, Copy)]
struct IndexedJob {
    release: f64,
    deadline: f64,
    work: f64,
    phi: f64,
}

impl IndexedJob {
    fn new(job: &Job) -> Self {
        let e = std::f64::consts::E;
        Self {
            release: job.release,
            deadline: job.deadline,
            work: job.work,
            phi: job.release + (e - 1.0) * job.deadline,
        }
    }
}

/// The resident deadline/release index behind the incremental BKP speed
/// evaluation.
///
/// `speed(t)` is mathematically identical to `bkp_speed` on the inserted
/// jobs (the supremum over candidate times is attained at the per-job keys,
/// which the two presorted lists enumerate in ascending order; jobs not yet
/// released at `t` — possible within the arrival-order tolerance when a job
/// is fed slightly early — are filtered during the sweep exactly like the
/// scan's release filter), but costs a single `O(k)` merge-and-sweep
/// instead of the naive `O(k²)` candidate × rescan loop.
///
/// Cost model: because the index **prunes keys**, an insertion is
/// `O(active)` and an evaluation is `O(active + recent + log n)`:
///
/// * the release list appends at the back (releases are nondecreasing) and
///   the deadline list's live tail holds only active jobs — the expired
///   prefix is dropped permanently as the query time advances (expired
///   jobs are crossing-keyed forever, so the deadline copy can never be
///   needed again);
/// * the merge sweep only walks the *young* jobs — those whose crossing
///   key could fall below some deadline key.  For every job older than the
///   cutoff `r* = e·t − (e−1)·d_max` (so its key exceeds every deadline
///   key), the candidate value has the closed form
///   `(W − P(r_j)) · (e−1) / (e·(t − r_j))`, where `W` is the total
///   released work and `P(r_j)` the prefix work released before `r_j`:
///   every released job except the strictly older crossing ones counts.
///   Maximising this over the old jobs is a **max-slope query** from the
///   moving point `(t, W)` over the static point set `(r_j, P(r_j))` —
///   answered in `O(log n)` on the *lower convex hull* of those points
///   (smaller prefix works dominate, since they subtract less from `W`),
///   which is append-only because releases and prefix works are both
///   nondecreasing.  The sup over the whole aged history is therefore
///   computed exactly without touching it.
///
/// On a steady stream the aged candidates genuinely stay competitive
/// (prefix work grows linearly with key distance, so their values plateau
/// near `ρ·(e−1)/e` for arrival work rate `ρ` — they cannot be *skipped*,
/// only aggregated), which is why the hull, not a decay bound, is the
/// right structure.
///
/// Queries must be made at nondecreasing times `t` (the grid execution
/// does this by construction); the expired-prefix drop relies on it.
#[derive(Debug, Clone)]
struct BkpSpeedIndex {
    /// Jobs sorted by deadline ascending (ties keep arrival order).  The
    /// entries before `expired_prefix` are dead and periodically drained,
    /// so the live tail holds only *active* jobs — which is what keeps
    /// insertion `O(active)`.
    by_deadline: Vec<IndexedJob>,
    /// Number of leading `by_deadline` entries dropped by the expiry
    /// cursor (physically drained once they outnumber the live tail).
    expired_prefix: usize,
    /// Jobs sorted by release *ascending* — arrival order up to the feed
    /// tolerance, so an insert appends at (or within a few slots of) the
    /// back.  The sweep walks it backward: descending release is ascending
    /// crossing-key order for any query time.
    by_release: Vec<IndexedJob>,
    /// `prefix_work[i]` = total work of `by_release[..i]` (length
    /// `by_release.len() + 1`); the `P(r_j)` of the hull points.
    prefix_work: Vec<f64>,
    /// Lower convex hull of the points `(release, prefix_work[pos])` over
    /// `by_release[..hull_len]` — strictly increasing in x.
    hull: Vec<(f64, f64)>,
    /// Number of leading `by_release` positions covered by `hull`.
    hull_len: usize,
    /// Running maximum deadline over every inserted job (monotone): the
    /// conservative `d_max` of the hull cutoff, so coverage regresses only
    /// when an unusually long window arrives.
    d_max_all: f64,
}

impl Default for BkpSpeedIndex {
    fn default() -> Self {
        Self {
            by_deadline: Vec::new(),
            expired_prefix: 0,
            by_release: Vec::new(),
            prefix_work: vec![0.0],
            hull: Vec::new(),
            hull_len: 0,
            d_max_all: f64::NEG_INFINITY,
        }
    }
}

impl BkpSpeedIndex {
    /// Registers a newly released job in both sorted lists.
    ///
    /// `by_release` is append-biased (releases are nondecreasing up to the
    /// arrival-order tolerance, so the backward walk is `O(1)` amortised);
    /// `by_deadline`'s insertion point lies in its live tail, which the
    /// expired-prefix drop keeps at `O(active)` — new deadlines are
    /// strictly after `now`, hence after every dropped deadline.
    fn insert(&mut self, job: &Job) {
        let ij = IndexedJob::new(job);
        let live = &self.by_deadline[self.expired_prefix..];
        let pos = self.expired_prefix + live.partition_point(|a| a.deadline <= ij.deadline);
        self.by_deadline.insert(pos, ij);
        let mut pos = self.by_release.len();
        while pos > 0 && self.by_release[pos - 1].release > ij.release {
            pos -= 1;
        }
        if pos < self.hull_len {
            // A tolerance-early feed landed inside the hulled prefix: its
            // prefix works go stale.  The hull keeps a 128-position margin
            // behind the back, so this needs an out-of-order feed *and* a
            // pathologically short history — rebuilt lazily if it happens.
            self.hull.clear();
            self.hull_len = 0;
        }
        self.by_release.insert(pos, ij);
        // Fix the prefix-work tail (O(1) for the in-order append case).
        self.prefix_work.truncate(pos + 1);
        for i in pos..self.by_release.len() {
            let next = self.prefix_work[i] + self.by_release[i].work;
            self.prefix_work.push(next);
        }
        self.d_max_all = self.d_max_all.max(ij.deadline);
    }

    /// Appends the point for `by_release[pos]` to the **lower** convex
    /// hull: the query maximises `(W − y)/(t − x)` from a point above and
    /// to the right, so smaller prefix works dominate and the relevant
    /// envelope is the chain convex from below.
    fn hull_push(&mut self, pos: usize) {
        let p = (self.by_release[pos].release, self.prefix_work[pos]);
        if let Some(&(x, y)) = self.hull.last() {
            if x == p.0 {
                // Equal releases: the earlier position has the smaller
                // prefix, i.e. the candidate whose work term includes the
                // whole tie group — it dominates the later tied points.
                if p.1 >= y {
                    return;
                }
                self.hull.pop();
            }
        }
        while self.hull.len() >= 2 {
            let (ox, oy) = self.hull[self.hull.len() - 2];
            let (ax, ay) = self.hull[self.hull.len() - 1];
            // Pop while the middle point lies on or above the chord (keeps
            // the chain strictly convex from below).
            if (ax - ox) * (p.1 - oy) - (ay - oy) * (p.0 - ox) <= 0.0 {
                self.hull.pop();
            } else {
                break;
            }
        }
        self.hull.push(p);
    }

    /// The best aged-candidate value over the hull,
    /// `max_j (w − y_j)·(e−1) / (e·(t − x_j))` — i.e. the largest slope
    /// from the query point `(t, w)` to a hull vertex, rescaled by
    /// `(e−1)/e`; `0` when the hull is empty.  The slope over a strictly
    /// convex chain is unimodal in the vertex index, so a binary peak
    /// search suffices.
    fn hull_best(&self, t: f64, w: f64) -> f64 {
        if self.hull.is_empty() {
            return 0.0;
        }
        let e = std::f64::consts::E;
        let value = |&(x, y): &(f64, f64)| {
            if t - x <= 0.0 {
                return 0.0;
            }
            (w - y) * (e - 1.0) / (e * (t - x))
        };
        let (mut lo, mut hi) = (0usize, self.hull.len() - 1);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if value(&self.hull[mid]) < value(&self.hull[mid + 1]) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        value(&self.hull[lo])
    }

    /// The BKP speed `e·v(t)` over the inserted jobs.
    fn speed(&mut self, t: f64) -> f64 {
        let e = std::f64::consts::E;
        let et = e * t;
        // Expired jobs (deadline ≤ t, hence — windows being strictly
        // positive — `phi < e·t` now and forever) are crossing-keyed at
        // every future query: their deadline-list copy would only ever be
        // skipped, so drop it permanently.  The cursor advances
        // monotonically because query times do; the occasional physical
        // drain keeps the dead prefix bounded by the live tail, so it is
        // `O(1)` amortised per expiry.
        while self.expired_prefix < self.by_deadline.len() {
            let job = &self.by_deadline[self.expired_prefix];
            if job.deadline <= t && job.phi < et {
                self.expired_prefix += 1;
            } else {
                break;
            }
        }
        if self.expired_prefix > 64 && 2 * self.expired_prefix > self.by_deadline.len() {
            self.by_deadline.drain(..self.expired_prefix);
            self.expired_prefix = 0;
        }

        // Hull split: jobs released at or before `r*` have crossing keys at
        // or beyond every deadline key (d_max is the running maximum, so
        // r* only regresses when an unusually long window arrives), which
        // makes their candidate values the closed form the hull aggregates.
        // The sweep below walks only the positions at or after `split`; the
        // hull answers the rest in O(log n).  A 128-position margin behind
        // the back keeps tolerance-early inserts out of the hulled prefix.
        let k_cut = self.d_max_all.max(t);
        let r_star = e * t - (e - 1.0) * k_cut;
        // Strict: a job released exactly at r* could still be
        // deadline-keyed (its crossing key ties d_max), so it sweeps.
        let idx = self.by_release.partition_point(|j| j.release < r_star);
        if idx < self.hull_len {
            // Coverage regressed past the hull (rare: a record-length
            // window arrived); rebuild over the still-valid prefix.
            self.hull.clear();
            self.hull_len = 0;
        }
        let target = idx.min(self.by_release.len().saturating_sub(128));
        while self.hull_len < target {
            self.hull_push(self.hull_len);
            self.hull_len += 1;
        }
        let split = self.hull_len;

        let a = &self.by_deadline;
        let b = &self.by_release;
        let mut ai = self.expired_prefix;
        let mut bi = b.len();
        // Candidate prefix sum of the swept (young) keys; old jobs only
        // have *larger* keys, so they never contribute to a swept
        // candidate's work term.
        let mut sum = 0.0_f64;
        // Total released work of the swept positions (candidate or not) —
        // together with the hulled prefix this is the released work `W` of
        // the hull's closed form.
        let mut swept_work = 0.0_f64;
        let mut v = 0.0_f64;
        loop {
            // Next deadline-keyed job (phi ≥ e·t) and next crossing-keyed
            // job (phi < e·t); the other group is skipped in each list
            // (list b is walked backward — most recent release first, and
            // only down to the hull split).
            while ai < a.len() && a[ai].phi < et {
                ai += 1;
            }
            while bi > split && b[bi - 1].phi >= et {
                if b[bi - 1].release <= t + 1e-12 {
                    swept_work += b[bi - 1].work;
                }
                bi -= 1;
            }
            let ka = (ai < a.len()).then(|| a[ai].deadline);
            let kb = (bi > split).then(|| (et - b[bi - 1].release) / (e - 1.0));
            // Consume the smaller key.  Evaluating after every single job is
            // sound even for tied keys: the last evaluation at a key sees
            // the full prefix sum, earlier ones are dominated by it.
            let consume_b = match (ka, kb) {
                (None, None) => break,
                (Some(_), None) => false,
                (None, Some(_)) => true,
                (Some(ka), Some(kb)) => ka > kb,
            };
            let (job, key) = if consume_b {
                bi -= 1;
                if b[bi].release <= t + 1e-12 {
                    swept_work += b[bi].work;
                }
                (&b[bi], kb.expect("b key exists when consuming b"))
            } else {
                ai += 1;
                (&a[ai - 1], ka.expect("a key exists when consuming a"))
            };
            // The scan's release filter: a job fed early (within the
            // arrival-order tolerance) and not released by `t` contributes
            // neither work nor a candidate.
            if job.release > t + 1e-12 {
                continue;
            }
            sum += job.work;
            if key > t {
                v = v.max(sum / (e * (key - t)));
            }
        }
        if split > 0 {
            // The aged history, aggregated: max over the hulled prefix of
            // `(W − P(r_j))·(e−1)/(e·(t − r_j))` with `W` the total work
            // released by `t`.
            let released = self.prefix_work[split] + swept_work;
            v = v.max(self.hull_best(t, released));
        }
        e * v
    }
}

/// Entry of the lazy EDF queue: ordered so the max-heap pops the smallest
/// `(deadline, job)` — exactly the first minimum the scan's `min_by` picks.
#[derive(Debug, Clone, Copy)]
struct EdfEntry {
    deadline: f64,
    /// Dense index into [`BkpState::jobs`].
    job: usize,
}

impl PartialEq for EdfEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for EdfEntry {}

impl PartialOrd for EdfEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for EdfEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest deadline
        // (ties: smallest index) on top.
        other
            .deadline
            .total_cmp(&self.deadline)
            .then(other.job.cmp(&self.job))
    }
}

impl BkpScheduler {
    /// The BKP speed `e·v(t)` at time `t`, given the jobs of `instance`
    /// released by then.
    pub fn speed_at(&self, instance: &Instance, t: f64) -> f64 {
        bkp_speed(&instance.jobs, t)
    }

    /// The original batch grid evaluation, kept as the reference
    /// implementation for the incremental-vs-batch equivalence tests.
    pub fn batch_schedule(&self, instance: &Instance) -> Result<Schedule, ScheduleError> {
        crate::require_single_machine(instance.machines, "BKP", "")?;
        let mut schedule = Schedule::empty(1);
        if instance.is_empty() {
            return Ok(schedule);
        }
        let (lo, hi) = instance.horizon();
        let steps = self.resolution.max(1);
        let dt = (hi - lo) / steps as f64;
        let mut remaining: Vec<f64> = instance.jobs.iter().map(|j| j.work).collect();

        for i in 0..steps {
            let t = lo + i as f64 * dt;
            let speed = self.speed_at(instance, t) * self.speed_margin;
            if speed <= 0.0 {
                continue;
            }
            // EDF within the step, possibly splitting it across jobs.
            let mut now = t;
            let step_end = t + dt;
            while now < step_end - 1e-15 {
                let next = instance
                    .jobs
                    .iter()
                    .enumerate()
                    .filter(|(j, job)| {
                        remaining[*j] > 1e-12 && job.release <= now + 1e-12 && job.deadline > now
                    })
                    .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline));
                let Some((j, job)) = next else { break };
                let max_dur = (remaining[j] / speed)
                    .min(step_end - now)
                    .min(job.deadline - now);
                if max_dur <= 1e-15 {
                    break;
                }
                schedule.push(Segment::work(0, now, now + max_dur, speed, job.id));
                remaining[j] -= speed * max_dur;
                now += max_dur;
            }
        }
        Ok(schedule)
    }
}

/// The EDF sub-segment currently being executed (it survives arrivals that
/// land in its middle, exactly like the batch loop's inner dispatch).
#[derive(Debug, Clone, Copy)]
struct Inflight {
    /// Dense index into [`BkpState::jobs`].
    job: usize,
    /// Time at which the sub-segment ends.
    end: f64,
    /// The job's remaining work once the sub-segment completes.
    remaining_after: f64,
}

/// One event-driven BKP run.
#[derive(Debug, Clone)]
pub struct BkpState {
    speed_margin: f64,
    /// Grid step width.
    dt: f64,
    /// Grid anchor (`τ_0`); fixed by `start_for`, or at the first arrival
    /// for horizon-free runs.
    anchor: Option<f64>,
    /// Upper bound on the number of grid steps (set by `start_for` to match
    /// the batch grid exactly; `None` runs until the released horizon ends).
    max_steps: Option<usize>,
    /// Jobs released so far (original ids).
    jobs: Vec<Job>,
    remaining: Vec<f64>,
    committed: Schedule,
    /// Time up to which the frontier is committed.
    now: f64,
    /// Index of the grid step containing `now`.
    step_idx: usize,
    /// Speed of the current step, fixed when the step is first entered.
    step_speed: Option<f64>,
    /// Set when the batch dispatch rule `break`s out of the current step
    /// (no eligible job, or a degenerate sub-segment): the remainder of the
    /// step idles even if a job arrives inside it, exactly like the batch
    /// loop.
    step_idle: bool,
    inflight: Option<Inflight>,
    /// Resident speed index over the released jobs.
    index: BkpSpeedIndex,
    /// Lazy EDF queue over the released jobs (finished/expired entries are
    /// discarded at peek time; they can never become eligible again).
    edf: BinaryHeap<EdfEntry>,
}

impl BkpState {
    fn step_start(&self, anchor: f64) -> f64 {
        anchor + self.step_idx as f64 * self.dt
    }

    /// The earliest-deadline eligible job at `self.now`, by scanning the
    /// full history — the batch loop's dispatch rule, and the heap's
    /// fallback while a job fed within the arrival-order tolerance is not
    /// released yet.
    fn scan_next(&self) -> Option<usize> {
        self.jobs
            .iter()
            .enumerate()
            .filter(|(j, job)| {
                self.remaining[*j] > 1e-12
                    && job.release <= self.now + 1e-12
                    && job.deadline > self.now
            })
            .min_by(|(_, a), (_, b)| a.deadline.total_cmp(&b.deadline))
            .map(|(j, _)| j)
    }

    /// The earliest-deadline eligible job at `self.now`, via the lazy heap
    /// (equivalent to [`scan_next`](Self::scan_next), including its
    /// first-minimum tie-break).
    fn edf_peek(&mut self) -> Option<usize> {
        while let Some(entry) = self.edf.peek() {
            let j = entry.job;
            if self.remaining[j] <= 1e-12 || self.jobs[j].deadline <= self.now {
                // Finished or expired: permanently ineligible, drop it.
                self.edf.pop();
                continue;
            }
            if self.jobs[j].release > self.now + 1e-12 {
                // Fed early (within the arrival tolerance) and not released
                // yet at dispatch time: it may become eligible later, so it
                // cannot be popped — fall back to the scan for this
                // dispatch.
                return self.scan_next();
            }
            return Some(j);
        }
        None
    }

    /// Executes the grid over `[self.now, to)`.
    fn advance_to(&mut self, to: f64) {
        let Some(anchor) = self.anchor else { return };
        while self.now < to - 1e-15 {
            if let Some(limit) = self.max_steps {
                if self.step_idx >= limit {
                    self.now = to;
                    return;
                }
            }
            let step_start = self.step_start(anchor);
            let step_end = step_start + self.dt;
            if self.dt <= 0.0 || step_end <= step_start {
                self.now = to;
                return;
            }
            // The speed of a step is fixed at its start time, from the jobs
            // released by then — later arrivals never change it.
            let speed = match self.step_speed {
                Some(s) => s,
                None => {
                    let s = self.index.speed(step_start) * self.speed_margin;
                    self.step_speed = Some(s);
                    s
                }
            };
            let stop = step_end.min(to);

            if speed <= 0.0 || self.step_idle {
                self.now = stop;
            } else {
                // Dispatch EDF sub-segments until `stop`, completing any
                // sub-segment already in flight first.
                while self.now < stop - 1e-15 {
                    let fl = match self.inflight {
                        Some(fl) => fl,
                        None => {
                            let Some(j) = self.edf_peek() else {
                                // Batch `break`: the rest of the step idles,
                                // even past arrivals landing inside it.
                                self.step_idle = true;
                                break;
                            };
                            let job = self.jobs[j];
                            let max_dur = (self.remaining[j] / speed)
                                .min(step_end - self.now)
                                .min(job.deadline - self.now);
                            if max_dur <= 1e-15 {
                                self.step_idle = true;
                                break;
                            }
                            let fl = Inflight {
                                job: j,
                                end: self.now + max_dur,
                                remaining_after: self.remaining[j] - speed * max_dur,
                            };
                            self.inflight = Some(fl);
                            fl
                        }
                    };
                    let until = fl.end.min(stop);
                    self.committed.push(Segment::work(
                        0,
                        self.now,
                        until,
                        speed,
                        self.jobs[fl.job].id,
                    ));
                    self.now = until;
                    if until >= fl.end - 1e-15 {
                        self.remaining[fl.job] = fl.remaining_after;
                        self.inflight = None;
                    }
                }
                // A `break` above leaves the rest of `[now, stop)` idle.
                self.now = self.now.max(stop);
            }
            if self.now >= step_end - 1e-15 {
                self.step_idx += 1;
                self.step_speed = None;
                self.step_idle = false;
                self.now = self.now.max(step_end);
            }
        }
        self.now = self.now.max(to);
    }
}

impl SnapshotPart for IndexedJob {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_f64(self.release);
        w.write_f64(self.deadline);
        w.write_f64(self.work);
        w.write_f64(self.phi);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            release: r.read_f64()?,
            deadline: r.read_f64()?,
            work: r.read_f64()?,
            phi: r.read_f64()?,
        })
    }
}

/// The resident speed index round-trips *verbatim* — both sorted lists, the
/// expired-prefix cursor, the prefix works and the append-only convex hull
/// with its coverage length — so the first grid evaluation after a restore
/// walks exactly the structures the uninterrupted run would have walked.
impl SnapshotPart for BkpSpeedIndex {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_seq(&self.by_deadline);
        w.write_usize(self.expired_prefix);
        w.write_seq(&self.by_release);
        w.write_seq(&self.prefix_work);
        w.write_seq(&self.hull);
        w.write_usize(self.hull_len);
        w.write_f64(self.d_max_all);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        let index = Self {
            by_deadline: r.read_seq()?,
            expired_prefix: r.read_usize()?,
            by_release: r.read_seq()?,
            prefix_work: r.read_seq()?,
            hull: r.read_seq()?,
            hull_len: r.read_usize()?,
            d_max_all: r.read_f64()?,
        };
        if index.expired_prefix > index.by_deadline.len()
            || index.prefix_work.len() != index.by_release.len() + 1
            || index.hull_len > index.by_release.len()
            || index.hull.len() > index.hull_len
        {
            return Err(SnapshotError::Invalid(
                "speed index cursors out of range".into(),
            ));
        }
        Ok(index)
    }
}

/// State version of [`BkpState`] snapshots.  Version 4 dropped the two
/// fast-path toggles; older blobs are rejected with a typed error.
const BKP_STATE_VERSION: u16 = 4;

/// The blob holds the grid cursor (step index, the fixed per-step speed,
/// the idle flag and any EDF sub-segment in flight), the job history with
/// remaining works, the resident speed index including its convex hull, the
/// lazy EDF queue and the frontier's log cursor —
/// the complete live state, so a run restored from the `(log, blob)` pair
/// resumes the same grid step at the same speed.
impl LogCheckpointable for BkpState {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let frontier = FrontierPart::sync(log, &self.committed)?;
        let mut w = BlobWriter::new();
        w.write_f64(self.speed_margin);
        w.write_f64(self.dt);
        w.write_part(&self.anchor);
        w.write_part(&self.max_steps);
        w.write_seq(&self.jobs);
        w.write_seq(&self.remaining);
        w.write_part(&frontier);
        w.write_f64(self.now);
        w.write_usize(self.step_idx);
        w.write_part(&self.step_speed);
        w.write_bool(self.step_idle);
        match self.inflight {
            None => w.write_bool(false),
            Some(fl) => {
                w.write_bool(true);
                w.write_usize(fl.job);
                w.write_f64(fl.end);
                w.write_f64(fl.remaining_after);
            }
        }
        w.write_part(&self.index);
        // The heap's pop order is a total order on (deadline, dense id), so
        // serialising the entries sorted keeps blobs deterministic without
        // changing behaviour.
        let mut entries: Vec<(f64, usize)> = self.edf.iter().map(|e| (e.deadline, e.job)).collect();
        entries.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        w.write_seq(&entries);
        Ok(StateBlob::new("bkp", BKP_STATE_VERSION, w.into_payload()))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("bkp", BKP_STATE_VERSION)?;
        let speed_margin = r.read_f64()?;
        let dt = r.read_f64()?;
        let anchor = r.read_part()?;
        let max_steps = r.read_part()?;
        let jobs: Vec<Job> = r.read_seq()?;
        let remaining: Vec<f64> = r.read_seq()?;
        let committed = r.read_part::<FrontierPart>()?.resolve(log)?;
        let now = r.read_f64()?;
        let step_idx = r.read_usize()?;
        let step_speed = r.read_part()?;
        let step_idle = r.read_bool()?;
        let inflight = if r.read_bool()? {
            Some(Inflight {
                job: r.read_usize()?,
                end: r.read_f64()?,
                remaining_after: r.read_f64()?,
            })
        } else {
            None
        };
        let index = r.read_part()?;
        let entries: Vec<(f64, usize)> = r.read_seq()?;
        r.finish()?;
        if remaining.len() != jobs.len()
            || inflight.is_some_and(|fl| fl.job >= jobs.len())
            || entries.iter().any(|&(_, j)| j >= jobs.len())
        {
            return Err(SnapshotError::Invalid(
                "BKP job table indices out of range".into(),
            ));
        }
        let mut edf = BinaryHeap::with_capacity(entries.len());
        for (deadline, job) in entries {
            edf.push(EdfEntry { deadline, job });
        }
        Ok(Self {
            speed_margin,
            dt,
            anchor,
            max_steps,
            jobs,
            remaining,
            committed,
            now,
            step_idx,
            step_speed,
            step_idle,
            inflight,
            index,
            edf,
        })
    }
}

impl OnlineScheduler for BkpState {
    /// Burst ingestion: the grid is advanced **once** for the whole burst,
    /// then every job is registered with the resident structures — the EDF
    /// heap push (`O(log n)`), the speed index (append-biased release
    /// list, `O(active)` deadline list), and the job/remaining tables.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        for job in jobs {
            check_arrival(job, self.now, now)?;
        }
        if self.anchor.is_none() {
            self.anchor = Some(now);
            self.now = now;
        }
        if self.now.is_finite() {
            let to = now.max(self.now);
            self.advance_to(to);
        }
        for job in jobs {
            self.edf.push(EdfEntry {
                deadline: job.deadline,
                job: self.jobs.len(),
            });
            self.index.insert(job);
            self.jobs.push(*job);
            self.remaining.push(job.work);
        }
        Ok(vec![Decision::accept(0.0); jobs.len()])
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        if let Some(anchor) = self.anchor {
            let end = match self.max_steps {
                Some(steps) => anchor + steps as f64 * self.dt,
                None => self.jobs.iter().map(|j| j.deadline).fold(anchor, f64::max),
            };
            self.advance_to(end);
        }
        Ok(self.committed)
    }
}

impl OnlineAlgorithm for BkpScheduler {
    type Run = BkpState;

    fn algorithm_name(&self) -> String {
        "BKP".into()
    }

    fn start(&self, machines: usize, _alpha: f64) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(machines, "BKP", "")?;
        let Some(dt) = self.step else {
            return Err(ScheduleError::Internal(
                "BKP needs a time grid: set BkpScheduler::step for horizon-free streaming, \
                 or start the run with start_for(instance)"
                    .into(),
            ));
        };
        if !(dt.is_finite() && dt > 0.0) {
            return Err(ScheduleError::Internal(format!(
                "BKP step width must be positive and finite, got {dt}"
            )));
        }
        Ok(BkpState {
            speed_margin: self.speed_margin,
            dt,
            anchor: None,
            max_steps: None,
            jobs: Vec::new(),
            remaining: Vec::new(),
            committed: Schedule::empty(1),
            now: f64::NEG_INFINITY,
            step_idx: 0,
            step_speed: None,
            step_idle: false,
            inflight: None,
            index: BkpSpeedIndex::default(),
            edf: BinaryHeap::new(),
        })
    }

    fn start_for(&self, instance: &Instance) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(instance.machines, "BKP", "")?;
        if let Some(dt) = self.step {
            // An explicit step takes precedence over the horizon grid.
            let mut run = self.start(1, instance.alpha)?;
            debug_assert_eq!(run.dt, dt);
            run.anchor = Some(instance.horizon().0);
            run.now = instance.horizon().0;
            return Ok(run);
        }
        let (lo, hi) = instance.horizon();
        let steps = self.resolution.max(1);
        let span = hi - lo;
        let dt = if span > 0.0 { span / steps as f64 } else { 1.0 };
        Ok(BkpState {
            speed_margin: self.speed_margin,
            dt,
            anchor: Some(lo),
            max_steps: Some(steps),
            jobs: Vec::new(),
            remaining: Vec::new(),
            committed: Schedule::empty(1),
            now: lo,
            step_idx: 0,
            step_speed: None,
            step_idle: false,
            inflight: None,
            index: BkpSpeedIndex::default(),
            edf: BinaryHeap::new(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_offline::YdsScheduler;
    use pss_types::{validate_schedule, Scheduler};

    fn instance() -> Instance {
        Instance::from_tuples(
            1,
            3.0,
            vec![
                (0.0, 4.0, 1.0, 1.0),
                (1.0, 3.0, 1.0, 1.0),
                (2.0, 6.0, 1.5, 1.0),
            ],
        )
        .unwrap()
    }

    #[test]
    fn bkp_finishes_every_job() {
        let inst = instance();
        let s = BkpScheduler::default().schedule(&inst).unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
    }

    #[test]
    fn bkp_energy_is_at_least_the_optimum() {
        let inst = instance();
        let bkp = BkpScheduler::default()
            .schedule(&inst)
            .unwrap()
            .cost(&inst)
            .energy;
        let opt = YdsScheduler.schedule(&inst).unwrap().cost(&inst).energy;
        assert!(bkp >= opt - 1e-9, "BKP {bkp} below optimal {opt}");
    }

    #[test]
    fn incremental_bkp_matches_the_batch_reference() {
        let inst = instance();
        let algo = BkpScheduler {
            resolution: 500,
            ..Default::default()
        };
        let batch = algo.batch_schedule(&inst).unwrap();
        let inc = algo.schedule(&inst).unwrap();
        assert!(
            (batch.cost(&inst).energy - inc.cost(&inst).energy).abs()
                < 1e-6 * batch.cost(&inst).energy.max(1.0),
            "energy differs: batch {} vs incremental {}",
            batch.cost(&inst).energy,
            inc.cost(&inst).energy
        );
        for i in 0..60 {
            let t = 0.05 + i as f64 * 0.1;
            assert!(
                (batch.speed_at(0, t) - inc.speed_at(0, t)).abs() < 1e-6,
                "profiles differ at t={t}: {} vs {}",
                batch.speed_at(0, t),
                inc.speed_at(0, t)
            );
        }
    }

    #[test]
    fn horizon_free_streaming_needs_an_explicit_step() {
        assert!(BkpScheduler::default().start(1, 2.0).is_err());
        let with_step = BkpScheduler {
            step: Some(0.01),
            ..Default::default()
        };
        assert!(with_step.start(1, 2.0).is_ok());
    }

    #[test]
    fn explicit_step_streaming_finishes_jobs() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0), (1.0, 4.0, 1.0, 1.0)])
            .unwrap();
        let algo = BkpScheduler {
            step: Some(0.002),
            ..Default::default()
        };
        let mut run = algo.start(1, inst.alpha).unwrap();
        for id in inst.arrival_order() {
            let job = inst.job(id);
            assert!(run.on_arrival(job, job.release).unwrap().accepted);
        }
        let s = run.finish().unwrap();
        let report = validate_schedule(&inst, &s).unwrap();
        assert!(
            report.rejected.is_empty(),
            "rejected: {:?}",
            report.rejected
        );
    }

    #[test]
    fn bkp_speed_covers_single_job_density() {
        // With one job, v(t) at t = release must be at least w / (e (d - r))
        // and the e multiplier brings the speed to at least the density.
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0)]).unwrap();
        let s = BkpScheduler::default();
        assert!(s.speed_at(&inst, 0.0) >= 0.5 - 1e-9);
    }

    #[test]
    fn bkp_ignores_unreleased_jobs() {
        let inst = Instance::from_tuples(1, 2.0, vec![(0.0, 2.0, 1.0, 1.0), (5.0, 6.0, 10.0, 1.0)])
            .unwrap();
        let s = BkpScheduler::default();
        // At time 0 only the first job has arrived; the huge future job must
        // not influence the speed.
        assert!(s.speed_at(&inst, 0.0) < 3.0);
    }

    #[test]
    fn bkp_requires_single_machine() {
        let inst = Instance::from_tuples(2, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]).unwrap();
        assert!(BkpScheduler::default().schedule(&inst).is_err());
    }

    /// Deterministic pseudo-random stream for the index pin tests.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    #[test]
    fn speed_index_matches_the_naive_scan_at_increasing_times() {
        let mut state = 11u64;
        let mut jobs: Vec<Job> = Vec::new();
        let mut release = 0.0;
        for i in 0..120 {
            release += 0.3 * lcg(&mut state);
            let window = 0.2 + 3.0 * lcg(&mut state);
            jobs.push(Job::new(
                i,
                release,
                release + window,
                0.1 + 2.0 * lcg(&mut state),
                1.0,
            ));
        }
        let mut index = BkpSpeedIndex::default();
        let mut inserted = 0usize;
        let mut t = 0.0;
        while t < release + 4.0 {
            // Insert jobs up to 0.1 *before* their release passes `t`, like
            // a run fed within the arrival-order tolerance: the index's
            // sweep-time release filter must exclude them exactly like the
            // naive scan's.
            while inserted < jobs.len() && jobs[inserted].release <= t + 0.1 {
                index.insert(&jobs[inserted]);
                inserted += 1;
            }
            let fast = index.speed(t);
            let naive = bkp_speed(&jobs[..inserted], t);
            assert!(
                (fast - naive).abs() <= 1e-9 * naive.max(1.0),
                "speeds differ at t={t}: index {fast} vs scan {naive}"
            );
            t += 0.17;
        }
    }

    #[test]
    fn key_pruning_matches_the_full_sweep_at_increasing_times() {
        // A long stream whose early jobs expire far behind the query time
        // (past 128 released jobs, so the hull aggregates the aged
        // history): the pruned sweep must still produce the same speeds as
        // the naive scan at every query.
        let mut state = 23u64;
        let mut jobs: Vec<Job> = Vec::new();
        let mut release = 0.0;
        for i in 0..300 {
            release += 0.25 * lcg(&mut state);
            let window = 0.2 + 2.0 * lcg(&mut state);
            jobs.push(Job::new(
                i,
                release,
                release + window,
                0.1 + 2.0 * lcg(&mut state),
                1.0,
            ));
        }
        let mut pruned = BkpSpeedIndex::default();
        let mut inserted = 0usize;
        let mut t = 0.0;
        while t < release + 3.0 {
            while inserted < jobs.len() && jobs[inserted].release <= t {
                pruned.insert(&jobs[inserted]);
                inserted += 1;
            }
            let fast = pruned.speed(t);
            let naive = bkp_speed(&jobs[..inserted], t);
            assert!(
                (fast - naive).abs() <= 1e-9 * naive.max(1.0),
                "pruned vs naive scan differ at t={t}: {fast} vs {naive}"
            );
            t += 0.21;
        }
        // The expired prefix really is dropped as the frontier advances.
        assert!(
            pruned.by_deadline.len() - pruned.expired_prefix < jobs.len() / 2,
            "pruning never dropped the aged deadline prefix"
        );
    }
}
