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
//! fixed 2% safety margin ([`SPEED_MARGIN`]) compensates for the
//! discretisation error so that all jobs still finish; the induced energy
//! error is of the same order.  BKP is only used as a context baseline in
//! the classical-scheduling experiment (E9), where this accuracy is ample.
//!
//! The event-driven [`BkpState`] executes the same grid incrementally: the
//! speed of a step is fixed when the step is first entered (it only depends
//! on jobs released by the step's start, so later arrivals cannot change
//! it), and the EDF sub-segment in flight when an arrival lands mid-step is
//! completed before the dispatcher re-evaluates — exactly reproducing the
//! batch loop.  Because the grid is derived from the instance horizon,
//! [`OnlineAlgorithm::start_for`] is the only way to start a run;
//! [`start`](OnlineAlgorithm::start), which knows no horizon, returns an
//! error.
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
//! per-candidate rescan.  [`BkpScheduler::batch_schedule`] keeps the naive
//! scan, so the equivalence tests pin the index against an independent
//! implementation.
//!
//! The deadline list is also the one place the run's live jobs live: each
//! entry carries the job's id and its remaining work, and EDF dispatch
//! picks the first entry that is released, unfinished and before its
//! deadline.  The list keeps equal deadlines in arrival order, so that is
//! the batch loop's `min_by` with its first-minimum tie-break, and a job fed
//! within the arrival-order tolerance before its release is simply skipped
//! until it is released.
//!
//! On top of the merge, the index **prunes far-future candidate keys**:
//! expired jobs are dropped from the deadline list permanently (they stay
//! crossing-keyed forever), and the whole aged history — every job old
//! enough that its crossing key exceeds all deadline keys — is aggregated
//! by a single `O(log n)` max-slope query on a convex hull of
//! release/prefix-work points instead of being swept job by job.  A grid
//! evaluation costs `O(active + recent + log n)` instead of `O(released)`,
//! so per-arrival tail latencies stop growing with the stream length.

use pss_types::seglog::{FrontierPart, LogCheckpointable, SegmentLog};
use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart, StateBlob};
use pss_types::{
    check_arrival, num, Decision, Instance, Job, JobId, OnlineAlgorithm, OnlineScheduler, Schedule,
    ScheduleError, Segment,
};

/// Multiplicative safety margin on the grid speed, absorbing the
/// discretisation error so that every job still finishes.
pub const SPEED_MARGIN: f64 = 1.02;

/// The BKP scheduler (single machine).
#[derive(Debug, Clone, Copy)]
pub struct BkpScheduler {
    /// Number of uniform time steps over the instance horizon at which the
    /// speed profile is evaluated (the batch path and
    /// [`OnlineAlgorithm::start_for`]).
    pub resolution: usize,
}

impl Default for BkpScheduler {
    fn default() -> Self {
        Self { resolution: 4000 }
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

/// A deadline-list entry: the job as the speed index sees it, plus what EDF
/// dispatch needs — its id and its remaining work.
#[derive(Debug, Clone, Copy)]
struct LiveJob {
    job: IndexedJob,
    id: JobId,
    remaining: f64,
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
    /// Jobs sorted by deadline ascending (ties keep arrival order), with
    /// their remaining work: the run's live jobs and its EDF order.  The
    /// entries before `expired_prefix` are dead and periodically drained,
    /// so the live tail holds only *active* jobs — which is what keeps
    /// insertion `O(active)`.
    by_deadline: Vec<LiveJob>,
    /// Number of leading `by_deadline` entries dropped by the expiry
    /// cursor (physically drained once they outnumber the live tail).
    expired_prefix: usize,
    /// Dispatch cursor, at least `expired_prefix`: every entry before it is
    /// finished or expired.  EDF finishes jobs in deadline order, so they
    /// pile up at the front until they expire; the cursor keeps each pick
    /// from rescanning them.  Not state: a restore starts it at
    /// `expired_prefix`.
    cursor: usize,
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
            cursor: 0,
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
        let pos = self.expired_prefix + live.partition_point(|a| a.job.deadline <= ij.deadline);
        let entry = LiveJob {
            job: ij,
            id: job.id,
            remaining: job.work,
        };
        self.by_deadline.insert(pos, entry);
        self.cursor = self.cursor.min(pos);
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
            let job = &self.by_deadline[self.expired_prefix].job;
            if job.deadline <= t && job.phi < et {
                self.expired_prefix += 1;
            } else {
                break;
            }
        }
        self.cursor = self.cursor.max(self.expired_prefix);
        if self.expired_prefix > 64 && 2 * self.expired_prefix > self.by_deadline.len() {
            self.by_deadline.drain(..self.expired_prefix);
            self.cursor -= self.expired_prefix;
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
            while ai < a.len() && a[ai].job.phi < et {
                ai += 1;
            }
            while bi > split && b[bi - 1].phi >= et {
                if b[bi - 1].release <= t + 1e-12 {
                    swept_work += b[bi - 1].work;
                }
                bi -= 1;
            }
            let ka = (ai < a.len()).then(|| a[ai].job.deadline);
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
                (&a[ai - 1].job, ka.expect("a key exists when consuming a"))
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

    /// The EDF pick at `now`: the position of the first deadline-list entry
    /// that is released, unfinished and before its deadline.  A finished or
    /// expired entry stays dead (remaining work only falls and `now` only
    /// grows), so the cursor skips the dead prefix for good.
    fn edf(&mut self, now: f64) -> Option<usize> {
        let live = &self.by_deadline;
        let dead = |pos: usize| live[pos].remaining <= 1e-12 || live[pos].job.deadline <= now;
        while self.cursor < live.len() && dead(self.cursor) {
            self.cursor += 1;
        }
        (self.cursor..live.len()).find(|&pos| !dead(pos) && live[pos].job.release <= now + 1e-12)
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
            let speed = self.speed_at(instance, t) * SPEED_MARGIN;
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
/// land in its middle, exactly like the batch loop's inner dispatch).  Its
/// work is charged to the job's deadline-list entry when it starts: it
/// always runs to its end, and nothing reads the entry's remaining work
/// meanwhile, so completing it looks nothing up.
#[derive(Debug, Clone, Copy)]
struct Inflight {
    id: JobId,
    /// Time at which the sub-segment ends.
    end: f64,
}

/// One event-driven BKP run.
#[derive(Debug, Clone)]
pub struct BkpState {
    /// Grid step width.
    dt: f64,
    /// Grid anchor (`τ_0`): the instance horizon's start.
    anchor: f64,
    /// Number of grid steps: the batch grid's, so the run ends where it does.
    steps: usize,
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
    /// Resident speed index over the released jobs, whose deadline list
    /// also holds the live jobs' remaining work.
    index: BkpSpeedIndex,
}

impl BkpState {
    /// Executes the grid over `[self.now, to)`.
    fn advance_to(&mut self, to: f64) {
        while self.now < to - 1e-15 {
            if self.step_idx >= self.steps {
                self.now = to;
                return;
            }
            let step_start = self.anchor + self.step_idx as f64 * self.dt;
            let step_end = step_start + self.dt;
            if self.dt <= 0.0 || step_end <= step_start {
                self.now = to;
                return;
            }
            // A step entered with no eligible job idles whatever its speed
            // (the batch loop's `break` below), so its speed is evaluated
            // only on a step that can dispatch.  Skipping the evaluation
            // changes nothing else: the speed index's caches catch up at
            // the next evaluation.
            if self.step_speed.is_none()
                && !self.step_idle
                && self.inflight.is_none()
                && self.index.edf(self.now).is_none()
            {
                self.step_idle = true;
            }
            // The speed of a step is fixed at its start time, from the jobs
            // released by then — later arrivals never change it.
            let speed = match self.step_speed {
                Some(s) => s,
                None if self.step_idle => 0.0,
                None => {
                    let s = self.index.speed(step_start) * SPEED_MARGIN;
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
                            let Some(pos) = self.index.edf(self.now) else {
                                // Batch `break`: the rest of the step idles,
                                // even past arrivals landing inside it.
                                self.step_idle = true;
                                break;
                            };
                            let entry = &mut self.index.by_deadline[pos];
                            let max_dur = (entry.remaining / speed)
                                .min(step_end - self.now)
                                .min(entry.job.deadline - self.now);
                            if max_dur <= 1e-15 {
                                self.step_idle = true;
                                break;
                            }
                            // Clamped at zero: a finished job is dead either
                            // way, and a restore refuses negative work.
                            entry.remaining = (entry.remaining - speed * max_dur).max(0.0);
                            let fl = Inflight {
                                id: entry.id,
                                end: self.now + max_dur,
                            };
                            self.inflight = Some(fl);
                            fl
                        }
                    };
                    let until = fl.end.min(stop);
                    self.committed
                        .push(Segment::work(0, self.now, until, speed, fl.id));
                    self.now = until;
                    if until >= fl.end - 1e-15 {
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

impl SnapshotPart for LiveJob {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_part(&self.job);
        w.write_part(&self.id);
        w.write_f64(self.remaining);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            job: r.read_part()?,
            id: r.read_part()?,
            remaining: r.read_f64()?,
        })
    }
}

/// The resident speed index round-trips *verbatim* — both sorted lists (the
/// deadline list with each job's id and remaining work), the expired-prefix
/// cursor, the prefix works and the append-only convex hull with its
/// coverage length — so the first grid evaluation after a restore walks
/// exactly the structures the uninterrupted run would have walked.  The
/// dispatch cursor restarts at the expired prefix.
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
        let by_deadline: Vec<LiveJob> = r.read_seq()?;
        let expired_prefix = r.read_usize()?;
        let index = Self {
            by_deadline,
            expired_prefix,
            cursor: expired_prefix,
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
        // Ingress keeps deadlines finite, and insertion keeps the live tail
        // sorted; a dispatched job's remaining work is clamped at zero.
        let live = &index.by_deadline[index.expired_prefix..];
        if index
            .by_deadline
            .iter()
            .any(|e| !e.job.deadline.is_finite() || !e.remaining.is_finite() || e.remaining < 0.0)
            || live
                .windows(2)
                .any(|pair| pair[0].job.deadline > pair[1].job.deadline)
        {
            return Err(SnapshotError::Invalid(
                "deadline list holds a non-finite deadline, a negative or non-finite \
                 remaining work, or an entry out of deadline order"
                    .into(),
            ));
        }
        Ok(index)
    }
}

/// State version of [`BkpState`] snapshots.  Version 4 dropped the two
/// fast-path toggles; version 5 dropped the job history and the EDF heap,
/// whose remaining works moved into the deadline list.  Older blobs are
/// rejected with a typed error.
const BKP_STATE_VERSION: u16 = 5;

/// The blob holds the grid (step width, anchor and step count), the grid
/// cursor (step index, the fixed per-step speed, the idle flag and any EDF
/// sub-segment in flight), the resident speed index — its deadline list
/// holds the live jobs with their remaining works, its release list and
/// convex hull the release history — and the frontier's log cursor: the
/// complete live state, so a run restored from the `(log, blob)` pair
/// resumes the same grid step at the same speed.
impl LogCheckpointable for BkpState {
    fn snapshot_live(&self, log: &mut SegmentLog) -> Result<StateBlob, SnapshotError> {
        let frontier = FrontierPart::sync(log, &self.committed)?;
        let mut w = BlobWriter::new();
        w.write_f64(self.dt);
        w.write_f64(self.anchor);
        w.write_usize(self.steps);
        w.write_part(&frontier);
        w.write_f64(self.now);
        w.write_usize(self.step_idx);
        w.write_part(&self.step_speed);
        w.write_bool(self.step_idle);
        w.write_part(&self.inflight.map(|fl| (fl.id, fl.end)));
        w.write_part(&self.index);
        Ok(StateBlob::new("bkp", BKP_STATE_VERSION, w.into_payload()))
    }

    fn restore_with_log(blob: &StateBlob, log: &SegmentLog) -> Result<Self, SnapshotError> {
        let mut r = blob.expect("bkp", BKP_STATE_VERSION)?;
        let state = Self {
            dt: r.read_f64()?,
            anchor: r.read_f64()?,
            steps: r.read_usize()?,
            committed: r.read_part::<FrontierPart>()?.resolve(log)?,
            now: r.read_f64()?,
            step_idx: r.read_usize()?,
            step_speed: r.read_part()?,
            step_idle: r.read_bool()?,
            inflight: r
                .read_part::<Option<(JobId, f64)>>()?
                .map(|(id, end)| Inflight { id, end }),
            index: r.read_part()?,
        };
        r.finish()?;
        if let Some(fl) = state.inflight {
            if !state.index.by_deadline.iter().any(|e| e.id == fl.id) {
                return Err(SnapshotError::Invalid(
                    "the job in flight is not in the deadline list".into(),
                ));
            }
        }
        Ok(state)
    }
}

impl OnlineScheduler for BkpState {
    /// Burst ingestion: the grid is advanced **once** for the whole burst,
    /// then every job is registered with the speed index (append-biased
    /// release list, `O(active)` deadline list, which also carries the
    /// job's remaining work for EDF dispatch).  A job whose deadline is not
    /// after the feed time has expired: it is rejected at its value and
    /// never reaches the index, as the feed core rejects it.
    fn on_arrivals(&mut self, jobs: &[Job], now: f64) -> Result<Vec<Decision>, ScheduleError> {
        if jobs.is_empty() {
            return Ok(Vec::new());
        }
        for job in jobs {
            check_arrival(job, self.now, now)?;
        }
        let now = now.max(self.now);
        self.advance_to(now);
        let mut decisions = Vec::with_capacity(jobs.len());
        for job in jobs {
            if job.deadline <= now {
                decisions.push(Decision::reject(job.value));
                continue;
            }
            self.index.insert(job);
            decisions.push(Decision::accept(0.0));
        }
        Ok(decisions)
    }

    fn frontier(&self) -> &Schedule {
        &self.committed
    }

    fn finish(mut self) -> Result<Schedule, ScheduleError> {
        self.advance_to(self.anchor + self.steps as f64 * self.dt);
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
        Err(ScheduleError::Internal(
            "BKP evaluates its speed on a grid over the instance horizon: \
             start the run with start_for(instance)"
                .into(),
        ))
    }

    fn start_for(&self, instance: &Instance) -> Result<Self::Run, ScheduleError> {
        crate::require_single_machine(instance.machines, "BKP", "")?;
        let (lo, hi) = instance.horizon();
        let steps = self.resolution.max(1);
        let span = hi - lo;
        let dt = if span > 0.0 { span / steps as f64 } else { 1.0 };
        Ok(BkpState {
            dt,
            anchor: lo,
            steps,
            committed: Schedule::empty(1),
            now: lo,
            step_idx: 0,
            step_speed: None,
            step_idle: false,
            inflight: None,
            index: BkpSpeedIndex::default(),
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
        let algo = BkpScheduler { resolution: 500 };
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
    fn start_without_an_instance_names_start_for() {
        let err = BkpScheduler::default().start(1, 2.0).unwrap_err();
        assert!(err.to_string().contains("start_for"), "{err}");
        assert!(BkpScheduler::default().start_for(&instance()).is_ok());
    }

    #[test]
    fn restore_refuses_bad_remaining_work_an_unsorted_list_or_a_stray_inflight() {
        // A run stopped mid-sub-segment, so the blob carries a job in flight.
        let inst = instance();
        let mut run = BkpScheduler { resolution: 50 }.start_for(&inst).unwrap();
        for id in inst.arrival_order() {
            let job = inst.job(id);
            run.on_arrival(job, job.release).unwrap();
        }
        run.advance_to(2.55);
        assert!(run.inflight.is_some() && run.index.by_deadline.len() == 3);
        let restore = |state: &BkpState| {
            let mut log = SegmentLog::new(1);
            let blob = state.snapshot_live(&mut log).unwrap();
            BkpState::restore_with_log(&blob, &log)
        };
        assert!(restore(&run).is_ok());
        let mut bad: Vec<(&str, BkpState)> = Vec::new();
        for remaining in [-1e-300, f64::NAN, f64::INFINITY] {
            let mut state = run.clone();
            state.index.by_deadline[1].remaining = remaining;
            bad.push(("remaining work", state));
        }
        let mut state = run.clone();
        state.index.by_deadline.swap(0, 2);
        bad.push(("deadline order", state));
        let mut state = run.clone();
        state.inflight = Some(Inflight {
            id: JobId(7),
            end: 3.0,
        });
        bad.push(("job in flight", state));
        for (what, state) in &bad {
            assert!(
                matches!(restore(state), Err(SnapshotError::Invalid(_))),
                "a blob with a bad {what} was not refused"
            );
        }
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
