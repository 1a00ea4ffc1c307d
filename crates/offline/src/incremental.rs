//! Warm-started YDS for the left-aligned replanning subproblem.
//!
//! The plan-revision online algorithms (OA, qOA, CLL) re-solve YDS at every
//! arrival over the *remaining* work of the pending jobs.  At replanning
//! time `t` every pending job has already been released, so its effective
//! window is `[t, d_j)` — all windows share the left endpoint `t`.  For this
//! left-aligned special case YDS collapses to a closed form:
//!
//! 1. sort the jobs by deadline,
//! 2. take cumulative remaining works `W_i`,
//! 3. the optimal speed profile is the **concave majorant** of the points
//!    `(d_i, W_i)` anchored at `(t, 0)`: a staircase of decreasing speeds
//!    whose steps are exactly the critical intervals YDS would peel off, and
//! 4. within each step the jobs run back to back in EDF (deadline) order,
//!    each to completion — which is what YDS's per-round EDF does when every
//!    job is already released.
//!
//! This replaces the `O(k³)` general critical-interval search of
//! [`yds_schedule`](crate::yds::yds_schedule) by an `O(k log k)` geometric
//! computation that produces the same schedule (verified against the general
//! algorithm in the tests below and by the `incremental_equivalence`
//! integration tests).
//!
//! [`IncrementalYds`] is the warm-started form: it keeps the deadline-sorted
//! order across replans, so consecutive plans — which differ by one arrival
//! and by the executed prefix — cost an `O(k)` merge and one majorant pass
//! instead of a fresh sort.  The replanning executor in `pss-baselines`
//! follows each plan only until the next arrival, so
//! [`IncrementalYds::plan_window`] emits only the segments that start
//! before the window's end; the majorant pass still covers every job,
//! because a later deadline can lower an earlier step.  [`StepSpeed`] runs
//! the same pass to read one job's speed, which is all CLL's admission rule
//! asks of a plan.  Both keep their cumulative works and breakpoints in
//! buffers reused across calls; a checkpoint holds only the warm order.

use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart};
use pss_types::{num, JobId, Schedule, ScheduleError, Segment};

/// A pending job as seen by the left-aligned planner.
///
/// In the produced plan, segment job ids are the items' **positions**
/// (`JobId(i)` refers to `items[i]`) — the dense-id convention of the
/// replanning executor.  The `key` is only the *warm-start identity*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanItem {
    /// Stable caller-chosen identity (e.g. the job's original id).  Keys
    /// must be unique per call and stable across calls for warm starting to
    /// engage; they also break deadline ties deterministically.
    pub key: usize,
    /// Deadline `d_j` (must lie after the planning time).
    pub deadline: f64,
    /// Remaining work (non-negative).
    pub work: f64,
}

/// Computes the left-aligned YDS plan at time `now` from scratch.
///
/// Equivalent to `yds_schedule` on jobs `(release = now, deadline, work)`
/// but `O(k log k)` instead of `O(k³)`.  The replanning executor uses the
/// warm-started [`IncrementalYds`] instead; this one-shot form is the
/// full-horizon reference the window plans are pinned against.
pub fn left_aligned_plan(now: f64, items: &[PlanItem]) -> Result<Schedule, ScheduleError> {
    IncrementalYds::default().plan(now, items)
}

/// The maximum speed the left-aligned YDS plan at `now` assigns to
/// `items[item]` (0 if the item has no work).  This is the speed CLL's
/// admission rule compares with its threshold, read off a whole plan: the
/// reference [`StepSpeed`] is pinned against.
pub fn left_aligned_planned_speed(
    now: f64,
    items: &[PlanItem],
    item: usize,
) -> Result<f64, ScheduleError> {
    let plan = left_aligned_plan(now, items)?;
    Ok(plan
        .segments
        .iter()
        .filter(|s| s.job == Some(JobId(item)))
        .map(|s| s.speed)
        .fold(0.0_f64, f64::max))
}

/// Rejects an item the left-aligned plan at `now` cannot hold.
fn check_item(now: f64, key: usize, deadline: f64, work: f64) -> Result<(), ScheduleError> {
    if !(deadline.is_finite() && work.is_finite() && work >= 0.0) {
        return Err(ScheduleError::Internal(format!(
            "left-aligned YDS: item {key} has non-finite deadline/work"
        )));
    }
    if deadline <= now {
        return Err(ScheduleError::Internal(format!(
            "left-aligned YDS: item {key} expired (deadline {deadline} <= now {now})"
        )));
    }
    Ok(())
}

/// The staircase of a left-aligned plan: the cumulative works along a
/// deadline order and the breakpoints of their concave majorant.  Both
/// buffers are reused across calls.
#[derive(Debug, Clone, Default)]
struct Staircase {
    cum: Vec<f64>,
    /// Indices into the deadline order of the majorant's breakpoints.
    stack: Vec<usize>,
}

impl Staircase {
    /// The majorant over the `k` items of a deadline order, the `i`-th
    /// having deadline `deadline(i)` and remaining work `work(i)`.
    fn build(
        &mut self,
        now: f64,
        k: usize,
        deadline: impl Fn(usize) -> f64,
        work: impl Fn(usize) -> f64,
    ) {
        self.cum.clear();
        self.stack.clear();
        // Cumulative remaining work along the deadline order.
        let mut acc = 0.0_f64;
        for i in 0..k {
            acc += work(i);
            self.cum.push(acc);
        }
        // Concave majorant of the points (d_i, cum_i) anchored at (now, 0):
        // a monotone chain keeping the breakpoints where the slope strictly
        // decreases.  Division-free turn test, so equal deadlines (vertical
        // stretches) and collinear runs are handled exactly: the dominated
        // point is popped.
        let cum = &self.cum;
        for i in 0..k {
            let d_i = deadline(i);
            while let Some(&top) = self.stack.last() {
                let d_t = deadline(top);
                let (pd, pw) = match self.stack.len().checked_sub(2) {
                    Some(j) => (deadline(self.stack[j]), cum[self.stack[j]]),
                    None => (now, 0.0),
                };
                // Keep `top` only if slope(prev→top) > slope(top→i).
                let lhs = (cum[top] - pw) * (d_i - d_t);
                let rhs = (cum[i] - cum[top]) * (d_t - pd);
                if lhs > rhs {
                    break;
                }
                self.stack.pop();
            }
            self.stack.push(i);
        }
    }

    /// Walks the staircase from `now`: each majorant step runs its jobs
    /// back to back in deadline order at the step's slope.  `visit(i, start,
    /// duration, speed)` sees every job with work in a step of positive
    /// speed, in time order; the walk stops when it returns `false`.
    fn walk(
        &self,
        now: f64,
        deadline: impl Fn(usize) -> f64,
        work: impl Fn(usize) -> f64,
        mut visit: impl FnMut(usize, f64, f64, f64) -> bool,
    ) {
        let mut t = now;
        let mut first = 0usize;
        let (mut prev_d, mut prev_w) = (now, 0.0_f64);
        for &bp in &self.stack {
            let d_bp = deadline(bp);
            let step_work = self.cum[bp] - prev_w;
            let speed = step_work / (d_bp - prev_d);
            if speed > 0.0 {
                for i in first..=bp {
                    let w = work(i);
                    if w <= 0.0 {
                        continue;
                    }
                    let dur = w / speed;
                    if !visit(i, t, dur, speed) {
                        return;
                    }
                    t += dur;
                }
            }
            prev_d = d_bp;
            prev_w = self.cum[bp];
            first = bp + 1;
        }
    }
}

/// Per-key scratch slot of [`IncrementalYds`]; `generation` stamps which
/// plan call the slot belongs to, so the table never needs clearing.
#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    deadline: f64,
    work: f64,
    /// Position of the item in this call's `items`.
    position: u32,
    generation: u64,
    /// Whether the cached order already contains this key (set during the
    /// prune pass).
    in_order: bool,
}

/// Warm-started left-aligned YDS: one instance per run of a replanning
/// algorithm, fed the current pending set at every arrival.
///
/// The cached state is the deadline-sorted job order (keyed by the items'
/// stable `key`s).  Each call prunes the jobs that finished or expired since
/// the previous plan, merges the (few — typically one) newly arrived jobs
/// into the order, and recomputes the concave majorant over the up-to-date
/// remaining works.  Works and the planning time change every call (the
/// executor runs the previous plan between arrivals), but by OA's structural
/// invariant the staircase only changes where the new job perturbs it — the
/// majorant pass over the cached order re-derives exactly the perturbed
/// staircase without ever re-sorting or re-searching critical intervals.
///
/// The per-key slot table spans only the live keys: it is offset by the
/// smallest key of the call and drops the keys below it, so a run whose
/// keys grow with its history holds `O(live span)` slots, not one per key
/// ever seen.
#[derive(Debug, Clone, Default)]
pub struct IncrementalYds {
    /// `(deadline, key)` sorted by `(deadline, key)`; survives across plans.
    order: Vec<(f64, usize)>,
    /// Generation-stamped scratch for the keys `base..base + slots.len()`.
    slots: Vec<Slot>,
    base: usize,
    generation: u64,
    staircase: Staircase,
}

impl IncrementalYds {
    /// Plans the remaining work of `items` starting at `now` on machine 0;
    /// segment job ids are item positions (`JobId(i)` for `items[i]`).
    ///
    /// Every item's deadline must lie after `now` and keys must be unique;
    /// violations return an error.  The produced schedule finishes every
    /// item by its deadline and its energy is the single-machine optimum for
    /// the left-aligned instance.
    pub fn plan(&mut self, now: f64, items: &[PlanItem]) -> Result<Schedule, ScheduleError> {
        let mut plan = Schedule::empty(1);
        self.plan_window(now, items.iter().copied(), f64::INFINITY, &mut plan)?;
        Ok(plan)
    }

    /// The part of [`plan`](Self::plan) that starts before `until`, written
    /// into `out` (whose segments it replaces): bit for bit the full plan's
    /// segments with `start < until`, in the same order.  The majorant pass
    /// covers every item; only the emission stops at `until`.
    pub fn plan_window(
        &mut self,
        now: f64,
        items: impl Iterator<Item = PlanItem> + Clone,
        until: f64,
        out: &mut Schedule,
    ) -> Result<(), ScheduleError> {
        out.segments.clear();
        self.sync(now, items)?;
        let (order, slots, base) = (&self.order, &self.slots, self.base);
        let deadline = |i: usize| order[i].0;
        let slot = |i: usize| &slots[order[i].1 - base];
        let work = |i: usize| slot(i).work;
        self.staircase.build(now, order.len(), deadline, work);
        self.staircase
            .walk(now, deadline, work, |i, t, dur, speed| {
                if t >= until {
                    return false;
                }
                let position = slot(i).position as usize;
                out.push(Segment::work(0, t, t + dur, speed, JobId(position)));
                true
            });
        Ok(())
    }

    /// Brings the cached order up to date with `items`: validates them,
    /// stamps their slots, prunes the keys that left and merges the new ones.
    fn sync(
        &mut self,
        now: f64,
        items: impl Iterator<Item = PlanItem> + Clone,
    ) -> Result<(), ScheduleError> {
        let (mut lo, mut hi, mut len) = (usize::MAX, 0, 0);
        for it in items.clone() {
            check_item(now, it.key, it.deadline, it.work)?;
            lo = lo.min(it.key);
            hi = hi.max(it.key);
            len += 1;
        }
        if len == 0 {
            self.order.clear();
            self.slots.clear();
            return Ok(());
        }
        // Rebase the slot table onto `lo..=hi`: the slots below `lo` belong
        // to keys that left.  Every stamp predates this call, so when the
        // keys moved below the base the stale slots can simply go.
        if lo >= self.base {
            let dead = (lo - self.base).min(self.slots.len());
            self.slots.drain(..dead);
        } else {
            self.slots.clear();
        }
        self.base = lo;
        self.slots.resize(hi - lo + 1, Slot::default());

        self.generation += 1;
        let generation = self.generation;
        for (i, it) in items.clone().enumerate() {
            let slot = &mut self.slots[it.key - lo];
            if slot.generation == generation {
                return Err(ScheduleError::Internal(format!(
                    "left-aligned YDS: duplicate item key {}",
                    it.key
                )));
            }
            *slot = Slot {
                deadline: it.deadline,
                work: it.work,
                position: i as u32,
                generation,
                in_order: false,
            };
        }

        // Prune entries whose job finished/expired since the previous plan
        // (deadlines never change, so a key match with a different deadline
        // means the key was recycled — treat it as fresh).  A key outside
        // the table is not live in this call and is pruned like any other
        // stale entry.
        let slots = &mut self.slots;
        self.order.retain(|&(d, key)| {
            let Some(slot) = key.checked_sub(lo).and_then(|i| slots.get_mut(i)) else {
                return false;
            };
            if slot.generation == generation && slot.deadline == d {
                slot.in_order = true;
                true
            } else {
                false
            }
        });
        // Merge the newly arrived items into the sorted order.
        if self.order.len() < len {
            for it in items {
                if self.slots[it.key - lo].in_order {
                    continue;
                }
                let pos = self
                    .order
                    .partition_point(|&(d, k)| match d.total_cmp(&it.deadline) {
                        std::cmp::Ordering::Less => true,
                        std::cmp::Ordering::Greater => false,
                        std::cmp::Ordering::Equal => k < it.key,
                    });
                self.order.insert(pos, (it.deadline, it.key));
            }
        }
        debug_assert_eq!(self.order.len(), len);
        Ok(())
    }
}

impl SnapshotPart for IncrementalYds {
    fn encode(&self, w: &mut BlobWriter) {
        // Only the deadline-sorted order is live warm state: the slot table
        // and the staircase are per-call scratch (every call rewrites the
        // slots of the keys it sees before the order is consulted), so a
        // restore with fresh scratch and generation 0 plans bit-identically.
        w.write_seq(&self.order);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        Ok(Self {
            order: r.read_seq()?,
            ..Self::default()
        })
    }
}

/// The speed a left-aligned plan gives one of its items, read off the
/// staircase without building the plan: what CLL's admission rule needs.
///
/// Ties in deadline run in item order, so
/// [`planned_speed`](Self::planned_speed) returns, bit for bit, what
/// [`left_aligned_planned_speed`] returns for items keyed by their
/// positions.  The buffers are reused across calls and hold nothing a
/// result depends on.
#[derive(Debug, Clone, Default)]
pub struct StepSpeed {
    /// `(deadline, position, work)` sorted by `(deadline, position)`.
    order: Vec<(f64, usize, f64)>,
    staircase: Staircase,
}

impl StepSpeed {
    /// The speed the left-aligned plan at `now` over `items`, given as
    /// `(deadline, remaining work)`, runs the `item`-th at: its step's
    /// speed, or 0 when it has no work or its segment falls under
    /// [`Schedule::push`]'s cut.  Every deadline must lie after `now`.
    pub fn planned_speed(
        &mut self,
        now: f64,
        items: impl IntoIterator<Item = (f64, f64)>,
        item: usize,
    ) -> Result<f64, ScheduleError> {
        self.order.clear();
        for (i, (deadline, work)) in items.into_iter().enumerate() {
            check_item(now, i, deadline, work)?;
            self.order.push((deadline, i, work));
        }
        // Positions are unique, so the unstable sort has one outcome: the
        // order the reference's insertion by `(deadline, key)` builds.
        self.order
            .sort_unstable_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let order = &self.order;
        let deadline = |i: usize| order[i].0;
        let work = |i: usize| order[i].2;
        self.staircase.build(now, order.len(), deadline, work);
        let mut speed = 0.0;
        self.staircase.walk(now, deadline, work, |i, t, dur, step| {
            if order[i].1 != item {
                return true;
            }
            // `Schedule::push` drops a segment this short or this slow.
            let duration = (t + dur) - t;
            if duration > 0.0 && !num::approx_zero(duration) && !num::approx_zero(step) {
                speed = step;
            }
            false
        });
        Ok(speed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::yds::yds_schedule;
    use pss_types::Job;

    /// xoshiro-free deterministic pseudo-random stream for the tests.
    fn lcg(state: &mut u64) -> f64 {
        *state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((*state >> 11) as f64) / ((1u64 << 53) as f64)
    }

    fn assert_matches_generic(now: f64, items: &[PlanItem]) {
        let fast = left_aligned_plan(now, items).expect("fast plan");
        // The generic reference sees the same items with position ids.
        let jobs: Vec<Job> = items
            .iter()
            .enumerate()
            .map(|(i, it)| Job::new(i, now, it.deadline, it.work.max(1e-15), 0.0))
            .collect();
        let generic = yds_schedule(&jobs, 2.0).expect("generic YDS").schedule;
        // Same per-job work...
        let fw = fast.work_per_job(items.len());
        let gw = generic.work_per_job(items.len());
        for (i, it) in items.iter().enumerate() {
            assert!(
                (fw[i] - gw[i]).abs() < 1e-9 * it.work.max(1.0),
                "work differs for item {i}: fast {} vs generic {}",
                fw[i],
                gw[i]
            );
        }
        // ...and the same speed profile.
        let hi = items.iter().map(|it| it.deadline).fold(now, f64::max);
        for s in 0..200 {
            let t = now + (s as f64 + 0.5) * (hi - now) / 200.0;
            let a = fast.total_speed_at(t);
            let b = generic.total_speed_at(t);
            assert!(
                (a - b).abs() < 1e-9 * b.max(1.0),
                "profiles differ at t={t}: fast {a} vs generic {b}"
            );
        }
    }

    #[test]
    fn single_item_runs_at_its_density() {
        let plan = left_aligned_plan(
            1.0,
            &[PlanItem {
                key: 3,
                deadline: 5.0,
                work: 2.0,
            }],
        )
        .unwrap();
        assert_eq!(plan.segments.len(), 1);
        let s = plan.segments[0];
        assert_eq!(s.job, Some(JobId(0)), "ids are item positions");
        assert!((s.speed - 0.5).abs() < 1e-12);
        assert!((s.start - 1.0).abs() < 1e-12 && (s.end - 5.0).abs() < 1e-12);
    }

    #[test]
    fn staircase_speeds_decrease_and_meet_deadlines() {
        let items = vec![
            PlanItem {
                key: 0,
                deadline: 1.0,
                work: 2.0,
            },
            PlanItem {
                key: 1,
                deadline: 4.0,
                work: 1.0,
            },
            PlanItem {
                key: 2,
                deadline: 2.0,
                work: 0.5,
            },
        ];
        let plan = left_aligned_plan(0.0, &items).unwrap();
        let mut prev = f64::INFINITY;
        for seg in &plan.segments {
            assert!(seg.speed <= prev + 1e-12, "speeds increased");
            prev = seg.speed;
        }
        for (i, it) in items.iter().enumerate() {
            let finish = plan
                .segments
                .iter()
                .filter(|s| s.job == Some(JobId(i)))
                .map(|s| s.end)
                .fold(0.0, f64::max);
            assert!(finish <= it.deadline + 1e-9, "item {i} misses deadline");
        }
    }

    #[test]
    fn matches_generic_yds_on_random_left_aligned_sets() {
        let mut state = 99u64;
        for round in 0..30 {
            let now = lcg(&mut state) * 10.0;
            let k = 1 + (round % 9);
            let items: Vec<PlanItem> = (0..k)
                .map(|i| PlanItem {
                    key: i,
                    deadline: now + 0.1 + 6.0 * lcg(&mut state),
                    work: 0.05 + 2.0 * lcg(&mut state),
                })
                .collect();
            assert_matches_generic(now, &items);
        }
    }

    #[test]
    fn matches_generic_yds_with_tied_deadlines_and_tiny_works() {
        let items = vec![
            PlanItem {
                key: 0,
                deadline: 2.0,
                work: 1.0,
            },
            PlanItem {
                key: 1,
                deadline: 2.0,
                work: 1e-11,
            },
            PlanItem {
                key: 2,
                deadline: 3.0,
                work: 1e-11,
            },
            PlanItem {
                key: 3,
                deadline: 3.0,
                work: 0.5,
            },
        ];
        assert_matches_generic(0.5, &items);
    }

    #[test]
    fn warm_start_matches_from_scratch_across_replans() {
        let mut warm = IncrementalYds::default();
        let mut state = 7u64;
        let mut items: Vec<PlanItem> = Vec::new();
        let mut now = 0.0;
        for round in 0..40 {
            now += 0.2 * lcg(&mut state);
            // Simulate executed work and expiry between replans.
            items.retain(|it| it.deadline > now + 1e-9);
            for it in &mut items {
                it.work = (it.work - 0.05 * lcg(&mut state)).max(1e-6);
            }
            items.push(PlanItem {
                key: 100 + round,
                deadline: now + 0.3 + 4.0 * lcg(&mut state),
                work: 0.1 + 1.5 * lcg(&mut state),
            });
            let warm_plan = warm.plan(now, &items).expect("warm plan");
            let cold_plan = left_aligned_plan(now, &items).expect("cold plan");
            assert_eq!(
                warm_plan.segments.len(),
                cold_plan.segments.len(),
                "round {round}: segment counts differ"
            );
            for (a, b) in warm_plan.segments.iter().zip(&cold_plan.segments) {
                assert_eq!(a.job, b.job, "round {round}");
                assert!((a.speed - b.speed).abs() < 1e-12, "round {round}");
                assert!((a.start - b.start).abs() < 1e-12, "round {round}");
                assert!((a.end - b.end).abs() < 1e-12, "round {round}");
            }
        }
    }

    #[test]
    fn expired_items_and_duplicate_keys_are_rejected() {
        assert!(left_aligned_plan(
            1.0,
            &[PlanItem {
                key: 0,
                deadline: 0.5,
                work: 1.0
            }]
        )
        .is_err());
        assert!(left_aligned_plan(
            0.0,
            &[
                PlanItem {
                    key: 0,
                    deadline: 1.0,
                    work: 1.0
                },
                PlanItem {
                    key: 0,
                    deadline: 2.0,
                    work: 1.0
                },
            ]
        )
        .is_err());
    }

    #[test]
    fn planned_speed_reports_the_items_step_speed() {
        // Item 0 forces speed 2 in [0,1); item 1's step runs at 0.5.
        let items = vec![
            PlanItem {
                key: 0,
                deadline: 1.0,
                work: 2.0,
            },
            PlanItem {
                key: 1,
                deadline: 3.0,
                work: 1.0,
            },
        ];
        let s0 = left_aligned_planned_speed(0.0, &items, 0).unwrap();
        let s1 = left_aligned_planned_speed(0.0, &items, 1).unwrap();
        assert!((s0 - 2.0).abs() < 1e-12);
        assert!((s1 - 0.5).abs() < 1e-12);
    }

    /// A segment as its bits, so `==` is bit-for-bit.
    fn bits(s: &Segment) -> (usize, u64, u64, u64, Option<JobId>) {
        (
            s.machine,
            s.start.to_bits(),
            s.end.to_bits(),
            s.speed.to_bits(),
            s.job,
        )
    }

    /// A random pending set at `now` evolving like a replanning run's:
    /// expired items leave, works shrink (some to zero), and new items
    /// arrive with deadlines tied to a pending one and works down to 1e-11.
    fn evolve(state: &mut u64, items: &mut Vec<PlanItem>, now: f64, next_key: &mut usize) {
        items.retain(|it| it.deadline > now);
        for it in items.iter_mut() {
            it.work = (it.work - 0.2 * lcg(state)).max(0.0);
        }
        for _ in 0..1 + (lcg(state) * 3.0) as usize {
            let deadline = if !items.is_empty() && lcg(state) < 0.3 {
                items[(lcg(state) * items.len() as f64) as usize].deadline
            } else {
                now + 0.05 + 3.0 * lcg(state)
            };
            let work = match lcg(state) {
                u if u < 0.15 => 1e-11,
                u if u < 0.25 => 1e-7 * lcg(state),
                _ => 0.05 + 1.5 * lcg(state),
            };
            items.push(PlanItem {
                key: *next_key,
                deadline,
                work,
            });
            *next_key += 1;
        }
    }

    #[test]
    fn window_plans_are_the_full_plans_prefix_bit_for_bit() {
        let mut state = 2024u64;
        let mut warm = IncrementalYds::default();
        let mut window = Schedule::empty(1);
        let (mut items, mut next_key, mut now) = (Vec::new(), 1000usize, 0.0);
        for round in 0..400 {
            now += 0.3 * lcg(&mut state);
            evolve(&mut state, &mut items, now, &mut next_key);
            // Now and then a key below every live one (and below 1000, so
            // unused), as a restored or recycled id would give.
            if round % 37 == 0 {
                let it = items.last_mut().expect("an item arrived");
                it.key = round % 5;
            }
            let full = left_aligned_plan(now, &items).expect("full plan");
            let horizon = items.iter().map(|it| it.deadline).fold(now, f64::max);
            let until = match round % 4 {
                0 => full.segments.get(1).map_or(horizon, |s| s.start),
                _ => now + 1.2 * (horizon - now) * lcg(&mut state),
            };
            warm.plan_window(now, items.iter().copied(), until, &mut window)
                .expect("window plan");
            let prefix: Vec<_> = full
                .segments
                .iter()
                .filter(|s| s.start < until)
                .map(bits)
                .collect();
            let got: Vec<_> = window.segments.iter().map(bits).collect();
            assert_eq!(got, prefix, "round {round}: until {until}");
        }
    }

    #[test]
    fn the_slot_table_spans_only_the_live_keys() {
        // 10^5 increasing keys, at most 16 live at a time: the table is
        // offset by the smallest live key and drops the ones below it.
        let mut warm = IncrementalYds::default();
        let mut window = Schedule::empty(1);
        let mut peak = 0;
        for key in 0..100_000usize {
            let now = key as f64;
            let live = (key.saturating_sub(15)..=key).map(|k| PlanItem {
                key: k,
                deadline: k as f64 + 16.5,
                work: 1.0,
            });
            warm.plan_window(now, live, now + 1.0, &mut window)
                .expect("window plan");
            peak = peak.max(warm.slots.len());
        }
        assert!(peak <= 16, "the slot table grew to {peak} slots");
    }

    #[test]
    fn step_speed_is_the_reference_speed_bit_for_bit() {
        let mut state = 77u64;
        let mut scratch = StepSpeed::default();
        let (mut items, mut next_key, mut now) = (Vec::new(), 0usize, 0.0);
        let mut cut = 0;
        for round in 0..400 {
            now += 0.3 * lcg(&mut state);
            evolve(&mut state, &mut items, now, &mut next_key);
            // The reference keys every item by its position.
            let keyed: Vec<PlanItem> = items
                .iter()
                .enumerate()
                .map(|(i, it)| PlanItem { key: i, ..*it })
                .collect();
            for item in 0..keyed.len() {
                let want = left_aligned_planned_speed(now, &keyed, item).expect("reference");
                let got = scratch
                    .planned_speed(now, keyed.iter().map(|it| (it.deadline, it.work)), item)
                    .expect("step speed");
                assert_eq!(got.to_bits(), want.to_bits(), "round {round}, item {item}");
                if want == 0.0 && keyed[item].work > 0.0 {
                    cut += 1;
                }
            }
        }
        assert!(cut > 0, "no item fell under the push cut");
        // An item whose segment `Schedule::push` drops reads 0 on both paths.
        let items = [
            PlanItem {
                key: 0,
                deadline: 2.0,
                work: 1.0,
            },
            PlanItem {
                key: 1,
                deadline: 2.0,
                work: 1e-11,
            },
        ];
        assert_eq!(left_aligned_planned_speed(0.0, &items, 1).unwrap(), 0.0);
        let pairs = items.iter().map(|it| (it.deadline, it.work));
        assert_eq!(scratch.planned_speed(0.0, pairs, 1).unwrap(), 0.0);
        let pairs = items.iter().map(|it| (it.deadline, it.work));
        assert!(scratch.planned_speed(0.0, pairs, 0).unwrap() > 0.0);
        let expired = [(0.5, 1.0)];
        assert!(scratch.planned_speed(1.0, expired, 0).is_err());
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = left_aligned_plan(0.0, &[]).unwrap();
        assert!(plan.segments.is_empty());
    }
}
