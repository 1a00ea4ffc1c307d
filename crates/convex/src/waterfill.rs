//! Marginal-cost-equalising allocation of one job's workload across its
//! atomic intervals ("water filling").
//!
//! This implements the continuous greedy increase of lines 5–12 of the
//! paper's Listing 1 in closed form.  The algorithm raises a common
//! *level* — the marginal cost `∂P_k/∂x_{jk}` — across all candidate
//! intervals, assigning work to each interval up to the amount it can absorb
//! at that level, until either the job is fully assigned or the level
//! reaches a cap (for PD: `v_j / δ`, the rejection threshold).
//!
//! ## How the per-interval capacity is computed
//!
//! Fix an interval of length `l` on `m` machines with the *other* jobs'
//! works `u_1, …, u_p` and a target speed `s` (the level expressed as a
//! speed via `λ = α w_j s^{α-1}`).  The maximum amount of work `z` job `j`
//! can place in the interval such that Chen et al.'s algorithm processes it
//! at speed at most `s` is
//!
//! ```text
//! z*(s) = min( s·l , max(0, q·s·l − B) )        with
//!         q = m − |{i : u_i > s·l}|,   B = Σ_{u_i ≤ s·l} u_i
//! ```
//!
//! The first term is the nonparallelism constraint (job `j` has only `l`
//! time units available), the second is the capacity of the machines not
//! permanently occupied by jobs that are too large to ever run at speed
//! `≤ s`.  `z*` is continuous and nondecreasing in `s` (when `s·l` crosses
//! some `u_i`, `q` gains one machine and `B` gains `u_i`, which cancel), and
//! so is the capacity sum over the candidates.
//!
//! ## How the level is found
//!
//! The level is the speed at which the capacity sum `Σ_k z*_k(s) / w_j`
//! reaches the fraction to place.  The sum is piecewise linear in `s`:
//! each interval's right slope is 0, `q·l` or `l`.  A safeguarded Newton
//! search on it (a step that would leave the known bracket halves it, or
//! doubles the speed while there is no upper end) lands on the root in
//! about three evaluations.  A window a few rounding-error bounds wide
//! around the root is then checked by evaluating the sum at its two ends:
//! below the target at the left end and above it at the right end, each by
//! twice a bound on the evaluation's rounding error.  The sum computed
//! exactly is nondecreasing, so the exact root lies in the window, and the
//! checked Newton root is the level, clamped to the cap.
//!
//! When the search or the check fails, the level comes from a bisection
//! with no tolerance: it halves the bit patterns of the speeds between 0
//! and the cap until the bracket's ends are adjacent floats, at most 64
//! evaluations.  Either way the level solves the sum to within its
//! rounding error, and the fill rescales the placed fractions so that they
//! add up to exactly the fraction to place.

use pss_intervals::WorkAssignment;
use pss_power::AlphaPower;
use pss_types::num;

use crate::program::ProgramContext;

/// Options controlling a water-filling run.
#[derive(Debug, Clone, Copy)]
pub struct WaterfillOptions {
    /// Total fraction of the job to place (1.0 = the whole job).
    pub max_fraction: f64,
    /// Optional cap on the marginal cost `∂P_k/∂x_{jk}`; the fill stops at
    /// this level even if the job is not fully placed.  PD uses `v_j / δ`.
    pub max_marginal: Option<f64>,
}

impl Default for WaterfillOptions {
    fn default() -> Self {
        Self {
            max_fraction: 1.0,
            max_marginal: None,
        }
    }
}

/// Result of a water-filling run for one job.
#[derive(Debug, Clone, PartialEq)]
pub struct WaterfillResult {
    /// `(interval, fraction)` pairs with strictly positive fractions; empty
    /// unless the fill saturated.
    pub added: Vec<(usize, f64)>,
    /// Total fraction placed, `Σ added`, or for a fill stopped at the
    /// marginal cap, the fraction that fits there.
    pub total: f64,
    /// The common speed level `s*` reached by the fill.
    pub level_speed: f64,
    /// The corresponding marginal cost `α · w_j · (s*)^{α-1}`.
    pub level_marginal: f64,
    /// `true` if the job was fully placed (total reached `max_fraction`).
    pub saturated: bool,
}

impl WaterfillResult {
    fn empty() -> Self {
        Self {
            added: Vec::new(),
            total: 0.0,
            level_speed: 0.0,
            level_marginal: 0.0,
            saturated: false,
        }
    }
}

/// Newton steps and window checks the level search may take before the
/// fill falls back to bisecting the speeds' bit patterns.
const SEARCH_STEPS: usize = 24;

/// One candidate interval of [`Capacities`].
#[derive(Debug, Clone, Copy)]
struct Span {
    /// Interval index echoed back in [`WaterfillResult::added`].
    interval: usize,
    length: f64,
    /// The interval's other works are `works[start..start + len]`, in
    /// decreasing order; their prefix sums are `prefix[prefix..=prefix +
    /// len]`, starting at 0.
    start: usize,
    len: usize,
    prefix: usize,
}

/// The capacity sum at one speed and its right slope there.
#[derive(Debug, Clone, Copy)]
struct Probe {
    speed: f64,
    value: f64,
    slope: f64,
}

/// The water-fill's one entry point: the capacity function of one fill,
/// per candidate interval the other jobs' positive works in decreasing
/// order and their prefix sums, packed into flat buffers.
///
/// A caller filling many jobs keeps one buffer and, per job, [`clear`]s it,
/// [`push`]es the job's candidate intervals and runs [`fill`].  Once the
/// buffers have grown to the largest fill, a fill allocates nothing but a
/// saturated result's `added` pairs.  [`waterfill_job`] and the offline solver's
/// coordinate descent fill through it, and so does online PD, straight from
/// its per-interval load lists.  A cleared buffer fills exactly as a fresh
/// one: no state carries from one fill to the next.
///
/// [`clear`]: Self::clear
/// [`push`]: Self::push
/// [`fill`]: Self::fill
#[derive(Debug, Clone, Default)]
pub struct Capacities {
    spans: Vec<Span>,
    works: Vec<f64>,
    prefix: Vec<f64>,
}

impl Capacities {
    /// Forgets every candidate, keeping the buffers.
    pub fn clear(&mut self) {
        self.spans.clear();
        self.works.clear();
        self.prefix.clear();
    }

    /// Adds a candidate interval of length `length` in which the other
    /// jobs place `other_works` (order irrelevant; non-positive entries are
    /// ignored).  `interval` is the caller's index for the interval,
    /// echoed back in [`WaterfillResult::added`].
    pub fn push(
        &mut self,
        interval: usize,
        length: f64,
        other_works: impl IntoIterator<Item = f64>,
    ) {
        let start = self.works.len();
        self.works
            .extend(other_works.into_iter().filter(|u| *u > 0.0));
        let works = &mut self.works[start..];
        works.sort_by(|a, b| b.total_cmp(a));
        let prefix = self.prefix.len();
        let mut acc = 0.0;
        self.prefix.push(acc);
        for u in works.iter() {
            acc += u;
            self.prefix.push(acc);
        }
        self.spans.push(Span {
            interval,
            length,
            start,
            len: works.len(),
            prefix,
        });
    }

    /// Maximum work job `j` can place in `span` with its speed staying
    /// `≤ speed`, and the right slope of that capacity in `speed`: 0, `q·l`
    /// or `l`.
    fn capacity(&self, span: &Span, speed: f64, machines: usize) -> (f64, f64) {
        if speed <= 0.0 {
            return (0.0, 0.0);
        }
        let threshold = speed * span.length;
        // Number of other jobs whose work exceeds the threshold; works are
        // sorted in decreasing order, so this is a partition point.
        let works = &self.works[span.start..span.start + span.len];
        let above = works.partition_point(|u| *u > threshold);
        if above >= machines {
            return (0.0, 0.0);
        }
        let q = (machines - above) as f64;
        let b_small = self.prefix[span.prefix + span.len] - self.prefix[span.prefix + above];
        let free = q * threshold - b_small;
        let slope = if free < 0.0 {
            0.0
        } else if threshold <= free {
            span.length
        } else {
            q * span.length
        };
        (threshold.min(free.max(0.0)), slope)
    }

    /// The fraction of a job of workload `w_j` that fits at `speed`: the
    /// capacity sum the level search solves for.
    fn fraction_at(&self, speed: f64, machines: usize, w_j: f64) -> f64 {
        num::stable_sum(
            self.spans
                .iter()
                .map(|c| self.capacity(c, speed, machines).0),
        ) / w_j
    }

    /// [`fraction_at`](Self::fraction_at), bit for bit, with its right
    /// slope.
    fn probe(&self, speed: f64, machines: usize, w_j: f64) -> Probe {
        let mut slope = 0.0;
        let sum = num::stable_sum(self.spans.iter().map(|c| {
            let (capacity, dz) = self.capacity(c, speed, machines);
            slope += dz;
            capacity
        }));
        Probe {
            speed,
            value: sum / w_j,
            slope: slope / w_j,
        }
    }

    /// Runs the water-filling allocation of a job of workload `w_j` on
    /// `machines` machines over the pushed candidates.
    pub fn fill(
        &self,
        power: AlphaPower,
        machines: usize,
        w_j: f64,
        opts: &WaterfillOptions,
    ) -> WaterfillResult {
        if self.spans.is_empty() || w_j <= 0.0 || opts.max_fraction <= 0.0 {
            return WaterfillResult::empty();
        }
        let m = machines;
        let target = opts.max_fraction;

        // The speed corresponding to the marginal cap (if any).
        let speed_cap = opts.max_marginal.map(|mm| power.dual_speed(mm, w_j));

        // If even at the cap the job cannot be fully placed, the fill stops at
        // the cap (PD's rejection case) and places nothing: no caller keeps a
        // job it could not place.
        if let Some(cap) = speed_cap {
            let total = self.fraction_at(cap, m, w_j);
            if total < target * (1.0 - 1e-12) {
                return WaterfillResult {
                    added: Vec::new(),
                    total,
                    level_speed: cap,
                    level_marginal: power.dual_value(cap, w_j),
                    saturated: false,
                };
            }
        }

        let cap = speed_cap.unwrap_or(f64::INFINITY);
        let level = match self.checked_root(m, w_j, target) {
            Some(root) => root.min(cap),
            None => self.bisect_bits(m, w_j, target, cap),
        };
        self.result(m, w_j, level, power, target)
    }

    /// The checked Newton root: a safeguarded Newton search on the capacity
    /// sum of a job of workload `w_j` for the speed where it reaches the
    /// fraction `target`, then a check of a window around the estimate.
    /// Returns the estimate once its window passes, or `None` if no
    /// estimate passes within `SEARCH_STEPS` steps; [`fill`](Self::fill)
    /// bisects then.  The pushed candidates and `(machines, w_j, target)`
    /// decide the answer, so a caller can tell which of the two gave a
    /// fill's level.
    ///
    /// A Newton step shorter than the window's half-width gives the
    /// estimate; any longer step is kept inside the known bracket, halving
    /// it (or doubling the speed while no upper end is known) when it
    /// would leave.  The window extends to either side of the estimate by the
    /// speed over which the sum rises by eight rounding-error bounds.  It
    /// passes if the sum at its left end plus twice its error bound is below
    /// `target` and the sum at its right end minus twice its bound is above
    /// it.  The sum computed exactly is nondecreasing, so its root lies in
    /// the window: there the sum rises by at least the shortest candidate's
    /// length per unit of speed, and the bound by `2ε·m·Σl`, which must be
    /// smaller.
    ///
    /// The error bound: each capacity is within `3u·(m·s·l + (p + 1)·U)` of
    /// the exact capacity, with `p` other works of total `U` in the
    /// interval and `u` the unit roundoff (the threshold, the prefix sums
    /// and the two products round); the compensated sum and the division
    /// add `3u` of the fraction.  The bound takes `4u` of both.
    pub fn checked_root(&self, machines: usize, w_j: f64, target: f64) -> Option<f64> {
        let m = machines as f64;
        let lengths = self.spans.iter().map(|c| c.length);
        let total_length: f64 = lengths.clone().sum();
        if lengths.fold(f64::INFINITY, f64::min) <= 4.0 * f64::EPSILON * m * total_length {
            return None;
        }
        let prefix_share: f64 = (self.spans.iter())
            .map(|c| (c.len + 1) as f64 * self.prefix[c.prefix + c.len])
            .sum();
        let error_bound = |speed: f64, value: f64| {
            let magnitude = m * speed.max(0.0) * total_length + prefix_share;
            2.0 * f64::EPSILON * (magnitude / w_j + value)
        };
        // The sum is below the target at `lo` and above it at `hi`.
        let (mut lo, mut hi) = (0.0_f64, f64::INFINITY);
        let start = self.initial_speed_guess(w_j, target);
        let mut p = self.probe(start, machines, w_j);
        for _ in 0..SEARCH_STEPS {
            if p.value < target {
                lo = lo.max(p.speed);
            } else if p.value > target {
                hi = hi.min(p.speed);
            }
            let root = p.speed + (target - p.value) / p.slope;
            let half = (8.0 * error_bound(p.speed, p.value) / p.slope)
                .max(4.0 * f64::EPSILON * root.abs());
            if root.is_finite() && (root - p.speed).abs() <= half {
                let (a, b) = (root - half, root + half);
                let below = self.fraction_at(a, machines, w_j);
                if below >= target {
                    p = self.probe(a, machines, w_j);
                    continue;
                }
                let above = self.fraction_at(b, machines, w_j);
                if above <= target {
                    p = self.probe(b, machines, w_j);
                    continue;
                }
                let clear = below + 2.0 * error_bound(a, below) < target
                    && above - 2.0 * error_bound(b, above) > target;
                return clear.then_some(root);
            }
            let next = if root > lo && root < hi {
                root
            } else if hi.is_finite() {
                0.5 * (lo + hi)
            } else {
                2.0 * p.speed
            };
            p = self.probe(next, machines, w_j);
        }
        None
    }

    /// The level when [`checked_root`](Self::checked_root) finds none: a
    /// bisection of the speeds in `[0, cap]` by their bit patterns, which
    /// nonnegative floats share their order with.  The sum is 0 at speed 0,
    /// below any target, and the bisection stops when the bracket's ends
    /// are adjacent floats, after at most 64 evaluations.  Returns the upper
    /// end: the least speed at which the sum reaches `target`, or the cap.
    fn bisect_bits(&self, machines: usize, w_j: f64, target: f64, cap: f64) -> f64 {
        let (mut lo, mut hi) = (0_u64, cap.to_bits());
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if self.fraction_at(f64::from_bits(mid), machines, w_j) < target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        f64::from_bits(hi)
    }

    fn initial_speed_guess(&self, w_j: f64, max_fraction: f64) -> f64 {
        let max_existing = self
            .spans
            .iter()
            .flat_map(|c| (c.len > 0).then(|| self.works[c.start] / c.length))
            .fold(0.0_f64, f64::max);
        let total_length: f64 = self.spans.iter().map(|c| c.length).sum();
        let spread_speed = if total_length > 0.0 {
            w_j * max_fraction / total_length
        } else {
            1.0
        };
        (max_existing + spread_speed).max(1e-9)
    }

    /// The saturated fill at `level_speed`: every candidate's capacity
    /// there, rescaled to add up to `max_fraction`.  The level solves the
    /// capacity sum only to within its rounding error (or the 1e-12 slack
    /// at a cap), so the rescale is what places a job exactly.  A level at
    /// which nothing fits (a sum of 0) places nothing and is unsaturated.
    fn result(
        &self,
        machines: usize,
        w_j: f64,
        level_speed: f64,
        power: AlphaPower,
        max_fraction: f64,
    ) -> WaterfillResult {
        let mut added: Vec<(usize, f64)> = self
            .spans
            .iter()
            .map(|c| (c.interval, self.capacity(c, level_speed, machines).0 / w_j))
            .filter(|(_, f)| *f > 0.0)
            .collect();
        let mut total = num::stable_sum(added.iter().map(|(_, f)| *f));
        let saturated = total > 0.0;
        if saturated {
            let scale = max_fraction / total;
            for (_, f) in &mut added {
                *f *= scale;
            }
            total = max_fraction;
        }
        WaterfillResult {
            added,
            total,
            level_speed,
            level_marginal: power.dual_value(level_speed, w_j),
            saturated,
        }
    }
}

/// Runs the water-filling allocation for `job` on top of the assignment `x`
/// (whose entries for `job` are ignored — callers wanting to *re*-allocate a
/// job should conceptually treat its old row as cleared; the base works are
/// always computed excluding `job`).
pub fn waterfill_job(
    ctx: &ProgramContext,
    x: &WorkAssignment,
    job: usize,
    opts: &WaterfillOptions,
) -> WaterfillResult {
    let mut capacities = Capacities::default();
    for &k in ctx.covered(job) {
        let others = ctx.interval_works_excluding(x, k, job);
        capacities.push(k, ctx.partition().length(k), others);
    }
    capacities.fill(ctx.power(), ctx.machines(), ctx.workloads()[job], opts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_chen::interval_power_derivative;
    use pss_types::Instance;

    fn single_job_ctx(
        machines: usize,
        alpha: f64,
        tuples: Vec<(f64, f64, f64, f64)>,
    ) -> ProgramContext {
        let inst = Instance::from_tuples(machines, alpha, tuples).unwrap();
        ProgramContext::new(&inst)
    }

    #[test]
    fn lone_job_spreads_evenly_over_its_window() {
        // One job, window [0, 4), work 2, one machine: the optimal fill is
        // speed 0.5 everywhere.
        let ctx = single_job_ctx(1, 3.0, vec![(0.0, 4.0, 2.0, 100.0)]);
        let x = WorkAssignment::zeros(1, ctx.partition().len());
        let r = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        assert!((r.total - 1.0).abs() < 1e-9);
        assert!((r.level_speed - 0.5).abs() < 1e-6);
        assert_eq!(r.added.len(), 1);
    }

    #[test]
    fn fill_prefers_empty_intervals() {
        // Job 0 occupies [0,1) heavily; job 1 has window [0,2) and should
        // put (almost) everything in [1,2).
        let inst =
            Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 3.0, 100.0), (0.0, 2.0, 1.0, 100.0)])
                .unwrap();
        let ctx = ProgramContext::new(&inst);
        let mut x = WorkAssignment::zeros(2, ctx.partition().len());
        // Place job 0 fully in its only interval [0,1).
        x.set(0, 0, 1.0);
        let r = waterfill_job(&ctx, &x, 1, &WaterfillOptions::default());
        assert!(r.saturated);
        let in_second: f64 = r
            .added
            .iter()
            .filter(|(k, _)| *k == 1)
            .map(|(_, f)| *f)
            .sum();
        // Interval [1,2) is empty and can absorb speed up to 1 without
        // exceeding the marginal of interval [0,1) (which has speed 3).
        assert!(
            in_second > 0.99,
            "expected job 1 in the empty interval, got {:?}",
            r.added
        );
    }

    #[test]
    fn fill_equalises_marginals_across_used_intervals() {
        // Two equal-length empty intervals: the job splits evenly and the
        // marginal costs agree with the Chen derivative.
        let ctx = single_job_ctx(2, 2.5, vec![(0.0, 2.0, 3.0, 100.0)]);
        // Introduce a second boundary by adding a second job that splits
        // [0, 2) into [0,1) and [1,2).
        let inst =
            Instance::from_tuples(2, 2.5, vec![(0.0, 2.0, 3.0, 100.0), (1.0, 2.0, 0.5, 100.0)])
                .unwrap();
        let ctx2 = ProgramContext::new(&inst);
        drop(ctx);
        let x = WorkAssignment::zeros(2, ctx2.partition().len());
        let r = waterfill_job(&ctx2, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        // Fractions should be equal (both intervals identical and empty).
        assert_eq!(r.added.len(), 2);
        assert!((r.added[0].1 - r.added[1].1).abs() < 1e-6);

        // Marginal from the Chen derivative should match the reported level.
        let mut x_after = x.clone();
        for (k, f) in &r.added {
            x_after.set(0, *k, *f);
        }
        for &(k, _) in &r.added {
            let d = interval_power_derivative(
                ctx2.power(),
                ctx2.partition().length(k),
                2,
                &x_after.column(k),
                ctx2.workloads(),
                0,
            );
            assert!(
                (d - r.level_marginal).abs() < 1e-4 * d.max(1.0),
                "interval {k}: derivative {d} vs level {}",
                r.level_marginal
            );
        }
    }

    #[test]
    fn marginal_cap_limits_the_fill() {
        // Single interval of length 1, one machine, job work 4: running the
        // whole job needs speed 4 and marginal alpha*w*s^{alpha-1} = 2*4*4 = 32.
        // Capping the marginal at the value for speed 2 (2*4*2 = 16) only
        // places half the job.
        let ctx = single_job_ctx(1, 2.0, vec![(0.0, 1.0, 4.0, 100.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let opts = WaterfillOptions {
            max_marginal: Some(16.0),
            ..Default::default()
        };
        let r = waterfill_job(&ctx, &x, 0, &opts);
        assert!(!r.saturated);
        assert!((r.total - 0.5).abs() < 1e-9, "total = {}", r.total);
        assert!((r.level_speed - 2.0).abs() < 1e-9);
    }

    #[test]
    fn multi_machine_capacity_respects_nonparallelism() {
        // One job alone on 4 machines in a single interval: it can still use
        // only one machine's worth of time, so the level equals work/length
        // regardless of machine count.
        let ctx = single_job_ctx(4, 3.0, vec![(0.0, 2.0, 6.0, 100.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let r = waterfill_job(&ctx, &x, 0, &WaterfillOptions::default());
        assert!(r.saturated);
        assert!((r.level_speed - 3.0).abs() < 1e-6);
    }

    #[test]
    fn zero_fraction_request_is_empty() {
        let ctx = single_job_ctx(1, 2.0, vec![(0.0, 1.0, 1.0, 1.0)]);
        let x = WorkAssignment::zeros(1, 1);
        let opts = WaterfillOptions {
            max_fraction: 0.0,
            ..Default::default()
        };
        let r = waterfill_job(&ctx, &x, 0, &opts);
        assert_eq!(r.total, 0.0);
        assert!(r.added.is_empty());
    }

    #[test]
    fn capacity_function_is_monotone_and_continuous() {
        let mut caps = Capacities::default();
        caps.push(0, 1.0, vec![2.0, 1.0, 0.5]);
        let span = caps.spans[0];
        let m = 3;
        let mut prev = 0.0;
        let mut s = 0.0;
        while s < 5.0 {
            let c = caps.capacity(&span, s, m).0;
            assert!(c + 1e-12 >= prev, "capacity decreased at s={s}");
            // Continuity check: small step, small change.
            let c2 = caps.capacity(&span, s + 1e-6, m).0;
            assert!((c2 - c).abs() < 1e-4);
            prev = c;
            s += 0.01;
        }
    }

    #[test]
    fn probe_reports_the_right_slope() {
        // Two candidates; the sum's kinks sit at the works' speeds and
        // where a capacity turns positive or meets `s·l`.
        let mut caps = Capacities::default();
        caps.push(0, 1.0, vec![2.0, 1.0, 0.5]);
        caps.push(1, 0.5, vec![2.0, -1.0, 0.0]);
        let (m, w) = (2, 1.5);
        let h = 1e-7;
        for i in 1..600 {
            let s = f64::from(i) * 0.01 + 0.003;
            let p = caps.probe(s, m, w);
            assert_eq!(p.value.to_bits(), caps.fraction_at(s, m, w).to_bits());
            let forward = (caps.fraction_at(s + h, m, w) - p.value) / h;
            assert!(
                (forward - p.slope).abs() < 1e-5 * p.slope.max(1.0),
                "s = {s}: slope {}, forward difference {forward}",
                p.slope
            );
        }
    }
}
