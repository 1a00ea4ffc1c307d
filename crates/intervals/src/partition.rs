//! Atomic interval partitions and their online refinement.

use std::ops::Range;

use pss_types::snapshot::{BlobReader, BlobWriter, SnapshotError, SnapshotPart};
use pss_types::{num, Job};

/// Boundary coincidence tolerance: release/deadline values closer than this
/// are treated as the same time point when building partitions.
const BOUNDARY_EPS: f64 = 1e-12;

/// One atomic interval `T_k = [start, end)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AtomicInterval {
    /// Index `k` of the interval within its partition.
    pub index: usize,
    /// Left endpoint `τ_{k-1}` (inclusive).
    pub start: f64,
    /// Right endpoint `τ_k` (exclusive).
    pub end: f64,
}

impl AtomicInterval {
    /// Length `l_k = τ_k − τ_{k-1}` of the interval.
    #[inline]
    pub fn length(&self) -> f64 {
        self.end - self.start
    }
}

/// A partition of the time horizon into atomic intervals, induced by a set
/// of boundary time points (the jobs' release times and deadlines).
#[derive(Debug, Clone, PartialEq)]
pub struct IntervalPartition {
    boundaries: Vec<f64>,
}

impl IntervalPartition {
    /// Builds the partition induced by the given boundary points.  Points
    /// closer together than an absolute tolerance of `1e-12` are merged and
    /// the result is sorted.
    pub fn from_boundaries(points: impl IntoIterator<Item = f64>) -> Self {
        let mut pts: Vec<f64> = points.into_iter().filter(|p| p.is_finite()).collect();
        pts.sort_by(f64::total_cmp);
        let mut boundaries: Vec<f64> = Vec::with_capacity(pts.len());
        for p in pts {
            if boundaries.last().is_none_or(|last| p - last > BOUNDARY_EPS) {
                boundaries.push(p);
            }
        }
        Self { boundaries }
    }

    /// Builds the partition induced by the release times and deadlines of
    /// the given jobs (the `{ r_j, d_j | j ∈ J }` of the paper).
    pub fn from_jobs<'a>(jobs: impl IntoIterator<Item = &'a Job>) -> Self {
        Self::from_boundaries(jobs.into_iter().flat_map(|j| [j.release, j.deadline]))
    }

    /// The ordered boundary points `τ_0 < τ_1 < … < τ_N`.
    pub fn boundaries(&self) -> &[f64] {
        &self.boundaries
    }

    /// Number of atomic intervals `N` (0 if fewer than two boundaries).
    #[inline]
    pub fn len(&self) -> usize {
        self.boundaries.len().saturating_sub(1)
    }

    /// Returns `true` if the partition has no intervals.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `k`-th atomic interval.
    ///
    /// # Panics
    /// Panics if `k >= self.len()`.
    pub fn interval(&self, k: usize) -> AtomicInterval {
        assert!(k < self.len(), "interval index {k} out of range");
        AtomicInterval {
            index: k,
            start: self.boundaries[k],
            end: self.boundaries[k + 1],
        }
    }

    /// Iterator over all atomic intervals in time order.
    pub fn intervals(&self) -> impl Iterator<Item = AtomicInterval> + '_ {
        (0..self.len()).map(move |k| self.interval(k))
    }

    /// Length `l_k` of interval `k`.
    #[inline]
    pub fn length(&self, k: usize) -> f64 {
        self.interval(k).length()
    }

    /// The availability indicator `c_{jk}`: `true` iff `T_k ⊆ [r_j, d_j)`.
    pub fn job_covers(&self, job: &Job, k: usize) -> bool {
        let iv = self.interval(k);
        job.covers(iv.start, iv.end)
    }

    /// The indices of all intervals contained in the job's availability
    /// window, as a range.
    ///
    /// Every partition in the workspace contains the window endpoints of
    /// the jobs it was built from, so the covered set is contiguous: the
    /// intervals from the first start at or after the release to the last
    /// end at or before the deadline, each compared with the tolerance of
    /// [`job_covers`](Self::job_covers).  Two binary searches find it in
    /// `O(log N)`, and nothing is allocated (the online planning contexts
    /// call this once per arrival).  Debug builds check the range against a
    /// linear scan of `job_covers`.
    pub fn covered_range(&self, job: &Job) -> Range<usize> {
        let n = self.len();
        if n == 0 {
            return 0..0;
        }
        let starts = &self.boundaries[..n];
        let ends = &self.boundaries[1..];
        // Coarse bracket by raw comparison, widened to respect the
        // tolerance-aware `job_covers` predicate: every start from `lo` on
        // passes its release test, and every end before `hi` its deadline
        // test.
        let mut lo = starts.partition_point(|&s| s < job.release);
        while lo > 0 && num::approx_le(job.release, starts[lo - 1]) {
            lo -= 1;
        }
        let mut hi = ends.partition_point(|&e| e <= job.deadline);
        while hi < n && num::approx_le(ends[hi], job.deadline) {
            hi += 1;
        }
        let covered = lo..hi.max(lo);
        debug_assert!(
            covered
                .clone()
                .eq((0..n).filter(|&k| self.job_covers(job, k))),
            "binary-searched coverage disagrees with the linear scan"
        );
        covered
    }

    /// Index of the interval containing time `t`, if any.
    pub fn interval_containing(&self, t: f64) -> Option<usize> {
        if self.is_empty() {
            return None;
        }
        // Binary search over boundaries.
        let n = self.len();
        if t < self.boundaries[0] || t >= self.boundaries[n] {
            return None;
        }
        let mut lo = 0usize;
        let mut hi = n; // intervals 0..n
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.boundaries[mid] <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        Some(lo)
    }

    /// Refines the partition with additional boundary points (typically the
    /// release time and deadline of a newly arrived job), returning the new
    /// partition and the [`Refinement`] mapping old intervals to the new
    /// pieces they were split into.
    pub fn refine(
        &self,
        new_points: impl IntoIterator<Item = f64>,
    ) -> (IntervalPartition, Refinement) {
        let refined =
            IntervalPartition::from_boundaries(self.boundaries.iter().copied().chain(new_points));
        let mapping = Refinement::between(self, &refined);
        (refined, mapping)
    }

    /// Inserts a single boundary point **in place** and reports the local
    /// effect, without constructing a new partition or a full
    /// [`Refinement`].  This is the `O(log N)`-search/`O(tail)`-memmove
    /// primitive the persistent online planning contexts use per arrival
    /// (new boundaries arrive in nondecreasing time order, so the moved tail
    /// is short); [`refine`](Self::refine) remains the general entry point.
    ///
    /// Points within the boundary-coincidence tolerance of an existing
    /// boundary are merged (the existing boundary wins), matching
    /// [`from_boundaries`](Self::from_boundaries); non-finite points are
    /// ignored.
    pub fn insert_boundary(&mut self, p: f64) -> BoundaryInsert {
        if !p.is_finite() {
            return BoundaryInsert::Existing;
        }
        let pos = self.boundaries.partition_point(|&b| b < p);
        if pos < self.boundaries.len() && self.boundaries[pos] - p <= BOUNDARY_EPS {
            return BoundaryInsert::Existing;
        }
        if pos > 0 && p - self.boundaries[pos - 1] <= BOUNDARY_EPS {
            return BoundaryInsert::Existing;
        }
        self.boundaries.insert(pos, p);
        let n = self.boundaries.len();
        if pos == n - 1 {
            BoundaryInsert::Append {
                created_interval: n >= 2,
            }
        } else if pos == 0 {
            BoundaryInsert::Prepend {
                created_interval: n >= 2,
            }
        } else {
            let left = self.boundaries[pos - 1];
            let right = self.boundaries[pos + 1];
            BoundaryInsert::Split {
                interval: pos - 1,
                left_fraction: (p - left) / (right - left),
            }
        }
    }

    /// Drops the first `k` intervals **in place**: boundary `k` becomes the
    /// first boundary and interval `k + i` becomes interval `i`, bit for
    /// bit.  Retiring every interval keeps the last boundary, so the
    /// partition still remembers where its retired prefix ended.  This is
    /// how the online planning context forgets time that has fully
    /// elapsed (refinement only ever adds boundaries at or after it).
    ///
    /// # Panics
    /// Panics if `k > self.len()`.
    pub fn retire_prefix(&mut self, k: usize) {
        assert!(
            k <= self.len(),
            "cannot retire {k} of {} intervals",
            self.len()
        );
        self.boundaries.drain(..k);
    }
}

impl SnapshotPart for IntervalPartition {
    fn encode(&self, w: &mut BlobWriter) {
        w.write_seq(&self.boundaries);
    }

    fn decode(r: &mut BlobReader<'_>) -> Result<Self, SnapshotError> {
        // Restored verbatim: the boundaries were sorted/deduped when the
        // partition was built, and a restore must reproduce the exact bit
        // pattern (re-running `from_boundaries` could merge points that an
        // in-place `insert_boundary` history kept distinct).
        let boundaries: Vec<f64> = r.read_seq()?;
        for pair in boundaries.windows(2) {
            // NaNs fail this check too (the comparison is false for them).
            if pair[0] >= pair[1] || !pair[0].is_finite() || !pair[1].is_finite() {
                return Err(SnapshotError::Invalid(
                    "partition boundaries not strictly increasing".into(),
                ));
            }
        }
        Ok(Self { boundaries })
    }
}

/// The local effect of [`IntervalPartition::insert_boundary`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BoundaryInsert {
    /// The point coincided (within tolerance) with an existing boundary, or
    /// was not finite; the partition is unchanged.
    Existing,
    /// Interval `interval` was split in two: the left piece keeps the index
    /// and `left_fraction` of the length, the right piece is inserted at
    /// `interval + 1` (later intervals shift up by one).
    Split {
        /// Index of the split interval (and of its left piece).
        interval: usize,
        /// Length fraction of the left piece.
        left_fraction: f64,
    },
    /// The point lies before every existing boundary; if an interval was
    /// created it has index 0 and every existing interval shifts up by one.
    Prepend {
        /// Whether a new leading interval was created (false when the
        /// partition previously had no boundary at all).
        created_interval: bool,
    },
    /// The point lies after every existing boundary; if an interval was
    /// created it is the new last interval.
    Append {
        /// Whether a new trailing interval was created.
        created_interval: bool,
    },
}

/// Describes how the intervals of an old partition map onto the intervals of
/// a refined partition.
///
/// For every old interval `k`, `pieces[k]` lists the new interval indices it
/// was split into together with the fraction of the old length each piece
/// represents.  Work already assigned to the old interval is split according
/// to these fractions — exactly the proportional split described in the
/// paper's "Concerning the Time Partitioning" paragraph, which leaves the
/// produced schedule unchanged.
#[derive(Debug, Clone, PartialEq)]
pub struct Refinement {
    /// For each old interval, the `(new_index, length_fraction)` pieces.
    pub pieces: Vec<Vec<(usize, f64)>>,
    /// Number of intervals in the refined partition.
    pub new_len: usize,
}

impl Refinement {
    /// Computes the refinement mapping from `old` to `new`.  `new` must be a
    /// refinement of `old` (every old boundary is also a new boundary); this
    /// is guaranteed by [`IntervalPartition::refine`].
    ///
    /// Runs in `O(old.len() + new.len())` by walking both sorted interval
    /// lists in lockstep — this is on the per-arrival path of the online
    /// algorithms, which refine the partition with every new job.
    pub fn between(old: &IntervalPartition, new: &IntervalPartition) -> Self {
        let mut pieces = vec![Vec::new(); old.len()];
        let mut nk = 0usize;
        for (k, old_iv) in old.intervals().enumerate() {
            let old_len = old_iv.length();
            // Skip new intervals lying entirely before the old one (points
            // added before the old horizon create such intervals).
            while nk < new.len() && num::approx_le(new.interval(nk).end, old_iv.start) {
                nk += 1;
            }
            // Collect the new intervals contained in the old one; because
            // `new` refines `old`, containment and disjointness are the only
            // possibilities, and the contained ones are consecutive.
            while nk < new.len() {
                let new_iv = new.interval(nk);
                if !(num::approx_ge(new_iv.start, old_iv.start)
                    && num::approx_le(new_iv.end, old_iv.end))
                {
                    break;
                }
                let frac = if old_len > 0.0 {
                    new_iv.length() / old_len
                } else {
                    0.0
                };
                pieces[k].push((new_iv.index, frac));
                nk += 1;
            }
            debug_assert!(
                num::approx_eq(pieces[k].iter().map(|(_, f)| *f).sum::<f64>(), 1.0)
                    // pss-lint: allow(float-eq) — exact degenerate-interval sentinel
                    || old_len == 0.0,
                "refinement pieces of interval {k} do not cover it"
            );
        }
        Self {
            pieces,
            new_len: new.len(),
        }
    }

    /// Returns `true` if the refinement is the identity (no interval was
    /// split and the count is unchanged).
    pub fn is_identity(&self) -> bool {
        self.pieces.len() == self.new_len
            && self
                .pieces
                .iter()
                .enumerate()
                .all(|(k, p)| p.len() == 1 && p[0].0 == k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_types::Job;

    fn jobs() -> Vec<Job> {
        vec![
            Job::new(0, 0.0, 4.0, 2.0, 1.0),
            Job::new(1, 1.0, 3.0, 1.0, 1.0),
        ]
    }

    #[test]
    fn partition_from_jobs_has_expected_boundaries() {
        let p = IntervalPartition::from_jobs(&jobs());
        assert_eq!(p.boundaries(), &[0.0, 1.0, 3.0, 4.0]);
        assert_eq!(p.len(), 3);
        let iv = p.interval(1);
        assert_eq!((iv.start, iv.end), (1.0, 3.0));
        assert_eq!(iv.length(), 2.0);
    }

    #[test]
    fn duplicate_boundaries_are_merged() {
        let p = IntervalPartition::from_boundaries([0.0, 1.0, 1.0 + 1e-15, 2.0]);
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn empty_and_single_boundary_partitions() {
        let p = IntervalPartition::from_boundaries(std::iter::empty());
        assert!(p.is_empty());
        let p = IntervalPartition::from_boundaries([3.0]);
        assert!(p.is_empty());
        assert_eq!(p.interval_containing(3.0), None);
    }

    #[test]
    fn job_coverage_matches_paper_definition() {
        let js = jobs();
        let p = IntervalPartition::from_jobs(&js);
        // Job 0 covers all three intervals, job 1 only the middle one.
        assert_eq!(p.covered_range(&js[0]), 0..3);
        assert_eq!(p.covered_range(&js[1]), 1..2);
        assert!(p.job_covers(&js[0], 0));
        assert!(!p.job_covers(&js[1], 0));
    }

    #[test]
    fn interval_containing_finds_the_right_interval() {
        let p = IntervalPartition::from_boundaries([0.0, 1.0, 3.0, 4.0]);
        assert_eq!(p.interval_containing(0.0), Some(0));
        assert_eq!(p.interval_containing(0.99), Some(0));
        assert_eq!(p.interval_containing(1.0), Some(1));
        assert_eq!(p.interval_containing(3.5), Some(2));
        assert_eq!(p.interval_containing(4.0), None);
        assert_eq!(p.interval_containing(-0.1), None);
    }

    #[test]
    fn refinement_splits_proportionally() {
        let p = IntervalPartition::from_boundaries([0.0, 4.0]);
        let (refined, map) = p.refine([1.0]);
        assert_eq!(refined.len(), 2);
        assert_eq!(map.pieces.len(), 1);
        let pieces = &map.pieces[0];
        assert_eq!(pieces.len(), 2);
        assert_eq!(pieces[0].0, 0);
        assert!((pieces[0].1 - 0.25).abs() < 1e-12);
        assert_eq!(pieces[1].0, 1);
        assert!((pieces[1].1 - 0.75).abs() < 1e-12);
        assert!(!map.is_identity());
    }

    #[test]
    fn refinement_with_no_new_points_is_identity() {
        let p = IntervalPartition::from_boundaries([0.0, 1.0, 2.0]);
        let (refined, map) = p.refine([1.0]);
        assert_eq!(refined, p);
        assert!(map.is_identity());
    }

    #[test]
    fn insert_boundary_reports_local_effects() {
        let mut p = IntervalPartition::from_boundaries(std::iter::empty());
        // First point: no interval yet.
        assert_eq!(
            p.insert_boundary(2.0),
            BoundaryInsert::Append {
                created_interval: false
            }
        );
        // Second point after it: creates the first interval.
        assert_eq!(
            p.insert_boundary(4.0),
            BoundaryInsert::Append {
                created_interval: true
            }
        );
        // Coinciding point: merged.
        assert_eq!(p.insert_boundary(4.0 + 1e-15), BoundaryInsert::Existing);
        // Interior point: splits interval 0 at 3/4 of its length.
        match p.insert_boundary(3.5) {
            BoundaryInsert::Split {
                interval,
                left_fraction,
            } => {
                assert_eq!(interval, 0);
                assert!((left_fraction - 0.75).abs() < 1e-12);
            }
            other => panic!("expected split, got {other:?}"),
        }
        // Point before everything: prepends an interval.
        assert_eq!(
            p.insert_boundary(1.0),
            BoundaryInsert::Prepend {
                created_interval: true
            }
        );
        assert_eq!(p.boundaries(), &[1.0, 2.0, 3.5, 4.0]);
        // The result matches the batch construction.
        let batch = IntervalPartition::from_boundaries([2.0, 4.0, 3.5, 1.0]);
        assert_eq!(p, batch);
    }

    #[test]
    fn covered_range_binary_search_handles_partial_overlap() {
        // Window strictly inside one interval: covers nothing.
        let p = IntervalPartition::from_boundaries([0.0, 4.0, 8.0]);
        let inside = Job::new(0, 1.0, 3.0, 1.0, 1.0);
        assert!(p.covered_range(&inside).is_empty());
        // Window starting before and ending inside: covers only the first
        // two.
        let p = IntervalPartition::from_boundaries([0.0, 1.0, 2.0, 3.0]);
        let job = Job::new(0, 0.0, 2.5, 1.0, 1.0);
        assert_eq!(p.covered_range(&job), 0..2);
    }

    #[test]
    fn retire_prefix_makes_boundary_k_first_and_keeps_later_intervals() {
        let mut p = IntervalPartition::from_boundaries([0.0, 0.3, 1.0, 2.5, 4.0]);
        let before: Vec<AtomicInterval> = p.intervals().collect();
        p.retire_prefix(2);
        assert_eq!(p.len(), 2);
        assert_eq!(p.boundaries()[0].to_bits(), 1.0f64.to_bits());
        for (i, iv) in p.intervals().enumerate() {
            let old = before[i + 2];
            assert_eq!(iv.start.to_bits(), old.start.to_bits());
            assert_eq!(iv.end.to_bits(), old.end.to_bits());
        }
    }

    #[test]
    fn retiring_every_interval_keeps_the_last_boundary() {
        let mut p = IntervalPartition::from_boundaries([0.0, 1.0, 2.5]);
        p.retire_prefix(p.len());
        assert!(p.is_empty());
        assert_eq!(p.boundaries(), &[2.5]);
    }

    #[test]
    fn retiring_nothing_changes_nothing() {
        let mut p = IntervalPartition::from_boundaries([0.0, 1.0, 2.5]);
        let before = p.clone();
        p.retire_prefix(0);
        assert_eq!(p, before);
        let mut empty = IntervalPartition::from_boundaries(std::iter::empty());
        empty.retire_prefix(0);
        assert!(empty.boundaries().is_empty());
    }

    #[test]
    fn refinement_with_points_outside_extends_partition() {
        // A new job whose window extends past the old horizon adds intervals
        // at the end; old intervals map onto themselves.
        let p = IntervalPartition::from_boundaries([0.0, 2.0]);
        let (refined, map) = p.refine([2.0, 5.0]);
        assert_eq!(refined.len(), 2);
        assert_eq!(map.pieces[0], vec![(0, 1.0)]);
        assert!(!map.is_identity()); // counts differ (1 old vs 2 new)
    }
}
