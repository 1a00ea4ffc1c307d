//! Conversion of Chen et al.'s solution for one atomic interval into
//! concrete machine-level segments.
//!
//! Dedicated jobs occupy their own machine for the whole interval.  Pool
//! jobs are placed on the pool machines with **McNaughton's wrap-around
//! rule**: jobs are laid out back to back at the common pool speed; when a
//! job crosses the end of the interval on one machine it "wraps" onto the
//! next machine starting at the beginning of the interval.  Because every
//! pool job's processing time at the pool speed is at most the interval
//! length, the two pieces of a wrapped job never overlap in time, so the
//! nonparallelism constraint of the model is respected.
//!
//! The pool machines form one line of `pool_machines · length`, cut into
//! machines at the multiples of the length, and placement moves to the next
//! machine only at such a cut.  A job that ends a hair before a machine's
//! end leaves that hair on the machine (the next job's sliver there is too
//! short to emit) instead of skipping it, so rounding never pushes work past
//! the last pool machine; what rounding leaves beyond the last machine's end
//! is cut off there.
//!
//! One routine places a solution's shape, its dedicated and pool `(job,
//! work)` slices, and it has two entries:
//!
//! * [`place_interval`] places an [`IntervalSolution`] and returns the
//!   segments;
//! * [`ChenInterval::place_pairs`] runs Chen's rule over sparse `(job,
//!   work)` pairs sorted in place, as
//!   [`energy_of_pairs`](ChenInterval::energy_of_pairs) does, and hands each
//!   segment to the caller.  It allocates nothing, so a caller committing
//!   interval after interval (online PD) can reuse one pairs buffer and
//!   write the segments straight into its frontier.  Its segments equal,
//!   bit for bit and in order, those of `place_interval` over
//!   [`solve`](ChenInterval::solve) on the dense vector of the same works.

use pss_types::{num, JobId, Segment};

use crate::solution::{ChenInterval, IntervalSolution};

/// The shape of Chen et al.'s solution that placement reads: the dedicated
/// jobs in decreasing order of work, the pool jobs, and the pool's machines
/// and speed.
struct Shape<'a> {
    length: f64,
    dedicated: &'a [(usize, f64)],
    pool: &'a [(usize, f64)],
    pool_machines: usize,
    pool_speed: f64,
}

/// Places the solution into the absolute time window `[start, start + length)`
/// using machines `machine_offset..machine_offset + solution.machines`,
/// returning the machine-level segments.
///
/// The caller chooses `machine_offset` (normally 0) and guarantees that the
/// window corresponds to the atomic interval the solution was computed for.
pub fn place_interval(
    solution: &IntervalSolution,
    start: f64,
    machine_offset: usize,
    job_id_of: impl Fn(usize) -> JobId,
) -> Vec<Segment> {
    let shape = Shape {
        length: solution.length,
        dedicated: &solution.dedicated,
        pool: &solution.pool,
        pool_machines: solution.pool_machines,
        pool_speed: solution.pool_speed,
    };
    let mut segments = Vec::new();
    place(&shape, start, machine_offset, job_id_of, |seg| {
        segments.push(seg)
    });
    segments
}

impl ChenInterval {
    /// Runs Chen et al.'s algorithm over sparse `(job, work)` pairs and
    /// places the result into `[start, start + length)` on machines
    /// `machine_offset..machine_offset + machines`, handing each segment to
    /// `emit` in placement order.  Pairs whose work is not positive are
    /// ignored.  The pairs are sorted in place into the rule's order (work
    /// descending, ties by job id), so the segments equal, bit for bit and
    /// in order, [`place_interval`] over [`solve`](Self::solve) on the dense
    /// vector holding the same works.
    pub fn place_pairs(
        &self,
        pairs: &mut [(usize, f64)],
        start: f64,
        machine_offset: usize,
        job_id_of: impl Fn(usize) -> JobId,
        emit: impl FnMut(Segment),
    ) {
        let split = self.split(pairs);
        let (dedicated, pool) = pairs[..split.positive].split_at(split.dedicated);
        let shape = Shape {
            length: self.length,
            dedicated,
            pool,
            pool_machines: self.machines - split.dedicated,
            pool_speed: split.pool_speed,
        };
        place(&shape, start, machine_offset, job_id_of, emit);
    }
}

/// Places `shape` into `[start, start + length)`: machine
/// `machine_offset + i` runs dedicated job `i` alone, and the pool jobs wrap
/// McNaughton-style over the machines after the dedicated ones.
fn place(
    shape: &Shape<'_>,
    start: f64,
    machine_offset: usize,
    job_id_of: impl Fn(usize) -> JobId,
    mut emit: impl FnMut(Segment),
) {
    let l = shape.length;
    let end = start + l;

    // Dedicated jobs: machine i runs job i of the dedicated list alone.
    for (i, (job, work)) in shape.dedicated.iter().enumerate() {
        let speed = work / l;
        if speed <= 0.0 {
            continue;
        }
        emit(Segment::work(
            machine_offset + i,
            start,
            end,
            speed,
            job_id_of(*job),
        ));
    }

    // Pool jobs: McNaughton wrap-around on the remaining machines.
    if shape.pool_speed > 0.0 && shape.pool_machines > 0 {
        let first_pool_machine = machine_offset + shape.dedicated.len();
        let last_pool_machine = first_pool_machine + shape.pool_machines - 1;
        let mut machine = first_pool_machine;
        let mut offset = 0.0_f64; // time offset within the interval
        for (job, work) in shape.pool {
            let mut duration = work / shape.pool_speed;
            debug_assert!(
                duration <= l * (1.0 + 1e-9),
                "pool job longer than the interval: {duration} > {l}"
            );
            duration = duration.min(l);
            let mut remaining = duration;
            loop {
                let available = (l - offset).max(0.0);
                let piece = remaining.min(available);
                if piece > 0.0 && !num::approx_zero(piece) {
                    emit(Segment::work(
                        machine,
                        start + offset,
                        start + offset + piece,
                        shape.pool_speed,
                        job_id_of(*job),
                    ));
                }
                // Wrap only where the job reaches the machine's end.
                if remaining < available || machine == last_pool_machine {
                    offset += piece;
                    break;
                }
                remaining -= piece;
                machine += 1;
                offset = 0.0;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pss_power::AlphaPower;
    use pss_types::num::stable_sum;

    fn place(works: &[f64], m: usize, length: f64) -> (IntervalSolution, Vec<Segment>) {
        let chen = ChenInterval::new(length, m, AlphaPower::new(3.0));
        let sol = chen.solve(works);
        let segs = place_interval(&sol, 10.0, 0, JobId);
        (sol, segs)
    }

    fn work_of_job(segments: &[Segment], job: usize) -> f64 {
        stable_sum(
            segments
                .iter()
                .filter(|s| s.job == Some(JobId(job)))
                .map(|s| s.work_amount()),
        )
    }

    #[test]
    fn dedicated_jobs_get_their_own_machine() {
        let (_, segs) = place(&[3.0, 2.0, 1.0], 3, 1.0);
        // Every job fully processed.
        for (j, w) in [(0, 3.0), (1, 2.0), (2, 1.0)] {
            assert!((work_of_job(&segs, j) - w).abs() < 1e-9, "job {j}");
        }
        // Each on a distinct machine, spanning the whole interval.
        let machines: Vec<usize> = segs.iter().map(|s| s.machine).collect();
        let mut sorted = machines.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 3);
        for s in &segs {
            assert_eq!((s.start, s.end), (10.0, 11.0));
        }
    }

    #[test]
    fn pool_jobs_are_wrapped_without_time_overlap() {
        // m = 2, three equal jobs: all pool at speed 1.5, each takes 2/3 of
        // the interval, so one of them wraps across machines.
        let (sol, segs) = place(&[1.0, 1.0, 1.0], 2, 1.0);
        assert_eq!(sol.pool_machines, 2);
        for j in 0..3 {
            assert!((work_of_job(&segs, j) - 1.0).abs() < 1e-9, "job {j}");
        }
        // No overlapping segments on a machine.
        for m in 0..2 {
            let mut on_m: Vec<&Segment> = segs.iter().filter(|s| s.machine == m).collect();
            on_m.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in on_m.windows(2) {
                assert!(pair[0].end <= pair[1].start + 1e-9);
            }
        }
        // The wrapped job's two pieces must not overlap in time.
        for j in 0..3 {
            let pieces: Vec<&Segment> = segs.iter().filter(|s| s.job == Some(JobId(j))).collect();
            if pieces.len() == 2 {
                assert!(!pieces[0].overlaps(pieces[1]), "job {j} overlaps itself");
            }
        }
    }

    #[test]
    fn placement_energy_matches_solution_energy() {
        let alpha = 3.0;
        let (sol, segs) = place(&[9.0, 2.0, 2.0, 2.0], 3, 1.0);
        let seg_energy = stable_sum(segs.iter().map(|s| s.energy(alpha)));
        assert!((seg_energy - sol.energy).abs() < 1e-9 * sol.energy.max(1.0));
    }

    #[test]
    fn machine_offset_shifts_machines() {
        let chen = ChenInterval::new(1.0, 2, AlphaPower::new(2.0));
        let sol = chen.solve(&[1.0, 1.0, 1.0]);
        let segs = place_interval(&sol, 0.0, 5, JobId);
        assert!(segs.iter().all(|s| s.machine >= 5 && s.machine < 7));
    }

    #[test]
    fn empty_solution_produces_no_segments() {
        let (_, segs) = place(&[0.0, 0.0], 2, 1.0);
        assert!(segs.is_empty());
    }

    #[test]
    fn a_job_ending_a_hair_before_a_machine_end_keeps_work_on_the_pool() {
        // An atomic interval of OA(m) at m = 2 (t ≈ 392.374 of the E12
        // Poisson stream with 2,500 arrivals and seed 14): a pool job ends
        // 1e-9 before the last machine's end, and wrapping there used to
        // push the last, tiny pool job onto a third machine.
        let mut works = vec![0.0; 11];
        works[1..=4].copy_from_slice(&[
            0.7468223273449225,
            1.5186265854703846,
            1.4251467156689896,
            2.1988597614489633e-9,
        ]);
        works[8..=10].copy_from_slice(&[
            0.33730788307669246,
            0.7441887323346446,
            0.2749268013007926,
        ]);
        let m = 2;
        let sol = ChenInterval::new(1.1678388483543358, m, AlphaPower::new(2.5)).solve(&works);
        let segs = place_interval(&sol, 0.0, 0, JobId);
        assert!(segs.iter().all(|s| s.machine < m), "{segs:?}");
        for machine in 0..m {
            let mut on_m: Vec<&Segment> = segs.iter().filter(|s| s.machine == machine).collect();
            on_m.sort_by(|a, b| a.start.total_cmp(&b.start));
            for pair in on_m.windows(2) {
                assert!(!pair[0].overlaps(pair[1]), "machine {machine}: {pair:?}");
            }
        }
        for (j, &w) in works.iter().enumerate() {
            assert!(num::approx_eq(work_of_job(&segs, j), w), "job {j}");
        }
    }

    /// A segment's fields, its times and speed as bits.
    fn bits(s: &Segment) -> (usize, Option<JobId>, [u64; 3]) {
        (
            s.machine,
            s.job,
            [s.start, s.end, s.speed].map(f64::to_bits),
        )
    }

    #[test]
    fn sparse_pairs_place_like_the_dense_solution_bit_for_bit() {
        let chen = ChenInterval::new(0.7, 3, AlphaPower::new(2.5));
        let works = [0.0, 2.5, 0.3, 2.5, 0.0, 9.0, 0.3, 0.1];
        let dense: Vec<_> = place_interval(&chen.solve(&works), 4.25, 2, JobId)
            .iter()
            .map(bits)
            .collect();
        assert!(!dense.is_empty());
        // Scrambled order, plus entries the rule must ignore.
        let mut pairs = vec![(6, 0.3), (9, 0.0), (1, 2.5), (7, 0.1), (10, -1.0)];
        pairs.extend([(5, 9.0), (3, 2.5), (2, 0.3), (11, f64::NAN)]);
        for _ in 0..2 {
            let mut sparse = Vec::new();
            chen.place_pairs(&mut pairs, 4.25, 2, JobId, |seg| sparse.push(bits(&seg)));
            assert_eq!(sparse, dense);
            pairs.reverse();
        }
        let mut none = Vec::new();
        chen.place_pairs(&mut [], 4.25, 2, JobId, |seg| none.push(seg));
        assert!(none.is_empty());
    }

    #[test]
    fn pool_job_exactly_filling_interval_is_single_piece() {
        // m = 2, works 2, 1, 1: job0 dedicated (2 >= 2/1), jobs 1 and 2 pool
        // at speed 2 on one machine; each takes 0.5 of the interval.
        let (sol, segs) = place(&[2.0, 1.0, 1.0], 2, 1.0);
        assert_eq!(sol.dedicated.len(), 1);
        let pieces: Vec<&Segment> = segs.iter().filter(|s| s.job == Some(JobId(1))).collect();
        assert_eq!(pieces.len(), 1);
    }
}
