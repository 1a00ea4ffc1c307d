//! Differential pin for the by-job segment index: `validate_schedule` and
//! `Simulation::run` read each job's segments from
//! `Schedule::segments_by_job`, and must agree exactly with the reference
//! below, which gathers them the direct way — one filter over the whole
//! schedule per job, then a stable sort by start time.
//!
//! The seeded schedules mix valid structure (jobs split across machines,
//! start times tied on a half-unit grid, idle segments, shuffled segment
//! order) with the defects the validator reports (duplicated segments,
//! parallel copies, work outside a window, unknown machines and jobs,
//! negative speeds, reversed times).  Reports must be equal field for field
//! and bit for bit, and errors must have the same variant and message.

use pss_power::AlphaPower;
use pss_sim::{JobOutcome, MachineStats, SimReport, Simulation};
use pss_types::{
    num, validate_schedule, Instance, JobId, Schedule, ScheduleError, Segment, ValidationReport,
};
use pss_workloads::SmallRng;

/// The segments of one machine, copied, sorted stably by start time.
fn machine_segments(schedule: &Schedule, machine: usize) -> Vec<Segment> {
    let mut segs: Vec<Segment> = schedule
        .segments
        .iter()
        .copied()
        .filter(|s| s.machine == machine)
        .collect();
    segs.sort_by(|a, b| a.start.total_cmp(&b.start));
    segs
}

/// The segments of one job by a filter over the whole schedule, sorted
/// stably by start time.
fn job_segments(schedule: &Schedule, job: JobId) -> Vec<&Segment> {
    let mut segs: Vec<&Segment> = schedule
        .segments
        .iter()
        .filter(|s| s.job == Some(job))
        .collect();
    segs.sort_by(|a, b| a.start.total_cmp(&b.start));
    segs
}

/// `validate_schedule` with a per-job filter for the nonparallelism check.
fn reference_validate(
    instance: &Instance,
    schedule: &Schedule,
) -> Result<ValidationReport, ScheduleError> {
    let n = instance.len();
    let m = instance.machines;
    if schedule.machines != m {
        return Err(ScheduleError::Internal(format!(
            "schedule declares {} machines but instance has {}",
            schedule.machines, m
        )));
    }
    for seg in &schedule.segments {
        if !seg.start.is_finite() || !seg.end.is_finite() || !seg.speed.is_finite() {
            return Err(ScheduleError::BadSegment(format!(
                "non-finite segment {seg:?}"
            )));
        }
        if seg.end <= seg.start {
            return Err(ScheduleError::BadSegment(format!(
                "empty or reversed segment [{}, {})",
                seg.start, seg.end
            )));
        }
        if seg.speed < 0.0 {
            return Err(ScheduleError::BadSegment(format!(
                "negative speed {} in segment",
                seg.speed
            )));
        }
        if seg.machine >= m {
            return Err(ScheduleError::UnknownMachine(seg.machine));
        }
        if let Some(j) = seg.job {
            if j.index() >= n {
                return Err(ScheduleError::UnknownJob(j));
            }
            let job = instance.job(j);
            if !job.covers(seg.start, seg.end) {
                return Err(ScheduleError::BadSegment(format!(
                    "job {j} processed in [{:.6}, {:.6}) outside its window [{:.6}, {:.6})",
                    seg.start, seg.end, job.release, job.deadline
                )));
            }
        }
    }
    for machine in 0..m {
        let segs = machine_segments(schedule, machine);
        for pair in segs.windows(2) {
            if pair[0].overlaps(&pair[1]) {
                return Err(ScheduleError::BadSegment(format!(
                    "machine {machine} runs two overlapping segments: {:?} and {:?}",
                    pair[0], pair[1]
                )));
            }
        }
    }
    for j in 0..n {
        let segs = job_segments(schedule, JobId(j));
        for pair in segs.windows(2) {
            if pair[0].overlaps(pair[1]) && pair[0].machine != pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} runs on machines {} and {} simultaneously",
                    pair[0].machine, pair[1].machine
                )));
            }
            if pair[0].overlaps(pair[1]) && pair[0].machine == pair[1].machine {
                return Err(ScheduleError::BadSegment(format!(
                    "job j{j} has overlapping segments on machine {}",
                    pair[0].machine
                )));
            }
        }
    }
    let work_done = schedule.work_per_job(n);
    let finished: Vec<bool> = instance
        .jobs
        .iter()
        .map(|job| num::approx_ge(work_done[job.id.index()], job.work))
        .collect();
    let rejected = finished
        .iter()
        .enumerate()
        .filter_map(|(i, done)| if *done { None } else { Some(JobId(i)) })
        .collect();
    Ok(ValidationReport {
        work_done,
        finished,
        rejected,
        energy: schedule.energy(instance.alpha),
    })
}

/// `Simulation::run` with a per-job filter for the replay.
fn reference_run(instance: &Instance, schedule: &Schedule) -> Result<SimReport, ScheduleError> {
    reference_validate(instance, schedule)?;
    let power = AlphaPower::new(instance.alpha);
    let m = instance.machines;
    let horizon = {
        let (ilo, ihi) = instance.horizon();
        match schedule.span() {
            Some((slo, shi)) => (ilo.min(slo), ihi.max(shi)),
            None => (ilo, ihi),
        }
    };
    let mut jobs = Vec::with_capacity(instance.len());
    for job in &instance.jobs {
        let mut work_done = 0.0;
        let mut completion_time = None;
        let mut preemptions = 0usize;
        let mut migrations = 0usize;
        let mut prev: Option<&Segment> = None;
        for seg in job_segments(schedule, job.id) {
            if let Some(p) = prev {
                if !num::approx_eq(p.end, seg.start) {
                    preemptions += 1;
                }
                if p.machine != seg.machine {
                    migrations += 1;
                }
            }
            let before = work_done;
            work_done += seg.work_amount();
            if completion_time.is_none() && num::approx_ge(work_done, job.work) {
                let needed = job.work - before;
                let t = if seg.speed > 0.0 {
                    seg.start + needed / seg.speed
                } else {
                    seg.end
                };
                completion_time = Some(t.min(seg.end));
            }
            prev = Some(seg);
        }
        let finished = num::approx_ge(work_done, job.work);
        jobs.push(JobOutcome {
            job: job.id,
            work_done,
            finished,
            completion_time: if finished { completion_time } else { None },
            slack: if finished {
                completion_time.map(|t| job.deadline - t)
            } else {
                None
            },
            preemptions,
            migrations,
        });
    }
    let mut machines = vec![MachineStats::default(); m];
    for (machine, stats) in machines.iter_mut().enumerate() {
        for seg in &machine_segments(schedule, machine) {
            stats.busy_time += seg.duration();
            stats.energy += power.energy_at_speed(seg.speed, seg.duration());
            stats.work += seg.work_amount();
            stats.peak_speed = stats.peak_speed.max(seg.speed);
        }
        let span = horizon.1 - horizon.0;
        stats.idle_time = (span - stats.busy_time).max(0.0);
        stats.utilization = if span > 0.0 {
            stats.busy_time / span
        } else {
            0.0
        };
    }
    let total_energy = num::stable_sum(machines.iter().map(|s| s.energy));
    let lost_value = num::stable_sum(
        jobs.iter()
            .filter(|o| !o.finished)
            .map(|o| instance.job(o.job).value),
    );
    let preemptions = jobs.iter().map(|o| o.preemptions).sum();
    let migrations = jobs.iter().map(|o| o.migrations).sum();
    Ok(SimReport {
        horizon,
        machines,
        jobs,
        total_energy,
        lost_value,
        preemptions,
        migrations,
    })
}

/// Half-unit grid slots of the schedules' time line.
const SLOTS: usize = 16;

fn pick<T: Copy>(rng: &mut SmallRng, items: &[T]) -> T {
    items[rng.usize_range(0, items.len() - 1)]
}

/// A random instance on the half-unit grid and a schedule for it.
///
/// Every slot gives each machine a job whose window covers it (or idle
/// time), nearly always a distinct one, so jobs migrate between machines
/// and many segments share a start time; a slot's segment is sometimes
/// merged into the one before it or cut at an off-grid point.  Then, each
/// with its own probability, defects are injected, and the segment order
/// is shuffled.
fn random_case(rng: &mut SmallRng) -> (Instance, Schedule) {
    let m = rng.usize_range(1, 3);
    let n = rng.usize_range(1, 12);
    let alpha = pick(rng, &[2.0, 2.5, 3.0]);
    let jobs: Vec<(f64, f64, f64, f64)> = (0..n)
        .map(|_| {
            let release = 0.5 * rng.usize_range(0, SLOTS - 2) as f64;
            let deadline = (release + 0.5 * rng.usize_range(1, 8) as f64).min(0.5 * SLOTS as f64);
            (
                release,
                deadline,
                rng.f64_range(0.1, 2.0),
                rng.f64_range(0.1, 5.0),
            )
        })
        .collect();
    let instance = Instance::from_tuples(m, alpha, jobs).unwrap();

    let mut schedule = Schedule::empty(m);
    for slot in 0..SLOTS {
        let (start, end) = (0.5 * slot as f64, 0.5 * (slot + 1) as f64);
        let mut free: Vec<JobId> = instance
            .jobs
            .iter()
            .filter(|j| j.covers(start, end))
            .map(|j| j.id)
            .collect();
        for machine in 0..m {
            if free.is_empty() || rng.next_f64() < 0.25 {
                if rng.next_f64() < 0.3 {
                    schedule.segments.push(Segment::idle(machine, start, end));
                }
                continue;
            }
            let k = rng.usize_range(0, free.len() - 1);
            // Now and then a job stays free for the next machine too, and
            // runs on two machines at once.
            let job = if rng.next_f64() < 0.02 {
                free[k]
            } else {
                free.swap_remove(k)
            };
            let any = rng.f64_range(0.05, 2.0);
            let speed = pick(rng, &[0.5, 1.0, any]);
            let prev = schedule.segments.last_mut().filter(|s| {
                s.machine == machine && s.job == Some(job) && s.end == start && s.speed == speed
            });
            match prev {
                Some(prev) if rng.next_f64() < 0.5 => prev.end = end,
                _ if rng.next_f64() < 0.2 => {
                    let cut = rng.f64_range(start + 0.05, end - 0.05);
                    schedule
                        .segments
                        .push(Segment::work(machine, start, cut, speed, job));
                    schedule
                        .segments
                        .push(Segment::work(machine, cut, end, speed, job));
                }
                _ => schedule
                    .segments
                    .push(Segment::work(machine, start, end, speed, job)),
            }
        }
    }

    let segs = &mut schedule.segments;
    if !segs.is_empty() {
        if rng.next_f64() < 0.1 {
            // An exact duplicate on the same machine.
            let seg = pick(rng, segs);
            segs.push(seg);
        }
        if rng.next_f64() < 0.1 && m > 1 {
            // A copy on another machine: the job runs in parallel.
            let mut seg = pick(rng, segs);
            seg.machine = (seg.machine + rng.usize_range(1, m - 1)) % m;
            segs.push(seg);
        }
        if rng.next_f64() < 0.05 {
            // A shifted copy: overlaps its original or leaves the window.
            let mut seg = pick(rng, segs);
            let shift = pick(rng, &[-0.25, 0.25, 1.0, 3.0]);
            seg.start += shift;
            seg.end += shift;
            segs.push(seg);
        }
        if rng.next_f64() < 0.03 {
            let k = rng.usize_range(0, segs.len() - 1);
            segs[k].machine = m + rng.usize_range(0, 1);
        }
        if rng.next_f64() < 0.03 {
            let k = rng.usize_range(0, segs.len() - 1);
            segs[k].job = Some(JobId(n + rng.usize_range(0, 1)));
        }
        if rng.next_f64() < 0.02 {
            let k = rng.usize_range(0, segs.len() - 1);
            segs[k].speed = -segs[k].speed - 0.5;
        }
        if rng.next_f64() < 0.02 {
            let k = rng.usize_range(0, segs.len() - 1);
            segs[k].end = segs[k].start - 0.25;
        }
    }
    for i in (1..segs.len()).rev() {
        segs.swap(i, rng.usize_range(0, i));
    }
    (instance, schedule)
}

#[test]
fn segments_by_job_lists_each_job_as_a_per_job_filter_does() {
    let mut rng = SmallRng::seed_from_u64(0x5eed_1dec);
    for _ in 0..300 {
        let (instance, schedule) = random_case(&mut rng);
        let index = schedule.segments_by_job(instance.len());
        for job in &instance.jobs {
            let got: Vec<*const Segment> = index.job(job.id).iter().map(|s| *s as _).collect();
            let want: Vec<*const Segment> = job_segments(&schedule, job.id)
                .into_iter()
                .map(|s| s as _)
                .collect();
            assert_eq!(got, want, "job {}", job.id);
        }
    }
}

#[test]
fn validation_and_replay_match_the_per_job_filter_reference() {
    let mut rng = SmallRng::seed_from_u64(13);
    let (mut valid, mut parallel, mut overlap, mut other) = (0, 0, 0, 0);
    for case in 0..3_000 {
        let (instance, schedule) = random_case(&mut rng);
        let want = reference_validate(&instance, &schedule);
        let got = validate_schedule(&instance, &schedule);
        assert_eq!(format!("{got:?}"), format!("{want:?}"), "case {case}");
        let want_run = reference_run(&instance, &schedule);
        let got_run = Simulation.run(&instance, &schedule);
        assert_eq!(
            format!("{got_run:?}"),
            format!("{want_run:?}"),
            "case {case}"
        );
        match want {
            Ok(_) => valid += 1,
            Err(ScheduleError::BadSegment(msg)) if msg.contains("simultaneously") => parallel += 1,
            Err(ScheduleError::BadSegment(msg)) if msg.contains("overlapping") => overlap += 1,
            Err(_) => other += 1,
        }
    }
    // Each outcome class must be well represented, or the pin is vacuous.
    for (class, count) in [
        ("valid", valid),
        ("parallel", parallel),
        ("overlap", overlap),
        ("other errors", other),
    ] {
        assert!(count >= 100, "{class}: only {count} of 3000 cases");
    }
}
