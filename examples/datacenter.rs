//! A data-center-like scenario: a bursty stream of jobs with heavy-tailed
//! sizes and heterogeneous values on a pool of 8 speed-scalable machines —
//! the setting the paper's introduction motivates.
//!
//! The example runs the paper's PD algorithm, replays the resulting
//! schedule in the simulator, and prints an operations-style report
//! (acceptance rate, energy, utilisation, preemptions/migrations), plus the
//! dual lower bound that certifies how far from optimal the run can be.
//!
//! ```text
//! cargo run --release --example datacenter
//! ```

use pss_core::prelude::*;
use pss_sim::{Simulation, StreamingSimulation};
use pss_workloads::{ArrivalModel, RandomConfig, ValueModel, WorkModel};

fn main() {
    let cfg = RandomConfig {
        n_jobs: 120,
        machines: 8,
        alpha: 3.0,
        horizon: 30.0,
        arrival: ArrivalModel::Bursty { burst_size: 6 },
        work: WorkModel::Pareto {
            shape: 1.5,
            scale: 0.4,
            cap: 12.0,
        },
        value: ValueModel::ProportionalToEnergy { min: 0.2, max: 6.0 },
        ..RandomConfig::standard(2026)
    };
    let instance = cfg.generate();
    println!(
        "workload: {} jobs on {} machines, total work {:.1}, total value {:.1}",
        instance.len(),
        instance.machines,
        instance.total_work(),
        instance.total_value()
    );

    let run = PdScheduler::coarse().run(&instance).expect("PD run");
    let accepted = run.accepted.iter().filter(|a| **a).count();
    let cost = run.cost();
    let analysis = analyze_run(&run);

    println!("\n== profitable scheduling (PD) ==");
    println!("  accepted jobs      : {accepted}/{}", instance.len());
    println!("  energy             : {:.3}", cost.energy);
    println!("  lost value         : {:.3}", cost.lost_value);
    println!("  total cost         : {:.3}", cost.total());
    println!("  dual lower bound   : {:.3}", analysis.dual.value);
    println!(
        "  certified ratio    : {:.3} (proven worst case α^α = {:.0})",
        analysis.certified_ratio, analysis.competitive_bound
    );

    let sim = Simulation
        .run(&instance, &run.schedule)
        .expect("simulate PD schedule");
    println!("\n== execution report ==");
    println!(
        "  mean utilisation   : {:.1}%",
        100.0 * sim.mean_utilization()
    );
    println!("  preemptions        : {}", sim.preemptions);
    println!("  migrations         : {}", sim.migrations);
    for (i, m) in sim.machines.iter().enumerate() {
        println!(
            "  machine {i}: busy {:.1}, energy {:.2}, peak speed {:.2}",
            m.busy_time, m.energy, m.peak_speed
        );
    }

    // The same run, driven as a live event stream: jobs are fed to PD one
    // arrival at a time, and every decision is traced with its dual value
    // and handling latency — the view an online admission controller has.
    let stream = StreamingSimulation::default()
        .run(&PdScheduler::coarse(), &instance)
        .expect("streaming PD run");
    println!("\n== streaming arrival trace ==");
    println!(
        "  arrivals           : {} ({} accepted, {} rejected, rate {:.1}%)",
        stream.events.len(),
        stream.accepted(),
        stream.rejected(),
        100.0 * stream.acceptance_rate()
    );
    println!(
        "  arrival latency    : mean {:.3} ms, max {:.3} ms",
        1e3 * stream.mean_latency_secs(),
        1e3 * stream.max_latency_secs()
    );
    for event in stream.events.iter().take(5) {
        println!(
            "  t={:6.2}  {}  {}  dual {:.3}  frontier {} segs",
            event.release,
            event.job,
            if event.accepted { "accept" } else { "REJECT" },
            event.dual,
            stream.frontier_segments[event.batch]
        );
    }
    println!(
        "  ... ({} more events)",
        stream.events.len().saturating_sub(5)
    );

    // What would happen if the operator insisted on finishing everything?
    let finish_all = MinEnergyScheduler::default()
        .schedule(&instance)
        .expect("offline finish-everything schedule");
    let finish_all_cost = finish_all.cost(&instance);
    println!("\n== comparison: finish every job (offline energy-optimal) ==");
    println!("  energy = total cost: {:.3}", finish_all_cost.total());
    println!(
        "  PD saves {:.1}% of that cost by rejecting {} low-value jobs",
        100.0 * (1.0 - cost.total() / finish_all_cost.total()),
        instance.len() - accepted
    );
}
