//! Shared instance generators for the cross-crate integration suite.
//!
//! Every integration test binary used to carry its own copy of the same
//! `RandomConfig { value: ProportionalToEnergy, .. }` builders; they now
//! live here once.  Each binary compiles this module independently and uses
//! a subset of it, hence the `dead_code` allowance.

#![allow(dead_code)]

use pss_core::prelude::*;
use pss_workloads::{ArrivalModel, RandomConfig, ValueModel, WorkModel};

/// The base configuration of the "profitable" regime every equivalence and
/// guarantee test sweeps: job values proportional to the job's stand-alone
/// energy (factor 0.3–4.0), putting jobs near the accept/reject boundary.
pub fn profitable_config(seed: u64, machines: usize, alpha: f64, n: usize) -> RandomConfig {
    RandomConfig {
        n_jobs: n,
        machines,
        alpha,
        value: ValueModel::ProportionalToEnergy { min: 0.3, max: 4.0 },
        ..RandomConfig::standard(seed)
    }
}

/// The 10-job profitable instance of the equivalence tests.
pub fn profitable(seed: u64, machines: usize, alpha: f64) -> Instance {
    profitable_config(seed, machines, alpha, 10).generate()
}

/// A profitable instance with an explicit size.
pub fn profitable_n(seed: u64, machines: usize, alpha: f64, n: usize) -> Instance {
    profitable_config(seed, machines, alpha, n).generate()
}

/// A profitable instance with an explicit value-factor range (the
/// competitive-guarantee sweeps use a slightly wider 0.2–4.0 band).
pub fn profitable_values(
    seed: u64,
    machines: usize,
    alpha: f64,
    n: usize,
    min: f64,
    max: f64,
) -> Instance {
    RandomConfig {
        value: ValueModel::ProportionalToEnergy { min, max },
        ..profitable_config(seed, machines, alpha, n)
    }
    .generate()
}

/// Equal-release bursts (bit-identical release times within each burst) —
/// the tied-release adversarial shape of the burst and warm-start pins.
pub fn bursty_profitable(
    seed: u64,
    machines: usize,
    alpha: f64,
    n: usize,
    burst: usize,
) -> Instance {
    RandomConfig {
        arrival: ArrivalModel::Bursty { burst_size: burst },
        ..profitable_config(seed, machines, alpha, n)
    }
    .generate()
}

/// A Poisson stream with a bounded active set (rate jobs per unit time).
pub fn poisson_profitable(seed: u64, machines: usize, alpha: f64, n: usize, rate: f64) -> Instance {
    RandomConfig {
        arrival: ArrivalModel::Poisson { rate },
        ..profitable_config(seed, machines, alpha, n)
    }
    .generate()
}

/// Bursts of near-simultaneous arrivals with distinct microsecond-scale
/// timestamps — the ingestion-grain workload of the coalescing layer.
pub fn bursty_poisson_profitable(
    seed: u64,
    machines: usize,
    alpha: f64,
    n: usize,
    burst: usize,
    rate: f64,
    jitter: f64,
) -> Instance {
    RandomConfig {
        arrival: ArrivalModel::BurstyPoisson {
            rate,
            burst_size: burst,
            jitter,
        },
        ..profitable_config(seed, machines, alpha, n)
    }
    .generate()
}

/// The classical mandatory-completion regime (every value is huge, so no
/// algorithm may reject).
pub fn mandatory(seed: u64, machines: usize, alpha: f64, n: usize) -> Instance {
    RandomConfig {
        value: ValueModel::Mandatory,
        ..profitable_config(seed, machines, alpha, n)
    }
    .generate()
}

/// The hand-crafted tolerance edge case shared by the warm-start, batch
/// and toggle-matrix pins: equal releases, deadlines tied within `1e-12`,
/// and (nearly) zero-work jobs.
pub fn edge_instance(machines: usize, alpha: f64) -> Instance {
    Instance::from_tuples(
        machines,
        alpha,
        vec![
            (0.0, 2.0, 1.0, 10.0),
            (0.0, 2.0, 1e-9, 10.0), // near-zero work, tied window
            (0.0, 3.0, 1e-9, 10.0),
            (1.0, 3.0, 0.8, 10.0),
            (1.0, 3.0 + 1e-13, 0.4, 10.0), // deadline tied within 1e-12
            (2.0, 5.0, 1.5, 10.0),
        ],
    )
    .unwrap()
}

/// A single job so expensive relative to its value that every profit-aware
/// algorithm rejects it (speed 10 over a unit window — energy 100 at
/// `α = 2` — for a value of 0.001), plus one easy accepted job.
pub fn hopeless_instance() -> Instance {
    Instance::from_tuples(1, 2.0, vec![(0.0, 1.0, 10.0, 0.001), (0.0, 2.0, 0.5, 10.0)]).unwrap()
}

/// An easy mandatory-style instance every algorithm accepts in full.
pub fn easy_instance() -> Instance {
    Instance::from_tuples(1, 2.0, vec![(0.0, 4.0, 1.0, 100.0), (1.0, 3.0, 0.5, 100.0)]).unwrap()
}

/// The three workload families of the end-to-end pipeline test: the
/// standard family, a Poisson multiprocessor family, and a heavy-tailed
/// bursty family.
pub fn pipeline_families() -> Vec<RandomConfig> {
    vec![
        RandomConfig::standard(1),
        RandomConfig {
            n_jobs: 30,
            machines: 4,
            alpha: 3.0,
            arrival: ArrivalModel::Poisson { rate: 2.0 },
            value: ValueModel::ProportionalToEnergy { min: 0.2, max: 5.0 },
            ..RandomConfig::standard(2)
        },
        RandomConfig {
            n_jobs: 24,
            machines: 2,
            alpha: 1.7,
            arrival: ArrivalModel::Bursty { burst_size: 4 },
            work: WorkModel::Pareto {
                shape: 1.3,
                scale: 0.3,
                cap: 8.0,
            },
            value: ValueModel::ProportionalToWork { min: 0.1, max: 3.0 },
            ..RandomConfig::standard(3)
        },
    ]
}
