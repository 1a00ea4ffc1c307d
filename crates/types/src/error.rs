//! Error types shared across the workspace.

use crate::job::JobId;
use std::fmt;

/// Errors raised when constructing or validating a problem instance.
#[derive(Debug, Clone, PartialEq)]
pub enum InstanceError {
    /// A job violates the model constraints (negative work, deadline before
    /// release, …).
    BadJob {
        /// The offending job.
        job: JobId,
        /// Human-readable description of the violation.
        reason: String,
    },
    /// The energy exponent `α` must be a finite number `> 1`.
    BadAlpha(f64),
    /// The instance must have at least one machine.
    NoMachines,
    /// Job ids must be the dense sequence `0..n`.
    NonDenseIds {
        /// Index at which the id mismatch was detected.
        position: usize,
        /// The id actually found at that position.
        found: JobId,
    },
}

impl fmt::Display for InstanceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceError::BadJob { job, reason } => write!(f, "invalid job {job}: {reason}"),
            InstanceError::BadAlpha(a) => {
                write!(f, "energy exponent alpha must be finite and > 1, got {a}")
            }
            InstanceError::NoMachines => write!(f, "instance must have at least one machine"),
            InstanceError::NonDenseIds { position, found } => write!(
                f,
                "job ids must be dense 0..n: expected j{position} at position {position}, found {found}"
            ),
        }
    }
}

impl std::error::Error for InstanceError {}

/// Errors raised by schedule construction or execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ScheduleError {
    /// A segment has a nonpositive duration or nonfinite endpoints.
    BadSegment(String),
    /// A segment refers to a machine index outside the instance.
    UnknownMachine(usize),
    /// A segment refers to a job id outside the instance.
    UnknownJob(JobId),
    /// The underlying numeric solver failed to converge.
    SolverDiverged(String),
    /// A run answered an `on_arrivals` burst with other than one decision
    /// per job.
    ArrivalContract {
        /// Jobs in the burst.
        jobs: usize,
        /// Decisions the run returned.
        decisions: usize,
    },
    /// A generic invariant violation inside an algorithm.
    Internal(String),
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::BadSegment(msg) => write!(f, "invalid schedule segment: {msg}"),
            ScheduleError::UnknownMachine(m) => write!(f, "segment refers to unknown machine {m}"),
            ScheduleError::UnknownJob(j) => write!(f, "segment refers to unknown job {j}"),
            ScheduleError::SolverDiverged(msg) => write!(f, "numeric solver diverged: {msg}"),
            ScheduleError::ArrivalContract { jobs, decisions } => write!(
                f,
                "on_arrivals contract violation: {decisions} decisions for a burst of {jobs} jobs"
            ),
            ScheduleError::Internal(msg) => write!(f, "internal scheduling error: {msg}"),
        }
    }
}

impl std::error::Error for ScheduleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = InstanceError::BadJob {
            job: JobId(2),
            reason: "work is zero".into(),
        };
        assert!(e.to_string().contains("j2"));
        assert!(e.to_string().contains("work is zero"));

        let e = InstanceError::BadAlpha(0.5);
        assert!(e.to_string().contains("0.5"));

        let e = ScheduleError::UnknownMachine(9);
        assert!(e.to_string().contains('9'));

        let e = ScheduleError::UnknownJob(JobId(4));
        assert!(e.to_string().contains("j4"));
    }
}
