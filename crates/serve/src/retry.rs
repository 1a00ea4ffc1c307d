//! Producer-side retry: bounded exponential backoff with deterministic
//! jitter over the typed [`IngressError`] taxonomy.
//!
//! The daemon's ingress is total — every failure is a typed error whose
//! [`IngressError::is_retryable`] contract says whether backing off can
//! help (a full queue drains, a quota frees, a price falls) or cannot (an
//! invalid envelope stays invalid).  [`RetryPolicy`] turns that contract
//! into a driver: retryable errors are retried with exponentially growing,
//! jittered, capped delays until the submission lands or the attempt
//! budget is spent; non-retryable errors give up immediately.  Every
//! outcome is typed ([`RetryError`]) — a producer loop never spins blind.
//!
//! Jitter is drawn from a caller-owned [`SmallRng`], so a retry schedule
//! is exactly as replayable as the fault plan that provoked it: same seed,
//! same backoff sequence.

use std::time::Duration;

use pss_types::{IngressError, JobEnvelope};
use pss_workloads::SmallRng;

use crate::daemon::{Submission, TenantHandle};

/// Bounded exponential backoff with deterministic jitter.
///
/// Attempt `k` (0-based) sleeps `base_delay · 2^k`, capped at `max_delay`,
/// then scaled by a jitter factor uniform in `[1 − jitter, 1]` — full
/// determinism comes from the caller's [`SmallRng`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total submission attempts (the first try counts); at least 1.
    pub max_attempts: usize,
    /// Delay before the first retry, in seconds.
    pub base_delay: f64,
    /// Hard cap on any single delay, in seconds.
    pub max_delay: f64,
    /// Jitter fraction in `[0, 1]`: each delay is scaled by a factor
    /// uniform in `[1 − jitter, 1]`.  `0` disables jitter.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_delay: 100e-6,
            max_delay: 10e-3,
            jitter: 0.5,
        }
    }
}

/// Why a retried submission gave up.
#[derive(Debug, Clone, PartialEq)]
pub enum RetryError {
    /// Every attempt failed with a retryable error; `last` is the final
    /// bounce.  The typed give-up of a storm that outlasts the budget.
    Exhausted {
        /// The error of the last attempt.
        last: IngressError,
        /// Attempts spent (equals the policy's `max_attempts`).
        attempts: usize,
    },
    /// A non-retryable error — retrying cannot help, so the policy stops
    /// at once rather than burning the budget.
    Fatal {
        /// The non-retryable error.
        error: IngressError,
        /// Attempts spent when it surfaced.
        attempts: usize,
    },
}

impl RetryError {
    /// The underlying ingress error.
    pub fn error(&self) -> &IngressError {
        match self {
            RetryError::Exhausted { last, .. } => last,
            RetryError::Fatal { error, .. } => error,
        }
    }

    /// Attempts spent before giving up.
    pub fn attempts(&self) -> usize {
        match self {
            RetryError::Exhausted { attempts, .. } | RetryError::Fatal { attempts, .. } => {
                *attempts
            }
        }
    }
}

impl std::fmt::Display for RetryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetryError::Exhausted { last, attempts } => {
                write!(f, "gave up after {attempts} retryable attempt(s): {last}")
            }
            RetryError::Fatal { error, attempts } => {
                write!(f, "non-retryable after {attempts} attempt(s): {error}")
            }
        }
    }
}

impl RetryPolicy {
    /// The jittered delay before retry number `attempt` (0-based: the
    /// delay after the first failed attempt is `backoff_secs(0, ..)`).
    /// Always finite, nonnegative, and at most `max_delay` — bounded
    /// regardless of how large `attempt` grows.
    pub fn backoff_secs(&self, attempt: usize, rng: &mut SmallRng) -> f64 {
        let base = self.base_delay.max(0.0);
        // Saturating power of two: past ~2^60 the cap has long since won.
        let factor = if attempt >= 60 {
            f64::from(1u32 << 30) * f64::from(1u32 << 30)
        } else {
            (1u64 << attempt) as f64
        };
        let raw = (base * factor).min(self.max_delay.max(0.0));
        let jitter = self.jitter.clamp(0.0, 1.0);
        raw * (1.0 - jitter * rng.next_f64())
    }

    /// The backoff for retry `attempt` after a specific bounce: price
    /// deferrals ([`IngressError::Backpressure`]) carry the observed shard
    /// price, so the delay is scaled by how far the price overshot the
    /// producer's threshold ([`IngressError::price_overshoot`], clamped to
    /// at most 8x) — a 3x-overpriced shard is retried 3x more slowly
    /// instead of blindly.  Other retryable errors keep the plain
    /// schedule.  Still bounded: at most `8 · max_delay`.
    pub fn backoff_secs_for(
        &self,
        attempt: usize,
        error: &IngressError,
        rng: &mut SmallRng,
    ) -> f64 {
        let scale = error.price_overshoot().map_or(1.0, |o| o.clamp(1.0, 8.0));
        self.backoff_secs(attempt, rng) * scale
    }

    /// Drives one envelope to completion or typed give-up: submits through
    /// `handle`, sleeping the jittered backoff between retryable failures.
    /// Returns the successful [`Submission`] (including a policy-conforming
    /// [`Submission::RejectedByPrice`]), or the typed [`RetryError`].
    /// Terminates after at most `max_attempts` submissions.  Price
    /// deferrals back off proportionally to the observed overshoot — see
    /// [`backoff_secs_for`](Self::backoff_secs_for).
    pub fn submit(
        &self,
        handle: &TenantHandle,
        envelope: JobEnvelope,
        rng: &mut SmallRng,
    ) -> Result<Submission, RetryError> {
        let budget = self.max_attempts.max(1);
        for attempt in 0..budget {
            match handle.submit(envelope) {
                Ok(outcome) => return Ok(outcome),
                Err(e) if !e.is_retryable() => {
                    return Err(RetryError::Fatal {
                        error: e,
                        attempts: attempt + 1,
                    });
                }
                Err(e) => {
                    if attempt + 1 == budget {
                        return Err(RetryError::Exhausted {
                            last: e,
                            attempts: budget,
                        });
                    }
                    let delay = self.backoff_secs_for(attempt, &e, rng);
                    if delay > 0.0 {
                        std::thread::sleep(Duration::from_secs_f64(delay));
                    } else {
                        pss_check::thread::yield_now();
                    }
                }
            }
        }
        // Unreachable: the loop always returns by the last attempt; typed
        // fallback keeps the function total without a panic path.
        Err(RetryError::Exhausted {
            last: IngressError::ShuttingDown,
            attempts: budget,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps_and_jitter_shrinks_only() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base_delay: 1e-4,
            max_delay: 1e-3,
            jitter: 0.0,
            // no jitter: the schedule is the pure capped doubling
        };
        let mut rng = SmallRng::seed_from_u64(1);
        let d: Vec<f64> = (0..8).map(|k| policy.backoff_secs(k, &mut rng)).collect();
        assert_eq!(d[0], 1e-4); // pss-lint: allow(float-eq) — exact doubling, no rounding
        assert_eq!(d[1], 2e-4); // pss-lint: allow(float-eq) — exact doubling, no rounding
        assert_eq!(d[2], 4e-4); // pss-lint: allow(float-eq) — exact doubling, no rounding
        for dk in &d[4..8] {
            assert_eq!(*dk, 1e-3); // pss-lint: allow(float-eq) — capped exactly
        }
        // With jitter, delays only shrink, never exceed the cap, and the
        // sequence is reproducible from the seed.
        let jittered = RetryPolicy {
            jitter: 0.5,
            ..policy
        };
        let mut a = SmallRng::seed_from_u64(7);
        let mut b = SmallRng::seed_from_u64(7);
        for k in 0..20 {
            let da = jittered.backoff_secs(k, &mut a);
            assert!((0.0..=1e-3).contains(&da));
            assert_eq!(da.to_bits(), jittered.backoff_secs(k, &mut b).to_bits());
        }
        // Huge attempt numbers stay bounded (no overflow, no inf).
        let mut rng = SmallRng::seed_from_u64(2);
        let far = policy.backoff_secs(usize::MAX, &mut rng);
        assert!(far.is_finite() && far <= 1e-3);
    }

    #[test]
    fn price_deferrals_back_off_proportionally() {
        use pss_types::TenantId;
        let policy = RetryPolicy {
            max_attempts: 4,
            base_delay: 1e-4,
            max_delay: 1e-3,
            jitter: 0.0,
        };
        let deferred = |price: f64| IngressError::Backpressure {
            tenant: TenantId(0),
            price,
            threshold: 1.0,
        };
        let mut rng = SmallRng::seed_from_u64(3);
        // 3x over the threshold ⇒ exactly 3x the plain schedule.
        let plain = policy.backoff_secs(0, &mut rng);
        let scaled = policy.backoff_secs_for(0, &deferred(3.0), &mut rng);
        assert_eq!(scaled, 3.0 * plain); // pss-lint: allow(float-eq) — exact scale, no rounding
                                         // The proportional scale is clamped: a 100x overshoot waits 8x,
                                         // not 100x, so one absurd price cannot park a producer forever.
        let capped = policy.backoff_secs_for(1, &deferred(100.0), &mut rng);
        assert_eq!(capped, 8.0 * policy.backoff_secs(1, &mut rng)); // pss-lint: allow(float-eq) — exact scale
                                                                    // Non-price errors keep the plain schedule.
        let other = IngressError::QueueFull {
            shard: 0,
            capacity: 4,
        };
        let a = policy.backoff_secs_for(2, &other, &mut rng);
        assert_eq!(a, policy.backoff_secs(2, &mut rng)); // pss-lint: allow(float-eq) — identical schedule
    }
}
