//! Floating point helpers with tolerances.
//!
//! All numeric code in the workspace performs comparisons of times, speeds,
//! workloads and energies that are the result of iterative numeric
//! procedures (water filling, coordinate descent).  Comparing such
//! quantities with `==` or `<` directly leads to brittle behaviour, so
//! every crate routes its comparisons through the helpers defined here,
//! with [`EPS`], the workspace-wide default absolute/relative tolerance of
//! the convenience functions ([`approx_eq`], [`approx_le`], …), and sums
//! through the compensated [`stable_sum`].

/// Workspace-wide default tolerance used by the convenience comparison
/// functions in this module.
pub const EPS: f64 = 1e-9;

/// Returns `true` if `a` and `b` are equal up to a combined
/// absolute/relative tolerance of `tol`.
///
/// The comparison is symmetric: `|a - b| <= tol * max(1, |a|, |b|)`.
#[inline]
pub fn approx_eq_tol(a: f64, b: f64, tol: f64) -> bool {
    let scale = 1.0_f64.max(a.abs()).max(b.abs());
    (a - b).abs() <= tol * scale
}

/// Returns `true` if `a` and `b` are equal up to the default tolerance
/// [`EPS`].
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    approx_eq_tol(a, b, EPS)
}

/// Returns `true` if `a <= b` up to the default tolerance [`EPS`].
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b || approx_eq(a, b)
}

/// Returns `true` if `a >= b` up to the default tolerance [`EPS`].
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    a >= b || approx_eq(a, b)
}

/// Returns `true` if `a` is strictly smaller than `b` beyond the default
/// tolerance (i.e. `a < b` and they are not approximately equal).
#[inline]
pub fn definitely_lt(a: f64, b: f64) -> bool {
    a < b && !approx_eq(a, b)
}

/// Returns `true` if `a` is strictly greater than `b` beyond the default
/// tolerance.
#[inline]
pub fn definitely_gt(a: f64, b: f64) -> bool {
    a > b && !approx_eq(a, b)
}

/// Returns `true` if `x` is approximately zero (absolute tolerance [`EPS`]).
#[inline]
pub fn approx_zero(x: f64) -> bool {
    x.abs() <= EPS
}

/// Clamps `x` into `[lo, hi]`, tolerating `lo > hi` by at most [`EPS`]
/// (in which case the midpoint is returned).
#[inline]
pub fn clamp(x: f64, lo: f64, hi: f64) -> f64 {
    if lo > hi {
        debug_assert!(lo - hi <= 1e-6, "clamp: inverted interval [{lo}, {hi}]");
        return 0.5 * (lo + hi);
    }
    x.max(lo).min(hi)
}

/// Sums a slice with Neumaier (improved Kahan) compensation.
///
/// Energy totals aggregate many small per-segment contributions of widely
/// varying magnitude; compensated summation keeps the experiment tables
/// reproducible across summation orders.
pub fn stable_sum(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut sum = 0.0_f64;
    let mut comp = 0.0_f64;
    for v in values {
        let t = sum + v;
        if sum.abs() >= v.abs() {
            comp += (sum - t) + v;
        } else {
            comp += (v - t) + sum;
        }
        sum = t;
    }
    sum + comp
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_eq_basic() {
        assert!(approx_eq(1.0, 1.0 + 1e-12));
        assert!(!approx_eq(1.0, 1.0 + 1e-3));
        assert!(approx_eq(1e12, 1e12 + 1.0));
    }

    #[test]
    fn approx_ordering() {
        assert!(approx_le(1.0, 1.0 + 1e-12));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(approx_ge(2.0, 1.0));
        assert!(definitely_lt(1.0, 2.0));
        assert!(!definitely_lt(1.0, 1.0 + 1e-13));
        assert!(definitely_gt(2.0, 1.0));
    }

    #[test]
    fn approx_zero_works() {
        assert!(approx_zero(0.0));
        assert!(approx_zero(1e-12));
        assert!(!approx_zero(1e-3));
    }

    #[test]
    fn clamp_works() {
        assert_eq!(clamp(5.0, 0.0, 1.0), 1.0);
        assert_eq!(clamp(-5.0, 0.0, 1.0), 0.0);
        assert_eq!(clamp(0.5, 0.0, 1.0), 0.5);
    }

    #[test]
    fn stable_sum_matches_naive_for_small_inputs() {
        let xs = [1.0, 2.0, 3.0, 4.5];
        assert!(approx_eq(stable_sum(xs), 10.5));
    }

    #[test]
    fn stable_sum_handles_cancellation() {
        // 1 + 1e16 - 1e16 naively loses the 1 in f64 when summed in a bad
        // order; Neumaier keeps it.
        let xs = [1.0, 1e16, -1e16];
        assert_eq!(stable_sum(xs), 1.0);
    }
}
