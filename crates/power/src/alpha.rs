//! The concrete power function `P_α(s) = s^α` and the analysis constants.

/// The power function `P_α(s) = s^α` for a fixed energy exponent `α > 1`,
/// together with the closed-form constants of the paper's analysis.
///
/// `P` is convex and differentiable with `P(0) = 0`, and the power algebra
/// below guarantees:
///
/// * `power(0) == 0`,
/// * `power` is convex and strictly increasing on `s >= 0`,
/// * `marginal(s)` is the derivative `P'(s)` and is nondecreasing,
/// * `speed_for_marginal(marginal(s)) == s` for all `s >= 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlphaPower {
    alpha: f64,
}

impl AlphaPower {
    /// Creates the power function for exponent `alpha`.
    ///
    /// # Panics
    /// Panics if `alpha` is not finite or not strictly greater than 1; the
    /// model (and every formula in the paper) requires `α > 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(
            alpha.is_finite() && alpha > 1.0,
            "energy exponent alpha must be finite and > 1, got {alpha}"
        );
        Self { alpha }
    }

    /// The energy exponent `α`.
    #[inline]
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Power consumption `P(s)` at speed `s >= 0`.
    #[inline]
    pub fn power(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            // Round-off occasionally produces tiny negative speeds; the
            // model's power at 0 is 0 and P is only defined for s >= 0.
            return 0.0;
        }
        speed.powf(self.alpha)
    }

    /// Derivative `P'(s)` at speed `s >= 0`.
    #[inline]
    pub fn marginal(&self, speed: f64) -> f64 {
        if speed <= 0.0 {
            return 0.0;
        }
        self.alpha * speed.powf(self.alpha - 1.0)
    }

    /// Inverse of [`marginal`](Self::marginal): the speed at which the
    /// derivative equals `m >= 0`.
    #[inline]
    pub fn speed_for_marginal(&self, m: f64) -> f64 {
        if m <= 0.0 {
            return 0.0;
        }
        (m / self.alpha).powf(1.0 / (self.alpha - 1.0))
    }

    /// Energy consumed when running at constant speed `s` for `time` units:
    /// `P(s) · time`.
    #[inline]
    pub fn energy_at_speed(&self, speed: f64, time: f64) -> f64 {
        self.power(speed) * time
    }

    /// Minimal energy needed to process `work` units of work within `time`
    /// time units on a single processor: achieved by running at the constant
    /// speed `work / time` (by convexity of `P`).
    #[inline]
    pub fn energy_for_work(&self, work: f64, time: f64) -> f64 {
        if work <= 0.0 {
            return 0.0;
        }
        debug_assert!(time > 0.0, "cannot process positive work in zero time");
        self.energy_at_speed(work / time, time)
    }

    /// The competitive ratio `α^α` proven for the paper's PD algorithm
    /// (Theorem 3), also the competitive ratio of OA (Bansal et al.).
    #[inline]
    pub fn competitive_ratio_pd(&self) -> f64 {
        self.alpha.powf(self.alpha)
    }

    /// The competitive ratio `α^α + 2 e^α` of the Chan–Lam–Li algorithm,
    /// the previously best known bound which the paper improves upon.
    #[inline]
    pub fn competitive_ratio_cll(&self) -> f64 {
        self.alpha.powf(self.alpha) + 2.0 * self.alpha.exp()
    }

    /// The lower bound `e^{α-1} / α` on the competitive ratio of any
    /// deterministic algorithm (Bansal et al.), quoted in the related work.
    #[inline]
    pub fn deterministic_lower_bound(&self) -> f64 {
        (self.alpha - 1.0).exp() / self.alpha
    }

    /// The analysed choice of the PD parameter, `δ = 1 / α^{α-1} = α^{1-α}`
    /// (Theorem 3).
    #[inline]
    pub fn delta_star(&self) -> f64 {
        self.alpha.powf(1.0 - self.alpha)
    }

    /// The rejection threshold factor `α^{α-2}`: with `δ = δ*`, PD rejects a
    /// job exactly when the energy of its planned schedule would exceed
    /// `α^{α-2} · v_j` (Section 3, "Relation to the OA Algorithm").
    #[inline]
    pub fn rejection_energy_factor(&self) -> f64 {
        self.alpha.powf(self.alpha - 2.0)
    }

    /// The equivalent speed form of the rejection threshold: a job with
    /// value `v` and workload `w` is rejected when its planned (constant)
    /// speed exceeds `(α^{α-2} · v / w)^{1/(α-1)}`.
    #[inline]
    pub fn rejection_speed_threshold(&self, value: f64, work: f64) -> f64 {
        debug_assert!(work > 0.0);
        (self.rejection_energy_factor() * value / work).powf(1.0 / (self.alpha - 1.0))
    }

    /// The speed `ŝ = (λ / (α w))^{1/(α-1)}` associated with a dual value
    /// `λ` and workload `w` (Lemma 5 of the paper).
    #[inline]
    pub fn dual_speed(&self, lambda: f64, work: f64) -> f64 {
        debug_assert!(work > 0.0);
        if lambda <= 0.0 {
            return 0.0;
        }
        (lambda / (self.alpha * work)).powf(1.0 / (self.alpha - 1.0))
    }

    /// The dual value `λ = α w s^{α-1}` associated with speed `s` and
    /// workload `w` (the inverse of [`dual_speed`](Self::dual_speed)).
    #[inline]
    pub fn dual_value(&self, speed: f64, work: f64) -> f64 {
        self.alpha * work * speed.powf(self.alpha - 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOL: f64 = 1e-10;

    #[test]
    #[should_panic(expected = "alpha must be finite and > 1")]
    fn rejects_alpha_one() {
        AlphaPower::new(1.0);
    }

    #[test]
    fn power_and_marginal_basics() {
        let p = AlphaPower::new(3.0);
        assert_eq!(p.power(0.0), 0.0);
        assert_eq!(p.power(-1e-15), 0.0);
        assert!((p.power(2.0) - 8.0).abs() < TOL);
        assert!((p.marginal(2.0) - 12.0).abs() < TOL);
        assert_eq!(p.marginal(0.0), 0.0);
    }

    #[test]
    fn marginal_and_inverse_are_inverses() {
        let p = AlphaPower::new(2.5);
        for &s in &[0.0, 0.1, 1.0, 3.7, 100.0] {
            let m = p.marginal(s);
            assert!((p.speed_for_marginal(m) - s).abs() < 1e-8, "s = {s}");
        }
    }

    #[test]
    fn energy_for_work_uses_constant_speed() {
        let p = AlphaPower::new(3.0);
        // 4 units of work in 2 time units => speed 2, power 8, energy 16.
        assert!((p.energy_for_work(4.0, 2.0) - 16.0).abs() < TOL);
        assert_eq!(p.energy_for_work(0.0, 2.0), 0.0);
        assert!((p.energy_at_speed(2.0, 3.0) - 24.0).abs() < TOL);
    }

    #[test]
    fn energy_is_convex_in_work() {
        // Splitting work across equal-length halves at different speeds
        // never beats the constant speed (convexity sanity check).
        let p = AlphaPower::new(2.2);
        let even = p.energy_for_work(4.0, 2.0);
        let uneven = p.energy_for_work(3.0, 1.0) + p.energy_for_work(1.0, 1.0);
        assert!(even <= uneven + TOL);
    }

    #[test]
    fn analysis_constants_alpha_2() {
        let p = AlphaPower::new(2.0);
        assert!((p.competitive_ratio_pd() - 4.0).abs() < TOL);
        assert!((p.competitive_ratio_cll() - (4.0 + 2.0 * (2.0f64).exp())).abs() < TOL);
        assert!((p.delta_star() - 0.5).abs() < TOL);
        assert!((p.rejection_energy_factor() - 1.0).abs() < TOL);
        assert!((p.deterministic_lower_bound() - (1.0f64).exp() / 2.0).abs() < TOL);
    }

    #[test]
    fn analysis_constants_alpha_3() {
        let p = AlphaPower::new(3.0);
        assert!((p.competitive_ratio_pd() - 27.0).abs() < TOL);
        assert!((p.delta_star() - 1.0 / 9.0).abs() < TOL);
        assert!((p.rejection_energy_factor() - 3.0).abs() < TOL);
    }

    #[test]
    fn cll_bound_dominates_pd_bound() {
        for &a in &[1.5, 2.0, 2.5, 3.0, 4.0] {
            let p = AlphaPower::new(a);
            assert!(p.competitive_ratio_cll() > p.competitive_ratio_pd());
        }
    }

    #[test]
    fn dual_speed_and_value_are_inverses() {
        let p = AlphaPower::new(2.7);
        let w = 3.0;
        for &s in &[0.2, 1.0, 5.0] {
            let lambda = p.dual_value(s, w);
            assert!((p.dual_speed(lambda, w) - s).abs() < 1e-8);
        }
        assert_eq!(p.dual_speed(0.0, w), 0.0);
        assert_eq!(p.dual_speed(-1.0, w), 0.0);
    }

    #[test]
    fn rejection_speed_threshold_matches_energy_form() {
        // A job planned at exactly the threshold speed has planned energy
        // exactly alpha^{alpha-2} * value: energy = w * s^{alpha-1}.
        let p = AlphaPower::new(3.0);
        let (w, v) = (2.0, 5.0);
        let s = p.rejection_speed_threshold(v, w);
        let planned_energy = w * s.powf(p.alpha() - 1.0);
        assert!((planned_energy - p.rejection_energy_factor() * v).abs() < 1e-9);
    }
}
