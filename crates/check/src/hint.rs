//! Spin-loop hint facade: busy-wait loops in the serving layer spin
//! through here so the model checker sees them as schedule points
//! (`pss-lint`'s `spin-outside-facade` rule enforces it).

/// Emits a spin-loop hint.
///
/// `std::hint::spin_loop` in normal builds; a scheduler yield point under
/// `--cfg pss_model_check` (a spinning thread must let the scheduler run
/// the thread it is waiting on).
#[inline]
pub fn spin_loop() {
    #[cfg(not(pss_model_check))]
    std::hint::spin_loop();
    #[cfg(pss_model_check)]
    crate::model::yield_now();
}
