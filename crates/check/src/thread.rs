//! Thread-yield facade: spin-retry loops in the serving layer yield
//! through here so the model checker sees them as schedule points
//! (`pss-lint`'s `spin-outside-facade` rule enforces it).

/// Yields the current thread.
///
/// `std::thread::yield_now` in normal builds; a scheduler yield point
/// (with no memory effect) under `--cfg pss_model_check`.
#[inline]
pub fn yield_now() {
    #[cfg(not(pss_model_check))]
    std::thread::yield_now();
    #[cfg(pss_model_check)]
    crate::model::yield_now();
}
