//! Small numeric helpers: percentiles, medians, process memory, seeds.

/// Nearest-rank percentile (`0 ≤ p ≤ 100`) of unsorted samples; 0 for none.
/// Uses the same rank rule as `pss_sim::nearest_rank`, which every
/// percentile in the repository follows.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    pss_sim::nearest_rank(&sorted, p)
}

/// Median of unsorted samples (mean of the middle pair for an even count);
/// 0 for none.
pub fn median(samples: &[f64]) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => 0.5 * (sorted[n / 2 - 1] + sorted[n / 2]),
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB (2^20 bytes);
/// 0 where `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Returns the allocator's free memory to the kernel and resets this
/// process's `VmHWM` to its current resident set size, so every unit
/// starts from the same resident baseline and [`peak_rss_mb`] then reports
/// that unit's own peak.  Without either step the peak would ratchet up
/// with the memory earlier units left cached in the allocator, and depend
/// on how many units the run's time allowed.  Where the kernel refuses the
/// reset the peak keeps counting from process start.
pub fn start_memory_window() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> i32;
        }
        // SAFETY: glibc's `malloc_trim` takes a byte count, has no other
        // preconditions and only releases memory no allocation holds.
        unsafe {
            malloc_trim(0);
        }
    }
    // Writing 5 to `clear_refs` resets the peak resident set size.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// The seed of unit `unit` of a run seeded with `seed` (SplitMix64 of the
/// pair), so every stream of a run is a pure function of the run's seed.
pub fn unit_seed(seed: u64, unit: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(unit.wrapping_add(1).wrapping_mul(0xBF58_476D_1CE4_E5B9));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_and_median_follow_their_rank_rules() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(percentile(&v, 50.0), 3.0);
        assert_eq!(percentile(&v, 99.0), 5.0);
        assert_eq!(median(&v), 3.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn unit_seeds_differ_per_unit_and_per_seed() {
        assert_ne!(unit_seed(1, 0), unit_seed(1, 1));
        assert_ne!(unit_seed(1, 0), unit_seed(2, 0));
        assert_eq!(unit_seed(7, 3), unit_seed(7, 3));
    }
}
