//! An independent derivation of Skipper's skip schedule from the spike
//! activity record (Section VI), used to check the counts the program
//! reports. It shares no code with `skipper_core::sam`.

use crate::stats::nearest_rank;

/// Segment boundaries of `checkpoints` equal temporal segments over
/// `timesteps` steps: `k * T / C` for `k = 0..=C`.
pub fn segments(timesteps: usize, checkpoints: usize) -> Vec<usize> {
    (0..=checkpoints)
        .map(|k| k * timesteps / checkpoints)
        .collect()
}

/// Steps Skipper skips given the per-step spike sums `s_t`: within each
/// segment the spike-sum threshold `SST_c` is the nearest-rank
/// `percentile` of the segment's sums, and step `t` is skipped iff
/// `s_t < SST_c`.
pub fn skipped_steps(sums: &[f64], checkpoints: usize, percentile: f64) -> usize {
    let bounds = segments(sums.len(), checkpoints);
    bounds
        .windows(2)
        .map(|w| {
            let seg = &sums[w[0]..w[1]];
            let sst = nearest_rank(seg, percentile);
            seg.iter().filter(|&&s| s < sst).count()
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_split_the_horizon_evenly() {
        assert_eq!(segments(30, 3), vec![0, 10, 20, 30]);
        assert_eq!(segments(10, 3), vec![0, 3, 6, 10]);
    }

    #[test]
    fn hand_worked_record() {
        // T = 8, C = 2, p = 50.
        // Segment 0 sums [4, 1, 3, 2]: sorted [1, 2, 3, 4], rank ceil(2) = 2,
        // SST = 2, so only s = 1 is below it: 1 skip.
        // Segment 1 sums [10, 10, 0, 7]: sorted [0, 7, 10, 10], SST = 7,
        // so only s = 0 is below it: 1 skip.
        let sums = [4.0, 1.0, 3.0, 2.0, 10.0, 10.0, 0.0, 7.0];
        assert_eq!(skipped_steps(&sums, 2, 50.0), 2);
        // p = 70: ranks ceil(2.8) = 3, SST = 3 and 10: 2 + 2 skips.
        assert_eq!(skipped_steps(&sums, 2, 70.0), 4);
    }

    #[test]
    fn ties_at_the_threshold_are_recomputed() {
        // Every step equal: nothing is strictly below the threshold.
        assert_eq!(skipped_steps(&[5.0; 12], 3, 70.0), 0);
        // Uneven split: T = 10, C = 3 gives segments of 3, 3 and 4 steps.
        let sums = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 1.0, 2.0, 3.0, 4.0];
        // p = 70: SST 3 in each segment (ranks 3 of 3, 3 of 3 and 3 of 4),
        // so 2 + 2 + 2 skips.
        assert_eq!(skipped_steps(&sums, 3, 70.0), 6);
    }
}
