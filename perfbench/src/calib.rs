//! A fixed stretch of CPU work that the benchmark times beside every
//! sample, to read how fast the machine runs at that moment.
//!
//! The benchmark shares its cores with other tenants of the host. Even the
//! CPU time of the same work drifts with them, by up to a third within half
//! an hour on a 2-vCPU Xeon VM, and alike for every workload. The kernel
//! here never changes, so its CPU time moves only with the machine, and a
//! change to the program moves the workloads' CPU seconds but not the
//! kernel's.
//!
//! The kernel is pure core work and swings about twice as far as the
//! workloads, which also wait on memory: over 40 runs in half an hour on
//! that VM the workloads' CPU seconds moved as the kernel's to the power
//! 0.4 to 0.8. A run is therefore scaled by the square root of the
//! kernel's slowdown against [`REFERENCE_S`]. That halved, or better, the
//! spread of every end-to-end time between runs (paper_run 35% to 7%),
//! where scaling by the whole slowdown overshot (19%).

use crate::stats;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, DefaultHasher};

/// Rounds of [`round`] in one calibration, about 14 ms of CPU.
const ROUNDS: u64 = 8;

/// CPU seconds of one calibration on the reference machine, a 2-vCPU Xeon
/// VM.
pub const REFERENCE_S: f64 = 0.014;

/// Runs one calibration: [`ROUNDS`] rounds of the kernel.
pub fn run() -> u64 {
    (0..ROUNDS).fold(0, |acc, r| acc ^ std::hint::black_box(round(r)))
}

/// The factor from CPU seconds of a run whose calibrations took
/// `calibration` CPU seconds to the reference machine's: the square root of
/// [`REFERENCE_S`] over their median. A median over the run's calibrations
/// follows the drift, which is slow, and not the jitter of a single one.
pub fn scale(calibration: &[f64]) -> f64 {
    stats::median(calibration).map_or(f64::NAN, |m| (REFERENCE_S / m).sqrt())
}

/// Identifiers the kernel builds, hashes, counts and sorts per round.
const WORDS: usize = 6000;

/// One round of the kernel: the mix of work the workloads do (formatting
/// and hashing short strings, hash-map updates, sorting, word-wide bit
/// operations), on inputs that depend on nothing but `round`. Returns a
/// checksum so that the work cannot be optimised away.
pub fn round(round: u64) -> u64 {
    let mut x = round.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let words: Vec<String> = (0..WORDS)
        .map(|_| format!("sig_{:x}_{}", next() & 0xFFF, next() % 97))
        .collect();
    let mut counts: HashMap<&str, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for w in &words {
        *counts.entry(w.as_str()).or_default() += 1;
    }
    let mut hashes: Vec<u64> = words
        .iter()
        .map(|w| {
            w.bytes().fold(0xCBF2_9CE4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
            })
        })
        .collect();
    hashes.sort_unstable();
    let mut lanes = [0u64; 64];
    for (i, h) in hashes.iter().enumerate() {
        let lane = &mut lanes[i % 64];
        *lane = (*lane ^ h).rotate_left(7) & !(*lane >> 3);
    }
    lanes.iter().fold(counts.len() as u64, |acc, l| acc ^ l) ^ hashes[WORDS / 2]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_is_the_root_of_the_median_slowdown() {
        let at_reference = [REFERENCE_S * 0.5, REFERENCE_S, REFERENCE_S * 9.0];
        assert!((scale(&at_reference) - 1.0).abs() < 1e-12);
        let four_times_slower = [REFERENCE_S * 4.0; 3];
        assert!((scale(&four_times_slower) - 0.5).abs() < 1e-12);
        assert!(scale(&[]).is_nan());
    }

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        assert_eq!(run(), run());
    }
}
