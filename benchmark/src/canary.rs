//! The noise canary: a fixed, allocation-free reference kernel run between
//! blocks. Its time says how loud the machine was; it is reported and never
//! used to rescale a metric.

use std::time::Instant;

/// Iterations of the dependent xor-shift-multiply chain (not an affine map,
/// so the compiler cannot fold iterations together): about 2 ms on this
/// sandbox.
const ITERATIONS: u64 = 1_000_000;

/// Below this best/median ratio the run prints a warning.
pub const LOUD_BELOW: f64 = 0.85;

/// Runs the kernel once and returns its seconds.
pub fn run() -> f64 {
    let start = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..ITERATIONS {
        x = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
    std::hint::black_box(x);
    start.elapsed().as_secs_f64()
}

/// Best sample over the median sample: 1 on a quiet machine, lower the more
/// of the run a neighbour was taking cycles.
pub fn quiet_ratio(samples: &[f64]) -> f64 {
    let median = crate::stats::median(samples);
    if median == 0.0 {
        return 1.0;
    }
    samples.iter().copied().fold(f64::INFINITY, f64::min) / median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_ratio_reads_one_when_nothing_varies() {
        assert_eq!(quiet_ratio(&[2.0, 2.0, 2.0]), 1.0);
        assert_eq!(quiet_ratio(&[1.0, 2.0, 3.0]), 0.5);
        assert_eq!(quiet_ratio(&[]), 1.0);
    }

    #[test]
    fn kernel_takes_measurable_time() {
        assert!(run() > 0.0);
    }
}
