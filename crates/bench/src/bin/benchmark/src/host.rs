//! Host-speed reference for the end-to-end times.
//!
//! On a shared host the same code runs at visibly different speeds minute
//! to minute: on the 2-core host this benchmark was calibrated on, a fixed
//! single-threaded loop alternated between two speeds about 1.6× apart for
//! seconds at a time, and the median `paper-fit` latency of ten 25 s runs
//! spread 29%.
//! Timing a fixed reference loop right after every operation and rescaling
//! the operation's wall time by the loop's slowdown brought that spread to
//! 6%. The loop is this benchmark's own code, so no change to the program
//! can make it faster or slower.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the reference loop.
const ITERATIONS: u64 = 200_000;

/// Reference-loop duration the end-to-end times are rescaled to: what the
/// loop takes on the calibration host when it is quiet, so rescaled times
/// read as quiet-host wall-clock there.
pub const NOMINAL_MS: f64 = 0.75;

/// Times one pass of the reference loop, in ms.
pub fn reference_ms() -> f64 {
    let start = Instant::now();
    let mut acc = 0.0f64;
    for i in 0..black_box(ITERATIONS) {
        acc += (i as f64 * 1e-9).sin();
    }
    black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}

/// `wall` rescaled to the nominal host speed, given the reference loop's
/// duration measured next to it.
pub fn rescale(wall: f64, reference_ms: f64) -> f64 {
    wall * NOMINAL_MS / reference_ms.max(1e-9)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rescale_is_proportional_to_the_slowdown() {
        assert_eq!(rescale(100.0, NOMINAL_MS), 100.0);
        assert_eq!(rescale(150.0, 1.5 * NOMINAL_MS), 100.0);
        assert!(rescale(1.0, 0.0).is_finite());
        assert!(reference_ms() > 0.0);
    }
}
