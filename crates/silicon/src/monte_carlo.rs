//! The "SPICE" Monte Carlo engine.
//!
//! In the paper the pre-manufacturing stage runs post-layout Monte Carlo
//! circuit simulation of `n` golden devices (§2.1). Here, the trusted model
//! is the **unshifted** foundry: the engine fabricates virtual dies from the
//! zero-shift distribution and evaluates arbitrary measurement closures on
//! them — PCM suites, side-channel fingerprints, or both.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_linalg::Matrix;

use crate::foundry::{Die, Foundry};
use crate::SiliconError;

/// Measurement rows one die produced, one `Vec<f64>` per measurement
/// group (e.g. PCMs and fingerprints in a paired run).
type DieMeasurements = Vec<Vec<f64>>;

/// Monte Carlo sampler over a foundry's process distribution.
///
/// # Example
///
/// ```
/// use rand::SeedableRng;
/// use sidefp_silicon::{Foundry, MonteCarloEngine, PcmSuite};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let engine = MonteCarloEngine::new(Foundry::nominal(), 50)?;
/// let suite = PcmSuite::paper_default();
/// let mut rng = rand::rngs::StdRng::seed_from_u64(7);
/// let (dies, pcms) = engine.run(&mut rng, |die, rng| {
///     suite.measure(die.process(), rng)
/// })?;
/// assert_eq!(dies.len(), 50);
/// assert_eq!(pcms.shape(), (50, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MonteCarloEngine {
    foundry: Foundry,
    samples: usize,
}

impl MonteCarloEngine {
    /// Creates an engine drawing `samples` virtual dies from `foundry`.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] for `samples == 0`.
    pub fn new(foundry: Foundry, samples: usize) -> Result<Self, SiliconError> {
        if samples == 0 {
            return Err(SiliconError::InvalidParameter {
                name: "samples",
                reason: "must be at least 1".into(),
            });
        }
        Ok(MonteCarloEngine { foundry, samples })
    }

    /// Number of Monte Carlo samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// The foundry model sampled from.
    pub fn foundry(&self) -> &Foundry {
        &self.foundry
    }

    /// Fabricates the virtual dies and evaluates `measure` on each,
    /// collecting the results into a row-per-die matrix.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] if the closure returns
    /// rows of inconsistent width.
    pub fn run<R, F>(&self, rng: &mut R, mut measure: F) -> Result<(Vec<Die>, Matrix), SiliconError>
    where
        R: Rng,
        F: FnMut(&Die, &mut R) -> Vec<f64>,
    {
        let mut dies = Vec::with_capacity(self.samples);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let die = self.foundry.fabricate_die(rng);
            let row = measure(&die, rng);
            if let Some(first) = rows.first() {
                if row.len() != first.len() {
                    return Err(SiliconError::InvalidParameter {
                        name: "measure",
                        reason: format!(
                            "measurement width changed from {} to {}",
                            first.len(),
                            row.len()
                        ),
                    });
                }
            }
            rows.push(row);
            dies.push(die);
        }
        let cols = rows.first().map_or(0, |r| r.len());
        if cols == 0 {
            return Err(SiliconError::InvalidParameter {
                name: "measure",
                reason: "measurement closure returned empty rows".into(),
            });
        }
        let mut matrix = Matrix::zeros(self.samples, cols);
        for (i, row) in rows.iter().enumerate() {
            matrix.row_mut(i).copy_from_slice(row);
        }
        Ok((dies, matrix))
    }

    /// Parallel variant of [`MonteCarloEngine::run`]: die `i` is fabricated
    /// and measured with its own RNG stream forked from `seed`, so the
    /// result is a pure function of the seed — bit-identical at any thread
    /// count — while dies are processed concurrently.
    ///
    /// The closure is immutable (`Fn`) because workers share it; state that
    /// `run`'s `FnMut` closures would mutate belongs in the measurement
    /// row instead.
    ///
    /// # Errors
    ///
    /// Returns [`SiliconError::InvalidParameter`] if the closure returns
    /// empty rows or rows of inconsistent width.
    pub fn run_streamed<F>(&self, seed: u64, measure: F) -> Result<(Vec<Die>, Matrix), SiliconError>
    where
        F: Fn(&Die, &mut StdRng) -> Vec<f64> + Sync,
    {
        let (dies, rows) = self.fabricate_streamed(seed, |die, rng| vec![measure(die, rng)])?;
        let matrix = Self::rows_to_matrix(&rows, 0, "measure")?;
        Ok((dies, matrix))
    }

    /// [`MonteCarloEngine::run_streamed`] with two measurements per die:
    /// both closures observe the same virtual die and draw from the same
    /// per-die RNG stream, `measure_a` first.
    ///
    /// # Errors
    ///
    /// Same as [`MonteCarloEngine::run_streamed`].
    pub fn run_paired_streamed<F, G>(
        &self,
        seed: u64,
        measure_a: F,
        measure_b: G,
    ) -> Result<(Vec<Die>, Matrix, Matrix), SiliconError>
    where
        F: Fn(&Die, &mut StdRng) -> Vec<f64> + Sync,
        G: Fn(&Die, &mut StdRng) -> Vec<f64> + Sync,
    {
        let (dies, rows) = self.fabricate_streamed(seed, |die, rng| {
            vec![measure_a(die, rng), measure_b(die, rng)]
        })?;
        let a = Self::rows_to_matrix(&rows, 0, "measure_a")?;
        let b = Self::rows_to_matrix(&rows, 1, "measure_b")?;
        Ok((dies, a, b))
    }

    /// Shared fan-out: fabricates die `i` from stream `i` and applies
    /// `measure`, which may return several measurement rows per die.
    fn fabricate_streamed<F>(
        &self,
        seed: u64,
        measure: F,
    ) -> Result<(Vec<Die>, Vec<DieMeasurements>), SiliconError>
    where
        F: Fn(&Die, &mut StdRng) -> Vec<Vec<f64>> + Sync,
    {
        let results = sidefp_parallel::map_indexed(self.samples, |i| {
            let mut rng = StdRng::seed_from_u64(sidefp_parallel::fork_seed(seed, i as u64));
            let die = self.foundry.fabricate_die(&mut rng);
            let rows = measure(&die, &mut rng);
            (die, rows)
        });
        let mut dies = Vec::with_capacity(self.samples);
        let mut rows = Vec::with_capacity(self.samples);
        for (die, r) in results {
            dies.push(die);
            rows.push(r);
        }
        Ok((dies, rows))
    }

    /// Assembles measurement group `slot` of every die into a matrix,
    /// validating width consistency.
    fn rows_to_matrix(
        rows: &[DieMeasurements],
        slot: usize,
        name: &'static str,
    ) -> Result<Matrix, SiliconError> {
        let cols = rows.first().map_or(0, |r| r[slot].len());
        if cols == 0 {
            return Err(SiliconError::InvalidParameter {
                name,
                reason: "measurement closure returned empty rows".into(),
            });
        }
        if let Some(bad) = rows.iter().find(|r| r[slot].len() != cols) {
            return Err(SiliconError::InvalidParameter {
                name,
                reason: format!(
                    "measurement width changed from {} to {}",
                    cols,
                    bad[slot].len()
                ),
            });
        }
        let mut matrix = Matrix::zeros(rows.len(), cols);
        for (i, r) in rows.iter().enumerate() {
            matrix.row_mut(i).copy_from_slice(&r[slot]);
        }
        Ok(matrix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ProcessParameter;
    use crate::pcm::PcmSuite;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use sidefp_stats::descriptive;

    #[test]
    fn run_produces_requested_sample_count() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 30).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let (dies, m) = engine
            .run(&mut rng, |die, _| {
                vec![die.process().get(ProcessParameter::VthN)]
            })
            .unwrap();
        assert_eq!(dies.len(), 30);
        assert_eq!(m.shape(), (30, 1));
        assert_eq!(engine.samples(), 30);
    }

    #[test]
    fn samples_reflect_process_statistics() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 3000).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let (_, m) = engine
            .run(&mut rng, |die, _| {
                vec![die.process().get(ProcessParameter::VthN)]
            })
            .unwrap();
        let col = m.col(0);
        let mean = descriptive::mean(&col).unwrap();
        let sd = descriptive::std_dev(&col).unwrap();
        assert!((mean - 0.50).abs() < 0.005, "mean {mean}");
        let expected_sd = (ProcessParameter::VthN.systematic_sigma().powi(2)
            + ProcessParameter::VthN.local_sigma().powi(2))
        .sqrt();
        assert!(
            (sd - expected_sd).abs() < 0.2 * expected_sd,
            "sd {sd} vs expected {expected_sd}"
        );
    }

    #[test]
    fn zero_samples_rejected() {
        assert!(MonteCarloEngine::new(Foundry::nominal(), 0).is_err());
    }

    #[test]
    fn inconsistent_rows_rejected() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let mut count = 0;
        let result = engine.run(&mut rng, |_, _| {
            count += 1;
            vec![0.0; count]
        });
        assert!(result.is_err());
    }

    #[test]
    fn empty_rows_rejected() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 3).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        assert!(engine.run(&mut rng, |_, _| vec![]).is_err());
    }

    #[test]
    fn accessors() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 5).unwrap();
        assert_eq!(engine.foundry(), &Foundry::nominal());
    }

    #[test]
    fn streamed_run_is_identical_at_any_thread_count() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 64).unwrap();
        let suite = PcmSuite::paper_default();
        let measure = |die: &Die, rng: &mut StdRng| suite.measure(die.process(), rng);
        let (ref_dies, ref_m) =
            sidefp_parallel::with_threads(1, || engine.run_streamed(7, measure).unwrap());
        for threads in [2, 8] {
            let (dies, m) =
                sidefp_parallel::with_threads(threads, || engine.run_streamed(7, measure).unwrap());
            assert_eq!(m.as_slice(), ref_m.as_slice(), "threads={threads}");
            for (a, b) in dies.iter().zip(&ref_dies) {
                assert_eq!(a.process(), b.process(), "threads={threads}");
            }
        }
    }

    #[test]
    fn streamed_samples_reflect_process_statistics() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 3000).unwrap();
        let (_, m) = engine
            .run_streamed(2, |die, _| vec![die.process().get(ProcessParameter::VthN)])
            .unwrap();
        let col = m.col(0);
        let mean = descriptive::mean(&col).unwrap();
        let sd = descriptive::std_dev(&col).unwrap();
        assert!((mean - 0.50).abs() < 0.005, "mean {mean}");
        let expected_sd = (ProcessParameter::VthN.systematic_sigma().powi(2)
            + ProcessParameter::VthN.local_sigma().powi(2))
        .sqrt();
        assert!(
            (sd - expected_sd).abs() < 0.2 * expected_sd,
            "sd {sd} vs expected {expected_sd}"
        );
    }

    #[test]
    fn streamed_paired_observes_same_die() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 100).unwrap();
        let suite = PcmSuite::new(vec![crate::pcm::PcmKind::PathDelay], 0.0).unwrap();
        let (dies, a, b) = engine
            .run_paired_streamed(
                3,
                |die, rng| suite.measure(die.process(), rng),
                |die, rng| suite.measure(die.process(), rng),
            )
            .unwrap();
        assert_eq!(dies.len(), 100);
        for i in 0..100 {
            assert_eq!(a[(i, 0)], b[(i, 0)], "row {i} differs between closures");
        }
        for (i, die) in dies.iter().enumerate() {
            let direct = suite.measure_ideal(die.process())[0];
            assert!((a[(i, 0)] - direct).abs() < 1e-12);
        }
    }

    #[test]
    fn streamed_rejects_empty_and_inconsistent_rows() {
        let engine = MonteCarloEngine::new(Foundry::nominal(), 3).unwrap();
        assert!(engine.run_streamed(4, |_, _| vec![]).is_err());
        // Width keyed off the die makes rows inconsistent deterministically.
        let result = engine.run_streamed(5, |die, _| {
            let w = if die.process().get(ProcessParameter::VthN) > 0.5 {
                1
            } else {
                2
            };
            vec![0.0; w]
        });
        assert!(result.is_err());
    }
}
