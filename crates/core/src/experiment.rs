//! The end-to-end paper experiment: all three stages, the golden baseline
//! and the Figure-4 projections.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sidefp_obs::RunContext;
use sidefp_stats::Pca;

use crate::config::ExperimentConfig;
use crate::dataset::Dataset;
use crate::golden_baseline;
use crate::health::RunHealth;
use crate::report::{ExperimentResult, Fig4Panel};
use crate::stages::{trojan_test, PremanufacturingStage, SiliconStage, Testbench};
use crate::CoreError;

/// Maximum population points carried into a Figure-4 panel (larger
/// populations are subsampled for plotting).
const FIG4_MAX_POINTS: usize = 2000;

/// The complete DAC'14 experiment.
///
/// # Example
///
/// ```no_run
/// use sidefp_core::{ExperimentConfig, PaperExperiment};
///
/// # fn main() -> Result<(), sidefp_core::CoreError> {
/// let result = PaperExperiment::new(ExperimentConfig::default())?.run()?;
/// for row in &result.table1 {
///     println!("{row}");
/// }
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct PaperExperiment {
    config: ExperimentConfig,
}

/// Everything a run produces beyond the summary: stages are exposed so
/// the `sweep` bench can read the DUTT PCMs behind its SPC check.
#[derive(Debug)]
pub struct RunArtifacts {
    /// Stage-1 products (S1, S2, regressions, B1, B2).
    pub premanufacturing: PremanufacturingStage,
    /// Stage-2 products (DUTTs, S3–S5, B3–B5).
    pub silicon: SiliconStage,
    /// Summary result (Table 1 + Figure 4).
    pub result: ExperimentResult,
}

impl PaperExperiment {
    /// Validates and stores the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidConfig`] for invalid settings.
    pub fn new(config: ExperimentConfig) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(PaperExperiment { config })
    }

    /// The configuration.
    pub fn config(&self) -> &ExperimentConfig {
        &self.config
    }

    /// Runs the experiment and returns the summary result.
    ///
    /// # Errors
    ///
    /// Propagates any stage error.
    pub fn run(&self) -> Result<ExperimentResult, CoreError> {
        Ok(self.run_with_artifacts()?.result)
    }

    /// Runs the experiment, also returning the stage intermediates.
    ///
    /// The whole run executes inside the worker pool described by
    /// [`crate::ParallelismConfig`]: every stage's hot path (Monte Carlo,
    /// Gram matrices, KDE sampling/density, OCSVM scoring, MARS knot
    /// search) fans out across `parallelism.threads` workers, and with
    /// `parallelism.deterministic` (the default) the result is
    /// bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates any stage error.
    pub fn run_with_artifacts(&self) -> Result<RunArtifacts, CoreError> {
        self.run_in_context(&RunContext::new())
    }

    /// Runs the experiment, recording its stage timings, solver-health
    /// counters and trace events into `obs`.
    ///
    /// This is the observability entry point: every run owns its context,
    /// so two experiments running concurrently in one process each report
    /// exactly their own spans, rescues and quarantine decisions. The
    /// context is *not* reset on entry — reusing one context across runs
    /// accumulates; pass a fresh [`RunContext`] per run for per-run
    /// isolation (as [`PaperExperiment::run_with_artifacts`] does).
    ///
    /// # Errors
    ///
    /// Propagates any stage error.
    pub fn run_in_context(&self, obs: &RunContext) -> Result<RunArtifacts, CoreError> {
        self.in_worker_pool(|threads| self.run_stages(obs, threads))
    }

    /// Opens a streaming wafer-lot session under this configuration,
    /// recording setup spans, solver rescues and later per-lot decisions
    /// into `obs`: the pre-manufacturing stage runs once, then each
    /// [`advance`](crate::stages::recalibrate::LotStream::advance) call
    /// measures a lot, checks it for drift and recalibrates as needed.
    ///
    /// Like [`PaperExperiment::run_in_context`], the whole setup executes
    /// inside the configured worker pool; later `advance` calls use the
    /// worker count in effect at their own call site.
    ///
    /// # Errors
    ///
    /// Propagates drift-plan validation and pre-manufacturing errors.
    pub fn stream_observed(
        &self,
        drift: sidefp_faults::DriftPlan,
        obs: &RunContext,
    ) -> Result<crate::stages::recalibrate::LotStream, CoreError> {
        self.in_worker_pool(|_| {
            crate::stages::recalibrate::LotStream::new_observed(self.config.clone(), drift, obs)
        })
    }

    /// Runs `f` inside the worker pool [`crate::ParallelismConfig`]
    /// describes, handing it the resolved worker count.
    fn in_worker_pool<T>(&self, f: impl FnOnce(usize) -> T) -> T {
        let par = self.config.parallelism;
        // Clamp to the machine: oversubscribing the worker pool beyond the
        // available cores only adds scheduling overhead.
        let threads = par.effective_threads();
        sidefp_parallel::with_threads(threads, || {
            sidefp_parallel::with_determinism(par.deterministic, || f(threads))
        })
    }

    /// The stage pipeline itself; assumes the parallelism scope is set.
    fn run_stages(
        &self,
        obs: &RunContext,
        resolved_threads: usize,
    ) -> Result<RunArtifacts, CoreError> {
        let mut rng = StdRng::seed_from_u64(self.config.seed);
        let bench = Testbench::from_config(&self.config, &mut rng)?;
        let pre = PremanufacturingStage::run_observed(&self.config, &bench, &mut rng, obs)?;
        let silicon = SiliconStage::run_observed(&self.config, &bench, &pre, &mut rng, obs)?;

        let evaluate_span = obs.span("evaluate");
        let table1 = trojan_test::evaluate_boundaries(
            &[&pre.b1, &pre.b2, &silicon.b3, &silicon.b4, &silicon.b5],
            &silicon.dutts,
        )?;
        let (_, golden_row) = golden_baseline::run_observed(
            &silicon.dutts,
            &self.config.boundary,
            self.config.seed,
            obs,
        )?;
        drop(evaluate_span);

        let fig4 = self.build_fig4(&pre, &silicon, &mut rng)?;

        // The set of solver calls is a pure function of the config, so the
        // per-run snapshot is as deterministic as the rest of the result.
        let health = RunHealth {
            measurement: silicon.health.clone(),
            solvers: obs.solver_health(),
        };

        Ok(RunArtifacts {
            result: ExperimentResult {
                table1,
                golden_baseline: golden_row,
                fig4,
                health,
                resolved_threads,
            },
            premanufacturing: pre,
            silicon,
        })
    }

    /// Builds the six Figure-4 panels: per-dataset PCA, projecting both the
    /// dataset population and the 120 measured device fingerprints.
    fn build_fig4<R: Rng>(
        &self,
        pre: &PremanufacturingStage,
        silicon: &SiliconStage,
        rng: &mut R,
    ) -> Result<Vec<Fig4Panel>, CoreError> {
        let devices = silicon.dutts.fingerprints();
        let variants = silicon.dutts.variants().to_vec();
        let k = 3.min(devices.ncols());

        let mut panels = Vec::with_capacity(6);

        // Panel (a): PCA on the measured fingerprints themselves.
        let pca = Pca::fit(devices)?;
        let ratios = pca.explained_variance_ratio();
        panels.push(Fig4Panel {
            label: "a",
            dataset: "measured",
            population: None,
            devices: pca.project(devices, k)?,
            variants: variants.clone(),
            explained: [ratios[0], ratios[1], *ratios.get(2).unwrap_or(&0.0)],
        });

        // Panels (b)–(f): PCA fitted on each dataset S1–S5.
        let datasets: [(&'static str, &Dataset); 5] = [
            ("b", &pre.s1),
            ("c", &pre.s2),
            ("d", &silicon.s3),
            ("e", &silicon.s4),
            ("f", &silicon.s5),
        ];
        for (label, dataset) in datasets {
            let population = dataset.fingerprints();
            let pca = Pca::fit(population)?;
            let sampled = if population.nrows() > FIG4_MAX_POINTS {
                let indices: Vec<usize> = (0..FIG4_MAX_POINTS)
                    .map(|_| rng.random_range(0..population.nrows()))
                    .collect();
                population.select_rows(&indices)
            } else {
                population.clone()
            };
            let ratios = pca.explained_variance_ratio();
            panels.push(Fig4Panel {
                label,
                dataset: dataset.name(),
                population: Some(pca.project(&sampled, k)?),
                devices: pca.project(devices, k)?,
                variants: variants.clone(),
                explained: [ratios[0], ratios[1], *ratios.get(2).unwrap_or(&0.0)],
            });
        }
        Ok(panels)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> ExperimentConfig {
        ExperimentConfig {
            chips: 10,
            mc_samples: 40,
            kde_samples: 1200,
            ..Default::default()
        }
    }

    #[test]
    fn full_run_produces_complete_result() {
        let result = PaperExperiment::new(tiny_config()).unwrap().run().unwrap();
        assert_eq!(result.table1.len(), 5);
        let names: Vec<&str> = result.table1.iter().map(|r| r.dataset).collect();
        assert_eq!(names, ["B1", "B2", "B3", "B4", "B5"]);
        assert_eq!(result.golden_baseline.dataset, "golden");
        assert_eq!(result.fig4.len(), 6);
        assert!(result.fig4[0].population.is_none());
        assert!(result.fig4[5].population.is_some());
        assert_eq!(result.fig4[5].devices.ncols(), 3);
        let rendered = result.render_table1();
        assert!(rendered.contains("B5"));
    }

    #[test]
    fn runs_are_deterministic_given_seed() {
        let a = PaperExperiment::new(tiny_config()).unwrap().run().unwrap();
        let b = PaperExperiment::new(tiny_config()).unwrap().run().unwrap();
        assert_eq!(a.table1, b.table1);
        assert_eq!(a.golden_baseline, b.golden_baseline);
    }

    #[test]
    fn invalid_config_rejected_up_front() {
        let mut cfg = tiny_config();
        cfg.chips = 0;
        assert!(PaperExperiment::new(cfg).is_err());
    }

    #[test]
    fn artifacts_expose_stages() {
        let artifacts = PaperExperiment::new(tiny_config())
            .unwrap()
            .run_with_artifacts()
            .unwrap();
        assert_eq!(artifacts.premanufacturing.s1.len(), 40);
        assert_eq!(artifacts.silicon.dutts.len(), 30);
        assert_eq!(artifacts.result.table1.len(), 5);
    }
}
