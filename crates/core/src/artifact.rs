//! Fit-once / score-millions artifact: a versioned, serializable snapshot
//! of everything the scoring half of the pipeline needs.
//!
//! The 13-stage pipeline naturally splits around the fitted state: the
//! **fit** phase (Monte Carlo simulation, regression bank, KMM calibration,
//! KDE enhancement, five boundary SVM solves) runs once per process
//! operating point, while the **score** phase (sanitize → standardize →
//! SVM decision values) must run for every manufactured device. A
//! [`FittedModel`] captures the fit products — the B1–B5 boundaries with
//! their standardizers and collapsed decision models, the PCM→fingerprint
//! regression bank, the KMM importance weights, the silicon-anchored KDE
//! and the sanitizer thresholds — so production testers can load the
//! artifact and score wafer lots without ever re-running a fit stage
//! (see [`crate::score::BatchScorer`]).
//!
//! # Binary format (version 2)
//!
//! All integers are little-endian; floats are IEEE-754 bit patterns.
//!
//! ```text
//! magic   4 bytes  "SFPA"
//! version u32      2
//! len     u64      payload byte count
//! payload len bytes
//! check   u64      FNV-1a 64 of payload
//! ```
//!
//! The payload is a fixed field sequence (seed, dimensions, regression
//! space, sanitizer config and pinned thresholds, regressor bank,
//! boundaries, KMM weights,
//! KDE state, PCM medians); see the `encode_payload` / `decode_payload`
//! pair for the exact layout. Every load path re-validates the decoded
//! state through the same constructors the fit path uses
//! ([`sidefp_stats::OneClassSvm::from_state`] and friends), so a tampered
//! but checksum-consistent artifact still fails with a typed error
//! instead of producing silently wrong verdicts.
//!
//! **Versioning policy**: the version number is bumped on any payload
//! layout change; old readers reject newer artifacts with
//! [`ArtifactError::UnsupportedVersion`] rather than misparse them. An
//! artifact is invalidated by anything that changes the fitted state —
//! a different seed, config, code change to a fit stage — and carries its
//! seed and dimensions as provenance so mismatches are detectable.

use std::error::Error;
use std::fmt;
use std::path::Path;

use sidefp_linalg::Matrix;
use sidefp_stats::descriptive;
use sidefp_stats::kde::AdaptiveKde;
use sidefp_stats::{
    KdeState, Kernel, OneClassSvm, RegressorState, ScalerState, StandardScaler, SvmState,
};

use crate::boundary::TrustedBoundary;
use crate::config::{ExperimentConfig, RegressionSpace};
use crate::experiment::RunArtifacts;
use crate::predictor::FingerprintPredictor;
use crate::stages::sanitize::{SanitizerConfig, SanitizerThresholds};
use crate::CoreError;

/// File magic of a fitted-model artifact.
pub const ARTIFACT_MAGIC: [u8; 4] = *b"SFPA";

/// Current artifact format version. Version 2 added the pinned
/// [`SanitizerThresholds`] so batch scoring repairs against the fit-time
/// reference population instead of re-deriving per-batch medians.
pub const ARTIFACT_VERSION: u32 = 2;

/// Byte count of the fixed header (magic + version + payload length).
const HEADER_LEN: usize = 4 + 4 + 8;

/// Tag byte written before an SVM's support-vector expansion. It is the
/// only decision form; any other tag is rejected as invalid.
const SVM_EXPANSION_TAG: u8 = 0;

/// The five trusted-boundary names, in artifact order.
const BOUNDARY_NAMES: [&str; 5] = ["B1", "B2", "B3", "B4", "B5"];

/// Typed decode/IO failures of the artifact codec.
///
/// Every way a load can fail maps to exactly one variant — corrupted
/// bytes never panic, allocate unboundedly, or silently round-trip.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ArtifactError {
    /// The first four bytes are not [`ARTIFACT_MAGIC`].
    BadMagic,
    /// The artifact was written by an unknown (newer or retired) format
    /// version.
    UnsupportedVersion {
        /// Version found in the header.
        found: u32,
        /// The single version this reader supports.
        supported: u32,
    },
    /// The byte stream ends before the declared content does.
    Truncated {
        /// Bytes the decoder needed.
        needed: usize,
        /// Bytes actually available.
        got: usize,
    },
    /// The payload checksum does not match the footer.
    Corrupted {
        /// Checksum stored in the artifact.
        stored: u64,
        /// Checksum computed over the payload.
        computed: u64,
    },
    /// The bytes parse but describe an invalid model (failed the same
    /// validation the fit path enforces), or carry trailing garbage.
    Invalid {
        /// What was wrong.
        what: String,
    },
    /// Filesystem failure while reading or writing an artifact file.
    Io {
        /// Path involved.
        path: String,
        /// Stringified OS error.
        reason: String,
    },
}

impl fmt::Display for ArtifactError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArtifactError::BadMagic => f.write_str("not a fitted-model artifact (bad magic)"),
            ArtifactError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported artifact version {found} (this build reads version {supported})"
            ),
            ArtifactError::Truncated { needed, got } => {
                write!(f, "truncated artifact: needed {needed} bytes, got {got}")
            }
            ArtifactError::Corrupted { stored, computed } => write!(
                f,
                "corrupted artifact: stored checksum {stored:#018x} vs computed {computed:#018x}"
            ),
            ArtifactError::Invalid { what } => write!(f, "invalid artifact: {what}"),
            ArtifactError::Io { path, reason } => write!(f, "artifact io `{path}`: {reason}"),
        }
    }
}

impl Error for ArtifactError {}

/// The fit phase's complete output: everything scoring needs, nothing the
/// fit stages keep for themselves (raw datasets, Monte Carlo samples,
/// report tables stay behind).
///
/// Construct one with [`FittedModel::fit`] (runs the fit pipeline) or
/// [`FittedModel::from_artifacts`] (adopts an existing run's products),
/// persist with [`FittedModel::save`] / [`FittedModel::to_bytes`], and
/// reload with [`FittedModel::load`] / [`FittedModel::from_bytes`].
/// Loaded models score bit-identically to the fitting process — the
/// decision state round-trips at the bit level.
#[derive(Debug)]
pub struct FittedModel {
    seed: u64,
    fingerprint_dim: usize,
    pcm_dim: usize,
    space: RegressionSpace,
    sanitizer: SanitizerConfig,
    sanitizer_thresholds: SanitizerThresholds,
    predictor: FingerprintPredictor,
    boundaries: Vec<TrustedBoundary>,
    kmm_weights: Vec<f64>,
    kde: AdaptiveKde,
    pcm_medians: Vec<f64>,
}

impl FittedModel {
    /// Runs the fit phase of the pipeline (pre-manufacturing + silicon
    /// stages) and captures its products.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation and fit-stage errors.
    pub fn fit(config: &ExperimentConfig) -> Result<Self, CoreError> {
        Self::fit_observed(config, &sidefp_obs::RunContext::new())
    }

    /// [`FittedModel::fit`] recording stage timings, solver rescues and
    /// quarantine events into `obs`.
    ///
    /// # Errors
    ///
    /// Same as [`FittedModel::fit`].
    pub fn fit_observed(
        config: &ExperimentConfig,
        obs: &sidefp_obs::RunContext,
    ) -> Result<Self, CoreError> {
        let arts = crate::PaperExperiment::new(config.clone())?.run_in_context(obs)?;
        Self::from_artifacts(config, &arts)
    }

    /// Captures the fitted state out of an already-completed run.
    ///
    /// The artifact keeps the silicon stage's S4 KDE (the one S5 was
    /// sampled from), so it can synthesize scoring batches without
    /// carrying the 10⁵-row S5 matrix.
    ///
    /// # Errors
    ///
    /// Propagates state-export and sanitizer-threshold errors.
    pub fn from_artifacts(
        config: &ExperimentConfig,
        arts: &RunArtifacts,
    ) -> Result<Self, CoreError> {
        let boundaries = vec![
            arts.premanufacturing.b1.clone(),
            arts.premanufacturing.b2.clone(),
            arts.silicon.b3.clone(),
            arts.silicon.b4.clone(),
            arts.silicon.b5.clone(),
        ];
        // Rebuild the regression bank through its state round-trip (the
        // bank is not `Clone`; the round-trip is bit-identical).
        let predictor = FingerprintPredictor::from_states(
            arts.premanufacturing.predictor.export_states()?,
            arts.premanufacturing.predictor.input_dim(),
            arts.premanufacturing.predictor.space(),
        )?;
        let pcms = arts.silicon.dutts.pcms();
        let pcm_medians = (0..pcms.ncols())
            .map(|j| descriptive::median(&pcms.col(j)).map_err(CoreError::from))
            .collect::<Result<Vec<f64>, CoreError>>()?;
        // Pin the sanitizer's repair/winsorization statistics to the
        // silicon reference population, so production scoring never
        // re-derives them from (possibly corrupted) batches.
        let sanitizer_thresholds = SanitizerThresholds::derive(
            arts.silicon.dutts.fingerprints(),
            pcms,
            &config.sanitizer,
        )?;
        Ok(FittedModel {
            seed: config.seed,
            fingerprint_dim: arts.silicon.dutts.fingerprints().ncols(),
            pcm_dim: pcms.ncols(),
            space: config.regression_space,
            sanitizer: config.sanitizer,
            sanitizer_thresholds,
            predictor,
            boundaries,
            kmm_weights: arts.silicon.kmm_weights.clone(),
            kde: arts.silicon.kde.clone(),
            pcm_medians,
        })
    }

    /// Seed of the fitting run (provenance).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Fingerprint dimension `n_m` the boundaries score.
    pub fn fingerprint_dim(&self) -> usize {
        self.fingerprint_dim
    }

    /// PCM dimension `n_p` the regression bank reads.
    pub fn pcm_dim(&self) -> usize {
        self.pcm_dim
    }

    /// The trusted boundaries, in B1…B5 order.
    pub fn boundaries(&self) -> &[TrustedBoundary] {
        &self.boundaries
    }

    /// Looks up a boundary by name ("B1" … "B5").
    pub fn boundary(&self, name: &str) -> Option<&TrustedBoundary> {
        self.boundaries.iter().find(|b| b.name() == name)
    }

    /// The PCM→fingerprint regression bank.
    pub fn predictor(&self) -> &FingerprintPredictor {
        &self.predictor
    }

    /// KMM importance weights on the simulated PCM population.
    pub fn kmm_weights(&self) -> &[f64] {
        &self.kmm_weights
    }

    /// The silicon-anchored adaptive KDE (fit on S4).
    pub fn kde(&self) -> &AdaptiveKde {
        &self.kde
    }

    /// Sanitizer configuration the scoring phase must apply.
    pub fn sanitizer(&self) -> SanitizerConfig {
        self.sanitizer
    }

    /// Pinned sanitizer statistics (repair targets, winsorization bounds)
    /// derived from the fitting run's silicon reference population.
    pub fn sanitizer_thresholds(&self) -> &SanitizerThresholds {
        &self.sanitizer_thresholds
    }

    /// Synthesizes a deterministic scoring batch of `n` devices:
    /// fingerprints sampled from the silicon-anchored KDE (per-row
    /// parallel RNG streams, reproducible at any thread count) and
    /// strictly positive PCMs built from the fitting run's medians with a
    /// per-row deterministic perturbation, so no two rows are bit-exact
    /// duplicates and the sanitizer's quarantine stays quiet on healthy
    /// synthetic data.
    pub fn synthesize_batch(&self, seed: u64, n: usize) -> (Matrix, Matrix) {
        let fingerprints = self.kde.sample_matrix_streamed(seed, n);
        let pcms = Matrix::from_fn(n, self.pcm_dim, |i, j| {
            self.pcm_medians[j] * (1.0 + i as f64 * 1e-9)
        });
        (fingerprints, pcms)
    }

    // ---- codec ------------------------------------------------------------

    /// Serializes the model into the versioned binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut payload = Writer::default();
        self.encode_payload(&mut payload);
        let payload = payload.buf;
        let mut out = Vec::with_capacity(HEADER_LEN + payload.len() + 8);
        out.extend_from_slice(&ARTIFACT_MAGIC);
        out.extend_from_slice(&ARTIFACT_VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        let check = fnv1a64(&payload);
        out.extend_from_slice(&payload);
        out.extend_from_slice(&check.to_le_bytes());
        out
    }

    /// Deserializes and fully re-validates a model.
    ///
    /// # Errors
    ///
    /// Every failure is a typed [`ArtifactError`]: wrong magic, unknown
    /// version, truncation, checksum mismatch, or a payload that decodes
    /// to an invalid model.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ArtifactError> {
        if bytes.len() < 4 {
            return Err(ArtifactError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        }
        if bytes[..4] != ARTIFACT_MAGIC {
            return Err(ArtifactError::BadMagic);
        }
        if bytes.len() < HEADER_LEN {
            return Err(ArtifactError::Truncated {
                needed: HEADER_LEN,
                got: bytes.len(),
            });
        }
        let version = u32::from_le_bytes([bytes[4], bytes[5], bytes[6], bytes[7]]);
        if version != ARTIFACT_VERSION {
            return Err(ArtifactError::UnsupportedVersion {
                found: version,
                supported: ARTIFACT_VERSION,
            });
        }
        let declared = u64::from_le_bytes(
            bytes[8..16]
                .try_into()
                .expect("slice of fixed length 8 always converts"),
        );
        let payload_len = usize::try_from(declared).map_err(|_| ArtifactError::Truncated {
            needed: usize::MAX,
            got: bytes.len(),
        })?;
        let total = HEADER_LEN
            .checked_add(payload_len)
            .and_then(|v| v.checked_add(8))
            .ok_or(ArtifactError::Truncated {
                needed: usize::MAX,
                got: bytes.len(),
            })?;
        if bytes.len() < total {
            return Err(ArtifactError::Truncated {
                needed: total,
                got: bytes.len(),
            });
        }
        if bytes.len() > total {
            return Err(ArtifactError::Invalid {
                what: format!("{} trailing bytes after checksum", bytes.len() - total),
            });
        }
        let payload = &bytes[HEADER_LEN..HEADER_LEN + payload_len];
        let stored = u64::from_le_bytes(
            bytes[HEADER_LEN + payload_len..]
                .try_into()
                .expect("slice of fixed length 8 always converts"),
        );
        let computed = fnv1a64(payload);
        if stored != computed {
            return Err(ArtifactError::Corrupted { stored, computed });
        }
        let mut r = Reader {
            buf: payload,
            pos: 0,
        };
        let model = Self::decode_payload(&mut r)?;
        if r.pos != payload.len() {
            return Err(ArtifactError::Invalid {
                what: format!("{} undecoded payload bytes", payload.len() - r.pos),
            });
        }
        Ok(model)
    }

    /// Writes the artifact to a file.
    ///
    /// # Errors
    ///
    /// Returns [`ArtifactError::Io`] on filesystem failure.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ArtifactError> {
        let path = path.as_ref();
        std::fs::write(path, self.to_bytes()).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })
    }

    /// Reads and validates an artifact file.
    ///
    /// # Errors
    ///
    /// [`ArtifactError::Io`] on filesystem failure, plus every
    /// [`FittedModel::from_bytes`] failure.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ArtifactError> {
        let path = path.as_ref();
        let bytes = std::fs::read(path).map_err(|e| ArtifactError::Io {
            path: path.display().to_string(),
            reason: e.to_string(),
        })?;
        Self::from_bytes(&bytes)
    }

    fn encode_payload(&self, w: &mut Writer) {
        w.u64(self.seed);
        w.usize(self.fingerprint_dim);
        w.usize(self.pcm_dim);
        w.u8(match self.space {
            RegressionSpace::Linear => 0,
            RegressionSpace::Log => 1,
        });
        w.f64(self.sanitizer.mad_k);
        w.f64(self.sanitizer.max_bad_fraction);
        w.usize(self.sanitizer.min_devices);
        w.f64s(&self.sanitizer_thresholds.fp_repair);
        w.f64s(&self.sanitizer_thresholds.pcm_repair);
        w.f64s(&self.sanitizer_thresholds.winsor_lo);
        w.f64s(&self.sanitizer_thresholds.winsor_hi);
        let states = self
            .predictor
            .export_states()
            .expect("artifact models hold only persistable regressors");
        w.usize(states.len());
        for s in &states {
            encode_regressor(w, s);
        }
        w.usize(self.boundaries.len());
        for (idx, b) in self.boundaries.iter().enumerate() {
            w.u8(idx as u8);
            encode_scaler(
                w,
                &ScalerState {
                    means: b.scaler().means().to_vec(),
                    stds: b.scaler().stds().to_vec(),
                },
            );
            encode_svm(w, &b.svm().export_state());
        }
        w.f64s(&self.kmm_weights);
        encode_kde(w, &self.kde.export_state());
        w.f64s(&self.pcm_medians);
    }

    fn decode_payload(r: &mut Reader<'_>) -> Result<Self, ArtifactError> {
        let seed = r.u64()?;
        let fingerprint_dim = r.usize()?;
        let pcm_dim = r.usize()?;
        let space = match r.u8()? {
            0 => RegressionSpace::Linear,
            1 => RegressionSpace::Log,
            t => {
                return Err(ArtifactError::Invalid {
                    what: format!("unknown regression-space tag {t}"),
                })
            }
        };
        let sanitizer = SanitizerConfig {
            mad_k: r.f64()?,
            max_bad_fraction: r.f64()?,
            min_devices: r.usize()?,
        };
        sanitizer.validate().map_err(invalid)?;
        let sanitizer_thresholds = SanitizerThresholds {
            fp_repair: r.f64s()?,
            pcm_repair: r.f64s()?,
            winsor_lo: r.f64s()?,
            winsor_hi: r.f64s()?,
        };
        sanitizer_thresholds
            .validate(fingerprint_dim, pcm_dim)
            .map_err(invalid)?;
        let n_models = r.usize()?;
        let states = (0..n_models)
            .map(|_| decode_regressor(r))
            .collect::<Result<Vec<RegressorState>, ArtifactError>>()?;
        let predictor =
            FingerprintPredictor::from_states(states, pcm_dim, space).map_err(invalid)?;
        if predictor.output_dim() != fingerprint_dim {
            return Err(ArtifactError::Invalid {
                what: format!(
                    "regressor bank has {} outputs for fingerprint dimension {fingerprint_dim}",
                    predictor.output_dim()
                ),
            });
        }
        let n_boundaries = r.usize()?;
        if n_boundaries != BOUNDARY_NAMES.len() {
            return Err(ArtifactError::Invalid {
                what: format!(
                    "expected {} boundaries, found {n_boundaries}",
                    BOUNDARY_NAMES.len()
                ),
            });
        }
        let mut boundaries = Vec::with_capacity(n_boundaries);
        for expect_idx in 0..n_boundaries {
            let idx = r.u8()? as usize;
            if idx != expect_idx {
                return Err(ArtifactError::Invalid {
                    what: format!("boundary {expect_idx} carries name index {idx}"),
                });
            }
            let scaler_state = decode_scaler(r)?;
            let scaler = StandardScaler::from_parts(scaler_state.means, scaler_state.stds)
                .map_err(invalid)?;
            let svm = OneClassSvm::from_state(decode_svm(r)?).map_err(invalid)?;
            if svm.input_dim() != fingerprint_dim {
                return Err(ArtifactError::Invalid {
                    what: format!(
                        "boundary {} fitted on dimension {} vs fingerprint dimension \
                         {fingerprint_dim}",
                        BOUNDARY_NAMES[idx],
                        svm.input_dim()
                    ),
                });
            }
            boundaries.push(
                TrustedBoundary::from_parts(BOUNDARY_NAMES[idx], scaler, svm).map_err(invalid)?,
            );
        }
        let kmm_weights = r.f64s()?;
        require_finite("kmm weights", &kmm_weights)?;
        let kde = AdaptiveKde::from_state(decode_kde(r)?).map_err(invalid)?;
        if kde.dim() != fingerprint_dim {
            return Err(ArtifactError::Invalid {
                what: format!(
                    "KDE fitted on dimension {} vs fingerprint dimension {fingerprint_dim}",
                    kde.dim()
                ),
            });
        }
        let pcm_medians = r.f64s()?;
        if pcm_medians.len() != pcm_dim {
            return Err(ArtifactError::Invalid {
                what: format!(
                    "{} PCM medians for PCM dimension {pcm_dim}",
                    pcm_medians.len()
                ),
            });
        }
        if pcm_medians.iter().any(|v| !(v.is_finite() && *v > 0.0)) {
            return Err(ArtifactError::Invalid {
                what: "PCM medians must be finite and strictly positive".into(),
            });
        }
        Ok(FittedModel {
            seed,
            fingerprint_dim,
            pcm_dim,
            space,
            sanitizer,
            sanitizer_thresholds,
            predictor,
            boundaries,
            kmm_weights,
            kde,
            pcm_medians,
        })
    }
}

/// Shorthand: any substrate validation failure becomes
/// [`ArtifactError::Invalid`].
fn invalid(e: impl fmt::Display) -> ArtifactError {
    ArtifactError::Invalid {
        what: e.to_string(),
    }
}

fn require_finite(what: &str, values: &[f64]) -> Result<(), ArtifactError> {
    if values.iter().any(|v| !v.is_finite()) {
        return Err(ArtifactError::Invalid {
            what: format!("{what} contain a non-finite value"),
        });
    }
    Ok(())
}

/// FNV-1a 64-bit over a byte slice. Not cryptographic — it guards against
/// accidental corruption (any single-byte change alters the hash), not
/// adversaries; adversarial payloads are caught by the strict state
/// validation instead.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---- primitive codec ------------------------------------------------------

#[derive(Default)]
struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
    fn f64s(&mut self, v: &[f64]) {
        self.usize(v.len());
        for &x in v {
            self.f64(x);
        }
    }
    fn usizes(&mut self, v: &[usize]) {
        self.usize(v.len());
        for &x in v {
            self.usize(x);
        }
    }
    fn matrix(&mut self, m: &Matrix) {
        self.usize(m.nrows());
        self.usize(m.ncols());
        for &x in m.as_slice() {
            self.f64(x);
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn bytes(&mut self, n: usize) -> Result<&'a [u8], ArtifactError> {
        let end = self.pos.checked_add(n).ok_or(ArtifactError::Truncated {
            needed: usize::MAX,
            got: self.buf.len(),
        })?;
        if end > self.buf.len() {
            return Err(ArtifactError::Truncated {
                needed: end,
                got: self.buf.len(),
            });
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }
    fn u8(&mut self) -> Result<u8, ArtifactError> {
        Ok(self.bytes(1)?[0])
    }
    fn u32(&mut self) -> Result<u32, ArtifactError> {
        Ok(u32::from_le_bytes(
            self.bytes(4)?
                .try_into()
                .expect("slice of fixed length 4 always converts"),
        ))
    }
    fn u64(&mut self) -> Result<u64, ArtifactError> {
        Ok(u64::from_le_bytes(
            self.bytes(8)?
                .try_into()
                .expect("slice of fixed length 8 always converts"),
        ))
    }
    fn usize(&mut self) -> Result<usize, ArtifactError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| ArtifactError::Invalid {
            what: format!("length {v} exceeds the address space"),
        })
    }
    /// Reads an element count whose elements occupy at least `elem_bytes`
    /// each — the remaining-byte bound rejects corrupted lengths before
    /// they can drive an unbounded allocation.
    fn count(&mut self, elem_bytes: usize) -> Result<usize, ArtifactError> {
        let n = self.usize()?;
        let remaining = self.buf.len() - self.pos;
        if n.checked_mul(elem_bytes)
            .is_none_or(|need| need > remaining)
        {
            return Err(ArtifactError::Truncated {
                needed: self.pos + n.saturating_mul(elem_bytes),
                got: self.buf.len(),
            });
        }
        Ok(n)
    }
    fn f64(&mut self) -> Result<f64, ArtifactError> {
        Ok(f64::from_bits(self.u64()?))
    }
    fn f64s(&mut self) -> Result<Vec<f64>, ArtifactError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }
    fn usizes(&mut self) -> Result<Vec<usize>, ArtifactError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.usize()).collect()
    }
    fn matrix(&mut self) -> Result<Matrix, ArtifactError> {
        let rows = self.usize()?;
        let cols = self.usize()?;
        let len = rows.checked_mul(cols).ok_or(ArtifactError::Invalid {
            what: format!("matrix shape {rows}x{cols} overflows"),
        })?;
        let remaining = self.buf.len() - self.pos;
        if len.checked_mul(8).is_none_or(|need| need > remaining) {
            return Err(ArtifactError::Truncated {
                needed: self.pos + len.saturating_mul(8),
                got: self.buf.len(),
            });
        }
        let data = (0..len)
            .map(|_| self.f64())
            .collect::<Result<Vec<f64>, ArtifactError>>()?;
        Matrix::from_vec(rows, cols, data).map_err(invalid)
    }
}

// ---- state codecs ---------------------------------------------------------

fn encode_scaler(w: &mut Writer, s: &ScalerState) {
    w.f64s(&s.means);
    w.f64s(&s.stds);
}

fn decode_scaler(r: &mut Reader<'_>) -> Result<ScalerState, ArtifactError> {
    Ok(ScalerState {
        means: r.f64s()?,
        stds: r.f64s()?,
    })
}

/// Tag byte written before a kernel's parameters. RBF is the only kernel;
/// tags 1 and 2 once named the retired linear and polynomial kernels and
/// are rejected as invalid like any other tag.
const RBF_KERNEL_TAG: u8 = 0;

fn encode_kernel(w: &mut Writer, k: &Kernel) {
    let Kernel::Rbf { gamma } = *k;
    w.u8(RBF_KERNEL_TAG);
    w.f64(gamma);
}

fn decode_kernel(r: &mut Reader<'_>) -> Result<Kernel, ArtifactError> {
    match r.u8()? {
        RBF_KERNEL_TAG => Ok(Kernel::Rbf { gamma: r.f64()? }),
        t => Err(ArtifactError::Invalid {
            what: format!("unknown kernel tag {t}"),
        }),
    }
}

fn encode_svm(w: &mut Writer, s: &SvmState) {
    w.f64(s.rho);
    w.f64(s.nu);
    w.usize(s.input_dim);
    // Version 2 stores the support-vector count here; it is the row count
    // of `points`, which the decoder checks it against.
    w.usize(s.points.nrows());
    w.usize(s.solve_iterations);
    encode_kernel(w, &s.kernel);
    w.f64s(&s.dual_alpha);
    // A single form needs no tag; the byte keeps version 2's layout.
    w.u8(SVM_EXPANSION_TAG);
    w.matrix(&s.points);
    w.f64s(&s.coeffs);
}

fn decode_svm(r: &mut Reader<'_>) -> Result<SvmState, ArtifactError> {
    let rho = r.f64()?;
    let nu = r.f64()?;
    let input_dim = r.usize()?;
    let support_count = r.usize()?;
    let solve_iterations = r.usize()?;
    let kernel = decode_kernel(r)?;
    let dual_alpha = r.f64s()?;
    let tag = r.u8()?;
    if tag != SVM_EXPANSION_TAG {
        return Err(ArtifactError::Invalid {
            what: format!("unknown SVM decision tag {tag}"),
        });
    }
    let points = r.matrix()?;
    if support_count != points.nrows() {
        return Err(ArtifactError::Invalid {
            what: format!(
                "SVM support count {support_count} disagrees with its {} support vectors",
                points.nrows()
            ),
        });
    }
    let coeffs = r.f64s()?;
    Ok(SvmState {
        points,
        coeffs,
        rho,
        kernel,
        input_dim,
        nu,
        dual_alpha,
        solve_iterations,
    })
}

fn encode_regressor(w: &mut Writer, s: &RegressorState) {
    match s {
        RegressorState::Mars(m) => {
            w.u8(0);
            w.usize(m.input_dim);
            w.f64(m.gcv);
            w.f64s(&m.coefficients);
            w.usize(m.bases.len());
            for b in &m.bases {
                w.usize(b.hinges.len());
                for h in &b.hinges {
                    w.usize(h.feature);
                    w.f64(h.knot);
                    w.u8(match h.direction {
                        sidefp_stats::mars::HingeDirection::Positive => 0,
                        sidefp_stats::mars::HingeDirection::Negative => 1,
                    });
                }
                w.usizes(&b.linear);
            }
        }
        RegressorState::Ridge(m) => {
            w.u8(1);
            w.usize(m.input_dim);
            w.f64s(&m.coefficients);
            w.usize(m.exponents.len());
            for e in &m.exponents {
                w.usize(e.len());
                for &x in e {
                    w.u32(x);
                }
            }
        }
        RegressorState::Knn(m) => {
            w.u8(2);
            w.usize(m.k);
            w.f64s(&m.y);
            w.matrix(&m.x);
        }
    }
}

fn decode_regressor(r: &mut Reader<'_>) -> Result<RegressorState, ArtifactError> {
    match r.u8()? {
        0 => {
            let input_dim = r.usize()?;
            let gcv = r.f64()?;
            let coefficients = r.f64s()?;
            let n_bases = r.count(9)?;
            let mut bases = Vec::with_capacity(n_bases);
            for _ in 0..n_bases {
                let n_hinges = r.count(17)?;
                let mut hinges = Vec::with_capacity(n_hinges);
                for _ in 0..n_hinges {
                    let feature = r.usize()?;
                    let knot = r.f64()?;
                    let direction = match r.u8()? {
                        0 => sidefp_stats::mars::HingeDirection::Positive,
                        1 => sidefp_stats::mars::HingeDirection::Negative,
                        t => {
                            return Err(ArtifactError::Invalid {
                                what: format!("unknown hinge direction tag {t}"),
                            })
                        }
                    };
                    hinges.push(sidefp_stats::mars::Hinge {
                        feature,
                        knot,
                        direction,
                    });
                }
                let linear = r.usizes()?;
                bases.push(sidefp_stats::MarsBasisState { hinges, linear });
            }
            Ok(RegressorState::Mars(sidefp_stats::MarsState {
                bases,
                coefficients,
                input_dim,
                gcv,
            }))
        }
        1 => {
            let input_dim = r.usize()?;
            let coefficients = r.f64s()?;
            let n = r.count(8)?;
            let mut exponents = Vec::with_capacity(n);
            for _ in 0..n {
                let len = r.count(4)?;
                exponents.push(
                    (0..len)
                        .map(|_| r.u32())
                        .collect::<Result<Vec<u32>, ArtifactError>>()?,
                );
            }
            Ok(RegressorState::Ridge(sidefp_stats::RidgeState {
                coefficients,
                exponents,
                input_dim,
            }))
        }
        2 => {
            let k = r.usize()?;
            let y = r.f64s()?;
            let x = r.matrix()?;
            Ok(RegressorState::Knn(sidefp_stats::KnnState { x, y, k }))
        }
        t => Err(ArtifactError::Invalid {
            what: format!("unknown regressor tag {t}"),
        }),
    }
}

fn encode_kde(w: &mut Writer, s: &KdeState) {
    encode_scaler(w, &s.scaler);
    w.matrix(&s.z);
    w.f64(s.bandwidth);
    w.f64s(&s.lambdas);
}

fn decode_kde(r: &mut Reader<'_>) -> Result<KdeState, ArtifactError> {
    Ok(KdeState {
        scaler: decode_scaler(r)?,
        z: r.matrix()?,
        bandwidth: r.f64()?,
        lambdas: r.f64s()?,
    })
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

    fn tiny_model() -> FittedModel {
        FittedModel::fit(&tiny_config()).unwrap()
    }

    #[test]
    fn round_trip_is_byte_exact_and_bit_identical() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        let loaded = FittedModel::from_bytes(&bytes).unwrap();
        assert_eq!(loaded.to_bytes(), bytes, "re-encode differs");
        assert_eq!(loaded.seed(), model.seed());
        assert_eq!(loaded.fingerprint_dim(), model.fingerprint_dim());
        let (fps, _) = model.synthesize_batch(7, 8);
        for (orig, load) in model.boundaries().iter().zip(loaded.boundaries()) {
            assert_eq!(orig.name(), load.name());
            for row in fps.rows_iter() {
                assert_eq!(
                    orig.decision(row).unwrap().to_bits(),
                    load.decision(row).unwrap().to_bits(),
                    "boundary {} decision drifted through the codec",
                    orig.name()
                );
            }
        }
    }

    #[test]
    fn header_failures_are_typed() {
        let model = tiny_model();
        let bytes = model.to_bytes();

        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert_eq!(
            FittedModel::from_bytes(&bad_magic).unwrap_err(),
            ArtifactError::BadMagic
        );

        let mut bad_version = bytes.clone();
        bad_version[4] = 99;
        assert!(matches!(
            FittedModel::from_bytes(&bad_version).unwrap_err(),
            ArtifactError::UnsupportedVersion { found: 99, .. }
        ));

        assert!(matches!(
            FittedModel::from_bytes(&bytes[..bytes.len() / 2]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));
        assert!(matches!(
            FittedModel::from_bytes(&[]).unwrap_err(),
            ArtifactError::Truncated { .. }
        ));

        let mut corrupt = bytes.clone();
        let mid = HEADER_LEN + (corrupt.len() - HEADER_LEN - 8) / 2;
        corrupt[mid] ^= 0x01;
        assert!(matches!(
            FittedModel::from_bytes(&corrupt).unwrap_err(),
            ArtifactError::Corrupted { .. }
        ));

        let mut trailing = bytes;
        trailing.push(0);
        assert!(matches!(
            FittedModel::from_bytes(&trailing).unwrap_err(),
            ArtifactError::Invalid { .. }
        ));
    }

    /// Tag 1 once named a random-Fourier-feature decision map. No fit
    /// writes it any more, so a checksum-consistent artifact carrying it
    /// must fail with a typed error, not a panic or a misparse.
    #[test]
    fn retired_svm_decision_tag_is_rejected_typed() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        let svm = model.boundaries()[0].svm().export_state();
        let mut w = Writer::default();
        encode_svm(&mut w, &svm);
        let tail = 16 + 8 * svm.points.as_slice().len() + 8 + 8 * svm.coeffs.len();
        let tag_in_svm = w.buf.len() - tail - 1;
        assert_eq!(w.buf[tag_in_svm], SVM_EXPANSION_TAG);
        let at = bytes
            .windows(w.buf.len())
            .position(|win| win == w.buf.as_slice())
            .expect("B1's SVM encoding is in the artifact");

        let mut retired = bytes.clone();
        retired[at + tag_in_svm] = 1;
        let end = retired.len() - 8;
        let check = fnv1a64(&retired[HEADER_LEN..end]);
        retired[end..].copy_from_slice(&check.to_le_bytes());
        assert_eq!(
            FittedModel::from_bytes(&retired).unwrap_err(),
            ArtifactError::Invalid {
                what: "unknown SVM decision tag 1".into()
            }
        );
    }

    /// Tags 1 and 2 once named the linear and polynomial kernels, which
    /// no pipeline fitted. A checksum-consistent artifact carrying either
    /// must fail with a typed error, not a panic or a misparse.
    #[test]
    fn retired_kernel_tags_are_rejected_typed() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        let svm = model.boundaries()[0].svm().export_state();
        let mut w = Writer::default();
        encode_svm(&mut w, &svm);
        // rho, nu, input_dim, the support count and the solve
        // iterations precede the kernel tag.
        let tag_in_svm = 40;
        assert_eq!(w.buf[tag_in_svm], RBF_KERNEL_TAG);
        let at = bytes
            .windows(w.buf.len())
            .position(|win| win == w.buf.as_slice())
            .expect("B1's SVM encoding is in the artifact");
        for tag in [1, 2] {
            let mut retired = bytes.clone();
            retired[at + tag_in_svm] = tag;
            let end = retired.len() - 8;
            let check = fnv1a64(&retired[HEADER_LEN..end]);
            retired[end..].copy_from_slice(&check.to_le_bytes());
            assert_eq!(
                FittedModel::from_bytes(&retired).unwrap_err(),
                ArtifactError::Invalid {
                    what: format!("unknown kernel tag {tag}")
                }
            );
        }
    }

    #[test]
    fn disagreeing_svm_support_count_is_rejected_typed() {
        let model = tiny_model();
        let bytes = model.to_bytes();
        let svm = model.boundaries()[0].svm().export_state();
        let mut w = Writer::default();
        encode_svm(&mut w, &svm);
        // rho, nu and input_dim precede the count.
        let count_in_svm = 24;
        let n = svm.points.nrows();
        assert_eq!(
            w.buf[count_in_svm..count_in_svm + 8],
            (n as u64).to_le_bytes()
        );
        let at = bytes
            .windows(w.buf.len())
            .position(|win| win == w.buf.as_slice())
            .expect("B1's SVM encoding is in the artifact");

        let mut tampered = bytes.clone();
        tampered[at + count_in_svm..at + count_in_svm + 8]
            .copy_from_slice(&(n as u64 + 1).to_le_bytes());
        let end = tampered.len() - 8;
        let check = fnv1a64(&tampered[HEADER_LEN..end]);
        tampered[end..].copy_from_slice(&check.to_le_bytes());
        assert_eq!(
            FittedModel::from_bytes(&tampered).unwrap_err(),
            ArtifactError::Invalid {
                what: format!(
                    "SVM support count {} disagrees with its {n} support vectors",
                    n + 1
                )
            }
        );
    }

    #[test]
    fn save_load_round_trips_through_the_filesystem() {
        let model = tiny_model();
        let dir = std::env::temp_dir().join("sidefp_artifact_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.sfpa");
        model.save(&path).unwrap();
        let loaded = FittedModel::load(&path).unwrap();
        assert_eq!(loaded.to_bytes(), model.to_bytes());
        std::fs::remove_file(&path).unwrap();
        assert!(matches!(
            FittedModel::load(&path).unwrap_err(),
            ArtifactError::Io { .. }
        ));
    }

    #[test]
    fn synthesized_batches_are_duplicate_free_and_positive() {
        let model = tiny_model();
        let (fps, pcms) = model.synthesize_batch(3, 64);
        assert_eq!(fps.nrows(), 64);
        assert_eq!(pcms.nrows(), 64);
        assert!(pcms.as_slice().iter().all(|v| *v > 0.0));
        let sanitized =
            crate::stages::sanitize::sanitize_measurements(&fps, &pcms, &model.sanitizer())
                .unwrap();
        assert_eq!(sanitized.kept.len(), 64, "{:?}", sanitized.health);
        assert!(sanitized.health.is_clean());
    }
}
