use std::error::Error;
use std::fmt;

use sidefp_chip::ChipError;
use sidefp_faults::FaultError;
use sidefp_silicon::SiliconError;
use sidefp_stats::StatsError;

/// Error type for the detection pipeline.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// A configuration value is outside its valid range.
    InvalidConfig {
        /// Field name.
        name: &'static str,
        /// Description of the violated constraint.
        reason: String,
    },
    /// The measurement campaign degraded past the point of recovery
    /// (too few surviving devices, or a channel with no valid reading).
    DataQuality {
        /// What made the data unusable.
        reason: String,
    },
    /// A PCM → fingerprint regression predicted a non-finite value: the
    /// device's PCMs lie so far outside the simulated range that the
    /// extrapolated model (exponentiated in log space) leaves `f64`.
    ExtrapolationOverflow {
        /// Device row of the PCM matrix.
        row: usize,
        /// Fingerprint column of the prediction.
        column: usize,
        /// The non-finite prediction.
        value: f64,
    },
    /// Error from the statistics substrate.
    Stats(StatsError),
    /// Error from the synthetic fab.
    Silicon(SiliconError),
    /// Error from the chip model.
    Chip(ChipError),
    /// Error from the fault-injection harness.
    Faults(FaultError),
    /// Error from the fitted-model artifact codec.
    Artifact(crate::artifact::ArtifactError),
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::InvalidConfig { name, reason } => {
                write!(f, "invalid config `{name}`: {reason}")
            }
            CoreError::DataQuality { reason } => {
                write!(f, "data quality failure: {reason}")
            }
            CoreError::ExtrapolationOverflow { row, column, value } => write!(
                f,
                "regression extrapolation overflow: device row {row}, fingerprint column \
                 {column} predicts {value}"
            ),
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Silicon(e) => write!(f, "silicon error: {e}"),
            CoreError::Chip(e) => write!(f, "chip error: {e}"),
            CoreError::Faults(e) => write!(f, "fault injection error: {e}"),
            CoreError::Artifact(e) => write!(f, "artifact error: {e}"),
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Silicon(e) => Some(e),
            CoreError::Chip(e) => Some(e),
            CoreError::Faults(e) => Some(e),
            CoreError::Artifact(e) => Some(e),
            CoreError::InvalidConfig { .. }
            | CoreError::DataQuality { .. }
            | CoreError::ExtrapolationOverflow { .. } => None,
        }
    }
}

impl From<FaultError> for CoreError {
    fn from(e: FaultError) -> Self {
        CoreError::Faults(e)
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<SiliconError> for CoreError {
    fn from(e: SiliconError) -> Self {
        CoreError::Silicon(e)
    }
}

impl From<ChipError> for CoreError {
    fn from(e: ChipError) -> Self {
        CoreError::Chip(e)
    }
}

impl From<crate::artifact::ArtifactError> for CoreError {
    fn from(e: crate::artifact::ArtifactError) -> Self {
        CoreError::Artifact(e)
    }
}

impl From<sidefp_stats::LinalgError> for CoreError {
    fn from(e: sidefp_stats::LinalgError) -> Self {
        CoreError::Stats(StatsError::Linalg(e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_chaining() {
        let e: CoreError = StatsError::InsufficientData { needed: 2, got: 1 }.into();
        assert!(matches!(e, CoreError::Stats(_)));
        assert!(Error::source(&e).is_some());
        let e: CoreError = SiliconError::Empty { what: "x" }.into();
        assert!(e.to_string().contains("silicon"));
        let e: CoreError = ChipError::Empty { what: "y" }.into();
        assert!(e.to_string().contains("chip"));
        let e: CoreError = sidefp_stats::LinalgError::Singular.into();
        assert!(matches!(e, CoreError::Stats(StatsError::Linalg(_))));
        let e = CoreError::InvalidConfig {
            name: "chips",
            reason: "must be positive".into(),
        };
        assert!(e.to_string().contains("chips"));
        assert!(Error::source(&e).is_none());
        let e: CoreError = FaultError::InvalidRate {
            class: sidefp_faults::FaultClass::NanReading,
            rate: 2.0,
        }
        .into();
        assert!(e.to_string().contains("fault injection"));
        assert!(Error::source(&e).is_some());
        let e = CoreError::DataQuality {
            reason: "only 2 devices survived".into(),
        };
        assert!(e.to_string().contains("data quality"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CoreError>();
    }
}
