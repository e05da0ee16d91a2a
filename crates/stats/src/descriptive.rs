//! Descriptive statistics over `f64` slices.
//!
//! These free functions are the shared vocabulary of the higher-level
//! estimators: bandwidth selection, scaler fitting and report generation all
//! route through here.

use crate::StatsError;

/// Arithmetic mean.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty slice.
pub fn mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    Ok(data.iter().sum::<f64>() / data.len() as f64)
}

/// Sample variance (denominator `n − 1`).
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for fewer than two values.
pub fn variance(data: &[f64]) -> Result<f64, StatsError> {
    if data.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: data.len(),
        });
    }
    let m = mean(data)?;
    Ok(data.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (data.len() - 1) as f64)
}

/// Sample standard deviation.
///
/// # Errors
///
/// See [`variance`].
pub fn std_dev(data: &[f64]) -> Result<f64, StatsError> {
    Ok(variance(data)?.sqrt())
}

/// Minimum value.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty slice.
pub fn min(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    Ok(data.iter().cloned().fold(f64::INFINITY, f64::min))
}

/// Maximum value.
///
/// # Errors
///
/// Returns [`StatsError::InsufficientData`] for an empty slice.
pub fn max(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    Ok(data.iter().cloned().fold(f64::NEG_INFINITY, f64::max))
}

/// Linear-interpolated quantile, `q` in `[0, 1]`.
///
/// # Errors
///
/// - [`StatsError::InsufficientData`] for an empty slice.
/// - [`StatsError::InvalidParameter`] if `q` is outside `[0, 1]` or NaN.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    if !(0.0..=1.0).contains(&q) {
        return Err(StatsError::InvalidParameter {
            name: "q",
            reason: format!("quantile must be in [0, 1], got {q}"),
        });
    }
    let mut sorted = data.to_vec();
    // total_cmp gives NaNs a total order (they sort to the end) instead of
    // panicking; a NaN that slips past upstream sanitization degrades the
    // estimate rather than aborting the pipeline.
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    Ok(sorted[lo] * (1.0 - frac) + sorted[hi] * frac)
}

/// Median (the 0.5 quantile).
///
/// # Errors
///
/// See [`quantile`].
pub fn median(data: &[f64]) -> Result<f64, StatsError> {
    quantile(data, 0.5)
}

/// Pearson correlation coefficient of two equal-length samples.
///
/// # Errors
///
/// - [`StatsError::DimensionMismatch`] if lengths differ.
/// - [`StatsError::InsufficientData`] for fewer than two pairs.
/// - [`StatsError::DegenerateData`] if either sample has zero variance.
pub fn pearson_correlation(x: &[f64], y: &[f64]) -> Result<f64, StatsError> {
    if x.len() != y.len() {
        return Err(StatsError::DimensionMismatch {
            expected: x.len(),
            got: y.len(),
        });
    }
    if x.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: x.len(),
        });
    }
    let mx = mean(x)?;
    let my = mean(y)?;
    let mut sxy = 0.0;
    let mut sxx = 0.0;
    let mut syy = 0.0;
    for (a, b) in x.iter().zip(y) {
        let dx = a - mx;
        let dy = b - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if sxx == 0.0 || syy == 0.0 {
        return Err(StatsError::DegenerateData(
            "zero variance in correlation input".into(),
        ));
    }
    Ok(sxy / (sxx * syy).sqrt())
}

/// Geometric mean of strictly positive data.
///
/// # Errors
///
/// - [`StatsError::InsufficientData`] for an empty slice.
/// - [`StatsError::DegenerateData`] if any value is non-positive.
pub fn geometric_mean(data: &[f64]) -> Result<f64, StatsError> {
    if data.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    let mut log_sum = 0.0;
    for &v in data {
        if v <= 0.0 {
            return Err(StatsError::DegenerateData(format!(
                "geometric mean requires positive data, found {v}"
            )));
        }
        log_sum += v.ln();
    }
    Ok((log_sum / data.len() as f64).exp())
}

/// Coefficient of determination R² of predictions vs. targets.
///
/// # Errors
///
/// - [`StatsError::DimensionMismatch`] if lengths differ.
/// - [`StatsError::InsufficientData`] for fewer than two pairs.
/// - [`StatsError::DegenerateData`] if the targets have zero variance.
pub fn r_squared(targets: &[f64], predictions: &[f64]) -> Result<f64, StatsError> {
    if targets.len() != predictions.len() {
        return Err(StatsError::DimensionMismatch {
            expected: targets.len(),
            got: predictions.len(),
        });
    }
    if targets.len() < 2 {
        return Err(StatsError::InsufficientData {
            needed: 2,
            got: targets.len(),
        });
    }
    let m = mean(targets)?;
    let ss_tot: f64 = targets.iter().map(|t| (t - m) * (t - m)).sum();
    if ss_tot == 0.0 {
        return Err(StatsError::DegenerateData(
            "targets have zero variance".into(),
        ));
    }
    let ss_res: f64 = targets
        .iter()
        .zip(predictions)
        .map(|(t, p)| (t - p) * (t - p))
        .sum();
    Ok(1.0 - ss_res / ss_tot)
}

/// Root-mean-square error of predictions vs. targets.
///
/// # Errors
///
/// - [`StatsError::DimensionMismatch`] if lengths differ.
/// - [`StatsError::InsufficientData`] for empty input.
pub fn rmse(targets: &[f64], predictions: &[f64]) -> Result<f64, StatsError> {
    if targets.len() != predictions.len() {
        return Err(StatsError::DimensionMismatch {
            expected: targets.len(),
            got: predictions.len(),
        });
    }
    if targets.is_empty() {
        return Err(StatsError::InsufficientData { needed: 1, got: 0 });
    }
    let mse: f64 = targets
        .iter()
        .zip(predictions)
        .map(|(t, p)| (t - p) * (t - p))
        .sum::<f64>()
        / targets.len() as f64;
    Ok(mse.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let d = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert_eq!(mean(&d).unwrap(), 5.0);
        assert!((variance(&d).unwrap() - 32.0 / 7.0).abs() < 1e-12);
        assert!((std_dev(&d).unwrap() - (32.0_f64 / 7.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs_error() {
        assert!(mean(&[]).is_err());
        assert!(variance(&[1.0]).is_err());
        assert!(min(&[]).is_err());
        assert!(max(&[]).is_err());
        assert!(median(&[]).is_err());
        assert!(geometric_mean(&[]).is_err());
    }

    #[test]
    fn min_max() {
        let d = [3.0, -1.0, 4.0];
        assert_eq!(min(&d).unwrap(), -1.0);
        assert_eq!(max(&d).unwrap(), 4.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&d, 1.0).unwrap(), 4.0);
        assert!((median(&d).unwrap() - 2.5).abs() < 1e-12);
        assert!((quantile(&d, 0.25).unwrap() - 1.75).abs() < 1e-12);
        assert!(quantile(&d, 1.5).is_err());
        assert!(quantile(&d, -0.1).is_err());
    }

    #[test]
    fn correlation_of_linear_data_is_one() {
        let x = [1.0, 2.0, 3.0, 4.0];
        let y = [2.0, 4.0, 6.0, 8.0];
        assert!((pearson_correlation(&x, &y).unwrap() - 1.0).abs() < 1e-12);
        let y_neg = [-2.0, -4.0, -6.0, -8.0];
        assert!((pearson_correlation(&x, &y_neg).unwrap() + 1.0).abs() < 1e-12);
    }

    #[test]
    fn correlation_errors() {
        assert!(pearson_correlation(&[1.0], &[1.0, 2.0]).is_err());
        assert!(pearson_correlation(&[1.0], &[2.0]).is_err());
        assert!(pearson_correlation(&[1.0, 1.0], &[2.0, 3.0]).is_err());
    }

    #[test]
    fn geometric_mean_known_value() {
        assert!((geometric_mean(&[1.0, 4.0]).unwrap() - 2.0).abs() < 1e-12);
        assert!(geometric_mean(&[1.0, 0.0]).is_err());
        assert!(geometric_mean(&[-1.0]).is_err());
    }

    #[test]
    fn r_squared_perfect_and_mean_predictor() {
        let t = [1.0, 2.0, 3.0];
        assert!((r_squared(&t, &t).unwrap() - 1.0).abs() < 1e-12);
        let mean_pred = [2.0, 2.0, 2.0];
        assert!(r_squared(&t, &mean_pred).unwrap().abs() < 1e-12);
        assert!(r_squared(&[1.0, 1.0], &[1.0, 1.0]).is_err());
    }

    #[test]
    fn rmse_known_value() {
        assert!((rmse(&[0.0, 0.0], &[3.0, 4.0]).unwrap() - (12.5_f64).sqrt()).abs() < 1e-12);
        assert!(rmse(&[], &[]).is_err());
        assert!(rmse(&[1.0], &[1.0, 2.0]).is_err());
    }

    #[test]
    fn quantile_does_not_panic_on_nan() {
        // Regression: the sort used partial_cmp().expect("finite values")
        // and panicked on NaN input. NaNs now order last, so low quantiles
        // of mostly-finite data stay finite.
        let data = [3.0, f64::NAN, 1.0, 2.0];
        let q = quantile(&data, 0.0).unwrap();
        assert_eq!(q, 1.0);
        let m = median(&data).unwrap();
        assert!(m.is_finite(), "median of 3 finite + 1 NaN: {m}");
        // All-NaN input degrades to NaN rather than panicking.
        assert!(median(&[f64::NAN, f64::NAN]).unwrap().is_nan());
    }
}
