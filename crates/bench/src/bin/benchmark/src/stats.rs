//! Summary statistics over repeated measurements, and the verdict rule
//! `benchmark compare` applies to two sets of runs.

/// Median of `values` (0 for an empty slice, so an absent series reads as
/// "no work" rather than poisoning the JSON with NaN).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of `values`; 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Number of samples strictly above the `q` quantile. The tail-percentile
/// rule reports a percentile only when at least [`TAIL_MIN_BEYOND`]
/// samples lie beyond it.
pub fn beyond(values: &[f64], q: f64) -> usize {
    let cut = quantile(values, q);
    values.iter().filter(|v| **v > cut).count()
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// First and third quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (its default
/// `exclusive` method), so the spreads printed here match what an external
/// checker computes from the same values. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let data = sorted(values);
    let n = data.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile range (Python-compatible quartiles); 0 below two values.
pub fn iqr(values: &[f64]) -> f64 {
    quartiles(values).map_or(0.0, |(q1, q3)| q3 - q1)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better (times, memory, counts of waste).
    Lower,
    /// Larger values are better (rates, speedups).
    Higher,
}

impl Better {
    /// The name used in `BENCHMARK.json`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// `true` when `candidate` is strictly better than `base`.
    pub fn improves(self, base: f64, candidate: f64) -> bool {
        match self {
            Better::Lower => candidate < base,
            Better::Higher => candidate > base,
        }
    }
}

/// What `benchmark compare` concludes for one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B beats A: at least nine pairs in ten, by more than A's own spread.
    Better,
    /// B's median is worse than A's by more than the metric's bound.
    Worse,
    /// B is within the bound of A and shows no qualifying gain.
    Agree,
    /// The run-to-run spread exceeds the bound, so neither "agree" nor a
    /// change can be claimed.
    Unresolved,
}

impl Verdict {
    /// Lowercase label for reports.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Agree => "agree",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Pairwise wins of `b` over `a` (i-th run against i-th run), ties counting
/// for neither side.
pub fn pair_wins(a: &[f64], b: &[f64], better: Better) -> (usize, usize) {
    let pairs = a.len().min(b.len());
    let wins = a
        .iter()
        .zip(b)
        .filter(|(x, y)| better.improves(**x, **y))
        .count();
    (wins, pairs)
}

/// Pairs of runs a gain needs before it can be claimed.
pub const MIN_PAIRS: usize = 10;

/// The comparison rule from the benchmark's README:
///
/// 0. With fewer than two runs on either side the spread is unknown, so
///    the pair is unresolved.
/// 1. With at least [`MIN_PAIRS`] pairs, if every run of B is better than
///    every run of A, B is better regardless of spread.
/// 2. If either side's interquartile range, relative to A's median,
///    exceeds `bound`, the pair is unresolved.
/// 3. If B's median is worse than A's by more than `bound` (relative),
///    B is worse.
/// 4. If there are at least [`MIN_PAIRS`] pairs, B wins at least 90% of
///    them and the medians differ by more than A's interquartile range, B
///    is better.
/// 5. Otherwise the two agree.
pub fn verdict(a: &[f64], b: &[f64], better: Better, bound: f64) -> Verdict {
    if a.len() < 2 || b.len() < 2 {
        return Verdict::Unresolved;
    }
    let (wins, pairs) = pair_wins(a, b, better);
    let all_b_better = b.iter().all(|y| a.iter().all(|x| better.improves(*x, *y)));
    if pairs >= MIN_PAIRS && all_b_better {
        return Verdict::Better;
    }
    let (med_a, med_b) = (median(a), median(b));
    let scale = med_a.abs().max(f64::MIN_POSITIVE);
    let spread = iqr(a).max(iqr(b)) / scale;
    if spread > bound {
        return Verdict::Unresolved;
    }
    if relative_worsening(a, b, better) > bound {
        return Verdict::Worse;
    }
    if pairs >= MIN_PAIRS && wins * 10 >= pairs * 9 && (med_b - med_a).abs() > iqr(a) {
        return Verdict::Better;
    }
    Verdict::Agree
}

/// How much worse B's median is than A's, as a share of A's median
/// (negative when B is better).
pub fn relative_worsening(a: &[f64], b: &[f64], better: Better) -> f64 {
    let (med_a, med_b) = (median(a), median(b));
    if med_a == med_b {
        return 0.0;
    }
    let delta = (med_b - med_a) / med_a.abs().max(f64::MIN_POSITIVE);
    match better {
        Better::Lower => delta,
        Better::Higher => -delta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quantiles_interpolate() {
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(quantile(&[0.0, 10.0], 0.9), 9.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] (clamped j
        // extrapolates past the data)
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        // statistics.quantiles([5, 1, 4, 2, 3], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), Some((1.5, 4.5)));
        assert_eq!(iqr(&[5.0, 1.0, 4.0, 2.0, 3.0]), 3.0);
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(iqr(&[1.0]), 0.0);
    }

    #[test]
    fn tail_rule_needs_ten_samples_beyond() {
        let hundred: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(beyond(&hundred, 0.9), 10);
        assert!(beyond(&hundred, 0.9) >= TAIL_MIN_BEYOND);
        let fifty: Vec<f64> = (0..50).map(f64::from).collect();
        assert!(beyond(&fifty, 0.9) < TAIL_MIN_BEYOND);
        assert!(beyond(&fifty, 0.75) >= TAIL_MIN_BEYOND);
        let forty: Vec<f64> = (0..40).map(f64::from).collect();
        assert_eq!(beyond(&forty, 0.75), 10);
        // Ties at the cut do not count as beyond it.
        assert_eq!(beyond(&[1.0; 30], 0.5), 0);
    }

    #[test]
    fn verdicts_follow_the_rule() {
        let a = [
            100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0,
        ];
        // Same numbers: agree.
        assert_eq!(verdict(&a, &a, Better::Lower, 0.1), Verdict::Agree);
        // 5% slower, within a 10% bound: agree.
        let slower: Vec<f64> = a.iter().map(|v| v * 1.05).collect();
        assert_eq!(verdict(&a, &slower, Better::Lower, 0.1), Verdict::Agree);
        // 20% slower with a 10% bound: worse.
        let much_slower: Vec<f64> = a.iter().map(|v| v * 1.2).collect();
        assert_eq!(
            verdict(&a, &much_slower, Better::Lower, 0.1),
            Verdict::Worse
        );
        // 20% faster: every pair wins by far more than A's spread.
        let faster: Vec<f64> = a.iter().map(|v| v * 0.8).collect();
        assert_eq!(verdict(&a, &faster, Better::Lower, 0.1), Verdict::Better);
        // A higher-is-better metric flips the direction.
        assert_eq!(verdict(&a, &faster, Better::Higher, 0.1), Verdict::Worse);
        // Too few pairs to claim a gain.
        assert_eq!(
            verdict(&a[..5], &faster[..5], Better::Lower, 0.1),
            Verdict::Agree
        );
        // Wide spread that straddles A: unresolved.
        let noisy = [
            60.0, 140.0, 70.0, 130.0, 100.0, 65.0, 135.0, 100.0, 80.0, 120.0,
        ];
        assert_eq!(verdict(&a, &noisy, Better::Lower, 0.1), Verdict::Unresolved);
        assert_eq!(verdict(&[], &a, Better::Lower, 0.1), Verdict::Unresolved);
        // One run a side shows no spread, so not even a large change counts.
        assert_eq!(
            verdict(&a[..1], &much_slower[..1], Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn pair_wins_ignore_ties() {
        assert_eq!(
            pair_wins(&[1.0, 2.0, 3.0], &[0.5, 2.0, 4.0], Better::Lower),
            (1, 3)
        );
        assert_eq!(
            pair_wins(&[1.0, 2.0], &[2.0, 3.0, 9.0], Better::Higher),
            (2, 2)
        );
    }
}
