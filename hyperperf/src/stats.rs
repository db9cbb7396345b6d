//! Order statistics over measured samples.

/// Median of `values` (sorts in place). Empty input yields 0.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_unstable_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// First and third quartile by the rule of Python's
/// `statistics.quantiles(values, n=4)` (the default, exclusive method),
/// which is what the driver applies to a set of runs. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut data = values.to_vec();
    data.sort_unstable_by(f64::total_cmp);
    let m = data.len();
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median: the driver's
/// run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(&mut values.to_vec());
    (med != 0.0).then(|| (q3 - q1) / med)
}

/// Geometric mean; any non-positive member yields 0 (a missing figure).
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// The tail figure reported beside a median: the highest percentile that
/// still has at least ten samples beyond it, with its value.
pub fn tail(values: &mut [f64]) -> Option<(f64, f64)> {
    values.sort_unstable_by(f64::total_cmp);
    let n = values.len();
    [99.99, 99.9, 99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| (n as f64 * (1.0 - p / 100.0)).floor() >= 10.0)
        .map(|p| {
            let beyond = (n as f64 * (1.0 - p / 100.0)).floor() as usize;
            (p, values[n - 1 - beyond])
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn median_and_geomean() {
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((geomean(&[2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(geomean(&[2.0, 0.0]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut few: Vec<f64> = (0..30).map(f64::from).collect();
        assert_eq!(tail(&mut few), None, "30 samples leave 7 beyond p75");
        let mut v: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&mut v), Some((99.0, 989.0)));
    }
}
