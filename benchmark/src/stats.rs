//! Order statistics used for every reported number.

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `p`-th percentile (nearest rank) of `values`, `p` in `0..=100`.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// First and third quartile as Python's `statistics.quantiles(values, n=4)`
/// computes them (the default "exclusive" method), so `compare` and the
/// acceptance procedure agree on what a quartile is. A single sample has no
/// spread: both quartiles are that sample.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let n = sorted.len();
    if n == 1 {
        return (sorted[0], sorted[0]);
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// The fastest of `values`: what a step that only computes on the calling
/// thread reports. What else runs on the box only ever adds time to such a
/// step — on the reference box a neighbour's memory traffic stretches
/// DRAM-bound code by up to 1.7x for seconds at a stretch — so the shortest
/// of a run's samples is the one nearest the code's own time, and the one
/// that repeats from run to run.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn fastest(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "fastest of no samples");
    values
        .iter()
        .copied()
        .min_by(|a, b| a.partial_cmp(b).expect("no NaN samples"))
        .expect("not empty")
}

/// The mean of the fastest four fifths of `values`: what a step that waits
/// for the server reports. Such a step's time depends on which thread sleeps
/// when, so its samples have several modes and the fastest is a lucky one;
/// the mean over a run's samples is the time per operation the run saw. The
/// slowest fifth is left out because one stall of the file system or the
/// hypervisor in one round would otherwise move the whole run.
///
/// # Panics
///
/// Panics on an empty slice or a NaN.
#[must_use]
pub fn typical(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "typical of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    let kept = (sorted.len() * 4).div_ceil(5);
    sorted[..kept].iter().sum::<f64>() / kept as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(median(&v), 5.5);
        assert_eq!(percentile(&v, 99.0), 10.0);
        assert_eq!(percentile(&v, 50.0), 5.0);
    }

    #[test]
    fn fastest_is_the_minimum_and_typical_drops_the_slowest_fifth() {
        let times = [1.0, 1.1, 1.2, 1.3, 9.0];
        assert_eq!(fastest(&times), 1.0);
        assert_eq!(typical(&times), (1.0 + 1.1 + 1.2 + 1.3) / 4.0);
        assert_eq!(typical(&[2.0, 4.0]), 3.0);
        assert_eq!(typical(&[3.0]), 3.0);
    }
}
