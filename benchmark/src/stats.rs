//! Order statistics and name validation shared by every workload.

/// The median of `values` (mean of the two middle values for an even
/// count). Returns 0 for an empty slice: a metric nobody sampled.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The arithmetic mean (0 for an empty slice).
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First, second and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` computes them (the "exclusive"
/// method), because that is the rule the acceptance check applies to ten
/// runs of this benchmark. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let len = sorted.len();
    let m = len + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, len - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Interquartile range as a share of the median: the run-to-run spread the
/// acceptance check compares against a metric's bound.
pub fn relative_spread(values: &[f64]) -> Option<f64> {
    let (q1, q2, q3) = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// The percentile ladder a latency sample is reported on.
const PERCENTILE_LADDER: [f64; 7] = [99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it in a sample of `count` — a tail read off fewer
/// samples is one scheduler hiccup, not a property of the program.
pub fn highest_supported_percentile(count: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .into_iter()
        .find(|p| count as f64 * (100.0 - p) / 100.0 >= 10.0)
}

/// Nearest-rank percentile of an ascending-sorted sample.
pub fn percentile_of_sorted(sorted: &[f64], percentile: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (percentile / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Whether `name` is a legal metric or workload name: 1 to 64 characters
/// of `[A-Za-z0-9_.-]`, starting with a letter or a digit.
pub fn valid_name(name: &str) -> bool {
    let legal = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(legal)
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some((1.5, 4.0, 12.0))
        );
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 2.0, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn relative_spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(relative_spread(&ten), Some(1.0));
        assert_eq!(relative_spread(&[0.0, 0.0, 0.0]), None);
    }

    #[test]
    fn percentile_rule_needs_ten_samples_beyond() {
        assert_eq!(highest_supported_percentile(19), None);
        assert_eq!(highest_supported_percentile(20), Some(50.0));
        assert_eq!(highest_supported_percentile(999), Some(95.0));
        assert_eq!(highest_supported_percentile(1_000), Some(99.0));
        assert_eq!(highest_supported_percentile(40_000), Some(99.9));
        assert_eq!(highest_supported_percentile(100_000), Some(99.99));
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        let sorted: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile_of_sorted(&sorted, 50.0), 50.0);
        assert_eq!(percentile_of_sorted(&sorted, 99.0), 99.0);
        assert_eq!(percentile_of_sorted(&sorted, 100.0), 100.0);
        assert_eq!(percentile_of_sorted(&[7.0], 99.0), 7.0);
        assert_eq!(percentile_of_sorted(&[], 99.0), 0.0);
    }

    #[test]
    fn names_follow_the_contract_alphabet() {
        for good in [
            "setup_s",
            "wire.encode_ns.prepare16",
            "channel-kv",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let too_long = "x".repeat(65);
        for bad in ["", ".hidden", "-dash", "with space", "µs", "a/b", &too_long] {
            assert!(!valid_name(bad), "{bad}");
        }
    }
}
