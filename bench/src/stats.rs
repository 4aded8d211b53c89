//! The few order statistics the harness, the probes and `compare` share.

/// Median of the samples (mean of the middle two for even counts).
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

/// The `p`-quantile by nearest rank (`p90` of 120 samples leaves 12 beyond).
pub fn quantile(samples: &[f64], p: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    if s.is_empty() {
        return f64::NAN;
    }
    let rank = (p * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// `(min, max)` of the samples.
pub fn range(samples: &[f64]) -> (f64, f64) {
    samples
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics_on_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&ten, 0.9), 9.0);
        assert_eq!(quantile(&ten, 0.5), 5.0);
        assert_eq!(range(&[2.0, -1.0, 5.0]), (-1.0, 5.0));
    }
}
