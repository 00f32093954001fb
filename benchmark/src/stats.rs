//! Order statistics for timing samples.

/// A duration in milliseconds.
pub fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Nearest-rank percentile.
pub fn percentile(samples: &[f64], pct: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (pct / 100.0 * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (mean of the two middle values for an even count). Panics on
/// an empty sample: every phase has a floor of at least one sample.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of an empty sample");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        0.5 * (s[mid - 1] + s[mid])
    }
}

/// Blocks a phase's samples are cut into, about: see [`blocks`].
const BLOCKS: usize = 10;

/// Cut `samples`, in the order they were taken, into consecutive blocks
/// of one length — a multiple of `unit`, chosen so that there are
/// [`BLOCKS`] to `2 × BLOCKS − 1` of them, or one per `unit` where the
/// samples are too few for that. What is left over after the last whole
/// block is not used; fewer samples than one `unit` make a single block.
/// Panics on an empty sample.
fn blocks(samples: &[f64], unit: usize) -> std::slice::ChunksExact<'_, f64> {
    let units = samples.len() / unit;
    let len = match units {
        0 => samples.len(),
        _ => unit * (units / BLOCKS).max(1),
    };
    samples.chunks_exact(len)
}

/// The least of `f` over the [`blocks`] of `samples` — the run's best
/// block. The host takes cycles away for seconds to minutes at a time,
/// which only ever adds to a timing; the blocks it left alone agree from
/// run to run where a statistic over the whole run does not.
pub fn best_block(samples: &[f64], unit: usize, f: fn(&[f64]) -> f64) -> f64 {
    blocks(samples, unit).map(f).fold(f64::INFINITY, f64::min)
}

/// Arithmetic mean of a non-empty sample.
pub fn mean(samples: &[f64]) -> f64 {
    samples.iter().sum::<f64>() / samples.len() as f64
}

/// The highest percentile of `samples` that still has at least ten
/// samples beyond it, as `(percentile, value)`; `None` below eleven
/// samples, where no percentile qualifies.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n <= 10 {
        return None;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let idx = n - 11;
    Some((100.0 * (idx + 1) as f64 / n as f64, s[idx]))
}

/// First and third quartile by the exclusive method — the one Python's
/// `statistics.quantiles(values, n=4)` uses, which the acceptance rule
/// for run-to-run spread is stated in.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    assert!(samples.len() >= 2, "quartiles need two samples");
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |q: usize| {
        let pos = (q * (n + 1)) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        s[j - 1] + frac * (s[j] - s[j - 1])
    };
    (at(1), at(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn blocks_are_whole_units_and_about_ten() {
        let up_to = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        let lens = |n: usize, unit: usize| {
            let v = up_to(n);
            blocks(&v, unit).map(<[f64]>::len).collect::<Vec<_>>()
        };
        assert_eq!(lens(5, 1), [1; 5]);
        assert_eq!(lens(29, 1), [2; 14]);
        assert_eq!(lens(3000, 1), [300; 10]);
        // Whole rebase periods only: 13 epochs are one period, 94 are ten.
        assert_eq!(lens(13, 9), [9]);
        assert_eq!(lens(94, 9), [9; 10]);
        assert_eq!(lens(400, 9), [36; 11]);
        // Fewer than one period (a smoke run): everything, once.
        assert_eq!(lens(4, 9), [4]);
    }

    #[test]
    fn best_block_is_the_least_block_statistic() {
        // Two blocks of one unit each: the slow first block does not count.
        let v = [9.0, 7.0, 8.0, 1.0, 2.0, 6.0];
        assert_eq!(blocks(&v, 3).len(), 2);
        assert_eq!(best_block(&v, 3, median), 2.0);
        assert_eq!(best_block(&v, 3, mean), 3.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond_it() {
        let up_to = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&up_to(10)), None);
        // 11 samples: only the minimum has ten samples beyond it.
        assert_eq!(tail(&up_to(11)), Some((100.0 / 11.0, 1.0)));
        // 100 samples: the 90th value, p90.
        assert_eq!(tail(&up_to(100)), Some((90.0, 90.0)));
        // 1000 samples: p99, and exactly ten samples lie beyond it.
        let (pct, value) = tail(&up_to(1000)).unwrap();
        assert_eq!((pct, value), (99.0, 990.0));
        assert_eq!(up_to(1000).iter().filter(|&&v| v > value).count(), 10);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
    }
}
