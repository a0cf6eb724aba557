//! The quartile estimator against a brute-force definition.

use ron_benchmark::estimate::{best_quartile_mean, mean, quartiles};
use ron_benchmark::inputs::Rng;
use ron_benchmark::spec::Better;

/// Nearest rank by counting: the smallest sample value with at least
/// `q * n` of the sample at or below it.
fn brute_force(values: &[f64], q: f64) -> f64 {
    let mut candidates: Vec<f64> = values.to_vec();
    candidates.sort_by(f64::total_cmp);
    for &c in &candidates {
        let at_or_below = values.iter().filter(|&&v| v <= c).count();
        if at_or_below as f64 >= q * values.len() as f64 {
            return c;
        }
    }
    unreachable!("the maximum has the whole sample at or below it")
}

#[test]
fn quartiles_match_brute_force_on_random_samples() {
    let mut rng = Rng::new(7, 0);
    for len in 1..=200usize {
        let values: Vec<f64> = (0..len).map(|_| (rng.below(1000) as f64) / 7.0).collect();
        let q = quartiles(&values);
        assert_eq!(q.n, len);
        assert_eq!(q.p25, brute_force(&values, 0.25), "p25 of {len}");
        assert_eq!(q.p50, brute_force(&values, 0.50), "p50 of {len}");
        assert_eq!(q.p75, brute_force(&values, 0.75), "p75 of {len}");
        assert_eq!(q.min, values.iter().copied().fold(f64::INFINITY, f64::min));
        assert_eq!(
            q.max,
            values.iter().copied().fold(f64::NEG_INFINITY, f64::max)
        );
        assert!(q.min <= q.p25 && q.p25 <= q.p50 && q.p50 <= q.p75 && q.p75 <= q.max);
    }
}

#[test]
fn best_and_best_quartile_follow_the_direction() {
    let q = quartiles(&[4.0, 1.0, 3.0, 2.0]);
    assert_eq!((q.p25, q.p50, q.p75), (1.0, 2.0, 3.0));
    assert_eq!(q.best(Better::Lower), 1.0);
    assert_eq!(q.best(Better::Higher), 4.0);
    assert_eq!(q.best_quartile(Better::Lower), 1.0);
    assert_eq!(q.best_quartile(Better::Higher), 3.0);
}

#[test]
fn a_long_slow_burst_moves_every_quartile_but_not_the_best() {
    // 20 clean batches and a burst that slows 80 by a third: the
    // quartiles all read the burst, the best batch does not.
    let mut latencies = vec![1.0; 20];
    latencies.extend(vec![1.5; 80]);
    let q = quartiles(&latencies);
    assert_eq!((q.p25, q.p50, q.p75), (1.5, 1.5, 1.5));
    assert_eq!(q.best(Better::Lower), 1.0);
}

#[test]
fn more_samples_improve_the_best_but_not_the_best_quartile() {
    // Why a best-of phase takes a fixed number of samples, and why the
    // epochs, whose number follows their speed, report a quartile.
    let mut rng = Rng::new(11, 0);
    let values: Vec<f64> = (0..4096)
        .map(|_| 1.0 + rng.below(1000) as f64 / 1000.0)
        .collect();
    let (few, many) = (quartiles(&values[..64]), quartiles(&values));
    assert!(many.best(Better::Lower) < few.best(Better::Lower));
    let (a, b) = (
        few.best_quartile(Better::Lower),
        many.best_quartile(Better::Lower),
    );
    assert!((a - b).abs() < 0.1 * a);
}

#[test]
fn best_quartile_mean_matches_brute_force() {
    let mut rng = Rng::new(13, 0);
    for len in 1..=100usize {
        let values: Vec<f64> = (0..len).map(|_| rng.below(50) as f64).collect();
        let mut sorted = values.clone();
        sorted.sort_by(f64::total_cmp);
        let k = len.div_ceil(4);
        let low = sorted[..k].iter().sum::<f64>() / k as f64;
        let high = sorted[len - k..].iter().sum::<f64>() / k as f64;
        assert_eq!(best_quartile_mean(&values, Better::Lower), low);
        assert!((best_quartile_mean(&values, Better::Higher) - high).abs() < 1e-9);
    }
    // Whole-nanosecond medians: the best reads 110 on both runs, the
    // mean of the best quarter tells them apart.
    let a = [110.0, 110.0, 111.0, 111.0, 111.0, 112.0, 112.0, 112.0];
    let b = [110.0, 111.0, 111.0, 111.0, 111.0, 112.0, 112.0, 112.0];
    assert_eq!(best_quartile_mean(&a, Better::Lower), 110.0);
    assert_eq!(best_quartile_mean(&b, Better::Lower), 110.5);
}

#[test]
fn mean_of_nothing_is_zero() {
    assert_eq!(mean(&[]), 0.0);
    assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
}
