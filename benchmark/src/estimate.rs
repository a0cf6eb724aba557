//! The estimators. Interference on the shared box only ever slows a
//! sample, and its bursts often outlast most of a run, so the cleanest
//! samples are the best ones:
//!
//! - a phase that takes a *fixed number* of samples (serving batches,
//!   builds, live passes) reports the best of them, the minimum of a
//!   latency or duration and the maximum of a rate. The count is fixed
//!   because an extreme improves with the size of its sample: were it
//!   whatever fits the phase's seconds, a faster commit would get more
//!   batches and a better best for that alone;
//! - the epochs, whose number depends on how long each takes, report
//!   their best quartile (p25), which does not depend on the count;
//! - `lookup_p50_us` is the mean of the best quartile of the per-batch
//!   medians: a batch's median is a whole number of nanoseconds (110 or
//!   111 on `serve-hot`), so the best batch would read the same on most
//!   runs, which the driver takes for a constant;
//! - `setup_s` is the median of the run's set-ups, as the driver asks.
//!
//! README.md has the spreads of each choice over ten seeds. The
//! quartiles and the sample count are printed beside every reported
//! value so the spread stays visible.

use ron_core::stats::nearest_rank;

use crate::spec::Better;

/// Extremes and nearest-rank quartiles of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub p25: f64,
    pub p50: f64,
    pub p75: f64,
    pub max: f64,
    pub n: usize,
}

/// Sorts a sample ascending (values are finite measurements).
pub fn sort(values: &mut [f64]) {
    values.sort_by(f64::total_cmp);
}

/// Quartiles of an unsorted sample.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn quartiles(values: &[f64]) -> Quartiles {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    Quartiles {
        min: sorted[0],
        p25: nearest_rank(&sorted, 0.25),
        p50: nearest_rank(&sorted, 0.50),
        p75: nearest_rank(&sorted, 0.75),
        max: sorted[sorted.len() - 1],
        n: sorted.len(),
    }
}

impl Quartiles {
    /// The best sample: the smallest when lower is better, the largest
    /// when higher is.
    #[must_use]
    pub fn best(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.min,
            Better::Higher => self.max,
        }
    }

    /// The best quartile: p25 when lower is better, p75 when higher is.
    #[must_use]
    pub fn best_quartile(&self, better: Better) -> f64 {
        match better {
            Better::Lower => self.p25,
            Better::Higher => self.p75,
        }
    }
}

/// Mean of the best quarter of a sample (at least one value): the
/// smallest when lower is better, the largest when higher is.
///
/// # Panics
///
/// Panics on an empty sample.
#[must_use]
pub fn best_quartile_mean(values: &[f64], better: Better) -> f64 {
    let mut sorted = values.to_vec();
    sort(&mut sorted);
    if better == Better::Higher {
        sorted.reverse();
    }
    mean(&sorted[..sorted.len().div_ceil(4)])
}

/// Arithmetic mean (`0.0` for an empty sample).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}
