//! **Figure 7** — the effect of the Section 5.3 tuning (audience inflation
//! with threshold `h`) on the delivery probability, compared with the
//! untuned algorithm, over the same configuration as Figure 4.
//!
//! The tuned curve should dominate the untuned one at small matching rates
//! and converge to it for comfortable rates — at the price of a higher
//! reception rate at uninterested processes, which the rows also record.

use serde::{Deserialize, Serialize};

use crate::report::FigureRow;
use crate::runner::Protocol;

use super::{run_point, Profile};

/// The tuning threshold `h` used by the tuned runs.
pub const DEFAULT_THRESHOLD: usize = 12;

/// One data point of Figure 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TuningRow {
    /// Fraction of interested processes (`p_d`).
    pub matching_rate: f64,
    /// Delivery probability of the original (untuned) algorithm.
    pub delivery_original: f64,
    /// Delivery probability with the audience-inflation tuning.
    pub delivery_tuned: f64,
    /// Spurious reception of the original algorithm (for the compromise
    /// discussion of Section 5.3).
    pub spurious_original: f64,
    /// Spurious reception with tuning.
    pub spurious_tuned: f64,
}

impl FigureRow for TuningRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "matching_rate",
            "delivery_original",
            "delivery_tuned",
            "spurious_original",
            "spurious_tuned",
        ]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.matching_rate,
            self.delivery_original,
            self.delivery_tuned,
            self.spurious_original,
            self.spurious_tuned,
        ]
    }
}

/// Runs the Figure 7 sweep for the given profile and threshold.
pub fn run_with_threshold(profile: Profile, threshold: usize) -> Vec<TuningRow> {
    let base = profile.reliability_base();
    profile
        .matching_rates()
        .into_iter()
        .map(|matching_rate| {
            let point = base.clone().matching_rate(matching_rate);
            let untuned = point.clone().build();
            let tuned = point
                .protocol(untuned.protocol.clone().with_tuning(threshold))
                .build();
            let original = run_point(&untuned, Protocol::Pmcast);
            let tuned = run_point(&tuned, Protocol::Pmcast);
            TuningRow {
                matching_rate,
                delivery_original: original.delivery_mean,
                delivery_tuned: tuned.delivery_mean,
                spurious_original: original.spurious_mean,
                spurious_tuned: tuned.spurious_mean,
            }
        })
        .collect()
}

/// Runs the Figure 7 sweep with the default threshold.
pub fn run(profile: Profile) -> Vec<TuningRow> {
    run_with_threshold(profile, DEFAULT_THRESHOLD)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tuning_helps_small_matching_rates() {
        let rows = run(Profile::Quick);
        assert_eq!(rows.len(), Profile::Quick.matching_rates().len());
        // At the smallest swept rate the tuned variant must not be worse
        // (and is usually strictly better).
        let smallest = &rows[0];
        assert!(
            smallest.delivery_tuned + 0.05 >= smallest.delivery_original,
            "tuned {} vs original {} at p_d = {}",
            smallest.delivery_tuned,
            smallest.delivery_original,
            smallest.matching_rate
        );
        // At comfortable rates both variants deliver reliably.
        let largest = rows.last().unwrap();
        assert!(largest.delivery_original > 0.9);
        assert!(largest.delivery_tuned > 0.9);
        // The compromise: tuning never reduces spurious reception.
        for row in &rows {
            assert!(row.spurious_tuned + 1e-9 >= row.spurious_original - 0.05);
        }
    }
}
