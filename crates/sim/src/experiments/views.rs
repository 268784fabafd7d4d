//! **Membership scalability** (Equations 2 and 12) — the per-process view
//! size of pmcast compared with flat membership, both analytically and
//! measured as the seated entries of a bootstrapped
//! [`pmcast_membership::DelegateView`], the tables the engines run.

use serde::{Deserialize, Serialize};

use pmcast_membership::{DelegateView, DelegateViewConfig};

use crate::report::FigureRow;

use super::Profile;

/// One configuration's view-size comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ViewSizeRow {
    /// Subgroups per level (`a`).
    pub arity: f64,
    /// Tree depth (`d`).
    pub depth: f64,
    /// Group size `n = a^d`.
    pub group_size: f64,
    /// Analytical per-process view size (Equation 2 / 12).
    pub analytical_view_size: f64,
    /// View size measured on a bootstrapped delegate table (0 when the
    /// group is too large to materialise).
    pub measured_view_size: f64,
    /// `n / analytical_view_size`.
    pub reduction_factor: f64,
}

impl FigureRow for ViewSizeRow {
    fn headers() -> Vec<&'static str> {
        vec![
            "arity",
            "depth",
            "group_size",
            "analytical_view_size",
            "measured_view_size",
            "reduction_factor",
        ]
    }
    fn values(&self) -> Vec<f64> {
        vec![
            self.arity,
            self.depth,
            self.group_size,
            self.analytical_view_size,
            self.measured_view_size,
            self.reduction_factor,
        ]
    }
}

/// Largest group that is explicitly materialised to cross-check the formula.
const MEASURE_LIMIT: usize = 4_096;

/// Runs the view-size comparison for the given profile.
pub fn run(profile: Profile) -> Vec<ViewSizeRow> {
    let redundancy = 3;
    let configurations: Vec<(u32, usize)> = match profile {
        Profile::Quick => vec![(4, 2), (4, 3), (6, 3), (8, 3)],
        Profile::Paper => vec![(10, 3), (15, 3), (22, 3), (30, 3), (40, 3), (22, 4)],
    };
    configurations
        .into_iter()
        .map(|(arity, depth)| {
            let report = pmcast_analysis::views::view_size_report(arity, depth, redundancy);
            let measured = if report.group_size <= MEASURE_LIMIT {
                let config = DelegateViewConfig::default().with_slots(redundancy);
                let view = DelegateView::bootstrap(arity, depth, config, 0);
                // Process 0's seated delegates and leaf neighbours over all
                // depths, plus itself (a table never stores its owner).
                let seated: usize = (1..=depth)
                    .flat_map(|l| (0..arity as usize).map(move |g| (l, g)))
                    .map(|(l, g)| view.live_delegates_of(0, l, g).len())
                    .sum();
                (seated + 1) as f64
            } else {
                0.0
            };
            ViewSizeRow {
                arity: arity as f64,
                depth: depth as f64,
                group_size: report.group_size as f64,
                analytical_view_size: report.tree_view_size as f64,
                measured_view_size: measured,
                reduction_factor: report.reduction_factor,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measured_views_match_equation_2() {
        let rows = run(Profile::Quick);
        assert!(!rows.is_empty());
        for row in &rows {
            if row.measured_view_size > 0.0 {
                assert!(
                    (row.measured_view_size - row.analytical_view_size).abs() < 1e-9,
                    "a = {}, d = {}: measured {} vs analytical {}",
                    row.arity,
                    row.depth,
                    row.measured_view_size,
                    row.analytical_view_size
                );
            }
            // The tree always knows no more processes than flat membership.
            assert!(row.analytical_view_size <= row.group_size);
        }
        // For the largest quick configuration the reduction is substantial.
        assert!(rows.last().unwrap().reduction_factor > 5.0);
    }
}
