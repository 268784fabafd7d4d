//! Membership-scalability model (Equations 2 and 12).
//!
//! In a regular tree every process knows `R` delegates for each of the `a`
//! subgroups of every inner depth plus its `a` immediate neighbours:
//! `m = R·a·(d − 1) + a ∈ O(d·R·n^(1/d))`, to be compared with the `n`
//! entries a flat membership (as used by classic gossip broadcast
//! algorithms) requires.

/// Per-process view-size figures for one tree configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ViewSizeReport {
    /// Subgroups per level (`a`).
    pub arity: u32,
    /// Tree depth (`d`).
    pub depth: usize,
    /// Delegates per subgroup (`R`).
    pub redundancy: usize,
    /// Group size `n = a^d`.
    pub group_size: usize,
    /// Process entries per process in pmcast (Equation 2 / 12).
    pub tree_view_size: usize,
    /// Process entries per process with flat membership (`n`).
    pub flat_view_size: usize,
    /// `flat_view_size / tree_view_size`.
    pub reduction_factor: f64,
}

/// Per-process number of known processes in a regular pmcast tree
/// (Equation 12 summed over depths): `R·a·(d − 1) + a`.
pub fn tree_view_size(arity: u32, depth: usize, redundancy: usize) -> usize {
    if depth == 0 {
        return 0;
    }
    redundancy * arity as usize * (depth - 1) + arity as usize
}

/// Builds the full comparison report for one configuration.
pub fn view_size_report(arity: u32, depth: usize, redundancy: usize) -> ViewSizeReport {
    let group_size = (arity as usize).pow(depth as u32);
    let tree = tree_view_size(arity, depth, redundancy);
    ViewSizeReport {
        arity,
        depth,
        redundancy,
        group_size,
        tree_view_size: tree,
        flat_view_size: group_size,
        reduction_factor: if tree == 0 {
            0.0
        } else {
            group_size as f64 / tree as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_12_example_values() {
        // a = 22, d = 3, R = 3: m = 3·22·2 + 22 = 154 known processes
        // instead of 10 648 with flat membership.
        assert_eq!(tree_view_size(22, 3, 3), 154);
        let report = view_size_report(22, 3, 3);
        assert_eq!(report.group_size, 10_648);
        assert_eq!(report.flat_view_size, 10_648);
        assert!(report.reduction_factor > 69.0 && report.reduction_factor < 70.0);
    }

    #[test]
    fn degenerate_depths() {
        assert_eq!(tree_view_size(10, 1, 3), 10);
        assert_eq!(tree_view_size(10, 0, 3), 0);
        let report = view_size_report(10, 1, 3);
        assert_eq!(report.tree_view_size, report.flat_view_size);
        assert!((report.reduction_factor - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_trees_shrink_views_for_large_groups() {
        let flat = view_size_report(10_000, 1, 3);
        let shallow = view_size_report(100, 2, 3);
        let deep = view_size_report(10, 4, 3);
        // All three describe a group of 10 000 processes.
        assert_eq!(flat.group_size, 10_000);
        assert_eq!(shallow.group_size, 10_000);
        assert_eq!(deep.group_size, 10_000);
        assert!(shallow.tree_view_size < flat.tree_view_size);
        assert!(deep.tree_view_size < shallow.tree_view_size);
    }
}
