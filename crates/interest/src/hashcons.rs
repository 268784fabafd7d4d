/// Counters of an audience-sharing table: how many lookups an existing
/// entry served and how many distinct values were built.  Reported by the
/// topic oracle (coinciding topic audiences share one allocation) and by
/// the genuine-multicast baseline's per-key audience directory.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InternStats {
    /// Lookups answered by an already-built value (no allocation).
    pub hits: u64,
    /// Lookups that had to build a new value.
    pub misses: u64,
    /// Entries the table currently holds.
    pub live: usize,
    /// Entries the table has dropped again.
    pub reclaimed: u64,
}

impl InternStats {
    /// Fraction of lookups served without allocating, in `[0, 1]`.
    /// Returns 1.0 for an untouched table (vacuously all hits).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            1.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_hits_over_lookups() {
        assert_eq!(InternStats::default().hit_rate(), 1.0);
        let stats = InternStats { hits: 3, misses: 1, live: 1, reclaimed: 0 };
        assert_eq!(stats.hit_rate(), 0.75);
    }
}
