//! Workload generators: who is interested in what.
//!
//! The paper's analysis and figures use the simplest possible workload —
//! every process is interested in a given event independently with
//! probability `p_d` (Section 4.1; `AssignmentOracle::sample`) — but the
//! motivation is content-based publish/subscribe, so this module provides a
//! structured workload: a stock ticker with real attribute filters in the
//! style of the paper's Figure 2.

use pmcast_interest::{Event, Filter, Predicate};
use rand::seq::SliceRandom;
use rand::Rng;

/// The symbols of the stock-ticker workload.
pub const TICKER_SYMBOLS: [&str; 8] = [
    "ABB", "CSGN", "NESN", "NOVN", "ROG", "UBSG", "ZURN", "SWX",
];

/// Generates a content-based subscription for one process of the
/// stock-ticker workload: the subscriber follows a random subset of symbols
/// and only wants trades above a personal price threshold (and optionally
/// above a volume threshold), mirroring the attribute mix of Figure 2.
pub fn ticker_subscription<R: Rng>(rng: &mut R) -> Filter {
    let follow_count = rng.gen_range(1..=3);
    let followed: Vec<&str> = TICKER_SYMBOLS
        .choose_multiple(rng, follow_count)
        .copied()
        .collect();
    let mut filter = Filter::new().with("symbol", Predicate::one_of(followed));
    if rng.gen_bool(0.7) {
        filter.set("price", Predicate::gt(rng.gen_range(10.0..500.0)));
    }
    if rng.gen_bool(0.3) {
        filter.set("volume", Predicate::ge(rng.gen_range(100.0..10_000.0)));
    }
    filter
}

/// Generates one trade event of the stock-ticker workload.
pub fn ticker_event<R: Rng>(id: u64, rng: &mut R) -> Event {
    let symbol = *TICKER_SYMBOLS.choose(rng).expect("symbol list is non-empty");
    Event::builder(id)
        .str("symbol", symbol)
        .float("price", rng.gen_range(5.0..1_000.0))
        .int("volume", rng.gen_range(1..50_000))
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmcast_interest::Interest;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn ticker_subscriptions_match_some_events() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let subscriptions: Vec<Filter> = (0..50).map(|_| ticker_subscription(&mut rng)).collect();
        let events: Vec<Event> = (0..50).map(|i| ticker_event(i, &mut rng)).collect();
        let mut matches = 0usize;
        for s in &subscriptions {
            for e in &events {
                if s.matches(e) {
                    matches += 1;
                }
            }
        }
        // The workload is selective but not degenerate: some but not all
        // (subscription, event) pairs match.
        assert!(matches > 0, "no subscription matched any event");
        assert!(matches < 50 * 50 / 2, "workload matches almost everything");
    }

    #[test]
    fn ticker_events_have_the_expected_attributes() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let event = ticker_event(7, &mut rng);
        assert!(event.get("symbol").is_some());
        assert!(event.get("price").is_some());
        assert!(event.get("volume").is_some());
        assert_eq!(event.id().0, 7);
    }

    #[test]
    fn generators_are_deterministic_per_seed() {
        let e1 = ticker_event(1, &mut ChaCha8Rng::seed_from_u64(9));
        let e2 = ticker_event(1, &mut ChaCha8Rng::seed_from_u64(9));
        assert_eq!(e1, e2);
    }
}
