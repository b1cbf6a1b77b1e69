//! Property tests for `SimStats::retain_efficiency_window`: cutting a
//! finished run's checkpoint trail down to its efficiency-window bracket
//! must leave `efficiency()` bit-identical, be idempotent, and keep at most
//! two pairs.

use proptest::prelude::*;

use rr_sim::SimStats;

/// A finished run's statistics with a random checkpoint trail: cycles
/// non-decreasing (repeated cycles repeat the whole pair, as the engine's
/// catch-up loop records them), busy counts monotone and never ahead of
/// the clock.
fn arb_stats() -> impl Strategy<Value = SimStats> {
    (
        prop::collection::vec((0u64..300, 0.0f64..1.0), 0..64),
        0u64..2000,
        0u64..500,
        0.0f64..0.5,
        any::<bool>(),
        0.0f64..1.0,
        0.0f64..1.0,
    )
        .prop_map(|(steps, start, tail, trim, drained, drained_at, idle_share)| {
            let mut cycle = start;
            let mut busy = 0u64;
            let mut checkpoints = Vec::with_capacity(steps.len());
            for (dc, share) in steps {
                cycle += dc;
                busy += (dc as f64 * share) as u64;
                checkpoints.push((cycle, busy));
            }
            let total_cycles = cycle + tail;
            let busy_cycles = busy + (tail as f64 * (1.0 - idle_share)) as u64;
            SimStats {
                total_cycles,
                busy_cycles,
                idle_cycles: total_cycles - busy_cycles,
                checkpoints,
                transient_trim: trim,
                supply_drained_at: drained
                    .then_some((total_cycles as f64 * drained_at) as u64),
                ..SimStats::default()
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The window efficiency reads the same two pairs before and after.
    #[test]
    fn trimming_keeps_efficiency_bit_identical(stats in arb_stats()) {
        let mut trimmed = stats.clone();
        trimmed.retain_efficiency_window();
        prop_assert_eq!(trimmed.efficiency().to_bits(), stats.efficiency().to_bits());
    }

    /// At most two pairs remain, in strictly increasing cycle order, each
    /// one taken from the original trail; everything else is untouched.
    #[test]
    fn trimming_keeps_at_most_two_original_pairs(stats in arb_stats()) {
        let mut trimmed = stats.clone();
        trimmed.retain_efficiency_window();
        prop_assert!(trimmed.checkpoints.len() <= 2, "{:?}", trimmed.checkpoints);
        prop_assert!(trimmed.checkpoints.windows(2).all(|w| w[0].0 < w[1].0));
        prop_assert!(trimmed.checkpoints.iter().all(|p| stats.checkpoints.contains(p)));
        trimmed.checkpoints = stats.checkpoints.clone();
        prop_assert_eq!(trimmed, stats);
    }

    /// Trimming twice equals trimming once.
    #[test]
    fn trimming_is_idempotent(stats in arb_stats()) {
        let mut once = stats;
        once.retain_efficiency_window();
        let mut twice = once.clone();
        twice.retain_efficiency_window();
        prop_assert_eq!(twice, once);
    }
}
