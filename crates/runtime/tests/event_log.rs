//! Property tests for [`EventLog`]: the compact encoding must be lossless
//! for every event it can be handed — all 17 `EventKind` variants, stamps
//! in any order (decreasing ones included), and the extreme values of every
//! field — and it must serialize exactly like the `Vec<Event>` it replaces.

use proptest::prelude::*;

use rr_runtime::{CostBucket, Event, EventKind, EventLog, OsRoutine};

fn u64s() -> BoxedStrategy<u64> {
    prop_oneof![
        Just(0u64),
        Just(u64::MAX),
        0u64..300,
        any::<u64>(),
    ]
    .boxed()
}

fn usizes() -> BoxedStrategy<usize> {
    prop_oneof![Just(0usize), Just(usize::MAX), 0usize..300, any::<usize>()].boxed()
}

fn u32s() -> BoxedStrategy<u32> {
    prop_oneof![Just(0u32), Just(u32::MAX), 0u32..300, any::<u32>()].boxed()
}

fn u16s() -> BoxedStrategy<u16> {
    prop_oneof![Just(0u16), Just(u16::MAX), 0u16..300, any::<u16>()].boxed()
}

fn threads() -> BoxedStrategy<Option<usize>> {
    prop_oneof![Just(None), Just(Some(0usize)), usizes().prop_map(Some)].boxed()
}

fn drained() -> BoxedStrategy<Option<u64>> {
    prop_oneof![Just(None), Just(Some(0u64)), u64s().prop_map(Some)].boxed()
}

/// Ordinary fractions plus every awkward bit pattern: NaNs with arbitrary
/// payloads and signs, `-0.0`, and both infinities.
fn trims() -> BoxedStrategy<f64> {
    prop_oneof![
        0.0f64..0.5,
        Just(-0.0f64),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(f64::NAN),
        any::<u64>().prop_map(|m| f64::from_bits(0x7ff0_0000_0000_0001 | (m & 0x800f_ffff_ffff_ffff))),
        any::<u64>().prop_map(f64::from_bits),
    ]
    .boxed()
}

fn buckets() -> BoxedStrategy<CostBucket> {
    (0usize..CostBucket::ALL.len()).prop_map(|i| CostBucket::ALL[i]).boxed()
}

fn routines() -> BoxedStrategy<OsRoutine> {
    prop_oneof![
        Just(OsRoutine::AllocInit),
        Just(OsRoutine::Alloc),
        Just(OsRoutine::Dealloc),
        Just(OsRoutine::Load),
        Just(OsRoutine::Unload),
    ]
    .boxed()
}

fn kinds() -> BoxedStrategy<EventKind> {
    prop_oneof![
        (usizes(), u64s(), usizes(), trims()).prop_map(|(threads, interval, cap, trim)| {
            EventKind::RunStart {
                threads,
                checkpoint_interval: interval,
                checkpoint_cap: cap,
                transient_trim: trim,
            }
        }),
        (buckets(), u64s(), usizes(), threads()).prop_map(|(bucket, cycles, resident, thread)| {
            EventKind::Charge { bucket, cycles, resident, thread }
        }),
        (usizes(), usizes()).prop_map(|(thread, hops)| EventKind::SwitchTo { thread, hops }),
        usizes().prop_map(|thread| EventKind::ThreadSpawn { thread }),
        (usizes(), u64s(), u64s())
            .prop_map(|(thread, latency, wake)| EventKind::Fault { thread, latency, wake }),
        usizes().prop_map(|thread| EventKind::ThreadResume { thread }),
        usizes().prop_map(|thread| EventKind::ThreadRequeue { thread }),
        (usizes(), u32s()).prop_map(|(thread, regs)| EventKind::AllocSuccess { thread, regs }),
        (usizes(), u32s()).prop_map(|(thread, regs)| EventKind::AllocFailure { thread, regs }),
        (usizes(), u32s(), u16s(), usizes()).prop_map(|(thread, regs, base, resident)| {
            EventKind::ContextLoad { thread, regs, base, resident }
        }),
        (usizes(), u32s(), u16s(), usizes()).prop_map(|(thread, regs, base, resident)| {
            EventKind::ContextUnload { thread, regs, base, resident }
        }),
        (usizes(), u64s(), u64s()).prop_map(|(thread, accumulated, budget)| {
            EventKind::SpinStep { thread, accumulated, budget }
        }),
        u64s().prop_map(|until| EventKind::IdleStart { until }),
        Just(EventKind::IdleEnd),
        usizes().prop_map(|thread| EventKind::ThreadComplete { thread }),
        (routines(), u64s()).prop_map(|(routine, cycles)| EventKind::OsCall { routine, cycles }),
        (u64s(), drained()).prop_map(|(total_cycles, supply_drained_at)| EventKind::RunEnd {
            total_cycles,
            supply_drained_at,
        }),
    ]
    .boxed()
}

/// Streams whose stamps wander freely: up, down, repeated, and extreme.
fn streams() -> impl Strategy<Value = Vec<Event>> {
    prop::collection::vec(
        (u64s(), kinds()).prop_map(|(cycle, kind)| Event { cycle, kind }),
        0..64,
    )
}

/// `Event` equality with the trim compared by bits, so NaN payloads and
/// the sign of zero count.
fn identical(a: &Event, b: &Event) -> bool {
    match (a.kind, b.kind) {
        (
            EventKind::RunStart { transient_trim: ta, .. },
            EventKind::RunStart { transient_trim: tb, .. },
        ) => {
            let zero = |k| match k {
                EventKind::RunStart { threads, checkpoint_interval, checkpoint_cap, .. } => {
                    EventKind::RunStart {
                        threads,
                        checkpoint_interval,
                        checkpoint_cap,
                        transient_trim: 0.0,
                    }
                }
                other => other,
            };
            a.cycle == b.cycle && ta.to_bits() == tb.to_bits() && zero(a.kind) == zero(b.kind)
        }
        _ => a == b,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    #[test]
    fn logs_round_trip_every_event_exactly(events in streams()) {
        let log: EventLog = events.iter().copied().collect();
        prop_assert_eq!(log.len(), events.len());
        prop_assert_eq!(log.is_empty(), events.is_empty());
        prop_assert_eq!(log.iter().len(), events.len());
        let back: Vec<Event> = log.iter().collect();
        prop_assert_eq!(back.len(), events.len());
        for (i, (got, want)) in back.iter().zip(&events).enumerate() {
            prop_assert!(identical(got, want), "event {}: {:?} decoded as {:?}", i, want, got);
        }
        match (log.last(), events.last()) {
            (Some(got), Some(want)) => prop_assert!(identical(&got, want)),
            (got, want) => prop_assert!(got.is_none() && want.is_none()),
        }
    }

    #[test]
    fn logs_serialize_like_the_vec(events in streams()) {
        let log: EventLog = events.iter().copied().collect();
        let json = serde_json::to_string(&log).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&events).unwrap());
        // Parsing back agrees with the Vec too (non-finite trims print as
        // null, which neither accepts).
        let parsed = serde_json::from_str::<EventLog>(&json).ok();
        let via_vec = serde_json::from_str::<Vec<Event>>(&json).ok().map(EventLog::from_iter);
        prop_assert!(parsed == via_vec, "EventLog and Vec<Event> parse {} differently", json);
    }

    #[test]
    fn appending_in_pieces_matches_collecting_at_once(
        events in streams(),
        cut in 0usize..64,
    ) {
        let cut = cut.min(events.len());
        let mut log: EventLog = events[..cut].iter().copied().collect();
        log.extend(events[cut..].iter().copied());
        let whole: EventLog = events.iter().copied().collect();
        prop_assert!(log == whole, "piecewise log differs from the collected one");
    }
}
