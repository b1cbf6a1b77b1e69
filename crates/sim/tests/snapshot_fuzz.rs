//! Snapshot decoding is an input boundary: checkpoints come back from disk,
//! where they can be torn, bit-rotted or written by another build. These
//! tests take a real mid-run `EngineSnapshot` record, damage it with byte
//! flips and truncations, and require `EngineSnapshot::from_json` followed
//! by `Engine::restore` to return `Ok` or `Err` — never to panic.

use std::sync::OnceLock;

use proptest::prelude::*;

use rr_alloc::BitmapAllocator;
use rr_runtime::{SchedCosts, UnloadPolicyKind};
use rr_sim::{Engine, EngineSnapshot, SimOptions, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

/// A snapshot of a synchronization run under register pressure, paused
/// mid-run: residents, a populated supply queue, outstanding timers, spin
/// charges and a checkpoint trail are all in the record.
fn mid_run_snapshot() -> &'static str {
    static JSON: OnceLock<String> = OnceLock::new();
    JSON.get_or_init(|| {
        let workload = WorkloadBuilder::new()
            .threads(24)
            .run_length(Dist::Geometric { mean: 32.0 })
            .latency(Dist::Exponential { mean: 800.0 })
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(4_000)
            .seed(11)
            .build()
            .unwrap();
        let mut engine = Engine::new(
            BitmapAllocator::new(64).unwrap(),
            SchedCosts::sync_experiments(),
            UnloadPolicyKind::two_phase(),
            workload,
            SimOptions::sync_experiments(),
        )
        .unwrap();
        assert!(!engine.advance(20_000), "the run is still going at the pause");
        let snap = engine.snapshot();
        assert!(!snap.timers.is_empty() && !snap.supply.is_empty(), "a busy snapshot");
        snap.to_json()
    })
}

/// Decodes and restores `bytes` the way a checkpointed sweep does. Any
/// panic fails the calling test; both outcomes are fine.
fn decode_and_restore(bytes: &[u8]) -> Result<(), SnapshotError> {
    let text = String::from_utf8_lossy(bytes);
    let snap = EngineSnapshot::from_json(&text)?;
    Engine::restore(&snap).map(|_| ())
}

#[test]
fn the_undamaged_record_restores() {
    assert_eq!(decode_and_restore(mid_run_snapshot().as_bytes()), Ok(()));
}

#[test]
fn schema_v1_snapshots_are_refused() {
    // A version-1 record: the same state plus the bucket ring's
    // granularity, which version 2 dropped.
    let v2 = mid_run_snapshot();
    let stamp = format!("\"schema_version\":{SNAPSHOT_SCHEMA_VERSION},");
    assert!(v2.contains(&stamp));
    let v1 = v2.replacen(&stamp, "\"schema_version\":1,", 1).replacen(
        "\"timers\":",
        "\"timer_shift\":4,\"timers\":",
        1,
    );
    assert_eq!(
        EngineSnapshot::from_json(&v1),
        Err(SnapshotError::SchemaMismatch { found: 1, expected: SNAPSHOT_SCHEMA_VERSION })
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(400))]

    /// Up to four bytes replaced anywhere in the record.
    #[test]
    fn byte_flips_never_panic(
        flips in prop::collection::vec((0.0f64..1.0, 1u8..=255), 1..5),
    ) {
        let mut bytes = mid_run_snapshot().as_bytes().to_vec();
        for (at, mask) in flips {
            let i = (at * bytes.len() as f64) as usize;
            bytes[i] ^= mask;
        }
        let _ = decode_and_restore(&bytes);
    }

    /// The record cut short anywhere, as a torn write leaves it.
    #[test]
    fn truncations_never_panic(cut in 0.0f64..1.0) {
        let bytes = mid_run_snapshot().as_bytes();
        let n = (cut * bytes.len() as f64) as usize;
        prop_assert!(decode_and_restore(&bytes[..n]).is_err(), "a strict prefix cannot decode");
    }

    /// A single digit rewritten: the record still parses, so the damage
    /// reaches `restore`'s validation instead of the decoder.
    #[test]
    fn digit_edits_never_panic(at in 0.0f64..1.0, digit in 0u8..10) {
        let mut bytes = mid_run_snapshot().as_bytes().to_vec();
        let start = (at * bytes.len() as f64) as usize;
        if let Some(i) = (start..bytes.len()).find(|&i| bytes[i].is_ascii_digit()) {
            bytes[i] = b'0' + digit;
        }
        let _ = decode_and_restore(&bytes);
    }
}
