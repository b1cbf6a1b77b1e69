//! Golden pinning of the engine's cycle-exact behavior.
//!
//! These constants were captured from the engine *before* the hot-path
//! restructuring (enum-dispatched allocator, timer ring, struct-of-arrays
//! arenas, branchless cost charging) and pin the optimized engine
//! bit-identical to that capture: for a deterministic set of pseudo-random
//! specs covering both architectures (fixed windows, register relocation)
//! and both fault families (constant-latency cache misses with the
//! never-unload policy, exponential synchronization waits with the
//! two-phase policy), the full `SimStats` and the recorded event stream
//! must hash to exactly the values below.
//!
//! Every run is additionally replayed through the [`EventAccountant`]
//! oracle, so the event stream's self-accounting invariants are enforced
//! alongside the hashes.
//!
//! The hashes were re-captured at `CODE_VERSION` 3, when a finished run
//! started keeping only the (at most two) checkpoints its steady-state
//! efficiency window reads. Before the re-capture, every case's new
//! `SimStats` was checked equal, field by field, to the version-2 stats
//! with their trail cut the same way, and `efficiency()` bit-equal; the
//! event streams did not change.
//!
//! To regenerate after an *intentional* behavior change (which must also
//! bump `rr_sim::CODE_VERSION`), run with `RR_GOLDEN_PRINT=1` and paste
//! the printed table.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use rr_alloc::{AnyAllocator, BitmapAllocator, FixedSlots};
use rr_runtime::{EventLog, SchedCosts, UnloadPolicyKind};
use rr_sim::{Engine, EventAccountant, SimOptions};
use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

/// FNV-1a, 64-bit: tiny, dependency-free, and stable across platforms.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Debug)]
struct GoldenCase {
    fixed: bool,
    sync: bool,
    file_size: u32,
    threads: usize,
    run_mean: f64,
    latency: u64,
    ctx_fixed: u32,
    work: u64,
    seed: u64,
}

/// Deterministic pseudo-random spec set: 12 base scenarios, each expanded
/// over {fixed, flexible} × {cache, sync} = 48 runs.
fn golden_cases() -> Vec<GoldenCase> {
    let mut rng = SmallRng::seed_from_u64(0x5252_4742);
    let mut cases = Vec::new();
    for i in 0..12u64 {
        let file_size = *[64u32, 128, 256].get(rng.gen_range(0..3usize)).unwrap();
        let threads = rng.gen_range(2..24usize);
        let run_mean = rng.gen_range(4.0..96.0f64);
        let latency = rng.gen_range(20..900u64);
        let ctx_fixed = *[4u32, 8, 16, 32].get(rng.gen_range(0..4usize)).unwrap();
        let work = rng.gen_range(500..4000u64);
        let seed = rng.gen_range(0..10_000u64) + i;
        for fixed in [false, true] {
            for sync in [false, true] {
                cases.push(GoldenCase {
                    fixed,
                    sync,
                    file_size,
                    threads,
                    run_mean,
                    latency,
                    ctx_fixed,
                    work,
                    seed,
                });
            }
        }
    }
    cases
}

/// Runs one case with a recording sink and returns the FNV hash of the
/// serialized stats plus event stream, enforcing the replay oracle.
fn run_case(c: &GoldenCase) -> u64 {
    let latency_dist = if c.sync {
        Dist::Exponential { mean: c.latency as f64 }
    } else {
        Dist::Constant(c.latency)
    };
    let workload = WorkloadBuilder::new()
        .threads(c.threads)
        .run_length(Dist::Geometric { mean: c.run_mean })
        .latency(latency_dist)
        .context_size(ContextSizeDist::Fixed(c.ctx_fixed))
        .work_per_thread(c.work)
        .seed(c.seed)
        .build()
        .unwrap();
    let alloc: AnyAllocator = if c.fixed {
        FixedSlots::new(c.file_size).unwrap().into()
    } else {
        BitmapAllocator::new(c.file_size).unwrap().into()
    };
    let (sched, policy, opts) = if c.sync {
        (
            SchedCosts::sync_experiments(),
            UnloadPolicyKind::two_phase(),
            SimOptions { max_cycles: 2_000_000, ..SimOptions::sync_experiments() },
        )
    } else {
        (
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            SimOptions { max_cycles: 2_000_000, ..SimOptions::cache_experiments() },
        )
    };
    let engine =
        Engine::with_sink(alloc, sched, policy, workload, opts, EventLog::new()).unwrap();
    let (stats, events) = engine.run_with_sink();

    // Replay oracle: the event stream must reconstruct the stats exactly,
    // bit-for-bit (including the f64 `avg_resident`).
    let replayed = EventAccountant::replay(&events).expect("event stream self-accounts");
    assert_eq!(replayed, stats, "replay oracle diverged for {c:?}");

    let stats_json = serde_json::to_string(&stats).unwrap();
    let events_json = serde_json::to_string(&events).unwrap();
    let mut buf = Vec::with_capacity(stats_json.len() + events_json.len() + 1);
    buf.extend_from_slice(stats_json.as_bytes());
    buf.push(b'|');
    buf.extend_from_slice(events_json.as_bytes());
    fnv1a(&buf)
}

/// Per-case hashes (pre-optimization behavior, trail trimmed). Indexed in
/// `golden_cases()` order; one line per (scenario, arch, family) run.
const GOLDEN_HASHES: [u64; 48] = [
    0x6e1cabf5d7b31a8d, // case 0: fixed: false, sync: false
    0x1096505346f436da, // case 1: fixed: false, sync: true
    0x3bcfce0fae5708ec, // case 2: fixed: true, sync: false
    0x8a7b1cb02c25fe9a, // case 3: fixed: true, sync: true
    0xd812a24bddc507af, // case 4: fixed: false, sync: false
    0xf5739490dd4630f3, // case 5: fixed: false, sync: true
    0x7cc26905bfad8ad3, // case 6: fixed: true, sync: false
    0x383b6ffb84d0a84d, // case 7: fixed: true, sync: true
    0x6358af5dae6cbe3b, // case 8: fixed: false, sync: false
    0x1846efc562f14bb3, // case 9: fixed: false, sync: true
    0xc6bd577b343e6893, // case 10: fixed: true, sync: false
    0x35cb823440579d71, // case 11: fixed: true, sync: true
    0xa2853f0baff540a8, // case 12: fixed: false, sync: false
    0x67c60d53473fc4fe, // case 13: fixed: false, sync: true
    0x7407589cb9efd719, // case 14: fixed: true, sync: false
    0x42e392c4f5295ffc, // case 15: fixed: true, sync: true
    0x887c6e0b932d0fde, // case 16: fixed: false, sync: false
    0x920885caa66e0973, // case 17: fixed: false, sync: true
    0xb852baa36265ed69, // case 18: fixed: true, sync: false
    0x80343f3c1b1348b5, // case 19: fixed: true, sync: true
    0x65a4cae0824b4096, // case 20: fixed: false, sync: false
    0xfbf0702444d03e11, // case 21: fixed: false, sync: true
    0xd9d44407c61be028, // case 22: fixed: true, sync: false
    0xefdf2954610ce9fd, // case 23: fixed: true, sync: true
    0x44170dcb78025b82, // case 24: fixed: false, sync: false
    0x2a7d4040bcb85075, // case 25: fixed: false, sync: true
    0x49368bb3ab646750, // case 26: fixed: true, sync: false
    0x51081ada1041e9dc, // case 27: fixed: true, sync: true
    0x81fdd6bf1816311d, // case 28: fixed: false, sync: false
    0x61855b9d80eb525b, // case 29: fixed: false, sync: true
    0x645e6af6c42caad0, // case 30: fixed: true, sync: false
    0x88abf3cd0540a147, // case 31: fixed: true, sync: true
    0x30910412f3cfcbc1, // case 32: fixed: false, sync: false
    0x0920a68c69fa14ed, // case 33: fixed: false, sync: true
    0xc684f69c33c339c7, // case 34: fixed: true, sync: false
    0xaea599d28a161a93, // case 35: fixed: true, sync: true
    0x56031e45f9e7e413, // case 36: fixed: false, sync: false
    0x28c98253851d942b, // case 37: fixed: false, sync: true
    0xf995be86fc7851e5, // case 38: fixed: true, sync: false
    0x53435e89b825a52f, // case 39: fixed: true, sync: true
    0xa38af1bb08155972, // case 40: fixed: false, sync: false
    0x2d4a31d5b6379e23, // case 41: fixed: false, sync: true
    0x114d554ce595a34a, // case 42: fixed: true, sync: false
    0x8ebfe027f8ecc14c, // case 43: fixed: true, sync: true
    0x2f55f5b0a3303966, // case 44: fixed: false, sync: false
    0xfa9a47136a5fde95, // case 45: fixed: false, sync: true
    0xdc42e9a0eed982db, // case 46: fixed: true, sync: false
    0x463cae93019450ac, // case 47: fixed: true, sync: true
];

#[test]
fn engine_matches_pre_optimization_capture_bit_for_bit() {
    let cases = golden_cases();
    assert_eq!(cases.len(), GOLDEN_HASHES.len());
    let hashes: Vec<u64> = cases.iter().map(run_case).collect();
    if std::env::var_os("RR_GOLDEN_PRINT").is_some() {
        for (i, h) in hashes.iter().enumerate() {
            println!("    {h:#018x}, // case {i}: {:?}", cases[i]);
        }
    }
    let mut mismatches = Vec::new();
    for (i, (&got, &want)) in hashes.iter().zip(GOLDEN_HASHES.iter()).enumerate() {
        if got != want {
            mismatches.push(format!(
                "case {i} ({:?}): got {got:#018x}, pinned {want:#018x}",
                cases[i]
            ));
        }
    }
    assert!(
        mismatches.is_empty(),
        "engine diverged from pre-optimization capture:\n{}",
        mismatches.join("\n")
    );
}
