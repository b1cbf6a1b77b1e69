//! Integration: the content-addressed result store under the sweep runner.
//!
//! The contract under test, end to end: a cold `--store` sweep persists
//! every point; a warm rerun serves all of them without touching an engine
//! and serializes *byte-identically*; damaged records quarantine and
//! recompute instead of failing; and the fingerprint scheme that makes all
//! of this safe is stable (golden hash) and collision-free across distinct
//! specs (property test).

use std::fs;
use std::path::PathBuf;

use proptest::prelude::*;
use register_relocation::cache;
use register_relocation::experiments::{Arch, ExperimentSpec};
use register_relocation::sim::EventAccountant;
use register_relocation::store::Lookup;
use register_relocation::sweep::{
    PointReport, SweepGrid, SweepRunner, SWEEP_SCHEMA_VERSION,
};

/// Minimal self-cleaning temp dir (no external crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let mut p = std::env::temp_dir();
        p.push(format!("rr-store-it-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&p);
        TempDir(p)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// A 2-point Figure 5 panel with light workloads — fast, but end to end
/// through the real engines.
fn mini_grid(seed: u64) -> SweepGrid {
    let mut grid = SweepGrid::figure5_panel(64, seed);
    grid.run_lengths = vec![8.0];
    grid.latencies = vec![50, 200];
    grid.base = ExperimentSpec { threads: 8, work_per_thread: 2_000, ..grid.base };
    grid
}

fn runner(dir: &TempDir) -> SweepRunner {
    let store = cache::open_store(&dir.0).expect("store opens");
    SweepRunner::new(2).with_progress(false).with_store(Some(store))
}

/// Every committed record file under the store's objects/ tree.
fn record_paths(dir: &TempDir) -> Vec<PathBuf> {
    let mut out = Vec::new();
    for shard in fs::read_dir(dir.0.join("objects")).unwrap() {
        let shard = shard.unwrap().path();
        if !shard.is_dir() {
            continue;
        }
        for f in fs::read_dir(&shard).unwrap() {
            let f = f.unwrap().path();
            if f.extension().and_then(|e| e.to_str()) == Some("rec") {
                out.push(f);
            }
        }
    }
    out.sort();
    out
}

#[test]
fn warm_run_is_byte_identical_to_cold() {
    let dir = TempDir::new("warm-cold");
    let grid = mini_grid(21);

    let cold = runner(&dir).run(&grid).unwrap();
    assert!(cold.cache.enabled);
    assert_eq!((cold.cache.hits, cold.cache.misses, cold.cache.stored), (0, 2, 2));

    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!((warm.cache.hits, warm.cache.misses, warm.cache.stored), (2, 0, 0));

    // The acceptance bar: not merely equal science, equal *bytes* —
    // wall-clock fields included, because hits replay the stored record.
    assert_eq!(
        cold.report.to_json_pretty().unwrap(),
        warm.report.to_json_pretty().unwrap(),
    );

    // And the cached science matches an uncached run exactly.
    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
    for (c, p) in warm.report.points.iter().zip(&plain.report.points) {
        assert_eq!(c.figure, p.figure);
        assert_eq!(c.fixed, p.fixed);
        assert_eq!(c.flexible, p.flexible);
    }
}

/// The stored record IS what a warm run returns: plant a marker in a
/// stored payload and watch it come back, proving no engine ran.
#[test]
fn warm_run_serves_stored_bytes_not_recomputation() {
    let dir = TempDir::new("served");
    let grid = mini_grid(22);
    runner(&dir).run(&grid).unwrap();

    let store = cache::open_store(&dir.0).unwrap();
    let key = cache::point_key(&grid.points()[0].spec, store.salt()).unwrap();
    let Lookup::Hit(bytes) = store.get(&key).unwrap() else {
        panic!("cold run must have stored point 0");
    };
    let mut point: PointReport =
        serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
    point.wall_nanos = 424_242_424_242;
    store.put(&key, serde_json::to_string(&point).unwrap().as_bytes()).unwrap();

    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!(warm.cache.hits, 2);
    assert_eq!(
        warm.report.points[0].wall_nanos, 424_242_424_242,
        "point 0 must come from the store, not an engine"
    );
}

#[test]
fn corrupt_record_quarantines_and_recomputes() {
    let dir = TempDir::new("corrupt");
    let grid = mini_grid(23);
    let cold = runner(&dir).run(&grid).unwrap();

    // Truncate one record mid-payload, as a crash or disk fault would.
    let victim = record_paths(&dir).into_iter().next().expect("cold run stored records");
    let bytes = fs::read(&victim).unwrap();
    fs::write(&victim, &bytes[..bytes.len() - 7]).unwrap();

    let repaired = runner(&dir).run(&grid).unwrap();
    assert_eq!(
        (repaired.cache.hits, repaired.cache.misses, repaired.cache.quarantined, repaired.cache.stored),
        (1, 1, 1, 1),
        "one hit, one quarantine-then-recompute"
    );
    let store = cache::open_store(&dir.0).unwrap();
    assert_eq!(store.stats().unwrap().quarantined, 1, "damaged file moved aside");

    // The recomputed science is identical to the cold run's (only the
    // recomputed point's host wall-clock may differ).
    for (c, r) in cold.report.points.iter().zip(&repaired.report.points) {
        assert_eq!(c.figure, r.figure);
        assert_eq!(c.fixed, r.fixed);
        assert_eq!(c.flexible, r.flexible);
    }

    // The repair was persisted: a third run is pure hits and byte-matches
    // the second.
    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!((warm.cache.hits, warm.cache.quarantined), (2, 0));
    assert_eq!(
        repaired.report.to_json_pretty().unwrap(),
        warm.report.to_json_pretty().unwrap(),
    );
}

/// A payload from a foreign schema version is intact as a record (checksum
/// passes) but semantically unservable: the runner recomputes and
/// overwrites it rather than serving it or erroring.
#[test]
fn foreign_schema_payload_is_recomputed_not_served() {
    let dir = TempDir::new("schema");
    let grid = mini_grid(24);
    runner(&dir).run(&grid).unwrap();

    let store = cache::open_store(&dir.0).unwrap();
    let key = cache::point_key(&grid.points()[1].spec, store.salt()).unwrap();
    let Lookup::Hit(bytes) = store.get(&key).unwrap() else { panic!("stored") };
    let mut point: PointReport =
        serde_json::from_str(std::str::from_utf8(&bytes).unwrap()).unwrap();
    point.schema_version = SWEEP_SCHEMA_VERSION + 1;
    store.put(&key, serde_json::to_string(&point).unwrap().as_bytes()).unwrap();

    let run = runner(&dir).run(&grid).unwrap();
    assert_eq!((run.cache.hits, run.cache.misses, run.cache.stored), (1, 1, 1));
    assert_eq!(run.report.points[1].schema_version, SWEEP_SCHEMA_VERSION);

    let healed = runner(&dir).run(&grid).unwrap();
    assert_eq!(healed.cache.hits, 2, "the recompute overwrote the foreign record");
}

/// Points stored by a full-figure sweep are found by a single-panel sweep
/// of the same seed — same specs, different grid offsets — and their
/// indices are rebased onto the querying grid.
#[test]
fn panel_sweep_reuses_full_grid_points_with_rebased_indices() {
    let dir = TempDir::new("rebase");
    let mut full = mini_grid(25);
    full.file_sizes = vec![64, 128];
    let cold = runner(&dir).run(&full).unwrap();
    assert_eq!(cold.cache.stored, 4);

    let mut panel = mini_grid(25);
    panel.file_sizes = vec![128]; // the *second* half of the full grid
    let warm = runner(&dir).run(&panel).unwrap();
    assert_eq!(warm.cache.hits, 2, "shared specs hit despite different grid shape");
    for (i, p) in warm.report.points.iter().enumerate() {
        assert_eq!(p.index, i, "indices are grid-relative, not as stored");
        assert_eq!(p.figure, cold.report.points[2 + i].figure);
    }
}

/// Trace-metrics records live in the same store, under the same salt, as
/// sweep points — but behind a domain-tagged key, so the two record kinds
/// can never collide, and a warm sweep never mistakes a metrics summary
/// for a point result.
#[test]
fn trace_records_coexist_with_point_records() {
    use register_relocation::trace::{persist_trace_metrics, TracedPoint};

    let dir = TempDir::new("trace-domain");
    let grid = mini_grid(26);
    runner(&dir).run(&grid).unwrap();

    let store = cache::open_store(&dir.0).unwrap();
    let spec = grid.points()[0].spec;
    let traced = TracedPoint::run(&spec).unwrap();
    let record = persist_trace_metrics(&store, &traced).unwrap();
    assert!(record.fixed_events > 0);

    // Both record kinds are simultaneously retrievable under one salt.
    let point_key = cache::point_key(&spec, store.salt()).unwrap();
    let trace_key = cache::trace_key(&spec, store.salt()).unwrap();
    assert_ne!(point_key, trace_key);
    let Lookup::Hit(point_bytes) = store.get(&point_key).unwrap() else {
        panic!("sweep point record still present");
    };
    let _: PointReport = serde_json::from_str(std::str::from_utf8(&point_bytes).unwrap()).unwrap();
    let Lookup::Hit(trace_bytes) = store.get(&trace_key).unwrap() else {
        panic!("trace metrics record present");
    };
    let back = register_relocation::trace::TraceMetricsRecord::from_json(
        std::str::from_utf8(&trace_bytes).unwrap(),
    )
    .unwrap();
    assert_eq!(back, record);

    // The extra record does not confuse a warm sweep.
    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!(warm.cache.hits, 2);
}

/// A full disk (injected `ENOSPC`) on the write path: the put fails, the
/// sweep warns and proceeds, the served science is untouched, and the
/// next warm run simply recomputes and persists the missing point — the
/// cache is degraded, never poisoned.
#[test]
fn injected_enospc_on_put_degrades_to_recompute() {
    use register_relocation::store::PutFault;

    let dir = TempDir::new("enospc");
    let grid = mini_grid(27);

    // One worker so exactly the first point's persist hits the fault.
    let store = cache::open_store(&dir.0).unwrap();
    let faulted = SweepRunner::new(1).with_progress(false).with_store(Some(store));
    faulted.store().unwrap().inject_put_fault(PutFault::Enospc);
    let cold = faulted.run(&grid).unwrap();
    assert_eq!(
        (cold.cache.hits, cold.cache.misses, cold.cache.stored),
        (0, 2, 1),
        "the faulted persist is skipped with a warning, not fatal"
    );

    // The science served by the faulted run equals a storeless run.
    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
    for (c, p) in cold.report.points.iter().zip(&plain.report.points) {
        assert_eq!(c.figure, p.figure);
        assert_eq!(c.fixed, p.fixed);
        assert_eq!(c.flexible, p.flexible);
    }

    // A warm run self-heals: one hit, one recompute-and-store.
    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!(
        (warm.cache.hits, warm.cache.misses, warm.cache.stored, warm.cache.quarantined),
        (1, 1, 1, 0)
    );
    // Fully healed: a third run is pure hits and byte-identical to the
    // second (whose recomputed record it now serves).
    let healed = runner(&dir).run(&grid).unwrap();
    assert_eq!((healed.cache.hits, healed.cache.misses), (2, 0));
    assert_eq!(
        warm.report.to_json_pretty().unwrap(),
        healed.report.to_json_pretty().unwrap(),
    );
}

/// A torn-but-committed record (injected short write, the shape a crash
/// under relaxed durability can leave): the put "succeeds", but the read
/// path quarantines the damage and the runner recomputes — the torn bytes
/// are never served as results.
#[test]
fn injected_short_write_is_quarantined_on_read_not_served() {
    use register_relocation::store::PutFault;

    let dir = TempDir::new("shortwrite");
    let grid = mini_grid(28);

    let store = cache::open_store(&dir.0).unwrap();
    let cold_runner = SweepRunner::new(1).with_progress(false).with_store(Some(store));
    cold_runner.store().unwrap().inject_put_fault(PutFault::ShortWrite);
    let cold = cold_runner.run(&grid).unwrap();
    // The torn write is invisible to the writer: both persists report
    // success. That is exactly why the read path must stay paranoid.
    assert_eq!((cold.cache.misses, cold.cache.stored), (2, 2));

    let warm = runner(&dir).run(&grid).unwrap();
    assert_eq!(
        (warm.cache.hits, warm.cache.misses, warm.cache.quarantined, warm.cache.stored),
        (1, 1, 1, 1),
        "torn record quarantined and recomputed, intact record served"
    );
    let store = cache::open_store(&dir.0).unwrap();
    assert_eq!(store.stats().unwrap().quarantined, 1, "damage moved aside, not deleted");

    // The recomputed science equals a storeless run — nothing torn leaked
    // into the results.
    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
    for (w, p) in warm.report.points.iter().zip(&plain.report.points) {
        assert_eq!(w.figure, p.figure);
        assert_eq!(w.fixed, p.fixed);
        assert_eq!(w.flexible, p.flexible);
    }

    // And the store is healthy again: pure hits from here on.
    let healed = runner(&dir).run(&grid).unwrap();
    assert_eq!((healed.cache.hits, healed.cache.quarantined), (2, 0));
}

/// Byte gate: a finished leg carries only its efficiency-window
/// checkpoints, so a stored point stays a few KiB however long the run.
/// (When legs kept their whole checkpoint trail, this panel's largest
/// record was 24 KiB, and a full-size Figure 5 F=64 record reached 2 MB.)
#[test]
fn stored_records_stay_small_and_legs_keep_only_the_window() {
    const MAX_RECORD_BYTES: u64 = 16 * 1024;
    let dir = TempDir::new("byte-gate");
    let mut grid = SweepGrid::figure5_panel(64, 7);
    grid.base = ExperimentSpec { threads: 8, work_per_thread: 2_000, ..grid.base };
    let outcome = runner(&dir).run(&grid).unwrap();
    assert_eq!(outcome.cache.stored, 18);

    let records = record_paths(&dir);
    assert_eq!(records.len(), 18);
    for path in &records {
        let bytes = fs::metadata(path).unwrap().len();
        assert!(bytes <= MAX_RECORD_BYTES, "{} is {bytes} bytes", path.display());
    }

    for (point, report) in grid.points().iter().zip(&outcome.report.points) {
        for (arch, stored) in [(Arch::Fixed, &report.fixed), (Arch::Flexible, &report.flexible)] {
            let (stats, events) = ExperimentSpec { arch, ..point.spec }.run_with_events().unwrap();
            let replayed = EventAccountant::replay(&events).unwrap();
            assert!(stats.checkpoints.len() <= 2, "engine trail {:?}", stats.checkpoints);
            assert!(replayed.checkpoints.len() <= 2, "replayed trail {:?}", replayed.checkpoints);
            assert_eq!(&stats, stored);
            assert_eq!(replayed, stats);
        }
    }
}

/// The canonical spec serialization (and therefore every stored key) must
/// never drift silently: a fixed spec under a fixed salt hashes to a fixed
/// address. If this test fails, a format change invalidated every existing
/// store — bump [`SWEEP_SCHEMA_VERSION`] (or [`rr_sim::CODE_VERSION`]) so
/// the change is deliberate, then update the constant here.
#[test]
fn golden_fingerprint_is_stable() {
    let key = cache::point_key(&ExperimentSpec::default(), "golden").unwrap();
    assert_eq!(
        key.to_hex(),
        "f29f161b0d2a2090a3de65a2b67391e91c6962ac9d6d58b5bb59c0337b82ef68",
        "canonical spec JSON: {}",
        ExperimentSpec::default().canonical_json().unwrap(),
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Distinct specs — differing in any single grid axis — always get
    /// distinct content addresses.
    #[test]
    fn distinct_specs_get_distinct_keys(
        file_size in prop_oneof![Just(64u32), Just(128), Just(256)],
        run_length in prop_oneof![Just(8.0f64), Just(32.0), Just(128.0)],
        latency in prop_oneof![Just(50u64), Just(200), Just(800)],
        seed in 1u64..1_000_000,
    ) {
        use register_relocation::experiments::FaultKind;
        let salt = cache::store_salt();
        let base = ExperimentSpec {
            file_size,
            run_length,
            fault: FaultKind::Cache { latency },
            seed,
            ..ExperimentSpec::default()
        };
        let k = cache::point_key(&base, &salt).unwrap();
        let mutations = [
            ExperimentSpec { file_size: file_size * 2, ..base },
            ExperimentSpec { run_length: run_length + 0.5, ..base },
            ExperimentSpec { fault: FaultKind::Cache { latency: latency + 1 }, ..base },
            ExperimentSpec { fault: FaultKind::Sync { mean_latency: latency as f64 }, ..base },
            ExperimentSpec { seed: seed + 1, ..base },
            ExperimentSpec { threads: base.threads + 1, ..base },
            ExperimentSpec { work_per_thread: base.work_per_thread + 1, ..base },
        ];
        for m in mutations {
            prop_assert_ne!(k, cache::point_key(&m, &salt).unwrap());
        }
        prop_assert_eq!(k, cache::point_key(&base, &salt).unwrap());
    }
}
