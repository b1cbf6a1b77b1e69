//! Integration: checkpointed sweeps end to end.
//!
//! The contract under test: a `--checkpoint-every` sweep writes rolling
//! engine snapshots into the result store while points are in flight,
//! removes them once each leg's final record is stored, resumes an
//! interrupted point from its newest valid checkpoint instead of starting
//! over, and produces *bit-identical* science however often it was
//! interrupted — while every damaged or foreign checkpoint degrades to
//! recomputation from cycle 0, never to an error.

use std::fs;
use std::path::PathBuf;

use register_relocation::cache;
use register_relocation::experiments::{Arch, ExperimentSpec};
use register_relocation::sim::{Engine, EngineSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
use register_relocation::store::{Lookup, PutFault};
use register_relocation::sweep::{SweepGrid, SweepRunner};
use rr_telemetry::{IncMetric, METRICS};

/// Minimal self-cleaning temp dir (no external crate).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let mut p = std::env::temp_dir();
        p.push(format!("rr-ckpt-it-{}-{tag}", std::process::id()));
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

fn checkpointed_runner(dir: &TempDir, every: u64) -> SweepRunner {
    let store = cache::open_store(&dir.0).expect("store opens");
    SweepRunner::new(1)
        .with_progress(false)
        .with_store(Some(store))
        .with_checkpoint_every(Some(every))
}

#[test]
fn checkpointed_sweep_is_bit_identical_to_plain_and_tidies_up() {
    let dir = TempDir::new("identical");
    let grid = mini_grid(31);

    let written_before = METRICS.sweep.checkpoints_written.count();
    // A stride far smaller than a leg's cycle count, so every leg
    // checkpoints several times mid-run.
    let run = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    assert!(
        METRICS.sweep.checkpoints_written.count() - written_before >= 4,
        "each of the 4 legs should have checkpointed at least once"
    );

    // Science identical to an uncheckpointed, storeless run.
    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
    for (c, p) in run.report.points.iter().zip(&plain.report.points) {
        assert_eq!(c.figure, p.figure);
        assert_eq!(c.fixed, p.fixed);
        assert_eq!(c.flexible, p.flexible);
    }

    // Finished legs removed their rolling checkpoints: only the 2 point
    // records remain, and no snapshot key resolves.
    let store = cache::open_store(&dir.0).unwrap();
    assert_eq!(store.stats().unwrap().records, 2, "point records only, no leftovers");
    for p in grid.points() {
        for arch in [Arch::Fixed, Arch::Flexible] {
            let key = cache::snapshot_key(&p.spec.with_arch(arch), store.salt()).unwrap();
            assert_eq!(store.get(&key).unwrap(), Lookup::Miss);
        }
    }

    // A warm rerun (checkpointing still on) serves pure hits, byte-equal.
    let warm = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    assert_eq!((warm.cache.hits, warm.cache.misses), (2, 0));
    assert_eq!(
        run.report.to_json_pretty().unwrap(),
        warm.report.to_json_pretty().unwrap(),
    );
}

/// The resume path itself: interrupt a leg mid-run (advance the real
/// engine partway and store its snapshot, exactly what a killed sweep
/// leaves behind), then rerun — the sweep must pick the checkpoint up,
/// finish from there, and store a record bit-identical to the
/// never-interrupted run's.
#[test]
fn interrupted_point_resumes_from_its_checkpoint() {
    let dir = TempDir::new("resume");
    let grid = mini_grid(32);
    let point = &grid.points()[0];

    // The uninterrupted truth, computed in a separate store.
    let truth_dir = TempDir::new("resume-truth");
    let truth_store = cache::open_store(&truth_dir.0).unwrap();
    let truth = SweepRunner::new(1)
        .with_progress(false)
        .with_store(Some(truth_store))
        .run(&grid)
        .unwrap();

    // Simulate the kill: the fixed leg of point 0 ran to a mid-run pause
    // and its snapshot reached the store; the final record never did.
    let store = cache::open_store(&dir.0).unwrap();
    let fixed_spec = point.spec.with_arch(Arch::Fixed);
    let mut engine = fixed_spec.engine().unwrap();
    assert!(!engine.advance(3_000), "leg must not complete before the pause");
    let paused_at = engine.now();
    assert!(paused_at >= 3_000, "the pause really is mid-run");
    let key = cache::snapshot_key(&fixed_spec, store.salt()).unwrap();
    store.put(&key, engine.snapshot().to_json().as_bytes()).unwrap();
    drop(engine); // the "killed" process

    let resumed_before = METRICS.sweep.checkpoints_resumed.count();
    let rerun = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    assert!(
        METRICS.sweep.checkpoints_resumed.count() > resumed_before,
        "the planted checkpoint must actually be resumed from, not ignored"
    );

    // Bit-identical science to the never-interrupted run — the
    // acceptance bar for run-to-N + snapshot + resume-to-M.
    for (t, r) in truth.report.points.iter().zip(&rerun.report.points) {
        assert_eq!(t.figure, r.figure);
        assert_eq!(t.fixed, r.fixed);
        assert_eq!(t.flexible, r.flexible);
    }
    // The consumed checkpoint is gone.
    assert_eq!(store.get(&key).unwrap(), Lookup::Miss);
}

/// Every way a checkpoint can be bad — torn on disk, semantically
/// corrupt, foreign schema version — degrades to recomputation from
/// cycle 0 with identical final science. Nothing panics, nothing errors.
#[test]
fn damaged_checkpoints_degrade_to_recompute() {
    let dir = TempDir::new("damaged");
    let grid = mini_grid(33);
    let point = &grid.points()[0];
    let store = cache::open_store(&dir.0).unwrap();
    let fixed_spec = point.spec.with_arch(Arch::Fixed);
    let key = cache::snapshot_key(&fixed_spec, store.salt()).unwrap();

    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();

    // Case 1: a torn checkpoint record (injected short write).
    let mut engine = fixed_spec.engine().unwrap();
    assert!(!engine.advance(3_000));
    let snapshot_json = engine.snapshot().to_json();
    store.inject_put_fault(PutFault::ShortWrite);
    store.put(&key, snapshot_json.as_bytes()).unwrap();

    // Case 2 setup happens after case 1's run quarantines the torn file.
    let run = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    for (p, r) in plain.report.points.iter().zip(&run.report.points) {
        assert_eq!(p.fixed, r.fixed, "torn checkpoint must not perturb the science");
        assert_eq!(p.flexible, r.flexible);
    }
    assert!(store.stats().unwrap().quarantined >= 1, "torn checkpoint quarantined");

    // Case 2: valid JSON, foreign schema version. Wipe the point records
    // so the sweep must compute (and hence consult the checkpoint) again.
    for p in grid.points() {
        let pk = cache::point_key(&p.spec, store.salt()).unwrap();
        store.remove(&pk).unwrap();
    }
    let foreign = snapshot_json.replacen("\"schema_version\":", "\"schema_version\": 99, \"x\":", 1);
    store.put(&key, foreign.as_bytes()).unwrap();
    let run = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    for (p, r) in plain.report.points.iter().zip(&run.report.points) {
        assert_eq!(p.fixed, r.fixed, "foreign-version checkpoint must be refused");
        assert_eq!(p.flexible, r.flexible);
    }

    // Case 3: structurally valid record, garbage snapshot payload.
    for p in grid.points() {
        let pk = cache::point_key(&p.spec, store.salt()).unwrap();
        store.remove(&pk).unwrap();
    }
    store.put(&key, b"not a snapshot at all").unwrap();
    let run = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    for (p, r) in plain.report.points.iter().zip(&run.report.points) {
        assert_eq!(p.fixed, r.fixed, "undecodable checkpoint must be refused");
        assert_eq!(p.flexible, r.flexible);
    }
}

/// A checkpoint written by a build with the version-1 snapshot layout
/// (which still carried the bucket timer ring's `timer_shift`) is refused
/// with a schema mismatch, and the sweep recomputes the point from cycle 0.
/// The planted state is poisoned, so a resume from it could not reproduce
/// the plain run's science.
#[test]
fn schema_v1_checkpoint_is_recomputed_not_resumed() {
    let dir = TempDir::new("schema-v1");
    let grid = mini_grid(34);
    let point = &grid.points()[0];
    let store = cache::open_store(&dir.0).unwrap();
    let fixed_spec = point.spec.with_arch(Arch::Fixed);
    let key = cache::snapshot_key(&fixed_spec, store.salt()).unwrap();

    let plain = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();

    let mut engine = fixed_spec.engine().unwrap();
    assert!(!engine.advance(3_000));
    let mut poisoned = engine.snapshot();
    poisoned.stats.faults += 1_000_000;
    // Control: resumed, the poisoned state does reach the final stats.
    let resumed = Engine::restore(&poisoned).unwrap().run();
    assert_ne!(resumed.faults, plain.report.points[0].fixed.faults);

    let stamp = format!("\"schema_version\":{SNAPSHOT_SCHEMA_VERSION},");
    let v1 = poisoned
        .to_json()
        .replacen(&stamp, "\"schema_version\":1,", 1)
        .replacen("\"timers\":", "\"timer_shift\":4,\"timers\":", 1);
    assert!(matches!(
        EngineSnapshot::from_json(&v1),
        Err(SnapshotError::SchemaMismatch { found: 1, .. })
    ));
    store.put(&key, v1.as_bytes()).unwrap();

    let run = checkpointed_runner(&dir, 2_000).run(&grid).unwrap();
    for (p, r) in plain.report.points.iter().zip(&run.report.points) {
        assert_eq!(p.fixed, r.fixed, "a schema-v1 checkpoint must be refused");
        assert_eq!(p.flexible, r.flexible);
    }
    // The recomputed leg finished and dropped its rolling checkpoint.
    assert_eq!(store.get(&key).unwrap(), Lookup::Miss);
}

/// `--checkpoint-every` on the CLI: rejected without a store, accepted
/// (and validated) with one. The full SIGKILL-resume-compare path runs in
/// CI's snapshot-smoke job; here we pin the flag's argument contract.
#[test]
fn cli_flag_contract() {
    let rr = env!("CARGO_BIN_EXE_rr");
    let out = std::process::Command::new(rr)
        .args(["fig5", "--checkpoint-every", "1000", "--no-store"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("needs a result store"), "{stderr}");

    let scratch = std::env::temp_dir().join(format!("rr-ckpt-flag-{}", std::process::id()));
    let out = std::process::Command::new(rr)
        .args(["fig5", "--checkpoint-every", "soon", "--store"])
        .arg(&scratch)
        .output()
        .unwrap();
    let _ = std::fs::remove_dir_all(&scratch);
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("bad checkpoint stride"), "{stderr}");

    let help = std::process::Command::new(rr).args(["help"]).output().unwrap();
    let text = String::from_utf8_lossy(&help.stdout);
    assert!(text.contains("--checkpoint-every"), "flag documented in usage");
}
