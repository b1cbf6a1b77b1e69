//! Integration: the `rr` toolchain binary end to end.

use std::io::Write;
use std::process::Command;

fn rr() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rr"))
}

fn demo_source() -> tempfile::NamedFile {
    let mut f = tempfile::NamedFile::new("demo.s");
    writeln!(
        f.file,
        "li r0, 40\n ldrrm r0\n nop\n li r5, 99\n add r6, r5, r5\n halt"
    )
    .unwrap();
    f
}

/// Minimal self-cleaning temp file (no external crate).
mod tempfile {
    use std::fs::File;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A temp path no other test in this process shares: the tests run in
    /// parallel, and one test's cleanup must not delete another's file.
    pub fn unique_path(name: &str) -> PathBuf {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!("rr-test-{}-{n}-{name}", std::process::id()))
    }

    pub struct NamedFile {
        pub file: File,
        pub path: PathBuf,
    }

    impl NamedFile {
        pub fn new(name: &str) -> Self {
            let path = unique_path(name);
            NamedFile { file: File::create(&path).unwrap(), path }
        }
    }

    impl Drop for NamedFile {
        fn drop(&mut self) {
            let _ = std::fs::remove_file(&self.path);
        }
    }
}

#[test]
fn asm_then_dis_round_trips() {
    let src = demo_source();
    let asm = rr().arg("asm").arg(&src.path).output().unwrap();
    assert!(asm.status.success(), "{}", String::from_utf8_lossy(&asm.stderr));
    let hex = String::from_utf8(asm.stdout).unwrap();
    assert_eq!(hex.lines().count(), 6);

    let mut hexfile = tempfile::NamedFile::new("demo.hex");
    std::io::Write::write_all(&mut hexfile.file, hex.as_bytes()).unwrap();
    let dis = rr().arg("dis").arg(&hexfile.path).output().unwrap();
    assert!(dis.status.success());
    let text = String::from_utf8(dis.stdout).unwrap();
    assert!(text.contains("ldrrm r0"));
    assert!(text.contains("add r6, r5, r5"));
}

#[test]
fn run_executes_with_relocation() {
    let src = demo_source();
    let out = rr().arg("run").arg(&src.path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("Halted"), "{text}");
    assert!(text.contains("R45"), "relocated write visible: {text}");
    assert!(text.contains("(99)"), "{text}");
}

#[test]
fn check_reports_violations_with_nonzero_exit() {
    let src = demo_source();
    let ok = rr().arg("check").arg(&src.path).args(["--size", "8"]).output().unwrap();
    assert!(ok.status.success());

    let bad = rr().arg("check").arg(&src.path).args(["--size", "4"]).output().unwrap();
    assert!(!bad.status.success());
    let err = String::from_utf8(bad.stderr).unwrap();
    assert!(err.contains("outside the declared 4-register context"), "{err}");
}

#[test]
fn demand_reports_context_sizing() {
    let src = demo_source();
    let out = rr().arg("demand").arg(&src.path).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("demand 7 registers"), "{text}");
    assert!(text.contains("context size needed: 8"), "{text}");
}

/// The parallel sweep subcommand: panels are byte-identical for any worker
/// count, and the JSON report round-trips with the right shape.
#[test]
fn fig5_sweep_is_worker_count_invariant() {
    let json_path = tempfile::NamedFile::new("fig5.json").path.clone();
    let sweep = |jobs: &str, json: Option<&std::path::Path>| {
        let mut cmd = rr();
        cmd.args(["fig5", "--file", "64", "--seed", "7", "--jobs", jobs])
            .args(["--threads", "8", "--work", "2000"]);
        if let Some(p) = json {
            cmd.arg("--json").arg(p);
        }
        let out = cmd.output().unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        String::from_utf8(out.stdout).unwrap()
    };
    let serial = sweep("1", None);
    let parallel = sweep("4", Some(&json_path));
    assert_eq!(serial, parallel, "panels must not depend on worker count");
    assert!(serial.contains("Figure 5"), "{serial}");

    let report = register_relocation::sweep::SweepReport::from_json(
        &std::fs::read_to_string(&json_path).unwrap(),
    )
    .unwrap();
    let _ = std::fs::remove_file(&json_path);
    assert_eq!(report.schema_version, register_relocation::sweep::SWEEP_SCHEMA_VERSION);
    assert_eq!(report.seed, 7);
    assert_eq!(report.points.len(), 18, "3 run lengths x 6 latencies");
    for p in &report.points {
        assert_eq!(p.fixed.accounted_cycles(), p.fixed.total_cycles);
        assert!(p.wall_nanos > 0);
    }
}

/// A `--store` sweep repeated warm serves every point from the cache and
/// emits byte-identical output (stdout panels and the `--json` report).
#[test]
fn fig5_warm_cache_run_is_byte_identical() {
    let store_dir = tempfile::unique_path("store");
    let _ = std::fs::remove_dir_all(&store_dir);
    let json_path = tempfile::NamedFile::new("fig5-cache.json").path.clone();
    let sweep = || {
        let out = rr()
            .args(["fig5", "--file", "64", "--seed", "11", "--jobs", "2"])
            .args(["--threads", "8", "--work", "2000"])
            .arg("--store")
            .arg(&store_dir)
            .arg("--json")
            .arg(&json_path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let json = std::fs::read_to_string(&json_path).unwrap();
        (String::from_utf8(out.stdout).unwrap(), String::from_utf8(out.stderr).unwrap(), json)
    };
    let (cold_out, cold_err, cold_json) = sweep();
    let (warm_out, warm_err, warm_json) = sweep();
    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_dir_all(&store_dir);
    assert!(cold_err.contains("store 0/18 cached"), "{cold_err}");
    assert!(warm_err.contains("store 18/18 cached"), "{warm_err}");
    assert_eq!(cold_out, warm_out, "panels must not depend on cache state");
    assert_eq!(cold_json, warm_json, "warm JSON must byte-match the cold run");
}

/// `rr fig5 --trace-out` traces the point with the most simulated cycles
/// (both legs, ties to the lower index), not the slowest by wall time, so
/// two runs of the same command write byte-identical trace files.
#[test]
fn sweep_trace_out_is_byte_identical_across_runs() {
    let json_path = tempfile::NamedFile::new("busiest.report.json").path.clone();
    let sweep = |name: &str| {
        let trace_path = tempfile::NamedFile::new(name).path.clone();
        let out = rr()
            .args(["fig5", "--file", "64", "--seed", "7", "--jobs", "1", "--no-store"])
            .args(["--threads", "8", "--work", "2000", "--log-level", "info"])
            .arg("--json")
            .arg(&json_path)
            .arg("--trace-out")
            .arg(&trace_path)
            .output()
            .unwrap();
        assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
        let trace = std::fs::read(&trace_path).unwrap();
        let _ = std::fs::remove_file(&trace_path);
        (trace, String::from_utf8(out.stderr).unwrap())
    };
    let (first, first_log) = sweep("busiest-1.trace.json");
    let (second, _) = sweep("busiest-2.trace.json");
    assert!(!first.is_empty());
    assert!(first == second, "the same sweep must write the same trace");

    let report = register_relocation::sweep::SweepReport::from_json(
        &std::fs::read_to_string(&json_path).unwrap(),
    )
    .unwrap();
    let _ = std::fs::remove_file(&json_path);
    let cycles = |p: &register_relocation::sweep::PointReport| {
        p.fixed.total_cycles + p.flexible.total_cycles
    };
    let most = report.points.iter().map(cycles).max().unwrap();
    let busiest = report.points.iter().find(|p| cycles(p) == most).unwrap();
    let line = format!(
        "tracing busiest point F={} R={} L={}",
        busiest.file_size, busiest.run_length, busiest.latency
    );
    assert!(first_log.contains(&line), "expected `{line}` in {first_log}");
}

/// `rr trace` deep-dives one grid point: terminal summary on stdout, a
/// parseable Chrome trace with events from both architectures, and a
/// schema-versioned metrics record.
#[test]
fn trace_subcommand_produces_summary_trace_and_metrics() {
    let trace_path = tempfile::NamedFile::new("point.trace.json").path.clone();
    let metrics_path = tempfile::NamedFile::new("point.metrics.json").path.clone();
    let out = rr()
        .args(["trace", "fig5", "--point", "64,8,100", "--seed", "7"])
        .args(["--threads", "8", "--work", "2000", "--no-store"])
        .arg("--trace-out")
        .arg(&trace_path)
        .arg("--metrics")
        .arg(&metrics_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("trace: F=64 R=8 L=100"), "{text}");
    assert!(text.contains("efficiency"), "{text}");

    let trace = std::fs::read_to_string(&trace_path).unwrap();
    serde_json::from_str::<serde::Value>(&trace).expect("trace parses as JSON");
    assert!(trace.matches("\"ph\":\"X\"").count() > 0, "trace has duration slices");
    assert!(trace.contains("\"pid\":1") && trace.contains("\"pid\":2"));

    let metrics = register_relocation::trace::TraceMetricsRecord::from_json(
        &std::fs::read_to_string(&metrics_path).unwrap(),
    )
    .unwrap();
    assert_eq!(metrics.file_size, 64);
    assert_eq!(metrics.seed, 7);
    assert!(metrics.fixed_events > 0 && metrics.flexible_events > 0);
}

#[test]
fn trace_rejects_off_grid_points_and_prints_examples() {
    let out = rr()
        .args(["trace", "fig5", "--point", "64,9,100", "--no-store"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("not on the"), "{err}");

    let help = rr().args(["trace", "--help"]).output().unwrap();
    assert!(help.status.success());
    let text = String::from_utf8(help.stdout).unwrap();
    assert!(text.contains("Examples"), "{text}");
    assert!(text.contains("--point"), "{text}");
}

/// `rr help --list` prints bare subcommand names for shell completion.
#[test]
fn help_list_is_completion_friendly() {
    let out = rr().args(["help", "--list"]).output().unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    let subs: Vec<&str> = text.lines().collect();
    for expected in ["asm", "fig5", "trace", "cache", "help"] {
        assert!(subs.contains(&expected), "missing `{expected}` in {subs:?}");
    }
    assert!(subs.iter().all(|s| !s.contains(' ')), "bare names only: {subs:?}");
}

#[test]
fn bad_inputs_fail_cleanly() {
    let out = rr().arg("asm").arg("/nonexistent/file.s").output().unwrap();
    assert!(!out.status.success());
    let out = rr().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    let out = rr().output().unwrap();
    assert!(out.status.success(), "bare invocation prints usage");
    assert!(String::from_utf8_lossy(&out.stdout).contains("toolchain"));
}
