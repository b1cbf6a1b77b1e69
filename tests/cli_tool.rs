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

/// Runs `rr` with `args` in `dir` (with no `RR_STORE`), killing it if it
/// has not finished within a minute: a subcommand that ignores `--help`
/// or a bad flag may start a sweep or a daemon instead of exiting.
fn rr_in(dir: &std::path::Path, args: &[&str]) -> std::process::Output {
    let mut child = rr()
        .args(args)
        .current_dir(dir)
        .env_remove("RR_STORE")
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            panic!("`rr {}` still running after 60 s", args.join(" "));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

/// A fresh, empty working directory, removed on drop.
struct ScratchDir(std::path::PathBuf);

impl ScratchDir {
    fn new(name: &str) -> Self {
        let path = tempfile::unique_path(name);
        std::fs::create_dir_all(&path).unwrap();
        ScratchDir(path)
    }

    fn entries(&self) -> Vec<String> {
        std::fs::read_dir(&self.0)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect()
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The subcommands `rr help --list` names, checked against the flag tables.
fn subcommands() -> Vec<String> {
    let out = rr().args(["help", "--list"]).output().unwrap();
    let names: Vec<String> =
        String::from_utf8(out.stdout).unwrap().lines().map(String::from).collect();
    let tables: Vec<&str> =
        register_relocation::commands::COMMANDS.iter().map(|c| c.name).collect();
    assert_eq!(names, tables, "help --list and the flag tables disagree");
    names
}

/// Every subcommand answers `--help` with its usage, does no work and
/// writes nothing; and every subcommand rejects a flag it does not take,
/// naming it.
#[test]
fn every_subcommand_answers_help_and_rejects_unknown_flags() {
    for name in subcommands() {
        let dir = ScratchDir::new("help");
        let help = rr_in(&dir.0, &[&name, "--help"]);
        let text = String::from_utf8_lossy(&help.stdout);
        let err = String::from_utf8_lossy(&help.stderr);
        assert!(help.status.success(), "rr {name} --help: {err}");
        let title = if name == "help" { "rr — ".to_string() } else { format!("rr {name} — ") };
        assert!(text.starts_with(&title), "rr {name} --help printed: {text}");
        assert_eq!(dir.entries(), Vec::<String>::new(), "rr {name} --help wrote files");

        let bad = rr_in(&dir.0, &[&name, "--no-such-flag"]);
        let err = String::from_utf8_lossy(&bad.stderr);
        assert!(!bad.status.success(), "rr {name} accepted --no-such-flag");
        assert!(err.contains("`--no-such-flag`"), "rr {name}: {err}");
        assert_eq!(dir.entries(), Vec::<String>::new(), "rr {name} --no-such-flag wrote files");
    }
}

/// The `--flag`s a usage text names.
fn flags_named_in(text: &str) -> std::collections::BTreeSet<String> {
    text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
        .filter(|word| word.starts_with("--") && word.len() > 2)
        .map(String::from)
        .collect()
}

/// Each subcommand's `--help` names exactly the flags its table accepts
/// (plus `--help`), and `rr help` names its own flags and no flag that no
/// subcommand takes.
#[test]
fn every_usage_text_names_exactly_its_flag_table() {
    use register_relocation::commands::COMMANDS;
    let table = |command: &register_relocation::cli::Command| {
        let mut flags: std::collections::BTreeSet<String> =
            command.rows().map(|f| f.name().to_string()).collect();
        flags.insert("--help".to_string());
        flags
    };
    let every: std::collections::BTreeSet<String> = COMMANDS.iter().flat_map(table).collect();
    for name in subcommands() {
        let out = rr().args([name.as_str(), "--help"]).output().unwrap();
        let printed = flags_named_in(&String::from_utf8_lossy(&out.stdout));
        let own = table(COMMANDS.iter().find(|c| c.name == name).unwrap());
        if name == "help" {
            assert!(own.is_subset(&printed) && printed.is_subset(&every), "{printed:?}");
        } else {
            assert_eq!(printed, own, "`rr {name} --help` and its flag table disagree");
        }
    }
}

/// Command lines the hand-rolled parsing used to get wrong: an unknown
/// flag was ignored, `--help` ran the sweep, a flag was taken as a JSON
/// path, and a flag before the input file was taken as the file.
#[test]
fn flags_are_checked_before_any_work_runs() {
    let dir = ScratchDir::new("contract");
    let small = ["fig5", "--file", "64", "--threads", "8", "--work", "2000", "--jobs", "1"];

    let bogus = rr_in(&dir.0, &[&small[..], &["--bogus-flag"]].concat());
    assert!(!bogus.status.success());
    assert!(String::from_utf8_lossy(&bogus.stderr).contains("`--bogus-flag`"));
    assert!(bogus.stdout.is_empty(), "no panel was printed");

    let help = rr_in(&dir.0, &["fig5", "--help"]);
    assert!(help.status.success());
    assert!(!String::from_utf8_lossy(&help.stdout).contains("F = 64 registers"), "no sweep ran");

    let json = rr_in(&dir.0, &[&small[..], &["--json", "--no-store"]].concat());
    assert!(!json.status.success());
    assert!(String::from_utf8_lossy(&json.stderr).contains("not the flag `--no-store`"));
    assert_eq!(dir.entries(), Vec::<String>::new(), "no file named --no-store");

    let src = demo_source();
    let path = src.path.to_str().unwrap();
    let check = rr_in(&dir.0, &["check", "--size", "8", path]);
    assert!(check.status.success(), "{}", String::from_utf8_lossy(&check.stderr));
    assert!(String::from_utf8_lossy(&check.stdout).contains("ok for a 8-register context"));
}
