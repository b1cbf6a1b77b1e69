//! Integration: the event-tracing observability stack end to end.
//!
//! Three guarantees, from strongest to most operational:
//!
//! 1. **Completeness** — for randomized experiment specs on both
//!    architectures, the recorded event stream re-derives the engine's
//!    entire [`SimStats`] through the [`EventAccountant`] replay oracle.
//! 2. **Zero perturbation** — the default [`NullSink`] build produces
//!    byte-identical sweep output to the pre-tracing golden capture
//!    (stdout exactly; JSON exactly, modulo the host wall-clock fields).
//! 3. **Usability** — the Perfetto export parses as JSON with balanced
//!    context begin/end pairs, and windowed metrics agree with the
//!    engine's aggregate efficiency.

use std::process::Command;

use proptest::prelude::*;

use register_relocation::experiments::{Arch, ExperimentSpec, FaultKind};
use register_relocation::sim::{EventAccountant, MetricsReport};
use register_relocation::store::sha256;
use register_relocation::trace::TracedPoint;
use rr_telemetry::span::{chrome_timeline_json, json_string, TimelineSpan};

/// SHA-256 of `rr fig5 --file 64 --seed 7 --jobs 2 --threads 8 --work 2000`
/// stdout, captured before the event-tracing layers existed. The default
/// sink must keep this unchanged forever (or the change is a physics
/// change, and belongs behind a `CODE_VERSION` bump plus a new golden).
const GOLDEN_FIG5_SMALL_STDOUT: &str =
    "4b8e97437bd49847703682cbf4411e4caf97e99d7583f4b2bad31b82fbae687c";

/// SHA-256 of the same sweep's `--json` report with the host-timing lines
/// (`*wall_nanos`) dropped — every simulated byte of the report.
///
/// Re-captured at `CODE_VERSION` 3, when finished legs started keeping
/// only their efficiency-window checkpoints: the report lost the rest of
/// each leg's trail, while every other field, every `efficiency()` bit
/// pattern and the stdout golden above stayed the same.
const GOLDEN_FIG5_SMALL_JSON: &str =
    "04528d44cfa7211f279f962282ce3e879301a22a2e7ff49d3bdf2c62abaa30a7";

/// SHA-256 of [`TracedPoint::chrome_trace`] for `quick_spec(42, Sync
/// 300, R=64)` — both architectures in one document (fixed pid 1,
/// flexible pid 2) — captured from the per-event `String` + `join`
/// exporter before it moved onto the streaming `TraceWriter`.
const GOLDEN_TRACED_POINT_CHROME: &str =
    "6b1b021542902c6b1a3ee862b3be94387e26bbbf0c5579018288a3dbb91888cb";

/// SHA-256 of [`chrome_timeline_json`] over [`hostile_timeline`], captured
/// from the pre-`TraceWriter` emitter like the trace golden above.
const GOLDEN_HOSTILE_TIMELINE: &str =
    "1ce156b528d0cfd17dd144be3632eab084ebc982a8d13f3f611a55e2f3330d66";

fn sha256_hex(bytes: &[u8]) -> String {
    let mut h = sha256::Sha256::new();
    h.update(bytes);
    sha256::to_hex(&h.finalize())
}

/// Each line that survives the filter gets a trailing newline, matching
/// `grep -v wall_nanos` (which the goldens were captured with).
fn strip_wall_nanos(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    for line in json.lines().filter(|l| !l.contains("wall_nanos")) {
        out.push_str(line);
        out.push('\n');
    }
    out
}

fn quick_spec(seed: u64, fault: FaultKind, run_length: f64) -> ExperimentSpec {
    ExperimentSpec {
        file_size: 64,
        run_length,
        fault,
        threads: 10,
        work_per_thread: 2_000,
        seed,
        ..ExperimentSpec::default()
    }
}

#[test]
fn default_sink_sweep_matches_the_pre_tracing_golden() {
    let mut json_path = std::env::temp_dir();
    json_path.push(format!("rr-golden-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rr"))
        .args(["fig5", "--file", "64", "--seed", "7", "--jobs", "2"])
        .args(["--threads", "8", "--work", "2000", "--no-store"])
        .arg("--json")
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&json_path).unwrap();
    let _ = std::fs::remove_file(&json_path);
    assert_eq!(
        sha256_hex(&out.stdout),
        GOLDEN_FIG5_SMALL_STDOUT,
        "stdout drifted from the pre-tracing golden capture"
    );
    assert_eq!(
        sha256_hex(strip_wall_nanos(&json).as_bytes()),
        GOLDEN_FIG5_SMALL_JSON,
        "simulated JSON content drifted from the pre-tracing golden capture"
    );
}

/// The telemetry tentpole's zero-perturbation guarantee: with the logger
/// turned all the way up *and* a metrics dump requested, the sweep's
/// stdout and simulated JSON still hash to the pre-tracing goldens —
/// telemetry writes to stderr and side files only, never into the science.
#[test]
fn golden_survives_logger_and_metrics_instrumentation() {
    let tmp = std::env::temp_dir();
    let json_path = tmp.join(format!("rr-golden-telemetry-{}.json", std::process::id()));
    let metrics_path = tmp.join(format!("rr-golden-metrics-{}.json", std::process::id()));
    let out = Command::new(env!("CARGO_BIN_EXE_rr"))
        .args(["fig5", "--file", "64", "--seed", "7", "--jobs", "2"])
        .args(["--threads", "8", "--work", "2000", "--no-store"])
        .args(["--log-level", "debug"])
        .arg("--metrics-out")
        .arg(&metrics_path)
        .arg("--json")
        .arg(&json_path)
        .output()
        .unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let json = std::fs::read_to_string(&json_path).unwrap();
    let metrics = std::fs::read_to_string(&metrics_path).unwrap();
    let _ = std::fs::remove_file(&json_path);
    let _ = std::fs::remove_file(&metrics_path);

    assert_eq!(
        sha256_hex(&out.stdout),
        GOLDEN_FIG5_SMALL_STDOUT,
        "stdout drifted once telemetry was enabled"
    );
    assert_eq!(
        sha256_hex(strip_wall_nanos(&json).as_bytes()),
        GOLDEN_FIG5_SMALL_JSON,
        "simulated JSON content drifted once telemetry was enabled"
    );

    // Under --log-level debug the per-point progress lines appear on
    // stderr as structured records.
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("DEBUG sweep"), "progress records at debug level: {stderr}");
    assert!(stderr.contains("18/18"), "all 18 points narrated: {stderr}");

    // And the metrics dump carries the sweep's counters.
    let snap: serde::Value = serde_json::from_str(&metrics).expect("metrics JSON parses");
    let sweep = snap.get("sweep").expect("sweep group present");
    assert_eq!(sweep.get("points_computed"), Some(&serde::Value::U64(18)), "{metrics}");
    assert_eq!(sweep.get("points_cached"), Some(&serde::Value::U64(0)), "{metrics}");
    assert_eq!(sweep.get("workers"), Some(&serde::Value::U64(2)), "{metrics}");
}

#[test]
fn traced_point_exports_valid_balanced_chrome_trace() {
    let spec = quick_spec(42, FaultKind::Sync { mean_latency: 300.0 }, 64.0);
    let point = TracedPoint::run(&spec).unwrap();
    assert!(!point.fixed.events.is_empty() && !point.flexible.events.is_empty());
    let doc = point.chrome_trace();
    serde_json::from_str::<serde::Value>(&doc).expect("Perfetto export parses as JSON");
    assert_eq!(
        doc.matches("\"ph\":\"B\"").count(),
        doc.matches("\"ph\":\"E\"").count(),
        "every context-residency begin has a matching end"
    );
    assert!(doc.contains("\"pid\":1") && doc.contains("\"pid\":2"), "both architectures present");
}

/// Byte-identity pin of the simulated Perfetto export: any change to the
/// exporter or the writer under it must leave these bytes alone.
#[test]
fn traced_point_chrome_trace_matches_its_golden() {
    let spec = quick_spec(42, FaultKind::Sync { mean_latency: 300.0 }, 64.0);
    let doc = TracedPoint::run(&spec).unwrap().chrome_trace();
    assert_eq!(sha256_hex(doc.as_bytes()), GOLDEN_TRACED_POINT_CHROME, "{} bytes", doc.len());
}

/// The compact log's reason to exist: a real stream (the golden traced
/// point, both legs) costs under 6 bytes per event, against 48 in a
/// `Vec<Event>`.
#[test]
fn event_logs_stay_under_six_bytes_per_event() {
    let spec = quick_spec(42, FaultKind::Sync { mean_latency: 300.0 }, 64.0);
    let point = TracedPoint::run(&spec).unwrap();
    for run in [&point.fixed, &point.flexible] {
        let per_event = run.events.encoded_bytes() as f64 / run.events.len() as f64;
        assert!(per_event < 6.0, "{:?}: {per_event:.2} bytes per event", run.arch);
    }
}

/// A fixed span list with hostile names: quotes, backslashes, control
/// characters and non-ASCII, on fixed and auto-assigned lanes.
fn hostile_timeline() -> Vec<TimelineSpan> {
    let span = |name: &str, start_us, dur_us, lane| TimelineSpan {
        name: name.to_string(),
        start_us,
        dur_us,
        lane,
    };
    vec![
        span("queue \"wait\"", 0, 40, Some(0)),
        span("run\\all\n", 40, 900, Some(0)),
        span("point 0 \u{1}\t\r", 50, 300, None),
        span("point 1 é→\u{7f}", 60, 200, None),
        span("", 300, 0, None),
        span("store put 1 \u{1f}", 350, 100, None),
        span("zwölf \u{10ffff}", 700, 50, Some(5)),
    ]
}

/// Byte-identity pin of the per-job timeline, `otherData` pairs included.
#[test]
fn hostile_timeline_matches_its_golden() {
    let doc = chrome_timeline_json(
        "rr-serve job \"7\"\\\n",
        &hostile_timeline(),
        &[
            ("job_id", "7".to_string()),
            ("label", json_string("fig\"5\"\u{2}")),
            ("trace_id", "null".to_string()),
            ("we\"ird key", "940".to_string()),
        ],
    );
    serde_json::from_str::<serde::Value>(&doc).expect("timeline parses as JSON");
    assert_eq!(sha256_hex(doc.as_bytes()), GOLDEN_HOSTILE_TIMELINE, "{doc}");
}

#[test]
fn windowed_metrics_agree_with_engine_aggregates() {
    for fault in [FaultKind::Cache { latency: 200 }, FaultKind::Sync { mean_latency: 400.0 }] {
        let spec = quick_spec(7, fault, 32.0);
        let (stats, events) = spec.run_with_events().unwrap();
        let metrics = MetricsReport::from_events(&events, None);
        assert_eq!(metrics.total_cycles, stats.total_cycles);
        assert!(
            (metrics.efficiency_from_windows() - stats.efficiency_full()).abs() < 1e-12,
            "windows tile busy cycles exactly"
        );
        assert_eq!(metrics.fault_latencies.total(), stats.faults, "one latency sample per fault");
        let window_faults: u64 = metrics.windows.iter().map(|w| w.faults).sum();
        assert_eq!(window_faults, stats.faults);
        let window_loads: u64 = metrics.windows.iter().map(|w| w.loads).sum();
        assert_eq!(window_loads, stats.loads);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The replay oracle: for random specs on either architecture and
    /// either fault family, the event stream alone re-derives every field
    /// of the engine's statistics — cycle buckets, counters, checkpoints,
    /// and the resident-context integral, bit for bit.
    #[test]
    fn event_stream_rederives_stats_for_random_specs(
        seed in 1u64..1_000_000,
        fixed_arch in any::<bool>(),
        sync in any::<bool>(),
        run_length in prop_oneof![Just(8.0f64), Just(32.0), Just(128.0)],
        latency in prop_oneof![Just(50u64), Just(150), Just(400)],
        threads in 4usize..16,
    ) {
        let fault = if sync {
            FaultKind::Sync { mean_latency: latency as f64 }
        } else {
            FaultKind::Cache { latency }
        };
        let spec = ExperimentSpec {
            arch: if fixed_arch { Arch::Fixed } else { Arch::Flexible },
            threads,
            ..quick_spec(seed, fault, run_length)
        };
        let (stats, events) = spec.run_with_events().unwrap();
        let replayed = EventAccountant::replay(&events).unwrap();
        prop_assert_eq!(&replayed, &stats);
        prop_assert_eq!(
            replayed.avg_resident.to_bits(),
            stats.avg_resident.to_bits(),
            "resident integral must replay bit-exactly"
        );
        // And the untraced run is bit-identical to the traced one.
        prop_assert_eq!(&spec.run().unwrap(), &stats);
    }
}
