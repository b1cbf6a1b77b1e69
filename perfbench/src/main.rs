//! The repository's benchmark: one command, two workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --offline --locked --manifest-path perfbench/Cargo.toml -- \
//!     --workload <compute|replay_serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload is two parts run one after the other in every pass:
//! `compute` is `cold_sweep` then `inspect`, everything computed from
//! scratch; `replay_serve` is `warm_replay` then `serve_mixed`, results
//! read back from a store, directly and through the job service.
//!
//! Each run sets up (including one warm-up pass over the workload's fixed
//! job list), then measures whole passes over the same list until
//! `--seconds` of pass time have elapsed, checks every output, and prints
//! one JSON result line. See `perfbench/README.md`.

mod checks;
mod cold;
mod http;
mod inspect;
mod layers;
mod serve;
mod warm;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use layers::{median, Recorder};

/// One job of a pass: a request a user would make.
pub struct JobOutcome {
    /// Host seconds from issuing the job to holding its checked result.
    pub latency_s: f64,
    /// Grid points the job delivered (0 when it failed).
    pub points: u64,
    /// Whether the program returned an error instead of a result.
    pub failed: bool,
}

impl JobOutcome {
    /// A job the program could not complete: counted as failed, never
    /// checked.
    pub fn failed(started: Instant, why: String) -> JobOutcome {
        eprintln!("perfbench: job failed: {why}");
        JobOutcome {
            latency_s: started.elapsed().as_secs_f64(),
            points: 0,
            failed: true,
        }
    }
}

/// A workload: a fixed job list, run in whole passes.
pub trait Workload {
    /// Runs every job of the list once. Output that fails a check is
    /// reported through `problems`; a job the program could not complete
    /// is returned with `failed` set.
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome>;

    /// Checks that need the whole run (after the measured phase), and
    /// teardown.
    fn finish(&mut self, _rec: &mut Recorder, _problems: &mut Vec<String>) {}
}

/// What every workload is built from.
pub struct Context {
    /// The `--seed` every input derives from.
    pub seed: u64,
    /// Scratch directory for stores, journals and traces; removed at exit.
    pub tmp: PathBuf,
    /// Whether this is a traced run (set-up may time layer calls).
    pub traced: bool,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value}"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value}"))?;
                if !(s > 0.0 && s <= 120.0) {
                    return Err(format!("--seconds {value} outside (0, 120]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// A fixed integer loop timed between passes: how fast the host runs right
/// now. Diagnostic only; no end-to-end metric is divided by it.
fn calibrate() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x9E37_79B9_7F4A_7C15u64);
    for _ in 0..2_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}

/// Peak resident set of this process in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Two parts run as one workload: each pass runs both job lists in turn.
/// Runs long enough to average over the host's slow stretches fit the
/// time an acceptance round allows only for two workloads, so the four
/// parts are paired by what they stress: computing from scratch, and
/// reading results back.
struct Paired(Box<dyn Workload>, Box<dyn Workload>);

impl Workload for Paired {
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome> {
        let mut jobs = self.0.pass(rec, problems);
        jobs.extend(self.1.pass(rec, problems));
        jobs
    }

    fn finish(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) {
        self.0.finish(rec, problems);
        self.1.finish(rec, problems);
    }
}

fn build(name: &str, ctx: &Context, rec: &mut Recorder) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "compute" => Box::new(Paired(
            Box::new(cold::ColdSweep::new(ctx)),
            Box::new(inspect::Inspect::new(ctx)?),
        )),
        "replay_serve" => Box::new(Paired(
            Box::new(warm::WarmReplay::new(ctx, rec)?),
            Box::new(serve::ServeMixed::new(ctx)?),
        )),
        other => return Err(format!("unknown workload {other}")),
    })
}

/// Removes the run's scratch directory however the run ends.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn main() -> ExitCode {
    let process_started = Instant::now();
    match run(process_started) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run(process_started: Instant) -> Result<String, String> {
    let args = parse_args()?;
    // Keep the in-process daemon's per-job info lines off stderr.
    rr_telemetry::log::set_level(rr_telemetry::Level::Warn);
    let out_dir = PathBuf::from(".perfbench");
    let tmp = TmpDir(out_dir.join(format!("run-{}", std::process::id())));
    std::fs::create_dir_all(&tmp.0)
        .map_err(|e| format!("cannot create {}: {e}", tmp.0.display()))?;
    let ctx = Context {
        seed: args.seed,
        tmp: tmp.0.clone(),
        traced: args.trace,
    };
    let mut rec = Recorder::new();
    let mut problems = Vec::new();

    // Set-up: build the workload, then one untraced warm-up pass.
    rec.set_enabled(args.trace);
    let mut workload = build(&args.workload, &ctx, &mut rec)?;
    rec.set_enabled(false);
    let warmup = workload.pass(&mut rec, &mut problems);
    if warmup.iter().any(|j| j.failed) {
        problems.push("a warm-up job failed".to_string());
    }
    let setup_s = process_started.elapsed().as_secs_f64();

    // Measured phase: whole passes until --seconds of pass time. A traced
    // run alternates untraced and traced passes, so the tracing overhead
    // is measured in the same process.
    let mut measured = 0.0;
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Points delivered by untraced passes, and each job slot's latencies
    // across passes.
    let (mut points, mut slot_ms) = (0u64, Vec::<Vec<f64>>::new());
    let (mut plain_passes, mut traced_passes, mut calibration) =
        (Vec::new(), Vec::new(), Vec::new());
    let mut index = 0usize;
    while measured < args.seconds
        || (args.trace && (plain_passes.len() < 2 || traced_passes.len() < 2))
    {
        calibration.push(calibrate());
        let traced = args.trace && index % 2 == 1;
        rec.set_enabled(traced);
        let started = Instant::now();
        let jobs = workload.pass(&mut rec, &mut problems);
        let secs = started.elapsed().as_secs_f64();
        measured += secs;
        attempted += jobs.len() as u64;
        failed += jobs.iter().filter(|j| j.failed).count() as u64;
        let latencies: Vec<f64> = jobs
            .iter()
            .filter(|j| !j.failed)
            .map(|j| j.latency_s * 1e3)
            .collect();
        eprintln!(
            "perfbench: pass {index}{} {secs:.3}s, job ms {:.1?}",
            if traced { " (traced)" } else { "" },
            latencies
        );
        if traced {
            rec.end_pass();
            traced_passes.push(secs);
        } else {
            points += jobs.iter().map(|j| j.points).sum::<u64>();
            slot_ms.resize(slot_ms.len().max(jobs.len()), Vec::new());
            for (slot, job) in jobs.iter().enumerate().filter(|(_, j)| !j.failed) {
                slot_ms[slot].push(job.latency_s * 1e3);
            }
            plain_passes.push(secs);
        }
        index += 1;
    }
    rec.set_enabled(args.trace);
    workload.finish(&mut rec, &mut problems);
    rec.set_enabled(false);
    problems.extend(
        rec.inconsistencies()
            .iter()
            .map(|c| format!("counts changed between passes: {c}")),
    );
    for p in &problems {
        eprintln!("perfbench: CHECK FAILED: {p}");
    }

    let e2e = [
        // Over all untraced passes: the host's slow phases last tens of
        // seconds, longer than a pass, so a median of per-pass rates would
        // follow whichever phase covered most of the run.
        (
            "points_per_s",
            "points/s",
            points as f64 / plain_passes.iter().sum::<f64>(),
        ),
        // The median over the job list of each job's median latency: robust
        // to a slow pass, and never an extreme of one job's samples.
        (
            "job_p50_ms",
            "ms",
            median(&slot_ms.iter().map(|s| median(s)).collect::<Vec<_>>()),
        ),
        ("setup_s", "s", setup_s),
        ("peak_rss_mib", "MiB", peak_rss_mib()?),
    ];
    eprintln!(
        "perfbench: {} seed={} passes={} untraced + {} traced, {:.2}s measured, calibration median {:.3} ms",
        args.workload,
        args.seed,
        plain_passes.len(),
        traced_passes.len(),
        measured,
        median(&calibration)
    );
    let metrics: Vec<(&str, &str, f64)> = if args.trace {
        for (name, unit, value) in e2e {
            eprintln!("perfbench: traced run, untraced passes: {name} = {value} {unit}");
        }
        rec.set_enabled(true);
        rec.sample("host.calibration_ms", median(&calibration));
        rec.sample(
            "host.tracing_overhead_pct",
            (median(&traced_passes) / median(&plain_passes) - 1.0) * 100.0,
        );
        let trace_path = out_dir.join(format!("trace-{}-seed{}.json", args.workload, args.seed));
        std::fs::write(&trace_path, rec.chrome_trace(&args.workload))
            .map_err(|e| format!("cannot write {}: {e}", trace_path.display()))?;
        eprintln!("perfbench: wrote layer spans to {}", trace_path.display());
        rec.values()
    } else {
        e2e.to_vec()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        problems.is_empty(),
        body.join(", ")
    ))
}
