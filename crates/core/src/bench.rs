//! The perf-regression harness behind `rr bench`.
//!
//! A bench run executes a *pinned suite* of representative workloads —
//! cold and warm figure sweeps, one fully traced point, a store integrity
//! pass — several times, and writes a schema-versioned `BENCH_<seq>.json`
//! report carrying two kinds of numbers:
//!
//! * **Cycle-exact invariants** — simulated-cycle totals, point counts,
//!   cache-hit counts, event counts. These are pure functions of the seed
//!   and must be *identical* across iterations, machines, and commits;
//!   [`check`] compares them exactly, so an unintended behavioral change
//!   to the simulator fails the bench even when it is faster.
//! * **Wall-clock medians** — host nanoseconds per case (median and min
//!   across iterations). [`check`] only fails these in the *regression*
//!   direction, and only beyond a configurable tolerance, because wall
//!   clock is noisy where cycles are not.
//!
//! Reports are sequence files: `rr bench` writes `BENCH_<n+1>.json` next
//! to the highest committed `BENCH_<n>.json`, so the repository
//! accumulates a perf trajectory, and `rr bench --check` compares a fresh
//! run against the latest baseline (or an explicit `--baseline`), exiting
//! nonzero on regression.

use std::path::{Path, PathBuf};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::cache;
use crate::experiments::{Arch, ExperimentSpec};
use crate::sweep::{SweepGrid, SweepRun, SweepRunner};
use crate::trace::TracedPoint;
use rr_telemetry::info;

/// Version of the serialized [`BenchReport`]. Bump on any field addition,
/// removal, or meaning change; [`BenchReport::from_json`] refuses other
/// versions so `--check` never compares across schemas.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// Prefix of on-disk report files: `BENCH_<seq>.json`.
const BENCH_PREFIX: &str = "BENCH_";

/// Which pinned workload set a bench run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Suite {
    /// Panel-sized sweeps with shrunk workloads — seconds, for CI smoke.
    Quick,
    /// The full figure grids at paper scale — minutes, for real baselines.
    Full,
}

impl Suite {
    /// The suite's serialized name.
    pub fn name(&self) -> &'static str {
        match self {
            Suite::Quick => "quick",
            Suite::Full => "full",
        }
    }

    /// Parses a serialized suite name.
    pub fn parse(s: &str) -> Option<Suite> {
        match s {
            "quick" => Some(Suite::Quick),
            "full" => Some(Suite::Full),
            _ => None,
        }
    }

    /// Default iteration count: enough repeats for a stable median without
    /// making `--quick` slow.
    pub fn default_iterations(&self) -> usize {
        match self {
            Suite::Quick => 3,
            Suite::Full => 5,
        }
    }
}

/// How to run the suite.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Workload set.
    pub suite: Suite,
    /// Repeats per case (median/min are taken across these).
    pub iterations: usize,
    /// Workload seed every case derives from.
    pub seed: u64,
    /// Sweep worker threads. Defaults to 1 so wall-clock numbers measure
    /// the engine, not the host's momentary scheduling luck.
    pub jobs: usize,
}

impl BenchConfig {
    /// The default configuration for `suite`.
    pub fn new(suite: Suite) -> Self {
        BenchConfig { suite, iterations: suite.default_iterations(), seed: 1993, jobs: 1 }
    }
}

/// One named cycle-exact quantity a case asserts.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Invariant {
    /// What the number counts.
    pub name: String,
    /// The count. Identical across iterations or the bench run fails.
    pub value: u64,
}

/// One case's result: its wall-clock distribution and its invariants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchCaseReport {
    /// Case name, stable across commits (e.g. `fig5_cold`).
    pub name: String,
    /// Iterations measured.
    pub iterations: usize,
    /// Median wall nanoseconds across iterations (for even counts, the
    /// two middle iterations averaged, rounded down).
    pub wall_nanos_median: u64,
    /// Fastest iteration — the least-noisy single number.
    pub wall_nanos_min: u64,
    /// Cycle-exact quantities, compared exactly by [`check`].
    pub invariants: Vec<Invariant>,
}

/// A full bench run, as serialized to `BENCH_<seq>.json`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchReport {
    /// [`BENCH_SCHEMA_VERSION`] this report was produced under.
    pub schema_version: u32,
    /// Suite name (`quick` or `full`).
    pub suite: String,
    /// Workload seed the cases ran with.
    pub seed: u64,
    /// Sweep worker threads the cases ran with.
    pub jobs: usize,
    /// Per-case results, in fixed suite order.
    pub cases: Vec<BenchCaseReport>,
}

impl BenchReport {
    /// Serializes the report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json_pretty(&self) -> Result<String, String> {
        serde_json::to_string_pretty(self).map_err(|e| format!("serializing bench report: {e}"))
    }

    /// Parses a serialized report, refusing foreign schema versions.
    ///
    /// # Errors
    ///
    /// Malformed JSON or a [`BENCH_SCHEMA_VERSION`] mismatch.
    pub fn from_json(json: &str) -> Result<BenchReport, String> {
        let report: BenchReport =
            serde_json::from_str(json).map_err(|e| format!("parsing bench report: {e}"))?;
        if report.schema_version != BENCH_SCHEMA_VERSION {
            return Err(format!(
                "bench report schema v{} (this build speaks v{BENCH_SCHEMA_VERSION})",
                report.schema_version
            ));
        }
        Ok(report)
    }

    /// The named case, if present.
    pub fn case(&self, name: &str) -> Option<&BenchCaseReport> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// One iteration's observation of one case.
struct CaseSample {
    wall_nanos: u64,
    invariants: Vec<Invariant>,
}

/// The pinned grids, the traced point, and the long-horizon point for
/// `suite`.
///
/// The long-horizon case runs the traced point's spec for 10× the suite's
/// per-thread work on both architectures. The sweep cases retire threads
/// quickly; a tenfold horizon keeps the engine in its steady state long
/// enough that inner-loop costs (wakeup queue churn, per-probe scheduling
/// work) dominate the measurement instead of setup and teardown.
fn suite_grids(config: &BenchConfig) -> (SweepGrid, SweepGrid, ExperimentSpec, ExperimentSpec) {
    let (fig5, fig6, traced) = match config.suite {
        Suite::Quick => {
            let shrink = |mut grid: SweepGrid| {
                grid.base =
                    ExperimentSpec { threads: 8, work_per_thread: 2_000, ..grid.base };
                grid
            };
            let fig5 = shrink(SweepGrid::figure5_panel(64, config.seed));
            let fig6 = shrink(SweepGrid::figure6_panel(64, config.seed));
            let traced = fig5
                .point_at(64, 8.0, 100)
                .expect("64,8,100 is on the Figure 5 grid")
                .spec;
            (fig5, fig6, traced)
        }
        Suite::Full => {
            let fig5 = SweepGrid::figure5(config.seed);
            let fig6 = SweepGrid::figure6(config.seed);
            let traced = fig5
                .point_at(64, 8.0, 400)
                .expect("64,8,400 is on the Figure 5 grid")
                .spec;
            (fig5, fig6, traced)
        }
    };
    let long = ExperimentSpec { work_per_thread: traced.work_per_thread * 10, ..traced };
    (fig5, fig6, traced, long)
}

/// The invariants of one sweep execution.
fn sweep_invariants(run: &SweepRun) -> Vec<Invariant> {
    let fixed_cycles: u64 = run.report.points.iter().map(|p| p.fixed.total_cycles).sum();
    let flexible_cycles: u64 =
        run.report.points.iter().map(|p| p.flexible.total_cycles).sum();
    vec![
        Invariant { name: "points".into(), value: run.report.points.len() as u64 },
        Invariant { name: "cache_hits".into(), value: run.cache.hits as u64 },
        Invariant { name: "fixed_cycles".into(), value: fixed_cycles },
        Invariant { name: "flexible_cycles".into(), value: flexible_cycles },
    ]
}

/// Runs the whole suite once against a fresh store at `store_dir`,
/// returning each case's sample in suite order.
fn run_suite_once(
    config: &BenchConfig,
    store_dir: &Path,
) -> Result<Vec<(String, CaseSample)>, String> {
    let (fig5, fig6, traced_spec, long_spec) = suite_grids(config);
    let mut samples = Vec::new();
    let mut sweep_case = |name: &str, grid: &SweepGrid| -> Result<(), String> {
        let store = cache::open_store(store_dir).map_err(|e| e.to_string())?;
        let runner = SweepRunner::new(config.jobs).with_store(Some(store));
        let started = Instant::now();
        let run = runner.run(grid).map_err(|e| format!("{name}: {e}"))?;
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        samples.push((
            name.to_string(),
            CaseSample { wall_nanos: wall, invariants: sweep_invariants(&run) },
        ));
        Ok(())
    };
    // Cold then warm against the same store: the cold pass populates it, so
    // the warm pass's `cache_hits` invariant proves the store served every
    // point.
    sweep_case("fig5_cold", &fig5)?;
    sweep_case("fig5_warm", &fig5)?;
    sweep_case("fig6_cold", &fig6)?;
    sweep_case("fig6_warm", &fig6)?;

    {
        let store = cache::open_store(store_dir).map_err(|e| e.to_string())?;
        let started = Instant::now();
        let report = store.verify().map_err(|e| format!("store_verify: {e}"))?;
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        if !report.quarantined.is_empty() {
            return Err(format!(
                "store_verify: {} freshly written record(s) failed verification",
                report.quarantined.len()
            ));
        }
        samples.push((
            "store_verify".to_string(),
            CaseSample {
                wall_nanos: wall,
                invariants: vec![Invariant { name: "records_ok".into(), value: report.ok }],
            },
        ));
    }

    {
        let started = Instant::now();
        let traced = TracedPoint::run(&traced_spec).map_err(|e| format!("traced_point: {e}"))?;
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        samples.push((
            "traced_point".to_string(),
            CaseSample {
                wall_nanos: wall,
                invariants: vec![
                    Invariant {
                        name: "fixed_cycles".into(),
                        value: traced.fixed.stats.total_cycles,
                    },
                    Invariant {
                        name: "flexible_cycles".into(),
                        value: traced.flexible.stats.total_cycles,
                    },
                    Invariant {
                        name: "fixed_events".into(),
                        value: traced.fixed.events.len() as u64,
                    },
                    Invariant {
                        name: "flexible_events".into(),
                        value: traced.flexible.events.len() as u64,
                    },
                ],
            },
        ));
    }

    {
        // Long horizon: the traced point's spec at 10× work, untraced, on
        // both architectures. Steady-state engine throughput with no store
        // or event-recording overhead in the measurement.
        let started = Instant::now();
        let fixed = long_spec
            .with_arch(Arch::Fixed)
            .run()
            .map_err(|e| format!("long_horizon: {e}"))?;
        let flexible = long_spec
            .with_arch(Arch::Flexible)
            .run()
            .map_err(|e| format!("long_horizon: {e}"))?;
        let wall = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        samples.push((
            "long_horizon".to_string(),
            CaseSample {
                wall_nanos: wall,
                invariants: vec![
                    Invariant { name: "fixed_cycles".into(), value: fixed.total_cycles },
                    Invariant { name: "flexible_cycles".into(), value: flexible.total_cycles },
                ],
            },
        ));
    }
    Ok(samples)
}

/// Median of a sorted slice: the middle element for odd counts, the mean
/// of the two middle elements (rounded down) for even counts. The old
/// lower-middle shortcut biased even-count medians fast — with 4
/// iterations a single lucky run pulled the reported median below the
/// typical run, hiding regressions and inflating wins.
fn median(sorted: &[u64]) -> u64 {
    let n = sorted.len();
    let hi = sorted[n / 2];
    if n % 2 == 1 {
        hi
    } else {
        let lo = sorted[n / 2 - 1];
        lo + (hi - lo) / 2
    }
}

/// Runs the configured suite `config.iterations` times and aggregates the
/// samples into a [`BenchReport`].
///
/// Every iteration gets a *fresh* store directory (under the system temp
/// dir, removed afterwards), so cold cases are genuinely cold and warm
/// cases hit every point. Invariants are cross-checked between iterations:
/// a simulator that produces different cycles on repeat runs is broken, and
/// the bench says so instead of averaging it away.
///
/// # Errors
///
/// Case failures, store I/O failures, and cross-iteration invariant
/// divergence.
pub fn run(config: &BenchConfig) -> Result<BenchReport, String> {
    if config.iterations == 0 {
        return Err("bench needs at least one iteration".to_string());
    }
    let mut walls: Vec<(String, Vec<u64>)> = Vec::new();
    let mut invariants: Vec<Vec<Invariant>> = Vec::new();
    for iter in 0..config.iterations {
        let store_dir = std::env::temp_dir()
            .join(format!("rr-bench-{}-{iter}", std::process::id()));
        let samples = run_suite_once(config, &store_dir);
        let _ = std::fs::remove_dir_all(&store_dir);
        let samples = samples?;
        if iter == 0 {
            for (name, sample) in samples {
                walls.push((name, vec![sample.wall_nanos]));
                invariants.push(sample.invariants);
            }
        } else {
            for (i, (name, sample)) in samples.into_iter().enumerate() {
                debug_assert_eq!(walls[i].0, name, "suite order is fixed");
                walls[i].1.push(sample.wall_nanos);
                if invariants[i] != sample.invariants {
                    return Err(format!(
                        "case `{name}`: iteration {iter} produced different invariants than \
                         iteration 0 ({:?} vs {:?}) — the suite is not deterministic",
                        sample.invariants, invariants[i]
                    ));
                }
            }
        }
        info!("bench", "iteration {}/{} done", iter + 1, config.iterations);
    }
    let cases = walls
        .into_iter()
        .zip(invariants)
        .map(|((name, mut wall), invariants)| {
            wall.sort_unstable();
            BenchCaseReport {
                name,
                iterations: config.iterations,
                wall_nanos_median: median(&wall),
                wall_nanos_min: wall[0],
                invariants,
            }
        })
        .collect();
    Ok(BenchReport {
        schema_version: BENCH_SCHEMA_VERSION,
        suite: config.suite.name().to_string(),
        seed: config.seed,
        jobs: config.jobs,
        cases,
    })
}

/// Below this absolute delta a median wall-clock difference is treated as
/// host noise, whatever the relative tolerance says. The quick suite's
/// small cases (store verify, warm sweeps) finish in a millisecond or
/// two, where one page-cache stall or fsync hiccup is a multi-x relative
/// "regression"; the cases a real regression would show up in run tens of
/// milliseconds and clear this floor easily. A case's floor is capped at
/// four times its own baseline median (see [`check`]), so the floor never
/// dwarfs the case it guards.
pub const WALL_NOISE_FLOOR_NANOS: u64 = 5_000_000;

/// Compares a fresh run against a baseline: suites and case sets must
/// match, invariants must match *exactly*, and each case's median wall
/// clock may not regress beyond `tolerance` (e.g. `0.1` = 10% slower
/// fails; any speedup passes). A regression must also exceed
/// [`WALL_NOISE_FLOOR_NANOS`], capped at four times the baseline median,
/// in absolute terms, so sub-millisecond cases cannot flake on scheduler
/// or filesystem noise while a case that was near-instant still fails
/// when it slows by orders of magnitude.
///
/// # Errors
///
/// One message naming every violation, suitable for the CLI to print and
/// exit nonzero on.
pub fn check(new: &BenchReport, baseline: &BenchReport, tolerance: f64) -> Result<(), String> {
    let mut violations = Vec::new();
    if new.suite != baseline.suite {
        violations.push(format!(
            "suite mismatch: ran `{}`, baseline is `{}`",
            new.suite, baseline.suite
        ));
    }
    if new.seed != baseline.seed {
        violations.push(format!(
            "seed mismatch: ran {}, baseline used {}",
            new.seed, baseline.seed
        ));
    }
    if new.jobs != baseline.jobs {
        violations.push(format!(
            "jobs mismatch: ran with {} worker(s), baseline used {}",
            new.jobs, baseline.jobs
        ));
    }
    for base_case in &baseline.cases {
        let Some(new_case) = new.case(&base_case.name) else {
            violations.push(format!("case `{}` missing from this run", base_case.name));
            continue;
        };
        if new_case.invariants != base_case.invariants {
            violations.push(format!(
                "case `{}`: cycle-exact invariants changed ({:?} vs baseline {:?})",
                base_case.name, new_case.invariants, base_case.invariants
            ));
        }
        let base = base_case.wall_nanos_median;
        let floor = WALL_NOISE_FLOOR_NANOS.min(base.saturating_mul(4));
        let ceiling =
            ((base as f64) * (1.0 + tolerance)).max(base.saturating_add(floor) as f64);
        if (new_case.wall_nanos_median as f64) > ceiling {
            violations.push(format!(
                "case `{}`: wall regression {:.1}ms -> {:.1}ms (median, tolerance {:.0}%)",
                base_case.name,
                base_case.wall_nanos_median as f64 / 1e6,
                new_case.wall_nanos_median as f64 / 1e6,
                tolerance * 100.0
            ));
        }
    }
    for new_case in &new.cases {
        if baseline.case(&new_case.name).is_none() {
            violations.push(format!(
                "case `{}` is new (not in the baseline); commit a fresh baseline",
                new_case.name
            ));
        }
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(format!("bench check failed:\n  {}", violations.join("\n  ")))
    }
}

/// The sequence number encoded in a `BENCH_<seq>.json` file name.
fn bench_seq(path: &Path) -> Option<u64> {
    let name = path.file_name()?.to_str()?;
    name.strip_prefix(BENCH_PREFIX)?.strip_suffix(".json")?.parse().ok()
}

/// Every `BENCH_<seq>.json` in `dir`, sorted by sequence number.
fn bench_files(dir: &Path) -> Vec<(u64, PathBuf)> {
    let mut found: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|entry| {
            let path = entry.path();
            bench_seq(&path).map(|seq| (seq, path))
        })
        .collect();
    found.sort();
    found
}

/// The path the next `rr bench` report in `dir` should be written to:
/// one past the highest existing sequence number, starting at 1.
pub fn next_bench_path(dir: &Path) -> PathBuf {
    let next = bench_files(dir).last().map_or(1, |(seq, _)| seq + 1);
    dir.join(format!("{BENCH_PREFIX}{next}.json"))
}

/// The highest-sequence existing report in `dir` — the default `--check`
/// baseline.
pub fn latest_bench_path(dir: &Path) -> Option<PathBuf> {
    bench_files(dir).pop().map(|(_, path)| path)
}

/// Acts on a finished run: with a baseline (check mode) the report is
/// compared and *never* written to disk — in particular, a failing check
/// must not mint `BENCH_<n+1>.json`, or the regression it just caught
/// would become the next run's baseline. Without a baseline (record mode)
/// the report becomes the next sequence file in `dir`.
///
/// Returns the path written, or `None` in check mode.
///
/// # Errors
///
/// Check violations (from [`check`]) and report-write failures. On error,
/// no file has been written.
pub fn finish(
    dir: &Path,
    report: &BenchReport,
    baseline: Option<(&BenchReport, f64)>,
) -> Result<Option<PathBuf>, String> {
    match baseline {
        Some((base, tolerance)) => {
            check(report, base, tolerance)?;
            Ok(None)
        }
        None => {
            let path = next_bench_path(dir);
            std::fs::write(&path, report.to_json_pretty()?)
                .map_err(|e| format!("cannot write `{}`: {e}", path.display()))?;
            Ok(Some(path))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::FaultFamily;

    fn sample_report() -> BenchReport {
        BenchReport {
            schema_version: BENCH_SCHEMA_VERSION,
            suite: "quick".to_string(),
            seed: 1993,
            jobs: 1,
            cases: vec![BenchCaseReport {
                name: "fig5_cold".to_string(),
                iterations: 3,
                wall_nanos_median: 100_000_000,
                wall_nanos_min: 90_000_000,
                invariants: vec![Invariant { name: "points".into(), value: 18 }],
            }],
        }
    }

    #[test]
    fn report_round_trips_and_rejects_foreign_schemas() {
        let report = sample_report();
        let json = report.to_json_pretty().unwrap();
        assert_eq!(BenchReport::from_json(&json).unwrap(), report);
        let foreign = json.replacen(
            &format!("\"schema_version\": {BENCH_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
            1,
        );
        let err = BenchReport::from_json(&foreign).unwrap_err();
        assert!(err.contains("schema v99"), "{err}");
        assert!(BenchReport::from_json("not json").is_err());
    }

    #[test]
    fn check_accepts_identical_and_faster_runs() {
        let baseline = sample_report();
        assert!(check(&baseline, &baseline, 0.0).is_ok(), "identical run passes at 0%");
        let mut faster = baseline.clone();
        faster.cases[0].wall_nanos_median = 1; // speedups never fail
        assert!(check(&faster, &baseline, 0.0).is_ok());
    }

    #[test]
    fn check_fails_wall_regressions_beyond_tolerance_only() {
        let baseline = sample_report();
        let mut slower = baseline.clone();
        slower.cases[0].wall_nanos_median = 110_000_000; // +10%
        assert!(check(&slower, &baseline, 0.20).is_ok(), "within 20% tolerance");
        let err = check(&slower, &baseline, 0.05).unwrap_err();
        assert!(err.contains("wall regression"), "{err}");
        assert!(err.contains("fig5_cold"), "{err}");
    }

    #[test]
    fn check_absorbs_small_case_noise_under_the_absolute_floor() {
        // A millisecond-scale case jumping 4x is scheduler/fs noise, not a
        // perf regression; the absolute floor must absorb it even when the
        // relative tolerance alone would flag it.
        // The floor is min(5ms, 4 x 0.8ms) = 3.2ms, so the ceiling is
        // 0.8ms + 3.2ms = 4.0ms.
        let mut baseline = sample_report();
        baseline.cases[0].wall_nanos_median = 800_000;
        let mut noisy = baseline.clone();
        noisy.cases[0].wall_nanos_median = 3_400_000;
        assert!(check(&noisy, &baseline, 0.25).is_ok(), "under the 4.0ms ceiling");
        noisy.cases[0].wall_nanos_median = 4_000_000;
        assert!(check(&noisy, &baseline, 0.25).is_ok(), "at the 4.0ms ceiling");
        // One nanosecond past the ceiling fails.
        let mut regressed = baseline.clone();
        regressed.cases[0].wall_nanos_median = 4_000_001;
        let err = check(&regressed, &baseline, 0.25).unwrap_err();
        assert!(err.contains("wall regression"), "{err}");
    }

    #[test]
    fn check_caps_the_noise_floor_at_the_case_scale() {
        // A baseline that took 1ns gets a 5ns ceiling, not 5ms: any real
        // run is a regression, however fast the host.
        let mut baseline = sample_report();
        baseline.cases[0].wall_nanos_median = 1;
        let mut run = baseline.clone();
        run.cases[0].wall_nanos_median = 5;
        assert!(check(&run, &baseline, 0.5).is_ok(), "at the 1ns case's ceiling");
        run.cases[0].wall_nanos_median = 6;
        let err = check(&run, &baseline, 0.5).unwrap_err();
        assert!(err.contains("wall regression"), "{err}");
    }

    #[test]
    fn check_fails_any_invariant_drift() {
        let baseline = sample_report();
        let mut drifted = baseline.clone();
        drifted.cases[0].invariants[0].value = 17;
        drifted.cases[0].wall_nanos_median = 1; // even when faster
        let err = check(&drifted, &baseline, 1.0).unwrap_err();
        assert!(err.contains("cycle-exact invariants changed"), "{err}");
    }

    #[test]
    fn check_fails_a_jobs_mismatch() {
        // Walls taken with another worker count are not comparable, even
        // when every invariant matches and the run is faster.
        let baseline = sample_report();
        let mut parallel = baseline.clone();
        parallel.jobs = 2;
        parallel.cases[0].wall_nanos_median = 1;
        let err = check(&parallel, &baseline, 1.0).unwrap_err();
        assert!(err.contains("jobs mismatch: ran with 2 worker(s), baseline used 1"), "{err}");
    }

    #[test]
    fn check_fails_suite_and_case_set_mismatches() {
        let baseline = sample_report();
        let mut other = baseline.clone();
        other.suite = "full".to_string();
        assert!(check(&other, &baseline, 0.5).unwrap_err().contains("suite mismatch"));
        let mut missing = baseline.clone();
        missing.cases.clear();
        assert!(check(&missing, &baseline, 0.5).unwrap_err().contains("missing from this run"));
        let mut extra = baseline.clone();
        extra.cases.push(BenchCaseReport {
            name: "novel".to_string(),
            iterations: 3,
            wall_nanos_median: 1,
            wall_nanos_min: 1,
            invariants: vec![],
        });
        assert!(check(&extra, &baseline, 0.5).unwrap_err().contains("is new"));
    }

    #[test]
    fn bench_sequence_files_scan_and_advance() {
        let dir = std::env::temp_dir().join(format!("rr-bench-seq-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_1.json"));
        assert_eq!(latest_bench_path(&dir), None);
        std::fs::write(dir.join("BENCH_1.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_3.json"), "{}").unwrap();
        std::fs::write(dir.join("BENCH_x.json"), "{}").unwrap(); // ignored
        assert_eq!(next_bench_path(&dir), dir.join("BENCH_4.json"));
        assert_eq!(latest_bench_path(&dir), Some(dir.join("BENCH_3.json")));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn suites_pin_their_grids() {
        let quick = BenchConfig::new(Suite::Quick);
        let (fig5, fig6, traced, long) = suite_grids(&quick);
        assert_eq!(fig5.len(), 18, "one panel");
        assert_eq!(fig6.len(), 18);
        assert_eq!(fig5.base.threads, 8);
        assert_eq!(fig5.base.work_per_thread, 2_000);
        assert_eq!((traced.file_size, traced.run_length), (64, 8.0));
        assert_eq!(long.work_per_thread, 20_000, "10x the quick horizon");
        assert_eq!((long.file_size, long.run_length), (64, 8.0));
        assert_eq!(fig5.fault, FaultFamily::Cache);
        assert_eq!(fig6.fault, FaultFamily::Sync);
        assert_eq!(quick.iterations, 3);

        let full = BenchConfig::new(Suite::Full);
        let (fig5, fig6, _, long) = suite_grids(&full);
        assert_eq!(fig5.len(), 54, "three panels");
        assert_eq!(fig6.len(), 54);
        assert_eq!(long.work_per_thread, 200_000, "10x the full horizon");
        assert_eq!(full.iterations, 5);
        assert_eq!(full.jobs, 1, "single worker for stable walls");
    }

    #[test]
    fn median_averages_even_counts_and_takes_middle_of_odd() {
        assert_eq!(median(&[7]), 7);
        assert_eq!(median(&[1, 9]), 5);
        assert_eq!(median(&[1, 2, 100]), 2);
        // Even count: the mean of the two middles, not the lower one — a
        // single fast outlier must not drag the median down.
        assert_eq!(median(&[10, 10, 10, 100]), 10);
        assert_eq!(median(&[1, 10, 20, 100]), 15);
        // Rounds down on an odd sum of the middles.
        assert_eq!(median(&[0, 1, 2, 3]), 1);
        // Near-u64::MAX middles must not overflow.
        assert_eq!(median(&[u64::MAX - 2, u64::MAX]), u64::MAX - 1);
    }

    #[test]
    fn failed_check_writes_no_new_baseline() {
        let dir = std::env::temp_dir().join(format!("rr-bench-fin-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();

        let baseline = sample_report();
        let mut drifted = baseline.clone();
        drifted.cases[0].invariants[0].value = 17;
        // Check mode, failing: error out and leave the directory untouched.
        let err = finish(&dir, &drifted, Some((&baseline, 0.25))).unwrap_err();
        assert!(err.contains("cycle-exact invariants changed"), "{err}");
        assert!(bench_files(&dir).is_empty(), "failed check must not write a report");
        // Check mode, passing: still no file — checking never records.
        assert_eq!(finish(&dir, &baseline, Some((&baseline, 0.25))).unwrap(), None);
        assert!(bench_files(&dir).is_empty(), "passing check must not write either");

        // Record mode: sequence files advance and round-trip.
        let first = finish(&dir, &baseline, None).unwrap().unwrap();
        assert_eq!(first, dir.join("BENCH_1.json"));
        let second = finish(&dir, &baseline, None).unwrap().unwrap();
        assert_eq!(second, dir.join("BENCH_2.json"));
        let read = BenchReport::from_json(&std::fs::read_to_string(&second).unwrap()).unwrap();
        assert_eq!(read, baseline);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
