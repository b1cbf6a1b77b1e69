//! The parallel sweep runner behind the Figure 5/6 regenerations.
//!
//! A figure panel is a grid — file sizes × run lengths × latencies — of
//! *independent* paired experiments: each [`ExperimentSpec`] carries its own
//! seed and builds its own workload, allocator, and engine, so a grid point
//! executes identically on any thread in any order. [`SweepRunner`] exploits
//! that: it expands a [`SweepGrid`] into a flat, deterministically ordered
//! list of points and runs them on a small pool of scoped worker threads.
//! Workers claim points from a shared atomic counter and write each result
//! into that point's own pre-allocated slot, so collection is lock-free and
//! the output order never depends on scheduling. A full three-panel figure
//! (108 paired runs) drops from minutes to the wall-clock of its slowest
//! points.
//!
//! The same independence makes points perfect cache entries. Attach an
//! [`rr_store::Store`] with [`SweepRunner::with_store`] and the runner looks
//! every point up by its content address (see [`crate::cache`]) before
//! touching an engine: a warm sweep skips the simulation entirely and
//! merges stored [`PointReport`]s with freshly computed ones in canonical
//! grid order, producing *byte-identical* JSON to a cold run. Corrupt or
//! stale records degrade to recomputation, never to errors.
//!
//! Observability: every completed point yields a [`PointReport`] with the
//! complete [`SimStats`] of both architectures, host wall-clock times, and
//! the point's grid coordinates and seed; [`SweepReport`] aggregates them
//! and serializes to JSON via the `rr fig5 --json` family of subcommands,
//! while the surrounding [`SweepRun`] carries the volatile facts of this
//! particular execution (worker count, wall clock, cache hit counts, and a
//! host-telemetry snapshot) that must *not* appear in the replayable
//! report. The runner also feeds the process-wide [`rr_telemetry::METRICS`]
//! registry: point outcomes, where the nanoseconds went (queue wait vs
//! simulation vs serialization vs store I/O), and worker-pool occupancy.
//! Per-point progress lines are `debug`-level log records — set
//! `RUST_LOG=debug` (or the CLI's `--log-level debug`) to see them, or
//! force them on regardless of the level with
//! [`SweepRunner::with_progress`].
//!
//! # Example
//!
//! ```
//! use register_relocation::sweep::{SweepGrid, SweepRunner};
//! use register_relocation::experiments::ExperimentSpec;
//!
//! // A scaled-down Figure 5 panel, run on two worker threads.
//! let mut grid = SweepGrid::figure5_panel(64, 7);
//! grid.run_lengths = vec![16.0];
//! grid.latencies = vec![100];
//! grid.base = ExperimentSpec { threads: 8, work_per_thread: 2_000, ..grid.base };
//! let run = SweepRunner::new(2).run(&grid)?;
//! assert_eq!(run.report.points.len(), 1);
//! assert_eq!(run.report.points[0].fixed.accounted_cycles(),
//!            run.report.points[0].fixed.total_cycles);
//! assert!(!run.cache.enabled, "no store attached");
//! # Ok::<(), String>(())
//! ```

use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use serde::{Deserialize, Serialize};

use crate::cache;
use crate::experiments::{
    compare_traced, compare_traced_with, ExperimentSpec, FaultKind,
};
use crate::figures::{
    FigurePoint, FIG5_LATENCIES, FIG5_RUN_LENGTHS, FIG6_LATENCIES, FIG6_RUN_LENGTHS,
    FILE_SIZES,
};
use rr_sim::{Engine, EngineSnapshot, SimStats, TracedRun};
use rr_store::{Fingerprint, Lookup, Store, StoreError};
use rr_telemetry::log::{self, Level};
use rr_telemetry::span;
use rr_telemetry::{info, warn, IncMetric, MetricsSnapshot, StoreMetric, METRICS};
use rr_workload::ContextSizeDist;

/// Version of the serialized sweep artifacts ([`SweepReport`] and
/// [`PointReport`] JSON, including the per-point payloads in the result
/// store). Bump on any field addition, removal, or meaning change;
/// [`SweepReport::from_json`] and the cache decode path refuse other
/// versions, and the store salt folds this constant in so stored points
/// from older schemas are never even looked up.
pub const SWEEP_SCHEMA_VERSION: u32 = 2;

/// Which fault process a grid's latency axis parameterizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum FaultFamily {
    /// Constant-latency remote cache misses (Figure 5, section 3.2).
    Cache,
    /// Exponentially distributed synchronization waits (Figure 6,
    /// section 3.3).
    Sync,
}

impl FaultFamily {
    /// Instantiates the fault at one latency grid coordinate.
    pub fn fault(&self, latency: u64) -> FaultKind {
        match self {
            FaultFamily::Cache => FaultKind::Cache { latency },
            FaultFamily::Sync => FaultKind::Sync { mean_latency: latency as f64 },
        }
    }
}

/// A rectangular experiment grid: the cross product of file sizes, run
/// lengths, and latencies, under one fault family and context-size
/// distribution.
///
/// `base` supplies everything a grid axis does not override — thread count,
/// work per thread, cycle horizon, and the seed — so tests can shrink a
/// grid's workloads without touching its shape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepGrid {
    /// Register file sizes `F` (outermost axis; one figure panel each).
    pub file_sizes: Vec<u32>,
    /// Mean run lengths `R` (middle axis; one curve each).
    pub run_lengths: Vec<f64>,
    /// Fault latencies `L` (innermost axis; one plotted point each).
    pub latencies: Vec<u64>,
    /// Fault process the latency axis parameterizes.
    pub fault: FaultFamily,
    /// Context-size distribution `C`.
    pub context_size: ContextSizeDist,
    /// Template for per-point specs (threads, work, horizon, seed).
    pub base: ExperimentSpec,
}

impl SweepGrid {
    /// The full Figure 5 grid: cache faults, `C ~ U(6,24)`, all three
    /// panels.
    pub fn figure5(seed: u64) -> Self {
        SweepGrid {
            file_sizes: FILE_SIZES.to_vec(),
            run_lengths: FIG5_RUN_LENGTHS.to_vec(),
            latencies: FIG5_LATENCIES.to_vec(),
            fault: FaultFamily::Cache,
            context_size: ContextSizeDist::PAPER_UNIFORM,
            base: ExperimentSpec { seed, ..ExperimentSpec::default() },
        }
    }

    /// One Figure 5 panel (a single register file size).
    pub fn figure5_panel(file_size: u32, seed: u64) -> Self {
        SweepGrid { file_sizes: vec![file_size], ..Self::figure5(seed) }
    }

    /// The full Figure 6 grid: synchronization faults, all three panels.
    pub fn figure6(seed: u64) -> Self {
        SweepGrid {
            file_sizes: FILE_SIZES.to_vec(),
            run_lengths: FIG6_RUN_LENGTHS.to_vec(),
            latencies: FIG6_LATENCIES.to_vec(),
            fault: FaultFamily::Sync,
            context_size: ContextSizeDist::PAPER_UNIFORM,
            base: ExperimentSpec { seed, ..ExperimentSpec::default() },
        }
    }

    /// One Figure 6 panel (a single register file size).
    pub fn figure6_panel(file_size: u32, seed: u64) -> Self {
        SweepGrid { file_sizes: vec![file_size], ..Self::figure6(seed) }
    }

    /// The section 3.4 homogeneous-context grid: the Figure 5 axes with
    /// every thread demanding the same context size `C`.
    pub fn homogeneous(file_size: u32, context_size: u32, seed: u64) -> Self {
        SweepGrid {
            context_size: ContextSizeDist::Fixed(context_size),
            ..Self::figure5_panel(file_size, seed)
        }
    }

    /// The grid's seed (carried by the base spec).
    pub fn seed(&self) -> u64 {
        self.base.seed
    }

    /// Number of grid points.
    pub fn len(&self) -> usize {
        self.file_sizes.len() * self.run_lengths.len() * self.latencies.len()
    }

    /// Whether the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into its flat, canonically ordered point list:
    /// file sizes outermost, then run lengths, then latencies — the exact
    /// nesting of the original serial sweep loops, so figure output is
    /// byte-identical however many workers later execute the points.
    pub fn points(&self) -> Vec<SweepPoint> {
        let mut out = Vec::with_capacity(self.len());
        for &file_size in &self.file_sizes {
            for &run_length in &self.run_lengths {
                for &latency in &self.latencies {
                    out.push(SweepPoint {
                        index: out.len(),
                        file_size,
                        run_length,
                        latency,
                        spec: ExperimentSpec {
                            file_size,
                            run_length,
                            fault: self.fault.fault(latency),
                            context_size: self.context_size,
                            ..self.base
                        },
                    });
                }
            }
        }
        out
    }

    /// Finds the grid point at coordinates `(F, R, L)`, if the grid
    /// contains it. Integer coordinates compare exactly; the run-length
    /// coordinate matches its axis value canonically (see
    /// [`run_length_matches`]), so `--point 64,8,400` finds the point even
    /// when the axis value's bit pattern differs from what the user's
    /// string parses to.
    pub fn point_at(&self, file_size: u32, run_length: f64, latency: u64) -> Option<SweepPoint> {
        self.points().into_iter().find(|p| {
            p.file_size == file_size
                && p.latency == latency
                && run_length_matches(p.run_length, run_length)
        })
    }
}

/// Whether a user-supplied run-length coordinate denotes the grid axis
/// value `axis`.
///
/// Bit-identical floats always match. Beyond that, a coordinate within one
/// part in 10^9 of the axis value matches too: tight enough that two
/// distinct axis values (the paper's grids space them a factor of two
/// apart) can never both claim one coordinate, loose enough that `0.3`
/// finds an axis value computed as `0.1 + 0.2` — the exact-bit comparison
/// this replaces silently rejected such points and made fractional
/// coordinates un-addressable from the CLI.
fn run_length_matches(axis: f64, coord: f64) -> bool {
    axis.to_bits() == coord.to_bits() || (axis - coord).abs() <= axis.abs() * 1e-9
}

/// One expanded grid point: its coordinates plus the self-contained spec
/// that executes it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Position in the grid's canonical order.
    pub index: usize,
    /// Register file size `F`.
    pub file_size: u32,
    /// Mean run length `R`.
    pub run_length: f64,
    /// Latency grid coordinate `L`.
    pub latency: u64,
    /// The experiment this point runs (both architectures, via
    /// [`compare_traced`]).
    pub spec: ExperimentSpec,
}

/// Everything observed while executing one grid point.
///
/// This struct is also the result store's payload format: a computed point
/// serializes to compact JSON and is stored under its spec's fingerprint,
/// so the exact bytes a cold run would emit — wall-clock fields included —
/// come back on a warm run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PointReport {
    /// [`SWEEP_SCHEMA_VERSION`] this report was produced under.
    pub schema_version: u32,
    /// Position in the grid's canonical order.
    pub index: usize,
    /// Register file size `F`.
    pub file_size: u32,
    /// Mean run length `R`.
    pub run_length: f64,
    /// Latency grid coordinate `L`.
    pub latency: u64,
    /// Workload seed the point ran with.
    pub seed: u64,
    /// The plotted figure point (identical to the serial sweep's output).
    pub figure: FigurePoint,
    /// Full cycle accounting of the fixed-architecture run.
    pub fixed: SimStats,
    /// Full cycle accounting of the flexible-architecture run.
    pub flexible: SimStats,
    /// Host wall-clock nanoseconds of the fixed run alone.
    pub fixed_wall_nanos: u64,
    /// Host wall-clock nanoseconds of the flexible run alone.
    pub flexible_wall_nanos: u64,
    /// Host wall-clock nanoseconds for the whole point (both runs plus
    /// workload construction). For a cache hit this is the *original*
    /// compute time, so warm reports reproduce cold ones byte for byte.
    pub wall_nanos: u64,
}

/// The replayable result of one sweep: per-point reports in canonical grid
/// order plus the metadata that identifies them.
///
/// Deliberately excluded: worker count, end-to-end wall clock, and cache
/// statistics — anything that varies between executions of the *same*
/// science lives on [`SweepRun`] instead, so a warm run's serialized report
/// is byte-identical to the cold run that populated the store.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// [`SWEEP_SCHEMA_VERSION`] this report was produced under.
    pub schema_version: u32,
    /// Seed shared by every point.
    pub seed: u64,
    /// Per-point results, ordered by [`PointReport::index`].
    pub points: Vec<PointReport>,
}

impl SweepReport {
    /// The figure points in canonical grid order — exactly what the serial
    /// sweeps returned, for the panel renderers.
    pub fn figure_points(&self) -> Vec<FigurePoint> {
        self.points.iter().map(|p| p.figure.clone()).collect()
    }

    /// The figure points of one panel (one register file size), in order.
    pub fn panel(&self, file_size: u32) -> Vec<FigurePoint> {
        self.points
            .iter()
            .filter(|p| p.file_size == file_size)
            .map(|p| p.figure.clone())
            .collect()
    }

    /// Sum of per-point wall-clock times — the serial-equivalent cost the
    /// worker pool amortized.
    pub fn points_wall_nanos(&self) -> u64 {
        self.points.iter().map(|p| p.wall_nanos).sum()
    }

    /// The slowest point, if any — the wall-clock floor no worker count can
    /// beat.
    pub fn slowest_point(&self) -> Option<&PointReport> {
        self.points.iter().max_by_key(|p| p.wall_nanos)
    }

    /// The point with the most simulated cycles, summed over both legs;
    /// ties go to the lower index. Unlike [`SweepReport::slowest_point`]
    /// this depends only on the science, so the same sweep always picks the
    /// same point.
    pub fn busiest_point(&self) -> Option<&PointReport> {
        self.points.iter().max_by_key(|p| {
            (p.fixed.total_cycles + p.flexible.total_cycles, std::cmp::Reverse(p.index))
        })
    }

    /// Serializes the full report as pretty-printed JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json_pretty(&self) -> Result<String, StoreError> {
        serde_json::to_string_pretty(self)
            .map_err(|e| StoreError::json("serializing sweep report", e))
    }

    /// Parses a serialized report, refusing schema versions this build does
    /// not speak.
    ///
    /// # Errors
    ///
    /// [`StoreError::Json`] on malformed JSON, [`StoreError::SchemaMismatch`]
    /// when the report or any of its points carries a foreign
    /// [`SWEEP_SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<SweepReport, StoreError> {
        let report: SweepReport = serde_json::from_str(json)
            .map_err(|e| StoreError::json("parsing sweep report", e))?;
        if report.schema_version != SWEEP_SCHEMA_VERSION {
            return Err(StoreError::SchemaMismatch {
                what: "sweep report",
                found: report.schema_version,
                expected: SWEEP_SCHEMA_VERSION,
            });
        }
        for p in &report.points {
            if p.schema_version != SWEEP_SCHEMA_VERSION {
                return Err(StoreError::SchemaMismatch {
                    what: "point report",
                    found: p.schema_version,
                    expected: SWEEP_SCHEMA_VERSION,
                });
            }
        }
        Ok(report)
    }
}

/// How the result store behaved during one sweep execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSummary {
    /// Whether a store was attached at all.
    pub enabled: bool,
    /// Points served from the store without running an engine.
    pub hits: usize,
    /// Points absent from the store (computed fresh).
    pub misses: usize,
    /// Freshly computed points successfully persisted.
    pub stored: usize,
    /// Records found damaged during lookup and moved to quarantine.
    pub quarantined: usize,
}

/// One execution of a sweep: the replayable [`SweepReport`] plus the
/// volatile facts of *this* run that must not contaminate it.
#[derive(Debug, Clone)]
pub struct SweepRun {
    /// The replayable science (what `--json` serializes).
    pub report: SweepReport,
    /// Worker threads this execution used.
    pub jobs: usize,
    /// End-to-end host wall-clock nanoseconds of this execution.
    pub total_wall_nanos: u64,
    /// Result-store traffic of this execution.
    pub cache: CacheSummary,
    /// Host-telemetry registry flush taken when the sweep finished.
    /// Process-cumulative (the registry is shared by every sweep this
    /// process ran), deterministic to serialize, and — like every other
    /// field of this wrapper — never part of the replayable report.
    pub metrics: MetricsSnapshot,
}

/// What a sweep observer learns about each completed point, as it
/// completes (in scheduling order, not grid order).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PointOutcome {
    /// The point's position in the grid's canonical order.
    pub index: usize,
    /// Whether the point was served from the result store without running
    /// an engine.
    pub cached: bool,
    /// Host wall-clock nanoseconds spent handling the point end to end
    /// (store lookup + simulation + persist).
    pub wall_nanos: u64,
    /// Of `wall_nanos`, nanoseconds spent talking to the result store
    /// (the lookup for cached points, the persist for computed ones).
    pub store_nanos: u64,
}

/// Executes [`SweepGrid`]s across a pool of scoped worker threads.
///
/// Determinism guarantee: results are *bit-identical* for every worker
/// count. Each point's spec is self-contained (own seed, own RNG, own
/// engine), workers only choose *which* point to run next, and every result
/// is written to the slot pre-assigned to its grid index. Attaching a store
/// preserves the guarantee: a stored point's payload is the exact record a
/// cold run computed.
pub struct SweepRunner {
    jobs: usize,
    progress: Option<bool>,
    store: Option<Store>,
    checkpoint_every: Option<u64>,
    observer: Option<Arc<dyn Fn(PointOutcome) + Send + Sync>>,
}

impl fmt::Debug for SweepRunner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SweepRunner")
            .field("jobs", &self.jobs)
            .field("progress", &self.progress)
            .field("store", &self.store)
            .field("checkpoint_every", &self.checkpoint_every)
            .field("observer", &self.observer.as_ref().map(|_| "Fn(PointOutcome)"))
            .finish()
    }
}

impl SweepRunner {
    /// A runner with `jobs` worker threads; `0` means one per available
    /// hardware thread. Progress lines default to the logger's `debug`
    /// level (see [`SweepRunner::with_progress`]). No result store is
    /// attached by default.
    pub fn new(jobs: usize) -> Self {
        SweepRunner {
            jobs: resolve_jobs(jobs),
            progress: None,
            store: None,
            checkpoint_every: None,
            observer: None,
        }
    }

    /// Worker threads this runner will use.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Forces per-point progress lines on or off, overriding the log
    /// level. Without this override, progress lines are `debug`-level log
    /// records: visible under `RUST_LOG=debug` / `--log-level debug`,
    /// silent otherwise (`RUST_LOG=warn` no longer turns them on).
    #[must_use]
    pub fn with_progress(mut self, on: bool) -> Self {
        self.progress = Some(on);
        self
    }

    /// Whether this runner emits per-point progress lines: the explicit
    /// override when set, else the logger's `debug` gate.
    fn progress_enabled(&self) -> bool {
        self.progress.unwrap_or_else(|| log::enabled(Level::Debug))
    }

    /// Attaches (or detaches, with `None`) a result store. Subsequent
    /// [`SweepRunner::run`] calls look every point up before computing it
    /// and persist every fresh result.
    #[must_use]
    pub fn with_store(mut self, store: Option<Store>) -> Self {
        self.store = store;
        self
    }

    /// The attached result store, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Enables (or disables, with `None`) mid-run engine checkpointing:
    /// every `every` simulated cycles, each in-flight architecture leg
    /// persists a rolling snapshot of its complete engine state into the
    /// attached store, and a later run of the same point resumes from the
    /// newest valid checkpoint instead of starting over. The simulated
    /// results are bit-identical with checkpointing on, off, or resumed
    /// mid-leg (see `rr-sim`'s snapshot proofs); only host wall-clock
    /// fields can differ. No-op without a store. `0` is treated as `1`.
    #[must_use]
    pub fn with_checkpoint_every(mut self, every: Option<u64>) -> Self {
        self.checkpoint_every = every;
        self
    }

    /// The configured checkpoint stride, if any.
    pub fn checkpoint_every(&self) -> Option<u64> {
        self.checkpoint_every
    }

    /// Attaches an observer called once per completed point, from whichever
    /// worker thread finished it. The `rr serve` daemon uses this for live
    /// per-job progress; the callback must be cheap and must not panic.
    #[must_use]
    pub fn with_observer(mut self, observer: Arc<dyn Fn(PointOutcome) + Send + Sync>) -> Self {
        self.observer = Some(observer);
        self
    }

    fn observe(&self, outcome: PointOutcome) {
        if let Some(observer) = &self.observer {
            observer(outcome);
        }
    }

    /// Runs every point of `grid` — serving from the attached store where
    /// possible — and collects the reports in canonical grid order.
    ///
    /// # Errors
    ///
    /// Returns the first (by grid order) point failure. Store problems are
    /// never fatal: a failed lookup or persist degrades to recomputation
    /// (with a warning on stderr) and the sweep proceeds.
    pub fn run(&self, grid: &SweepGrid) -> Result<SweepRun, String> {
        let points = grid.points();
        let total = points.len();
        let completed = AtomicUsize::new(0);
        let hits = AtomicUsize::new(0);
        let misses = AtomicUsize::new(0);
        let stored = AtomicUsize::new(0);
        let quarantined = AtomicUsize::new(0);
        let started = Instant::now();
        METRICS.sweep.workers.store(self.jobs as u64);
        // Capture the caller's trace context (the submitting request, when
        // running under `rr serve`) so it survives the hop onto the sweep's
        // own worker threads and per-point logs still carry the trace id.
        let trace = span::current();
        let results = parallel_map(total, self.jobs, |i| {
            let _trace_ctx = span::enter_opt(trace);
            METRICS
                .sweep
                .queue_wait_nanos
                .add(u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            let handling_started = Instant::now();
            let p = &points[i];
            let key = self.store.as_ref().and_then(|store| {
                match cache::point_key(&p.spec, store.salt()) {
                    Ok(key) => Some(key),
                    Err(e) => {
                        warn!("sweep", "cannot key point {i}: {e}");
                        None
                    }
                }
            });
            if let (Some(store), Some(key)) = (self.store.as_ref(), key.as_ref()) {
                let lookup_started = Instant::now();
                match lookup_point(store, key, p) {
                    PointLookup::Hit(report) => {
                        let store_nanos = nanos_since(lookup_started);
                        hits.fetch_add(1, Ordering::Relaxed);
                        METRICS.sweep.points_cached.inc();
                        self.progress_line(&completed, total, &report, true);
                        self.observe(PointOutcome {
                            index: p.index,
                            cached: true,
                            wall_nanos: nanos_since(handling_started),
                            store_nanos,
                        });
                        return Ok(*report);
                    }
                    PointLookup::Quarantined => {
                        quarantined.fetch_add(1, Ordering::Relaxed);
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                    PointLookup::Miss => {
                        misses.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
            let point_started = Instant::now();
            let traced = match (self.store.as_ref(), self.checkpoint_every) {
                (Some(store), Some(every)) => compare_traced_with(&p.spec, |leg| {
                    checkpointed_leg(store, leg, every, p.index)
                }),
                _ => compare_traced(&p.spec),
            }
            .map_err(|e| {
                METRICS.sweep.points_failed.inc();
                format!("point {i} (F={} R={} L={}): {e}", p.file_size, p.run_length, p.latency)
            })?;
            let wall_nanos =
                u64::try_from(point_started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            METRICS.sweep.sim_nanos.add(wall_nanos);
            METRICS.spans.point_compute.record(wall_nanos);
            METRICS.sweep.points_computed.inc();
            let report = PointReport {
                schema_version: SWEEP_SCHEMA_VERSION,
                index: p.index,
                file_size: p.file_size,
                run_length: p.run_length,
                latency: p.latency,
                seed: p.spec.seed,
                figure: FigurePoint {
                    run_length: p.run_length,
                    comparison: traced.point.clone(),
                },
                fixed: traced.fixed,
                flexible: traced.flexible,
                fixed_wall_nanos: traced.fixed_wall_nanos,
                flexible_wall_nanos: traced.flexible_wall_nanos,
                wall_nanos,
            };
            let mut store_nanos = 0;
            if let (Some(store), Some(key)) = (self.store.as_ref(), key.as_ref()) {
                let persist_started = Instant::now();
                match persist_point(store, key, &report) {
                    Ok(()) => {
                        stored.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => {
                        warn!("sweep", "could not store point {i}: {e}");
                    }
                }
                store_nanos = nanos_since(persist_started);
            }
            self.progress_line(&completed, total, &report, false);
            self.observe(PointOutcome {
                index: p.index,
                cached: false,
                wall_nanos: nanos_since(handling_started),
                store_nanos,
            });
            Ok::<PointReport, String>(report)
        });
        let points = results.into_iter().collect::<Result<Vec<_>, _>>()?;
        Ok(SweepRun {
            report: SweepReport {
                schema_version: SWEEP_SCHEMA_VERSION,
                seed: grid.seed(),
                points,
            },
            jobs: self.jobs,
            total_wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
            cache: CacheSummary {
                enabled: self.store.is_some(),
                hits: hits.into_inner(),
                misses: misses.into_inner(),
                stored: stored.into_inner(),
                quarantined: quarantined.into_inner(),
            },
            metrics: METRICS.snapshot(),
        })
    }

    fn progress_line(
        &self,
        completed: &AtomicUsize,
        total: usize,
        report: &PointReport,
        cached: bool,
    ) {
        if !self.progress_enabled() {
            return;
        }
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        // `log_forced` so an explicit `--progress` wins even when the log
        // level would suppress `debug` records.
        log::log_forced(
            Level::Debug,
            "sweep",
            format_args!(
                "{done:>3}/{total} F={:<3} R={:<5} L={:<4} fixed={:.3} flexible={:.3} wall={:.1}ms{}",
                report.file_size,
                report.run_length,
                report.latency,
                report.figure.comparison.fixed_efficiency,
                report.figure.comparison.flexible_efficiency,
                report.wall_nanos as f64 / 1e6,
                if cached { " (cached)" } else { "" },
            ),
        );
    }

    /// Runs an arbitrary list of specs (not necessarily a rectangular grid)
    /// across the worker pool, returning each spec's traced run in input
    /// order. This is the low-level entry the ablation and custom
    /// experiment binaries use; it bypasses the result store.
    ///
    /// # Errors
    ///
    /// Returns the first (by input order) spec failure.
    pub fn run_specs(&self, specs: &[ExperimentSpec]) -> Result<Vec<rr_sim::TracedRun>, String> {
        let results = parallel_map(specs.len(), self.jobs, |i| {
            specs[i].run_traced().map_err(|e| format!("spec {i}: {e}"))
        });
        results.into_iter().collect()
    }
}

/// Outcome of a store lookup for one sweep point.
enum PointLookup {
    /// A valid stored report, index already rebased onto the current grid.
    Hit(Box<PointReport>),
    Miss,
    /// The record existed but was damaged; it has been quarantined.
    Quarantined,
}

/// Looks `p` up in the store and validates the payload semantically: schema
/// version and grid coordinates must match the point the key was derived
/// from. Any failure degrades to [`PointLookup::Miss`] — the caller
/// recomputes and overwrites.
fn lookup_point(store: &Store, key: &rr_store::Fingerprint, p: &SweepPoint) -> PointLookup {
    let io_started = Instant::now();
    let looked_up = store.get(key);
    METRICS.sweep.store_io_nanos.add(METRICS.spans.store_get.observe_since(io_started));
    let payload = match looked_up {
        Ok(Lookup::Hit(bytes)) => bytes,
        Ok(Lookup::Miss) => return PointLookup::Miss,
        Ok(Lookup::Quarantined) => return PointLookup::Quarantined,
        Err(e) => {
            warn!("sweep", "store lookup failed for point {}: {e}", p.index);
            return PointLookup::Miss;
        }
    };
    let decode_started = Instant::now();
    let decoded = std::str::from_utf8(&payload)
        .map_err(|e| e.to_string())
        .and_then(|text| serde_json::from_str::<PointReport>(text).map_err(|e| e.to_string()));
    METRICS
        .sweep
        .serialize_nanos
        .add(u64::try_from(decode_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let mut report = match decoded {
        Ok(r) => r,
        Err(e) => {
            warn!("sweep", "undecodable cached point {}: {e}", p.index);
            return PointLookup::Miss;
        }
    };
    let coords_match = report.schema_version == SWEEP_SCHEMA_VERSION
        && report.file_size == p.file_size
        && report.latency == p.latency
        && report.seed == p.spec.seed
        && report.run_length.to_bits() == p.run_length.to_bits();
    if !coords_match {
        warn!(
            "sweep",
            "cached point {} does not match its key's coordinates; recomputing",
            p.index
        );
        return PointLookup::Miss;
    }
    // The stored index is relative to whatever grid first computed the
    // point (a panel sweep and a full-figure sweep share points at
    // different offsets); rebase it onto this grid.
    report.index = p.index;
    PointLookup::Hit(Box::new(report))
}

/// Serializes and persists one freshly computed point.
fn persist_point(
    store: &Store,
    key: &rr_store::Fingerprint,
    report: &PointReport,
) -> Result<(), StoreError> {
    let serialize_started = Instant::now();
    let payload = serde_json::to_string(report)
        .map_err(|e| StoreError::json("serializing point report", e))?;
    METRICS
        .sweep
        .serialize_nanos
        .add(u64::try_from(serialize_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
    let io_started = Instant::now();
    let result = store.put(key, payload.as_bytes());
    METRICS.sweep.store_io_nanos.add(METRICS.spans.store_put.observe_since(io_started));
    result
}

/// Saturating nanoseconds since `started`.
fn nanos_since(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one architecture leg under `--checkpoint-every`: the engine
/// advances in `every`-cycle strides and persists a rolling snapshot of
/// its complete state into the store after each stride (last-write-wins
/// under the leg's domain-tagged [`cache::snapshot_key`]). Before
/// computing anything, the newest valid checkpoint is restored, so an
/// interrupted sweep pays only for the cycles since its last snapshot.
///
/// Every checkpoint problem — unreadable, corrupt, foreign schema or code
/// version, failed persist — degrades to computing from cycle 0 with a
/// warning; nothing on this path can fail the sweep that plain
/// recomputation would have survived. The simulated science is
/// bit-identical however often the leg is interrupted and resumed
/// (`rr-sim`'s snapshot proofs); only the host wall-clock differs.
fn checkpointed_leg(
    store: &Store,
    leg: &ExperimentSpec,
    every: u64,
    index: usize,
) -> Result<TracedRun, String> {
    let started = Instant::now();
    let every = every.max(1);
    let key = match cache::snapshot_key(leg, store.salt()) {
        Ok(key) => key,
        Err(e) => {
            warn!("sweep", "cannot key checkpoint for point {index}: {e}; running without checkpoints");
            return leg.run_traced();
        }
    };
    let mut engine = resume_or_fresh(store, &key, leg, index)?;
    loop {
        let pause_at = engine.now().saturating_add(every);
        if engine.advance(pause_at) {
            break;
        }
        let snapshot = engine.snapshot().to_json();
        let io_started = Instant::now();
        let persisted = store.put(&key, snapshot.as_bytes());
        METRICS
            .sweep
            .store_io_nanos
            .add(u64::try_from(io_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
        match persisted {
            Ok(()) => METRICS.sweep.checkpoints_written.inc(),
            Err(e) => warn!(
                "sweep",
                "could not checkpoint point {index} ({}) at cycle {}: {e}",
                leg.arch.label(),
                engine.now()
            ),
        }
    }
    let (stats, _) = engine.finish();
    // The leg is complete and its final record is about to be stored; the
    // rolling checkpoint has served its purpose.
    if let Err(e) = store.remove(&key) {
        warn!("sweep", "could not drop finished checkpoint for point {index}: {e}");
    }
    Ok(TracedRun {
        stats,
        wall_nanos: u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
    })
}

/// Restores `leg`'s engine from its stored checkpoint when one exists and
/// is valid; builds a fresh engine (cycle 0) otherwise. Never fails for a
/// checkpoint-related reason.
fn resume_or_fresh(
    store: &Store,
    key: &Fingerprint,
    leg: &ExperimentSpec,
    index: usize,
) -> Result<Engine, String> {
    match store.get(key) {
        Ok(Lookup::Hit(bytes)) => {
            let restored = std::str::from_utf8(&bytes)
                .map_err(|e| format!("checkpoint is not UTF-8: {e}"))
                .and_then(|text| {
                    EngineSnapshot::from_json(text).map_err(|e| e.to_string())
                })
                .and_then(|snap| Engine::restore(&snap).map_err(|e| e.to_string()));
            match restored {
                Ok(engine) => {
                    METRICS.sweep.checkpoints_resumed.inc();
                    info!(
                        "sweep",
                        "point {index} ({}) resumed from checkpoint at cycle {}",
                        leg.arch.label(),
                        engine.now()
                    );
                    return Ok(engine);
                }
                Err(e) => warn!(
                    "sweep",
                    "checkpoint for point {index} ({}) is unusable, recomputing from cycle 0: {e}",
                    leg.arch.label()
                ),
            }
        }
        Ok(Lookup::Miss) => {}
        Ok(Lookup::Quarantined) => warn!(
            "sweep",
            "checkpoint for point {index} ({}) was corrupt; quarantined, recomputing from cycle 0",
            leg.arch.label()
        ),
        Err(e) => {
            warn!("sweep", "checkpoint lookup failed for point {index}: {e}");
        }
    }
    leg.engine()
}

/// `0` means "use every available hardware thread".
pub(crate) fn resolve_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
    } else {
        jobs
    }
}

/// Maps `f` over `0..n` on up to `jobs` scoped worker threads.
///
/// Work distribution is a single atomic next-index counter; collection is a
/// pre-allocated slot per index, each written exactly once by whichever
/// worker claimed it — no mutex, no channel, and the output order is the
/// input order by construction. Crate-visible so the divergence heatmap
/// reuses the same deterministic-order runner.
pub(crate) fn parallel_map<T, F>(n: usize, jobs: usize, f: F) -> Vec<T>
where
    T: Send + Sync,
    F: Fn(usize) -> T + Sync,
{
    let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
    let next = AtomicUsize::new(0);
    let workers = jobs.max(1).min(n);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                METRICS.sweep.workers_spawned.inc();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let busy_started = Instant::now();
                    let value = f(i);
                    METRICS
                        .sweep
                        .worker_busy_nanos
                        .add(u64::try_from(busy_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
                    assert!(slots[i].set(value).is_ok(), "sweep slot {i} written twice");
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every claimed slot is filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::compare;
    use proptest::prelude::*;

    /// A grid small enough for tests: one panel, 2×2 points, light
    /// workloads.
    fn mini_grid(fault: FaultFamily, seed: u64) -> SweepGrid {
        let mut grid = match fault {
            FaultFamily::Cache => SweepGrid::figure5_panel(64, seed),
            FaultFamily::Sync => SweepGrid::figure6_panel(64, seed),
        };
        grid.run_lengths = vec![8.0, 32.0];
        grid.latencies = vec![50, 200];
        grid.base = ExperimentSpec { threads: 12, work_per_thread: 3_000, ..grid.base };
        grid
    }

    #[test]
    fn point_at_finds_cli_coordinates_on_the_paper_grid() {
        // The coordinates `rr bench` and `rr trace --point 64,8,400` use.
        let grid = SweepGrid::figure5(1993);
        let p = grid.point_at(64, 8.0, 400).expect("64,8,400 is on the Figure 5 grid");
        assert_eq!((p.file_size, p.run_length, p.latency), (64, 8.0, 400));
        assert_eq!(grid.points()[p.index], p, "index agrees with canonical order");
        assert!(grid.point_at(65, 8.0, 400).is_none());
        assert!(grid.point_at(64, 9.0, 400).is_none());
        assert!(grid.point_at(64, 8.0, 401).is_none());
    }

    #[test]
    fn point_at_matches_fractional_run_lengths_canonically() {
        // An axis value carrying float-arithmetic noise must still be
        // addressable by the clean decimal a user would type...
        let mut grid = mini_grid(FaultFamily::Cache, 5);
        grid.run_lengths = vec![0.1 + 0.2, 8.0];
        assert_ne!((0.1f64 + 0.2).to_bits(), 0.3f64.to_bits(), "premise of the test");
        let p = grid.point_at(64, 0.3, 50).expect("canonical match finds the noisy axis");
        assert_eq!(p.run_length, 0.1 + 0.2);
        // ...and the other way around: a noisy coordinate finds a clean axis.
        grid.run_lengths = vec![0.3, 8.0];
        let p = grid.point_at(64, 0.1 + 0.2, 50).unwrap();
        assert_eq!(p.run_length, 0.3);
        // Neighboring axis values never cross-match.
        let p = grid.point_at(64, 8.0, 50).unwrap();
        assert_eq!(p.run_length, 8.0);
        assert!(grid.point_at(64, 0.4, 50).is_none());
    }

    #[test]
    fn expansion_is_canonically_ordered() {
        let grid = SweepGrid::figure5(7);
        let points = grid.points();
        assert_eq!(points.len(), 3 * 3 * 6);
        assert_eq!(points.len(), grid.len());
        for (i, p) in points.iter().enumerate() {
            assert_eq!(p.index, i);
            assert_eq!(p.spec.seed, 7);
        }
        // File size outermost, then run length, then latency.
        assert_eq!((points[0].file_size, points[0].run_length, points[0].latency), (64, 8.0, 20));
        assert_eq!(points[1].latency, 50);
        assert_eq!(points[6].run_length, 32.0);
        assert_eq!(points[18].file_size, 128);
        let serial: Vec<_> = points.iter().map(|p| (p.file_size, p.run_length, p.latency)).collect();
        let mut sorted = serial.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(serial, sorted, "canonical order is the sorted cross product");
    }

    #[test]
    fn point_at_finds_exact_grid_coordinates() {
        let grid = SweepGrid::figure5(7);
        let p = grid.point_at(128, 32.0, 100).expect("on-grid point");
        assert_eq!((p.file_size, p.run_length, p.latency), (128, 32.0, 100));
        assert_eq!(p.spec.seed, 7);
        assert!(grid.point_at(128, 32.0, 99).is_none(), "off-grid latency");
        assert!(grid.point_at(96, 32.0, 100).is_none(), "off-grid file size");
        assert!(grid.point_at(128, 16.0, 100).is_none(), "off-grid run length");
    }

    #[test]
    fn homogeneous_grid_fixes_context_size() {
        let grid = SweepGrid::homogeneous(128, 16, 3);
        assert_eq!(grid.context_size, ContextSizeDist::Fixed(16));
        assert_eq!(grid.file_sizes, vec![128]);
        assert_eq!(grid.seed(), 3);
        assert!(!grid.is_empty());
    }

    /// The tentpole guarantee: any worker count produces bit-identical
    /// results, and those results equal the plain serial `compare` loop.
    #[test]
    fn parallel_is_bit_identical_to_serial() {
        let grid = mini_grid(FaultFamily::Cache, 11);
        let serial = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
        let parallel = SweepRunner::new(4).with_progress(false).run(&grid).unwrap();
        assert_eq!(serial.jobs, 1);
        assert_eq!(parallel.jobs, 4);
        assert_eq!(serial.report.points.len(), 4);
        assert!(!serial.cache.enabled && serial.cache.hits == 0, "no store attached");
        for (s, p) in serial.report.points.iter().zip(&parallel.report.points) {
            // Wall-clock fields legitimately differ; everything simulated
            // must not.
            assert_eq!(s.figure, p.figure);
            assert_eq!(s.fixed, p.fixed);
            assert_eq!(s.flexible, p.flexible);
            assert_eq!((s.index, s.file_size, s.run_length, s.latency, s.seed),
                       (p.index, p.file_size, p.run_length, p.latency, p.seed));
            assert_eq!(s.schema_version, SWEEP_SCHEMA_VERSION);
        }
        // And both match the pre-runner serial path.
        for (point, report) in grid.points().iter().zip(&serial.report.points) {
            assert_eq!(compare(&point.spec).unwrap(), report.figure.comparison);
        }
    }

    #[test]
    fn run_specs_matches_direct_runs() {
        let specs: Vec<ExperimentSpec> = mini_grid(FaultFamily::Cache, 5)
            .points()
            .into_iter()
            .map(|p| p.spec)
            .collect();
        let traced = SweepRunner::new(3).with_progress(false).run_specs(&specs).unwrap();
        assert_eq!(traced.len(), specs.len());
        for (spec, t) in specs.iter().zip(&traced) {
            assert_eq!(spec.run().unwrap(), t.stats);
        }
    }

    #[test]
    fn report_slices_and_serializes() {
        let mut grid = mini_grid(FaultFamily::Cache, 9);
        grid.file_sizes = vec![64, 128];
        grid.run_lengths = vec![16.0];
        grid.latencies = vec![100];
        let run = SweepRunner::new(2).with_progress(false).run(&grid).unwrap();
        let report = &run.report;
        assert_eq!(report.figure_points().len(), 2);
        assert_eq!(report.panel(64).len(), 1);
        assert_eq!(report.panel(128).len(), 1);
        assert_eq!(report.panel(256).len(), 0);
        assert!(report.points_wall_nanos() > 0);
        assert!(report.slowest_point().is_some());
        let json = report.to_json_pretty().unwrap();
        let back = SweepReport::from_json(&json).unwrap();
        assert_eq!(&back, report);
    }

    #[test]
    fn foreign_schema_versions_are_rejected() {
        let grid = SweepGrid { latencies: vec![100], run_lengths: vec![8.0], ..mini_grid(FaultFamily::Cache, 13) };
        let run = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
        let json = run.report.to_json_pretty().unwrap();

        let future_report = json.replacen(
            &format!("\"schema_version\": {SWEEP_SCHEMA_VERSION}"),
            "\"schema_version\": 99",
            1,
        );
        match SweepReport::from_json(&future_report) {
            Err(StoreError::SchemaMismatch { what: "sweep report", found: 99, .. }) => {}
            other => panic!("expected report-level schema mismatch, got {other:?}"),
        }

        // Flip only a *point's* version (the report-level one is the first
        // occurrence; skip past it).
        let head = json.find(&format!("\"schema_version\": {SWEEP_SCHEMA_VERSION}")).unwrap();
        let tail = json[head + 1..]
            .replacen(
                &format!("\"schema_version\": {SWEEP_SCHEMA_VERSION}"),
                "\"schema_version\": 99",
                1,
            );
        let future_point = format!("{}{}", &json[..head + 1], tail);
        match SweepReport::from_json(&future_point) {
            Err(StoreError::SchemaMismatch { what: "point report", found: 99, .. }) => {}
            other => panic!("expected point-level schema mismatch, got {other:?}"),
        }

        assert!(SweepReport::from_json("not json").is_err());
    }

    #[test]
    fn parallel_map_is_exhaustive_and_ordered() {
        let squares = parallel_map(100, 7, |i| i * i);
        assert_eq!(squares.len(), 100);
        for (i, v) in squares.iter().enumerate() {
            assert_eq!(*v, i * i);
        }
        assert!(parallel_map(0, 4, |i| i).is_empty());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// Every point of a randomized sweep obeys the cycle-accounting
        /// identity on both architectures — parallel execution loses no
        /// cycles to any bucket.
        #[test]
        fn every_sweep_point_accounts_all_cycles(
            seed in 1u64..10_000,
            sync in any::<bool>(),
            r in prop_oneof![Just(8.0f64), Just(32.0), Just(128.0)],
            l in prop_oneof![Just(50u64), Just(200), Just(500)],
        ) {
            let family = if sync { FaultFamily::Sync } else { FaultFamily::Cache };
            let mut grid = mini_grid(family, seed);
            grid.run_lengths = vec![r];
            grid.latencies = vec![l, l + 25];
            let run = SweepRunner::new(2).with_progress(false).run(&grid).unwrap();
            prop_assert_eq!(run.report.points.len(), 2);
            for p in &run.report.points {
                prop_assert_eq!(p.fixed.accounted_cycles(), p.fixed.total_cycles);
                prop_assert_eq!(p.flexible.accounted_cycles(), p.flexible.total_cycles);
                prop_assert_eq!(p.seed, seed);
            }
        }
    }
}
