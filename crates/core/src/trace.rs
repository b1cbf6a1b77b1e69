//! Deep-dive tracing of single experiment points.
//!
//! A sweep tells you *which* `(F, R, L)` point is interesting; this module
//! tells you *why*. [`TracedPoint::run`] executes the paired fixed/flexible
//! experiment with full event recording, cross-checks every run against the
//! [`EventAccountant`] replay oracle (the stream must re-derive the
//! engine's [`SimStats`] exactly, or the trace is lying), folds the streams
//! into windowed [`MetricsReport`]s, and can render both runs as one
//! Perfetto-loadable Chrome `trace_event` document — fixed as process 1,
//! flexible as process 2, so the two architectures sit side by side on the
//! same time axis.
//!
//! The compact [`TraceMetricsRecord`] summary (efficiencies, event counts,
//! both metrics reports — *not* the raw event stream) can be persisted in
//! the result store under the point's domain-tagged [`crate::cache::trace_key`],
//! behind the same schema-version salt as sweep results.

use std::io::{self, Write};

use serde::{Deserialize, Serialize};

use rr_runtime::Event;
use rr_sim::{EventAccountant, MetricsReport, SimStats};
use rr_store::{Store, StoreError};

use crate::cache;
use crate::experiments::{Arch, ExperimentSpec};
use crate::trace_export::{chrome_trace_json, write_chrome_trace};

/// Version of the serialized [`TraceMetricsRecord`]. Bump on any field
/// change; the decode path refuses other versions and the store salt
/// already isolates schema generations.
pub const TRACE_SCHEMA_VERSION: u32 = 1;

/// One architecture's fully observed run: stats, the verified event
/// stream, and the windowed metrics derived from it.
#[derive(Debug, Clone)]
pub struct TracedArchRun {
    /// Architecture this run used.
    pub arch: Arch,
    /// The engine's own statistics.
    pub stats: SimStats,
    /// Every cycle-stamped event the run emitted.
    pub events: Vec<Event>,
    /// Windowed metrics folded from the stream.
    pub metrics: MetricsReport,
}

/// Runs `spec` with event recording and proves the stream complete: the
/// [`EventAccountant`] replay must re-derive the engine's [`SimStats`]
/// bit for bit (every bucket, every counter, the resident-context
/// integral). A divergence is an error, not a warning — a trace that does
/// not account for every cycle cannot be trusted to explain any of them.
///
/// # Errors
///
/// Propagates experiment failures, accountant replay failures, and any
/// mismatch between replayed and engine statistics.
pub fn trace_arch(spec: &ExperimentSpec) -> Result<TracedArchRun, String> {
    let (stats, events) = spec.run_with_events()?;
    let replayed = EventAccountant::replay(&events)
        .map_err(|e| format!("{} event stream fails replay: {e}", spec.arch.label()))?;
    if replayed != stats {
        return Err(format!(
            "{} event stream replays to different stats than the engine reported \
             (replayed {replayed:?}, engine {stats:?})",
            spec.arch.label(),
        ));
    }
    let metrics = MetricsReport::from_events(&events, None);
    Ok(TracedArchRun { arch: spec.arch, stats, events, metrics })
}

/// The paired fixed/flexible deep dive at one parameter point.
#[derive(Debug, Clone)]
pub struct TracedPoint {
    /// The spec both runs derive from (its `arch` field is the flexible
    /// side; the fixed side is the same spec with [`Arch::Fixed`]).
    pub spec: ExperimentSpec,
    /// The fixed-architecture baseline run.
    pub fixed: TracedArchRun,
    /// The flexible (register relocation) run.
    pub flexible: TracedArchRun,
}

impl TracedPoint {
    /// Runs both architectures of `spec` with full event verification
    /// (see [`trace_arch`]) — the paper's paired methodology, observed.
    ///
    /// # Errors
    ///
    /// Propagates [`trace_arch`] failures from either run.
    pub fn run(spec: &ExperimentSpec) -> Result<TracedPoint, String> {
        let fixed = trace_arch(&spec.with_arch(Arch::Fixed))?;
        let flexible = trace_arch(&spec.with_arch(Arch::Flexible))?;
        Ok(TracedPoint { spec: *spec, fixed, flexible })
    }

    /// Renders both runs as one Chrome `trace_event` JSON document: fixed
    /// is process 1, flexible process 2. Load it in Perfetto or
    /// `chrome://tracing`; 1 µs on the timeline is 1 simulated cycle.
    pub fn chrome_trace(&self) -> String {
        chrome_trace_json(&self.processes())
    }

    /// Streams [`chrome_trace`](Self::chrome_trace)'s document into `out`
    /// without holding it, and returns `out` (unflushed).
    ///
    /// # Errors
    ///
    /// `out`'s write error.
    pub fn write_chrome_trace<W: Write>(&self, out: W) -> io::Result<W> {
        write_chrome_trace(out, &self.processes())
    }

    fn processes(&self) -> [(u32, &str, &[Event]); 2] {
        [
            (1, self.fixed.arch.label(), &self.fixed.events),
            (2, self.flexible.arch.label(), &self.flexible.events),
        ]
    }

    /// The compact persistable summary of this trace.
    pub fn metrics_record(&self) -> TraceMetricsRecord {
        TraceMetricsRecord {
            schema_version: TRACE_SCHEMA_VERSION,
            file_size: self.spec.file_size,
            run_length: self.spec.run_length,
            latency: self.spec.fault.mean_latency(),
            seed: self.spec.seed,
            fixed_efficiency: self.fixed.stats.efficiency(),
            flexible_efficiency: self.flexible.stats.efficiency(),
            fixed_events: self.fixed.events.len() as u64,
            flexible_events: self.flexible.events.len() as u64,
            fixed_metrics: self.fixed.metrics.clone(),
            flexible_metrics: self.flexible.metrics.clone(),
        }
    }
}

/// The persisted per-point metric summary: what `rr trace` stores in the
/// result cache (under [`crate::cache::trace_key`]) and writes with
/// `--metrics`. Holds the derived time series and histograms, not the raw
/// event stream — traces are cheap to regenerate, summaries are what gets
/// compared across points.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceMetricsRecord {
    /// [`TRACE_SCHEMA_VERSION`] this record was produced under.
    pub schema_version: u32,
    /// Register file size `F`.
    pub file_size: u32,
    /// Mean run length `R`.
    pub run_length: f64,
    /// Mean fault latency `L`.
    pub latency: f64,
    /// Workload seed.
    pub seed: u64,
    /// Steady-state efficiency of the fixed baseline.
    pub fixed_efficiency: f64,
    /// Steady-state efficiency with register relocation.
    pub flexible_efficiency: f64,
    /// Events the fixed run emitted.
    pub fixed_events: u64,
    /// Events the flexible run emitted.
    pub flexible_events: u64,
    /// Windowed metrics of the fixed run.
    pub fixed_metrics: MetricsReport,
    /// Windowed metrics of the flexible run.
    pub flexible_metrics: MetricsReport,
}

impl TraceMetricsRecord {
    /// Serializes the record as compact JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string(self)
            .map_err(|e| StoreError::json("serializing trace metrics record", e))
    }

    /// Parses a serialized record, refusing foreign schema versions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Json`] on malformed JSON, [`StoreError::SchemaMismatch`]
    /// on a foreign [`TRACE_SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<TraceMetricsRecord, StoreError> {
        let record: TraceMetricsRecord = serde_json::from_str(json)
            .map_err(|e| StoreError::json("parsing trace metrics record", e))?;
        if record.schema_version != TRACE_SCHEMA_VERSION {
            return Err(StoreError::SchemaMismatch {
                what: "trace metrics record",
                found: record.schema_version,
                expected: TRACE_SCHEMA_VERSION,
            });
        }
        Ok(record)
    }
}

/// Persists a traced point's metric summary in `store` under the point's
/// domain-tagged trace key, returning the record it stored.
///
/// # Errors
///
/// Propagates keying, serialization, and store-write failures.
pub fn persist_trace_metrics(
    store: &Store,
    point: &TracedPoint,
) -> Result<TraceMetricsRecord, StoreError> {
    let record = point.metrics_record();
    let key = cache::trace_key(&point.spec, store.salt())?;
    store.put(&key, record.to_json()?.as_bytes())?;
    Ok(record)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::FaultKind;

    fn quick_spec() -> ExperimentSpec {
        ExperimentSpec {
            file_size: 64,
            run_length: 16.0,
            fault: FaultKind::Cache { latency: 100 },
            threads: 12,
            work_per_thread: 2_000,
            ..ExperimentSpec::default()
        }
    }

    #[test]
    fn traced_point_verifies_both_streams_and_matches_untraced_runs() {
        let spec = quick_spec();
        let point = TracedPoint::run(&spec).unwrap();
        assert_eq!(point.fixed.arch, Arch::Fixed);
        assert_eq!(point.flexible.arch, Arch::Flexible);
        // The traced runs reproduce the untraced science exactly.
        assert_eq!(point.fixed.stats, spec.with_arch(Arch::Fixed).run().unwrap());
        assert_eq!(point.flexible.stats, spec.with_arch(Arch::Flexible).run().unwrap());
        // Windowed metrics agree with whole-run efficiency (the window
        // sums tile the run; steady-state `efficiency()` trims transients
        // and is deliberately different).
        assert!(
            (point.flexible.metrics.efficiency_from_windows()
                - point.flexible.stats.efficiency_full())
            .abs()
                < 1e-12
        );
    }

    #[test]
    fn sync_policy_points_trace_too() {
        let spec = ExperimentSpec {
            fault: FaultKind::Sync { mean_latency: 300.0 },
            run_length: 64.0,
            ..quick_spec()
        };
        let point = TracedPoint::run(&spec).unwrap();
        assert!(point.flexible.stats.unloads > 0, "two-phase policy exercised");
        let doc = point.chrome_trace();
        assert!(doc.contains("\"pid\":1") && doc.contains("\"pid\":2"));
        serde_json::from_str::<serde::Value>(&doc).expect("valid JSON");
    }

    #[test]
    fn metrics_record_round_trips_and_rejects_foreign_versions() {
        let point = TracedPoint::run(&quick_spec()).unwrap();
        let record = point.metrics_record();
        assert_eq!(record.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(record.file_size, 64);
        assert!(record.fixed_events > 0 && record.flexible_events > 0);
        let json = record.to_json().unwrap();
        assert_eq!(TraceMetricsRecord::from_json(&json).unwrap(), record);
        let foreign = json.replacen(
            &format!("\"schema_version\":{TRACE_SCHEMA_VERSION}"),
            "\"schema_version\":99",
            1,
        );
        match TraceMetricsRecord::from_json(&foreign) {
            Err(StoreError::SchemaMismatch { what: "trace metrics record", found: 99, .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }
}
