//! Divergence exploration over experiment points and grids.
//!
//! `rr-sim`'s [`compare_legs`] answers "where do two engine runs first
//! differ?"; this module lifts that to the experiment harness: build both
//! legs of a grid point from [`ExperimentSpec`]s (any two architectures of
//! the same seeded workload), compare them in lockstep, and — in grid mode
//! — sweep the whole F×R×L figure grid through the shared deterministic
//! [`parallel_map`] runner, caching one compact [`DivergenceRecord`] per
//! point in the result store under the domain-tagged
//! [`crate::cache::diverge_key`]. Warm reruns replay records byte for
//! byte; the records themselves carry no wall-clock fields, so a heatmap
//! rendered from them is identical cold or warm, at any `--jobs`.

use serde::{Deserialize, Serialize};

use rr_runtime::event_diff;
use rr_sim::{compare_legs, DivergeConfig, DivergeOutcome};
use rr_store::{Lookup, Store, StoreError};
use rr_telemetry::{warn, METRICS};

use crate::cache;
use crate::experiments::{Arch, ExperimentSpec};
use crate::sweep::{parallel_map, resolve_jobs, SweepGrid};

/// Version of the serialized [`DivergenceRecord`]. Bump on any field
/// change; the decode path refuses other versions (the store salt already
/// isolates simulator generations, this guards the record shape itself).
pub const DIVERGE_SCHEMA_VERSION: u32 = 1;

/// One grid point's divergence comparison, fully specified: the shared
/// workload spec plus the two architecture legs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DivergePair {
    /// The workload both legs run (its own `arch` field is ignored —
    /// `arch_a`/`arch_b` decide the legs).
    pub spec: ExperimentSpec,
    /// Leg A, by convention the baseline.
    pub arch_a: Arch,
    /// Leg B, by convention the candidate.
    pub arch_b: Arch,
}

impl DivergePair {
    /// The spec of leg A — also the pair's cache identity (see
    /// [`crate::cache::diverge_key`]).
    pub fn spec_a(&self) -> ExperimentSpec {
        self.spec.with_arch(self.arch_a)
    }

    /// The spec of leg B.
    pub fn spec_b(&self) -> ExperimentSpec {
        self.spec.with_arch(self.arch_b)
    }
}

/// Runs one pair's lockstep comparison to completion.
///
/// # Errors
///
/// Propagates engine-construction failures from either spec and comparator
/// failures (including a replay-determinism violation, which is always an
/// error, never a report).
pub fn diverge_point(pair: &DivergePair, cfg: &DivergeConfig) -> Result<DivergeOutcome, String> {
    let timer = METRICS.spans.diverge_compare.start();
    let a = pair.spec_a().engine_with_sink(Vec::new())?;
    let b = pair.spec_b().engine_with_sink(Vec::new())?;
    let outcome = compare_legs(a, b, (pair.arch_a.label(), pair.arch_b.label()), cfg)?;
    drop(timer);
    Ok(outcome)
}

/// The compact, persistable summary of one pair's comparison — what the
/// heatmap caches per grid point. Deliberately free of wall-clock fields
/// and event payloads: the record's bytes depend only on the spec, the
/// legs, and the comparator config, so warm store hits reproduce a cold
/// run exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergenceRecord {
    /// [`DIVERGE_SCHEMA_VERSION`] this record was produced under.
    pub schema_version: u32,
    /// Register file size `F`.
    pub file_size: u32,
    /// Mean run length `R`.
    pub run_length: f64,
    /// Mean fault latency `L`.
    pub latency: f64,
    /// Workload seed.
    pub seed: u64,
    /// Leg A's architecture label.
    pub arch_a: String,
    /// Leg B's architecture label.
    pub arch_b: String,
    /// Lockstep window the comparison used.
    pub window: u64,
    /// Cycle of the first divergent event, `None` when the legs never
    /// diverged.
    pub divergence_cycle: Option<u64>,
    /// Absolute stream index of the divergent position.
    pub event_index: Option<u64>,
    /// Kind tag of leg A's event at the divergence (`None`: A was absent
    /// there, or no divergence).
    pub first_kind_a: Option<String>,
    /// Kind tag of leg B's event at the divergence.
    pub first_kind_b: Option<String>,
    /// Leg A's steady-state efficiency over its full run.
    pub efficiency_a: f64,
    /// Leg B's steady-state efficiency over its full run.
    pub efficiency_b: f64,
    /// Leg A's total run length in cycles.
    pub total_cycles_a: u64,
    /// Leg B's total run length in cycles.
    pub total_cycles_b: u64,
}

impl DivergenceRecord {
    /// Condenses a full comparison outcome into the persistable record.
    pub fn from_outcome(pair: &DivergePair, cfg: &DivergeConfig, out: &DivergeOutcome) -> Self {
        let d = out.divergence.as_ref();
        DivergenceRecord {
            schema_version: DIVERGE_SCHEMA_VERSION,
            file_size: pair.spec.file_size,
            run_length: pair.spec.run_length,
            latency: pair.spec.fault.mean_latency(),
            seed: pair.spec.seed,
            arch_a: pair.arch_a.label().to_string(),
            arch_b: pair.arch_b.label().to_string(),
            window: cfg.window,
            divergence_cycle: d.map(|d| d.cycle),
            event_index: d.map(|d| d.event_index),
            first_kind_a: d
                .and_then(|d| d.first_a.as_ref())
                .map(|e| event_diff::kind_tag(e).to_string()),
            first_kind_b: d
                .and_then(|d| d.first_b.as_ref())
                .map(|e| event_diff::kind_tag(e).to_string()),
            efficiency_a: out.a.stats.efficiency(),
            efficiency_b: out.b.stats.efficiency(),
            total_cycles_a: out.a.stats.total_cycles,
            total_cycles_b: out.b.stats.total_cycles,
        }
    }

    /// The divergence "magnitude" the heatmap renders alongside the cycle:
    /// leg B's efficiency minus leg A's (positive = the candidate wins).
    pub fn efficiency_delta(&self) -> f64 {
        self.efficiency_b - self.efficiency_a
    }

    /// Serializes the record as compact JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures.
    pub fn to_json(&self) -> Result<String, StoreError> {
        serde_json::to_string(self).map_err(|e| StoreError::json("serializing divergence record", e))
    }

    /// Parses a serialized record, refusing foreign schema versions.
    ///
    /// # Errors
    ///
    /// [`StoreError::Json`] on malformed JSON, [`StoreError::SchemaMismatch`]
    /// on a foreign [`DIVERGE_SCHEMA_VERSION`].
    pub fn from_json(json: &str) -> Result<DivergenceRecord, StoreError> {
        let record: DivergenceRecord = serde_json::from_str(json)
            .map_err(|e| StoreError::json("parsing divergence record", e))?;
        if record.schema_version != DIVERGE_SCHEMA_VERSION {
            return Err(StoreError::SchemaMismatch {
                what: "divergence record",
                found: record.schema_version,
                expected: DIVERGE_SCHEMA_VERSION,
            });
        }
        Ok(record)
    }

    /// Whether a cached record answers *this* comparison: the key covers
    /// leg A's spec, so the candidate leg and the window must be verified
    /// on read — a record for a different pairing is a miss, not a hit.
    fn answers(&self, pair: &DivergePair, cfg: &DivergeConfig) -> bool {
        self.arch_a == pair.arch_a.label()
            && self.arch_b == pair.arch_b.label()
            && self.window == cfg.window
            && self.seed == pair.spec.seed
    }
}

/// A whole grid's divergence records plus cache accounting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergeGridReport {
    /// One record per grid point, in the grid's canonical (F, R, L) order.
    pub records: Vec<DivergenceRecord>,
    /// Points answered from the result store.
    pub hits: usize,
    /// Points computed this run.
    pub misses: usize,
    /// Freshly computed points persisted to the store.
    pub stored: usize,
}

/// Sweeps `grid`, comparing `arch_a` vs `arch_b` at every point, with
/// per-point store caching under [`crate::cache::diverge_key`]. Points
/// run on the same deterministic-order [`parallel_map`] runner as sweeps,
/// so the record vector is byte-identical at any `jobs`.
///
/// # Errors
///
/// Fails on the first point whose comparison fails; store trouble only
/// degrades to recomputation (with a warning), matching sweep behavior.
pub fn diverge_grid(
    grid: &SweepGrid,
    arch_a: Arch,
    arch_b: Arch,
    cfg: &DivergeConfig,
    store: Option<&Store>,
    jobs: usize,
) -> Result<DivergeGridReport, String> {
    let timer = METRICS.spans.diverge_grid.start();
    let points = grid.points();
    let jobs = resolve_jobs(jobs);
    let results = parallel_map(points.len(), jobs, |i| {
        let pair = DivergePair { spec: points[i].spec, arch_a, arch_b };
        let key = store.and_then(|s| match cache::diverge_key(&pair.spec_a(), s.salt()) {
            Ok(key) => Some(key),
            Err(e) => {
                warn!("diverge", "cannot key point {i}: {e}");
                None
            }
        });
        if let (Some(store), Some(key)) = (store, key.as_ref()) {
            if let Ok(Lookup::Hit(bytes)) = store.get(key) {
                match std::str::from_utf8(&bytes)
                    .map_err(|_| ())
                    .and_then(|s| DivergenceRecord::from_json(s).map_err(|_| ()))
                {
                    Ok(record) if record.answers(&pair, cfg) => {
                        return Ok((record, true, false));
                    }
                    _ => {} // foreign pairing or unreadable: recompute
                }
            }
        }
        let outcome = diverge_point(&pair, cfg).map_err(|e| {
            format!(
                "diverge point {i} (F={} R={} L={}): {e}",
                points[i].file_size, points[i].run_length, points[i].latency
            )
        })?;
        let record = DivergenceRecord::from_outcome(&pair, cfg, &outcome);
        let mut stored = false;
        if let (Some(store), Some(key)) = (store, key.as_ref()) {
            match record.to_json().and_then(|json| store.put(key, json.as_bytes())) {
                Ok(()) => stored = true,
                Err(e) => warn!("diverge", "could not store point {i}: {e}"),
            }
        }
        Ok::<(DivergenceRecord, bool, bool), String>((record, false, stored))
    });
    drop(timer);
    let mut records = Vec::with_capacity(points.len());
    let mut hits = 0;
    let mut misses = 0;
    let mut stored = 0;
    for r in results {
        let (record, hit, wrote) = r?;
        if hit {
            hits += 1;
        } else {
            misses += 1;
        }
        if wrote {
            stored += 1;
        }
        records.push(record);
    }
    Ok(DivergeGridReport { records, hits, misses, stored })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::FaultKind;

    fn quick_pair() -> DivergePair {
        DivergePair {
            spec: ExperimentSpec {
                file_size: 64,
                run_length: 8.0,
                fault: FaultKind::Cache { latency: 400 },
                threads: 12,
                work_per_thread: 2_000,
                ..ExperimentSpec::default()
            },
            arch_a: Arch::Fixed,
            arch_b: Arch::Flexible,
        }
    }

    fn quick_cfg() -> DivergeConfig {
        DivergeConfig { window: 2048, context: 4, keep_events: false }
    }

    #[test]
    fn fixed_vs_flexible_diverges_and_records_condense() {
        let pair = quick_pair();
        let cfg = quick_cfg();
        let out = diverge_point(&pair, &cfg).unwrap();
        let d = out.divergence.as_ref().expect("fixed vs flexible must diverge");
        let record = DivergenceRecord::from_outcome(&pair, &cfg, &out);
        assert_eq!(record.divergence_cycle, Some(d.cycle));
        assert_eq!(record.arch_a, "fixed");
        assert_eq!(record.arch_b, "flexible");
        assert!(record.first_kind_a.is_some() || record.first_kind_b.is_some());
        assert!(record.efficiency_a > 0.0 && record.efficiency_b > 0.0);
        // The legs reproduce the straight experiment runs exactly.
        assert_eq!(out.a.stats, pair.spec_a().run().unwrap());
        assert_eq!(out.b.stats, pair.spec_b().run().unwrap());
    }

    #[test]
    fn self_comparison_reports_no_divergence() {
        let pair = DivergePair { arch_b: Arch::Fixed, ..quick_pair() };
        let out = diverge_point(&pair, &quick_cfg()).unwrap();
        assert!(out.divergence.is_none());
        let record = DivergenceRecord::from_outcome(&pair, &quick_cfg(), &out);
        assert_eq!(record.divergence_cycle, None);
        assert_eq!(record.efficiency_delta(), 0.0);
    }

    #[test]
    fn record_round_trips_and_rejects_foreign_versions() {
        let pair = quick_pair();
        let cfg = quick_cfg();
        let out = diverge_point(&pair, &cfg).unwrap();
        let record = DivergenceRecord::from_outcome(&pair, &cfg, &out);
        let json = record.to_json().unwrap();
        assert_eq!(DivergenceRecord::from_json(&json).unwrap(), record);
        let foreign = json.replacen(
            &format!("\"schema_version\":{DIVERGE_SCHEMA_VERSION}"),
            "\"schema_version\":99",
            1,
        );
        match DivergenceRecord::from_json(&foreign) {
            Err(StoreError::SchemaMismatch { what: "divergence record", found: 99, .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn cached_records_only_answer_their_own_pairing() {
        let pair = quick_pair();
        let cfg = quick_cfg();
        let out = diverge_point(&pair, &cfg).unwrap();
        let record = DivergenceRecord::from_outcome(&pair, &cfg, &out);
        assert!(record.answers(&pair, &cfg));
        let other_leg = DivergePair { arch_b: Arch::FlexibleFf1, ..pair };
        assert!(!record.answers(&other_leg, &cfg));
        let other_window = DivergeConfig { window: cfg.window * 2, ..cfg };
        assert!(!record.answers(&pair, &other_window));
    }

    #[test]
    fn grid_is_deterministic_across_jobs_and_warm_reruns_hit() {
        let grid = SweepGrid {
            file_sizes: vec![64],
            run_lengths: vec![8.0],
            latencies: vec![100, 400],
            fault: crate::sweep::FaultFamily::Cache,
            context_size: rr_workload::ContextSizeDist::PAPER_UNIFORM,
            base: ExperimentSpec {
                threads: 10,
                work_per_thread: 1_500,
                ..ExperimentSpec::default()
            },
        };
        let cfg = quick_cfg();
        let serial =
            diverge_grid(&grid, Arch::Fixed, Arch::Flexible, &cfg, None, 1).unwrap();
        let parallel =
            diverge_grid(&grid, Arch::Fixed, Arch::Flexible, &cfg, None, 4).unwrap();
        assert_eq!(serial.records, parallel.records, "order independent of jobs");
        assert_eq!(serial.records.len(), 2);

        let dir = std::env::temp_dir().join(format!("rr-diverge-grid-{}", std::process::id()));
        let store = cache::open_store(&dir).unwrap();
        let cold =
            diverge_grid(&grid, Arch::Fixed, Arch::Flexible, &cfg, Some(&store), 2).unwrap();
        assert_eq!(cold.misses, 2);
        assert_eq!(cold.stored, 2);
        let warm =
            diverge_grid(&grid, Arch::Fixed, Arch::Flexible, &cfg, Some(&store), 2).unwrap();
        assert_eq!(warm.hits, 2);
        assert_eq!(warm.misses, 0);
        assert_eq!(warm.records, cold.records, "warm records byte-identical");
        // A different pairing under the same keys recomputes rather than
        // replaying the wrong comparison.
        let other =
            diverge_grid(&grid, Arch::Fixed, Arch::FlexibleFf1, &cfg, Some(&store), 2).unwrap();
        assert_eq!(other.hits, 0);
        assert_eq!(other.misses, 2);
        std::fs::remove_dir_all(&dir).ok();
    }
}
