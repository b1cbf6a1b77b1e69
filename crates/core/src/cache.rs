//! Sweep-result caching: salts, point keys, and store plumbing.
//!
//! This module is the bridge between the domain-agnostic [`rr_store`] crate
//! and the experiment harness: it decides *what identifies a result*. A
//! stored point is addressed by a [`Fingerprint`] of the salt plus the
//! spec's canonical JSON, where the salt folds in everything that can
//! change a result without changing its spec:
//!
//! - [`SWEEP_SCHEMA_VERSION`] — the shape of the serialized reports,
//! - [`rr_sim::CODE_VERSION`] — the simulator's behavioral version,
//! - a digest of the cost-model constants ([`SchedCosts`], [`AllocCosts`],
//!   [`SimOptions`] presets) actually used by the experiments.
//!
//! Change any of those and every previously stored record becomes
//! *unreachable* (its key no longer matches any query), so a warm cache can
//! never serve results from different physics. `rr cache gc` reclaims the
//! orphans.

use std::path::PathBuf;

use rr_alloc::AllocCosts;
use rr_runtime::SchedCosts;
use rr_sim::SimOptions;
use rr_store::{sha256, Durability, Fingerprint, Store, StoreError};

use crate::experiments::ExperimentSpec;
use crate::sweep::SWEEP_SCHEMA_VERSION;

/// Default store directory, created next to wherever the sweep runs.
pub const DEFAULT_STORE_DIR: &str = ".rr-store";

/// Environment variable naming the store directory (CLI flags win over it;
/// see [`crate::cli::Args::store_dir`]).
pub const STORE_ENV: &str = "RR_STORE";

/// The salt under which this build stores and serves sweep points.
///
/// Human-readable on purpose — `rr cache stats` surfaces it, and a stale
/// record's header names the version that produced it.
pub fn store_salt() -> String {
    format!(
        "sweep-v{SWEEP_SCHEMA_VERSION}.sim-v{}.costs-{}",
        rr_sim::CODE_VERSION,
        costs_digest(),
    )
}

/// Short digest over every cost-model constant the experiments run with.
///
/// The paper's results are a function of these numbers (Figure 4's cycle
/// charges, the allocator search costs, the simulator presets); editing any
/// of them must orphan stored results even if nobody remembers to bump
/// [`rr_sim::CODE_VERSION`].
fn costs_digest() -> String {
    let parts: [(&str, String); 9] = [
        ("sched.cache", json_of(&SchedCosts::cache_experiments())),
        ("sched.sync", json_of(&SchedCosts::sync_experiments())),
        ("alloc.paper_flexible", json_of(&AllocCosts::paper_flexible())),
        ("alloc.hardware_free", json_of(&AllocCosts::hardware_free())),
        ("alloc.ff1", json_of(&AllocCosts::ff1())),
        ("alloc.first_fit", json_of(&AllocCosts::first_fit())),
        ("alloc.lookup_table", json_of(&AllocCosts::lookup_table())),
        ("sim.cache", json_of(&SimOptions::cache_experiments())),
        ("sim.sync", json_of(&SimOptions::sync_experiments())),
    ];
    let mut h = sha256::Sha256::new();
    for (name, json) in &parts {
        h.update(&(name.len() as u64).to_le_bytes());
        h.update(name.as_bytes());
        h.update(&(json.len() as u64).to_le_bytes());
        h.update(json.as_bytes());
    }
    sha256::to_hex(&h.finalize())[..12].to_string()
}

fn json_of<T: serde::Serialize>(value: &T) -> String {
    // The vendored serializer is infallible for plain derived structs; an
    // error here would mean the cost-model types stopped being serializable,
    // which the unit tests catch.
    serde_json::to_string(value).unwrap_or_else(|e| format!("<unserializable: {e}>"))
}

/// The content address of one experiment point under `salt`.
///
/// # Errors
///
/// Propagates serialization failures from the spec's canonical form.
pub fn point_key(spec: &ExperimentSpec, salt: &str) -> Result<Fingerprint, StoreError> {
    Ok(Fingerprint::of_bytes(salt, spec.canonical_json()?.as_bytes()))
}

/// The content address of one experiment point's *trace-metrics summary*
/// under `salt`. Domain-tagged so it can never collide with the same
/// point's sweep result ([`point_key`]) even though both derive from the
/// identical spec and salt.
///
/// # Errors
///
/// Propagates serialization failures from the spec's canonical form.
pub fn trace_key(spec: &ExperimentSpec, salt: &str) -> Result<Fingerprint, StoreError> {
    Ok(Fingerprint::of_domain(salt, "trace", spec.canonical_json()?.as_bytes()))
}

/// The content address of one experiment point's *engine checkpoint*
/// under `salt` — the rolling mid-run snapshot a `--checkpoint-every`
/// sweep writes so an interrupted run can resume. Domain-tagged like
/// [`trace_key`], so a checkpoint can never collide with the same spec's
/// final result or trace summary. The spec's `arch` field is part of its
/// canonical form, so the fixed and flexible legs of one grid point
/// checkpoint under distinct keys.
///
/// # Errors
///
/// Propagates serialization failures from the spec's canonical form.
pub fn snapshot_key(spec: &ExperimentSpec, salt: &str) -> Result<Fingerprint, StoreError> {
    Ok(Fingerprint::of_domain(salt, "snapshot", spec.canonical_json()?.as_bytes()))
}

/// The content address of one grid point's *divergence record* under
/// `salt` — the cached outcome of the fixed-vs-flexible (or any paired)
/// lockstep comparison `rr diverge` runs. Keyed by the **baseline** leg's
/// spec (the comparison's identity is the grid point; the candidate leg is
/// part of the record), and domain-tagged so it can never collide with the
/// same spec's sweep result, trace summary, or checkpoint.
///
/// # Errors
///
/// Propagates serialization failures from the spec's canonical form.
pub fn diverge_key(spec: &ExperimentSpec, salt: &str) -> Result<Fingerprint, StoreError> {
    Ok(Fingerprint::of_domain(salt, "diverge", spec.canonical_json()?.as_bytes()))
}

/// Opens (creating if needed) the result store at `dir` under this build's
/// [`store_salt`].
///
/// The store is opened with [`Durability::Relaxed`]: every record here is
/// a recomputable simulation result whose integrity is checksum-verified
/// on read, so a per-record `fsync` buys nothing but wall clock — it was
/// the single largest cost of a cold sweep, ahead of the simulation
/// itself. Power loss can drop recent records; it cannot corrupt a warm
/// read.
///
/// # Errors
///
/// Fails on I/O errors or a store written by an incompatible layout version.
pub fn open_store(dir: impl Into<PathBuf>) -> Result<Store, StoreError> {
    Ok(Store::open(dir, store_salt())?.with_durability(Durability::Relaxed))
}

/// Machine-readable store statistics: the one JSON shape shared by
/// `rr cache stats --json` and the daemon's `GET /health`, so dashboards
/// and scripts parse a single format wherever the numbers come from.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct CacheStatsReport {
    /// The store's root directory.
    pub dir: String,
    /// The salt this build reads and writes under (see [`store_salt`]).
    pub salt: String,
    /// Committed records readable under the current salt.
    pub records: u64,
    /// Records stranded under a foreign salt (older simulator or cost
    /// model); `rr cache gc` reclaims them.
    pub stale: u64,
    /// Sum of record payload sizes in bytes.
    pub payload_bytes: u64,
    /// Sum of record file sizes in bytes (headers included).
    pub file_bytes: u64,
    /// Occupied shard directories.
    pub shards: u64,
    /// Files sitting in quarantine.
    pub quarantined: u64,
}

/// Walks `store` and assembles the shared [`CacheStatsReport`].
///
/// # Errors
///
/// Propagates I/O failures from the stats walk.
pub fn stats_report(store: &Store) -> Result<CacheStatsReport, StoreError> {
    let stats = store.stats()?;
    Ok(CacheStatsReport {
        dir: store.root().display().to_string(),
        salt: store.salt().to_string(),
        records: stats.records,
        stale: stats.stale,
        payload_bytes: stats.payload_bytes,
        file_bytes: stats.file_bytes,
        shards: stats.shards,
        quarantined: stats.quarantined,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salt_names_all_version_axes() {
        let salt = store_salt();
        assert!(salt.contains(&format!("sweep-v{SWEEP_SCHEMA_VERSION}")), "{salt}");
        assert!(salt.contains(&format!("sim-v{}", rr_sim::CODE_VERSION)), "{salt}");
        assert!(salt.contains("costs-"), "{salt}");
        assert_eq!(salt, store_salt(), "salt is deterministic");
    }

    #[test]
    fn distinct_specs_get_distinct_keys() {
        let salt = store_salt();
        let base = ExperimentSpec::default();
        let key = |s: &ExperimentSpec| point_key(s, &salt).unwrap();
        let mut other = base;
        other.seed += 1;
        assert_ne!(key(&base), key(&other), "seed is part of the key");
        let mut other = base;
        other.run_length += 1.0;
        assert_ne!(key(&base), key(&other));
        assert_eq!(key(&base), key(&base), "same spec, same key");
        // A different salt (different code version) relocates every key.
        assert_ne!(key(&base), point_key(&base, "other-salt").unwrap());
    }

    #[test]
    fn trace_keys_never_collide_with_point_keys() {
        let salt = store_salt();
        let spec = ExperimentSpec::default();
        let point = point_key(&spec, &salt).unwrap();
        let trace = trace_key(&spec, &salt).unwrap();
        assert_ne!(point, trace, "same spec, different record kinds");
        assert_eq!(trace, trace_key(&spec, &salt).unwrap(), "deterministic");
        let mut other = spec;
        other.seed += 1;
        assert_ne!(trace, trace_key(&other, &salt).unwrap());
    }

    #[test]
    fn diverge_keys_never_collide_with_other_domains() {
        let salt = store_salt();
        let spec = ExperimentSpec::default();
        let diverge = diverge_key(&spec, &salt).unwrap();
        assert_ne!(diverge, point_key(&spec, &salt).unwrap());
        assert_ne!(diverge, trace_key(&spec, &salt).unwrap());
        assert_ne!(diverge, snapshot_key(&spec, &salt).unwrap());
        assert_eq!(diverge, diverge_key(&spec, &salt).unwrap(), "deterministic");
        let mut other = spec;
        other.file_size *= 2;
        assert_ne!(diverge, diverge_key(&other, &salt).unwrap());
    }
}
