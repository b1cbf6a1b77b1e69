//! Bit-exact engine checkpoints.
//!
//! An [`EngineSnapshot`] is the engine's complete dynamic state at a cycle
//! boundary — allocator occupancy, RNG words, outstanding timer wakeups,
//! ready-ring rotation, every statistics accumulator — flattened into plain
//! serializable data. Restoring one rebuilds an engine whose remaining run
//! is indistinguishable from never having paused: same `SimStats`, same
//! event stream, cycle for cycle.
//!
//! Snapshots are *versioned twice*. `schema_version` names this record
//! layout; `code_version` is the simulator's [`crate::CODE_VERSION`], which
//! bumps whenever cycle-level behavior changes. A snapshot from either a
//! different layout or different physics is rejected with a typed
//! [`SnapshotError`] so callers can fall back to recomputing from zero —
//! the restore path never guesses.

use serde::{Deserialize, Serialize};

use rr_alloc::AnyAllocator;
use rr_runtime::{ReadyRing, SchedCosts, UnloadGovernor};
use rr_workload::Workload;

use crate::options::SimOptions;
use crate::stats::SimStats;
use crate::thread::ThreadArena;

/// Version of the [`EngineSnapshot`] record layout. Bump on any field
/// change; restore rejects other versions rather than misinterpreting them.
///
/// Version 2: `timer_shift` (the old bucket ring's granularity) is gone;
/// the timer queue is rebuilt from `timers` alone.
pub const SNAPSHOT_SCHEMA_VERSION: u32 = 2;

/// Why a snapshot could not be restored. Every variant is a signal to
/// degrade to recompute-from-zero, never a reason to crash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The record layout version differs from this build's.
    SchemaMismatch {
        /// Version stamped in the record.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// The simulator revision differs: resuming would splice two different
    /// cycle-level behaviors into one run.
    CodeMismatch {
        /// `CODE_VERSION` stamped in the record.
        found: u32,
        /// This build's `CODE_VERSION`.
        expected: u32,
    },
    /// The bytes did not parse as a snapshot record at all.
    Decode(String),
    /// The record parsed but its state is internally inconsistent
    /// (truncated arrays, timers waking in the past, invalid options).
    Invalid(String),
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::SchemaMismatch { found, expected } => {
                write!(f, "snapshot schema v{found} (this build reads v{expected})")
            }
            SnapshotError::CodeMismatch { found, expected } => {
                write!(f, "snapshot from simulator v{found} (this build is v{expected})")
            }
            SnapshotError::Decode(why) => write!(f, "snapshot does not decode: {why}"),
            SnapshotError::Invalid(why) => write!(f, "snapshot state invalid: {why}"),
        }
    }
}

impl std::error::Error for SnapshotError {}

/// The engine's complete dynamic state at a cycle boundary; produced by
/// `Engine::snapshot`, consumed by `Engine::restore`.
///
/// `resident_integral` travels as two `u64` halves because the engine
/// accumulates it in a `u128` (it can exceed 2^64 on long runs with many
/// residents) and the serialization layer's numeric domain stops at 64
/// bits.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EngineSnapshot {
    /// Record layout version ([`SNAPSHOT_SCHEMA_VERSION`] at capture).
    pub schema_version: u32,
    /// Simulator revision ([`crate::CODE_VERSION`] at capture).
    pub code_version: u32,
    /// The allocator with its exact occupancy.
    pub alloc: AnyAllocator,
    /// Scheduling cost table.
    pub sched: SchedCosts,
    /// Unload policy plus its accumulated per-thread spin charges.
    pub governor: UnloadGovernor,
    /// The full workload specification (distributions, seed, threads).
    pub workload: Workload,
    /// Simulation options.
    pub opts: SimOptions,
    /// Raw xoshiro256++ state — the exact remaining random stream.
    pub rng: [u64; 4],
    /// Per-thread phase/remaining-work/context columns.
    pub arena: ThreadArena,
    /// Precomputed per-thread unload costs.
    pub unload_cost: Vec<u64>,
    /// Resident contexts in ring order, including the rotation focus.
    pub ring: ReadyRing,
    /// The software supply queue, front first.
    pub supply: Vec<usize>,
    /// Outstanding fault completions as `(wake, tid)`, ascending. The pop
    /// order is a pure function of this multiset, so it is all a rebuild
    /// needs.
    pub timers: Vec<(u64, usize)>,
    /// The head thread whose allocation is known to be blocked, if any.
    pub alloc_blocked_for: Option<usize>,
    /// Current cycle.
    pub now: u64,
    /// Statistics accumulated so far.
    pub stats: SimStats,
    /// Per-bucket cycle accumulators (folded into `stats` at finish).
    pub cost: [u64; 9],
    /// High 64 bits of the residency integral.
    pub resident_integral_hi: u64,
    /// Low 64 bits of the residency integral.
    pub resident_integral_lo: u64,
    /// Next busy-cycle checkpoint boundary.
    pub next_checkpoint: u64,
    /// Current checkpoint decimation stride.
    pub checkpoint_stride: u64,
    /// Last cycle at which the supply queue held a runnable thread.
    pub last_pressure: u64,
    /// Whether `RunStart` has been emitted.
    pub started: bool,
}

/// Just the two version fields, for diagnosing undecodable records: the
/// vendored deserializer reads fields by name and ignores the rest, so this
/// probe decodes against any snapshot-shaped object.
#[derive(Deserialize)]
struct VersionProbe {
    schema_version: u32,
    code_version: u32,
}

impl EngineSnapshot {
    /// Serializes the snapshot as one JSON document.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("snapshot serializes")
    }

    /// Parses and version-checks a snapshot produced by
    /// [`EngineSnapshot::to_json`].
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemaMismatch`]/[`SnapshotError::CodeMismatch`]
    /// when the versions differ from this build's (reported even when the
    /// rest of the record no longer decodes), [`SnapshotError::Decode`] for
    /// anything else that fails to parse.
    pub fn from_json(text: &str) -> Result<EngineSnapshot, SnapshotError> {
        match serde_json::from_str::<EngineSnapshot>(text) {
            Ok(snap) => {
                snap.check_versions()?;
                Ok(snap)
            }
            Err(err) => {
                if let Ok(probe) = serde_json::from_str::<VersionProbe>(text) {
                    if probe.schema_version != SNAPSHOT_SCHEMA_VERSION {
                        return Err(SnapshotError::SchemaMismatch {
                            found: probe.schema_version,
                            expected: SNAPSHOT_SCHEMA_VERSION,
                        });
                    }
                    if probe.code_version != crate::CODE_VERSION {
                        return Err(SnapshotError::CodeMismatch {
                            found: probe.code_version,
                            expected: crate::CODE_VERSION,
                        });
                    }
                }
                Err(SnapshotError::Decode(err.to_string()))
            }
        }
    }

    /// Rejects snapshots from another record layout or simulator revision.
    ///
    /// # Errors
    ///
    /// See [`SnapshotError::SchemaMismatch`] and
    /// [`SnapshotError::CodeMismatch`].
    pub fn check_versions(&self) -> Result<(), SnapshotError> {
        if self.schema_version != SNAPSHOT_SCHEMA_VERSION {
            return Err(SnapshotError::SchemaMismatch {
                found: self.schema_version,
                expected: SNAPSHOT_SCHEMA_VERSION,
            });
        }
        if self.code_version != crate::CODE_VERSION {
            return Err(SnapshotError::CodeMismatch {
                found: self.code_version,
                expected: crate::CODE_VERSION,
            });
        }
        Ok(())
    }

    /// Structural consistency checks, so restore can trust indices and
    /// lengths instead of panicking on a corrupt record deep in the run.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency found.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.arena.len();
        if self.workload.threads.len() != n {
            return Err(format!(
                "workload has {} threads but arena has {n}",
                self.workload.threads.len()
            ));
        }
        if self.arena.remaining.len() != n
            || self.arena.regs_needed.len() != n
            || self.arena.ctx.len() != n
        {
            return Err("arena columns have mismatched lengths".to_string());
        }
        if self.unload_cost.len() != n {
            return Err(format!("unload_cost has {} entries, expected {n}", self.unload_cost.len()));
        }
        if let Some(&tid) = self.supply.iter().find(|&&t| t >= n) {
            return Err(format!("supply queue references thread {tid} of {n}"));
        }
        if let Some(&(_, tid)) = self.timers.iter().find(|&&(_, t)| t >= n) {
            return Err(format!("timer entry references thread {tid} of {n}"));
        }
        if self.ring.len() > n {
            return Err(format!("ready ring holds {} entries for {n} threads", self.ring.len()));
        }
        if let Some(tid) = self.alloc_blocked_for {
            if tid >= n {
                return Err(format!("alloc_blocked_for references thread {tid} of {n}"));
            }
        }
        if self.checkpoint_stride == 0 {
            return Err("checkpoint stride of zero".to_string());
        }
        self.opts.validate()?;
        Ok(())
    }
}
