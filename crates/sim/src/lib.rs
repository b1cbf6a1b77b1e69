//! Discrete-event simulator for a coarsely multithreaded processor node.
//!
//! This crate stands in for the authors' modified PROTEUS simulator: it
//! executes the stochastic experiments of the paper's section 3 on a single
//! multiprocessor node. The processor is coarsely multithreaded in the style
//! of APRIL — it switches contexts only when a running thread takes a
//! high-latency fault (remote cache miss or synchronization wait) — and all
//! context management is charged at the cycle costs of the paper's Figure 4,
//! which the ISA-level artifacts in [`rr_runtime`] validate by execution.
//!
//! The engine is deterministic given the workload seed, so every figure in
//! the reproduction is exactly replayable.
//!
//! # Example
//!
//! One Figure 5-style point: flexible (register relocation) contexts on a
//! 128-register file, cache faults of 200 cycles, mean run length 32.
//!
//! ```
//! use rr_sim::{Engine, SimOptions};
//! use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};
//! use rr_alloc::BitmapAllocator;
//! use rr_runtime::{SchedCosts, UnloadPolicyKind};
//!
//! let workload = WorkloadBuilder::new()
//!     .threads(32)
//!     .run_length(Dist::Geometric { mean: 32.0 })
//!     .latency(Dist::Constant(200))
//!     .context_size(ContextSizeDist::PAPER_UNIFORM)
//!     .work_per_thread(20_000)
//!     .seed(7)
//!     .build()?;
//! let engine = Engine::new(
//!     BitmapAllocator::new(128).map_err(|e| e.to_string())?,
//!     SchedCosts::cache_experiments(),
//!     UnloadPolicyKind::Never,
//!     workload,
//!     SimOptions::default(),
//! )?;
//! let stats = engine.run();
//! assert!(stats.efficiency() > 0.0 && stats.efficiency() <= 1.0);
//! # Ok::<(), String>(())
//! ```

pub mod accountant;
pub mod adaptive;
pub mod diverge;
pub mod engine;
pub mod interference;
pub mod metrics;
pub mod options;
pub mod snapshot;
pub mod stats;
pub mod thread;
pub mod timer;

pub use accountant::EventAccountant;
pub use diverge::{
    compare_legs, DivergeConfig, DivergeOutcome, Divergence, LegReport, StateDelta,
};
pub use engine::{Engine, TracedRun};
pub use interference::InterferenceModel;
pub use metrics::{HistBucket, LogHistogram, MetricsReport, MetricsWindow};
pub use options::{DispatchMode, SimOptions};
pub use snapshot::{EngineSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
pub use stats::{decimate_checkpoints, SimStats};
pub use timer::TimerQueue;

/// Version of the simulator's *behavior*, independent of the crate version.
///
/// Bump this whenever a change alters the cycle-level results an
/// [`Engine`] produces for a given spec — scheduling order, cost charging,
/// fault timing, RNG consumption. The experiment cache keys every stored
/// result on this constant (via its salt), so bumping it atomically orphans
/// all previously stored points instead of silently serving stale physics.
///
/// Version 2: checkpoint recording gained a decimating reservoir
/// (`SimOptions::checkpoint_cap`). Default-capped runs are byte-identical
/// to version 1, but the *possible* checkpoint shapes differ, so stored
/// records rotate.
///
/// Version 3: a finished run keeps only the efficiency-window bracket of
/// its checkpoint trail (`SimStats::retain_efficiency_window`). Every
/// `efficiency()` is bit-identical to version 2, but finished `SimStats`
/// serialize differently, so stored records rotate.
pub const CODE_VERSION: u32 = 3;
