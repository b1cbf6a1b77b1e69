//! Register relocation: flexible variable-size register contexts for
//! multithreading.
//!
//! A production-quality Rust reproduction of *Waldspurger & Weihl, "Register
//! Relocation: Flexible Contexts for Multithreading", ISCA 1993*. The
//! mechanism: instructions name context-relative registers, and the decode
//! stage ORs each operand with a software-managed *register relocation mask*
//! (RRM), so the register file can be partitioned into power-of-two contexts
//! of varying sizes. More threads stay resident in the register file, so the
//! processor hides longer latencies and shorter run lengths.
//!
//! The workspace layers, bottom-up (each re-exported here):
//!
//! * [`isa`] ([`rr_isa`]) — the RISC instruction set, encoding and assembler.
//! * [`machine`] ([`rr_machine`]) — the cycle-level processor with the RRM
//!   relocation unit, `LDRRM` delay slots, and the multi-RRM extension.
//! * [`alloc`] ([`rr_alloc`]) — software context allocators, including a
//!   literal port of the paper's Appendix A.
//! * [`runtime`] ([`rr_runtime`]) — the scheduling ring, unloading policies,
//!   and the executable Figure 3 context-switch assembly.
//! * [`sim`] ([`rr_sim`]) — the discrete-event multithreaded-processor
//!   simulator behind every figure.
//! * [`workload`] ([`rr_workload`]) — the synthetic thread supplies.
//! * [`model`] ([`rr_model`]) — the analytical efficiency model.
//!
//! This crate adds the experiment harness that regenerates every table and
//! figure of the paper: see [`experiments`], [`figures`], the parallel
//! [`sweep`] runner (with its content-addressed result [`cache`] backed by
//! [`rr_store`]), and [`report`], plus the section 5.1 software-only
//! variant in [`software_only`] and the single-point deep-dive tracer in
//! [`trace`] (verified event streams, windowed metrics, Perfetto export).
//! The [`diverge`] module runs two configurations of one seeded workload
//! in lockstep and bisects to their first divergent event (`rr diverge`).
//! The [`serve`] module turns the harness into a long-running daemon
//! (`rr serve`): sweep jobs over HTTP, deduped against the result store,
//! rate limited, with graceful drain — built on the generic [`rr_serve`]
//! service framework, with the crash-safe job [`journal`] re-adopting
//! accepted work across restarts (even after `kill -9`).
//!
//! # Quickstart
//!
//! Compare fixed 32-register hardware contexts against register relocation
//! on one cache-fault workload:
//!
//! ```
//! use register_relocation::experiments::{Arch, ExperimentSpec, FaultKind};
//!
//! let spec = ExperimentSpec {
//!     file_size: 128,
//!     run_length: 16.0,
//!     fault: FaultKind::Cache { latency: 200 },
//!     ..ExperimentSpec::default()
//! };
//! let fixed = spec.with_arch(Arch::Fixed).run()?;
//! let flexible = spec.with_arch(Arch::Flexible).run()?;
//! assert!(flexible.efficiency() > fixed.efficiency());
//! # Ok::<(), String>(())
//! ```

pub mod bench;
pub mod cache;
pub mod cli;
pub mod commands;
pub mod diverge;
pub mod experiments;
pub mod figures;
pub mod journal;
pub mod report;
pub mod serve;
pub mod software_only;
pub mod spec;
pub mod sweep;
pub mod trace;
mod trace_export;

pub use bench::{BenchConfig, BenchReport, Suite, BENCH_SCHEMA_VERSION};
pub use diverge::{
    diverge_grid, diverge_point, DivergeGridReport, DivergePair, DivergenceRecord,
    DIVERGE_SCHEMA_VERSION,
};
pub use experiments::{Arch, ComparisonPoint, ExperimentSpec, FaultKind};
pub use figures::FigurePoint;
pub use journal::{JobJournal, JournalRecord, JOURNAL_SCHEMA_VERSION};
pub use serve::{run_serve, HealthBody, ServeOptions, SubmitRequest};
pub use spec::{RunSpec, SpecError};
pub use sweep::{
    CacheSummary, PointOutcome, PointReport, SweepGrid, SweepReport, SweepRun, SweepRunner,
    SWEEP_SCHEMA_VERSION,
};
pub use trace::{
    trace_arch, TraceMetricsRecord, TracedArchRun, TracedPoint, TRACE_SCHEMA_VERSION,
};

/// Re-export of the ISA crate.
pub use rr_isa as isa;
/// Re-export of the machine crate.
pub use rr_machine as machine;
/// Re-export of the allocator crate.
pub use rr_alloc as alloc;
/// Re-export of the runtime crate.
pub use rr_runtime as runtime;
/// The simulator crate, re-exported, plus its Chrome-trace export (which
/// lives here, beside the trace writer's other user in `rr-telemetry`).
pub mod sim {
    pub use crate::trace_export::{chrome_trace_json, write_chrome_trace};
    pub use rr_sim::*;
}
/// Re-export of the workload crate.
pub use rr_workload as workload;
/// Re-export of the analytical-model crate.
pub use rr_model as model;
/// Re-export of the result-store crate (see also [`cache`] for the
/// experiment-side keying).
pub use rr_store as store;
