//! The software multithreading runtime for register relocation.
//!
//! The paper's central trade: the hardware provides only an RRM register and
//! a decode-stage OR; *everything else is software*. This crate is that
//! software, in two forms:
//!
//! 1. **Symbolic structures** used by the discrete-event simulator — the
//!    circular ready list of relocation masks ([`ReadyRing`]), the context
//!    unloading policies of section 3.3 ([`UnloadGovernor`], including the
//!    two-phase competitive algorithm), and the scheduling cost model of
//!    Figure 4 ([`SchedCosts`]).
//! 2. **Executable artifacts** — the actual assembly for the paper's
//!    Figure 3 context switch ([`switch_code`]), the multi-entry-point
//!    context load/unload routines of section 2.5 ([`loader_asm`]), and the
//!    Appendix A allocator ([`alloc_asm`]) — which run on [`rr_machine`] and
//!    *measure* the cycle costs the simulator charges.
//!
//! The cross-validation between the two forms is what makes the
//! reproduction's cost assumptions credible rather than assumed.

pub mod alloc_asm;
pub mod costs;
pub mod event_diff;
pub mod event_log;
pub mod events;
pub mod executive;
pub mod loader_asm;
pub mod policy;
pub mod ready_ring;
pub mod switch_code;

pub use costs::SchedCosts;
pub use event_log::EventLog;
pub use events::{CostBucket, CountingSink, Event, EventKind, EventSink, NullSink, OsRoutine};
pub use executive::{
    ExecError, Executive, ExecutiveSnapshot, Tcb, EXEC_SNAPSHOT_SCHEMA_VERSION,
};
pub use policy::{UnloadDecision, UnloadGovernor, UnloadPolicyKind};
pub use ready_ring::ReadyRing;
