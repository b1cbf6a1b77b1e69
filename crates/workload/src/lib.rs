//! Synthetic multithreaded workload generation.
//!
//! The paper's experiments (section 3) drive a single multiprocessor node
//! with "a supply of synthetic threads" characterized by four stochastic
//! quantities, all reproduced here:
//!
//! * **Run length `R`** between faults — geometrically distributed (a fixed
//!   fault probability per execution cycle).
//! * **Fault latency `L`** — constant for remote cache misses (lightly loaded
//!   network) or exponentially distributed for synchronization waits
//!   (producer–consumer synchronization).
//! * **Required context size `C`** — uniform over 6..=24 registers in the
//!   headline experiments, or homogeneous (8 or 16) in the section 3.4
//!   follow-ups.
//! * **Total work per thread** — every thread runs to completion.
//!
//! Sampling is deterministic given a seed ([`rand::rngs::SmallRng`]), so
//! every experiment in the reproduction is replayable.

pub mod dist;
pub mod spec;

pub use dist::{ContextSizeDist, Dist, Sampler};
pub use spec::{ThreadSpec, Workload, WorkloadBuilder};
