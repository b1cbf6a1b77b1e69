//! Shared helpers for the benchmark harness.
//!
//! The `rr-bench` crate regenerates the paper's tables and experiments
//! beyond the figure sweeps, which `rr` runs itself:
//!
//! | target | regenerates |
//! |---|---|
//! | `cargo run --release --bin rr -- fig5` | Figure 5 (cache faults, 3 panels) |
//! | `cargo run --release --bin rr -- fig6` | Figure 6 (synchronization faults) |
//! | `cargo run --release --bin rr -- homogeneous --context 16` | section 3.4's homogeneous contexts (C = 8 by default) |
//! | `cargo run --release --bin fig6a_ablation` | section 3.3's low-cost-allocation rerun |
//! | `cargo run --release --bin table_costs` | Figure 4's cost table, measured on the ISA machine |
//! | `cargo run --release --bin model_check` | section 3.4's analytical model vs simulation |
//! | `cargo run --release --bin adaptive` | section 5.2's adaptive context limiting |
//! | `cargo bench` | Criterion micro/meso benchmarks of the implementation itself |
//!
//! `rr <subcommand> --help` lists each figure sweep's flags.

use register_relocation::spec::{env_seed, DEFAULT_SEED};

/// Standard seed for the published tables (override with `RR_SEED`).
pub fn seed() -> u64 {
    env_seed().unwrap_or(DEFAULT_SEED)
}
