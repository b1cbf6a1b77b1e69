//! The section 3.3 ablation: re-running the Figure 6(a) corner (F = 64,
//! large contexts, long synchronization waits) with cheaper allocation.
//!
//! The paper attributes fixed contexts' marginal win there to the 25-cycle
//! software allocation, and reports that "re-executing the experiments ...
//! with lower allocation costs" restores register relocation's advantage —
//! e.g. via the 4-bit-bitmap lookup-table allocator it sketches.
//!
//! The 24 runs (4 architectures × 6 latencies) execute on the sweep
//! runner's worker pool via `run_specs`; each row of the table is one
//! architecture.
//!
//! `cargo run --release --bin fig6a_ablation [--jobs <n>]`

use register_relocation::cli::{self, Command, Flag};
use register_relocation::experiments::{Arch, ExperimentSpec, FaultKind};
use register_relocation::figures::FIG6_EXTENDED_LATENCIES;
use register_relocation::sweep::SweepRunner;
use rr_bench::seed;

const COMMAND: Command = Command {
    name: "fig6a_ablation",
    about: "fig6a_ablation — the section 3.3 cheap-allocation rerun of Figure 6(a)\n\n  \
fig6a_ablation [--jobs <n>]\n\nThe seed is $RR_SEED, else 1993.\n",
    flags: &[&[Flag::value("--jobs <n>", "job count", "sweep workers (default 0 = all cores)")]],
    operands: 0,
};

fn main() -> Result<(), String> {
    let Some(args) = cli::parse(&COMMAND, &cli::words())? else {
        print!("{}", COMMAND.usage());
        return Ok(());
    };
    let jobs = args.get("--jobs")?.unwrap_or(0);
    println!("Figure 6(a) ablation: F = 64, R = 32, sync faults, C ~ U(6,24)\n");
    let archs = [
        (Arch::Fixed, "fixed (free ops)"),
        (Arch::Flexible, "flexible (25-cycle alloc)"),
        (Arch::FlexibleFf1, "flexible (FF1, 15-cycle alloc)"),
        (Arch::FlexibleLookup, "flexible (lookup, 6-cycle alloc)"),
    ];
    // Row-major spec list: one row per architecture, one column per latency.
    let specs: Vec<ExperimentSpec> = archs
        .iter()
        .flat_map(|&(arch, _)| {
            FIG6_EXTENDED_LATENCIES.iter().map(move |&l| ExperimentSpec {
                file_size: 64,
                arch,
                run_length: 32.0,
                fault: FaultKind::Sync { mean_latency: l as f64 },
                seed: seed(),
                ..ExperimentSpec::default()
            })
        })
        .collect();
    let runs = SweepRunner::new(jobs).run_specs(&specs)?;
    print!("{:<34}", "L =");
    for l in FIG6_EXTENDED_LATENCIES {
        print!("{l:>9}");
    }
    println!();
    for (row, (_, label)) in runs.chunks(FIG6_EXTENDED_LATENCIES.len()).zip(archs.iter()) {
        print!("{label:<34}");
        for traced in row {
            print!("{:>9.3}", traced.stats.efficiency());
        }
        println!();
    }
    println!("\nExpected shape: the 25-cycle-alloc flexible row loses ground to fixed");
    println!("as L grows; the cheap-allocation rows recover it.");
    Ok(())
}
