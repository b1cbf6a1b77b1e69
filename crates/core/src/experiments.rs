//! The experiment harness: one paper experiment = one [`ExperimentSpec`].
//!
//! Every figure in the paper compares two architectures on the same
//! stochastic workload:
//!
//! * **Fixed** — conventional fixed-size hardware contexts (32 registers
//!   each), zero-cost context management (the deliberately conservative
//!   baseline of Figure 4).
//! * **Flexible** — register relocation with a software allocator (the
//!   general-purpose bitmap allocator by default).
//!
//! Cache-fault experiments (section 3.2) use constant latency, `S` = 6 and
//! never unload contexts; synchronization experiments (section 3.3) use
//! exponential latency, `S` = 8, ring-walk dispatch and the two-phase
//! competitive unloading policy.

use serde::{Deserialize, Serialize};

use rr_alloc::{
    AllocCosts, AnyAllocator, BitmapAllocator, FirstFitAllocator, FixedSlots,
    LookupAllocator,
};
use rr_runtime::{EventLog, EventSink, NullSink, SchedCosts, UnloadPolicyKind};
use rr_sim::{Engine, SimOptions, SimStats, TracedRun};
use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

/// Which architecture handles contexts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arch {
    /// Fixed 32-register hardware windows with free context operations.
    Fixed,
    /// Register relocation with the general-purpose bitmap allocator
    /// (Appendix A costs: 25/15/5 cycles).
    Flexible,
    /// Register relocation assuming a find-first-set instruction
    /// (the paper's MC88000 `FF1` footnote: ~15-cycle allocation).
    FlexibleFf1,
    /// Register relocation with the specialized two-size lookup-table
    /// allocator of the section 3.3 discussion (sizes 16 and 32).
    FlexibleLookup,
    /// Am29000-style ADD relocation with arbitrary-size first-fit contexts
    /// (the Related Work comparison): no power-of-two rounding, but costlier
    /// allocation software. The decode-path hardware cost the paper objects
    /// to (a carry chain instead of an OR) is *not* modelled here.
    FlexibleAdd,
}

impl Arch {
    /// Builds the allocator realizing this architecture over `file_size`
    /// registers.
    ///
    /// # Errors
    ///
    /// Returns a reason if the file geometry is unsupported.
    pub fn make_allocator(&self, file_size: u32) -> Result<AnyAllocator, String> {
        Ok(match self {
            Arch::Fixed => FixedSlots::new(file_size).map_err(|e| e.to_string())?.into(),
            Arch::Flexible => {
                BitmapAllocator::new(file_size).map_err(|e| e.to_string())?.into()
            }
            Arch::FlexibleFf1 => BitmapAllocator::new(file_size)
                .map_err(|e| e.to_string())?
                .with_costs(AllocCosts::ff1())
                .into(),
            Arch::FlexibleLookup => {
                LookupAllocator::new(file_size, 16, 32).map_err(|e| e.to_string())?.into()
            }
            Arch::FlexibleAdd => {
                FirstFitAllocator::new(file_size).map_err(|e| e.to_string())?.into()
            }
        })
    }

    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            Arch::Fixed => "fixed",
            Arch::Flexible => "flexible",
            Arch::FlexibleFf1 => "flexible-ff1",
            Arch::FlexibleLookup => "flexible-lookup",
            Arch::FlexibleAdd => "flexible-add",
        }
    }

    /// Every architecture variant, in declaration order.
    pub const ALL: [Arch; 5] = [
        Arch::Fixed,
        Arch::Flexible,
        Arch::FlexibleFf1,
        Arch::FlexibleLookup,
        Arch::FlexibleAdd,
    ];

    /// Parses a [`Arch::label`] back into its variant — how the CLI's
    /// `--arch-a`/`--arch-b` flags name divergence legs.
    ///
    /// # Errors
    ///
    /// Lists the valid labels when `label` matches none of them.
    pub fn from_label(label: &str) -> Result<Arch, String> {
        Arch::ALL
            .into_iter()
            .find(|a| a.label() == label)
            .ok_or_else(|| {
                let valid: Vec<&str> = Arch::ALL.iter().map(|a| a.label()).collect();
                format!("unknown architecture {label:?}; expected one of {}", valid.join(", "))
            })
    }
}

/// The kind of long-latency fault the workload takes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultKind {
    /// Remote cache miss: constant service latency, contexts stay resident
    /// (section 3.2).
    Cache {
        /// Latency `L` in cycles.
        latency: u64,
    },
    /// Synchronization wait: exponentially distributed latency, two-phase
    /// competitive unloading (section 3.3).
    Sync {
        /// Mean latency `L` in cycles.
        mean_latency: f64,
    },
    /// Both fault types at once (the section 3 "experiments involving both
    /// types of faults"): each fault is a cache miss with probability
    /// `cache_fraction`, otherwise a synchronization wait. Runs with the
    /// synchronization experiments' scheduling costs and unloading policy.
    Mixed {
        /// Fraction of faults that are cache misses.
        cache_fraction: f64,
        /// Constant cache-miss latency in cycles.
        cache_latency: u64,
        /// Mean synchronization wait in cycles.
        sync_mean_latency: f64,
    },
}

impl FaultKind {
    /// Mean latency `L`.
    pub fn mean_latency(&self) -> f64 {
        match *self {
            FaultKind::Cache { latency } => latency as f64,
            FaultKind::Sync { mean_latency } => mean_latency,
            FaultKind::Mixed { cache_fraction, cache_latency, sync_mean_latency } => {
                cache_fraction * cache_latency as f64
                    + (1.0 - cache_fraction) * sync_mean_latency
            }
        }
    }
}

/// One experiment: a parameter point of Figures 5 or 6.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExperimentSpec {
    /// Register file size `F`.
    pub file_size: u32,
    /// Architecture under test.
    pub arch: Arch,
    /// Mean run length `R` (geometrically distributed).
    pub run_length: f64,
    /// Fault kind and latency `L`.
    pub fault: FaultKind,
    /// Context size distribution `C`.
    pub context_size: ContextSizeDist,
    /// Thread supply size.
    pub threads: usize,
    /// Useful cycles per thread.
    pub work_per_thread: u64,
    /// Workload and fault-process seed.
    pub seed: u64,
    /// Hard cycle horizon.
    pub max_cycles: u64,
}

impl Default for ExperimentSpec {
    fn default() -> Self {
        ExperimentSpec {
            file_size: 128,
            arch: Arch::Flexible,
            run_length: 32.0,
            fault: FaultKind::Cache { latency: 100 },
            context_size: ContextSizeDist::PAPER_UNIFORM,
            threads: 64,
            work_per_thread: 20_000,
            seed: 1993,
            max_cycles: 60_000_000,
        }
    }
}

impl ExperimentSpec {
    /// The same experiment on a different architecture (the paper's paired
    /// methodology: identical workload, identical seed).
    pub fn with_arch(&self, arch: Arch) -> Self {
        ExperimentSpec { arch, ..*self }
    }

    /// The spec's canonical byte form — what the result cache fingerprints.
    ///
    /// This is the compact JSON of the derived serializer, which is
    /// canonical here: fields serialize in declaration order and floats
    /// print in shortest-roundtrip form, so equal specs always produce
    /// byte-equal JSON.
    ///
    /// # Errors
    ///
    /// Propagates serialization failures (none occur for this plain struct).
    pub fn canonical_json(&self) -> Result<String, rr_store::StoreError> {
        serde_json::to_string(self)
            .map_err(|e| rr_store::StoreError::json("canonicalizing experiment spec", e))
    }

    /// Runs the experiment.
    ///
    /// # Errors
    ///
    /// Returns a reason if the parameters are invalid for the chosen
    /// architecture (e.g. threads too large for any context).
    pub fn run(&self) -> Result<SimStats, String> {
        Ok(self.engine()?.run())
    }

    /// Runs the experiment with host wall-clock timing (see
    /// [`Engine::run_traced`]). The simulated statistics are bit-identical
    /// to [`ExperimentSpec::run`]'s.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExperimentSpec::run`].
    pub fn run_traced(&self) -> Result<TracedRun, String> {
        Ok(self.engine()?.run_traced())
    }

    /// Runs the experiment with full event recording: every state
    /// transition of the run comes back as a cycle-stamped
    /// [`rr_runtime::Event`] in a compact [`EventLog`], alongside the usual
    /// [`SimStats`]. The stats are bit-identical to [`ExperimentSpec::run`]'s
    /// — the log only observes, never perturbs.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExperimentSpec::run`].
    pub fn run_with_events(&self) -> Result<(SimStats, EventLog), String> {
        Ok(self.engine_with_sink(EventLog::new())?.run_with_sink())
    }

    /// Builds the fully configured engine for this spec. Everything the run
    /// depends on — workload, allocator, costs, seed — comes from the spec
    /// itself, so a spec executes identically on any thread in any order.
    ///
    /// Public so callers that need incremental control — the sweep runner's
    /// `--checkpoint-every` path, snapshot tooling, tests — can drive the
    /// engine with [`Engine::advance`]/[`Engine::snapshot`] instead of
    /// the all-at-once [`ExperimentSpec::run`]; both paths produce
    /// bit-identical statistics.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExperimentSpec::run`].
    pub fn engine(&self) -> Result<Engine, String> {
        self.engine_with_sink(NullSink)
    }

    /// [`ExperimentSpec::engine`] with an arbitrary event sink attached.
    /// The sink choice is monomorphized into the engine, so a [`NullSink`]
    /// run carries no tracing overhead at all. Public so the divergence
    /// comparator can build paired recording engines from two specs.
    pub fn engine_with_sink<S: EventSink>(&self, sink: S) -> Result<Engine<S>, String> {
        let (latency_dist, sched, policy, mut opts) = match self.fault {
            FaultKind::Cache { latency } => (
                Dist::Constant(latency),
                SchedCosts::cache_experiments(),
                UnloadPolicyKind::Never,
                SimOptions::cache_experiments(),
            ),
            FaultKind::Sync { mean_latency } => (
                Dist::Exponential { mean: mean_latency },
                SchedCosts::sync_experiments(),
                UnloadPolicyKind::two_phase(),
                SimOptions::sync_experiments(),
            ),
            FaultKind::Mixed { cache_fraction, cache_latency, sync_mean_latency } => (
                Dist::CacheSyncMix {
                    p_cache: cache_fraction,
                    cache_latency,
                    sync_mean: sync_mean_latency,
                },
                SchedCosts::sync_experiments(),
                UnloadPolicyKind::two_phase(),
                SimOptions::sync_experiments(),
            ),
        };
        opts.max_cycles = self.max_cycles;
        let workload = WorkloadBuilder::new()
            .threads(self.threads)
            .run_length(Dist::Geometric { mean: self.run_length })
            .latency(latency_dist)
            .context_size(self.context_size)
            .work_per_thread(self.work_per_thread)
            .seed(self.seed)
            .build()?;
        let alloc = self.arch.make_allocator(self.file_size)?;
        Engine::with_sink(alloc, sched, policy, workload, opts, sink)
    }
}

/// Paired fixed-vs-flexible result at one parameter point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComparisonPoint {
    /// Register file size `F`.
    pub file_size: u32,
    /// Mean run length `R`.
    pub run_length: f64,
    /// Mean latency `L`.
    pub latency: f64,
    /// Steady-state efficiency of the fixed baseline.
    pub fixed_efficiency: f64,
    /// Steady-state efficiency with register relocation.
    pub flexible_efficiency: f64,
    /// Time-averaged resident contexts, fixed.
    pub fixed_avg_resident: f64,
    /// Time-averaged resident contexts, flexible.
    pub flexible_avg_resident: f64,
}

impl ComparisonPoint {
    /// flexible / fixed efficiency ratio.
    pub fn speedup(&self) -> f64 {
        if self.fixed_efficiency == 0.0 {
            f64::INFINITY
        } else {
            self.flexible_efficiency / self.fixed_efficiency
        }
    }
}

/// A [`ComparisonPoint`] together with the full per-run observability the
/// sweep runner reports: both architectures' complete [`SimStats`] and their
/// host wall-clock times.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TracedComparison {
    /// The plotted summary point.
    pub point: ComparisonPoint,
    /// Full statistics of the fixed-architecture run.
    pub fixed: SimStats,
    /// Full statistics of the flexible-architecture run.
    pub flexible: SimStats,
    /// Host wall-clock nanoseconds of the fixed run.
    pub fixed_wall_nanos: u64,
    /// Host wall-clock nanoseconds of the flexible run.
    pub flexible_wall_nanos: u64,
}

/// Runs the paired comparison the paper plots: solid (fixed) vs dotted
/// (flexible) at one `(F, R, L)` point.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn compare(spec: &ExperimentSpec) -> Result<ComparisonPoint, String> {
    Ok(compare_traced(spec)?.point)
}

/// Like [`compare`], but keeps both runs' full [`SimStats`] and wall-clock
/// times. `compare` delegates here, so the summary point is computed by one
/// code path regardless of how much observability the caller wants.
///
/// # Errors
///
/// Propagates experiment failures.
pub fn compare_traced(spec: &ExperimentSpec) -> Result<TracedComparison, String> {
    compare_traced_with(spec, |leg| leg.run_traced())
}

/// [`compare_traced`] with a pluggable per-leg executor: `run_leg` is
/// called once per architecture with the leg's complete spec (`arch`
/// already substituted) and must return that leg's [`TracedRun`]. The
/// sweep runner's `--checkpoint-every` path plugs in an incremental
/// snapshot-as-you-go executor here; the summary point is still computed
/// by this one code path, so however a leg was executed, the reported
/// science has one shape.
///
/// # Errors
///
/// Propagates leg failures.
pub fn compare_traced_with(
    spec: &ExperimentSpec,
    mut run_leg: impl FnMut(&ExperimentSpec) -> Result<TracedRun, String>,
) -> Result<TracedComparison, String> {
    let fixed = run_leg(&spec.with_arch(Arch::Fixed))?;
    let flexible = run_leg(&spec.with_arch(Arch::Flexible))?;
    let point = ComparisonPoint {
        file_size: spec.file_size,
        run_length: spec.run_length,
        latency: spec.fault.mean_latency(),
        fixed_efficiency: fixed.stats.efficiency(),
        flexible_efficiency: flexible.stats.efficiency(),
        fixed_avg_resident: fixed.stats.avg_resident,
        flexible_avg_resident: flexible.stats.avg_resident,
    };
    Ok(TracedComparison {
        point,
        fixed: fixed.stats,
        flexible: flexible.stats,
        fixed_wall_nanos: fixed.wall_nanos,
        flexible_wall_nanos: flexible.wall_nanos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_alloc::ContextAllocator;

    fn quick(spec: ExperimentSpec) -> ExperimentSpec {
        ExperimentSpec { threads: 24, work_per_thread: 6_000, ..spec }
    }

    #[test]
    fn cache_experiment_runs_both_archs() {
        let spec = quick(ExperimentSpec::default());
        let point = compare(&spec).unwrap();
        assert!(point.fixed_efficiency > 0.0);
        assert!(point.flexible_efficiency > 0.0);
        assert!(point.flexible_avg_resident > point.fixed_avg_resident);
    }

    #[test]
    fn sync_experiment_runs() {
        let spec = quick(ExperimentSpec {
            fault: FaultKind::Sync { mean_latency: 500.0 },
            run_length: 128.0,
            ..ExperimentSpec::default()
        });
        let stats = spec.run().unwrap();
        assert!(stats.efficiency() > 0.0);
        assert!(stats.unloads > 0, "two-phase policy should trigger");
    }

    #[test]
    fn flexible_beats_fixed_on_the_headline_workload() {
        // Linear-regime parameters: short runs, long latency.
        let spec = quick(ExperimentSpec {
            run_length: 16.0,
            fault: FaultKind::Cache { latency: 400 },
            ..ExperimentSpec::default()
        });
        let point = compare(&spec).unwrap();
        assert!(
            point.speedup() > 1.2,
            "flexible {} vs fixed {}",
            point.flexible_efficiency,
            point.fixed_efficiency
        );
    }

    #[test]
    fn mixed_fault_experiment_runs_with_similar_results() {
        // The paper: "We also ran experiments involving both types of
        // faults, with similar results; the main effect was to increase the
        // overall fault rate." Check the mixture sits between the pure
        // processes and flexible still wins.
        let base = quick(ExperimentSpec { run_length: 32.0, ..ExperimentSpec::default() });
        let cache = compare(&ExperimentSpec {
            fault: FaultKind::Cache { latency: 150 },
            ..base
        })
        .unwrap();
        let sync = compare(&ExperimentSpec {
            fault: FaultKind::Sync { mean_latency: 400.0 },
            ..base
        })
        .unwrap();
        let mixed = compare(&ExperimentSpec {
            fault: FaultKind::Mixed {
                cache_fraction: 0.5,
                cache_latency: 150,
                sync_mean_latency: 400.0,
            },
            ..base
        })
        .unwrap();
        let lo = cache.flexible_efficiency.min(sync.flexible_efficiency);
        let hi = cache.flexible_efficiency.max(sync.flexible_efficiency);
        assert!(
            (lo - 0.1..=hi + 0.1).contains(&mixed.flexible_efficiency),
            "mixed {:.3} outside [{lo:.3}, {hi:.3}]",
            mixed.flexible_efficiency
        );
        assert!(mixed.speedup() > 0.95, "flexible holds up under mixing: {mixed:?}");
        assert!(
            (mixed.latency - (0.5 * 150.0 + 0.5 * 400.0)).abs() < 1e-9,
            "mixture mean latency"
        );
    }

    #[test]
    fn all_archs_construct_allocators() {
        for arch in [
            Arch::Fixed,
            Arch::Flexible,
            Arch::FlexibleFf1,
            Arch::FlexibleLookup,
            Arch::FlexibleAdd,
        ] {
            let a = arch.make_allocator(64).unwrap();
            assert_eq!(a.capacity(), 64);
            assert!(!arch.label().is_empty());
        }
    }

    #[test]
    fn add_relocation_packs_more_residents() {
        // Deep linear regime, C ~ U(6,24): ADD's exact-size contexts hold
        // more threads than OR's rounded ones, which in turn beat fixed.
        let spec = quick(ExperimentSpec {
            run_length: 16.0,
            fault: FaultKind::Cache { latency: 600 },
            ..ExperimentSpec::default()
        });
        let or = spec.run().unwrap();
        let add = spec.with_arch(Arch::FlexibleAdd).run().unwrap();
        assert!(
            add.avg_resident > or.avg_resident,
            "add {} vs or {}",
            add.avg_resident,
            or.avg_resident
        );
        assert!(add.efficiency() > or.efficiency() * 0.98);
    }

    #[test]
    fn event_recording_does_not_perturb_the_run() {
        let spec = quick(ExperimentSpec::default());
        let plain = spec.run().unwrap();
        let (recorded, events) = spec.run_with_events().unwrap();
        assert_eq!(plain, recorded, "recording sink must only observe");
        assert!(!events.is_empty());
        assert!(matches!(events.iter().next().unwrap().kind, rr_runtime::EventKind::RunStart { .. }));
        assert!(matches!(events.last().unwrap().kind, rr_runtime::EventKind::RunEnd { .. }));
    }

    #[test]
    fn lookup_arch_rejects_large_files() {
        assert!(Arch::FlexibleLookup.make_allocator(256).is_err());
        assert!(Arch::FlexibleLookup.make_allocator(128).is_ok());
    }
}
