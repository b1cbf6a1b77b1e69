//! `cold_sweep`: the Figure 5 and Figure 6 grids (108 points), one job per
//! figure panel, computed by `SweepRunner` on one worker with no store.
//! The engine stack does nearly all the work.
//!
//! A traced pass computes the same points through the layers' own public
//! calls instead (`ExperimentSpec::engine_with_sink`, `Engine::run_with_sink`
//! with a counting sink, and an allocator replay), so each layer is timed
//! and counted, and checks that it reproduces the untraced pass exactly.

use std::collections::VecDeque;
use std::time::Instant;

use register_relocation::alloc::{AnyAllocator, ContextAllocator};
use register_relocation::runtime::CountingSink;
use register_relocation::{Arch, SweepGrid, SweepReport, SweepRunner};

use crate::checks::{check_report, check_stats, same_stats};
use crate::layers::Recorder;
use crate::{Context, JobOutcome, Workload};

/// The six figure panels: Figure 5 (cache faults) then Figure 6
/// (synchronization faults), each at F = 64, 128, 256.
pub fn figure_panels(seed: u64) -> Vec<SweepGrid> {
    let files = [64, 128, 256];
    files
        .iter()
        .map(|&f| SweepGrid::figure5_panel(f, seed))
        .chain(files.iter().map(|&f| SweepGrid::figure6_panel(f, seed)))
        .collect()
}

pub struct ColdSweep {
    panels: Vec<SweepGrid>,
    runner: SweepRunner,
    /// Whether this run has traced passes.
    traced: bool,
    /// The latest untraced report of each panel, for the traced==untraced
    /// check; kept only by traced runs, so it adds nothing to an untraced
    /// run's peak memory.
    last: Vec<Option<SweepReport>>,
    /// `SweepRunner::run` milliseconds per point, from untraced passes.
    point_ms: Vec<f64>,
    /// Simulated allocations and allocation failures of the traced pass.
    allocs: (u64, u64),
}

impl ColdSweep {
    pub fn new(ctx: &Context) -> ColdSweep {
        let panels = figure_panels(ctx.seed);
        ColdSweep {
            traced: ctx.traced,
            last: vec![None; panels.len()],
            panels,
            runner: SweepRunner::new(1).with_progress(false),
            point_ms: Vec::new(),
            allocs: (0, 0),
        }
    }

    fn plain_job(&mut self, i: usize, problems: &mut Vec<String>) -> JobOutcome {
        let started = Instant::now();
        let run = match self.runner.run(&self.panels[i]) {
            Ok(run) => run,
            Err(e) => return JobOutcome::failed(started, format!("cold panel {i}: {e}")),
        };
        if let Err(e) = check_report(&self.panels[i], &run.report) {
            problems.push(format!("cold panel {i}: {e}"));
        }
        let latency_s = started.elapsed().as_secs_f64();
        let points = run.report.points.len() as u64;
        self.point_ms.push(latency_s * 1e3 / points as f64);
        if self.traced {
            self.last[i] = Some(run.report);
        }
        JobOutcome {
            latency_s,
            points,
            failed: false,
        }
    }

    fn traced_job(
        &mut self,
        i: usize,
        rec: &mut Recorder,
        problems: &mut Vec<String>,
    ) -> JobOutcome {
        let started = Instant::now();
        let points = self.panels[i].points();
        for p in &points {
            let mut sizes = Vec::new();
            for arch in [Arch::Fixed, Arch::Flexible] {
                let spec = p.spec.with_arch(arch);
                let (engine, build_s) = rec.time("workload.build_us", || {
                    spec.engine_with_sink(CountingSink::default())
                });
                let engine = match engine {
                    Ok(engine) => engine,
                    Err(e) => return JobOutcome::failed(started, format!("cold point: {e}")),
                };
                if arch == Arch::Flexible {
                    sizes = engine
                        .snapshot()
                        .workload
                        .threads
                        .iter()
                        .map(|t| t.regs_needed)
                        .collect();
                }
                let ((stats, sink), run_s) = rec.time("sim.run_ms", || engine.run_with_sink());
                rec.sample("workload.build_us", build_s * 1e6);
                rec.sample("sim.run_ms", run_s * 1e3);
                rec.sample(
                    "sim.cycles_per_us",
                    stats.total_cycles as f64 / (run_s * 1e6),
                );
                rec.sample("sim.ns_per_event", run_s * 1e9 / sink.count.max(1) as f64);
                rec.count("sim.events", sink.count as f64);
                rec.count("sim.cycles", stats.total_cycles as f64);
                rec.count("alloc.attempts", stats.allocs as f64);
                rec.count("alloc.failures", stats.alloc_failures as f64);
                self.allocs.0 += stats.allocs;
                self.allocs.1 += stats.alloc_failures;
                rec.count("runtime.loads", stats.loads as f64);
                rec.count("runtime.unloads", stats.unloads as f64);
                if let Err(e) = check_stats(&spec, arch.label(), &stats) {
                    problems.push(format!("cold traced: {e}"));
                }
                let label = format!(
                    "cold panel {i} point {} {} traced vs untraced",
                    p.index,
                    arch.label()
                );
                match self.last[i].as_ref().map(|r| &r.points[p.index]) {
                    Some(q) => {
                        let untraced = if arch == Arch::Fixed {
                            &q.fixed
                        } else {
                            &q.flexible
                        };
                        problems.extend(same_stats(&label, untraced, &stats).err());
                    }
                    None => problems.push(format!("{label}: no untraced pass to compare with")),
                }
            }
            for (arch, metric) in [
                (Arch::Flexible, "alloc.bitmap_op_ns"),
                (Arch::Fixed, "alloc.fixed_op_ns"),
            ] {
                match arch.make_allocator(p.file_size) {
                    Ok(mut alloc) => {
                        let (ops, secs) =
                            rec.time(metric, || replay_contexts(&mut alloc, &sizes, 20));
                        match ops {
                            Ok(ops) => rec.sample(metric, secs * 1e9 / ops.max(1) as f64),
                            Err(e) => problems.push(format!("allocator replay: {e}")),
                        }
                    }
                    Err(e) => return JobOutcome::failed(started, format!("allocator: {e}")),
                }
            }
        }
        JobOutcome {
            latency_s: started.elapsed().as_secs_f64(),
            points: points.len() as u64,
            failed: false,
        }
    }
}

/// Replays one workload's context sizes through an allocator `rounds`
/// times: allocate each thread's context in supply order, freeing the
/// oldest resident context whenever the file is full. Returns the number
/// of allocate and free operations.
fn replay_contexts(alloc: &mut AnyAllocator, sizes: &[u32], rounds: usize) -> Result<u64, String> {
    let mut live = VecDeque::new();
    let mut ops = 0u64;
    for _ in 0..rounds {
        for &size in sizes {
            if !alloc.can_ever_fit(size) {
                return Err(format!(
                    "{} can never fit {size} registers",
                    alloc.strategy_name()
                ));
            }
            loop {
                ops += 1;
                if let Some(handle) = alloc.alloc(size) {
                    live.push_back(handle);
                    break;
                }
                let oldest = live
                    .pop_front()
                    .ok_or("a full allocator holds no context")?;
                ops += 1;
                alloc.dealloc(oldest).map_err(|e| e.to_string())?;
            }
        }
        while let Some(handle) = live.pop_front() {
            ops += 1;
            alloc.dealloc(handle).map_err(|e| e.to_string())?;
        }
    }
    if alloc.free_registers() != alloc.capacity() {
        return Err(format!(
            "{} leaked registers during replay",
            alloc.strategy_name()
        ));
    }
    Ok(ops)
}

impl Workload for ColdSweep {
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome> {
        let traced = rec.enabled();
        let jobs = (0..self.panels.len())
            .map(|i| {
                if traced {
                    self.traced_job(i, rec, problems)
                } else {
                    self.plain_job(i, problems)
                }
            })
            .collect();
        if traced {
            let (allocs, failures) = std::mem::take(&mut self.allocs);
            rec.set_count(
                "alloc.success_ratio",
                1.0 - failures as f64 / allocs.max(1) as f64,
            );
        }
        jobs
    }

    fn finish(&mut self, rec: &mut Recorder, _problems: &mut Vec<String>) {
        for &ms in &self.point_ms {
            rec.sample("sweep.cold_point_ms", ms);
        }
    }
}
