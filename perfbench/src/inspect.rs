//! `inspect`: `rr trace` and `rr diverge` on a fixed list of points — the
//! Figure 5 cliff at F=64 R=8 L=400, a Figure 5 point where the file holds
//! many contexts, and a Figure 6 point with unloads. For each point: record
//! every event of both architectures, replay the streams through
//! `EventAccountant`, build the windowed metrics, export the Chrome trace,
//! bisect fixed against flexible, self-compare flexible, and round-trip a
//! mid-run engine snapshot.
//!
//! Every step is a call into a layer's public function, so a traced pass
//! times exactly the work an untraced pass does.

use std::time::Instant;

use register_relocation::diverge::{diverge_point, DivergePair};
use register_relocation::sim::{
    chrome_trace_json, DivergeConfig, Engine, EngineSnapshot, EventAccountant, MetricsReport,
    SimStats,
};
use register_relocation::{Arch, ExperimentSpec, SweepGrid};

use crate::checks::{check_chrome_trace, check_stats, no_divergence, same_stats};
use crate::layers::Recorder;
use crate::{Context, JobOutcome, Workload};

/// `(figure, F, R, L)` of the inspected points, cheapest first, so the
/// median job follows a small one rather than the cliff point that has
/// just released half a gigabyte.
const POINTS: [(u8, u32, f64, u64); 3] =
    [(6, 128, 128.0, 350), (5, 256, 32.0, 100), (5, 64, 8.0, 400)];

pub struct Inspect {
    specs: Vec<ExperimentSpec>,
    /// Untraced `(fixed, flexible)` statistics of each point.
    reference: Vec<(SimStats, SimStats)>,
}

impl Inspect {
    pub fn new(ctx: &Context) -> Result<Inspect, String> {
        let mut specs = Vec::new();
        let mut reference = Vec::new();
        for (figure, f, r, l) in POINTS {
            let grid = if figure == 5 {
                SweepGrid::figure5(ctx.seed)
            } else {
                SweepGrid::figure6(ctx.seed)
            };
            let spec = grid
                .point_at(f, r, l)
                .ok_or_else(|| format!("fig{figure} has no point {f},{r},{l}"))?
                .spec;
            reference.push((
                spec.with_arch(Arch::Fixed).run()?,
                spec.with_arch(Arch::Flexible).run()?,
            ));
            specs.push(spec);
        }
        Ok(Inspect {
            specs,
            reference,
        })
    }

    fn job(&self, i: usize, rec: &mut Recorder, problems: &mut Vec<String>) -> Result<(), String> {
        let spec = self.specs[i];
        let (fixed_ref, flex_ref) = &self.reference[i];
        let mut streams = Vec::new();
        let (mut record_s, mut replay_s, mut windows_s) = (0.0, 0.0, 0.0);
        for (arch, reference) in [(Arch::Fixed, fixed_ref), (Arch::Flexible, flex_ref)] {
            let leg = spec.with_arch(arch);
            let (recorded, secs) = rec.time("trace.point_ms", || leg.run_with_events());
            record_s += secs;
            let (stats, events) = recorded?;
            problems.extend(check_stats(&leg, arch.label(), &stats).err());
            let label = format!("point {i} {} traced vs untraced", arch.label());
            problems.extend(same_stats(&label, reference, &stats).err());
            let (replayed, secs) = rec.time("trace.replay_ms", || EventAccountant::replay(&events));
            replay_s += secs;
            let label = format!("point {i} {} event replay vs engine", arch.label());
            problems.extend(same_stats(&label, &stats, &replayed?).err());
            let (windows, secs) = rec.time("trace.windows_ms", || {
                MetricsReport::from_events(&events, None)
            });
            windows_s += secs;
            let tiled = windows.efficiency_from_windows();
            if (tiled - stats.efficiency_full()).abs() > 1e-9 {
                problems.push(format!(
                    "point {i} {}: windows tile efficiency {tiled}, run has {}",
                    arch.label(),
                    stats.efficiency_full()
                ));
            }
            rec.count("trace.events", events.len() as f64);
            streams.push(events);
        }
        rec.sample("trace.point_ms", record_s * 1e3);
        rec.sample("trace.replay_ms", replay_s * 1e3);
        rec.sample("trace.windows_ms", windows_s * 1e3);

        // Kept in memory: the file write would time the disk, not the
        // exporter, and leave a file of up to 95 MB per point.
        let (doc, secs) = rec.time("trace.export_ms", || {
            chrome_trace_json(&[(1, "fixed", &streams[0]), (2, "flexible", &streams[1])])
        });
        rec.sample("trace.export_ms", secs * 1e3);
        rec.sample("trace.export_mib", doc.len() as f64 / (1024.0 * 1024.0));
        drop(streams);
        match check_chrome_trace(&doc) {
            Ok(summary) if summary.pids == 2 => {}
            Ok(summary) => {
                problems.push(format!("point {i}: Chrome trace has {} pids", summary.pids))
            }
            Err(e) => problems.push(format!("point {i}: Chrome trace: {e}")),
        }
        drop(doc);

        let cfg = DivergeConfig::default();
        let pair = DivergePair {
            spec,
            arch_a: Arch::Fixed,
            arch_b: Arch::Flexible,
        };
        let (bisected, secs) = rec.time("diverge.bisect_ms", || diverge_point(&pair, &cfg));
        let bisected = bisected?;
        rec.sample("diverge.bisect_ms", secs * 1e3);
        rec.count("diverge.windows", bisected.windows_scanned as f64);
        problems.extend(
            same_stats(
                &format!("point {i} lockstep fixed"),
                fixed_ref,
                &bisected.a.stats,
            )
            .err(),
        );
        problems.extend(
            same_stats(
                &format!("point {i} lockstep flexible"),
                flex_ref,
                &bisected.b.stats,
            )
            .err(),
        );
        let own = DivergePair {
            spec,
            arch_a: Arch::Flexible,
            arch_b: Arch::Flexible,
        };
        let (selfcheck, secs) = rec.time("diverge.selfcheck_ms", || diverge_point(&own, &cfg));
        let selfcheck = selfcheck?;
        rec.sample("diverge.selfcheck_ms", secs * 1e3);
        problems.extend(no_divergence(&format!("point {i} self-compare"), &selfcheck).err());

        let leg = spec.with_arch(Arch::Flexible);
        let mut engine = leg.engine()?;
        engine.advance(flex_ref.total_cycles / 2);
        let snapshot = engine.snapshot();
        drop(engine);
        let (json, secs) = rec.time("snapshot.encode_us", || snapshot.to_json());
        rec.sample("snapshot.encode_us", secs * 1e6);
        rec.sample("snapshot.kib", json.len() as f64 / 1024.0);
        let (decoded, secs) = rec.time("snapshot.decode_us", || EngineSnapshot::from_json(&json));
        rec.sample("snapshot.decode_us", secs * 1e6);
        let mut restored =
            Engine::restore(&decoded.map_err(|e| e.to_string())?).map_err(|e| e.to_string())?;
        restored.advance(u64::MAX);
        let (resumed, _) = restored.finish();
        problems.extend(
            same_stats(
                &format!("point {i} resumed from a snapshot"),
                flex_ref,
                &resumed,
            )
            .err(),
        );
        Ok(())
    }
}

impl Workload for Inspect {
    fn pass(&mut self, rec: &mut Recorder, problems: &mut Vec<String>) -> Vec<JobOutcome> {
        (0..self.specs.len())
            .map(|i| {
                let started = Instant::now();
                match self.job(i, rec, problems) {
                    Ok(()) => JobOutcome {
                        latency_s: started.elapsed().as_secs_f64(),
                        points: 1,
                        failed: false,
                    },
                    Err(e) => JobOutcome::failed(started, format!("inspect point {i}: {e}")),
                }
            })
            .collect()
    }
}
