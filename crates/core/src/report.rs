//! Text rendering of figure sweeps, in the spirit of the paper's plots.

use crate::figures::FigurePoint;
use crate::sweep::SweepRun;
use crate::trace::{TracedArchRun, TracedPoint};

/// Renders one figure panel as an aligned text table: one row block per run
/// length, columns per latency, with fixed/flexible efficiencies and their
/// ratio.
pub fn format_panel(title: &str, points: &[FigurePoint]) -> String {
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let mut run_lengths: Vec<f64> = points.iter().map(|p| p.run_length).collect();
    run_lengths.dedup();
    for r in run_lengths {
        let row: Vec<&FigurePoint> =
            points.iter().filter(|p| p.run_length == r).collect();
        if row.is_empty() {
            continue;
        }
        out.push_str(&format!("  R = {r:>5}\n"));
        out.push_str("    L        ");
        for p in &row {
            out.push_str(&format!("{:>9}", p.comparison.latency));
        }
        out.push_str("\n    fixed    ");
        for p in &row {
            out.push_str(&format!("{:>9.3}", p.comparison.fixed_efficiency));
        }
        out.push_str("\n    flexible ");
        for p in &row {
            out.push_str(&format!("{:>9.3}", p.comparison.flexible_efficiency));
        }
        out.push_str("\n    ratio    ");
        for p in &row {
            out.push_str(&format!("{:>9.2}", p.comparison.speedup()));
        }
        out.push('\n');
    }
    out
}

/// One-paragraph execution summary of a sweep: point count, worker count,
/// wall-clock, the serial-equivalent cost the pool amortized, the slowest
/// point (the floor no worker count can beat), and — when a result store is
/// attached — the cache traffic of this execution.
pub fn format_sweep_summary(run: &SweepRun) -> String {
    let report = &run.report;
    let wall_s = run.total_wall_nanos as f64 / 1e9;
    let serial_s = report.points_wall_nanos() as f64 / 1e9;
    let mut out = format!(
        "sweep: {} points on {} worker(s), seed {}: {wall_s:.2}s wall (serial-equivalent {serial_s:.2}s)",
        report.points.len(),
        run.jobs,
        report.seed,
    );
    if let Some(slow) = report.slowest_point() {
        out.push_str(&format!(
            "; slowest point F={} R={} L={} at {:.2}s",
            slow.file_size,
            slow.run_length,
            slow.latency,
            slow.wall_nanos as f64 / 1e9,
        ));
    }
    if run.cache.enabled {
        out.push_str(&format!(
            "; store {}/{} cached ({} computed, {} stored, {} quarantined)",
            run.cache.hits,
            report.points.len(),
            run.cache.misses,
            run.cache.stored,
            run.cache.quarantined,
        ));
    }
    out
}

/// Renders one traced point as a side-by-side fixed/flexible summary with
/// an efficiency-over-time sparkline per architecture — the `rr trace`
/// terminal view of what the Perfetto export shows graphically.
pub fn format_trace_point(point: &TracedPoint) -> String {
    let spec = &point.spec;
    let mut out = format!(
        "## trace: F={} R={} L={} seed={}\n",
        spec.file_size,
        spec.run_length,
        spec.fault.mean_latency(),
        spec.seed,
    );
    let row = |label: &str, fixed: String, flexible: String| {
        format!("  {label:<22}{fixed:>14}{flexible:>14}\n")
    };
    out.push_str(&row("", "fixed".into(), "flexible".into()));
    let f = &point.fixed;
    let x = &point.flexible;
    out.push_str(&row(
        "efficiency",
        format!("{:.3}", f.stats.efficiency()),
        format!("{:.3}", x.stats.efficiency()),
    ));
    out.push_str(&row(
        "avg resident",
        format!("{:.2}", f.stats.avg_resident),
        format!("{:.2}", x.stats.avg_resident),
    ));
    out.push_str(&row(
        "total cycles",
        f.stats.total_cycles.to_string(),
        x.stats.total_cycles.to_string(),
    ));
    out.push_str(&row("faults", f.stats.faults.to_string(), x.stats.faults.to_string()));
    out.push_str(&row(
        "loads / unloads",
        format!("{} / {}", f.stats.loads, f.stats.unloads),
        format!("{} / {}", x.stats.loads, x.stats.unloads),
    ));
    out.push_str(&row(
        "events",
        f.events.len().to_string(),
        x.events.len().to_string(),
    ));
    out.push_str(&row(
        "run length mean",
        format!("{:.1}", f.metrics.run_lengths.mean()),
        format!("{:.1}", x.metrics.run_lengths.mean()),
    ));
    out.push_str(&row(
        "fault latency mean",
        format!("{:.1}", f.metrics.fault_latencies.mean()),
        format!("{:.1}", x.metrics.fault_latencies.mean()),
    ));
    out.push_str(&format!(
        "  windows: {} x {} cycles\n",
        f.metrics.windows.len(),
        f.metrics.window,
    ));
    out.push_str(&format!("  fixed    |{}|\n", efficiency_sparkline(f)));
    out.push_str(&format!("  flexible |{}|\n", efficiency_sparkline(x)));
    out
}

/// One character per window, darker = higher in-window efficiency.
fn efficiency_sparkline(run: &TracedArchRun) -> String {
    const RAMP: [char; 8] = [' ', '.', ':', '-', '=', '+', '#', '@'];
    run.metrics
        .windows
        .iter()
        .map(|w| {
            let eff = w.efficiency().clamp(0.0, 1.0);
            RAMP[((eff * (RAMP.len() - 1) as f64).round() as usize).min(RAMP.len() - 1)]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::ComparisonPoint;

    fn point(r: f64, l: f64, fixed: f64, flex: f64) -> FigurePoint {
        FigurePoint {
            run_length: r,
            comparison: ComparisonPoint {
                file_size: 128,
                run_length: r,
                latency: l,
                fixed_efficiency: fixed,
                flexible_efficiency: flex,
                fixed_avg_resident: 4.0,
                flexible_avg_resident: 9.0,
            },
        }
    }

    #[test]
    fn panel_contains_all_rows() {
        let pts =
            vec![point(8.0, 50.0, 0.2, 0.4), point(8.0, 100.0, 0.1, 0.3), point(32.0, 50.0, 0.5, 0.6)];
        let s = format_panel("Figure 5(b): F = 128", &pts);
        assert!(s.contains("Figure 5(b)"));
        assert!(s.contains("R =     8"));
        assert!(s.contains("R =    32"));
        assert!(s.contains("fixed"));
        assert!(s.contains("flexible"));
        assert!(s.contains("2.00"), "ratio row present:\n{s}");
    }

    #[test]
    fn trace_point_report_shows_both_architectures() {
        use crate::experiments::{ExperimentSpec, FaultKind};

        let spec = ExperimentSpec {
            file_size: 64,
            run_length: 16.0,
            fault: FaultKind::Cache { latency: 100 },
            threads: 10,
            work_per_thread: 1_500,
            ..ExperimentSpec::default()
        };
        let point = TracedPoint::run(&spec).unwrap();
        let s = format_trace_point(&point);
        assert!(s.contains("F=64 R=16 L=100"), "{s}");
        assert!(s.contains("fixed") && s.contains("flexible"), "{s}");
        assert!(s.contains("efficiency"), "{s}");
        assert!(s.contains("windows:"), "{s}");
        let sparklines: Vec<&str> =
            s.lines().filter(|l| l.contains('|')).collect();
        assert_eq!(sparklines.len(), 2, "one sparkline per architecture:\n{s}");
    }

    #[test]
    fn sweep_summary_names_the_bottleneck() {
        use crate::sweep::{CacheSummary, PointReport, SweepReport, SWEEP_SCHEMA_VERSION};
        use rr_sim::SimStats;

        let slow = PointReport {
            schema_version: SWEEP_SCHEMA_VERSION,
            index: 0,
            file_size: 64,
            run_length: 8.0,
            latency: 800,
            seed: 7,
            figure: point(8.0, 800.0, 0.2, 0.4),
            fixed: SimStats::default(),
            flexible: SimStats::default(),
            fixed_wall_nanos: 1_000_000,
            flexible_wall_nanos: 2_000_000,
            wall_nanos: 3_500_000_000,
        };
        let mut run = SweepRun {
            report: SweepReport {
                schema_version: SWEEP_SCHEMA_VERSION,
                seed: 7,
                points: vec![slow],
            },
            jobs: 8,
            total_wall_nanos: 4_000_000_000,
            cache: CacheSummary::default(),
            metrics: rr_telemetry::METRICS.snapshot(),
        };
        let s = format_sweep_summary(&run);
        assert!(s.contains("1 points on 8 worker(s)"), "{s}");
        assert!(s.contains("seed 7"), "{s}");
        assert!(s.contains("slowest point F=64 R=8 L=800"), "{s}");
        assert!(!s.contains("store"), "no cache segment without a store: {s}");

        run.cache =
            CacheSummary { enabled: true, hits: 1, misses: 0, stored: 0, quarantined: 0 };
        let s = format_sweep_summary(&run);
        assert!(s.contains("store 1/1 cached"), "{s}");
    }
}
