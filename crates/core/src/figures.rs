//! Parameter sweeps regenerating the paper's Figures 5 and 6.
//!
//! Each figure is a 3-panel family: one panel per register file size
//! `F ∈ {64, 128, 256}`, curves for three run lengths, efficiency plotted
//! against fault latency, solid = fixed hardware contexts, dotted = register
//! relocation. The paper's exact latency grids are not printed; the grids
//! here span the same qualitative range (from latencies short enough to
//! saturate every configuration up to latencies deep in the linear regime).
//!
//! The grids themselves are [`crate::sweep::SweepGrid`]s, expanded from a
//! [`crate::spec::RunSpec`] and run by [`crate::sweep::SweepRunner`].

use serde::{Deserialize, Serialize};

use crate::experiments::ComparisonPoint;

/// Run lengths of Figure 5 (cache faults): circles, squares, triangles.
pub const FIG5_RUN_LENGTHS: [f64; 3] = [8.0, 32.0, 128.0];
/// Latency grid for Figure 5.
pub const FIG5_LATENCIES: [u64; 6] = [20, 50, 100, 200, 400, 800];
/// Run lengths of Figure 6 (synchronization faults).
pub const FIG6_RUN_LENGTHS: [f64; 3] = [32.0, 128.0, 512.0];
/// Latency grid for Figure 6: producer-consumer synchronization waits of the
/// paper's era (tens to hundreds of cycles). In this range the allocation
/// overhead crossover appears only in the F = 64 panel, matching the paper's
/// "only notable exception"; the extended grid
/// [`FIG6_EXTENDED_LATENCIES`] (used by the ablation binary) shows the same
/// crossover reaching larger files at latencies beyond the paper's range.
pub const FIG6_LATENCIES: [u64; 6] = [25, 50, 100, 200, 350, 500];
/// Extended synchronization-latency grid for the section 3.3 ablation.
pub const FIG6_EXTENDED_LATENCIES: [u64; 6] = [100, 250, 500, 1000, 2500, 5000];
/// Register file sizes of both figures' panels.
pub const FILE_SIZES: [u32; 3] = [64, 128, 256];

/// One plotted point of a figure.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Run length `R` of the curve this point belongs to.
    pub run_length: f64,
    /// The paired fixed/flexible measurement.
    pub comparison: ComparisonPoint,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::{SweepGrid, SweepRunner};

    /// A miniature figure-5 panel (few points, small work) exercising the
    /// full sweep path; the real grids run in `rr fig5` and `rr fig6`.
    #[test]
    fn mini_sweep_has_paper_shape() {
        let mut grid = SweepGrid::figure5_panel(128, 7);
        grid.run_lengths = vec![8.0, 128.0];
        grid.latencies = vec![50, 400];
        let run = SweepRunner::new(1).with_progress(false).run(&grid).unwrap();
        let points = run.report.figure_points();
        assert_eq!(points.len(), 4);
        // Flexible wins or ties everywhere on this grid.
        for p in &points {
            assert!(
                p.comparison.speedup() > 0.95,
                "flexible should not lose badly: {p:?}"
            );
        }
        // Longer latency at short run length widens the flexible advantage.
        let short_run_short_lat = &points[0];
        let short_run_long_lat = &points[1];
        assert!(
            short_run_long_lat.comparison.speedup()
                >= short_run_short_lat.comparison.speedup() * 0.9
        );
    }

    #[test]
    fn grids_match_paper_families() {
        assert_eq!(FIG5_RUN_LENGTHS, [8.0, 32.0, 128.0]);
        assert_eq!(FIG6_RUN_LENGTHS, [32.0, 128.0, 512.0]);
        assert_eq!(FILE_SIZES, [64, 128, 256]);
    }
}
