//! Cycle accounting and efficiency statistics.

use serde::{Deserialize, Serialize};

/// Complete cycle accounting for one simulation run.
///
/// Every simulated cycle lands in exactly one bucket, so
/// [`SimStats::accounted_cycles`] always equals [`SimStats::total_cycles`] —
/// an invariant the test suite checks after every run.
///
/// # Example
///
/// ```
/// use rr_sim::SimStats;
///
/// let stats = SimStats {
///     total_cycles: 1000,
///     busy_cycles: 600,
///     switch_cycles: 100,
///     idle_cycles: 300,
///     ..SimStats::default()
/// };
/// assert_eq!(stats.efficiency_full(), 0.6);
/// assert_eq!(stats.overhead_cycles(), 100);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SimStats {
    /// Total simulated cycles.
    pub total_cycles: u64,
    /// Useful work cycles (the numerator of efficiency).
    pub busy_cycles: u64,
    /// Successful context-switch charges (`S` per dispatch).
    pub switch_cycles: u64,
    /// Failed resume attempts during ring walks (`S` each) — the spinning
    /// the two-phase policy bounds.
    pub spin_cycles: u64,
    /// Context allocation charges, successful and failed.
    pub alloc_cycles: u64,
    /// Context deallocation charges.
    pub dealloc_cycles: u64,
    /// Context load charges (registers used + blocking overhead).
    pub load_cycles: u64,
    /// Context unload charges.
    pub unload_cycles: u64,
    /// Thread queue insert/remove charges.
    pub queue_cycles: u64,
    /// Cycles with nothing to run.
    pub idle_cycles: u64,

    /// Faults taken by running threads.
    pub faults: u64,
    /// Successful allocations.
    pub allocs: u64,
    /// Failed allocations.
    pub alloc_failures: u64,
    /// Context loads.
    pub loads: u64,
    /// Context unloads (excluding completions).
    pub unloads: u64,
    /// Threads that ran to completion.
    pub completed_threads: usize,
    /// Peak simultaneously resident contexts.
    pub max_resident: usize,
    /// Time-averaged resident contexts.
    pub avg_resident: f64,

    /// (cycle, cumulative busy) checkpoints for transient exclusion. While
    /// a run is in flight this is the decimating reservoir; a finished
    /// run keeps only the at most two pairs [`Self::efficiency`] reads
    /// (see [`Self::retain_efficiency_window`]).
    pub checkpoints: Vec<(u64, u64)>,
    /// Fraction trimmed from each end for the steady-state window.
    pub transient_trim: f64,
    /// The last cycle at which the software thread queue held work. After
    /// this point the machine is draining its final residents — the
    /// "completion effects" the paper excludes from its statistics.
    pub supply_drained_at: Option<u64>,
    /// `(thread id, cycle)` completion records, in completion order.
    pub completions: Vec<(usize, u64)>,
}

impl SimStats {
    /// Sum of all accounting buckets; must equal [`Self::total_cycles`].
    pub fn accounted_cycles(&self) -> u64 {
        self.busy_cycles
            + self.switch_cycles
            + self.spin_cycles
            + self.alloc_cycles
            + self.dealloc_cycles
            + self.load_cycles
            + self.unload_cycles
            + self.queue_cycles
            + self.idle_cycles
    }

    /// Whole-run efficiency: useful cycles over all cycles.
    pub fn efficiency_full(&self) -> f64 {
        if self.total_cycles == 0 {
            0.0
        } else {
            self.busy_cycles as f64 / self.total_cycles as f64
        }
    }

    /// Steady-state efficiency over the middle of the run, excluding
    /// startup and completion transients (the paper's methodology; its
    /// footnote notes full-run statistics "differed only slightly", which
    /// [`Self::efficiency_full`] lets callers confirm).
    ///
    /// The window runs from `transient_trim` of the way in until the
    /// earlier of `1 - transient_trim` and the point where the thread
    /// supply drained (after which residency thins out as the final
    /// threads complete). Degenerate windows fall back to the full-run
    /// figure.
    pub fn efficiency(&self) -> f64 {
        if self.total_cycles == 0 {
            return 0.0;
        }
        match self.efficiency_bracket() {
            [Some((t1, b1)), Some((t2, b2))] if t2 > t1 => (b2 - b1) as f64 / (t2 - t1) as f64,
            _ => self.efficiency_full(),
        }
    }

    /// The checkpoints bracketing the steady-state window: the first at or
    /// after `transient_trim` of the way in, and the last at or before the
    /// window's end.
    fn efficiency_bracket(&self) -> [Option<(u64, u64)>; 2] {
        let t = self.total_cycles;
        let lo_target = (t as f64 * self.transient_trim) as u64;
        let hi_target = ((t as f64 * (1.0 - self.transient_trim)) as u64)
            .min(self.supply_drained_at.unwrap_or(t));
        let lo = self.checkpoints.iter().find(|(c, _)| *c >= lo_target);
        let hi = self.checkpoints.iter().rev().find(|(c, _)| *c <= hi_target);
        [lo.copied(), hi.copied()]
    }

    /// Cuts a finished run's checkpoint trail down to the pairs
    /// [`Self::efficiency`] reads — at most two, in cycle order — so
    /// stored and served statistics carry the window, not the reservoir.
    ///
    /// Call it once `total_cycles`, `transient_trim` and
    /// `supply_drained_at` are final. `efficiency()` is bit-identical
    /// before and after: the kept pairs are still the first at or after
    /// the window's start and the last at or before its end, and a
    /// missing or crossed side still falls back to the full-run figure.
    /// Trimming twice equals trimming once.
    pub fn retain_efficiency_window(&mut self) {
        let mut kept: Vec<(u64, u64)> = self.efficiency_bracket().into_iter().flatten().collect();
        kept.sort_unstable();
        kept.dedup();
        self.checkpoints = kept;
    }

    /// Total scheduling overhead (everything that is neither useful work nor
    /// idle).
    pub fn overhead_cycles(&self) -> u64 {
        self.accounted_cycles() - self.busy_cycles - self.idle_cycles
    }
}

/// One decimation step of the checkpoint reservoir: drops every second
/// checkpoint (keeping indices 0, 2, 4, …), halving the stored count while
/// preserving even temporal coverage. The engine calls this whenever the
/// vector reaches `SimOptions::checkpoint_cap` and doubles its recording
/// stride, so memory stays bounded on arbitrarily long horizons.
///
/// Because `(cycle, cumulative busy)` pairs are *cumulative*, any surviving
/// pair is still exact — decimation only coarsens the granularity at which
/// [`SimStats::efficiency`] can place its window edges, it never biases the
/// busy-cycle deltas between them.
pub fn decimate_checkpoints(checkpoints: &mut Vec<(u64, u64)>) {
    let mut i = 0usize;
    checkpoints.retain(|_| {
        let keep = i.is_multiple_of(2);
        i += 1;
        keep
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats_with(total: u64, busy: u64, checkpoints: Vec<(u64, u64)>) -> SimStats {
        SimStats {
            total_cycles: total,
            busy_cycles: busy,
            idle_cycles: total - busy,
            checkpoints,
            transient_trim: 0.1,
            ..SimStats::default()
        }
    }

    #[test]
    fn full_efficiency() {
        let s = stats_with(1000, 600, vec![]);
        assert!((s.efficiency_full() - 0.6).abs() < 1e-12);
        assert_eq!(SimStats::default().efficiency_full(), 0.0);
    }

    #[test]
    fn windowed_efficiency_excludes_transients() {
        // Busy only between cycles 200 and 800: the middle window sees a
        // higher efficiency than the full run.
        let checkpoints = (0..=10)
            .map(|i| {
                let t = i * 100;
                let b = t.clamp(200, 800) - 200;
                (t, b)
            })
            .collect();
        let s = stats_with(1000, 600, checkpoints);
        assert!(s.efficiency() > s.efficiency_full());
        assert!((s.efficiency() - 600.0 / 800.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_checkpoints_fall_back_to_full() {
        let s = stats_with(1000, 600, vec![(500, 300)]);
        assert_eq!(s.efficiency(), s.efficiency_full());
    }

    #[test]
    fn decimation_keeps_even_indices() {
        let mut cps: Vec<(u64, u64)> = (0..8).map(|i| (i * 100, i * 10)).collect();
        decimate_checkpoints(&mut cps);
        assert_eq!(cps, vec![(0, 0), (200, 20), (400, 40), (600, 60)]);
        let mut one = vec![(5, 5)];
        decimate_checkpoints(&mut one);
        assert_eq!(one, vec![(5, 5)]);
        let mut none: Vec<(u64, u64)> = vec![];
        decimate_checkpoints(&mut none);
        assert!(none.is_empty());
    }

    #[test]
    fn efficiency_window_survives_decimation() {
        // Dense checkpoints vs the same run decimated twice: the steady
        // window efficiency stays within one checkpoint of granularity.
        let checkpoints: Vec<(u64, u64)> = (0..=100)
            .map(|i| {
                let t = i * 100;
                let b = t.clamp(2000, 8000) - 2000;
                (t, b)
            })
            .collect();
        let dense = stats_with(10_000, 6000, checkpoints.clone());
        let mut coarse_cps = checkpoints;
        decimate_checkpoints(&mut coarse_cps);
        decimate_checkpoints(&mut coarse_cps);
        let coarse = stats_with(10_000, 6000, coarse_cps);
        assert!(
            (dense.efficiency() - coarse.efficiency()).abs() < 0.06,
            "dense {} vs decimated {}",
            dense.efficiency(),
            coarse.efficiency()
        );
    }

    #[test]
    fn accounting_identity() {
        let mut s = stats_with(100, 40, vec![]);
        s.switch_cycles = 10;
        s.idle_cycles = 50;
        assert_eq!(s.accounted_cycles(), 100);
        assert_eq!(s.overhead_cycles(), 10);
    }
}
