//! Windowed time-series metrics derived from the event stream.
//!
//! Aggregate efficiency hides dynamics: a run that saturates early and then
//! drains looks identical to one that limps uniformly. This module folds a
//! run's [`Event`] stream into fixed-width time windows — efficiency,
//! overhead, resident-context occupancy, fault counts per window — plus
//! whole-run log-bucketed histograms of actual run lengths and fault
//! latencies ([`LogHistogram`]; local, no dependency). Charges that span a
//! window boundary are split proportionally, so window sums still tile the
//! run exactly.

use serde::{Deserialize, Serialize};

use rr_runtime::{CostBucket, Event, EventKind, EventLog};

/// A power-of-two-bucketed histogram of `u64` samples.
///
/// Bucket 0 holds exact zeros; bucket `i >= 1` holds values in
/// `[2^(i-1), 2^i - 1]`. 65 buckets cover the whole `u64` range, so
/// recording never saturates or reallocates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogHistogram {
    /// Sample count per bucket; index as described above.
    counts: Vec<u64>,
    /// Total samples recorded.
    total: u64,
    /// Sum of all samples (for the mean).
    sum: u64,
    /// Smallest sample seen (`u64::MAX` until the first record).
    min: u64,
    /// Largest sample seen.
    max: u64,
}

/// One non-empty bucket of a [`LogHistogram`], with its value range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistBucket {
    /// Smallest value the bucket covers.
    pub lo: u64,
    /// Largest value the bucket covers.
    pub hi: u64,
    /// Samples that landed in it.
    pub count: u64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram { counts: vec![0; 65], total: 0, sum: 0, min: u64::MAX, max: 0 }
    }

    fn index(value: u64) -> usize {
        if value == 0 {
            0
        } else {
            64 - value.leading_zeros() as usize
        }
    }

    /// Records one sample. The running sum saturates at `u64::MAX` (only
    /// reachable with adversarial inputs far beyond any simulated horizon),
    /// at which point [`Self::mean`] becomes a lower bound.
    pub fn record(&mut self, value: u64) {
        self.counts[Self::index(value)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Total samples recorded.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Exact arithmetic mean of the samples (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Smallest recorded sample (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.total > 0).then_some(self.min)
    }

    /// Largest recorded sample (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.total > 0).then_some(self.max)
    }

    /// The non-empty buckets, in increasing value order.
    pub fn buckets(&self) -> Vec<HistBucket> {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(_, &c)| c > 0)
            .map(|(i, &count)| {
                let (lo, hi) = if i == 0 {
                    (0, 0)
                } else {
                    (1u64 << (i - 1), (1u64 << (i - 1)).wrapping_mul(2).wrapping_sub(1))
                };
                HistBucket { lo, hi: if i == 64 { u64::MAX } else { hi }, count }
            })
            .collect()
    }
}

/// Per-window aggregates; every cycle of the window lands in exactly one of
/// `busy + overhead + idle`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MetricsWindow {
    /// Window start cycle (inclusive).
    pub start: u64,
    /// Window end cycle (exclusive; the last window ends at the run total).
    pub end: u64,
    /// Useful-work cycles in the window.
    pub busy: u64,
    /// Scheduling-overhead cycles (switch, spin, alloc, dealloc, load,
    /// unload, queue).
    pub overhead: u64,
    /// Idle cycles.
    pub idle: u64,
    /// Faults taken in the window.
    pub faults: u64,
    /// Context loads in the window.
    pub loads: u64,
    /// Context unloads in the window.
    pub unloads: u64,
    /// Integral of resident contexts over the window's charges, in
    /// context-cycles; divide by the window width for the average.
    pub resident_cycles: u64,
}

impl MetricsWindow {
    fn empty(start: u64, end: u64) -> Self {
        MetricsWindow {
            start,
            end,
            busy: 0,
            overhead: 0,
            idle: 0,
            faults: 0,
            loads: 0,
            unloads: 0,
            resident_cycles: 0,
        }
    }

    /// Window width in cycles.
    pub fn width(&self) -> u64 {
        self.end - self.start
    }

    /// Efficiency within the window: busy over width.
    pub fn efficiency(&self) -> f64 {
        if self.width() == 0 {
            0.0
        } else {
            self.busy as f64 / self.width() as f64
        }
    }

    /// Time-averaged resident contexts within the window.
    pub fn avg_resident(&self) -> f64 {
        if self.width() == 0 {
            0.0
        } else {
            self.resident_cycles as f64 / self.width() as f64
        }
    }
}

/// Windowed metrics plus whole-run histograms for one traced run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    /// Window width in cycles.
    pub window: u64,
    /// Total cycles of the run the windows tile.
    pub total_cycles: u64,
    /// The windows, in time order; the last may be narrower.
    pub windows: Vec<MetricsWindow>,
    /// Histogram of actual (post-interference, remaining-capped) run
    /// lengths, one sample per busy charge.
    pub run_lengths: LogHistogram,
    /// Histogram of sampled fault latencies.
    pub fault_latencies: LogHistogram,
}

impl MetricsReport {
    /// Builds a report from a run's events. `window` fixes the window width
    /// in cycles; `None` picks `total/64` rounded up to a power of two (at
    /// least 1024), giving roughly 64 windows on any horizon.
    pub fn from_events(events: &EventLog, window: Option<u64>) -> Self {
        let total_cycles = match events.last() {
            Some(Event { kind: EventKind::RunEnd { total_cycles, .. }, .. }) => total_cycles,
            // A stream cut short: its last RunEnd, else its latest end.
            _ => {
                let (mut run_end, mut horizon) = (None, 0);
                for e in events {
                    match e.kind {
                        EventKind::RunEnd { total_cycles, .. } => run_end = Some(total_cycles),
                        EventKind::Charge { cycles, .. } => horizon = horizon.max(e.cycle + cycles),
                        _ => horizon = horizon.max(e.cycle),
                    }
                }
                run_end.unwrap_or(horizon)
            }
        };
        let window =
            window.unwrap_or_else(|| (total_cycles / 64).next_power_of_two().max(1024));
        let mut report = MetricsReport {
            window,
            total_cycles,
            windows: Vec::new(),
            run_lengths: LogHistogram::new(),
            fault_latencies: LogHistogram::new(),
        };
        for e in events {
            match e.kind {
                EventKind::Charge { bucket, cycles, resident, .. } => {
                    if bucket == CostBucket::Busy {
                        report.run_lengths.record(cycles);
                    }
                    report.add_charge(e.cycle, cycles, bucket, resident);
                }
                EventKind::Fault { latency, .. } => {
                    report.fault_latencies.record(latency);
                    report.window_at(e.cycle).faults += 1;
                }
                EventKind::ContextLoad { .. } => report.window_at(e.cycle).loads += 1,
                EventKind::ContextUnload { .. } => report.window_at(e.cycle).unloads += 1,
                _ => {}
            }
        }
        // Clamp the final window to the run total so widths stay honest.
        if let Some(last) = report.windows.last_mut() {
            last.end = last.end.min(total_cycles.max(last.start + 1));
        }
        report
    }

    /// The window containing `cycle`, growing the vector as needed.
    fn window_at(&mut self, cycle: u64) -> &mut MetricsWindow {
        let idx = (cycle / self.window) as usize;
        while self.windows.len() <= idx {
            let start = self.windows.len() as u64 * self.window;
            self.windows.push(MetricsWindow::empty(start, start + self.window));
        }
        &mut self.windows[idx]
    }

    /// Distributes a charge across the windows it spans, splitting at each
    /// boundary so per-window cycle sums tile the run exactly.
    fn add_charge(&mut self, start: u64, cycles: u64, bucket: CostBucket, resident: usize) {
        let mut at = start;
        let mut left = cycles;
        while left > 0 {
            let w = self.window_at(at);
            let room = w.end - at;
            let take = left.min(room);
            match bucket {
                CostBucket::Busy => w.busy += take,
                CostBucket::Idle => w.idle += take,
                _ => w.overhead += take,
            }
            w.resident_cycles += resident as u64 * take;
            at += take;
            left -= take;
        }
    }

    /// Whole-run efficiency recomputed from the windows (a consistency
    /// handle for tests: must match `busy/total` from `SimStats`).
    pub fn efficiency_from_windows(&self) -> f64 {
        let busy: u64 = self.windows.iter().map(|w| w.busy).sum();
        if self.total_cycles == 0 {
            0.0
        } else {
            busy as f64 / self.total_cycles as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_alloc::BitmapAllocator;
    use rr_runtime::{SchedCosts, UnloadPolicyKind};
    use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

    use crate::engine::Engine;
    use crate::options::SimOptions;
    use crate::stats::SimStats;

    #[test]
    fn histogram_buckets_are_powers_of_two() {
        let mut h = LogHistogram::new();
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1000, u64::MAX] {
            h.record(v);
        }
        assert_eq!(h.total(), 9);
        assert_eq!(h.min(), Some(0));
        assert_eq!(h.max(), Some(u64::MAX));
        let buckets = h.buckets();
        let zero = buckets.iter().find(|b| b.lo == 0 && b.hi == 0).unwrap();
        assert_eq!(zero.count, 1);
        let b23 = buckets.iter().find(|b| b.lo == 2).unwrap();
        assert_eq!((b23.hi, b23.count), (3, 2)); // 2 and 3
        let b47 = buckets.iter().find(|b| b.lo == 4).unwrap();
        assert_eq!((b47.hi, b47.count), (7, 2)); // 4 and 7
        let top = buckets.last().unwrap();
        assert_eq!(top.hi, u64::MAX);
        assert_eq!(top.count, 1);
        // Every sample is in some bucket.
        assert_eq!(buckets.iter().map(|b| b.count).sum::<u64>(), 9);
    }

    #[test]
    fn histogram_mean_is_exact() {
        let mut h = LogHistogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert_eq!(h.mean(), 20.0);
        assert_eq!(LogHistogram::new().mean(), 0.0);
        assert_eq!(LogHistogram::new().min(), None);
    }

    fn traced(threads: usize) -> (SimStats, EventLog) {
        let w = WorkloadBuilder::new()
            .threads(threads)
            .run_length(Dist::Geometric { mean: 16.0 })
            .latency(Dist::Constant(200))
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(5_000)
            .seed(21)
            .build()
            .unwrap();
        let engine = Engine::with_sink(
            BitmapAllocator::new(128).unwrap(),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            SimOptions::cache_experiments(),
            EventLog::new(),
        )
        .unwrap();
        engine.run_with_sink()
    }

    #[test]
    fn windows_tile_the_run_exactly() {
        let (stats, events) = traced(16);
        let report = MetricsReport::from_events(&events, Some(4096));
        // Cycle conservation: window sums equal the stats buckets.
        let busy: u64 = report.windows.iter().map(|w| w.busy).sum();
        let idle: u64 = report.windows.iter().map(|w| w.idle).sum();
        let overhead: u64 = report.windows.iter().map(|w| w.overhead).sum();
        assert_eq!(busy, stats.busy_cycles);
        assert_eq!(idle, stats.idle_cycles);
        assert_eq!(overhead, stats.overhead_cycles());
        assert_eq!(busy + idle + overhead, stats.total_cycles);
        // Count conservation.
        let faults: u64 = report.windows.iter().map(|w| w.faults).sum();
        assert_eq!(faults, stats.faults);
        let loads: u64 = report.windows.iter().map(|w| w.loads).sum();
        assert_eq!(loads, stats.loads);
        // Windows are contiguous and ordered.
        for pair in report.windows.windows(2) {
            assert_eq!(pair[0].end, pair[1].start);
        }
        assert!((report.efficiency_from_windows() - stats.efficiency_full()).abs() < 1e-12);
        // Histograms saw every busy charge and every fault.
        assert_eq!(report.fault_latencies.total(), stats.faults);
        assert_eq!(report.fault_latencies.max(), Some(200));
        assert!(report.run_lengths.total() > 0);
    }

    #[test]
    fn auto_window_gives_about_64_windows() {
        let (_, events) = traced(16);
        let report = MetricsReport::from_events(&events, None);
        assert!(report.window >= 1024);
        assert!(report.window.is_power_of_two());
        assert!(report.windows.len() <= 130, "got {}", report.windows.len());
    }

    #[test]
    fn charges_split_across_boundaries() {
        // A synthetic stream: one 100-cycle busy charge spanning a 64-cycle
        // window boundary with 3 residents.
        let events: EventLog = [
            Event {
                cycle: 0,
                kind: EventKind::RunStart {
                    threads: 1,
                    checkpoint_interval: 1024,
                    checkpoint_cap: 65536,
                    transient_trim: 0.1,
                },
            },
            Event {
                cycle: 0,
                kind: EventKind::Charge {
                    bucket: CostBucket::Busy,
                    cycles: 100,
                    resident: 3,
                    thread: Some(0),
                },
            },
            Event {
                cycle: 100,
                kind: EventKind::RunEnd { total_cycles: 100, supply_drained_at: Some(0) },
            },
        ]
        .into_iter()
        .collect();
        let report = MetricsReport::from_events(&events, Some(64));
        assert_eq!(report.windows.len(), 2);
        assert_eq!(report.windows[0].busy, 64);
        assert_eq!(report.windows[1].busy, 36);
        assert_eq!(report.windows[1].start, 64);
        assert_eq!(report.windows[1].end, 100, "last window clamps to the total");
        assert_eq!(report.windows[0].resident_cycles, 3 * 64);
        assert_eq!(report.windows[0].efficiency(), 1.0);
        assert_eq!(report.windows[0].avg_resident(), 3.0);
    }
}
