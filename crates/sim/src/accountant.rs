//! Re-derives [`SimStats`] from the event stream — observability as oracle.
//!
//! The engine's headline invariant, `accounted_cycles == total_cycles`, is a
//! *per-run* check: it can tell you a cycle went missing, not where. The
//! [`EventAccountant`] strengthens it to a *per-event* check by replaying a
//! run's [`Event`] stream through the same bookkeeping the engine performs —
//! bucket sums, the resident-context integral, checkpoint recording with
//! reservoir decimation — and verifying two things:
//!
//! 1. **Contiguity**: every [`EventKind::Charge`] must be stamped exactly
//!    where the previous charge ended. A gap or overlap pinpoints the first
//!    unaccounted cycle and which transition produced it.
//! 2. **Equality**: the finished derivation must equal the engine's own
//!    [`SimStats`] field for field — including the bit pattern of
//!    `avg_resident`, because both sides compute it with identical `u128`
//!    integral arithmetic.
//!
//! Any future change to engine charging that forgets to emit (or emits
//! without charging) breaks the comparison immediately, which is what makes
//! the event layer trustworthy enough to build exporters and metrics on.

use rr_runtime::{CostBucket, Event, EventKind, EventLog};

use crate::stats::{decimate_checkpoints, SimStats};

/// Replays an event stream into a derived [`SimStats`].
///
/// # Example
///
/// ```
/// use rr_sim::{Engine, EventAccountant, SimOptions};
/// use rr_runtime::{EventLog, SchedCosts, UnloadPolicyKind};
/// use rr_alloc::BitmapAllocator;
/// use rr_workload::WorkloadBuilder;
///
/// let workload = WorkloadBuilder::new().threads(4).work_per_thread(500).seed(9).build()?;
/// let engine = Engine::with_sink(
///     BitmapAllocator::new(128).map_err(|e| e.to_string())?,
///     SchedCosts::cache_experiments(),
///     UnloadPolicyKind::Never,
///     workload,
///     SimOptions::default(),
///     EventLog::new(),
/// )?;
/// let (stats, log) = engine.run_with_sink();
/// let derived = EventAccountant::replay(&log)?;
/// assert_eq!(derived, stats);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug, Clone, Default)]
pub struct EventAccountant {
    started: bool,
    ended: bool,
    /// Where the last charge ended; the next charge must start here.
    now: u64,
    stats: SimStats,
    resident_integral: u128,
    next_checkpoint: u64,
    checkpoint_interval: u64,
    checkpoint_cap: usize,
    checkpoint_stride: u64,
}

impl EventAccountant {
    /// A fresh accountant, expecting a stream that opens with
    /// [`EventKind::RunStart`].
    pub fn new() -> Self {
        Self::default()
    }

    /// Replays a complete stream and returns the derived statistics.
    ///
    /// # Errors
    ///
    /// The first accounting violation, as a human-readable description
    /// naming the offending cycle.
    pub fn replay(events: &EventLog) -> Result<SimStats, String> {
        let mut acct = EventAccountant::new();
        for e in events {
            acct.ingest(&e)?;
        }
        acct.finish()
    }

    /// Ingests one event, checking charge contiguity as it goes.
    ///
    /// # Errors
    ///
    /// A description of the violated invariant (a charge not starting where
    /// the previous one ended, events outside the `RunStart`..`RunEnd`
    /// bracket, or a `RunEnd` total disagreeing with the charges seen).
    pub fn ingest(&mut self, event: &Event) -> Result<(), String> {
        if self.ended {
            return Err(format!("event at cycle {} after RunEnd", event.cycle));
        }
        match event.kind {
            EventKind::RunStart {
                threads: _,
                checkpoint_interval,
                checkpoint_cap,
                transient_trim,
            } => {
                if self.started {
                    return Err("duplicate RunStart".into());
                }
                self.started = true;
                self.stats.transient_trim = transient_trim;
                self.checkpoint_interval = checkpoint_interval;
                self.checkpoint_cap = checkpoint_cap;
                self.checkpoint_stride = 1;
                self.next_checkpoint = checkpoint_interval;
                Ok(())
            }
            _ if !self.started => {
                Err(format!("event at cycle {} before RunStart", event.cycle))
            }
            EventKind::Charge { bucket, cycles, resident, thread: _ } => {
                if event.cycle != self.now {
                    return Err(format!(
                        "charge of {cycles} {} cycles stamped at {} but the previous \
                         charge ended at {}: {} unaccounted cycle(s)",
                        bucket.label(),
                        event.cycle,
                        self.now,
                        event.cycle.abs_diff(self.now),
                    ));
                }
                self.now += cycles;
                self.resident_integral += resident as u128 * u128::from(cycles);
                let b = &mut self.stats;
                *match bucket {
                    CostBucket::Busy => &mut b.busy_cycles,
                    CostBucket::Switch => &mut b.switch_cycles,
                    CostBucket::Spin => &mut b.spin_cycles,
                    CostBucket::Alloc => &mut b.alloc_cycles,
                    CostBucket::Dealloc => &mut b.dealloc_cycles,
                    CostBucket::Load => &mut b.load_cycles,
                    CostBucket::Unload => &mut b.unload_cycles,
                    CostBucket::Queue => &mut b.queue_cycles,
                    CostBucket::Idle => &mut b.idle_cycles,
                } += cycles;
                while self.now >= self.next_checkpoint {
                    self.stats.checkpoints.push((self.now, self.stats.busy_cycles));
                    self.next_checkpoint += self.checkpoint_interval * self.checkpoint_stride;
                    if self.stats.checkpoints.len() >= self.checkpoint_cap {
                        decimate_checkpoints(&mut self.stats.checkpoints);
                        self.checkpoint_stride *= 2;
                    }
                }
                Ok(())
            }
            EventKind::Fault { thread: _, latency: _, wake } => {
                if wake < event.cycle {
                    return Err(format!(
                        "fault at cycle {} wakes in the past ({wake})",
                        event.cycle
                    ));
                }
                self.stats.faults += 1;
                Ok(())
            }
            EventKind::AllocSuccess { .. } => {
                self.stats.allocs += 1;
                Ok(())
            }
            EventKind::AllocFailure { .. } => {
                self.stats.alloc_failures += 1;
                Ok(())
            }
            EventKind::ContextLoad { resident, .. } => {
                self.stats.loads += 1;
                self.stats.max_resident = self.stats.max_resident.max(resident);
                Ok(())
            }
            EventKind::ContextUnload { .. } => {
                self.stats.unloads += 1;
                Ok(())
            }
            EventKind::ThreadComplete { thread } => {
                self.stats.completed_threads += 1;
                self.stats.completions.push((thread, event.cycle));
                Ok(())
            }
            EventKind::RunEnd { total_cycles, supply_drained_at } => {
                if total_cycles != self.now {
                    return Err(format!(
                        "RunEnd claims {total_cycles} total cycles but charges sum to {}",
                        self.now
                    ));
                }
                self.ended = true;
                self.stats.total_cycles = total_cycles;
                self.stats.supply_drained_at = supply_drained_at;
                self.stats.retain_efficiency_window();
                Ok(())
            }
            // Pure annotations: no bucket or counter of their own (the
            // cycles they describe arrive as charges).
            EventKind::SwitchTo { .. }
            | EventKind::ThreadSpawn { .. }
            | EventKind::ThreadResume { .. }
            | EventKind::ThreadRequeue { .. }
            | EventKind::SpinStep { .. }
            | EventKind::IdleStart { .. }
            | EventKind::IdleEnd
            | EventKind::OsCall { .. } => Ok(()),
        }
    }

    /// Completes the derivation.
    ///
    /// # Errors
    ///
    /// When the stream never started or never ended.
    pub fn finish(mut self) -> Result<SimStats, String> {
        if !self.started {
            return Err("empty stream: no RunStart".into());
        }
        if !self.ended {
            return Err("truncated stream: no RunEnd".into());
        }
        // Identical arithmetic to the engine: integer integral, one final
        // division — so the f64 result is bit-equal, not just close.
        self.stats.avg_resident = if self.stats.total_cycles == 0 {
            0.0
        } else {
            self.resident_integral as f64 / self.stats.total_cycles as f64
        };
        Ok(self.stats)
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

    fn traced_run(threads: usize, policy: UnloadPolicyKind) -> (SimStats, EventLog) {
        let w = WorkloadBuilder::new()
            .threads(threads)
            .run_length(Dist::Geometric { mean: 16.0 })
            .latency(Dist::Exponential { mean: 400.0 })
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(3_000)
            .seed(13)
            .build()
            .unwrap();
        let alloc = BitmapAllocator::new(64).unwrap();
        let sched = match policy {
            UnloadPolicyKind::Never => SchedCosts::cache_experiments(),
            _ => SchedCosts::sync_experiments(),
        };
        let opts = match policy {
            UnloadPolicyKind::Never => SimOptions::cache_experiments(),
            _ => SimOptions::sync_experiments(),
        };
        let engine =
            Engine::with_sink(alloc, sched, policy, w, opts, EventLog::new()).unwrap();
        engine.run_with_sink()
    }

    #[test]
    fn replay_matches_engine_stats_exactly() {
        for policy in [UnloadPolicyKind::Never, UnloadPolicyKind::two_phase()] {
            let (stats, events) = traced_run(24, policy);
            let derived = EventAccountant::replay(&events).unwrap();
            assert_eq!(derived, stats, "policy {policy:?}");
            // Including the float bit pattern of the resident average.
            assert_eq!(derived.avg_resident.to_bits(), stats.avg_resident.to_bits());
        }
    }

    #[test]
    fn stream_brackets_are_enforced() {
        let (_, events) = traced_run(4, UnloadPolicyKind::Never);
        // Missing RunStart.
        let err = EventAccountant::replay(&events.iter().skip(1).collect()).unwrap_err();
        assert!(err.contains("before RunStart"), "{err}");
        // Missing RunEnd.
        let headless = events.iter().take(events.len() - 1).collect();
        let err = EventAccountant::replay(&headless).unwrap_err();
        assert!(err.contains("no RunEnd"), "{err}");
        // Empty stream.
        let err = EventAccountant::replay(&EventLog::new()).unwrap_err();
        assert!(err.contains("no RunStart"), "{err}");
    }

    #[test]
    fn a_dropped_charge_is_caught_at_the_gap() {
        let (_, events) = traced_run(8, UnloadPolicyKind::Never);
        let victim = events
            .iter()
            .position(|e| matches!(e.kind, EventKind::Charge { cycles, .. } if cycles > 0))
            .unwrap();
        let broken =
            events.iter().enumerate().filter(|&(i, _)| i != victim).map(|(_, e)| e).collect();
        let err = EventAccountant::replay(&broken).unwrap_err();
        assert!(
            err.contains("unaccounted cycle") || err.contains("charges sum"),
            "gap must be named: {err}"
        );
    }

    #[test]
    fn a_forged_total_is_caught_at_run_end() {
        let (_, log) = traced_run(4, UnloadPolicyKind::Never);
        let mut events: Vec<Event> = log.iter().collect();
        let last = events.len() - 1;
        if let EventKind::RunEnd { total_cycles, supply_drained_at } = events[last].kind {
            events[last].kind = EventKind::RunEnd {
                total_cycles: total_cycles + 1,
                supply_drained_at,
            };
        } else {
            panic!("stream must end with RunEnd");
        }
        let err = EventAccountant::replay(&events.into_iter().collect()).unwrap_err();
        assert!(err.contains("charges sum"), "{err}");
    }

    #[test]
    fn accountant_decimates_checkpoints_like_the_engine() {
        // A tiny cap forces decimation in both the engine and the replay;
        // equality then proves the accountant's reservoir matches, and
        // both finished trails are that reservoir's efficiency bracket.
        let w = WorkloadBuilder::new()
            .threads(8)
            .work_per_thread(20_000)
            .seed(3)
            .build()
            .unwrap();
        let opts = SimOptions {
            checkpoint_interval: 64,
            checkpoint_cap: 16,
            ..SimOptions::cache_experiments()
        };
        let mut engine = Engine::with_sink(
            BitmapAllocator::new(128).unwrap(),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            opts,
            EventLog::new(),
        )
        .unwrap();
        assert!(engine.advance(u64::MAX), "runs to completion");
        // The in-run reservoir, before `finish` trims it.
        let reservoir = engine.snapshot().stats.checkpoints;
        let (stats, log) = engine.finish();
        assert!(reservoir.len() > 2 && reservoir.len() < 16, "cap respected: {}", reservoir.len());

        let mut acct = EventAccountant::new();
        for e in log.iter().take(log.len() - 1) {
            acct.ingest(&e).unwrap();
        }
        assert_eq!(acct.stats.checkpoints, reservoir, "replayed reservoir");
        acct.ingest(&log.last().unwrap()).unwrap();
        let derived = acct.finish().unwrap();

        let mut trimmed = SimStats { checkpoints: reservoir, ..stats.clone() };
        trimmed.retain_efficiency_window();
        assert!(stats.checkpoints.len() <= 2, "{:?}", stats.checkpoints);
        assert_eq!(stats.checkpoints, trimmed.checkpoints, "engine trail is the bracket");
        assert_eq!(derived.checkpoints, stats.checkpoints, "replayed trail is the bracket");
        assert_eq!(derived, stats);
    }
}
