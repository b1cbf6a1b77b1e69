//! Lockstep divergence analysis: *when* and *why* two configurations of
//! the same seeded workload part ways.
//!
//! The paper's whole argument is a paired comparison — fixed partitioning
//! vs register-relocation contexts on an identical workload — but aggregate
//! statistics only say *how much* the legs differ. This module runs both
//! legs in lockstep and finds the exact first event at which their
//! histories diverge, with the machine state on each side of the split.
//!
//! # Protocol
//!
//! Both legs are [`Engine`]s whose sink is a plain `Vec<Event>` window
//! buffer, stepped checkpoint-to-checkpoint with [`Engine::advance`]:
//!
//! 1. **Lockstep scan.** Advance both legs one window at a time. A pause
//!    lands on the first scheduling boundary *at or after* the requested
//!    cycle, so the legs generally stop at different clocks; only events
//!    stamped strictly below the earlier clock (the *horizon*) are final on
//!    both sides. At each boundary the finalized prefixes are compared
//!    (`rr_runtime::event_diff`); equal prefixes are drained from the
//!    buffers in place (into an [`EventLog`] under
//!    [`DivergeConfig::keep_events`]), so scan memory stays bounded by one
//!    window regardless of run length. Clean boundaries snapshot both
//!    engines; the uncompared holdover events (between the horizon and each leg's clock) ride
//!    along with the snapshots to keep later comparisons aligned.
//! 2. **Bisection.** When a window's prefixes differ, the first divergent
//!    event lies somewhere inside it. Binary-search the window from the
//!    last clean snapshots: restore both legs, advance to the probe cycle,
//!    and compare the aligned re-run streams. Probes that agree move the
//!    lower bracket up (and re-snapshot there); probes that see the
//!    mismatch pull the upper bracket down to the divergence stamp. The
//!    search converges to the tightest pair of scheduling boundaries
//!    around the first divergent event.
//! 3. **Verification + report.** A final restored run from the narrowed
//!    bracket must reproduce the *identical* first divergent event — a
//!    replay-determinism check; a mismatch here is reported as an error,
//!    never a result. The report carries the divergent event with ±K
//!    events of context from each leg, the cumulative per-bucket cost
//!    split at the divergence cycle, and a field-by-field state diff of
//!    the two engines at their first boundaries at/after the divergence.
//!
//! Identical configurations compare equal to the very end (including the
//! final `RunEnd` totals), and the lockstep path's statistics are
//! bit-identical to an uninterrupted [`Engine::run`] — both properties are
//! property-tested.

use rr_runtime::event_diff::{self, Mismatch};
use rr_runtime::{Event, EventLog};
use serde::{Deserialize, Serialize};

use rr_alloc::ContextAllocator;

use crate::engine::Engine;
use crate::snapshot::EngineSnapshot;
use crate::stats::SimStats;

/// A lockstep leg's engine: its sink is the window buffer of events not
/// yet compared.
type WindowEngine = Engine<Vec<Event>>;

/// Knobs of the lockstep comparator. The defaults suit full-size
/// experiment runs; tests shrink the window to exercise many boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DivergeConfig {
    /// Lockstep stride in cycles: how far both legs advance between
    /// comparisons, and the upper bound on scan memory.
    pub window: u64,
    /// Events of context kept on each side of the divergent event.
    pub context: usize,
    /// Keep both legs' complete event streams (for trace export), as
    /// compact [`EventLog`]s. Off by default: the scan then discards
    /// compared prefixes and memory stays bounded by one window.
    pub keep_events: bool,
}

impl Default for DivergeConfig {
    fn default() -> Self {
        DivergeConfig { window: 8192, context: 8, keep_events: false }
    }
}

/// One leg's identity and final outcome.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LegReport {
    /// Human label ("fixed", "flexible", ...).
    pub label: String,
    /// The leg's complete final statistics (run to completion even when
    /// the streams diverged early, so reports can state totals).
    pub stats: SimStats,
    /// The full event stream, present only under
    /// [`DivergeConfig::keep_events`].
    pub events: Option<EventLog>,
}

/// One differing field of the two engines' states at the divergence.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateDelta {
    /// What differs.
    pub field: String,
    /// Leg A's value, rendered.
    pub a: String,
    /// Leg B's value, rendered.
    pub b: String,
}

/// Everything known about the first point where the legs part ways.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Divergence {
    /// Cycle of the first divergent event (the earlier stamp when the two
    /// sides disagree about timing).
    pub cycle: u64,
    /// Absolute index of the divergent position in both event streams.
    pub event_index: u64,
    /// The lockstep window `[last clean horizon, mismatch horizon)` the
    /// divergence surfaced in.
    pub window: (u64, u64),
    /// The bisection-narrowed bracket around the divergence cycle.
    pub bracket: (u64, u64),
    /// Restore-and-advance probes the bisection ran.
    pub bisect_steps: u32,
    /// Leg A's event at the divergent position (`None`: A emitted nothing
    /// there while B acted).
    pub first_a: Option<Event>,
    /// Leg B's event at the divergent position.
    pub first_b: Option<Event>,
    /// ±K events around the divergence from leg A.
    pub context_a: Vec<Event>,
    /// ±K events around the divergence from leg B.
    pub context_b: Vec<Event>,
    /// Leg A's cumulative per-bucket cycle costs up to (strictly below)
    /// the divergence cycle, in `CostBucket` declaration order.
    pub cost_a: [u64; 9],
    /// Leg B's cumulative per-bucket costs at the same point.
    pub cost_b: [u64; 9],
    /// Fields differing between the two engine states at their first
    /// scheduling boundaries at/after the divergence cycle.
    pub state: Vec<StateDelta>,
}

/// The comparator's result: two finished legs plus the divergence, if any.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DivergeOutcome {
    /// Leg A (by convention the baseline, e.g. fixed).
    pub a: LegReport,
    /// Leg B (by convention the candidate, e.g. flexible).
    pub b: LegReport,
    /// `None` when the streams (including the final totals) are identical.
    pub divergence: Option<Divergence>,
    /// Lockstep windows the scan stepped through.
    pub windows_scanned: u64,
    /// Events per leg confirmed identical before the divergence (or in
    /// total, when there is none).
    pub events_compared: u64,
}

/// One leg's scan-side bookkeeping: the engine, whose sink buffers the
/// leg's uncompared events, its completion flag, and the compared prefix
/// when the caller keeps whole streams.
struct Leg {
    engine: WindowEngine,
    done: bool,
    /// Every compared event, under [`DivergeConfig::keep_events`] only.
    kept: Option<EventLog>,
}

impl Leg {
    fn new(engine: WindowEngine, cfg: &DivergeConfig) -> Leg {
        Leg { engine, done: false, kept: cfg.keep_events.then(EventLog::new) }
    }

    fn uncompared(&self) -> &[Event] {
        self.engine.sink()
    }

    /// Removes `n` freshly compared events from the front of the buffer,
    /// in place, moving them into the kept log if there is one.
    fn consume(&mut self, n: usize) {
        let compared = self.engine.sink_mut().drain(..n);
        if let Some(log) = &mut self.kept {
            log.extend(compared);
        }
    }

    /// Finishes a leg whose events have all been compared: its statistics,
    /// its closing `RunEnd`, and the kept stream completed with it.
    fn finish(self) -> (SimStats, Option<Event>, Option<EventLog>) {
        let (stats, tail) = self.engine.finish();
        let end = tail.last().copied();
        let kept = self.kept.map(|mut log| {
            log.extend(tail);
            log
        });
        (stats, end, kept)
    }
}

/// A restartable position: both engines snapshotted at clean boundaries,
/// plus the events each had already emitted beyond the commonly verified
/// horizon (the pause-overshoot holdover). `hold ++ re-emitted events`
/// reconstructs each leg's stream from `horizon` exactly.
#[derive(Clone)]
struct Bracket {
    snap_a: EngineSnapshot,
    snap_b: EngineSnapshot,
    hold_a: Vec<Event>,
    hold_b: Vec<Event>,
    /// Streams are verified equal strictly below this cycle.
    horizon: u64,
}

/// Runs two engine legs in lockstep and reports their first divergence.
///
/// Both engines must be freshly constructed (cycle 0). `labels` name the
/// legs in the report, A first.
///
/// # Errors
///
/// Propagates configuration errors, snapshot-restore failures, and — as a
/// hard error, never a report — a restored re-run that fails to reproduce
/// the scan's divergence (broken replay determinism).
pub fn compare_legs(
    a: Engine<Vec<Event>>,
    b: Engine<Vec<Event>>,
    labels: (&str, &str),
    cfg: &DivergeConfig,
) -> Result<DivergeOutcome, String> {
    if cfg.window == 0 {
        return Err("diverge window must be >= 1 cycle".to_string());
    }
    let mut a = Leg::new(a, cfg);
    let mut b = Leg::new(b, cfg);
    let mut bracket = Bracket {
        snap_a: a.engine.snapshot(),
        snap_b: b.engine.snapshot(),
        hold_a: Vec::new(),
        hold_b: Vec::new(),
        horizon: 0,
    };
    let mut windows: u64 = 0;
    let mut compared: u64 = 0;
    let mut found: Option<(Mismatch, u64)> = None; // mismatch + its horizon

    loop {
        let base = match (a.done, b.done) {
            (false, false) => a.engine.now().max(b.engine.now()),
            (false, true) => a.engine.now(),
            (true, false) => b.engine.now(),
            (true, true) => unreachable!("loop exits when both legs are done"),
        };
        let pause = base.saturating_add(cfg.window);
        if !a.done {
            a.done = a.engine.advance(pause);
        }
        if !b.done {
            b.done = b.engine.advance(pause);
        }
        windows += 1;
        let horizon = scan_horizon(&a, &b);
        if let Some(m) = event_diff::first_divergence(a.uncompared(), b.uncompared(), horizon) {
            found = Some((m, horizon));
            break;
        }
        let n = event_diff::finalized_len(a.uncompared(), horizon);
        debug_assert_eq!(n, event_diff::finalized_len(b.uncompared(), horizon));
        compared += n as u64;
        a.consume(n);
        b.consume(n);
        if a.done && b.done {
            break;
        }
        if !a.done && !b.done {
            bracket = Bracket {
                snap_a: a.engine.snapshot(),
                snap_b: b.engine.snapshot(),
                hold_a: a.uncompared().to_vec(),
                hold_b: b.uncompared().to_vec(),
                horizon,
            };
        }
        // With one leg finished, the bracket stays at the last boundary
        // both legs reached — a later mismatch still bisects from common
        // ground.
    }

    match found {
        None => {
            // Streams identical through the last event; the totals must
            // agree too. `finish` appends each leg's RunEnd.
            let (stats_a, end_a, events_a) = a.finish();
            let (stats_b, end_b, events_b) = b.finish();
            let divergence = if end_a == end_b {
                compared += 1; // the matching RunEnd pair
                None
            } else {
                Some(run_end_divergence(
                    end_a,
                    end_b,
                    &stats_a,
                    &stats_b,
                    compared,
                    bracket.horizon,
                ))
            };
            Ok(DivergeOutcome {
                a: leg_report(labels.0, stats_a, events_a),
                b: leg_report(labels.1, stats_b, events_b),
                divergence,
                windows_scanned: windows,
                events_compared: compared,
            })
        }
        Some((scan_m, mismatch_horizon)) => {
            let window_bounds = (bracket.horizon, mismatch_horizon);
            let event_index = compared + scan_m.index as u64;
            let (divergence, steps) =
                bisect(&bracket, mismatch_horizon, &scan_m, event_index, window_bounds, cfg)?;
            // Run both legs out for their final totals. Comparison is
            // over, so only a caller keeping full streams records them.
            let (stats_a, events_a) = run_out(a)?;
            let (stats_b, events_b) = run_out(b)?;
            let _ = steps;
            Ok(DivergeOutcome {
                a: leg_report(labels.0, stats_a, events_a),
                b: leg_report(labels.1, stats_b, events_b),
                divergence: Some(divergence),
                windows_scanned: windows,
                events_compared: compared,
            })
        }
    }
}

/// The cycle below which both legs' events are final: the earlier clock of
/// the still-running legs, or unbounded once both are done.
fn scan_horizon(a: &Leg, b: &Leg) -> u64 {
    match (a.done, b.done) {
        (true, true) => u64::MAX,
        (true, false) => b.engine.now(),
        (false, true) => a.engine.now(),
        (false, false) => a.engine.now().min(b.engine.now()),
    }
}

fn leg_report(label: &str, stats: SimStats, events: Option<EventLog>) -> LegReport {
    LegReport { label: label.to_string(), stats, events }
}

/// Finishes a leg whose comparison is over. A kept stream records the
/// rest of the run, a stride at a time so the buffer stays small. Without
/// one, the leg finishes on an engine restored from its snapshot with no
/// sink at all: restore is bit-identical to running on, and nothing is
/// emitted that nobody would read.
fn run_out(mut leg: Leg) -> Result<(SimStats, Option<EventLog>), String> {
    if leg.kept.is_none() && !leg.done {
        let mut plain = Engine::restore(&leg.engine.snapshot())
            .map_err(|e| format!("diverge cannot restore a leg to finish it: {e}"))?;
        drop(leg);
        plain.advance(u64::MAX);
        return Ok((plain.finish().0, None));
    }
    while !leg.done {
        leg.done = leg.engine.advance(leg.engine.now().saturating_add(RUN_OUT_STRIDE));
        leg.consume(leg.uncompared().len());
    }
    let (stats, _, events) = leg.finish();
    Ok((stats, events))
}

/// Cycle stride used to record a diverged leg's kept stream to completion.
const RUN_OUT_STRIDE: u64 = 1 << 20;

/// Restores both legs of a bracket with fresh event buffers.
fn restore_pair(bracket: &Bracket) -> Result<(WindowEngine, WindowEngine), String> {
    let a = Engine::restore_with_sink(&bracket.snap_a, Vec::new())
        .map_err(|e| format!("diverge bisection cannot restore leg A: {e}"))?;
    let b = Engine::restore_with_sink(&bracket.snap_b, Vec::new())
        .map_err(|e| format!("diverge bisection cannot restore leg B: {e}"))?;
    Ok((a, b))
}

/// The aligned stream of one restored leg from the bracket's horizon:
/// holdover events first, then everything re-emitted since the restore.
fn aligned(hold: &[Event], re_emitted: &[Event]) -> Vec<Event> {
    let mut out = Vec::with_capacity(hold.len() + re_emitted.len());
    out.extend_from_slice(hold);
    out.extend_from_slice(re_emitted);
    out
}

/// Binary-searches the first differing window down to the exact divergent
/// event, then verifies and assembles the full [`Divergence`] report.
fn bisect(
    start: &Bracket,
    mismatch_horizon: u64,
    scan_m: &Mismatch,
    event_index: u64,
    window_bounds: (u64, u64),
    cfg: &DivergeConfig,
) -> Result<(Divergence, u32), String> {
    let mut bracket = start.clone();
    let mut lo = bracket.horizon;
    let mut hi = mismatch_horizon;
    let mut steps: u32 = 0;

    while steps < 64 && hi.saturating_sub(lo) > 1 {
        let mid = lo + (hi - lo) / 2;
        if mid <= bracket.snap_a.now.max(bracket.snap_b.now) {
            break;
        }
        let (mut ra, mut rb) = restore_pair(&bracket)?;
        let done_a = ra.advance(mid);
        let done_b = rb.advance(mid);
        steps += 1;
        let horizon = probe_horizon(done_a, done_b, &ra, &rb);
        let full_a = aligned(&bracket.hold_a, ra.sink());
        let full_b = aligned(&bracket.hold_b, rb.sink());
        match event_diff::first_divergence(&full_a, &full_b, horizon) {
            Some(m) => {
                let cut = m.cycle().saturating_add(1);
                if cut >= hi {
                    break; // replay found the same stamp again; no tighter
                }
                hi = cut;
            }
            None => {
                if horizon <= lo || horizon >= hi || done_a || done_b {
                    break;
                }
                let n = event_diff::finalized_len(&full_a, horizon);
                bracket = Bracket {
                    snap_a: ra.snapshot(),
                    snap_b: rb.snapshot(),
                    hold_a: full_a[n..].to_vec(),
                    hold_b: full_b[n..].to_vec(),
                    horizon,
                };
                lo = horizon;
            }
        }
    }

    // Final pass: re-run from the narrowed bracket until the divergence is
    // in hand, plus one extra window of trailing context.
    let (mut fa, mut fb) = restore_pair(&bracket)?;
    let mut done_a = false;
    let mut done_b = false;
    let final_m = loop {
        let base = match (done_a, done_b) {
            (false, false) => fa.now().max(fb.now()),
            (false, true) => fa.now(),
            (true, false) => fb.now(),
            (true, true) => {
                return Err(
                    "diverge re-run completed without reproducing the divergence \
                     (broken replay determinism)"
                        .to_string(),
                )
            }
        };
        let pause = base.saturating_add(cfg.window);
        if !done_a {
            done_a = fa.advance(pause);
        }
        if !done_b {
            done_b = fb.advance(pause);
        }
        let horizon = probe_horizon(done_a, done_b, &fa, &fb);
        let full_a = aligned(&bracket.hold_a, fa.sink());
        let full_b = aligned(&bracket.hold_b, fb.sink());
        if let Some(m) = event_diff::first_divergence(&full_a, &full_b, horizon) {
            // One extra window on each side for trailing context.
            if !done_a {
                fa.advance(fa.now().saturating_add(cfg.window));
            }
            if !done_b {
                fb.advance(fb.now().saturating_add(cfg.window));
            }
            break m;
        }
        if done_a && done_b {
            return Err(
                "diverge re-run completed without reproducing the divergence \
                 (broken replay determinism)"
                    .to_string(),
            );
        }
    };

    if final_m.events != scan_m.events {
        return Err(format!(
            "diverge re-run reproduced a different first divergence \
             (scan {:?} vs re-run {:?}): broken replay determinism",
            scan_m.events, final_m.events
        ));
    }

    let cycle = final_m.cycle();
    let full_a = aligned(&bracket.hold_a, fa.sink());
    let full_b = aligned(&bracket.hold_b, fb.sink());
    let cost_a = cost_at(&bracket.snap_a, &bracket.hold_a, fa.sink(), cycle);
    let cost_b = cost_at(&bracket.snap_b, &bracket.hold_b, fb.sink(), cycle);
    let state = state_at_divergence(&bracket, cycle)?;
    let divergence = Divergence {
        cycle,
        event_index,
        window: window_bounds,
        bracket: (lo, hi.min(mismatch_horizon)),
        bisect_steps: steps,
        first_a: final_m.events[0],
        first_b: final_m.events[1],
        context_a: event_diff::context_window(&full_a, final_m.index, cfg.context).to_vec(),
        context_b: event_diff::context_window(&full_b, final_m.index, cfg.context).to_vec(),
        cost_a,
        cost_b,
        state,
    };
    Ok((divergence, steps))
}

fn probe_horizon(
    done_a: bool,
    done_b: bool,
    a: &WindowEngine,
    b: &WindowEngine,
) -> u64 {
    match (done_a, done_b) {
        (true, true) => u64::MAX,
        (true, false) => b.now(),
        (false, true) => a.now(),
        (false, false) => a.now().min(b.now()),
    }
}

/// Exact cumulative per-bucket costs strictly below `cycle`, from a
/// snapshot's accumulators corrected for the holdover (charges the
/// snapshot already counted but that land at or after `cycle`) plus the
/// re-emitted charges below it.
fn cost_at(snap: &EngineSnapshot, hold: &[Event], re_emitted: &[Event], cycle: u64) -> [u64; 9] {
    let mut cost = snap.cost;
    let hold_all = event_diff::cost_below(hold, u64::MAX);
    let hold_before = event_diff::cost_below(hold, cycle);
    let re_before = event_diff::cost_below(re_emitted, cycle);
    for i in 0..9 {
        cost[i] = cost[i] - (hold_all[i] - hold_before[i]) + re_before[i];
    }
    cost
}

/// Restores both legs once more and advances each to its first scheduling
/// boundary at/after the divergence cycle, then diffs their states.
fn state_at_divergence(bracket: &Bracket, cycle: u64) -> Result<Vec<StateDelta>, String> {
    let mut sa = Engine::restore(&bracket.snap_a)
        .map_err(|e| format!("diverge state diff cannot restore leg A: {e}"))?;
    let mut sb = Engine::restore(&bracket.snap_b)
        .map_err(|e| format!("diverge state diff cannot restore leg B: {e}"))?;
    sa.advance(cycle);
    sb.advance(cycle);
    Ok(state_deltas(&sa.snapshot(), &sb.snapshot()))
}

/// Field-by-field comparison of two engine states; only differing fields
/// are reported.
fn state_deltas(a: &EngineSnapshot, b: &EngineSnapshot) -> Vec<StateDelta> {
    let mut out = Vec::new();
    let mut push = |field: &str, va: String, vb: String| {
        if va != vb {
            out.push(StateDelta { field: field.to_string(), a: va, b: vb });
        }
    };
    push("cycle", a.now.to_string(), b.now.to_string());
    push("resident_contexts", a.ring.len().to_string(), b.ring.len().to_string());
    push("supply_depth", a.supply.len().to_string(), b.supply.len().to_string());
    push("timers_outstanding", a.timers.len().to_string(), b.timers.len().to_string());
    push(
        "free_registers",
        a.alloc.free_registers().to_string(),
        b.alloc.free_registers().to_string(),
    );
    push(
        "alloc_blocked_for",
        format!("{:?}", a.alloc_blocked_for),
        format!("{:?}", b.alloc_blocked_for),
    );
    push(
        "completed_threads",
        a.stats.completed_threads.to_string(),
        b.stats.completed_threads.to_string(),
    );
    push("faults", a.stats.faults.to_string(), b.stats.faults.to_string());
    push("alloc_failures", a.stats.alloc_failures.to_string(), b.stats.alloc_failures.to_string());
    push("rng", format!("{:016x?}", a.rng), format!("{:016x?}", b.rng));
    for (i, bucket) in rr_runtime::CostBucket::ALL.iter().enumerate() {
        push(
            &format!("cost[{}]", bucket.label()),
            a.cost[i].to_string(),
            b.cost[i].to_string(),
        );
    }
    out
}

/// The degenerate divergence where the streams matched event for event but
/// the closing `RunEnd` totals differ. Not expected from a deterministic
/// engine (identical histories imply identical totals), but the comparator
/// reports it rather than calling unequal totals "no divergence".
fn run_end_divergence(
    end_a: Option<Event>,
    end_b: Option<Event>,
    stats_a: &SimStats,
    stats_b: &SimStats,
    event_index: u64,
    clean_horizon: u64,
) -> Divergence {
    Divergence {
        cycle: stats_a.total_cycles.min(stats_b.total_cycles),
        event_index,
        window: (clean_horizon, u64::MAX),
        bracket: (clean_horizon, u64::MAX),
        bisect_steps: 0,
        first_a: end_a,
        first_b: end_b,
        context_a: end_a.into_iter().collect(),
        context_b: end_b.into_iter().collect(),
        cost_a: stats_cost(stats_a),
        cost_b: stats_cost(stats_b),
        state: vec![StateDelta {
            field: "total_cycles".to_string(),
            a: stats_a.total_cycles.to_string(),
            b: stats_b.total_cycles.to_string(),
        }],
    }
}

/// A finished run's named buckets back in accumulator-array order.
fn stats_cost(stats: &SimStats) -> [u64; 9] {
    [
        stats.busy_cycles,
        stats.switch_cycles,
        stats.spin_cycles,
        stats.alloc_cycles,
        stats.dealloc_cycles,
        stats.load_cycles,
        stats.unload_cycles,
        stats.queue_cycles,
        stats.idle_cycles,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_alloc::BitmapAllocator;
    use rr_runtime::{SchedCosts, UnloadPolicyKind};
    use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

    use crate::options::SimOptions;

    fn engine(file_size: u32, seed: u64) -> WindowEngine {
        let workload = WorkloadBuilder::new()
            .threads(24)
            .run_length(Dist::Geometric { mean: 16.0 })
            .latency(Dist::Constant(200))
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(4_000)
            .seed(seed)
            .build()
            .unwrap();
        Engine::with_sink(
            BitmapAllocator::new(file_size).unwrap(),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            workload,
            SimOptions::cache_experiments(),
            Vec::new(),
        )
        .unwrap()
    }

    fn small_cfg() -> DivergeConfig {
        // A small window exercises many lockstep boundaries and a real
        // bisection even on short test runs.
        DivergeConfig { window: 512, context: 3, keep_events: false }
    }

    #[test]
    fn identical_legs_never_diverge_and_match_a_straight_run() {
        let out =
            compare_legs(engine(128, 7), engine(128, 7), ("a", "b"), &small_cfg()).unwrap();
        assert!(out.divergence.is_none(), "{:?}", out.divergence);
        assert_eq!(out.a.stats, out.b.stats);
        assert!(out.events_compared > 0);
        assert!(out.windows_scanned > 1, "window too large to exercise lockstep");
        // The lockstep path must be bit-identical to an uninterrupted run.
        let straight = engine(128, 7).run();
        assert_eq!(out.a.stats, straight);
    }

    #[test]
    fn different_file_sizes_diverge_deterministically() {
        let cfg = small_cfg();
        let out = compare_legs(engine(64, 7), engine(128, 7), ("small", "large"), &cfg).unwrap();
        let d = out.divergence.as_ref().expect("64 vs 128 registers must diverge");
        assert!(d.first_a.is_some() || d.first_b.is_some());
        assert_ne!(d.first_a, d.first_b);
        assert!(d.cycle >= d.window.0 && d.cycle < d.window.1.max(1));
        assert!(!d.context_a.is_empty() && !d.context_b.is_empty());
        assert!(d.cost_a.iter().sum::<u64>() <= d.cycle + 1);
        assert!(!d.state.is_empty(), "states at the divergence must differ somewhere");
        // Byte-level determinism: a second comparison reproduces the
        // identical report.
        let again =
            compare_legs(engine(64, 7), engine(128, 7), ("small", "large"), &cfg).unwrap();
        assert_eq!(out, again);
    }

    #[test]
    fn keep_events_mode_finds_the_same_divergence_with_full_streams() {
        let cfg = small_cfg();
        let keep = DivergeConfig { keep_events: true, ..cfg };
        let drained =
            compare_legs(engine(64, 7), engine(128, 7), ("small", "large"), &cfg).unwrap();
        let kept =
            compare_legs(engine(64, 7), engine(128, 7), ("small", "large"), &keep).unwrap();
        let (dd, dk) = (drained.divergence.unwrap(), kept.divergence.unwrap());
        assert_eq!(dd.cycle, dk.cycle);
        assert_eq!(dd.event_index, dk.event_index);
        assert_eq!(dd.first_a, dk.first_a);
        assert_eq!(dd.first_b, dk.first_b);
        let events = kept.a.events.as_ref().expect("keep_events retains the stream");
        assert!(!events.is_empty());
        assert!(drained.a.events.is_none(), "drain mode retains nothing");
        // The kept stream really is the whole history: it starts at the
        // RunStart and ends at the RunEnd.
        assert!(matches!(events.iter().next().unwrap().kind, rr_runtime::EventKind::RunStart { .. }));
        assert!(matches!(events.last().unwrap().kind, rr_runtime::EventKind::RunEnd { .. }));
    }

    #[test]
    fn window_size_does_not_change_the_verdict() {
        let coarse = DivergeConfig { window: 4096, context: 3, keep_events: false };
        let fine = DivergeConfig { window: 128, context: 3, keep_events: false };
        let dc = compare_legs(engine(64, 9), engine(128, 9), ("a", "b"), &coarse)
            .unwrap()
            .divergence
            .unwrap();
        let df = compare_legs(engine(64, 9), engine(128, 9), ("a", "b"), &fine)
            .unwrap()
            .divergence
            .unwrap();
        assert_eq!(dc.cycle, df.cycle);
        assert_eq!(dc.event_index, df.event_index);
        assert_eq!(dc.first_a, df.first_a);
        assert_eq!(dc.first_b, df.first_b);
        assert_eq!(dc.cost_a, df.cost_a);
        assert_eq!(dc.cost_b, df.cost_b);
    }

    #[test]
    fn zero_window_is_rejected() {
        let cfg = DivergeConfig { window: 0, ..DivergeConfig::default() };
        let err = compare_legs(engine(128, 1), engine(128, 1), ("a", "b"), &cfg).unwrap_err();
        assert!(err.contains("window"), "{err}");
    }

    #[test]
    fn outcome_serializes_and_round_trips() {
        let out = compare_legs(
            engine(64, 7),
            engine(128, 7),
            ("small", "large"),
            &small_cfg(),
        )
        .unwrap();
        let json = serde_json::to_string(&out).unwrap();
        let back: DivergeOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, out);
    }
}
