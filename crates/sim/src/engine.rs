//! The coarse-multithreading simulation engine.
//!
//! One processor, one register file, a supply of synthetic threads. The
//! processor runs a thread until it faults (geometric run lengths), switches
//! contexts in software (Figure 3 costs), and hides the fault latency behind
//! other resident contexts. Context allocation, loading, unloading, and
//! queueing are charged per the paper's Figure 4; all policy differences
//! between the *Flexible* (register relocation) and *Fixed* (hardware
//! windows) architectures enter through the [`ContextAllocator`] and the
//! cost tables it carries.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::SeedableRng;

use rr_alloc::{AllocCosts, AnyAllocator, ContextAllocator};
use rr_runtime::{
    CostBucket, Event, EventKind, EventSink, NullSink, ReadyRing, SchedCosts, UnloadDecision,
    UnloadGovernor, UnloadPolicyKind,
};
use rr_workload::{Sampler, Workload};

use crate::options::SimOptions;
use crate::snapshot::{EngineSnapshot, SnapshotError, SNAPSHOT_SCHEMA_VERSION};
use crate::stats::{decimate_checkpoints, SimStats};
use crate::thread::{Phase, ThreadArena};
use crate::timer::TimerQueue;

/// A run's statistics paired with the host-side wall-clock time it took —
/// the per-run observability record the sweep runner aggregates.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct TracedRun {
    /// Full cycle-accounting statistics of the run.
    pub stats: SimStats,
    /// Host wall-clock nanoseconds spent simulating.
    pub wall_nanos: u64,
}

/// Result of a load attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LoadOutcome {
    /// A context was allocated and loaded.
    Loaded,
    /// A runnable thread is waiting but residency or registers block it.
    NeedSpace,
    /// The software queue is empty.
    NothingToLoad,
}

/// The discrete-event simulator for one multithreaded processor node.
///
/// Generic over an [`EventSink`]; the default [`NullSink`] reports itself
/// disabled, so every emission site below compiles away and a plain
/// [`Engine::new`]/[`Engine::run`] is instruction-for-instruction the
/// unobserved simulator. Construct with [`Engine::with_sink`] and run with
/// [`Engine::run_with_sink`] to capture the cycle-stamped event stream.
pub struct Engine<S: EventSink = NullSink> {
    /// The context allocator, monomorphized: every alloc/dealloc/cost call
    /// dispatches by match and inlines, instead of through a vtable.
    alloc: AnyAllocator,
    /// The allocator's cost table, hoisted at construction (it is fixed for
    /// an allocator's lifetime) so hot paths skip even the match.
    alloc_costs: AllocCosts,
    sched: SchedCosts,
    governor: UnloadGovernor,
    workload: Workload,
    /// `workload.run_length`, prepared once for the per-dispatch draw.
    run_length: Sampler,
    /// `workload.latency`, prepared once for the per-fault draw.
    latency: Sampler,
    opts: SimOptions,
    rng: SmallRng,

    /// Per-thread state in struct-of-arrays layout, indexed by dense id.
    arena: ThreadArena,
    /// Per-thread unload cost (`sched.unload_cost(regs_needed)`),
    /// precomputed once — the spin sweep reads it on every probe.
    unload_cost: Vec<u64>,
    /// Resident contexts, in `NextRRM` ring order.
    ring: ReadyRing,
    /// Software queue of unloaded runnable threads (FIFO).
    supply: VecDeque<usize>,
    /// Outstanding fault completions, popped in `(wake, tid)` order.
    timers: TimerQueue,
    /// While `Some(tid)`, allocation for the queue head `tid` is known to
    /// fail until some context is deallocated; avoids charging the same
    /// failed attempt every scheduling decision.
    alloc_blocked_for: Option<usize>,

    now: u64,
    stats: SimStats,
    /// Cycle accumulators indexed by `CostBucket` discriminant — the
    /// branchless form of the per-bucket `match`; folded into the named
    /// `SimStats` fields when the run ends.
    cost: [u64; 9],
    resident_integral: u128,
    next_checkpoint: u64,
    /// Multiplier on `checkpoint_interval`, doubled at each decimation of
    /// the checkpoint reservoir.
    checkpoint_stride: u64,
    /// Last cycle at which the supply queue held a runnable thread.
    last_pressure: u64,
    /// Whether the run has begun (`RunStart` emitted). Restored engines
    /// resume with this set so the event stream continues without a second
    /// `RunStart`.
    started: bool,
    sink: S,
}

impl Engine {
    /// Creates an unobserved engine (the default [`NullSink`]).
    ///
    /// # Errors
    ///
    /// Returns a human-readable reason if the options are invalid or any
    /// thread could never fit the allocator (e.g. a 40-register thread on
    /// 32-register fixed windows).
    pub fn new(
        alloc: impl Into<AnyAllocator>,
        sched: SchedCosts,
        policy: UnloadPolicyKind,
        workload: Workload,
        opts: SimOptions,
    ) -> Result<Self, String> {
        Engine::with_sink(alloc, sched, policy, workload, opts, NullSink)
    }

    /// Rebuilds an unobserved engine from a snapshot; see
    /// [`Engine::restore_with_sink`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::restore_with_sink`].
    pub fn restore(snap: &EngineSnapshot) -> Result<Self, SnapshotError> {
        Engine::restore_with_sink(snap, NullSink)
    }
}

impl<S: EventSink> Engine<S> {
    /// Creates an engine whose state transitions stream into `sink`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Engine::new`].
    pub fn with_sink(
        alloc: impl Into<AnyAllocator>,
        sched: SchedCosts,
        policy: UnloadPolicyKind,
        workload: Workload,
        opts: SimOptions,
        sink: S,
    ) -> Result<Self, String> {
        let alloc = alloc.into();
        opts.validate()?;
        for t in &workload.threads {
            if !alloc.can_ever_fit(t.regs_needed) {
                return Err(format!(
                    "thread {} needs {} registers, which allocator `{}` can never satisfy",
                    t.id,
                    t.regs_needed,
                    alloc.strategy_name()
                ));
            }
        }
        let (run_length, latency) = samplers(&workload)?;
        let arena = ThreadArena::new(&workload.threads);
        let unload_cost =
            workload.threads.iter().map(|t| sched.unload_cost(t.regs_needed)).collect();
        let supply = (0..arena.len()).collect();
        let rng = SmallRng::seed_from_u64(workload.seed);
        let checkpoint = opts.checkpoint_interval;
        let trim = opts.transient_trim;
        Ok(Engine {
            alloc_costs: alloc.costs(),
            alloc,
            sched,
            governor: UnloadGovernor::with_capacity(policy, arena.len()),
            workload,
            run_length,
            latency,
            opts,
            rng,
            arena,
            unload_cost,
            ring: ReadyRing::new(),
            supply,
            timers: TimerQueue::new(),
            alloc_blocked_for: None,
            now: 0,
            stats: SimStats { transient_trim: trim, ..SimStats::default() },
            cost: [0; 9],
            resident_integral: 0,
            next_checkpoint: checkpoint,
            checkpoint_stride: 1,
            last_pressure: 0,
            started: false,
            sink,
        })
    }

    /// Runs to completion (or the cycle horizon) and returns the statistics.
    pub fn run(self) -> SimStats {
        self.run_with_sink().0
    }

    /// Runs like [`Engine::run`] and additionally hands back the sink, so a
    /// recording sink's event stream survives the run. The simulated
    /// statistics are identical to `run()`'s for any sink: emission never
    /// touches engine state.
    pub fn run_with_sink(mut self) -> (SimStats, S) {
        self.advance(u64::MAX);
        self.finish()
    }

    /// Advances the simulation until it is over or the clock reaches
    /// `pause_at`, whichever comes first.
    ///
    /// Returns `true` when the run is over (all threads complete or the
    /// cycle horizon hit) — call [`Engine::finish`] to collect statistics.
    /// Returns `false` when the engine paused with work remaining; the pause
    /// lands on the first scheduling boundary at or after `pause_at` (a
    /// charge can overshoot it), which is exactly a [`Engine::snapshot`]
    /// point. Calling `advance` again continues the run bit-exactly: the
    /// resumed schedule, statistics, and event stream are identical to an
    /// uninterrupted run's.
    pub fn advance(&mut self, pause_at: u64) -> bool {
        if !self.started {
            self.started = true;
            self.emit(EventKind::RunStart {
                threads: self.arena.len(),
                checkpoint_interval: self.opts.checkpoint_interval,
                checkpoint_cap: self.opts.checkpoint_cap,
                transient_trim: self.opts.transient_trim,
            });
        }
        loop {
            self.drain_events();
            if !self.supply.is_empty() {
                self.last_pressure = self.now;
            }
            if self.stats.completed_threads == self.arena.len() {
                return true;
            }
            if self.now >= self.opts.max_cycles {
                return true;
            }
            if self.now >= pause_at {
                return false;
            }
            if let Some(tid) = self.dispatch_ready() {
                self.run_thread(tid);
                continue;
            }
            match self.try_load() {
                LoadOutcome::Loaded => continue,
                LoadOutcome::NeedSpace => {
                    // Register pressure: a runnable thread is waiting and the
                    // allocator cannot serve it. With an unloading policy,
                    // spin over the blocked residents (two-phase); the spin
                    // charges advance time until an eviction or a wakeup.
                    if self.spin_sweep() {
                        continue;
                    }
                }
                LoadOutcome::NothingToLoad => {}
            }
            if !self.idle_until_next_event() {
                return true;
            }
        }
    }

    /// Finalizes a run [`Engine::advance`] reported as over: folds the cost
    /// accumulators into the named statistics fields, emits `RunEnd`, and
    /// hands back the statistics with the sink.
    pub fn finish(mut self) -> (SimStats, S) {
        let [busy, switch, spin, alloc, dealloc, load, unload, queue, idle] = self.cost;
        self.stats.busy_cycles = busy;
        self.stats.switch_cycles = switch;
        self.stats.spin_cycles = spin;
        self.stats.alloc_cycles = alloc;
        self.stats.dealloc_cycles = dealloc;
        self.stats.load_cycles = load;
        self.stats.unload_cycles = unload;
        self.stats.queue_cycles = queue;
        self.stats.idle_cycles = idle;
        self.stats.total_cycles = self.now;
        self.stats.avg_resident = if self.now == 0 {
            0.0
        } else {
            self.resident_integral as f64 / self.now as f64
        };
        // The supply only "drained" if the run actually consumed it. When the
        // cycle horizon stops a run with unstarted threads still queued, the
        // saturated phase never ended: report None so efficiency() falls back
        // to the full horizon instead of clamping to a bogus early timestamp.
        self.stats.supply_drained_at = if self.supply.is_empty() {
            Some(self.last_pressure)
        } else {
            None
        };
        self.stats.retain_efficiency_window();
        self.emit(EventKind::RunEnd {
            total_cycles: self.stats.total_cycles,
            supply_drained_at: self.stats.supply_drained_at,
        });
        (self.stats, self.sink)
    }

    /// Runs like [`Engine::run`] while timing the host-side wall clock.
    ///
    /// The simulated statistics are identical to `run()`'s; only the
    /// measurement wrapper differs, so traced and untraced runs of the same
    /// seeded configuration stay bit-identical.
    pub fn run_traced(self) -> TracedRun {
        let start = std::time::Instant::now();
        let stats = self.run();
        let wall_nanos = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        TracedRun { stats, wall_nanos }
    }

    /// The current simulation cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// The engine's event sink — lets a caller inspect events captured up
    /// to a pause without consuming the engine.
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Mutable access to the event sink, so a paused caller can drain a
    /// recording sink's compared prefix (the divergence comparator's
    /// memory bound) without consuming the engine. The engine never reads
    /// its sink, so no mutation here can perturb the simulation.
    pub fn sink_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Captures the engine's complete state at the current cycle boundary.
    ///
    /// Meaningful at construction time or wherever [`Engine::advance`]
    /// paused; the capture is pure (the engine is untouched) and total —
    /// restoring it reproduces the remaining run bit-exactly, including the
    /// RNG stream, timer pop order, ready-ring rotation, and every
    /// statistics accumulator.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            schema_version: SNAPSHOT_SCHEMA_VERSION,
            code_version: crate::CODE_VERSION,
            alloc: self.alloc.clone(),
            sched: self.sched,
            governor: self.governor.clone(),
            workload: self.workload.clone(),
            opts: self.opts.clone(),
            rng: self.rng.to_state(),
            arena: self.arena.clone(),
            unload_cost: self.unload_cost.clone(),
            ring: self.ring.clone(),
            supply: self.supply.iter().copied().collect(),
            timers: self.timers.entries(),
            alloc_blocked_for: self.alloc_blocked_for,
            now: self.now,
            stats: self.stats.clone(),
            cost: self.cost,
            resident_integral_hi: (self.resident_integral >> 64) as u64,
            resident_integral_lo: self.resident_integral as u64,
            next_checkpoint: self.next_checkpoint,
            checkpoint_stride: self.checkpoint_stride,
            last_pressure: self.last_pressure,
            started: self.started,
        }
    }

    /// Rebuilds an engine from a snapshot so that [`Engine::advance`] picks
    /// up exactly where the captured engine paused.
    ///
    /// The sink starts fresh: events emitted before the snapshot live with
    /// whoever captured them, and the resumed stream continues from the
    /// pause point (no duplicate `RunStart`), so pre-pause and post-resume
    /// events concatenate into the uninterrupted run's stream.
    ///
    /// # Errors
    ///
    /// [`SnapshotError::SchemaMismatch`]/[`SnapshotError::CodeMismatch`]
    /// when the snapshot comes from a different format or simulator
    /// revision, [`SnapshotError::Invalid`] when its state is internally
    /// inconsistent (truncated arrays, timers waking in the past, options
    /// that no longer validate). Callers degrade to recompute-from-zero.
    pub fn restore_with_sink(snap: &EngineSnapshot, sink: S) -> Result<Self, SnapshotError> {
        snap.check_versions()?;
        snap.validate().map_err(SnapshotError::Invalid)?;
        let (run_length, latency) = samplers(&snap.workload).map_err(SnapshotError::Invalid)?;
        let timers =
            TimerQueue::from_entries(snap.now, &snap.timers).map_err(SnapshotError::Invalid)?;
        Ok(Engine {
            alloc_costs: snap.alloc.costs(),
            alloc: snap.alloc.clone(),
            sched: snap.sched,
            governor: snap.governor.clone(),
            workload: snap.workload.clone(),
            run_length,
            latency,
            opts: snap.opts.clone(),
            rng: SmallRng::from_state(snap.rng),
            arena: snap.arena.clone(),
            unload_cost: snap.unload_cost.clone(),
            ring: snap.ring.clone(),
            supply: snap.supply.iter().copied().collect(),
            timers,
            alloc_blocked_for: snap.alloc_blocked_for,
            now: snap.now,
            stats: snap.stats.clone(),
            cost: snap.cost,
            resident_integral: (u128::from(snap.resident_integral_hi) << 64)
                | u128::from(snap.resident_integral_lo),
            next_checkpoint: snap.next_checkpoint,
            checkpoint_stride: snap.checkpoint_stride,
            last_pressure: snap.last_pressure,
            started: snap.started,
            sink,
        })
    }

    /// Emits a cycle-stamped event when the sink is listening. The whole
    /// call — including construction of `kind` at every call site, which is
    /// guarded by the same `enabled()` test — folds away for [`NullSink`].
    fn emit(&mut self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(Event { cycle: self.now, kind });
        }
    }

    /// Charges `dt` cycles to `bucket` on behalf of `who`, advancing time
    /// and bookkeeping. The emitted charge is stamped at the *pre-charge*
    /// cycle and carries the pre-charge residency (exactly what the
    /// resident integral accrues), making the stream fully self-accounting:
    /// consecutive charges tile the timeline with no gaps or overlaps.
    fn spend(&mut self, dt: u64, bucket: CostBucket, who: Option<usize>) {
        if dt == 0 {
            return;
        }
        if self.sink.enabled() {
            let kind = EventKind::Charge {
                bucket,
                cycles: dt,
                resident: self.ring.len(),
                thread: who,
            };
            self.sink.emit(Event { cycle: self.now, kind });
        }
        self.now += dt;
        self.resident_integral += self.ring.len() as u128 * u128::from(dt);
        // Branchless: `CostBucket`'s discriminants are its `SimStats`
        // declaration order, so the bucket is the index.
        self.cost[bucket as usize] += dt;
        while self.now >= self.next_checkpoint {
            self.stats.checkpoints.push((self.now, self.cost[CostBucket::Busy as usize]));
            self.next_checkpoint += self.opts.checkpoint_interval * self.checkpoint_stride;
            if self.stats.checkpoints.len() >= self.opts.checkpoint_cap {
                decimate_checkpoints(&mut self.stats.checkpoints);
                self.checkpoint_stride *= 2;
            }
        }
    }

    /// Applies every fault completion that has come due.
    fn drain_events(&mut self) {
        while let Some((_, tid)) = self.timers.pop_due(self.now) {
            match self.arena.phase[tid] {
                Phase::ResidentBlocked { wake: w } if w <= self.now => {
                    self.arena.phase[tid] = Phase::ResidentReady;
                    self.governor.clear(tid);
                    self.emit(EventKind::ThreadResume { thread: tid });
                }
                Phase::BlockedUnloaded { wake: w } if w <= self.now => {
                    self.arena.phase[tid] = Phase::ReadyUnloaded;
                    self.supply.push_back(tid);
                    self.emit(EventKind::ThreadRequeue { thread: tid });
                }
                // Stale event (the thread was unloaded and re-queued, or
                // already handled); each fault pushes exactly one event, so
                // mismatches are ignorable.
                _ => {}
            }
        }
    }

    /// Finds and switches to the next runnable resident context in
    /// `NextRRM` ring order, for a single context-switch charge `S`.
    ///
    /// `S` already differs between the experiment families (6 for cache, 8
    /// for synchronization — the extra two cycles covering the unloading
    /// policy's bookkeeping), so dispatch itself is charged identically.
    fn dispatch_ready(&mut self) -> Option<usize> {
        let now = self.now;
        let arena = &self.arena;
        let (hops, tid) =
            self.ring.sweep().enumerate().find(|&(_, t)| arena.is_ready_at(t, now))?;
        self.ring.focus_in_sweep(hops);
        self.emit(EventKind::SwitchTo { thread: tid, hops });
        self.spend(u64::from(self.sched.context_switch), CostBucket::Switch, Some(tid));
        self.arena.phase[tid] = Phase::ResidentReady;
        self.governor.clear(tid);
        Some(tid)
    }

    /// One spinning pass over the blocked residents, made only under
    /// register pressure: each visit is a failed resume attempt costing `S`,
    /// feeding the two-phase competitive policy. Stops early when a context
    /// turns out to have woken (the next loop iteration dispatches it) or
    /// when the policy evicts one (the next iteration retries allocation).
    ///
    /// Returns whether progress is possible without idling (always true for
    /// a non-`Never` policy with blocked residents; spinning itself advances
    /// time, so the loop converges).
    fn spin_sweep(&mut self) -> bool {
        if self.governor.kind() == UnloadPolicyKind::Never {
            return false;
        }
        let n = self.ring.len();
        if n == 0 {
            return false;
        }
        let s = u64::from(self.sched.context_switch);
        // Walk the sweep by index: the ring only mutates on unload, which
        // returns immediately, so positions stay valid — and the walk
        // allocates nothing.
        for i in 0..n {
            let tid = self.ring.nth_in_sweep(i);
            if self.arena.is_ready_at(tid, self.now) {
                return true; // a wakeup beat the sweep; dispatch it instead
            }
            self.spend(s, CostBucket::Spin, Some(tid));
            let unload_cost = self.unload_cost[tid];
            let decision = self.governor.failed_attempt(tid, s, unload_cost);
            if self.sink.enabled() {
                let accumulated = self.governor.accumulated(tid);
                let budget = self.governor.spin_budget(unload_cost).unwrap_or(0);
                self.emit(EventKind::SpinStep { thread: tid, accumulated, budget });
            }
            if decision == UnloadDecision::Unload {
                self.unload(tid);
                return true;
            }
        }
        true
    }

    /// Unloads a blocked resident context, freeing its registers.
    fn unload(&mut self, tid: usize) {
        let regs = self.arena.regs_needed[tid];
        self.spend(self.unload_cost[tid], CostBucket::Unload, Some(tid));
        self.spend(u64::from(self.sched.queue_op), CostBucket::Queue, Some(tid));
        self.spend(u64::from(self.alloc_costs.dealloc), CostBucket::Dealloc, Some(tid));
        let ctx = self.arena.ctx[tid].take().expect("resident thread has a context");
        let base = ctx.base();
        self.alloc.dealloc(ctx).expect("live context deallocates");
        self.alloc_blocked_for = None;
        self.ring.remove(tid);
        self.governor.clear(tid);
        self.stats.unloads += 1;
        self.emit(EventKind::ContextUnload { thread: tid, regs, base, resident: self.ring.len() });
        let wake = match self.arena.phase[tid] {
            Phase::ResidentBlocked { wake } => wake,
            other => unreachable!("unloading a non-blocked context: {other:?}"),
        };
        if wake <= self.now {
            self.arena.phase[tid] = Phase::ReadyUnloaded;
            self.supply.push_back(tid);
            self.emit(EventKind::ThreadRequeue { thread: tid });
        } else {
            self.arena.phase[tid] = Phase::BlockedUnloaded { wake };
        }
    }

    /// Tries to allocate and load the thread at the head of the software
    /// queue.
    ///
    /// Loading is *lazy*: it happens only when no resident context is ready,
    /// as in a runtime whose idle/scheduler loop admits new threads. A
    /// saturated rotation therefore never grows its resident set — harmless
    /// for throughput (saturation efficiency is independent of N) but worth
    /// knowing when interpreting `avg_resident` on saturated workloads.
    fn try_load(&mut self) -> LoadOutcome {
        let Some(&tid) = self.supply.front() else {
            return LoadOutcome::NothingToLoad;
        };
        if let Some(limit) = self.opts.resident_limit {
            if self.ring.len() >= limit {
                return LoadOutcome::NeedSpace;
            }
        }
        // A failed allocation for this head thread cannot start succeeding
        // until some context is deallocated; don't re-charge the attempt.
        if self.alloc_blocked_for == Some(tid) {
            return LoadOutcome::NeedSpace;
        }
        let regs = self.arena.regs_needed[tid];
        let costs = self.alloc_costs;
        match self.alloc.alloc(regs) {
            Some(ctx) => {
                let first_time = matches!(self.arena.phase[tid], Phase::Unstarted);
                let base = ctx.base();
                self.emit(EventKind::AllocSuccess { thread: tid, regs });
                self.spend(u64::from(costs.alloc_success), CostBucket::Alloc, Some(tid));
                self.spend(u64::from(self.sched.queue_op), CostBucket::Queue, Some(tid));
                self.spend(self.sched.load_cost(regs), CostBucket::Load, Some(tid));
                self.supply.pop_front();
                self.arena.ctx[tid] = Some(ctx);
                self.arena.phase[tid] = Phase::ResidentReady;
                self.ring.insert(tid);
                self.stats.allocs += 1;
                self.stats.loads += 1;
                self.stats.max_resident = self.stats.max_resident.max(self.ring.len());
                if first_time {
                    self.emit(EventKind::ThreadSpawn { thread: tid });
                }
                self.emit(EventKind::ContextLoad {
                    thread: tid,
                    regs,
                    base,
                    resident: self.ring.len(),
                });
                LoadOutcome::Loaded
            }
            None => {
                self.emit(EventKind::AllocFailure { thread: tid, regs });
                self.spend(u64::from(costs.alloc_failure), CostBucket::Alloc, Some(tid));
                self.stats.alloc_failures += 1;
                self.alloc_blocked_for = Some(tid);
                LoadOutcome::NeedSpace
            }
        }
    }

    /// Runs the dispatched thread until its next fault or completion.
    fn run_thread(&mut self, tid: usize) {
        let mut run = self.run_length.sample(&mut self.rng);
        if let Some(intf) = self.opts.interference {
            run = intf.scale_run(run, self.ring.len());
        }
        let run = run.min(self.arena.remaining[tid]);
        self.spend(run, CostBucket::Busy, Some(tid));
        self.arena.remaining[tid] -= run;
        if self.arena.remaining[tid] == 0 {
            self.complete(tid);
        } else {
            let latency = self.latency.sample(&mut self.rng);
            let wake = self.now + latency;
            self.arena.phase[tid] = Phase::ResidentBlocked { wake };
            self.timers.push(wake, tid);
            self.stats.faults += 1;
            self.emit(EventKind::Fault { thread: tid, latency, wake });
        }
    }

    /// Retires a completed thread, freeing its context.
    fn complete(&mut self, tid: usize) {
        self.spend(u64::from(self.alloc_costs.dealloc), CostBucket::Dealloc, Some(tid));
        let ctx = self.arena.ctx[tid].take().expect("running thread has a context");
        self.alloc.dealloc(ctx).expect("live context deallocates");
        self.alloc_blocked_for = None;
        self.ring.remove(tid);
        self.governor.clear(tid);
        self.arena.phase[tid] = Phase::Done;
        self.stats.completed_threads += 1;
        self.stats.completions.push((tid, self.now));
        self.emit(EventKind::ThreadComplete { thread: tid });
    }

    /// Advances time to the next fault completion. Returns `false` when no
    /// event is pending (which, given the loop's invariants, means all
    /// remaining work is unreachable — it cannot happen on a valid setup).
    fn idle_until_next_event(&mut self) -> bool {
        match self.timers.next_wake() {
            Some(wake) if wake > self.now => {
                let dt = wake - self.now;
                self.emit(EventKind::IdleStart { until: wake });
                self.spend(dt, CostBucket::Idle, None);
                self.emit(EventKind::IdleEnd);
                true
            }
            Some(_) => true, // due event; the next drain applies it
            None => false,
        }
    }
}

/// The workload's run-length and latency distributions, prepared for the
/// engine's per-dispatch and per-fault draws.
fn samplers(workload: &Workload) -> Result<(Sampler, Sampler), String> {
    let run_length =
        Sampler::new(workload.run_length).map_err(|why| format!("run length: {why}"))?;
    let latency = Sampler::new(workload.latency).map_err(|why| format!("latency: {why}"))?;
    Ok((run_length, latency))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_alloc::{BitmapAllocator, FixedSlots};
    use rr_workload::{ContextSizeDist, Dist, WorkloadBuilder};

    fn flexible(file: u32) -> AnyAllocator {
        BitmapAllocator::new(file).unwrap().into()
    }

    fn fixed(file: u32) -> AnyAllocator {
        FixedSlots::new(file).unwrap().into()
    }

    fn cache_engine(
        alloc: AnyAllocator,
        threads: usize,
        r: f64,
        l: u64,
        work: u64,
    ) -> Engine {
        let w = WorkloadBuilder::new()
            .threads(threads)
            .run_length(Dist::Geometric { mean: r })
            .latency(Dist::Constant(l))
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(work)
            .seed(42)
            .build()
            .unwrap();
        Engine::new(
            alloc,
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            SimOptions::cache_experiments(),
        )
        .unwrap()
    }

    #[test]
    fn completes_all_threads_and_accounts_every_cycle() {
        let stats = cache_engine(flexible(128), 16, 16.0, 100, 5_000).run();
        assert_eq!(stats.completed_threads, 16);
        assert_eq!(stats.accounted_cycles(), stats.total_cycles);
        assert_eq!(stats.busy_cycles, 16 * 5_000);
        assert!(stats.efficiency() > 0.0 && stats.efficiency() <= 1.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = cache_engine(flexible(128), 8, 16.0, 100, 5_000).run();
        let b = cache_engine(flexible(128), 8, 16.0, 100, 5_000).run();
        assert_eq!(a, b);
    }

    #[test]
    fn traced_run_matches_untraced() {
        let plain = cache_engine(fixed(128), 8, 16.0, 100, 5_000).run();
        let traced = cache_engine(fixed(128), 8, 16.0, 100, 5_000).run_traced();
        assert_eq!(traced.stats, plain);
    }

    #[test]
    fn engine_is_send() {
        // The sweep runner moves whole engines (boxed allocator included)
        // onto worker threads; keep that property explicit.
        fn assert_send<T: Send>(_: &T) {}
        let e = cache_engine(flexible(128), 4, 16.0, 100, 1_000);
        assert_send(&e);
    }

    #[test]
    fn single_thread_efficiency_matches_analytics() {
        // One thread, deterministic run length: steady-state cycle is
        // S + R + (L - R... ) — precisely: switch 6, run 100, then idle
        // until wake at fault+100: the fault latency overlaps nothing, so
        // period = S + R + L and efficiency = R / (R + S + L).
        let w = WorkloadBuilder::new()
            .threads(1)
            .run_length(Dist::Constant(100))
            .latency(Dist::Constant(50))
            .context_size(ContextSizeDist::Fixed(8))
            .work_per_thread(200_000)
            .seed(1)
            .build()
            .unwrap();
        let stats = Engine::new(
            flexible(128),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            SimOptions::cache_experiments(),
        )
        .unwrap()
        .run();
        let expected = 100.0 / (100.0 + 6.0 + 50.0);
        assert!(
            (stats.efficiency() - expected).abs() < 0.01,
            "got {}, expected {expected}",
            stats.efficiency()
        );
    }

    #[test]
    fn saturated_processor_efficiency_is_r_over_r_plus_s() {
        // Plenty of contexts: latency fully hidden, E_sat = R/(R+S).
        let w = WorkloadBuilder::new()
            .threads(12)
            .run_length(Dist::Constant(100))
            .latency(Dist::Constant(50))
            .context_size(ContextSizeDist::Fixed(8))
            .work_per_thread(100_000)
            .seed(1)
            .build()
            .unwrap();
        let stats = Engine::new(
            flexible(128),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            SimOptions::cache_experiments(),
        )
        .unwrap()
        .run();
        let expected = 100.0 / 106.0;
        assert!(
            (stats.efficiency() - expected).abs() < 0.02,
            "got {}, expected {expected}",
            stats.efficiency()
        );
    }

    #[test]
    fn flexible_keeps_more_contexts_resident_than_fixed() {
        // C = 8 on a 128-register file: fixed fits 4 windows, register
        // relocation fits 16 contexts.
        let mk = |alloc: AnyAllocator| {
            let w = WorkloadBuilder::new()
                .threads(32)
                .run_length(Dist::Geometric { mean: 16.0 })
                .latency(Dist::Constant(200))
                .context_size(ContextSizeDist::Fixed(8))
                .work_per_thread(10_000)
                .seed(3)
                .build()
                .unwrap();
            Engine::new(
                alloc,
                SchedCosts::cache_experiments(),
                UnloadPolicyKind::Never,
                w,
                SimOptions::cache_experiments(),
            )
            .unwrap()
            .run()
        };
        let flex = mk(flexible(128));
        let fix = mk(fixed(128));
        assert_eq!(fix.max_resident, 4);
        assert_eq!(flex.max_resident, 16);
        assert!(
            flex.efficiency() > fix.efficiency() * 1.5,
            "flex {} vs fixed {}",
            flex.efficiency(),
            fix.efficiency()
        );
    }

    #[test]
    fn completions_are_recorded_and_spread_fairly() {
        let stats = cache_engine(flexible(128), 16, 16.0, 100, 5_000).run();
        assert_eq!(stats.completions.len(), 16);
        let mut tids: Vec<usize> = stats.completions.iter().map(|&(t, _)| t).collect();
        tids.sort_unstable();
        assert_eq!(tids, (0..16).collect::<Vec<_>>(), "each thread completes once");
        // Cycles are nondecreasing in completion order and end the run.
        let cycles: Vec<u64> = stats.completions.iter().map(|&(_, c)| c).collect();
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cycles.last().unwrap(), stats.total_cycles);
        // Round-robin with equal work: concurrent threads finish within a
        // couple of scheduling quanta of each other. With 16 threads on a
        // file holding ~6 contexts, the first wave completes well before
        // the last.
        assert!(cycles[0] < cycles[15]);
    }

    #[test]
    fn never_policy_never_unloads() {
        let stats = cache_engine(flexible(64), 32, 8.0, 500, 2_000).run();
        assert_eq!(stats.unloads, 0);
    }

    #[test]
    fn two_phase_unloads_under_pressure() {
        // Small file, long exponential waits, short runs: the two-phase
        // policy must recycle registers.
        let w = WorkloadBuilder::new()
            .threads(32)
            .run_length(Dist::Geometric { mean: 32.0 })
            .latency(Dist::Exponential { mean: 2000.0 })
            .context_size(ContextSizeDist::PAPER_UNIFORM)
            .work_per_thread(5_000)
            .seed(5)
            .build()
            .unwrap();
        let stats = Engine::new(
            flexible(64),
            SchedCosts::sync_experiments(),
            UnloadPolicyKind::two_phase(),
            w,
            SimOptions::sync_experiments(),
        )
        .unwrap()
        .run();
        assert!(stats.unloads > 0, "expected unloads, got {stats:?}");
        assert!(stats.spin_cycles > 0);
        assert_eq!(stats.completed_threads, 32);
        assert_eq!(stats.accounted_cycles(), stats.total_cycles);
    }

    #[test]
    fn resident_limit_is_respected() {
        let w = WorkloadBuilder::new()
            .threads(16)
            .context_size(ContextSizeDist::Fixed(8))
            .work_per_thread(5_000)
            .seed(2)
            .build()
            .unwrap();
        let opts = SimOptions { resident_limit: Some(3), ..SimOptions::cache_experiments() };
        let stats = Engine::new(
            flexible(128),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            opts,
        )
        .unwrap()
        .run();
        assert!(stats.max_resident <= 3);
        assert_eq!(stats.completed_threads, 16);
    }

    #[test]
    fn cycle_horizon_stops_the_run() {
        let w = WorkloadBuilder::new()
            .threads(4)
            .work_per_thread(1_000_000)
            .seed(2)
            .build()
            .unwrap();
        let opts = SimOptions { max_cycles: 10_000, ..SimOptions::cache_experiments() };
        let stats = Engine::new(
            flexible(128),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            opts,
        )
        .unwrap()
        .run();
        assert!(stats.completed_threads < 4);
        assert!(stats.total_cycles >= 10_000);
        assert!(stats.total_cycles < 20_000, "should stop promptly");
    }

    #[test]
    fn horizon_stop_with_queued_supply_reports_no_drain() {
        // 64 threads with 1M cycles of work each cannot all start within a
        // 10k-cycle horizon on a 64-register file: the supply queue is still
        // populated when the run stops. supply_drained_at must then be None
        // (the saturated phase never ended), so efficiency() measures up to
        // the horizon instead of clamping at a meaningless early timestamp.
        let w = WorkloadBuilder::new()
            .threads(64)
            .work_per_thread(1_000_000)
            .seed(2)
            .build()
            .unwrap();
        let opts = SimOptions { max_cycles: 10_000, ..SimOptions::cache_experiments() };
        let stats = Engine::new(
            flexible(64),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            opts,
        )
        .unwrap()
        .run();
        assert!(stats.completed_threads < 64);
        assert_eq!(stats.supply_drained_at, None);
        // And a run that does consume its whole supply still reports the
        // drain point.
        let done = cache_engine(flexible(128), 4, 16.0, 100, 500).run();
        assert_eq!(done.completed_threads, 4);
        assert!(done.supply_drained_at.is_some());
        assert!(done.supply_drained_at.unwrap() <= done.total_cycles);
    }

    #[test]
    fn oversized_threads_are_rejected_at_construction() {
        let w = WorkloadBuilder::new()
            .threads(2)
            .context_size(ContextSizeDist::Fixed(40))
            .build()
            .unwrap();
        let err = Engine::new(
            fixed(128),
            SchedCosts::cache_experiments(),
            UnloadPolicyKind::Never,
            w,
            SimOptions::default(),
        )
        .err()
        .unwrap();
        assert!(err.contains("never satisfy"), "{err}");
    }

    #[test]
    fn interference_reduces_efficiency() {
        let mk = |alpha: Option<f64>| {
            let w = WorkloadBuilder::new()
                .threads(32)
                .run_length(Dist::Geometric { mean: 64.0 })
                .latency(Dist::Constant(100))
                .context_size(ContextSizeDist::Fixed(8))
                .work_per_thread(20_000)
                .seed(4)
                .build()
                .unwrap();
            let opts = SimOptions {
                interference: alpha
                    .map(|a| crate::interference::InterferenceModel::new(a).unwrap()),
                ..SimOptions::cache_experiments()
            };
            Engine::new(
                flexible(128),
                SchedCosts::cache_experiments(),
                UnloadPolicyKind::Never,
                w,
                opts,
            )
            .unwrap()
            .run()
        };
        let clean = mk(None);
        let noisy = mk(Some(0.3));
        assert!(
            noisy.efficiency() < clean.efficiency(),
            "interference should hurt: {} vs {}",
            noisy.efficiency(),
            clean.efficiency()
        );
    }
}
