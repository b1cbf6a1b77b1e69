//! Cycle-stamped event stream: the observability substrate.
//!
//! The simulator's [`SimStats`](../../rr_sim/stats/struct.SimStats.html)
//! buckets answer *how much*; they cannot answer *when* or *why* — why the
//! 17-register cliff bites, when the ready ring starts spinning, how
//! residency decays during drain. This module defines a typed, cycle-stamped
//! event vocabulary shared by the discrete-event simulator and the
//! machine-level [`Executive`](crate::Executive): every state transition
//! (fault taken, switch, alloc success/failure, context load/unload, spin
//! step, idle entry/exit, thread spawn/resume/complete) emits one [`Event`]
//! into an [`EventSink`].
//!
//! Two properties make the stream more than a debug log:
//!
//! 1. **Self-accounting.** Every [`EventKind::Charge`] carries its bucket,
//!    duration, and the resident-context count at charge time, and charges
//!    are emitted *contiguously* — each one's stamp equals the previous
//!    one's stamp plus its duration. A consumer can therefore re-derive the
//!    entire `SimStats` record (the `rr_sim` `EventAccountant` does exactly
//!    this and asserts equality), turning the per-run invariant
//!    `accounted_cycles == total_cycles` into a per-event check.
//! 2. **Zero cost when off.** [`EventSink::enabled`] is a plain method so
//!    the trait stays object-safe (the machine-level executive holds its
//!    sink generically too, but boxed consumers remain possible); when the
//!    engine is monomorphized over [`NullSink`] — the default — `enabled()`
//!    is a constant `false` and every emission site compiles away, keeping
//!    cold sweeps byte- and wall-clock-identical to an unobserved build.

use serde::{Deserialize, Serialize};

/// Which accounting bucket a cycle charge lands in. Mirrors the `SimStats`
/// cycle buckets one-to-one; every simulated cycle is charged to exactly one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostBucket {
    /// Useful work (the numerator of efficiency).
    Busy,
    /// Successful context-switch charges (`S` per dispatch).
    Switch,
    /// Failed resume attempts during ring walks (`S` each).
    Spin,
    /// Context allocation charges, successful and failed.
    Alloc,
    /// Context deallocation charges.
    Dealloc,
    /// Context load charges (registers used + blocking overhead).
    Load,
    /// Context unload charges.
    Unload,
    /// Thread queue insert/remove charges.
    Queue,
    /// Cycles with nothing to run.
    Idle,
}

impl CostBucket {
    /// Every bucket, in `SimStats` declaration order.
    pub const ALL: [CostBucket; 9] = [
        CostBucket::Busy,
        CostBucket::Switch,
        CostBucket::Spin,
        CostBucket::Alloc,
        CostBucket::Dealloc,
        CostBucket::Load,
        CostBucket::Unload,
        CostBucket::Queue,
        CostBucket::Idle,
    ];

    /// Lower-case label, used for trace-track slice names.
    pub fn label(&self) -> &'static str {
        match self {
            CostBucket::Busy => "run",
            CostBucket::Switch => "switch",
            CostBucket::Spin => "spin",
            CostBucket::Alloc => "alloc",
            CostBucket::Dealloc => "dealloc",
            CostBucket::Load => "load",
            CostBucket::Unload => "unload",
            CostBucket::Queue => "queue",
            CostBucket::Idle => "idle",
        }
    }
}

/// Which machine-resident OS routine an [`EventKind::OsCall`] ran. Emitted
/// by the [`Executive`](crate::Executive), whose cycle charges come from
/// actually executing the routines' assembly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OsRoutine {
    /// `alloc_init`: building the allocator's bitmap state at boot.
    AllocInit,
    /// `context_alloc_16/64`: the Appendix A allocation search.
    Alloc,
    /// `context_dealloc`: returning a context's chunks to the bitmap.
    Dealloc,
    /// `load_k`: pulling a thread image into its context.
    Load,
    /// `unload_k`: spilling a context to its save area.
    Unload,
}

/// What happened. Thread identifiers are simulator/executive thread ids;
/// `resident` counts are taken at the instant described by the variant's
/// documentation, so consumers can reconstruct residency exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum EventKind {
    /// First event of a run: the constants a consumer needs to replay the
    /// engine's derived bookkeeping (checkpoint cadence and decimation cap,
    /// transient trim).
    RunStart {
        /// Threads in the workload supply.
        threads: usize,
        /// Cycle spacing of efficiency checkpoints.
        checkpoint_interval: u64,
        /// Checkpoint count at which the decimating reservoir halves.
        checkpoint_cap: usize,
        /// Fraction trimmed from each end for steady-state efficiency.
        transient_trim: f64,
    },
    /// `cycles` charged to `bucket`, starting at this event's stamp.
    /// Charges are contiguous: stamp = previous charge's stamp + duration.
    /// `resident` is the ring occupancy *before* the charge (the value the
    /// engine integrates for `avg_resident`).
    Charge {
        /// Accounting bucket.
        bucket: CostBucket,
        /// Duration in cycles.
        cycles: u64,
        /// Resident contexts while the charge elapsed.
        resident: usize,
        /// The thread the charge is attributable to, if any (idle and other
        /// global charges carry `None`).
        thread: Option<usize>,
    },
    /// The scheduler dispatched `thread`, `hops` positions along the ready
    /// ring from the previous focus (0 = the very next context).
    SwitchTo {
        /// Dispatched thread.
        thread: usize,
        /// Ring positions tested before this one matched.
        hops: usize,
    },
    /// `thread` became resident for the first time (its first context load).
    ThreadSpawn {
        /// The spawned thread.
        thread: usize,
    },
    /// Running `thread` took a long-latency fault; it wakes at `wake`.
    Fault {
        /// Faulting thread.
        thread: usize,
        /// Sampled fault latency in cycles.
        latency: u64,
        /// Absolute cycle at which the fault completes.
        wake: u64,
    },
    /// A resident blocked `thread`'s fault completed; it is runnable again.
    ThreadResume {
        /// The woken thread.
        thread: usize,
    },
    /// An unloaded blocked `thread`'s fault completed; it rejoined the
    /// software ready queue.
    ThreadRequeue {
        /// The re-queued thread.
        thread: usize,
    },
    /// The allocator served a `regs`-register request for `thread`.
    AllocSuccess {
        /// Requesting thread.
        thread: usize,
        /// Registers requested.
        regs: u32,
    },
    /// The allocator could not serve a `regs`-register request for `thread`.
    AllocFailure {
        /// Requesting thread.
        thread: usize,
        /// Registers requested.
        regs: u32,
    },
    /// `thread`'s registers were loaded into the context at `base`;
    /// `resident` is the ring occupancy *after* the load.
    ContextLoad {
        /// Loaded thread.
        thread: usize,
        /// Registers the thread uses.
        regs: u32,
        /// Context base register.
        base: u16,
        /// Resident contexts including this one.
        resident: usize,
    },
    /// `thread`'s context at `base` was unloaded (policy eviction);
    /// `resident` is the ring occupancy *after* the unload.
    ContextUnload {
        /// Evicted thread.
        thread: usize,
        /// Registers the thread uses.
        regs: u32,
        /// Context base register.
        base: u16,
        /// Resident contexts left behind.
        resident: usize,
    },
    /// A failed resume attempt against blocked `thread` fed the unloading
    /// policy: `accumulated` wasted cycles so far against a spin budget of
    /// `budget` (0 when the policy has none).
    SpinStep {
        /// The still-blocked thread.
        thread: usize,
        /// Accumulated failed-attempt cost.
        accumulated: u64,
        /// The policy's spin budget against this thread's unload cost.
        budget: u64,
    },
    /// The processor has nothing runnable and idles until `until`.
    IdleStart {
        /// Absolute cycle of the next fault completion.
        until: u64,
    },
    /// The idle period ended (stamped at the wake cycle).
    IdleEnd,
    /// `thread` ran to completion and its context was freed.
    ThreadComplete {
        /// The finished thread.
        thread: usize,
    },
    /// The executive ran a machine-resident OS routine for `cycles` machine
    /// cycles (measured by execution, not charged from a table).
    OsCall {
        /// Which routine ran.
        routine: OsRoutine,
        /// Machine cycles it took.
        cycles: u64,
    },
    /// Last event of a run: the final totals a consumer cross-checks its
    /// derived accounting against.
    RunEnd {
        /// Total simulated cycles.
        total_cycles: u64,
        /// Last cycle at which the thread supply held work, if it drained.
        supply_drained_at: Option<u64>,
    },
}

/// One cycle-stamped event.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Event {
    /// Absolute cycle at which the event was emitted.
    pub cycle: u64,
    /// What happened.
    pub kind: EventKind,
}

/// A consumer of the event stream.
///
/// The contract: `emit` is called only while `enabled()` returns `true`
/// (producers guard every emission site), events arrive in emission order,
/// and stamps are nondecreasing. Implementations must not assume they see
/// every run from `RunStart` — the executive, for example, emits OS events
/// without a simulator run around them.
pub trait EventSink {
    /// Whether this sink wants events at all. Producers skip event
    /// *construction* when this is `false`, so a monomorphized disabled
    /// sink costs nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Consumes one event.
    fn emit(&mut self, event: Event);
}

/// The default sink: drops everything, reports itself disabled.
///
/// Engines monomorphized over `NullSink` (the default type parameter)
/// compile every emission site away — `enabled()` is a constant `false` —
/// so a default run is instruction-for-instruction the unobserved build.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullSink;

impl EventSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn emit(&mut self, _event: Event) {}
}

/// Collects events into a plain vector. Meant for *bounded* buffers — the
/// divergence comparator's lockstep window, short test streams; a whole run
/// belongs in an [`EventLog`](crate::EventLog), which holds the same events
/// in a tenth of the memory.
impl EventSink for Vec<Event> {
    fn emit(&mut self, event: Event) {
        self.push(event);
    }
}

/// Counts events without retaining them — the cheapest enabled sink, used
/// to measure emission overhead in isolation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Events seen.
    pub count: u64,
}

impl EventSink for CountingSink {
    fn emit(&mut self, _event: Event) {
        self.count += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_sink_is_disabled_and_inert() {
        let mut s = NullSink;
        assert!(!s.enabled());
        s.emit(Event { cycle: 0, kind: EventKind::IdleEnd });
    }

    #[test]
    fn vec_sink_keeps_order() {
        let mut s: Vec<Event> = Vec::new();
        assert!(s.enabled());
        for c in 0..3 {
            s.emit(Event { cycle: c, kind: EventKind::ThreadSpawn { thread: c as usize } });
        }
        let cycles: Vec<u64> = s.iter().map(|e| e.cycle).collect();
        assert_eq!(cycles, vec![0, 1, 2]);
    }

    #[test]
    fn counting_sink_counts() {
        let mut s = CountingSink::default();
        for _ in 0..5 {
            s.emit(Event { cycle: 9, kind: EventKind::IdleEnd });
        }
        assert_eq!(s.count, 5);
    }

    #[test]
    fn sink_trait_is_object_safe() {
        // The executive may hold a boxed sink; keep that possible.
        let mut boxed: Box<dyn EventSink> = Box::new(Vec::<Event>::new());
        assert!(boxed.enabled());
        boxed.emit(Event { cycle: 1, kind: EventKind::IdleEnd });
    }

    #[test]
    fn events_serialize_and_round_trip() {
        let e = Event {
            cycle: 42,
            kind: EventKind::Charge {
                bucket: CostBucket::Busy,
                cycles: 7,
                resident: 3,
                thread: Some(1),
            },
        };
        let json = serde_json::to_string(&e).unwrap();
        let back: Event = serde_json::from_str(&json).unwrap();
        assert_eq!(back, e);
        let none = Event {
            cycle: 0,
            kind: EventKind::Charge {
                bucket: CostBucket::Idle,
                cycles: 1,
                resident: 0,
                thread: None,
            },
        };
        let back: Event = serde_json::from_str(&serde_json::to_string(&none).unwrap()).unwrap();
        assert_eq!(back, none);
    }

    #[test]
    fn bucket_labels_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for b in CostBucket::ALL {
            assert!(seen.insert(b.label()), "duplicate label {}", b.label());
        }
        assert_eq!(seen.len(), 9);
    }
}
