//! A complete software multithreading executive running on the ISA machine.
//!
//! [`Executive`] packages every runtime artifact in this crate into one
//! working system: threads are *spawned* by executing the Appendix A
//! allocator assembly, *loaded* through the §2.5 multi-entry load routine,
//! scheduled around the Figure 3 `NextRRM` ring, and *retired* through the
//! unload and deallocation routines — all on the cycle-level
//! [`rr_machine::Machine`], so every operation costs real measured cycles.
//!
//! The host (this Rust code) plays the role of the operating system's
//! privileged layer: it owns thread control blocks, patches `NextRRM` links
//! when ring membership changes, and calls into the machine-resident
//! routines. The scheduler's working registers live in an OS-reserved block
//! (absolute registers 0..32, claimed at boot), mirroring the paper's nod to
//! MIPS registers "reserved for the operating system".
//!
//! # Memory layout
//!
//! | words | contents |
//! |---|---|
//! | 0 | `halt` (return target for OS calls) |
//! | 8.. | the Figure 3 `yield` routine |
//! | 64.. | allocator runtime (`alloc_init`, `context_alloc_16/64`, dealloc) |
//! | 192.. | loader (`load_k` / `unload_k` entry points) |
//! | 768.. | thread body code |
//! | 4096.. | per-thread save areas (64 words each) |

use serde::{Deserialize, Serialize};

use crate::alloc_asm::allocator_program;
use crate::events::{Event, EventKind, EventSink, NullSink, OsRoutine};
use crate::loader_asm::loader_program;
use crate::switch_code::YIELD_SRC;
use rr_isa::{assemble_at, Program, Rrm};
use rr_machine::{Machine, MachineConfig, MachineError, MachineSnapshot};

const HALT_PC: u32 = 0;
const YIELD_ORIGIN: u32 = 8;
const ALLOC_ORIGIN: u32 = 64;
const LOADER_ORIGIN: u32 = 192;
const BODY_ORIGIN: u32 = 768;
const SAVE_ORIGIN: u32 = 4096;
const SAVE_STRIDE: u32 = 64;
/// Registers reserved for the OS/scheduler at boot (two 16-register
/// contexts, covering the allocator's working set r8..r27).
const OS_RESERVED_CONTEXTS: usize = 2;

/// Errors from the executive.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecError {
    /// The underlying machine faulted.
    Machine(MachineError),
    /// The allocator assembly reported allocation failure.
    OutOfRegisters {
        /// The context size requested.
        size: u32,
    },
    /// A register demand this executive cannot serve (its assembly
    /// allocator provides 16- and 64-register contexts).
    UnsupportedSize {
        /// The requested register count.
        regs_used: u32,
    },
    /// An operation named a thread that is not live.
    NoSuchThread {
        /// The offending thread id.
        tid: usize,
    },
    /// Attempted to retire the thread currently holding the processor.
    ThreadIsRunning {
        /// The offending thread id.
        tid: usize,
    },
    /// A snapshot that cannot be restored: wrong schema version or
    /// internally inconsistent state. Callers degrade to rebooting from
    /// scratch.
    BadSnapshot {
        /// Human-readable reason.
        reason: String,
    },
}

impl core::fmt::Display for ExecError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ExecError::Machine(e) => write!(f, "{e}"),
            ExecError::OutOfRegisters { size } => {
                write!(f, "no free {size}-register context")
            }
            ExecError::UnsupportedSize { regs_used } => {
                write!(f, "no context size serves {regs_used} registers here")
            }
            ExecError::NoSuchThread { tid } => write!(f, "thread {tid} is not live"),
            ExecError::ThreadIsRunning { tid } => {
                write!(f, "thread {tid} holds the processor; yield first")
            }
            ExecError::BadSnapshot { reason } => {
                write!(f, "executive snapshot cannot be restored: {reason}")
            }
        }
    }
}

impl std::error::Error for ExecError {}

impl From<MachineError> for ExecError {
    fn from(e: MachineError) -> Self {
        ExecError::Machine(e)
    }
}

/// A live thread's control block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Tcb {
    /// Thread id (dense, never reused within one executive).
    pub tid: usize,
    /// Context base register.
    pub base: u16,
    /// Allocated context size.
    pub size: u32,
    /// Registers the thread actually uses (what load/unload move).
    pub regs_used: u32,
    /// The context's `allocMask` for deallocation.
    pub alloc_mask: u32,
    /// The thread's save area address.
    pub save_area: u32,
}

/// Version of the [`ExecutiveSnapshot`] record layout.
pub const EXEC_SNAPSHOT_SCHEMA_VERSION: u32 = 1;

/// The executive's complete state: the machine (registers, memory,
/// relocation masks, counters) plus the OS-side thread bookkeeping.
///
/// The runtime program images (`yield`, allocator, loader) are *not*
/// serialized — they are deterministic functions of their fixed origins and
/// live inside the snapshotted memory anyway; restore reassembles them only
/// to recover their label tables.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutiveSnapshot {
    /// Record layout version ([`EXEC_SNAPSHOT_SCHEMA_VERSION`] at capture).
    pub schema_version: u32,
    /// The full machine state.
    pub machine: MachineSnapshot,
    /// Live thread control blocks, in ring order.
    pub live: Vec<Tcb>,
    /// `tid -> position in live` table (`None` once retired).
    pub tid_index: Vec<Option<usize>>,
    /// The next thread id to hand out.
    pub next_tid: usize,
    /// Whether the first thread has been dispatched.
    pub started: bool,
    /// Cycles spent inside OS calls so far.
    pub os_cycles: u64,
}

impl ExecutiveSnapshot {
    /// Structural consistency checks for a deserialized record.
    ///
    /// # Errors
    ///
    /// Describes the first inconsistency found.
    fn validate(&self) -> Result<(), String> {
        if self.schema_version != EXEC_SNAPSHOT_SCHEMA_VERSION {
            return Err(format!(
                "snapshot schema v{} (this build reads v{EXEC_SNAPSHOT_SCHEMA_VERSION})",
                self.schema_version
            ));
        }
        if self.tid_index.len() != self.next_tid {
            return Err(format!(
                "tid table holds {} entries but next_tid is {}",
                self.tid_index.len(),
                self.next_tid
            ));
        }
        let live_slots = self.tid_index.iter().flatten().count();
        if live_slots != self.live.len() {
            return Err(format!(
                "tid table maps {live_slots} live threads, live list holds {}",
                self.live.len()
            ));
        }
        for (i, tcb) in self.live.iter().enumerate() {
            if self.tid_index.get(tcb.tid).copied().flatten() != Some(i) {
                return Err(format!(
                    "live slot {i} (tid {}) disagrees with the tid table",
                    tcb.tid
                ));
            }
        }
        Ok(())
    }
}

/// The multithreading executive: spawn, run, retire.
///
/// Generic over an [`EventSink`]; the default [`NullSink`] disables
/// observability with no residual cost. Boot with [`Executive::boot`] for
/// the silent executive or [`Executive::boot_with_sink`] to record
/// cycle-stamped [`EventKind::OsCall`] / thread lifecycle events whose
/// durations come from actually executing the OS assembly.
///
/// # Example
///
/// ```
/// use rr_runtime::Executive;
///
/// let mut exec = Executive::boot()?;
/// let body = Executive::standard_body(2)?;
/// exec.install_body(&body)?;
/// let entry = body.label("entry").unwrap();
/// let tid = exec.spawn(entry, 8)?;
/// exec.run(200)?;
/// assert!(exec.read_thread_reg(tid, 5)? > 0, "the thread did work");
/// # Ok::<(), rr_runtime::ExecError>(())
/// ```
#[derive(Debug)]
pub struct Executive<S: EventSink = NullSink> {
    machine: Machine,
    alloc_p: Program,
    loader_p: Program,
    live: Vec<Tcb>,
    /// `tid_index[tid]` is the thread's position in `live`, `None` once
    /// retired. Tids are dense and never reused, so this is a flat table
    /// rather than a map, and thread lookups cost one indexed load instead
    /// of a scan over the live list.
    tid_index: Vec<Option<usize>>,
    next_tid: usize,
    started: bool,
    /// Cycles spent inside OS calls (allocation, loading, retiring).
    os_cycles: u64,
    sink: S,
}

impl Executive {
    /// Boots the silent executive (the default [`NullSink`]): loads the
    /// runtime images, initializes the allocator, and reserves the OS
    /// register block on a fresh 128-register machine.
    ///
    /// # Errors
    ///
    /// Propagates machine faults from boot code (a bug in this crate).
    pub fn boot() -> Result<Self, ExecError> {
        Self::boot_with_sink(NullSink)
    }

    /// Assembles a standard cooperative thread body: `work_units` unit
    /// increments of `r5`, then yield, forever. All threads can share one
    /// copy — relocation gives each its own registers.
    ///
    /// # Errors
    ///
    /// Never fails for valid `work_units`; the error type is for API
    /// uniformity.
    pub fn standard_body(work_units: u32) -> Result<Program, ExecError> {
        let mut src = String::from("entry:\n");
        for _ in 0..work_units {
            src.push_str("    addi r5, r5, 1\n");
        }
        src.push_str(&format!("    jal r0, {YIELD_ORIGIN}\n"));
        src.push_str("    jmp entry\n");
        assemble_at(&src, BODY_ORIGIN).map_err(asm_bug)
    }

    /// Rebuilds a silent executive from a snapshot; see
    /// [`Executive::restore_with_sink`].
    ///
    /// # Errors
    ///
    /// Same conditions as [`Executive::restore_with_sink`].
    pub fn restore(snap: &ExecutiveSnapshot) -> Result<Self, ExecError> {
        Self::restore_with_sink(snap, NullSink)
    }
}

impl<S: EventSink> Executive<S> {
    /// Boots the executive with `sink` receiving its event stream. Boot
    /// itself emits the allocator-initialization and OS-reservation
    /// [`EventKind::OsCall`] events.
    ///
    /// # Errors
    ///
    /// Propagates machine faults from boot code (a bug in this crate).
    pub fn boot_with_sink(sink: S) -> Result<Self, ExecError> {
        let mut machine = Machine::new(MachineConfig::default_128())?;
        machine.load_program(&rr_isa::assemble("halt").map_err(asm_bug)?)?;
        let yield_p = assemble_at(YIELD_SRC, YIELD_ORIGIN).map_err(asm_bug)?;
        machine.memory_mut().load_image(yield_p.origin(), yield_p.words())?;
        let alloc_p = allocator_program(ALLOC_ORIGIN).map_err(asm_bug)?;
        machine.memory_mut().load_image(alloc_p.origin(), alloc_p.words())?;
        let loader_p = loader_program(32, LOADER_ORIGIN).map_err(asm_bug)?;
        machine.memory_mut().load_image(loader_p.origin(), loader_p.words())?;
        let mut exec = Executive {
            machine,
            alloc_p,
            loader_p,
            live: Vec::new(),
            tid_index: Vec::new(),
            next_tid: 0,
            started: false,
            os_cycles: 0,
            sink,
        };
        exec.os_call(
            exec.alloc_p.label("alloc_init").expect("label exists"),
            OsRoutine::AllocInit,
        )?;
        // Reserve absolute registers 0..32 for the OS: the allocator's
        // working registers must not collide with thread contexts.
        for _ in 0..OS_RESERVED_CONTEXTS {
            exec.asm_alloc(16)?;
        }
        Ok(exec)
    }

    /// Installs a thread body image (any program whose yields target the
    /// executive's yield routine).
    ///
    /// # Errors
    ///
    /// Propagates machine faults if the image does not fit.
    pub fn install_body(&mut self, body: &Program) -> Result<(), ExecError> {
        self.machine.memory_mut().load_image(body.origin(), body.words())?;
        Ok(())
    }

    /// Spawns a thread: allocates a context with the assembly allocator,
    /// builds its initial image (PC at `entry`, zero PSW and data), loads it
    /// with the assembly loader, and links it into the `NextRRM` ring.
    ///
    /// # Errors
    ///
    /// * [`ExecError::UnsupportedSize`] unless `regs_used` fits a 16- or
    ///   64-register context.
    /// * [`ExecError::OutOfRegisters`] when the allocator assembly fails.
    pub fn spawn(&mut self, entry: u32, regs_used: u32) -> Result<usize, ExecError> {
        // With the machine's 5-bit operands a thread addresses at most 32
        // registers; the assembly allocator provides the two Appendix A
        // listed sizes, 16 and 64.
        let size = match regs_used {
            0..=16 => 16,
            17..=32 => 64,
            _ => return Err(ExecError::UnsupportedSize { regs_used }),
        };
        let (base, alloc_mask) = self.asm_alloc(size)?;
        let tid = self.next_tid;
        self.next_tid += 1;
        let save_area = SAVE_ORIGIN + tid as u32 * SAVE_STRIDE;
        let tcb = Tcb { tid, base, size, regs_used, alloc_mask, save_area };

        // Build the initial image in memory: r0 = entry PC, r1 = PSW,
        // r2 = NextRRM (provisional; relinked below), data zeroed.
        for slot in 0..regs_used.max(3) {
            let v = match slot {
                0 => entry,
                _ => 0,
            };
            self.machine.memory_mut().store(i64::from(save_area + slot), v)?;
        }
        // Pull the image into the context with the assembly loader.
        let saved = self.pause();
        self.machine.set_rrm(0, Rrm::from_raw(base));
        self.machine.write_abs(base + 3, save_area)?;
        self.machine.write_abs(base + 4, HALT_PC)?;
        let entry_label = format!("load_{}", regs_used.max(3));
        self.os_call(
            self.loader_p.label(&entry_label).expect("loader entry exists"),
            OsRoutine::Load,
        )?;
        self.resume(saved);

        self.live.push(tcb);
        debug_assert_eq!(self.tid_index.len(), tid);
        self.tid_index.push(Some(self.live.len() - 1));
        self.relink_ring()?;
        self.emit(EventKind::ThreadSpawn { thread: tid });
        self.emit(EventKind::ContextLoad {
            thread: tid,
            regs: regs_used,
            base,
            resident: self.live.len(),
        });
        Ok(tid)
    }

    /// Runs the machine for `cycles` cycles of multithreaded execution.
    /// Returns the cycles actually consumed (0 when no threads are live).
    ///
    /// # Errors
    ///
    /// Propagates machine faults from thread code.
    pub fn run(&mut self, cycles: u64) -> Result<u64, ExecError> {
        if self.live.is_empty() {
            return Ok(0);
        }
        if !self.started {
            let first = self.live[0];
            self.machine.set_rrm(0, Rrm::from_raw(first.base));
            let entry = self.machine.read_abs(first.base)?; // r0 = PC
            self.machine.set_pc(entry);
            self.started = true;
        }
        let before = self.machine.cycles();
        self.machine.run(cycles)?;
        Ok(self.machine.cycles() - before)
    }

    /// Retires a thread that is not currently holding the processor:
    /// unloads its registers to its save area and deallocates its context,
    /// both via the assembly routines.
    ///
    /// # Errors
    ///
    /// * [`ExecError::NoSuchThread`] for unknown ids.
    /// * [`ExecError::ThreadIsRunning`] when the thread holds the processor.
    pub fn retire(&mut self, tid: usize) -> Result<Tcb, ExecError> {
        let idx = self.live_idx(tid)?;
        let tcb = self.live[idx];
        if self.started && self.machine.rrm(0).raw() == tcb.base {
            return Err(ExecError::ThreadIsRunning { tid });
        }
        let saved = self.pause();
        // Unload its registers for posterity (a real OS would keep them for
        // reload; here they document final thread state).
        self.machine.set_rrm(0, Rrm::from_raw(tcb.base));
        self.machine.write_abs(tcb.base + 3, tcb.save_area)?;
        self.machine.write_abs(tcb.base + 4, HALT_PC)?;
        let entry_label = format!("unload_{}", tcb.regs_used.max(3));
        self.os_call(
            self.loader_p.label(&entry_label).expect("loader entry exists"),
            OsRoutine::Unload,
        )?;
        // Deallocate through the assembly (scheduler registers, RRM = 0).
        self.machine.set_rrm(0, Rrm::ZERO);
        self.machine.write_abs(12, tcb.alloc_mask)?;
        self.os_call(
            self.alloc_p.label("context_dealloc").expect("label exists"),
            OsRoutine::Dealloc,
        )?;
        self.resume(saved);
        self.live.remove(idx);
        self.tid_index[tid] = None;
        // Every entry after the removed slot shifted down one.
        for (i, t) in self.live.iter().enumerate().skip(idx) {
            self.tid_index[t.tid] = Some(i);
        }
        self.relink_ring()?;
        self.emit(EventKind::ContextUnload {
            thread: tid,
            regs: tcb.regs_used,
            base: tcb.base,
            resident: self.live.len(),
        });
        self.emit(EventKind::ThreadComplete { thread: tid });
        Ok(tcb)
    }

    /// Live thread control blocks, in ring order.
    pub fn threads(&self) -> &[Tcb] {
        &self.live
    }

    /// Reads a context-relative register of a live thread.
    ///
    /// # Errors
    ///
    /// Returns [`ExecError::NoSuchThread`] or a machine fault.
    pub fn read_thread_reg(&self, tid: usize, reg: u16) -> Result<u32, ExecError> {
        let tcb = &self.live[self.live_idx(tid)?];
        Ok(self.machine.read_abs(tcb.base + reg)?)
    }

    /// Total machine cycles elapsed.
    pub fn cycles(&self) -> u64 {
        self.machine.cycles()
    }

    /// Cycles consumed inside OS services (boot, spawn, retire).
    pub fn os_cycles(&self) -> u64 {
        self.os_cycles
    }

    /// The underlying machine, for inspection.
    pub fn machine(&self) -> &Machine {
        &self.machine
    }

    /// The event sink, for inspection (e.g. a recording sink's events).
    pub fn sink(&self) -> &S {
        &self.sink
    }

    /// Consumes the executive, yielding its sink.
    pub fn into_sink(self) -> S {
        self.sink
    }

    /// Captures the executive's complete state. Restoring the snapshot
    /// continues execution instruction for instruction: machine registers,
    /// memory, relocation masks, ring links, and OS accounting all survive.
    pub fn snapshot(&self) -> ExecutiveSnapshot {
        ExecutiveSnapshot {
            schema_version: EXEC_SNAPSHOT_SCHEMA_VERSION,
            machine: self.machine.snapshot(),
            live: self.live.clone(),
            tid_index: self.tid_index.clone(),
            next_tid: self.next_tid,
            started: self.started,
            os_cycles: self.os_cycles,
        }
    }

    /// Rebuilds an executive from a snapshot with `sink` receiving the
    /// resumed event stream. The runtime images are reassembled at their
    /// fixed origins purely for their label tables; the snapshotted memory
    /// already holds their words.
    ///
    /// # Errors
    ///
    /// [`ExecError::BadSnapshot`] when the record's schema version differs
    /// or its state is internally inconsistent; callers degrade to
    /// rebooting and recomputing from scratch.
    pub fn restore_with_sink(snap: &ExecutiveSnapshot, sink: S) -> Result<Self, ExecError> {
        snap.validate().map_err(|reason| ExecError::BadSnapshot { reason })?;
        let machine = Machine::restore(&snap.machine).map_err(|e| ExecError::BadSnapshot {
            reason: format!("machine state rejected: {e}"),
        })?;
        let alloc_p = allocator_program(ALLOC_ORIGIN).map_err(asm_bug)?;
        let loader_p = loader_program(32, LOADER_ORIGIN).map_err(asm_bug)?;
        Ok(Executive {
            machine,
            alloc_p,
            loader_p,
            live: snap.live.clone(),
            tid_index: snap.tid_index.clone(),
            next_tid: snap.next_tid,
            started: snap.started,
            os_cycles: snap.os_cycles,
            sink,
        })
    }

    // -- internals ---------------------------------------------------------

    /// Position of a live thread in `live`, via the flat tid table.
    #[inline]
    fn live_idx(&self, tid: usize) -> Result<usize, ExecError> {
        self.tid_index
            .get(tid)
            .copied()
            .flatten()
            .ok_or(ExecError::NoSuchThread { tid })
    }

    /// Saves the interrupted thread's execution state around an OS call.
    fn pause(&mut self) -> (u32, Rrm) {
        (self.machine.pc(), self.machine.rrm(0))
    }

    fn resume(&mut self, saved: (u32, Rrm)) {
        self.machine.set_pc(saved.0);
        self.machine.set_rrm(0, saved.1);
    }

    /// Emits a cycle-stamped event if the sink is listening. With the
    /// default `NullSink` this whole call folds away.
    fn emit(&mut self, kind: EventKind) {
        if self.sink.enabled() {
            self.sink.emit(Event { cycle: self.machine.cycles(), kind });
        }
    }

    /// Runs a machine-resident routine to completion (they return to the
    /// halt stub), charging its cycles to the OS. The emitted `OsCall`
    /// duration is *measured* from executing the routine's assembly, not
    /// charged from a cost table.
    fn os_call(&mut self, pc: u32, routine: OsRoutine) -> Result<(), ExecError> {
        self.machine.write_abs(9, HALT_PC)?;
        self.machine.set_pc(pc);
        let before = self.machine.cycles();
        self.machine.run_until_halt(100_000)?;
        let took = self.machine.cycles() - before;
        self.os_cycles += took;
        self.emit(EventKind::OsCall { routine, cycles: took });
        Ok(())
    }

    /// Calls the assembly allocator for a 16- or 64-register context.
    fn asm_alloc(&mut self, size: u32) -> Result<(u16, u32), ExecError> {
        let label = match size {
            16 => "context_alloc_16",
            64 => "context_alloc_64",
            _ => return Err(ExecError::UnsupportedSize { regs_used: size }),
        };
        let saved = self.pause();
        self.machine.set_rrm(0, Rrm::ZERO);
        self.os_call(self.alloc_p.label(label).expect("label exists"), OsRoutine::Alloc)?;
        let ok = self.machine.read_abs(13)? == 1;
        let result = if ok {
            Ok((self.machine.read_abs(11)? as u16, self.machine.read_abs(12)?))
        } else {
            Err(ExecError::OutOfRegisters { size })
        };
        self.resume(saved);
        result
    }

    /// Rewrites every live context's `NextRRM` (r2) to form the circular
    /// ready list.
    fn relink_ring(&mut self) -> Result<(), ExecError> {
        let n = self.live.len();
        for i in 0..n {
            let next_base = self.live[(i + 1) % n].base;
            let base = self.live[i].base;
            self.machine.write_abs(base + 2, u32::from(next_base))?;
        }
        Ok(())
    }
}

fn asm_bug(e: rr_isa::AsmError) -> ExecError {
    // The executive's own assembly failing to assemble is a crate bug;
    // surface it as a decode-style machine error for the caller.
    unreachable!("executive assembly is malformed: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boot_reserves_the_os_block() {
        let exec = Executive::boot().unwrap();
        // The allocator bitmap must show chunks 0..8 (registers 0..32) used.
        let map = exec.machine().read_abs(10).unwrap();
        assert_eq!(map, !0xffu32);
        assert!(exec.os_cycles() > 0);
    }

    #[test]
    fn spawn_run_makes_progress_round_robin() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(2).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let t0 = exec.spawn(entry, 8).unwrap();
        let t1 = exec.spawn(entry, 8).unwrap();
        let t2 = exec.spawn(entry, 8).unwrap();
        exec.run(3 * 10 * 8).unwrap();
        let counts: Vec<u32> = [t0, t1, t2]
            .iter()
            .map(|&t| exec.read_thread_reg(t, 5).unwrap())
            .collect();
        assert!(counts.iter().all(|&c| c >= 8), "all threads ran: {counts:?}");
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(spread <= 2, "round robin fairness: {counts:?}");
    }

    #[test]
    fn contexts_land_above_the_os_block() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let t = exec.spawn(entry, 10).unwrap();
        let tcb = exec.threads().iter().find(|x| x.tid == t).copied().unwrap();
        assert!(tcb.base >= 32, "thread context at {}", tcb.base);
        assert_eq!(tcb.size, 16);
    }

    #[test]
    fn mixed_context_sizes_spawn_and_run() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let small = exec.spawn(entry, 12).unwrap();
        let big = exec.spawn(entry, 28).unwrap(); // 64-register context
        exec.run(400).unwrap();
        assert!(exec.read_thread_reg(small, 5).unwrap() > 0);
        assert!(exec.read_thread_reg(big, 5).unwrap() > 0);
        let sizes: Vec<u32> = exec.threads().iter().map(|t| t.size).collect();
        assert_eq!(sizes, vec![16, 64]);
    }

    #[test]
    fn exhaustion_reports_out_of_registers() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        // 96 registers remain: six 16-register contexts fit, a seventh not.
        for _ in 0..6 {
            exec.spawn(entry, 8).unwrap();
        }
        assert!(matches!(
            exec.spawn(entry, 8),
            Err(ExecError::OutOfRegisters { size: 16 })
        ));
    }

    #[test]
    fn retire_frees_registers_for_respawn() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let ids: Vec<usize> = (0..6).map(|_| exec.spawn(entry, 8).unwrap()).collect();
        exec.run(500).unwrap();
        // Retire a thread that is not holding the processor.
        let victim = ids
            .iter()
            .copied()
            .find(|&t| {
                let tcb = exec.threads().iter().find(|x| x.tid == t).unwrap();
                exec.machine().rrm(0).raw() != tcb.base
            })
            .unwrap();
        let tcb = exec.retire(victim).unwrap();
        // Its final state was unloaded to memory.
        let r5 = exec.machine().memory().load(i64::from(tcb.save_area + 5)).unwrap();
        assert!(r5 > 0, "retired thread had made progress");
        // And its registers can be reused.
        let fresh = exec.spawn(entry, 8).unwrap();
        let fresh_tcb = exec.threads().iter().find(|x| x.tid == fresh).copied().unwrap();
        assert_eq!(fresh_tcb.base, tcb.base, "context base reused");
        exec.run(500).unwrap();
        assert!(exec.read_thread_reg(fresh, 5).unwrap() > 0);
    }

    #[test]
    fn retire_refuses_the_running_thread() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let t0 = exec.spawn(entry, 8).unwrap();
        let _t1 = exec.spawn(entry, 8).unwrap();
        exec.run(3).unwrap(); // t0 now holds the processor
        assert!(matches!(
            exec.retire(t0),
            Err(ExecError::ThreadIsRunning { tid: 0 })
        ));
        assert!(matches!(
            exec.retire(99),
            Err(ExecError::NoSuchThread { tid: 99 })
        ));
    }

    #[test]
    fn traced_executive_emits_measured_os_events() {
        let mut exec = Executive::boot_with_sink(Vec::<Event>::new()).unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let t0 = exec.spawn(entry, 8).unwrap();
        let _t1 = exec.spawn(entry, 8).unwrap();
        exec.run(100).unwrap();
        let victim =
            if exec.machine().rrm(0).raw() == exec.threads()[0].base { 1 } else { t0 };
        exec.retire(victim).unwrap();

        let os_cycles = exec.os_cycles();
        let events = exec.into_sink();
        // Stamps never decrease.
        assert!(events.windows(2).all(|w| w[0].cycle <= w[1].cycle));
        // Every OS cycle is covered by exactly the emitted OsCall durations.
        let os_from_events: u64 = events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::OsCall { cycles, .. } => Some(cycles),
                _ => None,
            })
            .sum();
        assert_eq!(os_from_events, os_cycles);
        // Boot + 2 spawns + retire leave a full lifecycle in the stream.
        let spawns =
            events.iter().filter(|e| matches!(e.kind, EventKind::ThreadSpawn { .. })).count();
        assert_eq!(spawns, 2);
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::OsCall { routine: OsRoutine::AllocInit, .. }
        )));
        assert!(events.iter().any(|e| matches!(
            e.kind,
            EventKind::ContextUnload { resident: 1, .. }
        )));
        assert!(events
            .iter()
            .any(|e| matches!(e.kind, EventKind::ThreadComplete { thread } if thread == victim)));
    }

    #[test]
    fn tid_table_survives_mid_list_retire() {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let ids: Vec<usize> = (0..4).map(|_| exec.spawn(entry, 8).unwrap()).collect();
        exec.run(200).unwrap();
        // Retire a middle thread that is not holding the processor, so the
        // live list shifts and the index table must be rebuilt behind it.
        let victim = ids[1..3]
            .iter()
            .copied()
            .find(|&t| {
                let tcb = exec.threads().iter().find(|x| x.tid == t).unwrap();
                exec.machine().rrm(0).raw() != tcb.base
            })
            .unwrap();
        exec.retire(victim).unwrap();
        for &t in ids.iter().filter(|&&t| t != victim) {
            // Lookups via the table agree with a scan of the live list.
            let by_scan = exec.threads().iter().find(|x| x.tid == t).unwrap().base;
            let reg0 = exec.read_thread_reg(t, 0).unwrap();
            assert_eq!(reg0, exec.machine().read_abs(by_scan).unwrap());
        }
        assert!(matches!(
            exec.read_thread_reg(victim, 0),
            Err(ExecError::NoSuchThread { .. })
        ));
        assert!(matches!(
            exec.read_thread_reg(99, 0),
            Err(ExecError::NoSuchThread { tid: 99 })
        ));
    }

    /// Boots and spawns a small mixed workload, runs it a while, and
    /// returns the executive mid-flight — the shared setup for the
    /// snapshot tests.
    fn mid_flight_exec() -> Executive {
        let mut exec = Executive::boot().unwrap();
        let body = Executive::standard_body(2).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        for regs in [8, 12, 28] {
            exec.spawn(entry, regs).unwrap();
        }
        exec.run(137).unwrap();
        exec
    }

    #[test]
    fn snapshot_restore_resumes_bit_exactly() {
        let mut straight = mid_flight_exec();
        let snap = straight.snapshot();
        // Round-trip through the serialized form: what resumes is the
        // record, not the in-memory struct.
        let json = serde_json::to_string(&snap).unwrap();
        let parsed: ExecutiveSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(parsed, snap);
        let mut resumed = Executive::restore(&parsed).unwrap();

        // Run both forward, interleaving spawn/run/retire, and compare the
        // complete state after every step.
        straight.run(191).unwrap();
        resumed.run(191).unwrap();
        assert_eq!(resumed.snapshot(), straight.snapshot());

        // The file is full (OS block + 16 + 16 + 64); retire a parked
        // thread in both worlds — the same one, since their states agree —
        // then spawn into the freed registers.
        let victim = straight
            .threads()
            .iter()
            .map(|t| t.tid)
            .find(|&t| {
                let tcb = straight.threads().iter().find(|x| x.tid == t).unwrap();
                straight.machine().rrm(0).raw() != tcb.base
            })
            .unwrap();
        straight.retire(victim).unwrap();
        resumed.retire(victim).unwrap();
        assert_eq!(resumed.snapshot(), straight.snapshot());

        let body = Executive::standard_body(2).unwrap();
        let entry = body.label("entry").unwrap();
        let a = straight.spawn(entry, 8).unwrap();
        let b = resumed.spawn(entry, 8).unwrap();
        assert_eq!(a, b, "tids continue from the same point");
        straight.run(230).unwrap();
        resumed.run(230).unwrap();
        assert_eq!(resumed.snapshot(), straight.snapshot());
        assert_eq!(resumed.os_cycles(), straight.os_cycles());
        assert_eq!(resumed.cycles(), straight.cycles());
    }

    #[test]
    fn snapshot_of_fresh_boot_restores_a_working_executive() {
        let exec = Executive::boot().unwrap();
        let snap = exec.snapshot();
        drop(exec);
        let mut resumed = Executive::restore(&snap).unwrap();
        let body = Executive::standard_body(1).unwrap();
        resumed.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        let t = resumed.spawn(entry, 8).unwrap();
        resumed.run(200).unwrap();
        assert!(resumed.read_thread_reg(t, 5).unwrap() > 0);
    }

    #[test]
    fn corrupt_executive_snapshots_are_rejected_not_crashed_on() {
        let exec = mid_flight_exec();
        let snap = exec.snapshot();

        let mut wrong_version = snap.clone();
        wrong_version.schema_version += 1;
        assert!(matches!(
            Executive::restore(&wrong_version),
            Err(ExecError::BadSnapshot { .. })
        ));

        let mut truncated_live = snap.clone();
        truncated_live.live.pop();
        assert!(matches!(
            Executive::restore(&truncated_live),
            Err(ExecError::BadSnapshot { .. })
        ));

        let mut bad_tid_table = snap.clone();
        bad_tid_table.tid_index.push(None);
        assert!(matches!(
            Executive::restore(&bad_tid_table),
            Err(ExecError::BadSnapshot { .. })
        ));

        let mut shrunk_machine = snap;
        shrunk_machine.machine.config.num_registers = 64;
        assert!(matches!(
            Executive::restore(&shrunk_machine),
            Err(ExecError::BadSnapshot { .. })
        ));
    }

    #[test]
    fn os_cycles_are_accounted_separately() {
        let mut exec = Executive::boot().unwrap();
        let boot_cost = exec.os_cycles();
        let body = Executive::standard_body(1).unwrap();
        exec.install_body(&body).unwrap();
        let entry = body.label("entry").unwrap();
        exec.spawn(entry, 8).unwrap();
        let after_spawn = exec.os_cycles();
        // Spawn = allocation (~20) + load (regs + 1) cycles.
        let spawn_cost = after_spawn - boot_cost;
        assert!(
            (10..=60).contains(&spawn_cost),
            "spawn cost {spawn_cost} should be tens of cycles"
        );
        exec.run(100).unwrap();
        assert_eq!(exec.os_cycles(), after_spawn, "thread time is not OS time");
    }
}
