//! Property tests for the runtime structures: the ready ring against a
//! reference model, the two-phase governor's competitive bound, and the
//! assembly allocator against the literal Rust port under random operation
//! sequences.

use proptest::prelude::*;

use rr_alloc::appendix_a::AppendixA;
use rr_isa::Program;
use rr_machine::{Machine, MachineConfig};
use rr_runtime::alloc_asm::allocator_program;
use rr_runtime::{ReadyRing, UnloadDecision, UnloadGovernor, UnloadPolicyKind};

// ---------------------------------------------------------------------------
// ReadyRing vs a reference rotation model.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RingOp {
    Insert(usize),
    Remove(usize),
    Advance,
    Focus(usize),
    /// Focus the `i % len`-th element of the sweep by hop count.
    FocusInSweep(usize),
}

fn arb_ring_ops() -> impl Strategy<Value = Vec<RingOp>> {
    prop::collection::vec(
        prop_oneof![
            (0usize..12).prop_map(RingOp::Insert),
            (0usize..12).prop_map(RingOp::Remove),
            Just(RingOp::Advance),
            (0usize..12).prop_map(RingOp::Focus),
            (0usize..12).prop_map(RingOp::FocusInSweep),
        ],
        1..80,
    )
}

/// Reference: a plain rotating vector where the current element is at the
/// front after every operation.
#[derive(Debug, Default)]
struct ModelRing {
    /// Rotation order starting from the cursor element.
    rot: Vec<usize>,
}

impl ModelRing {
    fn insert(&mut self, t: usize) {
        // New element is visited last: append at the end of rotation order.
        self.rot.push(t);
    }
    fn remove(&mut self, t: usize) -> bool {
        match self.rot.iter().position(|&x| x == t) {
            None => false,
            Some(0) => {
                self.rot.remove(0);
                // Cursor semantics: stays on the *next* element, which is
                // now at the front — nothing more to do.
                true
            }
            Some(i) => {
                self.rot.remove(i);
                true
            }
        }
    }
    fn advance(&mut self) -> Option<usize> {
        if self.rot.is_empty() {
            return None;
        }
        let head = self.rot.remove(0);
        self.rot.push(head);
        self.rot.first().copied()
    }
    fn focus(&mut self, t: usize) -> bool {
        match self.rot.iter().position(|&x| x == t) {
            None => false,
            Some(i) => {
                self.rot.rotate_left(i);
                true
            }
        }
    }
    fn sweep(&self) -> Vec<usize> {
        // Everything after the cursor, ending with the cursor element.
        let mut v: Vec<usize> = self.rot.to_vec();
        if !v.is_empty() {
            v.rotate_left(1);
        }
        v
    }
}

proptest! {
    /// The ring matches the reference model through arbitrary operation
    /// sequences.
    #[test]
    fn ready_ring_matches_model(ops in arb_ring_ops()) {
        let mut ring = ReadyRing::new();
        let mut model = ModelRing::default();
        for op in ops {
            match op {
                RingOp::Insert(t) => {
                    if !ring.contains(t) {
                        ring.insert(t);
                        model.insert(t);
                    }
                }
                RingOp::Remove(t) => {
                    let a = ring.remove(t);
                    let b = model.remove(t);
                    prop_assert_eq!(a, b);
                }
                RingOp::Advance => {
                    let a = ring.advance();
                    let b = model.advance();
                    prop_assert_eq!(a, b);
                }
                RingOp::Focus(t) => {
                    let a = ring.focus(t);
                    let b = model.focus(t);
                    prop_assert_eq!(a, b);
                }
                RingOp::FocusInSweep(i) => {
                    if !ring.is_empty() {
                        let i = i % ring.len();
                        let t = model.sweep()[i];
                        ring.focus_in_sweep(i);
                        model.focus(t);
                    }
                }
            }
            prop_assert_eq!(ring.len(), model.rot.len());
            prop_assert_eq!(ring.current(), model.rot.first().copied());
            prop_assert_eq!(ring.sweep().collect::<Vec<_>>(), model.sweep());
        }
    }

    /// The two-phase governor's competitive bound: total accumulated spin
    /// never exceeds the unload cost by more than one attempt, for any
    /// attempt/unload cost combination.
    #[test]
    fn two_phase_competitive_bound(
        attempt in 1u64..50,
        unload_cost in 1u64..500,
    ) {
        let mut g = UnloadGovernor::new(UnloadPolicyKind::two_phase());
        let mut spent = 0;
        loop {
            spent += attempt;
            if g.failed_attempt(0, attempt, unload_cost) == UnloadDecision::Unload {
                break;
            }
            prop_assert!(spent < unload_cost + attempt, "kept spinning past the budget");
        }
        prop_assert!(spent >= unload_cost.min(attempt));
        prop_assert!(spent < unload_cost + attempt);
    }
}

// ---------------------------------------------------------------------------
// Assembly allocator vs the literal Rust port, random operation sequences.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc16,
    Alloc64,
    /// Deallocate the i-th live allocation (modulo live count).
    Dealloc(usize),
}

fn arb_alloc_ops() -> impl Strategy<Value = Vec<AllocOp>> {
    prop::collection::vec(
        prop_oneof![
            3 => Just(AllocOp::Alloc16),
            1 => Just(AllocOp::Alloc64),
            2 => (0usize..8).prop_map(AllocOp::Dealloc),
        ],
        1..40,
    )
}

struct AsmAlloc {
    m: Machine,
    p: Program,
}

impl AsmAlloc {
    fn new() -> Self {
        let mut m = Machine::new(MachineConfig::default_128()).unwrap();
        m.load_program(&rr_isa::assemble("halt").unwrap()).unwrap();
        let p = allocator_program(16).unwrap();
        m.memory_mut().load_image(p.origin(), p.words()).unwrap();
        let mut s = AsmAlloc { m, p };
        s.call("alloc_init");
        s
    }
    fn call(&mut self, label: &str) {
        self.m.write_abs(9, 0).unwrap();
        self.m.set_pc(self.p.label(label).unwrap());
        self.m.run_until_halt(10_000).unwrap();
    }
    fn alloc(&mut self, label: &str) -> Option<(u16, u32)> {
        self.call(label);
        (self.m.read_abs(13).unwrap() == 1).then(|| {
            (self.m.read_abs(11).unwrap() as u16, self.m.read_abs(12).unwrap())
        })
    }
    fn dealloc(&mut self, mask: u32) {
        self.m.write_abs(12, mask).unwrap();
        self.call("context_dealloc");
    }
    fn map(&self) -> u32 {
        self.m.read_abs(10).unwrap()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The hand-written assembly allocator and the literal Rust port of
    /// Appendix A stay bit-for-bit identical through arbitrary interleaved
    /// allocate/deallocate sequences.
    #[test]
    fn assembly_allocator_equals_rust_port(ops in arb_alloc_ops()) {
        let mut asm = AsmAlloc::new();
        let mut rust = AppendixA::new();
        let mut live: Vec<u32> = Vec::new();
        for op in ops {
            match op {
                AllocOp::Alloc16 | AllocOp::Alloc64 => {
                    let (label, size) = match op {
                        AllocOp::Alloc16 => ("context_alloc_16", 16),
                        _ => ("context_alloc_64", 64),
                    };
                    let got = asm.alloc(label);
                    let expected = rust.context_alloc(size);
                    match (got, expected) {
                        (Some((rrm, mask)), Some(e)) => {
                            prop_assert_eq!(rrm, e.rrm);
                            prop_assert_eq!(mask, e.alloc_mask);
                            live.push(mask);
                        }
                        (None, None) => {}
                        (g, e) => prop_assert!(false, "diverged: asm={g:?} rust={e:?}"),
                    }
                }
                AllocOp::Dealloc(i) => {
                    if !live.is_empty() {
                        let mask = live.remove(i % live.len());
                        asm.dealloc(mask);
                        rust.context_dealloc(mask);
                    }
                }
            }
            prop_assert_eq!(asm.map(), rust.alloc_map());
        }
    }
}

// ---------------------------------------------------------------------------
// Assembler fuzz: arbitrary text never panics.
// ---------------------------------------------------------------------------

proptest! {
    /// The assembler returns a structured error (or success) on any input —
    /// it never panics.
    #[test]
    fn assembler_never_panics(text in "\\PC{0,200}") {
        let _ = rr_isa::assemble(&text);
    }

    /// Line-structured pseudo-assembly stress: fragments that look like
    /// instructions with weird operands still produce typed errors only.
    #[test]
    fn assembler_survives_plausible_garbage(
        lines in prop::collection::vec(
            prop_oneof![
                Just("add r1, r2, r3".to_string()),
                "(add|lw|sw|jmp|li|ldrrm) .*".prop_map(|s| s),
                "[a-z_]+:".prop_map(|s| s),
                "\\.word -?[0-9]{1,12}".prop_map(|s| s),
            ],
            0..12,
        )
    ) {
        let _ = rr_isa::assemble(&lines.join("\n"));
    }
}
