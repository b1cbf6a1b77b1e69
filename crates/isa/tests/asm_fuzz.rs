//! Property tests: the assembler turns any source text into a program or a
//! typed error — never a panic — and never into more words than the 20-bit
//! address space holds.

use proptest::prelude::*;
use rr_isa::instr::ADDR20_LIMIT;
use rr_isa::{assemble, assemble_at};

/// Well-formed programs exercising labels, branches, jumps, memory
/// operands, `li32` and both directives.
const VALID: &[&str] = &[
    "li r0, 40\n ldrrm r0\n nop\n li r5, 99\n add r6, r5, r5\n halt",
    "loop: addi r1, r1, -1\n bne r1, r0, loop\n jmp done\n nop\ndone: halt",
    "lw r1, -4(r2)\n sw r3, (r4)\n lw r5, 0x10(r6) ; load\n jal r7, 0x20 # call",
    "start: li32 r2, 0xdeadbeef\n .word -1\n .space 3 // pad\n beq r2, r2, start\n jr r7",
];

/// The programs assemble, and what assembles fits the address space.
fn check(source: &str) {
    if let Ok(p) = assemble(source) {
        assert!(p.len() <= ADDR20_LIMIT as usize, "{} words", p.len());
    }
}

/// `.space` counts: small ones, ones at the edge of the address space,
/// and ones far past it (which must be rejected before any allocation).
fn space_count() -> impl Strategy<Value = u64> {
    let limit = u64::from(ADDR20_LIMIT);
    prop_oneof![
        0u64..64,
        (limit - 2)..=(limit + 2),
        Just(u64::from(u32::MAX)),
        Just(5_000_000_001),
        Just(u64::MAX),
    ]
}

/// One source line: arbitrary text, or something close to assembly.
fn line() -> impl Strategy<Value = String> {
    prop_oneof![
        "\\PC{0,40}".prop_map(String::from),
        "(nop|halt|add|addi|li|li32|lw|sw|beq|bne|jmp|jal|jr|ldrrm|mov|slli|frob) \
         [a-z0-9_,() .x-]{0,24}"
            .prop_map(String::from),
        "[a-z_]{1,6}:( nop)?".prop_map(String::from),
        any::<i64>().prop_map(|v| format!(".word {v}")),
        ".word (0x)?[0-9a-f]{1,10}".prop_map(String::from),
        space_count().prop_map(|n| format!(".space {n}")),
        ".(space|word) [-0-9a-fxb]{0,12}".prop_map(String::from),
    ]
}

#[test]
fn the_valid_programs_assemble_and_every_truncation_is_clean() {
    for source in VALID {
        assert!(assemble(source).is_ok(), "{source}");
        for cut in 0..=source.len() {
            check(&source[..cut]);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary lines, at any origin, assemble or fail cleanly.
    #[test]
    fn arbitrary_lines_never_panic(
        lines in prop::collection::vec(line(), 0..12),
        origin in prop_oneof![0u32..64, Just(ADDR20_LIMIT - 1), Just(u32::MAX)],
    ) {
        let source = lines.join("\n");
        check(&source);
        let _ = assemble_at(&source, origin);
    }

    /// A byte flip anywhere in a valid program assembles or fails cleanly.
    #[test]
    fn flipped_programs_never_panic(
        which in 0usize..VALID.len(),
        flips in prop::collection::vec((any::<usize>(), 1u8..=255), 1..4),
    ) {
        let mut bytes = VALID[which].as_bytes().to_vec();
        for (at, mask) in flips {
            let i = at % bytes.len();
            bytes[i] ^= mask;
        }
        check(&String::from_utf8_lossy(&bytes));
    }
}
