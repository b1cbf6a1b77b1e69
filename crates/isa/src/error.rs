//! Error types for register construction, instruction decoding and assembly.

use core::fmt;
use serde::{Deserialize, Serialize};

/// Errors constructing typed register operands or relocation masks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RegisterError {
    /// A context-relative operand does not fit in the operand field.
    OperandOutOfRange {
        /// The offending operand value.
        operand: u8,
        /// The largest representable operand.
        max: u8,
    },
    /// A multi-RRM selector other than 0 or 1.
    BadSelector {
        /// The offending selector value.
        selector: u8,
    },
    /// A context size that is not a power of two within the architectural
    /// limit.
    BadContextSize {
        /// The offending size.
        size: u32,
    },
    /// A context base register not aligned to the context size.
    MisalignedBase {
        /// The offending base register number.
        base: u16,
        /// The context size the base must be aligned to.
        size: u32,
    },
}

impl fmt::Display for RegisterError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            RegisterError::OperandOutOfRange { operand, max } => {
                write!(f, "register operand r{operand} exceeds maximum r{max}")
            }
            RegisterError::BadSelector { selector } => {
                write!(f, "relocation mask selector {selector} is not 0 or 1")
            }
            RegisterError::BadContextSize { size } => {
                write!(f, "context size {size} is not a power of two within the operand range")
            }
            RegisterError::MisalignedBase { base, size } => {
                write!(f, "context base {base} is not aligned to context size {size}")
            }
        }
    }
}

impl std::error::Error for RegisterError {}

/// Errors decoding a 32-bit instruction word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DecodeError {
    /// The opcode field does not name an instruction.
    UnknownOpcode {
        /// The raw opcode field value.
        opcode: u8,
        /// The word it was decoded from.
        word: u32,
    },
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            DecodeError::UnknownOpcode { opcode, word } => {
                write!(f, "unknown opcode {opcode:#04x} in instruction word {word:#010x}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

/// Errors encoding an instruction into a 32-bit word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodeError {
    /// An immediate outside the signed 14-bit field.
    ImmediateOutOfRange {
        /// The offending immediate.
        imm: i32,
    },
    /// A shift amount of 32 or more.
    ShamtOutOfRange {
        /// The offending shift amount.
        shamt: u8,
    },
    /// A jump target outside the 20-bit absolute address field.
    TargetOutOfRange {
        /// The offending target word address.
        target: u32,
    },
}

impl fmt::Display for EncodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            EncodeError::ImmediateOutOfRange { imm } => {
                write!(f, "immediate {imm} does not fit in a signed 14-bit field")
            }
            EncodeError::ShamtOutOfRange { shamt } => {
                write!(f, "shift amount {shamt} is not below 32")
            }
            EncodeError::TargetOutOfRange { target } => {
                write!(f, "jump target {target} does not fit in a 20-bit field")
            }
        }
    }
}

impl std::error::Error for EncodeError {}

/// Errors produced by the two-pass assembler, with source line information.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// 1-based source line of the error.
    pub line: usize,
    /// What went wrong.
    pub kind: AsmErrorKind,
}

/// The specific assembly failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmErrorKind {
    /// An unknown mnemonic.
    UnknownMnemonic(String),
    /// Wrong operand count or shape for the mnemonic.
    BadOperands {
        /// The mnemonic being assembled.
        mnemonic: String,
        /// Expected operand syntax, e.g. `"rd, rs, rt"`.
        expected: &'static str,
    },
    /// A register operand that failed to parse or validate.
    BadRegister(String),
    /// An immediate that failed to parse or does not fit its field.
    BadImmediate(String),
    /// A label used but never defined.
    UndefinedLabel(String),
    /// A label defined more than once.
    DuplicateLabel(String),
    /// A branch target out of the representable PC-relative range.
    BranchOutOfRange {
        /// Branch source address (word index).
        from: u32,
        /// Branch target address (word index).
        to: u32,
    },
    /// A jump target out of the representable absolute range.
    JumpOutOfRange {
        /// Jump target address (word index).
        to: u32,
    },
    /// A malformed directive such as `.word`.
    BadDirective(String),
    /// The program would end past the last address a label can name.
    ProgramTooLarge {
        /// The word address the program would end at.
        end: u64,
    },
}

impl fmt::Display for AsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.kind)
    }
}

impl fmt::Display for AsmErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AsmErrorKind::UnknownMnemonic(m) => write!(f, "unknown mnemonic `{m}`"),
            AsmErrorKind::BadOperands { mnemonic, expected } => {
                write!(f, "`{mnemonic}` expects operands `{expected}`")
            }
            AsmErrorKind::BadRegister(r) => write!(f, "bad register operand `{r}`"),
            AsmErrorKind::BadImmediate(i) => write!(f, "bad immediate `{i}`"),
            AsmErrorKind::UndefinedLabel(l) => write!(f, "undefined label `{l}`"),
            AsmErrorKind::DuplicateLabel(l) => write!(f, "duplicate label `{l}`"),
            AsmErrorKind::BranchOutOfRange { from, to } => {
                write!(f, "branch from {from} to {to} exceeds the pc-relative range")
            }
            AsmErrorKind::JumpOutOfRange { to } => {
                write!(f, "jump target {to} exceeds the absolute address range")
            }
            AsmErrorKind::BadDirective(d) => write!(f, "bad directive `{d}`"),
            AsmErrorKind::ProgramTooLarge { end } => write!(
                f,
                "program would end at word {end}, past the {}-word address space",
                crate::instr::ADDR20_LIMIT
            ),
        }
    }
}

impl std::error::Error for AsmError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_concise() {
        let e = RegisterError::OperandOutOfRange { operand: 70, max: 63 };
        assert_eq!(e.to_string(), "register operand r70 exceeds maximum r63");
        let e = DecodeError::UnknownOpcode { opcode: 0x3f, word: 0xffff_ffff };
        assert!(e.to_string().starts_with("unknown opcode"));
        let e = AsmError {
            line: 3,
            kind: AsmErrorKind::UnknownMnemonic("frob".into()),
        };
        assert_eq!(e.to_string(), "line 3: unknown mnemonic `frob`");
    }
}
