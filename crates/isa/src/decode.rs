//! Fixed-32-bit instruction encoding and decoding.
//!
//! The instruction set is the subset of RV32 a straight-line transprecision
//! kernel needs — integer address/loop arithmetic, branches, FP
//! loads/stores/arithmetic/converts/compares — extended with the platform's
//! narrow-format encodings in the style of the PULP `smallFloat` extension
//! the source paper's core implements:
//!
//! * the 2-bit `fmt` field of OP-FP maps `00 → binary32`, `10 → binary16`
//!   and reuses the quad slot `11 → binary8` (the platform has no binary64
//!   or binary128 datapath; `01` decodes as [`IllegalInstruction`]);
//! * **binary16alt** rides the binary16 encodings: rounded operations mark
//!   the alternate format with `rm = 0b101` (rounding then comes from
//!   `frm`, exactly the `Xf16alt` convention), and operations whose
//!   `funct3` is a function selector (sign-injection, min/max, compares,
//!   moves) set bit 2 of `funct3` instead;
//! * FP loads/stores are *width*-addressed (`funct3 = 0/1/2` for 8/16/32
//!   bits) because a load moves raw bits — the format only matters when an
//!   arithmetic instruction interprets them;
//! * `FCVT` encodes the source format in `rs2[1:0]` with `rs2[2]` as the
//!   alternate-half marker, mirroring the destination-side conventions.
//!
//! [`encode`] and [`decode`] are exact inverses over the legal instruction
//! space: `decode(encode(i)) == Ok(i)` for every well-formed [`Instr`], and
//! `encode(decode(w)?) == w` for every word that decodes (pinned
//! exhaustively plus by fuzz in `tests/decoder_roundtrip.rs`). Every
//! reserved field is checked, so any word outside the implemented space
//! returns [`IllegalInstruction`] instead of aliasing a neighbour.

use std::fmt;

use tp_formats::FormatKind;

/// An integer (x) register, `x0`–`x31`. `x0` reads as zero and ignores
/// writes, as in RV32I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Reg(u8);

/// Constructs integer register `xN`.
///
/// # Panics
///
/// Panics if `n > 31`.
#[must_use]
pub const fn x(n: u8) -> Reg {
    assert!(n < 32, "x register index out of range");
    Reg(n)
}

impl Reg {
    /// The hard-wired zero register.
    pub const ZERO: Reg = Reg(0);

    /// The register number (0–31).
    #[must_use]
    pub const fn num(self) -> u8 {
        self.0
    }
}

impl fmt::Display for Reg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}", self.0)
    }
}

/// A floating-point (f) register, `f0`–`f31`. Registers hold raw
/// format-encoded bit patterns; the instruction's format field decides how
/// an arithmetic instruction interprets them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FReg(u8);

/// Constructs FP register `fN`.
///
/// # Panics
///
/// Panics if `n > 31`.
#[must_use]
pub const fn f(n: u8) -> FReg {
    assert!(n < 32, "f register index out of range");
    FReg(n)
}

impl FReg {
    /// The register number (0–31).
    #[must_use]
    pub const fn num(self) -> u8 {
        self.0
    }
}

impl fmt::Display for FReg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "f{}", self.0)
    }
}

/// Memory access width of an FP load/store (`funct3` of LOAD-FP/STORE-FP).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemWidth {
    /// One byte — binary8 elements.
    B8,
    /// Two bytes — binary16 / binary16alt elements.
    H16,
    /// Four bytes — binary32 elements.
    W32,
}

impl MemWidth {
    /// Element width in bits.
    #[must_use]
    pub fn bits(self) -> u32 {
        match self {
            MemWidth::B8 => 8,
            MemWidth::H16 => 16,
            MemWidth::W32 => 32,
        }
    }

    /// Element width in bytes.
    #[must_use]
    pub fn bytes(self) -> u32 {
        self.bits() / 8
    }

    /// The natural access width of a platform format.
    #[must_use]
    pub fn of(fmt: FormatKind) -> MemWidth {
        match fmt.width_bits() {
            8 => MemWidth::B8,
            16 => MemWidth::H16,
            _ => MemWidth::W32,
        }
    }

    fn funct3(self) -> u32 {
        match self {
            MemWidth::B8 => 0b000,
            MemWidth::H16 => 0b001,
            MemWidth::W32 => 0b010,
        }
    }
}

/// Rounding-mode field of a rounded FP instruction.
///
/// The platform's datapaths are round-to-nearest-even only (the
/// `FpBackend` contract), so the decoder accepts the static `rm = 000`
/// (RNE) and the dynamic `rm = 111` (take the mode from `frm`); the other
/// static modes decode as [`IllegalInstruction`]. Binary16alt instructions
/// have no free `rm` field (it carries the alternate-format marker
/// `0b101`), so they are always [`Rm::Dyn`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rm {
    /// Round to nearest, ties to even (static).
    Rne,
    /// Dynamic: take the rounding mode from the `frm` CSR field.
    Dyn,
}

/// FP arithmetic operation of an [`Instr::FArith`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FpAluOp {
    /// `FADD`.
    Add,
    /// `FSUB`.
    Sub,
    /// `FMUL`.
    Mul,
    /// `FDIV` (software-emulated on the platform core; still one
    /// instruction at this level).
    Div,
}

/// Sign-injection variant of an [`Instr::FSgnj`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SgnjMode {
    /// `FSGNJ`: result takes `rs2`'s sign (`rs1 == rs2` is the canonical
    /// register move).
    Inj,
    /// `FSGNJN`: result takes `rs2`'s negated sign (`rs1 == rs2` negates).
    Neg,
    /// `FSGNJX`: result sign is the XOR (`rs1 == rs2` is absolute value).
    Xor,
}

/// Comparison predicate of an [`Instr::FCmp`] (`FLE`/`FLT`/`FEQ`, quiet,
/// writes 0/1 to an integer register): the predicate the compare op cell
/// evaluates.
pub use flexfloat::cell::CmpOp;

/// CSR addresses the platform implements — the floating-point control and
/// status register and its two shadows. Any other address decodes as
/// [`IllegalInstruction`].
pub mod csr_addr {
    /// Accrued exception flags (fflags).
    pub const FFLAGS: u16 = 0x001;
    /// Dynamic rounding mode (frm).
    pub const FRM: u16 = 0x002;
    /// `frm` and `fflags` combined (fcsr).
    pub const FCSR: u16 = 0x003;
}

/// A decoded instruction.
///
/// Immediates are stored as sign-extended semantic values (branch/jump
/// offsets in bytes relative to the instruction, load/store offsets in
/// bytes); [`encode`] validates their ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Instr {
    /// `LUI rd, imm20`: `rd = imm20 << 12`.
    Lui {
        /// Destination register.
        rd: Reg,
        /// Upper-immediate field value (20-bit signed: `-2^19..2^19`).
        imm20: i32,
    },
    /// `ADDI rd, rs1, imm`.
    Addi {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// 12-bit signed immediate.
        imm: i32,
    },
    /// `SLLI rd, rs1, shamt`.
    Slli {
        /// Destination register.
        rd: Reg,
        /// Source register.
        rs1: Reg,
        /// Shift amount (0–31).
        shamt: u32,
    },
    /// `ADD rd, rs1, rs2`.
    Add {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `SUB rd, rs1, rs2`.
    Sub {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `MUL rd, rs1, rs2` (RV32M, low 32 bits).
    Mul {
        /// Destination register.
        rd: Reg,
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
    },
    /// `LW rd, imm(rs1)` — integer 32-bit load.
    Lw {
        /// Destination register.
        rd: Reg,
        /// Base address register.
        rs1: Reg,
        /// 12-bit signed byte offset.
        imm: i32,
    },
    /// `SW rs2, imm(rs1)` — integer 32-bit store.
    Sw {
        /// Value register.
        rs2: Reg,
        /// Base address register.
        rs1: Reg,
        /// 12-bit signed byte offset.
        imm: i32,
    },
    /// `BEQ rs1, rs2, offset`.
    Beq {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed, even byte offset relative to this instruction.
        offset: i32,
    },
    /// `BNE rs1, rs2, offset`.
    Bne {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed, even byte offset relative to this instruction.
        offset: i32,
    },
    /// `BLT rs1, rs2, offset` (signed compare).
    Blt {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed, even byte offset relative to this instruction.
        offset: i32,
    },
    /// `BGE rs1, rs2, offset` (signed compare).
    Bge {
        /// Left operand.
        rs1: Reg,
        /// Right operand.
        rs2: Reg,
        /// Signed, even byte offset relative to this instruction.
        offset: i32,
    },
    /// `JAL rd, offset`.
    Jal {
        /// Link register (`x0` discards the return address).
        rd: Reg,
        /// Signed, even byte offset relative to this instruction.
        offset: i32,
    },
    /// `ECALL` — the executor treats it as the halt request.
    Ecall,
    /// `CSRRW rd, csr, rs1` — atomic CSR swap.
    Csrrw {
        /// Destination register (old CSR value).
        rd: Reg,
        /// CSR address (one of [`csr_addr`]).
        csr: u16,
        /// Source register (new CSR value).
        rs1: Reg,
    },
    /// `CSRRS rd, csr, rs1` — atomic CSR read-and-set-bits (`rs1 = x0`
    /// is the canonical CSR read).
    Csrrs {
        /// Destination register (old CSR value).
        rd: Reg,
        /// CSR address (one of [`csr_addr`]).
        csr: u16,
        /// Bit-set mask register.
        rs1: Reg,
    },
    /// FP load (`FLB`/`FLH`/`FLW` by width): raw bits into `rd`.
    FLoad {
        /// Element width.
        width: MemWidth,
        /// Destination FP register.
        rd: FReg,
        /// Base address register.
        rs1: Reg,
        /// 12-bit signed byte offset.
        imm: i32,
    },
    /// FP store (`FSB`/`FSH`/`FSW` by width): low bits of `rs2` to memory.
    FStore {
        /// Element width.
        width: MemWidth,
        /// Value FP register.
        rs2: FReg,
        /// Base address register.
        rs1: Reg,
        /// 12-bit signed byte offset.
        imm: i32,
    },
    /// `FADD`/`FSUB`/`FMUL`/`FDIV` in a platform format.
    FArith {
        /// The operation.
        op: FpAluOp,
        /// Operand/result format.
        fmt: FormatKind,
        /// Destination FP register.
        rd: FReg,
        /// Left operand.
        rs1: FReg,
        /// Right operand.
        rs2: FReg,
        /// Rounding mode ([`Rm::Dyn`] always, for binary16alt).
        rm: Rm,
    },
    /// `FSQRT` in a platform format.
    FSqrt {
        /// Operand/result format.
        fmt: FormatKind,
        /// Destination FP register.
        rd: FReg,
        /// Operand.
        rs1: FReg,
        /// Rounding mode ([`Rm::Dyn`] always, for binary16alt).
        rm: Rm,
    },
    /// Sign injection (`FSGNJ`/`FSGNJN`/`FSGNJX`).
    FSgnj {
        /// Operand format (fixes the sign-bit position).
        fmt: FormatKind,
        /// Variant.
        mode: SgnjMode,
        /// Destination FP register.
        rd: FReg,
        /// Magnitude source.
        rs1: FReg,
        /// Sign source.
        rs2: FReg,
    },
    /// `FMIN`/`FMAX` (RISC-V semantics: NaN loses, `-0 < +0`).
    FMinMax {
        /// Operand/result format.
        fmt: FormatKind,
        /// `true` for `FMAX`.
        max: bool,
        /// Destination FP register.
        rd: FReg,
        /// Left operand.
        rs1: FReg,
        /// Right operand.
        rs2: FReg,
    },
    /// Quiet FP comparison writing 0/1 to an integer register.
    FCmp {
        /// Operand format.
        fmt: FormatKind,
        /// Predicate.
        cmp: CmpOp,
        /// Destination integer register.
        rd: Reg,
        /// Left operand.
        rs1: FReg,
        /// Right operand.
        rs2: FReg,
    },
    /// `FCVT` between two *different* platform formats.
    FCvt {
        /// Destination format.
        to: FormatKind,
        /// Source format.
        from: FormatKind,
        /// Destination FP register.
        rd: FReg,
        /// Operand.
        rs1: FReg,
        /// Rounding mode ([`Rm::Dyn`] always, when `to` is binary16alt).
        rm: Rm,
    },
    /// `FMV.F.X`-style move: low format-width bits of an integer register
    /// into an FP register, unchanged.
    FMvToFp {
        /// Width-defining format.
        fmt: FormatKind,
        /// Destination FP register.
        rd: FReg,
        /// Source integer register.
        rs1: Reg,
    },
    /// `FMV.X.F`-style move: FP register bits, zero-extended, into an
    /// integer register.
    FMvToInt {
        /// Width-defining format.
        fmt: FormatKind,
        /// Destination integer register.
        rd: Reg,
        /// Source FP register.
        rs1: FReg,
    },
}

/// A 32-bit word that does not decode to any implemented instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IllegalInstruction(
    /// The offending word.
    pub u32,
);

impl fmt::Display for IllegalInstruction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "illegal instruction word {:#010x}", self.0)
    }
}

impl std::error::Error for IllegalInstruction {}

// Major opcodes (instr[6:0]).
const OP_LUI: u32 = 0b011_0111;
const OP_IMM: u32 = 0b001_0011;
const OP: u32 = 0b011_0011;
const OP_LOAD: u32 = 0b000_0011;
const OP_STORE: u32 = 0b010_0011;
const OP_BRANCH: u32 = 0b110_0011;
const OP_JAL: u32 = 0b110_1111;
const OP_SYSTEM: u32 = 0b111_0011;
const OP_LOAD_FP: u32 = 0b000_0111;
const OP_STORE_FP: u32 = 0b010_0111;
const OP_FP: u32 = 0b101_0011;

// OP-FP funct5 values (instr[31:27]).
const F5_ADD: u32 = 0b00000;
const F5_SUB: u32 = 0b00001;
const F5_MUL: u32 = 0b00010;
const F5_DIV: u32 = 0b00011;
const F5_SGNJ: u32 = 0b00100;
const F5_MINMAX: u32 = 0b00101;
const F5_CVT_FF: u32 = 0b01000;
const F5_SQRT: u32 = 0b01011;
const F5_CMP: u32 = 0b10100;
const F5_MV_X_F: u32 = 0b11100;
const F5_MV_F_X: u32 = 0b11110;

/// The alternate-half rounding-mode marker (`Xf16alt` convention).
const RM_ALT: u32 = 0b101;
const RM_RNE: u32 = 0b000;
const RM_DYN: u32 = 0b111;

/// Two-bit `fmt` field for the non-alternate formats; binary16alt shares
/// binary16's field and is distinguished by the rm/funct3 marker.
fn fmt_field(fmt: FormatKind) -> u32 {
    match fmt {
        FormatKind::Binary32 => 0b00,
        FormatKind::Binary16 | FormatKind::Binary16Alt => 0b10,
        FormatKind::Binary8 => 0b11,
    }
}

/// Decodes a `fmt` field + alternate marker into a platform format.
fn fmt_of_field(field: u32, alt: bool) -> Option<FormatKind> {
    match (field, alt) {
        (0b00, false) => Some(FormatKind::Binary32),
        (0b10, false) => Some(FormatKind::Binary16),
        (0b10, true) => Some(FormatKind::Binary16Alt),
        (0b11, false) => Some(FormatKind::Binary8),
        _ => None, // 0b01 is the absent binary64; alt only pairs with 0b10
    }
}

/// `rs2` field of an FCVT: source format code, bit 2 = alternate marker.
fn cvt_src_field(fmt: FormatKind) -> u32 {
    match fmt {
        FormatKind::Binary32 => 0b00000,
        FormatKind::Binary16 => 0b00010,
        FormatKind::Binary16Alt => 0b00110,
        FormatKind::Binary8 => 0b00011,
    }
}

fn cvt_src_of_field(field: u32) -> Option<FormatKind> {
    match field {
        0b00000 => Some(FormatKind::Binary32),
        0b00010 => Some(FormatKind::Binary16),
        0b00110 => Some(FormatKind::Binary16Alt),
        0b00011 => Some(FormatKind::Binary8),
        _ => None,
    }
}

/// Encodes the (format, rounding) pair of a rounded OP-FP instruction into
/// its `rm` field: binary16alt hijacks the field with the alt marker.
fn rounded_rm_field(fmt: FormatKind, rm: Rm) -> u32 {
    if fmt == FormatKind::Binary16Alt {
        RM_ALT
    } else {
        match rm {
            Rm::Rne => RM_RNE,
            Rm::Dyn => RM_DYN,
        }
    }
}

/// Decodes the `rm` field of a rounded OP-FP instruction against its `fmt`
/// field. Returns the resolved format and rounding mode.
fn rounded_rm_of_field(fmt_field: u32, rm: u32) -> Option<(FormatKind, Rm)> {
    if rm == RM_ALT {
        return Some((fmt_of_field(fmt_field, true)?, Rm::Dyn));
    }
    let fmt = fmt_of_field(fmt_field, false)?;
    match rm {
        RM_RNE => Some((fmt, Rm::Rne)),
        RM_DYN => Some((fmt, Rm::Dyn)),
        _ => None, // RTZ/RDN/RUP/RMM: no nearest-even-only datapath accepts them
    }
}

/// `funct3` of a selector-style OP-FP instruction: the selector in bits
/// 1:0 plus the alternate-half marker in bit 2.
fn selector_field(fmt: FormatKind, selector: u32) -> u32 {
    debug_assert!(selector < 0b100);
    if fmt == FormatKind::Binary16Alt {
        selector | 0b100
    } else {
        selector
    }
}

fn field(word: u32, lo: u32, bits: u32) -> u32 {
    (word >> lo) & ((1 << bits) - 1)
}

fn rd_of(word: u32) -> u8 {
    field(word, 7, 5) as u8
}
fn rs1_of(word: u32) -> u8 {
    field(word, 15, 5) as u8
}
fn rs2_of(word: u32) -> u8 {
    field(word, 20, 5) as u8
}
fn funct3_of(word: u32) -> u32 {
    field(word, 12, 3)
}
fn funct7_of(word: u32) -> u32 {
    field(word, 25, 7)
}

fn sign_extend(value: u32, bits: u32) -> i32 {
    let shift = 32 - bits;
    ((value << shift) as i32) >> shift
}

fn i_imm(word: u32) -> i32 {
    sign_extend(field(word, 20, 12), 12)
}

fn s_imm(word: u32) -> i32 {
    sign_extend(field(word, 25, 7) << 5 | field(word, 7, 5), 12)
}

fn b_imm(word: u32) -> i32 {
    let v = field(word, 31, 1) << 12
        | field(word, 7, 1) << 11
        | field(word, 25, 6) << 5
        | field(word, 8, 4) << 1;
    sign_extend(v, 13)
}

fn j_imm(word: u32) -> i32 {
    let v = field(word, 31, 1) << 20
        | field(word, 12, 8) << 12
        | field(word, 20, 1) << 11
        | field(word, 21, 10) << 1;
    sign_extend(v, 21)
}

fn r_type(funct7: u32, rs2: u32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    funct7 << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | opcode
}

fn i_type(imm: i32, rs1: u32, funct3: u32, rd: u32, opcode: u32) -> u32 {
    assert!(
        (-2048..=2047).contains(&imm),
        "I-immediate {imm} out of range"
    );
    (imm as u32 & 0xFFF) << 20 | rs1 << 15 | funct3 << 12 | rd << 7 | opcode
}

fn s_type(imm: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    assert!(
        (-2048..=2047).contains(&imm),
        "S-immediate {imm} out of range"
    );
    let imm = imm as u32 & 0xFFF;
    (imm >> 5) << 25 | rs2 << 20 | rs1 << 15 | funct3 << 12 | (imm & 0x1F) << 7 | opcode
}

fn b_type(offset: i32, rs2: u32, rs1: u32, funct3: u32, opcode: u32) -> u32 {
    assert!(
        (-4096..=4094).contains(&offset) && offset % 2 == 0,
        "branch offset {offset} out of range or odd"
    );
    let imm = offset as u32 & 0x1FFF;
    field(imm, 12, 1) << 31
        | field(imm, 5, 6) << 25
        | rs2 << 20
        | rs1 << 15
        | funct3 << 12
        | field(imm, 1, 4) << 8
        | field(imm, 11, 1) << 7
        | opcode
}

fn j_type(offset: i32, rd: u32, opcode: u32) -> u32 {
    assert!(
        (-(1 << 20)..(1 << 20)).contains(&offset) && offset % 2 == 0,
        "jump offset {offset} out of range or odd"
    );
    let imm = offset as u32 & 0x1F_FFFF;
    field(imm, 20, 1) << 31
        | field(imm, 1, 10) << 21
        | field(imm, 11, 1) << 20
        | field(imm, 12, 8) << 12
        | rd << 7
        | opcode
}

/// Encodes an instruction into its 32-bit word.
///
/// # Panics
///
/// Panics on out-of-range immediates (the typed [`Asm`](crate::Asm)
/// builder validates them at emit time, so a panic here is a builder bug).
#[must_use]
pub fn encode(instr: &Instr) -> u32 {
    use Instr::*;
    match *instr {
        Lui { rd, imm20 } => {
            assert!(
                (-(1 << 19)..(1 << 19)).contains(&imm20),
                "LUI immediate {imm20} out of range"
            );
            (imm20 as u32 & 0xF_FFFF) << 12 | u32::from(rd.num()) << 7 | OP_LUI
        }
        Addi { rd, rs1, imm } => i_type(imm, rs1.num().into(), 0b000, rd.num().into(), OP_IMM),
        Slli { rd, rs1, shamt } => {
            assert!(shamt < 32, "SLLI shift amount {shamt} out of range");
            r_type(0, shamt, rs1.num().into(), 0b001, rd.num().into(), OP_IMM)
        }
        Add { rd, rs1, rs2 } => r_type(
            0,
            rs2.num().into(),
            rs1.num().into(),
            0b000,
            rd.num().into(),
            OP,
        ),
        Sub { rd, rs1, rs2 } => r_type(
            0b010_0000,
            rs2.num().into(),
            rs1.num().into(),
            0b000,
            rd.num().into(),
            OP,
        ),
        Mul { rd, rs1, rs2 } => r_type(
            0b000_0001,
            rs2.num().into(),
            rs1.num().into(),
            0b000,
            rd.num().into(),
            OP,
        ),
        Lw { rd, rs1, imm } => i_type(imm, rs1.num().into(), 0b010, rd.num().into(), OP_LOAD),
        Sw { rs2, rs1, imm } => s_type(imm, rs2.num().into(), rs1.num().into(), 0b010, OP_STORE),
        Beq { rs1, rs2, offset } => {
            b_type(offset, rs2.num().into(), rs1.num().into(), 0b000, OP_BRANCH)
        }
        Bne { rs1, rs2, offset } => {
            b_type(offset, rs2.num().into(), rs1.num().into(), 0b001, OP_BRANCH)
        }
        Blt { rs1, rs2, offset } => {
            b_type(offset, rs2.num().into(), rs1.num().into(), 0b100, OP_BRANCH)
        }
        Bge { rs1, rs2, offset } => {
            b_type(offset, rs2.num().into(), rs1.num().into(), 0b101, OP_BRANCH)
        }
        Jal { rd, offset } => j_type(offset, rd.num().into(), OP_JAL),
        Ecall => OP_SYSTEM,
        Csrrw { rd, csr, rs1 } => r_type(
            u32::from(csr) >> 5,
            u32::from(csr) & 0x1F,
            rs1.num().into(),
            0b001,
            rd.num().into(),
            OP_SYSTEM,
        ),
        Csrrs { rd, csr, rs1 } => r_type(
            u32::from(csr) >> 5,
            u32::from(csr) & 0x1F,
            rs1.num().into(),
            0b010,
            rd.num().into(),
            OP_SYSTEM,
        ),
        FLoad {
            width,
            rd,
            rs1,
            imm,
        } => i_type(
            imm,
            rs1.num().into(),
            width.funct3(),
            rd.num().into(),
            OP_LOAD_FP,
        ),
        FStore {
            width,
            rs2,
            rs1,
            imm,
        } => s_type(
            imm,
            rs2.num().into(),
            rs1.num().into(),
            width.funct3(),
            OP_STORE_FP,
        ),
        FArith {
            op,
            fmt,
            rd,
            rs1,
            rs2,
            rm,
        } => {
            let f5 = match op {
                FpAluOp::Add => F5_ADD,
                FpAluOp::Sub => F5_SUB,
                FpAluOp::Mul => F5_MUL,
                FpAluOp::Div => F5_DIV,
            };
            r_type(
                f5 << 2 | fmt_field(fmt),
                rs2.num().into(),
                rs1.num().into(),
                rounded_rm_field(fmt, rm),
                rd.num().into(),
                OP_FP,
            )
        }
        FSqrt { fmt, rd, rs1, rm } => r_type(
            F5_SQRT << 2 | fmt_field(fmt),
            0,
            rs1.num().into(),
            rounded_rm_field(fmt, rm),
            rd.num().into(),
            OP_FP,
        ),
        FSgnj {
            fmt,
            mode,
            rd,
            rs1,
            rs2,
        } => {
            let selector = match mode {
                SgnjMode::Inj => 0b000,
                SgnjMode::Neg => 0b001,
                SgnjMode::Xor => 0b010,
            };
            r_type(
                F5_SGNJ << 2 | fmt_field(fmt),
                rs2.num().into(),
                rs1.num().into(),
                selector_field(fmt, selector),
                rd.num().into(),
                OP_FP,
            )
        }
        FMinMax {
            fmt,
            max,
            rd,
            rs1,
            rs2,
        } => r_type(
            F5_MINMAX << 2 | fmt_field(fmt),
            rs2.num().into(),
            rs1.num().into(),
            selector_field(fmt, u32::from(max)),
            rd.num().into(),
            OP_FP,
        ),
        FCmp {
            fmt,
            cmp,
            rd,
            rs1,
            rs2,
        } => {
            let selector = match cmp {
                CmpOp::Le => 0b000,
                CmpOp::Lt => 0b001,
                CmpOp::Eq => 0b010,
            };
            r_type(
                F5_CMP << 2 | fmt_field(fmt),
                rs2.num().into(),
                rs1.num().into(),
                selector_field(fmt, selector),
                rd.num().into(),
                OP_FP,
            )
        }
        FCvt {
            to,
            from,
            rd,
            rs1,
            rm,
        } => {
            assert!(to != from, "FCVT between identical formats is reserved");
            r_type(
                F5_CVT_FF << 2 | fmt_field(to),
                cvt_src_field(from),
                rs1.num().into(),
                rounded_rm_field(to, rm),
                rd.num().into(),
                OP_FP,
            )
        }
        FMvToFp { fmt, rd, rs1 } => r_type(
            F5_MV_F_X << 2 | fmt_field(fmt),
            0,
            rs1.num().into(),
            selector_field(fmt, 0),
            rd.num().into(),
            OP_FP,
        ),
        FMvToInt { fmt, rd, rs1 } => r_type(
            F5_MV_X_F << 2 | fmt_field(fmt),
            0,
            rs1.num().into(),
            selector_field(fmt, 0),
            rd.num().into(),
            OP_FP,
        ),
    }
}

/// Decodes a selector-style `funct3` field: returns the selector and the
/// resolved format (the alternate-half marker is `funct3[2]`, valid only
/// on the binary16 `fmt` field).
fn selector_of(word: u32) -> Option<(u32, FormatKind)> {
    let funct3 = funct3_of(word);
    let fmt = fmt_of_field(field(word, 25, 2), funct3 & 0b100 != 0)?;
    Some((funct3 & 0b011, fmt))
}

/// Decodes one 32-bit instruction word.
///
/// # Errors
///
/// Returns [`IllegalInstruction`] for any word outside the implemented
/// instruction space — unknown opcodes, reserved format/rounding/selector
/// fields, nonzero bits in fields the instruction requires to be zero.
pub fn decode(word: u32) -> Result<Instr, IllegalInstruction> {
    use Instr::*;
    let illegal = || IllegalInstruction(word);
    let rd = || x(rd_of(word));
    let rs1 = || x(rs1_of(word));
    let rs2 = || x(rs2_of(word));
    let frd = || f(rd_of(word));
    let frs1 = || f(rs1_of(word));
    let frs2 = || f(rs2_of(word));

    let instr = match field(word, 0, 7) {
        OP_LUI => Lui {
            rd: rd(),
            imm20: sign_extend(field(word, 12, 20), 20),
        },
        OP_IMM => match funct3_of(word) {
            0b000 => Addi {
                rd: rd(),
                rs1: rs1(),
                imm: i_imm(word),
            },
            0b001 if funct7_of(word) == 0 => Slli {
                rd: rd(),
                rs1: rs1(),
                shamt: field(word, 20, 5),
            },
            _ => return Err(illegal()),
        },
        OP => match (funct7_of(word), funct3_of(word)) {
            (0b000_0000, 0b000) => Add {
                rd: rd(),
                rs1: rs1(),
                rs2: rs2(),
            },
            (0b010_0000, 0b000) => Sub {
                rd: rd(),
                rs1: rs1(),
                rs2: rs2(),
            },
            (0b000_0001, 0b000) => Mul {
                rd: rd(),
                rs1: rs1(),
                rs2: rs2(),
            },
            _ => return Err(illegal()),
        },
        OP_LOAD => match funct3_of(word) {
            0b010 => Lw {
                rd: rd(),
                rs1: rs1(),
                imm: i_imm(word),
            },
            _ => return Err(illegal()),
        },
        OP_STORE => match funct3_of(word) {
            0b010 => Sw {
                rs2: rs2(),
                rs1: rs1(),
                imm: s_imm(word),
            },
            _ => return Err(illegal()),
        },
        OP_BRANCH => {
            let offset = b_imm(word);
            match funct3_of(word) {
                0b000 => Beq {
                    rs1: rs1(),
                    rs2: rs2(),
                    offset,
                },
                0b001 => Bne {
                    rs1: rs1(),
                    rs2: rs2(),
                    offset,
                },
                0b100 => Blt {
                    rs1: rs1(),
                    rs2: rs2(),
                    offset,
                },
                0b101 => Bge {
                    rs1: rs1(),
                    rs2: rs2(),
                    offset,
                },
                _ => return Err(illegal()),
            }
        }
        OP_JAL => Jal {
            rd: rd(),
            offset: j_imm(word),
        },
        OP_SYSTEM => match funct3_of(word) {
            0b000 if word == OP_SYSTEM => Ecall,
            f3 @ (0b001 | 0b010) => {
                let csr = field(word, 20, 12) as u16;
                if !matches!(csr, csr_addr::FFLAGS | csr_addr::FRM | csr_addr::FCSR) {
                    return Err(illegal());
                }
                if f3 == 0b001 {
                    Csrrw {
                        rd: rd(),
                        csr,
                        rs1: rs1(),
                    }
                } else {
                    Csrrs {
                        rd: rd(),
                        csr,
                        rs1: rs1(),
                    }
                }
            }
            _ => return Err(illegal()),
        },
        OP_LOAD_FP => {
            let width = match funct3_of(word) {
                0b000 => MemWidth::B8,
                0b001 => MemWidth::H16,
                0b010 => MemWidth::W32,
                _ => return Err(illegal()),
            };
            FLoad {
                width,
                rd: frd(),
                rs1: rs1(),
                imm: i_imm(word),
            }
        }
        OP_STORE_FP => {
            let width = match funct3_of(word) {
                0b000 => MemWidth::B8,
                0b001 => MemWidth::H16,
                0b010 => MemWidth::W32,
                _ => return Err(illegal()),
            };
            FStore {
                width,
                rs2: frs2(),
                rs1: rs1(),
                imm: s_imm(word),
            }
        }
        OP_FP => {
            let funct5 = field(word, 27, 5);
            let fmt_bits = field(word, 25, 2);
            match funct5 {
                F5_ADD | F5_SUB | F5_MUL | F5_DIV => {
                    let (fmt, rm) =
                        rounded_rm_of_field(fmt_bits, funct3_of(word)).ok_or_else(illegal)?;
                    let op = match funct5 {
                        F5_ADD => FpAluOp::Add,
                        F5_SUB => FpAluOp::Sub,
                        F5_MUL => FpAluOp::Mul,
                        _ => FpAluOp::Div,
                    };
                    FArith {
                        op,
                        fmt,
                        rd: frd(),
                        rs1: frs1(),
                        rs2: frs2(),
                        rm,
                    }
                }
                F5_SQRT => {
                    if rs2_of(word) != 0 {
                        return Err(illegal());
                    }
                    let (fmt, rm) =
                        rounded_rm_of_field(fmt_bits, funct3_of(word)).ok_or_else(illegal)?;
                    FSqrt {
                        fmt,
                        rd: frd(),
                        rs1: frs1(),
                        rm,
                    }
                }
                F5_SGNJ => {
                    let (selector, fmt) = selector_of(word).ok_or_else(illegal)?;
                    let mode = match selector {
                        0b000 => SgnjMode::Inj,
                        0b001 => SgnjMode::Neg,
                        0b010 => SgnjMode::Xor,
                        _ => return Err(illegal()),
                    };
                    FSgnj {
                        fmt,
                        mode,
                        rd: frd(),
                        rs1: frs1(),
                        rs2: frs2(),
                    }
                }
                F5_MINMAX => {
                    let (selector, fmt) = selector_of(word).ok_or_else(illegal)?;
                    if selector > 1 {
                        return Err(illegal());
                    }
                    FMinMax {
                        fmt,
                        max: selector == 1,
                        rd: frd(),
                        rs1: frs1(),
                        rs2: frs2(),
                    }
                }
                F5_CMP => {
                    let (selector, fmt) = selector_of(word).ok_or_else(illegal)?;
                    let cmp = match selector {
                        0b000 => CmpOp::Le,
                        0b001 => CmpOp::Lt,
                        0b010 => CmpOp::Eq,
                        _ => return Err(illegal()),
                    };
                    FCmp {
                        fmt,
                        cmp,
                        rd: rd(),
                        rs1: frs1(),
                        rs2: frs2(),
                    }
                }
                F5_CVT_FF => {
                    let (to, rm) =
                        rounded_rm_of_field(fmt_bits, funct3_of(word)).ok_or_else(illegal)?;
                    let from = cvt_src_of_field(field(word, 20, 5)).ok_or_else(illegal)?;
                    if to == from {
                        return Err(illegal());
                    }
                    FCvt {
                        to,
                        from,
                        rd: frd(),
                        rs1: frs1(),
                        rm,
                    }
                }
                F5_MV_F_X | F5_MV_X_F => {
                    if rs2_of(word) != 0 {
                        return Err(illegal());
                    }
                    let (selector, fmt) = selector_of(word).ok_or_else(illegal)?;
                    if selector != 0 {
                        return Err(illegal());
                    }
                    if funct5 == F5_MV_F_X {
                        FMvToFp {
                            fmt,
                            rd: frd(),
                            rs1: rs1(),
                        }
                    } else {
                        FMvToInt {
                            fmt,
                            rd: rd(),
                            rs1: frs1(),
                        }
                    }
                }
                _ => return Err(illegal()),
            }
        }
        _ => return Err(illegal()),
    };
    Ok(instr)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_rv32i_encodings() {
        // Hand-checked against the RV32I listings: these are standard
        // instructions, so the bit layout must match the architecture.
        assert_eq!(
            encode(&Instr::Addi {
                rd: x(1),
                rs1: Reg::ZERO,
                imm: 5
            }),
            0x0050_0093
        );
        assert_eq!(
            encode(&Instr::Add {
                rd: x(3),
                rs1: x(1),
                rs2: x(2)
            }),
            0x0020_81B3
        );
        assert_eq!(encode(&Instr::Lui { rd: x(5), imm20: 1 }), 0x0000_12B7);
        assert_eq!(encode(&Instr::Ecall), 0x0000_0073);
        // FLW f1, 0(x2) — standard F-extension load.
        assert_eq!(
            encode(&Instr::FLoad {
                width: MemWidth::W32,
                rd: f(1),
                rs1: x(2),
                imm: 0
            }),
            0x0001_2087
        );
    }

    #[test]
    fn branch_offset_round_trips_at_boundaries() {
        for offset in [-4096, -2, 0, 2, 4094] {
            let i = Instr::Blt {
                rs1: x(1),
                rs2: x(2),
                offset,
            };
            assert_eq!(decode(encode(&i)), Ok(i), "offset {offset}");
        }
    }

    #[test]
    fn alt_half_markers_distinguish_the_formats() {
        let half = Instr::FArith {
            op: FpAluOp::Add,
            fmt: FormatKind::Binary16,
            rd: f(1),
            rs1: f(2),
            rs2: f(3),
            rm: Rm::Rne,
        };
        let alt = Instr::FArith {
            op: FpAluOp::Add,
            fmt: FormatKind::Binary16Alt,
            rd: f(1),
            rs1: f(2),
            rs2: f(3),
            rm: Rm::Dyn,
        };
        let (wh, wa) = (encode(&half), encode(&alt));
        assert_ne!(wh, wa);
        // Same fmt field, different rm field — the Xf16alt convention.
        assert_eq!(field(wh, 25, 2), field(wa, 25, 2));
        assert_eq!(field(wa, 12, 3), RM_ALT);
        assert_eq!(decode(wh), Ok(half));
        assert_eq!(decode(wa), Ok(alt));
    }

    #[test]
    fn binary64_slot_is_illegal() {
        // FADD.D: funct5 00000, fmt 01 — the platform has no binary64 unit.
        let word = r_type(0b0000001, 3, 2, RM_RNE, 1, OP_FP);
        assert_eq!(decode(word), Err(IllegalInstruction(word)));
    }

    #[test]
    fn directed_rounding_modes_are_rejected() {
        // FADD.S with rm=001 (RTZ): the nearest-even-only datapaths do not
        // implement directed rounding.
        let word = r_type(0, 3, 2, 0b001, 1, OP_FP);
        assert_eq!(decode(word), Err(IllegalInstruction(word)));
    }

    #[test]
    fn reserved_same_format_fcvt_is_illegal() {
        let word = r_type(
            F5_CVT_FF << 2 | fmt_field(FormatKind::Binary32),
            cvt_src_field(FormatKind::Binary32),
            2,
            RM_RNE,
            1,
            OP_FP,
        );
        assert_eq!(decode(word), Err(IllegalInstruction(word)));
    }

    #[test]
    fn unknown_csr_is_illegal() {
        let word = i_type(0x300, 0, 0b010, 5, OP_SYSTEM); // mstatus: not ours
        assert_eq!(decode(word), Err(IllegalInstruction(word)));
    }
}
