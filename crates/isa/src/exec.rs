//! The instruction-stream executor.
//!
//! [`Machine`] models the platform core's architectural state — 32 integer
//! registers, 32 FP registers holding *raw format-encoded bit patterns*, a
//! flat little-endian data memory, the [`Fcsr`] — and retires one decoded
//! instruction per step. Code lives in its own space (`pc` is a word index
//! into [`Program::code`]), Harvard-style, so it never changes while the
//! machine runs: [`Machine::new`] decodes every word once, and each step
//! fetches the decoded instruction. A word that does not decode is kept as
//! its [`IllegalInstruction`] and faults only when the pc reaches it, so
//! junk after the halting `ecall` is harmless, as it is on hardware.
//!
//! Two contracts make the executor useful rather than just plausible:
//!
//! * **Bit-exactness.** Every FP arithmetic, comparison and conversion
//!   instruction calls the [op cell](flexfloat::cell) its `Fx` twin calls,
//!   on the thread's active [`FpBackend`]. An FP register read decodes the
//!   register's bits in the instruction's format, the cell computes on the
//!   in-grid `f64`, and the result is re-encoded with `encode_in_grid` (an
//!   exact inverse for in-grid values). So a stream and its closure twin
//!   produce bit-identical outputs under any backend (pinned per kernel by
//!   `tests/isa_equivalence.rs`, per instruction by
//!   `tests/isa_op_parity.rs`).
//! * **Counting parity.** The cells emit those instructions' [`Recorder`]
//!   events, from the producer ids the executor keeps per FP register as
//!   `Fx` keeps one per value. The executor records the rest under the
//!   closure kernels' rules: FP loads produce no stall dependency,
//!   sign-injection and moves are free (never recorded — they mirror
//!   `Fx::neg`/`Fx::new`, which hardware folds into register reads), and
//!   every integer instruction counts one `int_ops`. The analytic cycle
//!   model therefore prices a stream with the rules it prices a closure
//!   trace.
//!
//! Exception flags accrue into `fcsr.fflags` after every cell call, so at
//! any halt point the architectural flags equal the union the backend
//! raised since the last `fflags` write (`Engine::flags` reconciliation).

use std::sync::Arc;

use flexfloat::backend::{Emulated, Engine, FpBackend};
use flexfloat::{cell, BinOp, EventId, Recorder};
use tp_formats::FormatKind;

use crate::asm::Program;
use crate::csr::{Fcsr, FRM_RNE};
use crate::decode::{
    csr_addr, decode, FReg, FpAluOp, IllegalInstruction, Instr, Reg, Rm, SgnjMode,
};

/// Why a run stopped abnormally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecError {
    /// The fetched word does not decode (pc is the word index).
    Illegal {
        /// Word index of the instruction.
        pc: usize,
        /// The undecodable word.
        word: u32,
    },
    /// Control flow left the code region without halting.
    PcOutOfRange {
        /// The out-of-range word index.
        pc: usize,
    },
    /// A data access fell outside memory.
    MemAccess {
        /// Byte address of the access.
        addr: u32,
        /// Access width in bytes.
        len: u32,
    },
    /// A data access violated natural alignment.
    Misaligned {
        /// Byte address of the access.
        addr: u32,
        /// Access width in bytes.
        len: u32,
    },
    /// A dynamic-rounding instruction executed with `frm` set to a mode
    /// the nearest-even-only datapaths do not implement.
    UnsupportedRounding {
        /// The offending `frm` value.
        frm: u32,
    },
    /// The instruction budget ran out — almost always a loop that never
    /// reaches its `ecall`.
    OutOfFuel,
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            ExecError::Illegal { pc, word } => {
                write!(f, "illegal instruction {word:#010x} at pc {pc}")
            }
            ExecError::PcOutOfRange { pc } => write!(f, "pc {pc} outside code region"),
            ExecError::MemAccess { addr, len } => {
                write!(f, "memory access of {len} bytes at {addr:#x} out of range")
            }
            ExecError::Misaligned { addr, len } => {
                write!(f, "misaligned {len}-byte access at {addr:#x}")
            }
            ExecError::UnsupportedRounding { frm } => {
                write!(f, "dynamic rounding under unsupported frm={frm:#05b}")
            }
            ExecError::OutOfFuel => write!(f, "instruction budget exhausted"),
        }
    }
}

impl std::error::Error for ExecError {}

/// Retirement counts of one [`Machine::run`].
///
/// `backend_fp_ops()` is the bridge to the measured side: every retired
/// instruction in that count made exactly one op-cell call, and so one
/// `FpBackend` call when a backend is installed, so under
/// `tp_fpu::FpuModel` it equals the model's retired-FP-instruction count —
/// the per-retired-instruction accounting hook `exp_isa_validate` checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Total instructions retired (including the halting `ecall`).
    pub retired: u64,
    /// Integer/control instructions retired (each recorded as one
    /// `int_ops` event).
    pub int_retired: u64,
    /// FP arithmetic instructions retired (add/sub/mul/div/sqrt).
    pub fp_arith: u64,
    /// FP comparison instructions retired (fle/flt/feq/fmin/fmax).
    pub fp_cmp: u64,
    /// FP format conversions retired.
    pub fp_casts: u64,
    /// FP loads retired.
    pub fp_loads: u64,
    /// FP stores retired.
    pub fp_stores: u64,
    /// Free FP instructions retired (sign-injection, moves) — never
    /// recorded, never dispatched to the backend.
    pub fp_moves: u64,
}

impl RunStats {
    /// Retired FP instructions that made exactly one backend call.
    #[must_use]
    pub fn backend_fp_ops(&self) -> u64 {
        self.fp_arith + self.fp_cmp + self.fp_casts
    }
}

/// Default instruction budget: generous for every shipped kernel at paper
/// sizes, small enough that a runaway loop fails in well under a second.
pub const DEFAULT_FUEL: u64 = 1 << 26;

/// The architectural state of the platform core plus its data memory.
pub struct Machine {
    /// [`Program::code`] decoded once, one entry per word: `pc` indexes it.
    code: Box<[Result<Instr, IllegalInstruction>]>,
    /// Integer register file (`x0` reads as zero; writes to it are
    /// discarded).
    xregs: [u32; 32],
    /// FP register file: raw format-encoded bits, low `width_bits` of the
    /// instruction's format significant (no NaN-boxing — the platform
    /// frontend zero-extends instead; see DESIGN.md §11).
    fregs: [u64; 32],
    /// Recorder event that produced each FP register's current value
    /// (0 = none), mirroring `Fx::prod` for stall accounting.
    fp_prod: [EventId; 32],
    pc: usize,
    mem: Vec<u8>,
    /// The FP control and status register.
    pub fcsr: Fcsr,
    fuel: u64,
}

impl Machine {
    /// Creates a machine for `program` with `mem_bytes` of zeroed data
    /// memory, pc at 0 and [`DEFAULT_FUEL`]. Decodes the whole program
    /// here; an undecodable word faults only if it is reached.
    #[must_use]
    pub fn new(program: Program, mem_bytes: usize) -> Machine {
        Machine {
            code: program.code.iter().map(|&word| decode(word)).collect(),
            xregs: [0; 32],
            fregs: [0; 32],
            fp_prod: [0; 32],
            pc: 0,
            mem: vec![0; mem_bytes],
            fcsr: Fcsr::default(),
            fuel: DEFAULT_FUEL,
        }
    }

    /// Replaces the instruction budget for the next [`Machine::run`].
    pub fn set_fuel(&mut self, fuel: u64) {
        self.fuel = fuel;
    }

    /// Reads integer register `r`.
    #[must_use]
    pub fn xreg(&self, r: Reg) -> u32 {
        self.xregs[r.num() as usize]
    }

    /// Writes integer register `r` (writes to `x0` are discarded).
    pub fn set_xreg(&mut self, r: Reg, value: u32) {
        if r.num() != 0 {
            self.xregs[r.num() as usize] = value;
        }
    }

    /// Raw bits of FP register `n`.
    #[must_use]
    pub fn freg_bits(&self, n: u8) -> u64 {
        self.fregs[n as usize]
    }

    /// Writes `values` into memory at `addr` as consecutive `fmt`
    /// elements, rounding each to the format's grid first — exactly what
    /// `FxArray::from_f64s` does, so both worlds start from the same bits.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit in memory (a harness bug, not a
    /// guest program condition).
    pub fn write_fp_slice(&mut self, fmt: FormatKind, addr: u32, values: &[f64]) {
        let w = fmt.width_bytes();
        for (i, &v) in values.iter().enumerate() {
            let bits = fmt.format().encode_in_grid(fmt.format().sanitize_f64(v));
            self.store_raw(addr + i as u32 * w, w, bits as u32)
                .expect("fp slice outside memory");
        }
    }

    /// Reads `len` consecutive `fmt` elements at `addr`, decoded to their
    /// in-grid `f64` values.
    ///
    /// # Panics
    ///
    /// Panics if the slice does not fit in memory.
    #[must_use]
    pub fn read_fp_slice(&self, fmt: FormatKind, addr: u32, len: usize) -> Vec<f64> {
        let w = fmt.width_bytes();
        (0..len)
            .map(|i| {
                let bits = self
                    .load_raw(addr + i as u32 * w, w)
                    .expect("fp slice outside memory");
                fmt.format().decode_to_f64(u64::from(bits))
            })
            .collect()
    }

    fn check_access(&self, addr: u32, len: u32) -> Result<usize, ExecError> {
        if !addr.is_multiple_of(len) {
            return Err(ExecError::Misaligned { addr, len });
        }
        let end = addr as usize + len as usize;
        if end > self.mem.len() {
            return Err(ExecError::MemAccess { addr, len });
        }
        Ok(addr as usize)
    }

    fn load_raw(&self, addr: u32, len: u32) -> Result<u32, ExecError> {
        let at = self.check_access(addr, len)?;
        let m = &self.mem[at..];
        Ok(match len {
            1 => u32::from(m[0]),
            2 => u32::from(u16::from_le_bytes([m[0], m[1]])),
            _ => u32::from_le_bytes([m[0], m[1], m[2], m[3]]),
        })
    }

    fn store_raw(&mut self, addr: u32, len: u32, value: u32) -> Result<(), ExecError> {
        let at = self.check_access(addr, len)?;
        let len = len as usize;
        self.mem[at..at + len].copy_from_slice(&value.to_le_bytes()[..len]);
        Ok(())
    }

    /// Reads FP register `n` as an in-grid `f64` in `fmt` (masking to the
    /// format width first — the registers are not NaN-boxed).
    fn fp_read(&self, n: u8, fmt: FormatKind) -> f64 {
        let mask = (1u64 << fmt.width_bits()) - 1;
        fmt.format().decode_to_f64(self.fregs[n as usize] & mask)
    }

    /// Two FP source registers read in `fmt`, with their producer ids as
    /// an op cell takes them.
    fn operands(&self, fmt: FormatKind, rs1: FReg, rs2: FReg) -> (f64, f64, (EventId, EventId)) {
        let (i, j) = (rs1.num(), rs2.num());
        let deps = (self.fp_prod[i as usize], self.fp_prod[j as usize]);
        (self.fp_read(i, fmt), self.fp_read(j, fmt), deps)
    }

    /// Writes an in-grid `f64` into FP register `n`, re-encoded in `fmt`.
    fn fp_write(&mut self, n: u8, fmt: FormatKind, value: f64, prod: EventId) {
        self.fregs[n as usize] = fmt.format().encode_in_grid(value);
        self.fp_prod[n as usize] = prod;
    }

    /// Resolves an instruction's rounding mode against `frm`. The
    /// datapaths are nearest-even-only, so anything else traps.
    fn check_rm(&self, rm: Rm) -> Result<(), ExecError> {
        match rm {
            Rm::Rne => Ok(()),
            Rm::Dyn if self.fcsr.frm == FRM_RNE => Ok(()),
            Rm::Dyn => Err(ExecError::UnsupportedRounding { frm: self.fcsr.frm }),
        }
    }

    fn csr_read(&self, csr: u16) -> u32 {
        match csr {
            csr_addr::FFLAGS => self.fcsr.fflags,
            csr_addr::FRM => self.fcsr.frm,
            _ => self.fcsr.read(),
        }
    }

    /// Writes a CSR. Any write that replaces `fflags` also resets the
    /// backend's accrued flags, so the architectural register keeps
    /// meaning "flags since the last fflags write" on both sides of the
    /// reconciliation.
    fn csr_write(&mut self, csr: u16, value: u32, backend: &dyn FpBackend) {
        match csr {
            csr_addr::FFLAGS => {
                self.fcsr.fflags = value & 0x1F;
                backend.clear_flags();
            }
            csr_addr::FRM => self.fcsr.frm = value & 0b111,
            _ => {
                self.fcsr.write(value);
                backend.clear_flags();
            }
        }
    }

    /// Runs from the current pc until `ecall`, an error, or fuel
    /// exhaustion. FP instructions compute through the op cells on the
    /// thread's active backend, whose flags (resolved once via
    /// [`Engine::current`]) accrue into `fcsr`; events feed the thread's
    /// [`Recorder`] under the closure kernels' exact rules (module docs).
    ///
    /// # Errors
    ///
    /// Any [`ExecError`]; architectural state is left at the faulting
    /// instruction for inspection.
    pub fn run(&mut self) -> Result<RunStats, ExecError> {
        let backend: Arc<dyn FpBackend> = Engine::current().unwrap_or_else(|| Arc::new(Emulated));
        let mut stats = RunStats::default();
        loop {
            if self.fuel == 0 {
                return Err(ExecError::OutOfFuel);
            }
            self.fuel -= 1;
            let instr = match self.code.get(self.pc) {
                Some(Ok(instr)) => *instr,
                Some(&Err(IllegalInstruction(word))) => {
                    return Err(ExecError::Illegal { pc: self.pc, word })
                }
                None => return Err(ExecError::PcOutOfRange { pc: self.pc }),
            };
            stats.retired += 1;
            if self.step(instr, backend.as_ref(), &mut stats)? {
                return Ok(stats);
            }
        }
    }

    /// Executes one decoded instruction; returns `true` on halt.
    #[allow(clippy::too_many_lines)] // one arm per instruction — splitting hides the ISA
    fn step(
        &mut self,
        instr: Instr,
        backend: &dyn FpBackend,
        stats: &mut RunStats,
    ) -> Result<bool, ExecError> {
        use Instr::*;
        let pc = self.pc;
        let mut next_pc = pc + 1;
        // Branch/jump offsets are bytes relative to this instruction; the
        // assembler only emits word-aligned offsets.
        let branch_to = |offset: i32| -> usize { (pc as i64 + i64::from(offset) / 4) as usize };
        match instr {
            Lui { rd, imm20 } => {
                int_op(stats);
                self.set_xreg(rd, (imm20 as u32) << 12);
            }
            Addi { rd, rs1, imm } => {
                int_op(stats);
                let v = self.xreg(rs1).wrapping_add(imm as u32);
                self.set_xreg(rd, v);
            }
            Slli { rd, rs1, shamt } => {
                int_op(stats);
                let v = self.xreg(rs1) << shamt;
                self.set_xreg(rd, v);
            }
            Add { rd, rs1, rs2 } => {
                int_op(stats);
                let v = self.xreg(rs1).wrapping_add(self.xreg(rs2));
                self.set_xreg(rd, v);
            }
            Sub { rd, rs1, rs2 } => {
                int_op(stats);
                let v = self.xreg(rs1).wrapping_sub(self.xreg(rs2));
                self.set_xreg(rd, v);
            }
            Mul { rd, rs1, rs2 } => {
                int_op(stats);
                let v = self.xreg(rs1).wrapping_mul(self.xreg(rs2));
                self.set_xreg(rd, v);
            }
            Lw { rd, rs1, imm } => {
                int_op(stats);
                let addr = self.xreg(rs1).wrapping_add(imm as u32);
                let v = self.load_raw(addr, 4)?;
                self.set_xreg(rd, v);
            }
            Sw { rs2, rs1, imm } => {
                int_op(stats);
                let addr = self.xreg(rs1).wrapping_add(imm as u32);
                self.store_raw(addr, 4, self.xreg(rs2))?;
            }
            Beq { rs1, rs2, offset } => {
                int_op(stats);
                if self.xreg(rs1) == self.xreg(rs2) {
                    next_pc = branch_to(offset);
                }
            }
            Bne { rs1, rs2, offset } => {
                int_op(stats);
                if self.xreg(rs1) != self.xreg(rs2) {
                    next_pc = branch_to(offset);
                }
            }
            Blt { rs1, rs2, offset } => {
                int_op(stats);
                if (self.xreg(rs1) as i32) < self.xreg(rs2) as i32 {
                    next_pc = branch_to(offset);
                }
            }
            Bge { rs1, rs2, offset } => {
                int_op(stats);
                if self.xreg(rs1) as i32 >= self.xreg(rs2) as i32 {
                    next_pc = branch_to(offset);
                }
            }
            Jal { rd, offset } => {
                int_op(stats);
                let link = (pc as u32 + 1) * 4;
                next_pc = branch_to(offset);
                self.set_xreg(rd, link);
            }
            Ecall => return Ok(true),
            Csrrw { rd, csr, rs1 } => {
                int_op(stats);
                let old = self.csr_read(csr);
                self.csr_write(csr, self.xreg(rs1), backend);
                self.set_xreg(rd, old);
            }
            Csrrs { rd, csr, rs1 } => {
                int_op(stats);
                let old = self.csr_read(csr);
                // CSRRS with rs1 = x0 is the canonical read: no write at
                // all, so it cannot clear backend flag accrual.
                if rs1 != Reg::ZERO {
                    self.csr_write(csr, old | self.xreg(rs1), backend);
                }
                self.set_xreg(rd, old);
            }
            FLoad {
                width,
                rd,
                rs1,
                imm,
            } => {
                stats.fp_loads += 1;
                let addr = self.xreg(rs1).wrapping_add(imm as u32);
                let bits = self.load_raw(addr, width.bytes())?;
                if Recorder::is_enabled() {
                    Recorder::load(width.bits());
                }
                // A loaded value never stalls a consumer (TCDM loads are
                // single-cycle) — same rule as FxArray::get.
                self.fregs[rd.num() as usize] = u64::from(bits);
                self.fp_prod[rd.num() as usize] = 0;
            }
            FStore {
                width,
                rs2,
                rs1,
                imm,
            } => {
                stats.fp_stores += 1;
                let addr = self.xreg(rs1).wrapping_add(imm as u32);
                let mask = (1u64 << width.bits()) - 1;
                let bits = (self.fregs[rs2.num() as usize] & mask) as u32;
                if Recorder::is_enabled() {
                    Recorder::store(width.bits());
                }
                self.store_raw(addr, width.bytes(), bits)?;
            }
            FArith {
                op,
                fmt,
                rd,
                rs1,
                rs2,
                rm,
            } => {
                self.check_rm(rm)?;
                stats.fp_arith += 1;
                let (a, b, deps) = self.operands(fmt, rs1, rs2);
                let op = match op {
                    FpAluOp::Add => BinOp::Add,
                    FpAluOp::Sub => BinOp::Sub,
                    FpAluOp::Mul => BinOp::Mul,
                    FpAluOp::Div => BinOp::Div,
                };
                let (val, prod) = cell::bin_op(fmt.format(), op, a, b, deps);
                self.fp_write(rd.num(), fmt, val, prod);
                self.fcsr.accrue(backend.flags());
            }
            FSqrt { fmt, rd, rs1, rm } => {
                self.check_rm(rm)?;
                stats.fp_arith += 1;
                let a = self.fp_read(rs1.num(), fmt);
                let (val, prod) = cell::sqrt(fmt.format(), a, self.fp_prod[rs1.num() as usize]);
                self.fp_write(rd.num(), fmt, val, prod);
                self.fcsr.accrue(backend.flags());
            }
            FSgnj {
                fmt,
                mode,
                rd,
                rs1,
                rs2,
            } => {
                // Sign manipulation is free: not recorded, no backend
                // call — the rule Fx::neg/Fx::abs establish.
                stats.fp_moves += 1;
                let shift = fmt.format().sign_shift();
                let mask = (1u64 << fmt.width_bits()) - 1;
                let a = self.fregs[rs1.num() as usize] & mask;
                let b = self.fregs[rs2.num() as usize] & mask;
                let sign = match mode {
                    SgnjMode::Inj => b >> shift & 1,
                    SgnjMode::Neg => !(b >> shift) & 1,
                    SgnjMode::Xor => (a ^ b) >> shift & 1,
                };
                self.fregs[rd.num() as usize] = a & !(1 << shift) | sign << shift;
                self.fp_prod[rd.num() as usize] = 0;
            }
            FMinMax {
                fmt,
                max,
                rd,
                rs1,
                rs2,
            } => {
                stats.fp_cmp += 1;
                let (a, b, deps) = self.operands(fmt, rs1, rs2);
                let (val, prod) = cell::min_max(fmt.format(), a, b, !max, deps);
                self.fp_write(rd.num(), fmt, val, prod);
                self.fcsr.accrue(backend.flags());
            }
            FCmp {
                fmt,
                cmp,
                rd,
                rs1,
                rs2,
            } => {
                stats.fp_cmp += 1;
                let (a, b, deps) = self.operands(fmt, rs1, rs2);
                let out = cell::cmp(fmt.format(), cmp, a, b, deps);
                self.set_xreg(rd, u32::from(out));
                self.fcsr.accrue(backend.flags());
            }
            FCvt {
                to,
                from,
                rd,
                rs1,
                rm,
            } => {
                self.check_rm(rm)?;
                stats.fp_casts += 1;
                let a = self.fp_read(rs1.num(), from);
                let val = cell::cast(from.format(), to.format(), a);
                // A conversion breaks the dependency chain (prod = 0),
                // exactly as Fx::convert does.
                self.fp_write(rd.num(), to, val, 0);
                self.fcsr.accrue(backend.flags());
            }
            FMvToFp { fmt, rd, rs1 } => {
                // Bit moves are free constant materialization — the ISA
                // twin of Fx::new, which is likewise unrecorded.
                stats.fp_moves += 1;
                let mask = (1u64 << fmt.width_bits()) - 1;
                self.fregs[rd.num() as usize] = u64::from(self.xreg(rs1)) & mask;
                self.fp_prod[rd.num() as usize] = 0;
            }
            FMvToInt { fmt, rd, rs1 } => {
                stats.fp_moves += 1;
                let mask = (1u64 << fmt.width_bits()) - 1;
                let bits = (self.fregs[rs1.num() as usize] & mask) as u32;
                self.set_xreg(rd, bits);
            }
        }
        self.pc = next_pc;
        Ok(false)
    }
}

/// Books one integer/control instruction: counted in the run stats and
/// recorded as one `int_ops` event (priced at the analytic model's integer
/// weight), matching how the closure kernels book their loop overhead.
fn int_op(stats: &mut RunStats) {
    stats.int_retired += 1;
    Recorder::int_ops(1);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asm::Asm;
    use crate::decode::{encode, f, x, MemWidth};

    fn run_asm(build: impl FnOnce(&mut Asm)) -> Machine {
        let mut asm = Asm::new();
        build(&mut asm);
        asm.push(Instr::Ecall);
        let mut machine = Machine::new(asm.assemble(), 4096);
        machine.run().expect("program faults");
        machine
    }

    #[test]
    fn integer_loop_sums() {
        // for i in 0..10 { acc += i }  via blt
        let machine = run_asm(|asm| {
            let top = asm.label();
            asm.li(x(1), 0); // i
            asm.li(x(2), 10); // limit
            asm.li(x(3), 0); // acc
            asm.bind(top);
            asm.push(Instr::Add {
                rd: x(3),
                rs1: x(3),
                rs2: x(1),
            });
            asm.push(Instr::Addi {
                rd: x(1),
                rs1: x(1),
                imm: 1,
            });
            asm.blt(x(1), x(2), top);
        });
        assert_eq!(machine.xreg(x(3)), 45);
    }

    #[test]
    fn x0_is_hardwired_zero() {
        let machine = run_asm(|asm| {
            asm.li(x(0), 123);
            asm.push(Instr::Addi {
                rd: x(1),
                rs1: x(0),
                imm: 7,
            });
        });
        assert_eq!(machine.xreg(x(0)), 0);
        assert_eq!(machine.xreg(x(1)), 7);
    }

    #[test]
    fn fp_add_rounds_into_format() {
        // binary8 (2 mantissa bits): 1.5 + 0.25 = 1.75 exactly.
        let mut machine = {
            let mut asm = Asm::new();
            asm.push(Instr::FLoad {
                width: MemWidth::B8,
                rd: f(1),
                rs1: x(0),
                imm: 0,
            });
            asm.push(Instr::FLoad {
                width: MemWidth::B8,
                rd: f(2),
                rs1: x(0),
                imm: 1,
            });
            asm.push(Instr::FArith {
                op: FpAluOp::Add,
                fmt: FormatKind::Binary8,
                rd: f(0),
                rs1: f(1),
                rs2: f(2),
                rm: Rm::Rne,
            });
            asm.push(Instr::FStore {
                width: MemWidth::B8,
                rs2: f(0),
                rs1: x(0),
                imm: 2,
            });
            asm.push(Instr::Ecall);
            Machine::new(asm.assemble(), 64)
        };
        machine.write_fp_slice(FormatKind::Binary8, 0, &[1.5, 0.25]);
        let stats = machine.run().unwrap();
        assert_eq!(machine.read_fp_slice(FormatKind::Binary8, 2, 1), vec![1.75]);
        assert_eq!(stats.fp_arith, 1);
        assert_eq!(stats.fp_loads, 2);
        assert_eq!(stats.fp_stores, 1);
        assert_eq!(stats.backend_fp_ops(), 1);
    }

    #[test]
    fn fsgnj_flips_signs_without_backend_calls() {
        let mut machine = {
            let mut asm = Asm::new();
            asm.push(Instr::FLoad {
                width: MemWidth::H16,
                rd: f(1),
                rs1: x(0),
                imm: 0,
            });
            // fneg f2, f1
            asm.push(Instr::FSgnj {
                fmt: FormatKind::Binary16,
                mode: SgnjMode::Neg,
                rd: f(2),
                rs1: f(1),
                rs2: f(1),
            });
            // fabs f3, f2
            asm.push(Instr::FSgnj {
                fmt: FormatKind::Binary16,
                mode: SgnjMode::Xor,
                rd: f(3),
                rs1: f(2),
                rs2: f(2),
            });
            asm.push(Instr::FStore {
                width: MemWidth::H16,
                rs2: f(2),
                rs1: x(0),
                imm: 2,
            });
            asm.push(Instr::FStore {
                width: MemWidth::H16,
                rs2: f(3),
                rs1: x(0),
                imm: 4,
            });
            asm.push(Instr::Ecall);
            Machine::new(asm.assemble(), 64)
        };
        machine.write_fp_slice(FormatKind::Binary16, 0, &[2.5]);
        let stats = machine.run().unwrap();
        let out = machine.read_fp_slice(FormatKind::Binary16, 2, 2);
        assert_eq!(out, vec![-2.5, 2.5]); // sgnjx with rs1==rs2 clears sign
        assert_eq!(stats.fp_moves, 2);
        assert_eq!(stats.backend_fp_ops(), 0);
    }

    #[test]
    fn fflags_accrue_and_csr_write_clears() {
        // binary8 (5e2m, max finite 57344) overflow: 40960 + 40960 → OF | NX.
        let mut machine = {
            let mut asm = Asm::new();
            asm.push(Instr::FLoad {
                width: MemWidth::B8,
                rd: f(1),
                rs1: x(0),
                imm: 0,
            });
            asm.push(Instr::FArith {
                op: FpAluOp::Add,
                fmt: FormatKind::Binary8,
                rd: f(2),
                rs1: f(1),
                rs2: f(1),
                rm: Rm::Rne,
            });
            // Read fcsr into x5, then clear fflags with csrrw x0.
            asm.push(Instr::Csrrs {
                rd: x(5),
                csr: csr_addr::FFLAGS,
                rs1: x(0),
            });
            asm.push(Instr::Csrrw {
                rd: x(0),
                csr: csr_addr::FFLAGS,
                rs1: x(0),
            });
            asm.push(Instr::Csrrs {
                rd: x(6),
                csr: csr_addr::FFLAGS,
                rs1: x(0),
            });
            asm.push(Instr::Ecall);
            Machine::new(asm.assemble(), 64)
        };
        machine.write_fp_slice(FormatKind::Binary8, 0, &[40960.0]);
        use flexfloat::backend::SoftFloat;
        let (stats, fcsr, x5, x6) = Engine::with(Arc::new(SoftFloat::new()), || {
            let stats = machine.run().unwrap();
            (stats, machine.fcsr, machine.xreg(x(5)), machine.xreg(x(6)))
        });
        assert_eq!(stats.fp_arith, 1);
        // Overflow is always inexact.
        assert_eq!(x5 & crate::csr::fflags::OF, crate::csr::fflags::OF);
        assert_eq!(x5 & crate::csr::fflags::NX, crate::csr::fflags::NX);
        assert_eq!(x6, 0, "csrrw x0 must clear fflags");
        assert_eq!(fcsr.fflags, 0);
    }

    #[test]
    fn dynamic_rounding_requires_rne_frm() {
        let mut machine = {
            let mut asm = Asm::new();
            // frm = 0b010 (RDN) — unsupported by the datapaths.
            asm.li(x(1), 0b010);
            asm.push(Instr::Csrrw {
                rd: x(0),
                csr: csr_addr::FRM,
                rs1: x(1),
            });
            asm.push(Instr::FArith {
                op: FpAluOp::Add,
                fmt: FormatKind::Binary32,
                rd: f(0),
                rs1: f(0),
                rs2: f(0),
                rm: Rm::Dyn,
            });
            asm.push(Instr::Ecall);
            Machine::new(asm.assemble(), 64)
        };
        assert_eq!(
            machine.run(),
            Err(ExecError::UnsupportedRounding { frm: 0b010 })
        );
    }

    #[test]
    fn runaway_loop_runs_out_of_fuel() {
        let mut asm = Asm::new();
        let top = asm.label();
        asm.bind(top);
        asm.jump(top);
        let mut machine = Machine::new(asm.assemble(), 0);
        machine.set_fuel(1000);
        assert_eq!(machine.run(), Err(ExecError::OutOfFuel));
    }

    /// EBREAK's slot: outside the implemented subset, so it never decodes.
    const EBREAK: u32 = 0x0010_0073;

    fn addi(rd: Reg, rs1: Reg, imm: i32) -> Instr {
        Instr::Addi { rd, rs1, imm }
    }

    #[test]
    fn illegal_word_after_ecall_never_faults() {
        let mut asm = Asm::new();
        asm.push(addi(x(1), x(0), 7));
        asm.push(Instr::Ecall);
        let mut program = asm.assemble();
        assert!(decode(EBREAK).is_err());
        program.code.extend([EBREAK, 0xFFFF_FFFF]);
        let mut machine = Machine::new(program, 0);
        let stats = machine.run().expect("junk after ecall is never reached");
        assert_eq!(stats.retired, 2);
        assert_eq!(machine.xreg(x(1)), 7);
    }

    #[test]
    fn illegal_word_faults_where_it_is_reached() {
        let mut asm = Asm::new();
        asm.push(addi(x(1), x(0), 1));
        asm.push(addi(x(1), x(1), 1));
        let mut program = asm.assemble();
        program.code.push(EBREAK);
        program.code.push(encode(&Instr::Ecall));
        let mut machine = Machine::new(program, 0);
        assert_eq!(
            machine.run(),
            Err(ExecError::Illegal {
                pc: 2,
                word: EBREAK
            })
        );
        assert_eq!(machine.pc, 2, "pc stays at the faulting word");
        assert_eq!(machine.xreg(x(1)), 2, "everything before it retired");
    }

    #[test]
    fn leaving_the_code_region_is_pc_out_of_range() {
        // A jump two words past the last one.
        let mut asm = Asm::new();
        asm.push(addi(x(1), x(0), 1));
        asm.push(Instr::Jal {
            rd: x(0),
            offset: 12,
        });
        let mut machine = Machine::new(asm.assemble(), 0);
        assert_eq!(machine.run(), Err(ExecError::PcOutOfRange { pc: 4 }));
        assert_eq!(machine.pc, 4);

        // Falling off the end without an ecall.
        let mut asm = Asm::new();
        asm.push(addi(x(1), x(0), 1));
        let mut machine = Machine::new(asm.assemble(), 0);
        assert_eq!(machine.run(), Err(ExecError::PcOutOfRange { pc: 1 }));
    }

    #[test]
    fn fuel_is_checked_before_fetch() {
        // An empty budget stops before the illegal word is fetched.
        let mut machine = Machine::new(Program { code: vec![EBREAK] }, 0);
        machine.set_fuel(0);
        assert_eq!(machine.run(), Err(ExecError::OutOfFuel));

        // The budget runs out exactly as pc leaves the code region.
        let mut asm = Asm::new();
        asm.push(addi(x(1), x(0), 1));
        let mut machine = Machine::new(asm.assemble(), 0);
        machine.set_fuel(1);
        assert_eq!(machine.run(), Err(ExecError::OutOfFuel));
        assert_eq!(machine.pc, 1);
    }

    #[test]
    fn misaligned_and_out_of_range_accesses_trap() {
        let mut asm = Asm::new();
        asm.push(Instr::FLoad {
            width: MemWidth::W32,
            rd: f(0),
            rs1: x(0),
            imm: 2,
        });
        let mut machine = Machine::new(asm.assemble(), 64);
        assert_eq!(
            machine.run(),
            Err(ExecError::Misaligned { addr: 2, len: 4 })
        );

        let mut asm = Asm::new();
        asm.push(Instr::Lw {
            rd: x(1),
            rs1: x(0),
            imm: 64,
        });
        let mut machine = Machine::new(asm.assemble(), 64);
        assert_eq!(
            machine.run(),
            Err(ExecError::MemAccess { addr: 64, len: 4 })
        );
    }
}
