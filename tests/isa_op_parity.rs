//! Op-class parity: every FP instruction the RV32 executor retires against
//! its `Fx` twin, one instruction class at a time.
//!
//! `tests/isa_equivalence.rs` pins whole CONV/JACOBI streams, which
//! exercise only `FADD`/`FMUL`, loads, stores and moves. Here each class
//! runs on its own, in each of the four platform formats, over every pair
//! of special operands (±0, ±inf, NaN, the smallest subnormal, the largest
//! finite value and values that round):
//!
//! * `FADD`/`FSUB`/`FMUL`/`FDIV`, `FSQRT`, `FMIN`/`FMAX`: a producer and
//!   the consumer that immediately follows it, twinned with the same two
//!   `Fx` ops, so one producer→consumer chain reaches `dependent_pairs`;
//! * `FLT`/`FLE`: one comparison on the raw operands and one on a sum
//!   computed just before it, twinned with `Fx::lt`/`Fx::le`;
//! * `FEQ`, which has no `Fx` twin: checked against the backend's own
//!   `eq`, with the event shape of the `FLT` twin;
//! * `FCVT` between every ordered pair of distinct formats, followed by a
//!   consumer in the destination format, twinned with `Fx::to`;
//! * `FLB`/`FLH`/`FLW` and `FSB`/`FSH`/`FSW`: the loads and stores of every
//!   case above, twinned with `FxArray::get`/`FxArray::set`.
//!
//! Each case runs with a `Recorder` on, on four legs: nothing installed,
//! `Emulated`, `SoftFloat` and `FpuModel`, with a fresh backend per run.
//! Results must be bit-identical and `TraceCounts` equal. On every leg the
//! architectural `fcsr` flags must equal `Engine::flags()` and the twin's
//! flags: the real flags under `SoftFloat` and `FpuModel`, which raise the
//! same ones, and 0 with nothing or `Emulated` installed. Under `FpuModel`
//! every stream's flags must equal those of the same stream under
//! `SoftFloat`, and every retired FP instruction must be one unit operation
//! (`backend_fp_ops == retired_fp_instructions`), as many as the twin
//! issued.

use std::sync::Arc;

use flexfloat::backend::{Emulated, Engine, FlagSet, FpBackend, SoftFloat};
use flexfloat::{Fx, FxArray, Recorder, TraceCounts};
use tp_formats::{FormatKind, ALL_KINDS};
use tp_fpu::FpuModel;
use tp_isa::decode::{CmpOp, FpAluOp, Rm};
use tp_isa::{f, x, Asm, Instr, Machine, MemWidth};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Leg {
    Native,
    Emulated,
    SoftFloat,
    Fpu,
}

/// What one run observed besides its own result.
struct Run<T> {
    out: T,
    counts: TraceCounts,
    /// `Engine::flags()` at the end of the run.
    flags: FlagSet,
    /// Unit operations the `FpuModel` retired (`Leg::Fpu` only).
    fpu_ops: Option<u64>,
}

impl<T> Run<T> {
    fn map<U>(self, f: impl FnOnce(T) -> U) -> Run<U> {
        Run {
            out: f(self.out),
            counts: self.counts,
            flags: self.flags,
            fpu_ops: self.fpu_ops,
        }
    }
}

/// Runs `f` with a `Recorder` on and a fresh backend of `leg` installed.
fn run<T>(leg: Leg, f: impl FnOnce() -> T) -> Run<T> {
    let fpu = Arc::new(FpuModel::new());
    let backend: Option<Arc<dyn FpBackend>> = match leg {
        Leg::Native => None,
        Leg::Emulated => Some(Arc::new(Emulated)),
        Leg::SoftFloat => Some(Arc::new(SoftFloat::new())),
        Leg::Fpu => Some(fpu.clone()),
    };
    let recorded = || Recorder::scoped(|| (f(), Engine::flags()));
    let ((out, flags), counts) = match backend {
        Some(backend) => Engine::with(backend, recorded),
        None => recorded(),
    };
    Run {
        out,
        counts,
        flags,
        fpu_ops: (leg == Leg::Fpu).then(|| fpu.stats().retired_fp_instructions()),
    }
}

/// The special operands of `kind`, all in its grid.
fn specials(kind: FormatKind) -> Vec<f64> {
    let fmt = kind.format();
    let ulp = 2f64.powi(-(fmt.man_bits() as i32));
    [
        0.0,
        -0.0,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        fmt.min_subnormal(),
        -fmt.min_subnormal(),
        fmt.max_finite(),
        -fmt.max_finite(),
        1.0,
        1.0 + ulp,
        -3.0 * (1.0 + ulp),
        0.1,
    ]
    .into_iter()
    .map(|v| fmt.sanitize_f64(v))
    .collect()
}

fn pairs(kind: FormatKind) -> Vec<(f64, f64)> {
    let vals = specials(kind);
    vals.iter()
        .flat_map(|&a| vals.iter().map(move |&b| (a, b)))
        .collect()
}

/// Byte address of a stream's outputs; its inputs start at 0.
const OUT: u32 = 8;

/// Loads input element `index` (a `kind` element) into `f{rd}`.
fn load(asm: &mut Asm, kind: FormatKind, rd: u8, index: u32) {
    let width = MemWidth::of(kind);
    asm.push(Instr::FLoad {
        width,
        rd: f(rd),
        rs1: x(0),
        imm: (index * width.bytes()) as i32,
    });
}

/// Stores `f{rs2}` as output element `index` (a `kind` element).
fn store(asm: &mut Asm, kind: FormatKind, rs2: u8, index: u32) {
    let width = MemWidth::of(kind);
    asm.push(Instr::FStore {
        width,
        rs2: f(rs2),
        rs1: x(0),
        imm: (OUT + index * width.bytes()) as i32,
    });
}

/// Runs `asm` (an `ecall` is appended) on `inputs`, written as `from`
/// elements from address 0, and returns the encodings of `outputs` `to`
/// elements read from [`OUT`] on, the backend FP instruction count and
/// `x5`/`x6`. `fcsr` must equal `Engine::flags()`; under `FpuModel` the
/// flags must equal a `SoftFloat` run's.
fn run_stream(
    leg: Leg,
    mut asm: Asm,
    from: FormatKind,
    inputs: &[f64],
    to: FormatKind,
    outputs: usize,
) -> Run<(Vec<u64>, u64, [u32; 2])> {
    asm.push(Instr::Ecall);
    let program = asm.assemble();
    let exec = |leg| {
        run(leg, || {
            let mut machine = Machine::new(program.clone(), 64);
            machine.write_fp_slice(from, 0, inputs);
            let stats = machine.run().expect("stream runs to its ecall");
            assert_eq!(machine.fcsr.flag_set(), Engine::flags(), "fcsr vs backend");
            let out = machine.read_fp_slice(to, OUT, outputs);
            (
                encodings(to, &out),
                stats.backend_fp_ops(),
                [machine.xreg(x(5)), machine.xreg(x(6))],
            )
        })
    };
    let run = exec(leg);
    if let Some(fpu_ops) = run.fpu_ops {
        assert_eq!(run.out.1, fpu_ops, "backend_fp_ops vs FpuModel");
        let soft = exec(Leg::SoftFloat);
        assert_eq!(run.flags, soft.flags, "FpuModel vs SoftFloat flags");
    }
    run
}

/// Asserts that a stream and its twin agree on everything observable.
fn assert_parity<T: std::fmt::Debug + PartialEq>(
    isa: &Run<T>,
    twin: &Run<T>,
    leg: Leg,
    what: impl Fn() -> String,
) {
    assert_eq!(isa.out, twin.out, "{leg:?} {}: results", what());
    assert_eq!(isa.counts, twin.counts, "{leg:?} {}: TraceCounts", what());
    assert_eq!(isa.flags, twin.flags, "{leg:?} {}: flags", what());
    assert_eq!(isa.fpu_ops, twin.fpu_ops, "{leg:?} {}: unit ops", what());
}

/// Encodings in `kind`, so NaN results compare equal and `-0 != +0`.
fn encodings(kind: FormatKind, vals: &[f64]) -> Vec<u64> {
    vals.iter()
        .map(|&v| kind.format().encode_in_grid(v))
        .collect()
}

/// Two-operand FP-result classes: `FArith` and `FMinMax`.
fn check_binary(leg: Leg, name: &str, instr: Instr, op: impl Fn(Fx, Fx) -> Fx) {
    for kind in ALL_KINDS {
        let at = |rd, rs1, rs2| match instr {
            Instr::FArith { op, .. } => Instr::FArith {
                op,
                fmt: kind,
                rd: f(rd),
                rs1: f(rs1),
                rs2: f(rs2),
                rm: Rm::Dyn,
            },
            Instr::FMinMax { max, .. } => Instr::FMinMax {
                fmt: kind,
                max,
                rd: f(rd),
                rs1: f(rs1),
                rs2: f(rs2),
            },
            other => unreachable!("{other:?} is not a binary FP class"),
        };
        for (a, b) in pairs(kind) {
            let mut asm = Asm::new();
            load(&mut asm, kind, 1, 0);
            load(&mut asm, kind, 2, 1);
            asm.push(at(3, 1, 2));
            asm.push(at(4, 3, 2)); // consumes f3 right after it is produced
            store(&mut asm, kind, 3, 0);
            store(&mut asm, kind, 4, 1);
            let isa = run_stream(leg, asm, kind, &[a, b], kind, 2).map(|out| out.0);
            let twin = run(leg, || {
                let mut arr = FxArray::from_f64s(kind.format(), &[a, b, 0.0, 0.0]);
                let (va, vb) = (arr.get(0), arr.get(1));
                let c = op(va, vb);
                let d = op(c, vb);
                arr.set(2, c);
                arr.set(3, d);
                encodings(kind, &arr.to_f64s()[2..])
            });
            assert_parity(&isa, &twin, leg, || {
                format!("{name} {kind:?} ({a:e}, {b:e})")
            });
        }
    }
}

fn check_arith(leg: Leg) {
    let arith = |op| Instr::FArith {
        op,
        fmt: FormatKind::Binary32,
        rd: f(0),
        rs1: f(0),
        rs2: f(0),
        rm: Rm::Dyn,
    };
    check_binary(leg, "FADD", arith(FpAluOp::Add), |a, b| a + b);
    check_binary(leg, "FSUB", arith(FpAluOp::Sub), |a, b| a - b);
    check_binary(leg, "FMUL", arith(FpAluOp::Mul), |a, b| a * b);
    check_binary(leg, "FDIV", arith(FpAluOp::Div), |a, b| a / b);
    let min_max = |max| Instr::FMinMax {
        fmt: FormatKind::Binary32,
        max,
        rd: f(0),
        rs1: f(0),
        rs2: f(0),
    };
    check_binary(leg, "FMIN", min_max(false), Fx::min);
    check_binary(leg, "FMAX", min_max(true), Fx::max);
}

fn check_sqrt(leg: Leg) {
    for kind in ALL_KINDS {
        let sqrt = |rd, rs1| Instr::FSqrt {
            fmt: kind,
            rd: f(rd),
            rs1: f(rs1),
            rm: Rm::Dyn,
        };
        for a in specials(kind) {
            let mut asm = Asm::new();
            load(&mut asm, kind, 1, 0);
            asm.push(sqrt(3, 1));
            asm.push(sqrt(4, 3));
            store(&mut asm, kind, 3, 0);
            store(&mut asm, kind, 4, 1);
            let isa = run_stream(leg, asm, kind, &[a], kind, 2).map(|out| out.0);
            let twin = run(leg, || {
                let mut arr = FxArray::from_f64s(kind.format(), &[a, 0.0, 0.0, 0.0]);
                let c = arr.get(0).sqrt();
                let d = c.sqrt();
                arr.set(2, c);
                arr.set(3, d);
                encodings(kind, &arr.to_f64s()[2..])
            });
            assert_parity(&isa, &twin, leg, || format!("FSQRT {kind:?} {a:e}"));
        }
    }
}

/// `x5 = a CMP b`, `f3 = a + b`, `x6 = f3 CMP b`.
fn cmp_stream(kind: FormatKind, cmp: CmpOp) -> Asm {
    let mut asm = Asm::new();
    load(&mut asm, kind, 1, 0);
    load(&mut asm, kind, 2, 1);
    let fcmp = |rd, rs1| Instr::FCmp {
        fmt: kind,
        cmp,
        rd: x(rd),
        rs1: f(rs1),
        rs2: f(2),
    };
    asm.push(fcmp(5, 1));
    asm.push(Instr::FArith {
        op: FpAluOp::Add,
        fmt: kind,
        rd: f(3),
        rs1: f(1),
        rs2: f(2),
        rm: Rm::Dyn,
    });
    asm.push(fcmp(6, 3)); // consumes f3 right after it is produced
    asm
}

/// The `Fx` twin of [`cmp_stream`] with `Fx::lt` (`le` false) or `Fx::le`.
fn cmp_twin(kind: FormatKind, a: f64, b: f64, le: bool) -> [u32; 2] {
    let arr = FxArray::from_f64s(kind.format(), &[a, b]);
    let (va, vb) = (arr.get(0), arr.get(1));
    let cmp = |p: Fx, q: Fx| u32::from(if le { p.le(q) } else { p.lt(q) });
    let first = cmp(va, vb);
    let sum = va + vb;
    [first, cmp(sum, vb)]
}

fn check_cmp(leg: Leg) {
    for kind in ALL_KINDS {
        for (a, b) in pairs(kind) {
            for (name, cmp, le) in [("FLT", CmpOp::Lt, false), ("FLE", CmpOp::Le, true)] {
                let isa =
                    run_stream(leg, cmp_stream(kind, cmp), kind, &[a, b], kind, 0).map(|out| out.2);
                let twin = run(leg, || cmp_twin(kind, a, b, le));
                assert_parity(&isa, &twin, leg, || {
                    format!("{name} {kind:?} ({a:e}, {b:e})")
                });
            }

            // FEQ: no Fx twin, so its results and flags come from the
            // backend's own `eq` and `bin_op` (a fresh instance, outside any
            // recording) and its events from the FLT twin, which has the
            // same shape but signals where FEQ is quiet.
            let isa = run_stream(leg, cmp_stream(kind, CmpOp::Eq), kind, &[a, b], kind, 0);
            let reference: Arc<dyn FpBackend> = match leg {
                Leg::Native => Engine::current().unwrap_or_else(|| Arc::new(Emulated)),
                Leg::Emulated => Arc::new(Emulated),
                Leg::SoftFloat => Arc::new(SoftFloat::new()),
                Leg::Fpu => Arc::new(FpuModel::new()),
            };
            let fmt = kind.format();
            let first = u32::from(reference.eq(fmt, a, b));
            let sum = reference.bin_op(fmt, flexfloat::BinOp::Add, a, b);
            let want = [first, u32::from(reference.eq(fmt, sum, b))];
            let what = || format!("FEQ {kind:?} ({a:e}, {b:e})");
            assert_eq!(isa.out.2, want, "{leg:?} {}: results", what());
            let shape = run(leg, || cmp_twin(kind, a, b, false));
            assert_eq!(isa.counts, shape.counts, "{leg:?} {}: TraceCounts", what());
            assert_eq!(isa.flags, reference.flags(), "{leg:?} {}: flags", what());
            assert_eq!(isa.fpu_ops, shape.fpu_ops, "{leg:?} {}: unit ops", what());
        }
    }
}

fn check_cvt(leg: Leg) {
    for from in ALL_KINDS {
        for to in ALL_KINDS.into_iter().filter(|&to| to != from) {
            for a in specials(from) {
                let mut asm = Asm::new();
                load(&mut asm, from, 1, 0);
                asm.push(Instr::FCvt {
                    to,
                    from,
                    rd: f(3),
                    rs1: f(1),
                    rm: Rm::Dyn,
                });
                // A consumer of the conversion: casts break the chain.
                asm.push(Instr::FArith {
                    op: FpAluOp::Mul,
                    fmt: to,
                    rd: f(4),
                    rs1: f(3),
                    rs2: f(3),
                    rm: Rm::Dyn,
                });
                store(&mut asm, to, 3, 0);
                store(&mut asm, to, 4, 1);
                let isa = run_stream(leg, asm, from, &[a], to, 2).map(|out| out.0);
                let twin = run(leg, || {
                    let src = FxArray::from_f64s(from.format(), &[a]);
                    let mut dst = FxArray::zeros(to.format(), 2);
                    let c = src.get(0).to(to.format());
                    let d = c * c;
                    dst.set(0, c);
                    dst.set(1, d);
                    encodings(to, &dst.to_f64s())
                });
                assert_parity(&isa, &twin, leg, || format!("FCVT {from:?}->{to:?} {a:e}"));
            }
        }
    }
}

fn check_leg(leg: Leg) {
    check_arith(leg);
    check_sqrt(leg);
    check_cmp(leg);
    check_cvt(leg);
}

#[test]
fn op_classes_match_fx_with_nothing_installed() {
    check_leg(Leg::Native);
}

#[test]
fn op_classes_match_fx_under_emulated() {
    check_leg(Leg::Emulated);
}

#[test]
fn op_classes_match_fx_under_softfloat() {
    check_leg(Leg::SoftFloat);
}

#[test]
fn op_classes_match_fx_under_fpu_model() {
    check_leg(Leg::Fpu);
}
