//! The exception flags the kernels read off their one rounding step,
//! against an independent host-`f64` oracle.
//!
//! The oracle redoes each operation in `f64` and rounds the `f64` result
//! into the format with `round_from_f64`. For the narrow formats
//! (`2m + 2 <= 52`) that is sound for `mul` (the product is exact), `div`
//! and `sqrt` (the `f64` result is close enough that rounding it again
//! gives the same flags). It is sound for `add` only when the `f64` sum is
//! exact, which TwoSum decides: when TwoSum shows that the sum was rounded
//! (the smaller addend lies more than 53 bits below the larger one), the
//! oracle only requires NX.
//!
//! binary8 is covered exhaustively (every operand pair, every rounding
//! mode). The wider formats are sampled, with specials and range
//! boundaries mixed into the random encodings.
//!
//! A format wider than the `2m + 2 <= 52` bound, `(11, 40)`, is sampled
//! with short significands (at most 26 bits), so the host `f64` result is
//! exact wherever the exact result fits `f64`: always for `mul`, for `div`
//! and `sqrt` when the integer significands show it, and for `add` when
//! TwoSum does. A result too large or too tiny for `f64` has known flags
//! (OF|NX, UF|NX). Everywhere else the oracle only requires NX.

use tp_formats::{FloatClass, FpFormat, RoundingMode, BINARY16, BINARY16ALT, BINARY32, BINARY8};
use tp_softfloat::{ops, FlagSet};

#[derive(Debug, Clone, Copy)]
enum Op {
    Add,
    Sub,
    Mul,
    Div,
}

const OPS: [Op; 4] = [Op::Add, Op::Sub, Op::Mul, Op::Div];

/// The flags of rounding `exact` (the exact result) into `fmt`.
fn rounding_flags(fmt: FpFormat, exact: f64, mode: RoundingMode) -> FlagSet {
    let out = fmt.round_from_f64(exact, mode);
    FlagSet {
        inexact: out.inexact,
        overflow: out.overflow,
        underflow: out.underflow,
        ..FlagSet::NONE
    }
}

/// What the oracle knows about one binary op.
#[derive(Debug, PartialEq)]
enum Expect {
    /// Exactly these flags.
    Flags(FlagSet),
    /// NX, and no NV, DZ or UF; OF is left open (a directed mode can push
    /// the largest finite value over the edge).
    Absorbed,
    /// NX, and no NV or DZ; OF and UF are left open (an inexact result
    /// of the wide format whose size the host cannot place).
    Inexact,
}

const OF_NX: FlagSet = FlagSet {
    overflow: true,
    inexact: true,
    ..FlagSet::NONE
};

const UF_NX: FlagSet = FlagSet {
    underflow: true,
    inexact: true,
    ..FlagSet::NONE
};

/// `true` for a format past the `2m + 2 <= 52` bound, where rounding a
/// rounded host `f64` result again can go wrong.
fn wide(fmt: FpFormat) -> bool {
    2 * fmt.man_bits() + 2 > 52
}

/// Finite, nonzero `x` as `m · 2^q` with an odd integer `m`.
fn odd_split(x: f64) -> (u64, i32) {
    let bits = x.abs().to_bits();
    let (field, frac) = ((bits >> 52) as i32, bits & ((1 << 52) - 1));
    let (m, q) = if field == 0 {
        (frac, -1074)
    } else {
        (frac | 1 << 52, field - 1075)
    };
    (m >> m.trailing_zeros(), q + m.trailing_zeros() as i32)
}

/// For a `mul` or `div` of finite, nonzero operands of a wide format,
/// what is known when the host `f64` cannot hold the exact result; `None`
/// when it holds it exactly (and the rounding oracle is sound).
fn beyond_host(fmt: FpFormat, op: Op, va: f64, vb: f64) -> Option<Expect> {
    let finite = |v: f64| v.is_finite() && v != 0.0;
    if !wide(fmt) || !finite(va) || !finite(vb) {
        return None;
    }
    let ((ma, qa), (mb, qb)) = (odd_split(va), odd_split(vb));
    let (m, q) = match op {
        Op::Mul => (u128::from(ma) * u128::from(mb), qa + qb),
        Op::Div if ma % mb == 0 => (u128::from(ma / mb), qa - qb),
        // An odd divisor that does not divide: no finite binary expansion.
        Op::Div => return Some(Expect::Inexact),
        Op::Add | Op::Sub => unreachable!("only mul and div"),
    };
    let bits = 128 - m.leading_zeros() as i32;
    if q + bits > 1024 {
        // At least 2^1024: past the largest finite value in every mode.
        Some(Expect::Flags(OF_NX))
    } else if bits > 53 {
        Some(Expect::Inexact) // wider than f64, so wider than the format
    } else if q < -1074 {
        // A bit below f64's grid, so below the format's too, in a value
        // under 2^(q + 53) <= 2^-1022: tiny and inexact.
        Some(Expect::Flags(UF_NX))
    } else {
        None
    }
}

fn oracle(fmt: FpFormat, op: Op, a: u64, b: u64, mode: RoundingMode) -> Expect {
    let (va, vb) = (fmt.decode_to_f64(a), fmt.decode_to_f64(b));
    if va.is_nan() || vb.is_nan() {
        return Expect::Flags(FlagSet::NONE); // quiet NaN propagation
    }
    let exact = match op {
        Op::Add | Op::Sub => {
            let vb = if matches!(op, Op::Sub) { -vb } else { vb };
            if va.is_infinite() && vb.is_infinite() && va != vb {
                return Expect::Flags(FlagSet::INVALID);
            }
            let s = va + vb;
            if s.is_infinite() && va.is_finite() && vb.is_finite() {
                // The host overflowed, so |va + vb| >= 2^1024 - 2^970: past
                // every format's overflow threshold when rounding to
                // nearest. A directed mode may still land on the largest
                // finite value.
                return match mode {
                    RoundingMode::NearestEven => Expect::Flags(OF_NX),
                    _ => Expect::Absorbed,
                };
            }
            if s.is_finite() {
                // TwoSum: `err` is exactly va + vb - s.
                let bb = s - va;
                let err = (va - (s - bb)) + (vb - bb);
                if err != 0.0 {
                    return Expect::Absorbed;
                }
            }
            s
        }
        Op::Mul => {
            if (va.is_infinite() && vb == 0.0) || (va == 0.0 && vb.is_infinite()) {
                return Expect::Flags(FlagSet::INVALID);
            }
            if let Some(expect) = beyond_host(fmt, op, va, vb) {
                return expect;
            }
            va * vb
        }
        Op::Div => {
            if (va == 0.0 && vb == 0.0) || (va.is_infinite() && vb.is_infinite()) {
                return Expect::Flags(FlagSet::INVALID);
            }
            if vb == 0.0 && va.is_finite() {
                return Expect::Flags(FlagSet::DIV_BY_ZERO);
            }
            if let Some(expect) = beyond_host(fmt, op, va, vb) {
                return expect;
            }
            va / vb
        }
    };
    if exact.is_infinite() {
        // An infinite operand gives an exact infinity.
        return Expect::Flags(FlagSet::NONE);
    }
    Expect::Flags(rounding_flags(fmt, exact, mode))
}

fn kernel(fmt: FpFormat, op: Op, a: u64, b: u64, mode: RoundingMode) -> (u64, u64, FlagSet) {
    let (plain, (bits, flags)) = match op {
        Op::Add => (
            ops::add(fmt, a, b, mode),
            ops::add_with_flags(fmt, a, b, mode),
        ),
        Op::Sub => (
            ops::sub(fmt, a, b, mode),
            ops::sub_with_flags(fmt, a, b, mode),
        ),
        Op::Mul => (
            ops::mul(fmt, a, b, mode),
            ops::mul_with_flags(fmt, a, b, mode),
        ),
        Op::Div => (
            ops::div(fmt, a, b, mode),
            ops::div_with_flags(fmt, a, b, mode),
        ),
    };
    (plain, bits, flags)
}

/// Checks one binary op; returns `true` if the oracle could only require
/// NX (an absorbed addend).
fn check(fmt: FpFormat, op: Op, a: u64, b: u64, mode: RoundingMode) -> bool {
    let (plain, bits, flags) = kernel(fmt, op, a, b, mode);
    let ctx = || format!("{fmt} {op:?}({a:#x}, {b:#x}) {mode:?}: got {bits:#x} {flags}");
    assert_eq!(bits, plain, "{}", ctx());
    match oracle(fmt, op, a, b, mode) {
        Expect::Flags(want) => {
            assert_eq!(flags, want, "{} want {want}", ctx());
            false
        }
        expect @ (Expect::Absorbed | Expect::Inexact) => {
            assert!(
                flags.inexact && !flags.invalid && !flags.div_by_zero,
                "{}",
                ctx()
            );
            if expect == Expect::Absorbed {
                assert!(!flags.underflow, "{}", ctx());
            }
            if flags.overflow {
                let class = FloatClass::of_bits(fmt, bits);
                assert!(
                    class == FloatClass::Infinite
                        || bits & (fmt.bits_mask() >> 1) == fmt.max_finite_bits(false),
                    "{}",
                    ctx()
                );
            }
            true
        }
    }
}

fn check_sqrt(fmt: FpFormat, a: u64, mode: RoundingMode) {
    let (bits, flags) = ops::sqrt_with_flags(fmt, a, mode);
    assert_eq!(bits, ops::sqrt(fmt, a, mode));
    let v = fmt.decode_to_f64(a);
    let want = if v.is_nan() || v == 0.0 || v == f64::INFINITY {
        FlagSet::NONE
    } else if v < 0.0 {
        FlagSet::INVALID
    } else if wide(fmt) {
        // Exact iff v = m · 2^q has an even q and a square m; the root then
        // has at most half of m's bits and fits the format.
        let (m, q) = odd_split(v);
        let root = (m as f64).sqrt() as u64;
        FlagSet {
            inexact: q % 2 != 0 || root * root != m,
            ..FlagSet::NONE
        }
    } else {
        // A square root neither overflows nor underflows.
        FlagSet {
            inexact: fmt.round_from_f64(v.sqrt(), mode).inexact,
            ..FlagSet::NONE
        }
    };
    assert_eq!(flags, want, "{fmt} sqrt({a:#x}) {mode:?}: got {flags}");
}

#[test]
fn binary8_flags_exhaustive() {
    for mode in RoundingMode::ALL {
        for a in 0..=0xFFu64 {
            for b in 0..=0xFFu64 {
                for op in OPS {
                    // binary8 sums span at most 35 bits: always exact in f64.
                    assert!(!check(BINARY8, op, a, b, mode));
                }
            }
            check_sqrt(BINARY8, a, mode);
        }
    }
}

/// splitmix64: a tiny deterministic generator for the sampled formats.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// An encoding of `fmt`: one in four from the specials and range
    /// boundaries (either sign), the rest uniform over all encodings.
    fn encoding(&mut self, fmt: FpFormat) -> u64 {
        let r = self.next();
        if !r.is_multiple_of(4) {
            return (r >> 8) & fmt.bits_mask();
        }
        let edges = [
            fmt.zero_bits(false),
            fmt.inf_bits(false),
            fmt.quiet_nan_bits(),
            fmt.min_subnormal_bits(),
            fmt.min_normal_bits(),
            fmt.min_normal_bits() - 1,
            fmt.max_finite_bits(false),
            fmt.round_from_f64(1.0, RoundingMode::NearestEven).bits,
        ];
        let bits = edges[(r >> 8) as usize % edges.len()];
        bits | ((r >> 40) & 1) << fmt.sign_shift()
    }

    /// An encoding of `fmt` whose significand has 1, 3, 13 or 26 bits, so
    /// a product of two is exact in `f64` unless it leaves `f64`'s range;
    /// one in eight is a special or a power-of-two range edge.
    fn short_encoding(&mut self, fmt: FpFormat) -> u64 {
        let r = self.next();
        let m = fmt.man_bits();
        let sign = ((r >> 5) & 1) << fmt.sign_shift();
        if r.is_multiple_of(8) {
            let edges = [
                fmt.zero_bits(false),
                fmt.inf_bits(false),
                fmt.quiet_nan_bits(),
                fmt.min_subnormal_bits(),
                fmt.min_normal_bits(),
                fmt.round_from_f64(1.0, RoundingMode::NearestEven).bits,
                fmt.max_finite_bits(false) & !((1 << m) - 1),
            ];
            return edges[(r >> 8) as usize % edges.len()] | sign;
        }
        let width = [0, 2, 12, 25][(r >> 3) as usize % 4];
        let frac = (r >> 8) & ((1 << width) - 1);
        let exp = (r >> 33) % ((1 << fmt.exp_bits()) - 1);
        sign | exp << m | frac << (m - width)
    }
}

#[test]
fn sampled_formats_flags_match_oracle() {
    // Release builds (CI runs this suite optimized too) sample more.
    let pairs = if cfg!(debug_assertions) {
        10_000
    } else {
        200_000
    };
    let odd = FpFormat::new(6, 12).unwrap();
    for (i, fmt) in [BINARY16, BINARY16ALT, BINARY32, odd]
        .into_iter()
        .enumerate()
    {
        let mut rng = Rng(0x5EED + i as u64);
        let mut absorbed = 0;
        for mode in RoundingMode::ALL {
            for _ in 0..pairs {
                let (a, b) = (rng.encoding(fmt), rng.encoding(fmt));
                for op in OPS {
                    absorbed += check(fmt, op, a, b, mode) as u32;
                }
                check_sqrt(fmt, a, mode);
            }
        }
        // binary16 sums span at most 52 bits and are always exact in f64;
        // the 8-bit-exponent formats and (6, 12) absorb often.
        if fmt == BINARY16 {
            assert_eq!(absorbed, 0);
        } else {
            assert!(absorbed > 0, "{fmt}: no absorbed addend sampled");
        }
    }
}

#[test]
fn wide_format_flags_match_oracle() {
    let pairs = if cfg!(debug_assertions) {
        10_000
    } else {
        200_000
    };
    let fmt = FpFormat::new(11, 40).unwrap();
    assert!(wide(fmt));
    let mut rng = Rng(0x51DE);
    let (mut pinned, mut checks, mut seen) = (0u32, 0u32, FlagSet::NONE);
    for mode in RoundingMode::ALL {
        for _ in 0..pairs {
            let (a, b) = (rng.short_encoding(fmt), rng.short_encoding(fmt));
            for op in OPS {
                if let Expect::Flags(want) = oracle(fmt, op, a, b, mode) {
                    pinned += 1;
                    seen |= want;
                }
                checks += 1;
                check(fmt, op, a, b, mode);
            }
            check_sqrt(fmt, a, mode);
        }
    }
    // A third of the cases are pinned exactly (nearly every mul, but few
    // sums of far-apart addends and few quotients), and among them every
    // flag.
    assert!(pinned > checks / 3, "{pinned} of {checks} pinned");
    assert_eq!(seen, FlagSet::from_bits(0x1F), "{seen}");
}

#[test]
fn absorbed_addends_raise_nx_in_every_mode() {
    let cases = [
        (BINARY16ALT, 0xb437, 0x069f),
        (BINARY32, 0x3f80_0000, 0x0000_0001), // 1.0 + 2^-149
    ];
    for (fmt, a, b) in cases {
        for mode in RoundingMode::ALL {
            for op in [Op::Add, Op::Sub] {
                assert!(check(fmt, op, a, b, mode), "{fmt} {op:?} {mode:?}");
                assert!(kernel(fmt, op, a, b, mode).2.inexact);
            }
        }
    }
}
