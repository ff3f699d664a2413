//! E7 — emulation speed: FlexFloat's native-backed approach vs SoftFloat's
//! pure-integer emulation (paper Section III-A: FlexFloat "produces binaries
//! that are fast to execute, since its computations rely on native types...
//! This methodology guarantees shorter execution times w.r.t. emulation
//! approaches (e.g., SoftFloat)").
//!
//! Benchmarked on identical element-wise workloads; both back-ends produce
//! bit-identical results (verified by the cross-backend test suite), so the
//! measured difference is purely emulation overhead. The `fx` rows run the
//! same sweep on the runtime-format [`Fx`]/[`FxArray`] types the precision
//! tuner executes, where the format is a value rather than a type.
//!
//! The `mac_sweep_recorded` rows run the `fx` sweep inside
//! [`Recorder::scoped`], as the trace-count runs of a tuning job do. Each
//! element records four events (two loads, a multiply, an add), and the
//! group's throughput counts events, so its `Melem/s` is millions of
//! recorded ops per second: ns per recorded op is `1000 / (Melem/s)`, and
//! the row's ns/iter over its `mac_sweep/fx` twin is the cost of recording.
//!
//! The `mac_sweep_softfloat` rows run the `fx` sweep under
//! `Engine::with(SoftFloat)`, so every op takes its outlined hooked path
//! and dispatches to the integer kernels. The `mac_sweep_mixed` rows load
//! the two operands from arrays of different formats, so every multiply
//! promotes its narrower operand (a cast on the fast path, a recorded
//! cast on the hooked path).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::sync::Arc;

use flexfloat::backend::SoftFloat;
use flexfloat::{Binary16, Binary16Alt, Binary32, Binary8, Engine, Fx, FxArray, Recorder};
use tp_formats::{RoundingMode, BINARY16, BINARY16ALT, BINARY32, BINARY8};
use tp_softfloat::ops;

const N: usize = 4096;

fn inputs() -> (Vec<f64>, Vec<f64>) {
    // Deterministic, well-conditioned values.
    let a: Vec<f64> = (0..N).map(|i| 1.0 + (i as f64 * 0.37) % 6.0).collect();
    let b: Vec<f64> = (0..N).map(|i| 0.5 + (i as f64 * 0.73) % 3.0).collect();
    (a, b)
}

/// A fused mul-add-accumulate sweep in FlexFloat.
macro_rules! flexfloat_sweep {
    ($ty:ty, $a:expr, $b:expr) => {{
        let mut acc = <$ty>::from(0.0);
        for (&x, &y) in $a.iter().zip($b.iter()) {
            let fx = <$ty>::from(x);
            let fy = <$ty>::from(y);
            acc += fx * fy;
        }
        acc.to_f64()
    }};
}

/// The same sweep on the runtime-format types: operands loaded from
/// `FxArray`s (rounded into `fmt` when the arrays are built, outside the
/// timed loop), accumulated in an `Fx`.
fn fx_sweep(a: &FxArray, b: &FxArray) -> f64 {
    let mut acc = Fx::zero(a.format());
    for i in 0..a.len() {
        acc = acc + a.get(i) * b.get(i);
    }
    acc.value()
}

/// Recorder events per element of [`fx_sweep`]: two loads, a multiply
/// and an add.
const EVENTS_PER_ELEMENT: u64 = 4;

/// [`fx_sweep`] inside a recording scope.
fn recorded_fx_sweep(a: &FxArray, b: &FxArray) -> f64 {
    Recorder::scoped(|| fx_sweep(a, b)).0
}

fn softfloat_sweep(fmt: tp_formats::FpFormat, a: &[f64], b: &[f64]) -> f64 {
    let rne = RoundingMode::NearestEven;
    let mut acc = fmt.zero_bits(false);
    for (&x, &y) in a.iter().zip(b.iter()) {
        let fx = fmt.round_from_f64(x, rne).bits;
        let fy = fmt.round_from_f64(y, rne).bits;
        acc = ops::add(fmt, acc, ops::mul(fmt, fx, fy, rne), rne);
    }
    fmt.decode_to_f64(acc)
}

fn bench_backends(c: &mut Criterion) {
    let (a, b) = inputs();
    let mut group = c.benchmark_group("mac_sweep");
    group.throughput(Throughput::Elements(N as u64));

    group.bench_function(BenchmarkId::new("flexfloat", "binary8"), |bch| {
        bch.iter(|| black_box(flexfloat_sweep!(Binary8, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("softfloat", "binary8"), |bch| {
        bch.iter(|| black_box(softfloat_sweep(BINARY8, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("flexfloat", "binary16"), |bch| {
        bch.iter(|| black_box(flexfloat_sweep!(Binary16, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("softfloat", "binary16"), |bch| {
        bch.iter(|| black_box(softfloat_sweep(BINARY16, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("flexfloat", "binary16alt"), |bch| {
        bch.iter(|| black_box(flexfloat_sweep!(Binary16Alt, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("softfloat", "binary16alt"), |bch| {
        bch.iter(|| black_box(softfloat_sweep(BINARY16ALT, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("flexfloat", "binary32"), |bch| {
        bch.iter(|| black_box(flexfloat_sweep!(Binary32, &a, &b)))
    });
    group.bench_function(BenchmarkId::new("softfloat", "binary32"), |bch| {
        bch.iter(|| black_box(softfloat_sweep(BINARY32, &a, &b)))
    });
    for (name, fmt) in [
        ("binary8", BINARY8),
        ("binary16", BINARY16),
        ("binary16alt", BINARY16ALT),
        ("binary32", BINARY32),
    ] {
        let (fa, fb) = (FxArray::from_f64s(fmt, &a), FxArray::from_f64s(fmt, &b));
        group.bench_function(BenchmarkId::new("fx", name), |bch| {
            bch.iter(|| black_box(fx_sweep(&fa, &fb)))
        });
    }
    // Native f32 as the absolute lower bound.
    group.bench_function(BenchmarkId::new("native", "f32"), |bch| {
        bch.iter(|| {
            let mut acc = 0.0f32;
            for (&x, &y) in a.iter().zip(b.iter()) {
                acc += (x as f32) * (y as f32);
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_recorded(c: &mut Criterion) {
    let (a, b) = inputs();
    let mut group = c.benchmark_group("mac_sweep_recorded");
    group.throughput(Throughput::Elements(EVENTS_PER_ELEMENT * N as u64));
    for (name, fmt) in [
        ("binary8", BINARY8),
        ("binary16", BINARY16),
        ("binary16alt", BINARY16ALT),
        ("binary32", BINARY32),
    ] {
        let (fa, fb) = (FxArray::from_f64s(fmt, &a), FxArray::from_f64s(fmt, &b));
        // The sweep records what the throughput claims, and computes what
        // the unrecorded sweep computes.
        let (sum, counts) = Recorder::scoped(|| fx_sweep(&fa, &fb));
        assert_eq!(sum.to_bits(), fx_sweep(&fa, &fb).to_bits());
        assert_eq!(
            counts.total_fp_ops() + counts.total_mem_accesses(),
            EVENTS_PER_ELEMENT * N as u64
        );
        group.bench_function(BenchmarkId::new("fx", name), |bch| {
            bch.iter(|| black_box(recorded_fx_sweep(&fa, &fb)))
        });
    }
    group.finish();
}

fn bench_softfloat_dispatch(c: &mut Criterion) {
    let (a, b) = inputs();
    let backend = Arc::new(SoftFloat::new());
    let mut group = c.benchmark_group("mac_sweep_softfloat");
    group.throughput(Throughput::Elements(N as u64));
    for (name, fmt) in [
        ("binary8", BINARY8),
        ("binary16", BINARY16),
        ("binary16alt", BINARY16ALT),
        ("binary32", BINARY32),
    ] {
        let (fa, fb) = (FxArray::from_f64s(fmt, &a), FxArray::from_f64s(fmt, &b));
        let dispatched = || Engine::with(backend.clone(), || fx_sweep(&fa, &fb));
        // The integer kernels compute what the native datapath computes.
        assert_eq!(dispatched().to_bits(), fx_sweep(&fa, &fb).to_bits());
        group.bench_function(BenchmarkId::new("fx", name), |bch| {
            bch.iter(|| black_box(dispatched()))
        });
    }
    group.finish();
}

fn bench_mixed(c: &mut Criterion) {
    let (a, b) = inputs();
    let mut group = c.benchmark_group("mac_sweep_mixed");
    group.throughput(Throughput::Elements(N as u64));
    for (name, fmt_a, fmt_b) in [
        ("binary8xbinary16", BINARY8, BINARY16),
        ("binary8xbinary16alt", BINARY8, BINARY16ALT),
        ("binary16altxbinary32", BINARY16ALT, BINARY32),
    ] {
        let (fa, fb) = (FxArray::from_f64s(fmt_a, &a), FxArray::from_f64s(fmt_b, &b));
        // One promoting cast per multiply, plus the accumulator's first.
        let (_, counts) = Recorder::scoped(|| fx_sweep(&fa, &fb));
        assert_eq!(counts.total_casts(), N as u64 + 1);
        group.bench_function(BenchmarkId::new("fx", name), |bch| {
            bch.iter(|| black_box(fx_sweep(&fa, &fb)))
        });
    }
    group.finish();
}

fn bench_single_ops(c: &mut Criterion) {
    let mut group = c.benchmark_group("single_op");
    let x = Binary16::from(1.2345);
    let y = Binary16::from(0.9876);
    group.bench_function("flexfloat_binary16_mul", |bch| {
        bch.iter(|| black_box(black_box(x) * black_box(y)))
    });
    let bx = x.to_bits();
    let by = y.to_bits();
    group.bench_function("softfloat_binary16_mul", |bch| {
        bch.iter(|| {
            black_box(ops::mul(
                BINARY16,
                black_box(bx),
                black_box(by),
                RoundingMode::NearestEven,
            ))
        })
    });
    group.bench_function("flexfloat_binary16_div", |bch| {
        bch.iter(|| black_box(black_box(x) / black_box(y)))
    });
    group.bench_function("softfloat_binary16_div", |bch| {
        bch.iter(|| {
            black_box(ops::div(
                BINARY16,
                black_box(bx),
                black_box(by),
                RoundingMode::NearestEven,
            ))
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1600))
        .sample_size(20);
    targets = bench_backends, bench_recorded, bench_softfloat_dispatch, bench_mixed, bench_single_ops
}
criterion_main!(benches);
