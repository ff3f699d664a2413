//! Direct loops over the lower layers: kernels on each FP backend, the
//! backends' single operations, and the RV32 ISA twins.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use flexfloat::backend::{Emulated, SoftFloat};
use flexfloat::{BinOp, FpBackend, Fx, Recorder, TypeConfig};
use tp_formats::{FormatKind, ALL_KINDS};
use tp_fpu::FpuModel;
use tp_kernels::{Conv, Jacobi};
use tp_tuner::Tunable;

use crate::plan::Rng;

/// Backends in `mops_*` order.
pub const BACKENDS: [&str; 3] = ["emulated", "softfloat", "fpu"];

/// Fastest wall-clock of `reps` calls to `f`.
pub fn fastest(reps: usize, mut f: impl FnMut()) -> Duration {
    (0..reps.max(1))
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed()
        })
        .min()
        .expect("at least one repetition")
}

/// FP operations of one run of every tuned configuration, counted with
/// `Recorder::scoped` on the measurement input set.
#[must_use]
pub fn fp_ops(configs: &[(Box<dyn Tunable>, TypeConfig)]) -> u64 {
    configs
        .iter()
        .map(|(app, cfg)| {
            let ((), counts) = Recorder::scoped(|| {
                black_box(app.run(cfg, tp_bench::MEASURE_SET));
            });
            counts.total_fp_ops()
        })
        .sum()
}

/// Seconds for one run of each tuned configuration on a fresh `backend`
/// (via `Tunable::run_on`).
#[must_use]
pub fn kernel_pass(configs: &[(Box<dyn Tunable>, TypeConfig)], backend: &str) -> Vec<f64> {
    // A fresh backend per pass: the FPU model accumulates stats.
    let backend = tp_bench::backend_by_name(backend).expect("known backend name");
    configs
        .iter()
        .map(|(app, cfg)| {
            let started = Instant::now();
            black_box(app.run_on(backend.clone(), cfg, tp_bench::MEASURE_SET));
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// The CONV and JACOBI instruction streams in every format, at paper or
/// small size.
#[must_use]
pub fn isa_kernels(small: bool) -> Vec<tp_isa::IsaKernel> {
    let (conv, jacobi) = if small {
        (Conv::small(), Jacobi::small())
    } else {
        (Conv::paper(), Jacobi::paper())
    };
    let set = tp_bench::MEASURE_SET;
    ALL_KINDS
        .into_iter()
        .flat_map(|fmt| {
            [
                tp_isa::conv(conv.n, fmt, &conv.image(set), &conv.filter(set)),
                tp_isa::jacobi(jacobi.n, jacobi.iterations, fmt, &jacobi.initial_grid(set)),
            ]
        })
        .collect()
}

/// What one pass over the ISA twins retires.
#[derive(Debug, Clone, Copy)]
pub struct IsaRun {
    /// Instructions retired over all streams.
    pub retired: u64,
    /// Share of retired instructions that made a backend FP call.
    pub fp_share: f64,
}

/// Runs every ISA twin once and counts what it retired.
///
/// # Panics
///
/// Panics if a stream faults (a bug in the hand-assembled programs).
#[must_use]
pub fn isa_counts(kernels: &[tp_isa::IsaKernel]) -> IsaRun {
    let (mut retired, mut fp) = (0, 0);
    for kernel in kernels {
        let (_, stats) = kernel.run().expect("ISA twin runs to its ecall");
        retired += stats.retired;
        fp += stats.backend_fp_ops();
    }
    IsaRun {
        retired,
        fp_share: fp as f64 / retired as f64,
    }
}

/// Seconds for one run of each ISA twin, machine set-up excluded.
///
/// # Panics
///
/// Panics if a stream faults.
#[must_use]
pub fn isa_pass(kernels: &[tp_isa::IsaKernel]) -> Vec<f64> {
    kernels
        .iter()
        .map(|kernel| {
            let mut machine = kernel.machine();
            let started = Instant::now();
            black_box(machine.run().expect("ISA twin runs to its ecall"));
            started.elapsed().as_secs_f64()
        })
        .collect()
}

/// Nanoseconds per call of single backend operations, fastest of repeats.
#[derive(Debug, Clone, Copy)]
pub struct BackendNs {
    /// `bin_op` add/sub/mul.
    pub bin: f64,
    /// `bin_op` div.
    pub div: f64,
    /// `cast` to the next format.
    pub cast: f64,
}

const OPERANDS: usize = 512;
const OP_REPS: usize = 25;

/// Seeded in-grid operands per format: `(a, b)` pairs with `b` away from 0.
fn operands(seed: u64) -> Vec<(FormatKind, Vec<(f64, f64)>)> {
    let mut rng = Rng::new(seed);
    ALL_KINDS
        .into_iter()
        .map(|kind| {
            let fmt = kind.format();
            let pairs = (0..OPERANDS)
                .map(|_| {
                    let a = Fx::new(rng.uniform(-8.0, 8.0), fmt).value();
                    let sign = if rng.below(2) == 0 { 1.0 } else { -1.0 };
                    let b = Fx::new(sign * rng.uniform(0.5, 8.0), fmt).value();
                    (a, b)
                })
                .collect();
            (kind, pairs)
        })
        .collect()
}

/// Times `bin_op` and `cast` on one backend over seeded operands in
/// binary8, binary16, binary16alt and binary32.
#[must_use]
pub fn backend_ns(backend: &dyn FpBackend, seed: u64) -> BackendNs {
    let operands = operands(seed);
    let calls = (ALL_KINDS.len() * OPERANDS) as f64;
    let per_call = |d: Duration| d.as_secs_f64() * 1e9 / calls;
    let bin_ops = [BinOp::Add, BinOp::Sub, BinOp::Mul];
    let bin = fastest(OP_REPS, || {
        for (kind, pairs) in &operands {
            let fmt = kind.format();
            for (i, &(a, b)) in pairs.iter().enumerate() {
                black_box(backend.bin_op(fmt, bin_ops[i % 3], black_box(a), black_box(b)));
            }
        }
    });
    let div = fastest(OP_REPS, || {
        for (kind, pairs) in &operands {
            let fmt = kind.format();
            for &(a, b) in pairs {
                black_box(backend.bin_op(fmt, BinOp::Div, black_box(a), black_box(b)));
            }
        }
    });
    let cast = fastest(OP_REPS, || {
        for (k, (kind, pairs)) in operands.iter().enumerate() {
            let from = kind.format();
            let to = ALL_KINDS[(k + 1) % ALL_KINDS.len()].format();
            for &(a, _) in pairs {
                black_box(backend.cast(from, to, black_box(a)));
            }
        }
    });
    BackendNs {
        bin: per_call(bin),
        div: per_call(div),
        cast: per_call(cast),
    }
}

/// The three backends as trait objects, in [`BACKENDS`] order.
#[must_use]
pub fn backends() -> [Arc<dyn FpBackend>; 3] {
    [
        Arc::new(Emulated),
        Arc::new(SoftFloat::new()),
        Arc::new(FpuModel::new()),
    ]
}
