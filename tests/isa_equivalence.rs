//! The tp-isa contracts, pinned end to end:
//!
//! 1. **Bit-identity** — the hand-assembled CONV and JACOBI instruction
//!    streams produce bit-identical outputs to their `tp-kernels` closure
//!    twins for *every* platform format, under both the emulated and the
//!    IEEE-verified SoftFloat backend. The executor routes each FP
//!    instruction through the same `FpBackend` entry points on the same
//!    in-grid values as the `Fx` layer, so any divergence is a decode,
//!    addressing or sequencing bug in the stream.
//! 2. **Exception agreement** — the architectural `fcsr.fflags` the
//!    stream accrues equals the backend's own sticky flag set.
//! 3. **Cycle reconciliation** — running a stream on `tp_fpu::FpuModel`
//!    and feeding its recorded trace to the analytic `tp-platform` model
//!    yields a cycle delta that is exactly the scalar hidden latency
//!    (`tp_platform::scalar_hidden_latency_cycles`); for binary8 the
//!    delta is zero, cycle for cycle.

use std::sync::Arc;

use flexfloat::backend::{Emulated, Engine, FpBackend, SoftFloat};
use flexfloat::{Recorder, TypeConfig};
use tp_formats::{FormatKind, ALL_KINDS};
use tp_fpu::FpuModel;
use tp_isa::{conv, jacobi, IsaKernel};
use tp_kernels::{Conv, Jacobi};
use tp_platform::{cross_validate, scalar_hidden_latency_cycles, PlatformParams};
use tp_tuner::Tunable;

const INPUT_SET: usize = 0;

fn conv_kernel(fmt: FormatKind) -> IsaKernel {
    let app = Conv::small();
    conv(app.n, fmt, &app.image(INPUT_SET), &app.filter(INPUT_SET))
}

/// The closure CONV with every variable in `fmt` — must run under the
/// same backend as the stream it is compared against.
fn closure_conv(fmt: FormatKind) -> Vec<f64> {
    let cfg = TypeConfig::baseline()
        .with("image", fmt.format())
        .with("coeff", fmt.format())
        .with("out", fmt.format())
        .with("acc", fmt.format());
    Conv::small().run(&cfg, INPUT_SET)
}

fn jacobi_kernel(fmt: FormatKind) -> IsaKernel {
    let app = Jacobi::small();
    jacobi(app.n, app.iterations, fmt, &app.initial_grid(INPUT_SET))
}

fn closure_jacobi(fmt: FormatKind) -> Vec<f64> {
    let cfg = TypeConfig::baseline()
        .with("grid", fmt.format())
        .with("next", fmt.format())
        .with("quarter", fmt.format());
    Jacobi::small().run(&cfg, INPUT_SET)
}

fn assert_bit_identical(isa: &[f64], closure: &[f64], what: &str) {
    assert_eq!(isa.len(), closure.len(), "{what}: length mismatch");
    for (i, (a, b)) in isa.iter().zip(closure).enumerate() {
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "{what}: element {i} diverged (isa {a}, closure {b})"
        );
    }
}

fn check_both_kernels(backend: Arc<dyn FpBackend>, backend_name: &str) {
    for fmt in ALL_KINDS {
        Engine::with(backend.clone(), || {
            let (isa_out, stats) = conv_kernel(fmt).run().expect("CONV stream runs to ecall");
            assert_bit_identical(
                &isa_out,
                &closure_conv(fmt),
                &format!("CONV/{fmt:?}/{backend_name}"),
            );
            assert!(stats.fp_arith > 0 && stats.retired > stats.int_retired);

            let (isa_out, _) = jacobi_kernel(fmt)
                .run()
                .expect("JACOBI stream runs to ecall");
            assert_bit_identical(
                &isa_out,
                &closure_jacobi(fmt),
                &format!("JACOBI/{fmt:?}/{backend_name}"),
            );
        });
    }
}

#[test]
fn isa_streams_are_bit_identical_to_closure_kernels_under_softfloat() {
    check_both_kernels(Arc::new(SoftFloat::new()), "softfloat");
}

#[test]
fn isa_streams_are_bit_identical_to_closure_kernels_under_emulated() {
    check_both_kernels(Arc::new(Emulated), "emulated");
}

#[test]
fn architectural_fflags_match_backend_sticky_flags() {
    for fmt in ALL_KINDS {
        let kernel = conv_kernel(fmt);
        let backends: [Arc<dyn FpBackend>; 2] =
            [Arc::new(SoftFloat::new()), Arc::new(FpuModel::new())];
        for backend in backends {
            let name = backend.name();
            Engine::with(backend, || {
                let mut machine = kernel.machine();
                machine.run().expect("CONV stream runs to ecall");
                assert_eq!(
                    machine.fcsr.flag_set(),
                    Engine::flags(),
                    "fcsr diverged from {name} flags for {fmt:?}"
                );
                // Real arithmetic in a finite grid is at least inexact.
                assert!(machine.fcsr.flag_set().inexact, "{name} {fmt:?}");
            });
        }
    }
}

#[test]
fn fpu_model_cycles_reconcile_with_the_analytic_account() {
    let params = PlatformParams::paper();
    for fmt in ALL_KINDS {
        for build in [conv_kernel, jacobi_kernel] {
            let kernel = build(fmt);
            let fpu = Arc::new(FpuModel::new());
            let ((_, stats), counts) = Engine::with(fpu.clone(), || {
                Recorder::scoped(|| kernel.run().expect("stream runs to ecall"))
            });
            let measured = fpu.stats();
            assert_eq!(
                stats.backend_fp_ops(),
                measured.retired_fp_instructions(),
                "{}/{fmt:?}: executor and FPU disagree on retired FP instructions",
                kernel.name
            );
            assert_eq!(
                measured.off_grid_ops, 0,
                "{}/{fmt:?}: off-grid op on the unit",
                kernel.name
            );

            let report = cross_validate(&measured, &counts, &params);
            assert_eq!(
                report.cycle_delta(),
                scalar_hidden_latency_cycles(&counts),
                "{}/{fmt:?}: unexplained measured-vs-analytic cycle delta",
                kernel.name
            );
            if fmt == FormatKind::Binary8 {
                assert_eq!(
                    report.cycle_delta(),
                    0,
                    "binary8 scalar streams must reconcile to the cycle"
                );
            }
        }
    }
}
