//! E12 — instruction-stream validation: the hand-assembled `tp-isa`
//! CONV/JACOBI RV32 streams against (a) their `tp-kernels` closure twins
//! and (b) the analytic platform model.
//!
//! Two legs per (kernel, size, format) cell:
//!
//! * **bit-identity** under the IEEE-verified SoftFloat backend: the
//!   stream's output memory must equal the closure kernel's output
//!   bit-for-bit — the executor makes the same `FpBackend` calls on the
//!   same in-grid values, so any divergence is a frontend bug;
//! * **cycle reconciliation** under `tp_fpu::FpuModel`: the unit's
//!   per-retired-instruction account is compared with
//!   `tp_platform::cross_validate` over the stream's own recorded trace.
//!   The delta must equal `scalar_hidden_latency_cycles` — the result
//!   latency an in-order pipeline hides on non-dependent two-cycle ops —
//!   and therefore be **zero** for binary8, where every op is
//!   single-cycle.
//!
//! Prints one markdown table per size; every row is also asserted, so a
//! non-zero unexplained delta or a single flipped bit fails the run.

use std::sync::Arc;

use flexfloat::backend::{Engine, SoftFloat};
use flexfloat::{Recorder, TypeConfig};
use tp_formats::{FormatKind, ALL_KINDS};
use tp_fpu::FpuModel;
use tp_isa::{conv, jacobi, IsaKernel};
use tp_kernels::{Conv, Jacobi};
use tp_platform::{cross_validate, scalar_hidden_latency_cycles, PlatformParams};
use tp_tuner::Tunable;

const INPUT_SET: usize = 0;

/// One (kernel, closure-twin) pair at a given size and format.
struct Case {
    kernel: IsaKernel,
    closure_out: Vec<f64>,
}

fn cases(small: bool, fmt: FormatKind) -> Vec<Case> {
    let conv_app = if small { Conv::small() } else { Conv::paper() };
    let jacobi_app = if small {
        Jacobi::small()
    } else {
        Jacobi::paper()
    };
    let f = fmt.format();
    let conv_cfg = TypeConfig::baseline()
        .with("image", f)
        .with("coeff", f)
        .with("out", f)
        .with("acc", f);
    let jacobi_cfg = TypeConfig::baseline()
        .with("grid", f)
        .with("next", f)
        .with("quarter", f);
    vec![
        Case {
            kernel: conv(
                conv_app.n,
                fmt,
                &conv_app.image(INPUT_SET),
                &conv_app.filter(INPUT_SET),
            ),
            closure_out: conv_app.run(&conv_cfg, INPUT_SET),
        },
        Case {
            kernel: jacobi(
                jacobi_app.n,
                jacobi_app.iterations,
                fmt,
                &jacobi_app.initial_grid(INPUT_SET),
            ),
            closure_out: jacobi_app.run(&jacobi_cfg, INPUT_SET),
        },
    ]
}

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    println!("E12: tp-isa instruction streams vs closure kernels vs analytic model");
    let params = PlatformParams::paper();

    for small in [true, false] {
        let size = if small { "small" } else { "paper" };
        println!("\n#### {size} size\n");
        println!(
            "| kernel | fmt | retired | fp-instr | measured | analytic | delta | hidden | bit-eq |"
        );
        println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
        for fmt in ALL_KINDS {
            for case in cases(small, fmt) {
                // Leg 1: bit-identity under SoftFloat.
                let (isa_out, _) = Engine::with(Arc::new(SoftFloat::new()), || {
                    case.kernel.run().expect("stream runs to ecall")
                });
                let bit_eq = isa_out.len() == case.closure_out.len()
                    && isa_out
                        .iter()
                        .zip(&case.closure_out)
                        .all(|(a, b)| a.to_bits() == b.to_bits());

                // Leg 2: FpuModel account vs the analytic model over the
                // stream's own recorded trace.
                let fpu = Arc::new(FpuModel::new());
                let ((_, stats), counts) = Engine::with(fpu.clone(), || {
                    Recorder::scoped(|| case.kernel.run().expect("stream runs to ecall"))
                });
                let measured = fpu.stats();
                let report = cross_validate(&measured, &counts, &params);
                let hidden = scalar_hidden_latency_cycles(&counts);

                println!(
                    "| {} | {:?} | {} | {} | {} | {} | {:+} | {} | {} |",
                    case.kernel.name,
                    fmt,
                    stats.retired,
                    measured.retired_fp_instructions(),
                    report.measured_total(),
                    report.analytic_fp_cycles,
                    report.cycle_delta(),
                    hidden,
                    if bit_eq { "yes" } else { "NO" },
                );

                let tag = format!("{}/{size}/{fmt:?}", case.kernel.name);
                assert!(bit_eq, "{tag}: stream diverged from the closure kernel");
                assert_eq!(
                    stats.backend_fp_ops(),
                    measured.retired_fp_instructions(),
                    "{tag}: executor and FPU disagree on retired FP instructions"
                );
                assert_eq!(measured.off_grid_ops, 0, "{tag}: off-grid op on the unit");
                assert_eq!(
                    report.cycle_delta(),
                    hidden,
                    "{tag}: unexplained measured-vs-analytic delta"
                );
                if fmt == FormatKind::Binary8 {
                    assert_eq!(report.cycle_delta(), 0, "{tag}: binary8 must match exactly");
                }
            }
        }
    }

    println!("\ndelta = measured (unit latencies + emulation charges) - analytic");
    println!("(issue + casts + stalls); hidden = two-cycle scalar add/mul ops whose");
    println!("second cycle the in-order pipeline hides (non-dependent issues).");
    println!("Every delta equals its hidden column and binary8 rows are exact: the");
    println!("instruction-level and analytic accounts agree on every cell above.");
}
