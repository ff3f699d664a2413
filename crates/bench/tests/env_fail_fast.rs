//! Harness binaries validate the environment before printing anything.
//!
//! `TP_BACKEND=fpu` names a backend that can only be installed in-process
//! (`Engine::with`); core's `TP_BACKEND` parser rejects it. Every harness
//! must reject it the same way, up front, rather than print a header and
//! then panic at the first FP operation.

use std::process::Command;

/// Every experiment binary, as Cargo built it for this test.
const EXP_BINS: [(&str, &str); 12] = [
    ("exp_cast_aware", env!("CARGO_BIN_EXE_exp_cast_aware")),
    (
        "exp_cross_validate",
        env!("CARGO_BIN_EXE_exp_cross_validate"),
    ),
    (
        "exp_energy_attribution",
        env!("CARGO_BIN_EXE_exp_energy_attribution"),
    ),
    ("exp_fig4", env!("CARGO_BIN_EXE_exp_fig4")),
    ("exp_fig5", env!("CARGO_BIN_EXE_exp_fig5")),
    ("exp_fig6", env!("CARGO_BIN_EXE_exp_fig6")),
    ("exp_fig7", env!("CARGO_BIN_EXE_exp_fig7")),
    ("exp_fpu_modes", env!("CARGO_BIN_EXE_exp_fpu_modes")),
    ("exp_isa_validate", env!("CARGO_BIN_EXE_exp_isa_validate")),
    ("exp_motivation", env!("CARGO_BIN_EXE_exp_motivation")),
    ("exp_sensitivity", env!("CARGO_BIN_EXE_exp_sensitivity")),
    ("exp_table1", env!("CARGO_BIN_EXE_exp_table1")),
];

/// Every `exp_*` binary, in its table mode and its `--json` mode (the
/// flag is ignored where there is none), exits non-zero with a
/// `TP_BACKEND` message and an empty stdout.
#[test]
fn in_process_only_backend_name_fails_before_any_output() {
    for (name, path) in EXP_BINS {
        for args in [&[][..], &["--json"][..]] {
            let out = Command::new(path)
                .args(args)
                .env("TP_BACKEND", "fpu")
                .output()
                .unwrap_or_else(|e| panic!("spawn {name}: {e}"));
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                !out.status.success(),
                "{name} {args:?}: TP_BACKEND=fpu must fail; stdout:\n{stdout}"
            );
            assert!(
                stdout.is_empty(),
                "{name} {args:?}: printed before the backend was rejected:\n{stdout}"
            );
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(stderr.contains("TP_BACKEND"), "{name} {args:?}: {stderr}");
        }
    }
}
