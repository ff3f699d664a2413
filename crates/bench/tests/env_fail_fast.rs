//! Harness binaries validate the environment before printing anything.
//!
//! `TP_BACKEND=fpu` names a backend that can only be installed in-process
//! (`Engine::with`); core's `TP_BACKEND` parser rejects it. The harness
//! must reject it the same way, up front, rather than print a
//! configuration header and then panic at the first FP operation.

use std::process::Command;

#[test]
fn in_process_only_backend_name_fails_before_any_output() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_energy_attribution"))
        .env("TP_BACKEND", "fpu")
        .output()
        .expect("spawn exp_energy_attribution");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        !out.status.success(),
        "TP_BACKEND=fpu must fail; stdout:\n{stdout}"
    );
    assert!(
        !stdout.lines().any(|l| l.starts_with("E13:")),
        "the configuration header was printed before the backend was rejected:\n{stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("TP_BACKEND"), "stderr:\n{stderr}");
}
