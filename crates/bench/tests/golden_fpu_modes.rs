//! `exp_fpu_modes` prints exactly the committed table.
//!
//! The golden file is `tests/golden/exp_fpu_modes.txt`: the binary's stdout
//! with no `TP_*` observability knob set. A change that moves a latency, an
//! energy or the functional sweep's totals must update it on purpose.
//! Regenerate it by hand from the repository root:
//!
//! ```sh
//! cargo build --release -p tp-bench --bin exp_fpu_modes
//! env -u TP_METRICS -u TP_TRACE_EVENTS ./target/release/exp_fpu_modes \
//!     > crates/bench/tests/golden/exp_fpu_modes.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/exp_fpu_modes.txt");

#[test]
fn exp_fpu_modes_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_fpu_modes"))
        .env_remove("TP_METRICS")
        .env_remove("TP_TRACE_EVENTS")
        .output()
        .expect("spawn exp_fpu_modes");
    assert!(
        out.status.success(),
        "exp_fpu_modes failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if stdout != GOLDEN {
        let first = stdout
            .lines()
            .zip(GOLDEN.lines())
            .position(|(got, want)| got != want)
            .unwrap_or_else(|| stdout.lines().count().min(GOLDEN.lines().count()));
        panic!(
            "exp_fpu_modes stdout differs from the golden at line {}:\n got: {:?}\nwant: {:?}",
            first + 1,
            stdout.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
