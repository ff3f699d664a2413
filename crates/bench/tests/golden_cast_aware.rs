//! `exp_cast_aware` prints exactly the committed table.
//!
//! The golden file is `tests/golden/exp_cast_aware.txt`: the binary's
//! stdout with no `TP_*` observability knob set. It pins the tuned formats'
//! energies, cast counts and accepted moves of every kernel at every
//! threshold, so a change to the tuner, the recorder or the energy model
//! that moves any of them must update it on purpose. Regenerate it by hand
//! from the repository root:
//!
//! ```sh
//! cargo build --release -p tp-bench --bin exp_cast_aware
//! env -u TP_METRICS -u TP_TRACE_EVENTS ./target/release/exp_cast_aware \
//!     > crates/bench/tests/golden/exp_cast_aware.txt
//! ```

use std::process::Command;

const GOLDEN: &str = include_str!("golden/exp_cast_aware.txt");

#[test]
fn exp_cast_aware_stdout_matches_golden() {
    let out = Command::new(env!("CARGO_BIN_EXE_exp_cast_aware"))
        .env_remove("TP_METRICS")
        .env_remove("TP_TRACE_EVENTS")
        .output()
        .expect("spawn exp_cast_aware");
    assert!(
        out.status.success(),
        "exp_cast_aware failed: {}",
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
            "exp_cast_aware stdout differs from the golden at line {}:\n got: {:?}\nwant: {:?}",
            first + 1,
            stdout.lines().nth(first),
            GOLDEN.lines().nth(first)
        );
    }
}
