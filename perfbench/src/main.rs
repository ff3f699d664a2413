//! `perfbench --workload <straight|branchy|service> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints a human-readable table, then one JSON result line. Exits 1 when
//! any served result was wrong or refused, 2 on bad arguments or an
//! infrastructure failure.

use std::process::ExitCode;

use perfbench::{layers, run, Plan, Workload};

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, None, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed {value:?}"))?,
            "--seconds" => {
                seconds = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|s: &f64| s.is_finite() && *s > 0.0)
                        .ok_or(format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
    })
}

fn main() -> ExitCode {
    // The benchmark fixes every knob itself; no TP_* variable may change
    // what it measures. Single-threaded here, so mutating the environment
    // is sound.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("TP_") {
            std::env::remove_var(key);
        }
    }
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let plan = Plan::new(args.workload);
    let outcome = if args.trace {
        run::Prepared::new(plan, args.seed)
            .and_then(|prepared| layers::per_layer(&prepared, args.seconds))
    } else {
        run::end_to_end(&plan, args.seed, args.seconds)
    };
    match outcome {
        Ok(outcome) => {
            print!("{}", outcome.table());
            println!("{}", outcome.json());
            if outcome.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
