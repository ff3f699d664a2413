//! E13 — energy/precision attribution: per-kernel baseline-vs-tuned
//! energy breakdowns from the attribution plane, reconciled exactly
//! against the FPU model's own account.
//!
//! For every kernel in the registry, tunes at the middle quality
//! threshold (1e-2), then executes the all-binary32 baseline and the
//! tuned storage configuration on an [`FpuModel`] backend with an
//! attribution sink installed. Every retired FP instruction lands in one
//! `(kernel, phase, op-class, format-pair)` cell of `tp_obs::attr`; the
//! binary prints the per-class breakdown and asserts the cells sum
//! **exactly** (`==`, not epsilon — `EnergyTable` quantizes to a dyadic
//! pJ grid) to the backend's `MeasuredStats`/`EnergyAccount` totals: no
//! dropped operations, no double counting.

use std::process::ExitCode;
use std::sync::Arc;

use flexfloat::{Engine, TypeConfig};
use tp_bench::ObsAttributionSink;
use tp_fpu::{EnergyAccount, FpuModel};
use tp_obs::attr::{self, AttrCell, AttrKey};
use tp_store::MEASURE_SET;
use tp_tuner::{distributed_search, validated_storage_config, SearchParams, Tunable};

/// The FPU-charged op classes (the unit has hardware for these); every
/// other class (emulated, cmp, off-grid) is counted but charged zero.
const UNIT_CLASSES: [&str; 4] = ["add", "sub", "mul", "convert"];

fn main() -> ExitCode {
    let config = tp_bench::env::config();
    println!("E13: energy/precision attribution ({config})");
    // The attribution table records through the metrics plane; the whole
    // point of this binary is the breakdown, so switch it on if the
    // environment didn't.
    if !tp_obs::mode().is_enabled() {
        tp_obs::force_mode(tp_obs::MetricsMode::On);
    }

    let threshold = 1e-2;
    let mut failures = 0u32;
    for app in tp_kernels::all_kernels() {
        let app = app.as_ref();
        let search = SearchParams::paper(threshold);
        let outcome = distributed_search(app, search);
        let storage =
            validated_storage_config(app, &outcome, search.type_system, search.input_sets);

        let baseline = measure_phase(app, "baseline", &TypeConfig::baseline());
        let tuned = measure_phase(app, "tuned", &storage);

        println!("\n{} (threshold {threshold:e})", app.name());
        for phase in [&baseline, &tuned] {
            println!(
                "  {:<8} ops={:<7} unit-cycles={:<7} unit-energy={:.6} pJ",
                phase.phase,
                phase.account.total_ops(),
                phase.account.unit_cycles,
                phase.account.unit_energy_pj,
            );
            for (key, cell) in &phase.rows {
                println!(
                    "    {:<12} {:<22} ops={:<7} cycles={:<7} energy={:.6} pJ",
                    key.class, key.formats, cell.ops, cell.cycles, cell.energy_pj,
                );
            }
            match reconcile(phase) {
                Ok(()) => println!("    reconciled: attribution == FPU account (exact)"),
                Err(why) => {
                    println!("    RECONCILIATION FAILED: {why}");
                    failures += 1;
                }
            }
        }
        let (b, t) = (
            baseline.account.unit_energy_pj,
            tuned.account.unit_energy_pj,
        );
        println!(
            "  energy: baseline {b:.3} pJ -> tuned {t:.3} pJ ({})",
            tp_bench::pct(if b > 0.0 { t / b } else { 1.0 }),
        );
    }

    tp_bench::maybe_emit_metrics();
    if failures > 0 {
        eprintln!("exp_energy_attribution: {failures} reconciliation failure(s)");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// One measured run's attribution view: the rows the plane recorded for
/// this (kernel, phase) scope, next to the backend's own account.
struct PhaseMeasurement {
    phase: &'static str,
    rows: Vec<(AttrKey, AttrCell)>,
    account: EnergyAccount,
    retired: u64,
}

/// Runs `app` under `config` on a fresh sink-equipped [`FpuModel`] with
/// the attribution labels set to `(kernel, phase)`, and returns the
/// plane's rows for that scope plus the backend's account.
fn measure_phase(app: &dyn Tunable, phase: &'static str, config: &TypeConfig) -> PhaseMeasurement {
    let fpu = Arc::new(FpuModel::with_sink(Arc::new(ObsAttributionSink)));
    {
        let _labels = attr::set_labels(app.name(), phase);
        Engine::with(fpu.clone(), || {
            let _ = app.run(config, MEASURE_SET);
        });
    }
    tp_obs::absorb();
    let stats = fpu.stats();
    let rows = attr::snapshot_attr()
        .into_iter()
        .filter(|(key, _)| key.kernel == app.name() && key.phase == phase)
        .collect();
    PhaseMeasurement {
        phase,
        rows,
        account: stats.energy_account(),
        retired: stats.retired_fp_instructions(),
    }
}

/// The exact-reconciliation contract: attribution rows partition the
/// backend's retired instructions, unit-class rows carry the unit's full
/// cycle/energy account (`==` on the f64 — the dyadic grid makes the sum
/// exact in any order), and every other class is charged zero.
fn reconcile(phase: &PhaseMeasurement) -> Result<(), String> {
    let mut total_ops = 0u64;
    let mut unit = AttrCell::default();
    for (key, cell) in &phase.rows {
        total_ops += cell.ops;
        if UNIT_CLASSES.contains(&key.class.as_str()) {
            unit.merge(*cell);
        } else if cell.cycles != 0 || cell.energy_pj != 0.0 {
            return Err(format!("zero-charge class {} carries charge", key.class));
        }
    }
    if total_ops != phase.retired {
        return Err(format!(
            "attributed ops {total_ops} != retired {}",
            phase.retired
        ));
    }
    if unit.ops != phase.account.unit_ops {
        return Err(format!(
            "unit ops {} != account {}",
            unit.ops, phase.account.unit_ops
        ));
    }
    if unit.cycles != phase.account.unit_cycles {
        return Err(format!(
            "unit cycles {} != account {}",
            unit.cycles, phase.account.unit_cycles
        ));
    }
    if unit.energy_pj != phase.account.unit_energy_pj {
        return Err(format!(
            "unit energy {} pJ != account {} pJ",
            unit.energy_pj, phase.account.unit_energy_pj
        ));
    }
    Ok(())
}
