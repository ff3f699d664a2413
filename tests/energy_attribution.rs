//! The energy/precision attribution plane's reconciliation contract
//! (ISSUE 10, DESIGN.md §13): every retired FP instruction of a measured
//! run lands in exactly one `(kernel, phase, op-class, format-pair)`
//! cell, and the cells sum back to the `FpuModel`'s own
//! [`MeasuredStats`]/[`EnergyAccount`] **exactly** — `==` on the op and
//! cycle counts *and* on the f64 picojoule totals, because the
//! `EnergyTable` quantizes every charge to a dyadic 2⁻²⁰ pJ grid (sums
//! of grid points are exact in f64 at these magnitudes, in any order).

use std::sync::Arc;

use flexfloat::{Engine, TypeConfig};
use tp_bench::ObsAttributionSink;
use tp_fpu::FpuModel;
use tp_kernels::{Conv, Knn};
use tp_obs::attr::{self, AttrCell};
use tp_store::MEASURE_SET;
use tp_tuner::{distributed_search, validated_storage_config, SearchParams, Tunable};

const UNIT_CLASSES: [&str; 4] = ["add", "sub", "mul", "convert"];

/// The two tests below force the global metrics mode in opposite
/// directions; run them under one lock so neither sees the other's mode.
static MODE_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Runs `app` under `config` on a sink-equipped `FpuModel` labeled
/// `(kernel, phase)` and asserts exact reconciliation for that scope.
fn run_and_reconcile(app: &dyn Tunable, phase: &'static str, config: &TypeConfig) {
    let fpu = Arc::new(FpuModel::with_sink(Arc::new(ObsAttributionSink)));
    {
        let _labels = attr::set_labels(app.name(), phase);
        Engine::with(fpu.clone(), || {
            let _ = app.run(config, MEASURE_SET);
        });
    }
    tp_obs::absorb();

    let stats = fpu.stats();
    let account = stats.energy_account();
    let rows: Vec<_> = attr::snapshot_attr()
        .into_iter()
        .filter(|(key, _)| key.kernel == app.name() && key.phase == phase)
        .collect();
    assert!(
        !rows.is_empty(),
        "{} {phase}: no attribution rows",
        app.name()
    );

    let mut total_ops = 0u64;
    let mut unit = AttrCell::default();
    let mut zero_charged = 0u64;
    for (key, cell) in &rows {
        total_ops += cell.ops;
        if UNIT_CLASSES.contains(&key.class.as_str()) {
            unit.merge(*cell);
        } else {
            assert_eq!(cell.cycles, 0, "{key:?} charged cycles");
            assert_eq!(cell.energy_pj, 0.0, "{key:?} charged energy");
            zero_charged += cell.ops;
        }
    }
    let tag = format!("{} {phase}", app.name());
    // No dropped ops, no double counting: the rows partition the run.
    assert_eq!(total_ops, stats.retired_fp_instructions(), "{tag}");
    assert_eq!(unit.ops, account.unit_ops, "{tag}");
    assert_eq!(unit.cycles, account.unit_cycles, "{tag}");
    // The headline contract: f64 equality, not epsilon.
    assert!(
        unit.energy_pj == account.unit_energy_pj,
        "{tag}: attributed {} pJ != account {} pJ",
        unit.energy_pj,
        account.unit_energy_pj
    );
    assert_eq!(
        zero_charged,
        account.emulated_ops + account.cmp_ops + account.off_grid_ops,
        "{tag}"
    );
    assert_eq!(total_ops, account.total_ops(), "{tag}");
}

#[test]
fn attribution_reconciles_exactly_for_baseline_and_tuned_runs() {
    let _mode = MODE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    tp_obs::force_mode(tp_obs::MetricsMode::On);
    for app in [&Conv::small() as &dyn Tunable, &Knn::small()] {
        let search = SearchParams::paper(1e-2);
        let outcome = distributed_search(app, search);
        let storage =
            validated_storage_config(app, &outcome, search.type_system, search.input_sets);
        run_and_reconcile(app, "attr-baseline", &TypeConfig::baseline());
        run_and_reconcile(app, "attr-tuned", &storage);
    }
    tp_obs::force_mode(tp_obs::MetricsMode::Off);
}

/// With metrics off the attribution plane records nothing — and, by the
/// observational contract, the measured run itself is unchanged: the
/// backend's account is bit-identical with and without the plane.
#[test]
fn attribution_off_records_nothing_and_changes_nothing() {
    let _mode = MODE_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    tp_obs::force_mode(tp_obs::MetricsMode::Off);
    let app = Conv::small();
    let config = TypeConfig::baseline();

    let plain = Arc::new(FpuModel::new());
    Engine::with(plain.clone(), || {
        let _ = app.run(&config, MEASURE_SET);
    });

    let sunk = Arc::new(FpuModel::with_sink(Arc::new(ObsAttributionSink)));
    {
        let _labels = attr::set_labels(app.name(), "attr-off");
        Engine::with(sunk.clone(), || {
            let _ = app.run(&config, MEASURE_SET);
        });
    }
    tp_obs::absorb();

    assert_eq!(plain.stats(), sunk.stats(), "sink changed the measurement");
    let rows: Vec<_> = attr::snapshot_attr()
        .into_iter()
        .filter(|(key, _)| key.phase == "attr-off")
        .collect();
    assert!(rows.is_empty(), "metrics-off run left rows: {rows:?}");
}
