//! The full transprecision programming flow (paper Fig. 2) on one
//! application: instrument → tune → map → collect statistics → evaluate on
//! the platform model.
//!
//! Run with `cargo run --release -p tp-examples --bin precision_tuning`.

use flexfloat::{Recorder, TypeConfig};
use tp_formats::{TypeSystem, ALL_KINDS};
use tp_kernels::Conv;
use tp_platform::{evaluate, PlatformParams};
use tp_tuner::{
    classify_variables, distributed_search, relative_rms_error, sqnr_db, storage_config,
    SearchParams, Tunable,
};

fn main() {
    let app = Conv::paper();
    let threshold = 1e-2;
    println!(
        "Transprecision programming flow on {} (threshold {threshold:.0e})\n",
        app.name()
    );

    // Step 1: the application is already instrumented — its FP variables are
    // declared and run under per-variable formats.
    println!("step 1: tunable variables");
    for v in app.variables() {
        println!("  {v}");
    }

    // Step 2: precision tuning.
    let outcome = distributed_search(&app, SearchParams::paper(threshold));
    println!(
        "\nstep 2: DistributedSearch ({} program evaluations)",
        outcome.evaluations
    );
    for v in &outcome.vars {
        println!(
            "  {:>6} -> {:>2} precision bits{}",
            v.spec.name,
            v.precision_bits,
            if v.needs_wide_range {
                " (wide range)"
            } else {
                ""
            }
        );
    }

    // Step 3: map variables onto the supported storage formats.
    let storage = storage_config(&outcome, TypeSystem::V2);
    println!("\nstep 3: mapping onto the V2 type system");
    for v in &outcome.vars {
        println!("  {:>6} -> {}", v.spec.name, storage.format_of(v.spec.name));
    }
    let classes = classify_variables(&outcome, TypeSystem::V2);
    print!("  classification:");
    for kind in ALL_KINDS {
        print!(" {}={}", kind, classes.get(&kind).copied().unwrap_or(0));
    }
    println!();

    // Verify the quality constraint actually holds.
    let reference = app.reference(0);
    let tuned_out = app.run(&storage, 0);
    let err = relative_rms_error(&reference, &tuned_out);
    println!(
        "\nquality check: relative RMS error {err:.2e} (SQNR {:.1} dB) <= {threshold:.0e}",
        sqnr_db(&reference, &tuned_out)
    );
    assert!(err <= threshold);

    // Step 4: per-format operation statistics.
    let ((), counts) = Recorder::scoped(|| {
        let _ = app.run(&storage, 0);
    });
    println!("\nstep 4: operation statistics");
    println!(
        "  FP ops {} | casts {} | memory accesses {} | sub-32-bit share {:.0}%",
        counts.total_fp_ops(),
        counts.total_casts(),
        counts.total_mem_accesses(),
        counts.small_format_op_share() * 100.0
    );

    // Step 5: deploy on the platform model and compare with the baseline.
    let params = PlatformParams::paper();
    let ((), base_counts) = Recorder::scoped(|| {
        let _ = app.run(&TypeConfig::baseline(), 0);
    });
    let baseline = evaluate(&base_counts, &params);
    let tuned = evaluate(&counts, &params);
    println!("\nstep 5: platform evaluation (vs binary32 baseline)");
    println!(
        "  cycles  {:>9} -> {:>9} ({:.1}%)",
        baseline.cycles.total(),
        tuned.cycles.total(),
        100.0 * tuned.cycles.total() as f64 / baseline.cycles.total() as f64
    );
    println!(
        "  mem     {:>9} -> {:>9} ({:.1}%)",
        baseline.memory.total(),
        tuned.memory.total(),
        100.0 * tuned.memory.total() as f64 / baseline.memory.total() as f64
    );
    println!(
        "  energy  {:>8.1}nJ -> {:>7.1}nJ ({:.1}%)",
        baseline.energy.total() / 1000.0,
        tuned.energy.total() / 1000.0,
        100.0 * tuned.energy.total() / baseline.energy.total()
    );
}
