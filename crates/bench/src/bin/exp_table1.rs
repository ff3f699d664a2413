//! E2 — Table I: variables classified by type using the V1 and V2 type
//! systems, tuned at the loosest threshold (10⁻¹).
//!
//! Paper row values (all six applications summed):
//! V1: binary8 = 10, binary16 = 29, binary32 = 72
//! V2: binary8 = 19, binary16 = 10, binary16alt = 41, binary32 = 41
//!
//! Shape to reproduce: adding binary16alt (V2) both *increases* the total
//! number of sub-32-bit variables and *shifts* most binary16 assignments to
//! binary16alt; binary8 coverage grows because wide-range low-precision
//! variables become mappable.

use std::collections::BTreeMap;

use tp_formats::{FormatKind, TypeSystem, ALL_KINDS};
use tp_tuner::{classify_variables, distributed_search, SearchParams};

/// The paper's Table I sums over its six Section V-A applications; the
/// four added families (GEMM, FFT, MLP, BLACKSCHOLES) get per-app rows
/// but stay out of the paper-comparison totals.
const PAPER_SIX: [&str; 6] = ["JACOBI", "KNN", "PCA", "DWT", "SVM", "CONV"];

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    println!("E2: Table I — variables classified by type (threshold 1e-1)");

    type ClassCounts = BTreeMap<(TypeSystem, FormatKind), usize>;
    let mut totals: ClassCounts = BTreeMap::new();
    let mut per_app: Vec<(String, ClassCounts)> = Vec::new();

    for app in tp_kernels::all_kernels() {
        let mut row = BTreeMap::new();
        for ts in [TypeSystem::V1, TypeSystem::V2] {
            let outcome = distributed_search(
                app.as_ref(),
                SearchParams {
                    type_system: ts,
                    ..SearchParams::paper(1e-1)
                },
            );
            for (kind, n) in classify_variables(&outcome, ts) {
                *row.entry((ts, kind)).or_insert(0) += n;
                if PAPER_SIX.contains(&app.name()) {
                    *totals.entry((ts, kind)).or_insert(0) += n;
                }
            }
        }
        per_app.push((app.name().to_owned(), row));
    }

    let header: Vec<String> = ALL_KINDS.iter().map(|k| format!("{k:>12}")).collect();
    println!("\n{:>8} {:>3} {}", "app", "TS", header.join(""));
    for (name, row) in &per_app {
        for ts in [TypeSystem::V1, TypeSystem::V2] {
            let cells: Vec<String> = ALL_KINDS
                .iter()
                .map(|k| format!("{:>12}", row.get(&(ts, *k)).copied().unwrap_or(0)))
                .collect();
            println!("{name:>8} {ts:>3} {}", cells.join(""));
        }
    }

    println!("\nPaper-six totals (paper: V1 = 10/29/-/72, V2 = 19/10/41/41):");
    for ts in [TypeSystem::V1, TypeSystem::V2] {
        let cells: Vec<String> = ALL_KINDS
            .iter()
            .map(|k| format!("{:>12}", totals.get(&(ts, *k)).copied().unwrap_or(0)))
            .collect();
        println!("{:>8} {ts:>3} {}", "TOTAL", cells.join(""));
    }

    let v1_32 = totals
        .get(&(TypeSystem::V1, FormatKind::Binary32))
        .copied()
        .unwrap_or(0);
    let v2_32 = totals
        .get(&(TypeSystem::V2, FormatKind::Binary32))
        .copied()
        .unwrap_or(0);
    println!(
        "\nbinary32 variables: V1 = {v1_32}, V2 = {v2_32} ({}% fewer under V2; paper: 72 -> 41, ~43% fewer)",
        (100 * v1_32.saturating_sub(v2_32)).checked_div(v1_32).unwrap_or(0)
    );
}
