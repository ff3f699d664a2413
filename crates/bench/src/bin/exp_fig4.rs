//! E3 — Fig. 4: precision tuning of program variables for three precision
//! requirements.
//!
//! Rows are applications, columns are minimum precision bits; cell values
//! count the *memory locations* (scalar variables and array elements) that
//! need exactly that many bits. The paper's colour bands map columns onto
//! the V2 type system: (0,3] → binary8, (3,8] → binary16alt, (8,11] →
//! binary16, 12+ → binary32.

use tp_tuner::{distributed_search, PrecisionHistogram, SearchParams};

fn main() {
    // Resolve and validate every knob before printing anything: an
    // invalid `TP_*` value must abort with no output.
    let _ = tp_bench::env::config();
    println!("E3: Fig. 4 — memory locations per minimum precision (V2 bands)");
    let max_col = 13u32; // columns 2..=12 plus a ">=13" bucket

    for &threshold in &tp_bench::THRESHOLDS {
        println!("\nthreshold {threshold:.0e}");
        print!("{:>8}", "app");
        for p in 2..max_col {
            print!("{p:>7}");
        }
        println!("{:>7}", "13+");
        for app in tp_kernels::all_kernels() {
            let outcome = distributed_search(app.as_ref(), SearchParams::paper(threshold));
            let hist = PrecisionHistogram::from_outcome(&outcome);
            print!("{:>8}", outcome.app);
            for p in 2..max_col {
                print!("{:>7}", hist.at(p));
            }
            println!("{:>7}", hist.in_range(max_col, 24));
        }
    }

    println!("\nBands: [2,3] binary8 | [4,8] binary16alt | [9,11] binary16 | 12+ binary32");
    println!("Paper shape: KNN concentrates in the binary8 band at every threshold;");
    println!("high-precision variables cluster in the last column; tightening the");
    println!("threshold moves mass rightward.");
}
