//! Chosen formats and evaluation counts of the small suite, pinned.
//!
//! One line per (kernel, threshold) of `all_kernels_small()` ×
//! `tp_bench::THRESHOLDS`, searched with `SearchParams::paper` at one
//! worker: every variable's `(precision_bits, needs_wide_range)` and the
//! outcome's `evaluations`. A change to how candidates are evaluated (the
//! engine that runs them, a cache in front of them) must leave every line
//! as it is; only a deliberate change to the search itself may edit the
//! table, and then `TUNER_VERSION` moves with it.

use tp_bench::THRESHOLDS;
use tp_kernels::all_kernels_small;
use tp_tuner::{distributed_search, SearchParams, TuningOutcome};

/// `APP threshold evaluations=N var:pPwW …`, `W` being 0 or 1.
fn line(o: &TuningOutcome) -> String {
    let mut s = format!("{} {:e} evaluations={}", o.app, o.threshold, o.evaluations);
    for v in &o.vars {
        s.push_str(&format!(
            " {}:p{}w{}",
            v.spec.name,
            v.precision_bits,
            u8::from(v.needs_wide_range)
        ));
    }
    s
}

const GOLDEN: &[&str] = &[
    "JACOBI 1e-1 evaluations=78 grid:p3w0 next:p3w0 quarter:p2w0",
    "JACOBI 1e-2 evaluations=72 grid:p6w0 next:p6w0 quarter:p2w0",
    "JACOBI 1e-3 evaluations=78 grid:p9w0 next:p9w0 quarter:p2w0",
    "KNN 1e-1 evaluations=54 points:p2w0 query:p2w0 dist:p2w0",
    "KNN 1e-2 evaluations=54 points:p2w0 query:p2w0 dist:p2w0",
    "KNN 1e-3 evaluations=54 points:p2w0 query:p2w0 dist:p2w0",
    "PCA 1e-1 evaluations=179 data:p4w1 mean:p8w0 cov:p7w0 eig:p9w0 proj:p4w0 inv_n:p2w0 rot:p14w0",
    "PCA 1e-2 evaluations=206 data:p8w0 mean:p15w0 cov:p12w1 eig:p11w0 proj:p7w0 inv_n:p2w0 rot:p18w1",
    "PCA 1e-3 evaluations=231 data:p14w1 mean:p16w0 cov:p17w0 eig:p12w0 proj:p13w0 inv_n:p12w0 rot:p17w0",
    "DWT 1e-1 evaluations=84 image:p4w0 tmp:p4w0 half:p2w0",
    "DWT 1e-2 evaluations=68 image:p8w0 tmp:p8w0 half:p2w0",
    "DWT 1e-3 evaluations=90 image:p11w0 tmp:p11w0 half:p2w0",
    "SVM 1e-1 evaluations=143 sv:p6w0 alpha:p5w0 bias:p4w0 query:p4w0 gamma:p4w0 acc:p6w0",
    "SVM 1e-2 evaluations=146 sv:p9w0 alpha:p7w0 bias:p8w0 query:p8w0 gamma:p8w0 acc:p9w1",
    "SVM 1e-3 evaluations=168 sv:p10w0 alpha:p12w0 bias:p2w0 query:p13w0 gamma:p2w0 acc:p13w0",
    "CONV 1e-1 evaluations=90 image:p2w0 coeff:p2w0 out:p3w0 acc:p6w0",
    "CONV 1e-2 evaluations=113 image:p4w0 coeff:p7w0 out:p8w0 acc:p10w0",
    "CONV 1e-3 evaluations=125 image:p7w0 coeff:p9w0 out:p11w0 acc:p12w0",
    "GEMM 1e-1 evaluations=152 a:p5w0 b:p4w0 out:p3w0 alpha:p5w0 acc:p5w0",
    "GEMM 1e-2 evaluations=131 a:p6w0 b:p8w0 out:p7w0 alpha:p8w0 acc:p15w0",
    "GEMM 1e-3 evaluations=162 a:p10w0 b:p10w0 out:p11w0 alpha:p14w0 acc:p14w0",
    "FFT 1e-1 evaluations=111 re:p4w0 im:p3w0 twiddle:p5w0 acc:p5w0",
    "FFT 1e-2 evaluations=106 re:p7w0 im:p8w0 twiddle:p7w0 acc:p11w0",
    "FFT 1e-3 evaluations=133 re:p10w0 im:p10w0 twiddle:p12w0 acc:p14w0",
    "MLP 1e-1 evaluations=151 x:p3w0 w1:p2w0 b1:p2w0 w2:p3w0 b2:p4w0 out:p6w0 acc:p6w0",
    "MLP 1e-2 evaluations=191 x:p7w0 w1:p8w0 b1:p7w0 w2:p7w0 b2:p7w0 out:p7w0 acc:p9w0",
    "MLP 1e-3 evaluations=212 x:p11w0 w1:p10w0 b1:p9w0 w2:p10w0 b2:p11w0 out:p12w0 acc:p13w0",
    "BLACKSCHOLES 1e-1 evaluations=181 spot:p6w0 strike:p4w0 time:p5w0 vol:p5w0 rate:p4w0 ncoef:p5w0 acc:p13w0",
    "BLACKSCHOLES 1e-2 evaluations=185 spot:p9w0 strike:p8w0 time:p7w0 vol:p7w0 rate:p8w0 ncoef:p8w0 acc:p17w0",
    "BLACKSCHOLES 1e-3 evaluations=210 spot:p11w0 strike:p12w0 time:p8w0 vol:p10w0 rate:p9w0 ncoef:p10w0 acc:p20w0",
];

#[test]
fn small_suite_outcomes_match_the_golden_table() {
    let got: Vec<String> = all_kernels_small()
        .iter()
        .flat_map(|app| {
            THRESHOLDS.iter().map(move |&threshold| {
                line(&distributed_search(
                    app.as_ref(),
                    SearchParams::paper(threshold).with_workers(1),
                ))
            })
        })
        .collect();
    let table = got.join("\n");
    assert_eq!(got.len(), GOLDEN.len(), "row count; got:\n{table}");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "got:\n{table}");
    }
}
