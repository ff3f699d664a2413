//! Recorded `TraceCounts` of the small suite, pinned.
//!
//! One line per (kernel, config) of `all_kernels_small()`: the all-binary32
//! baseline, each of the four uniform storage formats, and the kernel's
//! validated storage config at `THRESHOLDS[1]` (a mixed config). Each line
//! renders, with sorted keys, every `ops`, `casts`, `loads`, `stores` and
//! `dependent_pairs` entry as `scalar/vector` plus `int_ops`, as recorded by
//! `tp_store::record_run`. A change to how the `Recorder` accumulates its
//! counts must leave every line as it is; only a deliberate change to what
//! a kernel executes or what an event counts may edit the table.

use std::collections::HashMap;
use std::fmt::Display;

use flexfloat::{OpCounts, TraceCounts, TypeConfig};
use tp_bench::THRESHOLDS;
use tp_formats::{FpFormat, ALL_KINDS};
use tp_kernels::all_kernels_small;
use tp_store::record_run;
use tp_tuner::{distributed_search, validated_storage_config, SearchParams, Tunable};

fn fmt_name(f: FpFormat) -> String {
    format!("e{}m{}", f.exp_bits(), f.man_bits())
}

/// ` name=[key s/v, …]` over `map`'s entries in key order.
fn section<K: Ord + Copy>(
    out: &mut String,
    name: &str,
    map: &HashMap<K, OpCounts>,
    key: impl Fn(K) -> String,
) {
    let mut entries: Vec<_> = map.iter().collect();
    entries.sort_by_key(|(k, _)| **k);
    let body: Vec<String> = entries
        .into_iter()
        .map(|(k, c)| format!("{} {}/{}", key(*k), c.scalar, c.vector))
        .collect();
    out.push_str(&format!(" {name}=[{}]", body.join(", ")));
}

/// `APP CONFIG ops=[…] casts=[…] loads=[…] stores=[…] pairs=[…] int=N`.
fn line(app: &str, config: impl Display, c: &TraceCounts) -> String {
    let mut s = format!("{app} {config}");
    section(&mut s, "ops", &c.ops, |(f, k)| {
        format!("{}:{k}", fmt_name(f))
    });
    section(&mut s, "casts", &c.casts, |(a, b)| {
        format!("{}>{}", fmt_name(a), fmt_name(b))
    });
    section(&mut s, "loads", &c.loads, |w| w.to_string());
    section(&mut s, "stores", &c.stores, |w| w.to_string());
    section(&mut s, "pairs", &c.dependent_pairs, fmt_name);
    s.push_str(&format!(" int={}", c.int_ops));
    s
}

/// The (label, config) pairs every kernel is recorded under.
fn configs(app: &dyn Tunable) -> Vec<(String, TypeConfig)> {
    let mut out = vec![("baseline".to_string(), TypeConfig::baseline())];
    for kind in ALL_KINDS {
        out.push((kind.to_string(), TypeConfig::uniform(kind.format())));
    }
    let search = SearchParams::paper(THRESHOLDS[1]).with_workers(1);
    let outcome = distributed_search(app, search);
    let tuned = validated_storage_config(app, &outcome, search.type_system, search.input_sets);
    out.push((format!("tuned@{:e}", THRESHOLDS[1]), tuned));
    out
}

const GOLDEN: &[&str] = &[
    "JACOBI baseline ops=[e8m23:add/sub 648/0, e8m23:mul 216/0] casts=[] loads=[32 864/0] stores=[32 216/0] pairs=[e8m23 648/0] int=660",
    "JACOBI binary8 ops=[e5m2:add/sub 648/0, e5m2:mul 216/0] casts=[] loads=[8 864/0] stores=[8 216/0] pairs=[e5m2 648/0] int=660",
    "JACOBI binary16 ops=[e5m10:add/sub 648/0, e5m10:mul 216/0] casts=[] loads=[16 864/0] stores=[16 216/0] pairs=[e5m10 648/0] int=660",
    "JACOBI binary16alt ops=[e8m7:add/sub 648/0, e8m7:mul 216/0] casts=[] loads=[16 864/0] stores=[16 216/0] pairs=[e8m7 648/0] int=660",
    "JACOBI binary32 ops=[e8m23:add/sub 648/0, e8m23:mul 216/0] casts=[] loads=[32 864/0] stores=[32 216/0] pairs=[e8m23 648/0] int=660",
    "JACOBI tuned@1e-2 ops=[e8m7:add/sub 648/0, e8m7:mul 216/0] casts=[e5m2>e8m7 216/0] loads=[16 864/0] stores=[16 216/0] pairs=[e8m7 432/0] int=660",
    "KNN baseline ops=[e8m23:add/sub 0/192, e8m23:mul 0/96, e8m23:cmp 69/0] casts=[] loads=[32 69/192] stores=[32 0/24] pairs=[e8m23 0/192] int=336",
    "KNN binary8 ops=[e5m2:add/sub 0/192, e5m2:mul 0/96, e5m2:cmp 69/0] casts=[] loads=[8 69/192] stores=[8 0/24] pairs=[e5m2 0/192] int=336",
    "KNN binary16 ops=[e5m10:add/sub 0/192, e5m10:mul 0/96, e5m10:cmp 69/0] casts=[] loads=[16 69/192] stores=[16 0/24] pairs=[e5m10 0/192] int=336",
    "KNN binary16alt ops=[e8m7:add/sub 0/192, e8m7:mul 0/96, e8m7:cmp 69/0] casts=[] loads=[16 69/192] stores=[16 0/24] pairs=[e8m7 0/192] int=336",
    "KNN binary32 ops=[e8m23:add/sub 0/192, e8m23:mul 0/96, e8m23:cmp 69/0] casts=[] loads=[32 69/192] stores=[32 0/24] pairs=[e8m23 0/192] int=336",
    "KNN tuned@1e-2 ops=[e5m2:add/sub 0/192, e5m2:mul 0/96, e5m2:cmp 69/0] casts=[] loads=[8 69/192] stores=[8 0/24] pairs=[e5m2 0/192] int=336",
    "PCA baseline ops=[e8m23:add/sub 1048/0, e8m23:mul 1366/0, e8m23:div 54/0, e8m23:sqrt 36/0, e8m23:cmp 36/0] casts=[] loads=[32 1510/0] stores=[32 584/0] pairs=[e8m23 1046/0] int=1592",
    "PCA binary8 ops=[e5m2:add/sub 1048/0, e5m2:mul 1366/0, e5m2:div 54/0, e5m2:sqrt 36/0, e5m2:cmp 36/0] casts=[] loads=[8 1510/0] stores=[8 584/0] pairs=[e5m2 1046/0] int=1592",
    "PCA binary16 ops=[e5m10:add/sub 1048/0, e5m10:mul 1366/0, e5m10:div 54/0, e5m10:sqrt 36/0, e5m10:cmp 36/0] casts=[] loads=[16 1510/0] stores=[16 584/0] pairs=[e5m10 1046/0] int=1592",
    "PCA binary16alt ops=[e8m7:add/sub 1048/0, e8m7:mul 1366/0, e8m7:div 54/0, e8m7:sqrt 36/0, e8m7:cmp 36/0] casts=[] loads=[16 1510/0] stores=[16 584/0] pairs=[e8m7 1046/0] int=1592",
    "PCA binary32 ops=[e8m23:add/sub 1048/0, e8m23:mul 1366/0, e8m23:div 54/0, e8m23:sqrt 36/0, e8m23:cmp 36/0] casts=[] loads=[32 1510/0] stores=[32 584/0] pairs=[e8m23 1046/0] int=1592",
    "PCA tuned@1e-2 ops=[e5m10:add/sub 256/0, e5m10:mul 256/0, e8m7:mul 160/0, e8m23:add/sub 792/0, e8m23:mul 950/0, e8m23:div 54/0, e8m23:sqrt 36/0, e8m23:cmp 36/0] casts=[e5m2>e8m23 14/0, e5m10>e8m7 256/0, e5m10>e8m23 144/0, e8m7>e5m10 512/0, e8m7>e8m23 288/0, e8m23>e5m10 144/0, e8m23>e8m7 64/0] loads=[16 1104/0, 32 406/0] stores=[16 276/0, 32 308/0] pairs=[e8m23 630/0] int=1592",
    "DWT baseline ops=[e8m23:add/sub 80/80, e8m23:mul 80/80] casts=[] loads=[32 80/80] stores=[32 80/80] pairs=[e8m23 80/80] int=244",
    "DWT binary8 ops=[e5m2:add/sub 80/80, e5m2:mul 80/80] casts=[] loads=[8 80/80] stores=[8 80/80] pairs=[e5m2 80/80] int=244",
    "DWT binary16 ops=[e5m10:add/sub 80/80, e5m10:mul 80/80] casts=[] loads=[16 80/80] stores=[16 80/80] pairs=[e5m10 80/80] int=244",
    "DWT binary16alt ops=[e8m7:add/sub 80/80, e8m7:mul 80/80] casts=[] loads=[16 80/80] stores=[16 80/80] pairs=[e8m7 80/80] int=244",
    "DWT binary32 ops=[e8m23:add/sub 80/80, e8m23:mul 80/80] casts=[] loads=[32 80/80] stores=[32 80/80] pairs=[e8m23 80/80] int=244",
    "DWT tuned@1e-2 ops=[e8m7:add/sub 80/80, e8m7:mul 80/80] casts=[e5m2>e8m7 80/80] loads=[16 80/80] stores=[16 80/80] pairs=[] int=244",
    "SVM baseline ops=[e8m23:add/sub 114/144, e8m23:mul 144/144] casts=[] loads=[32 78/288] stores=[] pairs=[e8m23 144/144] int=468",
    "SVM binary8 ops=[e5m2:add/sub 114/144, e5m2:mul 144/144] casts=[] loads=[8 78/288] stores=[] pairs=[e5m2 144/144] int=468",
    "SVM binary16 ops=[e5m10:add/sub 114/144, e5m10:mul 144/144] casts=[] loads=[16 78/288] stores=[] pairs=[e5m10 144/144] int=468",
    "SVM binary16alt ops=[e8m7:add/sub 114/144, e8m7:mul 144/144] casts=[] loads=[16 78/288] stores=[] pairs=[e8m7 144/144] int=468",
    "SVM binary32 ops=[e8m23:add/sub 114/144, e8m23:mul 144/144] casts=[] loads=[32 78/288] stores=[] pairs=[e8m23 144/144] int=468",
    "SVM tuned@1e-2 ops=[e5m10:mul 0/144, e8m23:add/sub 114/144, e8m23:mul 144/0] casts=[e5m10>e8m23 0/144, e8m7>e5m10 0/144, e8m7>e8m23 150/0] loads=[16 78/288] stores=[] pairs=[e8m23 108/0] int=468",
    "CONV baseline ops=[e8m23:add/sub 0/900, e8m23:mul 0/900] casts=[] loads=[32 0/1800] stores=[32 36/0] pairs=[e8m23 0/900] int=1872",
    "CONV binary8 ops=[e5m2:add/sub 0/900, e5m2:mul 0/900] casts=[] loads=[8 0/1800] stores=[8 36/0] pairs=[e5m2 0/900] int=1872",
    "CONV binary16 ops=[e5m10:add/sub 0/900, e5m10:mul 0/900] casts=[] loads=[16 0/1800] stores=[16 36/0] pairs=[e5m10 0/900] int=1872",
    "CONV binary16alt ops=[e8m7:add/sub 0/900, e8m7:mul 0/900] casts=[] loads=[16 0/1800] stores=[16 36/0] pairs=[e8m7 0/900] int=1872",
    "CONV binary32 ops=[e8m23:add/sub 0/900, e8m23:mul 0/900] casts=[] loads=[32 0/1800] stores=[32 36/0] pairs=[e8m23 0/900] int=1872",
    "CONV tuned@1e-2 ops=[e5m10:add/sub 0/900, e8m7:mul 0/900] casts=[e5m10>e8m7 36/0, e8m7>e5m10 0/900] loads=[16 0/1800] stores=[16 36/0] pairs=[] int=1872",
    "GEMM baseline ops=[e8m23:add/sub 0/120, e8m23:mul 20/120] casts=[] loads=[32 0/240] stores=[32 20/0] pairs=[e8m23 0/120] int=280",
    "GEMM binary8 ops=[e5m2:add/sub 0/120, e5m2:mul 20/120] casts=[] loads=[8 0/240] stores=[8 20/0] pairs=[e5m2 0/120] int=280",
    "GEMM binary16 ops=[e5m10:add/sub 0/120, e5m10:mul 20/120] casts=[] loads=[16 0/240] stores=[16 20/0] pairs=[e5m10 0/120] int=280",
    "GEMM binary16alt ops=[e8m7:add/sub 0/120, e8m7:mul 20/120] casts=[] loads=[16 0/240] stores=[16 20/0] pairs=[e8m7 0/120] int=280",
    "GEMM binary32 ops=[e8m23:add/sub 0/120, e8m23:mul 20/120] casts=[] loads=[32 0/240] stores=[32 20/0] pairs=[e8m23 0/120] int=280",
    "GEMM tuned@1e-2 ops=[e8m7:mul 0/120, e8m23:add/sub 0/120, e8m23:mul 20/0] casts=[e8m7>e8m23 20/120, e8m23>e8m7 20/0] loads=[16 0/240] stores=[16 20/0] pairs=[] int=280",
    "FFT baseline ops=[e8m23:add/sub 48/144, e8m23:mul 32/96] casts=[] loads=[32 48/144] stores=[32 32/96] pairs=[e8m23 16/48] int=80",
    "FFT binary8 ops=[e5m2:add/sub 48/144, e5m2:mul 32/96] casts=[] loads=[8 48/144] stores=[8 32/96] pairs=[e5m2 16/48] int=80",
    "FFT binary16 ops=[e5m10:add/sub 48/144, e5m10:mul 32/96] casts=[] loads=[16 48/144] stores=[16 32/96] pairs=[e5m10 16/48] int=80",
    "FFT binary16alt ops=[e8m7:add/sub 48/144, e8m7:mul 32/96] casts=[] loads=[16 48/144] stores=[16 32/96] pairs=[e8m7 16/48] int=80",
    "FFT binary32 ops=[e8m23:add/sub 48/144, e8m23:mul 32/96] casts=[] loads=[32 48/144] stores=[32 32/96] pairs=[e8m23 16/48] int=80",
    "FFT tuned@1e-2 ops=[e5m10:add/sub 32/96, e8m7:add/sub 16/48, e8m7:mul 32/96] casts=[e5m10>e8m7 32/96, e8m7>e5m10 48/144] loads=[16 48/144] stores=[16 32/96] pairs=[e8m7 16/48] int=80",
    "MLP baseline ops=[e8m23:add/sub 16/144, e8m23:mul 0/144, e8m23:div 16/0] casts=[] loads=[32 22/240] stores=[32 6/0] pairs=[e8m23 16/144] int=288",
    "MLP binary8 ops=[e5m2:add/sub 16/144, e5m2:mul 0/144, e5m2:div 16/0] casts=[] loads=[8 22/240] stores=[8 6/0] pairs=[e5m2 16/144] int=288",
    "MLP binary16 ops=[e5m10:add/sub 16/144, e5m10:mul 0/144, e5m10:div 16/0] casts=[] loads=[16 22/240] stores=[16 6/0] pairs=[e5m10 16/144] int=288",
    "MLP binary16alt ops=[e8m7:add/sub 16/144, e8m7:mul 0/144, e8m7:div 16/0] casts=[] loads=[16 22/240] stores=[16 6/0] pairs=[e8m7 16/144] int=288",
    "MLP binary32 ops=[e8m23:add/sub 16/144, e8m23:mul 0/144, e8m23:div 16/0] casts=[] loads=[32 22/240] stores=[32 6/0] pairs=[e8m23 16/144] int=288",
    "MLP tuned@1e-2 ops=[e5m10:add/sub 16/144, e5m10:mul 0/48, e5m10:div 16/0, e8m7:mul 0/96] casts=[e5m10>e8m7 6/0, e8m7>e5m10 22/144] loads=[16 22/240] stores=[16 6/0] pairs=[e5m10 16/48] int=288",
    "BLACKSCHOLES baseline ops=[e8m23:add/sub 158/0, e8m23:mul 360/0, e8m23:div 48/0, e8m23:sqrt 6/0, e8m23:cmp 12/0] casts=[] loads=[32 84/0] stores=[] pairs=[e8m23 434/0] int=12",
    "BLACKSCHOLES binary8 ops=[e5m2:add/sub 158/0, e5m2:mul 360/0, e5m2:div 48/0, e5m2:sqrt 6/0, e5m2:cmp 12/0] casts=[] loads=[8 84/0] stores=[] pairs=[e5m2 434/0] int=12",
    "BLACKSCHOLES binary16 ops=[e5m10:add/sub 158/0, e5m10:mul 360/0, e5m10:div 48/0, e5m10:sqrt 6/0, e5m10:cmp 12/0] casts=[] loads=[16 84/0] stores=[] pairs=[e5m10 434/0] int=12",
    "BLACKSCHOLES binary16alt ops=[e8m7:add/sub 158/0, e8m7:mul 360/0, e8m7:div 48/0, e8m7:sqrt 6/0, e8m7:cmp 12/0] casts=[] loads=[16 84/0] stores=[] pairs=[e8m7 434/0] int=12",
    "BLACKSCHOLES binary32 ops=[e8m23:add/sub 158/0, e8m23:mul 360/0, e8m23:div 48/0, e8m23:sqrt 6/0, e8m23:cmp 12/0] casts=[] loads=[32 84/0] stores=[] pairs=[e8m23 434/0] int=12",
    "BLACKSCHOLES tuned@1e-2 ops=[e5m10:div 6/0, e8m7:mul 12/0, e8m23:add/sub 158/0, e8m23:mul 348/0, e8m23:div 42/0, e8m23:sqrt 6/0, e8m23:cmp 12/0] casts=[e5m10>e8m23 18/0, e8m7>e5m10 6/0, e8m7>e8m23 102/0] loads=[16 84/0] stores=[] pairs=[e8m23 392/0] int=12",
];

#[test]
fn small_suite_counts_match_the_golden_table() {
    let got: Vec<String> = all_kernels_small()
        .iter()
        .flat_map(|app| {
            configs(app.as_ref())
                .into_iter()
                .map(|(label, config)| line(app.name(), label, &record_run(app.as_ref(), &config)))
                .collect::<Vec<_>>()
        })
        .collect();
    let table = got.join("\n");
    assert_eq!(got.len(), GOLDEN.len(), "row count; got:\n{table}");
    for (got, want) in got.iter().zip(GOLDEN) {
        assert_eq!(got, want, "got:\n{table}");
    }
}
