//! Kernel-suite benchmarks: wall-clock cost of running each instrumented
//! application under the FlexFloat emulation, baseline vs tuned-storage
//! configurations, with and without statistics recording, and the cost of
//! recording a run as a tape and of replaying that tape.
//!
//! These measure the *exploration tooling* itself (the cost a developer
//! pays during the paper's programming flow), not the modelled ULP-core
//! cycles — those come from `tp-platform` and the `exp_fig6` harness.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

use flexfloat::{Recorder, TypeConfig};
use tp_formats::TypeSystem;
use tp_trace::Trace;
use tp_tuner::{distributed_search, storage_config, SearchParams};

fn bench_kernels(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernel_run");
    for app in tp_kernels::all_kernels_small() {
        let baseline = TypeConfig::baseline();
        group.bench_function(BenchmarkId::new("baseline", app.name()), |bch| {
            bch.iter(|| black_box(app.run(&baseline, 0)))
        });
        let tuned = storage_config(
            &distributed_search(
                app.as_ref(),
                SearchParams {
                    input_sets: 1,
                    ..SearchParams::paper(1e-1)
                },
            ),
            TypeSystem::V2,
        );
        group.bench_function(BenchmarkId::new("tuned", app.name()), |bch| {
            bch.iter(|| black_box(app.run(&tuned, 0)))
        });
        group.bench_function(BenchmarkId::new("recorded", app.name()), |bch| {
            bch.iter(|| {
                let (out, counts) = Recorder::scoped(|| app.run(&baseline, 0));
                black_box((out, counts.total_fp_ops()))
            })
        });
        bench_tape(&mut group, app.as_ref(), &baseline);
    }
    group.finish();
}

/// `taped/<KERNEL>`: one [`Trace::record`] of input set 0;
/// `replayed/<KERNEL>`: one [`Trace::replay`] of that tape under `config`
/// (a replay that diverges stops at the first flipped comparison).
fn bench_tape(
    group: &mut criterion::BenchmarkGroup<'_>,
    app: &dyn tp_tuner::Tunable,
    config: &TypeConfig,
) {
    let vars = app.variables();
    let record = || Trace::record(&vars, |cfg| app.run(cfg, 0)).expect("kernels are replayable");
    group.bench_function(BenchmarkId::new("taped", app.name()), |bch| {
        bch.iter(|| black_box(record()))
    });
    let trace = record();
    group.bench_function(BenchmarkId::new("replayed", app.name()), |bch| {
        bch.iter(|| black_box(trace.replay(config)))
    });
}

/// Recording cost at paper size: a live run at the recording configuration
/// next to one [`Trace::record`] and one [`Trace::replay`] of the same
/// input set there (which never diverges).
fn bench_record_cost(c: &mut Criterion) {
    let mut group = c.benchmark_group("record_cost");
    for name in ["CONV", "JACOBI", "PCA"] {
        let app = tp_kernels::registry()
            .resolve(name)
            .expect("built-in kernel");
        let recording = Trace::record(&app.variables(), |cfg| app.run(cfg, 0))
            .expect("kernels are replayable")
            .recorded_config()
            .clone();
        group.bench_function(BenchmarkId::new("live", app.name()), |bch| {
            bch.iter(|| black_box(app.run(&recording, 0)))
        });
        bench_tape(&mut group, app.as_ref(), &recording);
    }
    group.finish();
}

fn bench_tuning(c: &mut Criterion) {
    let mut group = c.benchmark_group("tuning");
    for app in tp_kernels::all_kernels_small() {
        group.bench_function(BenchmarkId::new("distributed_search", app.name()), |bch| {
            bch.iter(|| {
                black_box(distributed_search(
                    app.as_ref(),
                    SearchParams {
                        input_sets: 1,
                        ..SearchParams::paper(1e-1)
                    },
                ))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1600))
        .sample_size(20);
    targets = bench_kernels, bench_record_cost, bench_tuning
}
criterion_main!(benches);
