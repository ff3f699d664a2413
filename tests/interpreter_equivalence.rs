//! The tape interpreter agrees with live runs through every replay entry
//! point.
//!
//! [`Trace::replay`] runs the raw structure-of-arrays loop with one lane;
//! [`Trace::replay_batch`] runs the same loop with one lane per input set.
//! For every kernel of the small suite, every input set's trace and a list
//! of uniform, recorded and mixed configurations, both must return the
//! same [`Replayed`]: the same output bits, or a
//! divergence at the same tape site — and a completed replay must return
//! the live run's output bits on the thread's datapath (`TP_BACKEND`).
//! The test keeps its historical name; the `Fx`-driven interpreter for
//! observed threads it once compared against is gone.

use flexfloat::TypeConfig;
use tp_formats::ALL_KINDS;
use tp_kernels::all_kernels_small;
use tp_trace::{Replayed, Trace};
use tp_tuner::{SearchParams, Tunable};

/// A replay result with outputs as bit patterns, so `-0.0`/`0.0` and NaN
/// payloads compare exactly.
fn key(r: &Replayed) -> Result<Vec<u64>, usize> {
    match r {
        Replayed::Output(out) => Ok(out.iter().map(|x| x.to_bits()).collect()),
        Replayed::Divergent { at } => Err(*at),
    }
}

/// Each uniform `FormatKind` configuration, the recorded one, and mixed
/// per-variable assignments cycling through the kinds.
fn configs(app: &dyn Tunable, trace: &Trace) -> Vec<TypeConfig> {
    let mut cfgs: Vec<TypeConfig> = ALL_KINDS
        .iter()
        .map(|kind| TypeConfig::uniform(kind.format()))
        .collect();
    cfgs.push(trace.recorded_config().clone());
    for (stride, offset) in [(1, 0), (1, 1), (3, 2)] {
        let mut cfg = TypeConfig::baseline();
        for (i, spec) in app.variables().iter().enumerate() {
            cfg.set(spec.name, ALL_KINDS[(i * stride + offset) % 4].format());
        }
        cfgs.push(cfg);
    }
    cfgs
}

#[test]
fn every_entry_point_agrees_with_the_observed_interpreter() {
    let sets = SearchParams::paper(1e-1).input_sets;
    let (mut completed, mut diverged) = (0, 0);
    for app in all_kernels_small() {
        let app = app.as_ref();
        let name = app.name();
        let traces: Vec<Trace> = (0..sets)
            .map(|set| {
                Trace::record(&app.variables(), |cfg| app.run(cfg, set))
                    .unwrap_or_else(|e| panic!("{name} set {set}: {e}"))
            })
            .collect();
        let lanes: Vec<&Trace> = traces.iter().collect();

        for (set, trace) in traces.iter().enumerate() {
            for cfg in &configs(app, trace) {
                let raw = key(&trace.replay(cfg));
                if raw.is_err() {
                    diverged += 1;
                } else {
                    completed += 1;
                    let live = app.run(cfg, set);
                    let live_bits = live.iter().map(|x| x.to_bits()).collect();
                    assert_eq!(raw, Ok(live_bits), "{name} set {set} live {cfg}");
                }
                let batched = Trace::replay_batch(&lanes, cfg);
                assert_eq!(raw, key(&batched[set]), "{name} set {set} batch {cfg}");
            }
        }
    }
    // Both outcomes are covered: outputs and divergence sites.
    assert!(
        completed > 0 && diverged > 0,
        "{completed} completed, {diverged} diverged"
    );
}
