//! Every value-producing op hands its result the tape id the sink gave
//! *it*. The outlined hooked bodies return the value and its producer id
//! in registers and pass the tape id back through a thread-local, so an
//! op class that forgot to set it would hand out the id of whatever op ran
//! before. The program below interleaves two independent chains, so the
//! op before each op belongs to the other chain: a stale id wires a tape
//! entry to the wrong value, and the replay's outputs stop matching the
//! live run's.

use std::sync::Arc;

use flexfloat::backend::SoftFloat;
use flexfloat::{Engine, Fx, FxArray, Recorder, TypeConfig, VarSpec};
use tp_formats::{BINARY16, BINARY16ALT, BINARY32, BINARY8};
use tp_trace::{Replayed, Trace};

const INPUT: [f64; 6] = [0.75, 1.25, 0.5, 1.5, 0.875, 1.125];

fn vars() -> Vec<VarSpec> {
    vec![
        VarSpec::array("xs", INPUT.len()),
        VarSpec::array("out", INPUT.len()),
        VarSpec::scalar("p"),
        VarSpec::scalar("q"),
        VarSpec::scalar("w"),
    ]
}

/// Two chains, `p` and `q`, each step alternating between them: a load,
/// promoted bin ops, `sqrt`, two real `to`s, `max` and `min`, then one
/// product of both chains stored per element.
fn run(cfg: &TypeConfig) -> Vec<f64> {
    let xs = FxArray::from_f64s(cfg.format_of("xs"), &INPUT);
    let mut out = FxArray::zeros(cfg.format_of("out"), INPUT.len());
    let (pf, w) = (cfg.format_of("p"), cfg.format_of("w"));
    let mut p = Fx::new(0.7, pf);
    let mut q = Fx::new(1.3, cfg.format_of("q"));
    let lo = Fx::new(0.25, w);
    let hi = Fx::new(2.5, cfg.format_of("q"));
    for i in 0..xs.len() {
        let e = xs.get(i);
        let p1 = p * e;
        let q1 = q.sqrt();
        let p2 = p1.to(w);
        let q2 = q1 + e;
        let p3 = p2.max(lo);
        q = q2.min(hi);
        p = p3.to(pf);
        out.set(i, p * q);
    }
    let mut outputs = vec![p.value(), q.value()];
    outputs.extend(out.to_f64s());
    outputs
}

/// Configurations in which every variable has its own format, so every
/// promotion and every `to` is a real cast.
fn configs() -> Vec<TypeConfig> {
    let assign = |[xs, out, p, q, w]: [_; 5]| {
        TypeConfig::baseline()
            .with("xs", xs)
            .with("out", out)
            .with("p", p)
            .with("q", q)
            .with("w", w)
    };
    vec![
        // Five variables over four platform formats: `w` shares `out`'s.
        assign([BINARY8, BINARY16ALT, BINARY16, BINARY32, BINARY16ALT]),
        assign([BINARY16, BINARY8, BINARY32, BINARY16ALT, BINARY8]),
        assign([BINARY16ALT, BINARY32, BINARY8, BINARY16, BINARY32]),
    ]
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn each_hooked_op_hands_out_its_own_tape_id() {
    let trace = Trace::record(&vars(), run).expect("the program is recordable");
    assert_eq!(
        bits(trace.recorded_outputs()),
        bits(&run(trace.recorded_config()))
    );
    for cfg in configs() {
        let live = run(&cfg);
        // The hooked paths compute what the fast path computes.
        assert_eq!(bits(&Recorder::scoped(|| run(&cfg)).0), bits(&live));
        let softfloat = Engine::with(Arc::new(SoftFloat::new()), || run(&cfg));
        assert_eq!(bits(&softfloat), bits(&live));
        match trace.replay(&cfg) {
            Replayed::Output(out) => assert_eq!(bits(&out), bits(&live), "{cfg:?}"),
            Replayed::Divergent { .. } => panic!("no recorded comparisons to flip"),
        }
    }
}
