//! Adding your own workload to the platform — no trait impl required.
//!
//! The paper's flow (instrument → tune → map → deploy) is not limited to
//! the built-in kernels: any computation expressed over
//! [`Fx`](flexfloat::Fx) values can be declared with
//! [`TunableBuilder`](tp_tuner::TunableBuilder), registered in a
//! [`Registry`](tp_tuner::Registry) next to the ten built-ins, tuned
//! through the library, and served over the wire by `tp-serve` — all
//! with closures.
//!
//! Run with `cargo run --release --example custom_kernel`.

use std::sync::Arc;

use flexfloat::{Fx, FxArray};
use tp_serve::{format_summary, Client, KernelResolver, ServeConfig, Server};
use tp_tuner::{SizeVariant, Tunable, TunableBuilder};

/// Step 1 — declare the workload: a damped-oscillator integrator
/// (`x += v·dt; v -= (k·x + c·v)·dt`, Euler steps). Three tunable
/// variables, one run closure; the binary32 reference is the default.
fn oscillator(steps: usize) -> Box<dyn Tunable> {
    TunableBuilder::new("OSC")
        .array("state", 2)
        .scalar("k")
        .scalar("dt")
        .run(move |cfg, set| {
            let sf = cfg.format_of("state");
            let k = Fx::new(0.8 + 0.1 * set as f64, cfg.format_of("k"));
            let dt = Fx::new(0.05, cfg.format_of("dt"));
            let mut state = FxArray::from_f64s(sf, &[1.0, 0.0]);
            let mut trajectory = Vec::with_capacity(steps);
            for _ in 0..steps {
                let (x, v) = (state.get(0), state.get(1));
                state.set(0, x + v * dt);
                state.set(1, v - (k * x + Fx::new(0.1, sf) * v) * dt);
                trajectory.push(state.get(0).value());
            }
            trajectory
        })
        .build()
        .expect("valid declaration")
}

fn main() {
    let threshold = 1e-2;
    println!("Custom workload via TunableBuilder + Registry (threshold {threshold:.0e})\n");

    // Step 2 — register it next to the built-ins. The registry validates
    // eagerly: collisions or bad names fail here, not mid-search.
    let mut registry = tp_kernels::default_registry();
    registry
        .register("OSC", |variant| {
            oscillator(match variant {
                SizeVariant::Paper => 200,
                SizeVariant::Small => 40,
            })
        })
        .expect("OSC is a fresh, valid name");
    println!(
        "registry: {} kernels ({})",
        registry.len(),
        registry.names().collect::<Vec<_>>().join(", ")
    );

    // Step 3 — tune through the library path, like any built-in.
    let app = registry.resolve("OSC:small").expect("registered");
    let record = tp_store::tuned_record(
        app.as_ref(),
        tp_tuner::SearchParams::paper(threshold).with_workers(1),
    );
    println!(
        "\ndirect tuning: {} evaluations, formats:",
        record.outcome.evaluations
    );
    print!("{}", format_summary(&record));

    // Step 4 — serve it. The server's resolver is just the registry.
    let resolver: KernelResolver = Arc::new(move |spec: &str| registry.resolve(spec));
    let server = Server::bind(ServeConfig {
        resolver,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let (key, _) = client
        .submit(&format!("SUBMIT app=osc:small threshold={threshold}"))
        .expect("submit");
    let served = client.result_wait(&key).expect("result");
    println!("\nserved tuning (key {key}):");
    print!("{}", format_summary(&served.record));

    let listing = client.list().expect("list");
    let job_line = listing.lines().last().unwrap_or_default();
    println!("\nLIST reports the canonical spelling: {job_line}");

    client.shutdown().expect("shutdown");
    handle.join().expect("server thread");

    assert_eq!(
        format_summary(&record),
        format_summary(&served.record),
        "served formats must be bit-identical to direct"
    );
    println!("\nserved formats are bit-identical to the direct library path.");
}
