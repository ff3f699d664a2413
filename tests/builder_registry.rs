//! ISSUE 6 acceptance: a user-defined kernel constructed with
//! [`TunableBuilder`] — no hand-written `Tunable` impl anywhere — tunes
//! through the library path (`evaluate_app_with`) AND through a running
//! `tp-serve` instance whose resolver is an extended [`Registry`], with
//! served formats bit-identical to the direct computation.

use std::sync::Arc;

use flexfloat::Fx;
use tp_bench::evaluate_app_with;
use tp_platform::PlatformParams;
use tp_serve::{format_summary, Client, KernelResolver, ServeConfig, Server};
use tp_store::tuned_record;
use tp_tuner::{Registry, SearchParams, SizeVariant, Tunable, TunableBuilder};

/// The user-defined kernel at size `n`: `y_i = gain·x_i² + bias·x_i`, a
/// damped quadratic map over a deterministic ramp. Everything a kernel
/// needs — name, variables, run — comes from builder closures.
fn relax(n: usize) -> Box<dyn Tunable> {
    TunableBuilder::new("RELAX")
        .array("x", n)
        .scalar("gain")
        .scalar("bias")
        .run(move |cfg, set| {
            let xf = cfg.format_of("x");
            let gain = Fx::new(0.75, cfg.format_of("gain"));
            let bias = Fx::new(0.125, cfg.format_of("bias"));
            (0..n)
                .map(|i| {
                    let x = Fx::new(0.05 * (i + set + 1) as f64, xf);
                    (gain * x * x + bias * x).value()
                })
                .collect()
        })
        .build()
        .expect("RELAX declares a valid variable set")
}

/// The ten built-ins plus RELAX — the open-registry extension story.
fn extended_registry() -> Registry {
    let mut registry = tp_kernels::default_registry();
    registry
        .register("RELAX", |variant| {
            relax(match variant {
                SizeVariant::Paper => 32,
                SizeVariant::Small => 8,
            })
        })
        .expect("RELAX does not collide with a built-in");
    registry
}

#[test]
fn builder_kernel_tunes_through_the_library_path() {
    let app = relax(8);
    let result = evaluate_app_with(app.as_ref(), 1e-2, &PlatformParams::paper(), 1);
    assert_eq!(result.app, "RELAX");
    assert_eq!(result.outcome.vars.len(), 3);
    assert!(result.outcome.evaluations > 0);
    // The tuned storage config still meets the quality threshold.
    let reference = app.reference(0);
    let out = app.run(&result.storage, 0);
    assert!(tp_tuner::relative_rms_error(&reference, &out) <= 1e-2);
}

#[test]
fn builder_kernel_serves_identically_to_direct() {
    let registry = extended_registry();
    assert!(registry.contains("RELAX"));
    let resolver: KernelResolver = {
        let registry = registry.clone();
        Arc::new(move |spec: &str| registry.resolve(spec))
    };

    let server = Server::bind(ServeConfig {
        concurrency: 2,
        resolver,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().to_string();
    let handle = std::thread::spawn(move || server.run());

    let mut client = Client::connect(&addr).expect("connect");
    let (key, _state) = client
        .submit("SUBMIT app=relax:small threshold=1e-2")
        .expect("submit");
    let result = client.result_wait(&key).expect("result");

    // LIST reports the canonical kernel spelling next to the raw spec.
    let listing = client.list().expect("list");
    assert!(
        listing.contains("relax:small kernel=RELAX:small"),
        "{listing}"
    );

    // A built-in still resolves through the same extended registry.
    let (conv_key, _) = client
        .submit("SUBMIT app=CONV:small threshold=1e-1")
        .expect("submit built-in");
    client.result_wait(&conv_key).expect("built-in result");

    client.shutdown().expect("shutdown");
    let stats = handle.join().unwrap();
    assert_eq!(stats.completed, 2);
    assert_eq!(stats.failed, 0);

    // Served formats must be bit-identical to the direct library path.
    let direct = tuned_record(relax(8).as_ref(), SearchParams::paper(1e-2));
    assert_eq!(
        format_summary(&direct),
        format_summary(&result.record),
        "served formats differ from direct"
    );
    assert_eq!(direct.storage, result.record.storage);
}

#[test]
fn unknown_kernels_are_refused_with_the_extended_registry() {
    let registry = extended_registry();
    assert!(registry.resolve("RELAX:big").is_none());
    assert!(registry.resolve("UNDECLARED").is_none());
    // Collisions with built-ins fail fast, case-insensitively.
    let mut again = extended_registry();
    let err = again.register("conv", |_| relax(4));
    assert!(err.is_err(), "case-insensitive collision must be refused");
}
