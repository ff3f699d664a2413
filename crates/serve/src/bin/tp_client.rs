//! The tuning-service client.
//!
//! ```text
//! tp_client --addr HOST:PORT submit app=<kernel> threshold=<f64> [field=value…] [--wait] [--json]
//! tp_client --addr HOST:PORT status <key>
//! tp_client --addr HOST:PORT result <key> [--wait] [--json]
//! tp_client --addr HOST:PORT list
//! tp_client --addr HOST:PORT stats [--json]
//! tp_client --addr HOST:PORT trace <key>
//! tp_client --addr HOST:PORT shutdown
//! tp_client direct app=<kernel> threshold=<f64> [field=value…] [--json]
//! ```
//!
//! `submit --wait` prints `key=… state=… cache_hit=…` followed by the
//! per-variable format summary (one stable `var …` line per variable).
//! `direct` computes the *same* record in-process through the library
//! path (`tp_store::tuned_record`) and prints the same summary lines —
//! CI diffs the two to assert served results are bit-identical to direct
//! library calls. `--json` swaps the summary for the full record in the
//! shared tp-store JSON schema.
//!
//! `stats` fetches the server's `STATS` snapshot and prints greppable
//! lines: server counters, the store report (`store hits=… misses=…`),
//! and — when the server runs with `TP_METRICS` on — the queue wait
//! (`queue count=… p50<=…ns p99<=…ns p999<=…ns`) and per-frame-type
//! latency (`latency SUBMIT count=… p50<=…ns p99<=…ns p999<=…ns`).
//! `stats --json` prints the raw snapshot instead.
//!
//! With `TP_TRACE_EVENTS=<path>` set, `submit` mints a trace id, sends
//! it on the wire (`trace=<hex>`) so the server files its spans under
//! the same trace, records the client-side request span, and writes the
//! client's own Chrome trace JSON to `<path>` on exit. `trace <key>`
//! fetches the server-side span tree for an earlier submit.

use std::process::ExitCode;

use tp_serve::{format_summary, Client};
use tp_store::record_to_json;

fn main() -> ExitCode {
    let code = match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("tp_client: {msg}");
            ExitCode::FAILURE
        }
    };
    // Writes the client-side span tree when TP_TRACE_EVENTS is set
    // (no-op otherwise) — after run() so every span guard has dropped.
    tp_obs::trace::maybe_dump();
    code
}

fn run() -> Result<(), String> {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = take_flag(&mut args, "--json");
    let wait = take_flag(&mut args, "--wait");
    let addr = take_value(&mut args, "--addr")?;

    let mut it = args.into_iter();
    let verb = it.next().ok_or("no command (try --help)")?;
    let rest: Vec<String> = it.collect();
    match verb.as_str() {
        "submit" => {
            let addr = addr.ok_or("submit needs --addr")?;
            let mut client = connect(&addr)?;
            let mut spec = format!("SUBMIT {}", rest.join(" "));
            // With tracing on, mint the trace id client-side and send it
            // on the wire: the server's spans then join this process's
            // tree, and chrome://tracing shows one causal story. An
            // explicit trace= field from the user wins.
            let trace_id = (tp_obs::tracing_enabled()
                && !rest.iter().any(|a| a.starts_with("trace=")))
            .then(tp_obs::trace::mint_id);
            if let Some(t) = trace_id {
                use std::fmt::Write as _;
                let _ = write!(spec, " trace={t:x}");
            }
            let _root = trace_id.map(|t| tp_obs::Span::enter_traced("client.request.SUBMIT", t));
            let (key, state) = client.submit(&spec).map_err(stringify)?;
            if !wait {
                println!("key={key} state={state}");
                return Ok(());
            }
            let result = client.result_wait(&key).map_err(stringify)?;
            println!(
                "key={key} state=done cache_hit={}",
                u8::from(result.cache_hit)
            );
            print_record(&result.record, json);
            Ok(())
        }
        "status" => {
            let addr = addr.ok_or("status needs --addr")?;
            let key = rest.first().ok_or("status needs a job key")?;
            let state = connect(&addr)?.status(key).map_err(stringify)?;
            println!("key={key} state={state}");
            Ok(())
        }
        "result" => {
            let addr = addr.ok_or("result needs --addr")?;
            let key = rest.first().ok_or("result needs a job key")?;
            let mut client = connect(&addr)?;
            if wait {
                let result = client.result_wait(key).map_err(stringify)?;
                println!(
                    "key={key} state=done cache_hit={}",
                    u8::from(result.cache_hit)
                );
                print_record(&result.record, json);
            } else {
                let raw = client.call(&format!("RESULT {key}")).map_err(stringify)?;
                println!("{raw}");
            }
            Ok(())
        }
        "list" => {
            let addr = addr.ok_or("list needs --addr")?;
            println!("{}", connect(&addr)?.list().map_err(stringify)?);
            Ok(())
        }
        "stats" => {
            let addr = addr.ok_or("stats needs --addr")?;
            let raw = connect(&addr)?.stats().map_err(stringify)?;
            if json {
                println!("{raw}");
            } else {
                print!("{}", render_stats(&raw)?);
            }
            Ok(())
        }
        "trace" => {
            let addr = addr.ok_or("trace needs --addr")?;
            let key = rest.first().ok_or("trace needs a job key")?;
            println!("{}", connect(&addr)?.trace(key).map_err(stringify)?);
            Ok(())
        }
        "shutdown" => {
            let addr = addr.ok_or("shutdown needs --addr")?;
            println!("{}", connect(&addr)?.shutdown().map_err(stringify)?);
            Ok(())
        }
        "direct" => {
            // The in-process reference path: same request grammar, same
            // record, zero server involvement (and no store — this is the
            // "cold direct library call" CI compares against).
            let payload = format!("SUBMIT {}", rest.join(" "));
            let tp_serve::proto::Request::Submit(submit) =
                tp_serve::proto::parse_request(&payload)?
            else {
                return Err("direct expects SUBMIT-style fields".to_owned());
            };
            let app = tp_kernels::registry()
                .resolve(&submit.app)
                .ok_or_else(|| format!("unknown kernel {:?}", submit.app))?;
            let record = tp_store::tuned_record(app.as_ref(), submit.search_params(0));
            println!("direct app={} threshold={:?}", submit.app, submit.threshold);
            print_record(&record, json);
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!(
                "tp_client --addr HOST:PORT submit app=<kernel> threshold=<f64> [field=value...] [--wait] [--json]\n\
                 tp_client --addr HOST:PORT status|result <key> [--wait] [--json]\n\
                 tp_client --addr HOST:PORT list|shutdown\n\
                 tp_client --addr HOST:PORT stats [--json]\n\
                 tp_client --addr HOST:PORT trace <key>\n\
                 tp_client direct app=<kernel> threshold=<f64> [field=value...] [--json]"
            );
            Ok(())
        }
        other => Err(format!("unknown command {other:?}")),
    }
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

fn stringify(e: std::io::Error) -> String {
    e.to_string()
}

/// Renders the `STATS` JSON as stable, greppable lines (see the module
/// docs). Unknown/missing sections are skipped, not errors — the payload
/// shape may grow.
fn render_stats(raw: &str) -> Result<String, String> {
    use std::fmt::Write as _;
    use tp_store::json::Value;
    let payload = Value::parse(raw).map_err(|e| format!("bad STATS payload: {e}"))?;
    let num = |v: &Value, k: &str| v.get(k).and_then(Value::as_num).unwrap_or(0);
    let mut out = String::new();
    if let Some(server) = payload.get("server") {
        let _ = writeln!(
            out,
            "server submitted={} deduped={} rejected={} completed={} failed={} hits={} misses={} queue_depth={} queue_hwm={}",
            num(server, "submitted"),
            num(server, "deduped"),
            num(server, "rejected"),
            num(server, "completed"),
            num(server, "failed"),
            num(server, "store_hits"),
            num(server, "store_misses"),
            num(server, "queue_depth"),
            num(server, "queue_hwm"),
        );
    }
    if let Some(store) = payload.get("store") {
        if store.get("enabled").and_then(Value::as_bool) == Some(true) {
            let _ = writeln!(
                out,
                "store hits={} misses={} evictions={} corrupt_quarantined={} entries={} bytes={}",
                num(store, "hits"),
                num(store, "misses"),
                num(store, "evictions"),
                num(store, "corrupt_quarantined"),
                num(store, "entries"),
                num(store, "bytes"),
            );
        } else {
            let _ = writeln!(out, "store off");
        }
    }
    let mode = payload
        .get("metrics_mode")
        .and_then(Value::as_str)
        .unwrap_or("off");
    let _ = writeln!(out, "metrics mode={mode}");
    if let Some(Value::Obj(hists)) = payload.get("metrics").and_then(|m| m.get("hists")) {
        for (name, hist) in hists {
            if name == "serve.queue_ns" {
                let _ = writeln!(
                    out,
                    "queue count={} p50<={}ns p99<={}ns p999<={}ns",
                    num(hist, "count"),
                    num(hist, "p50"),
                    num(hist, "p99"),
                    num(hist, "p999"),
                );
                continue;
            }
            let Some(verb) = name.strip_prefix("serve.request_ns.") else {
                continue;
            };
            let _ = writeln!(
                out,
                "latency {verb} count={} p50<={}ns p99<={}ns p999<={}ns",
                num(hist, "count"),
                num(hist, "p50"),
                num(hist, "p99"),
                num(hist, "p999"),
            );
        }
    }
    Ok(out)
}

fn print_record(record: &tp_store::TuningRecord, json: bool) {
    if json {
        println!("{}", record_to_json(record));
    } else {
        print!("{}", format_summary(record));
    }
}

/// Removes `flag` from `args` if present; returns whether it was.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    match args.iter().position(|a| a == flag) {
        Some(i) => {
            args.remove(i);
            true
        }
        None => false,
    }
}

/// Removes `flag VALUE` from `args` if present.
fn take_value(args: &mut Vec<String>, flag: &str) -> Result<Option<String>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) if i + 1 < args.len() => {
            let value = args.remove(i + 1);
            args.remove(i);
            Ok(Some(value))
        }
        Some(_) => Err(format!("{flag} needs a value")),
    }
}
