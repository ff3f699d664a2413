//! The wire protocol: length-prefixed frames carrying line-oriented
//! requests and responses.
//!
//! # Framing
//!
//! Every message — in both directions — is one frame:
//!
//! ```text
//! <decimal payload length>\n<payload bytes>
//! ```
//!
//! The length line is ASCII digits only (no sign, no padding), capped at
//! [`MAX_FRAME`] bytes so a malicious or confused peer cannot make the
//! server allocate unboundedly. The payload is UTF-8 text.
//!
//! # Requests
//!
//! The payload's first whitespace-separated token is the verb:
//!
//! | Verb | Payload | Reply |
//! |---|---|---|
//! | `SUBMIT` | `SUBMIT app=<name[:variant]> threshold=<f64> [sets=N] [mode=live\|replay] [ts=V1\|V2] [passes=N] [maxp=N] [trace=<hex>]` | `OK <key> <state>` / `ERR full` / `ERR draining` / `ERR <reason>` |
//! | `STATUS` | `STATUS <key>` | `OK <state>` / `ERR unknown-key` |
//! | `RESULT` | `RESULT <key> [wait]` | `OK cache_hit=<0\|1>\n<record JSON>` / `PENDING` / `ERR …` |
//! | `LIST` | `LIST` | `OK n=<jobs> <stats…>` then one `<key> <state> <app> kernel=<NAME:variant> threshold=<t>` line per job |
//! | `STATS` | `STATS` | `OK <stats JSON>`: server counters + queue depth/HWM, the store's hit/miss/eviction/quarantine report, and (when `TP_METRICS` is on) the full metrics snapshot |
//! | `TRACE` | `TRACE <key>` | `OK <span-tree JSON>` / `ERR unknown-key` / `ERR no-trace` |
//! | `SHUTDOWN` | `SHUTDOWN` | `BYE <stats…>` after a graceful drain |
//!
//! `trace=<hex>` is optional and backward compatible: a client that
//! traces its own side mints a trace id (`tp_obs::trace::mint_id`) and
//! passes it so the server's spans join the client's tree; without it
//! the server mints one per SUBMIT when tracing is enabled. The id is
//! observational — it never reaches `SearchParams` or the `JobKey`, so
//! two submits differing only in `trace=` dedupe to one job (first id
//! wins).
//!
//! States are `queued`, `running`, `done`, `failed`. The record JSON is
//! exactly the `tp-store` serialization ([`tp_store::record_from_json`]
//! parses it), so wire payloads, store entries and `exp_* --json`
//! artifacts share one schema.

use std::io::{self, Read, Write};
use std::str::FromStr;

use tp_tuner::{SearchParams, TunerMode};

/// Upper bound on a frame payload (16 MiB — two orders of magnitude above
/// any real record).
pub const MAX_FRAME: usize = 16 << 20;

/// Writes one frame.
///
/// # Errors
///
/// Propagates I/O errors; refuses payloads over [`MAX_FRAME`].
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    if payload.len() > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "frame exceeds MAX_FRAME",
        ));
    }
    w.write_all(format!("{}\n", payload.len()).as_bytes())?;
    w.write_all(payload.as_bytes())?;
    w.flush()
}

/// Reads one frame. Returns `Ok(None)` on a clean EOF *before* the length
/// line (the peer hung up between requests).
///
/// # Errors
///
/// Propagates I/O errors; rejects malformed length lines, oversized
/// frames, non-UTF-8 payloads and mid-frame EOF.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<String>> {
    // Read the length line byte-by-byte (frames are small and the reader
    // is buffered by callers where it matters).
    let mut len_line = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match r.read(&mut byte)? {
            0 if len_line.is_empty() => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame header",
                ))
            }
            _ => {}
        }
        if byte[0] == b'\n' {
            break;
        }
        if !byte[0].is_ascii_digit() || len_line.len() > 8 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "malformed frame length",
            ));
        }
        len_line.push(byte[0]);
    }
    let len: usize = std::str::from_utf8(&len_line)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "malformed frame length"))?;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame exceeds MAX_FRAME",
        ));
    }
    // The buffer grows with the bytes actually received: a header alone
    // must not make the server commit `MAX_FRAME` bytes up front.
    let mut payload = Vec::new();
    r.take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "EOF inside frame payload",
        ));
    }
    String::from_utf8(payload)
        .map(Some)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame payload is not UTF-8"))
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Enqueue (or join) a tuning job.
    Submit(SubmitRequest),
    /// Query a job's state by key (hex spelling).
    Status(String),
    /// Fetch a job's result; `wait` blocks until it is done or failed.
    Result {
        /// The job key (hex spelling).
        key: String,
        /// Block until the job settles instead of answering `PENDING`.
        wait: bool,
    },
    /// Enumerate jobs and server statistics.
    List,
    /// Fetch the observability snapshot (counters, queue depth, store
    /// report, latency histograms) as JSON.
    Stats,
    /// Fetch one job's span tree (by key, hex spelling) as JSON.
    Trace(String),
    /// Drain the queue and stop the server.
    Shutdown,
}

impl Request {
    /// The request's verb name — the per-frame-type label of the
    /// `serve.request_ns.<VERB>` latency histograms.
    #[must_use]
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Submit(_) => "SUBMIT",
            Request::Status(_) => "STATUS",
            Request::Result { .. } => "RESULT",
            Request::List => "LIST",
            Request::Stats => "STATS",
            Request::Trace(_) => "TRACE",
            Request::Shutdown => "SHUTDOWN",
        }
    }
}

/// The `SUBMIT` verb's fields.
#[derive(Debug, Clone, PartialEq)]
pub struct SubmitRequest {
    /// Kernel spelling the server's resolver looks up — by default the
    /// shared kernel registry, `tp_kernels::registry()` (`"CONV"`,
    /// `"CONV:small"`, …).
    pub app: String,
    /// Quality threshold (relative RMS).
    pub threshold: f64,
    /// Input sets (default 3, the paper's evaluation setting).
    pub input_sets: usize,
    /// Tuner mode (default `replay`).
    pub mode: TunerMode,
    /// Type system (default V2).
    pub type_system: tp_formats::TypeSystem,
    /// Descent passes (default 2).
    pub passes: usize,
    /// Precision ceiling (default 24).
    pub max_precision: u32,
    /// Client-supplied trace id (`trace=<hex>`), if any. Observational
    /// only: excluded from [`SubmitRequest::search_params`] and hence
    /// from the `JobKey` — tracing must never change what runs or how
    /// results dedupe.
    pub trace: Option<u64>,
}

impl SubmitRequest {
    /// The [`SearchParams`] this request describes; `workers` is the
    /// server's per-job budget, never wire-controlled (a client must not
    /// be able to oversubscribe the server).
    #[must_use]
    pub fn search_params(&self, workers: usize) -> SearchParams {
        SearchParams {
            threshold: self.threshold,
            input_sets: self.input_sets,
            type_system: self.type_system,
            max_precision: self.max_precision,
            passes: self.passes,
            workers,
            mode: self.mode,
            // Batching is outcome-invariant (like `workers`), so it is the
            // server's choice, never wire-controlled.
            batch: true,
        }
    }
}

/// Parses one request payload.
///
/// # Errors
///
/// A human-readable description (sent back verbatim as `ERR <reason>`).
pub fn parse_request(payload: &str) -> Result<Request, String> {
    let mut tokens = payload.split_whitespace();
    let verb = tokens.next().ok_or("empty request")?;
    match verb {
        "SUBMIT" => parse_submit(tokens).map(Request::Submit),
        "STATUS" => {
            let key = tokens.next().ok_or("STATUS needs a job key")?.to_owned();
            ensure_done(tokens)?;
            Ok(Request::Status(key))
        }
        "RESULT" => {
            let key = tokens.next().ok_or("RESULT needs a job key")?.to_owned();
            let wait = match tokens.next() {
                None => false,
                Some("wait") => true,
                Some(other) => return Err(format!("unknown RESULT flag {other:?}")),
            };
            ensure_done(tokens)?;
            Ok(Request::Result { key, wait })
        }
        "LIST" => {
            ensure_done(tokens)?;
            Ok(Request::List)
        }
        "STATS" => {
            ensure_done(tokens)?;
            Ok(Request::Stats)
        }
        "TRACE" => {
            let key = tokens.next().ok_or("TRACE needs a job key")?.to_owned();
            ensure_done(tokens)?;
            Ok(Request::Trace(key))
        }
        "SHUTDOWN" => {
            ensure_done(tokens)?;
            Ok(Request::Shutdown)
        }
        other => Err(format!("unknown verb {other:?}")),
    }
}

fn ensure_done<'a>(mut tokens: impl Iterator<Item = &'a str>) -> Result<(), String> {
    match tokens.next() {
        None => Ok(()),
        Some(extra) => Err(format!("unexpected trailing token {extra:?}")),
    }
}

fn parse_submit<'a>(tokens: impl Iterator<Item = &'a str>) -> Result<SubmitRequest, String> {
    let mut app = None;
    let mut threshold = None;
    let mut req = SubmitRequest {
        app: String::new(),
        threshold: 0.0,
        input_sets: 3,
        mode: TunerMode::Replay,
        type_system: tp_formats::TypeSystem::V2,
        passes: 2,
        max_precision: 24,
        trace: None,
    };
    for token in tokens {
        let (k, v) = token
            .split_once('=')
            .ok_or_else(|| format!("SUBMIT field {token:?} is not key=value"))?;
        match k {
            "app" => app = Some(v.to_owned()),
            "threshold" => {
                let t: f64 = v.parse().map_err(|_| format!("bad threshold {v:?}"))?;
                if !(t.is_finite() && t > 0.0) {
                    return Err(format!("threshold {v:?} must be finite and positive"));
                }
                threshold = Some(t);
            }
            "sets" => {
                req.input_sets = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad sets {v:?}"))?;
            }
            "mode" => req.mode = TunerMode::from_str(v)?,
            "ts" => {
                req.type_system = match v {
                    "V1" => tp_formats::TypeSystem::V1,
                    "V2" => tp_formats::TypeSystem::V2,
                    _ => return Err(format!("bad type system {v:?}")),
                }
            }
            "passes" => {
                req.passes = v
                    .parse()
                    .ok()
                    .filter(|n| *n >= 1)
                    .ok_or_else(|| format!("bad passes {v:?}"))?;
            }
            "maxp" => {
                req.max_precision = v
                    .parse()
                    .ok()
                    .filter(|p| (2..=24).contains(p))
                    .ok_or_else(|| format!("bad maxp {v:?} (need 2..=24)"))?;
            }
            "trace" => {
                req.trace =
                    Some(u64::from_str_radix(v, 16).map_err(|_| format!("bad trace id {v:?}"))?);
            }
            other => return Err(format!("unknown SUBMIT field {other:?}")),
        }
    }
    req.app = app.ok_or("SUBMIT needs app=<kernel>")?;
    req.threshold = threshold.ok_or("SUBMIT needs threshold=<f64>")?;
    Ok(req)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "SUBMIT app=CONV threshold=0.1").unwrap();
        write_frame(&mut buf, "").unwrap();
        write_frame(&mut buf, "payload\nwith\nnewlines").unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("SUBMIT app=CONV threshold=0.1")
        );
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(""));
        assert_eq!(
            read_frame(&mut r).unwrap().as_deref(),
            Some("payload\nwith\nnewlines")
        );
        assert_eq!(read_frame(&mut r).unwrap(), None); // clean EOF
    }

    #[test]
    fn bad_frames_are_rejected() {
        for bad in [&b"notdigits\nxx"[..], b"12", b"3\nab", b"999999999999\n"] {
            let mut r = bad;
            assert!(read_frame(&mut r).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn short_payload_is_unexpected_eof() {
        for bad in [&b"16777216\n"[..], b"5\nabc"] {
            let mut r = bad;
            let err = read_frame(&mut r).expect_err("short payload accepted");
            assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{bad:?}");
        }
    }

    #[test]
    fn submit_parses_with_defaults_and_overrides() {
        let r = parse_request("SUBMIT app=CONV:small threshold=1e-1").unwrap();
        let Request::Submit(s) = r else { panic!() };
        assert_eq!(s.app, "CONV:small");
        assert_eq!(s.threshold, 1e-1);
        assert_eq!(s.input_sets, 3);
        assert_eq!(s.passes, 2);
        assert_eq!(s.max_precision, 24);

        let r =
            parse_request("SUBMIT app=DWT threshold=1e-3 sets=2 mode=live ts=V1 passes=1 maxp=11")
                .unwrap();
        let Request::Submit(s) = r else { panic!() };
        assert_eq!(s.input_sets, 2);
        assert_eq!(s.mode, TunerMode::Live);
        assert_eq!(s.type_system, tp_formats::TypeSystem::V1);
        assert_eq!(s.passes, 1);
        assert_eq!(s.max_precision, 11);
        let p = s.search_params(4);
        assert_eq!(p.workers, 4);
        assert_eq!(p.threshold, 1e-3);
    }

    #[test]
    fn submit_trace_id_parses_as_hex_and_stays_out_of_search_params() {
        let r = parse_request("SUBMIT app=CONV threshold=0.1").unwrap();
        let Request::Submit(s) = r else { panic!() };
        assert_eq!(s.trace, None);

        let r = parse_request("SUBMIT app=CONV threshold=0.1 trace=deadbeef").unwrap();
        let Request::Submit(s) = r else { panic!() };
        assert_eq!(s.trace, Some(0xdead_beef));

        // The trace id is observational: the JobKey derived from the
        // search params must be identical with and without it.
        let plain = parse_request("SUBMIT app=CONV threshold=0.1").unwrap();
        let traced = parse_request("SUBMIT app=CONV threshold=0.1 trace=1f").unwrap();
        let (Request::Submit(a), Request::Submit(b)) = (plain, traced) else {
            panic!()
        };
        let key_of =
            |s: &SubmitRequest| tp_store::JobKey::of("CONV", &[], &s.search_params(2), "backend");
        assert_eq!(key_of(&a), key_of(&b));
    }

    #[test]
    fn submit_rejects_bad_fields() {
        for bad in [
            "SUBMIT threshold=0.1",                       // no app
            "SUBMIT app=CONV",                            // no threshold
            "SUBMIT app=CONV threshold=zero",             // bad float
            "SUBMIT app=CONV threshold=-1",               // non-positive
            "SUBMIT app=CONV threshold=inf",              // non-finite
            "SUBMIT app=CONV threshold=0.1 sets=0",       // zero sets
            "SUBMIT app=CONV threshold=0.1 mode=fast",    // bad mode
            "SUBMIT app=CONV threshold=0.1 ts=V3",        // bad ts
            "SUBMIT app=CONV threshold=0.1 maxp=40",      // out of range
            "SUBMIT app=CONV threshold=0.1 bogus=1",      // unknown field
            "SUBMIT app=CONV threshold=0.1 orphan-token", // not key=value
            "SUBMIT app=CONV threshold=0.1 trace=xyz",    // non-hex trace id
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn other_verbs_parse() {
        assert_eq!(
            parse_request("STATUS abc123").unwrap(),
            Request::Status("abc123".to_owned())
        );
        assert_eq!(
            parse_request("RESULT abc123 wait").unwrap(),
            Request::Result {
                key: "abc123".to_owned(),
                wait: true
            }
        );
        assert_eq!(parse_request("LIST").unwrap(), Request::List);
        assert_eq!(parse_request("STATS").unwrap(), Request::Stats);
        assert_eq!(
            parse_request("TRACE abc123").unwrap(),
            Request::Trace("abc123".to_owned())
        );
        assert_eq!(parse_request("SHUTDOWN").unwrap(), Request::Shutdown);
        for bad in [
            "",
            "NOP",
            "STATUS",
            "RESULT",
            "TRACE",
            "TRACE k extra",
            "LIST extra",
            "STATS extra",
            "RESULT k flag",
        ] {
            assert!(parse_request(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn verbs_name_every_request() {
        for (payload, verb) in [
            ("SUBMIT app=CONV threshold=0.1", "SUBMIT"),
            ("STATUS k", "STATUS"),
            ("RESULT k", "RESULT"),
            ("LIST", "LIST"),
            ("STATS", "STATS"),
            ("TRACE k", "TRACE"),
            ("SHUTDOWN", "SHUTDOWN"),
        ] {
            assert_eq!(parse_request(payload).unwrap().verb(), verb);
        }
    }
}
