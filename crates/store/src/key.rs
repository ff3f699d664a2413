//! Content addressing: the [`JobKey`] a tuning result is stored under.
//!
//! A tuning result is reusable exactly when re-running the search would
//! reproduce it bit-for-bit, so the key hashes everything the chosen
//! formats (and the stored accounting) can depend on:
//!
//! * the **kernel identity** — its name *and* its declared variable set
//!   (name + element count per variable): two size variants of a kernel
//!   share a display name but are different programs;
//! * the **input-set descriptor** — [`SearchParams::input_sets`], since
//!   kernels derive their inputs deterministically from the set index;
//! * the **error metric and budget** — the relative-RMS threshold (as
//!   exact bits) plus the search shape (`max_precision`, `passes`, type
//!   system);
//! * the **tuner version** ([`tp_tuner::TUNER_VERSION`]) — an algorithm
//!   change silently invalidates every cached result, so it must change
//!   the key rather than the cache serve stale answers;
//! * the **backend** and [`TunerMode`] — the backend is proven
//!   outcome-invariant by the test suites, but "proven invariant today"
//!   is not an invariant of future backends; keying on it trades a
//!   little dedup for never serving a wrong artifact. The mode selects
//!   nothing since the tuner stopped replaying; it stays in the key
//!   (and in the stored record's all-zero [`ReplaySummary`]) until the
//!   benchmark stops naming it.
//!
//! **Deliberately excluded:** `SearchParams::workers` — chosen formats
//! and recorded counts are worker-count invariant by the determinism
//! contract (`DESIGN.md §5`), and the whole point of a shared store is
//! that an 8-worker server and a 1-worker laptop hit the same entries.
//! (The `evaluations` counter inside a stored outcome consequently
//! reflects the worker count of whoever computed it first.)
//!
//! [`SearchParams::input_sets`]: tp_tuner::SearchParams::input_sets
//! [`ReplaySummary`]: tp_tuner::ReplaySummary

use flexfloat::VarSpec;
use tp_tuner::SearchParams;
#[cfg(test)]
use tp_tuner::TunerMode;

/// The 64-bit content address of one tuning job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobKey(u64);

/// FNV-1a, 64-bit: tiny, dependency-free, and plenty for a cache key
/// space of at most a few thousand distinct jobs per deployment.
#[must_use]
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl JobKey {
    /// Computes the key for tuning `app_name` (declaring `vars`) under
    /// `params`, executed on the backend named `backend`
    /// ([`flexfloat::Engine::active_name`] for the calling thread).
    #[must_use]
    pub fn of(app_name: &str, vars: &[VarSpec], params: &SearchParams, backend: &str) -> JobKey {
        JobKey(fnv64(
            Self::describe(app_name, vars, params, backend).as_bytes(),
        ))
    }

    /// The canonical description string the key hashes — stable across
    /// runs and versions of this crate (the golden test pins it). Useful
    /// in logs to answer "why did these two jobs not dedup?".
    #[must_use]
    pub fn describe(
        app_name: &str,
        vars: &[VarSpec],
        params: &SearchParams,
        backend: &str,
    ) -> String {
        use std::fmt::Write as _;
        let mut d = format!("tp-job|app={app_name}|vars=");
        for (i, v) in vars.iter().enumerate() {
            if i > 0 {
                d.push(',');
            }
            let _ = write!(d, "{}:{}", v.name, v.elements);
        }
        let _ = write!(
            d,
            "|threshold={:016X}|sets={}|ts={}|maxp={}|passes={}|mode={}|backend={}|tuner=v{}",
            params.threshold.to_bits(),
            params.input_sets,
            params.type_system,
            params.max_precision,
            params.passes,
            params.mode.as_str(),
            backend,
            tp_tuner::TUNER_VERSION,
        );
        d
    }

    /// The raw 64-bit hash.
    #[must_use]
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// 16-hex-digit rendering — the spelling used in file names, the
    /// index, and the wire protocol.
    #[must_use]
    pub fn hex(self) -> String {
        format!("{:016x}", self.0)
    }

    /// Parses the [`JobKey::hex`] spelling (exactly 16 lowercase or
    /// uppercase hex digits — `from_str_radix`'s sign tolerance is
    /// explicitly excluded, so no two accepted spellings alias).
    #[must_use]
    pub fn from_hex(s: &str) -> Option<JobKey> {
        if s.len() != 16 || !s.bytes().all(|b| b.is_ascii_hexdigit()) {
            return None;
        }
        u64::from_str_radix(s, 16).ok().map(JobKey)
    }
}

impl std::fmt::Display for JobKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vars() -> Vec<VarSpec> {
        vec![VarSpec::array("x", 25), VarSpec::scalar("acc")]
    }

    fn params() -> SearchParams {
        SearchParams::paper(1e-1).with_mode(TunerMode::Replay)
    }

    #[test]
    fn key_is_stable_and_hex_round_trips() {
        let k = JobKey::of("CONV", &vars(), &params(), "emulated");
        assert_eq!(k, JobKey::of("CONV", &vars(), &params(), "emulated"));
        assert_eq!(JobKey::from_hex(&k.hex()), Some(k));
        assert_eq!(k.hex().len(), 16);
        assert_eq!(k.to_string(), k.hex());
        assert_eq!(JobKey::from_hex("xyz"), None);
        assert_eq!(JobKey::from_hex(""), None);
        // Sign-prefixed 16-char strings must not alias a 15-digit key.
        assert_eq!(JobKey::from_hex("+1234567890abcde"), None);
        assert_eq!(JobKey::from_hex("-1234567890abcde"), None);
    }

    #[test]
    fn every_keyed_dimension_changes_the_key() {
        let base = JobKey::of("CONV", &vars(), &params(), "emulated");
        let p = params();
        let variants = [
            JobKey::of("DWT", &vars(), &p, "emulated"),
            JobKey::of("CONV", &[VarSpec::array("x", 26)], &p, "emulated"),
            JobKey::of(
                "CONV",
                &vars(),
                &SearchParams::paper(1e-2).with_mode(TunerMode::Replay),
                "emulated",
            ),
            JobKey::of(
                "CONV",
                &vars(),
                &SearchParams { input_sets: 4, ..p },
                "emulated",
            ),
            JobKey::of(
                "CONV",
                &vars(),
                &SearchParams {
                    max_precision: 11,
                    ..p
                },
                "emulated",
            ),
            JobKey::of(
                "CONV",
                &vars(),
                &SearchParams { passes: 3, ..p },
                "emulated",
            ),
            JobKey::of("CONV", &vars(), &p.with_mode(TunerMode::Live), "emulated"),
            JobKey::of("CONV", &vars(), &p, "softfloat"),
            JobKey::of(
                "CONV",
                &vars(),
                &SearchParams {
                    type_system: tp_formats::TypeSystem::V1,
                    ..p
                },
                "emulated",
            ),
        ];
        for (i, v) in variants.iter().enumerate() {
            assert_ne!(base, *v, "variant {i} collided");
        }
    }

    #[test]
    fn worker_count_does_not_change_the_key() {
        let a = JobKey::of("CONV", &vars(), &params().with_workers(1), "emulated");
        let b = JobKey::of("CONV", &vars(), &params().with_workers(8), "emulated");
        assert_eq!(a, b);
    }

    #[test]
    fn describe_mentions_every_dimension() {
        let d = JobKey::describe("CONV", &vars(), &params(), "emulated");
        for needle in [
            "app=CONV",
            "x:25",
            "acc:1",
            "sets=3",
            "ts=V2",
            "maxp=24",
            "passes=2",
            "mode=replay",
            "backend=emulated",
            "tuner=v",
        ] {
            assert!(d.contains(needle), "{needle} missing from {d}");
        }
    }
}
