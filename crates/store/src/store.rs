//! The on-disk store: versioned layout, checksummed entries, atomic
//! writes, an index file, and LRU size-capped eviction.
//!
//! # Layout
//!
//! ```text
//! <root>/v1/entries/<jobkey-hex>.tpr    one checksummed record per job
//! <root>/v1/index                       recency + size bookkeeping
//! ```
//!
//! The format version is part of the *path*: a v2 store will live under
//! `<root>/v2/` and simply not see v1 entries — cross-version files can
//! never be misread as current-format data, and both versions can coexist
//! during a migration window.
//!
//! # Entry format and crash consistency
//!
//! An entry file is a one-line header followed by the canonical JSON body:
//!
//! ```text
//! tp-store v1 len=<body bytes> crc=<fnv64(body), 16 hex>\n
//! <body>
//! ```
//!
//! Entries are written to a unique temp file in the same directory and
//! published with [`std::fs::rename`], which is atomic on POSIX: a reader
//! sees either the old complete entry or the new complete entry, never a
//! torn one. Two concurrent writers of the same key both write valid
//! bytes for the same content address, so whichever rename lands last
//! wins and the loser's work is simply absorbed. A crash mid-write leaves
//! only a `.tmp-*` file, which [`Store::open`] sweeps.
//!
//! The `len`/`crc` header catches everything renames cannot: truncation,
//! bit rot, partial copies, or a foreign file squatting on the path. A
//! corrupt entry is deleted and reported as a miss — the caller
//! recomputes and rewrites it; the store never panics on, nor serves,
//! damaged bytes.
//!
//! # Index and eviction
//!
//! The index holds `(key, size, last-use sequence)` triples and is
//! rewritten atomically on every `put` (reads update recency in memory
//! only — the hit path does no index I/O). It is *advisory*: entries are
//! self-describing, so a stale or missing index (crash, concurrent
//! process) is healed by rescanning the entries directory on open, and a
//! `get` that finds an unindexed entry on disk adopts it. When the total
//! entry size exceeds the cap, lowest-sequence (least recently used)
//! entries are deleted until it fits.

use std::collections::BTreeMap;
use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::key::{fnv64, JobKey};
use crate::ser::{record_from_json, record_to_json, TuningRecord, FORMAT_VERSION};

/// Default size cap: 256 MiB of entries (a record is a few KiB, so this
/// is effectively "everything" for realistic deployments).
pub const DEFAULT_CAP_BYTES: u64 = 256 * 1024 * 1024;

/// The tuning-result store root: `TP_STORE_DIR`, or `None` (store
/// disabled) when unset. An empty value counts as unset, so
/// `TP_STORE_DIR= cmd` can switch the store off in a wrapper script.
#[must_use]
pub fn store_dir() -> Option<PathBuf> {
    match std::env::var("TP_STORE_DIR") {
        Ok(dir) if dir.is_empty() => None,
        Ok(dir) => Some(PathBuf::from(dir)),
        Err(std::env::VarError::NotPresent) => None,
        Err(e) => panic!("TP_STORE_DIR is set but unreadable: {e}"),
    }
}

/// The store eviction cap: `TP_STORE_CAP` parsed by [`parse_cap`],
/// default [`DEFAULT_CAP_BYTES`].
///
/// # Panics
///
/// On a malformed value (not a positive byte count with an optional
/// `K`/`M`/`G` suffix).
#[must_use]
pub fn store_cap() -> u64 {
    match std::env::var("TP_STORE_CAP") {
        Ok(s) => parse_cap(&s).unwrap_or_else(|e| panic!("TP_STORE_CAP={s:?}: {e}")),
        Err(std::env::VarError::NotPresent) => DEFAULT_CAP_BYTES,
        Err(e) => panic!("TP_STORE_CAP is set but unreadable: {e}"),
    }
}

/// Parses a byte-count string: a positive integer with an optional
/// (case-insensitive) `K`/`M`/`G` binary suffix — `"1048576"`, `"64M"`,
/// `"2G"`.
///
/// # Errors
///
/// A human-readable description of why the value is not a byte count.
pub fn parse_cap(s: &str) -> Result<u64, String> {
    let t = s.trim();
    let (digits, mult) = match t.chars().last() {
        Some('k' | 'K') => (&t[..t.len() - 1], 1u64 << 10),
        Some('m' | 'M') => (&t[..t.len() - 1], 1u64 << 20),
        Some('g' | 'G') => (&t[..t.len() - 1], 1u64 << 30),
        _ => (t, 1),
    };
    let n: u64 = digits
        .parse()
        .map_err(|_| format!("{s:?} is not a byte count (digits + optional K/M/G)"))?;
    let bytes = n
        .checked_mul(mult)
        .ok_or_else(|| format!("{s:?} overflows a 64-bit byte count"))?;
    if bytes == 0 {
        return Err(format!("{s:?} is zero; a store needs a positive cap"));
    }
    Ok(bytes)
}

/// One process's handle on a store directory. `Sync`: internal state is a
/// mutex around the index, so a server can share one handle across worker
/// threads. Multiple handles (or processes) on the same directory are
/// safe too — entries are atomically published and self-validating; only
/// index recency is last-writer-wins.
#[derive(Debug)]
pub struct Store {
    entries_dir: PathBuf,
    index_path: PathBuf,
    cap_bytes: u64,
    index: Mutex<Index>,
    tallies: Tallies,
}

/// Lifetime event counters for one store handle. Always on (they are a
/// handful of relaxed atomics, far off any hot path's critical section)
/// so [`Store::report`] works even with `TP_METRICS=off`; the same
/// events are mirrored into `tp_obs` counters when metrics are enabled.
#[derive(Debug, Default)]
struct Tallies {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    corrupt_quarantined: AtomicU64,
}

#[derive(Debug, Default)]
struct Index {
    /// key -> (entry bytes, last-use sequence number).
    entries: BTreeMap<u64, (u64, u64)>,
    next_seq: u64,
}

/// Counters for cache observability (served by `tp-serve`'s stats and the
/// CI job summary).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Entries currently present.
    pub entries: u64,
    /// Total bytes of entry files.
    pub bytes: u64,
}

/// A point-in-time report over one store handle: current size plus the
/// handle's lifetime event tallies. Unlike [`StoreStats`] (pure size
/// bookkeeping, kept stable for existing callers), this carries the
/// cache-behavior counters the `STATS` frame and `tp_client stats`
/// surface — including corruption quarantines, which would otherwise
/// vanish as silent misses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreReport {
    /// Entries currently present.
    pub entries: u64,
    /// Total bytes of entry files.
    pub bytes: u64,
    /// `get`s served from disk.
    pub hits: u64,
    /// `get`s that found nothing usable (includes quarantines).
    pub misses: u64,
    /// Entries deleted by the LRU cap.
    pub evictions: u64,
    /// Entries that failed validation and were deleted (each also counts
    /// as a miss — the caller recomputed).
    pub corrupt_quarantined: u64,
}

impl Store {
    /// Opens (creating if needed) the store rooted at `root`, with an
    /// eviction cap of `cap_bytes` (see [`DEFAULT_CAP_BYTES`]).
    ///
    /// Sweeps abandoned temp files and reconciles the index against the
    /// entries actually on disk.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors creating the layout or scanning it.
    pub fn open(root: impl AsRef<Path>, cap_bytes: u64) -> io::Result<Store> {
        let versioned = root.as_ref().join(format!("v{FORMAT_VERSION}"));
        let entries_dir = versioned.join("entries");
        fs::create_dir_all(&entries_dir)?;
        let store = Store {
            index_path: versioned.join("index"),
            entries_dir,
            cap_bytes: cap_bytes.max(1),
            index: Mutex::new(Index::default()),
            tallies: Tallies::default(),
        };
        {
            let mut index = store.index.lock().expect("store index poisoned");
            *index = store.load_index().unwrap_or_default();
            store.reconcile(&mut index)?;
            store.persist_index(&index)?;
        }
        Ok(store)
    }

    /// Opens with the default cap.
    ///
    /// # Errors
    ///
    /// See [`Store::open`].
    pub fn open_default(root: impl AsRef<Path>) -> io::Result<Store> {
        Self::open(root, DEFAULT_CAP_BYTES)
    }

    /// Looks up `key`. Returns `None` on a genuine miss *and* whenever the
    /// entry exists but fails validation (truncated, corrupted,
    /// unparseable) — damaged entries are deleted so the caller's recompute
    /// can transparently replace them. A hit refreshes the entry's LRU
    /// recency **in memory only**: the hot read path does no index I/O
    /// (concurrent cache hits must not serialize on a file rewrite), and
    /// the recency reaches disk with the next `put`. The index is
    /// advisory — recency lost to a crash merely ages an entry toward
    /// eviction.
    #[must_use]
    pub fn get(&self, key: JobKey) -> Option<TuningRecord> {
        let path = self.entry_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(_) => {
                // Genuine miss (or unreadable): drop any stale index row
                // (in memory; the next put persists the cleanup).
                let mut index = self.index.lock().expect("store index poisoned");
                index.entries.remove(&key.as_u64());
                drop(index);
                self.tallies.misses.fetch_add(1, Ordering::Relaxed);
                tp_obs::counter_inc("store.miss");
                return None;
            }
        };
        match decode_entry(&bytes) {
            Ok(record) => {
                let mut index = self.index.lock().expect("store index poisoned");
                index.next_seq += 1;
                let seq = index.next_seq;
                index
                    .entries
                    .insert(key.as_u64(), (bytes.len() as u64, seq));
                drop(index);
                self.tallies.hits.fetch_add(1, Ordering::Relaxed);
                tp_obs::counter_inc("store.hit");
                Some(record)
            }
            Err(_) => {
                // Detected via header/checksum/parse: never serve it,
                // never panic — delete and report a miss so the entry is
                // recomputed. (Persisting here is off the hot path: this
                // only happens on damage.) Counted as both a quarantine
                // and a miss: without the explicit quarantine tally this
                // event is indistinguishable from a cold lookup.
                let _ = fs::remove_file(&path);
                let mut index = self.index.lock().expect("store index poisoned");
                index.entries.remove(&key.as_u64());
                let _ = self.persist_index(&index);
                drop(index);
                self.tallies.misses.fetch_add(1, Ordering::Relaxed);
                self.tallies
                    .corrupt_quarantined
                    .fetch_add(1, Ordering::Relaxed);
                tp_obs::counter_inc("store.miss");
                tp_obs::counter_inc("store.corrupt_quarantined");
                None
            }
        }
    }

    /// Writes `record` under `key` (atomic temp-file + rename), updates
    /// the index, and evicts least-recently-used entries if the cap is
    /// now exceeded. The entry just written is never evicted by its own
    /// `put`, even if it alone exceeds the cap.
    ///
    /// # Errors
    ///
    /// Propagates filesystem errors; a failed `put` leaves at most a temp
    /// file behind (swept on the next [`Store::open`]) and never a
    /// half-written entry.
    pub fn put(&self, key: JobKey, record: &TuningRecord) -> io::Result<()> {
        let bytes = encode_entry(record);
        let path = self.entry_path(key);
        let tmp = self.entries_dir.join(format!(
            ".tmp-{}-{}-{}",
            std::process::id(),
            key.hex(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed),
        ));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(&bytes)?;
            f.sync_all()?;
        }
        fs::rename(&tmp, &path)?;

        let mut index = self.index.lock().expect("store index poisoned");
        index.next_seq += 1;
        let seq = index.next_seq;
        index
            .entries
            .insert(key.as_u64(), (bytes.len() as u64, seq));
        self.evict_over_cap(&mut index, key);
        self.persist_index(&index)?;
        if tp_obs::enabled() {
            tp_obs::gauge_set("store.bytes", index.entries.values().map(|(b, _)| *b).sum());
        }
        Ok(())
    }

    /// Current entry count and byte total (per the index).
    #[must_use]
    pub fn stats(&self) -> StoreStats {
        let index = self.index.lock().expect("store index poisoned");
        StoreStats {
            entries: index.entries.len() as u64,
            bytes: index.entries.values().map(|(b, _)| *b).sum(),
        }
    }

    /// Current size plus this handle's lifetime hit/miss/eviction/
    /// quarantine tallies (see [`StoreReport`]). Available regardless of
    /// `TP_METRICS`.
    #[must_use]
    pub fn report(&self) -> StoreReport {
        let stats = self.stats();
        StoreReport {
            entries: stats.entries,
            bytes: stats.bytes,
            hits: self.tallies.hits.load(Ordering::Relaxed),
            misses: self.tallies.misses.load(Ordering::Relaxed),
            evictions: self.tallies.evictions.load(Ordering::Relaxed),
            corrupt_quarantined: self.tallies.corrupt_quarantined.load(Ordering::Relaxed),
        }
    }

    /// `true` if `key` currently has an entry on disk.
    #[must_use]
    pub fn contains(&self, key: JobKey) -> bool {
        self.entry_path(key).exists()
    }

    /// The keys currently present, in key order.
    #[must_use]
    pub fn keys(&self) -> Vec<JobKey> {
        let index = self.index.lock().expect("store index poisoned");
        index
            .entries
            .keys()
            .filter_map(|k| JobKey::from_hex(&format!("{k:016x}")))
            .collect()
    }

    fn entry_path(&self, key: JobKey) -> PathBuf {
        self.entries_dir.join(format!("{}.tpr", key.hex()))
    }

    /// Deletes lowest-sequence entries until the byte total fits the cap.
    /// `keep` (the entry that triggered the check) is exempt.
    fn evict_over_cap(&self, index: &mut Index, keep: JobKey) {
        let total = |ix: &Index| ix.entries.values().map(|(b, _)| *b).sum::<u64>();
        while total(index) > self.cap_bytes {
            let victim = index
                .entries
                .iter()
                .filter(|(k, _)| **k != keep.as_u64())
                .min_by_key(|(_, (_, seq))| *seq)
                .map(|(k, _)| *k);
            let Some(victim) = victim else { break };
            index.entries.remove(&victim);
            let _ = fs::remove_file(self.entries_dir.join(format!("{victim:016x}.tpr")));
            self.tallies.evictions.fetch_add(1, Ordering::Relaxed);
            tp_obs::counter_inc("store.eviction");
        }
    }

    /// Brings the index in line with the entries directory: sweeps temp
    /// files (entry temps *and* abandoned index temps in the versioned
    /// dir), drops rows for missing entries, adopts unindexed entries
    /// (recency 0 — first in line for eviction, which is the conservative
    /// choice for files of unknown history).
    fn reconcile(&self, index: &mut Index) -> io::Result<()> {
        // Index temps live next to the index file (crash between write
        // and rename in `persist_index`).
        if let Some(versioned) = self.index_path.parent() {
            if let Ok(dir) = fs::read_dir(versioned) {
                for dirent in dir.flatten() {
                    if dirent
                        .file_name()
                        .to_string_lossy()
                        .starts_with("index.tmp-")
                    {
                        let _ = fs::remove_file(dirent.path());
                    }
                }
            }
        }
        let mut on_disk: BTreeMap<u64, u64> = BTreeMap::new();
        for dirent in fs::read_dir(&self.entries_dir)? {
            let dirent = dirent?;
            let name = dirent.file_name();
            let name = name.to_string_lossy();
            if name.starts_with(".tmp-") {
                let _ = fs::remove_file(dirent.path());
                continue;
            }
            if let Some(hex) = name.strip_suffix(".tpr") {
                if let Some(key) = JobKey::from_hex(hex) {
                    // A concurrent process may evict this entry between
                    // the read_dir yield and the stat — a vanished file
                    // is not an open failure, it is just not on disk.
                    if let Ok(meta) = dirent.metadata() {
                        on_disk.insert(key.as_u64(), meta.len());
                    }
                }
            }
        }
        index.entries.retain(|k, _| on_disk.contains_key(k));
        for (k, bytes) in on_disk {
            index.entries.entry(k).or_insert((bytes, 0));
        }
        Ok(())
    }

    fn load_index(&self) -> Option<Index> {
        let text = fs::read_to_string(&self.index_path).ok()?;
        let mut lines = text.lines();
        if lines.next()? != format!("tp-store-index v{FORMAT_VERSION}") {
            return None;
        }
        let mut index = Index::default();
        for line in lines {
            let mut parts = line.split_whitespace();
            let key = JobKey::from_hex(parts.next()?)?;
            let bytes: u64 = parts.next()?.parse().ok()?;
            let seq: u64 = parts.next()?.parse().ok()?;
            index.next_seq = index.next_seq.max(seq);
            index.entries.insert(key.as_u64(), (bytes, seq));
        }
        Some(index)
    }

    fn persist_index(&self, index: &Index) -> io::Result<()> {
        let mut text = format!("tp-store-index v{FORMAT_VERSION}\n");
        for (key, (bytes, seq)) in &index.entries {
            text.push_str(&format!("{key:016x} {bytes} {seq}\n"));
        }
        let tmp = self.index_path.with_extension(format!(
            "tmp-{}-{}",
            std::process::id(),
            NEXT_TMP.fetch_add(1, Ordering::Relaxed)
        ));
        fs::write(&tmp, text)?;
        fs::rename(&tmp, &self.index_path)
    }
}

static NEXT_TMP: AtomicU64 = AtomicU64::new(0);

fn encode_entry(record: &TuningRecord) -> Vec<u8> {
    let body = record_to_json(record);
    let mut out = format!(
        "tp-store v{FORMAT_VERSION} len={} crc={:016x}\n",
        body.len(),
        fnv64(body.as_bytes())
    );
    out.push_str(&body);
    out.into_bytes()
}

/// Validates and decodes one entry file's bytes.
fn decode_entry(bytes: &[u8]) -> Result<TuningRecord, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "entry is not UTF-8".to_owned())?;
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| "entry has no header line".to_owned())?;
    let mut parts = header.split_whitespace();
    if parts.next() != Some("tp-store") {
        return Err("not a tp-store entry".to_owned());
    }
    if parts.next() != Some(&format!("v{FORMAT_VERSION}")[..]) {
        return Err("cross-version entry".to_owned());
    }
    let len: usize = parts
        .next()
        .and_then(|p| p.strip_prefix("len="))
        .and_then(|n| n.parse().ok())
        .ok_or_else(|| "bad len field".to_owned())?;
    let crc: u64 = parts
        .next()
        .and_then(|p| p.strip_prefix("crc="))
        .and_then(|n| u64::from_str_radix(n, 16).ok())
        .ok_or_else(|| "bad crc field".to_owned())?;
    if body.len() != len {
        return Err(format!("truncated: body {} of {len} bytes", body.len()));
    }
    if fnv64(body.as_bytes()) != crc {
        return Err("checksum mismatch".to_owned());
    }
    record_from_json(body).map_err(|e| e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_util::{sample_record, TempDir};

    fn key(n: u64) -> JobKey {
        JobKey::from_hex(&format!("{n:016x}")).unwrap()
    }

    #[test]
    fn parse_cap_accepts_suffixes() {
        assert_eq!(parse_cap("1024"), Ok(1024));
        assert_eq!(parse_cap("4K"), Ok(4096));
        assert_eq!(parse_cap("4k"), Ok(4096));
        assert_eq!(parse_cap("64M"), Ok(64 << 20));
        assert_eq!(parse_cap("2G"), Ok(2 << 30));
        assert_eq!(parse_cap(" 8M "), Ok(8 << 20));
    }

    #[test]
    fn parse_cap_rejects_garbage() {
        for bad in ["", "M", "-1", "1.5G", "0", "0K", "four", "99999999999G"] {
            assert!(parse_cap(bad).is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn put_get_round_trip_and_stats() {
        let dir = TempDir::new("roundtrip");
        let store = Store::open_default(dir.path()).unwrap();
        let rec = sample_record();
        assert!(store.get(key(1)).is_none());
        store.put(key(1), &rec).unwrap();
        assert!(store.contains(key(1)));
        assert_eq!(store.get(key(1)), Some(rec));
        let stats = store.stats();
        assert_eq!(stats.entries, 1);
        assert!(stats.bytes > 0);
        assert_eq!(store.keys(), vec![key(1)]);
    }

    #[test]
    fn entries_survive_reopen() {
        let dir = TempDir::new("reopen");
        let rec = sample_record();
        {
            let store = Store::open_default(dir.path()).unwrap();
            store.put(key(7), &rec).unwrap();
        }
        let store = Store::open_default(dir.path()).unwrap();
        assert_eq!(store.get(key(7)), Some(rec));
    }

    #[test]
    fn lru_eviction_respects_recency() {
        let dir = TempDir::new("lru");
        let rec = sample_record();
        let one = encode_entry(&rec).len() as u64;
        // Cap fits two entries but not three.
        let store = Store::open(dir.path(), 2 * one + one / 2).unwrap();
        store.put(key(1), &rec).unwrap();
        store.put(key(2), &rec).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(store.get(key(1)).is_some());
        store.put(key(3), &rec).unwrap();
        assert!(store.contains(key(1)), "recently used entry evicted");
        assert!(!store.contains(key(2)), "LRU entry survived");
        assert!(store.contains(key(3)), "fresh entry evicted");
        assert_eq!(store.stats().entries, 2);
    }

    #[test]
    fn own_put_is_never_the_eviction_victim() {
        let dir = TempDir::new("self-evict");
        let rec = sample_record();
        let store = Store::open(dir.path(), 1).unwrap(); // cap below one entry
        store.put(key(1), &rec).unwrap();
        assert!(store.contains(key(1)));
        store.put(key(2), &rec).unwrap();
        assert!(store.contains(key(2)));
        assert!(!store.contains(key(1)));
    }

    #[test]
    fn index_is_advisory_unindexed_entries_are_adopted() {
        let dir = TempDir::new("adopt");
        let rec = sample_record();
        {
            let store = Store::open_default(dir.path()).unwrap();
            store.put(key(5), &rec).unwrap();
        }
        // Simulate a concurrent process / crash losing the index.
        fs::remove_file(dir.path().join("v1/index")).unwrap();
        let store = Store::open_default(dir.path()).unwrap();
        assert_eq!(store.stats().entries, 1);
        assert_eq!(store.get(key(5)), Some(rec));
    }

    #[test]
    fn report_tallies_hits_misses_and_corruption_quarantines() {
        let dir = TempDir::new("report");
        let store = Store::open_default(dir.path()).unwrap();
        let rec = sample_record();
        assert_eq!(store.report(), StoreReport::default());

        assert!(store.get(key(1)).is_none()); // cold miss
        store.put(key(1), &rec).unwrap();
        assert!(store.get(key(1)).is_some()); // hit

        // Corrupt the entry on disk: the next get must quarantine it
        // (delete + miss) and say so in the report instead of hiding it
        // among ordinary misses.
        let path = dir.path().join(format!("v1/entries/{}.tpr", key(1).hex()));
        fs::write(&path, b"tp-store v1 len=3 crc=0000000000000000\nxyz").unwrap();
        assert!(store.get(key(1)).is_none());
        assert!(!path.exists(), "corrupt entry not quarantined");

        let report = store.report();
        assert_eq!(report.hits, 1);
        assert_eq!(report.misses, 2, "quarantine must count as a miss");
        assert_eq!(report.corrupt_quarantined, 1);
        assert_eq!(report.evictions, 0);
        assert_eq!(report.entries, 0);

        // A recompute-and-rewrite heals it.
        store.put(key(1), &rec).unwrap();
        assert_eq!(store.get(key(1)), Some(rec));
        assert_eq!(store.report().hits, 2);
    }

    #[test]
    fn report_counts_evictions() {
        let dir = TempDir::new("report-evict");
        let rec = sample_record();
        let one = encode_entry(&rec).len() as u64;
        let store = Store::open(dir.path(), 2 * one + one / 2).unwrap();
        for n in 1..=4 {
            store.put(key(n), &rec).unwrap();
        }
        assert_eq!(store.report().evictions, 2);
    }

    #[test]
    fn temp_files_are_swept_on_open() {
        let dir = TempDir::new("sweep");
        {
            let _ = Store::open_default(dir.path()).unwrap();
        }
        let stray_entry = dir.path().join("v1/entries/.tmp-999-deadbeef-0");
        fs::write(&stray_entry, b"half a write").unwrap();
        let stray_index = dir.path().join("v1/index.tmp-999-7");
        fs::write(&stray_index, b"half an index").unwrap();
        let store = Store::open_default(dir.path()).unwrap();
        assert!(!stray_entry.exists());
        assert!(!stray_index.exists(), "abandoned index temp not swept");
        assert_eq!(store.stats().entries, 0);
    }
}
