//! The on-disk record store: sharded layout, atomic writes, quarantine.
//!
//! Layout under the store root:
//!
//! ```text
//! <root>/store.json                  layout metadata {"format_version":1}
//! <root>/objects/<ab>/<64-hex>.rec   one record per fingerprint, sharded
//!                                    by the key's first byte
//! <root>/quarantine/<name>           records that failed integrity checks
//! ```
//!
//! A record file is a single-line JSON header followed by the payload bytes
//! exactly as given to [`Store::put`]:
//!
//! ```text
//! {"format_version":1,"key":"<hex>","salt":"...","payload_len":N,"payload_sha256":"<hex>"}
//! <payload bytes>
//! ```
//!
//! Writes are crash-safe: the record is written to a temp file in the same
//! shard directory, synced (under the default [`Durability::Sync`]; see
//! [`Durability::Relaxed`] for cache-grade writes), then atomically renamed
//! into place, so readers never observe a partial record under a final
//! name. Reads are paranoid:
//! any header, length, key, salt, or checksum mismatch moves the file to
//! `quarantine/` and reports the lookup as a miss — a corrupt store degrades
//! to recomputation, never to a panic or a wrong answer.

use std::fs;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use rr_telemetry::{warn, IncMetric, METRICS};
use serde::{Deserialize, Serialize};

use crate::error::StoreError;
use crate::fingerprint::Fingerprint;
use crate::sha256;

/// Version of the on-disk layout and record envelope. Bump on any change to
/// the header schema or file format; [`Store::open`] refuses stores written
/// by a different version.
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Distinguishes temp files from committed records during directory walks.
const RECORD_EXT: &str = "rec";

/// Store-level metadata, persisted as `store.json` at the root.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct StoreMeta {
    format_version: u32,
}

/// Per-record envelope header (first line of every record file).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct RecordHeader {
    format_version: u32,
    key: String,
    salt: String,
    payload_len: u64,
    payload_sha256: String,
}

/// How hard a [`Store::put`] pushes a freshly written record toward stable
/// storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Durability {
    /// `fsync` every record before renaming it into place: a record `put`
    /// reported written survives power loss. The default.
    #[default]
    Sync,
    /// Skip the per-record `fsync` and let the OS flush on its own
    /// schedule. Readers are still safe — a record torn by power loss
    /// fails its checksum on read, is quarantined, and gets recomputed —
    /// but the most recent writes may be lost. The right trade for a cache
    /// of recomputable results, where per-record `fsync` otherwise
    /// dominates a cold sweep's wall clock.
    Relaxed,
}

/// A fault armed against the next [`Store::put`] — test instrumentation
/// for proving the cache degrades instead of poisoning itself. Production
/// code never arms one; the hook costs a single relaxed atomic load on the
/// write path.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PutFault {
    /// The write fails with `ENOSPC` mid-payload, as a full disk would.
    /// The temp file is cleaned up and no record is committed.
    Enospc,
    /// Only half the payload reaches the file, yet the record is renamed
    /// into place anyway — the torn-record shape a kernel crash can leave
    /// behind under [`Durability::Relaxed`], where the rename can be
    /// persisted before the data blocks. Readers must quarantine it.
    ShortWrite,
}

/// Outcome of a [`Store::get`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Lookup {
    /// The record exists and passed every integrity check.
    Hit(Vec<u8>),
    /// No record under this key.
    Miss,
    /// A record existed but failed validation; it has been moved to
    /// quarantine and the caller should recompute.
    Quarantined,
}

/// Aggregate counts from [`Store::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StoreStats {
    /// Committed records.
    pub records: u64,
    /// Records whose header salt differs from the store's current salt —
    /// results produced by an older simulator/cost-model and never served.
    pub stale: u64,
    /// Sum of record payload sizes in bytes.
    pub payload_bytes: u64,
    /// Sum of record file sizes in bytes (headers included).
    pub file_bytes: u64,
    /// Occupied shard directories.
    pub shards: u64,
    /// Files sitting in quarantine.
    pub quarantined: u64,
}

/// Outcome of a [`Store::verify`] integrity walk.
#[derive(Debug, Clone, Default)]
pub struct VerifyReport {
    /// Records that passed all checks.
    pub ok: u64,
    /// `(path, reason)` for every record moved to quarantine.
    pub quarantined: Vec<(PathBuf, String)>,
}

/// Outcome of a [`Store::gc`] pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct GcReport {
    /// Stale-salt records deleted.
    pub removed_stale: u64,
    /// Quarantined files deleted.
    pub removed_quarantined: u64,
    /// Total bytes reclaimed.
    pub bytes_freed: u64,
}

/// A content-addressed record store rooted at one directory.
///
/// All methods take `&self`; the store is safe to share across the sweep
/// runner's worker threads (every record is written at most once per key,
/// and concurrent writers of the same key atomically rename identical
/// content).
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    objects: PathBuf,
    quarantine: PathBuf,
    salt: String,
    durability: Durability,
    /// Disambiguates temp files written by concurrent threads of this
    /// process.
    tmp_counter: AtomicU64,
    /// One-shot injected fault for the next `put` (0 = none; see
    /// [`PutFault`] and [`Store::inject_put_fault`]).
    put_fault: AtomicU64,
}

impl Store {
    /// Opens (creating if absent) a store rooted at `root`, serving records
    /// produced under `salt`.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors and on a root written by a different
    /// [`STORE_FORMAT_VERSION`].
    pub fn open(root: impl Into<PathBuf>, salt: impl Into<String>) -> Result<Store, StoreError> {
        let root = root.into();
        let objects = root.join("objects");
        let quarantine = root.join("quarantine");
        fs::create_dir_all(&objects).map_err(|e| StoreError::io("create", &objects, e))?;
        fs::create_dir_all(&quarantine)
            .map_err(|e| StoreError::io("create", &quarantine, e))?;
        let meta_path = root.join("store.json");
        match fs::read_to_string(&meta_path) {
            Ok(text) => {
                let meta: StoreMeta = serde_json::from_str(&text).map_err(|e| {
                    StoreError::json(format!("store metadata `{}`", meta_path.display()), e)
                })?;
                if meta.format_version != STORE_FORMAT_VERSION {
                    return Err(StoreError::SchemaMismatch {
                        what: "store layout",
                        found: meta.format_version,
                        expected: STORE_FORMAT_VERSION,
                    });
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                let meta = StoreMeta { format_version: STORE_FORMAT_VERSION };
                let text = serde_json::to_string_pretty(&meta)
                    .map_err(|e| StoreError::json("store metadata", e))?;
                fs::write(&meta_path, text)
                    .map_err(|e| StoreError::io("write", &meta_path, e))?;
            }
            Err(e) => return Err(StoreError::io("read", &meta_path, e)),
        }
        Ok(Store {
            root,
            objects,
            quarantine,
            salt: salt.into(),
            durability: Durability::default(),
            tmp_counter: AtomicU64::new(0),
            put_fault: AtomicU64::new(0),
        })
    }

    /// Sets the write [`Durability`] policy (default [`Durability::Sync`]).
    pub fn with_durability(mut self, durability: Durability) -> Store {
        self.durability = durability;
        self
    }

    /// The store's root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The salt current records are keyed and stamped with.
    pub fn salt(&self) -> &str {
        &self.salt
    }

    /// Arms `fault` against the next [`Store::put`] (one-shot: the put
    /// that trips it also clears it). Test instrumentation — see
    /// [`PutFault`].
    #[doc(hidden)]
    pub fn inject_put_fault(&self, fault: PutFault) {
        let code = match fault {
            PutFault::Enospc => 1,
            PutFault::ShortWrite => 2,
        };
        self.put_fault.store(code, Ordering::SeqCst);
    }

    /// Takes (and disarms) the currently armed put fault, if any.
    fn take_put_fault(&self) -> Option<PutFault> {
        match self.put_fault.swap(0, Ordering::SeqCst) {
            1 => Some(PutFault::Enospc),
            2 => Some(PutFault::ShortWrite),
            _ => None,
        }
    }

    fn record_path(&self, key: &Fingerprint) -> PathBuf {
        self.objects.join(key.shard()).join(format!("{}.{RECORD_EXT}", key.to_hex()))
    }

    /// Persists `payload` under `key` with a crash-safe temp-file +
    /// atomic-rename write.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; the final record path is never left partial.
    pub fn put(&self, key: &Fingerprint, payload: &[u8]) -> Result<(), StoreError> {
        let header = RecordHeader {
            format_version: STORE_FORMAT_VERSION,
            key: key.to_hex(),
            salt: self.salt.clone(),
            payload_len: payload.len() as u64,
            payload_sha256: sha256::to_hex(&sha256::digest(payload)),
        };
        let header_json = serde_json::to_string(&header)
            .map_err(|e| StoreError::json("record header", e))?;
        let shard = self.objects.join(key.shard());
        fs::create_dir_all(&shard).map_err(|e| StoreError::io("create", &shard, e))?;
        let tmp = shard.join(format!(
            "{}.tmp-{}-{}",
            key.to_hex(),
            std::process::id(),
            self.tmp_counter.fetch_add(1, Ordering::Relaxed),
        ));
        let fault = self.take_put_fault();
        let write = |tmp: &Path| -> std::io::Result<()> {
            let mut f = fs::File::create(tmp)?;
            f.write_all(header_json.as_bytes())?;
            f.write_all(b"\n")?;
            match fault {
                Some(PutFault::Enospc) => {
                    // The disk fills mid-payload: half the bytes land, then
                    // the write fails. `put` must clean up and error out.
                    f.write_all(&payload[..payload.len() / 2])?;
                    return Err(std::io::Error::from_raw_os_error(28 /* ENOSPC */));
                }
                Some(PutFault::ShortWrite) => {
                    // A torn write that nonetheless commits: the rename
                    // below proceeds, leaving a record whose payload is
                    // truncated relative to its header. The read path must
                    // quarantine it.
                    f.write_all(&payload[..payload.len() / 2])?;
                    return Ok(());
                }
                None => {}
            }
            f.write_all(payload)?;
            if self.durability == Durability::Relaxed {
                return Ok(());
            }
            let sync_started = Instant::now();
            let synced = f.sync_all();
            METRICS.store.fsync_count.inc();
            METRICS
                .store
                .fsync_nanos
                .add(u64::try_from(sync_started.elapsed().as_nanos()).unwrap_or(u64::MAX));
            synced
        };
        if let Err(e) = write(&tmp) {
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::io("write", &tmp, e));
        }
        let dst = self.record_path(key);
        fs::rename(&tmp, &dst).map_err(|e| {
            let _ = fs::remove_file(&tmp);
            StoreError::io("rename", &dst, e)
        })?;
        METRICS.store.puts.inc();
        Ok(())
    }

    /// Looks up `key`, validating the record end to end. Corrupt records are
    /// quarantined and reported as [`Lookup::Quarantined`], never an error.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures (permissions, disk errors) — a missing or
    /// damaged record is an `Ok` outcome.
    pub fn get(&self, key: &Fingerprint) -> Result<Lookup, StoreError> {
        let path = self.record_path(key);
        let bytes = match fs::read(&path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                METRICS.store.misses.inc();
                return Ok(Lookup::Miss);
            }
            Err(e) => return Err(StoreError::io("read", &path, e)),
        };
        match validate_record(&bytes, Some(key), Some(&self.salt)) {
            Ok(payload_range) => {
                METRICS.store.hits.inc();
                Ok(Lookup::Hit(bytes[payload_range].to_vec()))
            }
            Err(reason) => {
                self.quarantine_file(&path, &reason)?;
                Ok(Lookup::Quarantined)
            }
        }
    }

    /// Whether a committed record exists under `key` (no validation).
    pub fn contains(&self, key: &Fingerprint) -> bool {
        self.record_path(key).exists()
    }

    /// Deletes the record under `key`, if present. Used for records whose
    /// usefulness has a lifetime — e.g. a sweep's rolling engine
    /// checkpoints, removed once the final result is stored.
    ///
    /// # Errors
    ///
    /// Only genuine I/O failures; an absent record is `Ok(false)`.
    pub fn remove(&self, key: &Fingerprint) -> Result<bool, StoreError> {
        let path = self.record_path(key);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::io("remove", &path, e)),
        }
    }

    /// Walks every committed record and aggregates layout statistics.
    /// Reads only each record's header line (for `stale`); the byte counts
    /// come from file metadata, so the cost does not grow with payloads.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures encountered during the walk.
    pub fn stats(&self) -> Result<StoreStats, StoreError> {
        let mut stats = StoreStats::default();
        let mut header = Vec::new();
        for shard in self.shard_dirs()? {
            stats.shards += 1;
            for path in record_files(&shard)? {
                let io_err = |e| StoreError::io("read", &path, e);
                let file = fs::File::open(&path).map_err(io_err)?;
                let len = file.metadata().map_err(io_err)?.len();
                header.clear();
                BufReader::new(file).read_until(b'\n', &mut header).map_err(io_err)?;
                stats.records += 1;
                stats.file_bytes += len;
                // A record with no newline has no payload to count.
                if header.pop() == Some(b'\n') {
                    stats.payload_bytes += len.saturating_sub(header.len() as u64 + 1);
                    if let Ok(h) = parse_header(&header) {
                        if h.salt != self.salt {
                            stats.stale += 1;
                        }
                    }
                }
            }
        }
        stats.quarantined = record_names(&self.quarantine)?.len() as u64;
        Ok(stats)
    }

    /// Validates every committed record, quarantining the ones that fail.
    /// Unlike [`Store::get`], a salt other than the store's current one is
    /// *not* a failure here — stale records are intact, just unservable.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures encountered during the walk.
    pub fn verify(&self) -> Result<VerifyReport, StoreError> {
        let mut report = VerifyReport::default();
        for shard in self.shard_dirs()? {
            for path in record_files(&shard)? {
                let bytes =
                    fs::read(&path).map_err(|e| StoreError::io("read", &path, e))?;
                let key = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(Fingerprint::from_hex);
                let result = match key {
                    Some(k) => validate_record(&bytes, Some(&k), None).map(|_| ()),
                    None => Err("file name is not a fingerprint".to_string()),
                };
                match result {
                    Ok(()) => report.ok += 1,
                    Err(reason) => {
                        self.quarantine_file(&path, &reason)?;
                        report.quarantined.push((path, reason));
                    }
                }
            }
        }
        Ok(report)
    }

    /// Deletes quarantined files and stale-salt records, reclaiming space.
    /// Corrupt records found along the way are deleted too (gc is the
    /// destructive sibling of [`Store::verify`]).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn gc(&self) -> Result<GcReport, StoreError> {
        let mut report = GcReport::default();
        for shard in self.shard_dirs()? {
            for path in record_files(&shard)? {
                let bytes =
                    fs::read(&path).map_err(|e| StoreError::io("read", &path, e))?;
                let key = path
                    .file_stem()
                    .and_then(|s| s.to_str())
                    .and_then(Fingerprint::from_hex);
                let stale_or_bad = match key {
                    Some(k) => validate_record(&bytes, Some(&k), Some(&self.salt)).is_err(),
                    None => true,
                };
                if stale_or_bad {
                    fs::remove_file(&path)
                        .map_err(|e| StoreError::io("remove", &path, e))?;
                    report.removed_stale += 1;
                    report.bytes_freed += bytes.len() as u64;
                }
            }
        }
        for name in record_names(&self.quarantine)? {
            let path = self.quarantine.join(name);
            let len = fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            fs::remove_file(&path).map_err(|e| StoreError::io("remove", &path, e))?;
            report.removed_quarantined += 1;
            report.bytes_freed += len;
        }
        METRICS.store.gc_removed.add(report.removed_stale + report.removed_quarantined);
        METRICS.store.gc_reclaimed_bytes.add(report.bytes_freed);
        Ok(report)
    }

    /// Moves a failed record into `quarantine/`, never clobbering an earlier
    /// inmate of the same name.
    fn quarantine_file(&self, path: &Path, reason: &str) -> Result<(), StoreError> {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or("unnamed")
            .to_string();
        let mut dst = self.quarantine.join(&name);
        let mut n = 0u32;
        while dst.exists() {
            n += 1;
            dst = self.quarantine.join(format!("{name}.{n}"));
        }
        warn!(
            "store",
            "quarantining `{}`: {reason}",
            path.file_name().and_then(|f| f.to_str()).unwrap_or("?")
        );
        fs::rename(path, &dst).map_err(|e| StoreError::io("rename", &dst, e))?;
        METRICS.store.quarantines.inc();
        Ok(())
    }

    /// Occupied shard directories, in sorted (deterministic) order.
    fn shard_dirs(&self) -> Result<Vec<PathBuf>, StoreError> {
        let mut dirs = Vec::new();
        let entries = fs::read_dir(&self.objects)
            .map_err(|e| StoreError::io("read", &self.objects, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| StoreError::io("read", &self.objects, e))?;
            if entry.path().is_dir() {
                dirs.push(entry.path());
            }
        }
        dirs.sort();
        Ok(dirs)
    }
}

/// Committed `.rec` files of one directory, sorted.
fn record_files(dir: &Path) -> Result<Vec<PathBuf>, StoreError> {
    let mut files = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read", dir, e))?;
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) == Some(RECORD_EXT) {
            files.push(path);
        }
    }
    files.sort();
    Ok(files)
}

/// All file names in a directory, sorted.
fn record_names(dir: &Path) -> Result<Vec<String>, StoreError> {
    let mut names = Vec::new();
    let entries = fs::read_dir(dir).map_err(|e| StoreError::io("read", dir, e))?;
    for entry in entries {
        let entry = entry.map_err(|e| StoreError::io("read", dir, e))?;
        if let Some(name) = entry.file_name().to_str() {
            names.push(name.to_string());
        }
    }
    names.sort();
    Ok(names)
}

/// Splits raw record bytes into (header line, payload bytes).
fn split_record(bytes: &[u8]) -> Option<(&[u8], &[u8])> {
    let nl = bytes.iter().position(|&b| b == b'\n')?;
    Some((&bytes[..nl], &bytes[nl + 1..]))
}

fn parse_header(header: &[u8]) -> Result<RecordHeader, String> {
    let text =
        std::str::from_utf8(header).map_err(|_| "header is not UTF-8".to_string())?;
    serde_json::from_str(text).map_err(|e| format!("bad header: {e}"))
}

/// Validates raw record bytes; returns the payload byte range on success,
/// or a human-readable failure reason. `expected_key` / `expected_salt` are
/// checked when provided (verify passes no salt so stale records stay put).
fn validate_record(
    bytes: &[u8],
    expected_key: Option<&Fingerprint>,
    expected_salt: Option<&str>,
) -> Result<std::ops::Range<usize>, String> {
    let (header_bytes, payload) =
        split_record(bytes).ok_or_else(|| "no header line".to_string())?;
    let header = parse_header(header_bytes)?;
    if header.format_version != STORE_FORMAT_VERSION {
        return Err(format!(
            "record format version {} (this build writes {STORE_FORMAT_VERSION})",
            header.format_version
        ));
    }
    if let Some(key) = expected_key {
        if header.key != key.to_hex() {
            return Err(format!("header key {} does not match file key {key}", header.key));
        }
    }
    if let Some(salt) = expected_salt {
        if header.salt != salt {
            return Err("record salt does not match the current code version".to_string());
        }
    }
    if payload.len() as u64 != header.payload_len {
        return Err(format!(
            "payload is {} bytes, header declares {} (truncated write?)",
            payload.len(),
            header.payload_len
        ));
    }
    let actual = sha256::to_hex(&sha256::digest(payload));
    if actual != header.payload_sha256 {
        return Err("payload checksum mismatch".to_string());
    }
    let start = bytes.len() - payload.len();
    Ok(start..bytes.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let mut p = std::env::temp_dir();
            p.push(format!("rr-store-test-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            TempDir(p)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn key(n: u8) -> Fingerprint {
        Fingerprint::of_bytes("test", &[n])
    }

    #[test]
    fn put_get_round_trips() {
        let dir = TempDir::new("roundtrip");
        let store = Store::open(&dir.0, "salt-1").unwrap();
        assert_eq!(store.get(&key(1)).unwrap(), Lookup::Miss);
        store.put(&key(1), b"hello records").unwrap();
        assert!(store.contains(&key(1)));
        assert_eq!(store.get(&key(1)).unwrap(), Lookup::Hit(b"hello records".to_vec()));
        // Overwrite is idempotent and last-write-wins.
        store.put(&key(1), b"hello again").unwrap();
        assert_eq!(store.get(&key(1)).unwrap(), Lookup::Hit(b"hello again".to_vec()));
        assert_eq!(store.salt(), "salt-1");
        assert_eq!(store.root(), dir.0.as_path());
    }

    #[test]
    fn relaxed_durability_round_trips_and_skips_fsync() {
        let dir = TempDir::new("relaxed");
        let store =
            Store::open(&dir.0, "salt-1").unwrap().with_durability(Durability::Relaxed);
        // The fsync counter is process-wide and the other tests in this
        // binary run in parallel, some with synced puts. A relaxed put that
        // fsyncs moves the counter on every attempt; one quiet attempt out
        // of several shows it does not.
        let quiet = (0..20).any(|_| {
            let before = METRICS.store.fsync_count.count();
            store.put(&key(9), b"cache-grade").unwrap();
            METRICS.store.fsync_count.count() == before
        });
        assert!(quiet, "no fsync issued");
        assert_eq!(store.get(&key(9)).unwrap(), Lookup::Hit(b"cache-grade".to_vec()));
        // Integrity checks are durability-independent.
        assert!(store.verify().unwrap().quarantined.is_empty());
    }

    #[test]
    fn payload_bytes_are_exact() {
        // Payloads containing newlines and binary bytes must survive the
        // header-line framing untouched.
        let dir = TempDir::new("binary");
        let store = Store::open(&dir.0, "s").unwrap();
        let payload: Vec<u8> = (0u16..512).map(|i| (i % 256) as u8).collect();
        store.put(&key(2), &payload).unwrap();
        assert_eq!(store.get(&key(2)).unwrap(), Lookup::Hit(payload));
    }

    #[test]
    fn reopen_preserves_records_and_format_checks() {
        let dir = TempDir::new("reopen");
        {
            let store = Store::open(&dir.0, "s").unwrap();
            store.put(&key(3), b"persisted").unwrap();
        }
        let store = Store::open(&dir.0, "s").unwrap();
        assert_eq!(store.get(&key(3)).unwrap(), Lookup::Hit(b"persisted".to_vec()));
        // A future-format store is refused, not misread.
        fs::write(dir.0.join("store.json"), r#"{"format_version":99}"#).unwrap();
        match Store::open(&dir.0, "s") {
            Err(StoreError::SchemaMismatch { found: 99, .. }) => {}
            other => panic!("expected schema mismatch, got {other:?}"),
        }
    }

    #[test]
    fn truncated_record_is_quarantined_not_fatal() {
        let dir = TempDir::new("truncate");
        let store = Store::open(&dir.0, "s").unwrap();
        store.put(&key(4), b"soon to be truncated payload").unwrap();
        let path = store.record_path(&key(4));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        assert_eq!(store.get(&key(4)).unwrap(), Lookup::Quarantined);
        // The damaged file moved aside; the key now reads as a clean miss.
        assert_eq!(store.get(&key(4)).unwrap(), Lookup::Miss);
        assert_eq!(store.stats().unwrap().quarantined, 1);
    }

    #[test]
    fn flipped_payload_bit_is_quarantined() {
        let dir = TempDir::new("bitflip");
        let store = Store::open(&dir.0, "s").unwrap();
        store.put(&key(5), b"immutable truth").unwrap();
        let path = store.record_path(&key(5));
        let mut bytes = fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        fs::write(&path, &bytes).unwrap();
        assert_eq!(store.get(&key(5)).unwrap(), Lookup::Quarantined);
    }

    #[test]
    fn garbage_header_is_quarantined() {
        let dir = TempDir::new("garbage");
        let store = Store::open(&dir.0, "s").unwrap();
        store.put(&key(6), b"x").unwrap();
        fs::write(store.record_path(&key(6)), b"not json at all\npayload").unwrap();
        assert_eq!(store.get(&key(6)).unwrap(), Lookup::Quarantined);
        // No newline at all.
        store.put(&key(7), b"y").unwrap();
        fs::write(store.record_path(&key(7)), b"headerless").unwrap();
        assert_eq!(store.get(&key(7)).unwrap(), Lookup::Quarantined);
    }

    #[test]
    fn wrong_salt_record_is_not_served() {
        let dir = TempDir::new("salt");
        {
            let old = Store::open(&dir.0, "cost-model-v1").unwrap();
            old.put(&key(8), b"stale physics").unwrap();
        }
        let new = Store::open(&dir.0, "cost-model-v2").unwrap();
        // Same key path, older salt: quarantined on access rather than served.
        assert_eq!(new.get(&key(8)).unwrap(), Lookup::Quarantined);
    }

    #[test]
    fn verify_keeps_stale_but_quarantines_corrupt() {
        let dir = TempDir::new("verify");
        let store = Store::open(&dir.0, "v1").unwrap();
        store.put(&key(9), b"good").unwrap();
        store.put(&key(10), b"doomed").unwrap();
        let victim = store.record_path(&key(10));
        let mut bytes = fs::read(&victim).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        fs::write(&victim, &bytes).unwrap();
        // A stale-salt record is intact data, so verify leaves it alone.
        let v2 = Store::open(&dir.0, "v2").unwrap();
        v2.put(&key(11), b"fresh").unwrap();
        let report = v2.verify().unwrap();
        assert_eq!(report.ok, 2, "good + fresh pass; stale is still ok data");
        assert_eq!(report.quarantined.len(), 1);
        assert!(report.quarantined[0].1.contains("checksum"), "{report:?}");
    }

    #[test]
    fn gc_reclaims_stale_and_quarantined() {
        let dir = TempDir::new("gc");
        {
            let old = Store::open(&dir.0, "v1").unwrap();
            old.put(&key(12), b"stale").unwrap();
        }
        let store = Store::open(&dir.0, "v2").unwrap();
        store.put(&key(13), b"live").unwrap();
        store.put(&key(14), b"corrupt-me").unwrap();
        let victim = store.record_path(&key(14));
        fs::write(&victim, b"junk\njunk").unwrap();
        assert_eq!(store.get(&key(14)).unwrap(), Lookup::Quarantined);
        let report = store.gc().unwrap();
        assert_eq!(report.removed_stale, 1, "v1 record reclaimed");
        assert_eq!(report.removed_quarantined, 1);
        assert!(report.bytes_freed > 0);
        // The live record survives; the store is clean afterwards.
        assert_eq!(store.get(&key(13)).unwrap(), Lookup::Hit(b"live".to_vec()));
        let stats = store.stats().unwrap();
        assert_eq!((stats.records, stats.stale, stats.quarantined), (1, 0, 0));
    }

    #[test]
    fn stats_count_shards_and_bytes() {
        let dir = TempDir::new("stats");
        let store = Store::open(&dir.0, "s").unwrap();
        let mut shards = std::collections::HashSet::new();
        for n in 0..16 {
            let k = key(100 + n);
            shards.insert(k.shard());
            store.put(&k, &[n; 64]).unwrap();
        }
        let stats = store.stats().unwrap();
        assert_eq!(stats.records, 16);
        assert_eq!(stats.shards, shards.len() as u64);
        assert_eq!(stats.payload_bytes, 16 * 64);
        assert!(stats.file_bytes > stats.payload_bytes, "headers take space");
        assert_eq!(stats.stale, 0);
    }

    /// What `stats` reported when it read every record in full: the
    /// reference the header-only walk must match.
    fn full_read_stats(store: &Store) -> StoreStats {
        let mut stats = StoreStats::default();
        for shard in store.shard_dirs().unwrap() {
            stats.shards += 1;
            for path in record_files(&shard).unwrap() {
                let bytes = fs::read(&path).unwrap();
                stats.records += 1;
                stats.file_bytes += bytes.len() as u64;
                if let Some((header, payload)) = split_record(&bytes) {
                    stats.payload_bytes += payload.len() as u64;
                    if parse_header(header).is_ok_and(|h| h.salt != store.salt) {
                        stats.stale += 1;
                    }
                }
            }
        }
        stats.quarantined = record_names(&store.quarantine).unwrap().len() as u64;
        stats
    }

    #[test]
    fn header_only_stats_match_full_reads_on_damaged_records() {
        let dir = TempDir::new("stats-headers");
        {
            let old = Store::open(&dir.0, "v1").unwrap();
            old.put(&key(20), b"foreign salt").unwrap();
        }
        let store = Store::open(&dir.0, "v2").unwrap();
        let healthy: Vec<u8> = (0u16..300).map(|i| (i % 256) as u8).collect();
        store.put(&key(21), &healthy).unwrap();
        let mut expected = full_read_stats(&store);
        assert_eq!(store.stats().unwrap(), expected, "healthy + foreign salt");
        assert_eq!((expected.records, expected.stale), (2, 1));
        assert_eq!(expected.payload_bytes, 300 + 12);

        store.put(&key(22), b"soon to be truncated payload").unwrap();
        let path = store.record_path(&key(22));
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 5]).unwrap();
        expected = full_read_stats(&store);
        assert_eq!(store.stats().unwrap(), expected, "truncated payload");
        assert_eq!(expected.payload_bytes, 300 + 12 + 23);

        store.put(&key(23), b"y").unwrap();
        fs::write(store.record_path(&key(23)), b"headerless").unwrap();
        expected = full_read_stats(&store);
        assert_eq!(store.stats().unwrap(), expected, "no newline");
        assert_eq!((expected.records, expected.stale), (4, 1));
        assert_eq!(expected.payload_bytes, 300 + 12 + 23, "a headerless file has no payload");
        let on_disk: u64 =
            (20..24).map(|k| fs::metadata(store.record_path(&key(k))).unwrap().len()).sum();
        assert_eq!(expected.file_bytes, on_disk);
    }

    #[test]
    fn injected_enospc_fails_the_put_and_commits_nothing() {
        let dir = TempDir::new("enospc");
        let store = Store::open(&dir.0, "s").unwrap();
        store.inject_put_fault(PutFault::Enospc);
        let err = store.put(&key(50), b"does not fit on a full disk").unwrap_err();
        assert!(err.to_string().contains("write"), "{err}");
        // Nothing committed, nothing left behind: the key is a clean miss
        // and the shard holds no orphaned temp file.
        assert_eq!(store.get(&key(50)).unwrap(), Lookup::Miss);
        let shard = store.objects.join(key(50).shard());
        let leftovers = fs::read_dir(&shard)
            .map(|d| d.count())
            .unwrap_or(0);
        assert_eq!(leftovers, 0, "temp file removed after failed write");
        // The fault is one-shot: the very next put succeeds and serves.
        store.put(&key(50), b"after the disk was cleared").unwrap();
        assert_eq!(
            store.get(&key(50)).unwrap(),
            Lookup::Hit(b"after the disk was cleared".to_vec())
        );
    }

    #[test]
    fn injected_short_write_commits_a_torn_record_that_quarantines() {
        let dir = TempDir::new("shortwrite");
        let store = Store::open(&dir.0, "s").unwrap();
        store.inject_put_fault(PutFault::ShortWrite);
        // The put itself reports success — exactly the dangerous case: the
        // record is committed under its final name with a torn payload.
        store.put(&key(51), b"a payload that will be torn in half").unwrap();
        assert!(store.contains(&key(51)));
        // The read path catches it: quarantined, then a clean miss — the
        // torn bytes are never served.
        assert_eq!(store.get(&key(51)).unwrap(), Lookup::Quarantined);
        assert_eq!(store.get(&key(51)).unwrap(), Lookup::Miss);
        assert_eq!(store.stats().unwrap().quarantined, 1);
        // Rewriting heals the key.
        store.put(&key(51), b"whole again").unwrap();
        assert_eq!(store.get(&key(51)).unwrap(), Lookup::Hit(b"whole again".to_vec()));
    }

    #[test]
    fn interrupted_write_leaves_no_committed_record() {
        // Simulate a crash mid-write: a temp file exists but was never
        // renamed. The key must read as a miss and walks must ignore it.
        let dir = TempDir::new("crash");
        let store = Store::open(&dir.0, "s").unwrap();
        let k = key(42);
        let shard = store.objects.join(k.shard());
        fs::create_dir_all(&shard).unwrap();
        fs::write(shard.join(format!("{}.tmp-999-0", k.to_hex())), b"partial gar").unwrap();
        assert_eq!(store.get(&k).unwrap(), Lookup::Miss);
        assert_eq!(store.stats().unwrap().records, 0);
        assert_eq!(store.verify().unwrap().ok, 0);
    }
}
