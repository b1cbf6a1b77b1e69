//! The crash-safe job journal behind the `rr serve` daemon.
//!
//! The daemon's job table lives in memory; this module gives it a durable
//! shadow so `kill -9` loses nothing that was acknowledged to a client. The
//! format is deliberately primitive — JSON Lines, append-only, one
//! [`JournalRecord`] per line, fsync'd per append — because primitive is
//! what survives: a torn final line (the write the crash interrupted) is
//! detected and dropped during [`JobJournal::replay`], and any other
//! damaged line is skipped with a warning rather than poisoning the
//! records around it. Replay therefore *always* succeeds; corruption can
//! only cost the records it physically overlaps.
//!
//! Event grammar (`event` field):
//!
//! | event       | meaning                                             |
//! |-------------|-----------------------------------------------------|
//! | `submitted` | job accepted; carries label, fingerprint, payload   |
//! | `finished`  | job reached `done`/`failed`; carries result/error   |
//! | `cancelled` | queued job cancelled via `DELETE /jobs/{id}`        |
//! | `expired`   | terminal ticket dropped (TTL or manual `DELETE`)    |
//!
//! Reducing a journal replays submission order: a `submitted` with no
//! `finished` is exactly a job the crash interrupted — queued or mid-run,
//! indistinguishable and treated identically: re-queued for execution,
//! where the result store and checkpoint records make the rerun cheap.
//! After reduction the daemon rewrites the journal compacted (tmp+rename),
//! so it cannot grow without bound across restarts and any tolerated
//! damage is healed on the spot.

use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use serde::{Deserialize, Serialize};

use rr_telemetry::{warn, METRICS};

/// Version stamped into every record; replay skips records from a future
/// schema instead of misreading them.
pub const JOURNAL_SCHEMA_VERSION: u32 = 1;

/// One journal line. Every field is always present on the wire (the
/// vendored serde has no `#[serde(default)]`); fields an event does not
/// use are `null`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Schema version ([`JOURNAL_SCHEMA_VERSION`]).
    pub v: u32,
    /// `"submitted"`, `"finished"`, `"cancelled"`, or `"expired"`.
    pub event: String,
    /// The job id the event concerns.
    pub id: u64,
    /// Human-readable job label (`submitted` only).
    pub label: Option<String>,
    /// Dedup fingerprint (`submitted` only).
    pub fingerprint: Option<String>,
    /// The job payload, serialized (`submitted` only).
    pub payload: Option<String>,
    /// Terminal state, `"done"` or `"failed"` (`finished` only).
    pub state: Option<String>,
    /// The result payload (`finished` + `done` only).
    pub result: Option<String>,
    /// The failure message (`finished` + `failed` only).
    pub error: Option<String>,
}

impl JournalRecord {
    fn base(event: &str, id: u64) -> JournalRecord {
        JournalRecord {
            v: JOURNAL_SCHEMA_VERSION,
            event: event.to_string(),
            id,
            label: None,
            fingerprint: None,
            payload: None,
            state: None,
            result: None,
            error: None,
        }
    }

    /// A job was accepted into the queue.
    pub fn submitted(id: u64, label: &str, fingerprint: &str, payload: String) -> JournalRecord {
        JournalRecord {
            label: Some(label.to_string()),
            fingerprint: Some(fingerprint.to_string()),
            payload: Some(payload),
            ..JournalRecord::base("submitted", id)
        }
    }

    /// A job finished successfully; the result rides along so a restarted
    /// daemon can serve `GET /jobs/{id}/result` without recomputing.
    pub fn finished_ok(id: u64, result: String) -> JournalRecord {
        JournalRecord {
            state: Some("done".to_string()),
            result: Some(result),
            ..JournalRecord::base("finished", id)
        }
    }

    /// A job failed; the error message survives the restart too.
    pub fn finished_err(id: u64, error: String) -> JournalRecord {
        JournalRecord {
            state: Some("failed".to_string()),
            error: Some(error),
            ..JournalRecord::base("finished", id)
        }
    }

    /// A queued job was cancelled.
    pub fn cancelled(id: u64) -> JournalRecord {
        JournalRecord::base("cancelled", id)
    }

    /// A terminal ticket was dropped (TTL expiry or `DELETE`).
    pub fn expired(id: u64) -> JournalRecord {
        JournalRecord::base("expired", id)
    }
}

/// What [`JobJournal::replay`] salvaged.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct ReplaySummary {
    /// Intact records, in file order.
    pub records: Vec<JournalRecord>,
    /// Lines that did not parse (torn tail, bit rot) and were skipped.
    pub skipped: usize,
}

/// The append handle. One per daemon; appends are serialized internally so
/// handler threads, workers, and the TTL janitor can share it.
#[derive(Debug)]
pub struct JobJournal {
    path: PathBuf,
    file: Mutex<File>,
    /// Records on disk: what was already there at open plus every
    /// successful append since. Feeds `/health`'s journal statistics.
    entries: AtomicU64,
}

impl JobJournal {
    /// Opens `path` for appending, creating it (and missing parent
    /// directories) as needed.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; the caller decides whether to run
    /// journalless or refuse to start.
    pub fn open(path: &Path) -> io::Result<JobJournal> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let existing = match fs::read_to_string(path) {
            Ok(text) => text.lines().filter(|l| !l.trim().is_empty()).count() as u64,
            Err(_) => 0,
        };
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(JobJournal {
            path: path.to_path_buf(),
            file: Mutex::new(file),
            entries: AtomicU64::new(existing),
        })
    }

    /// Records on disk: lines present when the journal was opened plus
    /// every successful [`JobJournal::append`] since.
    pub fn entries(&self) -> u64 {
        self.entries.load(Ordering::Relaxed)
    }

    /// Where this journal lives.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one record durably (write + flush + fsync). The record is
    /// on disk when this returns.
    ///
    /// # Errors
    ///
    /// Propagates write failures; callers log and carry on — a sick
    /// journal must never take down a healthy daemon.
    pub fn append(&self, record: &JournalRecord) -> io::Result<()> {
        let mut line = serde_json::to_string(record)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        line.push('\n');
        let started = Instant::now();
        let result = {
            let mut file = self.file.lock().expect("journal lock");
            file.write_all(line.as_bytes())
                .and_then(|()| file.flush())
                .and_then(|()| file.sync_data())
        };
        METRICS.spans.journal_append.observe_since(started);
        if result.is_ok() {
            self.entries.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Reads every intact record from `path`. Infallible by design: a
    /// missing file is an empty journal, a torn or damaged line is skipped
    /// (and counted) with a warning, and everything else is returned in
    /// file order.
    pub fn replay(path: &Path) -> ReplaySummary {
        // Bytes, not a string: one line of bit rot that is not UTF-8 must
        // cost that line, not the whole journal.
        let text = match fs::read(path) {
            Ok(text) => text,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return ReplaySummary::default(),
            Err(e) => {
                warn!("journal", "cannot read `{}`: {e}; treating as empty", path.display());
                return ReplaySummary::default();
            }
        };
        let mut summary = ReplaySummary::default();
        let lines: Vec<&[u8]> = text.split(|&b| b == b'\n').filter(|l| !is_blank(l)).collect();
        let torn_tail = !text.is_empty() && !text.ends_with(b"\n");
        for (i, line) in lines.iter().enumerate() {
            let last = i + 1 == lines.len();
            let parsed = std::str::from_utf8(line)
                .map_err(|e| format!("not UTF-8: {e}"))
                .and_then(|line| {
                    serde_json::from_str::<JournalRecord>(line).map_err(|e| e.to_string())
                })
                .and_then(|rec| {
                    if rec.v == JOURNAL_SCHEMA_VERSION {
                        Ok(rec)
                    } else {
                        Err(format!("schema version {} (this build speaks {})",
                            rec.v, JOURNAL_SCHEMA_VERSION))
                    }
                });
            match parsed {
                Ok(rec) => summary.records.push(rec),
                Err(reason) if last && torn_tail => {
                    // The expected crash signature: the append the kill
                    // interrupted. Quietly drop it.
                    warn!(
                        "journal",
                        "`{}`: dropping torn final record ({reason})",
                        path.display()
                    );
                    summary.skipped += 1;
                }
                Err(reason) => {
                    warn!(
                        "journal",
                        "`{}` line {}: skipping damaged record ({reason})",
                        path.display(),
                        i + 1
                    );
                    summary.skipped += 1;
                }
            }
        }
        summary
    }

    /// Atomically replaces `path` with exactly `records` (tmp + rename):
    /// the restart-time compaction that keeps journals bounded and heals
    /// tolerated damage.
    ///
    /// # Errors
    ///
    /// Propagates filesystem failures; on error the previous journal file
    /// is left untouched.
    pub fn rewrite(path: &Path, records: &[JournalRecord]) -> io::Result<()> {
        let mut text = String::new();
        for record in records {
            text.push_str(
                &serde_json::to_string(record)
                    .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?,
            );
            text.push('\n');
        }
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            fs::create_dir_all(parent)?;
        }
        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_data()?;
        }
        fs::rename(&tmp, path)
    }
}

/// Whether a journal line holds nothing but whitespace.
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|l| l.trim().is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;

    struct TempDir(PathBuf);

    impl TempDir {
        fn new(tag: &str) -> TempDir {
            let mut p = std::env::temp_dir();
            p.push(format!("rr-journal-test-{}-{tag}", std::process::id()));
            let _ = fs::remove_dir_all(&p);
            TempDir(p)
        }

        fn file(&self, name: &str) -> PathBuf {
            self.0.join(name)
        }
    }

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn append_then_replay_round_trips_every_event() {
        let dir = TempDir::new("roundtrip");
        let path = dir.file("jobs.jsonl");
        let journal = JobJournal::open(&path).unwrap();
        let records = vec![
            JournalRecord::submitted(1, "fig5 F=64", "fp-1", "{\"grid\":1}".into()),
            JournalRecord::finished_ok(1, "{\"report\":true}".into()),
            JournalRecord::submitted(2, "fig6", "fp-2", "{\"grid\":2}".into()),
            JournalRecord::cancelled(2),
            JournalRecord::submitted(3, "boom", "fp-3", "{\"grid\":3}".into()),
            JournalRecord::finished_err(3, "spec was bad".into()),
            JournalRecord::expired(1),
        ];
        for rec in &records {
            journal.append(rec).unwrap();
        }
        let replay = JobJournal::replay(&path);
        assert_eq!(replay.skipped, 0);
        assert_eq!(replay.records, records);
    }

    #[test]
    fn missing_journal_is_empty_not_an_error() {
        let dir = TempDir::new("missing");
        assert_eq!(JobJournal::replay(&dir.file("nope.jsonl")), ReplaySummary::default());
    }

    #[test]
    fn torn_tail_is_dropped_and_the_prefix_survives() {
        let dir = TempDir::new("torn");
        let path = dir.file("jobs.jsonl");
        let journal = JobJournal::open(&path).unwrap();
        journal.append(&JournalRecord::submitted(1, "a", "fa", "{}".into())).unwrap();
        journal.append(&JournalRecord::finished_ok(1, "r".into())).unwrap();
        // Simulate the kill mid-append: a record cut off without its
        // newline.
        let mut raw = fs::read_to_string(&path).unwrap();
        raw.push_str("{\"v\": 1, \"event\": \"submi");
        fs::write(&path, raw).unwrap();

        let replay = JobJournal::replay(&path);
        assert_eq!(replay.records.len(), 2, "intact prefix fully recovered");
        assert_eq!(replay.skipped, 1, "the torn tail is counted, not fatal");
        assert_eq!(replay.records[1], JournalRecord::finished_ok(1, "r".into()));
    }

    #[test]
    fn mid_file_garbage_and_foreign_versions_are_skipped() {
        let dir = TempDir::new("garbage");
        let path = dir.file("jobs.jsonl");
        let good_a = JournalRecord::submitted(1, "a", "fa", "{}".into());
        let good_b = JournalRecord::submitted(2, "b", "fb", "{}".into());
        let raw = format!(
            "{}\nnot json at all\n{{\"v\": 99, \"event\": \"submitted\", \"id\": 5}}\n{}\n",
            serde_json::to_string(&good_a).unwrap(),
            serde_json::to_string(&good_b).unwrap(),
        );
        fs::create_dir_all(&dir.0).unwrap();
        fs::write(&path, raw).unwrap();
        let replay = JobJournal::replay(&path);
        assert_eq!(replay.records, vec![good_a, good_b]);
        assert_eq!(replay.skipped, 2, "garbage line and foreign version both skipped");
    }

    #[test]
    fn rewrite_compacts_atomically() {
        let dir = TempDir::new("rewrite");
        let path = dir.file("jobs.jsonl");
        let journal = JobJournal::open(&path).unwrap();
        for id in 1..=5 {
            journal.append(&JournalRecord::submitted(id, "x", "f", "{}".into())).unwrap();
            journal.append(&JournalRecord::finished_ok(id, "r".into())).unwrap();
        }
        let compacted = vec![JournalRecord::submitted(5, "x", "f", "{}".into())];
        JobJournal::rewrite(&path, &compacted).unwrap();
        let replay = JobJournal::replay(&path);
        assert_eq!(replay.records, compacted);
        assert!(!path.with_extension("jsonl.tmp").exists(), "no tmp file left behind");
        // The rewritten journal accepts further appends.
        let journal = JobJournal::open(&path).unwrap();
        journal.append(&JournalRecord::finished_ok(5, "r".into())).unwrap();
        assert_eq!(JobJournal::replay(&path).records.len(), 2);
    }

    #[test]
    fn entries_counts_prior_lines_plus_appends() {
        let dir = TempDir::new("entries");
        let path = dir.file("jobs.jsonl");
        let journal = JobJournal::open(&path).unwrap();
        assert_eq!(journal.entries(), 0, "fresh journal is empty");
        journal.append(&JournalRecord::submitted(1, "a", "fa", "{}".into())).unwrap();
        journal.append(&JournalRecord::finished_ok(1, "r".into())).unwrap();
        assert_eq!(journal.entries(), 2);
        // Reopening counts what is already on disk.
        let reopened = JobJournal::open(&path).unwrap();
        assert_eq!(reopened.entries(), 2);
        reopened.append(&JournalRecord::expired(1)).unwrap();
        assert_eq!(reopened.entries(), 3);
    }

    /// Non-blank lines: each one is either a record or a skipped line.
    fn non_blank_lines(bytes: &[u8]) -> usize {
        bytes.split(|&b| b == b'\n').filter(|l| !is_blank(l)).count()
    }

    fn sample_records() -> Vec<JournalRecord> {
        vec![
            JournalRecord::submitted(1, "fig5", "fa", "{\"kind\":\"fig5\"}".into()),
            JournalRecord::finished_ok(1, "r1".into()),
            JournalRecord::submitted(2, "trace", "fb", "{}".into()),
            JournalRecord::finished_err(2, "spec was bad".into()),
            JournalRecord::expired(1),
        ]
    }

    use proptest::prelude::*;

    /// One journal line: a real record, or arbitrary bytes without a newline.
    fn lines() -> impl Strategy<Value = Vec<Result<usize, Vec<u8>>>> {
        prop::collection::vec(
            prop_oneof![
                (0usize..5).prop_map(Ok),
                prop::collection::vec(any::<u8>(), 0..80)
                    .prop_map(|b| Err(b.into_iter().filter(|&c| c != b'\n').collect())),
            ],
            0..12,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(200))]

        #[test]
        fn replay_skips_arbitrary_lines_and_keeps_every_record(
            lines in lines(),
            trailing_newline in any::<bool>(),
        ) {
            let dir = TempDir::new("fuzz-lines");
            let path = dir.file("jobs.jsonl");
            fs::create_dir_all(&dir.0).unwrap();
            let records = sample_records();
            let mut raw: Vec<u8> = Vec::new();
            let mut want = Vec::new();
            for line in &lines {
                match line {
                    Ok(i) => {
                        raw.extend(serde_json::to_string(&records[*i]).unwrap().bytes());
                        want.push(records[*i].clone());
                    }
                    Err(bytes) => raw.extend(bytes),
                }
                raw.push(b'\n');
            }
            if !trailing_newline {
                raw.pop();
            }
            fs::write(&path, &raw).unwrap();
            let replay = JobJournal::replay(&path);
            prop_assert_eq!(replay.records.len() + replay.skipped, non_blank_lines(&raw));
            prop_assert_eq!(&replay.records, &want);
        }

        #[test]
        fn replay_survives_truncation_and_byte_flips(
            cut in 0usize..1000,
            flips in prop::collection::vec((0usize..1000, 1u8..=255), 0..4),
        ) {
            let dir = TempDir::new("fuzz-damage");
            let path = dir.file("jobs.jsonl");
            let journal = JobJournal::open(&path).unwrap();
            let records = sample_records();
            for record in &records {
                journal.append(record).unwrap();
            }
            let mut raw = fs::read(&path).unwrap();
            raw.truncate(cut.min(raw.len()));
            for &(at, mask) in &flips {
                if !raw.is_empty() {
                    let at = at % raw.len();
                    raw[at] ^= mask;
                }
            }
            fs::write(&path, &raw).unwrap();
            let replay = JobJournal::replay(&path);
            prop_assert_eq!(replay.records.len() + replay.skipped, non_blank_lines(&raw));
            if flips.is_empty() {
                // A cut journal keeps exactly its whole lines, plus a last
                // line cut just before its newline.
                let whole = raw.iter().filter(|&&b| b == b'\n').count();
                prop_assert!(replay.records.len() == whole || replay.records.len() == whole + 1);
                prop_assert_eq!(&replay.records[..], &records[..replay.records.len()]);
            }
        }
    }
}
