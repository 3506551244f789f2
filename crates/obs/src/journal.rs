//! Append-only JSONL journals: a durable line-record writer and a
//! truncation-tolerant reader.
//!
//! A journal is the crash-safety primitive of the workspace: one JSON
//! object per line, appended and fsync'd record by record, so whatever
//! survives a hard kill (power loss, `kill -9`, OOM) is a prefix of the
//! logical record stream plus at most one torn trailing line. The
//! reader accepts exactly that shape — every complete line must parse
//! as a JSON object, while a final line that is unterminated or fails
//! to parse is silently dropped as torn. Corruption anywhere *before*
//! the last line is an error, not something to paper over: it means the
//! file was edited or the filesystem lied, and resuming from it would
//! silently lose records.
//!
//! The writer talks to storage through the [`JournalSink`] trait
//! (write / sync / reopen) rather than a bare [`File`], so the same
//! append path runs against the real filesystem ([`FileSink`]) or a
//! deterministic fault injector ([`crate::chaos::FaultySink`]). On any
//! write or sync failure the writer marks itself dirty and, before the
//! next attempt, reopens the sink truncated back to the last *committed*
//! offset — the byte just past the last acked record — so a retried
//! append can never duplicate a record or fuse onto a half-written one.
//!
//! Record semantics (schemas, replay, merging) belong to the caller;
//! this module only guarantees durability, torn-tail tolerance, and
//! exactly-once append under retry.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use crate::json::{self, JsonValue};

/// The raw storage operations a [`JournalWriter`] needs, abstracted so
/// tests and chaos suites can interpose deterministic faults.
///
/// Contract: `write` has full-buffer semantics — it either persists the
/// whole buffer to the sink's current end or returns an error (possibly
/// after a partial write; the writer recovers via [`JournalSink::reopen`]).
/// `sync` makes previously written bytes durable. `reopen(truncate_to)`
/// discards any possibly-partial suffix by re-acquiring the underlying
/// resource, truncating it to exactly `truncate_to` bytes, and
/// positioning the next write there.
pub trait JournalSink: Send + fmt::Debug {
    /// Writes the whole buffer at the current end of the sink.
    ///
    /// # Errors
    ///
    /// Any I/O error; the sink may have persisted a prefix of `buf`.
    fn write(&mut self, buf: &[u8]) -> io::Result<()>;

    /// Makes previously written bytes durable (fsync).
    ///
    /// # Errors
    ///
    /// Any I/O error syncing.
    fn sync(&mut self) -> io::Result<()>;

    /// Re-acquires the underlying resource, truncates it to
    /// `truncate_to` bytes, and positions the next write there.
    ///
    /// # Errors
    ///
    /// Any I/O error reopening or truncating.
    fn reopen(&mut self, truncate_to: u64) -> io::Result<()>;
}

/// The real-filesystem [`JournalSink`]: a [`File`] plus its path so the
/// sink can reopen itself after a failed write.
#[derive(Debug)]
pub struct FileSink {
    file: File,
    path: PathBuf,
}

impl FileSink {
    fn new(file: File, path: PathBuf) -> Self {
        FileSink { file, path }
    }
}

impl JournalSink for FileSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        self.file.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn reopen(&mut self, truncate_to: u64) -> io::Result<()> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(&self.path)?;
        file.set_len(truncate_to)?;
        let mut file = file;
        file.seek(SeekFrom::Start(truncate_to))?;
        self.file = file;
        Ok(())
    }
}

/// A journal I/O failure with enough context to act on: which file,
/// which operation (`open` / `append` / `sync` / `reopen`), and how
/// many attempts were made before giving up.
#[derive(Debug)]
pub struct JournalError {
    /// The operation that failed.
    pub op: &'static str,
    /// The journal file involved.
    pub path: PathBuf,
    /// Total attempts made (1 when no retry policy was in play).
    pub attempts: u32,
    /// The underlying I/O error from the final attempt.
    pub source: io::Error,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.attempts > 1 {
            write!(
                f,
                "journal {} failed for {} after {} attempts: {}",
                self.op,
                self.path.display(),
                self.attempts,
                self.source
            )
        } else {
            write!(
                f,
                "journal {} failed for {}: {}",
                self.op,
                self.path.display(),
                self.source
            )
        }
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Wraps an I/O error as an [`io::Error`] whose payload is a
/// [`JournalError`] carrying operation + path + attempt context.
fn journal_error(op: &'static str, path: &Path, attempts: u32, source: io::Error) -> io::Error {
    let kind = source.kind();
    io::Error::new(
        kind,
        JournalError {
            op,
            path: path.to_owned(),
            attempts,
            source,
        },
    )
}

/// How a [`JournalWriter`] responds to transient I/O failures: bounded
/// attempts with deterministic exponential backoff.
///
/// The default policy makes 3 attempts with a 1 ms base delay growing
/// 4× per retry; [`RetryPolicy::none`] makes exactly one attempt, which
/// reproduces the historical fail-fast behaviour. Tests inject a no-op
/// sleep via [`RetryPolicy::with_sleep`] so retries cost no wall clock.
#[derive(Clone)]
pub struct RetryPolicy {
    /// Maximum attempts per append (minimum 1).
    pub max_attempts: u32,
    /// Delay before the first retry.
    pub base_delay: Duration,
    /// Backoff multiplier applied per subsequent retry.
    pub multiplier: u32,
    sleep: Option<Arc<dyn Fn(Duration) + Send + Sync>>,
}

impl fmt::Debug for RetryPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("RetryPolicy")
            .field("max_attempts", &self.max_attempts)
            .field("base_delay", &self.base_delay)
            .field("multiplier", &self.multiplier)
            .field("sleep", &self.sleep.as_ref().map(|_| "<injected>"))
            .finish()
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_delay: Duration::from_millis(1),
            multiplier: 4,
            sleep: None,
        }
    }
}

impl RetryPolicy {
    /// A single attempt, no retries — the historical fail-fast journal
    /// behaviour.
    pub fn none() -> Self {
        RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        }
    }

    /// `attempts` tries with the default backoff shape.
    pub fn attempts(attempts: u32) -> Self {
        RetryPolicy {
            max_attempts: attempts.max(1),
            ..RetryPolicy::default()
        }
    }

    /// Replaces the sleep function (tests pass `|_| {}` to make backoff
    /// free; schedulers could hook a virtual clock).
    #[must_use]
    pub fn with_sleep(mut self, sleep: impl Fn(Duration) + Send + Sync + 'static) -> Self {
        self.sleep = Some(Arc::new(sleep));
        self
    }

    /// Sleeps for the backoff delay before retry number `retry`
    /// (1-based): `base_delay * multiplier^(retry-1)`.
    fn pause(&self, retry: u32) {
        let factor = self.multiplier.max(1).saturating_pow(retry.saturating_sub(1));
        let delay = self.base_delay.saturating_mul(factor);
        match &self.sleep {
            Some(sleep) => sleep(delay),
            None => std::thread::sleep(delay),
        }
    }
}

/// Construction options for [`JournalWriter`]: retry behaviour and an
/// optional deterministic fault-injection plan wrapped around the file.
#[derive(Debug, Clone, Default)]
pub struct JournalOptions {
    /// Retry policy for appends (`Default`: 3 attempts with backoff).
    pub retry: RetryPolicy,
    /// When set, the [`FileSink`] is wrapped in a
    /// [`crate::chaos::FaultySink`] driven by this plan.
    pub chaos: Option<crate::chaos::FaultPlan>,
}

/// A durable append-only JSONL writer.
///
/// Every [`JournalWriter::append`] writes one compact JSON line and
/// fsyncs (`sync_data`) before returning, so a record that `append`
/// reported as written survives any subsequent crash. This is the
/// expensive end of the trade: a campaign journal appends once per
/// completed fault, where an fsync is noise next to the seconds of
/// solver work it checkpoints.
///
/// Appends are exactly-once under retry: the writer tracks the
/// *committed* offset (the byte just past the last acked record) and on
/// any failure truncates the sink back to it before rewriting, so a
/// record is never duplicated and a half-written line can never fuse
/// with the next record into interior corruption. One caveat is
/// inherent to fsync semantics: when a `sync` fails *after* the bytes
/// reached the OS, the record may still survive a crash as a single
/// trailing unacked line — readers and replay tolerate exactly one such
/// record.
#[derive(Debug)]
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    path: PathBuf,
    /// Byte offset just past the last acked record.
    committed: u64,
    /// True after a failed write/sync: the sink must be reopened and
    /// truncated to `committed` before the next write.
    dirty: bool,
    retry: RetryPolicy,
    appends: u64,
    retries: u64,
    last_error: Option<String>,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it if missing. Existing
    /// records are preserved — resume depends on that.
    ///
    /// If the file ends in a torn (unterminated) line — the signature
    /// of a hard kill mid-append — the torn bytes are truncated away
    /// first. Appending after them verbatim would fuse the fragment
    /// with the next record into one corrupt *interior* line, which
    /// readers rightly reject; trimming back to the last newline
    /// restores the every-line-terminated invariant instead.
    ///
    /// Uses [`RetryPolicy::none`] — the historical fail-fast behaviour.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, scanning or truncating the file, wrapped
    /// with path + operation context.
    pub fn append_to(path: &Path) -> io::Result<Self> {
        Self::append_to_with(
            path,
            JournalOptions {
                retry: RetryPolicy::none(),
                chaos: None,
            },
        )
    }

    /// [`JournalWriter::append_to`] with explicit [`JournalOptions`].
    ///
    /// # Errors
    ///
    /// Any I/O error opening, scanning or truncating the file, wrapped
    /// with path + operation context.
    pub fn append_to_with(path: &Path, options: JournalOptions) -> io::Result<Self> {
        let open = || -> io::Result<(Box<dyn JournalSink>, u64)> {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(path)?;
            let keep = last_terminated_offset(&mut file)?;
            file.set_len(keep)?;
            file.seek(SeekFrom::Start(keep))?;
            Ok((Box::new(FileSink::new(file, path.to_owned())), keep))
        };
        let (sink, keep) = open().map_err(|e| journal_error("open", path, 1, e))?;
        let sink: Box<dyn JournalSink> = match options.chaos {
            Some(plan) => Box::new(crate::chaos::FaultySink::new(sink, plan)),
            None => sink,
        };
        Ok(Self::with_sink(sink, path, keep, options.retry))
    }

    /// Truncates `path` (discarding any previous journal) and opens it
    /// for appending — the fresh-run counterpart of
    /// [`JournalWriter::append_to`]. Uses [`RetryPolicy::none`].
    ///
    /// # Errors
    ///
    /// Any I/O error opening the file, wrapped with path + operation
    /// context.
    pub fn create(path: &Path) -> io::Result<Self> {
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(true)
            .open(path)
            .map_err(|e| journal_error("open", path, 1, e))?;
        let sink: Box<dyn JournalSink> = Box::new(FileSink::new(file, path.to_owned()));
        Ok(Self::with_sink(sink, path, 0, RetryPolicy::none()))
    }

    /// Builds a writer over an arbitrary sink — the seam chaos tests
    /// use to drive the append loop against in-memory or faulty sinks.
    /// `committed` is the byte offset just past the last acked record
    /// already present in the sink.
    pub fn with_sink(
        sink: Box<dyn JournalSink>,
        path: &Path,
        committed: u64,
        retry: RetryPolicy,
    ) -> Self {
        JournalWriter {
            sink,
            path: path.to_owned(),
            committed,
            dirty: false,
            retry,
            appends: 0,
            retries: 0,
            last_error: None,
        }
    }

    /// Appends one record as a compact JSON line and fsyncs it to disk.
    ///
    /// Retries per the writer's [`RetryPolicy`]; on any failed attempt
    /// the sink is reopened truncated to the committed offset before
    /// the rewrite, so the record lands exactly once or not at all (see
    /// the type-level fsync caveat).
    ///
    /// # Errors
    ///
    /// The final attempt's I/O error once the retry budget is
    /// exhausted, wrapped with path + operation + attempt context.
    pub fn append(&mut self, record: &JsonValue) -> io::Result<()> {
        let mut line = record.to_json();
        line.push('\n');
        let bytes = line.as_bytes();
        let max = self.retry.max_attempts.max(1);
        let mut last: Option<(&'static str, io::Error)> = None;
        for attempt in 1..=max {
            if attempt > 1 {
                self.retries += 1;
                self.retry.pause(attempt - 1);
            }
            if self.dirty {
                match self.sink.reopen(self.committed) {
                    Ok(()) => self.dirty = false,
                    Err(e) => {
                        last = Some(("reopen", e));
                        continue;
                    }
                }
            }
            if let Err(e) = self.sink.write(bytes) {
                // A prefix of the line may have landed; force a
                // truncating reopen before the next write.
                self.dirty = true;
                last = Some(("append", e));
                continue;
            }
            if let Err(e) = self.sink.sync() {
                // The bytes are in the OS but not provably durable.
                // Rewind to the committed offset and rewrite rather
                // than risk acking an unsynced record.
                self.dirty = true;
                last = Some(("sync", e));
                continue;
            }
            self.committed += bytes.len() as u64;
            self.appends += 1;
            return Ok(());
        }
        let (op, source) = last.expect("append made at least one attempt");
        self.last_error = Some(source.to_string());
        Err(journal_error(op, &self.path, max, source))
    }

    /// The path this journal writes to.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Records successfully appended by this writer.
    pub fn appends(&self) -> u64 {
        self.appends
    }

    /// Failed attempts that were absorbed by the retry policy (counts
    /// every retry, including ones that ultimately exhausted the
    /// budget).
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// The most recent terminal append error, if any.
    pub fn last_error(&self) -> Option<&str> {
        self.last_error.as_deref()
    }
}

/// Byte offset just past the last `\n` in `file` (0 when it has none):
/// the length the file must be truncated to so that every surviving
/// line is newline-terminated.
fn last_terminated_offset(file: &mut File) -> io::Result<u64> {
    file.seek(SeekFrom::Start(0))?;
    let mut pos: u64 = 0;
    let mut keep: u64 = 0;
    let mut buf = [0u8; 8192];
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok(keep);
        }
        for (i, &b) in buf[..n].iter().enumerate() {
            if b == b'\n' {
                keep = pos + i as u64 + 1;
            }
        }
        pos += n as u64;
    }
}

/// What [`read_journal`] found on disk.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalContents {
    /// Every complete, parsed record, in file order.
    pub records: Vec<JsonValue>,
    /// True when the file ended in a torn line (unterminated or
    /// unparseable) that was dropped — the signature of a hard kill
    /// mid-append.
    pub torn_tail: bool,
}

/// Reads a JSONL journal, tolerating a torn trailing line.
///
/// Every line but the last must parse as JSON; the final line may be
/// incomplete (no trailing newline, or garbage from a partial write)
/// and is then dropped with [`JournalContents::torn_tail`] set. Empty
/// and whitespace-only lines are skipped.
///
/// # Errors
///
/// I/O errors reading the file, invalid UTF-8, or a malformed record
/// anywhere before the final line (that is corruption, not a crash
/// artifact — the error message names the file and offending line
/// number).
pub fn read_journal(path: &Path) -> Result<JournalContents, String> {
    let mut text = String::new();
    File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|e| format!("journal replay failed for {}: {e}", path.display()))?;
    parse_journal(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// [`read_journal`] on in-memory text — the testable core.
///
/// # Errors
///
/// A malformed record before the final line, with its line number.
pub fn parse_journal(text: &str) -> Result<JournalContents, String> {
    let mut records = Vec::new();
    let mut torn_tail = false;
    // split('\n') yields a trailing "" for a newline-terminated file, so
    // a non-empty final fragment means the last append was torn.
    let lines: Vec<&str> = text.split('\n').collect();
    let last = lines.len().saturating_sub(1);
    for (idx, line) in lines.iter().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        match json::parse(line) {
            Ok(record) => {
                if idx == last {
                    // Parseable but unterminated: the newline (and the
                    // fsync that covered it) never hit the disk, so the
                    // record cannot be trusted as complete.
                    torn_tail = true;
                } else {
                    records.push(record);
                }
            }
            Err(err) if idx == last => {
                torn_tail = true;
                let _ = err;
            }
            Err(err) => {
                return Err(format!("journal line {}: {err}", idx + 1));
            }
        }
    }
    Ok(JournalContents { records, torn_tail })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(n: f64) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.push("record", JsonValue::Str("test".into()));
        obj.push("n", JsonValue::Num(n));
        obj
    }

    #[test]
    fn writer_reader_round_trip() {
        let dir = std::env::temp_dir().join("obs-journal-roundtrip");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let mut w = JournalWriter::create(&path).unwrap();
        for n in 0..5 {
            w.append(&record(n as f64)).unwrap();
        }
        assert_eq!(w.appends(), 5);
        assert_eq!(w.retries(), 0);
        drop(w);
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 5);
        assert!(!contents.torn_tail);
        assert_eq!(contents.records[3].get("n").unwrap().as_f64(), Some(3.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_preserves_existing_records() {
        let dir = std::env::temp_dir().join("obs-journal-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        JournalWriter::create(&path).unwrap().append(&record(1.0)).unwrap();
        JournalWriter::append_to(&path)
            .unwrap()
            .append(&record(2.0))
            .unwrap();
        let contents = read_journal(&path).unwrap();
        assert_eq!(contents.records.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_truncates_a_torn_tail_before_appending() {
        let dir = std::env::temp_dir().join("obs-journal-torn-append");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        // A hard kill left the second record torn mid-line.
        std::fs::write(&path, "{\"n\":1}\n{\"n\":2,\"ha").unwrap();
        JournalWriter::append_to(&path)
            .unwrap()
            .append(&record(3.0))
            .unwrap();
        // The torn fragment is gone; the new record is a clean line,
        // not fused onto the fragment as interior corruption.
        let contents = read_journal(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.records.len(), 2);
        assert_eq!(contents.records[1].get("n").unwrap().as_f64(), Some(3.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_to_a_file_with_no_newline_starts_clean() {
        let dir = std::env::temp_dir().join("obs-journal-no-newline");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        // The very first append was torn: no newline anywhere.
        std::fs::write(&path, "{\"n\":1").unwrap();
        JournalWriter::append_to(&path)
            .unwrap()
            .append(&record(2.0))
            .unwrap();
        let contents = read_journal(&path).unwrap();
        assert!(!contents.torn_tail);
        assert_eq!(contents.records.len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_trailing_line_is_dropped() {
        let text = "{\"n\":1}\n{\"n\":2}\n{\"n\":3,\"half";
        let contents = parse_journal(text).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert!(contents.torn_tail);
    }

    #[test]
    fn unterminated_but_parseable_tail_is_still_torn() {
        // The line parses, but without its newline the fsync covering
        // it cannot have completed — treat as torn.
        let text = "{\"n\":1}\n{\"n\":2}";
        let contents = parse_journal(text).unwrap();
        assert_eq!(contents.records.len(), 1);
        assert!(contents.torn_tail);
    }

    #[test]
    fn corruption_before_the_tail_is_an_error() {
        let text = "{\"n\":1}\nnot json at all\n{\"n\":3}\n";
        let err = parse_journal(text).unwrap_err();
        assert!(err.contains("line 2"), "{err}");
    }

    #[test]
    fn empty_and_blank_lines_are_skipped() {
        let text = "\n{\"n\":1}\n\n{\"n\":2}\n";
        let contents = parse_journal(text).unwrap();
        assert_eq!(contents.records.len(), 2);
        assert!(!contents.torn_tail);
    }

    #[test]
    fn empty_file_is_a_valid_empty_journal() {
        let contents = parse_journal("").unwrap();
        assert!(contents.records.is_empty());
        assert!(!contents.torn_tail);
    }

    #[test]
    fn open_errors_carry_path_and_operation_context() {
        let path = Path::new("/nonexistent-dir-for-journal-test/j.jsonl");
        let err = JournalWriter::create(path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("journal open failed"), "{msg}");
        assert!(msg.contains("nonexistent-dir-for-journal-test"), "{msg}");
    }

    /// A sink that fails a scripted set of operations, for exercising
    /// the retry loop without the chaos module.
    #[derive(Debug)]
    struct ScriptedSink {
        buf: Vec<u8>,
        synced: usize,
        fail_writes: Vec<u64>,
        fail_syncs: Vec<u64>,
        writes: u64,
        syncs: u64,
        reopens: u64,
    }

    impl ScriptedSink {
        fn new(fail_writes: Vec<u64>, fail_syncs: Vec<u64>) -> Self {
            ScriptedSink {
                buf: Vec::new(),
                synced: 0,
                fail_writes,
                fail_syncs,
                writes: 0,
                syncs: 0,
                reopens: 0,
            }
        }
    }

    impl JournalSink for ScriptedSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<()> {
            let op = self.writes;
            self.writes += 1;
            if self.fail_writes.contains(&op) {
                // Model a partial write: half the buffer lands.
                self.buf.extend_from_slice(&buf[..buf.len() / 2]);
                return Err(io::Error::new(io::ErrorKind::StorageFull, "injected"));
            }
            self.buf.extend_from_slice(buf);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            let op = self.syncs;
            self.syncs += 1;
            if self.fail_syncs.contains(&op) {
                return Err(io::Error::other("injected fsync failure"));
            }
            self.synced = self.buf.len();
            Ok(())
        }

        fn reopen(&mut self, truncate_to: u64) -> io::Result<()> {
            self.reopens += 1;
            self.buf.truncate(truncate_to as usize);
            self.synced = self.synced.min(self.buf.len());
            Ok(())
        }
    }

    fn quiet_retry(attempts: u32) -> RetryPolicy {
        RetryPolicy::attempts(attempts).with_sleep(|_| {})
    }

    #[test]
    fn retry_absorbs_a_transient_partial_write() {
        let sink = ScriptedSink::new(vec![1], vec![]);
        let mut w = JournalWriter::with_sink(
            Box::new(sink),
            Path::new("mem.jsonl"),
            0,
            quiet_retry(3),
        );
        w.append(&record(1.0)).unwrap();
        w.append(&record(2.0)).unwrap();
        assert_eq!(w.appends(), 2);
        assert_eq!(w.retries(), 1);
        // Downcast back to inspect the bytes: the partial first attempt
        // of record 2 was truncated away, leaving exactly two records.
        let text = {
            let sink = &w.sink;
            format!("{sink:?}")
        };
        assert!(text.contains("reopens: 1"), "{text}");
    }

    #[test]
    fn sync_failure_retries_without_duplicating_the_record() {
        let sink = ScriptedSink::new(vec![], vec![1]);
        let mut w = JournalWriter::with_sink(
            Box::new(sink),
            Path::new("mem.jsonl"),
            0,
            quiet_retry(3),
        );
        w.append(&record(1.0)).unwrap();
        w.append(&record(2.0)).unwrap();
        assert_eq!(w.retries(), 1);
        let dbg = format!("{:?}", w.sink);
        // The failed-sync copy of record 2 was truncated before the
        // rewrite: 3 writes happened, but only 2 records' bytes remain.
        assert!(dbg.contains("writes: 3"), "{dbg}");
        assert!(dbg.contains("reopens: 1"), "{dbg}");
    }

    #[test]
    fn exhausted_retries_surface_the_final_error_with_context() {
        let sink = ScriptedSink::new(vec![0, 1, 2], vec![]);
        let mut w = JournalWriter::with_sink(
            Box::new(sink),
            Path::new("mem.jsonl"),
            0,
            quiet_retry(3),
        );
        let err = w.append(&record(1.0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let msg = err.to_string();
        assert!(msg.contains("after 3 attempts"), "{msg}");
        assert!(msg.contains("mem.jsonl"), "{msg}");
        assert!(w.last_error().is_some());
        // A later append recovers if the fault cleared: dirty forces a
        // truncating reopen first, so no partial bytes remain.
        w.append(&record(2.0)).unwrap();
        assert_eq!(w.appends(), 1);
    }
}
