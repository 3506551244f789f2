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
//! (write / sync) rather than a bare [`File`], so the same append path
//! runs against the real filesystem ([`FileSink`]) or a deterministic
//! fault injector ([`crate::chaos::FaultySink`]). A storage failure is
//! treated like a crash: the first failed write or sync stops the
//! writer, its owner stops at the next record boundary, and reopening
//! the file to resume truncates whatever torn tail the failure left.
//!
//! Record semantics (schemas, replay, merging) belong to the caller;
//! this module only guarantees durability and torn-tail tolerance.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::chaos::{FaultPlan, FaultySink};
use crate::json::{self, JsonValue};

/// The raw storage operations a [`JournalWriter`] needs, abstracted so
/// tests and chaos suites can interpose deterministic faults.
///
/// Contract: `write` has full-buffer semantics — it either persists the
/// whole buffer to the sink's current end or returns an error (possibly
/// after a partial write). `sync` makes previously written bytes
/// durable.
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
}

/// The real-filesystem [`JournalSink`].
#[derive(Debug)]
pub struct FileSink(File);

impl JournalSink for FileSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.0.sync_data()
    }
}

/// A journal I/O failure with enough context to act on: which file and
/// which operation (`open` / `append` / `sync`).
#[derive(Debug)]
pub struct JournalError {
    /// The operation that failed.
    pub op: &'static str,
    /// The journal file involved.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "journal {} failed for {}: {}",
            self.op,
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for JournalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Wraps an I/O error as an [`io::Error`] whose payload is a
/// [`JournalError`] carrying operation + path context.
fn journal_error(op: &'static str, path: &Path, source: io::Error) -> io::Error {
    let kind = source.kind();
    io::Error::new(
        kind,
        JournalError {
            op,
            path: path.to_owned(),
            source,
        },
    )
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
/// The first failed write or sync stops the writer: the sink may now
/// end in a partial line, so every later append fails without touching
/// it, and a half-written line can never fuse with a later record into
/// interior corruption. The file then looks exactly like one a hard
/// kill left behind, and [`JournalWriter::append_to_with`] truncates
/// its torn tail on the next open. One caveat is inherent to fsync
/// semantics: when a `sync` fails *after* the bytes reached the OS, the
/// record may still survive as a complete trailing unacked line —
/// readers and replay tolerate exactly one such record.
#[derive(Debug)]
pub struct JournalWriter {
    sink: Box<dyn JournalSink>,
    path: PathBuf,
    /// Set by the first failed write or sync.
    failed: bool,
}

impl JournalWriter {
    /// Opens `path` for appending, creating it if missing, and wraps it
    /// in a [`FaultySink`] when a chaos `plan` is given. Existing
    /// records are preserved — resume depends on that.
    ///
    /// If the file ends in a torn (unterminated) line — the signature
    /// of a hard kill or a failed append — the torn bytes are truncated
    /// away first. Appending after them verbatim would fuse the
    /// fragment with the next record into one corrupt *interior* line,
    /// which readers rightly reject; trimming back to the last newline
    /// restores the every-line-terminated invariant instead.
    ///
    /// # Errors
    ///
    /// Any I/O error opening, scanning or truncating the file, wrapped
    /// with path + operation context.
    pub fn append_to_with(path: &Path, plan: Option<FaultPlan>) -> io::Result<Self> {
        let open = || -> io::Result<File> {
            let mut file = OpenOptions::new()
                .create(true)
                .truncate(false)
                .read(true)
                .write(true)
                .open(path)?;
            let keep = last_terminated_offset(&mut file)?;
            file.set_len(keep)?;
            file.seek(SeekFrom::Start(keep))?;
            Ok(file)
        };
        let sink = Box::new(FileSink(open().map_err(|e| journal_error("open", path, e))?));
        let sink: Box<dyn JournalSink> = match plan {
            Some(plan) => Box::new(FaultySink::new(sink, plan)),
            None => sink,
        };
        Ok(Self::with_sink(sink, path))
    }

    /// Builds a writer over an arbitrary sink — the seam chaos tests
    /// use to drive the append path against in-memory or faulty sinks.
    pub fn with_sink(sink: Box<dyn JournalSink>, path: &Path) -> Self {
        JournalWriter {
            sink,
            path: path.to_owned(),
            failed: false,
        }
    }

    /// Appends one record as a compact JSON line and fsyncs it to disk.
    ///
    /// # Errors
    ///
    /// The write or sync error, wrapped with path + operation context;
    /// after one, every later append fails as an `append` refused by a
    /// stopped writer.
    pub fn append(&mut self, record: &JsonValue) -> io::Result<()> {
        if self.failed {
            let stopped = io::Error::other("an earlier append failed; reopen to resume");
            return Err(journal_error("append", &self.path, stopped));
        }
        let mut line = record.to_json();
        line.push('\n');
        let result = match self.sink.write(line.as_bytes()) {
            Ok(()) => self.sink.sync().map_err(|e| ("sync", e)),
            Err(e) => Err(("append", e)),
        };
        result.map_err(|(op, e)| {
            self.failed = true;
            journal_error(op, &self.path, e)
        })
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
        let _ = std::fs::remove_file(&path);
        let mut w = JournalWriter::append_to_with(&path, None).unwrap();
        for n in 0..5 {
            w.append(&record(n as f64)).unwrap();
        }
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
        let _ = std::fs::remove_file(&path);
        for n in [1.0, 2.0] {
            JournalWriter::append_to_with(&path, None)
                .unwrap()
                .append(&record(n))
                .unwrap();
        }
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
        JournalWriter::append_to_with(&path, None)
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
        JournalWriter::append_to_with(&path, None)
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
        let err = JournalWriter::append_to_with(path, None).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("journal open failed"), "{msg}");
        assert!(msg.contains("nonexistent-dir-for-journal-test"), "{msg}");
    }

    /// A sink that fails a scripted set of operations, for exercising
    /// the failure path without the chaos module.
    #[derive(Debug)]
    struct ScriptedSink {
        buf: Vec<u8>,
        fail_writes: Vec<u64>,
        fail_syncs: Vec<u64>,
        writes: u64,
        syncs: u64,
    }

    impl ScriptedSink {
        fn new(fail_writes: Vec<u64>, fail_syncs: Vec<u64>) -> Self {
            ScriptedSink {
                buf: Vec::new(),
                fail_writes,
                fail_syncs,
                writes: 0,
                syncs: 0,
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
            Ok(())
        }
    }

    #[test]
    fn a_partial_write_stops_the_writer_with_context() {
        let sink = ScriptedSink::new(vec![1], vec![]);
        let mut w = JournalWriter::with_sink(Box::new(sink), Path::new("mem.jsonl"));
        w.append(&record(1.0)).unwrap();
        let err = w.append(&record(2.0)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        let msg = err.to_string();
        assert!(msg.contains("journal append failed for mem.jsonl"), "{msg}");
        // Nothing more reaches the sink: the half-written line stays
        // the torn tail a reopen truncates, never fused with record 3.
        let err = w.append(&record(3.0)).unwrap_err();
        assert!(err.to_string().contains("earlier append failed"), "{err}");
        let dbg = format!("{:?}", w.sink);
        assert!(dbg.contains("writes: 2"), "{dbg}");
    }

    #[test]
    fn a_sync_failure_stops_the_writer_after_a_complete_line() {
        let sink = ScriptedSink::new(vec![], vec![1]);
        let mut w = JournalWriter::with_sink(Box::new(sink), Path::new("mem.jsonl"));
        w.append(&record(1.0)).unwrap();
        let err = w.append(&record(2.0)).unwrap_err();
        assert!(err.to_string().contains("journal sync failed"), "{err}");
        assert!(w.append(&record(3.0)).is_err());
        // Record 2's bytes landed whole before the failed sync: the one
        // trailing unacked record readers tolerate.
        let dbg = format!("{:?}", w.sink);
        assert!(dbg.contains("writes: 2"), "{dbg}");
        assert!(dbg.contains("syncs: 2"), "{dbg}");
    }
}
