//! Property tests for the journal append loop under injected I/O
//! faults.
//!
//! The sink here is an in-memory file with an explicit *synced* prefix:
//! `sync` advances a watermark, and the crash view — what a reader
//! would find after power loss — is exactly the bytes below it. The
//! chaos layer (`obs::chaos::FaultySink`) injects seeded write and sync
//! failures plus short writes, and the properties assert the storage
//! invariants the campaign engine relies on:
//!
//! 1. **Acked never lost**: every record `append` returned `Ok` for
//!    parses back out of the crash view, in order, with no torn tail.
//! 2. **Interior never corrupted**: the full (unsynced) buffer parses
//!    as the acked records plus at most one trailing unacked record or
//!    torn fragment — never a mid-file parse error.
//! 3. **Determinism**: the same plan against the same record sequence
//!    produces byte-identical storage and identical ack results.
//!
//! The writer stops at its first failure, so the acked records are
//! always a prefix of the sequence.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use obs::chaos::{FaultPlan, FaultySink};
use obs::journal::{parse_journal, JournalSink, JournalWriter};
use obs::json::JsonValue;
use proptest::prelude::*;

/// Shared in-memory file state: the byte buffer plus the fsync
/// watermark. The crash view is `buf[..synced]`.
#[derive(Debug, Default)]
struct MemState {
    buf: Vec<u8>,
    synced: usize,
}

/// An in-memory [`JournalSink`] whose state outlives the writer, so
/// tests can inspect the crash view after the writer is dropped.
#[derive(Debug)]
struct MemSink(Arc<Mutex<MemState>>);

impl JournalSink for MemSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.lock().unwrap().buf.extend_from_slice(buf);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut state = self.0.lock().unwrap();
        state.synced = state.buf.len();
        Ok(())
    }
}

fn record(n: u64) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("record", JsonValue::Str("chaos".into()));
    obj.push("n", JsonValue::Num(n as f64));
    obj
}

/// Drives `count` appends through a chaotic writer built from `plan`.
/// Returns the final state and which record indices were acked.
fn drive(plan: FaultPlan, count: u64) -> (Arc<Mutex<MemState>>, Vec<u64>) {
    let state = Arc::new(Mutex::new(MemState::default()));
    let sink = FaultySink::new(Box::new(MemSink(Arc::clone(&state))), plan);
    let mut writer = JournalWriter::with_sink(Box::new(sink), Path::new("mem.jsonl"));
    let mut acked = Vec::new();
    for n in 0..count {
        if writer.append(&record(n)).is_ok() {
            acked.push(n);
        }
    }
    (state, acked)
}

/// A varied plan: seeded write/sync noise, one scripted persistent-ish
/// sync window, and a couple of short writes.
fn plan_for(seed: u64, p_write: f64, p_sync: f64, with_short: bool) -> FaultPlan {
    let mut plan = FaultPlan::seeded(seed, p_write, p_sync);
    if with_short {
        plan.short_writes.push((seed % 7, (seed % 11) as usize));
        plan.short_writes.push((seed % 13 + 4, 1));
    }
    plan
}

fn parsed_ns(text: &str) -> Result<Vec<u64>, String> {
    let contents = parse_journal(text)?;
    Ok(contents
        .records
        .iter()
        .map(|r| r.get("n").and_then(|v| v.as_f64()).expect("n field") as u64)
        .collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn acked_records_survive_in_the_crash_view(
        (seed, pw, ps) in (0u64..10_000, 0u32..45, 0u32..45),
    ) {
        let plan = plan_for(seed, pw as f64 / 100.0, ps as f64 / 100.0, true);
        let (state, acked) = drive(plan, 24);
        let state = state.lock().unwrap();
        let crash_view = String::from_utf8(state.buf[..state.synced].to_vec()).unwrap();
        let ns = parsed_ns(&crash_view)
            .map_err(|e| TestCaseError::Fail(format!("crash view corrupt: {e}")))?;
        // Invariant 1: exactly the acked records, in order. The synced
        // watermark only ever advances at a committed record boundary,
        // so the crash view cannot even have a torn tail.
        prop_assert_eq!(&ns, &acked);
    }

    #[test]
    fn full_buffer_is_acked_plus_at_most_one_unacked_suffix(
        (seed, pw, ps) in (0u64..10_000, 0u32..45, 0u32..45),
    ) {
        let plan = plan_for(seed, pw as f64 / 100.0, ps as f64 / 100.0, true);
        let (state, acked) = drive(plan, 24);
        let state = state.lock().unwrap();
        let full = String::from_utf8(state.buf.clone()).unwrap();
        // Invariant 2: parsing the whole buffer never hits interior
        // corruption — at worst a torn fragment or one trailing record
        // whose fsync failed after the bytes landed.
        let ns = parsed_ns(&full)
            .map_err(|e| TestCaseError::Fail(format!("interior corruption: {e}")))?;
        prop_assert!(
            ns.len() >= acked.len() && ns.len() <= acked.len() + 1,
            "unsynced buffer has {} records, {} acked",
            ns.len(),
            acked.len()
        );
        prop_assert_eq!(&ns[..acked.len()], &acked);
    }

    #[test]
    fn same_plan_same_sequence_is_byte_identical(
        (seed, pw, ps) in (0u64..10_000, 0u32..45, 0u32..45),
    ) {
        let plan = plan_for(seed, pw as f64 / 100.0, ps as f64 / 100.0, false);
        let (state_a, acked_a) = drive(plan.clone(), 16);
        let (state_b, acked_b) = drive(plan, 16);
        // Invariant 3: chaos is reproducible — identical storage bytes
        // and identical ack outcomes on every run.
        prop_assert_eq!(&acked_a, &acked_b);
        prop_assert_eq!(&state_a.lock().unwrap().buf, &state_b.lock().unwrap().buf);
    }
}

/// A scripted (non-random) end-to-end check kept outside `proptest!`
/// for a readable failure: the first failed write stops the writer, and
/// the crash view holds exactly the records acked before it.
#[test]
fn a_write_outage_stops_the_writer_at_the_first_failure() {
    let plan = FaultPlan::parse("write@2..8").unwrap();
    let (state, acked) = drive(plan, 10);
    // Records 0 and 1 land; record 2 hits the outage and nothing after
    // it is attempted, even once the window has passed.
    assert_eq!(acked, vec![0, 1]);
    let state = state.lock().unwrap();
    let crash_view = String::from_utf8(state.buf[..state.synced].to_vec()).unwrap();
    assert_eq!(parsed_ns(&crash_view).unwrap(), acked);
    assert_eq!(state.buf.len(), state.synced, "no bytes after the outage");
}
