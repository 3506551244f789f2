//! Deterministic I/O fault injection for journal storage.
//!
//! [`FaultySink`] wraps any [`JournalSink`] and fails operations
//! according to a [`FaultPlan`] — a reproducible schedule built from
//! scripted windows ("fail writes 4..7"), one-off short writes
//! ("truncate write 3 to 5 bytes"), and/or a seeded pseudo-random
//! component. The plan is a pure function of (seed, operation index),
//! so the same plan against the same operation sequence injects the
//! same faults on every run — chaos tests replay bit-for-bit, and a CI
//! failure under seed `S` reproduces locally with seed `S`.
//!
//! Plans also parse from a compact spec string (the `--chaos` CLI
//! flag): comma-separated clauses
//!
//! ```text
//! write@4        fail the 5th write (0-based index 4)
//! write@4..7     fail writes 4,5,6
//! sync@2..       fail every sync from index 2 on (persistent)
//! reopen@0       fail the first reopen
//! trunc@3:5      write 3 lands only its first 5 bytes, then errors
//! seed@9:20      each op fails with p=20% under splitmix64(seed 9)
//! ```
//!
//! Injected failures use [`io::ErrorKind::StorageFull`] for writes (the
//! ENOSPC shape long campaigns actually hit) and generic errors for
//! syncs/reopens, all tagged "injected" so logs distinguish chaos from
//! real faults.

use std::fmt;
use std::io;

use crate::journal::JournalSink;

/// Which sink operation a schedule applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Op {
    Write,
    Sync,
    Reopen,
}

impl Op {
    fn name(self) -> &'static str {
        match self {
            Op::Write => "write",
            Op::Sync => "sync",
            Op::Reopen => "reopen",
        }
    }
}

/// A failure schedule for one operation type: scripted index windows
/// plus an optional seeded probability.
///
/// An operation at index `i` (0-based, counted per operation type)
/// fails when `i` falls inside any window, or when the seeded coin —
/// a pure hash of `(seed, op, i)` — comes up under the configured
/// probability.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct OpSchedule {
    /// Half-open index windows `[start, end)`; `None` end = forever
    /// (a persistent fault).
    pub windows: Vec<(u64, Option<u64>)>,
    /// Seeded random failure: `(seed, probability in [0,1])`.
    pub random: Option<(u64, f64)>,
}

impl OpSchedule {
    /// True when this schedule injects nothing, ever.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty() && self.random.is_none()
    }

    /// Does the operation at `index` fail under this schedule?
    fn fails(&self, op: Op, index: u64) -> bool {
        let salt = match op {
            Op::Write => 0x57,
            Op::Sync => 0x53,
            Op::Reopen => 0x52,
        };
        self.fails_salted(salt, index)
    }

    /// Salt-parameterised form of [`OpSchedule::fails`]; the salt keys
    /// the seeded coin per operation/site kind so schedules sharing a
    /// seed stay decorrelated.
    fn fails_salted(&self, salt: u64, index: u64) -> bool {
        for &(start, end) in &self.windows {
            let inside = index >= start && end.is_none_or(|e| index < e);
            if inside {
                return true;
            }
        }
        if let Some((seed, p)) = self.random {
            // splitmix64 of (seed, salt, index) → uniform in [0,1).
            let h = mix(seed ^ mix(salt) ^ mix(index));
            let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
            return unit < p;
        }
        false
    }
}

/// The splitmix64 finalizer: a cheap, high-quality 64-bit mixing
/// function. Stateless, so fault decisions depend only on the inputs.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A complete, reproducible fault-injection schedule for one sink.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Failure schedule for `write` operations.
    pub write: OpSchedule,
    /// Failure schedule for `sync` operations.
    pub sync: OpSchedule,
    /// Failure schedule for `reopen` operations.
    pub reopen: OpSchedule,
    /// Short writes: `(write index, bytes that land)` — the write
    /// persists only a prefix, then errors. Takes precedence over the
    /// `write` schedule at the same index.
    pub short_writes: Vec<(u64, usize)>,
}

impl FaultPlan {
    /// A plan that injects nothing — wrapping with it is a no-op.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when the plan injects nothing, ever.
    pub fn is_empty(&self) -> bool {
        self.write.is_empty()
            && self.sync.is_empty()
            && self.reopen.is_empty()
            && self.short_writes.is_empty()
    }

    /// A purely random plan: every write fails with probability
    /// `p_write` and every sync with `p_sync`, decided by `seed`.
    pub fn seeded(seed: u64, p_write: f64, p_sync: f64) -> Self {
        FaultPlan {
            write: OpSchedule {
                windows: Vec::new(),
                random: (p_write > 0.0).then_some((seed, p_write)),
            },
            sync: OpSchedule {
                windows: Vec::new(),
                random: (p_sync > 0.0).then_some((seed, p_sync)),
            },
            ..FaultPlan::default()
        }
    }

    /// Parses the compact spec grammar used by the `--chaos` CLI flag
    /// (see the module docs for the clause forms).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = FaultPlan::default();
        for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, body) = clause
                .split_once('@')
                .ok_or_else(|| format!("chaos clause `{clause}`: expected `kind@spec`"))?;
            match kind {
                "write" => plan.write.windows.push(parse_window(clause, body)?),
                "sync" => plan.sync.windows.push(parse_window(clause, body)?),
                "reopen" => plan.reopen.windows.push(parse_window(clause, body)?),
                "trunc" => {
                    let (idx, len) = body.split_once(':').ok_or_else(|| {
                        format!("chaos clause `{clause}`: expected `trunc@INDEX:BYTES`")
                    })?;
                    plan.short_writes.push((
                        parse_num(clause, idx)?,
                        parse_num(clause, len)? as usize,
                    ));
                }
                "seed" => {
                    let (seed, pct) = body.split_once(':').ok_or_else(|| {
                        format!("chaos clause `{clause}`: expected `seed@SEED:PERCENT`")
                    })?;
                    let seed = parse_num(clause, seed)?;
                    let pct = parse_num(clause, pct)?;
                    if pct > 100 {
                        return Err(format!("chaos clause `{clause}`: percent > 100"));
                    }
                    let p = pct as f64 / 100.0;
                    plan.write.random = Some((seed, p));
                    plan.sync.random = Some((seed, p));
                }
                other => {
                    return Err(format!(
                        "chaos clause `{clause}`: unknown kind `{other}` \
                         (expected write/sync/reopen/trunc/seed)"
                    ));
                }
            }
        }
        Ok(plan)
    }
}

/// Parses `N`, `N..M` (half-open) or `N..` (persistent) into a window.
fn parse_window(clause: &str, body: &str) -> Result<(u64, Option<u64>), String> {
    if let Some((start, end)) = body.split_once("..") {
        let start = parse_num(clause, start)?;
        if end.is_empty() {
            Ok((start, None))
        } else {
            let end = parse_num(clause, end)?;
            if end <= start {
                return Err(format!("chaos clause `{clause}`: empty window"));
            }
            Ok((start, Some(end)))
        }
    } else {
        let n = parse_num(clause, body)?;
        Ok((n, Some(n + 1)))
    }
}

fn parse_num(clause: &str, text: &str) -> Result<u64, String> {
    text.trim()
        .parse::<u64>()
        .map_err(|_| format!("chaos clause `{clause}`: `{text}` is not a number"))
}

/// A [`JournalSink`] wrapper that injects the faults a [`FaultPlan`]
/// schedules, forwarding everything else to the inner sink.
///
/// Operation indices count per operation type across the sink's
/// lifetime, so a plan is deterministic for a given operation sequence
/// regardless of timing.
pub struct FaultySink<S: JournalSink + ?Sized> {
    plan: FaultPlan,
    writes: u64,
    syncs: u64,
    reopens: u64,
    injected: u64,
    inner: Box<S>,
}

impl<S: JournalSink + ?Sized> fmt::Debug for FaultySink<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultySink")
            .field("plan", &self.plan)
            .field("writes", &self.writes)
            .field("syncs", &self.syncs)
            .field("reopens", &self.reopens)
            .field("injected", &self.injected)
            .field("inner", &&self.inner)
            .finish()
    }
}

impl<S: JournalSink + ?Sized> FaultySink<S> {
    /// Wraps `inner` so it fails per `plan`.
    pub fn new(inner: Box<S>, plan: FaultPlan) -> Self {
        FaultySink {
            plan,
            writes: 0,
            syncs: 0,
            reopens: 0,
            injected: 0,
            inner,
        }
    }

    /// Faults injected so far.
    pub fn injected(&self) -> u64 {
        self.injected
    }

    /// Operations seen so far, as `(writes, syncs, reopens)`.
    pub fn ops(&self) -> (u64, u64, u64) {
        (self.writes, self.syncs, self.reopens)
    }

    fn inject(&mut self, op: Op, index: u64) -> io::Error {
        self.injected += 1;
        let kind = match op {
            Op::Write => io::ErrorKind::StorageFull,
            Op::Sync | Op::Reopen => io::ErrorKind::Other,
        };
        io::Error::new(kind, format!("injected {} fault at op {index}", op.name()))
    }
}

impl<S: JournalSink + ?Sized> JournalSink for FaultySink<S> {
    fn write(&mut self, buf: &[u8]) -> io::Result<()> {
        let index = self.writes;
        self.writes += 1;
        if let Some(&(_, keep)) = self
            .plan
            .short_writes
            .iter()
            .find(|&&(i, _)| i == index)
        {
            // A short write: a prefix lands in the inner sink, then
            // the operation reports failure — the torn-append shape.
            let keep = keep.min(buf.len());
            self.inner.write(&buf[..keep])?;
            return Err(self.inject(Op::Write, index));
        }
        if self.plan.write.fails(Op::Write, index) {
            return Err(self.inject(Op::Write, index));
        }
        self.inner.write(buf)
    }

    fn sync(&mut self) -> io::Result<()> {
        let index = self.syncs;
        self.syncs += 1;
        if self.plan.sync.fails(Op::Sync, index) {
            return Err(self.inject(Op::Sync, index));
        }
        self.inner.sync()
    }

    fn reopen(&mut self, truncate_to: u64) -> io::Result<()> {
        let index = self.reopens;
        self.reopens += 1;
        if self.plan.reopen.fails(Op::Reopen, index) {
            return Err(self.inject(Op::Reopen, index));
        }
        self.inner.reopen(truncate_to)
    }
}

/// A numeric-chaos injection site inside the nonlinear solver.
///
/// Where [`FaultPlan`] attacks the storage layer, a
/// [`NumericChaosPlan`] attacks the *arithmetic*: each site corrupts
/// one specific quantity the solver's hazard detectors are supposed to
/// catch, so a seeded sweep can prove every detector fires and every
/// recovery tier engages — deterministically, with a typed outcome,
/// never a panic or a NaN-poisoned report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NumericSite {
    /// Report the factorisation attempt as a singular-pivot breakdown.
    Pivot,
    /// Scale the first pivot of a fresh factorisation, corrupting its
    /// solves (caught by the residual gate / refinement stall).
    Perturb,
    /// Overwrite one solution entry with NaN (caught by the non-finite
    /// scrub).
    Nan,
}

impl NumericSite {
    /// Every site, in parse-grammar order.
    pub const ALL: [NumericSite; 3] = [NumericSite::Pivot, NumericSite::Perturb, NumericSite::Nan];

    /// Clause keyword and display label.
    pub fn name(self) -> &'static str {
        match self {
            NumericSite::Pivot => "pivot",
            NumericSite::Perturb => "perturb",
            NumericSite::Nan => "nan",
        }
    }

    fn salt(self) -> u64 {
        match self {
            NumericSite::Pivot => 0x70,
            NumericSite::Perturb => 0x65,
            NumericSite::Nan => 0x6e,
        }
    }

    fn index(self) -> usize {
        match self {
            NumericSite::Pivot => 0,
            NumericSite::Perturb => 1,
            NumericSite::Nan => 2,
        }
    }
}

/// A reproducible numerical fault-injection schedule for one analysis.
///
/// Spec grammar mirrors [`FaultPlan::parse`] (the `--numeric-chaos`
/// CLI flag): comma-separated clauses
///
/// ```text
/// pivot@0        the 1st factorisation attempt reports a breakdown
/// perturb@2..4   factorisations 2,3 come out corrupted
/// nan@1..        every solve from index 1 on gets a NaN entry
/// seed@9:20      each site attempt fires with p=20% under seed 9
/// ```
///
/// Indices count *attempts per site* within one
/// [`NumericChaosState`]; a retry after a fired injection lands on the
/// next index, so single-index clauses are naturally one-shot and a
/// demotion ladder can be proven to recover.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NumericChaosPlan {
    /// Schedule for [`NumericSite::Pivot`].
    pub pivot: OpSchedule,
    /// Schedule for [`NumericSite::Perturb`].
    pub perturb: OpSchedule,
    /// Schedule for [`NumericSite::Nan`].
    pub nan: OpSchedule,
}

impl NumericChaosPlan {
    /// A plan that injects nothing.
    pub fn none() -> Self {
        NumericChaosPlan::default()
    }

    /// True when the plan injects nothing, ever.
    pub fn is_empty(&self) -> bool {
        self.pivot.is_empty() && self.perturb.is_empty() && self.nan.is_empty()
    }

    fn schedule(&self, site: NumericSite) -> &OpSchedule {
        match site {
            NumericSite::Pivot => &self.pivot,
            NumericSite::Perturb => &self.perturb,
            NumericSite::Nan => &self.nan,
        }
    }

    fn schedule_mut(&mut self, site: NumericSite) -> &mut OpSchedule {
        match site {
            NumericSite::Pivot => &mut self.pivot,
            NumericSite::Perturb => &mut self.perturb,
            NumericSite::Nan => &mut self.nan,
        }
    }

    /// Parses the compact spec grammar (see the type docs).
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut plan = NumericChaosPlan::default();
        'clauses: for clause in spec.split(',') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let (kind, body) = clause
                .split_once('@')
                .ok_or_else(|| format!("numeric-chaos clause `{clause}`: expected `kind@spec`"))?;
            for site in NumericSite::ALL {
                if kind == site.name() {
                    plan.schedule_mut(site)
                        .windows
                        .push(parse_window(clause, body)?);
                    continue 'clauses;
                }
            }
            if kind == "seed" {
                let (seed, pct) = body.split_once(':').ok_or_else(|| {
                    format!("numeric-chaos clause `{clause}`: expected `seed@SEED:PERCENT`")
                })?;
                let seed = parse_num(clause, seed)?;
                let pct = parse_num(clause, pct)?;
                if pct > 100 {
                    return Err(format!("numeric-chaos clause `{clause}`: percent > 100"));
                }
                let p = pct as f64 / 100.0;
                for site in NumericSite::ALL {
                    plan.schedule_mut(site).random = Some((seed, p));
                }
            } else {
                return Err(format!(
                    "numeric-chaos clause `{clause}`: unknown kind `{kind}` \
                     (expected pivot/perturb/nan/seed)"
                ));
            }
        }
        Ok(plan)
    }

    /// A fresh per-analysis firing state over this plan.
    pub fn arm(&self) -> NumericChaosState {
        NumericChaosState {
            plan: self.clone(),
            attempts: Default::default(),
            injected: Default::default(),
        }
    }
}

/// Live firing state for a [`NumericChaosPlan`]: per-site attempt
/// counters plus per-site injection tallies.
///
/// Counters are atomics so one state can be shared across the retries
/// and escalation rungs of a single analysis; determinism comes from
/// giving each analysed fault its *own* state (attempt indices then
/// depend only on that fault's solve sequence, not on worker
/// scheduling).
#[derive(Debug, Default)]
pub struct NumericChaosState {
    plan: NumericChaosPlan,
    attempts: [std::sync::atomic::AtomicU64; 3],
    injected: [std::sync::atomic::AtomicU64; 3],
}

impl NumericChaosState {
    /// Consumes one attempt index at `site` and reports whether the
    /// plan injects there. Each call advances the site's index, so a
    /// retried operation naturally moves past a single-index window.
    pub fn fire(&self, site: NumericSite) -> bool {
        use std::sync::atomic::Ordering;
        let i = site.index();
        let attempt = self.attempts[i].fetch_add(1, Ordering::Relaxed);
        let hit = self.plan.schedule(site).fails_salted(site.salt(), attempt);
        if hit {
            self.injected[i].fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Total injections fired so far.
    pub fn injected(&self) -> u64 {
        use std::sync::atomic::Ordering;
        self.injected.iter().map(|c| c.load(Ordering::Relaxed)).sum()
    }

    /// Per-site injection tallies, in [`NumericSite::ALL`] order.
    pub fn injected_by_site(&self) -> [(&'static str, u64); 3] {
        use std::sync::atomic::Ordering;
        let mut out = [("", 0); 3];
        for (slot, site) in out.iter_mut().zip(NumericSite::ALL) {
            *slot = (
                site.name(),
                self.injected[site.index()].load(Ordering::Relaxed),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_single_index_and_windows() {
        let plan = FaultPlan::parse("write@4,sync@2..5,reopen@1..").unwrap();
        assert_eq!(plan.write.windows, vec![(4, Some(5))]);
        assert_eq!(plan.sync.windows, vec![(2, Some(5))]);
        assert_eq!(plan.reopen.windows, vec![(1, None)]);
        assert!(plan.write.fails(Op::Write, 4));
        assert!(!plan.write.fails(Op::Write, 5));
        assert!(plan.sync.fails(Op::Sync, 4));
        assert!(!plan.sync.fails(Op::Sync, 5));
        assert!(plan.reopen.fails(Op::Reopen, 1_000_000));
    }

    #[test]
    fn parse_trunc_and_seed() {
        let plan = FaultPlan::parse("trunc@3:5,seed@9:25").unwrap();
        assert_eq!(plan.short_writes, vec![(3, 5)]);
        assert_eq!(plan.write.random, Some((9, 0.25)));
        assert_eq!(plan.sync.random, Some((9, 0.25)));
    }

    #[test]
    fn parse_rejects_malformed_clauses() {
        for bad in ["write", "write@x", "write@5..3", "boom@1", "seed@1:200"] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.contains("chaos clause"), "{bad}: {err}");
        }
    }

    #[test]
    fn empty_spec_is_the_empty_plan() {
        let plan = FaultPlan::parse("").unwrap();
        assert!(plan.is_empty());
        assert!(FaultPlan::none().is_empty());
    }

    #[test]
    fn seeded_decisions_are_reproducible_and_roughly_calibrated() {
        let plan = FaultPlan::seeded(42, 0.3, 0.0);
        let again = FaultPlan::seeded(42, 0.3, 0.0);
        let mut hits = 0;
        for i in 0..1000 {
            let a = plan.write.fails(Op::Write, i);
            let b = again.write.fails(Op::Write, i);
            assert_eq!(a, b, "decision {i} not reproducible");
            if a {
                hits += 1;
            }
        }
        // 30% of 1000 with generous slack — this is a calibration
        // sanity check, not a statistics test.
        assert!((150..=450).contains(&hits), "hits = {hits}");
        // A different seed gives a different schedule.
        let other = FaultPlan::seeded(43, 0.3, 0.0);
        let same = (0..1000).all(|i| other.write.fails(Op::Write, i) == plan.write.fails(Op::Write, i));
        assert!(!same);
    }

    /// Minimal in-memory sink used to observe what FaultySink forwards.
    #[derive(Debug, Default)]
    struct MemSink {
        buf: Vec<u8>,
    }

    impl JournalSink for MemSink {
        fn write(&mut self, buf: &[u8]) -> io::Result<()> {
            self.buf.extend_from_slice(buf);
            Ok(())
        }

        fn sync(&mut self) -> io::Result<()> {
            Ok(())
        }

        fn reopen(&mut self, truncate_to: u64) -> io::Result<()> {
            self.buf.truncate(truncate_to as usize);
            Ok(())
        }
    }

    #[test]
    fn numeric_plan_parses_and_fires_one_shot() {
        let plan = NumericChaosPlan::parse("pivot@0,nan@1..3").unwrap();
        assert!(!plan.is_empty());
        let state = plan.arm();
        // pivot@0 fires exactly once: the retry lands on index 1.
        assert!(state.fire(NumericSite::Pivot));
        assert!(!state.fire(NumericSite::Pivot));
        // nan window [1,3): indices 0,3 clean, 1,2 fire.
        assert!(!state.fire(NumericSite::Nan));
        assert!(state.fire(NumericSite::Nan));
        assert!(state.fire(NumericSite::Nan));
        assert!(!state.fire(NumericSite::Nan));
        // Unconfigured site never fires.
        assert!(!state.fire(NumericSite::Perturb));
        assert_eq!(state.injected(), 3);
        let by_site = state.injected_by_site();
        assert_eq!(by_site[0], ("pivot", 1));
        assert_eq!(by_site[2], ("nan", 2));
        assert_eq!(by_site[1], ("perturb", 0));
        // A fresh state over the same plan replays identically.
        let replay = plan.arm();
        assert!(replay.fire(NumericSite::Pivot));
        assert!(!replay.fire(NumericSite::Pivot));
    }

    #[test]
    fn numeric_seed_clause_covers_all_sites_but_stays_decorrelated() {
        let plan = NumericChaosPlan::parse("seed@7:50").unwrap();
        for site in NumericSite::ALL {
            assert!(plan.schedule(site).random.is_some(), "{}", site.name());
        }
        // Same seed, different sites → different firing sequences
        // (salts decorrelate them).
        let a: Vec<bool> = (0..64)
            .map(|i| plan.pivot.fails_salted(NumericSite::Pivot.salt(), i))
            .collect();
        let b: Vec<bool> = (0..64)
            .map(|i| plan.nan.fails_salted(NumericSite::Nan.salt(), i))
            .collect();
        assert_ne!(a, b);
    }

    #[test]
    fn numeric_parse_rejects_malformed_clauses() {
        for bad in ["pivot", "pivot@x", "nan@5..3", "write@1", "seed@1:200"] {
            let err = NumericChaosPlan::parse(bad).unwrap_err();
            // Window/number errors come from the helpers shared with
            // FaultPlan, so the prefix is `chaos clause` there and
            // `numeric-chaos clause` for grammar-level errors.
            assert!(err.contains("clause"), "{bad}: {err}");
            assert!(err.contains(bad), "{bad}: {err}");
        }
        assert!(NumericChaosPlan::parse("").unwrap().is_empty());
        assert!(NumericChaosPlan::none().is_empty());
    }

    #[test]
    fn short_write_lands_a_prefix_then_errors() {
        let plan = FaultPlan::parse("trunc@1:4").unwrap();
        let mut sink = FaultySink::new(Box::new(MemSink::default()), plan);
        sink.write(b"aaaa\n").unwrap();
        let err = sink.write(b"bbbbbbbb\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert_eq!(sink.inner.buf, b"aaaa\nbbbb");
        assert_eq!(sink.injected(), 1);
    }

    #[test]
    fn scripted_write_fault_leaves_inner_untouched() {
        let plan = FaultPlan::parse("write@0").unwrap();
        let mut sink = FaultySink::new(Box::new(MemSink::default()), plan);
        let err = sink.write(b"x\n").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        assert!(sink.inner.buf.is_empty());
        sink.write(b"y\n").unwrap();
        assert_eq!(sink.inner.buf, b"y\n");
        assert_eq!(sink.ops(), (2, 0, 0));
    }
}
