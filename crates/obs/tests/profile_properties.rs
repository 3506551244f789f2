//! Property tests for the cost-attribution layer: Chrome-trace JSON
//! escaping round-trips, and the [`PhaseProfiler`]'s accounting
//! invariants (self-times sum to no more than the enclosing wall-clock,
//! nesting never double-counts, snapshot arithmetic is consistent).

use std::time::Instant;

use obs::json::{parse, JsonValue};
use obs::profile::{Phase, PhaseProfiler, PhaseSnapshot};
use obs::trace::{render_trace, validate_trace, TraceEvent};
use proptest::prelude::*;

/// Picks a phase from an arbitrary byte.
fn phase_of(byte: u8) -> Phase {
    Phase::ALL[byte as usize % Phase::COUNT]
}

/// A little non-trivial work so spans have measurable extent without
/// sleeping (the assertions below never depend on the amount).
fn spin() -> u64 {
    let mut acc = 0u64;
    for i in 0..100 {
        acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    acc
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn trace_text_round_trips_through_json(
        (name, value, ts, dur) in (
            "[ -~\\n\\t]{0,40}",
            "[ -~\\n\\t]{0,40}",
            0.0..1e9,
            0.0..1e6,
        ),
    ) {
        let events = vec![
            TraceEvent::thread_name(3, name.clone()),
            TraceEvent::complete(name.clone(), ts, dur, 3)
                .cat("fault")
                .arg("detail", JsonValue::Str(value.clone())),
        ];
        let text = render_trace(&events);
        // Whatever characters the name contained — quotes, backslashes,
        // control characters — the rendered document stays valid.
        prop_assert_eq!(validate_trace(&text).map_err(TestCaseError::Fail)?, 2);
        let doc = parse(&text).map_err(|e| TestCaseError::Fail(format!("reparse: {e}")))?;
        let rendered = doc.get("traceEvents").unwrap().as_array().unwrap();
        prop_assert_eq!(rendered[1].get("name").and_then(JsonValue::as_str), Some(name.as_str()));
        prop_assert_eq!(
            rendered[1].get("args").and_then(|a| a.get("detail")).and_then(JsonValue::as_str),
            Some(value.as_str())
        );
        prop_assert_eq!(
            rendered[0].get("args").and_then(|a| a.get("name")).and_then(JsonValue::as_str),
            Some(name.as_str())
        );
        let got_dur = rendered[1].get("dur").and_then(JsonValue::as_f64).unwrap();
        prop_assert!((got_dur - dur).abs() <= 1e-9 * dur.abs().max(1.0));
    }

    #[test]
    fn nested_self_times_never_exceed_the_enclosing_wall(
        pairs in collection::vec((0u8..255, 0u8..255), 0..12),
    ) {
        let profiler = PhaseProfiler::new();
        let started = Instant::now();
        let mut sink = 0u64;
        for &(outer, inner) in &pairs {
            let _outer = profiler.enter(phase_of(outer));
            sink ^= spin();
            {
                let _inner = profiler.enter(phase_of(inner));
                sink ^= spin();
            }
        }
        let wall_ns = started.elapsed().as_nanos() as u64;
        let snapshot = profiler.snapshot();
        // Self-time attribution: a nested guard's elapsed time is
        // subtracted from its parent, so the phase totals partition the
        // real wall-clock — they can never sum past it, no matter how
        // spans nest (including a phase nested inside itself).
        prop_assert!(
            snapshot.total_ns() <= wall_ns,
            "attributed {} ns inside {} ns of wall time (sink {sink})",
            snapshot.total_ns(),
            wall_ns
        );
        // Every guard is one call, attributed to its own phase.
        let mut calls = [0u64; Phase::COUNT];
        for &(outer, inner) in &pairs {
            calls[phase_of(outer) as usize] += 1;
            calls[phase_of(inner) as usize] += 1;
        }
        prop_assert_eq!(snapshot.calls, calls);
    }

    #[test]
    fn snapshot_arithmetic_is_consistent(
        (a_ns, b_ns) in (
            collection::vec(0u64..1_000_000, Phase::COUNT),
            collection::vec(0u64..1_000_000, Phase::COUNT),
        ),
    ) {
        let mut a = PhaseSnapshot::default();
        let mut b = PhaseSnapshot::default();
        for (i, &phase) in Phase::ALL.iter().enumerate() {
            a.ns[phase as usize] = a_ns[i];
            a.calls[phase as usize] = a_ns[i] / 7;
            b.ns[phase as usize] = b_ns[i];
            b.calls[phase as usize] = b_ns[i] / 3;
        }
        let sum = a + b;
        prop_assert_eq!(sum.total_ns(), a.total_ns() + b.total_ns());
        // Subtracting one addend gives back the other, field by field.
        prop_assert_eq!(sum.saturating_sub(&b), a);
        prop_assert_eq!(sum.saturating_sub(&a), b);
        // Saturation: subtracting more than is there floors at zero.
        let floored = a.saturating_sub(&sum);
        prop_assert!(floored.is_empty() || floored.total_ns() == 0);
        // Accumulating a snapshot into a profiler and reading it back
        // is lossless.
        let profiler = PhaseProfiler::new();
        profiler.add_snapshot(&a);
        profiler.add_snapshot(&b);
        prop_assert_eq!(profiler.snapshot(), sum);
    }
}

/// A scripted deep-nesting check kept outside `proptest!` for a
/// readable failure: with every phase open at once, each level's
/// self-time excludes all its descendants.
#[test]
fn deep_nesting_attributes_each_level_once() {
    let profiler = PhaseProfiler::new();
    let started = Instant::now();
    {
        let _a = profiler.enter(Phase::StepControl);
        let _b = profiler.enter(Phase::DcSolve);
        let _c = profiler.enter(Phase::Stamp);
        let _d = profiler.enter(Phase::DeviceEval);
        let _e = profiler.enter(Phase::Symbolic);
        let _f = profiler.enter(Phase::Factor);
        let _g = profiler.enter(Phase::Refactor);
        let _i = profiler.enter(Phase::BackSubstitute);
        let _j = profiler.enter(Phase::Residual);
        spin();
    }
    let wall_ns = started.elapsed().as_nanos() as u64;
    let snapshot = profiler.snapshot();
    assert!(snapshot.total_ns() <= wall_ns);
    for phase in Phase::ALL {
        assert_eq!(snapshot.calls(phase), 1, "{}", phase.label());
    }
}
