//! RAII wall-clock spans.
//!
//! A span is a named duration reported to a [`Recorder`] when it ends.
//! Naming convention across the workspace: `<crate>.<operation>`, e.g.
//! `campaign.golden`, `campaign.fault`, `sigproc.cross_correlation`,
//! `bench.e6`. Dots separate layers;
//! names are lowercase and stable — they are keys in run reports.

use std::time::{Duration, Instant};

use crate::recorder::Recorder;

/// Times a region and reports it to a recorder on drop.
///
/// Dropping reports even on early returns and `?` propagation, which
/// is what makes span coverage trustworthy around fallible solver
/// code.
pub struct SpanTimer<'a> {
    recorder: &'a dyn Recorder,
    name: &'a str,
    started: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts a span named `name`.
    pub fn start(recorder: &'a dyn Recorder, name: &'a str) -> Self {
        SpanTimer {
            recorder,
            name,
            started: Instant::now(),
        }
    }

    /// Time elapsed since the span started.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.recorder.span(self.name, self.started.elapsed());
    }
}

/// Runs `f` inside a span named `name` and returns its result.
pub fn time<T>(recorder: &dyn Recorder, name: &str, f: impl FnOnce() -> T) -> T {
    let _span = SpanTimer::start(recorder, name);
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recorder::AggregatingRecorder;

    #[test]
    fn span_reports_on_drop() {
        let rec = AggregatingRecorder::new();
        {
            let _span = SpanTimer::start(&rec, "unit.work");
        }
        let agg = rec.snapshot();
        assert_eq!(agg.spans["unit.work"].count(), 1);
        assert!(agg.spans["unit.work"].min().unwrap() >= 0.0);
    }

    #[test]
    fn span_reports_on_early_return() {
        fn fallible(rec: &dyn Recorder) -> Result<(), ()> {
            let _span = SpanTimer::start(rec, "unit.fallible");
            Err(())
        }
        let rec = AggregatingRecorder::new();
        assert!(fallible(&rec).is_err());
        assert_eq!(rec.snapshot().spans["unit.fallible"].count(), 1);
    }

    #[test]
    fn time_returns_the_closure_result() {
        let rec = AggregatingRecorder::new();
        let out = time(&rec, "unit.calc", || 6 * 7);
        assert_eq!(out, 42);
        assert_eq!(rec.snapshot().spans["unit.calc"].count(), 1);
    }
}
