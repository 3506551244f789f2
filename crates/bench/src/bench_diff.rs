//! `experiments bench-diff OLD NEW` — the exact counts gate over
//! `mixsig.solver-bench/4` sidecars.
//!
//! Both documents are validated by [`solver_bench::validate`] first,
//! then compared experiment by experiment (matched on `name`). Every
//! deterministic count must be equal: `newton_iterations`,
//! `factor_reuse_hits`, `factor_reuse_misses`, `hazards`, `demotions`,
//! `refinement_rounds` and each phase's `calls`. Any difference fails,
//! in either direction, and so does an experiment present in only one
//! document. The counts are exact for a given solver, so a change that
//! moves one commits the regenerated `BENCH_solver.json` with it, and
//! the diff states what moved.
//!
//! `wall_ms` and the phase `ns` values are never read: wall-clock
//! varies with the machine and its load, and is measured by `perfbench`,
//! which alternates the runs of two builds on one host.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::json::JsonValue;
use obs::profile::Phase;

use crate::solver_bench;

/// The per-experiment counters compared, besides each phase's `calls`.
const COUNTERS: [&str; 6] = [
    "newton_iterations",
    "factor_reuse_hits",
    "factor_reuse_misses",
    "hazards",
    "demotions",
    "refinement_rounds",
];

/// The outcome of one diff.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Experiments present in both documents.
    pub compared: usize,
    /// One line per difference: a count that moved (experiment, metric,
    /// old, new and signed delta) or an experiment in only one document.
    pub differences: Vec<String>,
}

impl Comparison {
    /// True when every count of every experiment is equal.
    pub fn identical(&self) -> bool {
        self.differences.is_empty()
    }
}

/// Experiment name → (metric, count) for every compared count.
fn counts_of(which: &str, text: &str) -> Result<BTreeMap<String, Vec<(String, i64)>>, String> {
    solver_bench::validate(text).map_err(|e| format!("{which}: {e}"))?;
    let parsed = obs::json::parse(text).map_err(|e| format!("{which}: {e}"))?;
    let count = |v: Option<&JsonValue>| v.and_then(JsonValue::as_f64).unwrap_or(0.0) as i64;
    let mut out = BTreeMap::new();
    for row in parsed
        .get("experiments")
        .and_then(JsonValue::as_array)
        .into_iter()
        .flatten()
    {
        let name = row
            .get("name")
            .and_then(JsonValue::as_str)
            .unwrap_or_default();
        let mut counts: Vec<(String, i64)> = COUNTERS
            .iter()
            .map(|&key| (key.to_owned(), count(row.get(key))))
            .collect();
        for phase in Phase::ALL {
            let label = phase.label();
            let calls = row.get("phases").and_then(|p| p.get(label)?.get("calls"));
            counts.push((format!("phases.{label}.calls"), count(calls)));
        }
        out.insert(name.to_owned(), counts);
    }
    Ok(out)
}

/// Compares the counts of two solver-bench documents.
///
/// # Errors
///
/// Either document failing [`solver_bench::validate`], named `OLD` or
/// `NEW`.
pub fn diff(old_text: &str, new_text: &str) -> Result<Comparison, String> {
    let old = counts_of("OLD", old_text)?;
    let new = counts_of("NEW", new_text)?;
    let mut cmp = Comparison::default();
    for name in old.keys().filter(|name| !new.contains_key(*name)) {
        cmp.differences.push(format!("{name}: only in OLD"));
    }
    for name in new.keys().filter(|name| !old.contains_key(*name)) {
        cmp.differences.push(format!("{name}: only in NEW"));
    }
    for (name, old_counts) in &old {
        let Some(new_counts) = new.get(name) else {
            continue;
        };
        cmp.compared += 1;
        for ((metric, o), (_, n)) in old_counts.iter().zip(new_counts) {
            if o != n {
                cmp.differences
                    .push(format!("{name}: {metric} {o} -> {n} ({:+})", n - o));
            }
        }
    }
    Ok(cmp)
}

/// Renders the comparison for the console: every difference, then a
/// verdict line.
pub fn render(cmp: &Comparison) -> String {
    let mut out = String::new();
    for line in &cmp.differences {
        let _ = writeln!(out, "{line}");
    }
    if cmp.identical() {
        let _ = writeln!(
            out,
            "counts identical across {} experiment(s)",
            cmp.compared
        );
    } else {
        let _ = writeln!(
            out,
            "COUNTS DIFFER ({} difference(s))",
            cmp.differences.len()
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver_bench::BenchEntry;
    use obs::profile::PhaseSnapshot;

    fn entry(name: &str) -> BenchEntry {
        let newton = 10_000;
        let mut phases = PhaseSnapshot::default();
        phases.ns[Phase::Factor as usize] = 20_000_000;
        phases.calls[Phase::Factor as usize] = 1_000;
        phases.ns[Phase::DeviceEval as usize] = 30_000_000;
        phases.calls[Phase::DeviceEval as usize] = newton;
        BenchEntry {
            name: name.to_owned(),
            wall_ms: 400.0,
            newton_iterations: newton,
            linear_only: false,
            workers: 1,
            factor_reuse_hits: 9_000,
            factor_reuse_misses: 1_000,
            hazards: 2,
            demotions: 1,
            refinement_rounds: 3,
            phases,
        }
    }

    fn doc(entries: &[BenchEntry]) -> String {
        solver_bench::render(entries)
    }

    #[test]
    fn identical_documents_pass() {
        let text = doc(&[entry("e1"), entry("e6c1")]);
        let cmp = diff(&text, &text).unwrap();
        assert!(cmp.identical(), "{:?}", cmp.differences);
        assert_eq!(cmp.compared, 2);
        assert!(render(&cmp).contains("counts identical across 2 experiment(s)"));
    }

    #[test]
    fn any_count_change_fails_in_either_direction() {
        let old = doc(&[entry("e6c1")]);
        // Each edit moves one count; device_eval calls follow the
        // Newton iterations so both documents pass the conservation
        // lint, and the diff names both.
        type Edit = fn(&mut BenchEntry, i64);
        fn shift(v: &mut u64, delta: i64) {
            *v = v.checked_add_signed(delta).unwrap();
        }
        let cases: [(&str, Edit); 5] = [
            ("newton_iterations", |e, d| {
                shift(&mut e.newton_iterations, d);
                shift(&mut e.phases.calls[Phase::DeviceEval as usize], d);
            }),
            ("factor_reuse_hits", |e, d| {
                shift(&mut e.factor_reuse_hits, d)
            }),
            ("factor_reuse_misses", |e, d| {
                shift(&mut e.factor_reuse_misses, d)
            }),
            ("demotions", |e, d| shift(&mut e.demotions, d)),
            ("phases.lu_factor.calls", |e, d| {
                shift(&mut e.phases.calls[Phase::Factor as usize], d);
            }),
        ];
        for (metric, edit) in cases {
            for delta in [1, -1] {
                let mut moved = entry("e6c1");
                edit(&mut moved, delta);
                let cmp = diff(&old, &doc(&[moved])).unwrap();
                assert!(!cmp.identical(), "{metric} {delta:+}");
                let line = format!("e6c1: {metric} ");
                let hit = cmp.differences.iter().find(|d| d.starts_with(&line));
                let hit = hit.unwrap_or_else(|| panic!("{metric}: {:?}", cmp.differences));
                assert!(hit.ends_with(&format!("({delta:+})")), "{hit}");
                assert!(render(&cmp).contains("COUNTS DIFFER"));
            }
        }
    }

    #[test]
    fn timing_alone_never_fails() {
        let old = doc(&[entry("e6c1")]);
        let mut slow = entry("e6c1");
        slow.wall_ms = 4_000.0;
        slow.phases.ns[Phase::Factor as usize] *= 10;
        slow.phases.ns[Phase::DeviceEval as usize] /= 3;
        let cmp = diff(&old, &doc(&[slow])).unwrap();
        assert!(cmp.identical(), "{:?}", cmp.differences);
    }

    #[test]
    fn roster_differences_fail() {
        let old = doc(&[entry("e1")]);
        let new = doc(&[entry("e1"), entry("e9")]);
        let cmp = diff(&old, &new).unwrap();
        assert_eq!(cmp.differences, ["e9: only in NEW"]);
        let back = diff(&new, &old).unwrap();
        assert_eq!(back.differences, ["e9: only in OLD"]);
    }

    #[test]
    fn invalid_documents_are_rejected_by_name() {
        let good = doc(&[entry("e1")]);
        let err = diff("{not json", &good).unwrap_err();
        assert!(err.starts_with("OLD:"), "{err}");
        let err = diff(&good, "{\"schema\": \"nope\"}").unwrap_err();
        assert!(err.starts_with("NEW:"), "{err}");
        // A document breaking the conservation lint is invalid too.
        let mut uncounted = entry("e1");
        uncounted.phases.calls[Phase::DeviceEval as usize] += 1;
        let err = diff(&good, &doc(&[uncounted])).unwrap_err();
        assert!(err.starts_with("NEW:") && err.contains("(e1)"), "{err}");
    }
}
