//! `experiments bench-diff OLD NEW` — the perf-regression gate over
//! `mixsig.solver-bench/4` sidecars.
//!
//! Both documents are validated by [`solver_bench::validate`] first,
//! then compared experiment-by-experiment (matched on `name`). Three
//! families of comparison, each with its own tolerance, because they
//! drift for different reasons:
//!
//! * **Timing** (`wall_ms`, per-phase `ns`) varies with the machine and
//!   its load, so the tolerance is percentage-based *plus* an absolute
//!   slack floor — a 0.2 ms experiment doubling is noise, a 2 s one
//!   doubling is not. `--counts-only` disables timing comparisons
//!   entirely for cross-machine gates (committed snapshot vs CI).
//! * **Counts** (`newton_iterations`, per-phase `calls`) are
//!   deterministic for a given build, so their tolerance is tight: a
//!   count regression means the solver is doing more work, not that the
//!   machine is slower.
//! * **Factorisation reuse** — the hit rate
//!   `hits / (hits + misses)` must not drop by more than the tolerance
//!   in percentage points: the reuse economy eroding is exactly the
//!   regression the sparse-solver work guards against.
//! * **Numerical resilience** — the demotion rate
//!   `demotions / newton_iterations` must not grow by more than the
//!   tolerance in percentage points: a build that starts demoting
//!   healthy solves down the recovery ladder is numerically regressing
//!   even if it still converges.
//!
//! Experiments present in only one document are reported as notes, not
//! regressions (the experiment roster is allowed to grow). Any
//! regression makes [`Comparison::regressed`] true; the CLI exits
//! nonzero on it, which is what wires the gate into CI.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use obs::json::JsonValue;
use obs::table::{Align, Table};

use crate::solver_bench;

/// Tolerances for one diff run.
#[derive(Debug, Clone, PartialEq)]
pub struct Tolerances {
    /// Allowed relative growth of wall-clock and phase self-times, in
    /// percent.
    pub timing_pct: f64,
    /// Absolute timing slack in milliseconds, added on top of the
    /// relative allowance so sub-millisecond entries cannot flap.
    pub timing_slack_ms: f64,
    /// Allowed relative growth of deterministic counts, in percent.
    pub count_pct: f64,
    /// Absolute count slack, added on top of the relative allowance.
    pub count_slack: f64,
    /// Allowed drop of the factorisation reuse rate, in percentage
    /// points.
    pub reuse_drop_pct: f64,
    /// Allowed growth of the tier-demotion rate
    /// (`demotions / newton_iterations`), in percentage points.
    pub demotion_growth_pp: f64,
    /// When set, timing comparisons are skipped entirely (counts and
    /// reuse still gate) — for diffs across machines.
    pub counts_only: bool,
}

impl Default for Tolerances {
    fn default() -> Self {
        Tolerances {
            timing_pct: 25.0,
            timing_slack_ms: 5.0,
            count_pct: 5.0,
            count_slack: 16.0,
            reuse_drop_pct: 10.0,
            demotion_growth_pp: 0.5,
            counts_only: false,
        }
    }
}

/// One experiment's numbers, pulled out of a parsed document.
#[derive(Debug, Clone, Default)]
struct Entry {
    wall_ms: f64,
    newton: f64,
    hits: f64,
    misses: f64,
    demotions: f64,
    /// phase label → (ns, calls).
    phases: Vec<(String, f64, f64)>,
}

/// The outcome of one diff.
#[derive(Debug, Clone, Default)]
pub struct Comparison {
    /// Table rows: experiment, metric, old, new, delta, verdict.
    pub rows: Vec<[String; 6]>,
    /// One line per regression (subset of the rows).
    pub regressions: Vec<String>,
    /// Roster differences and skipped comparisons.
    pub notes: Vec<String>,
}

impl Comparison {
    /// True when any comparison exceeded its tolerance.
    pub fn regressed(&self) -> bool {
        !self.regressions.is_empty()
    }
}

fn entries_of(which: &str, text: &str) -> Result<BTreeMap<String, Entry>, String> {
    solver_bench::validate(text).map_err(|e| format!("{which}: {e}"))?;
    let parsed = obs::json::parse(text).map_err(|e| format!("{which}: {e}"))?;
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
            .unwrap_or_default()
            .to_owned();
        let num = |key: &str| row.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        let phases = match row.get("phases") {
            Some(JsonValue::Obj(entries)) => entries
                .iter()
                .map(|(label, p)| {
                    (
                        label.clone(),
                        p.get("ns").and_then(JsonValue::as_f64).unwrap_or(0.0),
                        p.get("calls").and_then(JsonValue::as_f64).unwrap_or(0.0),
                    )
                })
                .collect(),
            _ => Vec::new(),
        };
        out.insert(
            name,
            Entry {
                wall_ms: num("wall_ms"),
                newton: num("newton_iterations"),
                hits: num("factor_reuse_hits"),
                misses: num("factor_reuse_misses"),
                demotions: num("demotions"),
                phases,
            },
        );
    }
    Ok(out)
}

fn delta_pct(old: f64, new: f64) -> String {
    if old == 0.0 {
        if new == 0.0 {
            "—".to_owned()
        } else {
            "new".to_owned()
        }
    } else {
        format!("{:+.1} %", 100.0 * (new - old) / old)
    }
}

/// Compares two solver-bench documents.
///
/// # Errors
///
/// Either document failing [`solver_bench::validate`] or JSON parsing.
pub fn diff(old_text: &str, new_text: &str, tol: &Tolerances) -> Result<Comparison, String> {
    let old = entries_of("OLD", old_text)?;
    let new = entries_of("NEW", new_text)?;
    let mut cmp = Comparison::default();

    for name in old.keys() {
        if !new.contains_key(name) {
            cmp.notes.push(format!("{name}: only in OLD (dropped from roster?)"));
        }
    }
    for name in new.keys() {
        if !old.contains_key(name) {
            cmp.notes.push(format!("{name}: only in NEW (no baseline, not compared)"));
        }
    }
    if tol.counts_only {
        cmp.notes
            .push("timing comparisons skipped (--counts-only)".to_owned());
    }

    let timing_limit =
        |old: f64| old * (1.0 + tol.timing_pct / 100.0) + tol.timing_slack_ms;
    let count_limit = |old: f64| old * (1.0 + tol.count_pct / 100.0) + tol.count_slack;

    for (name, o) in &old {
        let Some(n) = new.get(name) else { continue };
        let mut row = |metric: &str, old_v: String, new_v: String, regressed: bool, why: String| {
            let verdict = if regressed { "REGRESSION" } else { "ok" };
            cmp.rows.push([
                name.clone(),
                metric.to_owned(),
                old_v,
                new_v,
                why,
                verdict.to_owned(),
            ]);
            if regressed {
                let r = cmp.rows.last().expect("just pushed");
                cmp.regressions.push(format!(
                    "{name}: {metric} {} -> {} ({})",
                    r[2], r[3], r[4]
                ));
            }
        };

        if !tol.counts_only {
            row(
                "wall_ms",
                format!("{:.3}", o.wall_ms),
                format!("{:.3}", n.wall_ms),
                n.wall_ms > timing_limit(o.wall_ms),
                delta_pct(o.wall_ms, n.wall_ms),
            );
        }
        row(
            "newton_iterations",
            format!("{:.0}", o.newton),
            format!("{:.0}", n.newton),
            n.newton > count_limit(o.newton),
            delta_pct(o.newton, n.newton),
        );

        let o_decisions = o.hits + o.misses;
        let n_decisions = n.hits + n.misses;
        if o_decisions > 0.0 && n_decisions > 0.0 {
            let o_rate = 100.0 * o.hits / o_decisions;
            let n_rate = 100.0 * n.hits / n_decisions;
            row(
                "factor_reuse_rate",
                format!("{o_rate:.1} %"),
                format!("{n_rate:.1} %"),
                o_rate - n_rate > tol.reuse_drop_pct,
                format!("{:+.1} pp", n_rate - o_rate),
            );
        }

        if o.newton > 0.0 && n.newton > 0.0 {
            let o_rate = 100.0 * o.demotions / o.newton;
            let n_rate = 100.0 * n.demotions / n.newton;
            row(
                "demotion_rate",
                format!("{o_rate:.2} %"),
                format!("{n_rate:.2} %"),
                n_rate - o_rate > tol.demotion_growth_pp,
                format!("{:+.2} pp", n_rate - o_rate),
            );
        }

        // Phases: compared only where both documents carry the label;
        // rows are emitted only for regressions to keep the table
        // readable (nine phases × ten experiments of "ok" says nothing).
        let new_phases: BTreeMap<&str, (f64, f64)> = n
            .phases
            .iter()
            .map(|(l, ns, calls)| (l.as_str(), (*ns, *calls)))
            .collect();
        for (label, o_ns, o_calls) in &o.phases {
            let Some(&(n_ns, n_calls)) = new_phases.get(label.as_str()) else {
                continue;
            };
            if !tol.counts_only {
                let o_ms = o_ns / 1e6;
                let n_ms = n_ns / 1e6;
                if n_ms > timing_limit(o_ms) {
                    row(
                        &format!("phases.{label}.ns"),
                        format!("{o_ms:.3} ms"),
                        format!("{n_ms:.3} ms"),
                        true,
                        delta_pct(o_ms, n_ms),
                    );
                }
            }
            if n_calls > count_limit(*o_calls) {
                row(
                    &format!("phases.{label}.calls"),
                    format!("{o_calls:.0}"),
                    format!("{n_calls:.0}"),
                    true,
                    delta_pct(*o_calls, n_calls),
                );
            }
        }
    }
    Ok(cmp)
}

/// Renders the comparison for the console: the per-metric table, the
/// notes, and a verdict line.
pub fn render(cmp: &Comparison) -> String {
    let mut out = String::new();
    if cmp.rows.is_empty() {
        out.push_str("no comparable experiments (disjoint rosters?)\n");
    } else {
        let mut t = Table::new(&["experiment", "metric", "old", "new", "delta", "verdict"])
            .align(&[
                Align::Left,
                Align::Left,
                Align::Right,
                Align::Right,
                Align::Right,
                Align::Left,
            ]);
        for row in &cmp.rows {
            t.row(row);
        }
        out.push_str(&t.render());
    }
    for note in &cmp.notes {
        let _ = writeln!(out, "note: {note}");
    }
    if cmp.regressed() {
        let _ = writeln!(out, "\nPERF REGRESSION ({}):", cmp.regressions.len());
        for r in &cmp.regressions {
            let _ = writeln!(out, "  {r}");
        }
    } else {
        let _ = writeln!(out, "\nno perf regressions");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver_bench::BenchEntry;
    use obs::profile::{Phase, PhaseSnapshot};

    fn entry(name: &str, wall_ms: f64, newton: u64, hits: u64, misses: u64) -> BenchEntry {
        let mut phases = PhaseSnapshot::default();
        if newton > 0 {
            phases.ns[Phase::Factor as usize] = 20_000_000;
            phases.calls[Phase::Factor as usize] = newton / 10;
        }
        BenchEntry {
            name: name.to_owned(),
            wall_ms,
            newton_iterations: newton,
            linear_only: newton == 0,
            workers: 1,
            factor_reuse_hits: hits,
            factor_reuse_misses: misses,
            hazards: 0,
            demotions: 0,
            refinement_rounds: 0,
            phases,
        }
    }

    fn doc(entries: &[BenchEntry]) -> String {
        solver_bench::render(entries)
    }

    #[test]
    fn identical_documents_do_not_regress() {
        let text = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]);
        let cmp = diff(&text, &text, &Tolerances::default()).unwrap();
        assert!(!cmp.regressed(), "{:?}", cmp.regressions);
        assert!(render(&cmp).contains("no perf regressions"));
    }

    #[test]
    fn wall_clock_growth_beyond_tolerance_regresses() {
        let old = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]);
        let slow = doc(&[entry("e6c1", 600.0, 10_000, 9_000, 1_000)]);
        let cmp = diff(&old, &slow, &Tolerances::default()).unwrap();
        assert!(cmp.regressed());
        assert!(cmp.regressions[0].contains("wall_ms"), "{:?}", cmp.regressions);
        // Within tolerance (25 % + 5 ms): fine.
        let ok = doc(&[entry("e6c1", 490.0, 10_000, 9_000, 1_000)]);
        assert!(!diff(&old, &ok, &Tolerances::default()).unwrap().regressed());
        // --counts-only waves the same slowdown through.
        let tol = Tolerances {
            counts_only: true,
            ..Tolerances::default()
        };
        let cmp = diff(&old, &slow, &tol).unwrap();
        assert!(!cmp.regressed(), "{:?}", cmp.regressions);
        assert!(render(&cmp).contains("counts-only"));
    }

    #[test]
    fn tiny_entries_ride_the_absolute_slack() {
        // 0.5 ms → 4 ms is an 8× slowdown but under the 5 ms slack:
        // timing noise on a sub-millisecond experiment, not a signal.
        let old = doc(&[entry("e2", 0.5, 0, 0, 0)]);
        let new = doc(&[entry("e2", 4.0, 0, 0, 0)]);
        assert!(!diff(&old, &new, &Tolerances::default()).unwrap().regressed());
    }

    #[test]
    fn count_growth_is_gated_tightly() {
        let old = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]);
        // +3 % Newton iterations rides the 5 % tolerance...
        let ok = doc(&[entry("e6c1", 400.0, 10_300, 9_300, 1_000)]);
        assert!(!diff(&old, &ok, &Tolerances::default()).unwrap().regressed());
        // ...+20 % does not, even with timing unchanged.
        let bad = doc(&[entry("e6c1", 400.0, 12_000, 11_000, 1_000)]);
        let cmp = diff(&old, &bad, &Tolerances::default()).unwrap();
        assert!(cmp.regressed());
        assert!(
            cmp.regressions.iter().any(|r| r.contains("newton_iterations")),
            "{:?}",
            cmp.regressions
        );
    }

    #[test]
    fn reuse_rate_erosion_regresses() {
        let old = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]); // 90 %
        let eroded = doc(&[entry("e6c1", 400.0, 10_000, 7_000, 3_000)]); // 70 %
        let cmp = diff(&old, &eroded, &Tolerances::default()).unwrap();
        assert!(cmp.regressed());
        assert!(
            cmp.regressions.iter().any(|r| r.contains("factor_reuse_rate")),
            "{:?}",
            cmp.regressions
        );
        // A 5-point drop rides the 10-point tolerance.
        let mild = doc(&[entry("e6c1", 400.0, 10_000, 8_500, 1_500)]); // 85 %
        assert!(!diff(&old, &mild, &Tolerances::default()).unwrap().regressed());
    }

    #[test]
    fn demotion_rate_growth_regresses() {
        let old = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]); // 0 %
        let mut worse = entry("e6c1", 400.0, 10_000, 9_000, 1_000);
        worse.hazards = 150;
        worse.demotions = 150; // 1.5 % of the Newton iterations
        let cmp = diff(&old, &doc(&[worse]), &Tolerances::default()).unwrap();
        assert!(cmp.regressed());
        assert!(
            cmp.regressions.iter().any(|r| r.contains("demotion_rate")),
            "{:?}",
            cmp.regressions
        );
        // A whiff of demotions (0.3 %) rides the 0.5-point tolerance.
        let mut mild = entry("e6c1", 400.0, 10_000, 9_000, 1_000);
        mild.demotions = 30;
        assert!(!diff(&old, &doc(&[mild]), &Tolerances::default())
            .unwrap()
            .regressed());
    }

    #[test]
    fn roster_differences_are_notes_not_regressions() {
        let old = doc(&[entry("e1", 10.0, 0, 0, 0)]);
        let new = doc(&[entry("e1", 10.0, 0, 0, 0), entry("e9", 5.0, 0, 0, 0)]);
        let cmp = diff(&old, &new, &Tolerances::default()).unwrap();
        assert!(!cmp.regressed());
        assert!(cmp.notes.iter().any(|n| n.contains("e9")), "{:?}", cmp.notes);
        let back = diff(&new, &old, &Tolerances::default()).unwrap();
        assert!(back.notes.iter().any(|n| n.contains("only in OLD")));
    }

    #[test]
    fn invalid_documents_are_rejected_by_name() {
        let good = doc(&[entry("e1", 10.0, 0, 0, 0)]);
        let err = diff("{not json", &good, &Tolerances::default()).unwrap_err();
        assert!(err.starts_with("OLD:"), "{err}");
        let err = diff(&good, "{\"schema\": \"nope\"}", &Tolerances::default()).unwrap_err();
        assert!(err.starts_with("NEW:"), "{err}");
    }

    #[test]
    fn phase_call_growth_names_the_phase() {
        let old = doc(&[entry("e6c1", 400.0, 10_000, 9_000, 1_000)]);
        let mut worse = entry("e6c1", 400.0, 10_000, 8_000, 2_000);
        worse.phases.calls[Phase::Factor as usize] = 2_000;
        let cmp = diff(&old, &doc(&[worse]), &Tolerances::default()).unwrap();
        assert!(cmp.regressed());
        assert!(
            cmp.regressions
                .iter()
                .any(|r| r.contains("phases.lu_factor.calls")),
            "{:?}",
            cmp.regressions
        );
    }
}
