//! Machine-readable run reports.
//!
//! A [`RunReport`] is an ordered list of named [`Section`]s, each
//! holding counters, scalar values, integer histograms (e.g. escalation
//! rungs) and timing histograms. Reports serialise through the
//! hand-rolled [`crate::json`] writer under the schema
//! `mixsig.run-report/1`.
//!
//! Two serialisations exist:
//!
//! * [`RunReport::to_json_string`] — everything, including real
//!   wall-clock milliseconds;
//! * [`RunReport::canonical_json_string`] — wall-clock sample values
//!   zeroed (counts kept), so the bytes depend only on deterministic
//!   quantities and are identical across worker counts and machines.

use std::collections::BTreeMap;

use crate::histogram::Histogram;
use crate::json::JsonValue;
use crate::postmortem::Postmortem;

/// Report schema identifier, bumped on breaking layout changes.
pub const SCHEMA: &str = "mixsig.run-report/1";

/// One named group of metrics inside a [`RunReport`].
#[derive(Debug, Clone, Default)]
pub struct Section {
    /// Section name, e.g. `campaign.circuit1` or `solver`.
    pub name: String,
    /// Monotonic event counts by name.
    pub counters: BTreeMap<String, u64>,
    /// Scalar observations by name (coverage, thresholds, errors).
    pub values: BTreeMap<String, f64>,
    /// Integer histograms by name (index -> occurrence count).
    pub histograms: BTreeMap<String, Vec<u64>>,
    /// Wall-clock samples (milliseconds) by span name.
    pub timings: BTreeMap<String, Histogram>,
    /// Solver failure postmortems, in the order they were attached.
    /// Postmortems carry only deterministic quantities, so they appear
    /// verbatim in both full and canonical serialisations.
    pub postmortems: Vec<Postmortem>,
}

impl Section {
    /// An empty section named `name`.
    pub fn new(name: &str) -> Self {
        Section {
            name: name.to_owned(),
            ..Section::default()
        }
    }

    /// Sets counter `name` (adding to any existing value).
    pub fn counter(&mut self, name: &str, value: u64) -> &mut Self {
        *self.counters.entry(name.to_owned()).or_default() += value;
        self
    }

    /// Sets scalar value `name` (last write wins).
    pub fn value(&mut self, name: &str, value: f64) -> &mut Self {
        self.values.insert(name.to_owned(), value);
        self
    }

    /// Sets integer histogram `name` (last write wins).
    pub fn histogram(&mut self, name: &str, bins: Vec<u64>) -> &mut Self {
        self.histograms.insert(name.to_owned(), bins);
        self
    }

    /// Records one wall-clock sample (milliseconds) under span `name`.
    pub fn timing_ms(&mut self, name: &str, ms: f64) -> &mut Self {
        self.timings.entry(name.to_owned()).or_default().record(ms);
        self
    }

    /// Attaches a solver failure postmortem.
    pub fn postmortem(&mut self, pm: Postmortem) -> &mut Self {
        self.postmortems.push(pm);
        self
    }

    fn to_json(&self, canonical: bool) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.push("name", JsonValue::Str(self.name.clone()));
        let mut counters = JsonValue::object();
        for (name, value) in &self.counters {
            counters.push(name, JsonValue::Num(*value as f64));
        }
        obj.push("counters", counters);
        let mut values = JsonValue::object();
        for (name, value) in &self.values {
            values.push(name, JsonValue::Num(*value));
        }
        obj.push("values", values);
        let mut histograms = JsonValue::object();
        for (name, bins) in &self.histograms {
            histograms.push(
                name,
                JsonValue::Arr(bins.iter().map(|b| JsonValue::Num(*b as f64)).collect()),
            );
        }
        obj.push("histograms", histograms);
        let mut timings = JsonValue::object();
        for (name, hist) in &self.timings {
            timings.push(name, timing_json(hist, canonical));
        }
        obj.push("timings", timings);
        obj.push(
            "postmortems",
            JsonValue::Arr(self.postmortems.iter().map(Postmortem::to_json).collect()),
        );
        obj
    }
}

/// Summarises a timing histogram: sample count (deterministic) plus
/// total and percentiles in milliseconds (zeroed in canonical form).
fn timing_json(hist: &Histogram, canonical: bool) -> JsonValue {
    let mut obj = JsonValue::object();
    obj.push("count", JsonValue::Num(hist.count() as f64));
    let ms = |v: Option<f64>| {
        if canonical {
            JsonValue::Num(0.0)
        } else {
            v.map_or(JsonValue::Null, JsonValue::Num)
        }
    };
    obj.push(
        "total_ms",
        if canonical {
            JsonValue::Num(0.0)
        } else {
            JsonValue::Num(hist.sum())
        },
    );
    obj.push("p50_ms", ms(hist.percentile(50.0)));
    obj.push("p90_ms", ms(hist.percentile(90.0)));
    obj.push("p99_ms", ms(hist.percentile(99.0)));
    obj.push("max_ms", ms(hist.max()));
    obj
}

/// A complete machine-readable run report.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Report sections, serialised in insertion order.
    pub sections: Vec<Section>,
}

impl RunReport {
    /// An empty report.
    pub fn new() -> Self {
        RunReport::default()
    }

    /// Appends a section.
    pub fn push(&mut self, section: Section) -> &mut Self {
        self.sections.push(section);
        self
    }

    /// Finds a section by name.
    pub fn section(&self, name: &str) -> Option<&Section> {
        self.sections.iter().find(|s| s.name == name)
    }

    /// Detection coverage: the weighted mean of every section's
    /// `coverage` value, weighted by its `faults` counter (1 when
    /// absent). `None` when no section reports coverage.
    pub fn coverage(&self) -> Option<f64> {
        let mut weighted = 0.0;
        let mut weight = 0.0;
        for section in &self.sections {
            if let Some(cov) = section.values.get("coverage") {
                let w = section.counters.get("faults").copied().unwrap_or(1).max(1) as f64;
                weighted += cov * w;
                weight += w;
            }
        }
        (weight > 0.0).then(|| weighted / weight)
    }

    /// Total Newton iterations across all sections.
    pub fn newton_iterations(&self) -> u64 {
        self.sections
            .iter()
            .filter_map(|s| s.counters.get("solver.newton_iterations"))
            .sum()
    }

    /// Element-wise sum of every section's `escalation_rungs`
    /// histogram.
    pub fn rung_histogram(&self) -> Vec<u64> {
        let mut total: Vec<u64> = Vec::new();
        for section in &self.sections {
            if let Some(bins) = section.histograms.get("escalation_rungs") {
                if total.len() < bins.len() {
                    total.resize(bins.len(), 0);
                }
                for (t, b) in total.iter_mut().zip(bins) {
                    *t += b;
                }
            }
        }
        total
    }

    /// Every postmortem in the report, paired with the name of the
    /// section carrying it, in serialisation order.
    pub fn postmortems(&self) -> impl Iterator<Item = (&str, &Postmortem)> {
        self.sections
            .iter()
            .flat_map(|s| s.postmortems.iter().map(move |pm| (s.name.as_str(), pm)))
    }

    /// All timing samples across all sections and spans, merged into
    /// one histogram (milliseconds).
    pub fn wall_histogram(&self) -> Histogram {
        let mut merged = Histogram::new();
        for section in &self.sections {
            for hist in section.timings.values() {
                merged.merge(hist);
            }
        }
        merged
    }

    fn to_json(&self, canonical: bool) -> JsonValue {
        let mut root = JsonValue::object();
        root.push("schema", JsonValue::Str(SCHEMA.to_owned()));
        // The summary block always carries the headline keys so
        // downstream checks can assert presence unconditionally.
        let mut summary = JsonValue::object();
        summary.push(
            "coverage",
            self.coverage().map_or(JsonValue::Null, JsonValue::Num),
        );
        summary.push(
            "newton_iterations",
            JsonValue::Num(self.newton_iterations() as f64),
        );
        summary.push(
            "rung_histogram",
            JsonValue::Arr(
                self.rung_histogram()
                    .iter()
                    .map(|b| JsonValue::Num(*b as f64))
                    .collect(),
            ),
        );
        summary.push("wall_ms", timing_json(&self.wall_histogram(), canonical));
        root.push("summary", summary);
        root.push(
            "sections",
            JsonValue::Arr(self.sections.iter().map(|s| s.to_json(canonical)).collect()),
        );
        root
    }

    /// Full JSON including real wall-clock milliseconds.
    pub fn to_json_string(&self) -> String {
        self.to_json(false).to_json_pretty()
    }

    /// Canonical JSON: wall-clock sample values zeroed, counts kept.
    /// Byte-identical for equivalent runs regardless of worker count.
    pub fn canonical_json_string(&self) -> String {
        self.to_json(true).to_json_pretty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample_section(name: &str, coverage: f64, faults: u64, ms: f64) -> Section {
        let mut s = Section::new(name);
        s.value("coverage", coverage)
            .counter("faults", faults)
            .counter("solver.newton_iterations", faults * 100)
            .histogram("escalation_rungs", vec![faults, 1])
            .timing_ms("campaign.fault", ms);
        s
    }

    #[test]
    fn summary_aggregates_across_sections() {
        let mut report = RunReport::new();
        report.push(sample_section("c1", 90.0, 3, 1.5));
        report.push(sample_section("c2", 50.0, 1, 2.5));
        // Weighted mean: (90*3 + 50*1) / 4 = 80.
        assert_eq!(report.coverage(), Some(80.0));
        assert_eq!(report.newton_iterations(), 400);
        assert_eq!(report.rung_histogram(), vec![4, 2]);
        assert_eq!(report.wall_histogram().count(), 2);
    }

    #[test]
    fn empty_report_still_exposes_summary_keys() {
        let report = RunReport::new();
        let parsed = json::parse(&report.to_json_string()).unwrap();
        let summary = parsed.get("summary").expect("summary present");
        assert_eq!(summary.get("coverage"), Some(&JsonValue::Null));
        assert_eq!(
            summary.get("newton_iterations").and_then(JsonValue::as_f64),
            Some(0.0)
        );
        assert!(summary.get("rung_histogram").is_some());
        assert!(summary.get("wall_ms").is_some());
    }

    #[test]
    fn report_json_parses_and_carries_schema() {
        let mut report = RunReport::new();
        report.push(sample_section("c1", 93.75, 16, 12.0));
        let parsed = json::parse(&report.to_json_string()).unwrap();
        assert_eq!(
            parsed.get("schema").and_then(JsonValue::as_str),
            Some(SCHEMA)
        );
        let sections = parsed.get("sections").and_then(JsonValue::as_array).unwrap();
        assert_eq!(sections.len(), 1);
        assert_eq!(
            sections[0].get("name").and_then(JsonValue::as_str),
            Some("c1")
        );
        let summary = parsed.get("summary").unwrap();
        assert_eq!(
            summary.get("coverage").and_then(JsonValue::as_f64),
            Some(93.75)
        );
    }

    #[test]
    fn canonical_form_zeroes_milliseconds_but_keeps_counts() {
        let mut fast = RunReport::new();
        fast.push(sample_section("c1", 90.0, 2, 1.0));
        let mut slow = RunReport::new();
        slow.push(sample_section("c1", 90.0, 2, 250.0));
        // Real timings differ...
        assert_ne!(fast.to_json_string(), slow.to_json_string());
        // ...canonical bytes do not.
        assert_eq!(fast.canonical_json_string(), slow.canonical_json_string());
        let parsed = json::parse(&fast.canonical_json_string()).unwrap();
        let wall = parsed.get("summary").and_then(|s| s.get("wall_ms")).unwrap();
        assert_eq!(wall.get("count").and_then(JsonValue::as_f64), Some(1.0));
        assert_eq!(wall.get("p50_ms").and_then(JsonValue::as_f64), Some(0.0));
    }

    #[test]
    fn postmortems_serialise_identically_in_both_forms() {
        use crate::postmortem::{LadderStep, Postmortem};
        let mut section = sample_section("c1", 50.0, 1, 3.0);
        section.postmortem(Postmortem {
            label: "f17".into(),
            error: "no convergence".into(),
            time: 3.2e-6,
            residual: 0.4,
            total_iterations: 24,
            ladder: vec![LadderStep {
                rung: 0,
                label: "nominal".into(),
                outcome: "no-convergence".into(),
            }],
            ..Postmortem::default()
        });
        let mut report = RunReport::new();
        report.push(section);

        let full = json::parse(&report.to_json_string()).unwrap();
        let canon = json::parse(&report.canonical_json_string()).unwrap();
        for parsed in [&full, &canon] {
            let pms = parsed.get("sections").and_then(JsonValue::as_array).unwrap()[0]
                .get("postmortems")
                .and_then(JsonValue::as_array)
                .expect("postmortems array present");
            assert_eq!(pms.len(), 1);
            assert_eq!(pms[0].get("label").and_then(JsonValue::as_str), Some("f17"));
        }
        // The postmortem bytes themselves are identical in both forms.
        let extract = |s: &str| {
            let v = json::parse(s).unwrap();
            v.get("sections").and_then(JsonValue::as_array).unwrap()[0]
                .get("postmortems")
                .unwrap()
                .to_json()
        };
        assert_eq!(
            extract(&report.to_json_string()),
            extract(&report.canonical_json_string())
        );
        // And the iterator walks them with section attribution.
        let found: Vec<(&str, &Postmortem)> = report.postmortems().collect();
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].0, "c1");
        assert_eq!(found[0].1.label, "f17");
    }
}
