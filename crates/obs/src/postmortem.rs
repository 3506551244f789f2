//! Structured solver failure postmortems.
//!
//! When a solve fails terminally, the flight recorder (in the solver
//! crate) freezes its ring of per-iteration records into one of these:
//! the last-K iterations, the residual trajectory, a worst-node
//! histogram, the escalation-ladder path and the budget state at the
//! moment of death. Postmortems ride inside [`crate::report::Section`]s
//! of a `mixsig.run-report/1` document, and everything in them is
//! deterministic (simulated time, residuals, iteration counts, node
//! names — never wall-clock), so the canonical serialisation is
//! byte-stable across worker counts.

use crate::json::JsonValue;

/// One retained solver iteration, oldest first in
/// [`Postmortem::trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct PostmortemIteration {
    /// Solve phase, e.g. `dc.gmin` or `transient`.
    pub phase: String,
    /// Simulated time in seconds (0 for DC phases).
    pub time: f64,
    /// Step size being attempted (0 for DC phases).
    pub dt: f64,
    /// Newton iteration number within the current solve, from 1.
    pub iteration: u64,
    /// Worst per-unknown update magnitude at this iteration.
    pub residual: f64,
    /// Index of the worst unknown in the MNA layout.
    pub worst_index: u64,
    /// The worst unknown resolved to a netlist node (or branch) name.
    pub worst_node: String,
}

/// One rung of the escalation ladder as the campaign walked it.
#[derive(Debug, Clone, PartialEq)]
pub struct LadderStep {
    /// Rung index, 0 = nominal settings.
    pub rung: u64,
    /// Human-readable rung label, e.g. `dt*0.5+BE+gmin=1e-9`.
    pub label: String,
    /// What the rung produced: `ok`, `no-convergence`, `budget`, ...
    pub outcome: String,
}

/// One numerical hazard detected during the solve, with the recovery
/// action the solver took in response.
#[derive(Debug, Clone, PartialEq)]
pub struct HazardStep {
    /// Hazard label, e.g. `refinement-stall` or `non-finite`.
    pub hazard: String,
    /// What the solver did about it: `demote:refactor`,
    /// `demote:dense`, `refined`, `advisory`, `terminal`, ...
    pub action: String,
    /// Simulated time in seconds at detection (0 for DC).
    pub time: f64,
}

/// A frozen record of one terminally failed solve.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Postmortem {
    /// What was being solved, e.g. the fault name.
    pub label: String,
    /// Display form of the terminal error.
    pub error: String,
    /// Simulated time at failure (seconds).
    pub time: f64,
    /// Final residual at failure.
    pub residual: f64,
    /// Total Newton iterations recorded, including ones the bounded
    /// trace has already overwritten.
    pub total_iterations: u64,
    /// Last-K iterations, oldest first.
    pub trace: Vec<PostmortemIteration>,
    /// Worst-offender histogram over the retained trace: node name ->
    /// number of iterations it dominated, sorted by descending count
    /// then name.
    pub worst_nodes: Vec<(String, u64)>,
    /// Escalation path: every rung tried, in order.
    pub ladder: Vec<LadderStep>,
    /// Numerical hazards detected during the solve with the recovery
    /// action taken for each, in detection order (bounded by the
    /// recorder). Empty for solves that died without numerical
    /// trouble — and for postmortems decoded from journals written
    /// before hazard tracking existed.
    pub hazards: Vec<HazardStep>,
    /// Budget steps charged at the moment of death, when a budget was
    /// armed.
    pub budget_steps: Option<u64>,
}

/// Non-finite residuals (a diverged Newton update) serialise as JSON
/// `null` and parse back as `+inf`.
fn residual_json(v: f64) -> JsonValue {
    JsonValue::Num(v)
}

fn residual_from(v: Option<&JsonValue>) -> f64 {
    match v {
        Some(JsonValue::Num(n)) => *n,
        _ => f64::INFINITY,
    }
}

fn str_field(v: &JsonValue, key: &str) -> Result<String, String> {
    v.get(key)
        .and_then(JsonValue::as_str)
        .map(str::to_owned)
        .ok_or_else(|| format!("postmortem: missing string `{key}`"))
}

fn num_field(v: &JsonValue, key: &str) -> Result<f64, String> {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .ok_or_else(|| format!("postmortem: missing number `{key}`"))
}

impl Postmortem {
    /// Serialises to a JSON object. Every field is deterministic, so
    /// canonical and full report forms carry identical bytes.
    pub fn to_json(&self) -> JsonValue {
        let mut obj = JsonValue::object();
        obj.push("label", JsonValue::Str(self.label.clone()));
        obj.push("error", JsonValue::Str(self.error.clone()));
        obj.push("time", JsonValue::Num(self.time));
        obj.push("residual", residual_json(self.residual));
        obj.push(
            "total_iterations",
            JsonValue::Num(self.total_iterations as f64),
        );
        let trace = self
            .trace
            .iter()
            .map(|it| {
                let mut rec = JsonValue::object();
                rec.push("phase", JsonValue::Str(it.phase.clone()));
                rec.push("time", JsonValue::Num(it.time));
                rec.push("dt", JsonValue::Num(it.dt));
                rec.push("iteration", JsonValue::Num(it.iteration as f64));
                rec.push("residual", residual_json(it.residual));
                rec.push("worst_index", JsonValue::Num(it.worst_index as f64));
                rec.push("worst_node", JsonValue::Str(it.worst_node.clone()));
                rec
            })
            .collect();
        obj.push("trace", JsonValue::Arr(trace));
        let nodes = self
            .worst_nodes
            .iter()
            .map(|(name, count)| {
                let mut rec = JsonValue::object();
                rec.push("node", JsonValue::Str(name.clone()));
                rec.push("count", JsonValue::Num(*count as f64));
                rec
            })
            .collect();
        obj.push("worst_nodes", JsonValue::Arr(nodes));
        let ladder = self
            .ladder
            .iter()
            .map(|step| {
                let mut rec = JsonValue::object();
                rec.push("rung", JsonValue::Num(step.rung as f64));
                rec.push("label", JsonValue::Str(step.label.clone()));
                rec.push("outcome", JsonValue::Str(step.outcome.clone()));
                rec
            })
            .collect();
        obj.push("ladder", JsonValue::Arr(ladder));
        let hazards = self
            .hazards
            .iter()
            .map(|h| {
                let mut rec = JsonValue::object();
                rec.push("hazard", JsonValue::Str(h.hazard.clone()));
                rec.push("action", JsonValue::Str(h.action.clone()));
                rec.push("time", JsonValue::Num(h.time));
                rec
            })
            .collect();
        obj.push("hazards", JsonValue::Arr(hazards));
        obj.push(
            "budget_steps",
            self.budget_steps
                .map_or(JsonValue::Null, |s| JsonValue::Num(s as f64)),
        );
        obj
    }

    /// Parses a postmortem back out of its [`Postmortem::to_json`]
    /// form.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first missing or mistyped field.
    pub fn from_json(v: &JsonValue) -> Result<Postmortem, String> {
        let mut trace = Vec::new();
        for it in v
            .get("trace")
            .and_then(JsonValue::as_array)
            .ok_or("postmortem: missing array `trace`")?
        {
            trace.push(PostmortemIteration {
                phase: str_field(it, "phase")?,
                time: num_field(it, "time")?,
                dt: num_field(it, "dt")?,
                iteration: num_field(it, "iteration")? as u64,
                residual: residual_from(it.get("residual")),
                worst_index: num_field(it, "worst_index")? as u64,
                worst_node: str_field(it, "worst_node")?,
            });
        }
        let mut worst_nodes = Vec::new();
        for rec in v
            .get("worst_nodes")
            .and_then(JsonValue::as_array)
            .ok_or("postmortem: missing array `worst_nodes`")?
        {
            worst_nodes.push((str_field(rec, "node")?, num_field(rec, "count")? as u64));
        }
        let mut ladder = Vec::new();
        for rec in v
            .get("ladder")
            .and_then(JsonValue::as_array)
            .ok_or("postmortem: missing array `ladder`")?
        {
            ladder.push(LadderStep {
                rung: num_field(rec, "rung")? as u64,
                label: str_field(rec, "label")?,
                outcome: str_field(rec, "outcome")?,
            });
        }
        // Absent in journals written before hazard tracking: decode as
        // empty rather than failing old archives.
        let mut hazards = Vec::new();
        if let Some(arr) = v.get("hazards").and_then(JsonValue::as_array) {
            for rec in arr {
                hazards.push(HazardStep {
                    hazard: str_field(rec, "hazard")?,
                    action: str_field(rec, "action")?,
                    time: num_field(rec, "time")?,
                });
            }
        }
        Ok(Postmortem {
            label: str_field(v, "label")?,
            error: str_field(v, "error")?,
            time: num_field(v, "time")?,
            residual: residual_from(v.get("residual")),
            total_iterations: num_field(v, "total_iterations")? as u64,
            trace,
            worst_nodes,
            ladder,
            hazards,
            budget_steps: v.get("budget_steps").and_then(JsonValue::as_f64).map(|s| s as u64),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn sample() -> Postmortem {
        Postmortem {
            label: "bridge:out-iso".into(),
            error: "no convergence at t = 3.2e-6 s (residual 4.1e-1 after 6 iterations)".into(),
            time: 3.2e-6,
            residual: 0.41,
            total_iterations: 120,
            trace: vec![
                PostmortemIteration {
                    phase: "transient".into(),
                    time: 3.2e-6,
                    dt: 1.0e-6,
                    iteration: 5,
                    residual: 0.52,
                    worst_index: 1,
                    worst_node: "out".into(),
                },
                PostmortemIteration {
                    phase: "transient".into(),
                    time: 3.2e-6,
                    dt: 1.0e-6,
                    iteration: 6,
                    residual: 0.41,
                    worst_index: 1,
                    worst_node: "out".into(),
                },
            ],
            worst_nodes: vec![("out".into(), 2)],
            ladder: vec![
                LadderStep {
                    rung: 0,
                    label: "nominal".into(),
                    outcome: "no-convergence".into(),
                },
                LadderStep {
                    rung: 1,
                    label: "dt*0.5".into(),
                    outcome: "no-convergence".into(),
                },
            ],
            hazards: vec![HazardStep {
                hazard: "refinement-stall".into(),
                action: "demote:refactor".into(),
                time: 3.1e-6,
            }],
            budget_steps: Some(42),
        }
    }

    #[test]
    fn hazardless_legacy_json_decodes_with_empty_hazards() {
        // Journals written before hazard tracking carry no `hazards`
        // array; they must keep decoding.
        let mut pm = sample();
        pm.hazards.clear();
        let text = pm.to_json().to_json().replace(",\"hazards\":[]", "");
        assert!(!text.contains("hazards"));
        let parsed = json::parse(&text).unwrap();
        assert_eq!(Postmortem::from_json(&parsed).unwrap(), pm);
    }

    #[test]
    fn round_trips_through_json() {
        let pm = sample();
        let parsed = json::parse(&pm.to_json().to_json()).expect("serialised form parses");
        assert_eq!(Postmortem::from_json(&parsed).unwrap(), pm);
    }

    #[test]
    fn default_round_trips_with_null_budget() {
        let pm = Postmortem::default();
        let text = pm.to_json().to_json();
        assert!(text.contains("\"budget_steps\":null"));
        let parsed = json::parse(&text).unwrap();
        assert_eq!(Postmortem::from_json(&parsed).unwrap(), pm);
    }

    #[test]
    fn infinite_residual_survives_as_null() {
        let mut pm = sample();
        pm.residual = f64::INFINITY;
        pm.trace[1].residual = f64::INFINITY;
        let parsed = json::parse(&pm.to_json().to_json()).unwrap();
        let back = Postmortem::from_json(&parsed).unwrap();
        assert_eq!(back, pm);
    }

    #[test]
    fn missing_fields_are_reported_by_name() {
        let err = Postmortem::from_json(&JsonValue::object()).unwrap_err();
        assert!(err.contains("trace"), "{err}");
    }

    #[test]
    fn serialisation_is_deterministic() {
        let a = sample().to_json().to_json();
        let b = sample().to_json().to_json();
        assert_eq!(a, b);
    }
}
