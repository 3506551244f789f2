//! `fig4`: the paper's Figure 4 on the nominal process, on circuit 3 —
//! the correlation and dynamic-IDD campaigns and the impulse-response
//! method. One op is one fault extraction (36 per pass). Solver-bound:
//! this is where `anasim`/`linsys` work shows. Circuit 2 is left out:
//! its faults cost nearly twice circuit 3's, and with it a pass takes
//! 13–24 s, too long for a run to hold more than three. Circuit 1 is
//! left out: its 2–7 ms faults made a second cost group, and the median
//! op fell on the edge between the two.
//!
//! The correlation campaign also writes the `obs` checkpoint journal and
//! is then resumed from it, so the journal and the replay path are
//! exercised and checked on every pass.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use anasim::metrics::SolverMetrics;
use anasim::netlist::Netlist;
use faultsim::campaign::{CampaignConfig, CampaignReport, FaultStatus, JournalConfig};
use macrolib::process::ProcessParams;
use msbist::transtest::circuits::{circuit3, ExampleCircuit};
use msbist::transtest::idd::run_idd_campaign_with;
use msbist::transtest::impulse::{fit_first_order_discrete, impulse_detection_instances};
use obs::RunReport;

use crate::probe::{Pass, Probe, Tally};

/// Detection threshold as a fraction of the golden signature's peak,
/// as in the `experiments e6` reproduction.
const RELATIVE_THRESHOLD: f64 = 0.02;

/// A fault counts as detected at this percentage of deviating
/// instances (the campaign engine's default criterion).
const MIN_DETECT_PCT: f64 = 50.0;

/// Allowed drift of a fault's detection percentage from the reference,
/// in percentage points. The verdict itself must not change.
pub const PCT_TOLERANCE: f64 = 2.0;

/// Per-fault reference verdicts (`method circuit fault verdict pct`).
const REFERENCE: &str = include_str!("../fig4_reference.tsv");

/// One line of the Figure-4 table.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    pub method: &'static str,
    pub circuit: u8,
    pub fault: String,
    pub detected: bool,
    pub pct: f64,
}

impl Entry {
    pub fn to_line(&self) -> String {
        let verdict = if self.detected {
            "detected"
        } else {
            "undetected"
        };
        format!(
            "{}\t{}\t{}\t{verdict}\t{:.4}",
            self.method, self.circuit, self.fault, self.pct
        )
    }
}

pub struct Fig4 {
    circuit: ExampleCircuit,
    /// Correlation detection threshold, from the golden signature.
    threshold: f64,
    reference: Vec<Entry>,
    /// The correlation campaign's checkpoint journal, in the run's
    /// scratch directory.
    journal: PathBuf,
    /// The table the last pass produced, in op order.
    pub table: Vec<Entry>,
}

impl Fig4 {
    /// Builds the circuit and characterises its golden correlation
    /// signature; the journal goes under `scratch`.
    pub fn setup(scratch: &Path) -> Fig4 {
        let circuit = circuit3(&ProcessParams::nominal());
        let golden = circuit
            .bench
            .correlation_signature(circuit.bench.netlist())
            .expect("golden circuit must simulate");
        let threshold = RELATIVE_THRESHOLD * golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
        Fig4 {
            circuit,
            threshold,
            reference: parse_reference(REFERENCE),
            journal: scratch.join("fig4-c3.jsonl"),
            table: Vec::new(),
        }
    }

    /// Correlation, impulse and IDD: one extraction per fault each.
    pub fn ops_per_pass(&self) -> usize {
        3 * self.circuit.faults.len()
    }

    pub fn pass(&mut self, probe: &mut Probe) -> Pass {
        let mut pass = Pass::default();
        self.table.clear();
        let c = &self.circuit;
        pass.calibrate();
        let label = format!("fig4.c{}.correlation", c.number);
        let base = probe
            .hooks()
            .apply(CampaignConfig::new(self.threshold), &label);
        probe.span("bench.check", || {
            let _ = fs::remove_file(&self.journal);
        });
        let config = base
            .clone()
            .journal(JournalConfig::fresh(&self.journal, &label));
        let (report, took) = probe.span("faultsim.campaign", || {
            c.bench.run_correlation_campaign_with(&c.faults, &config)
        });
        let report = report.expect("golden circuit must simulate");
        probe.hooks().observe(&label, &report);
        absorb_campaign(
            "correlation",
            c,
            &report,
            took,
            probe,
            &mut pass,
            &mut self.table,
        );
        let resume = base.journal(JournalConfig::resume(&self.journal, &label));
        if let Some(reason) = replay(c, &label, &resume, &report, probe, &mut pass) {
            // The checkpoint vouches for every fault it journaled.
            for op in &mut pass.ops {
                op.ok = false;
            }
            pass.failures.push(reason);
        }
        probe.span("bench.check", || {
            let _ = fs::remove_file(&self.journal);
        });

        impulse(c, probe, &mut pass, &mut self.table);

        pass.calibrate();
        let label = format!("fig4.c{}.idd", c.number);
        let config = probe.hooks().apply(CampaignConfig::new(0.0), &label);
        let (report, took) = probe.span("faultsim.campaign", || {
            run_idd_campaign_with(
                &c.bench,
                &c.vdd_sources,
                &c.faults,
                RELATIVE_THRESHOLD,
                &config,
            )
        });
        let report = report.expect("golden circuit must simulate");
        probe.hooks().observe(&label, &report);
        // The IDD golden runs once outside the campaign engine to
        // resolve the threshold.
        pass.sim_s += t_stop(c);
        absorb_campaign("idd", c, &report, took, probe, &mut pass, &mut self.table);
        pass.calibrate();
        probe.span("bench.check", || {
            for (i, entry) in self.table.iter().enumerate() {
                if let Some(reason) = check(entry, self.reference.get(i)) {
                    pass.ops[i].ok = false;
                    if pass.failures.len() < 8 {
                        pass.failures.push(reason);
                    }
                }
            }
        });
        pass
    }
}

fn t_stop(c: &ExampleCircuit) -> f64 {
    c.bench.stimulus().total_duration() * c.bench.periods() as f64
}

/// Records a campaign's faults as ops and splits its wall into the
/// golden extraction, the fault extractions and the engine's own
/// overhead.
fn absorb_campaign(
    method: &'static str,
    c: &ExampleCircuit,
    report: &CampaignReport,
    call: Duration,
    probe: &mut Probe,
    pass: &mut Pass,
    table: &mut Vec<Entry>,
) {
    let stats = &report.stats;
    let fault_wall: Duration = stats.per_fault.iter().map(|t| t.wall).sum();
    probe.add("faultsim.golden", stats.golden_wall);
    probe.add("faultsim.fault", fault_wall);
    probe.add(
        "faultsim.overhead",
        call.saturating_sub(stats.golden_wall + fault_wall),
    );
    pass.tally.solver(&stats.golden_solver);
    pass.sim_s += t_stop(c) * (1 + report.outcomes.len()) as f64;
    for (outcome, telemetry) in report.outcomes.iter().zip(&stats.per_fault) {
        pass.tally.solver(&telemetry.solver);
        let (detected, pct, failure) = match &outcome.status {
            FaultStatus::Detected { pct } => (true, *pct, None),
            FaultStatus::Undetected { pct } => (false, *pct, None),
            other => (
                true,
                100.0,
                Some(format!(
                    "{method} c{} {}: extraction ended {}",
                    c.number,
                    outcome.fault.name(),
                    other.tag()
                )),
            ),
        };
        digest_entry(&mut pass.tally, detected, pct);
        table.push(Entry {
            method,
            circuit: c.number,
            fault: outcome.fault.name().to_owned(),
            detected,
            pct,
        });
        pass.op(telemetry.wall, failure);
    }
}

/// Resumes a journaled campaign from its complete journal, so every
/// fault replays instead of simulating, counts the journal on disk, and
/// checks that the resumed report equals the fresh one in canonical
/// JSON. Returns why the check failed, if it did.
fn replay(
    c: &ExampleCircuit,
    label: &str,
    resume: &CampaignConfig,
    fresh: &CampaignReport,
    probe: &mut Probe,
    pass: &mut Pass,
) -> Option<String> {
    let journal = &resume
        .journal
        .as_ref()
        .expect("a resume config names its journal")
        .path;
    let (resumed, _) = probe.span("faultsim.replay", || {
        c.bench.run_correlation_campaign_with(&c.faults, resume)
    });
    if let Ok(resumed) = &resumed {
        probe.hooks().observe(label, resumed);
    }
    probe
        .span("bench.check", || {
            let mut failure = match &resumed {
                Ok(resumed) => {
                    // The resumed campaign re-derives its golden only.
                    pass.tally.solver(&resumed.stats.golden_solver);
                    pass.sim_s += t_stop(c);
                    (canonical(label, fresh) != canonical(label, resumed))
                        .then(|| format!("{label}: resumed report differs from fresh report"))
                }
                Err(e) => Some(format!("{label}: resumed campaign failed: {e}")),
            };
            match fs::read_to_string(journal) {
                Ok(text) => {
                    if let Ok(records) = obs::journal::parse_journal(&text) {
                        pass.tally.journal_records += records.records.len() as u64;
                    }
                    pass.tally.journal_bytes += text.len() as u64;
                    pass.tally.journal_bytes_masked += mask_wall_times(&text).len() as u64;
                }
                Err(e) => {
                    failure.get_or_insert(format!("{label}: journal unreadable: {e}"));
                }
            }
            failure
        })
        .0
}

/// The report's canonical JSON: wall-clock values zeroed, everything
/// else byte-exact.
fn canonical(label: &str, report: &CampaignReport) -> String {
    let mut run = RunReport::new();
    run.push(report.to_section(label));
    run.canonical_json_string()
}

/// The journal text with every journaled wall time replaced by `0`, so
/// its length depends only on campaign semantics.
fn mask_wall_times(text: &str) -> String {
    const KEY: &str = "\"wall_ms\":";
    let mut out = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(KEY) {
        let (head, tail) = rest.split_at(at + KEY.len());
        out.push_str(head);
        out.push('0');
        let end = tail
            .find(|ch: char| !(ch.is_ascii_digit() || "+-.eE".contains(ch)))
            .unwrap_or(tail.len());
        rest = &tail[end..];
    }
    out.push_str(rest);
    out
}

/// The impulse-response method (approach 2) on one SC circuit: golden
/// and faulty variants are identified as first-order discrete systems
/// from their cycle-sampled PRBS responses and the fitted impulse
/// responses compared. Composed from `msbist` public calls exactly as
/// `experiments e6` does, but timed per fault.
fn impulse(c: &ExampleCircuit, probe: &mut Probe, pass: &mut Pass, table: &mut Vec<Entry>) {
    let stimulus = c.bench.stimulus();
    let one_period: Vec<f64> = stimulus
        .bits()
        .iter()
        .map(|&b| if b { stimulus.high() } else { stimulus.low() } - 2.5)
        .collect();
    let p: Vec<f64> = std::iter::repeat_n(one_period, c.bench.periods())
        .flatten()
        .collect();
    let impulse_of = |netlist: &Netlist, probe: &Probe, tally: &mut Tally| -> Option<Vec<f64>> {
        let metrics = Arc::new(SolverMetrics::new());
        let y = c
            .bench
            .response_at_with(netlist, c.impulse_probe, &probe.settings(&metrics));
        tally.solver(&metrics.snapshot());
        let y = y.ok()?;
        let spb = y.len() / p.len();
        let cycle_y: Vec<f64> = y
            .chunks(spb)
            .map(|s| s.last().copied().unwrap_or(0.0) - 2.5)
            .collect();
        let fit = fit_first_order_discrete(&p, &cycle_y);
        Some(fit.impulse_response(stimulus.bit_period(), 32))
    };

    let start = Instant::now();
    let golden = impulse_of(c.bench.netlist(), probe, &mut pass.tally)
        .expect("golden circuit must simulate");
    probe.add("msbist.impulse", start.elapsed());
    pass.sim_s += t_stop(c);
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    for fault in &c.faults {
        pass.calibrate();
        let start = Instant::now();
        let faulty = faultsim::inject::inject(c.bench.netlist(), fault);
        let h = impulse_of(&faulty, probe, &mut pass.tally);
        let pct = h
            .as_ref()
            .map(|h| impulse_detection_instances(&golden, h, RELATIVE_THRESHOLD * peak));
        let took = start.elapsed();
        probe.add("msbist.impulse", took);
        pass.sim_s += t_stop(c);
        let failure = pct
            .is_none()
            .then(|| format!("impulse c{} {}: simulation failed", c.number, fault.name()));
        let pct = pct.unwrap_or(100.0);
        let detected = pct >= MIN_DETECT_PCT;
        digest_entry(&mut pass.tally, detected, pct);
        table.push(Entry {
            method: "impulse",
            circuit: c.number,
            fault: fault.name().to_owned(),
            detected,
            pct,
        });
        pass.op(took, failure);
    }
}

fn digest_entry(tally: &mut Tally, detected: bool, pct: f64) {
    tally.outputs.u64(u64::from(detected));
    tally.outputs.u64(pct.to_bits());
}

/// Compares one produced entry with its reference line.
fn check(entry: &Entry, reference: Option<&Entry>) -> Option<String> {
    let Some(want) = reference else {
        return Some(format!("{}: no reference entry", entry.to_line()));
    };
    if (want.method, want.circuit, want.fault.as_str())
        != (entry.method, entry.circuit, entry.fault.as_str())
    {
        return Some(format!(
            "op order changed: got {}, reference {}",
            entry.to_line(),
            want.to_line()
        ));
    }
    if want.detected != entry.detected || (want.pct - entry.pct).abs() > PCT_TOLERANCE {
        return Some(format!(
            "verdict moved: got {}, reference {} (tolerance ±{PCT_TOLERANCE} pp)",
            entry.to_line(),
            want.to_line()
        ));
    }
    None
}

fn parse_reference(text: &str) -> Vec<Entry> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .map(|line| {
            let f: Vec<&str> = line.split('\t').collect();
            assert_eq!(f.len(), 5, "malformed reference line {line:?}");
            let method = match f[0] {
                "correlation" => "correlation",
                "impulse" => "impulse",
                "idd" => "idd",
                other => panic!("unknown method {other:?} in reference"),
            };
            Entry {
                method,
                circuit: f[1].parse().expect("reference circuit"),
                fault: f[2].to_owned(),
                detected: f[3] == "detected",
                pct: f[4].parse().expect("reference pct"),
            }
        })
        .collect()
}
