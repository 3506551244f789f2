//! The `experiments` binary: regenerates every table and figure of the
//! paper and prints paper-vs-measured reports.
//!
//! Usage:
//!
//! ```text
//! experiments [profile] [e1|e2|e3|e4|e5|e6|e6c1|e7|e8|ablation|diverge|all]
//!             [--workers N]
//!             [--metrics-json PATH] [--canonical-metrics]
//!             [--bench-json PATH] [--trace-json PATH]
//!             [--journal PATH | --resume PATH]
//!             [--chaos SPEC] [--numeric-chaos SPEC]
//!             [--degrade abort|continue] [--telemetry DIR]
//! experiments check-report PATH
//! experiments explain PATH [--fault N]
//! experiments watch DIR|JOURNAL [--once] [--json] [--interval MS]
//! experiments bench-diff OLD NEW
//! ```
//!
//! With `--metrics-json` the run also writes a machine-readable
//! [`obs::RunReport`] (schema `mixsig.run-report/1`) covering every
//! experiment that ran: detection coverage, solver counters, the
//! escalation-rung histogram, wall-clock percentiles, and any solver
//! postmortems frozen by armed flight recorders.
//! `--canonical-metrics` zeroes the wall-clock milliseconds (keeping
//! sample counts) so the bytes are identical for any `--workers` value.
//! `--bench-json` writes a `mixsig.solver-bench/4` sidecar with each
//! experiment's wall-clock, Newton-iteration totals, factorisation
//! reuse counters, hazard and demotion totals and solver-phase cost
//! breakdown (the committed `BENCH_solver.json` snapshot); writing it
//! arms the phase profiler for the whole run.
//!
//! The `profile` subcommand runs the selected experiments with the
//! phase profiler armed and prints a cost-attribution table: per-phase
//! self-time, call count and share of attributed time. `--trace-json`
//! additionally writes a Chrome Trace Event timeline
//! (`chrome://tracing` / Perfetto) of every campaign the run executed:
//! one process lane per campaign, one thread lane per worker, per-fault
//! spans with solver-phase sub-spans. Phase wall-times never enter the
//! canonical metrics: `--canonical-metrics` output is byte-identical
//! with or without profiling armed.
//!
//! `--journal` checkpoints every campaign-backed experiment (`e6`,
//! `e6c1`, `diverge`) to an append-only `mixsig.campaign-journal/1`
//! file, one fsync'd record per completed fault; `--resume` replays
//! such a journal first and only re-simulates what is missing, landing
//! on byte-identical canonical metrics. Both install a SIGINT handler:
//! Ctrl-C stops at the next fault boundary, leaves a clean partial
//! journal, and exits 130.
//! `--chaos` arms deterministic journal fault injection (for example
//! `write@4..7` or `seed@7:20`, see [`obs::chaos::FaultPlan::parse`])
//! against every campaign journal of the run, and `--degrade` picks
//! what a persistent journal failure does: `abort` (default) stops at
//! the next fault boundary with a clean partial journal, `continue`
//! finishes the campaign journal-less and marks the run degraded.
//! `--numeric-chaos` arms deterministic *solver* fault injection (for
//! example `pivot@0`, `nan@2..4`, `perturb@1`, `seed@7:10`, see
//! [`obs::chaos::NumericChaosPlan::parse`]) into every fault extraction
//! of every campaign: forced pivot breakdowns, corrupted factors and
//! poisoned solutions exercise the hazard taxonomy and tier-demotion
//! ladder end to end.
//! It needs no journal, golden extractions always run clean, and
//! `hazard.*` / `demote.*` counters land in the metrics, the bench
//! sidecar and the canonical `[hazard … → demote …]` markers.
//! `check-report` validates a previously written report (the CI smoke
//! test), including the structure of any postmortems it carries; given
//! a journal it validates the record stream instead, given a
//! `--trace-json` timeline it validates the Chrome-trace structure
//! (mandatory fields, finite non-negative durations, balanced duration
//! events), and given a `--bench-json` sidecar it validates the `/4`
//! schema and lints phase attribution against wall-clock, and
//! factorisations and device evaluations against Newton iterations
//! (every profiled solve must be counted). Degraded runs are
//! reported in both forms: the report summary carries a
//! `journal_degraded` count and the journal's terminal `degraded`
//! record names how many fault outcomes went unjournaled and why.
//! `explain` renders a report's solver postmortems as a narrative
//! diagnosis: the escalation-ladder path, the worst-offending nodes and
//! the last recorded Newton iterations (`--fault` selects one by
//! zero-based index or fault label). Given a journal it renders
//! per-campaign checkpoint progress instead. The `diverge` experiment
//! is a deliberately non-convergent campaign that demonstrates the
//! pipeline.
//!
//! `--telemetry DIR` arms live, strictly advisory campaign telemetry:
//! per-worker heartbeats append to `DIR/heartbeats.jsonl` and a
//! `mixsig.campaign-status/1` snapshot is atomically rewritten at
//! `DIR/status.json` while campaigns run (canonical output stays
//! byte-identical, armed or not). `watch` tails that directory — or a
//! checkpoint journal directly — as a refreshing console: progress bar,
//! throughput and ETA, outcome rollup, per-worker lanes with stall
//! flags and phase hot spots. `--once` renders a single frame,
//! `--json` emits the raw snapshot for machines; a dead campaign is
//! reconstructed from its journal. `bench-diff` compares two
//! `--bench-json` sidecars as an exact counts gate: every Newton,
//! reuse, hazard, demotion, refinement and phase-call count of every
//! experiment must be equal, and it exits nonzero on any difference
//! (wall-clock is left to `perfbench`).

use std::env;
use std::fs;
use std::process::ExitCode;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use anasim::robust::CancelToken;
use anasim::AnalysisError;
use faultsim::campaign::DegradePolicy;
use faultsim::journal::ReplayedState;
use faultsim::trace::CampaignTrace;
use msbist_bench::hooks::CampaignHooks;
use msbist_bench::solver_bench::{self, BenchEntry};
use msbist_bench::{bench_diff, experiments, explain, watch};
use obs::json::JsonValue;
use obs::profile::{Phase, PhaseProfiler, PhaseSnapshot};
use obs::{Align, RunReport, Section, Table};

/// Exit code for a run stopped by SIGINT, per shell convention
/// (128 + signal 2).
const EXIT_INTERRUPTED: u8 = 130;

/// The token the SIGINT handler raises. Installed once, before any
/// campaign starts; the handler itself only touches an atomic, which is
/// async-signal-safe.
static SIGINT_CANCEL: OnceLock<CancelToken> = OnceLock::new();

extern "C" fn sigint_handler(_signum: i32) {
    if let Some(token) = SIGINT_CANCEL.get() {
        token.cancel();
    }
}

/// Installs the SIGINT → [`CancelToken`] bridge and returns the token.
/// On non-Unix platforms the token exists but nothing raises it.
fn install_sigint_cancel() -> CancelToken {
    let token = SIGINT_CANCEL.get_or_init(CancelToken::new).clone();
    #[cfg(unix)]
    unsafe {
        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
        }
        signal(2, sigint_handler as extern "C" fn(i32) as usize);
    }
    token
}

fn main() -> ExitCode {
    let args: Vec<String> = env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("check-report") {
        return match args.get(1) {
            Some(path) => check_report(path),
            None => {
                eprintln!("usage: experiments check-report PATH");
                ExitCode::FAILURE
            }
        };
    }
    if args.first().map(String::as_str) == Some("explain") {
        return explain_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("watch") {
        return watch_command(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("bench-diff") {
        return bench_diff_command(&args[1..]);
    }
    // `experiments profile <tag> ...` is the run command with the phase
    // profiler armed and a cost-attribution table printed at the end.
    let profile_mode = args.first().map(String::as_str) == Some("profile");
    let args = if profile_mode { &args[1..] } else { &args[..] };

    let mut which: Option<String> = None;
    let mut metrics_json: Option<String> = None;
    let mut bench_json: Option<String> = None;
    let mut trace_json: Option<String> = None;
    let mut canonical = false;
    let mut journal: Option<String> = None;
    let mut resume: Option<String> = None;
    let mut chaos: Option<obs::FaultPlan> = None;
    let mut numeric_chaos: Option<obs::NumericChaosPlan> = None;
    let mut degrade = DegradePolicy::Abort;
    let mut telemetry: Option<String> = None;
    let mut workers = experiments::e6::E6_WORKERS;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--metrics-json" => match it.next() {
                Some(path) => metrics_json = Some(path.clone()),
                None => return usage_error("--metrics-json needs a path"),
            },
            "--bench-json" => match it.next() {
                Some(path) => bench_json = Some(path.clone()),
                None => return usage_error("--bench-json needs a path"),
            },
            "--trace-json" => match it.next() {
                Some(path) => trace_json = Some(path.clone()),
                None => return usage_error("--trace-json needs a path"),
            },
            "--canonical-metrics" => canonical = true,
            "--journal" => match it.next() {
                Some(path) => journal = Some(path.clone()),
                None => return usage_error("--journal needs a path"),
            },
            "--resume" => match it.next() {
                Some(path) => resume = Some(path.clone()),
                None => return usage_error("--resume needs a path"),
            },
            "--chaos" => match it.next() {
                Some(spec) => match obs::FaultPlan::parse(spec) {
                    Ok(plan) => chaos = Some(plan),
                    Err(err) => return usage_error(&format!("--chaos: {err}")),
                },
                None => {
                    return usage_error(
                        "--chaos needs a fault spec (e.g. write@4..7, sync@2, seed@7:20)",
                    )
                }
            },
            "--numeric-chaos" => match it.next() {
                Some(spec) => match obs::NumericChaosPlan::parse(spec) {
                    Ok(plan) => numeric_chaos = Some(plan),
                    Err(err) => return usage_error(&format!("--numeric-chaos: {err}")),
                },
                None => {
                    return usage_error(
                        "--numeric-chaos needs a site spec (e.g. pivot@0, nan@2, seed@7:20)",
                    )
                }
            },
            "--degrade" => match it.next().map(String::as_str) {
                Some("abort") => degrade = DegradePolicy::Abort,
                Some("continue") => degrade = DegradePolicy::Continue,
                _ => return usage_error("--degrade needs 'abort' or 'continue'"),
            },
            "--telemetry" => match it.next() {
                Some(dir) => telemetry = Some(dir.clone()),
                None => return usage_error("--telemetry needs a directory"),
            },
            "--workers" => match it.next().and_then(|w| w.parse::<usize>().ok()) {
                Some(w) if w >= 1 => workers = w,
                _ => return usage_error("--workers needs a positive integer"),
            },
            tag if !tag.starts_with('-') && which.is_none() => which = Some(tag.to_owned()),
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let which = which.unwrap_or_else(|| "all".to_owned());
    if journal.is_some() && resume.is_some() {
        return usage_error("--journal and --resume are mutually exclusive");
    }
    if chaos.is_some() && journal.is_none() && resume.is_none() {
        return usage_error("--chaos injects journal faults and needs --journal or --resume");
    }

    // --journal starts a fresh checkpoint stream (the engine itself
    // only ever appends, so the CLI truncates here, once); --resume
    // keeps the file and replays it. Both arm SIGINT cancellation.
    let hooks = match (&journal, &resume) {
        (Some(path), None) => {
            if let Err(err) = fs::write(path, "") {
                eprintln!("cannot start journal at {path}: {err}");
                return ExitCode::FAILURE;
            }
            CampaignHooks::journaled(path, false).with_cancel(install_sigint_cancel())
        }
        (None, Some(path)) => {
            CampaignHooks::journaled(path, true).with_cancel(install_sigint_cancel())
        }
        _ => CampaignHooks::none(),
    };
    let hooks = match chaos {
        Some(plan) => hooks.with_chaos(plan).with_degrade(degrade),
        None => hooks.with_degrade(degrade),
    };
    // Unlike --chaos (journal I/O faults), --numeric-chaos targets the
    // solver itself and needs no journal to inject into.
    let hooks = match numeric_chaos {
        Some(plan) => hooks.with_numeric_chaos(plan),
        None => hooks,
    };
    let hooks = match telemetry {
        Some(dir) => hooks.with_telemetry(dir),
        None => hooks,
    };

    // Phase profiling arms for the `profile` subcommand, for a trace,
    // and for the bench sidecar (which carries the phase breakdown). Plain runs stay disarmed: no clock reads on the hot
    // path, and canonical output proven byte-identical either way.
    let profiler = (profile_mode || trace_json.is_some() || bench_json.is_some())
        .then(|| Arc::new(PhaseProfiler::new()));
    let trace = trace_json
        .as_ref()
        .map(|_| Arc::new(Mutex::new(CampaignTrace::new())));
    let mut hooks = hooks;
    if let Some(profiler) = &profiler {
        hooks = hooks.with_profile(Arc::clone(profiler));
    }
    if let Some(trace) = &trace {
        hooks = hooks.with_trace(Arc::clone(trace));
    }

    let mut report = RunReport::new();
    let mut bench_entries: Vec<BenchEntry> = Vec::new();
    let ran = match run_experiments(
        &which,
        workers,
        &hooks,
        profiler.as_ref(),
        &mut report,
        &mut bench_entries,
    ) {
        Ok(ran) => ran,
        Err(AnalysisError::Cancelled) => {
            let path = journal.or(resume).unwrap_or_default();
            eprintln!(
                "interrupted: campaign cancelled at a fault boundary; \
                 journal {path} holds a clean checkpoint — rerun with --resume {path}"
            );
            return ExitCode::from(EXIT_INTERRUPTED);
        }
        Err(err) => {
            eprintln!("experiment failed: {err}");
            return ExitCode::FAILURE;
        }
    };

    if !ran {
        eprintln!("unknown experiment '{which}'; expected e1..e8, e6c1, ablation, diverge or all");
        return ExitCode::FAILURE;
    }

    if profile_mode {
        let snapshot = profiler
            .as_ref()
            .map(|p| p.snapshot())
            .unwrap_or_default();
        println!("{}", render_profile_table(&snapshot, &bench_entries));
    }
    if let Some(path) = trace_json {
        let trace = trace.expect("trace allocated with --trace-json");
        let trace = trace.lock().expect("campaign trace lock");
        if trace.is_empty() {
            eprintln!(
                "warning: no campaign ran ('{which}' has no campaign-backed experiment); \
                 {path} not written"
            );
        } else {
            if let Err(err) = fs::write(&path, trace.render()) {
                eprintln!("cannot write trace to {path}: {err}");
                return ExitCode::FAILURE;
            }
            println!(
                "trace written to {path} ({} campaign(s), {} event(s))",
                trace.campaigns(),
                trace.events().len()
            );
        }
    }
    if let Some(path) = metrics_json {
        let text = if canonical {
            report.canonical_json_string()
        } else {
            report.to_json_string()
        };
        if let Err(err) = fs::write(&path, text) {
            eprintln!("cannot write metrics to {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("metrics written to {path}");
    }
    if let Some(path) = bench_json {
        let text = solver_bench::render(&bench_entries);
        if let Err(err) = fs::write(&path, text) {
            eprintln!("cannot write solver bench to {path}: {err}");
            return ExitCode::FAILURE;
        }
        println!("solver bench written to {path}");
    }
    ExitCode::SUCCESS
}

/// Runs every experiment selected by `which`, filling `report` and
/// `bench_entries`. Returns whether any experiment matched.
/// Campaign-backed experiments receive the crash-safety `hooks`; the
/// rest ignore them (they have no campaign to checkpoint). When
/// `profiler` is armed, each experiment's slice of the shared phase
/// accounting (a snapshot delta around its run) lands in its bench
/// entry.
/// Sums every counter of `section` whose name starts with `prefix`.
/// The hazard/demotion counters are published per category
/// (`solver.hazard.*`, `solver.demote.*`); the bench sidecar tracks the
/// totals.
fn prefix_sum(section: &Section, prefix: &str) -> u64 {
    section
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with(prefix))
        .map(|(_, count)| *count)
        .sum()
}

fn run_experiments(
    which: &str,
    workers: usize,
    hooks: &CampaignHooks,
    profiler: Option<&Arc<PhaseProfiler>>,
    report: &mut RunReport,
    bench_entries: &mut Vec<BenchEntry>,
) -> Result<bool, AnalysisError> {
    let mut ran = false;
    // Each experiment prints its human report, contributes one section
    // (timed under `bench.<experiment>`) to the run report, and one
    // cost line to the solver-bench sidecar. An experiment that never
    // publishes `solver.*` counters runs no solver at all
    // (`linear_only`): its zero Newton count is by construction.
    let mut run_one = |name: &str,
                       run: &dyn Fn(usize) -> Result<(String, Section), AnalysisError>|
     -> Result<(), AnalysisError> {
        ran = true;
        let before = profiler.map(|p| p.snapshot()).unwrap_or_default();
        let started = Instant::now();
        let (text, mut section) = run(workers)?;
        let wall_ms = started.elapsed().as_secs_f64() * 1e3;
        let phases = profiler
            .map(|p| p.snapshot().saturating_sub(&before))
            .unwrap_or_default();
        section.timing_ms(&format!("bench.{name}"), wall_ms);
        bench_entries.push(BenchEntry {
            name: name.to_owned(),
            wall_ms,
            newton_iterations: section
                .counters
                .get("solver.newton_iterations")
                .copied()
                .unwrap_or(0),
            linear_only: !section.counters.contains_key("solver.newton_iterations"),
            workers,
            factor_reuse_hits: section
                .counters
                .get("solver.factor_reuse_hits")
                .copied()
                .unwrap_or(0),
            factor_reuse_misses: section
                .counters
                .get("solver.factor_reuse_misses")
                .copied()
                .unwrap_or(0),
            hazards: prefix_sum(&section, "solver.hazard."),
            demotions: prefix_sum(&section, "solver.demote."),
            refinement_rounds: section
                .counters
                .get("solver.refinement.rounds")
                .copied()
                .unwrap_or(0),
            phases,
        });
        println!("{text}\n");
        report.push(section);
        Ok(())
    };
    let want = |tag: &str| which == tag || which == "all";

    if want("e1") {
        run_one("e1", &|_| {
            let r = experiments::e1::run_instrumented(4e-6, profiler.cloned());
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e2") {
        run_one("e2", &|_| {
            let r = experiments::e2::run(0.05);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e3") {
        run_one("e3", &|_| {
            let r = experiments::e3::run();
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e4") {
        run_one("e4", &|_| {
            let r = experiments::e4::run(10, 1996);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e5") {
        run_one("e5", &|_| {
            let r = experiments::e5::run(100);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e6") {
        run_one("e6", &|w| {
            let r = experiments::e6::run_with_hooks(w, hooks)?;
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if which == "e6c1" {
        run_one("e6c1", &|w| {
            let r = experiments::e6::run_circuit1_only_with_hooks(w, hooks)?;
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e7") {
        run_one("e7", &|_| {
            let r = experiments::e7::run(0.1);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("e8") {
        run_one("e8", &|_| {
            let r = experiments::e8::run(50, 1996);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if want("ablation") {
        run_one("ablation", &|w| {
            let r = experiments::ablation::run_with_hooks(w, hooks);
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    if which == "diverge" {
        run_one("diverge", &|w| {
            let r = experiments::diverge::run_with_hooks(w, hooks)?;
            Ok((r.to_string(), r.to_section()))
        })?;
    }
    Ok(ran)
}

/// Renders the `profile` subcommand's cost-attribution table: per-phase
/// self-time, call count and share of all attributed time, followed by
/// a per-experiment attribution summary.
fn render_profile_table(snapshot: &PhaseSnapshot, entries: &[BenchEntry]) -> String {
    let total_ns = snapshot.total_ns();
    let mut table = Table::new(&["phase", "self (ms)", "calls", "share"])
        .align(&[Align::Left, Align::Right, Align::Right, Align::Right]);
    for &phase in Phase::ALL.iter() {
        let ns = snapshot.ns(phase);
        let share = if total_ns == 0 {
            0.0
        } else {
            100.0 * ns as f64 / total_ns as f64
        };
        table.row(&[
            phase.label().to_owned(),
            format!("{:.3}", ns as f64 / 1e6),
            snapshot.calls(phase).to_string(),
            format!("{share:.1} %"),
        ]);
    }
    let mut out = String::from("solver phase cost attribution\n");
    out.push_str(&table.render());
    out.push_str(&format!(
        "total attributed: {:.3} ms\n",
        total_ns as f64 / 1e6
    ));
    for e in entries {
        let attributed_ms = e.phases.total_ns() as f64 / 1e6;
        let line = if e.linear_only {
            format!("{}: linear only (no solver work to attribute)\n", e.name)
        } else {
            format!(
                "{}: {:.3} of {:.3} ms attributed ({:.1} %)\n",
                e.name,
                attributed_ms,
                e.wall_ms,
                if e.wall_ms > 0.0 {
                    100.0 * attributed_ms / e.wall_ms
                } else {
                    0.0
                }
            )
        };
        out.push_str(&line);
        // Factorisation-reuse economy: how many Newton iterations were
        // served by an existing factorisation.
        let decisions = e.factor_reuse_hits + e.factor_reuse_misses;
        if decisions > 0 {
            out.push_str(&format!(
                "{}: factor reuse {}/{} ({:.1} %)\n",
                e.name,
                e.factor_reuse_hits,
                decisions,
                100.0 * e.factor_reuse_hits as f64 / decisions as f64,
            ));
        }
    }
    out
}

fn usage_error(message: &str) -> ExitCode {
    eprintln!(
        "{message}\nusage: experiments [profile] [e1..e8|e6c1|ablation|diverge|all] \
         [--workers N] [--metrics-json PATH] \
         [--canonical-metrics] [--bench-json PATH]\n\
         \x20      [--trace-json PATH] [--journal PATH | --resume PATH] [--chaos SPEC] \
         [--numeric-chaos SPEC] [--degrade abort|continue] [--telemetry DIR]\n\
         \x20      experiments check-report PATH\n\
         \x20      experiments explain PATH [--fault N]\n\
         \x20      experiments watch DIR|JOURNAL [--once] [--json] [--interval MS]\n\
         \x20      experiments bench-diff OLD NEW"
    );
    ExitCode::FAILURE
}

/// The `explain` subcommand: reads a `--metrics-json` report and renders
/// every solver postmortem it carries as a narrative diagnosis.
fn explain_command(args: &[String]) -> ExitCode {
    let mut path: Option<&String> = None;
    let mut fault: Option<&String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--fault" => match it.next() {
                Some(selector) => fault = Some(selector),
                None => return usage_error("--fault needs an index or fault label"),
            },
            tag if !tag.starts_with('-') && path.is_none() => path = Some(arg),
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let Some(path) = path else {
        return usage_error("explain needs a report path");
    };
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    let explained = if explain::looks_like_journal(&text) {
        explain::explain_journal(&text, fault.map(String::as_str))
    } else {
        explain::explain_report(&text, fault.map(String::as_str))
    };
    match explained {
        Ok(rendered) => {
            println!("{rendered}");
            ExitCode::SUCCESS
        }
        Err(err) => {
            eprintln!("{path}: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Milliseconds since the Unix epoch, for judging snapshot freshness.
fn unix_ms() -> f64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0.0, |d| d.as_secs_f64() * 1e3)
}

/// The `watch` subcommand: tails a telemetry directory (or a checkpoint
/// journal) as a refreshing console. `--once` renders a single frame,
/// `--json` emits the raw `mixsig.campaign-status/1` snapshot, and the
/// live loop refreshes every `--interval MS` until the campaign reaches
/// a terminal state.
fn watch_command(args: &[String]) -> ExitCode {
    let mut target: Option<&String> = None;
    let mut once = false;
    let mut json = false;
    let mut interval_ms: u64 = 500;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--once" => once = true,
            "--json" => json = true,
            "--interval" => match it.next().and_then(|v| v.parse::<u64>().ok()) {
                Some(ms) if ms >= 1 => interval_ms = ms,
                _ => return usage_error("--interval needs a positive millisecond count"),
            },
            tag if !tag.starts_with('-') && target.is_none() => target = Some(arg),
            other => return usage_error(&format!("unknown argument '{other}'")),
        }
    }
    let Some(target) = target else {
        return usage_error("watch needs a telemetry directory or journal path");
    };
    let target = std::path::Path::new(target);
    let mut waiting = false;
    loop {
        let view = match watch::observe(target, unix_ms()) {
            Ok(view) => view,
            Err(err) => {
                eprintln!("{}: {err}", target.display());
                return ExitCode::FAILURE;
            }
        };
        match view {
            Some(view) => {
                if json {
                    println!("{}", view.status.to_json().to_json_pretty());
                } else {
                    if !once {
                        // Clear and rehome for the refreshing console.
                        print!("\x1b[2J\x1b[H");
                    }
                    print!("{}", watch::render(&view));
                }
                if once || view.status.is_terminal() {
                    return ExitCode::SUCCESS;
                }
            }
            None if once => {
                eprintln!(
                    "{}: no status snapshot or campaign journal to watch",
                    target.display()
                );
                return ExitCode::FAILURE;
            }
            None => {
                if !waiting {
                    println!("waiting for telemetry in {} ...", target.display());
                    waiting = true;
                }
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(interval_ms));
    }
}

/// The `bench-diff` subcommand: compares every count of two
/// `--bench-json` sidecars and exits nonzero on any difference.
fn bench_diff_command(args: &[String]) -> ExitCode {
    let [old_path, new_path] = args else {
        return usage_error("bench-diff takes exactly two sidecar paths, OLD and NEW");
    };
    let read = |path: &String| {
        fs::read_to_string(path).map_err(|err| format!("cannot read {path}: {err}"))
    };
    let compared = read(old_path)
        .and_then(|old| read(new_path).and_then(|new| bench_diff::diff(&old, &new)));
    match compared {
        Ok(cmp) => {
            print!("{}", bench_diff::render(&cmp));
            if cmp.identical() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(err) => {
            eprintln!("bench-diff: {err}");
            ExitCode::FAILURE
        }
    }
}

/// Validates a run report written by `--metrics-json` (it must parse,
/// carry the expected schema and expose the headline summary keys), or
/// — when the file is a campaign journal — the journal's record stream.
fn check_report(path: &str) -> ExitCode {
    let text = match fs::read_to_string(path) {
        Ok(text) => text,
        Err(err) => {
            eprintln!("cannot read {path}: {err}");
            return ExitCode::FAILURE;
        }
    };
    if explain::looks_like_journal(&text) {
        return check_journal(path, &text);
    }
    let parsed = match obs::json::parse(&text) {
        Ok(parsed) => parsed,
        Err(err) => {
            eprintln!("{path} is not valid JSON: {err}");
            return ExitCode::FAILURE;
        }
    };
    // Chrome-trace timelines (--trace-json) and solver-bench sidecars
    // (--bench-json) have their own validators.
    if obs::trace::looks_like_trace(&parsed) {
        return match obs::trace::validate_trace(&text) {
            Ok(events) => {
                println!("{path}: ok (chrome trace, {events} event(s))");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{path}: invalid trace: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if parsed
        .get("schema")
        .and_then(JsonValue::as_str)
        .is_some_and(|s| s.starts_with("mixsig.campaign-status/"))
    {
        return match obs::status::parse_status(&text) {
            Ok(status) => {
                println!(
                    "{path}: ok (campaign status, {} {}/{} {}, {} worker lane(s))",
                    status.label,
                    status.done,
                    status.total,
                    status.state,
                    status.workers.len()
                );
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{path}: invalid campaign status: {err}");
                ExitCode::FAILURE
            }
        };
    }
    if parsed
        .get("schema")
        .and_then(JsonValue::as_str)
        .is_some_and(|s| s.starts_with("mixsig.solver-bench/"))
    {
        return match solver_bench::validate(&text) {
            Ok(entries) => {
                println!("{path}: ok (solver bench, {entries} experiment(s))");
                ExitCode::SUCCESS
            }
            Err(err) => {
                eprintln!("{path}: invalid solver bench: {err}");
                ExitCode::FAILURE
            }
        };
    }
    let mut failures = Vec::new();
    if parsed.get("schema").and_then(JsonValue::as_str) != Some(obs::report::SCHEMA) {
        failures.push(format!("schema is not {}", obs::report::SCHEMA));
    }
    match parsed.get("summary") {
        None => failures.push("summary block missing".to_owned()),
        Some(summary) => {
            for key in [
                "coverage",
                "newton_iterations",
                "rung_histogram",
                "wall_ms",
                "journal_degraded",
            ] {
                if summary.get(key).is_none() {
                    failures.push(format!("summary.{key} missing"));
                }
            }
            if let Some(wall) = summary.get("wall_ms") {
                if wall.get("count").and_then(JsonValue::as_f64).is_none() {
                    failures.push("summary.wall_ms.count missing".to_owned());
                }
            }
        }
    }
    match parsed.get("sections").and_then(JsonValue::as_array) {
        Some(sections) if !sections.is_empty() => {}
        _ => failures.push("sections missing or empty".to_owned()),
    }
    // Any postmortems the report carries must decode: a frozen trace,
    // a named worst node and a ladder are what `explain` renders, so a
    // structurally broken one fails the smoke test here rather than at
    // diagnosis time.
    let postmortems = match explain::collect_postmortems(&parsed) {
        Ok(postmortems) => {
            for (label, pm) in &postmortems {
                if pm.trace.is_empty() {
                    failures.push(format!("postmortem {label}: empty iteration trace"));
                }
                if pm.worst_nodes.is_empty() {
                    failures.push(format!("postmortem {label}: no worst-node histogram"));
                }
                if pm.ladder.is_empty() {
                    failures.push(format!("postmortem {label}: empty escalation ladder"));
                }
            }
            postmortems.len()
        }
        Err(err) => {
            failures.push(format!("postmortems invalid: {err}"));
            0
        }
    };
    if failures.is_empty() {
        let summary = parsed.get("summary").expect("checked above");
        let degraded = summary
            .get("journal_degraded")
            .and_then(JsonValue::as_f64)
            .unwrap_or(0.0);
        let degraded_note = if degraded > 0.0 {
            format!("; JOURNAL DEGRADED: {degraded} fault outcome(s) unjournaled")
        } else {
            String::new()
        };
        println!(
            "{path}: ok (coverage {:?}, {} Newton iterations, {postmortems} postmortem(s){degraded_note})",
            summary.get("coverage").and_then(JsonValue::as_f64),
            summary
                .get("newton_iterations")
                .and_then(JsonValue::as_f64)
                .unwrap_or(0.0)
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("{path}: {failure}");
        }
        ExitCode::FAILURE
    }
}

/// Validates a `mixsig.campaign-journal/1` file: every record must
/// decode, and every journaled fault must be consistent with its
/// campaign's fault universe. A torn trailing line is fine (that is the
/// format's crash contract); anything else structurally wrong fails.
fn check_journal(path: &str, text: &str) -> ExitCode {
    let replay = match obs::journal::parse_journal(text)
        .and_then(|contents| faultsim::journal::replay(&contents))
    {
        Ok(replay) => replay,
        Err(err) => {
            eprintln!("{path}: invalid journal: {err}");
            return ExitCode::FAILURE;
        }
    };
    let mut failures = Vec::new();
    if replay.campaigns.is_empty() {
        failures.push("journal has no campaign start record".to_owned());
    }
    for (label, campaign) in &replay.campaigns {
        for fault in campaign.faults.values() {
            match campaign.names.get(fault.index) {
                None => failures.push(format!(
                    "campaign {label}: fault index {} outside universe of {}",
                    fault.index,
                    campaign.names.len()
                )),
                Some(name) if *name != fault.name => failures.push(format!(
                    "campaign {label}: fault {} journaled as '{}' but universe says '{name}'",
                    fault.index, fault.name
                )),
                Some(_) => {}
            }
        }
    }
    if failures.is_empty() {
        let summary: Vec<String> = replay
            .campaigns
            .iter()
            .map(|(label, c)| {
                let state = match c.state() {
                    ReplayedState::Degraded(d) => {
                        format!("degraded ({} unjournaled: {})", d.unjournaled, d.reason)
                    }
                    other => other.label().to_owned(),
                };
                // `StatusRollup`, the fold the live status snapshot
                // keeps, so the two progress views cannot disagree.
                let rollup = msbist_bench::watch::fold_campaign(label, c, None);
                format!(
                    "{label} {}/{} {state} ({} detected, {} undetected, {} failed)",
                    c.faults.len(),
                    c.names.len(),
                    rollup.detected,
                    rollup.undetected,
                    rollup.failed
                )
            })
            .collect();
        println!(
            "{path}: ok ({}{})",
            summary.join(", "),
            if replay.torn_tail { "; torn tail" } else { "" }
        );
        ExitCode::SUCCESS
    } else {
        for failure in &failures {
            eprintln!("{path}: {failure}");
        }
        ExitCode::FAILURE
    }
}
