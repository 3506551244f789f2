//! The mixsig benchmark: two closed-loop workloads, one caller on one
//! thread, each checking its own outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig4|adc_bist --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` the run repeats whole passes over the workload's
//! inputs for about `--seconds` (at least [`MIN_PASSES`]) and reports
//! end-to-end metrics as medians over the passes, scaled to a reference
//! host speed by the calibration kernel timed between ops ([`calib`]).
//! With
//! `--trace 1` it alternates untraced and traced passes over the same
//! inputs and reports per-layer metrics. The last line of standard
//! output is the result object; the line before it carries the run's
//! metadata (machine, load, code identity, sample counts). See
//! `perfbench/README.md` for what each workload and metric isolates.

mod adc;
mod calib;
mod fig4;
mod probe;
mod sys;

use std::fs;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use obs::json::JsonValue;
use obs::profile::Phase;

use crate::probe::{Pass, Probe, Tally};

/// Set-up repetitions before the first pass. An untraced run sets up
/// once more before every later pass, so the reps spread over the run
/// and a burst of contention moves one of them, not the median.
const SETUP_REPS: usize = 3;

/// Fewest passes an untraced run measures, so every time is a median of
/// several and a burst of contention moves one pass, not the result.
const MIN_PASSES: usize = 5;

/// A percentile is only reported with at least this many samples above
/// it.
const MIN_BEYOND: usize = 10;

const WORKLOADS: [&str; 2] = ["fig4", "adc_bist"];

/// Dies per `adc_bist` pass: enough ops that the p70 over them has ten
/// beyond it, few enough that a run repeats each die many times.
const ADC_DIES: usize = 40;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    emit_reference: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        emit_reference: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--emit-fig4-reference" {
            args.emit_reference = true;
            args.workload = "fig4".into();
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value != "0",
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

enum Workload {
    Fig4(Box<fig4::Fig4>),
    Adc(adc::AdcBist),
}

impl Workload {
    fn setup(args: &Args, scratch: &Path) -> Workload {
        match args.workload.as_str() {
            "fig4" => Workload::Fig4(Box::new(fig4::Fig4::setup(scratch))),
            _ => Workload::Adc(adc::AdcBist::setup(args.seed, ADC_DIES)),
        }
    }

    fn pass(&mut self, probe: &mut Probe) -> Pass {
        match self {
            Workload::Fig4(w) => w.pass(probe),
            Workload::Adc(w) => w.pass(probe),
        }
    }

    fn ops_per_pass(&self) -> usize {
        match self {
            Workload::Fig4(w) => w.ops_per_pass(),
            Workload::Adc(w) => w.ops_per_pass(),
        }
    }
}

/// One measured pass. Its wall and CPU times leave out the calibration
/// kernel's runs.
struct Measured {
    pass: Pass,
    wall_s: f64,
    cpu_s: f64,
}

fn measure(workload: &mut Workload, probe: &mut Probe) -> Measured {
    let cpu = sys::cpu_seconds();
    let start = Instant::now();
    let pass = workload.pass(probe);
    let wall_s = start.elapsed().as_secs_f64();
    let cpu_s = sys::cpu_seconds() - cpu;
    let calib_s = pass.calib_ms.iter().sum::<f64>() * 1e-3;
    Measured {
        wall_s: wall_s - calib_s,
        cpu_s: cpu_s - calib_s,
        pass,
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let build_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(Path::to_path_buf))
        .unwrap_or_else(|| root.clone());
    let scratch =
        build_dir
            .join("perfbench-tmp")
            .join(format!("{}-{}", args.workload, std::process::id()));
    fs::create_dir_all(&scratch).expect("create scratch directory");
    if args.emit_reference {
        let mut bench = fig4::Fig4::setup(&scratch);
        bench.pass(&mut Probe::off());
        let _ = fs::remove_dir_all(&scratch);
        println!("# method\tcircuit\tfault\tverdict\tpct");
        for entry in &bench.table {
            println!("{}", entry.to_line());
        }
        return ExitCode::SUCCESS;
    }

    let load_before = sys::loadavg_1m();
    let mut meta = JsonValue::object();
    let outcome = run(&args, &scratch, &mut meta);
    let _ = fs::remove_dir_all(&scratch);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };

    meta.push("workload", JsonValue::Str(args.workload.clone()));
    meta.push("seed", JsonValue::Num(args.seed as f64));
    meta.push("trace", JsonValue::Bool(args.trace));
    meta.push("nproc", JsonValue::Num(sys::nproc() as f64));
    meta.push("cpu_model", JsonValue::Str(sys::cpu_model()));
    meta.push("loadavg_1m_before", JsonValue::Num(load_before));
    meta.push("loadavg_1m_after", JsonValue::Num(sys::loadavg_1m()));
    meta.push(
        "commit",
        sys::git_commit(&root).map_or(JsonValue::Null, JsonValue::Str),
    );
    let digest = sys::source_digest(&root);
    let drift = check_counts(&args, &outcome, &digest, &build_dir);
    meta.push("source_digest", JsonValue::Str(digest));
    if let Err(e) = &drift {
        eprintln!("perfbench: COUNT DRIFT: {e}");
        meta.push("count_drift", JsonValue::Str(e.clone()));
    }
    for failure in &outcome.failures {
        eprintln!("perfbench: failed op: {failure}");
    }
    let mut wrapper = JsonValue::object();
    wrapper.push("meta", meta);
    println!("{}", wrapper.to_json());

    let correct = outcome.failed == 0 && drift.is_ok();
    let mut metrics = JsonValue::object();
    for (name, value, unit) in &outcome.metrics {
        let mut m = JsonValue::object();
        m.push("value", JsonValue::Num(*value));
        m.push("unit", JsonValue::Str((*unit).to_owned()));
        metrics.push(name, m);
    }
    let mut result = JsonValue::object();
    result.push("correct", JsonValue::Bool(correct));
    result.push("attempted", JsonValue::Num(outcome.attempted as f64));
    result.push("failed", JsonValue::Num(outcome.failed as f64));
    result.push("metrics", metrics);
    println!("{}", result.to_json());
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

struct Outcome {
    /// (name, value, unit), in `BENCHMARK.json` order.
    metrics: Vec<(&'static str, f64, &'static str)>,
    attempted: usize,
    failed: usize,
    failures: Vec<String>,
    /// Ops per pass.
    size: usize,
    /// The counts of one pass over the workload's inputs.
    tally: Tally,
}

/// Set-up timings of one run.
struct SetUp<'a> {
    args: &'a Args,
    scratch: &'a Path,
    seconds: Vec<f64>,
}

impl SetUp<'_> {
    fn once(&mut self) -> Workload {
        let start = Instant::now();
        let workload = Workload::setup(self.args, self.scratch);
        self.seconds.push(start.elapsed().as_secs_f64());
        workload
    }
}

fn run(args: &Args, scratch: &Path, meta: &mut JsonValue) -> Result<Outcome, String> {
    let mut setup = SetUp {
        args,
        scratch,
        seconds: Vec::new(),
    };
    let reps = if args.trace { 1 } else { SETUP_REPS };
    let mut workload = setup.once();
    for _ in 1..reps {
        workload = setup.once();
    }
    meta.push("size", JsonValue::Num(workload.ops_per_pass() as f64));
    if args.trace {
        traced_run(&mut workload, args.seconds, meta)
    } else {
        untraced_run(&mut setup, workload, meta)
    }
}

/// Repeats whole passes until about `--seconds` have been measured and
/// at least [`MIN_PASSES`] passes ran, setting up afresh before each
/// later pass; reports the end-to-end metrics.
fn untraced_run(
    setup: &mut SetUp,
    mut workload: Workload,
    meta: &mut JsonValue,
) -> Result<Outcome, String> {
    let seconds = setup.args.seconds;
    let start = Instant::now();
    let mut passes: Vec<Measured> = Vec::new();
    loop {
        if !passes.is_empty() {
            workload = setup.once();
        }
        passes.push(measure(&mut workload, &mut Probe::off()));
        let walls: Vec<f64> = passes.iter().map(|m| m.wall_s).collect();
        // Stop unless another pass would still end before half a pass
        // past the deadline.
        if passes.len() >= MIN_PASSES
            && start.elapsed().as_secs_f64() + median(&walls) / 2.0 > seconds
        {
            break;
        }
    }
    let first = passes[0].pass.tally.fingerprint();
    for (i, m) in passes.iter().enumerate().skip(1) {
        let again = m.pass.tally.fingerprint();
        if again != first {
            return Err(format!(
                "pass {i} counts differ from pass 0 on the same inputs: {}",
                diff(&first, &again)
            ));
        }
    }

    let attempted: usize = passes.iter().map(|m| m.pass.ops.len()).sum();
    let failed: usize = passes.iter().map(|m| m.pass.failed()).sum();

    // Every time below is a median over the run, measured on this host,
    // times `scale`: the reference kernel time over the kernel's median
    // time in this run.
    let calib_ms: Vec<f64> = passes
        .iter()
        .flat_map(|m| m.pass.calib_ms.iter().copied())
        .collect();
    let scale = calib::REFERENCE_MS / median(&calib_ms);
    let mut op_ms: Vec<f64> = (0..passes[0].pass.ops.len())
        .map(|i| {
            let repeats: Vec<f64> = passes.iter().map(|m| m.pass.ops[i].ms).collect();
            median(&repeats) * scale
        })
        .collect();
    op_ms.sort_by(f64::total_cmp);
    let (p50, beyond50) = percentile(&op_ms, 0.50)?;
    let (p70, beyond70) = percentile(&op_ms, 0.70)?;

    let walls: Vec<f64> = passes.iter().map(|m| m.wall_s).collect();
    let cpus: Vec<f64> = passes.iter().map(|m| m.cpu_s).collect();
    let wall_s = median(&walls) * scale;
    let per_pass = &passes[0].pass;
    let list = |v: &[f64]| JsonValue::Arr(v.iter().map(|&x| JsonValue::Num(x)).collect());
    meta.push("passes", JsonValue::Num(passes.len() as f64));
    meta.push("setups", JsonValue::Num(setup.seconds.len() as f64));
    meta.push("ops", JsonValue::Num(attempted as f64));
    meta.push("op_ms_samples", JsonValue::Num(op_ms.len() as f64));
    meta.push("op_ms_p50_beyond", JsonValue::Num(beyond50 as f64));
    meta.push("op_ms_p70_beyond", JsonValue::Num(beyond70 as f64));
    meta.push("calib_samples", JsonValue::Num(calib_ms.len() as f64));
    meta.push("calib_ms_median", JsonValue::Num(median(&calib_ms)));
    meta.push("scale", JsonValue::Num(scale));
    meta.push("unscaled_setup_s", JsonValue::Num(median(&setup.seconds)));
    meta.push("unscaled_wall_s", JsonValue::Num(median(&walls)));
    meta.push("pass_wall_s", list(&walls));
    meta.push("pass_cpu_s", list(&cpus));
    let metrics = vec![
        ("setup_s", median(&setup.seconds) * scale, "s"),
        ("wall_s", wall_s, "s"),
        ("ops_per_s", per_pass.ops.len() as f64 / wall_s, "1/s"),
        ("op_ms_p50", p50, "ms"),
        ("op_ms_p70", p70, "ms"),
        ("sim_s_per_s", per_pass.sim_s / wall_s, "s/s"),
        ("peak_rss_mb", sys::peak_rss_mb(), "MiB"),
        (
            "op_pass_ratio",
            (attempted - failed) as f64 / attempted as f64,
            "ratio",
        ),
    ];
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures: passes
            .iter()
            .flat_map(|m| m.pass.failures.clone())
            .collect(),
        size: workload.ops_per_pass(),
        tally: passes.swap_remove(0).pass.tally,
    })
}

/// Alternates untraced and traced passes over the same inputs until
/// about `--seconds` have passed (at least one pair); reports each
/// per-layer metric as its median over the pairs.
fn traced_run(
    workload: &mut Workload,
    seconds: f64,
    meta: &mut JsonValue,
) -> Result<Outcome, String> {
    let start = Instant::now();
    let mut plain_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut pairs: Vec<Vec<(&'static str, f64, &'static str)>> = Vec::new();
    let (mut attempted, mut failed, mut failures) = (0, 0, Vec::new());
    let mut first: Option<Tally> = None;
    loop {
        let plain = measure(workload, &mut Probe::off());
        let mut probe = Probe::on();
        let traced = measure(workload, &mut probe);
        let reference = first.get_or_insert_with(|| plain.pass.tally.clone());
        for (what, m) in [("untraced", &plain), ("traced", &traced)] {
            let (a, b) = (reference.fingerprint(), m.pass.tally.fingerprint());
            if a != b {
                return Err(format!(
                    "{what} counts differ from the first untraced pass: {}",
                    diff(&a, &b)
                ));
            }
            attempted += m.pass.ops.len();
            failed += m.pass.failed();
            failures.extend(m.pass.failures.iter().cloned());
        }
        pairs.push(layer_metrics(&plain, &traced, &probe));
        plain_walls.push(plain.wall_s);
        traced_walls.push(traced.wall_s);
        let pair_s = plain.wall_s + traced.wall_s;
        if start.elapsed().as_secs_f64() + pair_s / 2.0 > seconds {
            break;
        }
    }
    meta.push("pairs", JsonValue::Num(pairs.len() as f64));
    let list = |v: &[f64]| JsonValue::Arr(v.iter().map(|&x| JsonValue::Num(x)).collect());
    meta.push("untraced_wall_s", list(&plain_walls));
    meta.push("traced_wall_s", list(&traced_walls));

    let mut metrics: Vec<_> = pairs[0]
        .iter()
        .enumerate()
        .map(|(i, &(name, _, unit))| {
            let values: Vec<f64> = pairs.iter().map(|p| p[i].1).collect();
            (name, median(&values), unit)
        })
        .collect();
    metrics.push((
        "trace.overhead_ratio",
        median(&traced_walls) / median(&plain_walls),
        "ratio",
    ));
    Ok(Outcome {
        metrics,
        attempted,
        failed,
        failures,
        size: workload.ops_per_pass(),
        tally: first.expect("at least one pair"),
    })
}

/// The per-layer metrics of one untraced/traced pair of passes.
fn layer_metrics(
    plain: &Measured,
    traced: &Measured,
    probe: &Probe,
) -> Vec<(&'static str, f64, &'static str)> {
    let profiler = probe.profiler().expect("armed probe").snapshot();
    let phase_s = |p: Phase| profiler.ns(p) as f64 * 1e-9;
    let per_call_ns = |p: Phase| {
        let calls = profiler.calls(p);
        if calls == 0 {
            0.0
        } else {
            profiler.ns(p) as f64 / calls as f64
        }
    };
    let tally = &traced.pass.tally;
    let solver = &tally.solver;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let hazards: u64 = solver.hazards().iter().map(|(_, n)| n).sum();
    let demotions: u64 = solver.demotions().iter().map(|(_, n)| n).sum();
    let newton = solver.newton_iterations;
    let steps = solver.steps_accepted;
    let phased_s = profiler.total_ns() as f64 * 1e-9;
    vec![
        ("anasim.device_eval_s", phase_s(Phase::DeviceEval), "s"),
        ("anasim.stamp_s", phase_s(Phase::Stamp), "s"),
        ("anasim.residual_s", phase_s(Phase::Residual), "s"),
        ("anasim.step_control_s", phase_s(Phase::StepControl), "s"),
        ("anasim.dc_solve_s", phase_s(Phase::DcSolve), "s"),
        (
            "anasim.device_eval_ns",
            per_call_ns(Phase::DeviceEval),
            "ns",
        ),
        (
            "linsys.back_substitute_s",
            phase_s(Phase::BackSubstitute),
            "s",
        ),
        (
            "linsys.back_substitute_ns",
            per_call_ns(Phase::BackSubstitute),
            "ns",
        ),
        ("linsys.factor_s", phase_s(Phase::Factor), "s"),
        ("linsys.refactor_s", phase_s(Phase::Refactor), "s"),
        ("linsys.symbolic_s", phase_s(Phase::Symbolic), "s"),
        ("anasim.newton_iters", newton as f64, "count"),
        ("anasim.steps_accepted", steps as f64, "count"),
        (
            "anasim.steps_rejected",
            solver.steps_rejected as f64,
            "count",
        ),
        ("anasim.newton_per_step", ratio(newton, steps), "ratio"),
        ("anasim.dc_gmin_steps", solver.dc_gmin_steps as f64, "count"),
        (
            "linsys.factor_calls",
            solver.factor_reuse_misses as f64,
            "count",
        ),
        (
            "linsys.reuse_ratio",
            ratio(
                solver.factor_reuse_hits,
                solver.factor_reuse_hits + solver.factor_reuse_misses,
            ),
            "ratio",
        ),
        ("anasim.hazards", hazards as f64, "count"),
        ("anasim.demotions", demotions as f64, "count"),
        (
            "anasim.ns_per_newton_iter",
            ns_per(plain.cpu_s, newton),
            "ns",
        ),
        ("anasim.ns_per_step", ns_per(plain.cpu_s, steps), "ns"),
        ("faultsim.golden_s", probe.span_s("faultsim.golden"), "s"),
        ("faultsim.fault_s", probe.span_s("faultsim.fault"), "s"),
        (
            "faultsim.overhead_s",
            probe.span_s("faultsim.overhead"),
            "s",
        ),
        ("faultsim.replay_s", probe.span_s("faultsim.replay"), "s"),
        ("obs.journal_bytes", tally.journal_bytes as f64, "bytes"),
        ("obs.journal_records", tally.journal_records as f64, "count"),
        (
            "msbist.quick_test_s",
            probe.span_s("msbist.quick_test"),
            "s",
        ),
        (
            "msbist.circuit_convert_s",
            probe.span_s("msbist.circuit_convert"),
            "s",
        ),
        (
            "msbist.cosim_convert_s",
            probe.span_s("msbist.cosim_convert"),
            "s",
        ),
        ("msbist.impulse_s", probe.span_s("msbist.impulse"), "s"),
        ("msbist.conversions", tally.conversions as f64, "count"),
        ("macrolib.build_s", probe.span_s("macrolib.build"), "s"),
        (
            "profile.other_s",
            (traced.wall_s - probe.covered_s()).max(0.0),
            "s",
        ),
        ("profile.phase_ratio", phased_s / traced.wall_s, "ratio"),
    ]
}

fn ns_per(cpu_s: f64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        cpu_s * 1e9 / count as f64
    }
}

/// Compares this run's counts with those an earlier run of the same
/// code, workload, seed and size stored in the build directory. When
/// there are none yet, stores them, but only from a run whose outputs
/// all checked out, so a wrong run never becomes the reference.
fn check_counts(
    args: &Args,
    outcome: &Outcome,
    digest: &str,
    build_dir: &Path,
) -> Result<(), String> {
    let seed = if args.workload == "fig4" {
        0
    } else {
        args.seed
    };
    let dir = build_dir.join("perfbench-counts");
    let file = dir.join(format!(
        "{}-seed{seed}-size{}-{digest}.txt",
        args.workload, outcome.size
    ));
    let tally = &outcome.tally;
    let now = tally.fingerprint();
    let text: String = now.iter().map(|(k, v)| format!("{k} {v}\n")).collect();
    match fs::read_to_string(&file) {
        Ok(stored) if stored == text => Ok(()),
        Ok(stored) => {
            let before: Vec<(String, u64)> = stored
                .lines()
                .filter_map(|l| {
                    let (k, v) = l.split_once(' ')?;
                    Some((k.to_owned(), v.parse().ok()?))
                })
                .collect();
            Err(format!(
                "counts differ from an earlier run of the same code and seed: {}",
                diff(&before, &now)
            ))
        }
        Err(_) if outcome.failed > 0 => {
            eprintln!("perfbench: failed ops, so no count baseline was stored");
            Ok(())
        }
        Err(_) => {
            fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
            fs::write(&file, text).map_err(|e| e.to_string())
        }
    }
}

fn diff(a: &[(String, u64)], b: &[(String, u64)]) -> String {
    let moved: Vec<String> = a
        .iter()
        .zip(b)
        .filter(|(x, y)| x != y)
        .map(|((k, x), (_, y))| format!("{k} {x} -> {y}"))
        .collect();
    moved.join(", ")
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of sorted `samples` and the number of
/// samples above it; refuses a percentile with fewer than
/// [`MIN_BEYOND`] samples beyond it.
fn percentile(samples: &[f64], q: f64) -> Result<(f64, usize), String> {
    let n = samples.len();
    let rank = ((q * n as f64).ceil() as usize).max(1);
    let beyond = n - rank;
    if beyond < MIN_BEYOND {
        return Err(format!(
            "p{:.0} of {n} samples has only {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok((samples[rank - 1], beyond))
}
