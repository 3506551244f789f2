//! Arming an analysis's instruments must not change a single simulated
//! bit: the profiler reads the clock and bumps atomics, the flight
//! recorder copies iterations into a ring, an inert numeric-chaos state
//! only counts attempts, and an untripped cancel token is only polled.
//! These tests run the same nonlinear transient and DC solve with only
//! counters attached and with the other instruments armed, and require
//! bit-identical solutions and byte-identical canonical solver counters.

use std::sync::Arc;

use anasim::dc::{dc_operating_point_solver, DcOptions};
use anasim::flight::FlightRecorder;
use anasim::metrics::{SolverMetrics, SolverSnapshot, COUNTER_NAMES};
use anasim::netlist::Netlist;
use anasim::robust::{CancelToken, Instruments, SolveSettings};
use anasim::solver::SolverContext;
use anasim::source::SourceWaveform;
use anasim::transient::TransientAnalysis;
use anasim::AnalysisError;
use obs::profile::PhaseProfiler;
use obs::NumericChaosPlan;

/// A diode clipper: nonlinear, so the Newton loop (and with it every
/// profiled phase) actually runs.
fn clipper() -> Netlist {
    let mut nl = Netlist::new();
    let a = nl.node("in");
    let b = nl.node("out");
    nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::step(2.0, 1e-6));
    nl.resistor("R1", a, b, 1e3);
    nl.capacitor("C1", b, Netlist::GROUND, 1e-9);
    nl.diode("D1", b, Netlist::GROUND, anasim::devices::DiodeParams::default());
    nl
}

/// Counters only: the reference every armed run must match.
fn counters_only() -> Instruments {
    Instruments {
        metrics: Some(Arc::new(SolverMetrics::new())),
        ..Instruments::default()
    }
}

/// Counters plus every other instrument: profiler, flight recorder,
/// a numeric-chaos state whose window never opens, and a cancel token
/// nobody raises.
fn fully_armed() -> Instruments {
    let inert = NumericChaosPlan::parse("pivot@99999999").expect("valid spec");
    Instruments {
        profile: Some(Arc::new(PhaseProfiler::new())),
        flight: Some(Arc::new(FlightRecorder::new(
            FlightRecorder::DEFAULT_CAPACITY,
        ))),
        chaos: Some(Arc::new(inert.arm())),
        cancel: Some(CancelToken::new()),
        ..counters_only()
    }
}

/// Runs the transient under `instruments` and returns the output
/// waveform bits plus the instruments' snapshot.
fn run_transient(instruments: &Instruments) -> (Vec<u64>, SolverSnapshot) {
    let nl = clipper();
    let out = nl.find_node("out").expect("node out");
    let settings = SolveSettings {
        instruments: instruments.clone(),
        ..SolveSettings::default()
    };
    let result = TransientAnalysis::new(20e-6, 0.5e-6)
        .with_settings(&settings)
        .run(&nl)
        .expect("clipper converges");
    let w = result.voltage(out);
    let bits = (0..40)
        .map(|k| w.value_at(k as f64 * 0.5e-6).to_bits())
        .collect();
    (bits, instruments.snapshot())
}

/// Solves the clipper's operating point after the step, with the diode
/// conducting, under `instruments`; returns the solution bits plus the
/// instruments' snapshot.
fn run_dc(instruments: &Instruments) -> (Vec<u64>, SolverSnapshot) {
    let options = DcOptions {
        time: 5e-6,
        ..DcOptions::default()
    };
    let op = dc_operating_point_solver(
        &clipper(),
        &options,
        instruments,
        None,
        &mut SolverContext::default(),
    )
    .expect("clipper operating point converges");
    let bits = op.solution().iter().map(|v| v.to_bits()).collect();
    (bits, instruments.snapshot())
}

/// The counters as a canonical report would print them.
fn canonical(snap: &SolverSnapshot) -> String {
    let counters: Vec<_> = COUNTER_NAMES.iter().zip(snap.as_array()).collect();
    format!("{counters:?}")
}

/// Asserts an armed run observed the solve and left its result and
/// canonical counters exactly as the counters-only run did.
fn assert_observation_only(
    plain: (Vec<u64>, SolverSnapshot),
    armed: (Vec<u64>, SolverSnapshot),
    instruments: &Instruments,
) {
    assert_eq!(plain.0, armed.0, "armed instruments moved a simulated bit");
    assert!(plain.1.newton_iterations > 0);
    assert_eq!(plain.1.as_array(), armed.1.as_array());
    assert_eq!(canonical(&plain.1), canonical(&armed.1));
    // Phase time shows only when a profiler is armed.
    assert!(plain.1.phases.is_empty());
    assert_eq!(armed.1.phases.is_empty(), instruments.profile.is_none());
    if let Some(flight) = &instruments.flight {
        let pm = flight.freeze("probe", &AnalysisError::Cancelled, None);
        assert!(pm.total_iterations > 0, "the flight recorder saw no iteration");
    }
    if let Some(chaos) = &instruments.chaos {
        assert_eq!(chaos.injected(), 0, "an inert chaos plan fired");
    }
}

/// The armed variants: the profiler alone, everything, and everything
/// but the profiler.
fn armed_variants() -> [Instruments; 3] {
    [
        Instruments {
            profile: Some(Arc::new(PhaseProfiler::new())),
            ..counters_only()
        },
        fully_armed(),
        Instruments {
            profile: None,
            ..fully_armed()
        },
    ]
}

#[test]
fn armed_instruments_change_no_transient_bit() {
    for armed in armed_variants() {
        assert_observation_only(
            run_transient(&counters_only()),
            run_transient(&armed),
            &armed,
        );
    }
}

#[test]
fn armed_instruments_change_no_dc_bit() {
    for armed in armed_variants() {
        assert_observation_only(run_dc(&counters_only()), run_dc(&armed), &armed);
    }
}

#[test]
fn default_settings_never_touch_the_clock_path() {
    // The plain entry point — no settings at all — is the same
    // disarmed fast path as counters-only instruments.
    let nl = clipper();
    let out = nl.find_node("out").expect("node out");
    let plain = TransientAnalysis::new(20e-6, 0.5e-6)
        .run(&nl)
        .expect("clipper converges");

    let (bits, snap) = run_transient(&counters_only());
    assert!(snap.phases.is_empty());
    assert!(snap.newton_iterations > 0);
    let w = plain.voltage(out);
    let plain_bits: Vec<u64> = (0..40)
        .map(|k| w.value_at(k as f64 * 0.5e-6).to_bits())
        .collect();
    assert_eq!(plain_bits, bits);
}
