//! Mixed-signal co-simulation: the analogue dual-slope loop in the MNA
//! transient engine, clocked by the gate-level control FSM.
//!
//! This is the full macro with *both halves live*: the integrator,
//! comparator and input switching run as an `anasim` netlist stepped by
//! a resumable [`anasim::transient::TransientSession`], while the
//! control logic is the flip-flop-and-gate realisation from
//! `digisim::structural`. Each conversion clock tick, the controller's
//! phase steers the analogue drive source and the comparator's analogue
//! output is sampled back into the FSM — exactly the loop the fabricated
//! macro closes on silicon.
//!
//! Each macro prepares its input-independent start-up (the DC operating
//! point, the controller reset and the settling tick) once and runs
//! every conversion on a copy of it; the solver counters show what the
//! co-simulation's analogue half cost.
//!
//! Run with: `cargo run --release --example cosimulation`

use std::sync::Arc;

use anasim::metrics::SolverMetrics;
use macrolib::process::{ProcessParams, VariationModel};
use msbist::adc::{AdcConverter, CosimAdc, DualSlopeAdc};

fn main() {
    // A 50-count version of the macro (same integrator design, faster
    // clock) keeps each conversion to ~150 analogue-digital ticks.
    let counts = 50u64;
    let metrics = Arc::new(SolverMetrics::new());
    let cosim = CosimAdc::new(ProcessParams::nominal())
        .with_resolution(counts)
        .with_metrics(Arc::clone(&metrics));
    let behavioural = DualSlopeAdc::ideal();
    let scale = behavioural.full_count() as f64 / counts as f64;

    println!("co-simulated dual-slope conversion ({counts} counts, LSB = {:.0} mV)", cosim.lsb() * 1e3);
    println!();
    println!("  vin (V)   cosim code   ticks   behavioural model (scaled)");
    for vin in [0.25, 0.75, 1.25, 1.75, 2.25] {
        let conv = cosim.convert(vin).expect("conversion converges");
        let model = behavioural.convert(vin) as f64 / scale;
        println!(
            "   {vin:.2}        {:>3}        {:>3}          {model:.1}",
            conv.code, conv.ticks
        );
    }
    let solver = metrics.snapshot();
    println!(
        "  analogue cost: {} Newton iterations over {} accepted steps",
        solver.newton_iterations, solver.steps_accepted
    );

    // The same loop on a process-skewed die: the integrator RC shifts,
    // but dual-slope conversion is ratiometric — the code barely moves.
    // This is the architectural insight the paper's macro relies on.
    let mut skewed = ProcessParams::nominal();
    skewed.resistor_scale = 1.15;
    skewed.capacitor_scale = 0.90;
    let cosim_skewed = CosimAdc::new(skewed).with_resolution(counts);
    println!();
    println!("process-skewed die (R +15 %, C -10 %): ratiometric immunity");
    println!("  vin (V)   nominal   skewed");
    for vin in [0.75, 1.75] {
        let a = cosim.convert(vin).expect("nominal converges").code;
        let b = cosim_skewed.convert(vin).expect("skewed converges").code;
        println!("   {vin:.2}       {a:>3}       {b:>3}");
    }

    let _ = VariationModel::typical(); // see device::DieBatch for population runs
}
