//! Integration: cross-checks between independent substrates — the
//! circuit simulator (`anasim`), the linear-systems toolbox (`linsys`)
//! and the DSP layer (`sigproc`) must agree on shared physics.

use mixsig::anasim::netlist::Netlist;
use mixsig::anasim::source::SourceWaveform;
use mixsig::anasim::transient::{StartCondition, TransientAnalysis};
use mixsig::linsys::response::{impulse_response, step_response};
use mixsig::linsys::transfer::ContinuousTransferFunction;
use mixsig::macrolib::process::ProcessParams;
use mixsig::macrolib::sc_integrator::{ScIntegrator, ScIntegratorParams};
use mixsig::sigproc::measure::{first_crossing_after, CrossingDirection};

/// RC low-pass: the circuit simulator and the state-space model must
/// produce the same step response.
#[test]
fn rc_circuit_matches_state_space_model() {
    let r = 10e3;
    let c = 1e-9; // tau = 10 us

    // Circuit.
    let mut nl = Netlist::new();
    let vin = nl.node("in");
    let out = nl.node("out");
    nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
    nl.resistor("R1", vin, out, r);
    nl.capacitor("C1", out, Netlist::GROUND, c);
    let res = TransientAnalysis::new(50e-6, 0.1e-6)
        .start_condition(StartCondition::Uic)
        .run(&nl)
        .expect("rc simulates");
    let w = res.voltage(out);

    // Model: H(s) = 1/(RC s + 1).
    let ss = ContinuousTransferFunction::from_coeffs(&[1.0], &[r * c, 1.0]).to_state_space();
    let model = step_response(&ss, 0.5e-6, 100);

    for (k, &mv) in model.iter().enumerate() {
        let t = k as f64 * 0.5e-6;
        let cv = w.value_at(t);
        assert!(
            (cv - mv).abs() < 0.01,
            "t = {t:.2e}: circuit {cv:.4} vs model {mv:.4}"
        );
    }
}

/// Order of accuracy against two closed forms, each charged from a 1 V
/// DC source through a UIC start. An RC reads `1 − e^{−t/τ}`; the error
/// is taken at `t = 2τ` over dt = τ/20, τ/40, τ/80. A series RLC
/// (200 Ω, 1 mH, 1 nF, so ζ = 0.1) rings towards 1 V on its capacitor
/// as `1 − e^{−αt}(cos ω_d t + (α/ω_d) sin ω_d t)`; over two damped
/// periods the error is the largest deviation at any accepted
/// timepoint, at dt = T_d/100, T_d/200, T_d/400 (at 50 steps per period
/// backward Euler is not yet in its asymptotic range). Halving dt must
/// cut each error by about 4 under the trapezoidal rule and about 2
/// under backward Euler.
#[test]
fn integrators_converge_at_their_order() {
    use mixsig::anasim::mna::Integrator;
    use mixsig::anasim::transient::TransientResult;

    let (r, c) = (10e3, 1e-9);
    let tau = r * c;
    let mut rc = Netlist::new();
    let vin = rc.node("in");
    let rc_out = rc.node("out");
    rc.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(1.0));
    rc.resistor("R1", vin, rc_out, r);
    rc.capacitor("C1", rc_out, Netlist::GROUND, c);
    let rc_exact = 1.0 - (-2.0_f64).exp();
    let rc_error = |res: &TransientResult| (res.final_voltage(rc_out) - rc_exact).abs();

    let (r, l, c) = (200.0_f64, 1e-3, 1e-9);
    let alpha = r / (2.0 * l);
    let omega_d = (1.0 / (l * c) - alpha * alpha).sqrt();
    let period = 2.0 * std::f64::consts::PI / omega_d;
    let mut rlc = Netlist::new();
    let vin = rlc.node("in");
    let mid = rlc.node("mid");
    let rlc_out = rlc.node("out");
    rlc.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(1.0));
    rlc.resistor("R1", vin, mid, r);
    rlc.inductor("L1", mid, rlc_out, l);
    rlc.capacitor("C1", rlc_out, Netlist::GROUND, c);
    let rlc_exact = |t: f64| {
        let (sin, cos) = (omega_d * t).sin_cos();
        1.0 - (-alpha * t).exp() * (cos + alpha / omega_d * sin)
    };
    let rlc_error = |res: &TransientResult| {
        let w = res.voltage(rlc_out);
        let deviations = w.times().iter().zip(w.values());
        deviations.fold(0.0_f64, |worst, (&t, &v)| worst.max((v - rlc_exact(t)).abs()))
    };

    let check = |name: &str, nl: &Netlist, t_stop: f64, dts: [f64; 3], error: &dyn Fn(&TransientResult) -> f64| {
        for (integrator, band) in [
            (Integrator::Trapezoidal, 3.6..=4.4),
            (Integrator::BackwardEuler, 1.8..=2.2),
        ] {
            let errors: Vec<f64> = dts
                .iter()
                .map(|&dt| {
                    let res = TransientAnalysis::new(t_stop, dt)
                        .integrator(integrator)
                        .start_condition(StartCondition::Uic)
                        .run(nl)
                        .unwrap_or_else(|e| panic!("{name} simulates: {e:?}"));
                    error(&res)
                })
                .collect();
            for pair in errors.windows(2) {
                let ratio = pair[0] / pair[1];
                assert!(
                    band.contains(&ratio),
                    "{name} {integrator:?}: error ratio {ratio:.3} per dt halving (errors {errors:?})"
                );
            }
        }
    };
    check("rc", &rc, 2.0 * tau, [tau / 20.0, tau / 40.0, tau / 80.0], &rc_error);
    let rlc_dts = [period / 100.0, period / 200.0, period / 400.0];
    check("rlc", &rlc, 2.0 * period, rlc_dts, &rlc_error);
}

/// Second-order RLC: oscillation frequency agrees with the poles of the
/// transfer function.
#[test]
fn rlc_ringing_matches_pole_frequency() {
    let l = 1e-3;
    let c = 1e-9;
    let r = 200.0; // light damping

    let mut nl = Netlist::new();
    let vin = nl.node("in");
    let mid = nl.node("mid");
    let out = nl.node("out");
    nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::step(1.0, 0.0));
    nl.resistor("R1", vin, mid, r);
    nl.inductor("L1", mid, out, l);
    nl.capacitor("C1", out, Netlist::GROUND, c);
    let res = TransientAnalysis::new(50e-6, 10e-9)
        .start_condition(StartCondition::Uic)
        .run(&nl)
        .expect("rlc simulates");
    let w = res.voltage(out);

    // Poles of 1/(LCs^2 + RCs + 1).
    let tf = ContinuousTransferFunction::from_coeffs(&[1.0], &[l * c, r * c, 1.0]);
    let poles = tf.poles();
    let wd = poles[0].im.abs(); // damped natural frequency
    assert!(wd > 0.0, "expected complex poles, got {poles:?}");

    // Measure the period between the first two upward crossings of the
    // final value.
    let t1 = first_crossing_after(&w, 1.0, CrossingDirection::Rising, 0.0).expect("crossing 1");
    let t2 = first_crossing_after(&w, 1.0, CrossingDirection::Rising, t1 + 1e-6)
        .expect("crossing 2");
    let measured_wd = 2.0 * std::f64::consts::PI / (t2 - t1);
    assert!(
        (measured_wd - wd).abs() / wd < 0.05,
        "measured {measured_wd:.3e}, poles say {wd:.3e}"
    );
}

/// The behavioural SC integrator tracks the ideal z-domain model the
/// paper quotes (`H(z) = -z^-1 / (6.8 (1 - z^-1))`).
#[test]
fn sc_integrator_matches_discrete_model() {
    let params = ScIntegratorParams::behavioral();
    let mut nl = Netlist::new();
    let sc = ScIntegrator::build(&mut nl, "sc", &ProcessParams::nominal(), &params);
    nl.vsource(
        "VIN",
        sc.vin,
        Netlist::GROUND,
        SourceWaveform::dc(params.vag + 0.4),
    );
    let cycles = 10usize;
    let res = TransientAnalysis::new(params.clock_period * cycles as f64, 25e-9)
        .run(&nl)
        .expect("sc simulates");
    let w = res.voltage(sc.out);

    let model = sc.ideal_transfer_function();
    let y_model = model.step_response(cycles); // per-cycle response to 1 V
    #[allow(clippy::needless_range_loop)] // k is a cycle number used on both sides
    for k in 2..cycles {
        // Just after cycle k's phase-2 transfer the output holds k steps
        // (the reset consumes only phase 1 of the first cycle).
        let circuit = w.value_at((k as f64 + 0.02) * params.clock_period) - params.vag;
        let ideal = y_model[k] * 0.4; // 0.4 V input above analogue ground
        assert!(
            (circuit - ideal).abs() < 0.03,
            "cycle {k}: circuit {circuit:.4} vs model {ideal:.4}"
        );
    }
}

/// Impulse response measured from the simulator matches `linsys`.
#[test]
fn measured_and_modelled_impulse_responses_agree() {
    // First-order RC again, via a small-signal pulse: the scaled
    // difference of a pulsed and an unpulsed transient.
    let r = 10e3;
    let c = 2e-9; // tau = 20 us
    let ss = ContinuousTransferFunction::from_coeffs(&[1.0], &[r * c, 1.0]).to_state_space();
    let h_model = impulse_response(&ss, 5e-6, 10);

    // Finite pulse of width 1 us, area 0.1 V·us.
    let run_with = |wave: SourceWaveform| {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, wave);
        nl.resistor("R1", vin, out, r);
        nl.capacitor("C1", out, Netlist::GROUND, c);
        TransientAnalysis::new(60e-6, 0.1e-6)
            .run(&nl)
            .expect("simulates")
            .voltage(out)
    };
    let base = run_with(SourceWaveform::dc(0.0));
    let pulse = run_with(SourceWaveform::Pwl(vec![
        (0.0, 0.0),
        (1e-9, 0.1),
        (1e-6, 0.1),
        (1e-6 + 1e-9, 0.0),
    ]));
    let area = 0.1 * 1e-6;
    for (k, &hm) in h_model.iter().enumerate().take(8).skip(1) {
        let t = 1e-6 + k as f64 * 5e-6;
        let h_meas = (pulse.value_at(t) - base.value_at(t)) / area;
        assert!(
            (h_meas - hm).abs() / hm < 0.06,
            "k = {k}: measured {h_meas:.1} vs model {hm:.1}"
        );
    }
}
