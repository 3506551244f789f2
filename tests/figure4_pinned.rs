//! Circuits 2 and 3's Figure-4 figures at the nominal process, pinned
//! entry by entry: per circuit twelve correlation, twelve dynamic-IDD
//! and twelve impulse-response detection percentages, built from the
//! same calls as `experiments e6`.
//!
//! Each figure is `k` of `N` detection instances (signature samples,
//! supply-current samples or impulse-response taps). A solver change
//! that is not bit for bit can move them, and this is the test that
//! says so. A debug build needs minutes for it, so it is ignored by
//! default; run it with
//! `cargo test --release --test figure4_pinned -- --ignored`.

use mixsig::anasim::netlist::Netlist;
use mixsig::anasim::robust::SolveSettings;
use mixsig::faultsim::campaign::{CampaignConfig, CampaignReport, FaultStatus};
use mixsig::faultsim::inject::inject;
use mixsig::macrolib::process::ProcessParams;
use mixsig::msbist::transtest::circuits::{circuit2, circuit3, ExampleCircuit};
use mixsig::msbist::transtest::idd::{idd_signature, run_idd_campaign_with};
use mixsig::msbist::transtest::impulse::{fit_first_order_discrete, impulse_detection_instances};

/// Detection threshold as a fraction of the golden signature's peak,
/// as in `experiments e6`.
const RELATIVE_THRESHOLD: f64 = 0.02;

/// The faults in campaign order (circuits 2 and 3 share the
/// integrator's fault universe).
const FAULTS: [&str; 12] = [
    "n4-sa0",
    "n4-sa1",
    "n5-sa0",
    "n5-sa1",
    "n7-sa0",
    "n7-sa1",
    "n8-sa0",
    "n8-sa1",
    "n9-sa0",
    "n9-sa1",
    "n6-n7-bridge",
    "n5-n8-bridge",
];

/// One pinned figure: `k` of `n` instances deviate, and the verdict.
#[derive(Debug, Clone, Copy)]
struct Pin {
    k: u32,
    n: u32,
    detected: bool,
}

const fn pin(k: u32, n: u32, detected: bool) -> Pin {
    Pin { k, n, detected }
}

/// One circuit's pinned figures.
struct Figures {
    correlation: [Pin; 12],
    idd: [Pin; 12],
    impulse: [Pin; 12],
}

/// Circuit 2's correlation figures: `k` of the 1,259
/// cross-correlation samples.
const CIRCUIT2_CORRELATION: [Pin; 12] = [
    pin(1067, 1259, true),
    pin(1202, 1259, true),
    pin(1071, 1259, true),
    pin(1204, 1259, true),
    pin(1102, 1259, true),
    pin(1202, 1259, true),
    pin(1202, 1259, true),
    pin(1102, 1259, true),
    pin(1202, 1259, true),
    pin(1071, 1259, true),
    pin(1202, 1259, true),
    pin(1202, 1259, true),
];

/// Circuit 2's dynamic-IDD figures: `k` of the 630 supply-current
/// samples, the integrator's and the comparator's supplies summed (the
/// `n6-n7` bridge is again the one miss).
const CIRCUIT2_IDD: [Pin; 12] = [
    pin(630, 630, true),
    pin(630, 630, true),
    pin(629, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(629, 630, true),
    pin(35, 630, false),
    pin(609, 630, true),
];

/// Circuit 2's impulse-response figures, read at the integrator output:
/// `k` of the 32 fitted taps.
const CIRCUIT2_IMPULSE: [Pin; 12] = [pin(31, 32, true); 12];

/// Circuit 3's correlation figures: `k` of the 1,259
/// cross-correlation samples.
const CIRCUIT3_CORRELATION: [Pin; 12] = [
    pin(1042, 1259, true),
    pin(1216, 1259, true),
    pin(1058, 1259, true),
    pin(198, 1259, false),
    pin(1186, 1259, true),
    pin(1216, 1259, true),
    pin(1216, 1259, true),
    pin(1181, 1259, true),
    pin(799, 1259, true),
    pin(1058, 1259, true),
    pin(1116, 1259, true),
    pin(1193, 1259, true),
];

/// Circuit 3's dynamic-IDD figures: `k` of the 630 supply-current
/// samples (the bridge at `n6-n7` is the one fault this method misses).
const CIRCUIT3_IDD: [Pin; 12] = [
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(630, 630, true),
    pin(36, 630, false),
    pin(610, 630, true),
];

/// Circuit 3's impulse-response figures: `k` of the 32 fitted taps.
const CIRCUIT3_IMPULSE: [Pin; 12] = [
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
    pin(31, 32, true),
];

/// Asserts one figure against its pin.
fn check(method: &str, fault: &str, pct: f64, detected: bool, want: Pin) {
    let pinned = 100.0 * f64::from(want.k) / f64::from(want.n);
    assert!(
        (pct - pinned).abs() < 1e-9,
        "{method} {fault}: {pct} %, pinned {pinned} % ({}/{})",
        want.k,
        want.n
    );
    assert_eq!(detected, want.detected, "{method} {fault}: verdict");
}

/// Checks a campaign report's figures fault by fault.
fn check_campaign(method: &str, report: &CampaignReport, pins: &[Pin; 12]) {
    assert_eq!(report.outcomes.len(), FAULTS.len(), "{method}: fault count");
    for ((o, name), want) in report.outcomes.iter().zip(FAULTS).zip(pins) {
        assert_eq!(o.fault.name(), name, "{method}: campaign order");
        let (pct, detected) = match o.status {
            FaultStatus::Detected { pct } => (pct, true),
            FaultStatus::Undetected { pct } => (pct, false),
            ref other => panic!("{method} {name}: {other:?}"),
        };
        check(method, name, pct, detected, *want);
    }
}

/// The impulse-response method on `c`: the golden and each faulty
/// netlist identified as a first-order discrete system from its
/// cycle-sampled PRBS response, the fitted impulse responses compared.
fn impulse_figures(c: &ExampleCircuit) -> Vec<f64> {
    let stimulus = c.bench.stimulus();
    let one_period: Vec<f64> = stimulus
        .bits()
        .iter()
        .map(|&b| if b { stimulus.high() } else { stimulus.low() } - 2.5)
        .collect();
    let p: Vec<f64> = std::iter::repeat_n(one_period, c.bench.periods())
        .flatten()
        .collect();
    let settings = SolveSettings::default();
    let impulse_of = |netlist: &Netlist| -> Option<Vec<f64>> {
        let y = c
            .bench
            .response_at_with(netlist, c.impulse_probe, &settings)
            .ok()?;
        let spb = y.len() / p.len();
        let cycle_y: Vec<f64> = y
            .chunks(spb)
            .map(|s| s.last().copied().unwrap_or(0.0) - 2.5)
            .collect();
        let fit = fit_first_order_discrete(&p, &cycle_y);
        Some(fit.impulse_response(stimulus.bit_period(), 32))
    };
    let golden = impulse_of(c.bench.netlist()).expect("golden circuit simulates");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    c.faults
        .iter()
        .map(
            |fault| match impulse_of(&inject(c.bench.netlist(), fault)) {
                Some(h) => impulse_detection_instances(&golden, &h, RELATIVE_THRESHOLD * peak),
                None => 100.0,
            },
        )
        .collect()
}

/// Runs the three methods on `c` and checks every figure against
/// `pins`.
fn check_circuit(c: &ExampleCircuit, pins: &Figures) {
    let names: Vec<&str> = c.faults.iter().map(|f| f.name()).collect();
    assert_eq!(names, FAULTS);

    let golden = c
        .bench
        .correlation_signature(c.bench.netlist())
        .expect("golden circuit simulates");
    let samples = pins.correlation[0].n as usize;
    assert_eq!(golden.len(), samples, "correlation samples");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let report = c
        .bench
        .run_correlation_campaign_with(&c.faults, &CampaignConfig::new(RELATIVE_THRESHOLD * peak))
        .expect("correlation campaign runs");
    check_campaign("correlation", &report, &pins.correlation);

    let idd = idd_signature(&c.bench, c.bench.netlist(), &c.vdd_sources)
        .expect("golden circuit simulates");
    let samples = pins.idd[0].n as usize;
    assert_eq!(idd.len(), samples, "supply-current samples");

    let report = run_idd_campaign_with(
        &c.bench,
        &c.vdd_sources,
        &c.faults,
        RELATIVE_THRESHOLD,
        &CampaignConfig::new(0.0),
    )
    .expect("IDD campaign runs");
    check_campaign("idd", &report, &pins.idd);

    for ((pct, name), want) in impulse_figures(c).into_iter().zip(FAULTS).zip(pins.impulse) {
        check("impulse", name, pct, pct >= 50.0, want);
    }
}

#[test]
#[ignore = "minutes in a debug build; run with --release -- --ignored"]
fn circuit2_figure4_is_pinned() {
    check_circuit(
        &circuit2(&ProcessParams::nominal()),
        &Figures {
            correlation: CIRCUIT2_CORRELATION,
            idd: CIRCUIT2_IDD,
            impulse: CIRCUIT2_IMPULSE,
        },
    );
}

#[test]
#[ignore = "minutes in a debug build; run with --release -- --ignored"]
fn circuit3_figure4_is_pinned() {
    check_circuit(
        &circuit3(&ProcessParams::nominal()),
        &Figures {
            correlation: CIRCUIT3_CORRELATION,
            idd: CIRCUIT3_IDD,
            impulse: CIRCUIT3_IMPULSE,
        },
    );
}
