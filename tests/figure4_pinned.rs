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

use mixsig::faultsim::campaign::{run_campaign_sized, CampaignConfig, CampaignReport, FaultStatus};
use mixsig::macrolib::process::ProcessParams;
use mixsig::msbist::transtest::circuits::{circuit2, circuit3, ExampleCircuit};
use mixsig::msbist::transtest::idd::run_idd_campaign_with;
use mixsig::msbist::transtest::impulse::run_impulse_campaign_with;
use mixsig::msbist::transtest::RELATIVE_THRESHOLD;

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

/// Checks a campaign report's figures fault by fault: `k` of the `n`
/// signature samples deviate, with the pinned verdict.
fn check_campaign(method: &str, report: &CampaignReport, pins: &[Pin; 12]) {
    assert_eq!(report.golden.len(), pins[0].n as usize, "{method}: samples");
    assert_eq!(report.outcomes.len(), FAULTS.len(), "{method}: fault count");
    for ((o, name), want) in report.outcomes.iter().zip(FAULTS).zip(pins) {
        assert_eq!(o.fault.name(), name, "{method}: campaign order");
        let (pct, detected) = match o.status {
            FaultStatus::Detected { pct } => (pct, true),
            FaultStatus::Undetected { pct } => (pct, false),
            ref other => panic!("{method} {name}: {other:?}"),
        };
        let pinned = 100.0 * f64::from(want.k) / f64::from(want.n);
        assert!(
            (pct - pinned).abs() < 1e-9,
            "{method} {name}: {pct} %, pinned {pinned} % ({}/{})",
            want.k,
            want.n
        );
        assert_eq!(detected, want.detected, "{method} {name}: verdict");
    }
}

/// Runs the three methods on `c` and checks every figure against
/// `pins`.
fn check_circuit(c: &ExampleCircuit, pins: &Figures) {
    let names: Vec<&str> = c.faults.iter().map(|f| f.name()).collect();
    assert_eq!(names, FAULTS);
    let config = CampaignConfig::new(0.0);

    let report = run_campaign_sized(
        c.bench.netlist(),
        &c.faults,
        &config,
        |golden| RELATIVE_THRESHOLD * golden.iter().fold(0.0_f64, |m, v| m.max(v.abs())),
        |nl, settings| c.bench.correlation_signature_with(nl, settings),
    )
    .expect("correlation campaign runs");
    check_campaign("correlation", &report, &pins.correlation);

    let report = run_idd_campaign_with(
        &c.bench,
        &c.vdd_sources,
        &c.faults,
        RELATIVE_THRESHOLD,
        &config,
    )
    .expect("IDD campaign runs");
    check_campaign("idd", &report, &pins.idd);

    let report = run_impulse_campaign_with(
        &c.bench,
        c.impulse_probe,
        &c.faults,
        RELATIVE_THRESHOLD,
        &config,
    )
    .expect("impulse campaign runs");
    check_campaign("impulse", &report, &pins.impulse);
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
