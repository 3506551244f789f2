//! Integration: the transient-response testing flow across crates —
//! macro library circuits, fault injection, simulation and detection
//! statistics.

use mixsig::faultsim::campaign::{CampaignConfig, FaultStatus};
use mixsig::faultsim::inject::inject;
use mixsig::faultsim::model::Fault;
use mixsig::macrolib::process::ProcessParams;
use mixsig::msbist::transtest::circuits::circuit1;
use mixsig::msbist::transtest::detect::DetectionFigure;
use mixsig::msbist::transtest::idd::run_idd_campaign_with;

#[test]
fn circuit1_fault_universe_simulates_and_detects() {
    let c1 = circuit1(&ProcessParams::nominal());

    // Golden.
    let golden = c1
        .bench
        .correlation_signature(c1.bench.netlist())
        .expect("golden simulates");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    assert!(peak > 0.5, "golden signature should carry energy");

    // A subset of the universe (keep the integration test quick).
    let subset: Vec<Fault> = c1.faults.iter().take(4).cloned().collect();
    let report = c1
        .bench
        .run_correlation_campaign(&subset, 0.02 * peak)
        .expect("campaign runs");
    assert_eq!(report.outcomes.len(), 4);
    for o in &report.outcomes {
        assert!(
            o.figure_pct() > 30.0,
            "{} under-detected",
            o.fault.name()
        );
    }

    let mut fig = DetectionFigure::new();
    fig.add_campaign(1, &report);
    assert_eq!(fig.circuit(1).len(), 4);
    assert!(fig.floor(1).expect("entries") > 30.0);
}

/// Circuit 1's Figure-4 correlation verdicts at the nominal process,
/// pinned fault by fault. Each detection figure is `k` of the
/// signature's 239 samples; a solver change that is not bit for bit can
/// move them (a stale-factor policy tweak once moved all sixteen and
/// left `n5-sa1` undetected), and this is the test that says so.
#[test]
fn circuit1_correlation_verdicts_are_pinned() {
    const SAMPLES: f64 = 239.0;
    const K: [u32; 16] = [
        180, 201, 190, 122, 189, 201, 201, 189, 200, 200, 211, 189, 201, 185, 168, 201,
    ];
    let c1 = circuit1(&ProcessParams::nominal());
    let golden = c1
        .bench
        .correlation_signature(c1.bench.netlist())
        .expect("golden simulates");
    let peak = golden.iter().fold(0.0_f64, |m, v| m.max(v.abs()));
    let report = c1
        .bench
        .run_correlation_campaign_with(&c1.faults, &CampaignConfig::new(0.02 * peak))
        .expect("campaign runs");
    assert_eq!(report.outcomes.len(), K.len());
    assert_eq!(report.outcomes[3].fault.name(), "n5-sa1");
    for (o, k) in report.outcomes.iter().zip(K) {
        let want = 100.0 * f64::from(k) / SAMPLES;
        match o.status {
            FaultStatus::Detected { pct } => assert!(
                (pct - want).abs() < 1e-9,
                "{}: {pct} %, pinned {want} % ({k}/239)",
                o.fault.name()
            ),
            ref other => panic!("{}: {other:?}, pinned detected at {want} %", o.fault.name()),
        }
    }
}

/// Circuit 1's dynamic-IDD verdicts at nominal process, pinned per fault
/// in universe order: `pct = 100·k/120` over the 120 supply-current
/// samples, with `n7-sa0`, `n7-sa1`, `n8-sa0`, `n8-sa1`, `n3-sa1` and
/// `n8-n9-dsa0` undetected. `n3-sa0` (64/120) is the only partial
/// detection above the 50 % criterion.
#[test]
fn circuit1_idd_verdicts_are_pinned() {
    const SAMPLES: f64 = 120.0;
    const K: [u32; 16] = [
        120, 120, 120, 120, 0, 57, 1, 56, 64, 0, 1, 120, 120, 120, 120, 120,
    ];
    const UNDETECTED: [usize; 6] = [4, 5, 6, 7, 9, 10];
    let c1 = circuit1(&ProcessParams::nominal());
    let report = run_idd_campaign_with(
        &c1.bench,
        &c1.vdd_sources,
        &c1.faults,
        0.02,
        &CampaignConfig::new(0.0),
    )
    .expect("campaign runs");
    assert_eq!(report.outcomes.len(), K.len());
    assert_eq!(report.outcomes[8].fault.name(), "n3-sa0");
    for (i, (o, k)) in report.outcomes.iter().zip(K).enumerate() {
        let want = 100.0 * f64::from(k) / SAMPLES;
        let (detected, pct) = match o.status {
            FaultStatus::Detected { pct } => (true, pct),
            FaultStatus::Undetected { pct } => (false, pct),
            ref other => panic!("{}: {other:?}, pinned at {want} %", o.fault.name()),
        };
        assert_eq!(
            detected,
            !UNDETECTED.contains(&i),
            "{}: detected = {detected} at {pct} %",
            o.fault.name()
        );
        assert!(
            (pct - want).abs() < 1e-9,
            "{}: {pct} %, pinned {want} % ({k}/120)",
            o.fault.name()
        );
    }
}

#[test]
fn injected_fault_changes_the_response() {
    let c1 = circuit1(&ProcessParams::nominal());
    let golden = c1.bench.response(c1.bench.netlist()).expect("golden");
    let fault = &c1.faults[4]; // n7-sa0: the diff-pair output clamped low
    let faulty_nl = inject(c1.bench.netlist(), fault);
    let faulty = c1.bench.response(&faulty_nl).expect("faulty simulates");
    let rms_diff = golden
        .iter()
        .zip(&faulty)
        .map(|(a, b)| (a - b).powi(2))
        .sum::<f64>()
        .sqrt()
        / (golden.len() as f64).sqrt();
    assert!(rms_diff > 0.2, "rms difference only {rms_diff}");
}

#[test]
fn fault_injection_is_pure() {
    // The golden netlist must not accumulate fault hardware across a
    // campaign (faults are injected on clones).
    let c1 = circuit1(&ProcessParams::nominal());
    let before = c1.bench.netlist().device_count();
    let _ = inject(c1.bench.netlist(), &c1.faults[0]);
    let _ = inject(c1.bench.netlist(), &c1.faults[1]);
    assert_eq!(c1.bench.netlist().device_count(), before);
}
