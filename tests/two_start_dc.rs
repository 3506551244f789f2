//! Two-start DC check over the 40 Figure-4 faults.
//!
//! The campaign engine seeds every fault's DC solve from the golden
//! operating point (`faultsim::campaign::golden_warm_start`). A circuit
//! with more than one DC solution can then settle on a different
//! operating point than a cold start would. This test solves each
//! faulty netlist both ways and pins the set of faults whose two
//! operating points differ, with the node that differs most, so any
//! change to the start state shows up here by name.
//!
//! Twelve faults have two DC solutions: ten circuit-2 faults at the
//! comparator output `c2:cmp:n3` (about −0.92 V cold, 0 V seeded),
//! c1 `n8-n9-dsa0` at `c1:n3` and c1 `n5-sa0` at `c1:n9`.

use mixsig::anasim::dc::{dc_operating_point, dc_operating_point_solver, DcOptions};
use mixsig::anasim::mna::MnaLayout;
use mixsig::anasim::robust::Instruments;
use mixsig::anasim::solver::{SolverContext, WarmStart};
use mixsig::faultsim::inject::inject;
use mixsig::macrolib::process::ProcessParams;
use mixsig::msbist::transtest::circuits::{circuit1, circuit2, circuit3};

/// Two operating points differ when some node voltage moves by more
/// than this (volts).
const TOLERANCE_V: f64 = 1e-3;

/// `(circuit and fault, node that differs most)` for every fault whose
/// cold and golden-seeded operating points differ, in universe order.
const PINNED: [(&str, &str); 12] = [
    ("c1 n5-sa0", "c1:n9"),
    ("c1 n8-n9-dsa0", "c1:n3"),
    ("c2 n4-sa0", "c2:cmp:n3"),
    ("c2 n4-sa1", "c2:cmp:n3"),
    ("c2 n5-sa0", "c2:cmp:n3"),
    ("c2 n5-sa1", "c2:cmp:n3"),
    ("c2 n7-sa1", "c2:cmp:n3"),
    ("c2 n8-sa0", "c2:cmp:n3"),
    ("c2 n9-sa0", "c2:cmp:n3"),
    ("c2 n9-sa1", "c2:cmp:n3"),
    ("c2 n6-n7-bridge", "c2:cmp:n3"),
    ("c2 n5-n8-bridge", "c2:cmp:n3"),
];

#[test]
fn cold_and_golden_seeded_dc_points_differ_only_for_the_pinned_faults() {
    let process = ProcessParams::nominal();
    let mut checked = 0;
    let mut differ = Vec::new();
    for circuit in [circuit1(&process), circuit2(&process), circuit3(&process)] {
        let golden = circuit.bench.netlist();
        // The seed exactly as the campaign engine builds it.
        let op = dc_operating_point(golden).expect("golden DC converges");
        let warm = WarmStart::new(op.into_solution(), MnaLayout::new(golden).node_count());
        for fault in &circuit.faults {
            let faulty = inject(golden, fault);
            let label = format!("c{} {}", circuit.number, fault.name());
            let cold = dc_operating_point(&faulty).expect("cold DC converges");
            let seeded = dc_operating_point_solver(
                &faulty,
                &DcOptions::default(),
                &Instruments::default(),
                Some(&warm),
                &mut SolverContext::default(),
            )
            .expect("seeded DC converges");
            let layout = MnaLayout::new(&faulty);
            let voltages = layout.node_count() - 1;
            let (worst, gap) = cold.solution()[..voltages]
                .iter()
                .zip(&seeded.solution()[..voltages])
                .map(|(a, b)| (a - b).abs())
                .enumerate()
                .fold(
                    (0, 0.0_f64),
                    |best, (i, d)| if d > best.1 { (i, d) } else { best },
                );
            if gap > TOLERANCE_V {
                // Name the node through the pin, if there is one.
                let node = PINNED
                    .iter()
                    .find(|(l, _)| *l == label)
                    .and_then(|&(_, name)| faulty.find_node(name))
                    .filter(|&node| layout.node_index(node) == Some(worst))
                    .map_or_else(
                        || format!("unknown #{worst}"),
                        |n| faulty.node_name(n).to_owned(),
                    );
                differ.push((label, node));
            }
            checked += 1;
        }
    }
    assert_eq!(checked, 40, "Figure 4 has 16 + 12 + 12 faults");
    let differ: Vec<(&str, &str)> = differ
        .iter()
        .map(|(l, n)| (l.as_str(), n.as_str()))
        .collect();
    assert_eq!(
        differ, PINNED,
        "faults whose cold and seeded DC points differ"
    );
}
