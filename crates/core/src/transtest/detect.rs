//! Figure-4 assembly: detection instances per faulty circuit.

use faultsim::campaign::CampaignReport;

/// One bar of the paper's Figure 4: a faulty circuit variant and the
/// percentage of detection instances its signature showed.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectionEntry {
    /// Which example circuit (1, 2 or 3).
    pub circuit: u8,
    /// Fault label (e.g. `n7-sa0`, `n5-n8-bridge`).
    pub fault: String,
    /// Detection instances, percent.
    pub pct: f64,
}

/// The assembled Figure-4 dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DetectionFigure {
    entries: Vec<DetectionEntry>,
}

impl DetectionFigure {
    /// Creates an empty figure.
    pub fn new() -> Self {
        DetectionFigure::default()
    }

    /// Adds a whole campaign's outcomes under a circuit number.
    pub fn add_campaign(&mut self, circuit: u8, report: &CampaignReport) {
        for outcome in &report.outcomes {
            self.entries.push(DetectionEntry {
                circuit,
                fault: outcome.fault.name().to_string(),
                pct: outcome.figure_pct(),
            });
        }
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[DetectionEntry] {
        &self.entries
    }

    /// Entries for one circuit.
    pub fn circuit(&self, circuit: u8) -> Vec<&DetectionEntry> {
        self.entries
            .iter()
            .filter(|e| e.circuit == circuit)
            .collect()
    }

    /// Minimum detection percentage over a circuit's faults (the
    /// paper highlights circuit 3's ≈70 % floor), or `None` if the
    /// circuit has no entries.
    pub fn floor(&self, circuit: u8) -> Option<f64> {
        self.circuit(circuit)
            .iter()
            .map(|e| e.pct)
            .min_by(|a, b| a.total_cmp(b))
    }

    /// Mean detection percentage for a circuit, or `None` if empty.
    pub fn mean(&self, circuit: u8) -> Option<f64> {
        let pcts: Vec<f64> = self.circuit(circuit).iter().map(|e| e.pct).collect();
        if pcts.is_empty() {
            None
        } else {
            Some(pcts.iter().sum::<f64>() / pcts.len() as f64)
        }
    }

    /// Renders the figure as an aligned text table (one row per faulty
    /// circuit), the form the experiment binaries print.
    pub fn to_table(&self) -> String {
        let mut table = obs::Table::new(&["circuit", "fault", "detection %"]).align(&[
            obs::Align::Center,
            obs::Align::Left,
            obs::Align::Right,
        ]);
        for e in &self.entries {
            table.row(&[
                e.circuit.to_string(),
                e.fault.clone(),
                format!("{:.1}", e.pct),
            ]);
        }
        table.render()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure() -> DetectionFigure {
        let entry = |circuit, fault: &str, pct| DetectionEntry {
            circuit,
            fault: fault.to_owned(),
            pct,
        };
        DetectionFigure {
            entries: vec![
                entry(1, "n4-sa0", 95.0),
                entry(1, "n7-sa1", 88.0),
                entry(3, "n5-sa0", 70.0),
                entry(3, "n8-sa1", 91.0),
            ],
        }
    }

    #[test]
    fn floor_finds_minimum() {
        let f = figure();
        assert_eq!(f.floor(3), Some(70.0));
        assert_eq!(f.floor(1), Some(88.0));
        assert_eq!(f.floor(2), None);
    }

    #[test]
    fn mean_averages_circuit_entries() {
        let f = figure();
        assert_eq!(f.mean(1), Some(91.5));
        assert_eq!(f.mean(2), None);
    }

    #[test]
    fn circuit_filter() {
        let f = figure();
        assert_eq!(f.circuit(1).len(), 2);
        assert_eq!(f.circuit(3).len(), 2);
    }

    #[test]
    fn table_lists_every_entry() {
        let f = figure();
        let t = f.to_table();
        assert!(t.contains("n4-sa0"));
        assert!(t.contains("70.0"));
        assert_eq!(t.lines().count(), 5);
    }
}
