//! Circuit netlist representation and builder.

use std::collections::HashMap;

use crate::devices::{Device, DiodeParams, MosParams, MosPolarity, SwitchParams};
use crate::source::SourceWaveform;

/// An electrical node handle.
///
/// `NodeId(0)` is always the ground reference ([`Netlist::GROUND`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Raw index of this node (0 = ground).
    pub fn index(self) -> usize {
        self.0
    }

    /// True if this is the ground node.
    pub fn is_ground(self) -> bool {
        self.0 == 0
    }
}

/// A device handle returned by the netlist builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub(crate) usize);

impl DeviceId {
    /// Raw index of this device in insertion order.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A complete circuit description: named nodes plus a device list.
///
/// Build incrementally with the `resistor`, `capacitor`, `vsource`, ...
/// methods, each of which returns a [`DeviceId`] that analyses use to
/// report branch quantities.
///
/// # Example
///
/// ```
/// use anasim::netlist::Netlist;
/// use anasim::source::SourceWaveform;
///
/// let mut nl = Netlist::new();
/// let n1 = nl.node("n1");
/// nl.vsource("V1", n1, Netlist::GROUND, SourceWaveform::dc(1.0));
/// nl.resistor("R1", n1, Netlist::GROUND, 50.0);
/// assert_eq!(nl.node_count(), 2); // ground + n1
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    node_names: Vec<String>,
    node_lookup: HashMap<String, NodeId>,
    devices: Vec<(String, Device)>,
    device_lookup: HashMap<String, DeviceId>,
}

impl Netlist {
    /// The ground (reference) node, index 0.
    pub const GROUND: NodeId = NodeId(0);

    /// Creates an empty netlist containing only the ground node.
    pub fn new() -> Self {
        let mut nl = Netlist {
            node_names: Vec::new(),
            node_lookup: HashMap::new(),
            devices: Vec::new(),
            device_lookup: HashMap::new(),
        };
        nl.node_names.push("0".to_string());
        nl.node_lookup.insert("0".to_string(), NodeId(0));
        nl
    }

    /// Returns the node with the given name, creating it if necessary.
    ///
    /// The name `"0"` always refers to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if let Some(&id) = self.node_lookup.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len());
        self.node_names.push(name.to_string());
        self.node_lookup.insert(name.to_string(), id);
        id
    }

    /// Looks up an existing node by name.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_lookup.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this netlist.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0]
    }

    /// Total number of nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_names.len()
    }

    /// Looks up an existing device by name.
    pub fn find_device(&self, name: &str) -> Option<DeviceId> {
        self.device_lookup.get(name).copied()
    }

    /// Name of a device.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this netlist.
    pub fn device_name(&self, id: DeviceId) -> &str {
        &self.devices[id.0].0
    }

    /// The device referred to by `id`.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this netlist.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.0].1
    }

    /// Mutable access to a device (used by fault injection to rewrite
    /// elements in place).
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this netlist.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.0].1
    }

    /// Number of devices.
    pub fn device_count(&self) -> usize {
        self.devices.len()
    }

    /// Iterates over `(id, name, device)` in insertion order.
    pub fn devices(&self) -> impl Iterator<Item = (DeviceId, &str, &Device)> {
        self.devices
            .iter()
            .enumerate()
            .map(|(i, (name, dev))| (DeviceId(i), name.as_str(), dev))
    }

    /// Number of MOSFET devices (the paper's transistor-count accounting).
    pub fn transistor_count(&self) -> usize {
        self.devices
            .iter()
            .filter(|(_, d)| matches!(d, Device::Mosfet { .. }))
            .count()
    }

    fn push(&mut self, name: &str, device: Device) -> DeviceId {
        assert!(
            !self.device_lookup.contains_key(name),
            "duplicate device name: {name}"
        );
        let id = DeviceId(self.devices.len());
        self.devices.push((name.to_string(), device));
        self.device_lookup.insert(name.to_string(), id);
        id
    }

    /// Adds a resistor.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not finite and positive, or on duplicate name.
    pub fn resistor(&mut self, name: &str, a: NodeId, b: NodeId, ohms: f64) -> DeviceId {
        assert!(ohms.is_finite() && ohms > 0.0, "resistance must be positive");
        self.push(name, Device::Resistor { a, b, ohms })
    }

    /// Adds a capacitor.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not finite and positive, or on duplicate name.
    pub fn capacitor(&mut self, name: &str, a: NodeId, b: NodeId, farads: f64) -> DeviceId {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive"
        );
        self.push(
            name,
            Device::Capacitor {
                a,
                b,
                farads,
                ic: None,
            },
        )
    }

    /// Adds a capacitor with an initial condition `v(a) − v(b) = ic`
    /// honoured by UIC transient analysis.
    pub fn capacitor_ic(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        farads: f64,
        ic: f64,
    ) -> DeviceId {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive"
        );
        self.push(
            name,
            Device::Capacitor {
                a,
                b,
                farads,
                ic: Some(ic),
            },
        )
    }

    /// Adds an inductor.
    ///
    /// # Panics
    ///
    /// Panics if `henries` is not finite and positive, or on duplicate name.
    pub fn inductor(&mut self, name: &str, a: NodeId, b: NodeId, henries: f64) -> DeviceId {
        assert!(
            henries.is_finite() && henries > 0.0,
            "inductance must be positive"
        );
        self.push(name, Device::Inductor { a, b, henries })
    }

    /// Adds an independent voltage source.
    pub fn vsource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> DeviceId {
        self.push(name, Device::Vsource { pos, neg, wave })
    }

    /// Adds an independent current source (current flows out of `pos`,
    /// through the external circuit, into `neg`).
    pub fn isource(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        wave: SourceWaveform,
    ) -> DeviceId {
        self.push(name, Device::Isource { pos, neg, wave })
    }

    /// Adds a voltage-controlled voltage source.
    pub fn vcvs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cpos: NodeId,
        cneg: NodeId,
        gain: f64,
    ) -> DeviceId {
        self.push(
            name,
            Device::Vcvs {
                pos,
                neg,
                cpos,
                cneg,
                gain,
            },
        )
    }

    /// Adds a voltage-controlled current source.
    pub fn vccs(
        &mut self,
        name: &str,
        pos: NodeId,
        neg: NodeId,
        cpos: NodeId,
        cneg: NodeId,
        gm: f64,
    ) -> DeviceId {
        self.push(
            name,
            Device::Vccs {
                pos,
                neg,
                cpos,
                cneg,
                gm,
            },
        )
    }

    /// Adds an N- or P-channel level-1 MOSFET.
    pub fn mosfet(
        &mut self,
        name: &str,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        polarity: MosPolarity,
        params: MosParams,
    ) -> DeviceId {
        self.push(
            name,
            Device::Mosfet {
                drain,
                gate,
                source,
                polarity,
                params,
            },
        )
    }

    /// Adds a junction diode.
    pub fn diode(
        &mut self,
        name: &str,
        anode: NodeId,
        cathode: NodeId,
        params: DiodeParams,
    ) -> DeviceId {
        self.push(
            name,
            Device::Diode {
                anode,
                cathode,
                params,
            },
        )
    }

    /// Adds a voltage-controlled switch.
    pub fn switch(
        &mut self,
        name: &str,
        a: NodeId,
        b: NodeId,
        cpos: NodeId,
        cneg: NodeId,
        params: SwitchParams,
    ) -> DeviceId {
        self.push(
            name,
            Device::Switch {
                a,
                b,
                cpos,
                cneg,
                params,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ground_is_node_zero() {
        let nl = Netlist::new();
        assert_eq!(Netlist::GROUND.index(), 0);
        assert!(Netlist::GROUND.is_ground());
        assert_eq!(nl.node_name(Netlist::GROUND), "0");
    }

    #[test]
    fn node_names_are_interned() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let a2 = nl.node("a");
        assert_eq!(a, a2);
        assert_eq!(nl.node_count(), 2);
    }

    #[test]
    fn zero_name_is_ground() {
        let mut nl = Netlist::new();
        assert_eq!(nl.node("0"), Netlist::GROUND);
    }

    #[test]
    fn devices_are_registered_and_named() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let r = nl.resistor("R1", a, Netlist::GROUND, 100.0);
        assert_eq!(nl.find_device("R1"), Some(r));
        assert_eq!(nl.device_name(r), "R1");
        assert_eq!(nl.device_count(), 1);
    }

    #[test]
    #[should_panic(expected = "duplicate device name")]
    fn duplicate_device_names_panic() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        nl.resistor("R1", a, Netlist::GROUND, 2.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn negative_resistance_rejected() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, -5.0);
    }

    #[test]
    fn transistor_count_counts_only_mosfets() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        nl.mosfet(
            "M1",
            a,
            a,
            Netlist::GROUND,
            MosPolarity::Nmos,
            MosParams::nmos_5um(),
        );
        nl.mosfet(
            "M2",
            a,
            a,
            Netlist::GROUND,
            MosPolarity::Pmos,
            MosParams::pmos_5um(),
        );
        assert_eq!(nl.transistor_count(), 2);
    }

    #[test]
    fn device_iteration_in_order() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.resistor("R1", a, Netlist::GROUND, 1.0);
        nl.capacitor("C1", a, Netlist::GROUND, 1e-12);
        let names: Vec<&str> = nl.devices().map(|(_, n, _)| n).collect();
        assert_eq!(names, ["R1", "C1"]);
    }
}
