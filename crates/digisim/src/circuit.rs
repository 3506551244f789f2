//! Gate-level netlists and the event-driven simulation kernel.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use crate::logic::Logic;

/// A digital net handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(usize);

impl NetId {
    /// Raw index.
    pub fn index(self) -> usize {
        self.0
    }
}

/// A gate handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GateId(usize);

/// Primitive gate kinds.
///
/// `Dff` is a positive-edge-triggered D flip-flop whose inputs are
/// `[d, clk]` or `[d, clk, rst]` (asynchronous active-high reset to 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Logical AND of all inputs.
    And,
    /// NAND of all inputs.
    Nand,
    /// OR of all inputs.
    Or,
    /// NOR of all inputs.
    Nor,
    /// XOR (odd parity) of all inputs.
    Xor,
    /// XNOR (even parity) of all inputs.
    Xnor,
    /// Inverter (single input).
    Not,
    /// Buffer (single input).
    Buf,
    /// Positive-edge D flip-flop: inputs `[d, clk]` or `[d, clk, rst]`.
    Dff,
}

#[derive(Debug, Clone)]
struct Gate {
    kind: GateKind,
    inputs: Vec<NetId>,
    output: NetId,
    delay: u64,
    /// Flip-flop internal state: (last clock sample, stored Q).
    ff_state: (Logic, Logic),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Event {
    time: u64,
    seq: u64,
    net: NetId,
    value: Logic,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A gate-level digital circuit with an event-driven simulator.
///
/// Nets start at [`Logic::X`]. Drive primary inputs with
/// [`Circuit::set_input`], advance time with [`Circuit::run_until`], and
/// observe nets with [`Circuit::value`].
///
/// # Example
///
/// ```
/// use digisim::circuit::{Circuit, GateKind};
/// use digisim::logic::Logic;
///
/// let mut c = Circuit::new();
/// let a = c.input("a");
/// let y = c.net("y");
/// c.gate(GateKind::Not, &[a], y, 2);
/// c.set_input(a, Logic::Zero);
/// c.run_until(5);
/// assert_eq!(c.value(y), Logic::One);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Circuit {
    nets: Vec<Logic>,
    net_names: Vec<String>,
    name_lookup: HashMap<String, NetId>,
    gates: Vec<Gate>,
    fanout: Vec<Vec<usize>>,
    queue: BinaryHeap<Reverse<Event>>,
    now: u64,
    seq: u64,
    events_processed: u64,
}

impl Circuit {
    /// Maximum events per `run_until` call, guarding against zero-delay
    /// oscillation.
    const EVENT_LIMIT: u64 = 100_000_000;

    /// Creates an empty circuit.
    pub fn new() -> Self {
        Circuit::default()
    }

    /// Creates (or returns) a named net.
    pub fn net(&mut self, name: &str) -> NetId {
        if let Some(&id) = self.name_lookup.get(name) {
            return id;
        }
        let id = NetId(self.nets.len());
        self.nets.push(Logic::X);
        self.net_names.push(name.to_string());
        self.name_lookup.insert(name.to_string(), id);
        self.fanout.push(Vec::new());
        id
    }

    /// Creates a primary-input net (identical to [`Circuit::net`]; the
    /// distinction is documentary).
    pub fn input(&mut self, name: &str) -> NetId {
        self.net(name)
    }

    /// Creates an anonymous net.
    pub fn anon(&mut self) -> NetId {
        let name = format!("_n{}", self.nets.len());
        self.net(&name)
    }

    /// Name of a net.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.0]
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.nets.len()
    }

    /// Number of gates.
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Current simulation time.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Adds a gate driving `output` from `inputs` with propagation
    /// `delay` (time units).
    ///
    /// # Panics
    ///
    /// Panics if the input count is invalid for the gate kind.
    pub fn gate(&mut self, kind: GateKind, inputs: &[NetId], output: NetId, delay: u64) -> GateId {
        match kind {
            GateKind::Not | GateKind::Buf => {
                assert_eq!(inputs.len(), 1, "{kind:?} takes exactly one input")
            }
            GateKind::Dff => assert!(
                inputs.len() == 2 || inputs.len() == 3,
                "Dff takes [d, clk] or [d, clk, rst]"
            ),
            _ => assert!(inputs.len() >= 2, "{kind:?} needs at least two inputs"),
        }
        let gid = self.gates.len();
        for &i in inputs {
            // Flip-flops are only sensitive to clock and reset, not D.
            if kind == GateKind::Dff && i == inputs[0] && inputs.iter().filter(|&&x| x == i).count() == 1
            {
                continue;
            }
            self.fanout[i.0].push(gid);
        }
        self.gates.push(Gate {
            kind,
            inputs: inputs.to_vec(),
            output,
            delay,
            ff_state: (Logic::X, Logic::X),
        });
        GateId(gid)
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.nets[net.0]
    }

    /// Current values of several nets.
    pub fn values(&self, nets: &[NetId]) -> Vec<Logic> {
        nets.iter().map(|&n| self.value(n)).collect()
    }

    /// Schedules a primary-input change at the current time.
    pub fn set_input(&mut self, net: NetId, value: Logic) {
        self.schedule(self.now, net, value);
    }

    /// Schedules a primary-input change at an absolute future time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn set_input_at(&mut self, time: u64, net: NetId, value: Logic) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.schedule(time, net, value);
    }

    fn schedule(&mut self, time: u64, net: NetId, value: Logic) {
        self.seq += 1;
        self.queue.push(Reverse(Event {
            time,
            seq: self.seq,
            net,
            value,
        }));
    }

    /// Processes events up to and including time `t_stop`, advancing
    /// simulation time.
    ///
    /// # Panics
    ///
    /// Panics if the event limit is exceeded (indicating a zero-delay
    /// oscillation).
    pub fn run_until(&mut self, t_stop: u64) {
        self.process_events(t_stop);
        self.now = t_stop;
    }

    /// Drains every pending event regardless of time (runs the circuit to
    /// quiescence), leaving the clock at the last event time.
    pub fn settle(&mut self) {
        self.process_events(u64::MAX);
    }

    fn process_events(&mut self, t_stop: u64) {
        self.events_processed = 0;
        while let Some(&Reverse(ev)) = self.queue.peek() {
            if ev.time > t_stop {
                break;
            }
            self.queue.pop();
            self.now = ev.time;
            self.events_processed += 1;
            assert!(
                self.events_processed < Self::EVENT_LIMIT,
                "event limit exceeded: possible zero-delay oscillation"
            );
            if self.nets[ev.net.0] == ev.value {
                continue;
            }
            self.nets[ev.net.0] = ev.value;
            // Re-evaluate fanout gates. Evaluation never changes the
            // fanout lists, so they are walked by index in place.
            for k in 0..self.fanout[ev.net.0].len() {
                let gid = self.fanout[ev.net.0][k];
                self.evaluate_gate(gid, ev.net);
            }
        }
    }

    fn evaluate_gate(&mut self, gid: usize, trigger: NetId) {
        let gate = &self.gates[gid];
        let (kind, delay, output) = (gate.kind, gate.delay, gate.output);
        let nets = &self.nets;
        let new_value = match kind {
            GateKind::Dff => {
                let d = nets[gate.inputs[0].0];
                let clk = nets[gate.inputs[1].0];
                let rst = gate.inputs.get(2).map(|r| nets[r.0]);
                let (last_clk, q) = gate.ff_state;
                let mut new_q = q;
                if rst == Some(Logic::One) {
                    new_q = Logic::Zero;
                } else if trigger == gate.inputs[1] && last_clk == Logic::Zero && clk == Logic::One
                {
                    new_q = d;
                }
                self.gates[gid].ff_state = (clk, new_q);
                new_q
            }
            _ => combinational(kind, gate.inputs.iter().map(|i| nets[i.0])),
        };
        // Always schedule: an earlier pending event for this output may
        // carry a stale value, and comparing against the *current* net
        // value would wrongly suppress the correction. Same-value events
        // are dropped harmlessly at apply time.
        self.schedule(self.now + delay, output, new_value);
    }
}

fn combinational(kind: GateKind, mut inputs: impl Iterator<Item = Logic>) -> Logic {
    match kind {
        GateKind::And => inputs.fold(Logic::One, |a, b| a.and(b)),
        GateKind::Nand => inputs.fold(Logic::One, |a, b| a.and(b)).not(),
        GateKind::Or => inputs.fold(Logic::Zero, |a, b| a.or(b)),
        GateKind::Nor => inputs.fold(Logic::Zero, |a, b| a.or(b)).not(),
        GateKind::Xor => inputs.fold(Logic::Zero, |a, b| a.xor(b)),
        GateKind::Xnor => inputs.fold(Logic::Zero, |a, b| a.xor(b)).not(),
        GateKind::Not => inputs.next().expect("Not has one input").not(),
        GateKind::Buf => inputs.next().expect("Buf has one input"),
        GateKind::Dff => unreachable!("Dff handled in evaluate_gate"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drive(c: &mut Circuit, net: NetId, v: bool) {
        c.set_input(net, Logic::from_bool(v));
    }

    #[test]
    fn not_gate_inverts_with_delay() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::Not, &[a], y, 3);
        drive(&mut c, a, false);
        c.run_until(2);
        assert_eq!(c.value(y), Logic::X); // not yet propagated
        c.run_until(3);
        assert_eq!(c.value(y), Logic::One);
    }

    #[test]
    fn and_gate_truth() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::And, &[a, b], y, 1);
        for (va, vb, exp) in [(false, false, false), (true, false, false), (true, true, true)] {
            drive(&mut c, a, va);
            drive(&mut c, b, vb);
            c.settle();
            assert_eq!(c.value(y), Logic::from_bool(exp), "{va} & {vb}");
        }
    }

    #[test]
    fn xor_parity_of_three() {
        let mut c = Circuit::new();
        let ins: Vec<NetId> = (0..3).map(|i| c.input(&format!("i{i}"))).collect();
        let y = c.net("y");
        c.gate(GateKind::Xor, &ins, y, 1);
        for bits in 0..8u8 {
            for (k, &n) in ins.iter().enumerate() {
                drive(&mut c, n, bits >> k & 1 == 1);
            }
            c.settle();
            let expect = (bits.count_ones() & 1) == 1;
            assert_eq!(c.value(y), Logic::from_bool(expect), "bits {bits:03b}");
        }
    }

    #[test]
    fn dff_samples_on_rising_edge_only() {
        let mut c = Circuit::new();
        let d = c.input("d");
        let clk = c.input("clk");
        let q = c.net("q");
        c.gate(GateKind::Dff, &[d, clk], q, 1);
        drive(&mut c, clk, false);
        drive(&mut c, d, true);
        c.settle();
        assert_eq!(c.value(q), Logic::X); // no edge yet
        drive(&mut c, clk, true); // rising edge: sample D=1
        c.settle();
        assert_eq!(c.value(q), Logic::One);
        drive(&mut c, d, false); // changing D without a clock edge
        c.settle();
        assert_eq!(c.value(q), Logic::One);
        drive(&mut c, clk, false); // falling edge: no sample
        c.settle();
        assert_eq!(c.value(q), Logic::One);
        drive(&mut c, clk, true); // rising edge: sample D=0
        c.settle();
        assert_eq!(c.value(q), Logic::Zero);
    }

    #[test]
    fn dff_async_reset() {
        let mut c = Circuit::new();
        let d = c.input("d");
        let clk = c.input("clk");
        let rst = c.input("rst");
        let q = c.net("q");
        c.gate(GateKind::Dff, &[d, clk, rst], q, 1);
        drive(&mut c, rst, true);
        drive(&mut c, clk, false);
        drive(&mut c, d, true);
        c.settle();
        assert_eq!(c.value(q), Logic::Zero);
        // Reset dominates a clock edge.
        drive(&mut c, clk, true);
        c.settle();
        assert_eq!(c.value(q), Logic::Zero);
        drive(&mut c, rst, false);
        drive(&mut c, clk, false);
        c.settle();
        drive(&mut c, clk, true);
        c.settle();
        assert_eq!(c.value(q), Logic::One);
    }

    #[test]
    fn combinational_chain_accumulates_delay() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let mut prev = a;
        for i in 0..4 {
            let y = c.net(&format!("y{i}"));
            c.gate(GateKind::Not, &[prev], y, 2);
            prev = y;
        }
        drive(&mut c, a, false);
        c.run_until(7);
        assert_eq!(c.value(prev), Logic::X); // needs 8 units
        c.run_until(8);
        assert_eq!(c.value(prev), Logic::Zero); // 4 inversions of 0... wait
    }

    #[test]
    fn scheduled_inputs_fire_in_order() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let y = c.net("y");
        c.gate(GateKind::Buf, &[a], y, 1);
        c.set_input_at(0, a, Logic::Zero);
        c.set_input_at(10, a, Logic::One);
        c.set_input_at(20, a, Logic::Zero);
        c.run_until(5);
        assert_eq!(c.value(y), Logic::Zero);
        c.run_until(15);
        assert_eq!(c.value(y), Logic::One);
        c.run_until(25);
        assert_eq!(c.value(y), Logic::Zero);
    }

    #[test]
    fn x_propagates_through_gates() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::Or, &[a, b], y, 1);
        drive(&mut c, a, false);
        // b stays X.
        c.settle();
        assert_eq!(c.value(y), Logic::X);
        drive(&mut c, b, true);
        c.settle();
        assert_eq!(c.value(y), Logic::One);
    }

    #[test]
    fn nets_are_interned_by_name() {
        let mut c = Circuit::new();
        let a = c.net("x");
        let b = c.net("x");
        assert_eq!(a, b);
        assert_eq!(c.net_count(), 1);
        assert_eq!(c.net_name(a), "x");
    }

    #[test]
    #[should_panic(expected = "exactly one input")]
    fn not_gate_arity_checked() {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let y = c.net("y");
        c.gate(GateKind::Not, &[a, b], y, 1);
    }
}
