//! Gate-level netlists and the event-driven simulation kernel.

use std::collections::{HashMap, VecDeque};

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

/// Pending net changes in time buckets: the buckets are kept in
/// ascending time order and each pops first in, first out. Every change
/// is appended to its time's bucket when it is scheduled, so changes pop
/// in (time, scheduling order), the order of a priority queue keyed on
/// both.
#[derive(Debug, Clone, Default)]
struct EventQueue {
    buckets: VecDeque<Bucket>,
    /// Changes of the front bucket already popped.
    head: usize,
    /// Emptied bucket vectors, reused for the next new times.
    spare: Vec<Vec<(NetId, Logic)>>,
    /// Test builds can route the changes through a binary heap instead:
    /// the reference the buckets are checked against.
    #[cfg(test)]
    reference: Option<tests::HeapQueue>,
}

#[derive(Debug, Clone)]
struct Bucket {
    time: u64,
    changes: Vec<(NetId, Logic)>,
}

impl EventQueue {
    fn push(&mut self, time: u64, net: NetId, value: Logic) {
        #[cfg(test)]
        if let Some(heap) = &mut self.reference {
            return heap.push(time, net, value);
        }
        // Gate outputs land at or after the latest pending time, so the
        // search is rarely needed.
        let i = match self.buckets.back() {
            Some(last) if last.time < time => self.buckets.len(),
            Some(last) if last.time == time => self.buckets.len() - 1,
            _ => self.buckets.partition_point(|b| b.time < time),
        };
        if self.buckets.get(i).is_none_or(|b| b.time != time) {
            // The partly popped front bucket holds the current time,
            // and nothing is scheduled before it.
            debug_assert!(i > 0 || self.head == 0, "a change scheduled in the past");
            let changes = self.spare.pop().unwrap_or_default();
            self.buckets.insert(i, Bucket { time, changes });
        }
        self.buckets[i].changes.push((net, value));
    }

    /// Pops the earliest pending change due at or before `t_stop`.
    fn pop_due(&mut self, t_stop: u64) -> Option<(u64, NetId, Logic)> {
        #[cfg(test)]
        if let Some(heap) = &mut self.reference {
            return heap.pop_due(t_stop);
        }
        let front = self.buckets.front()?;
        if front.time > t_stop {
            return None;
        }
        let (time, (net, value)) = (front.time, front.changes[self.head]);
        self.head += 1;
        if self.head == front.changes.len() {
            let mut done = self.buckets.pop_front().expect("the front bucket");
            done.changes.clear();
            self.spare.push(done.changes);
            self.head = 0;
        }
        Some((time, net, value))
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
    queue: EventQueue,
    now: u64,
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
        self.queue.push(self.now, net, value);
    }

    /// Schedules a primary-input change at an absolute future time.
    ///
    /// # Panics
    ///
    /// Panics if `time` is in the past.
    pub fn set_input_at(&mut self, time: u64, net: NetId, value: Logic) {
        assert!(time >= self.now, "cannot schedule in the past");
        self.queue.push(time, net, value);
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
        while let Some((time, net, value)) = self.queue.pop_due(t_stop) {
            self.now = time;
            self.events_processed += 1;
            assert!(
                self.events_processed < Self::EVENT_LIMIT,
                "event limit exceeded: possible zero-delay oscillation"
            );
            if self.nets[net.0] == value {
                continue;
            }
            self.nets[net.0] = value;
            // Re-evaluate fanout gates. Evaluation never changes the
            // fanout lists, so they are walked by index in place.
            for k in 0..self.fanout[net.0].len() {
                let gid = self.fanout[net.0][k];
                self.evaluate_gate(gid, net);
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
        self.queue.push(self.now + delay, output, new_value);
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
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A pending change keyed on (time, scheduling order).
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

    /// The reference event queue: a binary heap ordered by time, then
    /// by scheduling order.
    #[derive(Debug, Clone, Default)]
    pub(super) struct HeapQueue {
        heap: BinaryHeap<Reverse<Event>>,
        seq: u64,
    }

    impl HeapQueue {
        pub(super) fn push(&mut self, time: u64, net: NetId, value: Logic) {
            self.seq += 1;
            self.heap.push(Reverse(Event {
                time,
                seq: self.seq,
                net,
                value,
            }));
        }

        pub(super) fn pop_due(&mut self, t_stop: u64) -> Option<(u64, NetId, Logic)> {
            let &Reverse(ev) = self.heap.peek()?;
            if ev.time > t_stop {
                return None;
            }
            self.heap.pop();
            Some((ev.time, ev.net, ev.value))
        }
    }

    /// One driver action of the oracle test.
    #[derive(Debug, Clone, Copy)]
    enum Action {
        Set(usize, Logic),
        SetAt(u64, usize, Logic),
        RunFor(u64),
        Settle,
    }

    fn logic(k: u64) -> Logic {
        [Logic::Zero, Logic::One, Logic::X][(k % 3) as usize]
    }

    /// Decodes a raw draw into an action: same-time sets, sets a few
    /// units ahead, far-future sets, short runs and settles.
    fn action((kind, net, value, offset): (u64, usize, u64, u64)) -> Action {
        match kind {
            0..=3 => Action::Set(net, logic(value)),
            4..=6 => Action::SetAt(offset % 8, net, logic(value)),
            7 => Action::SetAt(1_000_000 + offset, net, logic(value)),
            8 => Action::RunFor(offset % 12),
            _ => Action::Settle,
        }
    }

    /// A small circuit mixing zero and non-zero delays, reconvergent
    /// fanout, a feedback loop through a flip-flop and a clock input
    /// shared with data.
    fn oracle_circuit() -> (Circuit, Vec<NetId>) {
        let mut c = Circuit::new();
        let ins: Vec<NetId> = (0..4).map(|i| c.input(&format!("i{i}"))).collect();
        let n: Vec<NetId> = (0..6).map(|i| c.net(&format!("n{i}"))).collect();
        c.gate(GateKind::Nand, &[ins[0], ins[1]], n[0], 0);
        c.gate(GateKind::Xor, &[ins[1], ins[2], n[0]], n[1], 1);
        c.gate(GateKind::Not, &[n[1]], n[2], 0);
        c.gate(GateKind::Or, &[n[2], n[0]], n[3], 2);
        c.gate(GateKind::Dff, &[n[5], ins[3], ins[0]], n[4], 1);
        c.gate(GateKind::Xnor, &[n[4], n[3]], n[5], 3);
        (c, ins)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The time buckets apply every change in the order the binary
        /// heap they replaced did: after each action, every net, the
        /// clock and the count of changes applied agree.
        #[test]
        fn buckets_match_the_heap_reference(
            draws in proptest::collection::vec((0u64..10, 0usize..4, 0u64..3, 0u64..40), 1..60),
        ) {
            let (mut buckets, ins) = oracle_circuit();
            let mut heap = buckets.clone();
            heap.queue.reference = Some(HeapQueue::default());
            for action in draws.into_iter().map(action) {
                for c in [&mut buckets, &mut heap] {
                    match action {
                        Action::Set(i, v) => c.set_input(ins[i], v),
                        Action::SetAt(ahead, i, v) => c.set_input_at(c.now() + ahead, ins[i], v),
                        Action::RunFor(span) => c.run_until(c.now() + span),
                        Action::Settle => c.settle(),
                    }
                }
                proptest::prop_assert_eq!(buckets.now(), heap.now(), "{:?}", action);
                proptest::prop_assert_eq!(&buckets.nets, &heap.nets, "{:?}", action);
                proptest::prop_assert_eq!(
                    buckets.events_processed,
                    heap.events_processed,
                    "{:?}",
                    action
                );
            }
        }
    }

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
