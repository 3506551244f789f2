//! Modified nodal analysis: unknown layout, device stamps and the shared
//! Newton–Raphson solver used by DC and transient analyses.

use std::sync::Arc;

use crate::dense::Matrix;
use crate::devices::{Device, DiodeParams, MosParams, MosPolarity, SwitchParams};
use crate::metrics::DemotionTier;
use crate::netlist::{DeviceId, Netlist, NodeId};
use crate::robust::{BudgetClock, Instruments, SolveBudget};
use crate::solver::{solve_into, FactorKey, MnaMatrix, PositionProbe, SolverContext};
use crate::source::SourceWaveform;
use crate::AnalysisError;
use linsys::sparse::{SparseLu, SparseMatrix, SparseStructure};
use linsys::{refine_once, NumericalHazard, SingularMatrixError};
use obs::profile::{LapTimer, Phase};
use obs::NumericSite;

/// Mapping from circuit topology to MNA unknown indices.
///
/// Unknowns are ordered: node voltages for nodes `1..node_count` (ground is
/// eliminated), followed by one branch current per voltage-defined element
/// (independent voltage sources, VCVSs, inductors).
#[derive(Debug, Clone)]
pub struct MnaLayout {
    node_count: usize,
    branch_of_device: Vec<Option<usize>>,
    size: usize,
}

impl MnaLayout {
    /// Builds the layout for a netlist.
    pub fn new(netlist: &Netlist) -> Self {
        let node_count = netlist.node_count();
        let mut branch_of_device = vec![None; netlist.device_count()];
        let mut next_branch = 0;
        for (id, _, dev) in netlist.devices() {
            if dev.needs_branch_current() {
                branch_of_device[id.index()] = Some(next_branch);
                next_branch += 1;
            }
        }
        MnaLayout {
            node_count,
            branch_of_device,
            size: (node_count - 1) + next_branch,
        }
    }

    /// Total number of unknowns.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Number of circuit nodes including ground.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Unknown index of a node voltage, or `None` for ground.
    #[inline]
    pub fn node_index(&self, node: NodeId) -> Option<usize> {
        if node.is_ground() {
            None
        } else {
            Some(node.index() - 1)
        }
    }

    /// Unknown index of a device's branch current, if it has one.
    #[inline]
    pub fn branch_index(&self, device: DeviceId) -> Option<usize> {
        self.branch_of_device[device.index()].map(|b| (self.node_count - 1) + b)
    }

    /// Reads a node voltage out of a solution vector.
    #[inline]
    pub fn voltage(&self, x: &[f64], node: NodeId) -> f64 {
        match self.node_index(node) {
            Some(i) => x[i],
            None => 0.0,
        }
    }
}

/// Numerical integration method for reactive elements.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Integrator {
    /// First-order implicit Euler: very stable, damps ringing.
    BackwardEuler,
    /// Second-order trapezoidal rule: more accurate, may ring on
    /// discontinuities.
    #[default]
    Trapezoidal,
}

/// Per-device history for reactive companion models, indexed by device.
#[derive(Debug, Clone)]
pub struct ReactiveHistory {
    /// Branch voltage `v(a) − v(b)` at the previous accepted timepoint.
    pub v: Vec<f64>,
    /// Branch current at the previous accepted timepoint.
    pub i: Vec<f64>,
}

impl ReactiveHistory {
    /// Zero-initialised history for a netlist.
    pub fn new(netlist: &Netlist) -> Self {
        ReactiveHistory {
            v: vec![0.0; netlist.device_count()],
            i: vec![0.0; netlist.device_count()],
        }
    }
}

/// How reactive elements are stamped.
#[derive(Debug, Clone)]
pub enum CompanionMode<'a> {
    /// DC: capacitors open, inductors shorted.
    Dc,
    /// Transient step of size `dt` from the state in `history`.
    Transient {
        /// Integration rule.
        method: Integrator,
        /// Timestep in seconds.
        dt: f64,
        /// State at the previous accepted timepoint.
        history: &'a ReactiveHistory,
    },
}

/// Everything the stamper needs to evaluate devices at one time/iterate.
#[derive(Debug, Clone)]
pub struct StampParams<'a> {
    /// Absolute simulation time (seconds).
    pub time: f64,
    /// Reactive element handling.
    pub companion: CompanionMode<'a>,
    /// Conductance added from every node to ground for robustness.
    pub gmin: f64,
    /// Scale factor on independent sources (1.0 normally; <1 during
    /// source stepping).
    pub source_scale: f64,
}

/// Stamps the full linearised MNA system `A·x_new = b` around the guess
/// `x` into a dense matrix: the linear devices plus gmin, the linear
/// right-hand side through its compiled program, then the nonlinear
/// devices through a device program compiled against `a`'s value
/// slots.
pub fn stamp_system(
    netlist: &Netlist,
    layout: &MnaLayout,
    x: &[f64],
    params: &StampParams<'_>,
    a: &mut Matrix,
    b: &mut [f64],
) {
    a.clear();
    b.fill(0.0);
    stamp_linear_matrix(netlist, layout, params, a);
    RhsProgram::compile(netlist, layout).stamp(netlist, params, b);
    let program = NonlinearProgram::compile(netlist, layout, |r, c| a.slot(r, c));
    program.stamp(x, a.values_mut(), b);
}

/// Companion coefficient of a reactive element of size `value` under
/// `method` and `dt`: the conductance of a capacitor (farads) or the
/// impedance of an inductor (henries).
#[inline]
fn companion(method: Integrator, dt: f64, value: f64) -> f64 {
    match method {
        Integrator::BackwardEuler => value / dt,
        Integrator::Trapezoidal => 2.0 * value / dt,
    }
}

/// The linear device stamps plus gmin: the matrix half of a linear
/// assembly, whose right-hand side an [`RhsProgram`] stamps. Depends
/// only on the [`FactorKey`] (mode, method, `dt`, gmin), which is what
/// lets one snapshot of it serve every solve under that key.
fn stamp_linear_matrix<M: MnaMatrix>(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    a: &mut M,
) {
    for (dev_id, _, dev) in netlist.devices() {
        match dev {
            Device::Resistor { a: na, b: nb, ohms } => {
                stamp_conductance(layout, a, *na, *nb, 1.0 / ohms);
            }
            Device::Capacitor {
                a: na,
                b: nb,
                farads,
                ..
            } => {
                if let CompanionMode::Transient { method, dt, .. } = &params.companion {
                    stamp_conductance(layout, a, *na, *nb, companion(*method, *dt, *farads));
                }
            }
            Device::Inductor {
                a: na,
                b: nb,
                henries,
            } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("inductor has a branch index");
                stamp_branch_kcl(layout, a, *na, *nb, j);
                // Branch equation: v(a) - v(b) - z*i = rhs; a DC short
                // is v(a) - v(b) = 0.
                if let CompanionMode::Transient { method, dt, .. } = &params.companion {
                    a.add(j, j, -companion(*method, *dt, *henries));
                }
            }
            Device::Vsource { pos, neg, .. } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("vsource has a branch index");
                stamp_branch_kcl(layout, a, *pos, *neg, j);
            }
            Device::Vcvs {
                pos,
                neg,
                cpos,
                cneg,
                gain,
            } => {
                let j = layout
                    .branch_index(dev_id)
                    .expect("vcvs has a branch index");
                stamp_branch_kcl(layout, a, *pos, *neg, j);
                if let Some(ic) = layout.node_index(*cpos) {
                    a.add(j, ic, -gain);
                }
                if let Some(ic) = layout.node_index(*cneg) {
                    a.add(j, ic, *gain);
                }
            }
            Device::Vccs {
                pos,
                neg,
                cpos,
                cneg,
                gm,
            } => {
                stamp_transconductance(layout, a, *pos, *neg, *cpos, *cneg, *gm);
            }
            // Isources only drive the right-hand side; nonlinear devices
            // are stamped by the compiled program.
            Device::Isource { .. }
            | Device::Mosfet { .. }
            | Device::Diode { .. }
            | Device::Switch { .. } => {}
        }
    }

    // gmin to ground on every node for numerical robustness.
    if params.gmin > 0.0 {
        for n in 0..layout.node_count - 1 {
            a.add(n, n, params.gmin);
        }
    }
}

/// Unknown index of a ground terminal, and the slot of a stamp entry
/// that touches ground, in a compiled [`NonlinearProgram`].
const GROUND: u32 = u32::MAX;

/// Unknown index of `node` in `layout` ([`GROUND`] for ground).
fn unknown(layout: &MnaLayout, node: NodeId) -> u32 {
    layout.node_index(node).map_or(GROUND, |i| i as u32)
}

/// Voltage of unknown `i` in `x` (`0.0` for [`GROUND`]).
#[inline]
fn volt(x: &[f64], i: u32) -> f64 {
    if i == GROUND {
        0.0
    } else {
        x[i as usize]
    }
}

/// A capacitor or inductor with its device index (its
/// [`ReactiveHistory`] entry) and its terminals' unknown indices
/// resolved, [`GROUND`] where a terminal is grounded.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Reactive {
    Capacitor {
        k: usize,
        a: u32,
        b: u32,
        farads: f64,
        ic: Option<f64>,
    },
    Inductor {
        k: usize,
        a: u32,
        b: u32,
        /// Branch-current unknown.
        j: u32,
        henries: f64,
    },
}

impl Reactive {
    /// `device` resolved against `layout`, or `None` when it is not a
    /// capacitor or an inductor.
    pub(crate) fn resolve(layout: &MnaLayout, id: DeviceId, device: &Device) -> Option<Reactive> {
        let k = id.index();
        match *device {
            Device::Capacitor { a, b, farads, ic } => Some(Reactive::Capacitor {
                k,
                a: unknown(layout, a),
                b: unknown(layout, b),
                farads,
                ic,
            }),
            Device::Inductor { a, b, henries } => Some(Reactive::Inductor {
                k,
                a: unknown(layout, a),
                b: unknown(layout, b),
                j: branch_of(layout, id),
                henries,
            }),
            _ => None,
        }
    }

    /// Every capacitor and inductor of `netlist`, in device order.
    pub(crate) fn all(netlist: &Netlist, layout: &MnaLayout) -> Vec<Reactive> {
        netlist
            .devices()
            .filter_map(|(id, _, dev)| Reactive::resolve(layout, id, dev))
            .collect()
    }
}

/// Branch voltage `v(a) − v(b)` in `x` ([`GROUND`] reads `0.0`).
#[inline]
pub(crate) fn branch_voltage(x: &[f64], a: u32, b: u32) -> f64 {
    volt(x, a) - volt(x, b)
}

/// Unknown index of a voltage-defined device's branch current.
fn branch_of(layout: &MnaLayout, id: DeviceId) -> u32 {
    let j = layout
        .branch_index(id)
        .expect("voltage-defined device has a branch index");
    u32::try_from(j).expect("unknown index fits u32")
}

/// The waveform of independent source `id`, read live: a
/// [`crate::transient::TransientSession`] rewrites it between steps.
fn source_wave(netlist: &Netlist, id: DeviceId) -> &SourceWaveform {
    match netlist.device(id) {
        Device::Vsource { wave, .. } | Device::Isource { wave, .. } => wave,
        other => panic!("compiled source {id:?} is now {other:?}"),
    }
}

/// One right-hand-side stamp of a linear device.
#[derive(Debug, Clone, Copy)]
enum RhsOp {
    /// Companion history of a capacitor or inductor (transient only).
    Reactive(Reactive),
    /// A voltage source's value on its branch row `j`.
    Vsource { id: DeviceId, j: u32 },
    /// A current source's value, injected into `pos` and out of `neg`.
    Isource { id: DeviceId, pos: u32, neg: u32 },
}

/// The linear right-hand side — source values, capacitor and inductor
/// history — compiled once per assembled system: one flat entry per
/// capacitor, inductor, voltage source and current source, in device
/// order, with unknown indices resolved.
///
/// Each timestep's first Newton iteration runs this table instead of
/// walking the netlist's `Device` enum. Device order is kept because it
/// is the accumulation order into `b` rows two devices share, and each
/// entry evaluates the expressions the netlist walk did, so `b` is bit
/// for bit the walk's. Sources are looked up by [`DeviceId`] at stamp
/// time, so a rewritten waveform takes effect at once.
#[derive(Debug, Clone, Default)]
pub(crate) struct RhsProgram {
    ops: Vec<RhsOp>,
}

impl RhsProgram {
    /// Compiles the right-hand-side devices of `netlist`.
    pub(crate) fn compile(netlist: &Netlist, layout: &MnaLayout) -> RhsProgram {
        let ops = netlist
            .devices()
            .filter_map(|(id, _, dev)| match *dev {
                Device::Capacitor { .. } | Device::Inductor { .. } => {
                    Reactive::resolve(layout, id, dev).map(RhsOp::Reactive)
                }
                Device::Vsource { .. } => Some(RhsOp::Vsource {
                    id,
                    j: branch_of(layout, id),
                }),
                Device::Isource { pos, neg, .. } => Some(RhsOp::Isource {
                    id,
                    pos: unknown(layout, pos),
                    neg: unknown(layout, neg),
                }),
                _ => None,
            })
            .collect();
        RhsProgram { ops }
    }

    /// Accumulates every entry into `b` at `params.time`: source values
    /// scaled by `params.source_scale`, and under a transient companion
    /// the capacitor and inductor history currents.
    pub(crate) fn stamp(&self, netlist: &Netlist, params: &StampParams<'_>, b: &mut [f64]) {
        let transient = match &params.companion {
            CompanionMode::Dc => None,
            CompanionMode::Transient {
                method,
                dt,
                history,
            } => Some((*method, *dt, *history)),
        };
        for op in &self.ops {
            match *op {
                RhsOp::Reactive(reactive) => {
                    let Some((method, dt, history)) = transient else {
                        continue;
                    };
                    match reactive {
                        Reactive::Capacitor {
                            k,
                            a,
                            b: nb,
                            farads,
                            ..
                        } => {
                            let geq = companion(method, dt, farads);
                            let irhs = match method {
                                Integrator::BackwardEuler => geq * history.v[k],
                                Integrator::Trapezoidal => geq * history.v[k] + history.i[k],
                            };
                            inject(b, a, nb, irhs);
                        }
                        Reactive::Inductor { k, j, henries, .. } => {
                            let z = companion(method, dt, henries);
                            b[j as usize] += match method {
                                Integrator::BackwardEuler => -z * history.i[k],
                                Integrator::Trapezoidal => -z * history.i[k] - history.v[k],
                            };
                        }
                    }
                }
                RhsOp::Vsource { id, j } => {
                    b[j as usize] +=
                        source_wave(netlist, id).value_at(params.time) * params.source_scale;
                }
                RhsOp::Isource { id, pos, neg } => {
                    let i = source_wave(netlist, id).value_at(params.time) * params.source_scale;
                    inject(b, pos, neg, i);
                }
            }
        }
    }
}

/// Injects a current `i` into unknown `pos` and out of unknown `neg`,
/// in the netlist walk's order ([`GROUND`] skipped).
#[inline]
fn inject(b: &mut [f64], pos: u32, neg: u32, i: f64) {
    if pos != GROUND {
        b[pos as usize] += i;
    }
    if neg != GROUND {
        b[neg as usize] -= i;
    }
}

/// One nonlinear device with its terminals' unknown indices and value
/// slots resolved ([`GROUND`] where a terminal is grounded).
#[derive(Debug, Clone)]
enum NonlinearOp {
    Mosfet {
        polarity: MosPolarity,
        params: MosParams,
        /// Drain, gate and source unknowns.
        d: u32,
        g: u32,
        s: u32,
        /// Slots of rows {d, s} × columns {d, g, s}, row-major:
        /// `[dd, dg, ds, sd, sg, ss]`. With `hi = d` the stamp visits
        /// them in this order; with `hi = s` (the channel frame swapped)
        /// its row-by-row, hi-g-lo order is exactly the reverse.
        slots: [u32; 6],
    },
    Diode {
        params: DiodeParams,
        anode: u32,
        cathode: u32,
        /// Conductance slots `[aa, ak, kk, ka]`.
        slots: [u32; 4],
    },
    Switch {
        params: SwitchParams,
        cpos: u32,
        cneg: u32,
        /// Conductance slots `[aa, ab, bb, ba]` of the switched pair.
        slots: [u32; 4],
    },
}

/// The netlist's MOSFETs, diodes and switches compiled once per
/// assembled system: one flat entry per device, in netlist order, with
/// every terminal index and matrix value slot resolved up front.
///
/// Stamping walks this table instead of the netlist's `Device` enum, so
/// a Newton iteration pays for model evaluation and indexed adds only —
/// no node lookups, no `(row, col)` → slot resolution, no skipped linear
/// devices. Netlist order is kept because it is the accumulation order
/// into slots two devices share, which keeps every stamped value bit
/// for bit what a device-by-device `add` walk produces.
#[derive(Debug, Clone, Default)]
pub(crate) struct NonlinearProgram {
    ops: Vec<NonlinearOp>,
}

impl NonlinearProgram {
    /// Compiles the nonlinear devices of `netlist`, resolving each
    /// non-ground `(row, col)` a device may stamp through `slot` (a
    /// row-major slot of the sparse system, `r·n + c` of a dense
    /// [`Matrix`]).
    /// Every position either MOSFET channel frame can touch is
    /// resolved, so a symbolic probe can take its nonlinear positions
    /// from this call.
    pub(crate) fn compile(
        netlist: &Netlist,
        layout: &MnaLayout,
        mut slot: impl FnMut(usize, usize) -> usize,
    ) -> NonlinearProgram {
        let idx = |node: NodeId| unknown(layout, node);
        let mut at = |r: u32, c: u32| {
            if r == GROUND || c == GROUND {
                GROUND
            } else {
                u32::try_from(slot(r as usize, c as usize)).expect("value slot fits u32")
            }
        };
        let mut ops = Vec::new();
        for (_, _, dev) in netlist.devices() {
            let op = match dev {
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    polarity,
                    params,
                } => {
                    let (d, g, s) = (idx(*drain), idx(*gate), idx(*source));
                    NonlinearOp::Mosfet {
                        polarity: *polarity,
                        params: *params,
                        d,
                        g,
                        s,
                        slots: [at(d, d), at(d, g), at(d, s), at(s, d), at(s, g), at(s, s)],
                    }
                }
                Device::Diode {
                    anode,
                    cathode,
                    params,
                } => {
                    let (a, k) = (idx(*anode), idx(*cathode));
                    NonlinearOp::Diode {
                        params: *params,
                        anode: a,
                        cathode: k,
                        slots: [at(a, a), at(a, k), at(k, k), at(k, a)],
                    }
                }
                Device::Switch {
                    a,
                    b,
                    cpos,
                    cneg,
                    params,
                } => {
                    let (a, b) = (idx(*a), idx(*b));
                    NonlinearOp::Switch {
                        params: *params,
                        cpos: idx(*cpos),
                        cneg: idx(*cneg),
                        slots: [at(a, a), at(a, b), at(b, b), at(b, a)],
                    }
                }
                _ => continue,
            };
            ops.push(op);
        }
        NonlinearProgram { ops }
    }

    /// True when the netlist has no nonlinear device (a linear netlist).
    pub(crate) fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Stamps every device linearised around the iterate `x` on top of
    /// the values and right-hand side already assembled.
    pub(crate) fn stamp(&self, x: &[f64], values: &mut [f64], b: &mut [f64]) {
        for op in &self.ops {
            match op {
                NonlinearOp::Mosfet {
                    polarity,
                    params,
                    d,
                    g,
                    s,
                    slots,
                } => stamp_mosfet(x, values, b, *polarity, params, [*d, *g, *s], slots),
                NonlinearOp::Diode {
                    params,
                    anode,
                    cathode,
                    slots,
                } => {
                    let vd = volt(x, *anode) - volt(x, *cathode);
                    let (id, gd) = params.evaluate(vd);
                    let ieq = id - gd * vd;
                    stamp_slots_conductance(values, slots, gd);
                    let i = -ieq;
                    if *anode != GROUND {
                        b[*anode as usize] += i;
                    }
                    if *cathode != GROUND {
                        b[*cathode as usize] -= i;
                    }
                }
                NonlinearOp::Switch {
                    params,
                    cpos,
                    cneg,
                    slots,
                } => {
                    let vc = volt(x, *cpos) - volt(x, *cneg);
                    stamp_slots_conductance(values, slots, params.conductance(vc));
                }
            }
        }
    }
}

/// Adds a two-terminal conductance `g` through its resolved slots
/// `[aa, ab, bb, ba]`, in [`stamp_conductance`]'s order.
#[inline]
fn stamp_slots_conductance(values: &mut [f64], slots: &[u32; 4], g: f64) {
    for (&slot, v) in slots.iter().zip([g, -g, g, -g]) {
        if slot != GROUND {
            values[slot as usize] += v;
        }
    }
}

/// Stamps a level-1 MOSFET linearised around `x` through its resolved
/// slots (see [`NonlinearOp::Mosfet`]).
#[inline]
fn stamp_mosfet(
    x: &[f64],
    values: &mut [f64],
    b: &mut [f64],
    polarity: MosPolarity,
    mp: &MosParams,
    [d, g, s]: [u32; 3],
    slots: &[u32; 6],
) {
    let vd = volt(x, d);
    let vg = volt(x, g);
    let vs = volt(x, s);

    // Work in a "hi/lo" channel frame so the model only ever sees
    // vds >= 0; the physical source/drain swap when reverse-biased.
    //
    // For each polarity we compute the current `i` leaving node `hi`
    // through the channel into `lo`, plus its partial derivatives w.r.t.
    // (v_hi, v_g, v_lo). `swapped` means hi is the source terminal.
    let (swapped, vhi, vlo, i0, d_hi, d_g, d_lo) = match polarity {
        MosPolarity::Nmos => {
            let (swapped, vhi, vlo) = if vd >= vs {
                (false, vd, vs)
            } else {
                (true, vs, vd)
            };
            let op = mp.evaluate(vg - vlo, vhi - vlo);
            // i(v_hi, v_g, v_lo) = Ids(vgs = vg - vlo, vds = vhi - vlo)
            (swapped, vhi, vlo, op.ids, op.gds, op.gm, -(op.gm + op.gds))
        }
        MosPolarity::Pmos => {
            // PMOS conducts source -> drain when Vsg > Vt; the "hi" node is
            // the more positive of source/drain and acts as the source.
            let (swapped, vhi, vlo) = if vs >= vd {
                (true, vs, vd)
            } else {
                (false, vd, vs)
            };
            let op = mp.evaluate(vhi - vg, vhi - vlo);
            // i(v_hi, v_g, v_lo) = Ids(vgs = vhi - vg, vds = vhi - vlo)
            (swapped, vhi, vlo, op.ids, op.gm + op.gds, -op.gm, -op.gds)
        }
    };
    // Linearisation: i ≈ i0 + d_hi·(v_hi−vhi0) + d_g·(v_g−vg0) + d_lo·(v_lo−vlo0)
    let ieq = i0 - d_hi * vhi - d_g * vg - d_lo * vlo;

    // Current leaves `hi`, enters `lo`; gate carries no current. Row hi
    // then row lo, each over columns hi, g, lo.
    let coeff = [d_hi, d_g, d_lo];
    for e in 0..6 {
        let slot = slots[if swapped { 5 - e } else { e }];
        if slot != GROUND {
            let sign = if e < 3 { 1.0 } else { -1.0 };
            values[slot as usize] += sign * coeff[e % 3];
        }
    }
    let (hi, lo) = if swapped { (s, d) } else { (d, s) };
    for (row, sign) in [(hi, 1.0), (lo, -1.0)] {
        if row != GROUND {
            b[row as usize] -= sign * ieq;
        }
    }
}

/// Stamps a two-terminal conductance.
#[inline]
fn stamp_conductance<M: MnaMatrix>(layout: &MnaLayout, a: &mut M, na: NodeId, nb: NodeId, g: f64) {
    let ia = layout.node_index(na);
    let ib = layout.node_index(nb);
    if let Some(i) = ia {
        a.add(i, i, g);
        if let Some(j) = ib {
            a.add(i, j, -g);
        }
    }
    if let Some(j) = ib {
        a.add(j, j, g);
        if let Some(i) = ia {
            a.add(j, i, -g);
        }
    }
}

/// Stamps the KCL ±1 entries and the branch-row voltage terms for a
/// voltage-defined branch `j` between `pos` and `neg`.
#[inline]
fn stamp_branch_kcl<M: MnaMatrix>(layout: &MnaLayout, a: &mut M, pos: NodeId, neg: NodeId, j: usize) {
    if let Some(ip) = layout.node_index(pos) {
        a.add(ip, j, 1.0);
        a.add(j, ip, 1.0);
    }
    if let Some(in_) = layout.node_index(neg) {
        a.add(in_, j, -1.0);
        a.add(j, in_, -1.0);
    }
}

/// Stamps a transconductance `gm·(v(cpos) − v(cneg))` flowing `pos → neg`.
#[inline]
fn stamp_transconductance<M: MnaMatrix>(
    layout: &MnaLayout,
    a: &mut M,
    pos: NodeId,
    neg: NodeId,
    cpos: NodeId,
    cneg: NodeId,
    gm: f64,
) {
    for (row, sign_row) in [(pos, 1.0), (neg, -1.0)] {
        let Some(ir) = layout.node_index(row) else {
            continue;
        };
        if let Some(ic) = layout.node_index(cpos) {
            a.add(ir, ic, sign_row * gm);
        }
        if let Some(ic) = layout.node_index(cneg) {
            a.add(ir, ic, -sign_row * gm);
        }
    }
}

/// Options for the Newton–Raphson solve.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum iterations before declaring non-convergence.
    pub max_iterations: usize,
    /// Absolute voltage tolerance (volts).
    pub vabstol: f64,
    /// Absolute current tolerance (amperes).
    pub iabstol: f64,
    /// Relative tolerance.
    pub reltol: f64,
    /// Per-iteration clamp on voltage updates (volts); limits Newton
    /// overshoot through the exponential/quadratic device models.
    pub vstep_limit: f64,
}

impl Default for NewtonOptions {
    fn default() -> Self {
        NewtonOptions {
            max_iterations: 150,
            vabstol: 1e-6,
            iabstol: 1e-9,
            reltol: 1e-4,
            vstep_limit: 1.0,
        }
    }
}

/// Runs damped Newton–Raphson from the guess in `x`, overwriting it with
/// the solution.
///
/// # Errors
///
/// Returns [`AnalysisError::NoConvergence`] after `max_iterations`, or
/// [`AnalysisError::SingularMatrix`] if the Jacobian cannot be factored.
pub fn newton_solve(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    options: &NewtonOptions,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    let clock = BudgetClock::new(SolveBudget::unlimited());
    let instruments = Instruments::default();
    let mut ctx = SolverContext::default();
    newton_solve_with_context(
        netlist,
        layout,
        params,
        options,
        &clock,
        &instruments,
        &mut ctx,
        x,
    )
}

/// [`newton_solve`] against a caller-owned [`SolverContext`], with the
/// analysis's wall-clock meter and [`Instruments`].
///
/// The `clock`'s wall-clock budget (and any cancel token on it) is
/// polled between Newton iterations, so a single stuck timestep cannot
/// outlive the analysis budget; a clock with neither reads no time.
/// `instruments` carries the optional iteration counter, flight
/// recorder, phase profiler and numeric-chaos state; all are owned by
/// the caller, so counts, traces and timings cannot bleed between
/// unrelated analyses the way thread-global state would. A disarmed
/// handle costs a few `None` branches per iteration, allocates nothing
/// and never reads the clock.
///
/// The context carries the sparse symbolic structure, the assembled
/// system workspace and the cached factorisation *across* solves, which
/// is where the reuse wins come from: a transient march passes the same
/// context for every timestep, so a factorisation computed at one
/// timepoint keeps serving as the modified-Newton preconditioner until
/// the reuse policy retires it.
///
/// # Errors
///
/// As [`newton_solve`], plus [`AnalysisError::BudgetExceeded`] when the
/// clock's wall-clock ceiling is crossed and [`AnalysisError::Cancelled`]
/// when its token is raised.
#[allow(clippy::too_many_arguments)]
pub fn newton_solve_with_context(
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    options: &NewtonOptions,
    clock: &BudgetClock,
    instruments: &Instruments,
    ctx: &mut SolverContext,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    // One lap timer per solve: phase boundaries inside the Newton loop
    // are single clock reads into local accumulators, published (and
    // credited to any enclosing phase guard) in one flush. Per-phase
    // RAII guards here cost tens of percent of a microsecond-scale
    // iteration; the lap timer keeps armed overhead in the low single
    // digits. The flush runs on every exit path so partial attribution
    // survives singular matrices and convergence failures.
    let mut solve = NewtonSolve {
        netlist,
        layout,
        params,
        options,
        instruments,
        mode: SolveMode::of(params),
        lap: instruments.profile.as_ref().map(|_| LapTimer::start()),
        worst: f64::INFINITY,
        prev_worst: f64::INFINITY,
        baseline_ready: false,
        recovery: Recovery::default(),
    };
    let result = newton_iterate(&mut solve, clock, ctx, x);
    if let (Some(lap), Some(profile)) = (solve.lap, &instruments.profile) {
        lap.flush(profile);
    }
    result
}

/// Consecutive Newton iterations a cached factorisation may serve
/// before a refactorisation is forced regardless of contraction. The
/// contraction guard is what protects solution quality; this cap only
/// bounds how long a lucky-but-marginal factorisation can linger, so
/// it can be generous.
const STALE_ITER_CAP: u32 = 64;

/// Minimum per-iteration contraction a stale factorisation must keep
/// delivering: a trial stale step with `worst >= STALE_CONTRACTION *
/// prev_worst` is rejected and the iteration refactorises instead.
///
/// The value trades cheap stale iterations (an assembly plus two
/// back-substitutions) against expensive refactorisations. Sweeping it
/// on the e6 campaigns: 0.5 demands near-Newton contraction and
/// refactorises on a quarter of all iterations; 0.9 tolerates slowly
/// converging stale chains and cuts refactorisations 4× for ~20% more
/// iterations — a net win because a refactorisation costs ~3× a stale
/// iteration at macro scale. Beyond 0.9 the curve is flat, so the
/// guard keeps the tightest setting on the plateau. Solution quality
/// is unaffected either way: acceptance only decides *which matrix*
/// solves the next step, and convergence is still declared against the
/// caller's tolerances.
const STALE_CONTRACTION: f64 = 0.9;

/// [`STALE_CONTRACTION`] for **DC** solves. Far from an operating
/// point, Newton steps are clamped by `vstep_limit`, so a stale
/// Jacobian can shuffle the iterate sideways in barely-contracting
/// steps that each pass a loose guard yet never reach the solution —
/// a diode-connected bias from a cold start cycles exactly this way.
/// Demanding near-Newton contraction makes any DC stale chain earn its
/// keep or hand over to a fresh factorisation immediately. DC solves
/// are a rounding error of campaign time (hundreds of calls against
/// millions of transient steps), so this buys homotopy robustness for
/// free.
const STALE_CONTRACTION_DC: f64 = 0.5;

/// Tolerance tightening applied when declaring convergence on a stale
/// step of a **DC** solve. The residual-form step
/// `x − M⁻¹(A(x)·x − b(x))` has the true solution as its fixed point
/// and the contraction guard bounds the rate at [`STALE_CONTRACTION`],
/// so stopping at `tol` leaves at most `tol·ρ/(1−ρ) ≤ tol` of error —
/// fine inside a transient step, whose local truncation error already
/// dwarfs the solver tolerance. DC sweeps are different: each point is
/// reported directly, warm-started from the previous point's solution
/// (each in a fresh [`SolverContext`], so no factors carry over), and
/// point-to-point solver error of `O(tol)` shows up as visible wiggle
/// on an otherwise monotone curve (the inverter-VTC quality test
/// catches exactly this). Tightening only the DC stale stop keeps
/// sweep quality at fresh-Newton levels without touching the transient
/// hot path.
const STALE_TOL_SCALE_DC: f64 = 1e-4;

/// Length, in solves, of the distrust window opened when a stale trial
/// step fails its contraction guard. During fast transients (source
/// edges, switch flips) consecutive solves keep landing in new
/// operating regions where the cached Jacobian loses every trial;
/// refactorising immediately on the first iteration of the next few
/// solves saves the doomed trial's assembly, its stale-step pass and a
/// wasted Newton iteration per solve. The window is short so
/// reuse resumes a few steps after the circuit settles.
const DISTRUST_SOLVES: u8 = 4;

/// Pivot-growth factor above which a fresh factorisation raises the
/// advisory [`NumericalHazard::PivotGrowth`]. Partial pivoting keeps
/// growth near 1 on every well-behaved MNA system; values past 1e8 mean
/// elimination amplified entries enough to eat half the mantissa.
/// Advisory only: the acceptance gates decide whether the answer
/// stands, the counter tells the postmortem *why* it might not have.
const GROWTH_LIMIT: f64 = 1e8;

/// 1-norm condition estimate above which a fresh factorisation raises
/// the advisory [`NumericalHazard::IllConditioned`]. κ₁ ≈ 1e14 leaves
/// roughly two significant decimal digits in the solve — the point
/// where a fault signature stops being trustworthy. Estimated only on
/// fresh-key factorisations (a handful per analysis) because the Hager
/// probe costs a few extra back-substitutions.
const COND_LIMIT: f64 = 1e14;

/// Componentwise acceptance gate for solves returned off a *reused* (or
/// single-shot fresh) factorisation: the solve passes when the true
/// residual ∞-norm is below this fraction of its Oettli–Prager scale
/// `max_r(Σ_c |a_rc·x_c| + |b_r|)`. Honest solves sit at rounding level
/// (~1e-13 of scale), so 1e-8 leaves four
/// orders of margin while still catching a corrupted factor, a stale
/// structure or a poisoned right-hand side. Failures take one round of
/// iterative refinement before the tier demotes.
const RESID_GATE_TOL: f64 = 1e-8;

/// Marks a phase boundary on an armed lap timer.
#[inline]
fn mark(lap: &mut Option<LapTimer>, phase: Phase) {
    if let Some(l) = lap {
        l.lap(phase);
    }
}

/// Everything a solve reads off its companion mode, decided once per
/// solve.
struct SolveMode {
    /// Cache key of the factorisation. Time and `source_scale` only
    /// shape the right-hand side, so they stay out of the key; its
    /// `mode` (0 = DC, 1 = transient) indexes the symbolic structures.
    key: FactorKey,
    /// The attempted step size for flight records; DC solves carry 0.
    dt: f64,
    /// Tolerance scale for convergence declared on a stale step: a DC
    /// solve tightens it (see [`STALE_TOL_SCALE_DC`]), a transient step
    /// uses the plain tolerance.
    stale_tol_scale: f64,
    /// The contraction a stale step must deliver to be accepted.
    stale_contraction: f64,
}

impl SolveMode {
    /// The one companion-mode decision of a solve.
    fn of(params: &StampParams<'_>) -> Self {
        // Per mode: the key's mode and integrator discriminant (DC
        // solves use a fixed sentinel), the step size and the
        // stale-step policy.
        let (mode, method, dt, stale_tol_scale, stale_contraction) = match &params.companion {
            CompanionMode::Dc => (0, 2, 0.0, STALE_TOL_SCALE_DC, STALE_CONTRACTION_DC),
            CompanionMode::Transient { method, dt, .. } => {
                let method = match method {
                    Integrator::BackwardEuler => 0,
                    Integrator::Trapezoidal => 1,
                };
                (1, method, *dt, 1.0, STALE_CONTRACTION)
            }
        };
        SolveMode {
            key: FactorKey {
                mode,
                method,
                dt_bits: dt.to_bits(),
                gmin_bits: params.gmin.to_bits(),
            },
            dt,
            stale_tol_scale,
            stale_contraction,
        }
    }
}

/// Prepares the context's assembled-system workspace for this solve:
/// sizes the scratch vectors, builds the sparse system matrix over the
/// symbolic structure of companion mode `mode` (0 = DC, 1 = transient),
/// found by a one-time stamping probe, and compiles the nonlinear
/// device program against its value slots and the right-hand-side
/// program. A rebuilt system drops the linear-baseline record.
fn ensure_system(
    ctx: &mut SolverContext,
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    mode: usize,
    lap: Option<&mut LapTimer>,
) {
    let n = layout.size();
    if ctx.b.len() != n {
        // Dimension change: this context is being pointed at a new
        // layout, so nothing cached about the old one survives.
        ctx.structures = [None, None];
        ctx.sys = None;
        ctx.factor = None;
        ctx.stale_iters = 0;
        ctx.b.resize(n, 0.0);
        ctx.x_new.resize(n, 0.0);
        ctx.resid.resize(n, 0.0);
        ctx.scratch.resize(n, 0.0);
        ctx.trial.resize(n, 0.0);
    }
    if matches!(&ctx.sys, Some((m, sys)) if *m == mode && sys.n() == n) {
        return;
    }
    // Even at macro scale (tens of unknowns) the sparse kernel wins on
    // the campaign hot path: factor-from-scratch favours dense below ~64
    // unknowns, but the reuse tiers make back-substitution (O(nnz), not
    // O(n²)) and baseline restore (nnz values, not n²) the dominant
    // per-iteration costs, and those stay sparse-cheap at every size.
    if ctx.structures[mode].is_none() {
        let mut probe = PositionProbe::new();
        stamp_linear_matrix(netlist, layout, params, &mut probe);
        // The nonlinear positions come from the program itself: it
        // resolves every position either MOSFET channel frame can
        // touch. Covering the diagonal keeps gmin sweeps on the same
        // structure.
        NonlinearProgram::compile(netlist, layout, |r, c| {
            probe.add(r, c, 0.0);
            0
        });
        probe.cover_diagonal(n);
        ctx.structures[mode] = Some(SparseStructure::from_positions(n, probe.positions()));
        if let Some(lap) = lap {
            lap.lap(Phase::Symbolic);
        }
    }
    let structure = ctx.structures[mode].as_ref().expect("structure just built");
    let sys = SparseMatrix::zeros(Arc::clone(structure));
    ctx.program = NonlinearProgram::compile(netlist, layout, |r, c| {
        sys.slot_of(r, c)
            .unwrap_or_else(|| panic!("stamp at ({r}, {c}) outside sparse pattern"))
    });
    ctx.rhs = RhsProgram::compile(netlist, layout);
    ctx.baseline_key = None;
    ctx.sys = Some((mode, sys));
}

/// Assembles the linear baseline of a solve's first iteration under
/// `key` and snapshots it for the later ones. The linear matrix depends
/// only on the key, so when the context's snapshot already holds this
/// key it is restored instead of re-stamped; the right-hand side
/// (sources, reactive history) is always stamped afresh. Returns
/// whether the snapshot was reused.
fn assemble_baseline(
    ctx: &mut SolverContext,
    netlist: &Netlist,
    layout: &MnaLayout,
    params: &StampParams<'_>,
    key: FactorKey,
) -> bool {
    let (_, sys) = ctx.sys.as_mut().expect("system prepared");
    let reused = ctx.baseline_key == Some(key);
    if reused {
        sys.load_values(&ctx.baseline_a);
    } else {
        sys.clear();
        stamp_linear_matrix(netlist, layout, params, sys);
        ctx.baseline_a.clear();
        ctx.baseline_a.extend_from_slice(sys.values());
        ctx.baseline_key = Some(key);
    }
    ctx.b.fill(0.0);
    ctx.rhs.stamp(netlist, params, &mut ctx.b);
    ctx.baseline_b.clear();
    ctx.baseline_b.extend_from_slice(&ctx.b);
    reused
}

/// The largest delta `|x_new[k] − x[k]|` (ties to the first) and its
/// unknown, taken over the unknowns before the first non-finite delta,
/// whose index comes back as the first element (`None` when every
/// delta is finite).
fn largest_delta(x: &[f64], x_new: &[f64]) -> (Option<usize>, f64, usize) {
    let mut worst = 0.0;
    let mut worst_index = 0;
    for (k, (xk, xn)) in x.iter().zip(x_new).enumerate() {
        let mag = (xn - xk).abs();
        if !mag.is_finite() {
            return (Some(k), worst, worst_index);
        }
        if mag > worst {
            worst = mag;
            worst_index = k;
        }
    }
    (None, worst, worst_index)
}

/// The damped update `x += clamp(x_new − x)` over unknowns `0..end`
/// (every delta there finite), returning whether every delta met its
/// tolerance: node voltages `0..nv` against `vabstol` and clamped to
/// `vstep_limit`, then branch currents `nv..end` against `iabstol`,
/// unclamped. Each run hoists its tolerances and limit, so the loop
/// body has no branch.
fn damped_update(
    x: &mut [f64],
    x_new: &[f64],
    nv: usize,
    end: usize,
    options: &NewtonOptions,
    tol_scale: f64,
) -> bool {
    let split = nv.min(end);
    let runs = [
        (0..split, options.vabstol, options.vstep_limit),
        (split..end, options.iabstol, f64::INFINITY),
    ];
    let reltol = options.reltol;
    let mut converged = true;
    for (range, abstol, limit) in runs {
        for (xk, &xn) in x[range.clone()].iter_mut().zip(&x_new[range]) {
            let delta = xn - *xk;
            let mag = delta.abs();
            let over = mag > tol_scale * (abstol + reltol * xn.abs());
            converged &= !over;
            *xk += if mag > limit {
                limit.copysign(delta)
            } else {
                delta
            };
        }
    }
    converged
}

/// The demotion ladder's per-solve latches: whether each rung — a
/// fresh refactorisation, a symbolic rebuild — has fired in this solve
/// (see [`NewtonSolve::demote`]).
#[derive(Default)]
struct Recovery {
    refactor: bool,
    symbolic: bool,
}

/// How an iteration's linear step ended.
enum LinearStep {
    /// A linear netlist's solve passed its gate and is in `x`.
    Solved,
    /// `ctx.x_new` holds the next iterate for the update; an accepted
    /// stale step carries its largest delta.
    Update(Option<f64>),
    /// A recovery rung fired: the next iteration starts over.
    Retry,
}

/// One Newton solve: its inputs, the mode decision, the lap timer and
/// the state its iterations share.
struct NewtonSolve<'a> {
    netlist: &'a Netlist,
    layout: &'a MnaLayout,
    params: &'a StampParams<'a>,
    options: &'a NewtonOptions,
    instruments: &'a Instruments,
    mode: SolveMode,
    lap: Option<LapTimer>,
    /// The largest update of the latest iteration.
    worst: f64,
    /// `worst` of the iteration before, the contraction guard's
    /// reference.
    prev_worst: f64,
    /// Whether the linear baseline of this solve is assembled; a
    /// recovery clears it, so the retry assembles afresh.
    baseline_ready: bool,
    recovery: Recovery,
}

impl NewtonSolve<'_> {
    /// Counts `hazard` and appends it, with the `action` taken, to the
    /// flight-recorder history.
    fn note_hazard(&self, hazard: NumericalHazard, action: &str) {
        if let Some(metrics) = &self.instruments.metrics {
            metrics.hazard(hazard);
        }
        if let Some(flight) = &self.instruments.flight {
            flight.record_hazard(hazard.label(), action, self.params.time);
        }
    }

    /// Counts a demotion to `tier` on `hazard`, recorded with the
    /// tier's action.
    fn note_demotion(&self, tier: DemotionTier, hazard: NumericalHazard) {
        if let Some(metrics) = &self.instruments.metrics {
            metrics.demotion(tier);
        }
        let action = match tier {
            DemotionTier::Refactor => "demote:refactor",
            DemotionTier::Symbolic => "demote:symbolic",
        };
        self.note_hazard(hazard, action);
    }

    /// True when an armed numeric-chaos state fires at `site`.
    fn chaos_fires(&self, site: NumericSite) -> bool {
        let chaos = &self.instruments.chaos;
        chaos.as_ref().is_some_and(|c| c.fire(site))
    }

    /// The one recovery rule: fires `rung` on `hazard`. Each rung may
    /// fire once per solve, so recovery work stays bounded and a
    /// persistent hazard reaches its typed error promptly. The first
    /// firing counts the demotion, records the hazard with the rung's
    /// action and retries the iteration; a second one records the
    /// hazard as `"terminal"` and returns `terminal`.
    fn demote(
        &mut self,
        rung: DemotionTier,
        hazard: NumericalHazard,
        terminal: AnalysisError,
    ) -> Result<LinearStep, AnalysisError> {
        let fired = match rung {
            DemotionTier::Refactor => &mut self.recovery.refactor,
            DemotionTier::Symbolic => &mut self.recovery.symbolic,
        };
        if std::mem::replace(fired, true) {
            self.note_hazard(hazard, "terminal");
            return Err(terminal);
        }
        self.note_demotion(rung, hazard);
        self.baseline_ready = false;
        Ok(LinearStep::Retry)
    }

    /// [`ensure_system`] for this solve's netlist and companion mode.
    fn ensure_system(&mut self, ctx: &mut SolverContext) {
        let mode = usize::from(self.mode.key.mode);
        let lap = self.lap.as_mut();
        ensure_system(ctx, self.netlist, self.layout, self.params, mode, lap);
    }

    /// The one exit of a linear netlist's solve in `ctx.x_new`, off
    /// cached or fresh factors: the solve is copied into `x` only once
    /// the true residual against the assembled system sits below
    /// [`RESID_GATE_TOL`] of its Oettli–Prager scale, after one round
    /// of iterative refinement through `factor` if the first check
    /// fails. A non-finite scale never passes and is not refined: a NaN
    /// in the solution makes both the residual and its scale infinite,
    /// and `∞ ≤ ∞` holds. The scale bounds the residual's magnitude, so
    /// against a finite scale a non-finite residual, before or after
    /// refinement, fails the comparison by itself. A failed gate
    /// returns the residual norm before refinement.
    fn linear_exit(
        &self,
        ctx: &mut SolverContext,
        factor: &SparseLu,
        x: &mut Vec<f64>,
    ) -> Result<(), f64> {
        let (_, sys) = ctx.sys.as_ref().expect("system prepared");
        let (rnorm, scale) = sys.residual_gate_into(&ctx.x_new, &ctx.b, &mut ctx.resid);
        let accepted = scale.is_finite() && (rnorm <= RESID_GATE_TOL * scale || {
            if let Some(metrics) = &self.instruments.metrics {
                metrics.refinement_round();
            }
            let out = refine_once(
                &mut ctx.x_new,
                &mut ctx.resid,
                &mut ctx.scratch,
                &mut ctx.trial,
                |xv, out| sys.residual_into(xv, &ctx.b, out),
                |r, out| solve_into(factor, r, out),
            );
            out.residual_after <= RESID_GATE_TOL * scale
        });
        if !accepted {
            return Err(rnorm);
        }
        x.clear();
        x.extend_from_slice(&ctx.x_new);
        Ok(())
    }

    /// Assemble: restores the linear baseline (assembled and captured
    /// on the solve's first iteration), then runs the device program
    /// at `x`.
    fn assemble(&mut self, ctx: &mut SolverContext, x: &[f64]) {
        if self.baseline_ready {
            let (_, sys) = ctx.sys.as_mut().expect("system prepared");
            sys.load_values(&ctx.baseline_a);
            ctx.b.copy_from_slice(&ctx.baseline_b);
        } else {
            assemble_baseline(ctx, self.netlist, self.layout, self.params, self.mode.key);
            self.baseline_ready = true;
        }
        mark(&mut self.lap, Phase::Stamp);
        if !ctx.program.is_empty() {
            let (_, sys) = ctx.sys.as_mut().expect("system prepared");
            ctx.program.stamp(x, sys.values_mut(), &mut ctx.b);
            mark(&mut self.lap, Phase::DeviceEval);
        }
    }

    /// The linear step: the cached factorisation when its key matches
    /// — a linear netlist's exact solve, or a nonlinear one's trial
    /// modified-Newton step — and a (re)factorisation otherwise.
    fn linear_step(
        &mut self,
        ctx: &mut SolverContext,
        iter: usize,
        x: &mut Vec<f64>,
    ) -> Result<LinearStep, AnalysisError> {
        let metrics = &self.instruments.metrics;
        let mut cached = matches!(&ctx.factor, Some((k, _)) if *k == self.mode.key);
        if cached && ctx.program.is_empty() {
            // The matrix is exactly the one the factorisation was
            // computed from (linear stamps depend only on the key), so
            // the cached solve is exact — but the factors are still a
            // reused tier, so they pass the same gate as fresh ones.
            let (key, factor) = ctx.factor.take().expect("cached factor present");
            solve_into(&factor, &ctx.b, &mut ctx.x_new);
            mark(&mut self.lap, Phase::BackSubstitute);
            let exit = self.linear_exit(ctx, &factor, x);
            ctx.factor = Some((key, factor));
            if exit.is_ok() {
                if let Some(metrics) = metrics {
                    metrics.factor_reuse_hit();
                }
                return Ok(LinearStep::Solved);
            }
            // The cached factors failed their gate even after
            // refinement: retire them so this iteration refactorises.
            self.note_demotion(DemotionTier::Refactor, NumericalHazard::RefinementStall);
            cached = false;
        }
        if cached && ctx.stale_iters < STALE_ITER_CAP && (iter > 0 || ctx.distrust == 0) {
            // Trial modified-Newton step in residual form against the
            // stale factors: x_new = x − M⁻¹(A(x)·x − b(x)). The step
            // is only *accepted* if it keeps contracting the update;
            // otherwise this iteration refactorises below, so a stale
            // Jacobian can never push the iterate off course. Inside a
            // distrust window the first iteration skips the trial
            // outright — after a recent rejection the odds of the
            // cached Jacobian carrying a brand-new solve are poor, and
            // a doomed trial costs an assembly and a stale-step pass.
            let (_, factor) = ctx.factor.as_ref().expect("cached factor present");
            let (_, sys) = ctx.sys.as_ref().expect("system prepared");
            let candidate =
                factor.stale_step_into(sys, x, &ctx.b, &mut ctx.scratch, &mut ctx.x_new);
            mark(&mut self.lap, Phase::BackSubstitute);
            if candidate < self.mode.stale_contraction * self.prev_worst {
                if let Some(metrics) = metrics {
                    metrics.factor_reuse_hit();
                }
                ctx.stale_iters += 1;
                return Ok(LinearStep::Update(Some(candidate)));
            }
            // The contraction guard just retired these factors: open a
            // distrust window so the next few solves go straight to a
            // fresh Jacobian instead of repeating the trial.
            ctx.distrust = DISTRUST_SOLVES;
        }
        self.refactor(ctx, x)
    }

    /// (Re)factorises at the current iterate and solves, attributed to
    /// [`Phase::Factor`] on a fresh key and [`Phase::Refactor`] when
    /// the reuse policy retired a same-key factorisation.
    fn refactor(
        &mut self,
        ctx: &mut SolverContext,
        x: &mut Vec<f64>,
    ) -> Result<LinearStep, AnalysisError> {
        if let Some(metrics) = &self.instruments.metrics {
            metrics.factor_reuse_miss();
        }
        let same_key = matches!(&ctx.factor, Some((k, _)) if *k == self.mode.key);
        let reuse = ctx.factor.take().map(|(_, f)| f);
        let (_, sys) = ctx.sys.as_ref().expect("system prepared");
        // Numeric-chaos hook: a forced pivot breakdown walks the
        // demotion ladder exactly as a genuinely unfactorable system
        // would, without needing one in the netlist.
        let factored = if self.chaos_fires(NumericSite::Pivot) {
            Err(SingularMatrixError { row: 0 })
        } else {
            let mut lu = reuse.unwrap_or_default();
            lu.refactor_scheduled(sys, &mut ctx.ws, &mut ctx.schedule)
                .map(|()| lu)
        };
        let mut factor = match factored {
            Ok(f) => f,
            Err(err) => {
                // A failed factorisation rebuilds the symbolic
                // structure once (a stale pattern can starve the
                // numeric phase of the positions it needs), then gives
                // up with the typed error. The rebuild consumes one
                // Newton iteration of budget, so a genuinely singular
                // system still terminates promptly. Dense LU would
                // recover nothing past this point: the sparse kernel
                // replays dense partial pivoting under the same
                // threshold, so the two agree on what is singular.
                ctx.stale_iters = 0;
                let hazard = NumericalHazard::NearSingularPivot;
                let retry = self.demote(DemotionTier::Symbolic, hazard, err.into())?;
                ctx.structures = [None, None];
                ctx.sys = None;
                self.ensure_system(ctx);
                return Ok(retry);
            }
        };
        let phase = if same_key {
            Phase::Refactor
        } else {
            Phase::Factor
        };
        mark(&mut self.lap, phase);
        // Numeric-chaos hook: corrupting a pivot hands the acceptance
        // gate a realistically-wrong factorisation.
        if self.chaos_fires(NumericSite::Perturb) {
            factor.perturb_first_pivot(1.5);
        }
        // Advisory hazards on fresh factorisations: flagged for
        // diagnosis, never demoted on — the acceptance gates and
        // Newton's own convergence tests decide whether the answer
        // stands; the counters tell the postmortem why it may not.
        if factor.pivot_growth() > GROWTH_LIMIT {
            self.note_hazard(NumericalHazard::PivotGrowth, "advisory");
        }
        if !same_key && factor.condest(sys.norm_one()) > COND_LIMIT {
            self.note_hazard(NumericalHazard::IllConditioned, "advisory");
        }
        solve_into(&factor, &ctx.b, &mut ctx.x_new);
        mark(&mut self.lap, Phase::BackSubstitute);
        // Numeric-chaos hook: a poisoned solution exercises the
        // non-finite scrub downstream of every fresh solve.
        if self.chaos_fires(NumericSite::Nan) {
            ctx.x_new[0] = f64::NAN;
        }
        let linear = ctx.program.is_empty();
        if linear {
            // A linear solve returns this answer directly, so even a
            // fresh factorisation proves it first: the gate is what
            // turns a corrupted factor into a typed hazard instead of a
            // silent wrong report. One retry from a full
            // refactorisation repairs a transient corruption; a
            // persistent one lands on the typed error.
            if let Err(rnorm) = self.linear_exit(ctx, &factor, x) {
                let hazard = if rnorm.is_finite() {
                    NumericalHazard::RefinementStall
                } else {
                    NumericalHazard::NonFinite
                };
                ctx.invalidate();
                let time = self.params.time;
                let terminal = AnalysisError::Numerical { hazard, time };
                return self.demote(DemotionTier::Refactor, hazard, terminal);
            }
        }
        ctx.factor = Some((self.mode.key, factor));
        ctx.stale_iters = 0;
        Ok(if linear {
            LinearStep::Solved
        } else {
            LinearStep::Update(None)
        })
    }

    /// The update: the largest delta, the damped update with its
    /// convergence check, the non-finite scrub and the flight record.
    /// Returns whether the solve converged.
    fn update(
        &mut self,
        ctx: &mut SolverContext,
        iter: usize,
        stale_worst: Option<f64>,
        x: &mut [f64],
    ) -> Result<bool, AnalysisError> {
        let instruments = self.instruments;
        let (time, dt) = (self.params.time, self.mode.dt);
        let record = |residual: f64, index: usize| {
            if let Some(flight) = &instruments.flight {
                flight.record_iteration(time, dt, (iter + 1) as u64, residual, index);
            }
        };
        // A non-finite delta ends the update at its unknown, after the
        // ones before it. An accepted stale step has none, and its
        // kernel already returned the largest delta; only the flight
        // recorder wants its index.
        let (nonfinite, worst, worst_index) = match stale_worst {
            Some(worst) if instruments.flight.is_none() => (None, worst, 0),
            _ => largest_delta(x, &ctx.x_new),
        };
        self.worst = worst;
        let tol_scale = stale_worst.map_or(1.0, |_| self.mode.stale_tol_scale);
        let nv = self.layout.node_count() - 1;
        let end = nonfinite.unwrap_or(x.len());
        let converged = damped_update(x, &ctx.x_new, nv, end, self.options, tol_scale);
        if let Some(k) = nonfinite {
            // One retry from a fresh factorisation at the last finite
            // iterate: a transient overflow (a bad stale step, a
            // corrupted factor) is repaired; a genuinely divergent
            // system fails again and lands on the typed hazard.
            record(f64::INFINITY, k);
            ctx.invalidate();
            let hazard = NumericalHazard::NonFinite;
            let terminal = AnalysisError::Numerical { hazard, time };
            self.demote(DemotionTier::Refactor, hazard, terminal)?;
            return Ok(false);
        }
        mark(&mut self.lap, Phase::Residual);
        record(worst, worst_index);
        self.prev_worst = worst;
        Ok(converged)
    }
}

/// The damped Newton loop behind [`newton_solve_with_context`], with
/// phase boundaries marked on the solve's lap timer.
///
/// Each iteration assembles (restores the linear baseline, then stamps
/// the nonlinear devices on top), takes a linear step and applies the
/// damped update. The linear step picks a tier:
///
/// 1. **Cached factorisation** (key matches): linear netlists solve
///    directly; nonlinear ones take a modified-Newton step in residual
///    form `x_new = x − M⁻¹(A(x)·x − b(x))` against the stale factors.
/// 2. **(Re)factorisation** otherwise.
///
/// A failed gate, a non-finite update or a failed factorisation fires
/// one rung of the demotion ladder ([`NewtonSolve::demote`]).
///
/// The stale policy is deterministic and depends only on the `worst`
/// update magnitudes, so a run's iteration trajectory is the same at
/// any worker count.
fn newton_iterate(
    solve: &mut NewtonSolve<'_>,
    clock: &BudgetClock,
    ctx: &mut SolverContext,
    x: &mut Vec<f64>,
) -> Result<(), AnalysisError> {
    solve.ensure_system(ctx);
    // One solve has begun: age the distrust window. While it is open,
    // the first iteration refactorises instead of trialling the cached
    // factors, because a just-failed contraction guard says the circuit
    // is moving too fast for the stale Jacobian.
    ctx.distrust = ctx.distrust.saturating_sub(1);
    for iter in 0..solve.options.max_iterations {
        clock.check_wall(solve.params.time)?;
        if let Some(metrics) = &solve.instruments.metrics {
            metrics.newton_iteration();
        }
        // Budget/metrics bookkeeping (and the previous iteration's
        // tail) stays with the enclosing guard, not any solver phase.
        if let Some(l) = &mut solve.lap {
            l.skip();
        }
        solve.assemble(ctx, x);
        let stale_worst = match solve.linear_step(ctx, iter, x)? {
            LinearStep::Solved => return Ok(()),
            LinearStep::Retry => continue,
            LinearStep::Update(stale_worst) => stale_worst,
        };
        if solve.update(ctx, iter, stale_worst, x)? {
            return Ok(());
        }
    }
    ctx.invalidate();
    Err(AnalysisError::NoConvergence {
        time: solve.params.time,
        residual: solve.worst,
        iterations: solve.options.max_iterations,
    })
}

/// The device-by-device enum walks the compiled [`NonlinearProgram`] and
/// [`RhsProgram`] replaced, kept as the test oracles they must match bit
/// for bit.
#[cfg(test)]
mod oracle {
    use super::*;

    /// Injects a constant current `i` into node `pos` and out of node `neg`.
    fn stamp_current_injection(
        layout: &MnaLayout,
        b: &mut [f64],
        pos: NodeId,
        neg: NodeId,
        i: f64,
    ) {
        if let Some(ip) = layout.node_index(pos) {
            b[ip] += i;
        }
        if let Some(in_) = layout.node_index(neg) {
            b[in_] -= i;
        }
    }

    /// The linear right-hand side, accumulated into `b` in device
    /// order: source values at `params.time`, capacitor and inductor
    /// history currents, and isources.
    pub(super) fn stamp_linear_rhs(
        netlist: &Netlist,
        layout: &MnaLayout,
        params: &StampParams<'_>,
        b: &mut [f64],
    ) {
        for (dev_id, _, dev) in netlist.devices() {
            match dev {
                Device::Capacitor {
                    a: na,
                    b: nb,
                    farads,
                    ..
                } => {
                    if let CompanionMode::Transient {
                        method,
                        dt,
                        history,
                    } = &params.companion
                    {
                        let geq = companion(*method, *dt, *farads);
                        let k = dev_id.index();
                        let irhs = match method {
                            Integrator::BackwardEuler => geq * history.v[k],
                            Integrator::Trapezoidal => geq * history.v[k] + history.i[k],
                        };
                        stamp_current_injection(layout, b, *na, *nb, irhs);
                    }
                }
                Device::Inductor { henries, .. } => {
                    if let CompanionMode::Transient {
                        method,
                        dt,
                        history,
                    } = &params.companion
                    {
                        let j = layout
                            .branch_index(dev_id)
                            .expect("inductor has a branch index");
                        let z = companion(*method, *dt, *henries);
                        let k = dev_id.index();
                        b[j] += match method {
                            Integrator::BackwardEuler => -z * history.i[k],
                            Integrator::Trapezoidal => -z * history.i[k] - history.v[k],
                        };
                    }
                }
                Device::Vsource { wave, .. } => {
                    let j = layout
                        .branch_index(dev_id)
                        .expect("vsource has a branch index");
                    b[j] += wave.value_at(params.time) * params.source_scale;
                }
                Device::Isource { pos, neg, wave } => {
                    let i = wave.value_at(params.time) * params.source_scale;
                    stamp_current_injection(layout, b, *pos, *neg, i);
                }
                _ => {}
            }
        }
    }

    /// Nonlinear device models (MOSFET / diode / switch) linearised
    /// around the present guess `x`, stamped on top of the linear
    /// baseline.
    pub(super) fn stamp_nonlinear<M: MnaMatrix>(
        netlist: &Netlist,
        layout: &MnaLayout,
        x: &[f64],
        a: &mut M,
        b: &mut [f64],
    ) {
        let v_at = |node: NodeId| layout.voltage(x, node);
        for (_, _, dev) in netlist.devices() {
            match dev {
                Device::Mosfet {
                    drain,
                    gate,
                    source,
                    polarity,
                    params: mp,
                } => {
                    stamp_mosfet(layout, a, b, v_at, *drain, *gate, *source, *polarity, mp);
                }
                Device::Diode {
                    anode,
                    cathode,
                    params: dp,
                } => {
                    let vd = v_at(*anode) - v_at(*cathode);
                    let (id, gd) = dp.evaluate(vd);
                    let ieq = id - gd * vd;
                    stamp_conductance(layout, a, *anode, *cathode, gd);
                    stamp_current_injection(layout, b, *anode, *cathode, -ieq);
                }
                Device::Switch {
                    a: na,
                    b: nb,
                    cpos,
                    cneg,
                    params: sp,
                } => {
                    let vc = v_at(*cpos) - v_at(*cneg);
                    stamp_conductance(layout, a, *na, *nb, sp.conductance(vc));
                }
                _ => {}
            }
        }
    }

    /// Stamps a level-1 MOSFET linearised around the present guess.
    #[allow(clippy::too_many_arguments)]
    fn stamp_mosfet<M: MnaMatrix>(
        layout: &MnaLayout,
        a: &mut M,
        b: &mut [f64],
        v_at: impl Fn(NodeId) -> f64,
        drain: NodeId,
        gate: NodeId,
        source: NodeId,
        polarity: MosPolarity,
        mp: &MosParams,
    ) {
        let vd = v_at(drain);
        let vg = v_at(gate);
        let vs = v_at(source);
        let (hi, lo, vhi, vlo, i0, d_hi, d_g, d_lo) = match polarity {
            MosPolarity::Nmos => {
                let (hi, lo, vhi, vlo) = if vd >= vs {
                    (drain, source, vd, vs)
                } else {
                    (source, drain, vs, vd)
                };
                let op = mp.evaluate(vg - vlo, vhi - vlo);
                (hi, lo, vhi, vlo, op.ids, op.gds, op.gm, -(op.gm + op.gds))
            }
            MosPolarity::Pmos => {
                let (hi, lo, vhi, vlo) = if vs >= vd {
                    (source, drain, vs, vd)
                } else {
                    (drain, source, vd, vs)
                };
                let op = mp.evaluate(vhi - vg, vhi - vlo);
                (hi, lo, vhi, vlo, op.ids, op.gm + op.gds, -op.gm, -op.gds)
            }
        };
        let ieq = i0 - d_hi * vhi - d_g * vg - d_lo * vlo;
        let ihi = layout.node_index(hi);
        let ilo = layout.node_index(lo);
        let ig = layout.node_index(gate);
        for (row, sign) in [(ihi, 1.0), (ilo, -1.0)] {
            let Some(r) = row else { continue };
            if let Some(c) = ihi {
                a.add(r, c, sign * d_hi);
            }
            if let Some(c) = ig {
                a.add(r, c, sign * d_g);
            }
            if let Some(c) = ilo {
                a.add(r, c, sign * d_lo);
            }
            b[r] -= sign * ieq;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SourceWaveform;

    fn divider() -> (Netlist, NodeId, NodeId) {
        let mut nl = Netlist::new();
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("V1", vin, Netlist::GROUND, SourceWaveform::dc(10.0));
        nl.resistor("R1", vin, out, 1e3);
        nl.resistor("R2", out, Netlist::GROUND, 3e3);
        (nl, vin, out)
    }

    fn solve_dc(nl: &Netlist) -> (MnaLayout, Vec<f64>) {
        let layout = MnaLayout::new(nl);
        let mut x = vec![0.0; layout.size()];
        let params = StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin: 1e-12,
            source_scale: 1.0,
        };
        newton_solve(nl, &layout, &params, &NewtonOptions::default(), &mut x).unwrap();
        (layout, x)
    }

    #[test]
    fn layout_counts_branches() {
        let (nl, _, _) = divider();
        let layout = MnaLayout::new(&nl);
        // 2 non-ground nodes + 1 vsource branch.
        assert_eq!(layout.size(), 3);
    }

    #[test]
    fn resistive_divider_solution() {
        let (nl, vin, out) = divider();
        let (layout, x) = solve_dc(&nl);
        // gmin (1e-12 S) to ground leaks a little current, so allow 1e-6.
        assert!((layout.voltage(&x, vin) - 10.0).abs() < 1e-6);
        assert!((layout.voltage(&x, out) - 7.5).abs() < 1e-6);
    }

    #[test]
    fn vsource_branch_current() {
        let (nl, _, _) = divider();
        let (layout, x) = solve_dc(&nl);
        let v1 = nl.find_device("V1").unwrap();
        let j = layout.branch_index(v1).unwrap();
        // 10 V across 4 kΩ: branch current convention is current flowing
        // pos -> neg *through the source*, i.e. -2.5 mA here.
        assert!((x[j] + 2.5e-3).abs() < 1e-9);
    }

    #[test]
    fn vccs_injects_proportional_current() {
        let mut nl = Netlist::new();
        let c = nl.node("ctl");
        let o = nl.node("out");
        nl.vsource("V1", c, Netlist::GROUND, SourceWaveform::dc(2.0));
        // i = gm * v(ctl) flows out -> ground through the source; with a
        // load resistor the output voltage is -gm*R*vc.
        nl.vccs("G1", o, Netlist::GROUND, c, Netlist::GROUND, 1e-3);
        nl.resistor("RL", o, Netlist::GROUND, 1e3);
        let (layout, x) = solve_dc(&nl);
        assert!((layout.voltage(&x, o) + 2.0).abs() < 1e-6);
    }

    #[test]
    fn vcvs_amplifies() {
        let mut nl = Netlist::new();
        let c = nl.node("ctl");
        let o = nl.node("out");
        nl.vsource("V1", c, Netlist::GROUND, SourceWaveform::dc(0.5));
        nl.vcvs("E1", o, Netlist::GROUND, c, Netlist::GROUND, 10.0);
        nl.resistor("RL", o, Netlist::GROUND, 1e3);
        let (layout, x) = solve_dc(&nl);
        assert!((layout.voltage(&x, o) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn nmos_diode_connected_bias() {
        // Diode-connected NMOS pulled up through a resistor: solves the
        // classic quadratic bias point.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let d = nl.node("d");
        nl.vsource("V1", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", vdd, d, 100e3);
        nl.mosfet(
            "M1",
            d,
            d,
            Netlist::GROUND,
            MosPolarity::Nmos,
            crate::devices::MosParams {
                vt0: 1.0,
                beta: 100e-6,
                lambda: 0.0,
            },
        );
        let (layout, x) = solve_dc(&nl);
        let vgs = layout.voltage(&x, d);
        // Check KCL: (5 - vgs)/100k = beta/2 (vgs-1)^2
        let i_r = (5.0 - vgs) / 100e3;
        let i_m = 0.5 * 100e-6 * (vgs - 1.0).powi(2);
        assert!(
            (i_r - i_m).abs() < 1e-9,
            "vgs = {vgs}, i_r = {i_r}, i_m = {i_m}"
        );
    }

    #[test]
    fn pmos_source_follower_direction() {
        // PMOS with gate grounded, source pulled to VDD through resistor:
        // conducts, dropping the source node near Vt above gate.
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let s = nl.node("s");
        nl.vsource("V1", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", vdd, s, 10e3);
        // PMOS: source at node s, drain at ground, gate at ground.
        nl.mosfet(
            "M1",
            Netlist::GROUND,
            Netlist::GROUND,
            s,
            MosPolarity::Pmos,
            crate::devices::MosParams {
                vt0: 1.0,
                beta: 400e-6,
                lambda: 0.0,
            },
        );
        let (layout, x) = solve_dc(&nl);
        let vs = layout.voltage(&x, s);
        // The device conducts hard, so v(s) sits a little above Vt = 1 V.
        assert!(vs > 1.0 && vs < 2.5, "vs = {vs}");
    }

    #[test]
    fn cmos_inverter_transfers() {
        let mut nl = Netlist::new();
        let vdd = nl.node("vdd");
        let vin = nl.node("in");
        let out = nl.node("out");
        nl.vsource("VDD", vdd, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.vsource("VIN", vin, Netlist::GROUND, SourceWaveform::dc(0.0));
        nl.mosfet(
            "MN",
            out,
            vin,
            Netlist::GROUND,
            MosPolarity::Nmos,
            crate::devices::MosParams::nmos_5um().with_aspect(2.0),
        );
        nl.mosfet(
            "MP",
            out,
            vin,
            vdd,
            MosPolarity::Pmos,
            crate::devices::MosParams::pmos_5um().with_aspect(5.0),
        );
        let (layout, x) = solve_dc(&nl);
        // Input low -> output high.
        assert!(layout.voltage(&x, out) > 4.5);
    }

    #[test]
    fn diode_clamp() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        let k = nl.node("k");
        nl.resistor("R1", a, k, 1e3);
        nl.diode("D1", k, Netlist::GROUND, crate::devices::DiodeParams::default());
        let (layout, x) = solve_dc(&nl);
        let vk = layout.voltage(&x, k);
        assert!(vk > 0.4 && vk < 0.8, "diode drop was {vk}");
    }

    #[test]
    fn floating_node_fails_without_gmin() {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let b_node = nl.node("b");
        nl.resistor("R1", a, b_node, 1e3);
        // Nothing connects to ground: singular without gmin.
        let layout = MnaLayout::new(&nl);
        let mut x = vec![0.0; layout.size()];
        let params = StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin: 0.0,
            source_scale: 1.0,
        };
        assert!(newton_solve(&nl, &layout, &params, &NewtonOptions::default(), &mut x).is_err());
    }

    /// The linear assembly the way the netlist walk did it: the matrix
    /// stamps, then the right-hand-side oracle.
    fn stamp_linear<M: MnaMatrix>(
        netlist: &Netlist,
        layout: &MnaLayout,
        params: &StampParams<'_>,
        a: &mut M,
        b: &mut [f64],
    ) {
        stamp_linear_matrix(netlist, layout, params, a);
        oracle::stamp_linear_rhs(netlist, layout, params, b);
    }

    /// Asserts two value vectors agree bit for bit.
    fn assert_bits(what: &str, got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len(), "{what}: length");
        for (k, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}[{k}]: {g:e} vs {w:e}");
        }
    }

    /// A small linear frame (a source, a resistor, a capacitor) plus
    /// the given nonlinear devices over nodes `[ground, n1, n2, n3]`:
    /// kind 0 is an NMOS, 1 a PMOS, 2 a diode, 3 a switch; `p` sets the
    /// threshold (MOSFET, switch) or scales the saturation current.
    fn nonlinear_netlist(devices: &[(usize, (usize, usize, usize), f64)]) -> Netlist {
        let mut nl = Netlist::new();
        let nodes = [Netlist::GROUND, nl.node("n1"), nl.node("n2"), nl.node("n3")];
        nl.vsource("V1", nodes[1], Netlist::GROUND, SourceWaveform::dc(3.0));
        nl.resistor("R1", nodes[1], nodes[2], 1e3);
        nl.capacitor("C1", nodes[3], Netlist::GROUND, 1e-12);
        for (k, &(kind, (t1, t2, t3), p)) in devices.iter().enumerate() {
            let (a, b, c) = (nodes[t1], nodes[t2], nodes[t3]);
            let name = format!("X{k}");
            let mos = crate::devices::MosParams {
                vt0: p,
                beta: 1e-4,
                lambda: 0.02,
            };
            match kind {
                0 => nl.mosfet(&name, a, b, c, MosPolarity::Nmos, mos),
                1 => nl.mosfet(&name, a, b, c, MosPolarity::Pmos, mos),
                2 => nl.diode(
                    &name,
                    a,
                    b,
                    DiodeParams {
                        is: 1e-14 * p,
                        n: 1.0,
                    },
                ),
                _ => nl.switch(
                    &name,
                    a,
                    b,
                    c,
                    Netlist::GROUND,
                    SwitchParams {
                        vthresh: p,
                        ..SwitchParams::default()
                    },
                ),
            };
        }
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The compiled program stamps exactly what the device-by-device
        /// oracle stamps — every matrix value and right-hand-side entry,
        /// by `to_bits` — at random iterates. Three
        /// nodes for up to seven devices make grounded terminals, tied
        /// terminals (drain on gate, drain on source) and shared slots
        /// common, and iterates in ±6 V reverse-bias half the MOSFETs.
        #[test]
        fn program_matches_the_enum_walk_oracle(
            devices in proptest::collection::vec(
                (0usize..4, (0usize..4, 0usize..4, 0usize..4), 0.3..3.0f64),
                1..8,
            ),
            x in proptest::collection::vec(-6.0..6.0f64, 4),
        ) {
            let nl = nonlinear_netlist(&devices);
            let layout = MnaLayout::new(&nl);
            let params = StampParams {
                time: 0.0,
                companion: CompanionMode::Dc,
                gmin: 1e-12,
                source_scale: 1.0,
            };
            let mut ctx = SolverContext::default();
            ensure_system(&mut ctx, &nl, &layout, &params, 0, None);
            assemble_baseline(&mut ctx, &nl, &layout, &params, SolveMode::of(&params).key);
            let (_, sys) = ctx.sys.as_mut().expect("system prepared");
            let mut want = sys.clone();
            ctx.program.stamp(&x, sys.values_mut(), &mut ctx.b);

            want.clear();
            let mut want_b = vec![0.0; layout.size()];
            stamp_linear(&nl, &layout, &params, &mut want, &mut want_b);
            oracle::stamp_nonlinear(&nl, &layout, &x, &mut want, &mut want_b);
            assert_bits("values", sys.values(), want.values());
            assert_bits("b", &ctx.b, &want_b);
        }
    }

    /// One source of every [`SourceWaveform`] kind.
    fn every_waveform() -> Vec<SourceWaveform> {
        vec![
            SourceWaveform::dc(1.5),
            SourceWaveform::step(2.0, 1e-6),
            SourceWaveform::ramp(-1.0, 3.0, 2e-6),
            SourceWaveform::Pulse {
                low: 0.5,
                high: 4.5,
                delay: 0.3e-6,
                rise: 0.1e-6,
                fall: 0.2e-6,
                width: 0.7e-6,
                period: 1.6e-6,
            },
            SourceWaveform::Sine {
                offset: 0.25,
                amplitude: 1.75,
                freq: 3e5,
                delay: 0.4e-6,
            },
            SourceWaveform::Pwl(vec![(0.5e-6, -2.0), (1.5e-6, 1.0), (3e-6, 0.5)]),
            SourceWaveform::BitStream {
                bits: vec![true, false, false, true, true],
                bit_period: 0.45e-6,
                low: -0.5,
                high: 2.5,
            },
        ]
    }

    /// Every right-hand-side device over nodes `[ground, a, b, c]`: a
    /// voltage source and a current source per waveform kind, with
    /// capacitors and inductors between them, each kind grounded on
    /// either side and floating. Devices that stamp no right-hand side
    /// (resistors, diodes) sit in between too, so the program must skip
    /// them.
    fn rhs_netlist() -> Netlist {
        let mut nl = Netlist::new();
        let g = Netlist::GROUND;
        let [a, b, c] = [nl.node("a"), nl.node("b"), nl.node("c")];
        let pairs = [(a, g), (g, b), (b, c), (c, a)];
        for (k, wave) in every_waveform().into_iter().enumerate() {
            let (p, q) = pairs[k % pairs.len()];
            nl.vsource(&format!("V{k}"), p, q, wave.clone());
            nl.capacitor(&format!("C{k}"), p, q, 1e-12 * (k + 1) as f64);
            nl.diode(&format!("D{k}"), q, p, DiodeParams::default());
            let (p, q) = pairs[(k + 1) % pairs.len()];
            nl.inductor(&format!("L{k}"), q, p, 1e-6 * (k + 2) as f64);
            nl.isource(&format!("I{k}"), p, q, wave);
            nl.resistor(&format!("R{k}"), p, q, 1e3);
        }
        nl
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(200))]

        /// The compiled right-hand side equals the netlist walk's by
        /// `to_bits`, accumulated onto a nonzero `b`, at random times and
        /// reactive histories under DC, backward-Euler and trapezoidal
        /// companions — and still does after a source's waveform is
        /// rewritten behind the compiled program.
        #[test]
        fn rhs_program_matches_the_netlist_walk(
            mode in 0usize..3,
            time in 0.0..5e-6f64,
            dt in 1e-9..1e-6f64,
            source_scale in 0.0..1.0f64,
            seed in proptest::collection::vec(-3.0..3.0f64, 64),
            rewrite in 0usize..7,
        ) {
            let mut nl = rhs_netlist();
            let layout = MnaLayout::new(&nl);
            let mut history = ReactiveHistory::new(&nl);
            let devices = nl.device_count();
            for (k, (v, i)) in history.v.iter_mut().zip(&mut history.i).enumerate() {
                *v = seed[k % seed.len()];
                *i = 1e-3 * seed[(k + devices) % seed.len()];
            }
            let program = RhsProgram::compile(&nl, &layout);
            for rewritten in [false, true] {
                if rewritten {
                    let id = nl.find_device(&format!("I{rewrite}")).expect("isource");
                    match nl.device_mut(id) {
                        Device::Isource { wave, .. } => *wave = SourceWaveform::dc(seed[rewrite]),
                        other => panic!("{other:?}"),
                    }
                }
                let companion = match mode {
                    0 => CompanionMode::Dc,
                    1 => CompanionMode::Transient {
                        method: Integrator::BackwardEuler,
                        dt,
                        history: &history,
                    },
                    _ => CompanionMode::Transient {
                        method: Integrator::Trapezoidal,
                        dt,
                        history: &history,
                    },
                };
                let params = StampParams {
                    time,
                    companion,
                    gmin: 1e-12,
                    source_scale,
                };
                let start: Vec<f64> = (0..layout.size()).map(|k| seed[k] * 1e-2).collect();
                let mut got = start.clone();
                program.stamp(&nl, &params, &mut got);
                let mut want = start;
                oracle::stamp_linear_rhs(&nl, &layout, &params, &mut want);
                assert_bits("b", &got, &want);
            }
        }
    }

    /// Assembles the linear baseline for `params` the way a solve's
    /// first iteration does, checks it bit for bit against a fresh full
    /// [`stamp_linear`] over the same system, and reports whether the
    /// cached snapshot served it.
    fn baseline_is_exact(
        ctx: &mut SolverContext,
        nl: &Netlist,
        layout: &MnaLayout,
        params: &StampParams<'_>,
    ) -> bool {
        let key = SolveMode::of(params).key;
        ensure_system(ctx, nl, layout, params, usize::from(key.mode), None);
        let reused = assemble_baseline(ctx, nl, layout, params, key);
        let (_, sys) = ctx.sys.as_ref().expect("system prepared");
        let mut fresh = sys.clone();
        fresh.clear();
        let mut fresh_b = vec![0.0; layout.size()];
        stamp_linear(nl, layout, params, &mut fresh, &mut fresh_b);
        assert_bits("baseline values", sys.values(), fresh.values());
        assert_bits("baseline b", &ctx.b, &fresh_b);
        reused
    }

    #[test]
    fn cached_linear_baseline_matches_a_fresh_stamp() {
        // Every RHS-only ingredient: a time-varying source, an isource,
        // capacitor and inductor history, plus a diode so the solves
        // below iterate.
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        let m = nl.node("m");
        nl.vsource(
            "V1",
            a,
            Netlist::GROUND,
            SourceWaveform::ramp(0.0, 2.0, 1e-6),
        );
        nl.resistor("R1", a, k, 1e3);
        nl.diode("D1", k, Netlist::GROUND, DiodeParams::default());
        nl.capacitor("C1", k, m, 1e-9);
        nl.inductor("L1", m, Netlist::GROUND, 1e-6);
        nl.isource("I1", Netlist::GROUND, m, SourceWaveform::dc(1e-4));
        let layout = MnaLayout::new(&nl);
        let mut history = ReactiveHistory::new(&nl);
        let dc = |gmin: f64, source_scale: f64| StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin,
            source_scale,
        };
        let mut ctx = SolverContext::default();

        // DC: a new key stamps; source stepping (RHS only) reuses; a
        // gmin step is a new key.
        assert!(!baseline_is_exact(&mut ctx, &nl, &layout, &dc(1e-12, 1.0)));
        assert!(baseline_is_exact(&mut ctx, &nl, &layout, &dc(1e-12, 0.5)));
        assert!(!baseline_is_exact(&mut ctx, &nl, &layout, &dc(1e-9, 1.0)));
        assert!(baseline_is_exact(&mut ctx, &nl, &layout, &dc(1e-9, 0.25)));

        // Transient: the mode change rebuilds the system; a later time
        // with new reactive history reuses; a dt change restamps.
        for (step, dt, fresh) in [
            (1, 1e-8, true),
            (2, 1e-8, false),
            (3, 5e-9, true),
            (4, 5e-9, false),
        ] {
            for (v, i) in history.v.iter_mut().zip(history.i.iter_mut()) {
                *v = 0.1 * step as f64;
                *i = -1e-5 * step as f64;
            }
            let params = StampParams {
                time: step as f64 * 1e-7,
                companion: CompanionMode::Transient {
                    method: Integrator::Trapezoidal,
                    dt,
                    history: &history,
                },
                gmin: 1e-12,
                source_scale: 1.0,
            };
            assert_eq!(
                baseline_is_exact(&mut ctx, &nl, &layout, &params),
                !fresh,
                "step {step}"
            );
        }

        // A symbolic demotion inside one DC solve rebuilds the system
        // and drops the record, so the baseline is restamped into the
        // rebuilt matrix instead of restoring the old snapshot.
        let chaos = obs::NumericChaosPlan::parse("pivot@0")
            .expect("valid spec")
            .arm();
        let metrics = Arc::new(crate::metrics::SolverMetrics::new());
        let instruments = Instruments {
            metrics: Some(Arc::clone(&metrics)),
            chaos: Some(Arc::new(chaos)),
            ..Instruments::default()
        };
        let mut x = vec![0.0; layout.size()];
        newton_solve_with_context(
            &nl,
            &layout,
            &dc(1e-12, 1.0),
            &NewtonOptions::default(),
            &BudgetClock::new(SolveBudget::unlimited()),
            &instruments,
            &mut ctx,
            &mut x,
        )
        .expect("the demoted solve converges");
        assert_eq!(metrics.snapshot().demote_symbolic, 1);
        assert!(baseline_is_exact(&mut ctx, &nl, &layout, &dc(1e-12, 0.5)));
    }

    #[test]
    fn a_second_factor_failure_ends_the_ladder_with_the_typed_error() {
        // Two forced pivot breakdowns in one DC solve: the first
        // rebuilds the symbolic structure, the second has no rung left
        // and returns the singular-matrix error at once.
        let (nl, _, _) = divider();
        let layout = MnaLayout::new(&nl);
        let chaos = obs::NumericChaosPlan::parse("pivot@0,pivot@1")
            .expect("valid spec")
            .arm();
        let metrics = Arc::new(crate::metrics::SolverMetrics::new());
        let instruments = Instruments {
            metrics: Some(Arc::clone(&metrics)),
            chaos: Some(Arc::new(chaos)),
            ..Instruments::default()
        };
        let params = StampParams {
            time: 0.0,
            companion: CompanionMode::Dc,
            gmin: 1e-12,
            source_scale: 1.0,
        };
        let mut x = vec![0.0; layout.size()];
        let mut ctx = SolverContext::default();
        let err = newton_solve_with_context(
            &nl,
            &layout,
            &params,
            &NewtonOptions::default(),
            &BudgetClock::new(SolveBudget::unlimited()),
            &instruments,
            &mut ctx,
            &mut x,
        )
        .expect_err("no rung left after the symbolic rebuild");
        assert!(
            matches!(err, AnalysisError::SingularMatrix { .. }),
            "{err:?}"
        );
        let t = metrics.snapshot();
        assert_eq!(t.demote_symbolic, 1);
        assert_eq!(t.demote_refactor, 0);
        assert_eq!(t.hazard_near_singular_pivot, 2);
        assert_eq!(t.newton_iterations, 2);
    }

    /// One row of [`every_recovery_path_is_pinned`]: a circuit, a chaos
    /// plan, and one solve per entry of `source_scales` on one context,
    /// with what the run must come to.
    struct LadderCase {
        name: &'static str,
        netlist: fn() -> Netlist,
        transient: bool,
        chaos: &'static str,
        source_scales: &'static [f64],
        /// `Debug` of every solve's result, joined by `"; "`.
        results: &'static str,
        /// [`SolverSnapshot::as_array`] after the last solve.
        counters: [u64; 16],
        /// The final solution's `to_bits`.
        solution: &'static [u64],
        /// The flight recorder's hazard trail, `hazard→action`.
        hazards: &'static [&'static str],
        /// FNV-1a digest of the frozen flight record's JSON text.
        flight_digest: u64,
    }

    /// A diode clamp with a capacitor on the diode node, so transient
    /// solves stamp a companion model.
    fn diode_rc() -> Netlist {
        let mut nl = Netlist::new();
        let a = nl.node("a");
        let k = nl.node("k");
        nl.vsource("V1", a, Netlist::GROUND, SourceWaveform::dc(5.0));
        nl.resistor("R1", a, k, 1e3);
        nl.diode("D1", k, Netlist::GROUND, DiodeParams::default());
        nl.capacitor("C1", k, Netlist::GROUND, 1e-9);
        nl
    }

    fn divider_netlist() -> Netlist {
        divider().0
    }

    fn fnv1a(text: &str) -> u64 {
        text.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// One Newton solve of a ladder case.
    fn ladder_solve(
        nl: &Netlist,
        layout: &MnaLayout,
        params: &StampParams<'_>,
        instruments: &Instruments,
        ctx: &mut SolverContext,
        x: &mut Vec<f64>,
    ) -> Result<(), AnalysisError> {
        let options = NewtonOptions::default();
        let clock = BudgetClock::new(SolveBudget::unlimited());
        newton_solve_with_context(nl, layout, params, &options, &clock, instruments, ctx, x)
    }

    /// Runs a case's solves with and without a flight recorder: the
    /// recorder observes, so both runs must agree on results, counters
    /// and solution. Returns `(results, counters, solution bits,
    /// hazard trail, flight digest)`.
    fn run_ladder_case(case: &LadderCase) -> (String, [u64; 16], Vec<u64>, Vec<String>, u64) {
        let nl = (case.netlist)();
        let layout = MnaLayout::new(&nl);
        let mut history = ReactiveHistory::new(&nl);
        history.v.fill(0.25);
        let mut runs = Vec::new();
        for armed in [false, true] {
            let chaos = obs::NumericChaosPlan::parse(case.chaos)
                .expect("valid spec")
                .arm();
            let metrics = Arc::new(crate::metrics::SolverMetrics::new());
            let flight = Arc::new(crate::flight::FlightRecorder::new(256));
            let instruments = Instruments {
                metrics: Some(Arc::clone(&metrics)),
                chaos: Some(Arc::new(chaos)),
                flight: armed.then(|| Arc::clone(&flight)),
                ..Instruments::default()
            };
            let mut ctx = SolverContext::default();
            let mut x = vec![0.0; layout.size()];
            let mut results = Vec::new();
            for &source_scale in case.source_scales {
                let companion = if case.transient {
                    CompanionMode::Transient {
                        method: Integrator::Trapezoidal,
                        dt: 1e-7,
                        history: &history,
                    }
                } else {
                    CompanionMode::Dc
                };
                let params = StampParams {
                    time: 2e-7,
                    companion,
                    gmin: 1e-12,
                    source_scale,
                };
                let result = ladder_solve(&nl, &layout, &params, &instruments, &mut ctx, &mut x);
                results.push(format!("{result:?}"));
            }
            let frozen = flight.freeze("ladder", &AnalysisError::Cancelled, None);
            let hazards = frozen
                .hazards
                .iter()
                .map(|h| format!("{}→{}", h.hazard, h.action))
                .collect();
            runs.push((
                results.join("; "),
                metrics.snapshot().as_array(),
                x.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                hazards,
                fnv1a(&frozen.to_json().to_json()),
            ));
        }
        let armed = runs.pop().expect("armed run");
        let bare = runs.pop().expect("bare run");
        assert_eq!(bare.0, armed.0, "{}: results", case.name);
        assert_eq!(bare.1, armed.1, "{}: counters", case.name);
        assert_eq!(bare.2, armed.2, "{}: solution", case.name);
        armed
    }

    /// Every rung of the Newton loop's recovery ladder, driven by
    /// numeric chaos on a linear divider and a nonlinear diode circuit
    /// (DC and transient): the cached linear solve failing its gate, the
    /// fresh linear solve failing it (retried once, then terminal), the
    /// non-finite update (retried once, then terminal) and the symbolic
    /// rebuild (once, then terminal). Results, counters, solution bits
    /// and the flight record are pinned exactly.
    #[test]
    fn every_recovery_path_is_pinned() {
        // Counter order: newton, steps acc/rej, dt shrinks, gmin and
        // source steps, reuse hits/misses, hazards (near-singular,
        // growth, non-finite, stall, ill-conditioned), demotions
        // (refactor, symbolic), refinement rounds. A NaN in a linear
        // solution makes both the residual and its scale infinite; the
        // gate rejects it as non-finite, unrefined.
        let cases = [
            LadderCase {
                name: "cached linear gate failure",
                netlist: divider_netlist,
                transient: false,
                chaos: "perturb@0",
                source_scales: &[0.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0, 1],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &["refinement-stall→demote:refactor"],
                flight_digest: 0x223241541784936e,
            },
            LadderCase {
                name: "cached linear gate failure then fresh retry",
                netlist: divider_netlist,
                transient: false,
                chaos: "perturb@0,perturb@1",
                source_scales: &[0.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 2, 0, 2, 0, 2],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &[
                    "refinement-stall→demote:refactor",
                    "refinement-stall→demote:refactor",
                ],
                flight_digest: 0x58d103dfb5c613b,
            },
            LadderCase {
                name: "cached linear gate failure then terminal",
                netlist: divider_netlist,
                transient: false,
                chaos: "perturb@0..3",
                source_scales: &[0.0, 1.0],
                results: "Ok(()); Err(Numerical { hazard: RefinementStall, time: 2e-7 })",
                counters: [3, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 3, 0, 2, 0, 3],
                solution: &[0, 0, 0],
                hazards: &[
                    "refinement-stall→demote:refactor",
                    "refinement-stall→demote:refactor",
                    "refinement-stall→terminal",
                ],
                flight_digest: 0xa3df0515276c38ca,
            },
            LadderCase {
                name: "linear fresh gate failure",
                netlist: divider_netlist,
                transient: false,
                chaos: "perturb@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 1, 0, 1, 0, 1],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &["refinement-stall→demote:refactor"],
                flight_digest: 0x223241541784936e,
            },
            LadderCase {
                name: "linear non-finite retry",
                netlist: divider_netlist,
                transient: false,
                chaos: "nan@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 1, 0, 0, 1, 0, 0],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &["non-finite→demote:refactor"],
                flight_digest: 0xd79e09632c2a1625,
            },
            LadderCase {
                name: "linear non-finite retry then terminal",
                netlist: divider_netlist,
                transient: false,
                chaos: "nan@0,nan@1",
                source_scales: &[1.0],
                results: "Err(Numerical { hazard: NonFinite, time: 2e-7 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0, 0],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &["non-finite→demote:refactor", "non-finite→terminal"],
                flight_digest: 0x258cca95bf307c89,
            },
            LadderCase {
                name: "linear fresh retry then terminal",
                netlist: divider_netlist,
                transient: false,
                chaos: "perturb@0,perturb@1",
                source_scales: &[1.0],
                results: "Err(Numerical { hazard: RefinementStall, time: 2e-7 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 0, 2, 0, 1, 0, 2],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &[
                    "refinement-stall→demote:refactor",
                    "refinement-stall→terminal",
                ],
                flight_digest: 0xb69e2d25daaca68d,
            },
            LadderCase {
                name: "linear symbolic rebuild",
                netlist: divider_netlist,
                transient: false,
                chaos: "pivot@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &["near-singular-pivot→demote:symbolic"],
                flight_digest: 0x396634fb3b1a004b,
            },
            LadderCase {
                name: "linear symbolic then terminal",
                netlist: divider_netlist,
                transient: false,
                chaos: "pivot@0,pivot@1",
                source_scales: &[1.0],
                results: "Err(SingularMatrix { row: 0 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &[
                    "near-singular-pivot→demote:symbolic",
                    "near-singular-pivot→terminal",
                ],
                flight_digest: 0x54b39675fe0e492f,
            },
            LadderCase {
                name: "linear symbolic rebuild then non-finite retry",
                netlist: divider_netlist,
                transient: false,
                chaos: "pivot@0,nan@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [3, 0, 0, 0, 0, 0, 0, 3, 1, 0, 1, 0, 0, 1, 1, 0],
                solution: &[0x4024000000000000, 0x401dffffff9f5cfe, 0xbf647ae149d3d5f4],
                hazards: &[
                    "near-singular-pivot→demote:symbolic",
                    "non-finite→demote:refactor",
                ],
                flight_digest: 0x6dffc4a4d2e73d01,
            },
            LadderCase {
                name: "nonlinear non-finite retry",
                netlist: diode_rc,
                transient: false,
                chaos: "nan@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [27, 0, 0, 0, 0, 0, 14, 13, 0, 0, 1, 0, 0, 1, 0, 0],
                solution: &[0x4014000000000000, 0x3fe628e1935b6954, 0xbf71a4c04fc93031],
                hazards: &["non-finite→demote:refactor"],
                flight_digest: 0xd24cd18e0fffd23f,
            },
            LadderCase {
                name: "nonlinear non-finite retry then terminal",
                netlist: diode_rc,
                transient: false,
                chaos: "nan@0,nan@1",
                source_scales: &[1.0],
                results: "Err(Numerical { hazard: NonFinite, time: 2e-7 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0, 0],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &["non-finite→demote:refactor", "non-finite→terminal"],
                flight_digest: 0x2ee80c6ef321570b,
            },
            LadderCase {
                name: "nonlinear late non-finite retry",
                netlist: diode_rc,
                transient: false,
                chaos: "nan@2",
                source_scales: &[1.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [28, 0, 0, 0, 0, 0, 14, 14, 0, 0, 1, 0, 0, 1, 0, 0],
                solution: &[0x4014000000000000, 0x3fe628e1934bad46, 0xbf71a4c04fcb33c9],
                hazards: &["non-finite→demote:refactor"],
                flight_digest: 0xeaf98c56c1dbafff,
            },
            LadderCase {
                name: "nonlinear symbolic rebuild",
                netlist: diode_rc,
                transient: false,
                chaos: "pivot@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [27, 0, 0, 0, 0, 0, 14, 13, 1, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x4014000000000000, 0x3fe628e1935b6954, 0xbf71a4c04fc93031],
                hazards: &["near-singular-pivot→demote:symbolic"],
                flight_digest: 0x86d2dbba8f8177bd,
            },
            LadderCase {
                name: "nonlinear late symbolic rebuild",
                netlist: diode_rc,
                transient: false,
                chaos: "pivot@1",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [27, 0, 0, 0, 0, 0, 14, 13, 1, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x4014000000000000, 0x3fe628e1935b6954, 0xbf71a4c04fc93031],
                hazards: &["near-singular-pivot→demote:symbolic"],
                flight_digest: 0x7447616531825164,
            },
            LadderCase {
                name: "nonlinear symbolic then non-finite retry",
                netlist: diode_rc,
                transient: false,
                chaos: "pivot@0,nan@0",
                source_scales: &[1.0],
                results: "Ok(())",
                counters: [28, 0, 0, 0, 0, 0, 14, 14, 1, 0, 1, 0, 0, 1, 1, 0],
                solution: &[0x4014000000000000, 0x3fe628e1935b6954, 0xbf71a4c04fc93031],
                hazards: &[
                    "near-singular-pivot→demote:symbolic",
                    "non-finite→demote:refactor",
                ],
                flight_digest: 0x1025837a9c7cc202,
            },
            LadderCase {
                name: "nonlinear symbolic then terminal",
                netlist: diode_rc,
                transient: false,
                chaos: "pivot@0,pivot@1",
                source_scales: &[1.0],
                results: "Err(SingularMatrix { row: 0 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 2, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &[
                    "near-singular-pivot→demote:symbolic",
                    "near-singular-pivot→terminal",
                ],
                flight_digest: 0x54b39675fe0e492f,
            },
            LadderCase {
                name: "nonlinear perturbed factor",
                netlist: diode_rc,
                transient: false,
                chaos: "perturb@0",
                source_scales: &[0.5, 1.0],
                results: "Ok(()); Ok(())",
                counters: [54, 0, 0, 0, 0, 0, 41, 13, 0, 0, 0, 0, 0, 0, 0, 0],
                solution: &[0x4014000000000000, 0x3fe628e1955f8f2b, 0xbf71a4c04f871f10],
                hazards: &[],
                flight_digest: 0x9940a319684c6f97,
            },
            LadderCase {
                name: "transient non-finite retry",
                netlist: diode_rc,
                transient: true,
                chaos: "nan@0",
                source_scales: &[1.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [8, 0, 0, 0, 0, 0, 6, 2, 0, 0, 1, 0, 0, 1, 0, 0],
                solution: &[0x4014000000000000, 0x3fde792022843f2d, 0xbf72879ba405c4e6],
                hazards: &["non-finite→demote:refactor"],
                flight_digest: 0x4421990de4d73c4,
            },
            LadderCase {
                name: "transient non-finite retry then terminal",
                netlist: diode_rc,
                transient: true,
                chaos: "nan@0,nan@1",
                source_scales: &[1.0],
                results: "Err(Numerical { hazard: NonFinite, time: 2e-7 })",
                counters: [2, 0, 0, 0, 0, 0, 0, 2, 0, 0, 2, 0, 0, 1, 0, 0],
                solution: &[0x0000000000000000, 0x0000000000000000, 0x0000000000000000],
                hazards: &["non-finite→demote:refactor", "non-finite→terminal"],
                flight_digest: 0x4441fef602d802a7,
            },
            LadderCase {
                name: "transient symbolic rebuild",
                netlist: diode_rc,
                transient: true,
                chaos: "pivot@0",
                source_scales: &[1.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [8, 0, 0, 0, 0, 0, 6, 2, 1, 0, 0, 0, 0, 0, 1, 0],
                solution: &[0x4014000000000000, 0x3fde792022843f2d, 0xbf72879ba405c4e6],
                hazards: &["near-singular-pivot→demote:symbolic"],
                flight_digest: 0x425c4c52f671e213,
            },
            LadderCase {
                name: "transient perturbed factor",
                netlist: diode_rc,
                transient: true,
                chaos: "perturb@0",
                source_scales: &[1.0, 1.0],
                results: "Ok(()); Ok(())",
                counters: [13, 0, 0, 0, 0, 0, 12, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                solution: &[0x4013fff2ae843872, 0x3fde792022843f2d, 0xbf72879ba405c4e6],
                hazards: &[],
                flight_digest: 0xe65dc20a479e0545,
            },
        ];
        for case in &cases {
            let (results, counters, solution, hazards, digest) = run_ladder_case(case);
            assert_eq!(results, case.results, "{}: results", case.name);
            assert_eq!(counters, case.counters, "{}: counters", case.name);
            assert_eq!(solution, case.solution, "{}: solution bits", case.name);
            assert_eq!(hazards, case.hazards, "{}: hazard trail", case.name);
            assert_eq!(digest, case.flight_digest, "{}: flight record", case.name);
        }
    }
}
