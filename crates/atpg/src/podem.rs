use tpi_netlist::{Circuit, GateKind, NetlistError, Topology};
use tpi_sim::{Fault, FaultSite};
use tpi_testability::ScoapAnalysis;

use crate::{Ternary, TestCube};

/// Tuning for [`Podem`].
#[derive(Copy, Clone, Debug)]
pub struct PodemConfig {
    /// Abort the search after this many backtracks (the result is then
    /// [`PodemResult::Aborted`], *not* a redundancy proof).
    pub max_backtracks: u64,
}

impl Default for PodemConfig {
    fn default() -> PodemConfig {
        PodemConfig {
            max_backtracks: 50_000,
        }
    }
}

/// Outcome of one PODEM run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PodemResult {
    /// A test cube detecting the fault.
    Test(TestCube),
    /// Proven untestable (redundant fault): the decision space was
    /// exhausted.
    Untestable,
    /// Backtrack limit hit; testability undecided.
    Aborted,
}

// Dual-rail encoding of one line in both machines, one byte per node:
// bits 0-1 hold the good machine, bits 2-3 the faulty one. Each machine
// has an "is 1" and an "is 0" rail; neither set means X. Ternary AND is
// then a bitwise AND of the 1-rails and an OR of the 0-rails, for both
// machines at once.
const G1: u8 = 0b0001;
const G0: u8 = 0b0010;
const F1: u8 = 0b0100;
const F0: u8 = 0b1000;
const ONES: u8 = G1 | F1;
const ZEROS: u8 = G0 | F0;
const GOOD: u8 = G1 | G0;
const FAULTY: u8 = F1 | F0;
/// Good 1 / faulty 0 and good 0 / faulty 1: the fault effect.
const D: u8 = G1 | F0;
const D_BAR: u8 = G0 | F1;

/// The same ternary value in both machines.
fn both(t: Ternary) -> u8 {
    match t {
        Ternary::One => ONES,
        Ternary::Zero => ZEROS,
        Ternary::X => 0,
    }
}

/// Complement in both machines (exchange the rails).
const fn swap(v: u8) -> u8 {
    ((v & ONES) << 1) | ((v & ZEROS) >> 1)
}

fn good(v: u8) -> Ternary {
    match v & GOOD {
        G1 => Ternary::One,
        G0 => Ternary::Zero,
        _ => Ternary::X,
    }
}

fn is_fault_effect(v: u8) -> bool {
    v == D || v == D_BAR
}

fn undetermined(v: u8) -> bool {
    v & GOOD == 0 || v & FAULTY == 0
}

/// Ternary AND: 1 only if both are 1, 0 as soon as either is 0.
const fn and2(a: u8, b: u8) -> u8 {
    (a & b & ONES) | ((a | b) & ZEROS)
}

const fn or2(a: u8, b: u8) -> u8 {
    ((a | b) & ONES) | (a & b & ZEROS)
}

/// Ternary XOR: X as soon as either input is.
const fn xor2(a: u8, b: u8) -> u8 {
    let differ = a & swap(b);
    let agree = a & b;
    (differ & ONES) | ((differ & ZEROS) >> 1) | (agree & ZEROS) | ((agree & ONES) << 1)
}

const AND: u8 = 0;
const OR: u8 = 1;
const XOR: u8 = 2;

/// Every gate kind folds its inputs with one associative two-input
/// operation — [`AND`], [`OR`] or [`XOR`] — and may invert the result.
/// `FOLD[op][acc << 4 | v]` is that operation on two dual-rail bytes, so
/// evaluating a gate is one table load per input and no branch on its
/// kind.
const FOLD: [[u8; 256]; 3] = {
    let mut table = [[0u8; 256]; 3];
    let mut i = 0;
    while i < 256 {
        let (a, b) = ((i >> 4) as u8, (i & 15) as u8);
        table[AND as usize][i] = and2(a, b);
        table[OR as usize][i] = or2(a, b);
        table[XOR as usize][i] = xor2(a, b);
        i += 1;
    }
    table
};

/// The fold's identity: what a gate with no inputs evaluates to.
const IDENTITY: [u8; 3] = [ONES, ZEROS, ZEROS];

/// A gate kind as (fold, inverted output). Buffers and inverters are
/// one-input ANDs; constants are input-less ANDs.
fn lower(kind: GateKind) -> (u8, bool) {
    match kind {
        GateKind::Buf | GateKind::And | GateKind::Const1 => (AND, false),
        GateKind::Not | GateKind::Nand | GateKind::Const0 => (AND, true),
        GateKind::Or => (OR, false),
        GateKind::Nor => (OR, true),
        GateKind::Xor => (XOR, false),
        GateKind::Xnor => (XOR, true),
        GateKind::Input => unreachable!("primary inputs are not evaluated"),
    }
}

/// Three-valued evaluation of one gate in both machines.
fn eval(fold: u8, invert: bool, fanins: impl Iterator<Item = u8>) -> u8 {
    let table = &FOLD[fold as usize];
    let out = fanins.fold(IDENTITY[fold as usize], |acc, v| {
        table[usize::from((acc << 4) | v)]
    });
    if invert {
        swap(out)
    } else {
        out
    }
}

/// One gate of the compiled program: its lowered kind and its slice
/// `start..end` of the fanin pool. The pool holds at least three entries
/// from `start`: shorter fanin lists are padded with a slot holding the
/// fold's identity, so [`simulate`] evaluates most gates with a fixed
/// three-input body.
#[derive(Copy, Clone, Debug)]
struct Op {
    node: u32,
    fold: u8,
    invert: bool,
    start: u32,
    end: u32,
}

/// `position` entry of the primary inputs, which the program does not
/// evaluate.
const NOT_AN_OP: u32 = u32::MAX;

/// The circuit lowered once for PODEM: non-input nodes in topological
/// order with their fanins in one CSR pool, a fanout CSR for the cone
/// walks, and the levels and SCOAP measures as flat arrays.
///
/// Value arrays have two slots past the last node: [`ONES`] at `n` (the
/// AND identity) and [`ZEROS`] at `n + 1` (the OR and XOR identity),
/// which the padded fanin entries point at.
#[derive(Clone, Debug)]
struct Program {
    ops: Vec<Op>,
    fanin_pool: Vec<u32>,
    /// Op index per node ([`NOT_AN_OP`] for primary inputs).
    position: Vec<u32>,
    fanout_start: Vec<u32>,
    fanout_pool: Vec<u32>,
    level: Vec<u32>,
    kind: Vec<GateKind>,
    inputs: Vec<u32>,
    pi_position: Vec<u32>,
    outputs: Vec<u32>,
    is_output: Vec<bool>,
    cc0: Vec<u32>,
    cc1: Vec<u32>,
    co: Vec<u32>,
}

impl Program {
    fn compile(circuit: &Circuit) -> Result<Program, NetlistError> {
        let topo = Topology::of(circuit)?;
        let scoap = ScoapAnalysis::new(circuit)?;
        let n = circuit.node_count();
        // Nodes and the two identity slots are indexed as u32.
        assert!(
            u32::try_from(n + 2).is_ok_and(|m| m < NOT_AN_OP),
            "PODEM supports fewer than 2^32 - 3 nodes, the circuit has {n}"
        );
        let mut ops = Vec::with_capacity(n);
        let mut fanin_pool = Vec::new();
        let mut position = vec![NOT_AN_OP; n];
        for &id in topo.order() {
            let kind = circuit.kind(id);
            if kind == GateKind::Input {
                continue;
            }
            position[id.index()] = ops.len() as u32;
            let start = fanin_pool.len() as u32;
            fanin_pool.extend(circuit.fanins(id).iter().map(|f| f.index() as u32));
            let (fold, invert) = lower(kind);
            // Pad short fanin lists to three with the fold's identity.
            let pad = n as u32 + u32::from(fold != AND);
            let arity = circuit.fanins(id).len();
            fanin_pool.extend(std::iter::repeat_n(pad, 3usize.saturating_sub(arity)));
            ops.push(Op {
                node: id.index() as u32,
                fold,
                invert,
                start,
                end: start + arity as u32,
            });
        }
        let mut fanout_start = Vec::with_capacity(n + 1);
        let mut fanout_pool = Vec::new();
        for id in circuit.node_ids() {
            fanout_start.push(fanout_pool.len() as u32);
            fanout_pool.extend(topo.fanouts(id).iter().map(|fo| fo.gate.index() as u32));
        }
        fanout_start.push(fanout_pool.len() as u32);
        let mut pi_position = vec![NOT_AN_OP; n];
        for (pos, &i) in circuit.inputs().iter().enumerate() {
            pi_position[i.index()] = pos as u32;
        }
        let mut is_output = vec![false; n];
        for &o in circuit.outputs() {
            is_output[o.index()] = true;
        }
        Ok(Program {
            ops,
            fanin_pool,
            position,
            fanout_start,
            fanout_pool,
            level: circuit.node_ids().map(|id| topo.level(id)).collect(),
            kind: circuit.node_ids().map(|id| circuit.kind(id)).collect(),
            inputs: circuit.inputs().iter().map(|i| i.index() as u32).collect(),
            pi_position,
            outputs: circuit.outputs().iter().map(|o| o.index() as u32).collect(),
            is_output,
            cc0: circuit.node_ids().map(|id| scoap.cc0(id)).collect(),
            cc1: circuit.node_ids().map(|id| scoap.cc1(id)).collect(),
            co: circuit.node_ids().map(|id| scoap.co(id)).collect(),
        })
    }

    fn fanins(&self, node: u32) -> &[u32] {
        let op = &self.ops[self.position[node as usize] as usize];
        &self.fanin_pool[op.start as usize..op.end as usize]
    }

    fn fanouts(&self, node: u32) -> &[u32] {
        let n = node as usize;
        &self.fanout_pool[self.fanout_start[n] as usize..self.fanout_start[n + 1] as usize]
    }

    fn cc(&self, node: u32, value: bool) -> u32 {
        if value {
            self.cc1[node as usize]
        } else {
            self.cc0[node as usize]
        }
    }
}

/// The fault under test, resolved against the program.
#[derive(Copy, Clone, Debug)]
struct Target {
    /// The node whose evaluation carries the fault: the stem itself, or
    /// the gate whose input pin is stuck.
    site: u32,
    /// The stuck pin of a branch fault.
    pin: Option<u32>,
    /// The line that must carry the opposite of the stuck value.
    excite: u32,
    stuck: bool,
}

impl Target {
    /// The faulty rails of the stuck value.
    fn faulty_rails(self) -> u8 {
        if self.stuck {
            F1
        } else {
            F0
        }
    }
}

/// The PODEM deterministic test generator.
///
/// Implements the classic algorithm: objectives are either *excite the
/// fault* or *advance the D-frontier*; each objective is backtraced to a
/// primary-input assignment (SCOAP-guided choice of path), and a
/// decision stack over PI assignments backtracks on conflicts.
/// Exhausting the stack proves redundancy.
///
/// The circuit is compiled once, at construction, into flat arrays.
/// Implication is a three-valued re-simulation of that program in which
/// one byte per node carries the good and the faulty machine in
/// dual-rail form, with the fault injected only at its site. The
/// D-frontier is searched only within the fault's fanout cone, and a
/// decision is abandoned as soon as no gate holding the fault effect
/// has a path of undetermined lines to an output (the X-path check): no
/// completion of such an assignment can detect the fault, so the check
/// only prunes subtrees that hold no test and never changes a verdict
/// or a cube.
#[derive(Clone, Debug)]
pub struct Podem {
    program: Program,
    config: PodemConfig,
    /// Dual-rail good/faulty value per node.
    values: Vec<u8>,
    /// The current primary-input assignment (the cube under search).
    assignment: Vec<Ternary>,
    /// Decisions: (pi position, both values tried?).
    stack: Vec<(u32, bool)>,
    /// The current fault's fanout cone, in topological order.
    cone: Vec<u32>,
    /// The current fault's ops: its cone and their transitive fanin, in
    /// program order.
    ops: Vec<Op>,
    /// Index in `ops` of the fault site (`None` for a primary input).
    site_op: Option<usize>,
    /// Scratch for [`Podem::focus`]: the cone-and-fanin walk, then its
    /// op positions.
    support: Vec<u32>,
    /// Scratch marks for the walks (all clear between calls).
    mark: Vec<bool>,
    /// Per cone node: an undetermined path to an output exists.
    x_path: Vec<bool>,
    /// Statistics: backtracks used by the last call.
    last_backtracks: u64,
}

impl Podem {
    /// Build a generator for `circuit` with default configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<Podem, NetlistError> {
        Podem::with_config(circuit, PodemConfig::default())
    }

    /// Build with an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn with_config(circuit: &Circuit, config: PodemConfig) -> Result<Podem, NetlistError> {
        let program = Program::compile(circuit)?;
        let n = circuit.node_count();
        Ok(Podem {
            values: {
                let mut values = vec![0; n + 2];
                values[n] = ONES;
                values[n + 1] = ZEROS;
                values
            },
            assignment: vec![Ternary::X; program.inputs.len()],
            stack: Vec::new(),
            cone: Vec::new(),
            ops: Vec::new(),
            site_op: None,
            support: Vec::new(),
            mark: vec![false; n],
            x_path: vec![false; n],
            program,
            config,
            last_backtracks: 0,
        })
    }

    /// Backtracks consumed by the most recent
    /// [`generate`](Podem::generate) call.
    pub fn last_backtracks(&self) -> u64 {
        self.last_backtracks
    }

    /// Generate a test for `fault`.
    ///
    /// # Errors
    ///
    /// Infallible after construction today; the `Result` keeps room for
    /// richer fault models.
    pub fn generate(&mut self, fault: Fault) -> Result<PodemResult, NetlistError> {
        let target = match fault.site {
            FaultSite::Stem(n) => Target {
                site: n.index() as u32,
                pin: None,
                excite: n.index() as u32,
                stuck: fault.stuck,
            },
            FaultSite::Branch { gate, pin } => {
                let site = gate.index() as u32;
                Target {
                    site,
                    pin: Some(pin),
                    excite: self.program.fanins(site)[pin as usize],
                    stuck: fault.stuck,
                }
            }
        };
        self.focus(target.site);
        self.assignment.fill(Ternary::X);
        self.stack.clear();
        let mut backtracks = 0u64;

        loop {
            self.imply(target);
            if self.detected() {
                self.last_backtracks = backtracks;
                return Ok(PodemResult::Test(TestCube::new(self.assignment.clone())));
            }
            let decision = self
                .objective(target)
                .and_then(|(node, value)| self.backtrace(node, value));
            match decision {
                Some((pi, value)) => {
                    self.assignment[pi as usize] = Ternary::from_bool(value);
                    self.stack.push((pi, false));
                }
                None => {
                    // Conflict: flip the most recent untried decision.
                    loop {
                        match self.stack.pop() {
                            None => {
                                self.last_backtracks = backtracks;
                                return Ok(PodemResult::Untestable);
                            }
                            Some((pi, true)) => {
                                self.assignment[pi as usize] = Ternary::X;
                            }
                            Some((pi, false)) => {
                                backtracks += 1;
                                if backtracks > self.config.max_backtracks {
                                    self.last_backtracks = backtracks;
                                    return Ok(PodemResult::Aborted);
                                }
                                let v = &mut self.assignment[pi as usize];
                                *v = v.not();
                                self.stack.push((pi, true));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Focus on the fault at `site`: collect its fanout cone (inclusive)
    /// in topological order — the only place a fault effect, and so a
    /// D-frontier gate, can appear — and the ops of the cone and its
    /// transitive fanin, the only lines detection, the objective and the
    /// backtrace ever read. Every other line is left X.
    fn focus(&mut self, site: u32) {
        let program = &self.program;
        let mark = &mut self.mark;
        self.cone.clear();
        self.cone.push(site);
        mark[site as usize] = true;
        let mut next = 0;
        while let Some(&n) = self.cone.get(next) {
            next += 1;
            for &m in program.fanouts(n) {
                if !mark[m as usize] {
                    mark[m as usize] = true;
                    self.cone.push(m);
                }
            }
        }
        // The cone and its transitive fanin, as op positions.
        self.support.clear();
        self.support.extend_from_slice(&self.cone);
        let mut next = 0;
        while let Some(&n) = self.support.get(next) {
            next += 1;
            if program.position[n as usize] == NOT_AN_OP {
                continue;
            }
            for &f in program.fanins(n) {
                if !mark[f as usize] {
                    mark[f as usize] = true;
                    self.support.push(f);
                }
            }
        }
        for &n in &self.support {
            mark[n as usize] = false;
        }
        self.support
            .retain(|&n| program.position[n as usize] != NOT_AN_OP);
        for n in &mut self.support {
            *n = program.position[*n as usize];
        }
        self.support.sort_unstable();
        self.ops.clear();
        self.ops
            .extend(self.support.iter().map(|&p| program.ops[p as usize]));
        self.site_op = self.ops.iter().position(|op| op.node == site);
        self.cone
            .sort_unstable_by_key(|&n| (program.level[n as usize], n));
        let n = self.mark.len();
        self.values[..n].fill(0);
    }

    /// Three-valued simulation of both machines under the current
    /// assignment: one pass over the fault's ops, with the stuck value
    /// injected at the fault site.
    fn imply(&mut self, target: Target) {
        let program = &self.program;
        let values = &mut self.values;
        for (&input, &v) in program.inputs.iter().zip(&self.assignment) {
            values[input as usize] = both(v);
        }
        let stuck = target.faulty_rails();
        let site = target.site as usize;
        let Some(split) = self.site_op else {
            values[site] = (values[site] & GOOD) | stuck;
            simulate(program, values, &self.ops);
            return;
        };
        simulate(program, values, &self.ops[..split]);
        let op = self.ops[split];
        let fanins = &program.fanin_pool[op.start as usize..op.end as usize];
        values[site] = match target.pin {
            None => {
                let out = eval(
                    op.fold,
                    op.invert,
                    fanins.iter().map(|&f| values[f as usize]),
                );
                (out & GOOD) | stuck
            }
            Some(pin) => eval(
                op.fold,
                op.invert,
                fanins.iter().enumerate().map(|(p, &f)| {
                    if p == pin as usize {
                        (values[f as usize] & GOOD) | stuck
                    } else {
                        values[f as usize]
                    }
                }),
            ),
        };
        simulate(program, values, &self.ops[split + 1..]);
    }

    fn detected(&self) -> bool {
        self.program
            .outputs
            .iter()
            .any(|&o| is_fault_effect(self.values[o as usize]))
    }

    /// The next objective `(node, good-machine target value)`, or `None`
    /// on a conflict requiring backtracking.
    fn objective(&mut self, target: Target) -> Option<(u32, bool)> {
        let want = !target.stuck;
        match good(self.values[target.excite as usize]).to_bool() {
            None => return Some((target.excite, want)),
            Some(v) if v != want => return None, // fault can no longer be excited
            Some(_) => {}
        }
        // Excited: advance the D-frontier gate with the best (lowest)
        // observability, ties to the lowest node id. A branch fault
        // injects its stuck value at one specific pin — that pin carries
        // a D even though the driving stem does not.
        let program = &self.program;
        let values = &self.values;
        let stuck = target.faulty_rails();
        let mut best: Option<(u32, u32)> = None;
        let mut x_path_open = false;
        for &n in self.cone.iter().rev() {
            let v = values[n as usize];
            let open = undetermined(v)
                && (program.is_output[n as usize]
                    || program.fanouts(n).iter().any(|&m| self.x_path[m as usize]));
            self.x_path[n as usize] = open;
            if program.kind[n as usize].is_source() || !undetermined(v) {
                continue;
            }
            let fanins = program.fanins(n);
            let has_d_input = fanins.iter().enumerate().any(|(p, &f)| {
                let fv = if n == target.site && target.pin == Some(p as u32) {
                    (values[f as usize] & GOOD) | stuck
                } else {
                    values[f as usize]
                };
                is_fault_effect(fv)
            });
            if !has_d_input {
                continue;
            }
            x_path_open |= open;
            if fanins
                .iter()
                .any(|&f| good(values[f as usize]) == Ternary::X)
            {
                let key = (program.co[n as usize], n);
                if best.is_none_or(|b| key < b) {
                    best = Some(key);
                }
            }
        }
        let (_, gate) = best?;
        if !x_path_open {
            // The fault effect is boxed in: no completion detects it.
            return None;
        }
        let kind = program.kind[gate as usize];
        // Side objective: an X input to its non-controlling value (any
        // value propagates through XOR; pick 0).
        let side_value = kind.controlling_value() == Some(false);
        let side = program
            .fanins(gate)
            .iter()
            .copied()
            .find(|&f| good(values[f as usize]) == Ternary::X)
            .expect("frontier gates have an X input");
        Some((side, side_value))
    }

    /// Walk an objective back to an unassigned primary input, steering by
    /// SCOAP controllabilities.
    fn backtrace(&self, mut node: u32, mut value: bool) -> Option<(u32, bool)> {
        let program = &self.program;
        let is_x = |f: u32| good(self.values[f as usize]) == Ternary::X;
        loop {
            let kind = program.kind[node as usize];
            match kind {
                GateKind::Input => return Some((program.pi_position[node as usize], value)),
                GateKind::Const0 | GateKind::Const1 => return None, // cannot set a constant
                _ => {}
            }
            let pre_inversion = value ^ kind.inverts_output();
            let fanins = program.fanins(node);
            let mut x_inputs = fanins.iter().copied().filter(|&f| is_x(f));
            // Objective unreachable under current values.
            let first = x_inputs.next()?;
            (node, value) = match kind {
                GateKind::Buf | GateKind::Not => (first, pre_inversion),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let controlling = kind
                        .controlling_value()
                        .expect("AND/OR-like gates have one");
                    if pre_inversion == controlling {
                        // One controlling input suffices: pick the easiest
                        // (the first of equals).
                        let mut pick = (first, program.cc(first, controlling));
                        for f in x_inputs {
                            let cost = program.cc(f, controlling);
                            if cost < pick.1 {
                                pick = (f, cost);
                            }
                        }
                        (pick.0, controlling)
                    } else {
                        // All inputs must be non-controlling: attack the
                        // hardest X input first (fail fast; the last of
                        // equals).
                        let mut pick = (first, program.cc(first, !controlling));
                        for f in x_inputs {
                            let cost = program.cc(f, !controlling);
                            if cost >= pick.1 {
                                pick = (f, cost);
                            }
                        }
                        (pick.0, !controlling)
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // If only one X input remains the parity determines its
                    // value; otherwise any choice works.
                    if x_inputs.next().is_none() {
                        let others = fanins
                            .iter()
                            .filter(|&&f| f != first)
                            .map(|&f| good(self.values[f as usize]) == Ternary::One)
                            .fold(false, |acc, v| acc ^ v);
                        (first, pre_inversion ^ others)
                    } else {
                        (first, false)
                    }
                }
                _ => unreachable!("sources handled above"),
            };
        }
    }
}

/// Evaluate `ops` in order into `values`.
fn simulate(program: &Program, values: &mut [u8], ops: &[Op]) {
    for op in ops {
        let out = if op.end - op.start <= 3 {
            let f = &program.fanin_pool[op.start as usize..op.start as usize + 3];
            let table = &FOLD[op.fold as usize];
            let acc = table[usize::from((values[f[0] as usize] << 4) | values[f[1] as usize])];
            let out = table[usize::from((acc << 4) | values[f[2] as usize])];
            if op.invert {
                swap(out)
            } else {
                out
            }
        } else {
            let fanins = &program.fanin_pool[op.start as usize..op.end as usize];
            eval(
                op.fold,
                op.invert,
                fanins.iter().map(|&f| values[f as usize]),
            )
        };
        values[op.node as usize] = out;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, NodeId};
    use tpi_sim::montecarlo;

    fn verify_cube(circuit: &Circuit, fault: Fault, cube: &TestCube) {
        // Any completion of the cube must detect the fault; check the
        // all-zeros and all-ones fills.
        for fill in [false, true] {
            let pattern = cube.filled_with(|| fill);
            let good = circuit.evaluate(&pattern).unwrap();
            // Faulty evaluation via the exhaustive reference in tpi-sim is
            // private; re-evaluate manually.
            let topo = Topology::of(circuit).unwrap();
            let mut vals = vec![false; circuit.node_count()];
            for (&i, &v) in circuit.inputs().iter().zip(&pattern) {
                vals[i.index()] = v;
            }
            for &id in topo.order() {
                let node = circuit.node(id);
                if !node.kind().is_source() {
                    let fanins: Vec<bool> = node
                        .fanins()
                        .iter()
                        .enumerate()
                        .map(|(pin, f)| {
                            if let FaultSite::Branch { gate, pin: fp } = fault.site {
                                if gate == id && fp as usize == pin {
                                    return fault.stuck;
                                }
                            }
                            vals[f.index()]
                        })
                        .collect();
                    vals[id.index()] = node.kind().eval(fanins.iter().copied());
                }
                if fault.site == FaultSite::Stem(id) {
                    vals[id.index()] = fault.stuck;
                }
            }
            let detected = circuit
                .outputs()
                .iter()
                .any(|o| vals[o.index()] != good[o.index()]);
            assert!(
                detected,
                "cube {} (fill {fill}) fails to detect {}",
                cube.to_pattern_string(),
                fault.describe(circuit)
            );
        }
    }

    const TERNARY: [Ternary; 3] = [Ternary::Zero, Ternary::One, Ternary::X];

    fn eval_kind(kind: GateKind, fanins: impl Iterator<Item = u8>) -> u8 {
        let (fold, invert) = lower(kind);
        eval(fold, invert, fanins)
    }

    /// Pack a (good, faulty) pair into the dual-rail byte.
    fn pair(g: Ternary, f: Ternary) -> u8 {
        (both(g) & GOOD) | (both(f) & FAULTY)
    }

    /// Three-valued reference: the boolean result if every completion of
    /// the X inputs agrees, else X.
    fn ternary_reference(kind: GateKind, inputs: &[Ternary]) -> Ternary {
        let xs: Vec<usize> = (0..inputs.len())
            .filter(|&i| inputs[i] == Ternary::X)
            .collect();
        let mut seen = [false; 2];
        for fill in 0..1u32 << xs.len() {
            let bits = inputs.iter().enumerate().map(|(i, v)| {
                v.to_bool()
                    .unwrap_or_else(|| fill >> xs.iter().position(|&x| x == i).unwrap() & 1 == 1)
            });
            seen[usize::from(kind.eval(bits))] = true;
        }
        match seen {
            [true, false] => Ternary::Zero,
            [false, true] => Ternary::One,
            _ => Ternary::X,
        }
    }

    #[test]
    fn dual_rail_eval_matches_ternary_semantics_in_both_machines() {
        use GateKind as K;
        for kind in [K::And, K::Nand, K::Or, K::Nor, K::Xor, K::Xnor] {
            // Every (good, faulty) pair on each of three inputs.
            let pairs: Vec<(Ternary, Ternary)> = TERNARY
                .iter()
                .flat_map(|&g| TERNARY.iter().map(move |&f| (g, f)))
                .collect();
            for a in &pairs {
                for b in &pairs {
                    for c in &pairs {
                        let ins = [a, b, c];
                        let got = eval_kind(kind, ins.iter().map(|&&(g, f)| pair(g, f)));
                        let good_ref = ternary_reference(kind, &ins.map(|&(g, _)| g));
                        let faulty_ref = ternary_reference(kind, &ins.map(|&(_, f)| f));
                        assert_eq!(got, pair(good_ref, faulty_ref), "{kind} {ins:?}");
                    }
                }
            }
        }
        for t in TERNARY {
            let v = pair(t, t.not());
            assert_eq!(eval_kind(K::Buf, [v].into_iter()), v);
            assert_eq!(eval_kind(K::Not, [v].into_iter()), pair(t.not(), t));
        }
        assert_eq!(
            eval_kind(K::Const0, std::iter::empty()),
            pair(Ternary::Zero, Ternary::Zero)
        );
        assert_eq!(
            eval_kind(K::Const1, std::iter::empty()),
            pair(Ternary::One, Ternary::One)
        );
        assert!(is_fault_effect(pair(Ternary::One, Ternary::Zero)));
        assert!(is_fault_effect(pair(Ternary::Zero, Ternary::One)));
        assert!(!is_fault_effect(pair(Ternary::One, Ternary::X)));
        assert!(undetermined(pair(Ternary::One, Ternary::X)));
        assert!(!undetermined(pair(Ternary::One, Ternary::One)));
    }

    #[test]
    fn x_path_check_prunes_a_boxed_in_fault_effect() {
        // e = AND(a, NOT(k)) feeds the only output through
        // h = AND(AND(e, x), k). Exciting e/SA0 needs k = 0, which blocks
        // h: once e carries D, the frontier gate AND(e, x) still has an X
        // input but no undetermined path to the output, so the search
        // backtracks at once instead of first trying both values of x.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let k = b.input("k");
        let x = b.input("x");
        let nk = b.gate(GateKind::Not, vec![k], "nk").unwrap();
        let e = b.gate(GateKind::And, vec![a, nk], "e").unwrap();
        let f = b.gate(GateKind::And, vec![e, x], "f").unwrap();
        let h = b.gate(GateKind::And, vec![f, k], "h").unwrap();
        b.output(h);
        let c = b.finish().unwrap();
        let mut podem = Podem::new(&c).unwrap();
        assert_eq!(
            podem.generate(Fault::stem_sa0(e)).unwrap(),
            PodemResult::Untestable
        );
        // Flip a, then flip k; without the X-path check the search also
        // flips x first (3 backtracks).
        assert_eq!(podem.last_backtracks(), 2);
    }

    #[test]
    fn generates_tests_for_every_c17_fault() {
        let c = tpi_bench_c17();
        let universe = tpi_sim::FaultUniverse::full(&c).unwrap();
        let mut podem = Podem::new(&c).unwrap();
        for &fault in universe.faults() {
            match podem.generate(fault).unwrap() {
                PodemResult::Test(cube) => verify_cube(&c, fault, &cube),
                other => panic!("{}: {other:?}", fault.describe(&c)),
            }
        }
    }

    fn tpi_bench_c17() -> Circuit {
        tpi_netlist::bench_format::parse_bench(
            "INPUT(1)\nINPUT(2)\nINPUT(3)\nINPUT(6)\nINPUT(7)\n\
             OUTPUT(22)\nOUTPUT(23)\n\
             10 = NAND(1, 3)\n11 = NAND(3, 6)\n16 = NAND(2, 11)\n\
             19 = NAND(11, 7)\n22 = NAND(10, 16)\n23 = NAND(16, 19)\n",
        )
        .unwrap()
    }

    #[test]
    fn proves_redundancy() {
        // y = OR(x, NOT(x)) ≡ 1: y/SA1 is untestable.
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let nx = b.gate(GateKind::Not, vec![x], "nx").unwrap();
        let y = b.gate(GateKind::Or, vec![x, nx], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let mut podem = Podem::new(&c).unwrap();
        assert_eq!(
            podem.generate(Fault::stem_sa1(y)).unwrap(),
            PodemResult::Untestable
        );
        // …while y/SA0 is trivially testable.
        assert!(matches!(
            podem.generate(Fault::stem_sa0(y)).unwrap(),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn agrees_with_exhaustive_detectability_on_random_dags() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Hand-rolled random DAGs (tpi-gen is a dev-dependency cycle risk
        // here is none, but keep the module self-contained).
        for seed in 0..8u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut b = CircuitBuilder::new("dag");
            let mut nodes: Vec<NodeId> = (0..4).map(|i| b.input(format!("x{i}"))).collect();
            for gi in 0..12 {
                let kinds = [
                    GateKind::And,
                    GateKind::Or,
                    GateKind::Nand,
                    GateKind::Nor,
                    GateKind::Xor,
                    GateKind::Not,
                ];
                let kind = kinds[rng.gen_range(0..kinds.len())];
                let arity = if matches!(kind, GateKind::Not) { 1 } else { 2 };
                let fanins: Vec<NodeId> = (0..arity)
                    .map(|_| nodes[rng.gen_range(0..nodes.len())])
                    .collect();
                let g = b.gate(kind, fanins, format!("g{gi}")).unwrap();
                nodes.push(g);
            }
            b.output(*nodes.last().unwrap());
            let c = b.finish().unwrap();
            let universe = tpi_sim::FaultUniverse::full(&c).unwrap();
            let probs = montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
            let mut podem = Podem::new(&c).unwrap();
            for (i, &fault) in universe.faults().iter().enumerate() {
                let result = podem.generate(fault).unwrap();
                match result {
                    PodemResult::Test(cube) => {
                        assert!(
                            probs[i] > 0.0,
                            "PODEM found a test for undetectable {} (seed {seed})",
                            fault.describe(&c)
                        );
                        verify_cube(&c, fault, &cube);
                    }
                    PodemResult::Untestable => {
                        assert_eq!(
                            probs[i],
                            0.0,
                            "PODEM called detectable fault {} redundant (seed {seed})",
                            fault.describe(&c)
                        );
                    }
                    PodemResult::Aborted => panic!("abort on tiny circuit (seed {seed})"),
                }
            }
        }
    }

    #[test]
    fn respects_backtrack_limit() {
        // y = AND(p, NOT(p)) ≡ 0 behind a wide XOR cone: y/SA0 needs
        // good(y) = 1, which is impossible — proving it exhausts the
        // space, so a tiny limit must abort rather than hang.
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(10, "x");
        let p = b.balanced_tree(GateKind::Xor, &xs, "p").unwrap();
        let np = b.gate(GateKind::Not, vec![p], "np").unwrap();
        let y = b.gate(GateKind::And, vec![p, np], "y").unwrap();
        b.output(y);
        let c = b.finish().unwrap();
        let mut podem = Podem::with_config(&c, PodemConfig { max_backtracks: 3 }).unwrap();
        let r = podem.generate(Fault::stem_sa0(y)).unwrap();
        assert_eq!(r, PodemResult::Aborted);
        assert!(podem.last_backtracks() >= 3);
        // With the default budget the same fault is *proven* redundant.
        let mut full = Podem::new(&c).unwrap();
        assert_eq!(
            full.generate(Fault::stem_sa0(y)).unwrap(),
            PodemResult::Untestable
        );
        // The constant-0 line's SA1 is conversely detected by any pattern.
        assert!(matches!(
            full.generate(Fault::stem_sa1(y)).unwrap(),
            PodemResult::Test(_)
        ));
    }

    #[test]
    fn branch_fault_cube() {
        // a fans out to two AND gates; the branch fault needs the specific
        // side input high.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, vec![a, x], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![a, y], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let fault = Fault {
            site: FaultSite::Branch { gate: g1, pin: 0 },
            stuck: true,
        };
        let mut podem = Podem::new(&c).unwrap();
        match podem.generate(fault).unwrap() {
            PodemResult::Test(cube) => {
                verify_cube(&c, fault, &cube);
                // Must set a=0 and x=1.
                assert_eq!(cube.value_for(&c, a), Some(Ternary::Zero));
                assert_eq!(cube.value_for(&c, x), Some(Ternary::One));
            }
            other => panic!("{other:?}"),
        }
    }
}
