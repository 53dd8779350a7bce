//! Test-only reference PODEM: the implementation the compiled
//! generator in `tpi-atpg` replaced, kept as the oracle its verdicts,
//! cubes and backtrack counts are checked against.
//!
//! It re-simulates the whole circuit in three-valued logic for every
//! decision and scans every node for the D-frontier. Its objective,
//! backtrace tie-breaks and decision stack are the ones the compiled
//! generator must reproduce exactly.

use krishnamurthy_tpi::atpg::{PodemConfig, PodemResult, Ternary, TestCube};
use krishnamurthy_tpi::netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};
use krishnamurthy_tpi::sim::{Fault, FaultSite};
use krishnamurthy_tpi::testability::ScoapAnalysis;

/// The reference PODEM: a full-circuit ternary re-simulation over the
/// pointer-based [`Circuit`] per decision, and a whole-circuit
/// D-frontier scan.
///
/// Implements the classic algorithm: objectives are either *excite the
/// fault* or *advance the D-frontier*; each objective is backtraced to a
/// primary-input assignment (SCOAP-guided choice of path), implication is
/// full three-valued simulation of the good and faulty machines, and a
/// decision stack over PI assignments backtracks on conflicts. Exhausting
/// the stack proves redundancy.
#[derive(Clone, Debug)]
pub struct OraclePodem {
    circuit: Circuit,
    order: Vec<NodeId>,
    scoap: ScoapAnalysis,
    config: PodemConfig,
    /// PI position by node index (usize::MAX for non-inputs).
    pi_position: Vec<usize>,
    good: Vec<Ternary>,
    faulty: Vec<Ternary>,
    /// Statistics: backtracks used by the last call.
    last_backtracks: u64,
}

impl OraclePodem {
    /// Build a generator for `circuit` with default configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn new(circuit: &Circuit) -> Result<OraclePodem, NetlistError> {
        OraclePodem::with_config(circuit, PodemConfig::default())
    }

    /// Build with an explicit configuration.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] for cyclic circuits.
    pub fn with_config(
        circuit: &Circuit,
        config: PodemConfig,
    ) -> Result<OraclePodem, NetlistError> {
        let topo = Topology::of(circuit)?;
        let scoap = ScoapAnalysis::new(circuit)?;
        let mut pi_position = vec![usize::MAX; circuit.node_count()];
        for (pos, &i) in circuit.inputs().iter().enumerate() {
            pi_position[i.index()] = pos;
        }
        Ok(OraclePodem {
            order: topo.order().to_vec(),
            scoap,
            config,
            pi_position,
            good: vec![Ternary::X; circuit.node_count()],
            faulty: vec![Ternary::X; circuit.node_count()],
            circuit: circuit.clone(),
            last_backtracks: 0,
        })
    }

    /// Backtracks consumed by the most recent
    /// [`generate`](OraclePodem::generate) call.
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
        let n_inputs = self.circuit.inputs().len();
        let mut assignment: Vec<Ternary> = vec![Ternary::X; n_inputs];
        // (pi position, exhausted both values?)
        let mut stack: Vec<(usize, bool)> = Vec::new();
        let mut backtracks = 0u64;

        loop {
            self.imply(&assignment, fault);
            if self.detected() {
                self.last_backtracks = backtracks;
                return Ok(PodemResult::Test(TestCube::new(assignment)));
            }
            let objective = self.objective(fault);
            let decision = objective.and_then(|(node, value)| self.backtrace(node, value));
            match decision {
                Some((pi, value)) => {
                    assignment[pi] = Ternary::from_bool(value);
                    stack.push((pi, false));
                }
                None => {
                    // Conflict: flip the most recent untried decision.
                    loop {
                        match stack.pop() {
                            None => {
                                self.last_backtracks = backtracks;
                                return Ok(PodemResult::Untestable);
                            }
                            Some((pi, true)) => {
                                assignment[pi] = Ternary::X;
                            }
                            Some((pi, false)) => {
                                backtracks += 1;
                                if backtracks > self.config.max_backtracks {
                                    self.last_backtracks = backtracks;
                                    return Ok(PodemResult::Aborted);
                                }
                                assignment[pi] = assignment[pi].not();
                                stack.push((pi, true));
                                break;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Three-valued simulation of both machines under `assignment`.
    fn imply(&mut self, assignment: &[Ternary], fault: Fault) {
        for (pos, (&input, &v)) in self
            .circuit
            .inputs()
            .to_vec()
            .iter()
            .zip(assignment)
            .enumerate()
        {
            debug_assert_eq!(self.pi_position[input.index()], pos);
            self.good[input.index()] = v;
            self.faulty[input.index()] = v;
        }
        let order = std::mem::take(&mut self.order);
        for &id in &order {
            let node = self.circuit.node(id);
            let kind = node.kind();
            if kind != GateKind::Input {
                self.good[id.index()] =
                    eval_ternary(kind, node.fanins().iter().map(|f| self.good[f.index()]));
                let faulty_val = match fault.site {
                    FaultSite::Branch { gate, pin } if gate == id => eval_ternary(
                        kind,
                        node.fanins().iter().enumerate().map(|(p, f)| {
                            if p == pin as usize {
                                Ternary::from_bool(fault.stuck)
                            } else {
                                self.faulty[f.index()]
                            }
                        }),
                    ),
                    _ => eval_ternary(kind, node.fanins().iter().map(|f| self.faulty[f.index()])),
                };
                self.faulty[id.index()] = faulty_val;
            }
            if fault.site == FaultSite::Stem(id) {
                self.faulty[id.index()] = Ternary::from_bool(fault.stuck);
            }
        }
        self.order = order;
    }

    fn detected(&self) -> bool {
        self.circuit.outputs().iter().any(|&o| {
            let (g, f) = (self.good[o.index()], self.faulty[o.index()]);
            g.is_binary() && f.is_binary() && g != f
        })
    }

    /// The next objective `(node, good-machine target value)`, or `None`
    /// on a conflict requiring backtracking.
    fn objective(&self, fault: Fault) -> Option<(NodeId, Ternary)> {
        let excite_line = match fault.site {
            FaultSite::Stem(n) => n,
            FaultSite::Branch { gate, pin } => self.circuit.fanins(gate)[pin as usize],
        };
        let want = Ternary::from_bool(!fault.stuck);
        match self.good[excite_line.index()] {
            Ternary::X => return Some((excite_line, want)),
            v if v != want => return None, // fault can no longer be excited
            _ => {}
        }
        // Excited: advance the D-frontier gate with the best (lowest)
        // observability. A branch fault injects its stuck value at one
        // specific pin — that pin carries a D even though the driving
        // stem does not.
        let effective_faulty = |gate: NodeId, pin: usize, driver: NodeId| -> Ternary {
            if let FaultSite::Branch { gate: fg, pin: fp } = fault.site {
                if fg == gate && fp as usize == pin {
                    return Ternary::from_bool(fault.stuck);
                }
            }
            self.faulty[driver.index()]
        };
        let mut best: Option<(NodeId, u32)> = None;
        for id in self.circuit.node_ids() {
            let node = self.circuit.node(id);
            if node.kind().is_source() {
                continue;
            }
            let out_undetermined =
                self.good[id.index()] == Ternary::X || self.faulty[id.index()] == Ternary::X;
            if !out_undetermined {
                continue;
            }
            let has_d_input = node.fanins().iter().enumerate().any(|(p, &f)| {
                let g = self.good[f.index()];
                let fv = effective_faulty(id, p, f);
                g.is_binary() && fv.is_binary() && g != fv
            });
            let has_x_input = node
                .fanins()
                .iter()
                .any(|f| self.good[f.index()] == Ternary::X);
            if has_d_input && has_x_input {
                let co = self.scoap.co(id);
                if best.map(|(_, c)| co < c).unwrap_or(true) {
                    best = Some((id, co));
                }
            }
        }
        let (gate, _) = best?;
        let kind = self.circuit.kind(gate);
        // Side objective: an X input to its non-controlling value (any
        // value propagates through XOR; pick 0).
        let side_value = match kind.controlling_value() {
            Some(c) => Ternary::from_bool(!c),
            None => Ternary::Zero,
        };
        let side = self
            .circuit
            .fanins(gate)
            .iter()
            .copied()
            .find(|f| self.good[f.index()] == Ternary::X)
            .expect("frontier gates have an X input");
        Some((side, side_value))
    }

    /// Walk an objective back to an unassigned primary input, steering by
    /// SCOAP controllabilities.
    fn backtrace(&self, mut node: NodeId, mut value: Ternary) -> Option<(usize, bool)> {
        loop {
            let kind = self.circuit.kind(node);
            match kind {
                GateKind::Input => {
                    let target = value.to_bool().expect("objectives are binary");
                    return Some((self.pi_position[node.index()], target));
                }
                GateKind::Const0 | GateKind::Const1 => return None, // cannot set a constant
                _ => {}
            }
            let pre_inversion = if kind.inverts_output() {
                value.not()
            } else {
                value
            };
            let fanins = self.circuit.fanins(node);
            let x_inputs: Vec<NodeId> = fanins
                .iter()
                .copied()
                .filter(|f| self.good[f.index()] == Ternary::X)
                .collect();
            if x_inputs.is_empty() {
                return None; // objective unreachable under current values
            }
            let (next, next_val) = match kind {
                GateKind::Buf | GateKind::Not => (x_inputs[0], pre_inversion),
                GateKind::And | GateKind::Nand | GateKind::Or | GateKind::Nor => {
                    let controlling = kind
                        .controlling_value()
                        .expect("AND/OR-like gates have one");
                    let want_controlling = pre_inversion == Ternary::from_bool(controlling);
                    if want_controlling {
                        // One controlling input suffices: pick the easiest.
                        let pick = x_inputs
                            .iter()
                            .copied()
                            .min_by_key(|&f| self.cc(f, controlling))
                            .expect("nonempty");
                        (pick, Ternary::from_bool(controlling))
                    } else {
                        // All inputs must be non-controlling: attack the
                        // hardest X input first (fail fast).
                        let pick = x_inputs
                            .iter()
                            .copied()
                            .max_by_key(|&f| self.cc(f, !controlling))
                            .expect("nonempty");
                        (pick, Ternary::from_bool(!controlling))
                    }
                }
                GateKind::Xor | GateKind::Xnor => {
                    // If only one X input remains the parity determines its
                    // value; otherwise any choice works.
                    let pick = x_inputs[0];
                    if x_inputs.len() == 1 {
                        let others = fanins
                            .iter()
                            .filter(|&&f| f != pick)
                            .map(|f| self.good[f.index()].to_bool().unwrap_or(false))
                            .fold(false, |acc, v| acc ^ v);
                        let target = pre_inversion.to_bool().expect("binary objective");
                        (pick, Ternary::from_bool(target ^ others))
                    } else {
                        (pick, Ternary::Zero)
                    }
                }
                _ => unreachable!("sources handled above"),
            };
            node = next;
            value = next_val;
        }
    }

    fn cc(&self, node: NodeId, value: bool) -> u32 {
        if value {
            self.scoap.cc1(node)
        } else {
            self.scoap.cc0(node)
        }
    }
}

/// Evaluate a gate in three-valued logic.
///
/// Controlling values dominate unknowns (an AND with a 0 input is 0 even
/// if other inputs are X); otherwise any X makes the output X.
pub fn eval_ternary<I: IntoIterator<Item = Ternary>>(kind: GateKind, fanins: I) -> Ternary {
    let mut it = fanins.into_iter();
    match kind {
        GateKind::Const0 => Ternary::Zero,
        GateKind::Const1 => Ternary::One,
        GateKind::Input => Ternary::X,
        GateKind::Buf => it.next().unwrap_or(Ternary::X),
        GateKind::Not => it.next().unwrap_or(Ternary::X).not(),
        GateKind::And | GateKind::Nand => {
            let mut saw_x = false;
            let mut out = Ternary::One;
            for v in it {
                match v {
                    Ternary::Zero => {
                        out = Ternary::Zero;
                        saw_x = false;
                        break;
                    }
                    Ternary::X => saw_x = true,
                    Ternary::One => {}
                }
            }
            let out = if saw_x { Ternary::X } else { out };
            if kind == GateKind::Nand {
                out.not()
            } else {
                out
            }
        }
        GateKind::Or | GateKind::Nor => {
            let mut saw_x = false;
            let mut out = Ternary::Zero;
            for v in it {
                match v {
                    Ternary::One => {
                        out = Ternary::One;
                        saw_x = false;
                        break;
                    }
                    Ternary::X => saw_x = true,
                    Ternary::Zero => {}
                }
            }
            let out = if saw_x { Ternary::X } else { out };
            if kind == GateKind::Nor {
                out.not()
            } else {
                out
            }
        }
        GateKind::Xor | GateKind::Xnor => {
            let mut acc = Ternary::Zero;
            for v in it {
                acc = match (acc, v) {
                    (Ternary::X, _) | (_, Ternary::X) => Ternary::X,
                    (a, b) => Ternary::from_bool(a.to_bool().unwrap() ^ b.to_bool().unwrap()),
                };
                if acc == Ternary::X {
                    return Ternary::X; // X is absorbing for parity
                }
            }
            if kind == GateKind::Xnor {
                acc.not()
            } else {
                acc
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn controlling_values_dominate_x() {
        assert_eq!(
            eval_ternary(GateKind::And, [Ternary::Zero, Ternary::X]),
            Ternary::Zero
        );
        assert_eq!(
            eval_ternary(GateKind::Nand, [Ternary::Zero, Ternary::X]),
            Ternary::One
        );
        assert_eq!(
            eval_ternary(GateKind::Or, [Ternary::X, Ternary::One]),
            Ternary::One
        );
        assert_eq!(
            eval_ternary(GateKind::Nor, [Ternary::X, Ternary::One]),
            Ternary::Zero
        );
    }

    #[test]
    fn x_propagates_without_controlling_input() {
        assert_eq!(
            eval_ternary(GateKind::And, [Ternary::One, Ternary::X]),
            Ternary::X
        );
        assert_eq!(
            eval_ternary(GateKind::Or, [Ternary::Zero, Ternary::X]),
            Ternary::X
        );
        assert_eq!(
            eval_ternary(GateKind::Xor, [Ternary::One, Ternary::X]),
            Ternary::X
        );
    }

    #[test]
    fn binary_cases_match_boolean_eval() {
        use tpi_netlist::GateKind as K;
        for kind in [K::And, K::Nand, K::Or, K::Nor, K::Xor, K::Xnor] {
            for p in 0..4u8 {
                let a = p & 1 != 0;
                let b = p & 2 != 0;
                let expected = kind.eval([a, b]);
                let got = eval_ternary(kind, [Ternary::from_bool(a), Ternary::from_bool(b)]);
                assert_eq!(got.to_bool(), Some(expected), "{kind} {a} {b}");
            }
        }
    }

    #[test]
    fn unary_and_constants() {
        assert_eq!(eval_ternary(GateKind::Not, [Ternary::X]), Ternary::X);
        assert_eq!(eval_ternary(GateKind::Buf, [Ternary::One]), Ternary::One);
        assert_eq!(eval_ternary(GateKind::Const1, []), Ternary::One);
        assert_eq!(eval_ternary(GateKind::Const0, []), Ternary::Zero);
    }

    #[test]
    fn ternary_helpers() {
        assert_eq!(Ternary::from_bool(true), Ternary::One);
        assert_eq!(Ternary::One.not(), Ternary::Zero);
        assert_eq!(Ternary::X.not(), Ternary::X);
        assert!(Ternary::Zero.is_binary());
        assert!(!Ternary::X.is_binary());
        assert_eq!(Ternary::X.to_bool(), None);
    }
}
