//! Incremental COP recompute for test-point candidate probing.
//!
//! The greedy optimizer asks, for every `(node, kind)` candidate each
//! round, "what would the COP detection probabilities be if this one test
//! point were added?". Answering by `apply_plan` + full
//! [`CopAnalysis`] costs O(n) per candidate. A test point, however, only
//! perturbs its *cone*:
//!
//! * controllabilities (`c1`) change only strictly downstream of the
//!   candidate line (forward through its output cone), because every
//!   other node's fanin values are untouched;
//! * observabilities (`obs` / `pin_obs`) change only on nodes whose
//!   factor inputs changed or that lie upstream of a changed branch —
//!   backward through the fanin support of the changed region.
//!
//! [`CopProbe`] exploits this: it keeps scratch copies of the base
//! analysis and, per candidate, runs a bitwise-pruned forward worklist
//! (stop as soon as a recomputed `c1` is bit-identical to the stored one)
//! followed by a level-ordered backward worklist, then rolls every touched
//! entry back. The inserted auxiliary nodes (`tp_r*`, `tp_cp*`) are
//! evaluated *virtually* — the modified circuit is never materialised.
//!
//! The recomputation calls the same [`gate_c1`]/[`pin_factors`] kernels as
//! the full analysis on operand lists that are element-for-element
//! identical to what the full pass would see, and `obs` is a max over the
//! same contribution multiset (max over non-negative floats is
//! order-insensitive), so every probed probability is **bit-identical** to
//! `CopAnalysis::with_input_probs(apply_test_point(circuit, tp), …)` —
//! the property `prop_candidate_eval.rs` checks against the legacy path.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, TestPoint, TestPointKind, Topology};

use crate::cop::{gate_c1, pin_factors};
use crate::CopAnalysis;

/// Incremental per-candidate COP evaluation over a fixed base circuit.
///
/// Construct once per committed-plan state (the analysis snapshot), then
/// call [`probe`](CopProbe::probe) for each candidate test point. Between
/// calls the scratch state always equals the base analysis.
#[derive(Clone, Debug)]
pub struct CopProbe<'a> {
    circuit: &'a Circuit,
    topo: &'a Topology,
    /// `(stem node, stuck-at value)` per target, in problem target order.
    targets: Vec<(NodeId, bool)>,
    // Scratch state, equal to the base analysis between probes.
    c1: Vec<f64>,
    obs: Vec<f64>,
    pin_obs: Vec<Vec<f64>>,
    // Worklist membership markers (index n is the virtual control gate).
    queued_fwd: Vec<bool>,
    queued_bwd: Vec<bool>,
}

impl<'a> CopProbe<'a> {
    /// Build a probe over `circuit` with its `topo` and base `cop`
    /// analysis. `targets` are the stem-fault sites whose detection
    /// probabilities each probe reports, in order.
    pub fn new(
        circuit: &'a Circuit,
        topo: &'a Topology,
        cop: &CopAnalysis,
        targets: &[(NodeId, bool)],
    ) -> CopProbe<'a> {
        let n = circuit.node_count();
        CopProbe {
            circuit,
            topo,
            targets: targets.to_vec(),
            c1: cop.c1_raw().to_vec(),
            obs: cop.obs_raw().to_vec(),
            pin_obs: cop.pin_obs_raw().to_vec(),
            queued_fwd: vec![false; n],
            queued_bwd: vec![false; n + 1],
        }
    }

    /// Detection probabilities of the targets on the *unmodified* base
    /// circuit (bit-identical to the base analysis).
    pub fn base_probabilities(&self) -> Vec<f64> {
        self.target_probabilities()
    }

    /// Per-target detection probabilities as if `tp` were applied to the
    /// base circuit — bit-identical to a full re-analysis of the modified
    /// circuit, at O(cone) instead of O(n) cost.
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchNode`] for an out-of-range node and
    /// [`NetlistError::InvalidTransform`] for a control/full point on a
    /// dangling line — the same failures `apply_test_point` reports.
    pub fn probe(&mut self, tp: TestPoint) -> Result<Vec<f64>, NetlistError> {
        let v = tp.node;
        let n = self.circuit.node_count();
        if v.index() >= n {
            return Err(NetlistError::NoSuchNode { index: v.index() });
        }
        let is_out = self.circuit.is_output(v);
        match tp.kind {
            TestPointKind::Observe => {
                if is_out {
                    // `add_output` is idempotent: the modified circuit is
                    // the base circuit, bit for bit.
                    return Ok(self.target_probabilities());
                }
            }
            _ => {
                if self.topo.fanouts(v).is_empty() && !is_out {
                    return Err(NetlistError::InvalidTransform {
                        message: format!(
                            "control point at dangling line `{}`",
                            self.circuit.node_name(v)
                        ),
                    });
                }
            }
        }

        let orig_c1_v = self.c1[v.index()];
        // The inserted control gate (`tp_cp*`) for CP-AND/CP-OR, and the
        // value the candidate line's old readers see in the modified
        // circuit: the control gate's output, the fresh cut input (0.5),
        // or — for observation points — the line itself, unchanged.
        let (cp_kind, reader_val) = match tp.kind {
            TestPointKind::Observe => (None, None),
            TestPointKind::Full => (None, Some(0.5)),
            TestPointKind::ControlAnd => {
                let k = GateKind::And;
                (Some(k), Some(gate_c1(k, [orig_c1_v, 0.5].into_iter())))
            }
            TestPointKind::ControlOr => {
                let k = GateKind::Or;
                (Some(k), Some(gate_c1(k, [orig_c1_v, 0.5].into_iter())))
            }
        };

        let mut undo_c1: Vec<(usize, f64)> = Vec::new();
        let mut undo_obs: Vec<(usize, f64)> = Vec::new();
        let mut undo_pin: Vec<(usize, Vec<f64>)> = Vec::new();
        let mut fwd_touched: Vec<usize> = Vec::new();
        let mut bwd_touched: Vec<usize> = Vec::new();

        // ---- forward: controllabilities through the output cone ----
        //
        // Substituting the reader value at v's own slot makes every
        // downstream recompute read the modified-circuit operand without
        // per-pin special cases; v's own (unchanged) c1 is restored before
        // the target scan.
        if let Some(val) = reader_val {
            self.c1[v.index()] = val;
        }
        let mut changed: Vec<usize> = Vec::new();
        if reader_val.is_some() {
            let mut fwd: BinaryHeap<Reverse<(u32, usize)>> = BinaryHeap::new();
            for fo in self.topo.fanouts(v) {
                let gi = fo.gate.index();
                if !self.queued_fwd[gi] {
                    self.queued_fwd[gi] = true;
                    fwd_touched.push(gi);
                    fwd.push(Reverse((self.topo.level(fo.gate), gi)));
                }
            }
            while let Some(Reverse((_, ui))) = fwd.pop() {
                let u = NodeId::from_index(ui);
                let val = gate_c1(
                    self.circuit.kind(u),
                    self.circuit.fanins(u).iter().map(|f| self.c1[f.index()]),
                );
                if val.to_bits() != self.c1[ui].to_bits() {
                    undo_c1.push((ui, self.c1[ui]));
                    self.c1[ui] = val;
                    changed.push(ui);
                    for fo in self.topo.fanouts(u) {
                        let gi = fo.gate.index();
                        if !self.queued_fwd[gi] {
                            self.queued_fwd[gi] = true;
                            fwd_touched.push(gi);
                            fwd.push(Reverse((self.topo.level(fo.gate), gi)));
                        }
                    }
                }
            }
        }

        // ---- backward: observabilities through the fanin support ----
        //
        // Max-heap on (level, Reverse(id)): strictly level-descending, so
        // every consumer's branch observability is final before its fanin
        // is popped. The virtual control gate uses marker index n with
        // pseudo-level level(v)+1; its id outranks every real node, so
        // same-level readers (its consumers) pop first.
        let mut bwd: BinaryHeap<(u32, Reverse<usize>)> = BinaryHeap::new();
        let enqueue = |i: usize,
                       lvl: u32,
                       heap: &mut BinaryHeap<(u32, Reverse<usize>)>,
                       queued: &mut Vec<bool>,
                       touched: &mut Vec<usize>| {
            if !queued[i] {
                queued[i] = true;
                touched.push(i);
                heap.push((lvl, Reverse(i)));
            }
        };
        if reader_val.is_some() {
            for fo in self.topo.fanouts(v) {
                enqueue(
                    fo.gate.index(),
                    self.topo.level(fo.gate),
                    &mut bwd,
                    &mut self.queued_bwd,
                    &mut bwd_touched,
                );
            }
        }
        for &ci in &changed {
            for fo in self.topo.fanouts(NodeId::from_index(ci)) {
                enqueue(
                    fo.gate.index(),
                    self.topo.level(fo.gate),
                    &mut bwd,
                    &mut self.queued_bwd,
                    &mut bwd_touched,
                );
            }
        }
        if cp_kind.is_some() {
            enqueue(
                n,
                self.topo.level(v) + 1,
                &mut bwd,
                &mut self.queued_bwd,
                &mut bwd_touched,
            );
        }
        enqueue(
            v.index(),
            self.topo.level(v),
            &mut bwd,
            &mut self.queued_bwd,
            &mut bwd_touched,
        );

        // Branch observabilities of the virtual control gate's two pins
        // (the tapped line, the fresh control input), once popped.
        let mut cp_row: [f64; 2] = [0.0, 0.0];
        while let Some((_, Reverse(i))) = bwd.pop() {
            if i == n {
                // Virtual control gate: observed iff the tapped line's PO
                // tap moved onto it; consumers are the line's old readers.
                let mut o = if is_out { 1.0 } else { 0.0 };
                for fo in self.topo.fanouts(v) {
                    let c = self.pin_obs[fo.gate.index()][fo.pin as usize];
                    if c > o {
                        o = c;
                    }
                }
                let kind = cp_kind.expect("virtual gate only queued for control points");
                let fanins = [NodeId::from_index(0), NodeId::from_index(1)];
                let f = pin_factors(kind, &fanins, &[orig_c1_v, 0.5]);
                cp_row = [o * f[0], o * f[1]];
                continue;
            }
            let u = NodeId::from_index(i);
            let is_out_m = if u == v {
                // Observe/Full add a PO tap; a control point moves any
                // existing tap onto the inserted gate.
                cp_kind.is_none()
            } else {
                self.circuit.is_output(u)
            };
            let mut o = if is_out_m { 1.0 } else { 0.0 };
            if u == v && cp_kind.is_some() {
                // Sole reader in the modified circuit: the control gate.
                if cp_row[0] > o {
                    o = cp_row[0];
                }
            } else if u == v && tp.kind == TestPointKind::Full {
                // Cut: old readers now read the fresh input; v only feeds
                // its new PO tap.
            } else {
                for fo in self.topo.fanouts(u) {
                    let c = self.pin_obs[fo.gate.index()][fo.pin as usize];
                    if c > o {
                        o = c;
                    }
                }
            }
            let kind = self.circuit.kind(u);
            if o.to_bits() != self.obs[i].to_bits() {
                undo_obs.push((i, self.obs[i]));
                self.obs[i] = o;
            }
            if kind.is_source() {
                continue;
            }
            let fanins = self.circuit.fanins(u);
            let factors = pin_factors(kind, fanins, &self.c1);
            let mut row_changed = false;
            for (p, (&fanin, factor)) in fanins.iter().zip(&factors).enumerate() {
                let branch = o * factor;
                if branch.to_bits() != self.pin_obs[i][p].to_bits() {
                    row_changed = true;
                    // Pins that read v read the inserted node in the
                    // modified circuit; their branch change feeds the
                    // virtual gate (already queued), not v.
                    if !(reader_val.is_some() && fanin == v) {
                        enqueue(
                            fanin.index(),
                            self.topo.level(fanin),
                            &mut bwd,
                            &mut self.queued_bwd,
                            &mut bwd_touched,
                        );
                    }
                }
            }
            if row_changed {
                let new_row: Vec<f64> = factors.iter().map(|f| o * f).collect();
                undo_pin.push((i, std::mem::replace(&mut self.pin_obs[i], new_row)));
            }
        }

        // v's own controllability is unchanged in the modified circuit —
        // only its readers were re-pointed. Restore before the scan.
        self.c1[v.index()] = orig_c1_v;
        let probabilities = self.target_probabilities();

        // ---- roll back to the base analysis ----
        for (i, val) in undo_c1 {
            self.c1[i] = val;
        }
        for (i, val) in undo_obs {
            self.obs[i] = val;
        }
        for (i, row) in undo_pin {
            self.pin_obs[i] = row;
        }
        for i in fwd_touched {
            self.queued_fwd[i] = false;
        }
        for i in bwd_touched {
            self.queued_bwd[i] = false;
        }
        Ok(probabilities)
    }

    fn target_probabilities(&self) -> Vec<f64> {
        self.targets
            .iter()
            .map(|&(t, stuck)| {
                let exc = if stuck {
                    1.0 - self.c1[t.index()]
                } else {
                    self.c1[t.index()]
                };
                exc * self.obs[t.index()]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;
    use tpi_netlist::transform::{apply_plan, apply_test_point};
    use tpi_netlist::CircuitBuilder;
    use tpi_sim::{Fault, FaultSite};

    /// A mixed-kind reconvergent circuit exercising every gate family.
    fn recon() -> Circuit {
        let mut b = CircuitBuilder::new("recon");
        let xs = b.inputs(6, "x");
        let s = b.gate(GateKind::And, vec![xs[0], xs[1]], "s").unwrap();
        let g1 = b.gate(GateKind::Nand, vec![s, xs[2]], "g1").unwrap();
        let g2 = b.gate(GateKind::Nor, vec![s, xs[3]], "g2").unwrap();
        let g3 = b.gate(GateKind::Xor, vec![g1, g2], "g3").unwrap();
        let g4 = b.gate(GateKind::Or, vec![g2, xs[4]], "g4").unwrap();
        let g5 = b.gate(GateKind::Not, vec![g3], "g5").unwrap();
        let g6 = b.gate(GateKind::And, vec![g5, g4, xs[5]], "g6").unwrap();
        b.output(g6);
        b.output(g1);
        b.finish().unwrap()
    }

    fn all_targets(c: &Circuit) -> Vec<(NodeId, bool)> {
        c.node_ids()
            .flat_map(|id| [(id, false), (id, true)])
            .collect()
    }

    fn full_reference(c: &Circuit, tp: TestPoint, targets: &[(NodeId, bool)]) -> Vec<f64> {
        let mut m = c.clone();
        apply_test_point(&mut m, tp).unwrap();
        let cop = CopAnalysis::with_input_probs(&m, &HashMap::new()).unwrap();
        targets
            .iter()
            .map(|&(node, stuck)| {
                cop.detection_probability(
                    &m,
                    Fault {
                        site: FaultSite::Stem(node),
                        stuck,
                    },
                )
            })
            .collect()
    }

    fn assert_probe_matches(c: &Circuit) {
        let topo = Topology::of(c).unwrap();
        let cop = CopAnalysis::new(c).unwrap();
        let targets = all_targets(c);
        let mut probe = CopProbe::new(c, &topo, &cop, &targets);
        for id in c.node_ids() {
            for kind in [
                TestPointKind::Observe,
                TestPointKind::ControlAnd,
                TestPointKind::ControlOr,
                TestPointKind::Full,
            ] {
                let tp = TestPoint::new(id, kind);
                let applies =
                    kind == TestPointKind::Observe || topo.fanout_count(id) > 0 || c.is_output(id);
                let got = probe.probe(tp);
                if !applies {
                    assert!(got.is_err(), "{tp} should be rejected");
                    continue;
                }
                let got = got.unwrap();
                let want = full_reference(c, tp, &targets);
                for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{tp}, target {i}: probe {g} vs full {w}"
                    );
                }
            }
        }
    }

    #[test]
    fn probe_bit_identical_to_full_recompute() {
        assert_probe_matches(&recon());
    }

    #[test]
    fn probe_bit_identical_on_modified_circuit() {
        // Probe on a circuit that already carries committed test points —
        // the state after a few greedy rounds, including stacked points.
        let base = recon();
        let s = base.find_node("s").unwrap();
        let g2 = base.find_node("g2").unwrap();
        let (cur, _) =
            apply_plan(&base, &[TestPoint::control_or(s), TestPoint::observe(g2)]).unwrap();
        assert_probe_matches(&cur);
    }

    #[test]
    fn scratch_state_rolls_back_between_probes() {
        let c = recon();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let targets = all_targets(&c);
        let mut probe = CopProbe::new(&c, &topo, &cop, &targets);
        let s = c.find_node("s").unwrap();
        let first = probe.probe(TestPoint::full(s)).unwrap();
        // An unrelated probe in between must not perturb the next answer.
        let g4 = c.find_node("g4").unwrap();
        probe.probe(TestPoint::control_and(g4)).unwrap();
        let again = probe.probe(TestPoint::full(s)).unwrap();
        assert_eq!(first, again);
        let base = probe.base_probabilities();
        let fresh = CopProbe::new(&c, &topo, &cop, &targets).base_probabilities();
        assert_eq!(base, fresh);
    }

    #[test]
    fn observe_at_existing_output_is_identity() {
        let c = recon();
        let topo = Topology::of(&c).unwrap();
        let cop = CopAnalysis::new(&c).unwrap();
        let targets = all_targets(&c);
        let mut probe = CopProbe::new(&c, &topo, &cop, &targets);
        let g6 = c.find_node("g6").unwrap();
        let got = probe.probe(TestPoint::observe(g6)).unwrap();
        assert_eq!(got, probe.base_probabilities());
    }
}
