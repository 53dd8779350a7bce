//! Cleanup rewrites: constant propagation, buffer sweeping and dead-logic
//! removal.
//!
//! Generated and transformed netlists accumulate redundancies (constant
//! fanins, single-input AND/OR gates, unobserved cones). These passes
//! normalise a circuit before analysis, preserving the functional
//! behaviour at every primary output. Because node ids are *not* stable
//! under [`remove_dead_logic`], each pass returns a fresh circuit plus the
//! old→new id mapping.

use std::collections::HashMap;

use crate::{Circuit, GateKind, NetlistError, NodeId, Topology};

/// Result of a rewrite: the new circuit and the id remapping
/// (`map[old.index()] == Some(new)` when the node survived).
#[derive(Clone, Debug)]
pub struct Rewritten {
    /// The rewritten circuit.
    pub circuit: Circuit,
    /// Old node id → new node id (None if removed).
    pub map: Vec<Option<NodeId>>,
}

impl Rewritten {
    /// Translate an old node id.
    pub fn translate(&self, old: NodeId) -> Option<NodeId> {
        self.map[old.index()]
    }
}

/// Remove logic that cannot reach any primary output.
///
/// # Errors
///
/// [`NetlistError::Cycle`] on cyclic input.
pub fn remove_dead_logic(circuit: &Circuit) -> Result<Rewritten, NetlistError> {
    // Reverse reachability from the outputs; keep all primary inputs (the
    /* interface must not shrink). */
    let mut keep = vec![false; circuit.node_count()];
    let mut stack: Vec<NodeId> = circuit.outputs().to_vec();
    for &o in circuit.outputs() {
        keep[o.index()] = true;
    }
    while let Some(id) = stack.pop() {
        for &f in circuit.fanins(id) {
            if !keep[f.index()] {
                keep[f.index()] = true;
                stack.push(f);
            }
        }
    }
    for &i in circuit.inputs() {
        keep[i.index()] = true;
    }

    let topo = Topology::of(circuit)?;
    let mut out = Circuit::new(circuit.name());
    let mut map: Vec<Option<NodeId>> = vec![None; circuit.node_count()];
    for &id in topo.order() {
        if !keep[id.index()] {
            continue;
        }
        let node = circuit.node(id);
        let fanins: Vec<NodeId> = node
            .fanins()
            .iter()
            .map(|f| map[f.index()].expect("kept nodes have kept fanins"))
            .collect();
        // Names come from `circuit`, where they are already unique.
        let new_id = out.add_node_named(
            node.kind(),
            fanins,
            circuit.node_name(id).to_string(),
            |_, _| false,
        )?;
        map[id.index()] = Some(new_id);
    }
    for &o in circuit.outputs() {
        out.add_output(map[o.index()].expect("outputs are kept"))?;
    }
    out.validate()?;
    Ok(Rewritten { circuit: out, map })
}

/// Propagate constants and collapse degenerate gates, in place
/// (node ids stable; dead nodes are left dangling — follow with
/// [`remove_dead_logic`] to reclaim them).
///
/// Rules applied to fixpoint, in topological order:
/// * a gate with a controlling constant fanin becomes a constant;
/// * constants on non-controlling positions are dropped from the fanin
///   list; empty lists degenerate to the gate's identity constant;
/// * single-input AND/OR become buffers, single-input NAND/NOR inverters;
/// * `BUF(x)` consumers are rewired to `x` directly; `NOT(NOT(x))`
///   likewise.
///
/// Returns the number of nodes simplified.
///
/// # Errors
///
/// [`NetlistError::Cycle`] on cyclic input.
pub fn propagate_constants(circuit: &mut Circuit) -> Result<usize, NetlistError> {
    let topo = Topology::of(circuit)?;
    let mut simplified = 0usize;
    // Resolved constant value per node, when known.
    let mut constant: HashMap<NodeId, bool> = HashMap::new();
    // Forwarding: node -> equivalent earlier node (buffer chains).
    let mut forward: HashMap<NodeId, NodeId> = HashMap::new();

    let resolve = |forward: &HashMap<NodeId, NodeId>, mut id: NodeId| {
        while let Some(&next) = forward.get(&id) {
            id = next;
        }
        id
    };

    for &id in topo.order() {
        let kind = circuit.kind(id);
        match kind {
            GateKind::Const0 => {
                constant.insert(id, false);
                continue;
            }
            GateKind::Const1 => {
                constant.insert(id, true);
                continue;
            }
            GateKind::Input => continue,
            _ => {}
        }
        // Resolve fanins through forwarding.
        let fanins: Vec<NodeId> = circuit
            .fanins(id)
            .iter()
            .map(|&f| resolve(&forward, f))
            .collect();

        // Unary gates first: constant folding or forwarding.
        if matches!(kind, GateKind::Buf | GateKind::Not) {
            let f = fanins[0];
            match constant.get(&f).copied() {
                Some(v) => {
                    constant.insert(id, v ^ (kind == GateKind::Not));
                    simplified += 1;
                }
                None if kind == GateKind::Buf => {
                    forward.insert(id, f);
                    simplified += 1;
                }
                None => {
                    set_fanins(circuit, id, vec![f])?;
                }
            }
            continue;
        }

        let control = kind.controlling_value();
        let inverted = kind.inverts_output();
        let mut live: Vec<NodeId> = Vec::with_capacity(fanins.len());
        let mut forced: Option<bool> = None;
        let mut parity_flip = false;
        for f in fanins {
            match constant.get(&f).copied() {
                Some(v) => match kind {
                    GateKind::Xor | GateKind::Xnor => parity_flip ^= v,
                    _ => {
                        if Some(v) == control {
                            // A controlling constant fixes the output.
                            forced = Some(v ^ inverted);
                        }
                        // Non-controlling constants simply drop out.
                    }
                },
                None => live.push(f),
            }
        }
        if let Some(v) = forced {
            constant.insert(id, v);
            simplified += 1;
            continue;
        }
        match kind {
            GateKind::Xor | GateKind::Xnor => {
                if live.is_empty() {
                    constant.insert(id, parity_flip ^ (kind == GateKind::Xnor));
                    simplified += 1;
                    continue;
                }
                // Fold the accumulated constant parity into the gate kind.
                let new_kind = match (kind, parity_flip) {
                    (GateKind::Xor, true) => GateKind::Xnor,
                    (GateKind::Xnor, true) => GateKind::Xor,
                    (k, _) => k,
                };
                set_kind(circuit, id, new_kind)?;
                set_fanins(circuit, id, live)?;
            }
            _ => {
                if live.is_empty() {
                    // All fanins were non-controlling constants: the gate
                    // sits at its identity value, inversion applied.
                    let identity = matches!(kind, GateKind::And | GateKind::Nand);
                    constant.insert(id, identity ^ inverted);
                    simplified += 1;
                    continue;
                }
                set_fanins(circuit, id, live)?;
            }
        }
    }

    // Materialise resolved constants and forwarding by rewiring consumers.
    let const_ids: Vec<(NodeId, bool)> = constant
        .iter()
        .filter(|(id, _)| !circuit.kind(**id).is_source())
        .map(|(&id, &v)| (id, v))
        .collect();
    if !const_ids.is_empty() {
        // A shared pair of constant nodes.
        let zero = find_or_add_const(circuit, false)?;
        let one = find_or_add_const(circuit, true)?;
        for (id, v) in const_ids {
            let target = if v { one } else { zero };
            circuit.rewire(id, target, &[]);
        }
    }
    let forwards: Vec<(NodeId, NodeId)> = forward.iter().map(|(&a, &b)| (a, b)).collect();
    for (from, to) in forwards {
        let to = resolve(&forward, to);
        circuit.rewire(from, to, &[]);
    }
    circuit.validate()?;
    Ok(simplified)
}

fn set_fanins(circuit: &mut Circuit, id: NodeId, fanins: Vec<NodeId>) -> Result<(), NetlistError> {
    circuit.set_node(id, circuit.kind(id), fanins)
}

fn set_kind(circuit: &mut Circuit, id: NodeId, kind: GateKind) -> Result<(), NetlistError> {
    let fanins = circuit.fanins(id).to_vec();
    circuit.set_node(id, kind, fanins)
}

fn find_or_add_const(circuit: &mut Circuit, value: bool) -> Result<NodeId, NetlistError> {
    let kind = if value {
        GateKind::Const1
    } else {
        GateKind::Const0
    };
    if let Some(id) = circuit.node_ids().find(|&id| circuit.kind(id) == kind) {
        return Ok(id);
    }
    let name = if value { "const_one" } else { "const_zero" };
    let mut candidate = name.to_string();
    while circuit.find_node(&candidate).is_some() {
        candidate.push('_');
    }
    circuit.add_node(kind, vec![], candidate)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn behaviour(circuit: &Circuit) -> Vec<Vec<bool>> {
        let n = circuit.inputs().len();
        (0..(1u32 << n))
            .map(|p| {
                let assignment: Vec<bool> = (0..n).map(|i| p & (1 << i) != 0).collect();
                circuit.evaluate_outputs(&assignment).unwrap()
            })
            .collect()
    }

    #[test]
    fn dead_logic_removed_behaviour_preserved() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let _dead = b.gate(GateKind::Xor, vec![a, x], "dead").unwrap();
        let g = b.gate(GateKind::And, vec![a, x], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let before = behaviour(&c);
        let rewritten = remove_dead_logic(&c).unwrap();
        assert_eq!(rewritten.circuit.node_count(), 3);
        assert_eq!(behaviour(&rewritten.circuit), before);
        assert!(rewritten.translate(c.find_node("dead").unwrap()).is_none());
        assert!(rewritten.translate(g).is_some());
    }

    #[test]
    fn inputs_survive_dead_logic_removal() {
        let mut b = CircuitBuilder::new("c");
        let _unused = b.input("unused");
        let x = b.input("x");
        let g = b.gate(GateKind::Buf, vec![x], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let rewritten = remove_dead_logic(&c).unwrap();
        assert_eq!(rewritten.circuit.inputs().len(), 2);
    }

    #[test]
    fn controlling_constant_forces_gate() {
        let mut b = CircuitBuilder::new("c");
        let zero = b.constant(false, "zero").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![zero, x], "g").unwrap();
        let y = b.gate(GateKind::Or, vec![g, x], "y").unwrap();
        b.output(y);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        let n = propagate_constants(&mut c).unwrap();
        assert!(n >= 1);
        assert_eq!(behaviour(&c), before);
        // g resolved to constant 0, which is non-controlling for the OR:
        // y degenerates to OR(x) and g dangles.
        let y = c.find_node("y").unwrap();
        assert_eq!(c.fanins(y), [x]);
        let topo = Topology::of(&c).unwrap();
        assert!(topo.is_dangling(&c, g));
    }

    #[test]
    fn nonconrolling_constants_drop_out() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let x = b.input("x");
        let yv = b.input("y");
        let g = b.gate(GateKind::And, vec![one, x, yv], "g").unwrap();
        b.output(g);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        propagate_constants(&mut c).unwrap();
        assert_eq!(behaviour(&c), before);
        let g = c.find_node("g").unwrap();
        assert_eq!(c.fanins(g).len(), 2);
    }

    #[test]
    fn buffers_forwarded() {
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let b1 = b.gate(GateKind::Buf, vec![x], "b1").unwrap();
        let b2 = b.gate(GateKind::Buf, vec![b1], "b2").unwrap();
        let g = b.gate(GateKind::Not, vec![b2], "g").unwrap();
        b.output(g);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        propagate_constants(&mut c).unwrap();
        assert_eq!(behaviour(&c), before);
        let g = c.find_node("g").unwrap();
        assert_eq!(c.fanins(g)[0], x, "NOT should read x directly");
    }

    #[test]
    fn xor_constant_parity_folds_into_kind() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let x = b.input("x");
        let yv = b.input("y");
        let g = b.gate(GateKind::Xor, vec![one, x, yv], "g").unwrap();
        b.output(g);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        propagate_constants(&mut c).unwrap();
        assert_eq!(behaviour(&c), before);
        let g = c.find_node("g").unwrap();
        assert_eq!(c.kind(g), GateKind::Xnor);
        assert_eq!(c.fanins(g).len(), 2);
    }

    #[test]
    fn all_constant_gate_resolves() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let zero = b.constant(false, "zero").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::Nor, vec![one, zero], "g").unwrap();
        let y = b.gate(GateKind::Or, vec![g, x], "y").unwrap();
        b.output(y);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        propagate_constants(&mut c).unwrap();
        assert_eq!(behaviour(&c), before);
    }

    #[test]
    fn pipeline_constant_then_dead() {
        // After constant propagation the forced gates dangle; dead-logic
        // removal reclaims them.
        let mut b = CircuitBuilder::new("c");
        let zero = b.constant(false, "zero").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![zero, x], "g").unwrap();
        let h = b.gate(GateKind::Or, vec![g, x], "h").unwrap();
        b.output(h);
        let mut c = b.finish().unwrap();
        let before = behaviour(&c);
        propagate_constants(&mut c).unwrap();
        let rewritten = remove_dead_logic(&c).unwrap();
        assert_eq!(behaviour(&rewritten.circuit), before);
        assert!(rewritten.circuit.node_count() < c.node_count());
    }
}
