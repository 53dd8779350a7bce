use crate::{Circuit, GateKind, NetlistError, NodeId};

/// One consumer of a signal: the consuming gate and the pin index at which
/// the signal enters it.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct Fanout {
    /// The consuming gate.
    pub gate: NodeId,
    /// Zero-based pin position within the consuming gate's fanin list.
    pub pin: u32,
}

/// Levelised view of a circuit: topological order, logic levels and fanout
/// tables.
///
/// `Topology` is a snapshot — recompute it after transforming the circuit.
///
/// # Example
///
/// ```
/// use tpi_netlist::{CircuitBuilder, GateKind, Topology};
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("c");
/// let a = b.input("a");
/// let n = b.gate(GateKind::Not, vec![a], "n")?;
/// let g = b.gate(GateKind::And, vec![a, n], "g")?;
/// b.output(g);
/// let c = b.finish()?;
/// let topo = Topology::of(&c)?;
/// assert_eq!(topo.level(g), 2);
/// assert_eq!(topo.fanout_count(a), 2); // feeds NOT and AND
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug)]
pub struct Topology {
    order: Vec<NodeId>,
    level: Vec<u32>,
    /// Consumers of node `i` are `fanouts[fanout_start[i]..fanout_start[i + 1]]`,
    /// in (gate, pin) order.
    fanout_start: Vec<u32>,
    fanouts: Vec<Fanout>,
    max_level: u32,
}

impl Topology {
    /// Compute the topology of a circuit, in time linear in its nodes and
    /// pins.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] if the circuit has a combinational cycle.
    pub fn of(circuit: &Circuit) -> Result<Topology, NetlistError> {
        let n = circuit.node_count();
        let mut fanout_start = vec![0u32; n + 1];
        for id in circuit.node_ids() {
            for &src in circuit.fanins(id) {
                fanout_start[src.index() + 1] += 1;
            }
        }
        for i in 0..n {
            fanout_start[i + 1] += fanout_start[i];
        }
        let mut fill = fanout_start.clone();
        let mut fanouts = vec![
            Fanout {
                gate: NodeId::from_index(0),
                pin: 0,
            };
            fanout_start[n] as usize
        ];
        let mut remaining: Vec<u32> = Vec::with_capacity(n);
        for id in circuit.node_ids() {
            let fanins = circuit.fanins(id);
            remaining.push(fanins.len() as u32);
            for (pin, &src) in fanins.iter().enumerate() {
                let at = &mut fill[src.index()];
                fanouts[*at as usize] = Fanout {
                    gate: id,
                    pin: pin as u32,
                };
                *at += 1;
            }
        }

        let mut level = vec![0u32; n];
        let mut ready: Vec<NodeId> = circuit
            .node_ids()
            .filter(|id| remaining[id.index()] == 0)
            .collect();
        let mut visited = 0;
        while let Some(id) = ready.pop() {
            visited += 1;
            let (lo, hi) = (fanout_start[id.index()], fanout_start[id.index() + 1]);
            for fo in &fanouts[lo as usize..hi as usize] {
                let gi = fo.gate.index();
                level[gi] = level[gi].max(level[id.index()] + 1);
                remaining[gi] -= 1;
                if remaining[gi] == 0 {
                    ready.push(fo.gate);
                }
            }
        }
        if visited != n {
            let stuck = circuit
                .node_ids()
                .find(|id| remaining[id.index()] > 0)
                .expect("cycle implies a stuck node");
            return Err(NetlistError::Cycle {
                node: circuit.node_name(stuck).to_string(),
            });
        }
        // A canonical, level-monotone order: by (level, id), bucketed by
        // level over ids in increasing order.
        let max_level = level.iter().copied().max().unwrap_or(0);
        let mut at = vec![0usize; max_level as usize + 2];
        for &l in &level {
            at[l as usize + 1] += 1;
        }
        for l in 0..=max_level as usize {
            at[l + 1] += at[l];
        }
        let mut order = vec![NodeId::from_index(0); n];
        for id in circuit.node_ids() {
            let slot = &mut at[level[id.index()] as usize];
            order[*slot] = id;
            *slot += 1;
        }
        Ok(Topology {
            order,
            level,
            fanout_start,
            fanouts,
            max_level,
        })
    }

    /// Node ids in a valid topological order (sources first), sorted by
    /// (level, id) for determinism.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Logic level of a node: 0 for sources, 1 + max fanin level otherwise.
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Maximum level over all nodes (circuit depth).
    pub fn max_level(&self) -> u32 {
        self.max_level
    }

    /// Consumers of a node's signal, with pin positions.
    pub fn fanouts(&self, id: NodeId) -> &[Fanout] {
        let i = id.index();
        &self.fanouts[self.fanout_start[i] as usize..self.fanout_start[i + 1] as usize]
    }

    /// Number of gate pins consuming the signal (primary-output taps not
    /// included; see [`Topology::is_stem`] for the combined view).
    pub fn fanout_count(&self, id: NodeId) -> usize {
        (self.fanout_start[id.index() + 1] - self.fanout_start[id.index()]) as usize
    }

    /// Whether a node is a *fanout stem*: its signal is consumed at two or
    /// more places, counting a primary-output tap as one consumer.
    ///
    /// Cost: O(1) — a fanout count plus the circuit's per-node output
    /// mask ([`Circuit::is_output`]).
    pub fn is_stem(&self, circuit: &Circuit, id: NodeId) -> bool {
        let po = usize::from(circuit.is_output(id));
        self.fanout_count(id) + po >= 2
    }

    /// Whether the signal drives nothing at all (dangling node). O(1),
    /// like [`Topology::is_stem`].
    pub fn is_dangling(&self, circuit: &Circuit, id: NodeId) -> bool {
        self.fanout_count(id) == 0 && !circuit.is_output(id)
    }
}

/// Convenience: the number of dangling (unused) nodes, excluding inputs.
pub fn dangling_gates(circuit: &Circuit, topo: &Topology) -> usize {
    circuit
        .node_ids()
        .filter(|&id| circuit.kind(id) != GateKind::Input && topo.is_dangling(circuit, id))
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CircuitBuilder;

    fn diamond() -> Circuit {
        // a -> n1, n2; n1,n2 -> y (reconvergent diamond)
        let mut b = CircuitBuilder::new("d");
        let a = b.input("a");
        let n1 = b.gate(GateKind::Not, vec![a], "n1").unwrap();
        let n2 = b.gate(GateKind::Buf, vec![a], "n2").unwrap();
        let y = b.gate(GateKind::And, vec![n1, n2], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn levels_and_order() {
        let c = diamond();
        let t = Topology::of(&c).unwrap();
        let a = c.find_node("a").unwrap();
        let y = c.find_node("y").unwrap();
        assert_eq!(t.level(a), 0);
        assert_eq!(t.level(y), 2);
        assert_eq!(t.max_level(), 2);
        // Order respects dependencies.
        let pos: Vec<usize> = c
            .node_ids()
            .map(|id| t.order().iter().position(|&o| o == id).unwrap())
            .collect();
        for id in c.node_ids() {
            for &f in c.fanins(id) {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn fanout_tables() {
        let c = diamond();
        let t = Topology::of(&c).unwrap();
        let a = c.find_node("a").unwrap();
        let y = c.find_node("y").unwrap();
        assert_eq!(t.fanout_count(a), 2);
        assert!(t.is_stem(&c, a));
        assert_eq!(t.fanout_count(y), 0);
        assert!(!t.is_dangling(&c, y)); // it is a PO
        let n1 = c.find_node("n1").unwrap();
        assert_eq!(t.fanouts(n1), [Fanout { gate: y, pin: 0 }]);
    }

    #[test]
    fn po_tap_counts_toward_stem() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g = b.gate(GateKind::Not, vec![a], "g").unwrap();
        let h = b.gate(GateKind::Not, vec![g], "h").unwrap();
        b.output(g); // g is observed AND feeds h
        b.output(h);
        let c = b.finish().unwrap();
        let t = Topology::of(&c).unwrap();
        assert!(t.is_stem(&c, c.find_node("g").unwrap()));
        assert!(!t.is_stem(&c, c.find_node("h").unwrap()));
    }

    #[test]
    fn detects_cycle() {
        // Build a cyclic circuit by rewiring.
        let mut c = diamond();
        let n1 = c.find_node("n1").unwrap();
        let y = c.find_node("y").unwrap();
        let a = c.find_node("a").unwrap();
        // n1's fanin a -> y creates cycle n1 -> y -> ... n1? y consumes n1,
        // rewiring a->y in gates gives n1 = NOT(y): cycle n1 <-> y.
        c.rewire(a, y, &[]);
        assert!(matches!(Topology::of(&c), Err(NetlistError::Cycle { .. })));
        let _ = n1;
    }

    #[test]
    fn dangling_detection() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let _unused = b.gate(GateKind::Not, vec![a], "dead").unwrap();
        let g = b.gate(GateKind::Buf, vec![a], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let t = Topology::of(&c).unwrap();
        assert!(t.is_dangling(&c, c.find_node("dead").unwrap()));
        assert_eq!(dangling_gates(&c, &t), 1);
    }

    #[test]
    fn duplicate_pin_fanouts_recorded_separately() {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let g = b.gate(GateKind::Xor, vec![a, a], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let t = Topology::of(&c).unwrap();
        assert_eq!(t.fanout_count(a), 2);
        assert_eq!(t.fanouts(a)[0].pin, 0);
        assert_eq!(t.fanouts(a)[1].pin, 1);
    }
}
