//! Structural equivalence collapsing of stuck-at faults.
//!
//! Two faults are *equivalent* when every test pattern detects either both
//! or neither; only one representative per equivalence class needs to be
//! targeted. This module implements the classical gate-local rules:
//!
//! | gate  | rule                                                  |
//! |-------|-------------------------------------------------------|
//! | BUF   | in SA-v ≡ out SA-v                                    |
//! | NOT   | in SA-v ≡ out SA-v̄                                   |
//! | AND   | any in SA-0 ≡ out SA-0                                |
//! | NAND  | any in SA-0 ≡ out SA-1                                |
//! | OR    | any in SA-1 ≡ out SA-1                                |
//! | NOR   | any in SA-1 ≡ out SA-0                                |
//! | XOR/XNOR | no gate-local equivalences                         |
//!
//! Single-input AND/OR (NAND/NOR) degenerate to BUF (NOT) and collapse in
//! both polarities. Representatives are chosen closest to the primary
//! inputs (lowest logic level), stems preferred over branches.

use tpi_netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};

use crate::{Fault, FaultSite};

/// Partition `faults` into structural equivalence classes.
///
/// `faults` lists distinct faults on lines of `circuit`, in any order: a
/// [`FaultUniverse`](crate::FaultUniverse) of it, or part of one.
/// Returns the classes as index lists into `faults`, each class led by its
/// representative, classes ordered by representative.
///
/// # Errors
///
/// [`NetlistError::Cycle`] if the circuit is cyclic.
///
/// # Panics
///
/// If a fault is not on a line of `circuit`, or is listed twice.
pub fn equivalence_classes(
    circuit: &Circuit,
    faults: &[Fault],
) -> Result<Vec<Vec<usize>>, NetlistError> {
    let topo = Topology::of(circuit)?;
    Ok(Classes::of(circuit, &topo, faults).into_lists())
}

/// Marks an empty entry of the `u32` index tables below.
const NONE: u32 = u32::MAX;

/// The structural equivalence classes of a fault list, as a union-find
/// over the faults' *ranks* in representative order — by level, stems
/// before branches, then node, pin and stuck value — whose roots are the
/// least ranks: each root is its class's representative.
pub(crate) struct Classes {
    /// `sorted[r]` is the list position of the fault of rank `r`.
    sorted: Vec<u32>,
    uf: UnionFind,
}

impl Classes {
    /// Collapse `faults` on `circuit`, whose topology is `topo`.
    ///
    /// Linear in the circuit and the list, with no hashing and no
    /// comparison sort:
    ///
    /// * every line fault has a dense *slot*: the stem fault (node, v) at
    ///   `2·node + v`, the branch fault (gate, pin, v) at `pin_base[gate]
    ///   + 2·pin + v`, so slot order is (stem/branch, node, pin, v) order;
    /// * one stable counting sort of the slots by (level, stem/branch)
    ///   then ranks every fault in representative order;
    /// * the gate rules unite ranks under the lesser root.
    ///
    /// # Panics
    ///
    /// If a fault is not on a line of `circuit`, or is listed twice.
    pub(crate) fn of(circuit: &Circuit, topo: &Topology, faults: &[Fault]) -> Classes {
        // The (level, stem/branch) bucket of every slot, and the first
        // branch slot of every gate.
        let mut bucket: Vec<u32> = Vec::new();
        for id in circuit.node_ids() {
            bucket.extend([2 * topo.level(id); 2]);
        }
        let mut pin_base: Vec<usize> = Vec::with_capacity(circuit.node_count());
        for id in circuit.node_ids() {
            pin_base.push(bucket.len());
            let pins = circuit.fanins(id).len();
            bucket.extend(std::iter::repeat_n(2 * topo.level(id) + 1, 2 * pins));
        }
        let stem_slot = |node: NodeId, stuck: bool| 2 * node.index() + usize::from(stuck);
        let branch_slot = |gate: NodeId, pin: u32, stuck: bool| {
            pin_base[gate.index()] + 2 * pin as usize + usize::from(stuck)
        };

        // The list position of the fault at each slot.
        let mut pos = vec![NONE; bucket.len()];
        let n = circuit.node_count();
        for (i, f) in faults.iter().enumerate() {
            let slot = match f.site {
                FaultSite::Stem(node) => (node.index() < n).then(|| stem_slot(node, f.stuck)),
                FaultSite::Branch { gate, pin } => (gate.index() < n
                    && (pin as usize) < circuit.fanins(gate).len())
                .then(|| branch_slot(gate, pin, f.stuck)),
            };
            let s = slot.unwrap_or_else(|| panic!("fault {f} is not on a line of the circuit"));
            assert!(pos[s] == NONE, "fault {f} is listed twice");
            pos[s] = i as u32;
        }

        let buckets = 2 * (topo.max_level() as usize + 1);
        let mut at = vec![0u32; buckets + 1];
        for (s, &i) in pos.iter().enumerate() {
            if i != NONE {
                at[bucket[s] as usize + 1] += 1;
            }
        }
        for b in 0..buckets {
            at[b + 1] += at[b];
        }
        // `sorted[r]` is the list position of rank `r`; `rank` the inverse.
        let mut sorted = vec![0u32; faults.len()];
        let mut rank = vec![0u32; faults.len()];
        for (s, &i) in pos.iter().enumerate() {
            if i != NONE {
                let r = &mut at[bucket[s] as usize];
                sorted[*r as usize] = i;
                rank[i as usize] = *r;
                *r += 1;
            }
        }

        let mut uf = UnionFind::new(faults.len());
        for id in circuit.node_ids() {
            let node = circuit.node(id);
            let pairs = collapse_pairs(node.kind(), node.fanins().len());
            for (pin, &driver) in node.fanins().iter().enumerate() {
                for &(in_v, out_v) in pairs {
                    // The line into `pin` is the driver's stem when the driver
                    // does not fan out, otherwise the branch.
                    let input = if topo.is_stem(circuit, driver) {
                        branch_slot(id, pin as u32, in_v)
                    } else {
                        stem_slot(driver, in_v)
                    };
                    let (a, b) = (pos[input], pos[stem_slot(id, out_v)]);
                    if a != NONE && b != NONE {
                        uf.union(rank[a as usize], rank[b as usize]);
                    }
                }
            }
        }

        Classes { sorted, uf }
    }

    /// Each class's representative (as a list position) and size, in
    /// representative order.
    pub(crate) fn representatives(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        (0..self.sorted.len())
            .filter(|&r| self.uf.parent[r] as usize == r)
            .map(|r| (self.sorted[r] as usize, self.uf.size[r] as usize))
    }

    /// The classes as lists of positions, each sorted and led by its
    /// representative, in representative order.
    pub(crate) fn into_lists(mut self) -> Vec<Vec<usize>> {
        let mut class_of_root = vec![NONE; self.sorted.len()];
        let mut classes: Vec<Vec<usize>> = Vec::new();
        for r in 0..self.sorted.len() as u32 {
            let root = self.uf.find(r);
            if root == r {
                class_of_root[r as usize] = classes.len() as u32;
                classes.push(Vec::with_capacity(self.uf.size[r as usize] as usize));
            }
            classes[class_of_root[root as usize] as usize].push(self.sorted[r as usize] as usize);
        }
        classes
    }
}

/// The (input stuck value, output stuck value) pairs a gate of `kind`
/// with `arity` pins unites on each pin.
fn collapse_pairs(kind: GateKind, arity: usize) -> &'static [(bool, bool)] {
    let unary = arity == 1;
    match kind {
        GateKind::Buf => &[(false, false), (true, true)],
        GateKind::Not => &[(false, true), (true, false)],
        GateKind::And if unary => &[(false, false), (true, true)],
        GateKind::Or if unary => &[(false, false), (true, true)],
        GateKind::Nand if unary => &[(false, true), (true, false)],
        GateKind::Nor if unary => &[(false, true), (true, false)],
        GateKind::And => &[(false, false)],
        GateKind::Nand => &[(false, true)],
        GateKind::Or => &[(true, true)],
        GateKind::Nor => &[(true, false)],
        _ => &[],
    }
}

struct UnionFind {
    parent: Vec<u32>,
    /// Set sizes, exact at roots.
    size: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
            size: vec![1; n],
        }
    }

    fn find(&mut self, x: u32) -> u32 {
        let mut x = x as usize;
        while self.parent[x] as usize != x {
            self.parent[x] = self.parent[self.parent[x] as usize];
            x = self.parent[x] as usize;
        }
        x as u32
    }

    /// Unite the sets of `a` and `b` under the lesser of their roots.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            let (lo, hi) = (ra.min(rb) as usize, ra.max(rb) as usize);
            self.parent[hi] = lo as u32;
            self.size[lo] += self.size[hi];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::montecarlo;
    use crate::FaultUniverse;
    use tpi_netlist::CircuitBuilder;

    fn inverter_chain(len: usize) -> Circuit {
        let mut b = CircuitBuilder::new("chain");
        let mut prev = b.input("a");
        for i in 0..len {
            prev = b
                .gate(GateKind::Not, vec![prev], format!("n{i}_g"))
                .unwrap();
        }
        b.output(prev);
        b.finish().unwrap()
    }

    #[test]
    fn inverter_chain_collapses_to_two_classes() {
        let c = inverter_chain(4);
        let u = FaultUniverse::collapsed(&c).unwrap();
        // All 10 stem faults collapse into 2 alternating-polarity classes.
        assert_eq!(u.len(), 2);
        assert_eq!(u.class_size(0) + u.class_size(1), 10);
    }

    #[test]
    fn and_gate_collapse() {
        let mut b = CircuitBuilder::new("g");
        let xs = b.inputs(2, "x");
        let g = b.gate(GateKind::And, vec![xs[0], xs[1]], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let u = FaultUniverse::collapsed(&c).unwrap();
        // Full set: 6 stem faults. x0/SA0 ≡ x1/SA0 ≡ g/SA0 → one class of 3.
        assert_eq!(u.total_uncollapsed(), 6);
        assert_eq!(u.len(), 4);
        assert!((0..u.len()).any(|i| u.class_size(i) == 3));
    }

    #[test]
    fn xor_does_not_collapse() {
        let mut b = CircuitBuilder::new("g");
        let xs = b.inputs(2, "x");
        let g = b.gate(GateKind::Xor, vec![xs[0], xs[1]], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let u = FaultUniverse::collapsed(&c).unwrap();
        assert_eq!(u.len(), 6);
    }

    #[test]
    fn branch_faults_collapse_through_consuming_gate() {
        // a fans out to two AND gates; the branch SA0s are equivalent to
        // the gates' output SA0s, but not to a's stem SA0.
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let x = b.input("x");
        let y = b.input("y");
        let g1 = b.gate(GateKind::And, vec![a, x], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![a, y], "g2").unwrap();
        b.output(g1);
        b.output(g2);
        let c = b.finish().unwrap();
        let full = FaultUniverse::full(&c).unwrap();
        let classes = equivalence_classes(&c, full.faults()).unwrap();
        // Find the class containing g1/SA0.
        let g1_id = c.find_node("g1").unwrap();
        let target = Fault::stem_sa0(g1_id);
        let class = classes
            .iter()
            .find(|cl| cl.iter().any(|&i| full.faults()[i] == target))
            .unwrap();
        // g1/SA0 ≡ x/SA0 ≡ branch(a→g1)/SA0: class of 3.
        assert_eq!(class.len(), 3);
        // a's stem SA0 must not be in it.
        let a_id = c.find_node("a").unwrap();
        assert!(!class
            .iter()
            .any(|&i| full.faults()[i] == Fault::stem_sa0(a_id)));
    }

    /// Semantic check: every fault in a class has identical detecting
    /// pattern sets (verified exhaustively on a small circuit).
    #[test]
    fn classes_are_semantically_equivalent() {
        let mut b = CircuitBuilder::new("c");
        let xs = b.inputs(3, "x");
        let g1 = b.gate(GateKind::Nand, vec![xs[0], xs[1]], "g1").unwrap();
        let g2 = b.gate(GateKind::Nor, vec![g1, xs[2]], "g2").unwrap();
        b.output(g2);
        let c = b.finish().unwrap();
        let full = FaultUniverse::full(&c).unwrap();
        let classes = equivalence_classes(&c, full.faults()).unwrap();
        let probs = montecarlo::exact_detection_probabilities(&c, full.faults()).unwrap();
        for class in &classes {
            let p0 = probs[class[0]];
            for &i in class {
                assert!(
                    (probs[i] - p0).abs() < 1e-12,
                    "fault {} in class with detection prob {} vs {}",
                    full.faults()[i].describe(&c),
                    probs[i],
                    p0
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn repeated_fault_panics() {
        let c = inverter_chain(2);
        let full = FaultUniverse::full(&c).unwrap();
        let mut faults = full.faults().to_vec();
        faults.push(faults[0]);
        let _ = equivalence_classes(&c, &faults);
    }

    #[test]
    #[should_panic(expected = "not on a line")]
    fn fault_past_the_last_pin_panics() {
        let c = inverter_chain(2);
        let gate = c.find_node("n0_g").unwrap();
        let _ = equivalence_classes(
            &c,
            &[Fault {
                site: FaultSite::Branch { gate, pin: 1 },
                stuck: false,
            }],
        );
    }

    #[test]
    fn representative_is_closest_to_inputs() {
        let c = inverter_chain(3);
        let u = FaultUniverse::collapsed(&c).unwrap();
        // Representatives should be the PI stem faults (level 0).
        let a = c.find_node("a").unwrap();
        assert!(u.faults().contains(&Fault::stem_sa0(a)));
        assert!(u.faults().contains(&Fault::stem_sa1(a)));
    }
}
