//! Test-only reference fault collapsing: the implementation the dense,
//! hash-free `collapse::equivalence_classes` replaced, kept as the oracle
//! its classes and their order are checked against.
//!
//! It indexes the fault list through a `HashMap<Fault, usize>`, groups the
//! union-find classes through another map, and sorts each class and then
//! the classes by representative key.

use std::collections::HashMap;

use krishnamurthy_tpi::netlist::{Circuit, GateKind, NetlistError, NodeId, Topology};
use krishnamurthy_tpi::sim::{Fault, FaultSite};

/// Partition `faults` into structural equivalence classes: index lists
/// into `faults`, each class led by its representative, classes ordered by
/// representative.
pub fn equivalence_classes(
    circuit: &Circuit,
    faults: &[Fault],
) -> Result<Vec<Vec<usize>>, NetlistError> {
    let topo = Topology::of(circuit)?;
    let index: HashMap<Fault, usize> = faults.iter().enumerate().map(|(i, &f)| (f, i)).collect();
    let mut uf = UnionFind::new(faults.len());

    for id in circuit.node_ids() {
        let node = circuit.node(id);
        let kind = node.kind();
        if kind.is_source() {
            continue;
        }
        let unary = node.fanins().len() == 1;
        // (input stuck value, output stuck value) pairs to unite per pin.
        let pairs: &[(bool, bool)] = match kind {
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
        };
        for (pin, &driver) in node.fanins().iter().enumerate() {
            for &(in_v, out_v) in pairs {
                let input_fault = Fault {
                    site: input_line_site(circuit, &topo, driver, id, pin as u32),
                    stuck: in_v,
                };
                let output_fault = Fault {
                    site: FaultSite::Stem(id),
                    stuck: out_v,
                };
                if let (Some(&a), Some(&b)) = (index.get(&input_fault), index.get(&output_fault)) {
                    uf.union(a, b);
                }
            }
        }
    }

    let mut groups: HashMap<usize, Vec<usize>> = HashMap::new();
    for i in 0..faults.len() {
        groups.entry(uf.find(i)).or_default().push(i);
    }
    let key = |i: usize| {
        let f = faults[i];
        match f.site {
            FaultSite::Stem(n) => (topo.level(n), 0u8, n.index(), 0u32, f.stuck),
            FaultSite::Branch { gate, pin } => (topo.level(gate), 1u8, gate.index(), pin, f.stuck),
        }
    };
    let mut classes: Vec<Vec<usize>> = groups
        .into_values()
        .map(|mut class| {
            class.sort_by_key(|&i| key(i));
            class
        })
        .collect();
    classes.sort_by_key(|class| key(class[0]));
    Ok(classes)
}

fn input_line_site(
    circuit: &Circuit,
    topo: &Topology,
    driver: NodeId,
    gate: NodeId,
    pin: u32,
) -> FaultSite {
    if topo.is_stem(circuit, driver) {
        FaultSite::Branch { gate, pin }
    } else {
        FaultSite::Stem(driver)
    }
}

struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}
