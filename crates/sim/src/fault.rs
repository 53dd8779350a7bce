use std::fmt;

use tpi_netlist::{Circuit, NetlistError, NodeId, Topology};

/// Location of a single stuck-at fault.
///
/// Stuck-at faults live on *lines*. Every node output is a line
/// ([`FaultSite::Stem`]); when a signal fans out to several consumers, each
/// consumer pin is an additional, independently faultable line
/// ([`FaultSite::Branch`]). On fanout-free signals the branch coincides
/// with the stem and is not enumerated separately.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum FaultSite {
    /// The output line of a node.
    Stem(NodeId),
    /// A fanout branch: pin `pin` of gate `gate`.
    Branch {
        /// The consuming gate.
        gate: NodeId,
        /// Zero-based pin index within the gate's fanins.
        pin: u32,
    },
}

/// A single stuck-at fault: a site stuck at `stuck` (`false` = SA0,
/// `true` = SA1).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fault {
    /// Where the fault sits.
    pub site: FaultSite,
    /// The stuck value.
    pub stuck: bool,
}

impl Fault {
    /// Stuck-at-0 on a node's output line.
    pub fn stem_sa0(node: NodeId) -> Fault {
        Fault {
            site: FaultSite::Stem(node),
            stuck: false,
        }
    }

    /// Stuck-at-1 on a node's output line.
    pub fn stem_sa1(node: NodeId) -> Fault {
        Fault {
            site: FaultSite::Stem(node),
            stuck: true,
        }
    }

    /// Render with circuit names, e.g. `g3/SA0` or `g5.pin1/SA1`.
    pub fn describe(&self, circuit: &Circuit) -> String {
        let sa = if self.stuck { "SA1" } else { "SA0" };
        match self.site {
            FaultSite::Stem(n) => format!("{}/{}", circuit.node_name(n), sa),
            FaultSite::Branch { gate, pin } => {
                format!("{}.pin{}/{}", circuit.node_name(gate), pin, sa)
            }
        }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let sa = if self.stuck { "SA1" } else { "SA0" };
        match self.site {
            FaultSite::Stem(n) => write!(f, "{n}/{sa}"),
            FaultSite::Branch { gate, pin } => write!(f, "{gate}.pin{pin}/{sa}"),
        }
    }
}

/// The set of faults targeted by an experiment.
///
/// [`FaultUniverse::full`] enumerates every line fault; in
/// [`FaultUniverse::collapsed`] structurally equivalent faults are merged
/// and one representative per class is kept (the usual denominator for
/// fault-coverage numbers).
#[derive(Clone, Debug)]
pub struct FaultUniverse {
    faults: Vec<Fault>,
    /// Equivalence classes (indices into a full enumeration) represented by
    /// each entry of `faults`; for a full universe each class is a
    /// singleton.
    class_sizes: Vec<usize>,
    total_uncollapsed: usize,
}

impl FaultUniverse {
    /// Enumerate all single stuck-at faults: SA0/SA1 on every node output,
    /// plus SA0/SA1 on every fanout branch of multi-fanout signals.
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] if the circuit is cyclic.
    pub fn full(circuit: &Circuit) -> Result<FaultUniverse, NetlistError> {
        let faults = enumerate_full(circuit, &Topology::of(circuit)?);
        let n = faults.len();
        Ok(FaultUniverse {
            faults,
            class_sizes: vec![1; n],
            total_uncollapsed: n,
        })
    }

    /// Enumerate and structurally collapse equivalent faults
    /// (see [`collapse`](crate::collapse)).
    ///
    /// # Errors
    ///
    /// [`NetlistError::Cycle`] if the circuit is cyclic.
    pub fn collapsed(circuit: &Circuit) -> Result<FaultUniverse, NetlistError> {
        let topo = Topology::of(circuit)?;
        let full = enumerate_full(circuit, &topo);
        let (faults, class_sizes) = crate::collapse::Classes::of(circuit, &topo, &full)
            .representatives()
            .map(|(i, size)| (full[i], size))
            .unzip();
        Ok(FaultUniverse {
            faults,
            class_sizes,
            total_uncollapsed: full.len(),
        })
    }

    /// Build a universe from an explicit fault list (e.g. the undetected
    /// remainder of a previous run).
    pub fn from_faults(faults: Vec<Fault>) -> FaultUniverse {
        let n = faults.len();
        FaultUniverse {
            faults,
            class_sizes: vec![1; n],
            total_uncollapsed: n,
        }
    }

    /// The target faults (class representatives when collapsed).
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of target faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Whether the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Size of the equivalence class represented by fault `i`.
    pub fn class_size(&self, i: usize) -> usize {
        self.class_sizes[i]
    }

    /// Number of faults before collapsing.
    pub fn total_uncollapsed(&self) -> usize {
        self.total_uncollapsed
    }
}

fn enumerate_full(circuit: &Circuit, topo: &Topology) -> Vec<Fault> {
    let mut faults = Vec::new();
    for id in circuit.node_ids() {
        for stuck in [false, true] {
            faults.push(Fault {
                site: FaultSite::Stem(id),
                stuck,
            });
        }
    }
    for id in circuit.node_ids() {
        if topo.is_stem(circuit, id) {
            for fo in topo.fanouts(id) {
                for stuck in [false, true] {
                    faults.push(Fault {
                        site: FaultSite::Branch {
                            gate: fo.gate,
                            pin: fo.pin,
                        },
                        stuck,
                    });
                }
            }
        }
    }
    faults
}

#[cfg(test)]
mod tests {
    use super::*;
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn fanout_circuit() -> Circuit {
        let mut b = CircuitBuilder::new("c");
        let a = b.input("a");
        let c = b.input("b");
        let g1 = b.gate(GateKind::And, vec![a, c], "g1").unwrap();
        let g2 = b.gate(GateKind::Not, vec![g1], "g2").unwrap();
        let g3 = b.gate(GateKind::Buf, vec![g1], "g3").unwrap();
        b.output(g2);
        b.output(g3);
        b.finish().unwrap()
    }

    #[test]
    fn full_universe_counts() {
        let c = fanout_circuit();
        let u = FaultUniverse::full(&c).unwrap();
        // 5 nodes × 2 stems + 1 stem (g1) fans out to 2 branches × 2.
        assert_eq!(u.len(), 10 + 4);
        assert_eq!(u.total_uncollapsed(), 14);
        assert!(u.class_sizes.iter().all(|&s| s == 1));
    }

    #[test]
    fn collapsed_universe_is_smaller_and_partitions() {
        let c = fanout_circuit();
        let u = FaultUniverse::collapsed(&c).unwrap();
        assert!(u.len() < 14);
        let total: usize = (0..u.len()).map(|i| u.class_size(i)).sum();
        assert_eq!(total, 14);
    }

    #[test]
    fn fanout_free_circuit_has_no_branch_faults() {
        let mut b = CircuitBuilder::new("t");
        let xs = b.inputs(2, "x");
        let g = b.gate(GateKind::And, vec![xs[0], xs[1]], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        let u = FaultUniverse::full(&c).unwrap();
        assert_eq!(u.len(), 6);
        assert!(u
            .faults()
            .iter()
            .all(|f| matches!(f.site, FaultSite::Stem(_))));
    }

    #[test]
    fn describe_and_display() {
        let c = fanout_circuit();
        let g1 = c.find_node("g1").unwrap();
        let f = Fault::stem_sa0(g1);
        assert_eq!(f.describe(&c), "g1/SA0");
        assert!(f.to_string().contains("/SA0"));
        let bf = Fault {
            site: FaultSite::Branch {
                gate: c.find_node("g2").unwrap(),
                pin: 0,
            },
            stuck: true,
        };
        assert_eq!(bf.describe(&c), "g2.pin0/SA1");
    }

    #[test]
    fn from_faults_passthrough() {
        let c = fanout_circuit();
        let g1 = c.find_node("g1").unwrap();
        let u = FaultUniverse::from_faults(vec![Fault::stem_sa0(g1)]);
        assert_eq!(u.len(), 1);
        assert!(!u.is_empty());
    }
}
