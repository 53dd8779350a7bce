use std::collections::HashSet;

use crate::{Circuit, GateKind, NetlistError, NodeId};

/// Incremental, validated construction of a [`Circuit`].
///
/// The builder enforces arity and name uniqueness at each step and runs a
/// full validation (including the acyclicity check) in [`finish`]. It
/// checks names against a set of its own, so building an n-node circuit
/// takes linear time.
///
/// # Example
///
/// ```
/// use tpi_netlist::{CircuitBuilder, GateKind};
///
/// # fn main() -> Result<(), tpi_netlist::NetlistError> {
/// let mut b = CircuitBuilder::new("mux2");
/// let s = b.input("s");
/// let a = b.input("a");
/// let c = b.input("b");
/// let ns = b.gate(GateKind::Not, vec![s], "ns")?;
/// let t0 = b.gate(GateKind::And, vec![ns, a], "t0")?;
/// let t1 = b.gate(GateKind::And, vec![s, c], "t1")?;
/// let y = b.gate(GateKind::Or, vec![t0, t1], "y")?;
/// b.output(y);
/// let mux = b.finish()?;
/// assert_eq!(mux.evaluate_outputs(&[false, true, false])?, [true]);
/// # Ok(())
/// # }
/// ```
///
/// [`finish`]: CircuitBuilder::finish
#[derive(Debug, Clone)]
pub struct CircuitBuilder {
    circuit: Circuit,
    /// Every name in `circuit`.
    names: HashSet<String>,
}

impl CircuitBuilder {
    /// Start building a circuit with the given name.
    pub fn new(name: impl Into<String>) -> CircuitBuilder {
        CircuitBuilder {
            circuit: Circuit::new(name),
            names: HashSet::new(),
        }
    }

    /// Append a node, checking its name against `names`.
    fn add(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
        name: String,
    ) -> Result<NodeId, NetlistError> {
        let names = &self.names;
        let id = self
            .circuit
            .add_node_named(kind, fanins, name, |_, n| names.contains(n))?;
        self.names.insert(self.circuit.node_name(id).to_string());
        Ok(id)
    }

    /// Add a primary input. Empty names are auto-generated.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already taken (inputs are normally the first
    /// nodes declared, with caller-controlled fresh names).
    pub fn input(&mut self, name: impl Into<String>) -> NodeId {
        self.add(GateKind::Input, vec![], name.into())
            .expect("input declaration failed")
    }

    /// Add `n` primary inputs named `{prefix}0..{prefix}{n-1}`.
    pub fn inputs(&mut self, n: usize, prefix: &str) -> Vec<NodeId> {
        (0..n).map(|i| self.input(format!("{prefix}{i}"))).collect()
    }

    /// Add a constant-0 or constant-1 node.
    ///
    /// # Errors
    ///
    /// [`NetlistError::DuplicateName`] if the name is taken.
    pub fn constant(
        &mut self,
        value: bool,
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        let kind = if value {
            GateKind::Const1
        } else {
            GateKind::Const0
        };
        self.add(kind, vec![], name.into())
    }

    /// Add a logic gate. Empty names are auto-generated.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidArity`], [`NetlistError::DanglingFanin`] or
    /// [`NetlistError::DuplicateName`].
    pub fn gate(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        self.add(kind, fanins, name.into())
    }

    /// Build a balanced tree of 2-input `kind` gates over `leaves`,
    /// returning the root. With a single leaf, returns that leaf unchanged.
    ///
    /// Useful for wide functions when 2-input decomposition is wanted
    /// (e.g. to mimic mapped netlists).
    ///
    /// # Errors
    ///
    /// Propagates gate-creation errors; [`NetlistError::InvalidArity`] if
    /// `leaves` is empty.
    pub fn balanced_tree(
        &mut self,
        kind: GateKind,
        leaves: &[NodeId],
        name_prefix: &str,
    ) -> Result<NodeId, NetlistError> {
        if leaves.is_empty() {
            return Err(NetlistError::InvalidArity {
                kind: kind.bench_name(),
                got: 0,
            });
        }
        let mut layer: Vec<NodeId> = leaves.to_vec();
        let mut counter = 0usize;
        while layer.len() > 1 {
            let mut next = Vec::with_capacity(layer.len().div_ceil(2));
            let mut it = layer.chunks(2);
            for chunk in &mut it {
                if chunk.len() == 2 {
                    let name = format!("{name_prefix}_{counter}");
                    counter += 1;
                    next.push(self.gate(kind, vec![chunk[0], chunk[1]], name)?);
                } else {
                    next.push(chunk[0]);
                }
            }
            layer = next;
        }
        Ok(layer[0])
    }

    /// Mark a node as primary output.
    ///
    /// # Panics
    ///
    /// Panics on an id not produced by this builder.
    pub fn output(&mut self, id: NodeId) {
        self.circuit.add_output(id).expect("output id out of range")
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.circuit.node_count()
    }

    /// Finish building: validates and returns the circuit.
    ///
    /// # Errors
    ///
    /// Any invariant violation, see [`Circuit::validate`].
    pub fn finish(self) -> Result<Circuit, NetlistError> {
        self.circuit.validate()?;
        Ok(self.circuit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_valid_circuit() {
        let mut b = CircuitBuilder::new("c");
        let ins = b.inputs(4, "x");
        let root = b.balanced_tree(GateKind::And, &ins, "a").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        assert_eq!(c.inputs().len(), 4);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(
            c.evaluate_outputs(&[true, true, true, true]).unwrap(),
            [true]
        );
        assert_eq!(
            c.evaluate_outputs(&[true, true, false, true]).unwrap(),
            [false]
        );
    }

    #[test]
    fn balanced_tree_single_leaf_is_identity() {
        let mut b = CircuitBuilder::new("c");
        let x = b.input("x");
        let r = b.balanced_tree(GateKind::Or, &[x], "t").unwrap();
        assert_eq!(r, x);
    }

    #[test]
    fn balanced_tree_odd_width() {
        let mut b = CircuitBuilder::new("c");
        let ins = b.inputs(5, "x");
        let root = b.balanced_tree(GateKind::Or, &ins, "t").unwrap();
        b.output(root);
        let c = b.finish().unwrap();
        assert_eq!(c.gate_count(), 4);
        let mut v = [false; 5];
        assert_eq!(c.evaluate_outputs(&v).unwrap(), [false]);
        v[4] = true;
        assert_eq!(c.evaluate_outputs(&v).unwrap(), [true]);
    }

    #[test]
    fn balanced_tree_empty_errors() {
        let mut b = CircuitBuilder::new("c");
        assert!(b.balanced_tree(GateKind::And, &[], "t").is_err());
    }

    #[test]
    fn constants() {
        let mut b = CircuitBuilder::new("c");
        let one = b.constant(true, "one").unwrap();
        let x = b.input("x");
        let g = b.gate(GateKind::And, vec![one, x], "g").unwrap();
        b.output(g);
        let c = b.finish().unwrap();
        assert_eq!(c.evaluate_outputs(&[true]).unwrap(), [true]);
        assert_eq!(c.evaluate_outputs(&[false]).unwrap(), [false]);
    }
}
