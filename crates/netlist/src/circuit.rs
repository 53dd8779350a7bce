use std::collections::HashSet;
use std::fmt;

use crate::{GateKind, NetlistError};

/// Index of a node (gate / input / constant) within a [`Circuit`].
///
/// Node ids are dense, stable for the lifetime of the circuit, and identify
/// both the node and the signal (net) it drives — every node drives exactly
/// one net.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// Construct from a raw index.
    ///
    /// Out-of-range ids are caught when used against a circuit.
    pub fn from_index(index: usize) -> NodeId {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// The raw index, usable to address per-node side tables.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of a [`Circuit`]: a gate kind plus its fanin signals.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Node {
    kind: GateKind,
    fanins: Vec<NodeId>,
}

impl Node {
    /// The node's function.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// The node's fanin signals, in pin order.
    pub fn fanins(&self) -> &[NodeId] {
        &self.fanins
    }
}

/// A combinational gate-level circuit.
///
/// Invariants (enforced at construction and after every transform):
///
/// * every fanin references an existing node;
/// * fanin counts respect [`GateKind::arity_range`];
/// * the graph is acyclic (checked by [`Topology::of`](crate::Topology::of)
///   and [`Circuit::evaluate`]);
/// * signal names are unique.
///
/// Circuits are built with [`CircuitBuilder`](crate::CircuitBuilder), parsed
/// from `.bench` text ([`bench_format`](crate::bench_format)), or produced
/// by generators; they are then modified only through the transforms in
/// [`transform`](crate::transform).
#[derive(Clone, Debug)]
pub struct Circuit {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) node_names: Vec<String>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<NodeId>,
    /// `output_mask[i]` is whether node `i` appears in `outputs`: one byte
    /// per node, so [`Circuit::is_output`] is O(1). Derived from
    /// `outputs`, hence left out of equality like `version`.
    pub(crate) output_mask: Vec<bool>,
    /// Structural edit counter: bumped by every mutation that can change
    /// behaviour (`add_node`, `add_output`, `set_node`, `rewire`).
    /// Derived-analysis caches key their validity on it.
    pub(crate) version: u64,
}

impl PartialEq for Circuit {
    /// Structural equality; the edit [`version`](Circuit::version) is
    /// deliberately ignored (two circuits with identical structure are
    /// equal regardless of their edit histories), as is the output mask,
    /// which mirrors `outputs`.
    fn eq(&self, other: &Circuit) -> bool {
        self.name == other.name
            && self.nodes == other.nodes
            && self.node_names == other.node_names
            && self.inputs == other.inputs
            && self.outputs == other.outputs
    }
}

impl Eq for Circuit {}

impl Circuit {
    /// Create an empty circuit with the given name.
    ///
    /// Prefer [`CircuitBuilder`](crate::CircuitBuilder), which validates as
    /// it goes; this constructor exists for incremental/transform use.
    pub fn new(name: impl Into<String>) -> Circuit {
        Circuit {
            name: name.into(),
            nodes: Vec::new(),
            node_names: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            output_mask: Vec::new(),
            version: 0,
        }
    }

    /// Structural edit counter: incremented by every mutating operation.
    ///
    /// Long-lived analyses (topology, COP, FFR decompositions, fault
    /// universes) can record the version they were computed at and treat a
    /// mismatch as "stale". Cloning preserves the counter; equal versions
    /// on the *same* lineage imply an unchanged structure, but versions of
    /// unrelated circuits are not comparable.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The circuit's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the circuit.
    pub fn set_name(&mut self, name: impl Into<String>) {
        self.name = name.into();
    }

    /// Total number of nodes (inputs + constants + gates).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of logic gates (nodes that are not sources).
    pub fn gate_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.kind.is_source()).count()
    }

    /// Access a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range (ids from this circuit never are).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The gate kind of a node.
    pub fn kind(&self, id: NodeId) -> GateKind {
        self.nodes[id.index()].kind
    }

    /// The fanins of a node, in pin order.
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        &self.nodes[id.index()].fanins
    }

    /// The signal name of a node.
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.index()]
    }

    /// Find a node by signal name.
    ///
    /// Cost: O(nodes), a linear scan. `Circuit` keeps no name index (it
    /// would make every clone of a large circuit several times dearer);
    /// callers with many lookups build their own map, as the `.bench`
    /// parser and [`CircuitBuilder`](crate::CircuitBuilder) do.
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        self.node_names
            .iter()
            .position(|n| n == name)
            .map(NodeId::from_index)
    }

    /// Primary inputs, in declaration order.
    pub fn inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// Primary outputs, in declaration order.
    pub fn outputs(&self) -> &[NodeId] {
        &self.outputs
    }

    /// Whether `id` is listed as a primary output. O(1).
    pub fn is_output(&self, id: NodeId) -> bool {
        self.output_mask.get(id.index()).copied().unwrap_or(false)
    }

    /// Iterate over all node ids in index order.
    pub fn node_ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.nodes.len()).map(NodeId::from_index)
    }

    /// Append a node, returning its id.
    ///
    /// `Input` nodes are appended to the primary-input list automatically.
    /// If `name` is empty a unique `n<i>` name is generated.
    ///
    /// The name check scans every existing name, so building an n-node
    /// circuit through this method costs O(n²); bulk construction goes
    /// through [`CircuitBuilder`](crate::CircuitBuilder) or the parser,
    /// which check names against a map of their own.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InvalidArity`] if the fanin count is illegal for
    /// `kind`; [`NetlistError::DanglingFanin`] if a fanin is out of range;
    /// [`NetlistError::DuplicateName`] if the name is taken.
    pub fn add_node(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
        name: impl Into<String>,
    ) -> Result<NodeId, NetlistError> {
        self.add_node_named(kind, fanins, name.into(), |c, n| c.find_node(n).is_some())
    }

    /// [`add_node`](Circuit::add_node) with the name check delegated to
    /// `taken`, for callers that keep a name map of their own: with an
    /// O(1) `taken`, building an n-node circuit is linear.
    pub(crate) fn add_node_named(
        &mut self,
        kind: GateKind,
        fanins: Vec<NodeId>,
        mut name: String,
        taken: impl Fn(&Circuit, &str) -> bool,
    ) -> Result<NodeId, NetlistError> {
        kind.check_arity(fanins.len())?;
        let idx = self.nodes.len();
        if fanins.iter().any(|f| f.index() >= idx) {
            // Fanins must already exist; self-loops are impossible by
            // construction, which also rules out cycles for append-only use.
            return Err(NetlistError::DanglingFanin { gate: idx });
        }
        if name.is_empty() {
            name = format!("n{idx}");
            while taken(self, &name) {
                name.push('_');
            }
        } else if taken(self, &name) {
            return Err(NetlistError::DuplicateName { name });
        }
        let id = NodeId::from_index(idx);
        self.nodes.push(Node { kind, fanins });
        self.node_names.push(name);
        self.output_mask.push(false);
        if kind == GateKind::Input {
            self.inputs.push(id);
        }
        self.version += 1;
        Ok(id)
    }

    /// Mark `id` as a primary output (idempotent).
    ///
    /// # Errors
    ///
    /// [`NetlistError::NoSuchNode`] if `id` is out of range.
    pub fn add_output(&mut self, id: NodeId) -> Result<(), NetlistError> {
        if id.index() >= self.nodes.len() {
            return Err(NetlistError::NoSuchNode { index: id.index() });
        }
        if !self.output_mask[id.index()] {
            self.output_mask[id.index()] = true;
            self.outputs.push(id);
            self.version += 1;
        }
        Ok(())
    }

    /// Replace a node's kind and fanin list in place (used by the rewrite
    /// passes). Arity and bounds are checked immediately; acyclicity is
    /// re-validated by the calling pass.
    pub(crate) fn set_node(
        &mut self,
        id: NodeId,
        kind: GateKind,
        fanins: Vec<NodeId>,
    ) -> Result<(), NetlistError> {
        kind.check_arity(fanins.len())?;
        if fanins.iter().any(|f| f.index() >= self.nodes.len()) {
            return Err(NetlistError::DanglingFanin { gate: id.index() });
        }
        self.nodes[id.index()] = Node { kind, fanins };
        self.version += 1;
        Ok(())
    }

    /// Replace every fanin reference to `from` with `to` across all gates,
    /// and every primary-output reference to `from` with `to`.
    ///
    /// Gates in `skip` are left untouched (used by control-point insertion,
    /// where the newly created gate must keep consuming the original line).
    ///
    /// Returns the number of pin/output references rewired.
    pub(crate) fn rewire(&mut self, from: NodeId, to: NodeId, skip: &[NodeId]) -> usize {
        let mut n = 0;
        for (idx, node) in self.nodes.iter_mut().enumerate() {
            if skip.contains(&NodeId::from_index(idx)) {
                continue;
            }
            for pin in node.fanins.iter_mut() {
                if *pin == from {
                    *pin = to;
                    n += 1;
                }
            }
        }
        let mut taps = 0;
        for out in self.outputs.iter_mut() {
            if *out == from {
                *out = to;
                taps += 1;
            }
        }
        if taps > 0 {
            // Clear before set: `from == to` leaves the node an output, and
            // a tap moved onto a node that is already an output keeps it one.
            self.output_mask[from.index()] = false;
            self.output_mask[to.index()] = true;
        }
        n += taps;
        if n > 0 {
            self.version += 1;
        }
        n
    }

    /// Validate all structural invariants, including acyclicity.
    ///
    /// # Errors
    ///
    /// The first violated invariant, as a [`NetlistError`].
    pub fn validate(&self) -> Result<(), NetlistError> {
        for (idx, node) in self.nodes.iter().enumerate() {
            node.kind.check_arity(node.fanins.len())?;
            if node.fanins.iter().any(|f| f.index() >= self.nodes.len()) {
                return Err(NetlistError::DanglingFanin { gate: idx });
            }
        }
        for out in &self.outputs {
            if out.index() >= self.nodes.len() {
                return Err(NetlistError::NoSuchNode { index: out.index() });
            }
        }
        let mut seen: HashSet<&str> = HashSet::with_capacity(self.node_names.len());
        for name in &self.node_names {
            if !seen.insert(name.as_str()) {
                return Err(NetlistError::DuplicateName { name: name.clone() });
            }
        }
        // Acyclicity via Kahn's algorithm.
        crate::Topology::of(self).map(|_| ())
    }

    /// Evaluate the circuit on one input assignment, returning the value of
    /// every node (indexed by [`NodeId::index`]).
    ///
    /// `values[i]` drives `self.inputs()[i]`. This is the slow reference
    /// evaluator used to cross-validate the bit-parallel simulator in
    /// `tpi-sim`.
    ///
    /// # Errors
    ///
    /// [`NetlistError::InputCountMismatch`] on wrong arity;
    /// [`NetlistError::Cycle`] if the circuit is cyclic.
    pub fn evaluate(&self, values: &[bool]) -> Result<Vec<bool>, NetlistError> {
        if values.len() != self.inputs.len() {
            return Err(NetlistError::InputCountMismatch {
                expected: self.inputs.len(),
                got: values.len(),
            });
        }
        let topo = crate::Topology::of(self)?;
        let mut out = vec![false; self.nodes.len()];
        for (&input, &v) in self.inputs.iter().zip(values) {
            out[input.index()] = v;
        }
        for &id in topo.order() {
            let node = &self.nodes[id.index()];
            if node.kind == GateKind::Input {
                continue;
            }
            out[id.index()] = node.kind.eval(node.fanins.iter().map(|f| out[f.index()]));
        }
        Ok(out)
    }

    /// Evaluate and return only the primary-output values, in output order.
    ///
    /// # Errors
    ///
    /// Same as [`Circuit::evaluate`].
    pub fn evaluate_outputs(&self, values: &[bool]) -> Result<Vec<bool>, NetlistError> {
        let all = self.evaluate(values)?;
        Ok(self.outputs.iter().map(|o| all[o.index()]).collect())
    }
}

impl fmt::Display for Circuit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} nodes ({} PIs, {} POs, {} gates)",
            self.name,
            self.node_count(),
            self.inputs.len(),
            self.outputs.len(),
            self.gate_count()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn xor_of_ands() -> Circuit {
        let mut c = Circuit::new("t");
        let a = c.add_node(GateKind::Input, vec![], "a").unwrap();
        let b = c.add_node(GateKind::Input, vec![], "b").unwrap();
        let d = c.add_node(GateKind::Input, vec![], "d").unwrap();
        let g1 = c.add_node(GateKind::And, vec![a, b], "g1").unwrap();
        let g2 = c.add_node(GateKind::And, vec![b, d], "g2").unwrap();
        let y = c.add_node(GateKind::Xor, vec![g1, g2], "y").unwrap();
        c.add_output(y).unwrap();
        c
    }

    #[test]
    fn build_and_evaluate() {
        let c = xor_of_ands();
        assert_eq!(c.node_count(), 6);
        assert_eq!(c.gate_count(), 3);
        assert_eq!(c.inputs().len(), 3);
        // a=1 b=1 d=0 -> g1=1 g2=0 -> y=1
        assert_eq!(c.evaluate_outputs(&[true, true, false]).unwrap(), [true]);
        // a=1 b=1 d=1 -> g1=1 g2=1 -> y=0
        assert_eq!(c.evaluate_outputs(&[true, true, true]).unwrap(), [false]);
    }

    #[test]
    fn evaluate_checks_input_count() {
        let c = xor_of_ands();
        assert!(matches!(
            c.evaluate(&[true]),
            Err(NetlistError::InputCountMismatch {
                expected: 3,
                got: 1
            })
        ));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut c = Circuit::new("t");
        c.add_node(GateKind::Input, vec![], "a").unwrap();
        assert!(matches!(
            c.add_node(GateKind::Input, vec![], "a"),
            Err(NetlistError::DuplicateName { .. })
        ));
    }

    #[test]
    fn auto_names_are_unique() {
        let mut c = Circuit::new("t");
        let a = c.add_node(GateKind::Input, vec![], "").unwrap();
        let b = c.add_node(GateKind::Input, vec![], "").unwrap();
        assert_ne!(c.node_name(a), c.node_name(b));
        assert!(c.validate().is_ok());
    }

    #[test]
    fn forward_references_rejected() {
        let mut c = Circuit::new("t");
        let bogus = NodeId::from_index(5);
        assert!(matches!(
            c.add_node(GateKind::Buf, vec![bogus], "g"),
            Err(NetlistError::DanglingFanin { .. })
        ));
    }

    #[test]
    fn arity_enforced_on_add() {
        let mut c = Circuit::new("t");
        let a = c.add_node(GateKind::Input, vec![], "a").unwrap();
        let b = c.add_node(GateKind::Input, vec![], "b").unwrap();
        assert!(c.add_node(GateKind::Not, vec![a, b], "g").is_err());
    }

    #[test]
    fn rewire_replaces_pins_and_outputs() {
        let mut c = xor_of_ands();
        let b = c.find_node("b").unwrap();
        let a = c.find_node("a").unwrap();
        let n = c.rewire(b, a, &[]);
        assert_eq!(n, 2); // b fed g1 and g2
        let g1 = c.find_node("g1").unwrap();
        assert_eq!(c.fanins(g1), [a, a]);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rewire_respects_skip_list() {
        let mut c = xor_of_ands();
        let b = c.find_node("b").unwrap();
        let a = c.find_node("a").unwrap();
        let g1 = c.find_node("g1").unwrap();
        let n = c.rewire(b, a, &[g1]);
        assert_eq!(n, 1);
        assert_eq!(c.fanins(g1), [a, b]);
    }

    #[test]
    fn find_node_and_names() {
        let c = xor_of_ands();
        let y = c.find_node("y").unwrap();
        assert_eq!(c.node_name(y), "y");
        assert!(c.is_output(y));
        assert_eq!(c.find_node("zzz"), None);
    }

    #[test]
    fn output_idempotent() {
        let mut c = xor_of_ands();
        let y = c.find_node("y").unwrap();
        c.add_output(y).unwrap();
        assert_eq!(c.outputs().len(), 1);
    }

    #[test]
    fn display_contains_counts() {
        let c = xor_of_ands();
        let s = c.to_string();
        assert!(s.contains("3 PIs"));
        assert!(s.contains("3 gates"));
    }

    #[test]
    fn node_id_display() {
        assert_eq!(NodeId::from_index(4).to_string(), "n4");
    }

    #[test]
    fn validate_ok_on_wellformed() {
        assert!(xor_of_ands().validate().is_ok());
    }
}
