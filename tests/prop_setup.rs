//! Set-up invariants: the per-node output mask, the hash-free fault
//! collapse and the linear-time `.bench` parser.
//!
//! The collapse and the parser are checked against the implementations
//! they replaced (`support::collapse_oracle`, `support::bench_oracle`):
//! the same classes in the same order, and the same circuit — node
//! numbering, names, outputs — or the same error for every text with
//! shuffled, undefined and cyclic declarations. A text that repeats a
//! name fails with DuplicateName.

mod support;

use std::collections::HashSet;

use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::netlist::bench_format::{self, ScanMode};
use krishnamurthy_tpi::netlist::transform::{apply_plan, apply_test_point};
use krishnamurthy_tpi::netlist::{
    rewrite, Circuit, CircuitBuilder, GateKind, NetlistError, NodeId, TestPoint, TestPointKind,
};
use krishnamurthy_tpi::sim::{collapse, FaultUniverse};

use support::{bench_oracle, collapse_oracle};

const KINDS: [GateKind; 8] = [
    GateKind::Buf,
    GateKind::Not,
    GateKind::And,
    GateKind::Nand,
    GateKind::Or,
    GateKind::Nor,
    GateKind::Xor,
    GateKind::Xnor,
];

const POINT_KINDS: [TestPointKind; 4] = [
    TestPointKind::Observe,
    TestPointKind::ControlAnd,
    TestPointKind::ControlOr,
    TestPointKind::Full,
];

/// A random reconvergent DAG with every gate kind, optional constants and
/// several outputs.
fn random_circuit(rng: &mut StdRng, inputs: usize, gates: usize) -> Circuit {
    let mut b = CircuitBuilder::new("setup");
    let mut nodes: Vec<NodeId> = b.inputs(inputs, "x");
    for i in 0..rng.gen_range(0..3usize) {
        nodes.push(b.constant(rng.gen(), format!("k{i}")).unwrap());
    }
    for g in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            _ => rng.gen_range(1..5usize),
        };
        let fanins = (0..arity)
            .map(|_| {
                let lo = if rng.gen_bool(0.5) {
                    nodes.len().saturating_sub(6)
                } else {
                    0
                };
                nodes[rng.gen_range(lo..nodes.len())]
            })
            .collect();
        nodes.push(b.gate(kind, fanins, format!("g{g}")).unwrap());
    }
    b.output(*nodes.last().unwrap());
    for &n in &nodes[..nodes.len() - 1] {
        if rng.gen_bool(0.2) {
            b.output(n);
        }
    }
    b.finish().unwrap()
}

fn mask_matches_outputs(c: &Circuit) -> Result<(), TestCaseError> {
    for id in c.node_ids() {
        prop_assert_eq!(
            c.is_output(id),
            c.outputs().contains(&id),
            "node {} of {}",
            id,
            c
        );
    }
    prop_assert!(!c.is_output(NodeId::from_index(c.node_count())));
    Ok(())
}

fn random_point(rng: &mut StdRng, c: &Circuit) -> TestPoint {
    TestPoint {
        node: NodeId::from_index(rng.gen_range(0..c.node_count())),
        kind: POINT_KINDS[rng.gen_range(0..POINT_KINDS.len())],
    }
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(rng: &mut StdRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Both parsers on `text`: the same circuit or the same error.
fn parsers_agree(text: &str) -> Result<(), TestCaseError> {
    for mode in [ScanMode::FullScan, ScanMode::Reject] {
        let fast = bench_format::parse_bench_with(text, "t", mode);
        let oracle = bench_oracle::parse_bench_with(text, "t", mode);
        prop_assert_eq!(&fast, &oracle, "{:?} != {:?} on\n{}", fast, oracle, text);
        if let Ok(c) = &fast {
            mask_matches_outputs(c)?;
        }
    }
    Ok(())
}

/// The declaration lines of `c` as `to_bench` writes them, optionally with
/// DFFs: each chosen gate `t = K(..)` becomes `t = DFF(t_d)` plus
/// `t_d = K(..)`, which full scan turns back into an input and an output.
fn bench_lines(rng: &mut StdRng, c: &Circuit, dffs: bool) -> Vec<String> {
    bench_format::to_bench(c)
        .lines()
        .filter(|l| !l.starts_with('#'))
        .flat_map(|l| match l.split_once(" = ") {
            Some((target, rhs)) if dffs && rng.gen_bool(0.1) => {
                vec![
                    format!("{target} = DFF({target}_d)"),
                    format!("{target}_d = {rhs}"),
                ]
            }
            _ => vec![l.to_string()],
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `is_output` agrees with the output list after every edit: outputs
    /// added, each kind of test point applied (including on lines that
    /// are already outputs, whose PO tap `rewire` moves), whole plans
    /// applied, and buffers swept by constant propagation.
    #[test]
    fn output_mask_tracks_every_edit(seed in 0u64..100_000, gates in 1usize..40, steps in 1usize..30) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..6usize);
        let mut c = random_circuit(&mut rng, inputs, gates);
        mask_matches_outputs(&c)?;
        for _ in 0..steps {
            match rng.gen_range(0..5u32) {
                0 => {
                    let id = NodeId::from_index(rng.gen_range(0..c.node_count()));
                    c.add_output(id).unwrap();
                }
                1 | 2 => {
                    let tp = random_point(&mut rng, &c);
                    // Control points on dangling lines are refused; the
                    // mask must stay exact either way.
                    let _ = apply_test_point(&mut c, tp);
                }
                3 => {
                    let plan: Vec<TestPoint> =
                        (0..rng.gen_range(1..5usize)).map(|_| random_point(&mut rng, &c)).collect();
                    if let Ok((modified, _)) = apply_plan(&c, &plan) {
                        mask_matches_outputs(&modified)?;
                        c = modified;
                    }
                }
                _ => {
                    rewrite::propagate_constants(&mut c).unwrap();
                }
            }
            mask_matches_outputs(&c)?;
        }
        let swept = rewrite::remove_dead_logic(&c).unwrap().circuit;
        mask_matches_outputs(&swept)?;
    }

    /// The dense collapse returns the HashMap oracle's classes in the
    /// oracle's order, on the full universe, on test-point-edited
    /// circuits, and on shuffled sublists of the universe.
    #[test]
    fn collapse_matches_hashmap_oracle(seed in 0u64..100_000, gates in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..8usize);
        let mut c = random_circuit(&mut rng, inputs, gates);
        if rng.gen_bool(0.5) {
            let plan: Vec<TestPoint> = (0..3).map(|_| random_point(&mut rng, &c)).collect();
            if let Ok((modified, _)) = apply_plan(&c, &plan) {
                c = modified;
            }
        }
        let full = FaultUniverse::full(&c).unwrap();
        let classes = collapse::equivalence_classes(&c, full.faults()).unwrap();
        prop_assert_eq!(&classes, &collapse_oracle::equivalence_classes(&c, full.faults()).unwrap());

        let collapsed = FaultUniverse::collapsed(&c).unwrap();
        prop_assert_eq!(collapsed.len(), classes.len());
        for (k, class) in classes.iter().enumerate() {
            prop_assert_eq!(collapsed.faults()[k], full.faults()[class[0]]);
            prop_assert_eq!(collapsed.class_size(k), class.len());
        }

        // A shuffled sublist.
        let mut sub = full.faults().to_vec();
        shuffle(&mut rng, &mut sub);
        sub.truncate(rng.gen_range(0..sub.len() + 1));
        prop_assert_eq!(
            collapse::equivalence_classes(&c, &sub).unwrap(),
            collapse_oracle::equivalence_classes(&c, &sub).unwrap()
        );
    }

    /// With its declarations in any order, a circuit parses to exactly the
    /// worklist oracle's circuit: node numbering, names, inputs, outputs.
    #[test]
    fn shuffled_declarations_number_like_the_worklist(seed in 0u64..100_000, gates in 1usize..60) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..8usize);
        let c = random_circuit(&mut rng, inputs, gates);
        let mut lines = bench_lines(&mut rng, &c, true);
        shuffle(&mut rng, &mut lines);
        let text = lines.join("\n");
        prop_assert!(bench_format::parse_bench(&text).is_ok());
        parsers_agree(&text)?;
    }

    /// Broken texts fail like the worklist oracle: duplicated
    /// declarations, undefined arguments and cycles, alone and combined,
    /// in shuffled order. A text that declares a name twice fails with
    /// DuplicateName on one of its repeated names (the worklist may report
    /// an undefined argument or a cycle first); any other text fails with
    /// the oracle's error on the oracle's name.
    #[test]
    fn broken_declarations_fail_like_the_worklist(seed in 0u64..100_000, gates in 1usize..30, edits in 1usize..4) {
        let mut rng = StdRng::seed_from_u64(seed);
        let inputs = rng.gen_range(1..6usize);
        let c = random_circuit(&mut rng, inputs, gates);
        let mut lines = bench_lines(&mut rng, &c, true);
        let names: Vec<String> = c.node_ids().map(|id| c.node_name(id).to_string()).collect();
        for _ in 0..edits {
            let name = &names[rng.gen_range(0..names.len())];
            let other = &names[rng.gen_range(0..names.len())];
            match rng.gen_range(0..6u32) {
                // A second definition of an existing name.
                0 => lines.push(format!("{name} = NOT({other})")),
                1 => lines.push(format!("INPUT({name})")),
                2 => lines.push(format!("{name} = DFF({other})")),
                // An undefined argument.
                3 => lines.push(format!("{name}_u = AND({other}, ghost{})", rng.gen_range(0..3u32))),
                // A cycle through one or two new gates.
                4 => {
                    lines.push(format!("cy_a = AND({other}, cy_b)"));
                    lines.push(format!("cy_b = OR(cy_a, {name})"));
                }
                // Redefine a gate in terms of a later one (often a cycle).
                _ => {
                    let at = rng.gen_range(0..lines.len());
                    if let Some((target, _)) = lines[at].split_once(" = ") {
                        lines[at] = format!("{target} = BUF({other})");
                    }
                }
            }
        }
        shuffle(&mut rng, &mut lines);
        let text = lines.join("\n");
        let mut declared = HashSet::new();
        let repeated: HashSet<&str> = lines
            .iter()
            .filter_map(|l| l.strip_prefix("INPUT(").map_or_else(|| l.split_once(" = ").map(|(t, _)| t), |r| r.strip_suffix(')')))
            .filter(|t| !declared.insert(*t))
            .collect();
        if repeated.is_empty() {
            parsers_agree(&text)?;
        } else {
            for mode in [ScanMode::FullScan, ScanMode::Reject] {
                let fast = bench_format::parse_bench_with(&text, "t", mode);
                match bench_oracle::parse_bench_with(&text, "t", mode) {
                    // Rejected while reading lines, before any name is resolved.
                    oracle @ Err(NetlistError::Sequential { .. }) => prop_assert_eq!(fast, oracle),
                    oracle => prop_assert!(
                        matches!(&fast, Err(NetlistError::DuplicateName { name }) if repeated.contains(name.as_str())),
                        "{:?} (oracle {:?}) on\n{}", fast, oracle, text
                    ),
                }
            }
        }
    }
}

/// Gates declared outputs-first, each reading the next: every sweep of
/// the worklist creates one gate, and the numbering runs back up the
/// chain.
#[test]
fn reverse_declared_chain_numbers_like_the_worklist() {
    let n = 300;
    let mut text = String::from("INPUT(a)\nOUTPUT(c0)\n");
    for i in 0..n {
        let arg = if i + 1 < n {
            format!("c{}", i + 1)
        } else {
            "a".to_string()
        };
        text.push_str(&format!("c{i} = NOT({arg})\n"));
    }
    let c = bench_format::parse_bench(&text).unwrap();
    assert_eq!(
        c,
        bench_oracle::parse_bench_with(&text, "bench", ScanMode::FullScan).unwrap()
    );
    assert_eq!(c.node_name(NodeId::from_index(1)), format!("c{}", n - 1));
    assert_eq!(c.node_name(NodeId::from_index(n)), "c0");
}

/// A 100,000-deep chain declared in reverse parses without recursion (no
/// stack overflow) and in linear time (the worklist needs 100,000 sweeps).
#[test]
fn deep_reverse_chain_parses() {
    let n = 100_000;
    let mut text = String::from("INPUT(a)\nOUTPUT(c0)\n");
    for i in 0..n {
        if i + 1 < n {
            text.push_str(&format!("c{i} = BUF(c{})\n", i + 1));
        } else {
            text.push_str(&format!("c{i} = BUF(a)\n"));
        }
    }
    let c = bench_format::parse_bench(&text).unwrap();
    assert_eq!(c.node_count(), n + 1);
    assert_eq!(c.node_name(NodeId::from_index(1)), format!("c{}", n - 1));
    assert!(c.is_output(NodeId::from_index(n)));
}

fn duplicate_name(text: &str) -> Option<String> {
    match bench_format::parse_bench(text) {
        Err(NetlistError::DuplicateName { name }) => Some(name),
        _ => None,
    }
}

#[test]
fn repeated_input_is_a_duplicate_name() {
    let text = "INPUT(a)\nINPUT(b)\nINPUT(a)\ny = AND(a, b)\nOUTPUT(y)\n";
    assert_eq!(duplicate_name(text).as_deref(), Some("a"));
}

#[test]
fn gate_redefining_an_input_is_a_duplicate_name() {
    let text = "INPUT(a)\nINPUT(b)\nb = NOT(a)\ny = AND(a, b)\nOUTPUT(y)\n";
    assert_eq!(duplicate_name(text).as_deref(), Some("b"));
}

#[test]
fn two_gates_with_one_target_are_a_duplicate_name() {
    let text = "INPUT(a)\nINPUT(b)\ny = AND(a, b)\ny = OR(a, b)\nOUTPUT(y)\n";
    assert_eq!(duplicate_name(text).as_deref(), Some("y"));
}

#[test]
fn dff_clashing_with_a_gate_is_a_duplicate_name() {
    let text = "INPUT(a)\nq = DFF(d)\nd = NOT(a)\nq = AND(a, d)\nOUTPUT(q)\n";
    assert_eq!(duplicate_name(text).as_deref(), Some("q"));
    // Gate first, DFF second: the DFF output is created first, so the
    // gate is the duplicate either way.
    let text = "INPUT(a)\nq = AND(a, d)\nd = NOT(a)\nq = DFF(d)\nOUTPUT(q)\n";
    assert_eq!(duplicate_name(text).as_deref(), Some("q"));
}

#[test]
fn builder_rejects_duplicate_names_and_numbers_unnamed_nodes() {
    let mut b = CircuitBuilder::new("b");
    let a = b.input("a");
    assert!(matches!(
        b.gate(GateKind::Not, vec![a], "a"),
        Err(NetlistError::DuplicateName { name }) if name == "a"
    ));
    // An unnamed node at index i is `n<i>`, with `_` appended while the
    // name is taken.
    let named = b.gate(GateKind::Buf, vec![a], "n2").unwrap();
    let auto = b.gate(GateKind::Not, vec![named], "").unwrap();
    let auto2 = b.gate(GateKind::Not, vec![auto], "").unwrap();
    b.output(auto2);
    let c = b.finish().unwrap();
    assert_eq!(c.node_name(auto), "n2_");
    assert_eq!(c.node_name(auto2), "n3");
    // Arity is checked before the name.
    let mut b = CircuitBuilder::new("b");
    let a = b.input("a");
    assert!(matches!(
        b.gate(GateKind::Not, vec![a, a], "a"),
        Err(NetlistError::InvalidArity { .. })
    ));
}
