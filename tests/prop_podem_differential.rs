//! Differential test of the compiled PODEM against the reference
//! implementation it replaced (`support::podem_oracle`), refereed by
//! exhaustive detection probabilities.
//!
//! On random DAGs with every gate kind — N-ary AND/OR families,
//! XOR/XNOR, buffers, inverters and constants — and for every fault of
//! the full universe (stems and fanout branches), the compiled generator
//! must return the oracle's verdict and cube wherever the oracle
//! decides, never use more backtracks, and agree with exhaustive
//! simulation about which faults are detectable.

mod support;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use krishnamurthy_tpi::atpg::{Podem, PodemConfig, PodemResult, TestCube};
use krishnamurthy_tpi::netlist::{Circuit, CircuitBuilder, GateKind, NodeId, Topology};
use krishnamurthy_tpi::sim::{montecarlo, Fault, FaultSite, FaultUniverse};

use support::podem_oracle::OraclePodem;

/// A random reconvergent DAG over `inputs` primary inputs with `gates`
/// logic gates of every kind, up to two constants, and several outputs.
fn random_circuit(seed: u64, inputs: usize, gates: usize) -> Circuit {
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
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = CircuitBuilder::new("diff");
    let mut nodes: Vec<NodeId> = b.inputs(inputs, "x");
    for i in 0..rng.gen_range(0..3usize) {
        nodes.push(b.constant(rng.gen(), format!("k{i}")).unwrap());
    }
    for g in 0..gates {
        let kind = KINDS[rng.gen_range(0..KINDS.len())];
        let arity = match kind {
            GateKind::Buf | GateKind::Not => 1,
            GateKind::Xor | GateKind::Xnor => rng.gen_range(1..4usize),
            _ => rng.gen_range(1..5usize),
        };
        // Half the fanins come from the most recent nodes, to build depth
        // and reconvergence.
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
    for &n in &nodes[inputs..nodes.len() - 1] {
        if rng.gen_bool(0.15) {
            b.output(n);
        }
    }
    b.finish().unwrap()
}

/// Naive faulty-circuit evaluation of one fully specified pattern.
fn detects(c: &Circuit, topo: &Topology, fault: Fault, pattern: &[bool]) -> bool {
    let good = c.evaluate(pattern).unwrap();
    let mut vals = vec![false; c.node_count()];
    for (&i, &v) in c.inputs().iter().zip(pattern) {
        vals[i.index()] = v;
    }
    for &id in topo.order() {
        let node = c.node(id);
        if !node.kind().is_source() {
            let fanins: Vec<bool> = node
                .fanins()
                .iter()
                .enumerate()
                .map(|(pin, f)| match fault.site {
                    FaultSite::Branch { gate, pin: fp } if gate == id && fp as usize == pin => {
                        fault.stuck
                    }
                    _ => vals[f.index()],
                })
                .collect();
            vals[id.index()] = node.kind().eval(fanins.iter().copied());
        } else if node.kind() != GateKind::Input {
            vals[id.index()] = node.kind() == GateKind::Const1;
        }
        if fault.site == FaultSite::Stem(id) {
            vals[id.index()] = fault.stuck;
        }
    }
    c.outputs()
        .iter()
        .any(|o| vals[o.index()] != good[o.index()])
}

fn cube_detects(c: &Circuit, topo: &Topology, fault: Fault, cube: &TestCube) -> bool {
    [false, true]
        .iter()
        .all(|&fill| detects(c, topo, fault, &cube.filled_with(|| fill)))
}

/// Whether `result` is consistent with the exhaustive truth for a fault
/// of detection probability `p` (an abort claims nothing).
fn agrees_with_truth(result: &PodemResult, p: f64) -> bool {
    match result {
        PodemResult::Test(_) => p > 0.0,
        PodemResult::Untestable => p == 0.0,
        PodemResult::Aborted => true,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compiled_podem_matches_the_oracle(
        seed in 0u64..1_000_000,
        inputs in 1usize..15,
        gates in 4usize..48,
    ) {
        let c = random_circuit(seed, inputs, gates);
        let topo = Topology::of(&c).unwrap();
        let universe = FaultUniverse::full(&c).unwrap();
        let probs = montecarlo::exact_detection_probabilities(&c, universe.faults()).unwrap();
        let mut fast = Podem::new(&c).unwrap();
        let mut oracle = OraclePodem::new(&c).unwrap();
        let tight = PodemConfig { max_backtracks: 3 };
        let mut fast_tight = Podem::with_config(&c, tight).unwrap();
        let mut oracle_tight = OraclePodem::with_config(&c, tight).unwrap();

        for (i, &fault) in universe.faults().iter().enumerate() {
            let name = fault.describe(&c);
            let expected = oracle.generate(fault).unwrap();
            let got = fast.generate(fault).unwrap();
            if expected != PodemResult::Aborted {
                prop_assert_eq!(&got, &expected, "{} (seed {})", name, seed);
            }
            prop_assert!(
                fast.last_backtracks() <= oracle.last_backtracks(),
                "{}: {} backtracks, oracle {} (seed {})",
                name, fast.last_backtracks(), oracle.last_backtracks(), seed
            );
            // Fewer than 2^15 decisions exist, far below the default limit.
            prop_assert!(got != PodemResult::Aborted, "{} aborted (seed {})", name, seed);
            prop_assert!(
                agrees_with_truth(&got, probs[i]),
                "{}: {:?} but exact detection probability {} (seed {})",
                name, got, probs[i], seed
            );
            if let PodemResult::Test(cube) = &got {
                prop_assert!(cube_detects(&c, &topo, fault, cube), "{}: cube fails", name);
            }

            // Under a tiny budget the pruned search may decide a fault the
            // oracle gives up on, but only correctly.
            let expected = oracle_tight.generate(fault).unwrap();
            let got = fast_tight.generate(fault).unwrap();
            prop_assert!(fast_tight.last_backtracks() <= oracle_tight.last_backtracks());
            if expected == PodemResult::Aborted {
                prop_assert!(
                    agrees_with_truth(&got, probs[i]),
                    "{}: {:?} under max_backtracks 3 but exact probability {} (seed {})",
                    name, got, probs[i], seed
                );
            } else {
                prop_assert_eq!(&got, &expected, "{} under max_backtracks 3 (seed {})", name, seed);
            }
        }
    }
}
