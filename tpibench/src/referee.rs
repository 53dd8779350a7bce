//! Per-job referees. They run after the clock stops, on the first pass's
//! outputs, and check each result by a route other than the measured
//! one (fault simulation for PODEM verdicts, COP re-evaluation for DP
//! plans, a re-parse and output comparison for every emitted netlist).

use krishnamurthy_tpi::atpg::topoff;
use krishnamurthy_tpi::core::evaluate::PlanEvaluator;
use krishnamurthy_tpi::engine::RunControl;
use krishnamurthy_tpi::netlist::bench_format::{self, ScanMode};
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::sim::{DetectionMode, Fault, FaultSimulator, RandomPatterns, SimOptions};

use crate::jobs::{Evidence, JobOutput, PATTERNS, TOPOFF_FILL_SEED};

/// Seed of the referee's own random patterns (distinct from the seed 1
/// every command uses).
const REFEREE_SEED: u64 = 0x5EED_F00D;

/// The emitted text re-parses into a circuit with the same ports and
/// gate count that computes the same outputs as the circuit it was
/// emitted from, on 256 pseudo-random input vectors. (Node order may
/// differ: inserted test points are emitted after the lines they feed,
/// and the parser orders nodes topologically.)
fn reparses_equivalent(name: &str, text: &str, modified: &Circuit) -> Result<(), String> {
    // `to_bench` writes the circuit name as a leading comment.
    let circuit_name = text
        .lines()
        .next()
        .and_then(|l| l.strip_prefix("# "))
        .unwrap_or(name);
    let reparsed = bench_format::parse_bench_with(text, circuit_name, ScanMode::FullScan)
        .map_err(|e| format!("emitted netlist does not re-parse: {e}"))?;
    let shape = |c: &Circuit| (c.inputs().len(), c.outputs().len(), c.gate_count());
    if shape(&reparsed) != shape(modified) {
        return Err(format!(
            "re-parsed netlist has (inputs, outputs, gates) {:?}, emitted circuit {:?}",
            shape(&reparsed),
            shape(modified)
        ));
    }
    let mut state = REFEREE_SEED;
    for _ in 0..256 {
        let vector: Vec<bool> = (0..modified.inputs().len())
            .map(|_| {
                state = state
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                state >> 63 == 1
            })
            .collect();
        let a = modified
            .evaluate_outputs(&vector)
            .map_err(|e| e.to_string())?;
        let b = reparsed
            .evaluate_outputs(&vector)
            .map_err(|e| e.to_string())?;
        if a != b {
            return Err("re-parsed netlist computes different outputs".into());
        }
    }
    Ok(())
}

/// Every failed check of one job, as readable lines (empty = passed).
pub fn check(name: &str, out: &JobOutput) -> Vec<String> {
    let mut failures = Vec::new();
    let mut fail = |msg: String| failures.push(format!("{name}: {msg}"));

    if let (Some(text), Some(modified)) = (&out.emitted, out.emitted_from()) {
        if let Err(e) = reparses_equivalent(name, text, modified) {
            fail(e);
        }
    }

    match &out.evidence {
        Evidence::Insert { problem, plan, dp } => {
            if *dp {
                match PlanEvaluator::new(problem).and_then(|ev| ev.evaluate(plan.test_points())) {
                    Ok(eval) if eval.feasible => {}
                    Ok(eval) => fail(format!(
                        "DP plan leaves {} of {} targets below the threshold",
                        eval.probabilities.len() - eval.meeting,
                        eval.probabilities.len()
                    )),
                    Err(e) => fail(format!("plan evaluation failed: {e}")),
                }
            }
        }
        Evidence::Atpg {
            circuit,
            universe,
            sweep,
            leftovers,
            top,
        } => {
            // The three verdict classes partition the collapsed universe.
            let mut classified: Vec<Fault> = sweep
                .testable
                .iter()
                .map(|(f, _)| *f)
                .chain(sweep.redundant.iter().copied())
                .chain(sweep.undecided.iter().copied())
                .collect();
            let mut all = universe.faults().to_vec();
            classified.sort();
            all.sort();
            if classified != all {
                fail(format!(
                    "sweep classes ({} faults) do not partition the universe ({} faults)",
                    classified.len(),
                    all.len()
                ));
            }
            // No random pattern may detect a fault PODEM proved redundant.
            if !sweep.redundant.is_empty() {
                let options = SimOptions {
                    detection: DetectionMode::Explicit,
                    ..SimOptions::default()
                };
                let mut src = RandomPatterns::new(circuit.inputs().len(), REFEREE_SEED);
                let detected = FaultSimulator::with_options(circuit, options)
                    .and_then(|mut sim| {
                        sim.run_controlled(
                            &mut src,
                            PATTERNS,
                            &sweep.redundant,
                            &RunControl::unlimited(),
                        )
                    })
                    .map(|run| run.result.detected_count());
                match detected {
                    Ok(0) => {}
                    Ok(n) => fail(format!(
                        "{n} faults called redundant are detected by random patterns"
                    )),
                    Err(e) => fail(format!("redundancy referee simulation failed: {e}")),
                }
            }
            // The top-off cubes, replayed with the same fill, detect every
            // fault the top-off claims to cover.
            let covered: Vec<Fault> = leftovers
                .iter()
                .copied()
                .filter(|f| !top.uncovered.contains(f) && !top.redundant.contains(f))
                .collect();
            match topoff::verify_cubes(circuit, &covered, &top.cubes, TOPOFF_FILL_SEED) {
                Ok(n) if n == covered.len() => {}
                Ok(n) => fail(format!(
                    "top-off cubes detect {n} of {} covered faults",
                    covered.len()
                )),
                Err(e) => fail(format!("verify_cubes failed: {e}")),
            }
        }
        Evidence::Patterns { outcome, .. } => {
            if outcome.patterns_after > outcome.patterns_before {
                fail(format!(
                    "pattern count grew: {} -> {}",
                    outcome.patterns_before, outcome.patterns_after
                ));
            }
        }
        Evidence::Simulate {
            circuit,
            universe,
            detected,
        } => {
            // Single-threaded explicit fault injection over the same
            // pattern stream must detect exactly as many faults as the
            // parallel critical-path-tracing run.
            let options = SimOptions {
                detection: DetectionMode::Explicit,
                ..SimOptions::default()
            };
            let mut src = RandomPatterns::new(circuit.inputs().len(), 1);
            let reference = FaultSimulator::with_options(circuit, options)
                .and_then(|mut sim| {
                    sim.run_controlled(
                        &mut src,
                        PATTERNS,
                        universe.faults(),
                        &RunControl::unlimited(),
                    )
                })
                .map(|run| run.result.detected_count());
            match reference {
                Ok(n) if n == *detected => {}
                Ok(n) => fail(format!(
                    "explicit single-thread simulation detects {n}, measured run {detected}"
                )),
                Err(e) => fail(format!("reference simulation failed: {e}")),
            }
        }
    }
    failures
}
