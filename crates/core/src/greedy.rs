use tpi_netlist::transform::apply_plan;
use tpi_netlist::{TestPoint, TestPointKind, Topology};
use tpi_sim::{RunControl, StopReason};
use tpi_testability::{CopAnalysis, CopProbe};

use crate::evaluate::PlanEvaluator;
use crate::{CandidateEval, Plan, TpiError, TpiProblem};

/// Tuning for [`GreedyOptimizer`].
#[derive(Clone, Debug)]
pub struct GreedyConfig {
    /// Maximum number of test points inserted.
    pub max_points: usize,
    /// Stop when the plan cost would exceed this budget.
    pub max_cost: f64,
    /// Candidate kinds tried at every node.
    pub kinds: Vec<TestPointKind>,
    /// Candidate scoring path: incremental cone-delta COP probes
    /// (default) or the legacy full `apply_plan` + whole-circuit
    /// re-analysis per candidate. Both select bit-identical plans; legacy
    /// is kept as the oracle `prop_candidate_eval.rs` compares against.
    pub candidate_eval: CandidateEval,
}

impl Default for GreedyConfig {
    fn default() -> GreedyConfig {
        GreedyConfig {
            max_points: 64,
            max_cost: f64::INFINITY,
            kinds: vec![
                TestPointKind::Observe,
                TestPointKind::ControlAnd,
                TestPointKind::ControlOr,
                TestPointKind::Full,
            ],
            candidate_eval: CandidateEval::default(),
        }
    }
}

/// The classical iterative-greedy baseline (Seiss-style): at each step,
/// evaluate every `(node, kind)` candidate with the analytic
/// [`PlanEvaluator`] and insert the one with the best
/// *newly-satisfied-faults per cost* ratio; repeat until the threshold is
/// met everywhere, the budget is exhausted, or no candidate helps.
///
/// Unlike [`DpOptimizer`](crate::DpOptimizer) the greedy runs on any
/// circuit (COP is approximate under reconvergence) but carries no
/// optimality guarantee — the Table 2 experiment quantifies the gap.
#[derive(Clone, Debug, Default)]
pub struct GreedyOptimizer {
    config: GreedyConfig,
}

impl GreedyOptimizer {
    /// Create a greedy optimizer.
    pub fn new(config: GreedyConfig) -> GreedyOptimizer {
        GreedyOptimizer { config }
    }

    /// Run the greedy loop. The returned plan's
    /// [`is_feasible`](Plan::is_feasible) reports whether the threshold
    /// was met.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn solve(&self, problem: &TpiProblem) -> Result<Plan, TpiError> {
        self.solve_controlled(problem, &RunControl::unlimited())
            .map(|(plan, _)| plan)
    }

    /// [`solve`](GreedyOptimizer::solve) under a [`RunControl`] token,
    /// polled once per greedy iteration. Greedy is naturally *anytime*:
    /// on interruption the points committed so far are returned as a
    /// valid (possibly infeasible) plan together with the
    /// [`StopReason`]; the partial plan is a prefix of the uninterrupted
    /// run's, so its cost never exceeds it.
    ///
    /// # Errors
    ///
    /// [`TpiError::Netlist`] for cyclic circuits.
    pub fn solve_controlled(
        &self,
        problem: &TpiProblem,
        control: &RunControl,
    ) -> Result<(Plan, Option<StopReason>), TpiError> {
        let evaluator = PlanEvaluator::new(problem)?;
        let circuit = problem.circuit();
        let topo = Topology::of(circuit)?;
        let costs = problem.costs();

        // Control/full points need a consumer to re-drive.
        let controllable: Vec<bool> = circuit
            .node_ids()
            .map(|id| topo.fanout_count(id) > 0 || circuit.is_output(id))
            .collect();

        let delta = problem.threshold().value();
        // Stem-fault sites probed by the incremental evaluator, in target
        // order (so probability vectors align with `PlanEval`).
        let target_sites: Vec<(tpi_netlist::NodeId, bool)> = problem
            .targets()
            .iter()
            .map(|t| (t.node, t.stuck))
            .collect();
        // Total log₂ shortfall of unmet faults: the plateau tie-breaker —
        // when no single point pushes a fault over the threshold, make the
        // move that shrinks the aggregate gap fastest.
        let deficit = |probs: &[f64]| -> f64 {
            probs
                .iter()
                .map(|&p| (delta.log2() - p.max(1e-300).log2()).max(0.0))
                .sum()
        };

        let mut plan: Vec<TestPoint> = Vec::new();
        let mut current = evaluator.evaluate(&plan)?;
        let mut current_deficit = deficit(&current.probabilities);
        let mut stopped = None;
        while !current.feasible
            && plan.len() < self.config.max_points
            && current.cost < self.config.max_cost
        {
            stopped = control.poll();
            if stopped.is_some() {
                break;
            }
            // (candidate, gained-per-cost, deficit-reduction-per-cost)
            let mut best: Option<(TestPoint, f64, f64)> = None;
            {
                let mut consider = |candidate: TestPoint, meeting: usize, probs: &[f64]| {
                    let cost = costs.of(candidate.kind);
                    let gained = meeting.saturating_sub(current.meeting) as f64 / cost;
                    let relief = (current_deficit - deficit(probs)) / cost;
                    if gained <= 0.0 && relief <= 1e-9 {
                        return;
                    }
                    let better = match best {
                        None => true,
                        Some((_, g, r)) => {
                            gained > g + 1e-12
                                || ((gained - g).abs() <= 1e-12 && relief > r + 1e-12)
                        }
                    };
                    if better {
                        best = Some((candidate, gained, relief));
                    }
                };
                if self.config.candidate_eval == CandidateEval::Batched {
                    // One full analysis of the committed-plan circuit per
                    // round, then O(cone) probes per candidate.
                    let (cur, _) = apply_plan(circuit, &plan)?;
                    let cur_topo = Topology::of(&cur)?;
                    let cur_cop = CopAnalysis::with_input_probs(&cur, problem.input_probs())?;
                    let mut probe = CopProbe::new(&cur, &cur_topo, &cur_cop, &target_sites);
                    for id in circuit.node_ids() {
                        for &kind in &self.config.kinds {
                            if kind != TestPointKind::Observe && !controllable[id.index()] {
                                continue;
                            }
                            let candidate = TestPoint::new(id, kind);
                            let probs = probe.probe(candidate)?;
                            let meeting = probs.iter().filter(|&&p| p >= delta - 1e-12).count();
                            consider(candidate, meeting, &probs);
                        }
                    }
                } else {
                    for id in circuit.node_ids() {
                        for &kind in &self.config.kinds {
                            if kind != TestPointKind::Observe && !controllable[id.index()] {
                                continue;
                            }
                            let candidate = TestPoint::new(id, kind);
                            plan.push(candidate);
                            let eval = evaluator.evaluate(&plan)?;
                            plan.pop();
                            consider(candidate, eval.meeting, &eval.probabilities);
                        }
                    }
                }
            }
            match best {
                Some((tp, _, _)) => {
                    plan.push(tp);
                    current = evaluator.evaluate(&plan)?;
                    current_deficit = deficit(&current.probabilities);
                }
                None => break, // no candidate helps: stuck
            }
        }
        Ok((Plan::new(plan, current.cost, current.feasible), stopped))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Threshold, TpiProblem};
    use tpi_netlist::{CircuitBuilder, GateKind};

    fn and_cone(width: usize) -> tpi_netlist::Circuit {
        let mut b = CircuitBuilder::new(format!("and{width}"));
        let xs = b.inputs(width, "x");
        let root = b.balanced_tree(GateKind::And, &xs, "g").unwrap();
        b.output(root);
        b.finish().unwrap()
    }

    #[test]
    fn fixes_resistant_cone() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_feasible(), "plan: {plan}");
        assert!(!plan.is_empty());
        // Verified independently.
        let eval = crate::evaluate::PlanEvaluator::new(&p)
            .unwrap()
            .evaluate(plan.test_points())
            .unwrap();
        assert!(eval.feasible);
    }

    #[test]
    fn no_insertion_when_already_feasible() {
        let c = and_cone(4);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_empty());
        assert!(plan.is_feasible());
    }

    #[test]
    fn respects_point_budget() {
        let c = and_cone(32);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-3.0)).unwrap();
        let cfg = GreedyConfig {
            max_points: 2,
            ..GreedyConfig::default()
        };
        let plan = GreedyOptimizer::new(cfg).solve(&p).unwrap();
        assert!(plan.len() <= 2);
    }

    fn recon() -> tpi_netlist::Circuit {
        let mut b = CircuitBuilder::new("recon");
        let xs = b.inputs(6, "x");
        let stem = b.balanced_tree(GateKind::And, &xs[..4], "s").unwrap();
        let g1 = b.gate(GateKind::And, vec![stem, xs[4]], "g1").unwrap();
        let g2 = b.gate(GateKind::And, vec![stem, xs[5]], "g2").unwrap();
        let y = b.gate(GateKind::Or, vec![g1, g2], "y").unwrap();
        b.output(y);
        b.finish().unwrap()
    }

    #[test]
    fn works_on_reconvergent_circuits() {
        // Greedy (unlike the DP) accepts fanout.
        let c = recon();
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-4.0)).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.is_feasible(), "plan: {plan}");
    }

    #[test]
    fn batched_probe_selects_bit_identical_plans() {
        use crate::CandidateEval;
        for (c, log2) in [(and_cone(16), -6.0), (recon(), -4.0), (and_cone(32), -3.0)] {
            let p = TpiProblem::min_cost(&c, Threshold::from_log2(log2)).unwrap();
            let legacy = GreedyOptimizer::new(GreedyConfig {
                candidate_eval: CandidateEval::Legacy,
                ..GreedyConfig::default()
            })
            .solve(&p)
            .unwrap();
            let batched = GreedyOptimizer::default().solve(&p).unwrap();
            assert_eq!(legacy, batched, "circuit {}", c.name());
        }
    }

    #[test]
    fn cancelled_before_first_iteration_returns_empty_anytime_plan() {
        let c = and_cone(16);
        let p = TpiProblem::min_cost(&c, Threshold::from_log2(-6.0)).unwrap();
        let control = RunControl::cancellable();
        control.cancel();
        let (plan, stopped) = GreedyOptimizer::default()
            .solve_controlled(&p, &control)
            .unwrap();
        assert_eq!(stopped, Some(StopReason::Cancelled));
        assert!(plan.is_empty());
        assert!(!plan.is_feasible());
        let full = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(plan.cost() <= full.cost());
    }

    #[test]
    fn reports_infeasible_when_stuck() {
        // δ > 1/2 can never be met for PI faults; greedy must terminate
        // and report infeasibility.
        let c = and_cone(2);
        let p = TpiProblem::min_cost(&c, Threshold::new(0.9).unwrap()).unwrap();
        let plan = GreedyOptimizer::default().solve(&p).unwrap();
        assert!(!plan.is_feasible());
    }
}
