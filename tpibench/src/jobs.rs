//! The seeded job lists of the four workloads, and one function per job
//! kind that makes the same public library calls `src/bin/tpi.rs` makes
//! for the matching command. Each job returns the text the command would
//! print on stdout (compared byte for byte with the real binary on the
//! first job of each kind) plus what its referees need.

use std::sync::Arc;

use krishnamurthy_tpi::atpg::{redundancy, topoff, PodemConfig};
use krishnamurthy_tpi::compaction::{PatternsConfig, SearchTier};
use krishnamurthy_tpi::core::report::InsertionReport;
use krishnamurthy_tpi::core::{DpOptimizer, Plan, Threshold, TpiProblem};
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, RunControl, TpiEngine};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::gen::rpr;
use krishnamurthy_tpi::gen::trees::{random_tree, RandomTreeConfig};
use krishnamurthy_tpi::netlist::bench_format::{self, ScanMode};
use krishnamurthy_tpi::netlist::transform::apply_plan;
use krishnamurthy_tpi::netlist::Circuit;
use krishnamurthy_tpi::obs::Registry;
use krishnamurthy_tpi::sim::parallel::run_parallel_controlled;
use krishnamurthy_tpi::sim::{Fault, FaultUniverse, RandomPatterns, SimCounters, SimOptions};

use crate::trace::Tracer;

/// Random patterns of every fault simulation the commands run by default.
pub const PATTERNS: u64 = 32_000;
/// Don't-care fill seed `tpi atpg` passes to `topoff::generate`.
pub const TOPOFF_FILL_SEED: u64 = 7;

#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Workload {
    InsertMix,
    AtpgSweep,
    PatternsProbe,
    SimulateLadder,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::InsertMix,
        Workload::AtpgSweep,
        Workload::PatternsProbe,
        Workload::SimulateLadder,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::InsertMix => "insert_mix",
            Workload::AtpgSweep => "atpg_sweep",
            Workload::PatternsProbe => "patterns_probe",
            Workload::SimulateLadder => "simulate_ladder",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Which `tpi` command a job reproduces.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Kind {
    /// `tpi insert --method constructive`
    InsertConstructive,
    /// `tpi insert --method dp`
    InsertDp,
    /// `tpi atpg`
    Atpg,
    /// `tpi insert --objective patterns --method constructive`
    Patterns,
    /// `tpi simulate`
    Simulate,
}

impl Kind {
    /// The `tpi` arguments after the input file (`out` is the path the
    /// emitted netlist is written to, for the commands that emit one).
    pub fn cli_args(self, threads: usize, out: &str) -> Vec<String> {
        let t = threads.to_string();
        let args: Vec<&str> = match self {
            Kind::InsertConstructive => vec![
                "--method",
                "constructive",
                "--threads",
                &t,
                "--score-threads",
                "1",
                "--out",
                out,
            ],
            Kind::InsertDp => vec!["--method", "dp", "--threads", &t, "--out", out],
            Kind::Atpg => vec![],
            Kind::Patterns => vec![
                "--objective",
                "patterns",
                "--method",
                "constructive",
                "--out",
                out,
            ],
            Kind::Simulate => vec!["--threads", &t],
        };
        args.into_iter().map(String::from).collect()
    }

    pub fn command(self) -> &'static str {
        match self {
            Kind::Atpg => "atpg",
            Kind::Simulate => "simulate",
            _ => "insert",
        }
    }
}

/// How a job's input netlist is generated.
#[derive(Clone, Debug)]
enum Source {
    Dag {
        inputs: usize,
        gates: usize,
        seed: u64,
    },
    Tree {
        leaves: usize,
        seed: u64,
    },
    AndTree {
        width: usize,
        tail: usize,
    },
    Comparator {
        width: usize,
    },
    BusMatch {
        width: usize,
    },
    Decoder {
        sel: usize,
    },
    MuxTree {
        sel: usize,
    },
}

/// One entry of a workload's job list; its input is `<name>.bench`.
#[derive(Clone, Debug)]
pub struct JobSpec {
    pub kind: Kind,
    pub name: String,
    source: Source,
}

impl JobSpec {
    /// Generate the input circuit with `tpi-gen`.
    pub fn generate(&self) -> Result<Circuit, String> {
        let c = match self.source {
            Source::Dag {
                inputs,
                gates,
                seed,
            } => random_dag(&RandomDagConfig::new(inputs, gates, seed)),
            Source::Tree { leaves, seed } => {
                random_tree(&RandomTreeConfig::with_leaves(leaves, seed).and_or_only())
            }
            Source::AndTree { width, tail } => rpr::and_tree(width, tail),
            Source::Comparator { width } => rpr::comparator(width),
            Source::BusMatch { width } => rpr::bus_match(width),
            Source::Decoder { sel } => rpr::decoder(sel),
            Source::MuxTree { sel } => rpr::mux_tree(sel),
        };
        c.map_err(|e| format!("{}: {e}", self.name))
    }
}

/// SplitMix64: the harness's own seed mixer.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher–Yates shuffle.
fn shuffle<T>(items: &mut [T], mut state: u64) {
    for i in (1..items.len()).rev() {
        state = mix(state);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Primary inputs of a generated DAG of `gates` gates (24 at 400 gates,
/// the shape of `results/dag400_s5.bench`).
fn dag_inputs(gates: usize) -> usize {
    8 + gates / 25
}

/// `n` sizes spread evenly over `lo..=hi`.
fn spread(n: usize, lo: usize, hi: usize) -> impl Iterator<Item = usize> {
    (0..n).map(move |i| lo + (hi - lo) * i / (n - 1))
}

/// The corpus of `workload`: fixed `tpi-gen` structures spanning the
/// workload's size range. The run's seed does not change the structures
/// (so it cannot change how much work a job is); it changes the text the
/// program reads, through [`variant`]. (Fresh seeded structures made
/// `atpg_sweep`'s throughput vary 65% between seeds, as IQR over median.) Every list has an odd number of
/// jobs, so the median job latency falls inside one job's samples instead
/// of between two jobs of different size.
pub fn job_list(workload: Workload) -> Vec<JobSpec> {
    let mut jobs = Vec::new();
    let mut push = |kind: Kind, tag: String, source: Source| {
        let name = format!("j{:02}_{tag}", jobs.len());
        jobs.push(JobSpec { kind, name, source });
    };
    let dag = |gates: usize, seed: u64| Source::Dag {
        inputs: dag_inputs(gates),
        gates,
        seed,
    };
    match workload {
        Workload::InsertMix => {
            let dags = spread(4, 200, 800);
            let trees = [64, 256, 512, 1024];
            for (i, (gates, leaves)) in dags.zip(trees).enumerate() {
                let seed = 11 + i as u64;
                push(
                    Kind::InsertConstructive,
                    format!("dag{gates}"),
                    dag(gates, seed),
                );
                push(
                    Kind::InsertDp,
                    format!("tree{leaves}"),
                    Source::Tree { leaves, seed },
                );
            }
            push(
                Kind::InsertDp,
                "tree128".into(),
                Source::Tree {
                    leaves: 128,
                    seed: 15,
                },
            );
        }
        Workload::AtpgSweep => {
            for (i, gates) in spread(11, 100, 250).enumerate() {
                push(Kind::Atpg, format!("dag{gates}"), dag(gates, 21 + i as u64));
            }
        }
        Workload::PatternsProbe => {
            push(
                Kind::Patterns,
                "and16".into(),
                Source::AndTree { width: 16, tail: 4 },
            );
            push(
                Kind::Patterns,
                "cmp16".into(),
                Source::Comparator { width: 16 },
            );
            push(
                Kind::Patterns,
                "bus12".into(),
                Source::BusMatch { width: 12 },
            );
            push(Kind::Patterns, "dec5".into(), Source::Decoder { sel: 5 });
            push(Kind::Patterns, "mux5".into(), Source::MuxTree { sel: 5 });
            for (i, gates) in spread(6, 80, 150).enumerate() {
                push(
                    Kind::Patterns,
                    format!("dag{gates}"),
                    dag(gates, 31 + i as u64),
                );
            }
        }
        Workload::SimulateLadder => {
            for (i, gates) in [6_400usize, 12_800, 25_600].into_iter().enumerate() {
                push(
                    Kind::Simulate,
                    format!("dag{gates}"),
                    dag(gates, 41 + i as u64),
                );
            }
        }
    }
    jobs
}

/// A seeded isomorphic variant of `.bench` text as `to_bench` writes it:
/// every signal gets a fresh name from a seeded permutation and the
/// `OUTPUT` declarations are shuffled. Input and gate order stay, so the
/// parser builds the same node order and every layer does the same work.
/// (Shuffling the inputs as well changes which random pattern bit reaches
/// which input, and with it PODEM's search and the probes' outcomes:
/// patterns-objective jobs then vary up to 3x in cost from seed to seed.)
pub fn variant(text: &str, seed: u64) -> String {
    let mut header = Vec::new();
    let mut inputs = Vec::new();
    let mut outputs = Vec::new();
    let mut gates: Vec<(&str, &str, Vec<&str>)> = Vec::new();
    for line in text.lines() {
        if line.starts_with('#') {
            header.push(line);
        } else if let Some(n) = line
            .strip_prefix("INPUT(")
            .and_then(|r| r.strip_suffix(')'))
        {
            inputs.push(n);
        } else if let Some(n) = line
            .strip_prefix("OUTPUT(")
            .and_then(|r| r.strip_suffix(')'))
        {
            outputs.push(n);
        } else if let Some((target, rhs)) = line.split_once(" = ") {
            let (kind, args) = rhs.split_once('(').unwrap_or((rhs, ")"));
            let args = args.trim_end_matches(')');
            let args = if args.is_empty() {
                Vec::new()
            } else {
                args.split(", ").collect()
            };
            gates.push((target, kind, args));
        }
    }
    let names: Vec<&str> = inputs
        .iter()
        .copied()
        .chain(gates.iter().map(|g| g.0))
        .collect();
    let mut ids: Vec<usize> = (0..names.len()).collect();
    shuffle(&mut ids, mix(seed));
    let rename: std::collections::HashMap<&str, String> = names
        .iter()
        .zip(&ids)
        .map(|(&n, id)| (n, format!("s{id}")))
        .collect();
    let new = |n: &str| rename.get(n).cloned().unwrap_or_else(|| n.to_string());
    shuffle(&mut outputs, mix(seed ^ 2));
    let mut out = String::with_capacity(text.len());
    for h in header {
        out.push_str(h);
        out.push('\n');
    }
    for n in inputs {
        out.push_str(&format!("INPUT({})\n", new(n)));
    }
    for n in outputs {
        out.push_str(&format!("OUTPUT({})\n", new(n)));
    }
    for (target, kind, args) in gates {
        let args: Vec<String> = args.into_iter().map(new).collect();
        out.push_str(&format!("{} = {kind}({})\n", new(target), args.join(", ")));
    }
    out
}

/// What a job hands its referees and the metric read-out; produced by
/// the timed job, inspected only after the clock stops. (One value per
/// job, never copied: the variants' size difference does not matter.)
#[allow(clippy::large_enum_variant)]
pub enum Evidence {
    Insert {
        problem: TpiProblem,
        plan: Plan,
        dp: bool,
    },
    Atpg {
        circuit: Circuit,
        universe: FaultUniverse,
        sweep: redundancy::RedundancySweep,
        leftovers: Vec<Fault>,
        top: topoff::TopoffResult,
    },
    Patterns {
        engine: TpiEngine,
        config: PatternsConfig,
        outcome: krishnamurthy_tpi::compaction::PatternsOutcome,
    },
    Simulate {
        circuit: Circuit,
        universe: FaultUniverse,
        detected: usize,
    },
}

/// Everything one job produced.
pub struct JobOutput {
    /// Exactly what the matching `tpi` command prints on stdout.
    pub stdout: String,
    /// The emitted netlist (`--out FILE` contents), for commands that emit.
    pub emitted: Option<String>,
    /// The circuit `emitted` was written from.
    pub modified: Option<Circuit>,
    /// Gates of the parsed input.
    pub gates: usize,
    /// Coverage of the job's output, in percent.
    pub coverage_pct: f64,
    /// Kernel counters returned by the job's `run_parallel_controlled` call.
    pub sim_counters: Option<SimCounters>,
    /// States the tree DP created.
    pub dp_states: usize,
    /// The session registry of engine-backed jobs.
    pub registry: Option<Arc<Registry>>,
    pub evidence: Evidence,
}

impl JobOutput {
    /// The circuit `emitted` was written from.
    pub fn emitted_from(&self) -> Option<&Circuit> {
        match &self.evidence {
            Evidence::Patterns { outcome, .. } => Some(&outcome.modified),
            _ => self.modified.as_ref(),
        }
    }
}

/// Parse `text` the way `tpi` loads a file whose stem is `name`.
fn parse(tracer: &mut Tracer, text: &str, name: &str) -> Result<Circuit, String> {
    tracer.setup("netlist.parse", || {
        bench_format::parse_bench_with(text, name, ScanMode::FullScan)
            .map_err(|e| format!("{name}: {e}"))
    })
}

fn collapse(tracer: &mut Tracer, circuit: &Circuit) -> Result<FaultUniverse, String> {
    tracer.setup("sim.collapse", || {
        FaultUniverse::collapsed(circuit).map_err(|e| e.to_string())
    })
}

fn open_engine(
    tracer: &mut Tracer,
    circuit: &Circuit,
    config: EngineConfig,
    registry: &Arc<Registry>,
) -> Result<TpiEngine, String> {
    tracer.setup("engine.open", || {
        TpiEngine::with_registry(circuit.clone(), config, registry.clone())
            .map_err(|e| e.to_string())
    })
}

/// Sum of a registry histogram, in nanoseconds (the program records µs).
fn histogram_ns(registry: &Registry, name: &str) -> u64 {
    registry.histogram(name).sum() * 1_000
}

/// Run one job. `out` is the path the CLI would be given for `--out`.
pub fn run_job(
    tracer: &mut Tracer,
    kind: Kind,
    name: &str,
    text: &str,
    threads: usize,
    out: &str,
) -> Result<JobOutput, String> {
    match kind {
        Kind::InsertConstructive | Kind::InsertDp => {
            insert_coverage(tracer, kind, name, text, threads, out)
        }
        Kind::Atpg => atpg(tracer, name, text),
        Kind::Patterns => insert_patterns(tracer, name, text, out),
        Kind::Simulate => simulate(tracer, name, text, threads),
    }
}

/// `tpi insert --method dp|constructive` with the default threshold
/// (test length 32,000 at confidence 0.98).
fn insert_coverage(
    tracer: &mut Tracer,
    kind: Kind,
    name: &str,
    text: &str,
    threads: usize,
    out: &str,
) -> Result<JobOutput, String> {
    let circuit = parse(tracer, text, name)?;
    let threshold = Threshold::from_test_length(PATTERNS, 0.98).map_err(|e| e.to_string())?;
    let control = RunControl::with_limits(None, None);
    let registry = Arc::new(Registry::new());
    let problem = tracer.span("core.problem", || {
        TpiProblem::min_cost(&circuit, threshold).map_err(|e| e.to_string())
    })?;
    let mut dp_states = 0;
    let plan = if kind == Kind::InsertDp {
        let (plan, stats) = tracer.span("core.dp", || {
            DpOptimizer::default()
                .solve_region_controlled(&problem, 1.0, &control)
                .map_err(|e| e.to_string())
        })?;
        dp_states = stats.states_created;
        plan
    } else {
        let config = EngineConfig {
            verify_incremental: false,
            score_threads: 1,
            ..EngineConfig::default()
        };
        let mut engine = open_engine(tracer, &circuit, config, &registry)?;
        engine.set_control(control.clone());
        tracer.span("testability.analyses", || {
            engine.analyses().map(|_| ()).map_err(|e| e.to_string())
        })?;
        tracer.span("engine.full_sim", || {
            engine.simulate().map(|_| ()).map_err(|e| e.to_string())
        })?;
        let before = tracer.enabled().then(|| {
            (
                histogram_ns(&registry, "search.candidate_eval_us"),
                histogram_ns(&registry, "engine.incremental_sim_us"),
            )
        });
        let (outcome, id) = tracer.span_id("engine.optimize", || {
            engine
                .optimize(threshold, &OptimizeConfig::default())
                .map_err(|e| e.to_string())
        });
        let outcome = outcome?;
        if let Some((eval0, inc0)) = before {
            let eval = histogram_ns(&registry, "search.candidate_eval_us") - eval0;
            let inc = histogram_ns(&registry, "engine.incremental_sim_us") - inc0;
            tracer.derived(id, "search.candidate_eval", eval);
            tracer.derived(id, "engine.incremental_sim", inc);
        }
        outcome.plan
    };

    let mut stdout = String::new();
    let report = tracer.span("core.report", || {
        InsertionReport::build(&problem, &plan).map_err(|e| e.to_string())
    })?;
    stdout.push_str(&report.to_text());
    let (modified, _) = tracer.span("netlist.apply_plan", || {
        apply_plan(&circuit, plan.test_points()).map_err(|e| e.to_string())
    })?;
    let universe = collapse(tracer, &circuit)?;
    let n_inputs = modified.inputs().len();
    let verify = tracer.span("sim.fsim", || {
        run_parallel_controlled(
            &modified,
            || RandomPatterns::new(n_inputs, 1),
            PATTERNS,
            universe.faults(),
            threads,
            SimOptions::default(),
            &RunControl::unlimited(),
        )
        .map_err(|e| e.to_string())
    })?;
    let verified = verify.result;
    stdout.push_str(&format!(
        "measured coverage after insertion: {:.2}% ({} patterns, {} threads)\n",
        verified.coverage() * 100.0,
        verified.patterns_applied(),
        threads
    ));
    let emitted = tracer.span("netlist.emit", || bench_format::to_bench(&modified));
    stdout.push_str(&format!("wrote {out}\n"));
    Ok(JobOutput {
        stdout,
        emitted: Some(emitted),
        modified: Some(modified),
        gates: circuit.gate_count(),
        coverage_pct: verified.coverage() * 100.0,
        sim_counters: Some(verify.counters),
        dp_states,
        registry: (kind == Kind::InsertConstructive).then_some(registry),
        evidence: Evidence::Insert {
            problem,
            plan,
            dp: kind == Kind::InsertDp,
        },
    })
}

/// `tpi atpg`: collapse, redundancy sweep, 32k random patterns, top-off.
fn atpg(tracer: &mut Tracer, name: &str, text: &str) -> Result<JobOutput, String> {
    let circuit = parse(tracer, text, name)?;
    let universe = collapse(tracer, &circuit)?;
    let sweep = tracer.span("atpg.sweep", || {
        redundancy::sweep(&circuit, universe.faults(), PodemConfig::default())
            .map_err(|e| e.to_string())
    })?;
    let mut stdout = format!(
        "{}: {} faults — {} testable, {} redundant, {} undecided\n",
        circuit.name(),
        universe.len(),
        sweep.testable.len(),
        sweep.redundant.len(),
        sweep.undecided.len()
    );
    for f in &sweep.redundant {
        stdout.push_str(&format!("  redundant: {}\n", f.describe(&circuit)));
    }
    let targets = sweep.targets();
    let mut src = RandomPatterns::new(circuit.inputs().len(), 1);
    let leftovers = tracer.span("sim.fsim", || {
        topoff::undetected_after(&circuit, &targets, &mut src, PATTERNS).map_err(|e| e.to_string())
    })?;
    let top = tracer.span("atpg.topoff", || {
        topoff::generate(
            &circuit,
            &leftovers,
            PodemConfig::default(),
            TOPOFF_FILL_SEED,
        )
        .map_err(|e| e.to_string())
    })?;
    stdout.push_str(&format!(
        "after {PATTERNS} random patterns: {} faults left → {} cubes ({} merged seeds)\n",
        leftovers.len(),
        top.cubes.len(),
        top.seed_count()
    ));
    stdout.push_str(&format!(
        "atpg work: {} cubes generated, {} backtracks, {} aborted faults\n",
        top.counters.cubes_generated, top.counters.backtracks, top.counters.aborted_faults
    ));
    for cube in &top.merged {
        stdout.push_str(&format!("  seed: {}\n", cube.to_pattern_string()));
    }
    // Faults the flow ends up detecting: every target except those the
    // top-off proved redundant or left uncovered.
    let detected = targets.len() - top.redundant.len() - top.uncovered.len();
    Ok(JobOutput {
        stdout,
        emitted: None,
        modified: None,
        gates: circuit.gate_count(),
        coverage_pct: 100.0 * detected as f64 / universe.len().max(1) as f64,
        sim_counters: None,
        dp_states: 0,
        registry: None,
        evidence: Evidence::Atpg {
            circuit,
            universe,
            sweep,
            leftovers,
            top,
        },
    })
}

/// `tpi insert --objective patterns --method constructive` with default
/// budgets (8 points, probe width 4).
fn insert_patterns(
    tracer: &mut Tracer,
    name: &str,
    text: &str,
    out: &str,
) -> Result<JobOutput, String> {
    let circuit = parse(tracer, text, name)?;
    let control = RunControl::with_limits(None, None);
    let registry = Arc::new(Registry::new());
    let config = PatternsConfig {
        max_points: 8,
        probe_width: 4,
        tier: SearchTier::Constructive,
        ..PatternsConfig::default()
    };
    let engine_config = EngineConfig {
        verify_incremental: false,
        ..EngineConfig::default()
    };
    let mut engine = open_engine(tracer, &circuit, engine_config, &registry)?;
    engine.set_control(control);
    tracer.span("compaction.cube_set", || {
        engine
            .cube_set(&config.cubes)
            .map(|_| ())
            .map_err(|e| e.to_string())
    })?;
    let outcome = tracer.span("compaction.search", || {
        engine.optimize_patterns(&config).map_err(|e| e.to_string())
    })?;

    let mut stdout = format!(
        "{}: {} cubes, {} conflicting pairs, {} compacted patterns before insertion\n",
        circuit.name(),
        outcome.cubes_before,
        outcome.conflicts_before,
        outcome.patterns_before
    );
    for round in &outcome.rounds {
        if let Some(tp) = round.committed {
            stdout.push_str(&format!(
                "  round {}: {} at {} → {} patterns ({} probes, {} conflicting pairs)\n",
                round.round,
                tp.kind.mnemonic(),
                outcome.modified.node_name(tp.node),
                round.patterns,
                round.probes,
                round.conflicts
            ));
        }
    }
    stdout.push_str(&format!(
        "compacted patterns after insertion: {} ({} points, cost {})\n",
        outcome.patterns_after,
        outcome.plan.len(),
        outcome.plan.cost()
    ));
    stdout.push_str(&patterns_json_line(&outcome));
    let emitted = tracer.span("netlist.emit", || bench_format::to_bench(&outcome.modified));
    stdout.push_str(&format!("wrote {out}\n"));
    Ok(JobOutput {
        stdout,
        emitted: Some(emitted),
        // Emitted from `outcome.modified` (see `JobOutput::emitted_from`).
        modified: None,
        gates: circuit.gate_count(),
        // Filled in from the output's cube set after the clock stops.
        coverage_pct: 0.0,
        sim_counters: None,
        dp_states: 0,
        registry: Some(registry),
        evidence: Evidence::Patterns {
            engine,
            config,
            outcome,
        },
    })
}

/// The machine-readable plan line `tpi insert --objective patterns`
/// prints (same keys, order and number formatting as its `Json` writer).
fn patterns_json_line(outcome: &krishnamurthy_tpi::compaction::PatternsOutcome) -> String {
    use krishnamurthy_tpi::engine::json::Json;
    let points: Vec<Json> = outcome
        .plan
        .test_points()
        .iter()
        .map(|tp| {
            Json::obj([
                ("node", Json::from(outcome.modified.node_name(tp.node))),
                ("kind", Json::from(tp.kind.mnemonic())),
            ])
        })
        .collect();
    let line = Json::obj([
        ("objective", Json::from("patterns")),
        ("partial", Json::from(outcome.interrupted.is_some())),
        ("patterns_before", Json::from(outcome.patterns_before)),
        ("patterns_after", Json::from(outcome.patterns_after)),
        ("cubes", Json::from(outcome.cubes_before)),
        ("conflicts", Json::from(outcome.conflicts_before)),
        ("cost", Json::from(outcome.plan.cost())),
        ("points", Json::Arr(points)),
    ]);
    format!("{line}\n")
}

/// `tpi simulate` with its defaults (32,000 random patterns, seed 1).
fn simulate(
    tracer: &mut Tracer,
    name: &str,
    text: &str,
    threads: usize,
) -> Result<JobOutput, String> {
    let circuit = parse(tracer, text, name)?;
    let universe = collapse(tracer, &circuit)?;
    let n_inputs = circuit.inputs().len();
    let run = tracer.span("sim.fsim", || {
        run_parallel_controlled(
            &circuit,
            || RandomPatterns::new(n_inputs, 1),
            PATTERNS,
            universe.faults(),
            threads,
            SimOptions::default(),
            &RunControl::unlimited(),
        )
        .map_err(|e| e.to_string())
    })?;
    let result = &run.result;
    let mut stdout = format!(
        "{}: {}/{} faults detected ({:.2}%) with {} patterns\n",
        circuit.name(),
        result.detected_count(),
        universe.len(),
        result.coverage() * 100.0,
        result.patterns_applied()
    );
    for point in result.coverage_curve((PATTERNS / 8).max(1)) {
        stdout.push_str(&format!(
            "  @{:>8}: {:.2}%\n",
            point.patterns,
            point.coverage * 100.0
        ));
    }
    Ok(JobOutput {
        stdout,
        emitted: None,
        modified: None,
        gates: circuit.gate_count(),
        coverage_pct: result.coverage() * 100.0,
        sim_counters: Some(run.counters),
        dp_states: 0,
        registry: None,
        evidence: Evidence::Simulate {
            detected: result.detected_count(),
            circuit,
            universe,
        },
    })
}
