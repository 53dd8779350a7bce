//! Metric derivation (end-to-end from untraced passes, per-layer from
//! traced passes), the layer accounting table, the size-ladder report
//! and the JSON they are written as.

use std::collections::BTreeMap;

use krishnamurthy_tpi::sim::SimCounters;

use crate::jobs::{Evidence, JobOutput, Kind};
use crate::trace::{self_times, Span};

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A finite JSON number with all its digits (ratios over an empty base
/// are reported as 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metrics_json(metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                json_num(m.value),
                json_str(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Deterministic per-job counts read once after the clock stops: the
/// values the calls returned and the engine registry's counters.
#[derive(Clone, Debug, Default)]
pub struct JobCounts {
    pub kind: Option<Kind>,
    pub gates: usize,
    pub coverage_pct: f64,
    pub sim: Option<SimCounters>,
    pub dp_states: usize,
    pub candidates_evaluated: u64,
    pub faults_skipped: u64,
    pub faults_resimulated: u64,
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub cube_rebuilds: u64,
    pub probes: u64,
    pub committed_points: usize,
    pub conflict_pairs: usize,
    pub swept_faults: usize,
    pub redundant: usize,
    pub undecided: usize,
    pub cubes_generated: u64,
    pub backtracks: u64,
    pub plan_cost: f64,
    pub patterns_before: usize,
    pub patterns_after: usize,
}

impl JobCounts {
    pub fn of(kind: Kind, out: &mut JobOutput) -> JobCounts {
        let mut c = JobCounts {
            kind: Some(kind),
            gates: out.gates,
            coverage_pct: out.coverage_pct,
            sim: out.sim_counters,
            dp_states: out.dp_states,
            ..JobCounts::default()
        };
        if let Some(registry) = &out.registry {
            let snap = registry.snapshot();
            let get = |name: &str| snap.counter(name).unwrap_or(0);
            c.candidates_evaluated = get("search.candidates_evaluated");
            c.faults_skipped = get("engine.faults_skipped");
            c.faults_resimulated = get("engine.faults_resimulated");
            c.memo_hits = get("engine.memo_hits");
            c.memo_misses = get("engine.memo_misses");
            c.cube_rebuilds = get("engine.cube_rebuilds");
            c.probes = get("compaction.probes");
        }
        match &mut out.evidence {
            Evidence::Insert { plan, .. } => c.plan_cost = plan.cost(),
            Evidence::Atpg {
                universe,
                sweep,
                top,
                ..
            } => {
                c.swept_faults = universe.len();
                c.redundant = sweep.redundant.len();
                c.undecided = sweep.undecided.len();
                c.cubes_generated = top.counters.cubes_generated;
                c.backtracks = top.counters.backtracks;
            }
            Evidence::Patterns {
                engine,
                config,
                outcome,
                ..
            } => {
                c.plan_cost = outcome.plan.cost();
                c.committed_points = outcome.plan.len();
                c.conflict_pairs = outcome.conflicts_before;
                c.patterns_before = outcome.patterns_before;
                c.patterns_after = outcome.patterns_after;
                // Coverage of the output circuit's deterministic test set
                // (the session cache already holds it: no ATPG runs here).
                if let Ok(set) = engine.cube_set(&config.cubes) {
                    let faults = engine.universe().len().max(1);
                    c.coverage_pct =
                        100.0 * (faults - set.uncovered - set.redundant) as f64 / faults as f64;
                }
            }
            Evidence::Simulate { .. } => {}
        }
        c
    }
}

/// Layer spans, in the order the accounting table lists them.
pub const LAYERS: [&str; 19] = [
    "netlist.parse",
    "netlist.apply_plan",
    "netlist.emit",
    "sim.collapse",
    "sim.fsim",
    "testability.analyses",
    "core.problem",
    "core.dp",
    "core.report",
    "engine.open",
    "engine.full_sim",
    "engine.optimize",
    "search.candidate_eval",
    "engine.incremental_sim",
    "atpg.sweep",
    "atpg.topoff",
    "compaction.cube_set",
    "compaction.search",
    "job",
];

/// Per-name inclusive and self seconds of one pass, plus job wall time.
struct PassTimes {
    inclusive: BTreeMap<&'static str, f64>,
    selfs: BTreeMap<&'static str, f64>,
    /// sim.fsim seconds in jobs whose fsim call returned kernel counters.
    counted_fsim_s: f64,
    /// Per job index: inclusive seconds per span name.
    per_job: BTreeMap<usize, BTreeMap<&'static str, f64>>,
}

fn pass_times(spans: &[Span], counts: &[JobCounts]) -> PassTimes {
    let selfs_ns = self_times(spans);
    let mut t = PassTimes {
        inclusive: BTreeMap::new(),
        selfs: BTreeMap::new(),
        counted_fsim_s: 0.0,
        per_job: BTreeMap::new(),
    };
    for (span, self_ns) in spans.iter().zip(selfs_ns) {
        let secs = span.duration_ns() as f64 * 1e-9;
        *t.inclusive.entry(span.name).or_default() += secs;
        *t.selfs.entry(span.name).or_default() += self_ns as f64 * 1e-9;
        *t.per_job
            .entry(span.job)
            .or_default()
            .entry(span.name)
            .or_default() += secs;
        if span.name == "sim.fsim" && counts.get(span.job).is_some_and(|c| c.sim.is_some()) {
            t.counted_fsim_s += secs;
        }
    }
    t
}

/// Mean over passes of `f(pass)`: per-pass means of self times add up
/// exactly to the mean job wall time, which medians would not.
fn mean(passes: &[PassTimes], f: impl Fn(&PassTimes) -> f64) -> f64 {
    passes.iter().map(f).sum::<f64>() / passes.len().max(1) as f64
}

fn get(map: &BTreeMap<&'static str, f64>, name: &str) -> f64 {
    map.get(name).copied().unwrap_or(0.0)
}

/// Slope of log(time) over log(gates) between two ladder rungs.
fn growth(t0: f64, t1: f64, g0: usize, g1: usize) -> f64 {
    if t0 <= 0.0 || t1 <= 0.0 || g0 == 0 || g1 <= g0 {
        return 0.0;
    }
    (t1 / t0).ln() / (g1 as f64 / g0 as f64).ln()
}

/// Everything the traced run reports beyond its metrics.
pub struct LayerReport {
    pub metrics: Vec<Metric>,
    /// Human-readable accounting table and (for the ladder) size report.
    pub text: String,
    /// The same, as JSON fields for the results file.
    pub accounting_json: String,
    pub ladder_json: Option<String>,
}

/// Per-layer metrics: times are means over traced passes of the per-pass
/// sums; counts are per pass (they repeat exactly).
pub fn layer_report(
    passes: &[Vec<Span>],
    counts: &[JobCounts],
    overhead_pct: f64,
    names: &[String],
) -> LayerReport {
    let times: Vec<PassTimes> = passes.iter().map(|p| pass_times(p, counts)).collect();
    let incl = |name: &'static str| mean(&times, |t| get(&t.inclusive, name));
    let self_of = |name: &'static str| mean(&times, |t| get(&t.selfs, name));
    let sum = |f: &dyn Fn(&JobCounts) -> f64| counts.iter().map(f).sum::<f64>();

    let gates = sum(&|c| c.gates as f64);
    let sim = counts
        .iter()
        .filter_map(|c| c.sim)
        .fold(SimCounters::default(), |mut acc, c| {
            acc.merge(&c);
            acc
        });
    let parse_s = incl("netlist.parse");
    let sweep_s = incl("atpg.sweep");
    let probes = sum(&|c| c.probes as f64);
    let attempted = counts.len().max(1) as f64;
    let mut m = vec![
        Metric {
            name: "netlist.parse_s",
            value: parse_s,
            unit: "s",
        },
        Metric {
            name: "netlist.parse_ns_per_gate",
            value: ratio(parse_s * 1e9, gates),
            unit: "ns/gate",
        },
        Metric {
            name: "netlist.apply_plan_s",
            value: incl("netlist.apply_plan"),
            unit: "s",
        },
        Metric {
            name: "netlist.emit_s",
            value: incl("netlist.emit"),
            unit: "s",
        },
        Metric {
            name: "sim.collapse_s",
            value: incl("sim.collapse"),
            unit: "s",
        },
        Metric {
            name: "sim.fsim_s",
            value: incl("sim.fsim"),
            unit: "s",
        },
        Metric {
            name: "sim.events_per_us",
            value: ratio(sim.events as f64, mean(&times, |t| t.counted_fsim_s) * 1e6),
            unit: "1/us",
        },
        Metric {
            name: "sim.events",
            value: sim.events as f64,
            unit: "count",
        },
        Metric {
            name: "sim.pattern_lanes",
            value: sim.pattern_lanes as f64,
            unit: "count",
        },
        Metric {
            name: "sim.faults_dropped",
            value: sim.faults_dropped as f64,
            unit: "count",
        },
        Metric {
            name: "sim.stem_obs_hit_ratio",
            value: ratio(
                sim.stem_obs_hits as f64,
                (sim.stem_obs_hits + sim.stem_obs_misses) as f64,
            ),
            unit: "ratio",
        },
        Metric {
            name: "testability.analyses_s",
            value: incl("testability.analyses"),
            unit: "s",
        },
        Metric {
            name: "core.problem_s",
            value: incl("core.problem"),
            unit: "s",
        },
        Metric {
            name: "core.dp_s",
            value: incl("core.dp"),
            unit: "s",
        },
        Metric {
            name: "core.dp_states",
            value: sum(&|c| c.dp_states as f64),
            unit: "count",
        },
        Metric {
            name: "core.report_s",
            value: incl("core.report"),
            unit: "s",
        },
        Metric {
            name: "engine.open_s",
            value: incl("engine.open"),
            unit: "s",
        },
        Metric {
            name: "engine.full_sim_s",
            value: incl("engine.full_sim"),
            unit: "s",
        },
        Metric {
            name: "engine.optimize_s",
            value: incl("engine.optimize"),
            unit: "s",
        },
        Metric {
            name: "engine.optimize_self_s",
            value: self_of("engine.optimize"),
            unit: "s",
        },
        Metric {
            name: "search.candidate_eval_s",
            value: incl("search.candidate_eval"),
            unit: "s",
        },
        Metric {
            name: "search.candidates_evaluated",
            value: sum(&|c| c.candidates_evaluated as f64),
            unit: "count",
        },
        Metric {
            name: "engine.incremental_sim_s",
            value: incl("engine.incremental_sim"),
            unit: "s",
        },
        Metric {
            name: "engine.resim_reuse_ratio",
            value: ratio(
                sum(&|c| c.faults_skipped as f64),
                sum(&|c| (c.faults_skipped + c.faults_resimulated) as f64),
            ),
            unit: "ratio",
        },
        Metric {
            name: "engine.memo_hit_ratio",
            value: ratio(
                sum(&|c| c.memo_hits as f64),
                sum(&|c| (c.memo_hits + c.memo_misses) as f64),
            ),
            unit: "ratio",
        },
        Metric {
            name: "atpg.sweep_s",
            value: sweep_s,
            unit: "s",
        },
        Metric {
            name: "atpg.sweep_faults_per_s",
            value: ratio(sum(&|c| c.swept_faults as f64), sweep_s),
            unit: "1/s",
        },
        Metric {
            name: "atpg.redundant",
            value: sum(&|c| c.redundant as f64),
            unit: "count",
        },
        Metric {
            name: "atpg.undecided",
            value: sum(&|c| c.undecided as f64),
            unit: "count",
        },
        Metric {
            name: "atpg.topoff_s",
            value: incl("atpg.topoff"),
            unit: "s",
        },
        Metric {
            name: "atpg.cubes_generated",
            value: sum(&|c| c.cubes_generated as f64),
            unit: "count",
        },
        Metric {
            name: "atpg.backtracks",
            value: sum(&|c| c.backtracks as f64),
            unit: "count",
        },
        Metric {
            name: "compaction.cube_set_s",
            value: incl("compaction.cube_set"),
            unit: "s",
        },
        Metric {
            name: "compaction.search_s",
            value: incl("compaction.search"),
            unit: "s",
        },
        Metric {
            name: "compaction.probes",
            value: probes,
            unit: "count",
        },
        Metric {
            name: "compaction.probe_commit_ratio",
            value: ratio(sum(&|c| c.committed_points as f64), probes),
            unit: "ratio",
        },
        Metric {
            name: "compaction.conflict_pairs",
            value: sum(&|c| c.conflict_pairs as f64),
            unit: "count",
        },
        Metric {
            name: "engine.cube_rebuilds",
            value: sum(&|c| c.cube_rebuilds as f64),
            unit: "count",
        },
        Metric {
            name: "job.wall_s",
            value: incl("job"),
            unit: "s",
        },
        Metric {
            name: "job.unattributed_s",
            value: self_of("job"),
            unit: "s",
        },
        Metric {
            name: "obs.trace_overhead_pct",
            value: overhead_pct,
            unit: "%",
        },
        Metric {
            name: "outcome.plan_cost",
            value: sum(&|c| c.plan_cost),
            unit: "cost",
        },
        Metric {
            name: "outcome.undecided_faults",
            value: sum(&|c| c.undecided as f64),
            unit: "count",
        },
        Metric {
            name: "outcome.patterns_after",
            value: sum(&|c| c.patterns_after as f64),
            unit: "count",
        },
        Metric {
            name: "outcome.coverage_pct",
            value: sum(&|c| c.coverage_pct) / attempted,
            unit: "%",
        },
    ];

    // Accounting: self times of every layer plus the unattributed
    // remainder (the job span's own self time) make up the job wall time.
    let wall = incl("job");
    let mut text =
        format!("layer accounting (mean seconds per traced pass; job wall {wall:.6} s)\n");
    let mut rows = Vec::new();
    let mut accounted = 0.0;
    for name in LAYERS {
        let s = self_of(name);
        if name == "job" || s > 0.0 {
            let label = if name == "job" { "unattributed" } else { name };
            text.push_str(&format!(
                "  {label:<24} {s:>12.6} s {:>6.2}%\n",
                100.0 * ratio(s, wall)
            ));
            rows.push(format!("{}: {}", json_str(label), json_num(s)));
            accounted += s;
        }
    }
    text.push_str(&format!(
        "  {:<24} {accounted:>12.6} s {:>6.2}% of job wall\n",
        "sum",
        100.0 * ratio(accounted, wall)
    ));
    let accounting_json = format!(
        "{{\"job_wall_s\": {}, \"self_s\": {{{}}}}}",
        json_num(wall),
        rows.join(", ")
    );

    // Size ladder: per-rung parse / collapse / fsim seconds and ns per
    // gate, and the log-log growth exponent between consecutive rungs.
    let mut ladder_json = None;
    let ladder = counts.iter().all(|c| c.kind == Some(Kind::Simulate)) && counts.len() >= 2;
    if ladder {
        let layers = ["netlist.parse", "sim.collapse", "sim.fsim"];
        let rung = |job: usize, name: &str| {
            mean(&times, |t| {
                t.per_job.get(&job).map_or(0.0, |m| get(m, name))
            })
        };
        text.push_str("size ladder (mean seconds per rung; growth = d log t / d log gates)\n");
        let mut rows = Vec::new();
        let mut first_superlinear: Option<(usize, &str)> = None;
        for (j, c) in counts.iter().enumerate() {
            let mut cells = Vec::new();
            let mut line = format!("  {:<18} {:>7} gates", names[j], c.gates);
            for name in layers {
                let s = rung(j, name);
                let g = if j > 0 {
                    growth(rung(j - 1, name), s, counts[j - 1].gates, c.gates)
                } else {
                    0.0
                };
                if j > 0 && g > 1.15 && first_superlinear.is_none() {
                    first_superlinear = Some((j, name));
                }
                line.push_str(&format!(
                    " | {name} {s:.4} s {:.1} ns/gate{}",
                    ratio(s * 1e9, c.gates as f64),
                    if j > 0 {
                        format!(" growth {g:.2}")
                    } else {
                        String::new()
                    }
                ));
                cells.push(format!(
                    "{}: {{\"s\": {}, \"ns_per_gate\": {}, \"growth\": {}}}",
                    json_str(name),
                    json_num(s),
                    json_num(ratio(s * 1e9, c.gates as f64)),
                    json_num(g)
                ));
            }
            text.push_str(&line);
            text.push('\n');
            rows.push(format!(
                "{{\"job\": {}, \"gates\": {}, {}}}",
                json_str(&names[j]),
                c.gates,
                cells.join(", ")
            ));
        }
        let verdict = match first_superlinear {
            Some((j, name)) => format!("{name} (between {} and {})", names[j - 1], names[j]),
            None => "none (every growth exponent is at most 1.15)".to_string(),
        };
        text.push_str(&format!("  first layer to go superlinear: {verdict}\n"));
        let n = counts.len();
        for name in layers {
            let metric = match name {
                "netlist.parse" => "netlist.parse_growth",
                "sim.collapse" => "sim.collapse_growth",
                _ => "sim.fsim_growth",
            };
            let g = growth(
                rung(0, name),
                rung(n - 1, name),
                counts[0].gates,
                counts[n - 1].gates,
            );
            m.push(Metric {
                name: metric,
                value: g,
                unit: "exponent",
            });
        }
        ladder_json = Some(format!(
            "{{\"rungs\": [{}], \"first_superlinear\": {}}}",
            rows.join(", "),
            json_str(&verdict)
        ));
    } else {
        for name in [
            "netlist.parse_growth",
            "sim.collapse_growth",
            "sim.fsim_growth",
        ] {
            m.push(Metric {
                name,
                value: 0.0,
                unit: "exponent",
            });
        }
    }
    LayerReport {
        metrics: m,
        text,
        accounting_json,
        ladder_json,
    }
}
