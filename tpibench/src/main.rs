//! `tpibench` — the seeded end-to-end benchmark of the tpi toolkit.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path tpibench/Cargo.toml -- \
//!     --workload insert_mix|atpg_sweep|patterns_probe|simulate_ladder \
//!     --seed N --seconds S --trace 0|1
//! ```
//!
//! Run from the repository root. One run:
//!
//! 1. builds the release `tpi` binary (`cargo build --release --bin tpi`,
//!    honouring `CARGO_TARGET_DIR`);
//! 2. generates the workload's seeded job list with `tpi-gen` in a child
//!    process and writes each input as `.bench` text under `.bench_work/`
//!    (the measured process only ever parses that text);
//! 3. runs the job list back to back in passes — a closed loop with one
//!    client, one job at a time — until `--seconds` have passed (at
//!    least three passes). With `--trace 1` untraced and traced passes
//!    alternate (at least two of each), and the traced ones record a span
//!    around every call into a layer's public function. A fixed probe
//!    (`host::Probe`) is timed before every job; end-to-end timings are
//!    scaled by the probe's nominal over its median time in the run, so
//!    that they read as on a host of nominal speed;
//! 4. checks every distinct job with its referees, compares the first
//!    job of each kind with the real `tpi` binary's stdout and `--out`
//!    file, and checks that every pass produced the same output digest;
//! 5. writes `.bench_results/<workload>-s<seed>-t<trace>.json` (host
//!    fingerprint, metrics, digests; spans in a `.spans.jsonl` beside it)
//!    and prints the metrics, ending with one JSON line
//!    `{"correct", "attempted", "failed", "metrics"}`.

mod host;
mod jobs;
mod referee;
mod report;
mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use jobs::{JobOutput, JobSpec, Kind, Workload};
use report::{json_num, json_str, median, JobCounts, Metric};
use trace::Tracer;

/// Fewest untraced passes a run makes, so set-up time is a median of
/// several and a slow pass cannot decide a metric alone.
const MIN_PASSES: usize = 3;
/// Fewest untraced + traced pass pairs a traced run makes (its per-layer
/// times are means over the traced passes).
const MIN_TRACED_PAIRS: usize = 2;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("gen") {
        gen(&args[1..])
    } else {
        run(&args)
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tpibench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `--key value` flags.
fn flag<'a>(args: &'a [String], key: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {key}"))
}

fn num<T: std::str::FromStr>(args: &[String], key: &str) -> Result<T, String> {
    let v = flag(args, key)?;
    v.parse().map_err(|_| format!("bad {key} value `{v}`"))
}

fn workload_flag(args: &[String]) -> Result<Workload, String> {
    let name = flag(args, "--workload")?;
    Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))
}

/// Child-process step: generate the job inputs as `.bench` files.
fn gen(args: &[String]) -> Result<(), String> {
    let workload = workload_flag(args)?;
    let seed: u64 = num(args, "--seed")?;
    let dir = PathBuf::from(flag(args, "--dir")?);
    for (i, spec) in jobs::job_list(workload).into_iter().enumerate() {
        let circuit = spec.generate()?;
        let text = krishnamurthy_tpi::netlist::bench_format::to_bench(&circuit);
        let path = dir.join(format!("{}.bench", spec.name));
        std::fs::write(
            &path,
            jobs::variant(&text, seed.wrapping_mul(1_000_003) ^ i as u64),
        )
        .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| PathBuf::from("target"), PathBuf::from)
}

/// Build the release `tpi` binary of this checkout; returns its path.
fn build_tpi() -> Result<PathBuf, String> {
    let status = Command::new("cargo")
        .args(["build", "--release", "--offline", "-q", "--bin", "tpi"])
        .status()
        .map_err(|e| format!("cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building tpi failed ({status})"));
    }
    let bin = target_dir().join("release").join("tpi");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} not found after build", bin.display()))
    }
}

/// One job's record from the measurement loop.
struct Done {
    latency: Duration,
    digest: String,
    output: Option<JobOutput>,
    error: Option<String>,
}

/// One pass over the job list.
struct Pass {
    wall: Duration,
    setup: Duration,
    /// Host-speed probe times before each job, in ns.
    probes: Vec<u64>,
    jobs: Vec<Done>,
    spans: Vec<trace::Span>,
}

impl Pass {
    fn digest(&self) -> String {
        let mut h = host::Fnv::new();
        for d in &self.jobs {
            h.write(d.digest.as_bytes());
        }
        h.hex()
    }
}

fn job_digest(name: &str, out: &JobOutput) -> String {
    let mut h = host::Fnv::new();
    h.write(name.as_bytes());
    h.write(out.stdout.as_bytes());
    h.write(out.emitted.as_deref().unwrap_or("").as_bytes());
    h.hex()
}

/// Run every job once. Only the first pass keeps its outputs (for the
/// referees and the metric read-out); later outputs are dropped after
/// the clock stops.
fn run_pass(
    probe: &mut host::Probe,
    jobs: &[(JobSpec, String)],
    out_paths: &[String],
    threads: usize,
    traced: bool,
    keep: bool,
) -> Pass {
    let mut tracer = Tracer::new(traced);
    let mut done = Vec::with_capacity(jobs.len());
    let mut probes = Vec::with_capacity(jobs.len());
    let mut wall = Duration::ZERO;
    for (i, ((spec, text), out)) in jobs.iter().zip(out_paths).enumerate() {
        probes.push(probe.time_ns());
        tracer.begin_job(i);
        let start = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            jobs::run_job(&mut tracer, spec.kind, &spec.name, text, threads, out)
        }));
        let latency = start.elapsed();
        tracer.end_job();
        wall += latency;
        let (output, error) = match result {
            Ok(Ok(out)) => (Some(out), None),
            Ok(Err(e)) => (None, Some(e)),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                (None, Some(format!("panicked: {msg}")))
            }
        };
        let digest = output
            .as_ref()
            .map_or_else(|| "error".to_string(), |o| job_digest(&spec.name, o));
        done.push(Done {
            latency,
            digest,
            output: if keep { output } else { None },
            error,
        });
    }
    let setup = Duration::from_nanos(tracer.setup_ns());
    Pass {
        wall,
        setup,
        probes,
        jobs: done,
        spans: tracer.into_spans(),
    }
}

/// Run the first job of each kind through the real `tpi` binary and
/// compare its stdout and `--out` file with the in-process result.
fn cli_parity(
    tpi: &Path,
    jobs: &[(JobSpec, String)],
    out_paths: &[String],
    outputs: &[Option<JobOutput>],
    dir: &Path,
    threads: usize,
) -> Vec<String> {
    let mut failures = Vec::new();
    let mut seen: Vec<Kind> = Vec::new();
    for (i, (spec, _)) in jobs.iter().enumerate() {
        if seen.contains(&spec.kind) {
            continue;
        }
        seen.push(spec.kind);
        let Some(ours) = &outputs[i] else { continue };
        let input = dir.join(format!("{}.bench", spec.name));
        let mut cmd = Command::new(tpi);
        cmd.arg(spec.kind.command())
            .arg(&input)
            .args(spec.kind.cli_args(threads, &out_paths[i]));
        match cmd.output() {
            Ok(o) if o.status.success() => {
                let stdout = String::from_utf8_lossy(&o.stdout);
                if stdout != ours.stdout {
                    failures.push(format!(
                        "{}: in-process stdout differs from `tpi {}`:\n--- tpi\n{stdout}--- in-process\n{}",
                        spec.name,
                        spec.kind.command(),
                        ours.stdout
                    ));
                }
                if let Some(emitted) = &ours.emitted {
                    match std::fs::read_to_string(&out_paths[i]) {
                        Ok(file) if file == *emitted => {}
                        Ok(_) => failures.push(format!(
                            "{}: `tpi --out` file differs from the in-process netlist",
                            spec.name
                        )),
                        Err(e) => failures.push(format!("{}: {}: {e}", spec.name, out_paths[i])),
                    }
                }
            }
            Ok(o) => failures.push(format!(
                "{}: `tpi {}` failed ({}): {}",
                spec.name,
                spec.kind.command(),
                o.status,
                String::from_utf8_lossy(&o.stderr)
            )),
            Err(e) => failures.push(format!("{}: cannot run {}: {e}", spec.name, tpi.display())),
        }
    }
    failures
}

fn run(args: &[String]) -> Result<(), String> {
    let workload = workload_flag(args)?;
    let seed: u64 = num(args, "--seed")?;
    let seconds: f64 = num(args, "--seconds")?;
    let traced = match flag(args, "--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1 (got {other})")),
    };
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("crates").is_dir() || !root.join("src/bin/tpi.rs").is_file() {
        return Err("run from the root of a tpi checkout".into());
    }
    // Parallel calls use at most two threads (and never more than the
    // host has), so the work per job is the same on larger hosts.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(2);

    let tpi = build_tpi()?;
    // The directory name is part of every `--out` path the jobs print, so
    // it depends only on the workload and seed: repeated runs produce
    // identical outputs and digests.
    let dir = root
        .join(".bench_work")
        .join(format!("{}-s{seed}", workload.name()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let result = measure(workload, seed, seconds, traced, threads, &tpi, &root, &dir);
    // Inputs are regenerated from the seed on every run.
    let _ = std::fs::remove_dir_all(&dir);
    result
}

#[allow(clippy::too_many_arguments)]
fn measure(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    threads: usize,
    tpi: &Path,
    root: &Path,
    dir: &Path,
) -> Result<(), String> {
    let me = std::env::current_exe().map_err(|e| e.to_string())?;
    let status = Command::new(me)
        .args([
            "gen",
            "--workload",
            workload.name(),
            "--seed",
            &seed.to_string(),
            "--dir",
        ])
        .arg(dir)
        .status()
        .map_err(|e| format!("gen: {e}"))?;
    if !status.success() {
        return Err(format!("input generation failed ({status})"));
    }
    let specs = jobs::job_list(workload);
    let mut inputs = Vec::with_capacity(specs.len());
    for spec in specs {
        let path = dir.join(format!("{}.bench", spec.name));
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        inputs.push((spec, text));
    }
    // The `--out` path of each job, relative to the checkout root, as the
    // CLI comparison passes it.
    let out_paths: Vec<String> = inputs
        .iter()
        .map(|(spec, _)| {
            let p = dir.join(format!("{}.out.bench", spec.name));
            p.strip_prefix(root).unwrap_or(&p).display().to_string()
        })
        .collect();

    // Closed loop: one client, one job at a time, whole passes.
    let mut probe = host::Probe::new();
    let loop_start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced_passes: Vec<Pass> = Vec::new();
    loop {
        let keep = plain.is_empty();
        plain.push(run_pass(
            &mut probe, &inputs, &out_paths, threads, false, keep,
        ));
        if traced {
            traced_passes.push(run_pass(
                &mut probe, &inputs, &out_paths, threads, true, false,
            ));
        }
        let min_passes = if traced { MIN_TRACED_PAIRS } else { MIN_PASSES };
        if plain.len() >= min_passes && loop_start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let peak_rss = host::peak_rss_mb().unwrap_or(0.0);

    // Everything below runs after the clock stopped.
    let names: Vec<String> = inputs.iter().map(|(s, _)| s.name.clone()).collect();
    let mut outputs: Vec<Option<JobOutput>> =
        plain[0].jobs.iter_mut().map(|d| d.output.take()).collect();
    let mut problems: Vec<String> = Vec::new();
    let mut failed_jobs = vec![false; inputs.len()];
    for (i, out) in outputs.iter().enumerate() {
        if let Some(out) = out {
            let fails = referee::check(&names[i], out);
            failed_jobs[i] |= !fails.is_empty();
            problems.extend(fails);
        }
    }
    let parity = cli_parity(tpi, &inputs, &out_paths, &outputs, dir, threads);
    for p in &parity {
        if let Some(i) = names.iter().position(|n| p.starts_with(n.as_str())) {
            failed_jobs[i] = true;
        }
    }
    problems.extend(parity);

    // Digests: every pass, traced or not, must reproduce the first.
    let digest = plain[0].digest();
    for (p, pass) in plain.iter().chain(&traced_passes).enumerate() {
        for (i, d) in pass.jobs.iter().enumerate() {
            if let Some(e) = &d.error {
                problems.push(format!("{} (pass {p}): {e}", names[i]));
                failed_jobs[i] = true;
            } else if d.digest != plain[0].jobs[i].digest {
                problems.push(format!(
                    "{} (pass {p}): output digest differs from pass 0",
                    names[i]
                ));
                failed_jobs[i] = true;
            }
        }
    }

    let counts: Vec<JobCounts> = inputs
        .iter()
        .zip(outputs.iter_mut())
        .map(|((spec, _), out)| {
            out.as_mut()
                .map_or_else(JobCounts::default, |o| JobCounts::of(spec.kind, o))
        })
        .collect();
    drop(outputs);

    // attempted / failed count every job execution; a job that failed a
    // referee or the CLI comparison counts as failed in every pass.
    let executions = plain.len() + traced_passes.len();
    let attempted = inputs.len() * executions;
    let failed = failed_jobs.iter().filter(|&&f| f).count() * executions;
    let correct = problems.is_empty();

    // End-to-end metrics, from the untraced passes only, with timings
    // scaled to the host's nominal speed (see `host::Probe`).
    let probes: Vec<f64> = plain
        .iter()
        .flat_map(|p| p.probes.iter().map(|&ns| ns as f64))
        .collect();
    // Below 1 when the host ran slower than nominal.
    let scale = host::Probe::NOMINAL_NS / median(&probes);
    // Each job's median latency over the passes; `job_ms.p50` is the
    // median of these over the job list. (Pooling every sample instead
    // lets pass-to-pass host noise move the median between neighbouring
    // jobs of different size.)
    let job_ms: Vec<f64> = (0..inputs.len())
        .map(|i| {
            let ms: Vec<f64> = plain
                .iter()
                .map(|p| p.jobs[i].latency.as_secs_f64() * 1e3)
                .collect();
            median(&ms)
        })
        .collect();
    let samples = inputs.len() * plain.len();
    let loop_wall: f64 = plain.iter().map(|p| p.wall.as_secs_f64()).sum();
    let unscaled = vec![
        Metric {
            name: "setup_s",
            value: median(
                &plain
                    .iter()
                    .map(|p| p.setup.as_secs_f64())
                    .collect::<Vec<_>>(),
            ),
            unit: "s",
        },
        Metric {
            name: "jobs_per_s",
            value: samples as f64 / loop_wall,
            unit: "1/s",
        },
        Metric {
            name: "job_ms.p50",
            value: median(&job_ms),
            unit: "ms",
        },
    ];
    let coverage_pct =
        counts.iter().map(|c| c.coverage_pct).sum::<f64>() / counts.len().max(1) as f64;
    let mut e2e: Vec<Metric> = unscaled
        .iter()
        .map(|m| Metric {
            value: if m.name == "jobs_per_s" {
                m.value / scale
            } else {
                m.value * scale
            },
            ..m.clone()
        })
        .collect();
    e2e.extend([
        Metric {
            name: "peak_rss_mb",
            value: peak_rss,
            unit: "MB",
        },
        Metric {
            name: "coverage_pct",
            value: coverage_pct,
            unit: "%",
        },
    ]);
    // Outcome figures: deterministic per seed, printed and recorded.
    let outcomes = vec![
        Metric {
            name: "failed_ratio",
            value: failed as f64 / attempted.max(1) as f64,
            unit: "ratio",
        },
        Metric {
            name: "plan_cost",
            value: counts.iter().map(|c| c.plan_cost).sum(),
            unit: "cost",
        },
        Metric {
            name: "undecided_faults",
            value: counts.iter().map(|c| c.undecided as f64).sum(),
            unit: "count",
        },
        Metric {
            name: "patterns_before",
            value: counts.iter().map(|c| c.patterns_before as f64).sum(),
            unit: "count",
        },
        Metric {
            name: "patterns_after",
            value: counts.iter().map(|c| c.patterns_after as f64).sum(),
            unit: "count",
        },
    ];

    println!(
        "tpibench {}: seed {seed}, {} jobs, {} untraced pass(es){}, {threads} thread(s)",
        workload.name(),
        inputs.len(),
        plain.len(),
        if traced {
            format!(" + {} traced", traced_passes.len())
        } else {
            String::new()
        }
    );
    for m in e2e.iter().chain(&outcomes) {
        let note = if m.name == "job_ms.p50" {
            format!(
                "  (n = {samples}: {} jobs x {} passes)",
                inputs.len(),
                plain.len()
            )
        } else {
            String::new()
        };
        println!(
            "  {:<18} {:>14} {}{note}",
            m.name,
            json_num(m.value),
            m.unit
        );
    }
    println!(
        "  host speed         {} (probe median {} ms, nominal {} ms); unscaled: {}",
        json_num(scale),
        json_num(median(&probes) / 1e6),
        json_num(host::Probe::NOMINAL_NS / 1e6),
        unscaled
            .iter()
            .map(|m| format!("{} {} {}", m.name, json_num(m.value), m.unit))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("  output digest      {digest}");
    for p in &problems {
        println!("  FAILED: {p}");
    }

    let mut results_extra = format!(
        ", \"host_speed\": {{\"scale\": {}, \"probe_ns_median\": {}, \"unscaled\": {}, \"pass_probe_ns\": [{}]}}",
        json_num(scale),
        json_num(median(&probes)),
        report::metrics_json(&unscaled),
        plain
            .iter()
            .map(|p| format!(
                "[{}]",
                p.probes
                    .iter()
                    .map(|ns| ns.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let mut metrics = e2e.clone();
    if traced {
        // Untraced and traced passes alternate, one of each per pair.
        let traced_wall: f64 = traced_passes.iter().map(|p| p.wall.as_secs_f64()).sum();
        let overhead_pct = 100.0 * (traced_wall - loop_wall) / loop_wall;
        let passes: Vec<Vec<trace::Span>> = traced_passes
            .iter_mut()
            .map(|p| std::mem::take(&mut p.spans))
            .collect();
        let layers = report::layer_report(&passes, &counts, overhead_pct, &names);
        print!("{}", layers.text);
        for m in &layers.metrics {
            println!("  {:<30} {:>16} {}", m.name, json_num(m.value), m.unit);
        }
        results_extra.push_str(&format!(", \"accounting\": {}", layers.accounting_json));
        if let Some(ladder) = &layers.ladder_json {
            results_extra.push_str(&format!(", \"size_ladder\": {ladder}"));
        }
        metrics = layers.metrics;
        write_spans(root, workload, seed, &passes, &names)?;
    }

    let fingerprint: Vec<String> = host::fingerprint(root, threads, seed)
        .into_iter()
        .map(|(k, v)| format!("{}: {v}", json_str(k)))
        .collect();
    let job_digests: Vec<String> = names
        .iter()
        .zip(&plain[0].jobs)
        .map(|(n, d)| format!("{}: {}", json_str(n), json_str(&d.digest)))
        .collect();
    let job_ms_json: Vec<String> = names
        .iter()
        .zip(&job_ms)
        .map(|(n, ms)| format!("{}: {}", json_str(n), json_num(*ms)))
        .collect();
    let job_ms_passes: Vec<String> = names
        .iter()
        .enumerate()
        .map(|(i, n)| {
            let ms: Vec<String> = plain
                .iter()
                .map(|p| json_num(p.jobs[i].latency.as_secs_f64() * 1e3))
                .collect();
            format!("{}: [{}]", json_str(n), ms.join(", "))
        })
        .collect();
    let results = format!(
        "{{\"workload\": {}, \"trace\": {traced}, \"host\": {{{}}}, \"passes\": {}, \"traced_passes\": {}, \
         \"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"end_to_end\": {}, \"outcomes\": {}, \"per_layer\": {}, \"digest\": {}, \"job_digests\": {{{}}}, \"job_ms_p50\": {{{}}}, \"job_ms_passes\": {{{}}}, \"pass_wall_s\": [{}], \
         \"problems\": [{}]{results_extra}}}\n",
        json_str(workload.name()),
        fingerprint.join(", "),
        plain.len(),
        traced_passes.len(),
        report::metrics_json(&e2e),
        report::metrics_json(&outcomes),
        if traced { report::metrics_json(&metrics) } else { "null".into() },
        json_str(&digest),
        job_digests.join(", "),
        job_ms_json.join(", "),
        job_ms_passes.join(", "),
        plain.iter().map(|p| json_num(p.wall.as_secs_f64())).collect::<Vec<_>>().join(", "),
        problems.iter().map(|p| json_str(p)).collect::<Vec<_>>().join(", "),
    );
    let results_dir = root.join(".bench_results");
    std::fs::create_dir_all(&results_dir).map_err(|e| e.to_string())?;
    let path = results_dir.join(format!(
        "{}-s{seed}-t{}.json",
        workload.name(),
        u8::from(traced)
    ));
    std::fs::write(&path, results).map_err(|e| format!("{}: {e}", path.display()))?;
    println!(
        "  results            {}",
        path.strip_prefix(root).unwrap_or(&path).display()
    );

    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        report::metrics_json(&metrics)
    );
    Ok(())
}

/// The traced passes' spans, one JSON object per line.
fn write_spans(
    root: &Path,
    workload: Workload,
    seed: u64,
    passes: &[Vec<trace::Span>],
    names: &[String],
) -> Result<(), String> {
    let mut text = String::new();
    for (p, pass) in passes.iter().enumerate() {
        for s in pass {
            text.push_str(&format!(
                "{{\"pass\": {p}, \"id\": {}, \"parent\": {}, \"job\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"derived\": {}}}\n",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                json_str(&names[s.job]),
                json_str(s.name),
                s.start_ns,
                s.end_ns,
                s.derived
            ));
        }
    }
    let path = root
        .join(".bench_results")
        .join(format!("{}-s{seed}-t1.spans.jsonl", workload.name()));
    std::fs::create_dir_all(root.join(".bench_results")).map_err(|e| e.to_string())?;
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}
