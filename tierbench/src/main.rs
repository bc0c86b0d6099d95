//! `tierbench`: the repository benchmark.
//!
//! ```text
//! tierbench run [--workload W]... [--seed N] [--trace 0|1|DIR] [--out FILE]
//! tierbench compare A.json... -- B.json...
//! ```
//!
//! `run` measures each workload (all of them by default) in a sequence
//! of child processes, one at a time: each child sets up, runs one
//! untimed warm-up iteration and a fixed number of timed iterations, and
//! the parent starts children until the timed iterations add up to
//! `run_seconds` of `BENCHMARK.json` (at least three children, so set-up
//! is measured several times). The run length is the benchmark's own:
//! `--seconds S` is accepted only when it restates `run_seconds`, so
//! every run measures the same length. Every output is checked. Per workload the run prints each
//! metric with its unit and, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics of `BENCHMARK.json`, or with `--trace` the
//! per-layer ones. `--trace DIR` also writes the spans to
//! `DIR/<workload>.trace.json`; `--out FILE` writes the results file
//! that `compare` reads. The exit code is non-zero if any check failed.
//!
//! `compare` sets baseline runs (before `--`) against candidate runs and
//! gives each end-to-end metric a verdict against its bound; results of
//! the same seed must have identical output digests.

mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use serde::Content;
use tierbench::compare::{compare_files, ResultsFile};
use tierbench::report::{ChildReport, IterationRecord};
use tierbench::spec::Spec;
use tierbench::stats::{median, percentile, reportable};
use workloads::{run_child, ChildConfig, Workload};

const USAGE: &str = "usage: tierbench run [--workload W]... [--seed N] \
                     [--trace 0|1|DIR] [--out FILE]\n       tierbench compare A.json... -- B.json...";

/// Children per workload run, at least: `setup_s` is their median.
const MIN_CHILDREN: usize = 3;
/// No child starts once the run would pass this wall time, so a run
/// ends well within three minutes even on a slowed machine.
const WALL_LIMIT: Duration = Duration::from_secs(150);
/// Scratch directories of the children, under the working directory.
const WORK_ROOT: &str = ".tierbench";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => run(&args[1..]),
        Some("compare") => compare_results(&args[1..]),
        Some("child") => child(&args[1..]),
        _ => Err(USAGE.to_string()),
    };
    result.unwrap_or_else(|message| {
        eprintln!("tierbench: {message}");
        ExitCode::from(2)
    })
}

/// `--flag value` pairs.
fn flags(args: &[String]) -> Result<Vec<(&str, &str)>, String> {
    args.chunks(2)
        .map(|pair| match pair {
            [k, v] if k.starts_with("--") => Ok((k.as_str(), v.as_str())),
            _ => Err(format!("expected --flag value, got {pair:?}\n{USAGE}")),
        })
        .collect()
}

fn parse<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot parse {value:?}"))
}

fn workload(name: &str) -> Result<Workload, String> {
    Workload::from_name(name).ok_or(format!("unknown workload {name:?}"))
}

// ---------------------------------------------------------------------------
// child
// ---------------------------------------------------------------------------

fn child(args: &[String]) -> Result<ExitCode, String> {
    let mut cfg = ChildConfig {
        workload: Workload::PriceDup,
        seed: 0,
        first: 1,
        iterations: 1,
        trace: false,
        trace_file: None,
        work_dir: PathBuf::from(WORK_ROOT),
    };
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => cfg.workload = workload(value)?,
            "--seed" => cfg.seed = parse(flag, value)?,
            "--first" => cfg.first = parse(flag, value)?,
            "--iterations" => cfg.iterations = parse(flag, value)?,
            "--trace" => cfg.trace = value == "1",
            "--trace-file" => cfg.trace_file = Some(PathBuf::from(value)),
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown child flag {flag}")),
        }
    }
    print!("{}", run_child(&cfg).to_text());
    Ok(ExitCode::SUCCESS)
}

// ---------------------------------------------------------------------------
// run
// ---------------------------------------------------------------------------

struct RunOptions {
    workloads: Vec<Workload>,
    seed: u64,
    trace: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

/// All children of one workload.
struct WorkloadRun {
    workload: Workload,
    children: Vec<ChildReport>,
    /// Failures found by the parent (crashed children, disagreeing
    /// digests).
    failures: Vec<String>,
    /// Chrome trace events of the traced children, comma-separated.
    trace_events: Vec<String>,
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let mut opts = RunOptions {
        workloads: Vec::new(),
        seed: 42,
        trace: false,
        trace_dir: None,
        out: None,
    };
    for (flag, value) in flags(args)? {
        match flag {
            "--workload" => opts.workloads.push(workload(value)?),
            "--seed" => opts.seed = parse(flag, value)?,
            "--seconds" => {
                if parse::<f64>(flag, value)? != spec.run_seconds {
                    return Err(format!(
                        "--seconds: the run length is run_seconds of BENCHMARK.json ({})",
                        spec.run_seconds
                    ));
                }
            }
            "--trace" => {
                opts.trace = value != "0";
                if value != "0" && value != "1" {
                    opts.trace_dir = Some(PathBuf::from(value));
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}\n{USAGE}")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::ALL.to_vec();
    }

    let mut all_correct = true;
    let mut results = Vec::new();
    for &w in &opts.workloads {
        let r = run_workload(w, &opts, spec.run_seconds)?;
        let (correct, line) = report(&r, &opts, &spec);
        all_correct &= correct;
        if let Some(dir) = &opts.trace_dir {
            write_trace(dir, &r)?;
        }
        results.push(results_entry(&r, &spec));
        println!("{line}");
    }
    if let Some(path) = &opts.out {
        let file = Content::Map(vec![
            ("schema".into(), Content::Str("tierbench/results/v1".into())),
            ("seed".into(), Content::U64(opts.seed)),
            ("traced".into(), Content::Bool(opts.trace)),
            ("workloads".into(), Content::Seq(results)),
        ]);
        let text = serde_json::to_string_pretty(&file).expect("results serialize");
        std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// Starts children for `w` until `seconds` of timed iterations ran. A
/// traced run starts them in pairs on the same iterations, one untraced
/// and one traced, so the tracing overhead is measured on identical
/// inputs.
fn run_workload(w: Workload, opts: &RunOptions, seconds: f64) -> Result<WorkloadRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let per_child = w.iterations_per_child();
    let start = Instant::now();
    let mut run = WorkloadRun {
        workload: w,
        children: Vec::new(),
        failures: Vec::new(),
        trace_events: Vec::new(),
    };
    let mut timed_s = 0.0;
    let mut slowest = Duration::ZERO;
    while run.children.len() < MIN_CHILDREN
        || (opts.trace && run.children.len() % 2 == 1)
        || (timed_s < seconds && start.elapsed() + slowest < WALL_LIMIT)
    {
        let index = run.children.len() as u64;
        let (slot, traced) = if opts.trace {
            (index / 2, index % 2 == 1)
        } else {
            (index, false)
        };
        let first = 1 + slot * per_child;
        let work_dir =
            Path::new(WORK_ROOT).join(format!("{}-{}-{index}", std::process::id(), w.name()));
        std::fs::create_dir_all(&work_dir).map_err(|e| format!("{}: {e}", work_dir.display()))?;
        let trace_file = work_dir.join("trace-events");
        let mut command = Command::new(&exe);
        command.arg("child");
        if traced && opts.trace_dir.is_some() {
            command.arg("--trace-file").arg(&trace_file);
        }
        let began = Instant::now();
        let output = command
            .args(["--workload", w.name()])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--first", &first.to_string()])
            .args(["--iterations", &per_child.to_string()])
            .args(["--trace", if traced { "1" } else { "0" }])
            .arg("--work-dir")
            .arg(&work_dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot start a child: {e}"))?;
        if let Ok(events) = std::fs::read_to_string(&trace_file) {
            run.trace_events.push(events);
        }
        let _ = std::fs::remove_dir_all(&work_dir);
        slowest = slowest.max(began.elapsed());
        let parsed = ChildReport::from_text(&String::from_utf8_lossy(&output.stdout));
        let report = match (output.status.success(), parsed) {
            (true, Ok(report)) => report,
            (_, parsed) => {
                run.failures.push(format!(
                    "child {index} failed ({}): {}",
                    output.status,
                    parsed.err().unwrap_or_default()
                ));
                ChildReport {
                    traced,
                    attempted: per_child + 2,
                    ..ChildReport::default()
                }
            }
        };
        timed_s += report.iterations.iter().map(|r| r.wall_s).sum::<f64>();
        run.children.push(report);
    }
    let _ = std::fs::remove_dir(WORK_ROOT);

    // Children that ran the same iteration must agree on its outputs.
    let warmups: Vec<Option<u64>> = run.children.iter().map(|c| c.warmup_digest).collect();
    if warmups.windows(2).any(|p| p[0] != p[1]) {
        run.failures.push(format!(
            "warm-up digests differ between children: {warmups:x?}"
        ));
    }
    let mut seen = BTreeMap::new();
    for r in run.children.iter().flat_map(|c| &c.iterations) {
        if let Some(d) = r.digest {
            if *seen.entry(r.i).or_insert(d) != d {
                run.failures.push(format!(
                    "iteration {}: digests differ between children",
                    r.i
                ));
            }
        }
    }
    Ok(run)
}

impl WorkloadRun {
    fn iterations(&self, traced: bool) -> impl Iterator<Item = &IterationRecord> {
        self.children
            .iter()
            .filter(move |c| c.traced == traced)
            .flat_map(|c| &c.iterations)
            .filter(|r| r.digest.is_some())
    }

    /// Wall times of the successful iterations, traced or not.
    fn walls(&self, traced: bool) -> Vec<f64> {
        self.iterations(traced).map(|r| r.wall_s).collect()
    }

    fn attempted(&self) -> u64 {
        self.children.iter().map(|c| c.attempted).sum()
    }

    fn failures(&self) -> Vec<&str> {
        self.children
            .iter()
            .flat_map(|c| &c.failures)
            .chain(&self.failures)
            .map(String::as_str)
            .collect()
    }

    /// End-to-end metrics, from the untraced children.
    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let untraced: Vec<&IterationRecord> = self.iterations(false).collect();
        let wall: f64 = untraced.iter().map(|r| r.wall_s).sum();
        let items: u64 = untraced.iter().map(|r| r.items).sum();
        let cpu: f64 = untraced.iter().map(|r| r.cpu_s).sum();
        let of_children = |f: fn(&ChildReport) -> f64| {
            let values: Vec<f64> = self.children.iter().filter(|c| !c.traced).map(f).collect();
            median(&values).unwrap_or(f64::NAN)
        };
        BTreeMap::from([
            ("iter_p50_s", median(&self.walls(false)).unwrap_or(f64::NAN)),
            ("items_per_s", items as f64 / wall),
            ("cpu_s", cpu / untraced.len() as f64),
            (
                "peak_rss_mb",
                of_children(|c| c.peak_rss_kb as f64 / 1024.0),
            ),
            ("setup_s", of_children(|c| c.setup_s)),
        ])
    }

    /// Tracing overhead: traced minus untraced median iteration time, as
    /// a percentage of the untraced one.
    fn trace_overhead_pct(&self) -> f64 {
        let (on, off) = (median(&self.walls(true)), median(&self.walls(false)));
        on.zip(off)
            .map_or(f64::NAN, |(on, off)| (on - off) / off * 100.0)
    }

    /// Median of a per-layer metric over the traced iterations (a layer
    /// an iteration did not reach counts 0), else over the set-ups.
    fn layer(&self, name: &str) -> f64 {
        if name == "trace.overhead_pct" {
            return self.trace_overhead_pct();
        }
        let traced = || self.children.iter().filter(|c| c.traced);
        let iterations: Vec<&BTreeMap<String, f64>> =
            traced().flat_map(|c| c.layers.values()).collect();
        let setups: Vec<&BTreeMap<String, f64>> = traced().map(|c| &c.setup_layers).collect();
        for maps in [iterations, setups] {
            if maps.iter().any(|m| m.contains_key(name)) {
                let values: Vec<f64> = maps
                    .iter()
                    .map(|m| m.get(name).copied().unwrap_or(0.0))
                    .collect();
                return median(&values).unwrap_or(0.0);
            }
        }
        0.0
    }

    /// The end-to-end metrics of `spec`, in its order, with their units.
    fn end_to_end_metrics<'s>(&self, spec: &'s Spec) -> Vec<(&'s str, f64, &'s str)> {
        let values = self.end_to_end();
        spec.end_to_end
            .iter()
            .map(|m| {
                let value = values.get(m.name.as_str()).copied().unwrap_or(f64::NAN);
                (m.name.as_str(), value, m.unit.as_str())
            })
            .collect()
    }

    /// `(iteration, digest)` of the warm-up and every timed iteration.
    fn digests(&self) -> Vec<(u64, u64)> {
        let warmup = self.children.first().and_then(|c| c.warmup_digest);
        warmup
            .map(|d| (0, d))
            .into_iter()
            .chain(
                self.iterations(false)
                    .filter_map(|r| Some((r.i, r.digest?))),
            )
            .collect()
    }
}

fn metric_json(values: &[(&str, f64, &str)]) -> Content {
    Content::Map(
        values
            .iter()
            .map(|&(name, value, unit)| {
                (
                    name.to_string(),
                    Content::Map(vec![
                        ("value".into(), Content::F64(value)),
                        ("unit".into(), Content::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Prints the workload's metrics; returns whether every check passed
/// and the result line.
fn report(r: &WorkloadRun, opts: &RunOptions, spec: &Spec) -> (bool, String) {
    let failures = r.failures();
    let attempted = r.attempted();
    let n_timed = r.walls(false).len();
    let n_traced = r.walls(true).len();
    println!(
        "== {} (seed {}): {} timed iterations{} in {} child processes, {} threads",
        r.workload.name(),
        opts.seed,
        n_timed + n_traced,
        if opts.trace {
            format!(" ({n_traced} traced)")
        } else {
            String::new()
        },
        r.children.len(),
        std::thread::available_parallelism().map_or(1, usize::from),
    );
    for f in &failures {
        println!("   FAILED: {f}");
    }

    let end_to_end = r.end_to_end_metrics(spec);
    println!(
        "   end-to-end ({n_timed} untraced iterations; set-up and memory: median of {} children)",
        r.children.len()
    );
    for (name, value, unit) in &end_to_end {
        println!("   {name:<40} {value:>14.6} {unit}");
    }
    let walls = r.walls(false);
    match percentile(&walls, 90.0) {
        Some(p90) if reportable(walls.len(), 90.0) => {
            println!("   {:<40} {p90:>14.6} s", "iter_p90_s")
        }
        _ => println!("   {:<40} {:>14} (needs 100 samples)", "iter_p90_s", "-"),
    }
    println!(
        "   {:<40} {:>14.6} failed/attempted ({}/{attempted})",
        "failed_ratio",
        failures.len() as f64 / attempted.max(1) as f64,
        failures.len()
    );

    let metrics = if opts.trace {
        let per_layer: Vec<(&str, f64, &str)> = spec
            .per_layer
            .iter()
            .map(|m| (m.name.as_str(), r.layer(&m.name), m.unit.as_str()))
            .collect();
        println!("   per-layer (median per traced iteration, {n_traced} samples)");
        for (name, value, unit) in &per_layer {
            println!("   {name:<40} {value:>14.6} {unit}");
        }
        metric_json(&per_layer)
    } else {
        metric_json(&end_to_end)
    };
    let correct = failures.is_empty();
    let line = Content::Map(vec![
        ("correct".into(), Content::Bool(correct)),
        ("attempted".into(), Content::U64(attempted)),
        ("failed".into(), Content::U64(failures.len() as u64)),
        ("metrics".into(), metrics),
    ]);
    (
        correct,
        serde_json::to_string(&line).expect("result line serializes"),
    )
}

fn results_entry(r: &WorkloadRun, spec: &Spec) -> Content {
    Content::Map(vec![
        ("name".into(), Content::Str(r.workload.name().into())),
        ("attempted".into(), Content::U64(r.attempted())),
        ("failed".into(), Content::U64(r.failures().len() as u64)),
        ("metrics".into(), metric_json(&r.end_to_end_metrics(spec))),
        // `[iteration, high 32 bits, low 32 bits]`: JSON numbers hold
        // 53 bits, and numbers keep the results file quick to parse.
        (
            "digests".into(),
            Content::Seq(
                r.digests()
                    .into_iter()
                    .map(|(i, d)| {
                        Content::Seq(vec![
                            Content::U64(i),
                            Content::U64(d >> 32),
                            Content::U64(d & 0xFFFF_FFFF),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn write_trace(dir: &Path, r: &WorkloadRun) -> Result<(), String> {
    let events: Vec<&str> = r
        .trace_events
        .iter()
        .map(String::as_str)
        .filter(|e| !e.is_empty())
        .collect();
    let trace = format!(
        "{{\"traceEvents\":[{}],\"displayTimeUnit\":\"ms\"}}",
        events.join(",")
    );
    let path = dir.join(format!("{}.trace.json", r.workload.name()));
    std::fs::create_dir_all(dir)
        .and_then(|()| std::fs::write(&path, trace))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("   trace: {}", path.display());
    Ok(())
}

// ---------------------------------------------------------------------------
// compare
// ---------------------------------------------------------------------------

fn compare_results(args: &[String]) -> Result<ExitCode, String> {
    let split = args.iter().position(|a| a == "--").ok_or(format!(
        "compare needs baseline and candidate files around --\n{USAGE}"
    ))?;
    let load = |paths: &[String]| {
        paths
            .iter()
            .map(|p| {
                let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
                ResultsFile::parse(p, &text)
            })
            .collect::<Result<Vec<_>, _>>()
    };
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    if a.is_empty() || b.is_empty() {
        return Err(format!("compare needs files on both sides of --\n{USAGE}"));
    }
    let result = compare_files(&Spec::load(), &a, &b);

    println!(
        "{:<20} {:<14} {:>46} {:>46} {:>8} {:>6}  verdict",
        "workload",
        "metric",
        "baseline median [q1, q3]",
        "candidate median [q1, q3]",
        "worse",
        "won"
    );
    for row in &result.rows {
        let c = &row.comparison;
        println!(
            "{:<20} {:<14} {:>46} {:>46} {:>7.1}% {:>6}  {}{}",
            row.workload,
            row.metric,
            format!("{:.6} [{:.6}, {:.6}]", c.a.median, c.a.q1, c.a.q3),
            format!("{:.6} [{:.6}, {:.6}]", c.b.median, c.b.q1, c.b.q3),
            c.worse_by * 100.0,
            format!("{}/{}", c.pairs_won, c.pairs),
            c.verdict.label(),
            if c.gain { " (gain rule met)" } else { "" },
        );
    }
    for problem in &result.problems {
        println!("not comparable: {problem}");
    }
    Ok(if result.clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
