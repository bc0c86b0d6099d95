//! The workloads: the inputs each iteration gets, the program calls it
//! times, and the checks on its outputs. Runs inside one child process.
//!
//! Only user-facing entry points are called: the collector, traffic
//! matrix and join of the NetFlow pipeline, the fitters, coalescing and
//! `capture_curves` of the model core, and `runners::run` with
//! `ExperimentResult::to_json`. Everything else (thread knobs, caches)
//! stays at the program's defaults, so the benchmark survives their
//! removal; a counter that no longer exists reads as 0.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::Instant;

use serde_json::Value;
use tierbench::report::{ChildReport, IterationRecord};
use tierbench::sys::{peak_rss_kb, process_cpu_seconds};
use tierbench::trace::{chrome_events, self_seconds_by_iteration, Tracer};
use tierbench::{iter_seed, Fnv1a};
use transit_core::bundling::{BundlingStrategy, StrategyKind};
use transit_core::capture::{capture_curves, CaptureCurve};
use transit_core::coalesce::CoalescedMarket;
use transit_core::cost::LinearCost;
use transit_core::demand::ced::CedAlpha;
use transit_core::demand::logit::LogitAlpha;
use transit_core::fitting::{fit_ced, fit_logit};
use transit_core::market::{CedMarket, LogitMarket};
use transit_datasets::{
    export_wire, generate, generate_replicated, join_measured, Dataset, Network, PipelineConfig,
};
use transit_experiments::{runners, ExperimentConfig};
use transit_netflow::{Collector, TrafficMatrix};

/// The benchmark's workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 1,000 distinct EU-ISP flows × 1,000 replicas, unsampled, 2 routers.
    PriceDup,
    /// 2,500 distinct CDN flows, 1-in-10 sampled, 3 routers.
    PriceDistinct,
    /// The 22-experiment `full` suite, storeless.
    PaperFull,
    /// The `full` suite resumed from a store filled during set-up.
    PaperResume,
}

impl Workload {
    /// Every workload.
    pub const ALL: [Workload; 4] = [
        Workload::PriceDup,
        Workload::PriceDistinct,
        Workload::PaperFull,
        Workload::PaperResume,
    ];

    /// Name as in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PriceDup => "price-1m-dup",
            Workload::PriceDistinct => "price-2k5-distinct",
            Workload::PaperFull => "paper-full",
            Workload::PaperResume => "paper-resume",
        }
    }

    /// The workload called `name`.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Timed iterations per child process. The program's fingerprint
    /// cache keeps every fresh market's DP artifacts for the life of the
    /// process (about 200 MB per 2,500-flow CED + logit pair), so a
    /// child runs a fixed number of iterations: memory stays bounded and
    /// peak RSS does not depend on how fast the iterations are. Each
    /// `paper-resume` child fills, and its parent deletes, a fresh
    /// artifact store of ~200 fsynced files, so it runs long children.
    pub fn iterations_per_child(self) -> u64 {
        match self {
            Workload::PriceDup => 4,
            Workload::PriceDistinct => 3,
            Workload::PaperFull => 5,
            Workload::PaperResume => 1500,
        }
    }
}

/// What one child process runs.
#[derive(Debug, Clone)]
pub struct ChildConfig {
    /// The workload.
    pub workload: Workload,
    /// The run's seed.
    pub seed: u64,
    /// Index of the first timed iteration.
    pub first: u64,
    /// Timed iterations to run.
    pub iterations: u64,
    /// Record spans and per-layer values.
    pub trace: bool,
    /// Where to write the spans as comma-separated Chrome trace events.
    pub trace_file: Option<PathBuf>,
    /// Scratch directory the child may create (the artifact store).
    pub work_dir: PathBuf,
}

/// A check's verdict on one iteration's outputs.
struct Checked {
    digest: u64,
    items: u64,
    /// Per-layer values derived from the outputs.
    layers: Vec<(&'static str, f64)>,
}

/// The parts of a workload the iteration loop drives.
trait Runner {
    type Input;
    type Output;

    /// Untimed work before the warm-up.
    fn setup(&mut self, _tr: &mut Tracer) -> Result<(), String> {
        Ok(())
    }

    /// Builds iteration `i`'s inputs (untimed).
    fn prepare(&mut self, i: u64, tr: &mut Tracer) -> Self::Input;

    /// The timed program work.
    fn iterate(&mut self, input: &Self::Input, tr: &mut Tracer) -> Result<Self::Output, String>;

    /// Checks the outputs.
    fn check(&self, input: &Self::Input, output: &Self::Output) -> Result<Checked, String>;
}

/// Runs `f`, turning a panic into an error.
fn guarded<T>(f: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|panic| {
        Err(match panic.downcast_ref::<&str>() {
            Some(s) => format!("panic: {s}"),
            None => match panic.downcast_ref::<String>() {
                Some(s) => format!("panic: {s}"),
                None => "panic".to_string(),
            },
        })
    })
}

/// Registry counters whose per-iteration deltas are per-layer metrics.
const COUNTERS: [(&str, &str); 13] = [
    ("netflow.datagrams", "netflow.collector.datagrams"),
    ("netflow.records", "netflow.collector.records"),
    ("netflow.decode_errors", "netflow.collector.decode_errors"),
    ("netflow.lost_records", "netflow.collector.lost_records"),
    ("cache.order_builds", "cache.order.builds"),
    ("cache.segment_memo_builds", "cache.segment_memo.builds"),
    ("pool.tasks_executed", "pool.tasks.executed"),
    ("pool.tasks_inline", "pool.tasks.inline"),
    ("pool.steals", "pool.steals"),
    ("pool.parks", "pool.parks"),
    ("stage.store_misses", "stage.store.misses"),
    ("stage.store_corrupt", "stage.store.corrupt"),
    ("stage.store_save_errors", "stage.store.save_errors"),
];

fn counter_values() -> [u64; COUNTERS.len()] {
    COUNTERS.map(|(_, name)| transit_obs::metrics::counter(name).get())
}

/// Runs one child: set-up, one untimed warm-up iteration (index 0), then
/// the timed iterations.
pub fn run_child(cfg: &ChildConfig) -> ChildReport {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    transit_pool::set_thread_budget(cores);
    match cfg.workload {
        Workload::PriceDup => drive(Pricing::new(cfg.seed, true), cfg),
        Workload::PriceDistinct => drive(Pricing::new(cfg.seed, false), cfg),
        Workload::PaperFull => drive(Paper::new(cfg.seed, None), cfg),
        Workload::PaperResume => drive(Paper::new(cfg.seed, Some(cfg.work_dir.join("store"))), cfg),
    }
}

fn drive<R: Runner>(mut runner: R, cfg: &ChildConfig) -> ChildReport {
    let mut rep = ChildReport {
        traced: cfg.trace,
        ..ChildReport::default()
    };
    let mut tr = Tracer::new();
    tr.set_enabled(cfg.trace);
    let start = Instant::now();

    rep.attempted += 1;
    if let Err(e) = guarded(|| runner.setup(&mut tr)) {
        rep.failures.push(format!("set-up: {e}"));
    }
    tr.set_iteration(Some(0));
    rep.attempted += 1;
    let warmup = guarded(|| {
        let input = runner.prepare(0, &mut tr);
        let output = runner.iterate(&input, &mut tr)?;
        runner.check(&input, &output)
    });
    match warmup {
        Ok(c) => rep.warmup_digest = Some(c.digest),
        Err(e) => rep.failures.push(format!("iteration 0 (warm-up): {e}")),
    }
    let mut setup_s = start.elapsed().as_secs_f64();

    for i in cfg.first..cfg.first + cfg.iterations {
        tr.set_iteration(Some(i));
        rep.attempted += 1;
        let t = Instant::now();
        let input = guarded(|| Ok(runner.prepare(i, &mut tr)));
        setup_s += t.elapsed().as_secs_f64();
        let input = match input {
            Ok(input) => input,
            Err(e) => {
                rep.failures.push(format!("iteration {i} inputs: {e}"));
                continue;
            }
        };

        let before = cfg.trace.then(counter_values);
        let cpu0 = process_cpu_seconds();
        let t = Instant::now();
        let output = guarded(|| tr.span("iteration", |tr| runner.iterate(&input, tr)));
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = process_cpu_seconds().zip(cpu0).map_or(0.0, |(b, a)| b - a);
        let after = cfg.trace.then(counter_values);

        let (digest, items) = match output.and_then(|o| runner.check(&input, &o)) {
            Ok(c) => {
                if let Some((before, after)) = before.zip(after) {
                    let layers = rep.layers.entry(i).or_default();
                    for (k, (metric, _)) in COUNTERS.iter().enumerate() {
                        layers.insert(
                            metric.to_string(),
                            after[k].saturating_sub(before[k]) as f64,
                        );
                    }
                    for (metric, v) in c.layers {
                        layers.insert(metric.to_string(), v);
                    }
                }
                (Some(c.digest), c.items)
            }
            Err(e) => {
                rep.failures.push(format!("iteration {i}: {e}"));
                (None, 0)
            }
        };
        rep.iterations.push(IterationRecord {
            i,
            wall_s,
            cpu_s,
            items,
            digest,
        });
    }

    for (iteration, names) in self_seconds_by_iteration(tr.spans()) {
        let target = match iteration {
            None => &mut rep.setup_layers,
            Some(i) => match rep.layers.get_mut(&i) {
                Some(layers) => layers,
                None => continue,
            },
        };
        for (name, seconds) in names {
            target.insert(format!("{name}_s"), seconds);
        }
    }
    rep.setup_s = setup_s;
    rep.peak_rss_kb = peak_rss_kb().unwrap_or(0);
    if let Some(path) = &cfg.trace_file {
        let events = chrome_events(tr.spans(), u64::from(std::process::id()));
        let text: Vec<String> = events
            .iter()
            .map(|e| serde_json::to_string(e).expect("trace events serialize"))
            .collect();
        if let Err(e) = std::fs::write(path, text.join(",")) {
            rep.failures
                .push(format!("trace file {}: {e}", path.display()));
        }
    }
    rep
}

// ---------------------------------------------------------------------------
// Pricing: NetFlow → matrix → join → fit → coalesce → capture curves
// ---------------------------------------------------------------------------

/// Largest bundle count of every capture curve.
const B_MAX: usize = 10;
/// Paper defaults (§4.2.2): CED/logit α, blended rate P0, linear-cost
/// θ, logit no-purchase share s0.
const ALPHA: f64 = 1.1;
const P0: f64 = 20.0;
const THETA: f64 = 0.2;
const S0: f64 = 0.2;
/// Slack on the capture invariants.
const TOL: f64 = 1e-9;
/// `price-1m-dup` shape: distinct base flows × replicas each.
const DUP_DISTINCT: usize = 1_000;
const DUP_REPLICAS: usize = 1_000;
/// `price-2k5-distinct` flow count.
const DISTINCT_FLOWS: usize = 2_500;

type Strategies = Vec<Box<dyn BundlingStrategy + Send + Sync>>;

struct Pricing {
    seed: u64,
    /// `price-1m-dup` (CED only) or `price-2k5-distinct` (CED + logit).
    dup: bool,
    pipeline: PipelineConfig,
    ced_strategies: Strategies,
    logit_strategies: Strategies,
}

struct PricingInput {
    dataset: Dataset,
    wire: Vec<bytes::Bytes>,
    offered_bytes: u64,
}

struct PricingOutput {
    records: u64,
    decode_errors: u64,
    /// Volume of the model-ready flows the join produced, bytes.
    joined_bytes: f64,
    groups: usize,
    coalesce_ratio: f64,
    curves: Vec<Vec<CaptureCurve>>,
}

fn strategy_refs(strategies: &Strategies) -> Vec<&(dyn BundlingStrategy + Sync)> {
    strategies
        .iter()
        .map(|s| s.as_ref() as &(dyn BundlingStrategy + Sync))
        .collect()
}

impl Pricing {
    fn new(seed: u64, dup: bool) -> Pricing {
        Pricing {
            seed,
            dup,
            pipeline: if dup {
                PipelineConfig {
                    sampling_rate: 1,
                    routers_on_path: 2,
                    ..PipelineConfig::default()
                }
            } else {
                PipelineConfig::default()
            },
            ced_strategies: StrategyKind::ALL.map(StrategyKind::build).into(),
            logit_strategies: StrategyKind::LOGIT.map(StrategyKind::build).into(),
        }
    }
}

impl Runner for Pricing {
    type Input = PricingInput;
    type Output = PricingOutput;

    fn prepare(&mut self, i: u64, tr: &mut Tracer) -> PricingInput {
        let seed = iter_seed(self.seed, i);
        let dataset = tr.span("datasets.generate", |_| {
            if self.dup {
                generate_replicated(Network::EuIsp, DUP_DISTINCT, DUP_REPLICAS, seed)
            } else {
                generate(Network::Cdn, DISTINCT_FLOWS, seed)
            }
        });
        let (wire, offered_bytes) =
            tr.span("datasets.export", |_| export_wire(&dataset, self.pipeline));
        PricingInput {
            dataset,
            wire,
            offered_bytes,
        }
    }

    fn iterate(&mut self, input: &PricingInput, tr: &mut Tracer) -> Result<PricingOutput, String> {
        let collector = tr.span("netflow.ingest", |_| {
            let mut c = Collector::new();
            c.ingest_batch(&input.wire);
            c
        });
        let measured = tr.span("netflow.measured", |_| collector.measured_flows());
        let matrix = tr.span("netflow.matrix", |_| TrafficMatrix::from_flows(&measured));
        let window = self.pipeline.window_secs;
        let flows = tr.span("datasets.join", |_| {
            join_measured(&input.dataset, &matrix, window)
        });
        let e = |err: transit_core::TransitError| err.to_string();
        let cost = LinearCost::new(THETA).map_err(e)?;

        let ced = tr.span("core.fit_ced", |_| {
            fit_ced(&flows, &cost, CedAlpha::new(ALPHA)?, P0).and_then(CedMarket::new)
        });
        let ced = tr
            .span("core.coalesce", |_| CoalescedMarket::new(ced?))
            .map_err(e)?;
        let ced_curves = tr
            .span("core.capture_curves.ced", |_| {
                capture_curves(&ced, &strategy_refs(&self.ced_strategies), B_MAX)
            })
            .map_err(e)?;
        let mut curves = vec![ced_curves];
        if !self.dup {
            let logit = tr.span("core.fit_logit", |_| {
                fit_logit(&flows, &cost, LogitAlpha::new(ALPHA)?, P0, S0).and_then(LogitMarket::new)
            });
            let logit = tr
                .span("core.coalesce", |_| CoalescedMarket::new(logit?))
                .map_err(e)?;
            curves.push(
                tr.span("core.capture_curves.logit", |_| {
                    capture_curves(&logit, &strategy_refs(&self.logit_strategies), B_MAX)
                })
                .map_err(e)?,
            );
        }
        let (_, records, decode_errors) = collector.stats();
        Ok(PricingOutput {
            records,
            decode_errors,
            joined_bytes: flows
                .iter()
                .map(|f| f.demand_mbps * 1e6 / 8.0 * window)
                .sum(),
            groups: ced.n_groups(),
            coalesce_ratio: ced.coalesce_ratio(),
            curves,
        })
    }

    fn check(&self, input: &PricingInput, out: &PricingOutput) -> Result<Checked, String> {
        if out.decode_errors > 0 {
            return Err(format!("{} datagrams failed to decode", out.decode_errors));
        }
        let measured_ratio = out.joined_bytes / input.offered_bytes as f64;
        if measured_ratio.is_nan() || measured_ratio < 0.9 {
            return Err(format!("measured/offered volume {measured_ratio} < 0.9"));
        }
        let min_ratio = DUP_REPLICAS as f64 / 2.0;
        if self.dup && out.coalesce_ratio < min_ratio {
            return Err(format!(
                "coalesce ratio {} < {min_ratio}",
                out.coalesce_ratio
            ));
        }
        let mut digest = Fnv1a::default();
        for set in &out.curves {
            check_curves(set)?;
            for c in set {
                digest.write(c.strategy.as_bytes());
                c.capture
                    .iter()
                    .chain(&c.profit)
                    .for_each(|&v| digest.write_f64(v));
            }
        }
        Ok(Checked {
            digest: digest.finish(),
            items: out.records,
            layers: vec![
                ("datasets.measured_ratio", measured_ratio),
                ("core.coalesce.groups", out.groups as f64),
                ("core.coalesce.ratio", out.coalesce_ratio),
            ],
        })
    }
}

/// Capture invariants of one market's curves, the DP optimal first:
/// capture is 0 at one bundle and at most 1 everywhere, and the optimal
/// curve is non-decreasing and at least every heuristic.
fn check_curves(curves: &[CaptureCurve]) -> Result<(), String> {
    let optimal = &curves.first().ok_or("no curves")?.capture;
    for c in curves {
        let name = &c.strategy;
        if c.capture.len() != B_MAX || c.capture.iter().any(|v| !v.is_finite()) {
            return Err(format!(
                "{name}: {} points, expected {B_MAX} finite",
                c.capture.len()
            ));
        }
        if c.capture[0].abs() > TOL {
            return Err(format!("{name}: capture at b=1 is {}", c.capture[0]));
        }
        if let Some(v) = c.capture.iter().find(|&&v| v > 1.0 + TOL) {
            return Err(format!("{name}: capture {v} > 1"));
        }
        for (b, (&opt, &v)) in optimal.iter().zip(&c.capture).enumerate() {
            if opt < v - TOL {
                return Err(format!("optimal {opt} below {name} {v} at b={}", b + 1));
            }
        }
    }
    if let Some(b) = optimal.windows(2).position(|w| w[1] < w[0] - TOL) {
        return Err(format!("optimal capture falls at b={}", b + 2));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Paper suite: runners::run + to_json over the 22 ids of `full`
// ---------------------------------------------------------------------------

/// Goldens of `tests/golden_regression.rs`, recorded at seed 42 and 120
/// flows.
const GOLDENS: [(&str, &str); 3] = [
    ("fig8", include_str!("../../tests/golden/fig8.json")),
    ("fig10", include_str!("../../tests/golden/fig10.json")),
    ("table1", include_str!("../../tests/golden/table1.json")),
];

struct Paper {
    seed: u64,
    ids: Vec<&'static str>,
    /// Span name per id.
    spans: Vec<&'static str>,
    /// `paper-resume`: the store directory and the JSON of the cold fill.
    store: Option<PathBuf>,
    cold_json: Vec<String>,
}

struct Suite {
    json: Vec<String>,
    stages: usize,
    hits: usize,
    compute_s: f64,
    load_s: f64,
}

impl Paper {
    fn new(seed: u64, store: Option<PathBuf>) -> Paper {
        let ids: Vec<&'static str> = runners::ALL_IDS
            .iter()
            .chain(&runners::SENSITIVITY_IDS)
            .chain(&runners::EXTENSION_IDS)
            .copied()
            .collect();
        // Span names must be 'static; 22 short strings live for the
        // process anyway.
        let spans = ids
            .iter()
            .map(|id| &*Box::leak(format!("experiments.run.{id}").into_boxed_str()))
            .collect();
        Paper {
            seed,
            ids,
            spans,
            store,
            cold_json: Vec::new(),
        }
    }

    /// The configuration of `paper-resume`'s store: fixed for the run.
    fn store_config(&self, resume: bool) -> Option<ExperimentConfig> {
        Some(ExperimentConfig {
            seed: iter_seed(self.seed, 0),
            store: Some(self.store.as_ref()?.to_str()?.to_string()),
            resume,
            ..ExperimentConfig::default()
        })
    }

    fn run_suite(&self, cfg: &ExperimentConfig, tr: &mut Tracer) -> Result<Suite, String> {
        let mut suite = Suite {
            json: Vec::with_capacity(self.ids.len()),
            stages: 0,
            hits: 0,
            compute_s: 0.0,
            load_s: 0.0,
        };
        for (id, &span) in self.ids.iter().zip(&self.spans) {
            let result = tr
                .span(span, |_| runners::run(id, cfg))
                .map_err(|e| format!("{id}: {e}"))?
                .ok_or(format!("{id}: unknown experiment"))?;
            if result.id != *id {
                return Err(format!("{id}: result is labelled {}", result.id));
            }
            suite
                .json
                .push(tr.span("experiments.to_json", |_| result.to_json()));
            for r in &result.stage_reports {
                suite.stages += 1;
                if r.hit {
                    suite.hits += 1;
                    suite.load_s += r.seconds;
                } else {
                    suite.compute_s += r.seconds;
                }
            }
        }
        Ok(suite)
    }
}

/// Numbers equal within 1e-9 (absolute, or relative above 1), all else
/// exactly: the rule of `tests/golden_regression.rs`.
fn json_close(got: &Value, want: &Value, path: &str) -> Result<(), String> {
    match (got, want) {
        (Value::Number(x), Value::Number(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            ((x - y).abs() <= 1e-9 * scale)
                .then_some(())
                .ok_or(format!("{path}: {x} vs {y}"))
        }
        (Value::Array(xs), Value::Array(ys)) if xs.len() == ys.len() => xs
            .iter()
            .zip(ys)
            .enumerate()
            .try_for_each(|(i, (x, y))| json_close(x, y, &format!("{path}[{i}]"))),
        (Value::Object(xs), Value::Object(ys)) if xs.len() == ys.len() => {
            xs.iter().zip(ys).try_for_each(|((kx, x), (ky, y))| {
                if kx != ky {
                    return Err(format!("{path}: key {kx} vs {ky}"));
                }
                json_close(x, y, &format!("{path}.{kx}"))
            })
        }
        _ if got == want => Ok(()),
        _ => Err(format!("{path}: shape differs")),
    }
}

impl Runner for Paper {
    type Input = ExperimentConfig;
    type Output = Suite;

    fn setup(&mut self, tr: &mut Tracer) -> Result<(), String> {
        if self.store.is_none() {
            let golden_cfg = ExperimentConfig {
                seed: 42,
                n_flows: 120,
                ..ExperimentConfig::default()
            };
            return tr.span("experiments.golden_check", |_| {
                GOLDENS.iter().try_for_each(|(id, golden)| {
                    let json = runners::run(id, &golden_cfg)
                        .map_err(|e| e.to_string())?
                        .ok_or(format!("{id}: unknown experiment"))?
                        .to_json();
                    let parse =
                        |text: &str| serde_json::from_str::<Value>(text).map_err(|e| e.to_string());
                    json_close(&parse(&json)?, &parse(golden)?, id)
                })
            });
        }
        let cfg = self.store_config(false).ok_or("store path is not UTF-8")?;
        // The fill's runner calls get no spans of their own, so the
        // span's self time is the whole fill.
        let suite = tr.span("stage.cold_fill", |_| {
            self.run_suite(&cfg, &mut Tracer::new())
        })?;
        self.cold_json = suite.json;
        Ok(())
    }

    fn prepare(&mut self, i: u64, _tr: &mut Tracer) -> ExperimentConfig {
        self.store_config(true).unwrap_or_else(|| ExperimentConfig {
            seed: iter_seed(self.seed, i),
            ..ExperimentConfig::default()
        })
    }

    fn iterate(&mut self, cfg: &ExperimentConfig, tr: &mut Tracer) -> Result<Suite, String> {
        self.run_suite(cfg, tr)
    }

    fn check(&self, _cfg: &ExperimentConfig, suite: &Suite) -> Result<Checked, String> {
        if self.store.is_some() {
            if suite.hits != suite.stages {
                return Err(format!(
                    "{} of {} stages hit the store",
                    suite.hits, suite.stages
                ));
            }
            if suite.json != self.cold_json {
                return Err("resumed JSON differs from the cold fill".into());
            }
        }
        let mut digest = Fnv1a::default();
        for (id, json) in self.ids.iter().zip(&suite.json) {
            digest.write(id.as_bytes());
            digest.write(json.as_bytes());
        }
        Ok(Checked {
            digest: digest.finish(),
            items: self.ids.len() as u64,
            layers: vec![
                ("stage.stages", suite.stages as f64),
                ("stage.hits", suite.hits as f64),
                (
                    "stage.hit_ratio",
                    suite.hits as f64 / suite.stages.max(1) as f64,
                ),
                ("stage.compute_s", suite.compute_s),
                ("stage.load_s", suite.load_s),
            ],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn curve(strategy: &str, capture: Vec<f64>) -> CaptureCurve {
        CaptureCurve {
            strategy: strategy.into(),
            n_bundles: (1..=capture.len()).collect(),
            profit: capture.clone(),
            capture,
        }
    }

    #[test]
    fn curve_checks_enforce_the_capture_invariants() {
        let opt: Vec<f64> = (0..B_MAX).map(|b| b as f64 / B_MAX as f64).collect();
        let half: Vec<f64> = opt.iter().map(|v| v / 2.0).collect();
        assert!(check_curves(&[curve("optimal", opt.clone()), curve("h", half.clone())]).is_ok());
        assert!(check_curves(&[curve("optimal", half), curve("h", opt.clone())]).is_err());
        let mut falling = opt.clone();
        falling[5] = 0.1;
        assert!(check_curves(&[curve("optimal", falling)]).is_err());
        let mut above_one = opt.clone();
        above_one[9] = 1.1;
        assert!(check_curves(&[curve("optimal", above_one)]).is_err());
        let mut off_zero = opt;
        off_zero[0] = 1e-6;
        assert!(check_curves(&[curve("optimal", off_zero)]).is_err());
    }

    #[test]
    fn json_close_follows_the_golden_rule() {
        let p = |s: &str| serde_json::from_str::<Value>(s).unwrap();
        assert!(json_close(
            &p(r#"{"a":[1.0,1e12]}"#),
            &p(r#"{"a":[1.0000000000001,1.0000000000001e12]}"#),
            "x"
        )
        .is_ok());
        assert!(json_close(&p(r#"{"a":[1.0]}"#), &p(r#"{"a":[1.00001]}"#), "x").is_err());
        assert!(json_close(&p(r#"{"a":1}"#), &p(r#"{"b":1}"#), "x").is_err());
        assert!(json_close(&p(r#"["s"]"#), &p(r#"["t"]"#), "x").is_err());
    }

    #[test]
    fn every_workload_of_the_spec_is_implemented() {
        let spec = tierbench::spec::Spec::load();
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(spec.workloads, names);
    }

    #[test]
    fn every_per_layer_metric_of_the_spec_has_a_source() {
        // Span metrics are `<span>_s`; the rest are counter deltas,
        // values derived from outputs, or computed by the parent.
        let spans = [
            "netflow.ingest",
            "netflow.measured",
            "netflow.matrix",
            "datasets.join",
            "datasets.generate",
            "datasets.export",
            "core.fit_ced",
            "core.fit_logit",
            "core.coalesce",
            "core.capture_curves.ced",
            "core.capture_curves.logit",
            "experiments.to_json",
            "stage.cold_fill",
        ];
        let derived = [
            "datasets.measured_ratio",
            "core.coalesce.groups",
            "core.coalesce.ratio",
            "stage.stages",
            "stage.hits",
            "stage.hit_ratio",
            "stage.compute_s",
            "stage.load_s",
            "trace.overhead_pct",
        ];
        let paper = Paper::new(0, None);
        for m in tierbench::spec::Spec::load().per_layer {
            let name = m.name.as_str();
            let known = COUNTERS.iter().any(|(c, _)| *c == name)
                || derived.contains(&name)
                || name
                    .strip_suffix("_s")
                    .is_some_and(|s| spans.contains(&s) || paper.spans.contains(&s));
            assert!(known, "per-layer metric {name} has no source");
        }
    }
}
