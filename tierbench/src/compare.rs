//! Parent-versus-change comparison of end-to-end metrics across runs.
//!
//! For each metric the baseline runs (`a`) and the candidate runs (`b`)
//! are summarized by median and quartiles. The verdict follows the
//! benchmark's bound: a candidate median worse than the baseline median
//! by more than `bound` (as a share of the baseline median) regresses;
//! when either side's interquartile spread is wider than the bound the
//! runs cannot resolve a change of that size, unless every candidate run
//! beats every baseline run. Pairs `(a[k], b[k])` are the alternating
//! runs; a gain needs at least [`MIN_PAIRS`] of them, nine tenths of
//! them won, and a median difference larger than the baseline's own
//! interquartile distance.
//!
//! [`compare_files`] applies this to whole results files and also
//! refuses what no verdict can excuse: a candidate that fails more
//! iterations, a workload or metric missing from a file, traced and
//! untraced files mixed, or outputs that differ for the same seed.

use std::collections::BTreeMap;

use serde_json::Value;

use crate::spec::Spec;
use crate::stats::quartiles;

/// Alternating pairs a gain needs before it can be claimed.
pub const MIN_PAIRS: usize = 10;

/// Outcome for one metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound.
    Ok,
    /// Worse than the bound allows.
    Regressed,
    /// The runs spread wider than the bound.
    Unresolved,
}

impl Verdict {
    /// Lower-case label, as printed.
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Median and quartiles of one side's runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Summary {
    /// Summarizes `values` (one run gives a zero-width summary).
    pub fn of(values: &[f64]) -> Option<Summary> {
        match values {
            [] => None,
            [v] => Some(Summary {
                q1: *v,
                median: *v,
                q3: *v,
            }),
            _ => quartiles(values).map(|(q1, median, q3)| Summary { q1, median, q3 }),
        }
    }

    /// Interquartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// One metric compared across baseline and candidate runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Comparison {
    /// Baseline runs.
    pub a: Summary,
    /// Candidate runs.
    pub b: Summary,
    /// How much worse the candidate median is, as a share of the
    /// baseline median (negative when better).
    pub worse_by: f64,
    /// Alternating pairs the candidate won (ties count for neither).
    pub pairs_won: usize,
    /// Alternating pairs compared.
    pub pairs: usize,
    /// Whether at least [`MIN_PAIRS`] pairs ran, the candidate won
    /// ≥ 9/10 of them, and its median beats the baseline's by more than
    /// the baseline's quartile distance.
    pub gain: bool,
    /// The verdict against `bound`.
    pub verdict: Verdict,
}

/// Compares baseline runs `a` with candidate runs `b` of one metric.
pub fn compare(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Option<Comparison> {
    let (sa, sb) = (Summary::of(a)?, Summary::of(b)?);
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let worse_by = if lower_is_better {
        (sb.median - sa.median) / sa.median.abs()
    } else {
        (sa.median - sb.median) / sa.median.abs()
    };
    let pairs = a.len().min(b.len());
    let pairs_won = a.iter().zip(b).filter(|&(&x, &y)| better(y, x)).count();
    let gain = pairs >= MIN_PAIRS
        && pairs_won * 10 >= pairs * 9
        && better(sb.median, sa.median)
        && (sb.median - sa.median).abs() > sa.q3 - sa.q1;
    let all_b_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    let verdict = if all_b_better {
        Verdict::Ok
    } else if sa.spread() > bound || sb.spread() > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    Some(Comparison {
        a: sa,
        b: sb,
        worse_by,
        pairs_won,
        pairs,
        gain,
        verdict,
    })
}

/// Iteration indices whose digests differ between two runs of the same
/// seed; only indices both runs executed are compared.
pub fn digest_mismatches(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<u64> {
    let theirs: BTreeMap<u64, u64> = b.iter().copied().collect();
    a.iter()
        .filter(|(i, d)| theirs.get(i).is_some_and(|e| e != d))
        .map(|&(i, _)| i)
        .collect()
}

/// One workload of one results file.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultWorkload {
    /// Checked units attempted.
    pub attempted: u64,
    /// Checked units that failed.
    pub failed: u64,
    /// End-to-end metric values. A value that was not a number is
    /// written as `null` and reads as `None`.
    pub metrics: BTreeMap<String, Option<f64>>,
    /// `(iteration, digest)` of the warm-up and every timed iteration.
    pub digests: Vec<(u64, u64)>,
}

/// A results file, as `run --out` writes it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultsFile {
    /// Where it was read from, for messages.
    pub path: String,
    /// Seed of the run.
    pub seed: u64,
    /// Whether the run was traced.
    pub traced: bool,
    /// Workloads by name.
    pub workloads: BTreeMap<String, ResultWorkload>,
}

impl ResultsFile {
    /// Parses `text`, read from `path`.
    pub fn parse(path: &str, text: &str) -> Result<ResultsFile, String> {
        let v: Value = serde_json::from_str(text).map_err(|e| format!("{path}: {e}"))?;
        let number = |x: &Value, key: &str| {
            x[key]
                .as_f64()
                .map(|n| n as u64)
                .ok_or(format!("{path}: no {key}"))
        };
        let mut workloads = BTreeMap::new();
        for w in v["workloads"]
            .as_array()
            .ok_or(format!("{path}: not a results file"))?
        {
            let name = w["name"]
                .as_str()
                .ok_or(format!("{path}: unnamed workload"))?;
            let metrics = w["metrics"]
                .as_object()
                .into_iter()
                .flatten()
                .map(|(k, m)| (k.clone(), m["value"].as_f64()))
                .collect();
            // `[iteration, high 32 bits, low 32 bits]`.
            let digests = w["digests"]
                .as_array()
                .into_iter()
                .flatten()
                .filter_map(|d| {
                    let part = |k: usize| d[k].as_f64().map(|x| x as u64);
                    Some((part(0)?, part(1)? << 32 | part(2)?))
                })
                .collect();
            let workload = ResultWorkload {
                attempted: number(w, "attempted")?,
                failed: number(w, "failed")?,
                metrics,
                digests,
            };
            workloads.insert(name.to_string(), workload);
        }
        Ok(ResultsFile {
            path: path.to_string(),
            seed: number(&v, "seed")?,
            traced: v["traced"].as_bool().ok_or(format!("{path}: no traced"))?,
            workloads,
        })
    }
}

/// One end-to-end metric of one workload, compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline against candidate.
    pub comparison: Comparison,
}

/// Baseline results files against candidate ones.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FilesComparison {
    /// Every metric that all files hold, compared.
    pub rows: Vec<Row>,
    /// Reasons the comparison does not hold, whatever the verdicts.
    pub problems: Vec<String>,
}

impl FilesComparison {
    /// No problem, and every verdict is `ok`.
    pub fn clean(&self) -> bool {
        self.problems.is_empty()
            && self
                .rows
                .iter()
                .all(|r| r.comparison.verdict == Verdict::Ok)
    }
}

/// Compares baseline files `a` with candidate files `b` over every
/// workload and end-to-end metric of `spec`.
pub fn compare_files(spec: &Spec, a: &[ResultsFile], b: &[ResultsFile]) -> FilesComparison {
    let mut out = FilesComparison::default();
    let files: Vec<&ResultsFile> = a.iter().chain(b).collect();
    if a.is_empty() || b.is_empty() {
        out.problems
            .push("needs results files on both sides".to_string());
        return out;
    }
    if files.iter().any(|f| f.traced != files[0].traced) {
        out.problems
            .push("traced and untraced results files are mixed".to_string());
    }

    for name in &spec.workloads {
        let lacking: Vec<&str> = files
            .iter()
            .filter(|f| !f.workloads.contains_key(name))
            .map(|f| f.path.as_str())
            .collect();
        // A workload no file holds was not run, on either side.
        if lacking.len() == files.len() {
            continue;
        }
        if !lacking.is_empty() {
            out.problems
                .push(format!("{name}: missing from {}", lacking.join(", ")));
            continue;
        }
        let wa: Vec<&ResultWorkload> = a.iter().map(|f| &f.workloads[name]).collect();
        let wb: Vec<&ResultWorkload> = b.iter().map(|f| &f.workloads[name]).collect();

        // A candidate that fails more of what it attempts gains nothing.
        let failures = |side: &[&ResultWorkload]| {
            side.iter()
                .fold((0, 0), |(f, n), w| (f + w.failed, n + w.attempted))
        };
        let ((fa, na), (fb, nb)) = (failures(&wa), failures(&wb));
        if fb * na.max(1) > fa * nb.max(1) {
            out.problems.push(format!(
                "{name}: the candidate failed {fb} of {nb}, the baseline {fa} of {na}"
            ));
        }

        for m in &spec.end_to_end {
            let values = |side: &[&ResultWorkload]| -> Option<Vec<f64>> {
                side.iter()
                    .map(|w| w.metrics.get(&m.name).copied().flatten())
                    .map(|v| v.filter(|x| x.is_finite()))
                    .collect()
            };
            let compared = values(&wa)
                .zip(values(&wb))
                .and_then(|(va, vb)| compare(&va, &vb, m.lower_is_better, m.bound.unwrap_or(0.0)));
            match compared {
                Some(comparison) => out.rows.push(Row {
                    workload: name.clone(),
                    metric: m.name.clone(),
                    comparison,
                }),
                None => out.problems.push(format!(
                    "{name}: {} is missing or not a number in a results file",
                    m.name
                )),
            }
        }
    }
    if out.rows.is_empty() && out.problems.is_empty() {
        out.problems
            .push("the files hold no workload of the benchmark".to_string());
    }

    for (k, x) in files.iter().enumerate() {
        for y in files[k + 1..].iter().filter(|y| y.seed == x.seed) {
            for (name, wx) in &x.workloads {
                let Some(wy) = y.workloads.get(name) else {
                    continue;
                };
                let bad = digest_mismatches(&wx.digests, &wy.digests);
                if !bad.is_empty() {
                    out.problems.push(format!(
                        "{name}: digests differ for seed {} between {} and {}, iterations {bad:?}",
                        x.seed, x.path, y.path
                    ));
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::MetricDef;

    #[test]
    fn steady_equal_runs_are_ok() {
        let c = compare(&[1.00, 1.01, 0.99], &[1.0, 1.02, 0.995], true, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Ok);
        assert!(!c.gain);
        assert_eq!(c.pairs, 3);
    }

    #[test]
    fn worse_than_the_bound_regresses_in_either_direction() {
        let slower = compare(&[1.0, 1.01, 0.99], &[1.2, 1.21, 1.19], true, 0.1).unwrap();
        assert_eq!(slower.verdict, Verdict::Regressed);
        assert!((slower.worse_by - 0.2).abs() < 1e-12);
        let less_throughput = compare(&[100.0, 101.0, 99.0], &[80.0, 81.0, 79.0], false, 0.1);
        assert_eq!(less_throughput.unwrap().verdict, Verdict::Regressed);
        let within = compare(&[1.0, 1.01, 0.99], &[1.05, 1.06, 1.04], true, 0.1).unwrap();
        assert_eq!(within.verdict, Verdict::Ok);
    }

    #[test]
    fn spread_wider_than_the_bound_is_unresolved() {
        let c = compare(&[1.0, 1.5, 0.8], &[1.0, 1.1, 0.9], true, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Unresolved);
        // Unless every candidate run beats every baseline run.
        let c = compare(&[1.0, 1.5, 0.8], &[0.5, 0.6, 0.55], true, 0.1).unwrap();
        assert_eq!(c.verdict, Verdict::Ok);
    }

    #[test]
    fn gain_needs_nine_tenths_of_pairs_and_a_gap_beyond_the_spread() {
        let a: Vec<f64> = (0..10).map(|k| 1.0 + 0.001 * k as f64).collect();
        let faster: Vec<f64> = a.iter().map(|x| x * 0.8).collect();
        let c = compare(&a, &faster, true, 0.1).unwrap();
        assert!(c.gain);
        assert_eq!((c.pairs_won, c.pairs), (10, 10));
        let mut mixed = faster.clone();
        mixed[0] = 2.0;
        mixed[1] = 2.0;
        assert!(!compare(&a, &mixed, true, 0.1).unwrap().gain);
        assert!(!compare(&a[..9], &faster[..9], true, 0.1).unwrap().gain);
        assert!(compare(&[], &a, true, 0.1).is_none());
    }

    #[test]
    fn digests_compare_on_common_iterations_only() {
        let a = [(0, 10), (1, 11), (2, 12)];
        let b = [(0, 10), (1, 99), (3, 13)];
        assert_eq!(digest_mismatches(&a, &b), vec![1]);
        assert!(digest_mismatches(&a, &a).is_empty());
    }

    fn spec() -> Spec {
        let metric = |name: &str| MetricDef {
            name: name.to_string(),
            unit: "s".to_string(),
            lower_is_better: true,
            bound: Some(0.1),
        };
        Spec {
            run_seconds: 10.0,
            workloads: vec!["w".to_string()],
            end_to_end: vec![metric("iter_p50_s"), metric("setup_s")],
            per_layer: Vec::new(),
        }
    }

    /// A results file with workload `w`, as `run --out` writes it.
    fn file(path: &str, failed: u64, iter_p50_s: &str, digest: u64) -> ResultsFile {
        let text = format!(
            r#"{{"schema": "tierbench/results/v1", "seed": 42, "traced": false,
                "workloads": [{{"name": "w", "attempted": 10, "failed": {failed},
                  "metrics": {{"iter_p50_s": {{"value": {iter_p50_s}, "unit": "s"}},
                               "setup_s": {{"value": 2.0, "unit": "s"}}}},
                  "digests": [[1, 0, {digest}]]}}]}}"#
        );
        ResultsFile::parse(path, &text).unwrap()
    }

    #[test]
    fn equal_files_compare_clean() {
        let c = compare_files(
            &spec(),
            &[file("a", 0, "1.0", 7)],
            &[file("b", 0, "1.01", 7)],
        );
        assert_eq!(c.rows.len(), 2);
        assert!(c.problems.is_empty(), "{:?}", c.problems);
        assert!(c.clean());
    }

    #[test]
    fn more_candidate_failures_are_not_clean() {
        let c = compare_files(
            &spec(),
            &[file("a", 0, "1.0", 7)],
            &[file("b", 1, "0.5", 7)],
        );
        assert!(!c.clean());
        assert_eq!(c.problems.len(), 1);
        assert!(c.problems[0].contains("failed 1 of 10"), "{:?}", c.problems);
        // Fewer failures than the baseline is no problem.
        let c = compare_files(
            &spec(),
            &[file("a", 1, "1.0", 7)],
            &[file("b", 0, "1.0", 7)],
        );
        assert!(c.clean(), "{:?}", c.problems);
    }

    #[test]
    fn a_null_metric_is_not_clean() {
        let c = compare_files(
            &spec(),
            &[file("a", 0, "1.0", 7)],
            &[file("b", 0, "null", 7)],
        );
        assert!(!c.clean());
        assert_eq!(c.rows.len(), 1);
        assert!(c.problems[0].contains("iter_p50_s"), "{:?}", c.problems);
    }

    #[test]
    fn a_missing_workload_is_not_clean() {
        let mut b = file("b", 0, "1.0", 7);
        b.workloads.clear();
        let c = compare_files(&spec(), &[file("a", 0, "1.0", 7)], &[b]);
        assert!(!c.clean());
        assert!(c.rows.is_empty());
        assert_eq!(c.problems, vec!["w: missing from b".to_string()]);
        // A workload that no file holds was not run: only other
        // workloads are compared, and there must be one.
        let mut spec = spec();
        spec.workloads.push("not-run".to_string());
        let c = compare_files(&spec, &[file("a", 0, "1.0", 7)], &[file("b", 0, "1.0", 7)]);
        assert!(c.clean(), "{:?}", c.problems);
        spec.workloads.remove(0);
        let c = compare_files(&spec, &[file("a", 0, "1.0", 7)], &[file("b", 0, "1.0", 7)]);
        assert!(!c.clean());
    }

    #[test]
    fn mixed_tracing_and_differing_digests_are_not_clean() {
        let mut traced = file("b", 0, "1.0", 7);
        traced.traced = true;
        let c = compare_files(&spec(), &[file("a", 0, "1.0", 7)], &[traced]);
        assert!(c.problems[0].contains("mixed"), "{:?}", c.problems);
        let c = compare_files(
            &spec(),
            &[file("a", 0, "1.0", 7)],
            &[file("b", 0, "1.0", 8)],
        );
        assert!(!c.clean());
        assert!(c.problems[0].contains("digests differ"), "{:?}", c.problems);
    }
}
