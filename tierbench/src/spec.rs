//! The metric definitions of `BENCHMARK.json`, compiled into the binary
//! so that the names, units, directions and bounds the benchmark prints
//! and compares have one source.

use serde_json::Value;

/// `BENCHMARK.json` at the repository root.
pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric as `BENCHMARK.json` defines it.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDef {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: String,
    /// Whether a smaller value is better.
    pub lower_is_better: bool,
    /// Share of the baseline median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed benchmark definition.
#[derive(Debug, Clone)]
pub struct Spec {
    /// Measuring time of one run, seconds.
    pub run_seconds: f64,
    /// Workload names, in definition order.
    pub workloads: Vec<String>,
    /// Metrics of a run with tracing off.
    pub end_to_end: Vec<MetricDef>,
    /// Metrics of a traced run.
    pub per_layer: Vec<MetricDef>,
}

impl Spec {
    /// Parses the embedded `BENCHMARK.json`.
    pub fn load() -> Spec {
        Spec::parse(BENCHMARK_JSON).expect("the embedded BENCHMARK.json is well-formed")
    }

    /// Parses a `BENCHMARK.json` document.
    pub fn parse(text: &str) -> Result<Spec, String> {
        let root: Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
        let metrics = |key: &str| -> Result<Vec<MetricDef>, String> {
            let list = root[key].as_array().ok_or(format!("{key} is not a list"))?;
            list.iter()
                .map(|m| {
                    let field = |f: &str| {
                        m[f].as_str()
                            .map(str::to_string)
                            .ok_or(format!("{key} entry lacks {f}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?,
                        unit: field("unit")?,
                        lower_is_better: field("better")? == "lower",
                        bound: m["bound"].as_f64(),
                    })
                })
                .collect()
        };
        Ok(Spec {
            run_seconds: root["run_seconds"]
                .as_f64()
                .ok_or("run_seconds is not a number")?,
            workloads: root["workloads"]
                .as_array()
                .ok_or("workloads is not a list")?
                .iter()
                .map(|w| {
                    w["name"]
                        .as_str()
                        .map(str::to_string)
                        .ok_or("unnamed workload")
                })
                .collect::<Result<_, _>>()?,
            end_to_end: metrics("end_to_end")?,
            per_layer: metrics("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn embedded_spec_parses_with_bounds_on_every_end_to_end_metric() {
        let spec = Spec::load();
        assert!(!spec.workloads.is_empty());
        assert!(spec.end_to_end.iter().all(|m| m.bound.is_some()));
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = spec
            .end_to_end
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s is defined");
        assert!(setup.lower_is_better);
        assert_eq!(setup.unit, "s");
    }
}
