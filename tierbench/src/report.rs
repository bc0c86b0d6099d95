//! What a child process reports to the parent: one line per record, so
//! thousands of iterations cost the parent a linear parse.
//!
//! ```text
//! traced 1
//! setup_s 3.70
//! peak_rss_kb 659000
//! attempted 6
//! warmup 89ab…           ("-" when the warm-up failed)
//! failure <message>
//! iter <i> <wall_s> <cpu_s> <items> <digest|->
//! layer <i|setup> <name> <value>
//! ```

use std::collections::BTreeMap;
use std::fmt::Write;

/// One timed iteration as measured.
#[derive(Debug, Clone, PartialEq)]
pub struct IterationRecord {
    /// Iteration index.
    pub i: u64,
    /// Wall time of the program work, seconds.
    pub wall_s: f64,
    /// Process CPU time over the same interval, seconds.
    pub cpu_s: f64,
    /// Work items completed (NetFlow records or runner calls).
    pub items: u64,
    /// Digest of the outputs (`None` if the iteration failed).
    pub digest: Option<u64>,
}

/// Everything a child reports back.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ChildReport {
    /// Whether the child recorded spans.
    pub traced: bool,
    /// Untimed program work: set-up, warm-up and every input build.
    pub setup_s: f64,
    /// Peak resident set size, kB.
    pub peak_rss_kb: u64,
    /// Checked units run: set-up, warm-up and each timed iteration.
    pub attempted: u64,
    /// One message per failed unit.
    pub failures: Vec<String>,
    /// Digest of the warm-up iteration (index 0).
    pub warmup_digest: Option<u64>,
    /// The timed iterations.
    pub iterations: Vec<IterationRecord>,
    /// Per-layer values of each traced timed iteration.
    pub layers: BTreeMap<u64, BTreeMap<String, f64>>,
    /// Per-layer values of the set-up.
    pub setup_layers: BTreeMap<String, f64>,
}

fn digest_text(d: Option<u64>) -> String {
    d.map_or("-".into(), |d| format!("{d:016x}"))
}

fn parse_digest(s: &str) -> Result<Option<u64>, String> {
    match s {
        "-" => Ok(None),
        _ => u64::from_str_radix(s, 16)
            .map(Some)
            .map_err(|_| format!("bad digest {s:?}")),
    }
}

fn field<T: std::str::FromStr>(f: Option<&str>, line: &str) -> Result<T, String> {
    f.and_then(|s| s.parse().ok())
        .ok_or(format!("malformed report line {line:?}"))
}

impl ChildReport {
    /// The report as text.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "traced {}", u8::from(self.traced));
        let _ = writeln!(out, "setup_s {}", self.setup_s);
        let _ = writeln!(out, "peak_rss_kb {}", self.peak_rss_kb);
        let _ = writeln!(out, "attempted {}", self.attempted);
        let _ = writeln!(out, "warmup {}", digest_text(self.warmup_digest));
        for f in &self.failures {
            let _ = writeln!(out, "failure {}", f.replace('\n', " "));
        }
        for r in &self.iterations {
            let _ = writeln!(
                out,
                "iter {} {} {} {} {}",
                r.i,
                r.wall_s,
                r.cpu_s,
                r.items,
                digest_text(r.digest)
            );
        }
        let layers = self.layers.iter().map(|(i, m)| (i.to_string(), m));
        for (i, values) in layers.chain([("setup".to_string(), &self.setup_layers)]) {
            for (name, v) in values {
                let _ = writeln!(out, "layer {i} {name} {v}");
            }
        }
        out
    }

    /// Parses [`ChildReport::to_text`] output.
    pub fn from_text(text: &str) -> Result<ChildReport, String> {
        let mut r = ChildReport::default();
        for line in text.lines() {
            let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
            let mut f = rest.split(' ');
            match tag {
                "traced" => r.traced = rest == "1",
                "setup_s" => r.setup_s = field(f.next(), line)?,
                "peak_rss_kb" => r.peak_rss_kb = field(f.next(), line)?,
                "attempted" => r.attempted = field(f.next(), line)?,
                "warmup" => r.warmup_digest = parse_digest(rest)?,
                "failure" => r.failures.push(rest.to_string()),
                "iter" => r.iterations.push(IterationRecord {
                    i: field(f.next(), line)?,
                    wall_s: field(f.next(), line)?,
                    cpu_s: field(f.next(), line)?,
                    items: field(f.next(), line)?,
                    digest: parse_digest(f.next().unwrap_or(""))?,
                }),
                "layer" => {
                    let at = f.next().unwrap_or("");
                    let name = f.next().ok_or(format!("malformed report line {line:?}"))?;
                    let value = field(f.next(), line)?;
                    let map = match at {
                        "setup" => &mut r.setup_layers,
                        i => r.layers.entry(field(Some(i), line)?).or_default(),
                    };
                    map.insert(name.to_string(), value);
                }
                _ => return Err(format!("unknown report line {line:?}")),
            }
        }
        Ok(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_exactly() {
        let report = ChildReport {
            traced: true,
            setup_s: 3.707171233,
            peak_rss_kb: 659_000,
            attempted: 6,
            failures: vec!["iteration 3: capture 1.2 > 1".into()],
            warmup_digest: Some(0x0123_4567_89ab_cdef),
            iterations: vec![
                IterationRecord {
                    i: 1,
                    wall_s: 0.1 + 0.2,
                    cpu_s: 0.01,
                    items: 2_000_000,
                    digest: Some(u64::MAX),
                },
                IterationRecord {
                    i: 2,
                    wall_s: 1e-7,
                    cpu_s: 0.0,
                    items: 0,
                    digest: None,
                },
            ],
            layers: BTreeMap::from([(
                1,
                BTreeMap::from([("netflow.ingest_s".to_string(), 0.178258322)]),
            )]),
            setup_layers: BTreeMap::from([("stage.cold_fill_s".to_string(), 0.19)]),
        };
        assert_eq!(ChildReport::from_text(&report.to_text()), Ok(report));
        assert!(ChildReport::from_text("iter 1 x").is_err());
        assert!(ChildReport::from_text("bogus").is_err());
    }
}
