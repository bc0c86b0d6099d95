//! In-memory spans recorded by the benchmark around its calls into each
//! layer, their self times, and their Chrome-trace rendering.

use std::collections::BTreeMap;
use std::time::Instant;

use serde::Content;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Layer name, e.g. `netflow.ingest`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same record list.
    pub parent: Option<usize>,
    /// Benchmark iteration the span belongs to (`None` during set-up).
    pub iteration: Option<u64>,
}

/// Records spans while enabled; while disabled, [`Tracer::span`] only
/// runs its closure.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    iteration: Option<u64>,
    stack: Vec<usize>,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    /// An empty, disabled tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            iteration: None,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off for the spans that follow.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Tags the spans that follow with iteration `i` (`None`: set-up).
    pub fn set_iteration(&mut self, i: Option<u64>) {
        self.iteration = i;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span called `name`; spans opened by `f` nest
    /// under it.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(SpanRecord {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.stack.last().copied(),
            iteration: self.iteration,
        });
        self.stack.push(index);
        let out = f(self);
        self.stack.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> &[SpanRecord] {
        &self.spans
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

/// Self time of every span, nanoseconds: its duration minus the
/// durations of its direct children. [`Tracer::span`] nests children
/// inside their parent and runs siblings one after another.
pub fn self_times(spans: &[SpanRecord]) -> Vec<u64> {
    let duration = |s: &SpanRecord| s.end_ns - s.start_ns;
    let mut times: Vec<u64> = spans.iter().map(duration).collect();
    for s in spans {
        if let Some(p) = s.parent {
            times[p] -= duration(s);
        }
    }
    times
}

/// Self time per `(iteration, span name)`, seconds, summed over spans.
pub fn self_seconds_by_iteration(
    spans: &[SpanRecord],
) -> BTreeMap<Option<u64>, BTreeMap<&'static str, f64>> {
    let mut out: BTreeMap<Option<u64>, BTreeMap<&'static str, f64>> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.iteration)
            .or_default()
            .entry(s.name)
            .or_default() += self_ns as f64 / 1e9;
    }
    out
}

/// Chrome trace-event "X" (complete) events for `spans`, one process per
/// `pid`.
pub fn chrome_events(spans: &[SpanRecord], pid: u64) -> Vec<Content> {
    spans
        .iter()
        .map(|s| {
            Content::Map(vec![
                ("name".into(), Content::Str(s.name.into())),
                ("ph".into(), Content::Str("X".into())),
                ("ts".into(), Content::F64(s.start_ns as f64 / 1e3)),
                (
                    "dur".into(),
                    Content::F64((s.end_ns - s.start_ns) as f64 / 1e3),
                ),
                ("pid".into(), Content::U64(pid)),
                ("tid".into(), Content::U64(1)),
                (
                    "args".into(),
                    Content::Map(vec![
                        (
                            "iteration".into(),
                            s.iteration.map_or(Content::Null, Content::U64),
                        ),
                        (
                            "parent".into(),
                            s.parent
                                .map_or(Content::Null, |p| Content::Str(spans[p].name.into())),
                        ),
                    ]),
                ),
            ])
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> SpanRecord {
        SpanRecord {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            iteration: Some(1),
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = vec![
            span("iteration", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("a.inner", 12, 18, Some(1)),
            span("b", 30, 50, Some(0)),
            span("c", 90, 100, Some(0)),
        ];
        // iteration: children a, b, c take 20 + 20 + 10 = 50.
        assert_eq!(self_times(&spans), vec![50, 14, 6, 20, 10]);
    }

    #[test]
    fn self_seconds_sum_repeated_names_per_iteration() {
        let mut spans = vec![
            span("iteration", 0, 4_000_000_000, None),
            span("run", 0, 1_000_000_000, Some(0)),
            span("run", 1_000_000_000, 3_000_000_000, Some(0)),
        ];
        spans.push(SpanRecord {
            iteration: None,
            ..span("setup", 0, 500_000_000, None)
        });
        let by_iter = self_seconds_by_iteration(&spans);
        assert_eq!(by_iter[&Some(1)]["run"], 3.0);
        assert_eq!(by_iter[&Some(1)]["iteration"], 1.0);
        assert_eq!(by_iter[&None]["setup"], 0.5);
    }

    #[test]
    fn tracer_nests_only_while_enabled() {
        let mut t = Tracer::new();
        t.span("off", |t| t.span("off.inner", |_| ()));
        assert!(t.spans().is_empty());
        t.set_enabled(true);
        t.set_iteration(Some(3));
        let v = t.span("outer", |t| t.span("inner", |_| 7));
        assert_eq!(v, 7);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].iteration, Some(3));
        assert_eq!(chrome_events(spans, 2).len(), 2);
    }
}
