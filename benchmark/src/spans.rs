//! In-memory span recorder of the traced run.
//!
//! One span per call into a layer: name, start, end, and the span that was
//! open when it began. Spans are kept in memory and written as a Chrome
//! trace (`chrome://tracing`, <https://ui.perfetto.dev>) when the run ends.
//! The untraced run never constructs a recorder, so end-to-end metrics carry
//! no tracing cost at all.

use crate::clock::Stopwatch;
use crate::json::Json;

/// One recorded span; times are nanoseconds since the recorder started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `topology.build`.
    pub name: String,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to the start while the span is open).
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records nested spans of one workload run.
#[derive(Debug)]
pub struct Spans {
    run_id: String,
    watch: Stopwatch,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// Starts a recorder; `run_id` is shared by every span of the run.
    pub fn new(run_id: impl Into<String>) -> Self {
        Spans {
            run_id: run_id.into(),
            watch: Stopwatch::start(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span called `name` and returns its result together
    /// with the span's duration in seconds.
    pub fn scope<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, f64) {
        let start_ns = self.watch.elapsed_ns();
        let index = self.push(name, start_ns, start_ns);
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        let end_ns = self.watch.elapsed_ns();
        self.spans[index].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 / 1e9)
    }

    /// Records an already-measured span under the currently open one; used
    /// for the measurement slices, whose duration the caller took itself.
    pub fn record(&mut self, name: &str, start_ns: u64, end_ns: u64) {
        self.push(name, start_ns, end_ns);
    }

    /// Nanoseconds since the recorder started, on the spans' time base.
    pub fn now_ns(&self) -> u64 {
        self.watch.elapsed_ns()
    }

    fn push(&mut self, name: &str, start_ns: u64, end_ns: u64) -> usize {
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
        });
        self.spans.len() - 1
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The Chrome-trace document of the run: one complete (`X`) event per
    /// span, with its id, parent, self time and the run id as arguments.
    pub fn to_chrome_trace(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, span)| {
                Json::obj([
                    ("name", Json::Str(span.name.clone())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", Json::Num(span.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(span.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Int(1)),
                    ("tid", Json::Int(1)),
                    (
                        "args",
                        Json::obj([
                            ("run", Json::Str(self.run_id.clone())),
                            ("id", Json::Int(i as u64)),
                            (
                                "parent",
                                span.parent.map_or(Json::Null, |p| Json::Int(p as u64)),
                            ),
                            (
                                "self_us",
                                Json::Num(self_time_ns(&self.spans, i) as f64 / 1e3),
                            ),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::obj([
            ("displayTimeUnit", Json::Str("ms".to_string())),
            ("traceEvents", Json::Arr(events)),
        ])
    }
}

/// Self time of `spans[index]`: duration minus the union of its direct
/// children's intervals, each clipped to the parent.
fn self_time_ns(spans: &[Span], index: usize) -> u64 {
    let parent = &spans[index];
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(index))
        .map(|s| {
            (
                s.start_ns.clamp(parent.start_ns, parent.end_ns),
                s.end_ns.clamp(parent.start_ns, parent.end_ns),
            )
        })
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut frontier = parent.start_ns;
    for (start, end) in children {
        let start = start.max(frontier);
        if end > start {
            covered += end - start;
            frontier = end;
        }
    }
    parent.duration_ns() - covered
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children_once() {
        let spans = vec![
            span("setup", 0, 100, None),
            // Two adjacent children and one grandchild.
            span("topology.build", 10, 40, Some(0)),
            span("core.facade_build", 40, 90, Some(0)),
            span("netsim.new", 50, 80, Some(2)),
        ];
        assert_eq!(self_time_ns(&spans, 0), 100 - 30 - 50);
        assert_eq!(self_time_ns(&spans, 2), 50 - 30);
        assert_eq!(self_time_ns(&spans, 3), 30);
        assert_eq!(self_time_ns(&spans, 1), 30);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span("run", 100, 200, None),
            span("a", 90, 150, Some(0)),
            span("b", 140, 180, Some(0)),
            span("c", 190, 260, Some(0)),
        ];
        // Covered: [100,150) ∪ [150,180) ∪ [190,200) = 90.
        assert_eq!(self_time_ns(&spans, 0), 10);
    }

    #[test]
    fn scopes_nest_and_record_parents() {
        let mut spans = Spans::new("w-1");
        let (value, secs) = spans.scope("setup", |spans| {
            spans.scope("topology.build", |_| 7).0 + spans.scope("qos.build", |_| 1).0
        });
        let at = spans.now_ns();
        spans.record("slice", at, at + 5);
        assert_eq!(value, 8);
        assert!(secs >= 0.0);
        let recorded = spans.spans();
        let names: Vec<&str> = recorded.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["setup", "topology.build", "qos.build", "slice"]);
        assert_eq!(
            recorded.iter().map(|s| s.parent).collect::<Vec<_>>(),
            [None, Some(0), Some(0), None]
        );
        assert!(recorded[0].end_ns >= recorded[2].end_ns);
        assert!(self_time_ns(recorded, 0) <= recorded[0].duration_ns());
    }

    #[test]
    fn chrome_trace_round_trips_through_the_parser() {
        let mut spans = Spans::new("mesh_open_8x8-1");
        spans.scope("setup", |spans| spans.scope("netsim.new", |_| ()));
        let doc = spans.to_chrome_trace();
        let parsed = Json::parse(&doc.render()).expect("trace is valid JSON");
        let events = parsed.get("traceEvents").expect("events").items();
        assert_eq!(events.len(), 2);
        let args = events[1].get("args").expect("args");
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(
            args.get("run").and_then(Json::as_str),
            Some("mesh_open_8x8-1")
        );
        assert_eq!(
            events[0].get("args").and_then(|a| a.get("parent")),
            Some(&Json::Null)
        );
    }
}
