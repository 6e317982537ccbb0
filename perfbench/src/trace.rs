//! Spans recorded by the benchmark's own code around its calls into each
//! layer: name, start, end, parent, and a trace id shared by the spans of
//! one replayed request. Spans stay in memory and are written out as JSON
//! lines when the replay ends. A disabled tracer runs the same closures
//! without reading the clock, which is the untraced half of the overhead
//! ratio.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<SpanRec>,
    /// Indices into `spans` of the open spans, innermost last.
    open: Vec<usize>,
    trace: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            trace: 0,
        }
    }

    /// Starts a new trace: the spans opened from now on share `trace`.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace = trace;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let index = self.spans.len();
        self.spans.push(SpanRec {
            id: index as u64 + 1,
            parent,
            trace: self.trace,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
        let value = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        value
    }

    pub fn spans(&self) -> &[SpanRec] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span, grouped by name: the span's duration minus the
/// part of it its children cover (children never overlap their siblings
/// here: the replay is single-threaded). Children outside `spans` are not
/// subtracted, so pass whole subtrees.
pub fn self_times_ns(spans: &[SpanRec]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in spans {
        let children = child_ns.get(&s.id).copied().unwrap_or(0);
        let own = (s.end_ns - s.start_ns).saturating_sub(children);
        out.entry(s.name).or_default().push(own as f64);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u64, parent: u64, name: &'static str, start: u64, end: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            trace: 7,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = [
            rec(1, 0, "request", 0, 100),
            rec(2, 1, "parse", 10, 30),
            rec(3, 1, "route", 30, 90),
            rec(4, 3, "evaluate", 40, 70),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own["request"], vec![20.0]);
        assert_eq!(own["parse"], vec![20.0]);
        assert_eq!(own["route"], vec![30.0]);
        assert_eq!(own["evaluate"], vec![30.0]);
        // A slice later in the recording: ids are not positions.
        let later = [rec(11, 0, "request", 0, 50), rec(12, 11, "parse", 5, 15)];
        assert_eq!(self_times_ns(&later)["request"], vec![40.0]);
    }

    #[test]
    fn tracer_nests_and_shares_trace_ids() {
        let mut tracer = Tracer::new(true);
        tracer.set_trace(42);
        let v = tracer.span("outer", |t| t.span("inner", |_| 5));
        assert_eq!(v, 5);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, spans[0].id);
        assert!(spans
            .iter()
            .all(|s| s.trace == 42 && s.end_ns >= s.start_ns));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
