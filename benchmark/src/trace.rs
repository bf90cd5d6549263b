//! In-memory spans recorded by the harness around its calls into each layer.
//!
//! The program under test has no spans of its own yet, so a span here is
//! always "the benchmark called this public function". Spans nest through
//! [`Tracer::span`]; each belongs to the op that was current when it opened.

use crate::stats::median;
use std::io::{self, Write};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The op (one round of the workload's request pack) this span belongs to.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    ops: u64,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            ops: 0,
        }
    }

    /// Start the next op; spans opened from now on carry its id.
    pub fn begin_op(&mut self) {
        self.ops += 1;
    }

    pub fn ops(&self) -> u64 {
        self.ops
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span called `name`, nested in whichever span is open.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op: self.ops,
        });
        self.open.push(index);
        let result = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        result
    }

    /// Every span's self time: its duration minus the part its direct
    /// children cover. Indexed like [`Tracer::spans`].
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                covered[parent] += span.duration_ns();
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(span, children)| span.duration_ns().saturating_sub(children))
            .collect()
    }

    /// For every op that has spans called `name`: their summed duration and
    /// their number. One entry per such op, in op order.
    fn per_op(&self, name: &str) -> Vec<(u64, u64)> {
        let mut totals: Vec<(u64, u64)> = vec![(0, 0); self.ops as usize + 1];
        for span in self.spans.iter().filter(|s| s.name == name) {
            let slot = &mut totals[span.op as usize];
            slot.0 += span.duration_ns();
            slot.1 += 1;
        }
        totals.retain(|&(_, calls)| calls > 0);
        totals
    }

    /// Median over ops of the time spent in spans called `name`, in µs.
    pub fn op_total_us(&self, name: &str) -> f64 {
        let totals: Vec<f64> = self
            .per_op(name)
            .iter()
            .map(|&(ns, _)| ns as f64 / 1e3)
            .collect();
        median(&totals).unwrap_or(0.0)
    }

    /// Median over ops of the mean duration of one span called `name`, in µs.
    pub fn call_us(&self, name: &str) -> f64 {
        let means: Vec<f64> = self
            .per_op(name)
            .iter()
            .map(|&(ns, calls)| ns as f64 / calls as f64 / 1e3)
            .collect();
        median(&means).unwrap_or(0.0)
    }

    /// Every single span called `name`, in µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Write `{"workload": .., "ops": .., "spans": [{name, start_ns, end_ns,
    /// self_ns, parent, op}]}`. Streamed: a `prepare` trace holds half a
    /// million spans. Span names are plain identifiers, so they need no
    /// escaping.
    pub fn write_json(&self, workload: &str, mut out: impl Write) -> io::Result<()> {
        write!(
            out,
            "{{\"workload\":\"{workload}\",\"ops\":{},\"spans\":[",
            self.ops
        )?;
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let comma = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            write!(
                out,
                "{comma}{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns},\
                 \"parent\":{parent},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            )?;
        }
        write!(out, "]}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tracer with hand-set timestamps: parent [0, 100], children [10, 30]
    /// and [40, 90], grandchild [50, 60] under the second child.
    fn fixture() -> Tracer {
        let mut t = Tracer::new();
        t.ops = 1;
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        };
        t.spans = vec![
            span("parent", 0, 100, None),
            span("child", 10, 30, Some(0)),
            span("child", 40, 90, Some(0)),
            span("grandchild", 50, 60, Some(2)),
        ];
        t
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        assert_eq!(fixture().self_ns(), vec![100 - 20 - 50, 20, 50 - 10, 10]);
    }

    #[test]
    fn per_op_totals_and_per_call_means() {
        let t = fixture();
        assert_eq!(t.op_total_us("child"), 0.070);
        assert_eq!(t.call_us("child"), 0.035);
        assert_eq!(t.op_total_us("absent"), 0.0);
    }

    #[test]
    fn nesting_records_parents_and_ops() {
        let mut t = Tracer::new();
        t.begin_op();
        let answer = t.span("outer", |t| {
            t.span("inner", |_| ());
            t.span("inner", |_| 42)
        });
        assert_eq!(answer, 42);
        t.begin_op();
        t.span("outer", |_| ());
        let parents: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            parents,
            vec![
                ("outer", None, 1),
                ("inner", Some(0), 1),
                ("inner", Some(0), 1),
                ("outer", None, 2)
            ]
        );
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let mut json = Vec::new();
        t.write_json("scan", &mut json).unwrap();
        let json = String::from_utf8(json).unwrap();
        assert!(json.starts_with(
            "{\"workload\":\"scan\",\"ops\":2,\"spans\":[{\"name\":\"outer\",\"start_ns\":"
        ));
        let parsed = ncql_serve::json::parse(&json).unwrap();
        let spans = parsed.get("spans").and_then(|s| s.as_arr()).unwrap();
        assert_eq!(spans.len(), 4);
        assert!(spans[0].get("parent").unwrap().is_null());
        assert_eq!(spans[1].get("parent").unwrap().as_u64(), Some(0));
    }
}
