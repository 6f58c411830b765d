//! Client-side spans: the outside-in trace.
//!
//! The benchmark wraps every call it makes into a layer's public function
//! in a span — name, start, end, the span that caused it, and the op it
//! belongs to. Spans are kept in memory and written out when the run
//! ends; a layer's *self time* is its span minus the part of that
//! interval its children cover. Spans inside the program are a later
//! change: everything here is recorded from the benchmark's own files.
//!
//! A disabled tracer (the untraced, end-to-end run) records nothing and
//! costs one branch per span.

use std::sync::Mutex;
use std::time::Instant;

use axi4mlir_support::json::JsonValue;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.explore.front`.
    pub name: &'static str,
    /// Index of the causing span in the tracer's list, if any.
    pub parent: Option<usize>,
    /// The op (request) the span belongs to; spans of one op share it.
    pub op: u64,
    /// Start, in nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

impl Span {
    /// The span's duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder shared by the load-generating threads.
pub struct Tracer {
    epoch: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or drops every span.
    pub fn new(enabled: bool) -> Self {
        Self { epoch: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.spans.is_some()
    }

    /// Nanoseconds since the tracer's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index (usable as a later
    /// span's `parent`); `None` when disabled.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> Option<usize> {
        let mut spans = self.spans.as_ref()?.lock().expect("tracer poisoned");
        spans.push(Span { name, parent, op, start_ns, end_ns });
        Some(spans.len() - 1)
    }

    /// Opens a span now and returns its index so children can name it as
    /// their parent; [`Tracer::close`] stamps its end.
    pub fn open(&self, name: &'static str, parent: Option<usize>, op: u64) -> Option<usize> {
        let now = self.now_ns();
        self.record(name, parent, op, now, now)
    }

    /// Stamps the end of a span opened with [`Tracer::open`].
    pub fn close(&self, span: Option<usize>) {
        if let (Some(index), Some(spans)) = (span, &self.spans) {
            let now = self.now_ns();
            spans.lock().expect("tracer poisoned")[index].end_ns = now;
        }
    }

    /// Times `work` as one span.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        op: u64,
        work: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled() {
            return work();
        }
        let start = self.now_ns();
        let out = work();
        self.record(name, parent, op, start, self.now_ns());
        out
    }

    /// Every span recorded so far, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.as_ref().map_or_else(Vec::new, |s| s.lock().expect("tracer poisoned").clone())
    }
}

/// Self time per span: its duration minus the part of its interval that
/// its direct children cover (overlapping children — two measuring
/// threads under one rung — are merged first, so covered time is never
/// counted twice, and a child is clipped to its parent's interval).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            let (lo, hi) = (spans[parent].start_ns, spans[parent].end_ns);
            let clipped = (span.start_ns.clamp(lo, hi), span.end_ns.clamp(lo, hi));
            if clipped.1 > clipped.0 {
                children[parent].push(clipped);
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut intervals)| {
            intervals.sort_unstable();
            let mut covered = 0u64;
            let mut frontier = span.start_ns;
            for (start, end) in intervals {
                let start = start.max(frontier);
                if end > start {
                    covered += end - start;
                    frontier = end;
                }
            }
            span.nanos().saturating_sub(covered)
        })
        .collect()
}

/// The trace file's JSON form: one object per span, with its self time.
pub fn to_json(spans: &[Span]) -> JsonValue {
    let own = self_times(spans);
    JsonValue::Array(
        spans
            .iter()
            .zip(own)
            .enumerate()
            .map(|(id, (span, self_ns))| {
                JsonValue::object([
                    ("id".to_owned(), id.into()),
                    ("name".to_owned(), span.name.into()),
                    ("parent".to_owned(), span.parent.map_or(JsonValue::Null, JsonValue::from)),
                    ("op".to_owned(), span.op.into()),
                    ("start_ns".to_owned(), span.start_ns.into()),
                    ("end_ns".to_owned(), span.end_ns.into()),
                    ("self_ns".to_owned(), self_ns.into()),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", parent, op: 0, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_the_span_minus_what_its_children_cover() {
        let spans = [
            span(None, 0, 100),     // root
            span(Some(0), 10, 30),  // child
            span(Some(0), 20, 50),  // overlaps the first child: union 10..50
            span(Some(0), 70, 80),  // disjoint child
            span(Some(2), 25, 45),  // grandchild: charged to span 2 only
            span(Some(0), 90, 140), // runs past the parent: clipped to 90..100
        ];
        let own = self_times(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 10, "union of children, clipped");
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30 - 20);
        assert_eq!(own[3], 10);
        assert_eq!(own[4], 20);
        assert_eq!(own[5], 50);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        assert_eq!(off.span("x", None, 0, || 7), 7);
        assert_eq!(off.open("x", None, 0), None);
        off.close(None);
        assert!(off.spans().is_empty());

        let on = Tracer::new(true);
        let root = on.open("root", None, 3);
        on.span("leaf", root, 3, || ());
        on.close(root);
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let text = to_json(&spans).to_json_string();
        assert!(text.contains("\"self_ns\""), "{text}");
    }
}
