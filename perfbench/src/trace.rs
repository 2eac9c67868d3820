//! Spans recorded by the benchmark around its calls into the program.
//!
//! Nothing inside the program is instrumented: each span brackets one call
//! into a module's public function from the benchmark's own code. Spans are
//! kept in memory per client thread and only summarized when the run ends.
//! A span's layer is the module prefix of its name (`discovery.query.santos`
//! belongs to `discovery`), and its self time is its duration minus the part
//! of that interval its child spans cover — children that overlap each other
//! (a parallel shard fan-out) are counted once.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The repository modules a span can be attributed to.
pub const LAYERS: [&str; 9] = [
    "table",
    "minhash",
    "discovery",
    "shard",
    "serving",
    "align",
    "integrate",
    "analyze",
    "durable",
];

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The module this span is attributed to.
    pub fn layer(&self) -> &'static str {
        self.name.split('.').next().unwrap_or(self.name)
    }
}

/// An open span, closed with [`Tracer::end`].
#[must_use]
pub struct Open {
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
}

impl Open {
    pub fn id(&self) -> u64 {
        self.id
    }
}

/// A per-thread span recorder. A disabled tracer records nothing and
/// reads no clock.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    request: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            enabled,
            origin,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// A tracer for work done on another thread on behalf of the span
    /// `parent` of request `request` (e.g. one shard of a fan-out).
    pub fn child(&self, parent: Option<u64>) -> Tracer {
        Tracer {
            enabled: self.enabled,
            origin: self.origin,
            request: self.request,
            stack: parent.into_iter().collect(),
            spans: Vec::new(),
        }
    }

    /// Start a new client request: later spans carry its id.
    pub fn set_request(&mut self, request: u64) {
        self.request = request;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Option<Open> {
        if !self.enabled {
            return None;
        }
        let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
        let open = Open {
            id,
            parent: self.stack.last().copied(),
            name,
            start: self.now(),
        };
        self.stack.push(id);
        Some(open)
    }

    pub fn end(&mut self, open: Option<Open>) {
        let Some(open) = open else { return };
        let end = self.now();
        if let Some(pos) = self.stack.iter().rposition(|&id| id == open.id) {
            self.stack.truncate(pos);
        }
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            request: self.request,
            name: open.name,
            start: open.start,
            end,
        });
    }

    /// Run `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let open = self.begin(name);
        let out = f(self);
        self.end(open);
        out
    }

    /// Adopt the spans another thread recorded for this tracer.
    pub fn absorb(&mut self, other: Tracer) {
        self.spans.extend(other.spans);
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
pub fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0u64;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |c| covered(c, s.start, s.end));
            s.duration() - covered
        })
        .collect()
}

/// What one traced run's spans add up to.
#[derive(Debug, Default)]
pub struct Breakdown {
    /// Summed self time per layer, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Summed duration and call count per span name.
    pub by_name: BTreeMap<&'static str, (u64, u64)>,
    /// Time covered by root spans (union per recording thread).
    pub rooted_ns: u64,
}

impl Breakdown {
    /// Fold one thread's spans in.
    pub fn add(&mut self, spans: &[Span]) {
        let selfs = self_times(spans);
        let mut roots = Vec::new();
        for (s, own) in spans.iter().zip(selfs) {
            *self.self_ns.entry(s.layer()).or_default() += own;
            let e = self.by_name.entry(s.name).or_default();
            e.0 += s.duration();
            e.1 += 1;
            if s.parent.is_none() {
                roots.push((s.start, s.end));
            }
        }
        self.rooted_ns += covered(&mut roots, 0, u64::MAX);
    }

    /// Mean duration of the spans named `name`, in microseconds.
    pub fn mean_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, n)| ns as f64 / 1e3 / n.max(1) as f64)
    }

    /// Total duration of the spans named `name`, in milliseconds.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |&(ns, _)| ns as f64 / 1e6)
    }

    pub fn count(&self, name: &str) -> u64 {
        self.by_name.get(name).map_or(0, |&(_, n)| n)
    }

    pub fn self_total_ns(&self) -> u64 {
        self.self_ns.values().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request: 1,
            name,
            start,
            end,
        }
    }

    #[test]
    fn nested_children_subtract_once_per_level() {
        // root [0,100) ⊃ a [10,40) ⊃ a1 [15,25); root ⊃ b [50,70)
        let spans = vec![
            span(1, None, "serving.query", 0, 100),
            span(2, Some(1), "shard.fanout", 10, 40),
            span(3, Some(2), "discovery.query.santos", 15, 25),
            span(4, Some(1), "discovery.query.joinable", 50, 70),
        ];
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let mut b = Breakdown::default();
        b.add(&spans);
        assert_eq!(b.self_ns["serving"], 50);
        assert_eq!(b.self_ns["shard"], 20);
        assert_eq!(b.self_ns["discovery"], 30);
        assert_eq!(b.self_total_ns(), 100);
        assert_eq!(b.rooted_ns, 100);
    }

    #[test]
    fn overlapping_children_are_counted_once_and_clipped() {
        // Two parallel shard children overlap on [30,40); a third starts
        // before the parent and ends after it (clock skew across threads).
        let spans = vec![
            span(1, None, "shard.fanout", 10, 100),
            span(2, Some(1), "discovery.query.santos", 20, 40),
            span(3, Some(1), "discovery.query.santos", 30, 60),
            span(4, Some(1), "discovery.query.metadata", 90, 120),
        ];
        // Union inside [10,100): [20,60) + [90,100) = 50 → self 40.
        assert_eq!(self_times(&spans)[0], 40);
        let mut iv = vec![(5, 15), (0, 2), (12, 30)];
        assert_eq!(covered(&mut iv, 0, 100), 2 + 25);
        assert_eq!(covered(&mut [], 0, 10), 0);
    }

    #[test]
    fn tracer_records_parents_requests_and_fanout_children() {
        let mut t = Tracer::new(true, Instant::now());
        t.set_request(7);
        let root = t.begin("serving.query");
        let parent = root.as_ref().map(Open::id);
        let mut child = t.child(parent);
        child.span("discovery.query.joinable", |_| ());
        t.absorb(child);
        let inner = t.span("shard.merge", |t| t.span("discovery.topk", |_| 3));
        assert_eq!(inner, 3);
        t.end(root);
        assert_eq!(t.spans.len(), 4);
        assert!(t.spans.iter().all(|s| s.request == 7));
        let root = t.spans.iter().find(|s| s.name == "serving.query").unwrap();
        let joinable = t
            .spans
            .iter()
            .find(|s| s.name.ends_with("joinable"))
            .unwrap();
        let topk = t.spans.iter().find(|s| s.name == "discovery.topk").unwrap();
        let merge = t.spans.iter().find(|s| s.name == "shard.merge").unwrap();
        assert_eq!(joinable.parent, Some(root.id));
        assert_eq!(merge.parent, Some(root.id));
        assert_eq!(topk.parent, Some(merge.id));
        assert_eq!(root.parent, None);

        let mut off = Tracer::new(false, Instant::now());
        assert!(off.begin("x").is_none());
        off.span("table.ingest", |_| ());
        assert!(off.spans.is_empty());
    }
}
