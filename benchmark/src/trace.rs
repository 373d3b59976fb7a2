//! Harness-side spans: every call the benchmark makes into a layer is timed
//! through [`Tracer::call`], which always returns the elapsed time (that is
//! what latencies are built from) and, when recording, also keeps a span —
//! name, start, end, parent, and the id of the operation it belongs to.
//! Spans stay in memory until the run ends and are then written as JSON
//! lines. Nothing inside the engine is instrumented.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Name of the root span of one operation.
pub const REQUEST: &str = "request";

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Operation id: every span of one request shares it.
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn seconds(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// One thread's span recorder. Threads that trace concurrently each own a
/// tracer created with the same `epoch` and a distinct `lane`, so span ids
/// stay unique when the lanes are concatenated.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    lane: u32,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
    next: u32,
    op: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Tracer {
            epoch,
            lane,
            recording: false,
            spans: Vec::new(),
            open: Vec::new(),
            next: 0,
            op: 0,
        }
    }

    /// A tracer that never records: for calls whose time alone matters.
    pub fn idle() -> Self {
        Tracer::new(Instant::now(), 0)
    }

    /// A tracer for another thread of the same run.
    pub fn lane(&self, lane: u32) -> Tracer {
        Tracer::new(self.epoch, lane)
    }

    pub fn set_recording(&mut self, on: bool) {
        self.recording = on;
    }

    pub fn is_recording(&self) -> bool {
        self.recording
    }

    /// Moves the finished spans of `lane` into this tracer.
    pub fn absorb(&mut self, lane: &mut Tracer) {
        self.spans.append(&mut lane.spans);
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, name: &'static str) {
        let id = (self.lane << 24) | self.next;
        self.next += 1;
        let parent = self.open.last().map(|&i| self.spans[i].id);
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            op: self.op,
            name,
            start_ns,
            end_ns: start_ns,
        });
    }

    fn pop(&mut self) {
        let end = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end;
        }
    }

    /// Runs one operation under a [`REQUEST`] root span; calls made through
    /// [`Tracer::call`] inside `f` become its children.
    pub fn request<T>(&mut self, op: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.recording {
            return f(self);
        }
        self.op = op;
        self.push(REQUEST);
        let out = f(self);
        self.pop();
        out
    }

    /// Times one call into a layer and returns its result with the elapsed
    /// seconds.
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        if !self.recording {
            let t = Instant::now();
            let out = f();
            return (out, t.elapsed().as_secs_f64());
        }
        self.push(name);
        let i = self.spans.len() - 1;
        let out = f();
        self.pop();
        (out, self.spans[i].seconds())
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations, in seconds, of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::seconds)
        .collect()
}

/// Share of the request spans' time that their direct children account for:
/// what is left is harness glue (and clock reads), which the per-layer
/// numbers cannot explain.
pub fn attributed_share(spans: &[Span]) -> f64 {
    let mut request_ns = 0u64;
    let mut child_ns = 0u64;
    let mut roots = std::collections::BTreeSet::new();
    for s in spans.iter().filter(|s| s.name == REQUEST) {
        roots.insert(s.id);
        request_ns += s.end_ns - s.start_ns;
    }
    for s in spans {
        if s.parent.is_some_and(|p| roots.contains(&p)) {
            child_ns += s.end_ns - s.start_ns;
        }
    }
    if request_ns == 0 {
        0.0
    } else {
        child_ns as f64 / request_ns as f64
    }
}

/// Writes the spans as one JSON object per line; `self_ns` is the span's
/// duration minus the time its direct children cover.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut child_ns = std::collections::BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_insert(0u64) += s.end_ns - s.start_ns;
        }
    }
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
            s.id, parent, s.op, s.name, s.start_ns, s.end_ns, own
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_under_their_request() {
        let mut t = Tracer::new(Instant::now(), 1);
        t.set_recording(true);
        let sum = t.request(7, |t| {
            let (a, _) = t.call("layer.a", || 1);
            let (b, _) = t.call("layer.b", || 2);
            a + b
        });
        assert_eq!(sum, 3);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, REQUEST);
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert_eq!(spans[2].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.op == 7));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let share = attributed_share(&spans);
        assert!((0.0..=1.0).contains(&share));
        assert_eq!(durations(&spans, "layer.a").len(), 1);
    }

    #[test]
    fn an_idle_tracer_still_times_calls() {
        let mut t = Tracer::idle();
        let (v, secs) = t.request(1, |t| t.call("x", || 5));
        assert_eq!(v, 5);
        assert!(secs >= 0.0);
        assert!(t.into_spans().is_empty());
    }
}
