//! Spans of the traced run, recorded from outside the library around the
//! calls into each layer's public entry points.
//!
//! Spans stay in memory while the workload runs and are written out once at
//! the end, so tracing adds no I/O to a timed op.

use adc_approx::{ApproxContext, ApproximationFunction};
use adc_data::FixedBitSet;
use std::cell::Cell;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// One timed interval. Spans of one op share `op`; `parent` is the `id` of
/// the enclosing span. An aggregated span (`calls > 1`) stands for many
/// short calls: it starts with its parent and lasts their summed duration.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Op the span belongs to.
    pub op: u64,
    /// Span id, unique within the trace.
    pub id: usize,
    /// Enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer entry point the span times.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Calls the span covers.
    pub calls: u64,
}

impl Span {
    /// The span's duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn ns(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// Time `f` as span `name` of `op` under `parent`; returns its value and
    /// the recorded span.
    pub fn span<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> (T, Span) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let span = self.record(op, parent, name, start, end, 1);
        (value, span)
    }

    /// Open a span whose end is set later with [`Tracer::close`] (for spans
    /// that enclose other spans).
    pub fn open(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = Instant::now();
        self.record(op, parent, name, now, now, 1).id
    }

    /// Close a span opened with [`Tracer::open`]; returns it.
    pub fn close(&mut self, id: usize) -> Span {
        let end = self.ns(Instant::now());
        let span = &mut self.spans[id];
        span.end_ns = end;
        *span
    }

    /// Record an aggregated child span: `calls` calls totalling `total`,
    /// anchored at the parent's start.
    pub fn aggregate(
        &mut self,
        op: u64,
        parent: &Span,
        name: &'static str,
        total: Duration,
        calls: u64,
    ) -> Span {
        let start_ns = parent.start_ns;
        let span = Span {
            op,
            id: self.spans.len(),
            parent: Some(parent.id),
            name,
            start_ns,
            end_ns: start_ns + total.as_nanos() as u64,
            calls,
        };
        self.spans.push(span);
        span
    }

    fn record(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        start: Instant,
        end: Instant,
        calls: u64,
    ) -> Span {
        let span = Span {
            op,
            id: self.spans.len(),
            parent,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
            calls,
        };
        self.spans.push(span);
        span
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write the spans as a JSON array, one span per line.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let sep = if i + 1 < self.spans.len() { "," } else { "" };
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"calls\":{}}}{sep}",
                s.op, s.id, parent, s.name, s.start_ns, s.end_ns, s.calls
            );
        }
        out.push_str("]\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// An [`ApproximationFunction`] adapter that counts and times every score
/// call of the function it wraps, so the scoring layer can be split out of
/// the enumeration's time without touching the library.
pub struct TimedApprox {
    inner: Box<dyn ApproximationFunction>,
    calls: Cell<u64>,
    busy: Cell<Duration>,
}

impl TimedApprox {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn ApproximationFunction>) -> Self {
        TimedApprox {
            inner,
            calls: Cell::new(0),
            busy: Cell::new(Duration::ZERO),
        }
    }

    /// Score calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.get()
    }

    /// Time spent in score calls so far.
    pub fn busy(&self) -> Duration {
        self.busy.get()
    }
}

impl ApproximationFunction for TimedApprox {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn score(&self, ctx: &ApproxContext<'_>, set: &FixedBitSet) -> f64 {
        let start = Instant::now();
        let score = self.inner.score(ctx, set);
        self.busy.set(self.busy.get() + start.elapsed());
        self.calls.set(self.calls.get() + 1);
        score
    }

    fn requires_vios(&self) -> bool {
        self.inner.requires_vios()
    }
}
