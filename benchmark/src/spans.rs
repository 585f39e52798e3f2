//! Benchmark-side spans: recorded around the calls into each layer, kept
//! in memory, written once at exit as Chrome-trace JSON.
//!
//! A span has a name, a start, an end, the span that caused it (its
//! parent) and the id of the unit (seeded run) it belongs to; a
//! `run_until` slice also carries how many events the scheduler
//! dispatched in it. A span's self time is its duration minus the part
//! its children cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit (run index within the pass) the span belongs to.
    pub unit: u32,
    /// Scheduler events dispatched inside the span, where known.
    pub events: Option<u64>,
}

impl Span {
    /// The span's duration.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The in-memory span recorder.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans::new()
    }
}

impl Spans {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one and returns its index.
    pub fn open(&mut self, name: &'static str, unit: u32) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            unit,
            events: None,
        });
        let id = self.spans.len() - 1;
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns
    /// its duration.
    pub fn close(&mut self, id: usize) -> u64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id].end_ns = self.now_ns();
        self.spans[id].dur_ns()
    }

    /// Runs `f` inside a span and returns its result with the duration.
    pub fn time<R>(&mut self, name: &'static str, unit: u32, f: impl FnOnce() -> R) -> (R, u64) {
        let id = self.open(name, unit);
        let result = f();
        (result, self.close(id))
    }

    /// Records a span that already ended, under the innermost open one.
    pub fn add(&mut self, name: &'static str, unit: u32, start: Instant, end: Instant) -> usize {
        let since = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: since(start),
            end_ns: since(end),
            parent: self.open.last().copied(),
            unit,
            events: None,
        });
        self.spans.len() - 1
    }

    /// Attaches an event count to span `id`.
    pub fn set_events(&mut self, id: usize, events: u64) {
        self.spans[id].events = Some(events);
    }

    /// Every span, in opening order.
    pub fn all(&self) -> &[Span] {
        &self.spans
    }

    /// Renders the spans in the Chrome trace-event format (load it in
    /// Perfetto or `chrome://tracing`): complete (`X`) events on one
    /// thread, nested by time, with `unit`, `parent` and `events` under
    /// `args`. Timestamps are microseconds with nanosecond decimals.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(
            "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":1,\
             \"args\":{\"name\":\"ftvod-benchmark (one thread)\"}}",
        );
        for (id, span) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"ph\":\"X\",\"name\":\"{}\",\"cat\":\"bench\",\"pid\":1,\"tid\":1,\
                 \"ts\":{}.{:03},\"dur\":{}.{:03},\"args\":{{\"id\":{},\"unit\":{}",
                span.name,
                span.start_ns / 1000,
                span.start_ns % 1000,
                span.dur_ns() / 1000,
                span.dur_ns() % 1000,
                id,
                span.unit
            );
            if let Some(parent) = span.parent {
                let _ = write!(out, ",\"parent\":{parent}");
            }
            if let Some(events) = span.events {
                let _ = write!(out, ",\"events\":{events}");
            }
            out.push_str("}}");
        }
        out.push_str("\n]}\n");
        out
    }
}
