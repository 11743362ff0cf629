//! Spans recorded by the benchmark's own code around each call into a
//! simulator layer (the simulator itself carries no timers). The drive
//! loops are generic over [`Probe`]: with [`Off`] every span compiles to a
//! direct call, so the end-to-end pass pays nothing for the traced pass's
//! instrumentation; with [`Recorder`] each call is bracketed by two
//! monotonic-clock reads and kept in memory until the pass ends.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One timed call: a name, a half-open `[start, end)` interval in
/// nanoseconds since the recorder's epoch, the span that contained it and
/// how many work items (cycles, packets, …) the call covered.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified call name, e.g. `noc.tick`.
    pub name: &'static str,
    /// Start, ns since the recorder was created.
    pub start_ns: u64,
    /// End, ns since the recorder was created.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Work items covered (1 for a plain call).
    pub count: u32,
}

impl Span {
    /// Wall time of the span, ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// What the drive loops call around every layer boundary.
pub trait Probe: Sized {
    /// Simulated cycles per `run_until` call in the measured window of a
    /// full-system workload: the traced pass slices the window so each
    /// slice is a sample, the untraced pass runs it in one call.
    const SLICE: u64;

    /// Runs `f` as one span named `name`.
    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R;

    /// Runs `f` as one span whose work-item count is what `f` returns.
    fn span_n(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> u32);
}

/// Tracing off: spans are direct calls.
pub struct Off;

impl Probe for Off {
    const SLICE: u64 = u64::MAX;

    #[inline(always)]
    fn span<R>(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        f(self)
    }

    #[inline(always)]
    fn span_n(&mut self, _name: &'static str, f: impl FnOnce(&mut Self) -> u32) {
        f(self);
    }
}

/// Tracing on: every span is kept, with its parent, until the pass ends.
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied();
        self.open.push(id);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            count: 1,
        });
        id
    }

    fn exit(&mut self, id: u32, count: u32) {
        let end_ns = self.now_ns();
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
        self.open.pop();
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Drops the spans recorded after the first `len`, so a long pass can
    /// keep one repetition's spans for export and only the aggregates of
    /// the rest. Call between top-level spans only.
    pub fn truncate(&mut self, len: usize) {
        assert!(self.open.is_empty(), "truncate inside an open span");
        self.spans.truncate(len);
    }
}

impl Probe for Recorder {
    const SLICE: u64 = 250;

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id, 1);
        out
    }

    fn span_n(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> u32) {
        let id = self.enter(name);
        let count = f(self);
        self.exit(id, count);
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (children are clipped to the parent;
/// siblings from one thread never overlap each other).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for child in spans {
        let Some(p) = child.parent else { continue };
        let parent = &spans[p as usize];
        let start = child.start_ns.max(parent.start_ns);
        let end = child.end_ns.min(parent.end_ns);
        own[p as usize] = own[p as usize].saturating_sub(end.saturating_sub(start));
    }
    own
}

/// Totals of all spans sharing a name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct NameTotal {
    /// Calls recorded.
    pub calls: u64,
    /// Work items covered.
    pub count: u64,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times, ns.
    pub self_ns: u64,
}

/// Per-name totals over `spans`.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotal> {
    let own = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
    for (span, own_ns) in spans.iter().zip(own) {
        let t = out.entry(span.name).or_default();
        t.calls += 1;
        t.count += u64::from(span.count);
        t.total_ns += span.duration_ns();
        t.self_ns += own_ns;
    }
    out
}

/// The spans as a Chrome trace (`chrome://tracing`, Perfetto): one
/// complete (`"ph":"X"`) event per span on thread `tid` — the workload's
/// identifier — carrying its parent's index and work-item count.
pub fn chrome_trace_json(spans: &[Span], workload: &str, tid: u32) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 120);
    let _ = write!(
        out,
        "{{\"displayTimeUnit\":\"ns\",\"traceEvents\":[\
         {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
         \"args\":{{\"name\":\"{workload}\"}}}}"
    );
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or(-1, i64::from);
        let _ = write!(
            out,
            ",\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{tid},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"count\":{}}}}}",
            s.name,
            s.start_ns as f64 / 1e3,
            s.duration_ns() as f64 / 1e3,
            s.count
        );
    }
    out.push_str("]}\n");
    out
}
