//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around each call
//! into a layer's public functions: name (`<layer>.<call>`), start, end,
//! parent span and op id. They stay in memory until the run ends, then
//! [`Tracer::write_chrome`] writes them as Chrome trace-event JSON.
//! Counters are recorded at the same boundaries.
//!
//! A span's self time is its duration minus the time its child spans
//! cover; [`Tracer::self_ns_by_layer`] sums self times per layer (the
//! name's prefix before the first `.`). Spans named `op.*` wrap one
//! workload op, so the `op` layer's self time is the op's unattributed
//! time. Spans named `bench.*` are the benchmark's own bookkeeping
//! (re-deriving what an entry point keeps private), counted as tracing
//! overhead rather than as any layer's work.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
    pub op: u64,
    pub tid: u32,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end - self.start
    }
}

/// Small per-thread id for the trace's `tid` column.
fn thread_id() -> u32 {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    thread_local!(static ID: u32 = NEXT.fetch_add(1, Ordering::Relaxed));
    ID.with(|id| *id)
}

/// Span and counter buffer of one thread (merge with [`Tracer::absorb`]).
#[derive(Debug)]
pub struct Tracer {
    spans: Vec<Span>,
    stack: Vec<usize>,
    op: u64,
    tid: u32,
    counters: BTreeMap<&'static str, f64>,
}

impl Tracer {
    /// An empty buffer for the calling thread.
    pub fn new() -> Self {
        Tracer {
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            tid: thread_id(),
            counters: BTreeMap::new(),
        }
    }

    /// Run `f` as op `id`: every span opened inside carries the id.
    pub fn op<T>(&mut self, id: u64, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let outer = std::mem::replace(&mut self.op, id);
        let out = self.span(name, f);
        self.op = outer;
        out
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start: now_ns(),
            end: 0,
            parent: self.stack.last().copied(),
            op: self.op,
            tid: self.tid,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end = now_ns();
        out
    }

    /// Duration of the most recently closed span named `name`.
    pub fn last_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .rev()
            .find(|s| s.name == name)
            .map_or(0, Span::dur)
    }

    /// Add `v` to counter `name`.
    pub fn add(&mut self, name: &'static str, v: f64) {
        *self.counters.entry(name).or_insert(0.0) += v;
    }

    pub fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0.0)
    }

    /// Append another thread's spans and counters.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
        for (k, v) in other.counters {
            self.add(k, v);
        }
    }

    /// `(count, total ns)` of the spans named `name`.
    pub fn total(&self, name: &str) -> (usize, u64) {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(n, t), s| (n + 1, t + s.dur()))
    }

    /// Self time per layer, in nanoseconds.
    pub fn self_ns_by_layer(&self) -> BTreeMap<&'static str, u64> {
        let mut child = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child[p] += s.dur();
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child) {
            let layer = s.name.split('.').next().unwrap_or(s.name);
            *out.entry(layer).or_insert(0) += s.dur().saturating_sub(c);
        }
        out
    }

    /// Write every span as Chrome trace-event JSON (complete events,
    /// microseconds), with the op id and parent index in `args`.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        out.write_all(b"{\"traceEvents\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                out,
                "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{i},\"op\":{},\"parent\":{parent}}}}}",
                if i == 0 { "" } else { ",\n" },
                s.name,
                s.tid,
                s.start as f64 / 1e3,
                s.dur() as f64 / 1e3,
                s.op
            )?;
        }
        out.write_all(b"\n]}\n")?;
        out.flush()
    }
}
