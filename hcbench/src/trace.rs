//! The benchmark's span recorder. Spans are opened and closed by the
//! benchmark around its calls into the stack (nothing inside the program
//! is instrumented), kept in memory, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    /// 1-based span id.
    pub id: u32,
    /// Id of the enclosing span (0 for a root).
    pub parent: u32,
    /// The operation (round, query or batch) the span belongs to.
    pub op: u32,
    /// Layer-qualified call name, e.g. `model.decode_step`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// In-memory span recorder. While off, `open`/`close` record nothing.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    op: u32,
    open: Vec<usize>,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder, initially off.
    pub fn new() -> Self {
        Self {
            on: false,
            epoch: Instant::now(),
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (between operations).
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.open.is_empty(), "toggle only between operations");
        self.on = on;
    }

    /// Starts a new operation; later spans carry its id.
    pub fn next_op(&mut self) {
        self.op += 1;
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id: self.spans.len() as u32 + 1,
            parent,
            op: self.op,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn close(&mut self) {
        if !self.on {
            return;
        }
        let i = self.open.pop().expect("close matches an open span");
        self.spans[i].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.open(name);
        let out = f();
        self.close();
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }

    /// Per root span named `root`: its duration and the summed duration of
    /// its direct children, in ms.
    pub fn root_and_children(&self, root: &str) -> Vec<(f64, f64)> {
        let mut children: BTreeMap<u32, f64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                *children.entry(s.parent).or_default() += s.ms();
            }
        }
        self.spans
            .iter()
            .filter(|s| s.name == root && s.parent == 0)
            .map(|s| (s.ms(), children.get(&s.id).copied().unwrap_or(0.0)))
            .collect()
    }

    /// Per span name: calls and total ms, by total descending.
    pub fn breakdown(&self) -> Vec<(&'static str, usize, f64)> {
        let mut by_name: BTreeMap<&'static str, (usize, f64)> = BTreeMap::new();
        for s in &self.spans {
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.ms();
        }
        let mut rows: Vec<_> = by_name.into_iter().map(|(n, (c, ms))| (n, c, ms)).collect();
        rows.sort_by(|a, b| b.2.total_cmp(&a.2));
        rows
    }

    /// Writes the spans as JSON lines.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}
