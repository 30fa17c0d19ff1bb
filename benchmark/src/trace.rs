//! Span recording for the traced run. Spans are taken from outside, around
//! calls into each crate's public functions, kept in a preallocated buffer
//! and written as `trace.json` when the run ends.

use std::io::Write;
use std::time::Instant;

/// Where the traced run writes its spans, relative to the repository root.
pub const TRACE_PATH: &str = "benchmark/out/trace.json";

/// Sentinel parent of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub parent: u32,
    pub name: &'static str,
    /// Index of the unit (frame, sequence, window or round trip) the span
    /// belongs to; spans of one unit share it.
    pub unit: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// An in-memory span buffer. Recording past the preallocated capacity is
/// dropped (and counted) so a traced loop never reallocates mid-measurement.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    dropped: u64,
}

impl Tracer {
    pub fn with_capacity(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            dropped: 0,
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its id (for children to name as
    /// their parent), or [`ROOT`] when the buffer is full.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        unit: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span {
            parent,
            name,
            unit,
            start_ns,
            end_ns,
        });
        (self.spans.len() - 1) as u32
    }

    /// Times `f` as one span and returns `(its result, its duration)`.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        unit: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let start = self.now_ns();
        let value = f();
        let end = self.now_ns();
        self.record(name, parent, unit, start, end);
        (value, end - start)
    }

    /// Sets the end of a span recorded while it was still open.
    pub fn close(&mut self, id: u32, end_ns: u64) {
        if let Some(span) = self.spans.get_mut(id as usize) {
            span.end_ns = end_ns;
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes `{id, parent, name, workload, unit, start_ns, end_ns}` rows.
    pub fn write_json(&self, workload: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(TRACE_PATH).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(TRACE_PATH)?);
        writeln!(
            w,
            "{{\"workload\": \"{workload}\", \"dropped_spans\": {}, \"spans\": [",
            self.dropped
        )?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            let comma = if id + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"id\": {id}, \"parent\": {parent}, \"name\": \"{}\", \"workload\": \"{workload}\", \"unit\": {}, \"start_ns\": {}, \"end_ns\": {}}}{comma}",
                s.name, s.unit, s.start_ns, s.end_ns
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}
