//! In-memory spans and the trace file written at exit.
//!
//! Spans are recorded by the benchmark around its calls into each layer;
//! spans sharing a request id belong to one request.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: &'static str,
    /// Request id (stream-tagged sequence number), or 0 for replays.
    pub req: u64,
    /// Start and end, µs since the tracer's origin.
    pub start: f64,
    pub end: f64,
}

pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            spans: Vec::new(),
        }
    }

    /// µs from the origin to `t`.
    pub fn at(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a span over `[start, end]` (µs since the origin).
    pub fn span(
        &mut self,
        parent: Option<usize>,
        name: &'static str,
        req: u64,
        start: f64,
        end: f64,
    ) -> usize {
        let id = self.spans.len();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start,
            end: end.max(start),
        });
        id
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                text,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"req\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id, s.name, s.req, s.start, s.end
            );
        }
        std::fs::write(path, text)
    }
}
