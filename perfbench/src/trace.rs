//! In-memory spans recorded by the benchmark around its calls into each
//! layer (nothing inside the program is instrumented). Spans are kept
//! in memory during the run, summed per name for the per-layer
//! metrics, and written out as JSON when the run ends.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer-qualified name, e.g. `storage.apply`.
    pub name: &'static str,
    /// Span id (1-based; 0 means "no parent").
    pub id: u32,
    /// The span that caused this one (0 for a root span).
    pub parent: u32,
    /// Request (transaction / wire operation) the span belongs to.
    pub request: u64,
    /// Start, nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span recorder. Timestamps are taken with [`Tracer::now`] around a
/// call and recorded with [`Tracer::record`] once the call returns, so
/// the recorder itself sits outside every measured interval.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `origin` (share one origin
    /// between threads so their spans line up).
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    pub fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Record a finished span; returns its id for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        let id = self.spans.len() as u32 + 1;
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
        });
        id
    }

    /// Append another tracer's spans (re-numbering their ids).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            if s.parent != 0 {
                s.parent += base;
            }
            s
        }));
    }

    /// All recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name (count, total nanoseconds).
    pub fn totals(&self) -> HashMap<&'static str, (u64, u64)> {
        let mut out: HashMap<&'static str, (u64, u64)> = HashMap::new();
        for s in &self.spans {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.nanos();
        }
        out
    }

    /// Durations (µs) of the spans called `name`, in record order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.nanos() as f64 / 1e3)
            .collect()
    }

    /// Write the spans as JSON (at most `limit` of them, the first
    /// recorded; the total count is always included).
    pub fn write_json(
        &self,
        path: &Path,
        workload: &str,
        seed: u64,
        limit: usize,
    ) -> std::io::Result<()> {
        let shown = self.spans.len().min(limit);
        let mut out = String::with_capacity(shown * 96 + 256);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"spans_total\":{},\"spans_written\":{shown},\"spans\":[",
            self.spans.len()
        );
        for (i, s) in self.spans[..shown].iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_absorb_renumber() {
        let origin = Instant::now();
        let mut a = Tracer::new(origin);
        let root = a.record("txn", 0, 1, 0, 100);
        a.record("storage.apply", root, 1, 10, 40);
        let mut b = Tracer::new(origin);
        let r2 = b.record("txn", 0, 2, 100, 150);
        b.record("storage.apply", r2, 2, 110, 120);
        a.absorb(b);
        assert_eq!(a.totals()["txn"], (2, 150));
        assert_eq!(a.totals()["storage.apply"], (2, 40));
        assert_eq!(a.spans()[3].parent, 3);
        assert_eq!(a.durations_us("txn"), vec![0.1, 0.05]);
    }
}
