//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! Every timed call goes through [`Tracer::span`], which always returns the
//! call's wall time (the timed runs need it) and, on a traced run, also keeps
//! a span: name, start, end, parent span and, for score requests, the request
//! id. Spans stay in memory until the run ends; [`Tracer::write`] then writes
//! them as JSONL plus a per-name table of total and self time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u64 = 0;

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

pub struct Tracer {
    on: bool,
    epoch: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            on,
            epoch: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Run `f` and return its result with its wall time in seconds. On a
    /// traced run the call is kept as a span under `parent`; `f` receives
    /// the new span's id so nested calls can name it as their parent (it
    /// receives [`ROOT`] when tracing is off).
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: Option<u64>,
        f: impl FnOnce(u64) -> T,
    ) -> (T, f64) {
        let id = if self.on {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            ROOT
        };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if self.on {
            let span = Span {
                id,
                parent,
                name,
                start_ns: start.duration_since(self.epoch).as_nanos() as u64,
                end_ns: end.duration_since(self.epoch).as_nanos() as u64,
                request,
            };
            self.spans.lock().expect("span list poisoned").push(span);
        }
        (out, end.duration_since(start).as_secs_f64())
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list poisoned").clone()
    }

    /// Write every span as one JSON object per line to `jsonl`, and the
    /// per-name summary table to `summary`.
    pub fn write(&self, jsonl: &Path, summary: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = String::with_capacity(spans.len() * 96);
        for s in &spans {
            let _ = write!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}",
                s.id,
                s.parent,
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns as f64 / 1e3,
            );
            if let Some(r) = s.request {
                let _ = write!(out, ",\"request\":{r}");
            }
            out.push_str("}\n");
        }
        std::fs::write(jsonl, out)?;
        std::fs::write(summary, summary_table(&spans))
    }
}

/// Per span name: count, total seconds and self seconds. A span's self
/// time is its duration minus the part of its interval that the union of
/// its children covers.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (usize, f64, f64)> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if s.parent != ROOT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
    }
    let mut table: BTreeMap<&'static str, (usize, f64, f64)> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let covered = children
            .get_mut(&s.id)
            .map(|kids| covered_ns(kids, s.start_ns, s.end_ns))
            .unwrap_or(0);
        let entry = table.entry(s.name).or_insert((0, 0.0, 0.0));
        entry.0 += 1;
        entry.1 += dur as f64 / 1e9;
        entry.2 += dur.saturating_sub(covered) as f64 / 1e9;
    }
    table
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

fn summary_table(spans: &[Span]) -> String {
    let mut out = format!(
        "{:<28} {:>9} {:>12} {:>12}\n",
        "span", "count", "total_s", "self_s"
    );
    for (name, (count, total, own)) in self_times(spans) {
        let _ = writeln!(out, "{name:<28} {count:>9} {total:>12.6} {own:>12.6}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: if parent == ROOT { "outer" } else { "inner" },
            start_ns,
            end_ns,
            request: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // outer [0, 100]; children [10, 40] and [30, 60] overlap (two
        // threads), so together they cover 50 of the parent's 100.
        let spans = vec![
            span(1, ROOT, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),
        ];
        let table = self_times(&spans);
        let (count, total, own) = table["outer"];
        assert_eq!(count, 1);
        assert!((total - 100e-9).abs() < 1e-15);
        assert!((own - 50e-9).abs() < 1e-15);
        assert_eq!(table["inner"].0, 2);
    }

    #[test]
    fn untraced_tracer_keeps_no_spans_but_still_times() {
        let tracer = Tracer::new(false);
        let (v, wall) = tracer.span("x", ROOT, None, |id| {
            assert_eq!(id, ROOT);
            7
        });
        assert_eq!(v, 7);
        assert!(wall >= 0.0);
        assert!(tracer.spans().is_empty());
    }
}
