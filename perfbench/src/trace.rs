//! The benchmark's own spans, recorded around the calls it makes into
//! each layer: name, start, end and parent, kept in memory and written
//! out when the run ends. Spans inside the program are a later change;
//! these see each layer only from outside.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
}

/// Handle to an open span, closed by [`Tracer::exit`].
#[must_use]
pub struct SpanId(usize);

/// In-memory span recorder. A disabled tracer records nothing, so the
/// untraced runs pay one branch per call site.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, u64>,
}

/// Per-name totals over every recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    pub name: &'static str,
    pub calls: u64,
    pub total_ms: f64,
    /// Total minus the time the span's direct children cover.
    pub self_ms: f64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        SpanId(id)
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn exit(&mut self, id: SpanId) {
        if !self.enabled {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(id.0), "spans close innermost first");
        self.spans[id.0].end_ns = end_ns;
    }

    /// Adds `n` to a work counter recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        if self.enabled {
            *self.counts.entry(name).or_insert(0) += n;
        }
    }

    pub fn count_of(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    /// Durations of every closed span named `name`, in milliseconds.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    pub fn total_ms(&self, name: &str) -> f64 {
        self.durations_ms(name).iter().sum()
    }

    fn children_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end_ns - s.start_ns;
            }
        }
        covered
    }

    /// Share of each span named `name` that its direct children cover,
    /// pooled over all such spans: how much of a timed phase the
    /// per-layer spans below it account for.
    pub fn coverage(&self, name: &str) -> f64 {
        let covered = self.children_ns();
        let (mut inner, mut whole) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name == name {
                inner += covered[i];
                whole += s.end_ns - s.start_ns;
            }
        }
        if whole == 0 {
            0.0
        } else {
            inner as f64 / whole as f64
        }
    }

    /// Calls, total and self time per span name, largest self time
    /// first.
    pub fn summary(&self) -> Vec<SpanRow> {
        let covered = self.children_ns();
        let mut rows: BTreeMap<&'static str, SpanRow> = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            let dur = s.end_ns - s.start_ns;
            let row = rows.entry(s.name).or_insert(SpanRow {
                name: s.name,
                calls: 0,
                total_ms: 0.0,
                self_ms: 0.0,
            });
            row.calls += 1;
            row.total_ms += dur as f64 / 1e6;
            row.self_ms += dur.saturating_sub(covered[i]) as f64 / 1e6;
        }
        let mut rows: Vec<SpanRow> = rows.into_values().collect();
        rows.sort_by(|a, b| b.self_ms.total_cmp(&a.self_ms));
        rows
    }

    /// Every span and counter as one JSON document.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n],\"counts\":{");
        for (i, (name, n)) in self.counts.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\"{name}\":{n}");
        }
        out.push_str("}}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_coverage_sums_them() {
        let mut tr = Tracer::new(true);
        let outer = tr.enter("outer");
        let inner = tr.enter("inner");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.exit(inner);
        tr.exit(outer);
        let rows = tr.summary();
        let outer_row = rows.iter().find(|r| r.name == "outer").unwrap();
        let inner_row = rows.iter().find(|r| r.name == "inner").unwrap();
        assert!(inner_row.total_ms >= 2.0);
        assert!(outer_row.self_ms < outer_row.total_ms);
        assert!((outer_row.total_ms - outer_row.self_ms - inner_row.total_ms).abs() < 1e-9);
        assert!(tr.coverage("outer") > 0.9);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut tr = Tracer::new(false);
        let s = tr.enter("x");
        tr.count("x", 3);
        tr.exit(s);
        assert!(tr.summary().is_empty());
        assert_eq!(tr.count_of("x"), 0);
    }
}
