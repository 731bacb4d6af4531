//! Spans around the harness's own calls into each crate.
//!
//! The recorder lives in the generator thread (the only thread the
//! harness drives the system from), keeps spans in memory, and writes
//! them out once, after the measured phases. A span's *self time* is its
//! duration minus the time its child spans cover, so the per-name table
//! adds up to the root spans' duration.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded call: `parent` indexes the enclosing span in the same
/// file, `segment` is the closed-loop segment (or fresh iteration block)
/// it belongs to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u32>,
    pub segment: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder. Disabled, `enter`/`exit` cost one branch, so
/// the untraced run and the untraced half of a traced run measure the
/// system alone.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    segment: u32,
}

/// Handle returned by [`Tracer::enter`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            segment: 0,
        }
    }

    /// Switch recording on or off between segments (never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty());
        self.enabled = enabled;
    }

    pub fn set_segment(&mut self, segment: u32) {
        self.segment = segment;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            segment: self.segment,
        });
        self.open.push(id);
        Open(Some(id))
    }

    #[inline]
    pub fn exit(&mut self, open: Open) {
        if let Open(Some(id)) = open {
            self.spans[id as usize].end_ns = self.now_ns();
            let closed = self.open.pop();
            debug_assert_eq!(closed, Some(id), "spans close innermost first");
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The span file: one JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96 + 2);
        out.push('[');
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"thread\":\"gen\",\"segment\":{}}}",
                s.name, s.start_ns, s.end_ns, s.segment
            );
        }
        out.push_str("\n]\n");
        out
    }
}

/// Per-name totals of a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fold {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Fold spans by name: call count, total duration, and self time
/// (duration minus the part direct children cover).
pub fn fold_self_time(spans: &[Span]) -> BTreeMap<&'static str, Fold> {
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ns[p as usize] += s.duration_ns();
        }
    }
    let mut table: BTreeMap<&'static str, Fold> = BTreeMap::new();
    for (s, covered) in spans.iter().zip(child_ns) {
        let row = table.entry(s.name).or_default();
        row.count += 1;
        row.total_ns += s.duration_ns();
        row.self_ns += s.duration_ns().saturating_sub(covered);
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            segment: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // segment [0,100) ⊃ push [10,40) ⊃ copy [15,25); segment ⊃ query [50,90)
        let spans = vec![
            span("segment", 0, 100, None),
            span("push", 10, 40, Some(0)),
            span("copy", 15, 25, Some(1)),
            span("query", 50, 90, Some(0)),
        ];
        let t = fold_self_time(&spans);
        assert_eq!(t["segment"].self_ns, 100 - 30 - 40);
        assert_eq!(t["push"].self_ns, 30 - 10);
        assert_eq!(t["copy"].self_ns, 10);
        assert_eq!(t["query"].self_ns, 40);
        // Self times add up to the root span.
        assert_eq!(t.values().map(|f| f.self_ns).sum::<u64>(), 100);
        assert_eq!(t["push"].count, 1);
        assert_eq!(t["segment"].total_ns, 100);
    }

    #[test]
    fn recorder_nests_and_disables() {
        let mut tr = Tracer::new(true);
        tr.set_segment(3);
        let outer = tr.enter("segment");
        let inner = tr.enter("push");
        tr.exit(inner);
        tr.exit(outer);
        tr.set_enabled(false);
        let off = tr.enter("push");
        tr.exit(off);
        assert_eq!(tr.spans().len(), 2);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert_eq!(tr.spans()[0].parent, None);
        assert_eq!(tr.spans()[1].segment, 3);
        assert!(tr.spans()[0].end_ns >= tr.spans()[1].end_ns);
        let json = tr.to_json();
        assert!(json.contains("\"name\":\"push\""));
        assert!(json.contains("\"parent\":null"));
        assert!(json.contains("\"parent\":0"));
        assert!(json.contains("\"thread\":\"gen\""));
    }
}
