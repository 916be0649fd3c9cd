//! In-memory span recording around calls into the program's layers.
//!
//! A span is a name, a start and an end (nanoseconds since the
//! recorder's epoch), the span that was open when it began, the op it
//! belongs to, and the bytes allocated while it was open. Spans stay in
//! memory and are written out once, when the benchmark ends.

use crate::probe::allocated_bytes;
use scald_trace::json::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `hdl.expand`.
    pub name: String,
    /// Start, in ns since the recorder's epoch.
    pub start_ns: u64,
    /// End, in ns since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// The op this span belongs to.
    pub op: u64,
    /// Bytes allocated (by every thread) while the span was open.
    pub alloc_bytes: u64,
}

impl Span {
    /// The span's wall time in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("name".into(), Json::str(&self.name)),
            ("start_ns".into(), Json::from(self.start_ns)),
            ("end_ns".into(), Json::from(self.end_ns)),
            (
                "parent".into(),
                self.parent.map_or(Json::Null, |p| Json::from(p as u64)),
            ),
            ("op".into(), Json::from(self.op)),
            ("alloc_bytes".into(), Json::from(self.alloc_bytes)),
        ])
    }

    pub fn from_json(json: &Json) -> Option<Span> {
        Some(Span {
            name: json.get("name")?.as_str()?.to_owned(),
            start_ns: json.get("start_ns")?.as_u64()?,
            end_ns: json.get("end_ns")?.as_u64()?,
            parent: match json.get("parent")? {
                Json::Null => None,
                p => Some(usize::try_from(p.as_u64()?).ok()?),
            },
            op: json.get("op")?.as_u64()?,
            alloc_bytes: json.get("alloc_bytes")?.as_u64()?,
        })
    }
}

/// Records spans when enabled; when disabled, [`time`](Self::time) only
/// runs its closure.
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<(usize, u64)>,
    op: u64,
}

impl Recorder {
    pub fn new(enabled: bool) -> Recorder {
        Recorder::new_at(enabled, Instant::now())
    }

    /// A recorder whose clock starts at `epoch`, so that spans of
    /// recorders sharing an epoch line up.
    pub fn new_at(enabled: bool, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
            op: 0,
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tags every span begun from now on with `op`.
    pub fn set_op(&mut self, op: u64) {
        self.op = op;
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span (nested in the innermost open one) and returns its
    /// index; `None` when disabled.
    pub fn begin(&mut self, name: &str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_owned(),
            start_ns: 0,
            end_ns: 0,
            parent: self.open.last().map(|&(i, _)| i),
            op: self.op,
            alloc_bytes: 0,
        });
        self.open.push((idx, allocated_bytes()));
        // Read the clock last, so the bookkeeping above is not inside.
        self.spans[idx].start_ns = self.now_ns();
        Some(idx)
    }

    /// Closes the innermost open span, which must be `idx`.
    pub fn end(&mut self, idx: Option<usize>) {
        let Some(idx) = idx else { return };
        let end_ns = self.now_ns();
        let (top, alloc_start) = self.open.pop().expect("a span is open");
        assert_eq!(top, idx, "spans close in reverse order of opening");
        let span = &mut self.spans[idx];
        span.end_ns = end_ns;
        span.alloc_bytes = allocated_bytes() - alloc_start;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce() -> T) -> T {
        let idx = self.begin(name);
        let out = f();
        self.end(idx);
        out
    }

    /// Appends spans recorded elsewhere (another process), re-basing
    /// their parent indices and tagging them with `op`.
    pub fn absorb(&mut self, spans: Vec<Span>, op: u64) {
        let base = self.spans.len();
        self.spans.extend(spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s.op = op;
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// A span's self time: its duration minus the part of it that its
/// direct children cover.
pub fn self_ns(spans: &[Span], idx: usize) -> u64 {
    let mut children: Vec<(u64, u64)> = spans
        .iter()
        .filter(|s| s.parent == Some(idx))
        .map(|s| (s.start_ns, s.end_ns))
        .collect();
    children.sort_unstable();
    let mut covered = 0;
    let mut reach = spans[idx].start_ns;
    for (start, end) in children {
        let start = start.max(reach);
        let end = end.min(spans[idx].end_ns);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    spans[idx].duration_ns().saturating_sub(covered)
}

/// One line per span name, in order of first appearance: how many
/// spans, and the median of their wall time and of their self time, in
/// ms as measured.
pub fn self_time_table(spans: &[Span]) -> Vec<String> {
    let mut names: Vec<&str> = Vec::new();
    for s in spans {
        if !names.contains(&s.name.as_str()) {
            names.push(&s.name);
        }
    }
    let mut lines = vec![format!(
        "{:<28} {:>6} {:>12} {:>12}",
        "span (raw ms)", "count", "median", "self median"
    )];
    for name in names {
        let (total, own): (Vec<f64>, Vec<f64>) = spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name)
            .map(|(i, s)| (s.duration_ns() as f64 / 1e6, self_ns(spans, i) as f64 / 1e6))
            .unzip();
        lines.push(format!(
            "{name:<28} {:>6} {:>12.3} {:>12.3}",
            total.len(),
            crate::stats::median(&total),
            crate::stats::median(&own)
        ));
    }
    lines
}

/// Writes spans as JSON lines.
///
/// # Errors
///
/// Creating or writing the file.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for span in spans {
        writeln!(out, "{}", span.to_json())?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_owned(),
            start_ns,
            end_ns,
            parent,
            op: 0,
            alloc_bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("op", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 60, Some(0)),
            span("a.inner", 12, 20, Some(1)),
        ];
        assert_eq!(self_ns(&spans, 0), 100 - 50);
        assert_eq!(self_ns(&spans, 1), 30 - 8);
        assert_eq!(self_ns(&spans, 3), 8);
    }

    #[test]
    fn self_time_table_has_a_row_per_name() {
        let spans = vec![
            span("op", 0, 4_000_000, None),
            span("a", 0, 1_000_000, Some(0)),
            span("op", 5_000_000, 7_000_000, None),
        ];
        let table = self_time_table(&spans);
        assert_eq!(table.len(), 3);
        assert!(table[1].starts_with("op"));
        assert!(
            table[1].contains("3.000") && table[1].contains("2.500"),
            "{}",
            table[1]
        );
    }

    #[test]
    fn recorder_nests_and_counts_allocations() {
        let mut rec = Recorder::new(true);
        let root = rec.begin("op");
        let v = rec.time("alloc", || vec![0u8; 1000]);
        rec.end(root);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[1].alloc_bytes >= 1000);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        drop(v);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let root = rec.begin("op");
        assert_eq!(rec.time("x", || 7), 7);
        rec.end(root);
        assert!(rec.spans().is_empty());
    }

    #[test]
    fn spans_round_trip_through_json_and_absorb() {
        let spans = vec![span("op", 0, 9, None), span("a", 1, 2, Some(0))];
        let back: Vec<Span> = spans
            .iter()
            .map(|s| Span::from_json(&scald_trace::json::parse(&s.to_json().to_string()).unwrap()))
            .collect::<Option<_>>()
            .unwrap();
        assert_eq!(back, spans);
        let mut rec = Recorder::new(true);
        rec.absorb(back.clone(), 3);
        rec.absorb(back, 4);
        assert_eq!(rec.spans()[3].parent, Some(2));
        assert_eq!(rec.spans()[3].op, 4);
    }
}
