//! In-memory span recording for the traced run.
//!
//! A span is one timed call into a layer: its operation id, its parent
//! span, a static name, and start/end offsets in nanoseconds from the
//! recorder's origin. Spans stay in memory while the benchmark runs and
//! are written out once, at exit. A span's *self time* is its duration
//! minus the part of its interval that its children cover.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// The operation (read or write) this span belongs to.
    pub op: u64,
    /// Index of the parent span in the recorder, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name, e.g. `sql.parse`.
    pub name: &'static str,
    /// Start, in nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, in nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Recorder {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Recorder::end`].
    pub fn begin(&mut self, op: u64, parent: Option<usize>, name: &'static str) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            op,
            parent,
            name,
            start_ns: now,
            end_ns: now,
        });
        self.spans.len() - 1
    }

    /// Close span `id` now.
    pub fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as one span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(op, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Total length of the union of `intervals`, each clipped to
/// `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let s = s.max(cursor);
        let e = e.min(hi);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration_ns() - covered(kids, s.start_ns, s.end_ns))
        .collect()
}

/// Per span name: `(count, total self time ns)`.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += t;
    }
    out
}

/// The spans as JSON lines, one object per span, followed by a summary
/// line per name (`{"summary": name, "count": .., "self_ns": ..}`).
pub fn to_json_lines(spans: &[Span]) -> String {
    let mut out = String::new();
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\": {i}, \"op\": {}, \"parent\": {parent}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
            s.op, s.name, s.start_ns, s.end_ns
        );
    }
    for (name, (count, self_ns)) in self_time_by_name(spans) {
        let _ = writeln!(
            out,
            "{{\"summary\": \"{name}\", \"count\": {count}, \"self_ns\": {self_ns}}}"
        );
    }
    out
}
