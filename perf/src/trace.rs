//! The benchmark's own span recorder.
//!
//! Spans are recorded from the benchmark's files, around each call
//! into a layer; nothing inside the crates is instrumented. A span is
//! `{name, start_ns, end_ns, parent, op_id}`; spans of one operation
//! share `op_id`. They are kept in a pre-sized `Vec` and written out
//! when the run ends. A layer's self time is its span's duration minus
//! the part of that interval its children cover.

use hpop_obs::json::Value;
use std::collections::BTreeMap;
use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. `name` indexes [`Recorder::names`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    /// Index into the recorder's name table.
    pub name: u16,
    /// Index of the parent span, or [`NO_PARENT`].
    pub parent: u32,
    /// The operation this span belongs to.
    pub op_id: u32,
    /// Start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's epoch.
    pub end_ns: u64,
}

/// A handle to an open span (`None` when recording is off).
#[derive(Clone, Copy, Debug)]
pub struct Open(Option<u32>);

/// Span recorder. When disabled every call is a branch and nothing
/// else, so the untraced pass runs the same driver code.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    /// Open spans, innermost last.
    stack: Vec<u32>,
    op_id: u32,
}

impl Recorder {
    /// A recorder that keeps nothing.
    #[cfg(test)]
    pub fn disabled() -> Recorder {
        Recorder::new(false, 0, Instant::now())
    }

    /// A recorder with room for `capacity` spans, timing against
    /// `epoch` (threads of one run share the epoch so their spans are
    /// comparable).
    pub fn new(enabled: bool, capacity: usize, epoch: Instant) -> Recorder {
        Recorder {
            enabled,
            epoch,
            names: Vec::new(),
            spans: Vec::with_capacity(if enabled { capacity } else { 0 }),
            stack: Vec::new(),
            op_id: 0,
        }
    }

    /// Whether spans are being kept.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        // A handful of names per workload: a linear scan is cheaper
        // than hashing.
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        (self.names.len() - 1) as u16
    }

    /// Starts a new operation: subsequent spans carry its id.
    pub fn begin_op(&mut self) {
        self.op_id = self.op_id.wrapping_add(1);
    }

    /// Opens a span under the innermost open span.
    #[inline]
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let name = self.name_id(name);
        let parent = self.stack.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent,
            op_id: self.op_id,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
        });
        self.stack.push(idx);
        Open(Some(idx))
    }

    /// Closes a span opened by [`Recorder::enter`]. Spans close in
    /// reverse order of opening.
    #[inline]
    pub fn exit(&mut self, open: Open) {
        let Some(idx) = open.0 else { return };
        let end = self.epoch.elapsed().as_nanos() as u64;
        debug_assert_eq!(self.stack.last(), Some(&idx), "spans close innermost first");
        self.stack.pop();
        self.spans[idx as usize].end_ns = end;
    }

    /// Times `f` as one span.
    #[inline]
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let r = f();
        self.exit(open);
        r
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The name of a span.
    pub fn name_of(&self, span: &Span) -> &'static str {
        self.names[span.name as usize]
    }

    /// Forgets every span (the warm-up's), keeping the capacity.
    pub fn clear(&mut self) {
        debug_assert!(self.stack.is_empty(), "clear between operations");
        self.spans.clear();
    }

    /// Per-name totals over everything recorded.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotal> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, NameTotal> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let t = out.entry(self.name_of(span)).or_default();
            t.count += 1;
            t.self_ns += self_ns;
            t.total_ns += span.end_ns.saturating_sub(span.start_ns);
        }
        out
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations_of(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| self.name_of(s) == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
            .collect()
    }

    /// The first `limit` spans as JSON rows, for the trace file.
    pub fn to_json_rows(&self, thread: u32, limit: usize) -> Vec<Value> {
        self.spans
            .iter()
            .take(limit)
            .enumerate()
            .map(|(i, s)| {
                let mut row = Value::obj();
                row.set("id", i as u64)
                    .set("thread", u64::from(thread))
                    .set("name", self.name_of(s))
                    .set("start_ns", s.start_ns)
                    .set("end_ns", s.end_ns)
                    .set("op_id", u64::from(s.op_id));
                if s.parent == NO_PARENT {
                    row.set("parent", Value::Null);
                } else {
                    row.set("parent", u64::from(s.parent));
                }
                row
            })
            .collect()
    }
}

/// What one span name added up to.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotal {
    /// Spans with this name.
    pub count: u64,
    /// Their self time.
    pub self_ns: u64,
    /// Their full durations.
    pub total_ns: u64,
}

impl NameTotal {
    /// Mean self time per span, ns.
    pub fn mean_self_ns(&self) -> f64 {
        self.self_ns as f64 / self.count.max(1) as f64
    }
}

/// Adds `other`'s totals into `into` (threads of one run).
pub fn merge_totals(
    into: &mut BTreeMap<&'static str, NameTotal>,
    other: &BTreeMap<&'static str, NameTotal>,
) {
    for (name, t) in other {
        let e = into.entry(name).or_default();
        e.count += t.count;
        e.self_ns += t.self_ns;
        e.total_ns += t.total_ns;
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals, each clipped to the parent. Children that
/// overlap one another (two requests in flight under one operation)
/// are counted once; a child that outlives its parent only counts for
/// the part inside it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != NO_PARENT {
            let p = &spans[s.parent as usize];
            let lo = s.start_ns.max(p.start_ns);
            let hi = s.end_ns.min(p.end_ns);
            if hi > lo {
                children[s.parent as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: 0,
            parent,
            op_id: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root 0..100; child 10..60; grandchild 20..30.
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 60), span(1, 20, 30)];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children in flight at once: 10..50 and 30..70 cover 60 ns.
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 50), span(0, 30, 70)];
        assert_eq!(self_times(&spans), vec![40, 40, 40]);
    }

    #[test]
    fn a_child_contained_in_a_sibling_adds_nothing() {
        let spans = [span(NO_PARENT, 0, 100), span(0, 10, 90), span(0, 20, 30)];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn a_child_outliving_its_parent_is_clipped() {
        let spans = [span(NO_PARENT, 0, 100), span(0, 80, 150), span(0, 200, 300)];
        assert_eq!(self_times(&spans), vec![80, 70, 100]);
    }

    #[test]
    fn recorder_nests_and_shares_op_ids() {
        let mut r = Recorder::new(true, 16, Instant::now());
        r.begin_op();
        let op = r.enter("op");
        r.span("layer.a", || std::hint::black_box(1));
        let b = r.enter("layer.b");
        r.span("layer.a", || std::hint::black_box(2));
        r.exit(b);
        r.exit(op);
        r.begin_op();
        r.span("op", || ());
        let s = r.spans();
        assert_eq!(s.len(), 5);
        assert_eq!(s[0].parent, NO_PARENT);
        assert_eq!((s[1].parent, s[2].parent, s[3].parent), (0, 0, 2));
        assert!(s[..4].iter().all(|x| x.op_id == 1));
        assert_eq!(s[4].op_id, 2);
        assert!(s.iter().all(|x| x.end_ns >= x.start_ns));
        let totals = r.totals();
        assert_eq!(totals["layer.a"].count, 2);
        assert_eq!(totals["op"].count, 2);
        // Self times partition the roots' durations exactly.
        let roots: u64 = s
            .iter()
            .filter(|x| x.parent == NO_PARENT)
            .map(|x| x.end_ns - x.start_ns)
            .sum();
        let selfs: u64 = totals.values().map(|t| t.self_ns).sum();
        assert_eq!(roots, selfs);
    }

    #[test]
    fn disabled_recorder_keeps_nothing() {
        let mut r = Recorder::disabled();
        r.begin_op();
        assert_eq!(r.span("x", || 7), 7);
        assert!(r.spans().is_empty());
        assert!(r.totals().is_empty());
    }

    #[test]
    fn json_rows_carry_the_contracted_fields() {
        let mut r = Recorder::new(true, 4, Instant::now());
        r.begin_op();
        let op = r.enter("op");
        r.span("child", || ());
        r.exit(op);
        let rows = r.to_json_rows(3, 10);
        assert_eq!(rows.len(), 2);
        for key in ["name", "start_ns", "end_ns", "parent", "op_id"] {
            assert!(rows[1].get(key).is_some(), "missing {key}");
        }
        assert_eq!(rows[0].get("parent"), Some(&Value::Null));
        assert_eq!(rows[1].get("parent").and_then(Value::as_u64), Some(0));
    }
}
