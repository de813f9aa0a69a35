//! Critical-path analysis over finished span trees.
//!
//! Given the [`SpanRecord`]s drained from a [`SpanTracer`], this module
//! groups them into per-trace trees, checks the trees are well formed
//! (children nested inside their parent's sim-time interval, exactly
//! one root, no orphans), and answers the question the flat metrics
//! cannot: **which stage did a slow request actually spend its time
//! in?**
//!
//! Attribution uses a *deepest-wins sweep*: every microsecond of the
//! root interval is charged to the deepest span covering it (ties go to
//! the later-created span), so the per-stage totals always partition
//! the root duration exactly — nothing is double-counted and nothing
//! goes missing. Time no child claims is charged to the root's own
//! stage, which makes "unattributed" latency visible as the root
//! stage's share rather than silently vanishing.

use crate::span::SpanRecord;
use std::collections::BTreeMap;

/// One request's spans, grouped and indexed.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceTree {
    /// The trace id shared by every span.
    pub trace_id: u64,
    /// All spans of the trace, in recording order; `spans[root]` is
    /// the root span.
    pub spans: Vec<SpanRecord>,
    root: usize,
}

/// Why a trace is not a well-formed tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TreeError {
    /// No span with `parent_span_id == 0`.
    NoRoot,
    /// More than one root span.
    MultipleRoots,
    /// A span references a parent id that is not in the trace.
    Orphan {
        /// The orphaned span's id.
        span_id: u64,
    },
    /// A child's interval is not contained in its parent's.
    NotNested {
        /// The offending child span's id.
        span_id: u64,
    },
    /// Two spans share one span id.
    DuplicateSpanId {
        /// The duplicated id.
        span_id: u64,
    },
    /// A span's parent chain never reaches the root (parent cycle).
    Cycle {
        /// A span on the unreachable cycle.
        span_id: u64,
    },
}

impl std::fmt::Display for TreeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TreeError::NoRoot => write!(f, "trace has no root span"),
            TreeError::MultipleRoots => write!(f, "trace has multiple root spans"),
            TreeError::Orphan { span_id } => {
                write!(f, "span {span_id} references a missing parent")
            }
            TreeError::NotNested { span_id } => {
                write!(
                    f,
                    "span {span_id} is not nested inside its parent's interval"
                )
            }
            TreeError::DuplicateSpanId { span_id } => {
                write!(f, "span id {span_id} appears more than once")
            }
            TreeError::Cycle { span_id } => {
                write!(
                    f,
                    "span {span_id}'s parent chain cycles and never reaches the root"
                )
            }
        }
    }
}

impl std::error::Error for TreeError {}

/// Groups a flat span dump into per-trace trees, skipping traces that
/// fail [`TraceTree::validate`]; returns `(trees, malformed_count)`.
pub fn build_traces(records: &[SpanRecord]) -> (Vec<TraceTree>, usize) {
    let mut by_trace: BTreeMap<u64, Vec<SpanRecord>> = BTreeMap::new();
    for r in records {
        by_trace.entry(r.trace_id).or_default().push(r.clone());
    }
    let mut trees = Vec::new();
    let mut malformed = 0usize;
    for (trace_id, spans) in by_trace {
        match TraceTree::new(trace_id, spans) {
            Ok(t) => trees.push(t),
            Err(_) => malformed += 1,
        }
    }
    (trees, malformed)
}

impl TraceTree {
    /// Builds and validates one trace's tree.
    ///
    /// # Errors
    ///
    /// The first [`TreeError`] found (missing/duplicate root, orphan
    /// parent reference, duplicated span id, child escaping its
    /// parent's interval).
    pub fn new(trace_id: u64, spans: Vec<SpanRecord>) -> Result<TraceTree, TreeError> {
        let mut by_id: BTreeMap<u64, usize> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            if by_id.insert(s.span_id, i).is_some() {
                return Err(TreeError::DuplicateSpanId { span_id: s.span_id });
            }
        }
        let mut root = None;
        for (i, s) in spans.iter().enumerate() {
            if s.parent_span_id == 0 {
                if root.is_some() {
                    return Err(TreeError::MultipleRoots);
                }
                root = Some(i);
            } else {
                let Some(&p) = by_id.get(&s.parent_span_id) else {
                    return Err(TreeError::Orphan { span_id: s.span_id });
                };
                let parent = &spans[p];
                if s.start_us < parent.start_us || s.end_us > parent.end_us {
                    return Err(TreeError::NotNested { span_id: s.span_id });
                }
            }
        }
        let Some(root) = root else {
            return Err(TreeError::NoRoot);
        };
        // Orphan checks above only prove every parent id *exists*; a
        // parent cycle (e.g. a span naming itself) would still pass and
        // then hang the depth walk. Require reachability from the root.
        let mut reached = vec![false; spans.len()];
        reached[root] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for (i, s) in spans.iter().enumerate() {
                if !reached[i] && s.parent_span_id != 0 && reached[by_id[&s.parent_span_id]] {
                    reached[i] = true;
                    grew = true;
                }
            }
        }
        if let Some(i) = reached.iter().position(|r| !r) {
            return Err(TreeError::Cycle {
                span_id: spans[i].span_id,
            });
        }
        Ok(TraceTree {
            trace_id,
            spans,
            root,
        })
    }

    /// The root span.
    pub fn root(&self) -> &SpanRecord {
        &self.spans[self.root]
    }

    /// End-to-end duration of the request, microseconds.
    pub fn duration_us(&self) -> u64 {
        self.root().duration_us()
    }

    /// Depth of span `i` (root = 0). The tree is validated, so parent
    /// chains terminate.
    fn depth(&self, mut i: usize) -> usize {
        let by_id: BTreeMap<u64, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(j, s)| (s.span_id, j))
            .collect();
        let mut d = 0;
        while self.spans[i].parent_span_id != 0 {
            i = by_id[&self.spans[i].parent_span_id];
            d += 1;
        }
        d
    }

    /// Per-stage attribution of the root interval via the deepest-wins
    /// sweep. The returned totals (microseconds) always sum exactly to
    /// [`TraceTree::duration_us`].
    pub fn attribution(&self) -> BTreeMap<String, u64> {
        let root = self.root();
        let mut out: BTreeMap<String, u64> = BTreeMap::new();
        if root.duration_us() == 0 {
            return out;
        }
        // Elementary intervals between all span boundaries.
        let mut cuts: Vec<u64> = Vec::with_capacity(self.spans.len() * 2);
        for s in &self.spans {
            cuts.push(s.start_us.clamp(root.start_us, root.end_us));
            cuts.push(s.end_us.clamp(root.start_us, root.end_us));
        }
        cuts.sort_unstable();
        cuts.dedup();
        let depths: Vec<usize> = (0..self.spans.len()).map(|i| self.depth(i)).collect();
        for w in cuts.windows(2) {
            let (a, b) = (w[0], w[1]);
            if a == b {
                continue;
            }
            // The deepest span covering [a, b); ties to the later
            // (higher-id) span so siblings split deterministically.
            let mut best: Option<usize> = None;
            for (i, s) in self.spans.iter().enumerate() {
                if s.start_us <= a && s.end_us >= b {
                    best = match best {
                        None => Some(i),
                        Some(j)
                            if (depths[i], self.spans[i].span_id)
                                > (depths[j], self.spans[j].span_id) =>
                        {
                            Some(i)
                        }
                        keep => keep,
                    };
                }
            }
            let winner = best.expect("root covers its whole interval");
            *out.entry(self.spans[winner].stage.clone()).or_default() += b - a;
        }
        out
    }
}

/// Aggregated attribution across the slow tail of many traces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AttributionReport {
    /// Traces that met the slowness threshold and were analyzed.
    pub traces_analyzed: u64,
    /// The root-duration threshold that selected them, microseconds.
    pub threshold_us: u64,
    /// Sum of analyzed root durations, microseconds.
    pub total_us: u64,
    /// Microseconds the sweep attributed to *some* stage (equals
    /// `total_us` by construction; kept separate so the snapshot check
    /// can prove it).
    pub accounted_us: u64,
    /// Per-stage attributed microseconds.
    pub stages: BTreeMap<String, u64>,
}

impl AttributionReport {
    /// Attributed share of the analyzed time, in basis points.
    pub fn accounted_bp(&self) -> u64 {
        if self.total_us == 0 {
            return 10_000;
        }
        self.accounted_us * 10_000 / self.total_us
    }
}

/// Analyzes the traces whose end-to-end duration is at or above the
/// `quantile` (e.g. `0.99`) of all root durations — "where does the
/// p99 come from?" — and sums their per-stage attribution.
pub fn attribute_slow(trees: &[TraceTree], quantile: f64) -> AttributionReport {
    let mut report = AttributionReport::default();
    if trees.is_empty() {
        return report;
    }
    let mut durations: Vec<u64> = trees.iter().map(TraceTree::duration_us).collect();
    durations.sort_unstable();
    let q = quantile.clamp(0.0, 1.0);
    let idx = ((durations.len() - 1) as f64 * q).round() as usize;
    report.threshold_us = durations[idx.min(durations.len() - 1)];
    for t in trees
        .iter()
        .filter(|t| t.duration_us() >= report.threshold_us)
    {
        report.traces_analyzed += 1;
        report.total_us += t.duration_us();
        for (stage, us) in t.attribution() {
            report.accounted_us += us;
            *report.stages.entry(stage).or_default() += us;
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::SpanTracer;

    fn span(trace: u64, id: u64, parent: u64, stage: &str, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            trace_id: trace,
            span_id: id,
            parent_span_id: parent,
            service: "test".into(),
            stage: stage.into(),
            start_us: start,
            end_us: end,
            fields: Vec::new(),
        }
    }

    #[test]
    fn attribution_partitions_the_root_exactly() {
        // request [0,100] with transfer [10,60], retry [60,80]; the
        // transfer has a nested hedge [40,60].
        let spans = vec![
            span(1, 1, 0, "request", 0, 100),
            span(1, 2, 1, "transfer", 10, 60),
            span(1, 3, 1, "retry", 60, 80),
            span(1, 4, 2, "hedge", 40, 60),
        ];
        let t = TraceTree::new(1, spans).unwrap();
        let a = t.attribution();
        assert_eq!(a["request"], 30); // [0,10) + [80,100)
        assert_eq!(a["transfer"], 30); // [10,40)
        assert_eq!(a["hedge"], 20); // [40,60) — deepest wins
        assert_eq!(a["retry"], 20);
        assert_eq!(a.values().sum::<u64>(), t.duration_us());
    }

    #[test]
    fn sibling_overlap_resolves_to_later_span() {
        let spans = vec![
            span(1, 1, 0, "request", 0, 10),
            span(1, 2, 1, "transfer", 0, 10),
            span(1, 3, 1, "hedge", 5, 10),
        ];
        let t = TraceTree::new(1, spans).unwrap();
        let a = t.attribution();
        assert_eq!(a["transfer"], 5);
        assert_eq!(a["hedge"], 5);
    }

    #[test]
    fn malformed_trees_are_rejected() {
        assert_eq!(
            TraceTree::new(1, vec![span(1, 2, 9, "x", 0, 1)]),
            Err(TreeError::Orphan { span_id: 2 })
        );
        assert_eq!(TraceTree::new(1, vec![]).unwrap_err(), TreeError::NoRoot);
        assert_eq!(
            TraceTree::new(1, vec![span(1, 1, 0, "a", 0, 5), span(1, 2, 0, "b", 0, 5)])
                .unwrap_err(),
            TreeError::MultipleRoots
        );
        assert_eq!(
            TraceTree::new(1, vec![span(1, 1, 0, "a", 5, 9), span(1, 2, 1, "b", 4, 9)])
                .unwrap_err(),
            TreeError::NotNested { span_id: 2 }
        );
        assert_eq!(
            TraceTree::new(1, vec![span(1, 1, 0, "a", 0, 9), span(1, 1, 1, "b", 1, 2)])
                .unwrap_err(),
            TreeError::DuplicateSpanId { span_id: 1 }
        );
        // Self-parent: every parent id exists, but the chain cycles.
        assert_eq!(
            TraceTree::new(1, vec![span(1, 1, 0, "a", 0, 9), span(1, 2, 2, "b", 1, 2)])
                .unwrap_err(),
            TreeError::Cycle { span_id: 2 }
        );
        // Two-span cycle hanging off a valid root.
        assert_eq!(
            TraceTree::new(
                1,
                vec![
                    span(1, 1, 0, "a", 0, 9),
                    span(1, 2, 3, "b", 1, 2),
                    span(1, 3, 2, "c", 1, 2),
                ]
            )
            .unwrap_err(),
            TreeError::Cycle { span_id: 2 }
        );
    }

    #[test]
    fn build_traces_groups_and_counts_malformed() {
        let mut records = vec![
            span(1, 1, 0, "request", 0, 10),
            span(2, 4, 0, "request", 0, 20),
            span(2, 5, 4, "transfer", 5, 15),
        ];
        records.push(span(3, 9, 77, "orphan", 0, 1));
        let (trees, malformed) = build_traces(&records);
        assert_eq!(trees.len(), 2);
        assert_eq!(malformed, 1);
        assert_eq!(trees[1].duration_us(), 20);
    }

    #[test]
    fn attribute_slow_selects_the_tail() {
        let mut records = Vec::new();
        for t in 1..=100u64 {
            // Trace t runs [0, t]: durations 1..=100 us.
            records.push(span(t, t * 10, 0, "request", 0, t));
            records.push(span(t, t * 10 + 1, t * 10, "transfer", 0, t / 2));
        }
        let (trees, _) = build_traces(&records);
        let report = attribute_slow(&trees, 0.99);
        assert_eq!(report.threshold_us, 99);
        assert_eq!(report.traces_analyzed, 2); // 99 and 100
        assert_eq!(report.total_us, 199);
        assert_eq!(report.accounted_us, report.total_us);
        assert_eq!(report.accounted_bp(), 10_000);
        assert!(report.stages["transfer"] > 0 && report.stages["request"] > 0);
    }

    #[test]
    fn tracer_output_feeds_straight_into_analysis() {
        let tracer = SpanTracer::new(64);
        tracer.enable();
        let root = tracer.root();
        tracer.record_child(&root, "nocdn", "transfer", 2, 7);
        tracer.record(&root, "nocdn", "request", 0, 10);
        let (trees, malformed) = build_traces(&tracer.take());
        assert_eq!(malformed, 0);
        assert_eq!(trees.len(), 1);
        let a = trees[0].attribution();
        assert_eq!(a["transfer"], 5);
        assert_eq!(a["request"], 5);
    }
}
