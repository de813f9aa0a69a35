//! Property-based tests of the causal-tracing guarantees.
//!
//! 1. **Well-formedness by construction**: any span tree recorded
//!    honestly through the [`SpanTracer`] API (children carved out of
//!    their parent's sim-time interval) validates with zero malformed
//!    traces — no orphans, every child nested.
//! 2. **Attribution partitions**: the deepest-wins sweep's per-stage
//!    totals sum to the root duration *exactly*, for every generated
//!    tree shape — the ≥95% accounted budget in CI holds by
//!    construction, not by luck.
//! 3. **Adversarial soup**: arbitrary flat span dumps (duplicate ids,
//!    orphans, cycles, inverted nesting) never panic or hang
//!    [`build_traces`]; whatever trees survive validation still
//!    partition exactly, and rejected traces are counted.
//! 4. **Sampling determinism**: two tracers with the same 1-in-N rate
//!    make identical keep/drop decisions, and children inherit their
//!    parent's decision.

use crate::critical_path::build_traces;
use crate::span::{SpanRecord, SpanTracer, TraceCtx};
use proptest::prelude::*;

/// Stage vocabulary used across the services.
const STAGES: [&str; 6] = [
    "request",
    "transfer",
    "retry",
    "hedge",
    "verify",
    "origin_fallback",
];

/// Plan for one honestly-recorded tree: each child picks an
/// already-recorded span as parent and carves a sub-interval out of it
/// via (start, length) percentages.
fn arb_tree_plan() -> impl Strategy<Value = (u64, Vec<(u8, u8, u8, u8)>)> {
    (
        1u64..=5_000_000, // root duration, us
        proptest::collection::vec(
            (any::<u8>(), 0u8..=100, 0u8..=100, any::<u8>()),
            0..24, // (parent pick, start %, length %, stage pick)
        ),
    )
}

/// Records the planned tree through the tracer and returns the drained
/// span dump.
fn record_plan(root_len: u64, children: &[(u8, u8, u8, u8)]) -> Vec<SpanRecord> {
    let tracer = SpanTracer::new(256);
    tracer.enable();
    let root = tracer.root();
    // (ctx, start_us, end_us) of every span recorded so far.
    let mut intervals: Vec<(TraceCtx, u64, u64)> = vec![(root, 0, root_len)];
    for &(pick, start_pct, len_pct, stage_pick) in children {
        let (pctx, ps, pe) = intervals[pick as usize % intervals.len()];
        let start = ps + (pe - ps) * u64::from(start_pct) / 100;
        let end = start + (pe - start) * u64::from(len_pct) / 100;
        let stage = STAGES[stage_pick as usize % STAGES.len()];
        let ctx = tracer.record_child(&pctx, "prop", stage, start, end);
        intervals.push((ctx, start, end));
    }
    tracer.record(&root, "prop", "request", 0, root_len);
    tracer.take()
}

proptest! {
    /// Honestly-recorded trees always validate (no orphans, children
    /// nested in their parent's interval) and the attribution sweep
    /// partitions the root duration exactly.
    #[test]
    fn recorded_trees_are_well_formed_and_attribution_partitions(
        (root_len, children) in arb_tree_plan(),
    ) {
        let records = record_plan(root_len, &children);
        prop_assert_eq!(records.len(), children.len() + 1);
        let (trees, malformed) = build_traces(&records);
        prop_assert_eq!(malformed, 0, "honest recording produced a malformed trace");
        prop_assert_eq!(trees.len(), 1);
        let tree = &trees[0];
        prop_assert_eq!(tree.duration_us(), root_len);
        // Every child is nested inside its parent's interval.
        for s in &tree.spans {
            if s.parent_span_id != 0 {
                let parent = tree
                    .spans
                    .iter()
                    .find(|p| p.span_id == s.parent_span_id)
                    .expect("no orphans in a validated tree");
                prop_assert!(s.start_us >= parent.start_us && s.end_us <= parent.end_us);
            }
        }
        let attrib = tree.attribution();
        let total: u64 = attrib.values().sum();
        prop_assert_eq!(total, tree.duration_us(), "attribution must partition the root");
        for stage in attrib.keys() {
            prop_assert!(STAGES.contains(&stage.as_str()));
        }
    }

    /// Arbitrary span soup — duplicate ids, orphan parents, self and
    /// mutual cycles, inverted intervals — never panics or hangs, and
    /// the trees that survive validation still partition exactly.
    #[test]
    fn adversarial_soup_never_breaks_the_analyzer(
        soup in proptest::collection::vec(
            (1u64..=4, 1u64..=48, 0u64..=48, 0u64..=1_000, 0u64..=1_000, any::<u8>()),
            0..40,
        ),
    ) {
        let records: Vec<SpanRecord> = soup
            .into_iter()
            .map(|(trace, id, parent, a, b, stage_pick)| SpanRecord {
                trace_id: trace,
                span_id: id,
                parent_span_id: parent,
                service: "prop".into(),
                stage: STAGES[stage_pick as usize % STAGES.len()].into(),
                start_us: a.min(b),
                end_us: a.max(b),
                fields: Vec::new(),
            })
            .collect();
        let distinct_traces = {
            let mut ids: Vec<u64> = records.iter().map(|r| r.trace_id).collect();
            ids.sort_unstable();
            ids.dedup();
            ids.len()
        };
        let (trees, malformed) = build_traces(&records);
        prop_assert_eq!(trees.len() + malformed, distinct_traces);
        for tree in &trees {
            let total: u64 = tree.attribution().values().sum();
            prop_assert_eq!(total, tree.duration_us());
        }
    }

    /// 1-in-N sampling is a pure function of the allocated trace id:
    /// two tracers at the same rate agree on every keep/drop decision,
    /// and a child context inherits its parent's decision.
    #[test]
    fn sampling_is_deterministic_and_inherited(
        one_in in 1u64..=16,
        draws in 1usize..=64,
    ) {
        let a = SpanTracer::new(16);
        let b = SpanTracer::new(16);
        for t in [&a, &b] {
            t.enable();
            t.set_sampling(one_in);
        }
        let mut kept = 0usize;
        for _ in 0..draws {
            // Mirror every id allocation on both tracers — child() also
            // draws from the counter, so the call sequences must match.
            let ra = a.root();
            let rb = b.root();
            prop_assert_eq!(ra.is_sampled(), rb.is_sampled());
            let child = a.child(&ra);
            let _ = b.child(&rb);
            prop_assert_eq!(child.is_sampled(), ra.is_sampled());
            if ra.is_sampled() {
                kept += 1;
                prop_assert_eq!(child.parent_span_id, ra.span_id);
                prop_assert_eq!(child.trace_id, ra.trace_id);
            }
        }
        if one_in == 1 {
            prop_assert_eq!(kept, draws, "1-in-1 sampling must keep everything");
        }
    }
}
