//! Causal spans: [`TraceCtx`], [`SpanRecord`], [`SpanTracer`].
//!
//! Where [`crate::trace`] records flat, uncorrelated events, this
//! module records **span trees**: every end-to-end request (a NoCDN
//! object fetch, an attic shard placement, a dcol detour setup, a
//! coop-cache ladder walk) carries a [`TraceCtx`] through the layers it
//! crosses, and each layer closes child spans with a *stage* label
//! (`queue`, `transfer`, `retry`, `hedge`, `verify`,
//! `origin_fallback`, …) over a sim-time interval. The critical-path
//! analyzer in [`crate::critical_path`] then walks the finished trees
//! and says where a slow request's latency actually went.
//!
//! Cost discipline mirrors the event tracer: a disabled [`SpanTracer`]
//! answers [`SpanTracer::root`] with [`TraceCtx::NONE`] after one
//! relaxed atomic load, and every operation on a `NONE` context is a
//! no-op — instrumentation left in hot paths is free until an
//! experiment turns sampling on.

use crate::mix;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// Default ring capacity for [`crate::spans`].
pub const DEFAULT_SPAN_CAPACITY: usize = 65_536;

/// The causal identity carried by one in-flight operation.
///
/// `trace_id == 0` is the *null* context ([`TraceCtx::NONE`]): the
/// trace was not sampled (or tracing is off) and every span operation
/// derived from it is a no-op. Children of a null context are null, so
/// the sampling decision made at the root propagates for free.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct TraceCtx {
    /// Identifier of the whole request tree (0 = unsampled).
    pub trace_id: u64,
    /// This operation's span within the tree.
    pub span_id: u64,
    /// The parent span (0 = this is the root span).
    pub parent_span_id: u64,
}

impl TraceCtx {
    /// The unsampled context: all operations on it are no-ops.
    pub const NONE: TraceCtx = TraceCtx {
        trace_id: 0,
        span_id: 0,
        parent_span_id: 0,
    };

    /// Whether this context belongs to a sampled trace.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.trace_id != 0
    }
}

/// One finished span: a stage-labelled sim-time interval in a trace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanRecord {
    /// Trace this span belongs to.
    pub trace_id: u64,
    /// This span's id (unique within the tracer).
    pub span_id: u64,
    /// Parent span id (0 = root).
    pub parent_span_id: u64,
    /// Emitting service (`"nocdn"`, `"attic"`, `"resilience"`, …).
    pub service: String,
    /// Stage label (`"request"`, `"transfer"`, `"retry"`, `"hedge"`,
    /// `"verify"`, `"origin_fallback"`, `"queue"`, …).
    pub stage: String,
    /// Interval start, sim-time microseconds.
    pub start_us: u64,
    /// Interval end, sim-time microseconds (>= `start_us`).
    pub end_us: u64,
}

impl SpanRecord {
    /// The span's duration in microseconds.
    pub fn duration_us(&self) -> u64 {
        self.end_us.saturating_sub(self.start_us)
    }
}

struct SpanInner {
    enabled: AtomicBool,
    /// Keep one trace in `sample_one_in` (1 = keep every trace).
    sample_one_in: AtomicU64,
    next_id: AtomicU64,
    dropped: AtomicU64,
    ring: Mutex<VecDeque<SpanRecord>>,
    capacity: usize,
}

/// A cheaply cloneable handle to one span stream.
#[derive(Clone)]
pub struct SpanTracer {
    inner: Arc<SpanInner>,
}

impl std::fmt::Debug for SpanTracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanTracer")
            .field("enabled", &self.is_enabled())
            .field("buffered", &self.inner.ring.lock().len())
            .field("dropped", &self.dropped())
            .finish()
    }
}

impl SpanTracer {
    /// A disabled tracer whose ring holds at most `capacity` spans
    /// (oldest dropped first, counted in [`SpanTracer::dropped`]).
    pub fn new(capacity: usize) -> SpanTracer {
        SpanTracer {
            inner: Arc::new(SpanInner {
                enabled: AtomicBool::new(false),
                sample_one_in: AtomicU64::new(1),
                next_id: AtomicU64::new(1),
                dropped: AtomicU64::new(0),
                ring: Mutex::new(VecDeque::with_capacity(capacity.min(1_024))),
                capacity: capacity.max(1),
            }),
        }
    }

    /// Whether span recording is on (one relaxed atomic load).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// Starts handing out sampled root contexts.
    pub fn enable(&self) {
        self.inner.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops sampling new traces (buffered spans are kept; in-flight
    /// sampled contexts still record).
    pub fn disable(&self) {
        self.inner.enabled.store(false, Ordering::Relaxed);
    }

    /// Samples one trace in `n` (deterministic in the trace id); `0`
    /// and `1` both mean "every trace".
    pub fn set_sampling(&self, n: u64) {
        self.inner.sample_one_in.store(n.max(1), Ordering::Relaxed);
    }

    /// Opens a root context for a new end-to-end request. Returns
    /// [`TraceCtx::NONE`] when disabled or when the sampler skips this
    /// trace — both cost O(1) and no allocation.
    pub fn root(&self) -> TraceCtx {
        if !self.is_enabled() {
            return TraceCtx::NONE;
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let one_in = self.inner.sample_one_in.load(Ordering::Relaxed);
        if one_in > 1 && !mix(id).is_multiple_of(one_in) {
            return TraceCtx::NONE;
        }
        TraceCtx {
            trace_id: id,
            span_id: id,
            parent_span_id: 0,
        }
    }

    /// Opens a child context under `parent` (null parent → null child).
    pub fn child(&self, parent: &TraceCtx) -> TraceCtx {
        if !parent.is_sampled() {
            return TraceCtx::NONE;
        }
        TraceCtx {
            trace_id: parent.trace_id,
            span_id: self.inner.next_id.fetch_add(1, Ordering::Relaxed),
            parent_span_id: parent.span_id,
        }
    }

    /// Records a finished span for `ctx` (no-op on a null context).
    /// `start_us..end_us` is the sim-time interval; an inverted
    /// interval is clamped to zero width at `start_us`.
    pub fn record(&self, ctx: &TraceCtx, service: &str, stage: &str, start_us: u64, end_us: u64) {
        if !ctx.is_sampled() {
            return;
        }
        let record = SpanRecord {
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_span_id: ctx.parent_span_id,
            service: service.to_owned(),
            stage: stage.to_owned(),
            start_us,
            end_us: end_us.max(start_us),
        };
        let mut ring = self.inner.ring.lock();
        if ring.len() == self.inner.capacity {
            ring.pop_front();
            self.inner.dropped.fetch_add(1, Ordering::Relaxed);
        }
        ring.push_back(record);
    }

    /// Opens a child context and records it over the interval in one
    /// call — the common shape for leaf stages.
    pub fn record_child(
        &self,
        parent: &TraceCtx,
        service: &str,
        stage: &str,
        start_us: u64,
        end_us: u64,
    ) -> TraceCtx {
        let ctx = self.child(parent);
        self.record(&ctx, service, stage, start_us, end_us);
        ctx
    }

    /// Spans evicted from the ring since the last [`SpanTracer::reset`].
    pub fn dropped(&self) -> u64 {
        self.inner.dropped.load(Ordering::Relaxed)
    }

    /// The buffered spans, oldest first (the ring is left intact).
    pub fn recent(&self) -> Vec<SpanRecord> {
        self.inner.ring.lock().iter().cloned().collect()
    }

    /// Drains the buffered spans, oldest first.
    pub fn take(&self) -> Vec<SpanRecord> {
        self.inner.ring.lock().drain(..).collect()
    }

    /// Clears the ring and the drop counter (sampling config is kept).
    pub fn reset(&self) {
        self.inner.ring.lock().clear();
        self.inner.dropped.store(0, Ordering::Relaxed);
    }
}

/// A tracer handle plus the context instrumented code should hang
/// children off — what the resilience wrappers thread through calls so
/// deep layers don't need two extra parameters each.
#[derive(Clone, Debug)]
pub struct SpanScope {
    tracer: SpanTracer,
    ctx: TraceCtx,
}

impl SpanScope {
    /// A scope recording children of `ctx` into `tracer`.
    pub fn new(tracer: SpanTracer, ctx: TraceCtx) -> SpanScope {
        SpanScope { tracer, ctx }
    }

    /// The inert scope: nothing is ever recorded. Use as the default
    /// when a caller did not opt into tracing.
    pub fn none() -> SpanScope {
        SpanScope {
            tracer: SpanTracer::new(1),
            ctx: TraceCtx::NONE,
        }
    }

    /// Whether recording through this scope does anything.
    #[inline]
    pub fn is_sampled(&self) -> bool {
        self.ctx.is_sampled()
    }

    /// The context children are attached to.
    pub fn ctx(&self) -> TraceCtx {
        self.ctx
    }

    /// The underlying tracer.
    pub fn tracer(&self) -> &SpanTracer {
        &self.tracer
    }

    /// Records a leaf child span.
    pub fn record(&self, service: &str, stage: &str, start_us: u64, end_us: u64) {
        self.tracer
            .record_child(&self.ctx, service, stage, start_us, end_us);
    }

    /// A scope one level deeper: records `stage` over the interval and
    /// returns the scope for that child's own children.
    pub fn enter(&self, service: &str, stage: &str, start_us: u64, end_us: u64) -> SpanScope {
        let child = self
            .tracer
            .record_child(&self.ctx, service, stage, start_us, end_us);
        SpanScope {
            tracer: self.tracer.clone(),
            ctx: child,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_hands_out_null_contexts() {
        let t = SpanTracer::new(16);
        let root = t.root();
        assert!(!root.is_sampled());
        t.record(&root, "svc", "request", 0, 10);
        assert!(t.recent().is_empty());
        // Children of null stay null.
        assert!(!t.child(&root).is_sampled());
    }

    #[test]
    fn root_child_record_forms_a_tree() {
        let t = SpanTracer::new(16);
        t.enable();
        let root = t.root();
        assert!(root.is_sampled());
        assert_eq!(root.parent_span_id, 0);
        let child = t.child(&root);
        assert_eq!(child.trace_id, root.trace_id);
        assert_eq!(child.parent_span_id, root.span_id);
        t.record(&child, "nocdn", "transfer", 5, 9);
        t.record(&root, "nocdn", "request", 0, 10);
        let spans = t.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stage, "transfer");
        assert_eq!(spans[1].parent_span_id, 0);
    }

    #[test]
    fn sampling_keeps_a_deterministic_subset() {
        let t = SpanTracer::new(1024);
        t.enable();
        t.set_sampling(4);
        let sampled: Vec<bool> = (0..64).map(|_| t.root().is_sampled()).collect();
        let kept = sampled.iter().filter(|&&s| s).count();
        assert!(kept > 0 && kept < 64, "kept {kept}/64");
        // Same id sequence → same decisions.
        let t2 = SpanTracer::new(1024);
        t2.enable();
        t2.set_sampling(4);
        let again: Vec<bool> = (0..64).map(|_| t2.root().is_sampled()).collect();
        assert_eq!(sampled, again);
    }

    #[test]
    fn ring_overflow_is_counted_not_silent() {
        let t = SpanTracer::new(2);
        t.enable();
        let root = t.root();
        for i in 0..5u64 {
            t.record_child(&root, "svc", "transfer", i, i + 1);
        }
        assert_eq!(t.recent().len(), 2);
        assert_eq!(t.dropped(), 3);
        t.reset();
        assert_eq!(t.dropped(), 0);
        assert!(t.recent().is_empty());
    }

    #[test]
    fn inverted_interval_clamps_to_zero_width() {
        let t = SpanTracer::new(4);
        t.enable();
        let root = t.root();
        t.record(&root, "svc", "request", 10, 3);
        assert_eq!(t.recent()[0].end_us, 10);
    }

    #[test]
    fn scope_enter_nests() {
        let t = SpanTracer::new(16);
        t.enable();
        let root = t.root();
        let scope = SpanScope::new(t.clone(), root);
        let inner = scope.enter("nocdn", "transfer", 0, 8);
        inner.record("resilience", "retry", 2, 4);
        let spans = t.recent();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent_span_id, spans[0].span_id);
        assert_eq!(spans[1].trace_id, root.trace_id);
    }

    #[test]
    fn none_scope_is_inert() {
        let scope = SpanScope::none();
        scope.record("svc", "retry", 0, 1);
        assert!(!scope.is_sampled());
        assert!(scope.tracer().recent().is_empty());
    }
}
