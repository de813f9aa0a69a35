//! A synchronous topic bus connecting appliance services.
//!
//! §IV-D ("Leveraging the Data Attic"): "the HPoP will provide a generic
//! modular framework such that many forms of information within the data
//! attic can trigger data collection". The bus is that framework: the
//! attic publishes `attic.write` events; Internet@home subscribes and
//! turns them into prefetch hints.

use hpop_obs::{MetricsRegistry, TraceCtx};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// An event on the bus.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Dotted topic (`"attic.write"`, `"service.failed"`).
    pub topic: String,
    /// Free-form payload (a path, a service name, …).
    pub payload: String,
    /// Causal context of the request that produced this event, if it
    /// is part of a sampled trace. Subscribers that do further work on
    /// behalf of the event should open child spans under it so the
    /// trace tree follows the causal chain across the bus.
    pub ctx: Option<TraceCtx>,
}

impl Event {
    /// Creates an event with a free-form payload.
    pub fn new(topic: impl Into<String>, payload: impl Into<String>) -> Event {
        Event {
            topic: topic.into(),
            payload: payload.into(),
            ctx: None,
        }
    }

    /// Attaches the causal context of the producing request. A null
    /// (unsampled) context is normalized to `None` so subscribers can
    /// test `ctx.is_some()` alone.
    pub fn with_ctx(mut self, ctx: TraceCtx) -> Event {
        self.ctx = ctx.is_sampled().then_some(ctx);
        self
    }
}

/// Bus counters returned by [`EventBus::stats`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BusStats {
    /// Events published.
    pub published: u64,
    /// Subscriber deliveries (one publish can deliver many times).
    pub delivered: u64,
    /// Events published with no matching subscriber.
    pub dropped: u64,
}

type Subscriber = Box<dyn FnMut(&Event) + Send>;

struct BusInner {
    subscribers: BTreeMap<String, Vec<Subscriber>>,
    stats: BusStats,
    metrics: MetricsRegistry,
}

/// A cheaply cloneable synchronous pub/sub bus.
///
/// Delivery is immediate and in subscription order; a subscriber matches
/// an event if its pattern equals the topic or is a `prefix.*` glob.
#[derive(Clone)]
pub struct EventBus {
    inner: Arc<Mutex<BusInner>>,
}

impl std::fmt::Debug for EventBus {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("EventBus")
            .field("topics", &inner.subscribers.keys().collect::<Vec<_>>())
            .field("published", &inner.stats.published)
            .finish()
    }
}

impl Default for EventBus {
    fn default() -> Self {
        Self::new()
    }
}

impl EventBus {
    /// An empty bus.
    pub fn new() -> Self {
        EventBus {
            inner: Arc::new(Mutex::new(BusInner {
                subscribers: BTreeMap::new(),
                stats: BusStats::default(),
                metrics: MetricsRegistry::new(),
            })),
        }
    }

    /// The registry holding the bus's per-topic delivery-latency
    /// histograms (`bus.topic.<topic>.deliver_ns`) and counters.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner.lock().metrics.clone()
    }

    /// Swaps in a shared registry (e.g. the experiment's). Call before
    /// publishing; earlier metrics stay in the old registry.
    pub fn use_metrics(&self, metrics: MetricsRegistry) {
        self.inner.lock().metrics = metrics;
    }

    /// Subscribes to a topic, or to a subtree with a `prefix.*` pattern.
    pub fn subscribe(&self, pattern: &str, f: impl FnMut(&Event) + Send + 'static) {
        self.inner
            .lock()
            .subscribers
            .entry(pattern.to_owned())
            .or_default()
            .push(Box::new(f));
    }

    /// Publishes an event, delivering synchronously to every matching
    /// subscriber. Returns the number of deliveries.
    pub fn publish(&self, event: Event) -> usize {
        let mut inner = self.inner.lock();
        inner.stats.published += 1;
        // Collect matching patterns first to appease the borrow checker.
        let patterns: Vec<String> = inner
            .subscribers
            .keys()
            .filter(|p| Self::matches(p, &event.topic))
            .cloned()
            .collect();
        let start = std::time::Instant::now();
        let mut count = 0;
        for p in patterns {
            if let Some(subs) = inner.subscribers.get_mut(&p) {
                for s in subs.iter_mut() {
                    s(&event);
                    count += 1;
                }
            }
        }
        inner.stats.delivered += count as u64;
        if count == 0 {
            inner.stats.dropped += 1;
        }
        let m = &inner.metrics;
        m.counter("bus.published").incr();
        m.counter("bus.delivered").add(count as u64);
        if count == 0 {
            m.counter("bus.dropped").incr();
        } else {
            m.histogram(&format!("bus.topic.{}.deliver_ns", event.topic))
                .record(start.elapsed().as_nanos() as u64);
        }
        count
    }

    fn matches(pattern: &str, topic: &str) -> bool {
        if let Some(prefix) = pattern.strip_suffix(".*") {
            topic.starts_with(prefix)
                && topic.len() > prefix.len()
                && topic.as_bytes()[prefix.len()] == b'.'
        } else {
            pattern == topic
        }
    }

    /// Published/delivered/dropped counters.
    pub fn stats(&self) -> BusStats {
        self.inner.lock().stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn exact_topic_delivery() {
        let bus = EventBus::new();
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        bus.subscribe("attic.write", move |e| {
            assert_eq!(e.payload, "records/2026.json");
            h.fetch_add(1, Ordering::SeqCst);
        });
        let n = bus.publish(Event::new("attic.write", "records/2026.json"));
        assert_eq!(n, 1);
        assert_eq!(hits.load(Ordering::SeqCst), 1);
        assert_eq!(bus.publish(Event::new("attic.read", "x")), 0);
    }

    #[test]
    fn glob_subscriptions() {
        let bus = EventBus::new();
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        bus.subscribe("attic.*", move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        bus.publish(Event::new("attic.write", ""));
        bus.publish(Event::new("attic.lock.acquired", ""));
        bus.publish(Event::new("atticology", "")); // must NOT match
        bus.publish(Event::new("attic", "")); // bare prefix: no dot segment
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn multiple_subscribers_all_fire() {
        let bus = EventBus::new();
        let hits = Arc::new(AtomicU32::new(0));
        for _ in 0..3 {
            let h = hits.clone();
            bus.subscribe("t", move |_| {
                h.fetch_add(1, Ordering::SeqCst);
            });
        }
        assert_eq!(bus.publish(Event::new("t", "")), 3);
    }

    #[test]
    fn stats_track() {
        let bus = EventBus::new();
        bus.subscribe("a", |_| {});
        bus.publish(Event::new("a", ""));
        bus.publish(Event::new("b", "")); // nobody listening: dropped
        assert_eq!(
            bus.stats(),
            BusStats {
                published: 2,
                delivered: 1,
                dropped: 1
            }
        );
    }

    #[test]
    fn per_topic_latency_histograms() {
        let bus = EventBus::new();
        bus.subscribe("attic.write", |_| {});
        bus.publish(Event::new("attic.write", "x"));
        bus.publish(Event::new("attic.write", "y"));
        let m = bus.metrics();
        assert_eq!(m.counter("bus.published").get(), 2);
        assert_eq!(m.counter("bus.delivered").get(), 2);
        assert_eq!(m.histogram("bus.topic.attic.write.deliver_ns").count(), 2);
    }

    #[test]
    fn with_ctx_normalizes_unsampled_to_none() {
        let tracer = hpop_obs::SpanTracer::new(8);
        tracer.enable();
        let ctx = tracer.root();
        let e = Event::new("attic.write", "x").with_ctx(ctx);
        assert_eq!(e.ctx, Some(ctx));
        let unsampled = Event::new("attic.write", "x").with_ctx(TraceCtx::NONE);
        assert_eq!(unsampled.ctx, None);
        // Subscribers see the context and can hang children off it.
        let bus = EventBus::new();
        let seen = Arc::new(Mutex::new(None));
        let s = seen.clone();
        bus.subscribe("attic.write", move |e| {
            *s.lock() = e.ctx;
        });
        bus.publish(e);
        assert_eq!(*seen.lock(), Some(ctx));
    }

    #[test]
    fn clones_share_subscribers() {
        let bus = EventBus::new();
        let hits = Arc::new(AtomicU32::new(0));
        let h = hits.clone();
        bus.clone().subscribe("x", move |_| {
            h.fetch_add(1, Ordering::SeqCst);
        });
        bus.publish(Event::new("x", ""));
        assert_eq!(hits.load(Ordering::SeqCst), 1);
    }
}
