//! [`MetricsRegistry`]: named counters, gauges and histograms shared
//! across threads.
//!
//! The registry is an `Arc` around its tables, so clones are cheap and
//! all clones observe the same metrics. Handles returned by
//! [`counter`](MetricsRegistry::counter) /
//! [`gauge`](MetricsRegistry::gauge) /
//! [`histogram`](MetricsRegistry::histogram) are themselves `Arc`s of
//! the underlying cell: look a metric up once outside the hot loop,
//! then update lock-free (counters/gauges) or under a short mutex
//! (histograms). Per-thread histogram shards can be folded in with
//! [`HistogramHandle::merge_from`].

use crate::hist::Histogram;
use crate::snapshot::Snapshot;
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shared monotonic counter.
#[derive(Clone, Debug, Default)]
pub struct CounterHandle(Arc<AtomicU64>);

impl CounterHandle {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Increments by one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A shared last-value-wins gauge (stored as `f64` bits).
#[derive(Clone, Debug, Default)]
pub struct GaugeHandle(Arc<AtomicU64>);

impl GaugeHandle {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// A shared histogram (short critical section per record).
#[derive(Clone)]
pub struct HistogramHandle(Arc<Mutex<Histogram>>);

impl HistogramHandle {
    /// Records one value.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.lock().record(v);
    }

    /// Records `n` occurrences of `v`.
    pub fn record_n(&self, v: u64, n: u64) {
        self.0.lock().record_n(v, n);
    }

    /// Folds a locally accumulated shard into the shared histogram.
    pub fn merge_from(&self, shard: &Histogram) {
        self.0.lock().merge(shard);
    }

    /// Total recorded values.
    pub fn count(&self) -> u64 {
        self.0.lock().count()
    }

    /// A point-in-time copy (for assertions and summaries).
    pub fn load(&self) -> Histogram {
        self.0.lock().clone()
    }

    /// Starts timing a scope for hot paths like lock mediation or chunk
    /// verify: the returned [`Timer`] records the elapsed wall-clock
    /// nanoseconds here when dropped.
    ///
    /// ```
    /// let reg = hpop_obs::MetricsRegistry::new();
    /// let hist = reg.histogram("attic.lock.mediate_ns");
    /// {
    ///     let _timer = hist.time();
    ///     // ... the work being timed ...
    /// }
    /// assert_eq!(hist.count(), 1);
    /// ```
    pub fn time(&self) -> Timer<'_> {
        Timer {
            hist: self,
            start: Instant::now(),
        }
    }
}

/// A running wall-clock timer from [`HistogramHandle::time`]; records
/// into its histogram on drop.
pub struct Timer<'a> {
    hist: &'a HistogramHandle,
    start: Instant,
}

impl Drop for Timer<'_> {
    fn drop(&mut self) {
        self.hist.record(self.start.elapsed().as_nanos() as u64);
    }
}

#[derive(Default)]
struct RegistryInner {
    counters: Mutex<BTreeMap<String, CounterHandle>>,
    gauges: Mutex<BTreeMap<String, GaugeHandle>>,
    histograms: Mutex<BTreeMap<String, HistogramHandle>>,
}

/// The shared registry. Clone freely; clones are views of one registry.
#[derive(Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<RegistryInner>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry")
            .field("counters", &self.inner.counters.lock().len())
            .field("gauges", &self.inner.gauges.lock().len())
            .field("histograms", &self.inner.histograms.lock().len())
            .finish()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> CounterHandle {
        let mut map = self.inner.counters.lock();
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The gauge named `name`, created on first use.
    pub fn gauge(&self, name: &str) -> GaugeHandle {
        let mut map = self.inner.gauges.lock();
        map.entry(name.to_owned()).or_default().clone()
    }

    /// The histogram named `name`, created on first use with the
    /// default value range.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut map = self.inner.histograms.lock();
        map.entry(name.to_owned())
            .or_insert_with(|| HistogramHandle(Arc::new(Mutex::new(Histogram::new()))))
            .clone()
    }

    /// Names of all registered counters/gauges/histograms.
    pub fn metric_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.counters.lock().keys().cloned().collect();
        names.extend(self.inner.gauges.lock().keys().cloned());
        names.extend(self.inner.histograms.lock().keys().cloned());
        names.sort();
        names.dedup();
        names
    }

    /// A point-in-time [`Snapshot`] of every metric, tagged with the
    /// experiment name.
    pub fn snapshot(&self, experiment: &str) -> Snapshot {
        let mut snap = Snapshot::new(experiment);
        for (name, c) in self.inner.counters.lock().iter() {
            snap.counters.insert(name.clone(), c.get());
        }
        for (name, g) in self.inner.gauges.lock().iter() {
            snap.gauges.insert(name.clone(), g.get());
        }
        for (name, h) in self.inner.histograms.lock().iter() {
            let hist = h.0.lock();
            if !hist.is_empty() {
                snap.histograms
                    .insert(name.clone(), crate::snapshot::HistogramSummary::of(&hist));
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn handles_share_state_across_clones() {
        let reg = MetricsRegistry::new();
        let view = reg.clone();
        reg.counter("flows.started").add(3);
        view.counter("flows.started").incr();
        assert_eq!(reg.counter("flows.started").get(), 4);
        view.gauge("util").set(0.75);
        assert_eq!(reg.gauge("util").get(), 0.75);
    }

    #[test]
    fn sharded_across_threads() {
        let reg = MetricsRegistry::new();
        let mut joins = Vec::new();
        for t in 0..4 {
            let reg = reg.clone();
            joins.push(thread::spawn(move || {
                let c = reg.counter("events");
                let h = reg.histogram("latency_ns");
                // Local shard merged at the end: the hot loop touches
                // no shared lock.
                let mut shard = crate::hist::Histogram::new();
                for i in 0..1_000u64 {
                    c.incr();
                    shard.record(t * 1_000 + i);
                }
                h.merge_from(&shard);
            }));
        }
        for j in joins {
            j.join().expect("thread");
        }
        assert_eq!(reg.counter("events").get(), 4_000);
        assert_eq!(reg.histogram("latency_ns").count(), 4_000);
    }

    #[test]
    fn timer_records_on_drop() {
        let reg = MetricsRegistry::new();
        let hist = reg.histogram("scope_ns");
        let timer = hist.time();
        assert_eq!(hist.count(), 0);
        drop(timer);
        assert_eq!(reg.histogram("scope_ns").count(), 1);
    }

    #[test]
    fn snapshot_collects_everything() {
        let reg = MetricsRegistry::new();
        reg.counter("a.count").add(7);
        reg.gauge("b.ratio").set(0.5);
        reg.histogram("c.ns").record(100);
        reg.histogram("empty.ns"); // never recorded: omitted
        let snap = reg.snapshot("unit");
        assert_eq!(snap.counters["a.count"], 7);
        assert_eq!(snap.gauges["b.ratio"], 0.5);
        assert_eq!(snap.histograms["c.ns"].count, 1);
        assert!(!snap.histograms.contains_key("empty.ns"));
    }
}
