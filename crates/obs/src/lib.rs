//! # `obs` — metrics and tracing for the whole stack
//!
//! The HyperModel paper is at bottom a measurement protocol; this crate
//! is the measurement machinery for everything the workspace builds on
//! top of it. Two pieces, always on:
//!
//! * a metrics core — striped lock-free [`Counter`]s, [`Gauge`]s, and
//!   log-linear (HDR-style) latency [`Histogram`]s with p50/p95/p99/max,
//!   registered by name in a process-global [`Registry`] that supports
//!   [`Registry::snapshot`] / [`Snapshot::diff`] and text + JSON export;
//! * span-based tracing ([`trace`]) — a thread-local trace id, minted at
//!   the edge and propagated through executor job dispatch and across
//!   the wire in the frame header, plus [`trace::span`] scopes that feed
//!   `span.*` histograms and an optional in-memory span log.
//!
//! Metric names are dotted lowercase, `area.detail[_unit]`: e.g.
//! `exec.dispatch_wait_us`, `loop.parks`, `shard.2pc.aborted`,
//! `op.O7.warm_us`. Durations are recorded in microseconds.
//!
//! The crate deliberately has no dependencies and uses `std::sync`
//! directly: it must be callable from inside the lock-discipline shims
//! (`sanity::sync`) without recursing into them.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![allow(
    clippy::disallowed_types,
    reason = "obs sits beneath the sanity::sync shims and must not recurse into them"
)]

pub mod hist;
pub mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

pub use hist::{HistSnapshot, Histogram};

/// Counter stripes: wide enough that a few hammering threads rarely
/// collide on one cache line, small enough to stay cheap to sum.
const STRIPES: usize = 16;

/// One cache-line-padded atomic cell of a striped counter.
#[derive(Default)]
#[repr(align(64))]
struct Stripe(AtomicU64);

/// A monotonically increasing striped counter. Increments pick a stripe
/// from the calling thread's id, so concurrent writers on different
/// threads usually touch different cache lines; reads sum all stripes.
pub struct Counter {
    stripes: [Stripe; STRIPES],
}

impl Counter {
    fn new() -> Counter {
        Counter {
            stripes: Default::default(),
        }
    }

    fn stripe_index() -> usize {
        // Thread ids are small sequential integers; hashing them would
        // be overkill. as_u64 is unstable, so fingerprint the Debug form.
        thread_stripe()
    }

    /// Add `n` to the counter.
    pub fn add(&self, n: u64) {
        self.stripes[Self::stripe_index()]
            .0
            .fetch_add(n, Ordering::Relaxed);
    }

    /// Add one.
    pub fn incr(&self) {
        self.add(1);
    }

    /// The current total across all stripes.
    pub fn get(&self) -> u64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

thread_local! {
    static STRIPE: std::cell::Cell<usize> = const { std::cell::Cell::new(usize::MAX) };
}

static NEXT_STRIPE: AtomicU64 = AtomicU64::new(0);

fn thread_stripe() -> usize {
    STRIPE.with(|s| {
        let v = s.get();
        if v != usize::MAX {
            return v;
        }
        let v = (NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) as usize) % STRIPES;
        s.set(v);
        v
    })
}

/// A last-value-wins signed gauge (queue depths, EWMA snapshots).
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    fn new() -> Gauge {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Overwrite the gauge.
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Adjust the gauge by `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.value.fetch_add(d, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// One recorded span: a named, timed scope tagged with the trace id that
/// was current when it closed. Collected only while
/// [`trace::record_spans`] is on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Global completion order (1-based).
    pub seq: u64,
    /// The trace id current on the recording thread (0 = untraced).
    pub trace: u64,
    /// The span name (`client.call`, `loop.frame`, `exec.job`, …).
    pub name: &'static str,
    /// Wall-clock duration of the scope in microseconds.
    pub dur_us: u64,
}

/// Cap on the in-memory span log; older records are dropped first.
const SPAN_LOG_CAP: usize = 8192;

/// The process-wide metric registry: named counters, gauges and
/// histograms, plus the optional span log. Obtain it with [`registry`].
pub struct Registry {
    record_spans: AtomicBool,
    span_seq: AtomicU64,
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
    spans: Mutex<Vec<SpanRecord>>,
}

impl Registry {
    fn new() -> Registry {
        Registry {
            record_spans: AtomicBool::new(false),
            span_seq: AtomicU64::new(0),
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            hists: RwLock::new(BTreeMap::new()),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn named<T>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str, mk: fn() -> T) -> Arc<T> {
        if let Some(v) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
            return Arc::clone(v);
        }
        let mut w = map.write().unwrap_or_else(|e| e.into_inner());
        Arc::clone(w.entry(name.to_string()).or_insert_with(|| Arc::new(mk())))
    }

    /// The counter registered as `name`, created on first use. Hot paths
    /// should hold on to the returned handle rather than re-looking it
    /// up per event.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        Self::named(&self.counters, name, Counter::new)
    }

    /// The gauge registered as `name`, created on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        Self::named(&self.gauges, name, Gauge::new)
    }

    /// The histogram registered as `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        Self::named(&self.hists, name, Histogram::new)
    }

    /// A point-in-time copy of every registered metric.
    ///
    /// The copy is taken metric by metric with relaxed loads, so it is
    /// not a cross-metric atomic cut — but each histogram snapshot is
    /// internally consistent enough to rank: the recorded count is read
    /// *before* the buckets, so `buckets_total() >= count` always holds
    /// (a record in flight during the snapshot may appear in the buckets
    /// and not yet in `count`, never the reverse).
    pub fn snapshot(&self) -> Snapshot {
        let counters = self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let gauges = self
            .gauges
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.get()))
            .collect();
        let hists = self
            .hists
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .map(|(k, v)| (k.clone(), v.snapshot()))
            .collect();
        Snapshot {
            counters,
            gauges,
            hists,
        }
    }

    // ---- span log ----------------------------------------------------

    /// Whether closing spans are appended to the in-memory span log.
    pub fn spans_recorded(&self) -> bool {
        self.record_spans.load(Ordering::Relaxed)
    }

    /// Enable or disable the span log (off by default; histograms fed by
    /// spans stay on either way).
    pub fn set_record_spans(&self, on: bool) {
        self.record_spans.store(on, Ordering::Relaxed);
    }

    pub(crate) fn push_span(&self, trace: u64, name: &'static str, dur_us: u64) {
        if !self.spans_recorded() {
            return;
        }
        let seq = self.span_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mut log = self.spans.lock().unwrap_or_else(|e| e.into_inner());
        if log.len() >= SPAN_LOG_CAP {
            log.remove(0);
        }
        log.push(SpanRecord {
            seq,
            trace,
            name,
            dur_us,
        });
    }

    /// A copy of the span log.
    pub fn spans(&self) -> Vec<SpanRecord> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }

    /// Drop all collected span records.
    pub fn clear_spans(&self) {
        self.spans.lock().unwrap_or_else(|e| e.into_inner()).clear();
    }
}

/// A point-in-time copy of the registry, comparable and exportable.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram snapshots by name.
    pub hists: BTreeMap<String, HistSnapshot>,
}

impl Snapshot {
    /// The change since `earlier`: counters and histogram contents are
    /// subtracted (saturating — a restarted metric reads as zero),
    /// gauges keep their current value (they are levels, not flows).
    pub fn diff(&self, earlier: &Snapshot) -> Snapshot {
        let counters = self
            .counters
            .iter()
            .map(|(k, v)| {
                let before = earlier.counters.get(k).copied().unwrap_or(0);
                (k.clone(), v.saturating_sub(before))
            })
            .collect();
        let hists = self
            .hists
            .iter()
            .map(|(k, v)| {
                let d = match earlier.hists.get(k) {
                    Some(before) => v.diff(before),
                    None => v.clone(),
                };
                (k.clone(), d)
            })
            .collect();
        Snapshot {
            counters,
            gauges: self.gauges.clone(),
            hists,
        }
    }

    /// Machine-readable JSON export. Hand-rolled — the workspace carries
    /// no serialization dependency.
    pub fn export_json(&self) -> String {
        let mut out = String::from("{\n  \"counters\": {");
        let mut first = true;
        for (k, v) in &self.counters {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), v);
        }
        out.push_str("\n  },\n  \"gauges\": {");
        first = true;
        for (k, v) in &self.gauges {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\n    \"{}\": {}", json_escape(k), v);
        }
        out.push_str("\n  },\n  \"histograms\": {");
        first = true;
        for (k, h) in &self.hists {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(
                out,
                "\n    \"{}\": {{\"count\": {}, \"sum\": {}, \"p50\": {}, \"p95\": {}, \
                 \"p99\": {}, \"max\": {}}}",
                json_escape(k),
                h.count,
                h.sum,
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.max
            );
        }
        out.push_str("\n  }\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

static REGISTRY: OnceLock<Registry> = OnceLock::new();

/// The process-global registry.
pub fn registry() -> &'static Registry {
    REGISTRY.get_or_init(Registry::new)
}

/// Add `n` to the global counter `name`.
///
/// Convenience for warm-but-not-scorching paths; per-event hot loops
/// should cache [`Registry::counter`] handles instead.
pub fn incr(name: &str, n: u64) {
    registry().counter(name).add(n);
}

/// Set the global gauge `name`.
pub fn gauge_set(name: &str, v: i64) {
    registry().gauge(name).set(v);
}

/// Record `value` into the global histogram `name`. The unit is the
/// histogram's own: microseconds for a latency, a count or a size
/// otherwise.
pub fn observe(name: &str, value: u64) {
    registry().histogram(name).record(value);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_stripes_and_threads() {
        let c = Arc::new(Counter::new());
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    for _ in 0..1000 {
                        c.incr();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("counter thread");
        }
        assert_eq!(c.get(), 4000);
    }

    #[test]
    fn gauge_set_and_add() {
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn registry_interns_by_name() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.add(2);
        assert_eq!(b.get(), 2);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn snapshot_diff_subtracts_counters_and_hists() {
        let r = Registry::new();
        r.counter("c").add(5);
        r.histogram("h").record(10);
        let s1 = r.snapshot();
        r.counter("c").add(3);
        r.histogram("h").record(20);
        let d = r.snapshot().diff(&s1);
        assert_eq!(d.counters["c"], 3);
        assert_eq!(d.hists["h"].count, 1);
        assert_eq!(d.hists["h"].sum, 20);
    }

    #[test]
    fn export_json_is_structurally_sound() {
        let r = Registry::new();
        r.counter("a.b").add(1);
        r.gauge("g").set(-2);
        r.histogram("h_us").record(100);
        let json = r.snapshot().export_json();
        assert!(json.contains("\"counters\""));
        assert!(json.contains("\"a.b\": 1"));
        assert!(json.contains("\"g\": -2"));
        assert!(json.contains("\"h_us\": {\"count\": 1"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn span_log_is_bounded_and_ordered() {
        let r = Registry::new();
        r.set_record_spans(true);
        for i in 0..(SPAN_LOG_CAP + 10) {
            r.push_span(i as u64, "t", 1);
        }
        let spans = r.spans();
        assert_eq!(spans.len(), SPAN_LOG_CAP);
        assert!(spans.windows(2).all(|w| w[0].seq < w[1].seq));
        r.clear_spans();
        assert!(r.spans().is_empty());
    }
}
