//! Process-wide metrics for Swarm: counters, gauges, and latency
//! histograms, plus a lightweight tracing facility.
//!
//! Every metric lives in one global registry keyed by a static name, so a
//! storage server, a client log, and the cleaner all contribute to the same
//! process snapshot — which is exactly what the `Metrics` RPC returns and
//! `swarm_admin stats` prints.
//!
//! Handles are cheap: a [`Counter`] is an `Arc<AtomicU64>`, and call sites
//! look a metric up once (typically through a `OnceLock`-backed struct) and
//! then record lock-free. [`snapshot`] walks the registry and produces a
//! [`Snapshot`] that serializes to JSON with no external dependencies.
//!
//! Tracing: [`Span`] measures a region and records its duration into a
//! histogram on drop; the [`trace!`] macro emits env-gated diagnostics
//! (`SWARM_TRACE=1` for everything, or a comma-separated list of target
//! prefixes such as `SWARM_TRACE=net,log.seal`).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of power-of-two latency buckets; bucket `i` covers
/// `[2^(i-1), 2^i)` microseconds, bucket 0 is `< 1us`, and the last bucket
/// is open-ended (≈ 34 minutes and beyond).
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonically increasing counter.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (queue depths, open connections).
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `delta` (may be negative).
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistogramInner {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
    max_us: AtomicU64,
}

/// A latency histogram over fixed power-of-two microsecond buckets.
///
/// `record` is three relaxed atomic adds plus a max update — cheap enough
/// for per-fragment and per-request paths.
#[derive(Clone)]
pub struct Histogram(Arc<HistogramInner>);

impl Histogram {
    fn bucket_index(us: u64) -> usize {
        // 0 -> 0, 1 -> 1, 2..3 -> 2, ..., clamped to the open-ended top.
        ((64 - us.leading_zeros()) as usize).min(HISTOGRAM_BUCKETS - 1)
    }

    /// Upper bound (exclusive) of bucket `i` in microseconds.
    fn bucket_bound(i: usize) -> u64 {
        1u64 << i
    }

    /// Records one observation of `us` microseconds.
    pub fn record_us(&self, us: u64) {
        let inner = &self.0;
        inner.buckets[Self::bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        inner.count.fetch_add(1, Ordering::Relaxed);
        inner.sum_us.fetch_add(us, Ordering::Relaxed);
        inner.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one observation of an elapsed duration.
    pub fn record(&self, elapsed: std::time::Duration) {
        self.record_us(elapsed.as_micros().min(u64::MAX as u128) as u64);
    }

    /// Starts a [`Span`] that records into this histogram when dropped.
    pub fn span(&self, name: &'static str) -> Span {
        Span {
            name,
            hist: Some(self.clone()),
            start: Instant::now(),
        }
    }

    /// Number of recorded observations.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Rolls the current bucket counts up into quantile bounds.
    pub fn summarize(&self) -> HistogramSummary {
        let buckets: Vec<u64> = self
            .0
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        // Quantiles come from the bucket walk, so they are upper bounds
        // with power-of-two resolution — fine for p50/p99 reporting.
        let count: u64 = buckets.iter().sum();
        let quantile = |q: f64| -> u64 {
            if count == 0 {
                return 0;
            }
            let rank = ((count as f64) * q).ceil().max(1.0) as u64;
            let mut seen = 0u64;
            for (i, &n) in buckets.iter().enumerate() {
                seen += n;
                if seen >= rank {
                    return Self::bucket_bound(i);
                }
            }
            Self::bucket_bound(HISTOGRAM_BUCKETS - 1)
        };
        HistogramSummary {
            count,
            sum_us: self.0.sum_us.load(Ordering::Relaxed),
            max_us: self.0.max_us.load(Ordering::Relaxed),
            p50_us: quantile(0.50),
            p99_us: quantile(0.99),
            p999_us: quantile(0.999),
        }
    }
}

/// Point-in-time rollup of one histogram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSummary {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations, microseconds.
    pub sum_us: u64,
    /// Largest observation, microseconds.
    pub max_us: u64,
    /// Median upper bound, microseconds (power-of-two resolution).
    pub p50_us: u64,
    /// 99th-percentile upper bound, microseconds.
    pub p99_us: u64,
    /// 99.9th-percentile upper bound, microseconds.
    pub p999_us: u64,
}

impl HistogramSummary {
    /// Mean observation in microseconds, or 0 with no data.
    pub fn mean_us(&self) -> u64 {
        self.sum_us.checked_div(self.count).unwrap_or(0)
    }
}

/// A timed region: records its lifetime into a histogram on drop and emits
/// a `trace!`-style line when tracing is enabled for its name.
pub struct Span {
    name: &'static str,
    hist: Option<Histogram>,
    start: Instant,
}

impl Span {
    /// Elapsed time since the span started.
    pub fn elapsed(&self) -> std::time::Duration {
        self.start.elapsed()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed();
        if let Some(h) = self.hist.take() {
            h.record(elapsed);
        }
        if trace_enabled(self.name) {
            eprintln!("[swarm-trace] {} {:?}", self.name, elapsed);
        }
    }
}

enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

fn registry() -> &'static Mutex<BTreeMap<&'static str, Metric>> {
    static REGISTRY: OnceLock<Mutex<BTreeMap<&'static str, Metric>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(BTreeMap::new()))
}

fn poison_ok<T>(r: Result<T, std::sync::PoisonError<T>>) -> T {
    r.unwrap_or_else(|e| e.into_inner())
}

/// Returns the counter named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn counter(name: &'static str) -> Counter {
    let mut reg = poison_ok(registry().lock());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Counter(Counter(Arc::new(AtomicU64::new(0)))))
    {
        Metric::Counter(c) => c.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the gauge named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn gauge(name: &'static str) -> Gauge {
    let mut reg = poison_ok(registry().lock());
    match reg
        .entry(name)
        .or_insert_with(|| Metric::Gauge(Gauge(Arc::new(AtomicI64::new(0)))))
    {
        Metric::Gauge(g) => g.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// Returns the histogram named `name`, registering it on first use.
///
/// # Panics
///
/// Panics if `name` is already registered as a different metric kind.
pub fn histogram(name: &'static str) -> Histogram {
    let mut reg = poison_ok(registry().lock());
    match reg.entry(name).or_insert_with(|| {
        Metric::Histogram(Histogram(Arc::new(HistogramInner {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        })))
    }) {
        Metric::Histogram(h) => h.clone(),
        _ => panic!("metric {name:?} already registered with a different kind"),
    }
}

/// A point-in-time copy of every registered metric.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Snapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, i64>,
    /// Histogram rollups by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

impl Snapshot {
    /// Value of a counter, defaulting to 0 when absent.
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Rollup of a histogram, if it has been registered.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms.get(name)
    }

    /// Serializes the snapshot as a stable, human-readable JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\n  \"counters\": {");
        push_entries(&mut out, self.counters.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"gauges\": {");
        push_entries(&mut out, self.gauges.iter(), |out, v| {
            out.push_str(&v.to_string())
        });
        out.push_str("},\n  \"histograms\": {");
        push_entries(&mut out, self.histograms.iter(), |out, h| {
            out.push_str(&format!(
                "{{\"count\": {}, \"mean_us\": {}, \"p50_us\": {}, \"p99_us\": {}, \"p999_us\": {}, \"max_us\": {}}}",
                h.count,
                h.mean_us(),
                h.p50_us,
                h.p99_us,
                h.p999_us,
                h.max_us
            ))
        });
        out.push_str("}\n}");
        out
    }

    /// Parses a snapshot previously produced by [`Snapshot::to_json`].
    ///
    /// This is intentionally a parser for our own output format (plus
    /// insignificant whitespace), not a general JSON parser; it lets the
    /// admin CLI and tests inspect values shipped over the `Metrics` RPC.
    pub fn from_json(text: &str) -> Option<Snapshot> {
        let mut p = JsonParser {
            s: text.as_bytes(),
            i: 0,
        };
        let snap = p.snapshot()?;
        p.skip_ws();
        if p.i == p.s.len() {
            Some(snap)
        } else {
            None
        }
    }
}

fn push_entries<'a, V: 'a>(
    out: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    mut render: impl FnMut(&mut String, &V),
) {
    let mut first = true;
    for (name, value) in entries {
        if !first {
            out.push(',');
        }
        first = false;
        out.push_str("\n    \"");
        for c in name.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push_str("\": ");
        render(out, value);
    }
    if !first {
        out.push_str("\n  ");
    }
}

struct JsonParser<'a> {
    s: &'a [u8],
    i: usize,
}

impl JsonParser<'_> {
    fn skip_ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Option<()> {
        self.skip_ws();
        if self.s.get(self.i) == Some(&b) {
            self.i += 1;
            Some(())
        } else {
            None
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.s.get(self.i).copied()
    }

    fn string(&mut self) -> Option<String> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match *self.s.get(self.i)? {
                b'"' => {
                    self.i += 1;
                    return Some(out);
                }
                b'\\' => {
                    self.i += 1;
                    match *self.s.get(self.i)? {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'u' => {
                            let hex = self.s.get(self.i + 1..self.i + 5)?;
                            let code =
                                u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                            out.push(char::from_u32(code)?);
                            self.i += 4;
                        }
                        _ => return None,
                    }
                    self.i += 1;
                }
                _ => {
                    // Multi-byte UTF-8 sequences pass through untouched.
                    let start = self.i;
                    self.i += 1;
                    while self.i < self.s.len() && self.s[self.i] & 0xc0 == 0x80 {
                        self.i += 1;
                    }
                    out.push_str(std::str::from_utf8(&self.s[start..self.i]).ok()?);
                }
            }
        }
    }

    fn integer(&mut self) -> Option<i128> {
        self.skip_ws();
        let start = self.i;
        if self.s.get(self.i) == Some(&b'-') {
            self.i += 1;
        }
        while self.i < self.s.len() && self.s[self.i].is_ascii_digit() {
            self.i += 1;
        }
        std::str::from_utf8(&self.s[start..self.i])
            .ok()?
            .parse()
            .ok()
    }

    fn object<F: FnMut(&mut Self, String) -> Option<()>>(&mut self, mut field: F) -> Option<()> {
        self.eat(b'{')?;
        if self.peek() == Some(b'}') {
            self.i += 1;
            return Some(());
        }
        loop {
            let name = self.string()?;
            self.eat(b':')?;
            field(self, name)?;
            match self.peek()? {
                b',' => self.i += 1,
                b'}' => {
                    self.i += 1;
                    return Some(());
                }
                _ => return None,
            }
        }
    }

    fn snapshot(&mut self) -> Option<Snapshot> {
        let mut snap = Snapshot::default();
        self.object(|p, section| match section.as_str() {
            "counters" => p.object(|p, name| {
                let v = p.integer()?;
                snap.counters.insert(name, u64::try_from(v).ok()?);
                Some(())
            }),
            "gauges" => p.object(|p, name| {
                let v = p.integer()?;
                snap.gauges.insert(name, i64::try_from(v).ok()?);
                Some(())
            }),
            "histograms" => p.object(|p, name| {
                let mut h = HistogramSummary {
                    count: 0,
                    sum_us: 0,
                    max_us: 0,
                    p50_us: 0,
                    p99_us: 0,
                    p999_us: 0,
                };
                let mut mean = 0u64;
                p.object(|p, field| {
                    let v = u64::try_from(p.integer()?).ok()?;
                    match field.as_str() {
                        "count" => h.count = v,
                        "mean_us" => mean = v,
                        "p50_us" => h.p50_us = v,
                        "p99_us" => h.p99_us = v,
                        "p999_us" => h.p999_us = v,
                        "max_us" => h.max_us = v,
                        _ => return None,
                    }
                    Some(())
                })?;
                h.sum_us = mean.saturating_mul(h.count);
                snap.histograms.insert(name, h);
                Some(())
            }),
            _ => None,
        })?;
        Some(snap)
    }
}

/// Captures the current value of every registered metric.
pub fn snapshot() -> Snapshot {
    let reg = poison_ok(registry().lock());
    let mut snap = Snapshot::default();
    for (&name, metric) in reg.iter() {
        match metric {
            Metric::Counter(c) => {
                snap.counters.insert(name.to_string(), c.get());
            }
            Metric::Gauge(g) => {
                snap.gauges.insert(name.to_string(), g.get());
            }
            Metric::Histogram(h) => {
                snap.histograms.insert(name.to_string(), h.summarize());
            }
        }
    }
    snap
}

fn trace_filter() -> &'static Option<Vec<String>> {
    static FILTER: OnceLock<Option<Vec<String>>> = OnceLock::new();
    FILTER.get_or_init(|| {
        let raw = std::env::var("SWARM_TRACE").ok()?;
        if raw.is_empty() || raw == "0" {
            return None;
        }
        Some(
            raw.split(',')
                .map(str::trim)
                .filter(|t| !t.is_empty())
                .map(str::to_string)
                .collect(),
        )
    })
}

/// Whether tracing is enabled for `target` (via `SWARM_TRACE`; the value
/// `1` enables everything, otherwise targets match by prefix).
pub fn trace_enabled(target: &str) -> bool {
    match trace_filter() {
        None => false,
        Some(filters) => filters
            .iter()
            .any(|f| f == "1" || target.starts_with(f.as_str())),
    }
}

/// Emits a diagnostic line to stderr when tracing is enabled for `target`.
///
/// ```
/// swarm_metrics::trace!("net.reconnect", "server {} attempt {}", 3, 1);
/// ```
#[macro_export]
macro_rules! trace {
    ($target:expr, $($arg:tt)*) => {
        if $crate::trace_enabled($target) {
            eprintln!("[swarm-trace] {} {}", $target, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = counter("test_counter");
        let before = c.get();
        c.inc();
        c.add(4);
        assert_eq!(counter("test_counter").get(), before + 5);

        let g = gauge("test_gauge");
        g.set(7);
        g.add(-3);
        assert_eq!(gauge("test_gauge").get(), 4);
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = histogram("test_hist");
        for _ in 0..99 {
            h.record_us(100);
        }
        h.record_us(100_000);
        let s = h.summarize();
        assert_eq!(s.count, 100);
        assert_eq!(s.max_us, 100_000);
        // 100us falls in the (64, 128] bucket -> p50 bound 128.
        assert_eq!(s.p50_us, 128);
        assert!(
            s.p99_us <= 128,
            "p99 {} should exclude the outlier",
            s.p99_us
        );
        assert!(s.mean_us() >= 100);
    }

    #[test]
    fn span_records_into_histogram() {
        let h = histogram("test_span_hist");
        let before = h.count();
        {
            let _span = h.span("test.span");
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        assert_eq!(h.count(), before + 1);
    }

    #[test]
    fn snapshot_json_roundtrips() {
        counter("test_json_counter").add(42);
        gauge("test_json_gauge").set(-7);
        histogram("test_json_hist").record_us(1000);
        let snap = snapshot();
        let json = snap.to_json();
        let parsed = Snapshot::from_json(&json).expect("parse own output");
        assert_eq!(
            parsed.counter("test_json_counter"),
            snap.counter("test_json_counter")
        );
        assert_eq!(
            parsed.gauges.get("test_json_gauge"),
            snap.gauges.get("test_json_gauge")
        );
        let (a, b) = (
            parsed.histogram("test_json_hist").unwrap(),
            snap.histogram("test_json_hist").unwrap(),
        );
        assert_eq!(a.count, b.count);
        assert_eq!(a.p99_us, b.p99_us);
        assert!(json.contains("\"counters\""));
    }

    #[test]
    fn from_json_rejects_garbage() {
        assert!(Snapshot::from_json("not json").is_none());
        assert!(Snapshot::from_json("{\"counters\": {}").is_none());
        assert_eq!(
            Snapshot::from_json("{\"counters\": {}, \"gauges\": {}, \"histograms\": {}}"),
            Some(Snapshot::default())
        );
    }

    #[test]
    fn p999_sits_between_p99_and_max() {
        let h = histogram("test_hist_p999");
        for _ in 0..9_980 {
            h.record_us(100);
        }
        for _ in 0..19 {
            h.record_us(10_000);
        }
        h.record_us(1_000_000);
        let s = h.summarize();
        assert_eq!(s.count, 10_000);
        assert!(s.p99_us <= 128, "p99 {}", s.p99_us);
        assert!(
            s.p999_us > s.p99_us && s.p999_us <= 16_384,
            "p999 {} should capture the 10ms stragglers",
            s.p999_us
        );
        assert_eq!(s.max_us, 1_000_000);
    }

    #[test]
    fn bucket_index_is_monotonic() {
        let mut last = 0;
        for us in [0u64, 1, 2, 3, 64, 1000, 1_000_000, u64::MAX] {
            let idx = Histogram::bucket_index(us);
            assert!(idx >= last);
            assert!(idx < HISTOGRAM_BUCKETS);
            last = idx;
        }
    }
}
