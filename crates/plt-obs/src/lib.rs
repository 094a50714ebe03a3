//! # plt-obs — structured observability for the PLT workspace
//!
//! A deliberately tiny, std-only instrumentation layer: hierarchical
//! **span timers** (`construct/rank`, `mine/conditional`, …), monotonic
//! **counters** (vectors folded, dedup hits, …) and **gauge** snapshots
//! (arena bytes peak, worker count), all behind the [`Recorder`] trait.
//!
//! The design goal is *zero cost when disabled*: instrumented code holds
//! an [`Obs`] handle — a null-object wrapper over
//! `Option<&mut dyn Recorder>` — and every operation on a disabled
//! handle is a branch on a `None` that the optimiser folds away. In
//! particular [`Obs::start`] only reads the clock when a recorder is
//! installed, so hot loops never pay for `Instant::now`.
//!
//! Two usage shapes:
//!
//! ```
//! use plt_obs::{MetricsRecorder, Obs};
//!
//! fn work(obs: &mut Obs) -> u64 {
//!     let t = obs.start();
//!     let answer = (0..100u64).sum();
//!     obs.stop("demo/sum", t);
//!     obs.counter("demo.calls", 1);
//!     answer
//! }
//!
//! // Disabled: no recorder, no clock reads, no allocation.
//! assert_eq!(work(&mut Obs::none()), 4950);
//!
//! // Enabled: spans and counters accumulate in a MetricsRecorder.
//! let mut rec = MetricsRecorder::new();
//! work(&mut Obs::new(&mut rec));
//! assert_eq!(rec.counter_value("demo.calls"), 1);
//! assert_eq!(rec.span_count("demo/sum"), 1);
//! ```
//!
//! Span paths are `'static` slash-separated strings (`phase/subphase`),
//! so recording never allocates; the hierarchy is by convention, encoded
//! in the path. Counters add, gauges keep the **maximum** observed value
//! (the natural merge for peaks like `arena.bytes_peak`), and
//! [`MetricsRecorder::merge`] folds per-worker recorders into one —
//! used by `plt-parallel` at rayon reduce time.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// Sink for observability events. Implementations must be cheap: the
/// instrumented code calls these inline from mining loops.
///
/// Spans arrive *after* completion as `(path, elapsed nanoseconds)` —
/// recorders never manage open-span state, which keeps the trait
/// object-safe and implementations trivially mergeable.
pub trait Recorder {
    /// A completed span: `path` is a static slash-separated identifier
    /// like `"construct/rank"`, `nanos` its wall-clock duration.
    fn span(&mut self, path: &'static str, nanos: u64);
    /// Adds `delta` to a monotonic counter.
    fn counter(&mut self, name: &'static str, delta: u64);
    /// Records a gauge observation. Aggregation is recorder-defined;
    /// [`MetricsRecorder`] keeps the maximum.
    fn gauge(&mut self, name: &'static str, value: u64);
}

/// A possibly-absent recorder handle threaded through instrumented code.
///
/// `Obs::none()` is the disabled handle: every method is a no-op and
/// [`Obs::start`] returns `None` without touching the clock. Pass
/// `&mut Obs` down call chains; use [`Obs::reborrow`] where a child
/// needs its own `Obs` value (e.g. across a `for` loop).
pub struct Obs<'a>(Option<&'a mut dyn Recorder>);

impl<'a> Obs<'a> {
    /// The disabled handle — all operations are no-ops.
    pub fn none() -> Obs<'static> {
        Obs(None)
    }

    /// An enabled handle feeding `recorder`.
    pub fn new(recorder: &'a mut dyn Recorder) -> Obs<'a> {
        Obs(Some(recorder))
    }

    /// True when a recorder is installed. Use to gate instrumentation
    /// whose *setup* is itself expensive (e.g. walking arena levels to
    /// compute a bytes peak).
    pub fn enabled(&self) -> bool {
        self.0.is_some()
    }

    /// Starts a span clock — reads `Instant::now()` only when enabled.
    #[inline]
    pub fn start(&self) -> Option<Instant> {
        if self.0.is_some() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Completes a span started with [`Obs::start`].
    #[inline]
    pub fn stop(&mut self, path: &'static str, started: Option<Instant>) {
        if let (Some(rec), Some(t)) = (self.0.as_deref_mut(), started) {
            rec.span(path, t.elapsed().as_nanos() as u64);
        }
    }

    /// Times a closure as one span. For fallible bodies, have the
    /// closure return the `Result` and propagate outside.
    #[inline]
    pub fn time<R>(&mut self, path: &'static str, f: impl FnOnce() -> R) -> R {
        let t = self.start();
        let r = f();
        self.stop(path, t);
        r
    }

    /// Records an externally timed span — for durations measured where no
    /// `Obs` handle can travel (e.g. inside a rayon worker) and reported
    /// after the join. One call is one span observation, exactly as if the
    /// work had been wrapped in [`Obs::start`]/[`Obs::stop`].
    #[inline]
    pub fn span(&mut self, path: &'static str, elapsed: std::time::Duration) {
        if let Some(rec) = self.0.as_deref_mut() {
            rec.span(path, elapsed.as_nanos() as u64);
        }
    }

    /// Adds to a counter.
    #[inline]
    pub fn counter(&mut self, name: &'static str, delta: u64) {
        if let Some(rec) = self.0.as_deref_mut() {
            rec.counter(name, delta);
        }
    }

    /// Records a gauge observation.
    #[inline]
    pub fn gauge(&mut self, name: &'static str, value: u64) {
        if let Some(rec) = self.0.as_deref_mut() {
            rec.gauge(name, value);
        }
    }

    /// A shorter-lived handle on the same recorder, for passing into
    /// helpers while retaining this one.
    pub fn reborrow(&mut self) -> Obs<'_> {
        match self.0.as_deref_mut() {
            Some(rec) => Obs(Some(rec)),
            None => Obs(None),
        }
    }
}

impl std::fmt::Debug for Obs<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Obs")
            .field(&if self.0.is_some() {
                "enabled"
            } else {
                "disabled"
            })
            .finish()
    }
}

/// Accumulated statistics for one span path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Completed spans on this path.
    pub count: u64,
    /// Total nanoseconds across those spans.
    pub total_ns: u64,
}

/// The workspace's standard [`Recorder`]: accumulates spans, counters
/// and gauges in sorted maps, merges across workers, and renders the
/// stable metrics JSON schema documented in `DESIGN.md` §8.
#[derive(Debug, Clone, Default)]
pub struct MetricsRecorder {
    spans: BTreeMap<&'static str, SpanStat>,
    counters: BTreeMap<&'static str, u64>,
    gauges: BTreeMap<&'static str, u64>,
}

impl MetricsRecorder {
    /// An empty recorder.
    pub fn new() -> MetricsRecorder {
        MetricsRecorder::default()
    }

    /// Folds another recorder into this one: span counts/totals and
    /// counters add; gauges take the maximum.
    pub fn merge(&mut self, other: &MetricsRecorder) {
        for (path, stat) in &other.spans {
            let s = self.spans.entry(path).or_default();
            s.count += stat.count;
            s.total_ns += stat.total_ns;
        }
        for (name, delta) in &other.counters {
            *self.counters.entry(name).or_insert(0) += delta;
        }
        for (name, value) in &other.gauges {
            let g = self.gauges.entry(name).or_insert(0);
            *g = (*g).max(*value);
        }
    }

    /// Stats for a span path (zero if never recorded).
    pub fn span_stat(&self, path: &str) -> SpanStat {
        self.spans.get(path).copied().unwrap_or_default()
    }

    /// Completed-span count for a path.
    pub fn span_count(&self, path: &str) -> u64 {
        self.span_stat(path).count
    }

    /// Total nanoseconds for a path.
    pub fn span_total_ns(&self, path: &str) -> u64 {
        self.span_stat(path).total_ns
    }

    /// Current value of a counter (zero if never recorded).
    pub fn counter_value(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of a gauge (zero if never recorded).
    pub fn gauge_value(&self, name: &str) -> u64 {
        self.gauges.get(name).copied().unwrap_or(0)
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Renders the metrics JSON schema with no context block.
    pub fn to_json(&self) -> String {
        self.to_json_with(&[])
    }

    /// Renders the stable metrics JSON schema (`DESIGN.md` §8):
    ///
    /// ```json
    /// {
    ///   "schema_version": 1,
    ///   "context": { "<key>": <pre-rendered JSON value>, ... },
    ///   "spans": { "<path>": { "count": u64, "total_ns": u64 }, ... },
    ///   "counters": { "<name>": u64, ... },
    ///   "gauges": { "<name>": u64, ... }
    /// }
    /// ```
    ///
    /// `context` entries are `(key, value)` pairs where `value` is
    /// already-valid JSON (callers quote their own strings); keys are
    /// emitted in the order given. Map keys are sorted (BTreeMap), so
    /// output is deterministic for a given recording.
    pub fn to_json_with(&self, context: &[(&str, String)]) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\n  \"schema_version\": 1,\n  \"context\": {");
        for (i, (key, value)) in context.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(key), value);
        }
        if !context.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"spans\": {");
        for (i, (path, stat)) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    \"{}\": {{ \"count\": {}, \"total_ns\": {} }}",
                escape_json(path),
                stat.count,
                stat.total_ns
            );
        }
        if !self.spans.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"counters\": {");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), value);
        }
        if !self.counters.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("},\n  \"gauges\": {");
        for (i, (name, value)) in self.gauges.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "\n    \"{}\": {}", escape_json(name), value);
        }
        if !self.gauges.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("}\n}\n");
        out
    }
}

impl Recorder for MetricsRecorder {
    fn span(&mut self, path: &'static str, nanos: u64) {
        let s = self.spans.entry(path).or_default();
        s.count += 1;
        s.total_ns += nanos;
    }

    fn counter(&mut self, name: &'static str, delta: u64) {
        *self.counters.entry(name).or_insert(0) += delta;
    }

    fn gauge(&mut self, name: &'static str, value: u64) {
        let g = self.gauges.entry(name).or_insert(0);
        *g = (*g).max(value);
    }
}

/// Escapes a string for inclusion inside JSON double quotes.
fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_inert() {
        let mut obs = Obs::none();
        assert!(!obs.enabled());
        assert!(obs.start().is_none());
        obs.stop("a/b", None);
        obs.counter("c", 5);
        obs.gauge("g", 5);
        assert_eq!(obs.time("a/t", || 41 + 1), 42);
        assert!(!obs.reborrow().enabled());
    }

    #[test]
    fn spans_counters_gauges_accumulate() {
        let mut rec = MetricsRecorder::new();
        {
            let mut obs = Obs::new(&mut rec);
            assert!(obs.enabled());
            obs.time("phase/a", || {
                std::thread::sleep(std::time::Duration::from_micros(50))
            });
            obs.time("phase/a", || ());
            obs.counter("hits", 3);
            obs.counter("hits", 4);
            obs.gauge("peak", 10);
            obs.gauge("peak", 7); // max wins
        }
        assert_eq!(rec.span_count("phase/a"), 2);
        assert!(rec.span_total_ns("phase/a") >= 50_000);
        assert_eq!(rec.counter_value("hits"), 7);
        assert_eq!(rec.gauge_value("peak"), 10);
        assert_eq!(rec.span_count("never"), 0);
        assert!(!rec.is_empty());
    }

    #[test]
    fn start_stop_matches_manual_timing() {
        let mut rec = MetricsRecorder::new();
        {
            let mut obs = Obs::new(&mut rec);
            let t = obs.start();
            assert!(t.is_some());
            obs.stop("manual", t);
            // A stop with no started instant records nothing.
            obs.stop("manual", None);
        }
        assert_eq!(rec.span_count("manual"), 1);
    }

    #[test]
    fn reborrow_feeds_the_same_recorder() {
        let mut rec = MetricsRecorder::new();
        {
            let mut obs = Obs::new(&mut rec);
            for _ in 0..3 {
                let mut child = obs.reborrow();
                child.counter("loop", 1);
            }
        }
        assert_eq!(rec.counter_value("loop"), 3);
    }

    #[test]
    fn merge_adds_spans_and_counters_and_maxes_gauges() {
        let mut a = MetricsRecorder::new();
        a.span("p", 100);
        a.counter("c", 1);
        a.gauge("g", 5);
        let mut b = MetricsRecorder::new();
        b.span("p", 50);
        b.span("q", 7);
        b.counter("c", 2);
        b.counter("d", 9);
        b.gauge("g", 3);
        b.gauge("h", 1);
        a.merge(&b);
        assert_eq!(
            a.span_stat("p"),
            SpanStat {
                count: 2,
                total_ns: 150
            }
        );
        assert_eq!(
            a.span_stat("q"),
            SpanStat {
                count: 1,
                total_ns: 7
            }
        );
        assert_eq!(a.counter_value("c"), 3);
        assert_eq!(a.counter_value("d"), 9);
        assert_eq!(a.gauge_value("g"), 5);
        assert_eq!(a.gauge_value("h"), 1);
    }

    #[test]
    fn json_schema_is_stable_and_escaped() {
        let mut rec = MetricsRecorder::new();
        rec.span("mine/total", 1234);
        rec.counter("arena.dedup_hits", 5);
        rec.gauge("arena.bytes_peak", 4096);
        let json = rec.to_json_with(&[
            ("input", "\"data.dat\"".to_string()),
            ("min_support", "3".to_string()),
        ]);
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"input\": \"data.dat\""));
        assert!(json.contains("\"min_support\": 3"));
        assert!(json.contains("\"mine/total\": { \"count\": 1, \"total_ns\": 1234 }"));
        assert!(json.contains("\"arena.dedup_hits\": 5"));
        assert!(json.contains("\"arena.bytes_peak\": 4096"));
        // Empty recorder still renders every top-level key.
        let empty = MetricsRecorder::new().to_json();
        for key in ["context", "spans", "counters", "gauges"] {
            assert!(empty.contains(&format!("\"{key}\"")), "{empty}");
        }
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
