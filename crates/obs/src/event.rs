//! The trace wire model: spans, attribute values, events and sinks.
//!
//! Emitters (the runtime's `trace` integration) allocate [`SpanId`]s,
//! stamp wall-clock nanoseconds, and hand [`Event`]s to a shared
//! [`TraceSink`]. Sinks must be cheap and thread-safe: events arrive
//! from the submitting threads and every shard worker thread
//! concurrently.

/// Identifier of one span within a run.
///
/// `SpanId::NONE` (zero) is the sentinel for "no span": it doubles as
/// the root parent marker on [`Event::Open`] and as the id handed out
/// when tracing is disabled, so disabled emitters can thread ids
/// around without branching.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The "no span" sentinel (also the parent of root spans).
    pub const NONE: SpanId = SpanId(0);

    /// Whether this is a real recorded span (non-sentinel).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

/// An attribute value attached to a span or event.
///
/// Values are `Copy` so emitters can stage attributes in stack arrays
/// and pay for a heap `Vec` only when a sink is actually enabled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// Unsigned integer (ids, counts).
    U64(u64),
    /// Floating point (simulated seconds, ratios).
    F64(f64),
    /// Static label (workload kinds, outcomes).
    Str(&'static str),
}

impl Value {
    /// Deterministic total order used by snapshot sorting: variant rank
    /// first, then the payload (floats by bit pattern — good enough for
    /// a sort that only needs stability across identical runs).
    pub(crate) fn sort_key(&self) -> (u8, u64, &'static str) {
        match self {
            Value::U64(v) => (0, *v, ""),
            Value::F64(v) => (1, v.to_bits(), ""),
            Value::Str(s) => (2, 0, s),
        }
    }
}

/// A `(key, value)` attribute pair.
pub type Attr = (&'static str, Value);

/// One observation handed to a [`TraceSink`].
///
/// Span lifetimes are split into paired `Open`/`Close` events (rather
/// than one complete record) so integrity — every open closed exactly
/// once, children closed before parents — is itself observable and
/// testable.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    /// A span began.
    Open {
        /// The span's id (unique within the run, never `NONE`).
        span: SpanId,
        /// Enclosing span, or [`SpanId::NONE`] for a root.
        parent: SpanId,
        /// Stage name (`"job"`, `"compile"`, `"execute"`, …).
        name: &'static str,
        /// Wall-clock nanoseconds since the emitter's epoch.
        wall_ns: u64,
        /// Attribution (tenant, job, shard, part, …).
        attrs: Vec<Attr>,
    },
    /// A span ended.
    Close {
        /// The span being closed.
        span: SpanId,
        /// Wall-clock nanoseconds since the emitter's epoch.
        wall_ns: u64,
        /// Simulated accelerator time attributed to the span, seconds
        /// (zero for host-side stages).
        sim_seconds: f64,
        /// Attributes resolved only at completion (outcome, sizes).
        attrs: Vec<Attr>,
    },
    /// A monotonic counter increment.
    Counter {
        /// Counter name.
        name: &'static str,
        /// Amount added (counters only ever grow).
        delta: u64,
        /// Wall-clock nanoseconds since the emitter's epoch.
        wall_ns: u64,
    },
    /// An instantaneous gauge sample (queue depth, batch occupancy).
    Gauge {
        /// Gauge name.
        name: &'static str,
        /// Sampled value.
        value: f64,
        /// Wall-clock nanoseconds since the emitter's epoch.
        wall_ns: u64,
    },
}

/// Receiver of trace events; shared across threads behind an `Arc`.
///
/// Implementations must tolerate concurrent `record` calls. The
/// runtime consults [`TraceSink::enabled`] *before* building events, so
/// a disabled sink costs one virtual call and a branch per would-be
/// event — no clock read, no allocation.
pub trait TraceSink: Send + Sync + std::fmt::Debug {
    /// Whether emitters should bother constructing events at all.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one event. May drop (e.g. a full bounded buffer) but
    /// must not block for long: shard workers call this on their
    /// execution path.
    fn record(&self, event: Event);
}

/// The always-safe default sink: disabled, records nothing.
///
/// Installing `NullSink` keeps every tracing call site live (the code
/// path is compiled and branch-predicted) while making the per-event
/// cost a single cheap check — the "near-free when disabled" property
/// the perf-smoke bench asserts.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn enabled(&self) -> bool {
        false
    }

    fn record(&self, _event: Event) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_sentinel_is_zero_and_not_some() {
        assert_eq!(SpanId::NONE, SpanId(0));
        assert!(!SpanId::NONE.is_some());
        assert!(SpanId(3).is_some());
    }

    #[test]
    fn null_sink_is_disabled() {
        let sink = NullSink;
        assert!(!sink.enabled());
        sink.record(Event::Counter {
            name: "x",
            delta: 1,
            wall_ns: 0,
        });
    }

    #[test]
    fn value_sort_keys_order_variants() {
        assert!(Value::U64(5).sort_key() < Value::F64(0.0).sort_key());
        assert!(Value::F64(1.0).sort_key() < Value::Str("a").sort_key());
        assert!(Value::Str("a").sort_key() < Value::Str("b").sort_key());
    }
}
