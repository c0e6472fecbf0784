//! The pool's tracing front end over [`cim_obs`].
//!
//! [`Tracer`] is the one handle every pool component records through:
//! the scheduler emits submit/queue/plan/dispatch spans and queue-depth
//! gauges, shard workers emit execute/load spans, and whichever thread
//! ends a job — the shard worker that ran it, or the submitting thread
//! for a job that never reached a shard — closes its root span. A
//! tracer wraps an `Arc<dyn TraceSink>`, so clones are cheap and every
//! clone feeds the same sink.
//!
//! The disabled path is engineered to be near-free: when the sink
//! reports [`TraceSink::enabled`]` == false` (the default
//! [`cim_obs::NullSink`]), `open` returns [`SpanId::NONE`] without
//! allocating a span id or reading the clock, and `close`/`gauge` are
//! branch-and-return. Attribute slices are staged in caller stack
//! arrays and only copied to the heap when a sink is live. The
//! perf-smoke benchmark asserts this bound.

use cim_obs::{Event, SpanId, TraceSink, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// One key/value span or event attribute.
pub type Attr = (&'static str, Value);

#[derive(Debug)]
struct Inner {
    sink: Arc<dyn TraceSink>,
    enabled: bool,
    /// Next span id. Ids are allocated in record order across threads,
    /// so they are *not* deterministic; nothing serialized depends on
    /// them (snapshots sort by name/attrs, Chrome traces use wall time).
    next: AtomicU64,
    /// Wall-clock origin: every `wall_ns` is relative to pool creation.
    epoch: Instant,
}

/// A cloneable handle that records trace events into the pool's sink.
///
/// Obtained by the pool from [`crate::RuntimePool::with_sink`]; all
/// methods are safe to call from any thread.
#[derive(Clone, Debug)]
pub struct Tracer {
    inner: Arc<Inner>,
}

impl Tracer {
    /// Wraps a sink. The sink's [`TraceSink::enabled`] flag is sampled
    /// once here: a sink is either live or null for the tracer's whole
    /// life.
    pub fn new(sink: Arc<dyn TraceSink>) -> Tracer {
        let enabled = sink.enabled();
        Tracer {
            inner: Arc::new(Inner {
                sink,
                enabled,
                next: AtomicU64::new(1),
                epoch: Instant::now(),
            }),
        }
    }

    /// A tracer that records nothing (a [`cim_obs::NullSink`]).
    pub fn disabled() -> Tracer {
        Tracer::new(Arc::new(cim_obs::NullSink))
    }

    /// Whether events reach a live sink.
    pub fn enabled(&self) -> bool {
        self.inner.enabled
    }

    fn now_ns(&self) -> u64 {
        self.inner.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span. Returns [`SpanId::NONE`] (and records nothing)
    /// when the sink is disabled; `parent` may be [`SpanId::NONE`] for
    /// a root span.
    pub fn open(&self, name: &'static str, parent: SpanId, attrs: &[Attr]) -> SpanId {
        if !self.inner.enabled {
            return SpanId::NONE;
        }
        let span = SpanId(self.inner.next.fetch_add(1, Ordering::Relaxed));
        self.inner.sink.record(Event::Open {
            span,
            parent,
            name,
            wall_ns: self.now_ns(),
            attrs: attrs.to_vec(),
        });
        span
    }

    /// Closes a span, attributing `sim_seconds` of simulated
    /// accelerator time to it. A [`SpanId::NONE`] span (disabled
    /// tracer, or a stage that never opened) is ignored.
    pub fn close(&self, span: SpanId, sim_seconds: f64, attrs: &[Attr]) {
        if !span.is_some() {
            return;
        }
        self.inner.sink.record(Event::Close {
            span,
            wall_ns: self.now_ns(),
            sim_seconds,
            attrs: attrs.to_vec(),
        });
    }

    /// Records a point-in-time gauge sample.
    pub fn gauge(&self, name: &'static str, value: f64) {
        if !self.inner.enabled {
            return;
        }
        self.inner.sink.record(Event::Gauge {
            name,
            value,
            wall_ns: self.now_ns(),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_obs::RingRecorder;

    #[test]
    fn disabled_tracer_records_nothing_and_returns_none() {
        let t = Tracer::disabled();
        assert!(!t.enabled());
        let span = t.open("job", SpanId::NONE, &[("job", Value::U64(1))]);
        assert!(!span.is_some());
        t.close(span, 0.0, &[]);
        t.gauge("queue_depth", 3.0);
    }

    #[test]
    fn live_tracer_produces_balanced_spans() {
        let ring = Arc::new(RingRecorder::new(64));
        let t = Tracer::new(Arc::clone(&ring) as Arc<dyn TraceSink>);
        assert!(t.enabled());
        let root = t.open("job", SpanId::NONE, &[("job", Value::U64(7))]);
        let child = t.open("execute", root, &[]);
        t.close(child, 1e-6, &[]);
        t.close(root, 1e-6, &[("outcome", Value::Str("ok"))]);
        let snap = ring.snapshot();
        assert_eq!(snap.unclosed, 0);
        assert_eq!(snap.span_count(), 2);
        assert_eq!(snap.roots[0].name, "job");
        assert_eq!(snap.roots[0].children[0].name, "execute");
    }

    #[test]
    fn clones_share_one_sink() {
        let ring = Arc::new(RingRecorder::new(64));
        let t = Tracer::new(Arc::clone(&ring) as Arc<dyn TraceSink>);
        let t2 = t.clone();
        let a = t.open("a", SpanId::NONE, &[]);
        let b = t2.open("b", SpanId::NONE, &[]);
        assert_ne!(a.0, b.0, "span ids must be unique across clones");
        t.close(a, 0.0, &[]);
        t2.close(b, 0.0, &[]);
        assert_eq!(ring.snapshot().span_count(), 2);
    }
}
