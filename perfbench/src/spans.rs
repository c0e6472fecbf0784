//! The benchmark's own spans, recorded into the pool's trace sink.
//!
//! The pool and the benchmark each stamp events from their own clock
//! origin, so [`StampedRing`] re-stamps every event on arrival with one
//! shared clock: pool spans (compile, queue, plan, dispatch, execute,
//! gather, finalize, report) and benchmark spans (request, submit,
//! flush, harvest, wait, verify, register_dataset, pool_build) then
//! line up on one timeline. The re-stamp happens right after the
//! emitter's own clock read, a few tens of nanoseconds later.

use cim_obs::{Event, RingRecorder, SpanId, TraceSink, Value};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A [`RingRecorder`] whose events all carry one clock.
#[derive(Debug)]
pub struct StampedRing {
    pub ring: RingRecorder,
    pub epoch: Instant,
}

impl StampedRing {
    pub fn new(capacity: usize) -> StampedRing {
        StampedRing {
            ring: RingRecorder::new(capacity),
            epoch: Instant::now(),
        }
    }

    pub fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }
}

impl TraceSink for StampedRing {
    fn record(&self, mut event: Event) {
        let now = self.ns(Instant::now());
        match &mut event {
            Event::Open { wall_ns, .. }
            | Event::Close { wall_ns, .. }
            | Event::Counter { wall_ns, .. }
            | Event::Gauge { wall_ns, .. } => *wall_ns = now,
        }
        self.ring.record(event);
    }
}

/// Emits benchmark spans; a disabled emitter records nothing.
#[derive(Debug)]
pub struct Spans {
    sink: Option<Arc<StampedRing>>,
    /// Benchmark span ids start far above the pool tracer's, so the two
    /// id spaces never collide in the shared sink.
    next: AtomicU64,
}

impl Spans {
    pub fn disabled() -> Spans {
        Spans {
            sink: None,
            next: AtomicU64::new(1 << 48),
        }
    }

    pub fn recording(sink: Arc<StampedRing>) -> Spans {
        Spans {
            sink: Some(sink),
            next: AtomicU64::new(1 << 48),
        }
    }

    pub fn open(
        &self,
        name: &'static str,
        parent: SpanId,
        attrs: &[(&'static str, Value)],
    ) -> SpanId {
        let Some(sink) = &self.sink else {
            return SpanId::NONE;
        };
        let span = SpanId(self.next.fetch_add(1, Ordering::Relaxed));
        sink.record(Event::Open {
            span,
            parent,
            name,
            wall_ns: 0,
            attrs: attrs.to_vec(),
        });
        span
    }

    pub fn close(&self, span: SpanId, attrs: &[(&'static str, Value)]) {
        if let (Some(sink), true) = (&self.sink, span.is_some()) {
            sink.record(Event::Close {
                span,
                wall_ns: 0,
                sim_seconds: 0.0,
                attrs: attrs.to_vec(),
            });
        }
    }

    /// Runs `f` under a root span and returns its result with the
    /// call's wall time in seconds.
    pub fn timed<T>(
        &self,
        name: &'static str,
        attrs: &[(&'static str, Value)],
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let span = self.open(name, SpanId::NONE, attrs);
        let start = Instant::now();
        let out = f();
        let secs = start.elapsed().as_secs_f64();
        self.close(span, &[]);
        (out, secs)
    }
}
