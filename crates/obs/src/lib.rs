//! # cim-obs
//!
//! Zero-dependency observability primitives for the workspace's runtime
//! pool: the machinery that turns a job's life (submit → compile →
//! queue → plan → dispatch → execute → gather → finalize → report) into
//! inspectable data without ever pulling an external tracing crate into
//! the offline build.
//!
//! The pieces compose bottom-up:
//!
//! * **[`event`]** — the wire model: a [`TraceSink`] receives
//!   [`Event`]s (span open/close, counter, gauge) from any thread. The
//!   [`NullSink`] is the always-installed default and is near-free on
//!   the hot path (`enabled()` returns `false`, so emitters skip even
//!   the clock read — the bound the perf-smoke bench asserts).
//! * **[`ring`]** — [`RingRecorder`], a bounded in-memory sink: one
//!   short critical section per event, drop-oldest beyond capacity.
//! * **[`hist`]** — [`Histogram`], log-bucketed and mergeable, with
//!   p50/p95/p99 (any quantile) readouts.
//! * **[`metrics`]** — the [`GaugeStats`] aggregate the recorder keeps
//!   per gauge name.
//! * **[`snapshot`]** — [`Snapshot`], the span forest reassembled from
//!   recorded events. Its [`Snapshot::to_json`] export is
//!   *deterministic*: wall-clock fields are excluded and ordering is by
//!   name/attribute, so two seeded runs of the same workload produce
//!   byte-identical snapshots.
//! * **[`chrome`]** — the same events as a Chrome trace-event JSON
//!   string ([`chrome_trace_json`]), loadable in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! * **[`json`]** — the hand-rolled JSON emission helpers and a
//!   recursive-descent well-formedness [`json::validate`] used by CI to
//!   schema-check the emitted files.

pub mod chrome;
pub mod event;
pub mod hist;
pub mod json;
pub mod metrics;
pub mod ring;
pub mod snapshot;

pub use chrome::chrome_trace_json;
pub use event::{Event, NullSink, SpanId, TraceSink, Value};
pub use hist::Histogram;
pub use metrics::GaugeStats;
pub use ring::RingRecorder;
pub use snapshot::{Snapshot, SpanNode};
