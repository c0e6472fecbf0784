//! # cim-runtime
//!
//! A multi-tenant accelerator-pool runtime that serves batched CIM
//! workloads through session-oriented clients.
//!
//! The DATE'19 paper frames the CIM core as an on-chip accelerator a
//! host offloads memory-intensive kernels to (Fig. 1); TDO-CIM argues
//! the missing piece is a *runtime* that routes kernels to the CIM unit
//! at execution time. This crate is that runtime for the workspace's
//! simulated accelerator: it owns a pool of [`cim_core::CimAccelerator`]
//! shards and serves many concurrent workload requests from many
//! tenants, in four layers:
//!
//! * **[`client`]** — per-tenant sessions. [`PoolClient::submit`] is
//!   non-blocking and returns a [`JobHandle`] (`poll`/`wait`);
//!   [`PoolClient::register_dataset`] pins resident data (Q6 bitmap
//!   bins, HDC prototypes, binarized NN weight matrices, CAM rule
//!   tables and key dictionaries) into pool
//!   tiles behind a reference-counted [`DatasetHandle`] so repeated
//!   queries skip the resident-data writes — the amortization the
//!   paper's accelerator model wins by, with NN weights as the
//!   canonical stationary operand of analog crossbar inference.
//! * **[`compile`]** — lowers each application workload (TPC-H Q6
//!   bitmap select, HDC language classification, binarized NN
//!   inference, box/guided image filtering, one-time-pad XOR, bulk
//!   Scouting-Logic reductions, raw streams, associative CAM searches
//!   — exact, ternary, and analog range match over resident rule
//!   tables and key dictionaries — and dataset queries) into
//!   a [`cim_core::CimInstruction`] stream over virtual tiles plus a
//!   resident-data placement in the extended address space
//!   ([`cim_core::AddressMap`]). With this layer every application
//!   crate in the workspace serves through the runtime: MVM-heavy
//!   kernels (NN, HDC) over analog tiles, row-access-heavy kernels
//!   (Q6, image neighbourhoods) over digital tiles. Each workload
//!   family is defined in one submodule: lowering, dataset load,
//!   host-side decoding and host reference together.
//! * **[`schedule`]** — a job queue with deterministic shard selection,
//!   per-tile admission over free (un-pinned) tiles, cost-aware batch
//!   coalescing, and one worker thread per shard (std threads +
//!   channels; no async dependency). Every job lives in one pool-side
//!   table from admission until its handle takes the report.
//!   Admission doubles as a TDO-CIM style offload planner: every
//!   compiled job is sealed with the `cim-lint` cost pass's certified
//!   [`cim_lint::CostEnvelope`], and under
//!   [`PoolConfig::offload_policy`] jobs whose host fallback beats their
//!   envelope's latency bound execute on a host lane — bit-identical
//!   output, `shards: []`, [`JobRoute::Host`] in the report. Per-job
//!   seeded noise streams and exclusive tile leases make coalesced
//!   execution bit-identical to one job per batch, and tile scrubbing
//!   keeps tenants from ever observing each other's data.
//!   Tile-parallel jobs (and `Q6Table`
//!   datasets) bigger than any one shard are scatter-gathered: split
//!   into per-tile chunks across shards, executed in parallel, and
//!   decoded by the job's single finalizer over the gathered chunk
//!   responses — bit-identical to one giant shard, so the pool's
//!   aggregate capacity (not a shard's) bounds job size.
//! * **verify** — admission-time static verification through the
//!   `cim-lint` analyzer: raw instruction streams, which are tenant
//!   input, are always checked (compiled programs are lint-clean by
//!   construction, asserted in debug builds). Programs with
//!   error-severity findings fail terminally with
//!   [`JobError::RejectedByVerifier`] (stable `L00x` rule codes)
//!   before any device state is touched;
//!   [`PoolClient::verify`] runs the same check standalone and also
//!   returns the job's certified cost envelope.
//! * **[`telemetry`]** — aggregates [`cim_core::ExecutionStats`] and
//!   [`cim_core::DeviceCounters`] per job, per tenant, per dataset
//!   (load-vs-query split) and pool-wide, and reports speedup-vs-host
//!   from the `cim-arch` analytical models.
//! * **[`trace`]** — the pool's observability front end over
//!   [`cim_obs`]: build the pool with [`RuntimePool::with_sink`] and
//!   every job lifecycle stage (submit → compile → queue → plan →
//!   dispatch → execute → gather → finalize → report) and every dataset
//!   load lands in the sink as a span carrying wall-clock and simulated
//!   time plus tenant/dataset/shard/part attribution, alongside
//!   queue-depth and batch-occupancy gauges sampled at each plan. The
//!   default [`RuntimePool::new`] traces into a null sink at near-zero
//!   cost.
//!
//! # Example
//!
//! ```
//! use cim_runtime::{DatasetSpec, PoolConfig, RuntimePool, TenantId, WorkloadSpec};
//! use cim_bitmap_db::tpch::Q6Params;
//!
//! let pool = RuntimePool::new(PoolConfig::with_shards(2));
//! let session = pool.client(TenantId(1));
//!
//! // Pin a table's bitmap bins into pool tiles once…
//! let table = session
//!     .register_dataset(&DatasetSpec::Q6Table { rows: 1000, table_seed: 7 })
//!     .unwrap();
//!
//! // …then stream non-blocking queries against it.
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         session
//!             .submit(&WorkloadSpec::Q6Query {
//!                 dataset: table.id(),
//!                 params: Q6Params::tpch_default(),
//!             })
//!             .unwrap()
//!     })
//!     .collect();
//!
//! let reports = session.wait_all(handles);
//! assert_eq!(reports.len(), 4);
//! assert!(reports.iter().all(|r| r.output.is_ok()));
//! // The bin writes were paid once, at registration:
//! let t = pool.telemetry();
//! assert_eq!(t.datasets[&table.id().0].queries, 4);
//! assert!(t.datasets[&table.id().0].load_stats.row_writes > 0);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod client;
pub mod compile;
pub mod dataset;
pub mod job;
pub mod schedule;
pub mod telemetry;
pub mod trace;
pub(crate) mod verify;

pub(crate) use schedule::mix_seed;

pub use cim_core::isa::MatchKind;
pub use cim_crossbar::analog::AnalogParams;
pub use cim_device::reram::ReramParams;
pub use cim_lint::{CostEnvelope, Diagnostic, LintReport, RuleCode, Severity};
pub use client::{JobHandle, PoolClient};
pub use compile::{CompileError, TileDemand};
pub use dataset::{DatasetHandle, DatasetSpec};
pub use job::{
    DatasetId, HdcOutcome, ImgFilterOp, JobError, JobId, JobKind, JobOutput, JobReport, JobRoute,
    JobStatus, JobTiming, NnOutcome, TenantId, WorkloadSpec,
};
pub use schedule::{OffloadPolicy, PoolConfig, RuntimePool};
pub use telemetry::{DatasetUsage, HostRoutedLedger, PoolTelemetry, TenantUsage};
pub use trace::Tracer;
