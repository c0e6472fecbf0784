//! The scheduler layer: shard pool, admission, batching and workers.
//!
//! A [`RuntimePool`] owns a set of [`cim_core::CimAccelerator`]
//! *shards*, each driven by its own worker thread (std threads and
//! channels — no async runtime). Sessions ([`crate::PoolClient`])
//! submit workloads, which are compiled immediately
//! ([`crate::compile`]) and queued; a *flush* (explicit, or implied by
//! any `wait`) plans the queue deterministically and dispatches it:
//!
//! 1. **Shard selection** — each job goes to the least-loaded shard
//!    (estimated by the queued jobs' envelope `cost_units`, ties to the
//!    lowest index); jobs against a resident dataset are routed to the
//!    dataset's shard. The plan is a pure function of the submission
//!    order, never of thread timing.
//! 2. **Per-tile admission** — jobs hold leases on whole tiles. Fresh
//!    leases are carved from the shard's *free* tiles (tiles pinned by
//!    resident datasets are never handed out); dataset jobs reuse the
//!    dataset's pinned tiles. Instruction streams are relocated from
//!    virtual to physical tiles at dispatch, and any instruction
//!    addressing a tile outside its lease fails the job with
//!    [`JobError::TileFault`] *before* touching the accelerator.
//! 3. **Cost-aware batch coalescing** — compatible jobs (same workload
//!    family, same dataset) on a shard share one dispatch batch while
//!    they fit the tile budget *and* the batch cost budget
//!    ([`PoolConfig::max_batch_cost`]). Within a batch jobs run
//!    cheapest-first, and a shard's batches dispatch cheapest-first, so
//!    a cheap job is never head-of-line blocked behind an expensive
//!    one it happens to share a queue with.
//!
//! Every job draws its stochastic behaviour from a private seeded
//! stream ([`cim_core::CimAccelerator::execute_with_rng`]) and leases
//! exclusive tiles, so its results are independent of co-tenants, batch
//! shape and execution order: coalesced and one-job-per-batch schedules are
//! bit-identical — the invariant `tests/runtime_pipeline.rs` pins.
//!
//! The pool tracks every submitted job in one table, from admission
//! until its handle takes the report: lifecycle state, wall-clock and
//! span bookkeeping and, for a job split across shards, its gather
//! state. This module owns that table and admission; the planner lives
//! in `plan` and the shard workers in `worker`.
//!
//! After each job the runtime scrubs every tile row the job wrote (and
//! every analog tile it programmed) so no data survives into the next
//! lease; the scrub cost is reported as maintenance overhead. Resident
//! datasets are the deliberate exception: their tiles are scrubbed only
//! when the last [`crate::DatasetHandle`] drops.

mod plan;
mod worker;

use crate::client::PoolClient;
use crate::compile::{
    compile, compile_dataset_load, split_load_by_tile, CompileError, CompiledJob, DatasetProgram,
    Finalize, HostProfile, Lowering, TileDemand,
};
use crate::dataset::{DatasetRecord, DatasetSpec, LoadProgress, ResidentView, ShardPlacement};
use crate::job::{
    DatasetId, JobError, JobId, JobKind, JobOutput, JobReport, JobRoute, JobStatus, JobTiming,
    TenantId, WorkloadSpec,
};
use crate::telemetry::{stats_accumulate, PoolTelemetry};
use crate::trace::{Attr, Tracer};
use cim_arch::cim::CimSystem;
use cim_arch::conventional::ConventionalMachine;
use cim_core::offload::{OffloadEstimate, Program};
use cim_core::{AddressMap, CimAcceleratorBuilder, DeviceCounters, ExecutionStats};
use cim_crossbar::analog::AnalogParams;
use cim_crossbar::energy::OperationCost;
use cim_device::reram::ReramParams;
use cim_obs::{NullSink, SpanId, TraceSink, Value};
use cim_simkit::units::ByteSize;
use plan::{mark_dispatched, plan, scatter_assignment};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;
use worker::{relocate, written_rows, Completion, Worker, WorkerMsg};

/// How the admission planner decides between the CIM pool and the
/// host-executor lane, in the TDO-CIM mold: compare the job's certified
/// [`cim_lint::CostEnvelope`] against the analytical host-fallback cost
/// and only offload what the accelerator actually wins.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum OffloadPolicy {
    /// Every job runs on the CIM pool (the pre-planner behaviour, and
    /// the default). No host references are precomputed.
    AlwaysCim,
    /// Every job with a certified bit-identical host path runs on the
    /// host lane; jobs without one (raw streams, analog-score HDC)
    /// still run on the pool.
    AlwaysHost,
    /// Route by cost: a host-eligible job runs on the host when the
    /// analytical host delay is at most `threshold` times the
    /// envelope's CIM latency bound. `threshold = 1.0` offloads only
    /// jobs the accelerator strictly loses; larger values keep more
    /// small jobs off the shards (amortizing the per-job offload
    /// overhead), smaller values favour the accelerator.
    CostDriven {
        /// Host-delay multiplier a job must beat to stay on the host.
        threshold: f64,
    },
}

/// Geometry and policy of a pool.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolConfig {
    /// Number of accelerator shards (one worker thread each).
    pub shards: usize,
    /// Digital tiles per shard.
    pub digital_tiles: usize,
    /// Rows per digital tile.
    pub tile_rows: usize,
    /// Columns (entry width) per digital tile.
    pub tile_cols: usize,
    /// Analog tiles per shard.
    pub analog_tiles: usize,
    /// Rows per analog tile.
    pub analog_rows: usize,
    /// Columns per analog tile.
    pub analog_cols: usize,
    /// Scouting fan-in limit used by compiled reductions.
    pub scout_fan_in: usize,
    /// Pool seed: fabrication variation and per-job noise streams derive
    /// from it.
    pub seed: u64,
    /// Maximum jobs coalesced into one batch.
    pub max_batch_jobs: usize,
    /// Maximum summed envelope [`cim_lint::CostEnvelope::cost_units`]
    /// of one batch (the first job is always admitted). Bounds how long
    /// a batch can keep a shard busy, so admission packs by cost, not
    /// tile count alone.
    pub max_batch_cost: u64,
    /// Whether to coalesce compatible jobs at all. Without coalescing
    /// every job dispatches in a batch of its own — the reference
    /// schedule coalescing must reproduce bit-identically.
    pub coalesce: bool,
    /// Binary-device technology of every shard's digital tiles. The
    /// default is the workspace's representative HfO₂ ReRAM; tests that
    /// need provably exact analog range-match windows zero the
    /// variation sigmas here.
    pub reram_params: ReramParams,
    /// Analog-tile configuration (PCM devices, converter resolutions,
    /// drift) of every shard. Defaults to the realistic stack;
    /// [`AnalogParams::ideal`] isolates algorithmic behaviour from
    /// analog non-idealities.
    pub analog_params: AnalogParams,
    /// The admission planner's host-offload policy. Under anything but
    /// [`OffloadPolicy::AlwaysCim`], compilation precomputes host
    /// references for eligible kinds and the planner may serve a job
    /// from the host lane (reported with [`crate::JobRoute::Host`],
    /// empty `shards`, bit-identical output).
    pub offload_policy: OffloadPolicy,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            shards: 2,
            digital_tiles: 4,
            tile_rows: 160,
            tile_cols: 1024,
            analog_tiles: 2,
            analog_rows: 32,
            analog_cols: 2048,
            scout_fan_in: 8,
            seed: 0xC1A0,
            max_batch_jobs: 8,
            max_batch_cost: 1 << 14,
            coalesce: true,
            reram_params: ReramParams::default(),
            analog_params: AnalogParams::default(),
            offload_policy: OffloadPolicy::AlwaysCim,
        }
    }
}

impl PoolConfig {
    /// The default geometry with a given shard count.
    pub fn with_shards(shards: usize) -> Self {
        PoolConfig {
            shards,
            ..PoolConfig::default()
        }
    }

    /// Bytes of one job's extended-address-space window, rounded to a
    /// power of two so windows are disjoint and alignment-friendly.
    fn window_stride(&self) -> u64 {
        let bytes = (self.digital_tiles * self.tile_rows * self.tile_cols.div_ceil(8)) as u64;
        bytes.next_power_of_two()
    }

    /// Base address of job `id`'s resident window. The extended address
    /// space starts past the host DRAM window, as in §II-B.
    pub fn window_base(&self, id: u64) -> u64 {
        0x4000_0000 + id * self.window_stride()
    }

    /// Base address of dataset `id`'s resident window: a region of the
    /// extended address space disjoint from per-job windows, because
    /// datasets outlive jobs.
    pub fn dataset_window_base(&self, id: u64) -> u64 {
        0x4000_0000_0000 + id * self.window_stride()
    }
}

/// Silences the default panic hook for shard worker threads: their
/// panics are contained by the runtime and surfaced as
/// [`JobError::ExecutionPanic`], so dumping a backtrace to stderr would
/// let one misbehaving tenant flood the serving process's logs. Panics
/// on every other thread still reach the previous hook.
fn install_shard_panic_hook() {
    static HOOK: std::sync::Once = std::sync::Once::new();
    HOOK.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_shard = std::thread::current()
                .name()
                .is_some_and(|name| name.starts_with("cim-shard-"));
            if !on_shard {
                previous(info);
            }
        }));
    });
}

/// Locks a pool mutex, recovering the guard from a poisoned lock.
/// Shard-worker panics are contained per job (the worker catches them
/// and reports [`JobError::ExecutionPanic`]), so the pool state behind
/// a poisoned mutex is still consistent — propagating the poison would
/// turn one contained panic into a pool-wide outage.
fn lock<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Deterministic seed mixing (SplitMix64 finalizer over the pair).
pub(crate) fn mix_seed(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Where a submitted job is, pool-side.
enum JobState {
    /// Admitted, waiting for a flush to plan it.
    Queued,
    /// Planned onto a shard (or several); no report yet.
    Dispatched,
    /// The handle was dropped before completion: the report is
    /// discarded (after telemetry) when it arrives.
    Abandoned,
    /// The report, waiting for its handle.
    Done(Box<JobReport>),
}

/// Gather state of one cross-shard split job: sub-reports accumulate
/// until every part arrived, then the *parent's* finalizer runs once
/// over the concatenated chunk responses — the host-side merge of the
/// scatter-gather — and a single [`JobReport`] is assembled.
struct GatherState {
    /// Sub-programs dispatched.
    expected: usize,
    /// Arrived sub-reports, keyed by part index (= chunk order).
    parts: BTreeMap<u32, Box<JobReport>>,
    /// The parent job's host-side decoder.
    finalizer: Arc<dyn Finalize>,
    /// The offload estimate over the whole (unsplit) job.
    offload: OffloadEstimate,
    /// The gather span, opened when the first part arrives.
    span: SpanId,
}

/// The pool's record of one submitted job, from admission until its
/// handle takes the report (or, for an abandoned job, until the report
/// arrives). Maintained even when tracing is disabled: the `Instant`s
/// become the report's [`JobTiming`].
struct JobEntry {
    state: JobState,
    /// The job's root span (NONE when tracing is disabled).
    root: SpanId,
    /// The queue span, open from admission until first dispatch.
    queue: SpanId,
    submitted: Instant,
    /// Set when the first part dispatches.
    dispatched: Option<Instant>,
    /// Set while a job split across shards is in flight.
    gather: Option<Box<GatherState>>,
}

/// Mutable pool state, behind [`PoolShared::state`].
struct PoolState {
    pending: Vec<CompiledJob>,
    /// Every job from admission until its report is taken, by id.
    jobs: BTreeMap<u64, JobEntry>,
    datasets: BTreeMap<u64, DatasetRecord>,
    /// Physical digital tiles pinned by datasets, per shard.
    pinned_digital: Vec<BTreeSet<usize>>,
    /// Physical analog tiles pinned by datasets, per shard.
    pinned_analog: Vec<BTreeSet<usize>>,
    next_job: u64,
    next_batch: u64,
    next_dataset: u64,
    telemetry: PoolTelemetry,
}

impl std::fmt::Debug for PoolState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolState")
            .field("pending", &self.pending.len())
            .field("jobs", &self.jobs.len())
            .field("datasets", &self.datasets.len())
            .finish_non_exhaustive()
    }
}

impl PoolState {
    /// Records a job's admission; `queue` is its open queue span (NONE
    /// for a job that fails before queueing).
    fn admit(&mut self, job: JobId, root: SpanId, queue: SpanId) {
        self.jobs.insert(
            job.0,
            JobEntry {
                state: JobState::Queued,
                root,
                queue,
                submitted: Instant::now(),
                dispatched: None,
                gather: None,
            },
        );
    }

    /// Whether the job has no report yet.
    fn awaiting_report(&self, job: JobId) -> bool {
        self.jobs
            .get(&job.0)
            .is_some_and(|e| matches!(e.state, JobState::Queued | JobState::Dispatched))
    }

    /// Unpinned tiles of `shard`: `(digital, analog)`.
    fn free(&self, cfg: &PoolConfig, shard: usize) -> (usize, usize) {
        (
            cfg.digital_tiles - self.pinned_digital[shard].len(),
            cfg.analog_tiles - self.pinned_analog[shard].len(),
        )
    }

    /// The retryable error for a `demand` no shard's free tiles can hold
    /// right now: the digital shortfall against the best shard if there
    /// is one, the analog shortfall otherwise.
    fn shortfall(&self, cfg: &PoolConfig, demand: TileDemand) -> CompileError {
        let best = |pick: fn((usize, usize)) -> usize| {
            (0..cfg.shards)
                .map(|s| pick(self.free(cfg, s)))
                .max()
                .unwrap_or(0)
        };
        let digital = best(|(d, _)| d);
        if demand.digital > digital {
            return CompileError::NeedsMoreDigitalTiles {
                required: demand.digital,
                available: digital,
            };
        }
        CompileError::NeedsMoreAnalogTiles {
            required: demand.analog,
            available: best(|(_, a)| a),
        }
    }

    /// Snapshots the resident view of the dataset a spec queries, after
    /// checking it exists and belongs to `tenant`.
    fn resolve_dataset(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<Option<ResidentView>, CompileError> {
        let Some(id) = spec.dataset() else {
            return Ok(None);
        };
        let record = self
            .datasets
            .get(&id.0)
            .filter(|r| !r.released)
            .ok_or(CompileError::UnknownDataset { dataset: id })?;
        if record.tenant != tenant {
            return Err(CompileError::DatasetAccessDenied {
                dataset: id,
                owner: record.tenant,
            });
        }
        Ok(Some(record.view(id)))
    }
}

/// State shared between the pool, its sessions and its handles.
///
/// Lock order: `completions` before `state`; never acquire
/// `completions` while holding `state`.
#[derive(Debug)]
pub(crate) struct PoolShared {
    cfg: PoolConfig,
    to_shards: Vec<Sender<WorkerMsg>>,
    completions: Mutex<Receiver<Completion>>,
    state: Mutex<PoolState>,
    /// The pool's trace front end; clones feed the shard workers.
    tracer: Tracer,
}

/// The multi-tenant accelerator pool. Sessions are opened with
/// [`RuntimePool::client`].
pub struct RuntimePool {
    shared: Arc<PoolShared>,
    joins: Vec<JoinHandle<()>>,
}

impl RuntimePool {
    /// Builds the shards and spawns one worker thread per shard, with
    /// tracing disabled (a null sink — near-free on the hot path).
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or zero digital
    /// tiles.
    pub fn new(cfg: PoolConfig) -> Self {
        RuntimePool::with_sink(cfg, Arc::new(NullSink))
    }

    /// Builds the pool with every lifecycle stage traced into `sink`:
    /// a span per job stage (submit/compile/queue/dispatch/execute/
    /// gather/finalize/report) and per dataset load, plus queue-depth
    /// and batch-occupancy gauges at each plan. Pass a
    /// [`cim_obs::RingRecorder`] (keeping your own `Arc`) and read
    /// snapshots or Chrome traces from it after — see the README's
    /// "Observability" section.
    ///
    /// # Panics
    ///
    /// Panics if the configuration has zero shards or zero digital
    /// tiles.
    pub fn with_sink(cfg: PoolConfig, sink: Arc<dyn TraceSink>) -> Self {
        assert!(cfg.shards > 0, "pool needs at least one shard");
        assert!(
            cfg.digital_tiles > 0,
            "shards need at least one digital tile"
        );
        install_shard_panic_hook();
        let tracer = Tracer::new(sink);
        let (report_tx, completions) = channel();
        let mut to_shards = Vec::with_capacity(cfg.shards);
        let mut joins = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let shard_seed = mix_seed(cfg.seed, 0xD1A5 + shard as u64);
            let worker = Worker {
                shard,
                accelerator: CimAcceleratorBuilder::new()
                    .digital_tiles(cfg.digital_tiles, cfg.tile_rows, cfg.tile_cols)
                    .analog_tiles(cfg.analog_tiles, cfg.analog_rows, cfg.analog_cols)
                    .reram_params(cfg.reram_params)
                    .analog_params(cfg.analog_params)
                    .seed(shard_seed)
                    .build(),
                shard_seed,
                completions: report_tx.clone(),
                tracer: tracer.clone(),
            };
            let (tx, rx) = channel();
            let handle = std::thread::Builder::new()
                .name(format!("cim-shard-{shard}"))
                .spawn(move || worker.run(rx))
                .unwrap_or_else(|e| panic!("spawn shard worker: {e}"));
            to_shards.push(tx);
            joins.push(handle);
        }
        RuntimePool {
            shared: Arc::new(PoolShared {
                state: Mutex::new(PoolState {
                    pending: Vec::new(),
                    jobs: BTreeMap::new(),
                    datasets: BTreeMap::new(),
                    pinned_digital: vec![BTreeSet::new(); cfg.shards],
                    pinned_analog: vec![BTreeSet::new(); cfg.shards],
                    next_job: 0,
                    next_batch: 0,
                    next_dataset: 0,
                    telemetry: PoolTelemetry::new(cfg.shards),
                }),
                cfg,
                to_shards,
                completions: Mutex::new(completions),
                tracer,
            }),
            joins,
        }
    }

    /// Opens a per-tenant session on the pool. Sessions are cheap,
    /// cloneable and usable from any thread.
    pub fn client(&self, tenant: TenantId) -> PoolClient {
        PoolClient::new(Arc::clone(&self.shared), tenant)
    }

    /// The pool's configuration.
    pub fn config(&self) -> &PoolConfig {
        &self.shared.cfg
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shared.cfg.shards
    }

    /// Jobs queued but not yet dispatched.
    pub fn pending_jobs(&self) -> usize {
        lock(&self.shared.state).pending.len()
    }

    /// A snapshot of the telemetry aggregated over everything completed
    /// so far (also drains any completions that already arrived).
    pub fn telemetry(&self) -> PoolTelemetry {
        self.shared.try_pump();
        lock(&self.shared.state).telemetry.clone()
    }

    /// Dispatches every queued job to the shards without waiting for
    /// results.
    pub fn flush(&self) {
        self.shared.flush();
    }
}

impl Drop for RuntimePool {
    fn drop(&mut self) {
        for tx in &self.shared.to_shards {
            let _ = tx.send(WorkerMsg::Shutdown);
        }
        for handle in self.joins.drain(..) {
            let _ = handle.join();
        }
    }
}

impl PoolShared {
    /// Sends a message to a shard worker.
    ///
    /// # Panics
    ///
    /// Panics if the worker exited before the pool shut down.
    fn send(&self, shard: usize, message: WorkerMsg) {
        self.to_shards[shard]
            .send(message)
            .unwrap_or_else(|_| panic!("shard worker disconnected before the pool shut down"));
    }

    /// Compiles and enqueues a workload. `verify` = false bypasses the
    /// admission verifier — a test seam that keeps the runtime's
    /// last-line containment paths (relocation tile faults, in-shard
    /// panic capture) reachable behind the verifier, which rejects such
    /// streams up front.
    pub(crate) fn submit_spec(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
        verify: bool,
    ) -> Result<JobId, CompileError> {
        // Phase 1 (locked): assign the id and snapshot the queried
        // dataset. Compilation itself (table generation, HDC training)
        // runs unlocked below, so one session's heavy submit cannot
        // stall every other session's submit/poll/telemetry. A failed
        // compile leaves a gap in the id sequence, which is harmless:
        // ids only need to be unique and ordered.
        let (job, resident) = {
            let mut st = lock(&self.state);
            let job = JobId(st.next_job);
            st.next_job += 1;
            (job, st.resolve_dataset(tenant, spec)?)
        };
        // The job's root span: every later stage (compile, queue,
        // dispatch, execute, gather, finalize, report) nests under it.
        let mut root_attrs: [Attr; 4] = [
            ("job", Value::U64(job.0)),
            ("tenant", Value::U64(tenant.0 as u64)),
            ("kind", Value::Str(spec.kind().label())),
            ("dataset", Value::U64(0)),
        ];
        let root_attr_count = match spec.dataset() {
            Some(id) => {
                root_attrs[3] = ("dataset", Value::U64(id.0));
                4
            }
            None => 3,
        };
        let root = self
            .tracer
            .open("job", SpanId::NONE, &root_attrs[..root_attr_count]);
        // Closes the root span for submissions rejected with a
        // retryable error: no entry exists, so no report ever will.
        let reject = |err: CompileError| -> CompileError {
            self.tracer
                .close(root, 0.0, &[("outcome", Value::Str("rejected"))]);
            err
        };
        let compile_span = self.tracer.open("compile", root, &[]);
        let compile_result = compile(
            spec,
            &Lowering::new(job, tenant, &self.cfg, resident.as_ref()),
        );
        self.tracer.close(
            compile_span,
            0.0,
            &[(
                "outcome",
                Value::Str(if compile_result.is_ok() { "ok" } else { "err" }),
            )],
        );
        let compiled = match compile_result {
            Ok(compiled) => compiled,
            // Compile-time tile caps compare against hardware capacity
            // (the whole pool for tile-parallel workloads, one shard
            // otherwise), never against transient pins: such a
            // workload can *never* fit, so classify it terminally —
            // a synthesized failure report — instead of echoing a
            // retryable-looking error.
            Err(CompileError::NeedsMoreDigitalTiles {
                required,
                available,
            }) => {
                let error = JobError::WorkloadTooLarge {
                    digital_required: required,
                    analog_required: 0,
                    digital_capacity: available,
                    analog_capacity: self.cfg.analog_tiles,
                };
                return Ok(self.fail_terminal(job, tenant, spec, root, error));
            }
            Err(CompileError::NeedsMoreAnalogTiles {
                required,
                available,
            }) => {
                let error = JobError::WorkloadTooLarge {
                    digital_required: 0,
                    analog_required: required,
                    digital_capacity: self.cfg.digital_tiles,
                    analog_capacity: available,
                };
                return Ok(self.fail_terminal(job, tenant, spec, root, error));
            }
            Err(other) => return Err(reject(other)),
        };

        // Static verification: raw streams are tenant input and always
        // checked (compiler output is lint-clean by construction, which
        // `compile` debug-asserts). Error-severity findings are terminal
        // — the program can never execute correctly, so a synthesized
        // failure report is completed immediately and no device state
        // is ever touched. The pool stays fully serviceable.
        if verify && compiled.kind == JobKind::Raw {
            let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_ref());
            if report.has_errors() {
                let error = JobError::RejectedByVerifier {
                    diagnostics: report.errors(),
                };
                self.fail_queued(compiled, root, error);
                return Ok(job);
            }
        }

        // Admission planning (TDO-CIM §offload decision): a job with a
        // certified bit-identical host reference may be served from the
        // host-executor lane instead of the pool. `AlwaysHost` forces
        // every eligible job there; `CostDriven` offloads only when the
        // analytical host delay beats the envelope's CIM latency bound
        // by the configured margin. Ineligible jobs (raw streams,
        // analog-score HDC) always run on the pool.
        let host_route = compiled.host.is_some()
            && match self.cfg.offload_policy {
                OffloadPolicy::AlwaysCim => false,
                OffloadPolicy::AlwaysHost => true,
                OffloadPolicy::CostDriven { threshold } => {
                    offload_estimate(&compiled).conventional_delay.0
                        <= threshold * compiled.envelope.latency_bound.0
                }
            };
        if host_route {
            self.execute_host(compiled, root);
            return Ok(job);
        }

        // Phase 2 (locked): validate capacity against the pins as they
        // are now, and enqueue.
        let mut st = lock(&self.state);
        if let Err(admission) = self.check_capacity(&st, &compiled) {
            drop(st);
            return match admission {
                Admission::Retry(err) => Err(reject(err)),
                Admission::Never(error) => {
                    self.fail_queued(compiled, root, error);
                    Ok(job)
                }
            };
        }
        let queue = self.tracer.open("queue", root, &[]);
        st.admit(job, root, queue);
        st.pending.push(compiled);
        Ok(job)
    }

    /// Checks a fresh-lease job against the tiles the pool could grant
    /// it now. Fresh leases are carved from un-pinned tiles: the job
    /// must fit the free budget of one shard — or, for a tile-parallel
    /// (splittable) job, the pool's *aggregate* free budget, in which
    /// case the planner scatters it across shards and gathers the chunk
    /// results host-side. Dataset jobs reuse their pins and always pass.
    fn check_capacity(&self, st: &PoolState, compiled: &CompiledJob) -> Result<(), Admission> {
        let cfg = &self.cfg;
        let demand = compiled.demand;
        if compiled.dataset.is_some()
            || (0..cfg.shards).any(|s| {
                let (fd, fa) = st.free(cfg, s);
                demand.digital <= fd && demand.analog <= fa
            })
        {
            return Ok(());
        }
        if compiled.splittable && demand.analog == 0 {
            let pool_capacity = cfg.digital_tiles * cfg.shards;
            if demand.digital > pool_capacity {
                // Never fits — not even split across every shard of an
                // idle pool.
                return Err(Admission::Never(JobError::WorkloadTooLarge {
                    digital_required: demand.digital,
                    analog_required: demand.analog,
                    digital_capacity: pool_capacity,
                    analog_capacity: cfg.analog_tiles,
                }));
            }
            let pool_free: usize = (0..cfg.shards).map(|s| st.free(cfg, s).0).sum();
            if demand.digital > pool_free {
                // Would fit once pinned datasets release their tiles.
                return Err(Admission::Retry(CompileError::NeedsMoreDigitalTiles {
                    required: demand.digital,
                    available: pool_free,
                }));
            }
            // Fits the pool's aggregate free tiles: the planner splits
            // it across shards at dispatch.
            return Ok(());
        }
        if demand.digital > cfg.digital_tiles || demand.analog > cfg.analog_tiles {
            // Bigger than a whole shard and not splittable.
            return Err(Admission::Never(JobError::WorkloadTooLarge {
                digital_required: demand.digital,
                analog_required: demand.analog,
                digital_capacity: cfg.digital_tiles,
                analog_capacity: cfg.analog_tiles,
            }));
        }
        Err(Admission::Retry(st.shortfall(cfg, demand)))
    }

    /// Serves a host-routed job on the planner's host-executor lane:
    /// the precomputed bit-identical host result completes the job
    /// immediately — empty `shards`, no batch id consumed, no device
    /// state touched — under a `host_execute` span, and telemetry books
    /// it in the host-routed ledger instead of the speedup mean.
    fn execute_host(&self, mut compiled: CompiledJob, root: SpanId) {
        let output = match compiled.host.take() {
            Some(output) => output,
            None => unreachable!("host routing requires a precomputed host reference"),
        };
        let span = self.tracer.open(
            "host_execute",
            root,
            &[("cost_units", Value::U64(compiled.envelope.cost_units))],
        );
        self.tracer
            .close(span, 0.0, &[("outcome", Value::Str("ok"))]);
        let report = unexecuted_report(&compiled, 0, JobRoute::Host, Ok(output));
        let mut st = lock(&self.state);
        let queue = self.tracer.open("queue", root, &[]);
        st.admit(compiled.job, root, queue);
        st.telemetry.record(&report);
        complete(&mut st, &self.tracer, Box::new(report));
    }

    /// Completes a compiled job with a terminal failure before it ever
    /// queues for a shard (verifier rejection, never-fits demand): the
    /// entry is created and immediately finished, so `wait` returns the
    /// report without blocking.
    fn fail_queued(&self, compiled: CompiledJob, root: SpanId, error: JobError) {
        let mut st = lock(&self.state);
        let queue = self.tracer.open("queue", root, &[]);
        st.admit(compiled.job, root, queue);
        fail_at_dispatch(&mut st, &self.tracer, compiled, 0, error);
    }

    /// Completes a submission with a terminal synthesized failure
    /// report before it was ever compiled into a stream: the entry is
    /// created and immediately finished, so `wait` returns the report
    /// without blocking and the caller can tell the permanent failure
    /// apart from retryable admission errors.
    fn fail_terminal(
        &self,
        job: JobId,
        tenant: TenantId,
        spec: &WorkloadSpec,
        root: SpanId,
        error: JobError,
    ) -> JobId {
        let report = JobReport {
            job,
            tenant,
            kind: spec.kind(),
            dataset: spec.dataset(),
            shard: 0,
            shards: Vec::new(),
            batch: u64::MAX,
            route: JobRoute::Cim,
            output: Err(error),
            stats: ExecutionStats::default(),
            maintenance: OperationCost::default(),
            offload: estimate(0, HostProfile::UNKNOWN),
            device: DeviceCounters::default(),
            timing: JobTiming::default(),
        };
        let mut st = lock(&self.state);
        // The job never queues (it failed before compiling into a
        // stream), so it has no queue span: the traced route is
        // job → compile → report.
        st.admit(job, root, SpanId::NONE);
        st.telemetry.record(&report);
        complete(&mut st, &self.tracer, Box::new(report));
        job
    }

    /// Compiles `spec` exactly as a submission would and runs both
    /// static passes on the result — the safety verifier and the cost
    /// analyzer — without enqueuing anything: no job id is consumed, no
    /// entry or report is created, and no shard is touched. Dataset
    /// resolution and access checks match submission, so a clean
    /// verdict here means the same spec would pass the admission
    /// verifier, and the returned envelope is exactly what the offload
    /// planner would compare against the host fallback.
    pub(crate) fn verify_spec(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<(cim_lint::LintReport, cim_lint::CostEnvelope), CompileError> {
        let (probe, resident) = {
            let st = lock(&self.state);
            (JobId(st.next_job), st.resolve_dataset(tenant, spec)?)
        };
        let compiled = compile(
            spec,
            &Lowering::new(probe, tenant, &self.cfg, resident.as_ref()),
        )?;
        let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_ref());
        Ok((report, compiled.envelope))
    }

    /// Plans the pending queue and dispatches it to the shard workers.
    /// Non-blocking: reports arrive through the completion channel.
    pub(crate) fn flush(&self) {
        let mut st = lock(&self.state);
        if st.pending.is_empty() {
            // Nothing to plan: planning an empty queue is a no-op, so
            // skip the plan span and gauges (waits flush eagerly, and
            // an empty flush says nothing about queue pressure).
            return;
        }
        self.tracer.gauge("queue_depth", st.pending.len() as f64);
        let plan_span = self.tracer.open(
            "plan",
            SpanId::NONE,
            &[("pending", Value::U64(st.pending.len() as u64))],
        );
        let mut batches = plan(&mut st, &self.cfg, &self.tracer);
        st.telemetry.batches += batches.len() as u64;
        let jobs_placed: usize = batches.iter().map(|(_, b)| b.jobs.len()).sum();
        if !batches.is_empty() {
            self.tracer
                .gauge("batch_occupancy", jobs_placed as f64 / batches.len() as f64);
        }
        self.tracer.close(
            plan_span,
            0.0,
            &[
                ("batches", Value::U64(batches.len() as u64)),
                ("jobs", Value::U64(jobs_placed as u64)),
            ],
        );
        mark_dispatched(&mut st, &self.tracer, &mut batches);
        for (shard, batch) in batches {
            self.send(shard, WorkerMsg::Batch(batch));
        }
    }

    /// Registers a dataset: compiles its load program, pins tiles on
    /// one shard — or, when no single shard can hold the pin, scatters
    /// contiguous chunks of its digital tiles across several shards —
    /// executes every chunk's load and blocks until all are resident.
    pub(crate) fn register_dataset(
        &self,
        tenant: TenantId,
        spec: &DatasetSpec,
    ) -> Result<(DatasetId, Vec<usize>), CompileError> {
        // Reserve the id (its seed derives from it), then compile the
        // load program — table generation and HDC training — without
        // holding the pool lock.
        let (id, seed) = {
            let mut st = lock(&self.state);
            let id = DatasetId(st.next_dataset);
            st.next_dataset += 1;
            (id, mix_seed(self.cfg.seed, 0xDA7A ^ id.0))
        };
        let DatasetProgram {
            instructions,
            demand,
            payload,
            resident_bytes,
            resident_rows,
        } = compile_dataset_load(spec, &self.cfg, seed)?;

        let shards: Vec<usize> = {
            let mut st = lock(&self.state);
            let st = &mut *st;
            let cfg = &self.cfg;

            // Most-free shard that fits the whole pin, ties to the
            // lowest index: datasets spread out, leaving fresh-lease
            // headroom.
            let single = (0..cfg.shards)
                .filter(|&s| {
                    let (fd, fa) = st.free(cfg, s);
                    demand.digital <= fd && demand.analog <= fa
                })
                .max_by_key(|&s| {
                    let (fd, fa) = st.free(cfg, s);
                    (fd + fa, std::cmp::Reverse(s))
                });

            // `(shard, digital tiles)` chunks in virtual tile order.
            let assignment: Vec<(usize, usize)> = match single {
                Some(shard) => vec![(shard, demand.digital)],
                None if demand.analog == 0 && demand.digital > 0 => {
                    match scatter_assignment(cfg.shards, |s| st.free(cfg, s).0, demand.digital) {
                        Some(chunks) => chunks,
                        None => {
                            // Transient: the pool-wide *capacity* was
                            // already validated at compile time
                            // (`DatasetTooLarge` otherwise); only
                            // current pins stand in the way.
                            return Err(CompileError::NeedsMoreDigitalTiles {
                                required: demand.digital,
                                available: (0..cfg.shards).map(|s| st.free(cfg, s).0).sum(),
                            });
                        }
                    }
                }
                None => return Err(st.shortfall(cfg, demand)),
            };

            // Split the load program into per-shard chunks, pin and
            // relocate each onto its shard's free tiles.
            let sizes: Vec<usize> = assignment.iter().map(|&(_, n)| n).collect();
            let chunk_programs = if assignment.len() == 1 {
                vec![instructions]
            } else {
                split_load_by_tile(&instructions, &sizes)
            };
            let mut placements = Vec::with_capacity(assignment.len());
            let mut sends = Vec::with_capacity(assignment.len());
            for ((shard, digital_chunk), chunk_instructions) in
                assignment.iter().copied().zip(chunk_programs)
            {
                let digital_tiles: Vec<usize> = (0..cfg.digital_tiles)
                    .filter(|t| !st.pinned_digital[shard].contains(t))
                    .take(digital_chunk)
                    .collect();
                let analog_tiles: Vec<usize> = (0..cfg.analog_tiles)
                    .filter(|t| !st.pinned_analog[shard].contains(t))
                    .take(demand.analog)
                    .collect();
                st.pinned_digital[shard].extend(digital_tiles.iter().copied());
                st.pinned_analog[shard].extend(analog_tiles.iter().copied());

                let relocated = match relocate(chunk_instructions, &digital_tiles, &analog_tiles) {
                    Ok(relocated) => relocated,
                    Err(_) => unreachable!("load program stays inside its demand"),
                };
                placements.push(ShardPlacement {
                    shard,
                    scrub_rows: written_rows(&relocated).collect(),
                    digital_tiles,
                    analog_tiles,
                });
                sends.push((shard, relocated));
            }

            let placement = (demand.digital > 0).then(|| {
                AddressMap::new(
                    cfg.dataset_window_base(id.0),
                    demand.digital,
                    cfg.tile_rows,
                    cfg.tile_cols.div_ceil(8),
                )
            });
            let shards: Vec<usize> = placements.iter().map(|p| p.shard).collect();
            // The dataset's load span: one `load_execute` child per
            // shard chunk, closed when the last chunk reports in.
            let span = self.tracer.open(
                "dataset_load",
                SpanId::NONE,
                &[
                    ("dataset", Value::U64(id.0)),
                    ("tenant", Value::U64(tenant.0 as u64)),
                    ("kind", Value::Str(payload.kind_label())),
                    ("shards", Value::U64(sends.len() as u64)),
                ],
            );
            st.datasets.insert(
                id.0,
                DatasetRecord {
                    tenant,
                    placements,
                    payload,
                    resident_bytes,
                    resident_rows,
                    placement,
                    load: LoadProgress {
                        pending: sends.len(),
                        failure: None,
                    },
                    seed,
                    released: false,
                    scrubs_pending: 0,
                    span,
                    load_sim: 0.0,
                },
            );
            for (shard, instructions) in sends {
                self.send(
                    shard,
                    WorkerMsg::LoadDataset {
                        id,
                        instructions,
                        seed,
                        span,
                    },
                );
            }
            shards
        };

        self.pump_until(|st| st.datasets.get(&id.0).is_none_or(|r| r.load.pending == 0));
        let failure = {
            let st = lock(&self.state);
            match st.datasets.get(&id.0) {
                Some(record) => record.load.failure.clone(),
                None => unreachable!("dataset record"),
            }
        };
        match failure {
            None => Ok((id, shards)),
            Some(message) => {
                // Roll back: unpin and scrub whatever the partial load
                // wrote, on every shard that holds a chunk.
                self.release_dataset(id);
                Err(CompileError::DatasetLoadFailed { message })
            }
        }
    }

    /// Releases a dataset's lease: unpins its tiles for future
    /// admission and tells its shard to scrub them. Called by the last
    /// [`crate::DatasetHandle`] drop (and by load-failure rollback);
    /// idempotent.
    pub(crate) fn release_dataset(&self, id: DatasetId) {
        let mut st = lock(&self.state);
        let st = &mut *st;
        let Some(record) = st.datasets.get_mut(&id.0) else {
            return;
        };
        if record.released {
            return;
        }
        record.released = true;
        record.scrubs_pending = record.placements.len();
        for placement in &record.placements {
            for t in &placement.digital_tiles {
                st.pinned_digital[placement.shard].remove(t);
            }
            for t in &placement.analog_tiles {
                st.pinned_analog[placement.shard].remove(t);
            }
            // The scrub is ordered before any batch planned after this
            // point (same FIFO channel), so a fresh lease can never
            // observe the dataset's rows. Ignore send failures: the
            // pool may already be shut down, taking the data with it.
            let _ = self.to_shards[placement.shard].send(WorkerMsg::ReleaseDataset {
                id,
                rows: placement.scrub_rows.clone(),
                analog_tiles: placement.analog_tiles.clone(),
                seed: record.seed,
            });
        }
    }

    /// Folds one completion into the pool state.
    fn process(&self, completion: Completion) {
        let mut st = lock(&self.state);
        let st = &mut *st;
        match completion {
            Completion::Job { report, part: None } => {
                st.telemetry.record(&report);
                complete(st, &self.tracer, report);
            }
            Completion::Job {
                report,
                part: Some(part),
            } => {
                // One sub-program of a cross-shard split job: park it in
                // the gather, and assemble the job's single report once
                // every part arrived.
                let Some(entry) = st.jobs.get_mut(&report.job.0) else {
                    unreachable!("sub-report for a job the pool no longer tracks");
                };
                let root = entry.root;
                let Some(gather) = entry.gather.as_mut() else {
                    unreachable!("sub-report for a job with no gather state");
                };
                if !gather.span.is_some() && root.is_some() {
                    // The gather opens when the first part lands.
                    gather.span = self.tracer.open(
                        "gather",
                        root,
                        &[("parts", Value::U64(gather.expected as u64))],
                    );
                }
                gather.parts.insert(part, report);
                if gather.parts.len() == gather.expected {
                    let Some(gather) = entry.gather.take() else {
                        unreachable!("present above");
                    };
                    self.tracer.close(gather.span, 0.0, &[]);
                    let finalize = self.tracer.open("finalize", root, &[]);
                    let (report, shard_stats) = assemble_gathered(*gather);
                    self.tracer.close(finalize, 0.0, &[]);
                    st.telemetry.record_gathered(&report, shard_stats);
                    complete(st, &self.tracer, Box::new(report));
                }
            }
            Completion::DatasetLoaded { id, result } => {
                if let Some(record) = st.datasets.get_mut(&id.0) {
                    record.load.pending = record.load.pending.saturating_sub(1);
                    match result {
                        Ok((stats, device)) => {
                            record.load_sim += stats.busy_time.0;
                            st.telemetry.record_dataset_load(
                                id,
                                record.tenant,
                                record.payload.kind_label(),
                                record.resident_bytes,
                                &stats,
                                &device,
                            );
                        }
                        Err(message) => {
                            record.load.failure.get_or_insert(message);
                        }
                    }
                    if record.load.pending == 0 {
                        let outcome = if record.load.failure.is_none() {
                            "ok"
                        } else {
                            "err"
                        };
                        self.tracer.close(
                            record.span,
                            record.load_sim,
                            &[("outcome", Value::Str(outcome))],
                        );
                        record.span = SpanId::NONE;
                    }
                }
            }
            Completion::DatasetReleased { id, maintenance } => {
                st.telemetry.maintenance = st.telemetry.maintenance.then(maintenance);
                // A multi-shard dataset scrubs once per placement; drop
                // the record when the last shard reports in.
                let done = st.datasets.get_mut(&id.0).is_none_or(|r| {
                    r.scrubs_pending = r.scrubs_pending.saturating_sub(1);
                    r.scrubs_pending == 0
                });
                if done {
                    st.datasets.remove(&id.0);
                }
            }
        }
    }

    /// Blocks for the next completion unless `done(&state)` holds once
    /// the receiver is held. Safe against concurrent pumpers: the
    /// predicate is re-checked under the completions lock, so a
    /// completion another thread consumed between the caller's unlocked
    /// check and the blocking `recv` cannot strand this waiter — once
    /// it holds the receiver lock, it is the only thread that can
    /// consume completions.
    ///
    /// # Panics
    ///
    /// Panics if the pool shuts down while the predicate is false.
    fn recv_unless(&self, done: impl Fn(&PoolState) -> bool) -> Option<Completion> {
        let rx = lock(&self.completions);
        if done(&lock(&self.state)) {
            return None;
        }
        Some(
            rx.recv()
                .unwrap_or_else(|_| panic!("pool shut down while completions were outstanding")),
        )
    }

    /// Pumps completions until `done(&state)` holds.
    ///
    /// # Panics
    ///
    /// Panics if the pool shuts down before the predicate holds.
    fn pump_until(&self, done: impl Fn(&PoolState) -> bool) {
        while !done(&lock(&self.state)) {
            if let Some(completion) = self.recv_unless(&done) {
                self.process(completion);
            }
        }
    }

    /// Folds in every completion that already arrived, without
    /// blocking. A no-op if another thread is already pumping.
    fn try_pump(&self) {
        let Ok(rx) = self.completions.try_lock() else {
            return;
        };
        while let Ok(completion) = rx.try_recv() {
            self.process(completion);
        }
    }

    /// Non-blocking status of a job.
    pub(crate) fn poll_job(&self, job: JobId) -> JobStatus {
        self.try_pump();
        match lock(&self.state).jobs.get(&job.0).map(|e| &e.state) {
            Some(JobState::Queued) => JobStatus::Queued,
            Some(JobState::Dispatched) => JobStatus::Dispatched,
            // A missing entry means the report was already taken.
            Some(JobState::Abandoned | JobState::Done(_)) | None => JobStatus::Completed,
        }
    }

    /// Flushes and blocks until the job's report is ready, then returns
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if the pool was dropped before the report arrived.
    pub(crate) fn wait_job(&self, job: JobId) -> JobReport {
        self.flush();
        self.pump_until(|st| !st.awaiting_report(job));
        let mut st = lock(&self.state);
        match st.jobs.remove(&job.0).map(|e| e.state) {
            Some(JobState::Done(report)) => *report,
            _ => panic!("the waited job's entry holds its report (handles are the sole takers)"),
        }
    }

    /// Drops a handle's claim: if the report is ready it is discarded,
    /// otherwise it will be discarded (after telemetry) on arrival.
    pub(crate) fn abandon_job(&self, job: JobId) {
        let mut st = lock(&self.state);
        if let Some(entry) = st.jobs.get_mut(&job.0) {
            match entry.state {
                JobState::Done(_) => {
                    st.jobs.remove(&job.0);
                }
                JobState::Queued | JobState::Dispatched => entry.state = JobState::Abandoned,
                JobState::Abandoned => {}
            }
        }
    }
}

/// Why phase-2 admission refused a job.
enum Admission {
    /// Transient pressure (pins in the way): a retryable error.
    Retry(CompileError),
    /// The job can never fit this pool: a terminal failure report.
    Never(JobError),
}

/// The analytical host-vs-CIM estimate of a kernel with `resident_bytes`
/// of CIM-resident data and the given cache profile, against the
/// paper's host and CIM system models.
fn estimate(resident_bytes: u64, profile: HostProfile) -> OffloadEstimate {
    Program::streaming(
        ByteSize(resident_bytes.max(64)),
        profile.accel_fraction,
        profile.l1_miss,
        profile.l2_miss,
    )
    .estimate(
        &ConventionalMachine::xeon_e5_2680(),
        &CimSystem::paper_default(),
    )
}

/// The analytical host-vs-CIM estimate of a compiled job.
fn offload_estimate(compiled: &CompiledJob) -> OffloadEstimate {
    estimate(compiled.resident_bytes, compiled.host_profile)
}

/// The report of a compiled job that completed without executing on a
/// shard: host-routed, or failed before dispatch.
fn unexecuted_report(
    compiled: &CompiledJob,
    shard: usize,
    route: JobRoute,
    output: Result<JobOutput, JobError>,
) -> JobReport {
    JobReport {
        job: compiled.job,
        tenant: compiled.tenant,
        kind: compiled.kind,
        dataset: compiled.dataset,
        shard,
        shards: Vec::new(),
        batch: u64::MAX,
        route,
        output,
        stats: ExecutionStats::default(),
        maintenance: OperationCost::default(),
        offload: offload_estimate(compiled),
        device: DeviceCounters::default(),
        timing: JobTiming::default(),
    }
}

/// Fails a job at dispatch time (no shard ever saw it): synthesizes its
/// report, completes it and records telemetry.
fn fail_at_dispatch(
    st: &mut PoolState,
    tracer: &Tracer,
    compiled: CompiledJob,
    shard: usize,
    error: JobError,
) {
    let report = unexecuted_report(&compiled, shard, JobRoute::Cim, Err(error));
    st.telemetry.record(&report);
    complete(st, tracer, Box::new(report));
}

/// Moves a finished report into its job's entry (or drops the entry if
/// the handle was abandoned) — the common tail of direct, gathered and
/// synthesized completions. Stamps the report's wall-clock
/// [`JobTiming`], then closes the job's spans: the queue span if still
/// open (the job never dispatched), a
/// `report` child marking completion, and finally the root span
/// carrying the job's simulated busy time.
fn complete(st: &mut PoolState, tracer: &Tracer, mut report: Box<JobReport>) {
    let id = report.job.0;
    let Some(entry) = st.jobs.get_mut(&id) else {
        return;
    };
    let now = Instant::now();
    // `Instant::duration_since` saturates to zero, so a dispatch
    // stamped after `now` (racing flusher) cannot panic here.
    let dispatched = entry.dispatched.unwrap_or(now);
    report.timing = JobTiming {
        queued: dispatched.duration_since(entry.submitted),
        service: now.duration_since(dispatched),
        total: now.duration_since(entry.submitted),
    };
    tracer.close(entry.queue, 0.0, &[]);
    let outcome = Value::Str(if report.output.is_ok() { "ok" } else { "err" });
    let report_span = tracer.open("report", entry.root, &[]);
    tracer.close(report_span, 0.0, &[("outcome", outcome)]);
    tracer.close(
        entry.root,
        report.stats.busy_time.0,
        &[("outcome", outcome)],
    );
    if matches!(entry.state, JobState::Abandoned) {
        st.jobs.remove(&id);
    } else {
        entry.state = JobState::Done(report);
    }
}

/// Assembles the single [`JobReport`] of a completed cross-shard split
/// job: chunk responses concatenate in part order and the parent's
/// finalizer decodes them exactly as an unsplit run would; stats sum
/// (`ExecutionStats` is additive), maintenance folds, and the per-part
/// `(shard, stats)` pairs feed the per-shard telemetry ledgers.
fn assemble_gathered(gather: GatherState) -> (JobReport, Vec<(usize, ExecutionStats)>) {
    let GatherState {
        parts,
        finalizer,
        offload,
        ..
    } = gather;
    let mut parts = parts.into_values();
    let Some(first) = parts.next() else {
        unreachable!("a gather holds at least one part");
    };
    let mut report = JobReport {
        job: first.job,
        tenant: first.tenant,
        kind: first.kind,
        dataset: first.dataset,
        shard: first.shard,
        shards: Vec::with_capacity(parts.len() + 1),
        batch: first.batch,
        route: JobRoute::Cim,
        output: Ok(JobOutput::Responses(Vec::new())),
        stats: ExecutionStats::default(),
        maintenance: OperationCost::default(),
        offload,
        device: DeviceCounters::default(),
        timing: JobTiming::default(),
    };
    let mut shard_stats = Vec::with_capacity(parts.len() + 1);
    let mut responses = Vec::new();
    let mut error: Option<JobError> = None;
    for part in std::iter::once(first).chain(parts) {
        stats_accumulate(&mut report.stats, &part.stats);
        report.maintenance = report.maintenance.then(part.maintenance);
        report.device.accumulate(&part.device);
        report.shards.push(part.shard);
        shard_stats.push((part.shard, part.stats));
        match part.output {
            Ok(JobOutput::Responses(mut chunk)) => responses.append(&mut chunk),
            Ok(_) => unreachable!("sub-programs decode verbatim"),
            Err(e) => {
                error.get_or_insert(e);
            }
        }
    }
    report.output = match error {
        Some(e) => Err(e),
        None => Ok(finalizer.finalize(responses)),
    };
    (report, shard_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::JobHandle;
    use crate::job::{JobKind, JobOutput};
    use cim_bitmap_db::query::q6_scan;
    use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
    use cim_core::isa::CimInstruction;
    use cim_crossbar::cam::{key_bits, MatchKind, RuleSet};
    use cim_crossbar::scouting::ScoutOp;
    use cim_lint::RuleCode;
    use cim_nn::binarized::BinarizedMlp;
    use cim_simkit::bitvec::BitVec;
    use cim_simkit::rng::seeded;
    use cim_xor_cipher::otp::OneTimePad;

    #[test]
    fn q6_through_pool_matches_scan() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let handle = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 1800,
                table_seed: 21,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let report = handle.wait();
        let expected = q6_scan(
            &LineItemTable::generate(1800, 21),
            &Q6Params::tpch_default(),
        );
        match report.output.as_ref().unwrap() {
            JobOutput::Q6(result) => {
                assert_eq!(result.matching_rows, expected.matching_rows);
                assert!((result.revenue - expected.revenue).abs() < 1e-6);
            }
            other => panic!("wrong output {other:?}"),
        }
        assert!(report.stats.logic_ops > 0);
        assert!(report.stats.energy.0 > 0.0);
        assert!(report.offload.speedup() > 1.0);
    }

    #[test]
    fn xor_through_pool_matches_software_pad() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(1));
        let message: Vec<u8> = (0..400u32).map(|i| (i * 7 + 3) as u8).collect();
        let handle = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: message.clone(),
                key_seed: 99,
            })
            .unwrap();
        let report = handle.wait();
        let expected = OneTimePad::generate(message.len(), 99)
            .encrypt(&message)
            .unwrap();
        assert_eq!(
            report.output,
            Ok(JobOutput::Cipher(expected)),
            "CIM ciphertext must match the software pad"
        );
    }

    #[test]
    fn scout_bulk_reduction_is_exact() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(2));
        let rows: Vec<BitVec> = (0..9)
            .map(|i| BitVec::from_fn(100, |j| (j + i) % 4 == 0))
            .collect();
        let mut expected = BitVec::zeros(100);
        for r in &rows {
            expected = expected.or(r);
        }
        let handle = session
            .submit(&WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows,
            })
            .unwrap();
        assert_eq!(handle.wait().output, Ok(JobOutput::Bits(expected)));
    }

    #[test]
    fn batching_coalesces_compatible_jobs() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                pool.client(TenantId(i))
                    .submit(&WorkloadSpec::XorEncrypt {
                        message: vec![i as u8 + 1; 64],
                        key_seed: i as u64,
                    })
                    .unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        assert_eq!(reports.len(), 4);
        // One digital tile each, 4 tiles per shard → one batch.
        assert!(reports.iter().all(|r| r.batch == reports[0].batch));
        assert_eq!(pool.telemetry().batches, 1);
    }

    #[test]
    fn handle_polls_through_the_job_lifecycle() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let handle = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![7; 32],
                key_seed: 1,
            })
            .unwrap();
        // Not flushed yet: the job sits in the pool queue.
        assert_eq!(handle.poll(), JobStatus::Queued);
        session.flush();
        // Dispatched (or already done, on a fast machine): never Queued.
        assert_ne!(handle.poll(), JobStatus::Queued);
        let report = handle.wait();
        assert!(report.output.is_ok());
    }

    /// Satellite: a never-fits submission (a raw stream demanding more
    /// tiles than the pool owns, with no way to split it) is a
    /// *terminal* synthesized failure report, not a retryable
    /// `NeedsMore…Tiles` error — resubmitting can never succeed.
    #[test]
    fn oversized_raw_demand_fails_terminally_at_submit() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 99,
                analog_tiles: 0,
                instructions: vec![],
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(
            report.output,
            Err(JobError::WorkloadTooLarge {
                digital_required: 99,
                analog_required: 0,
                digital_capacity: 4,
                analog_capacity: 2,
            })
        );
        assert!(report.shards.is_empty(), "never reached a shard");
        assert_eq!(pool.telemetry().failures, 1);
    }

    #[test]
    fn tile_fault_is_contained_to_the_job() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let bad = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::ReadRow { tile: 3, row: 0 }],
            })
            .unwrap();
        let good = pool
            .client(TenantId(1))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![42; 16],
                key_seed: 5,
            })
            .unwrap();
        let bad_report = bad.wait();
        let good_report = good.wait();
        // The verifier rejects the out-of-bounds tile at admission,
        // before any device state is touched.
        assert!(
            matches!(
                &bad_report.output,
                Err(JobError::RejectedByVerifier { diagnostics })
                    if diagnostics.iter().any(|d| d.rule == RuleCode::TileBounds)
            ),
            "{:?}",
            bad_report.output
        );
        assert_eq!(bad_report.stats.instructions(), 0, "faulted job never ran");
        assert!(good_report.output.is_ok(), "co-tenant unaffected");
        assert_eq!(pool.telemetry().failures, 1);
    }

    /// Dynamic scrub verification: the admission verifier rejects any
    /// tenant program that reads rows it never wrote (L001), so the
    /// physical residue checks run through the unverified seam — the
    /// defense-in-depth layer behind the static guarantee. Covers both
    /// scrub paths: per-job lease release and dataset lease release.
    #[test]
    fn scrubbed_tiles_show_no_residue_to_unverified_probes() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let marker = BitVec::from_fn(1024, |j| j % 2 == 0);

        // Per-job scrub: tenant A fills a row, tenant B probes the
        // recycled physical tile and must see zeros.
        let first = pool
            .client(TenantId(10))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 5,
                    bits: marker.clone(),
                }],
            })
            .unwrap()
            .wait();
        assert!(first.output.is_ok());
        let probe = pool
            .client(TenantId(11))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::ReadRow { tile: 0, row: 5 }],
            })
            .unwrap()
            .wait();
        match probe.output.as_ref().unwrap() {
            JobOutput::Responses(responses) => {
                let bits = responses[0].clone().into_bits().unwrap();
                assert_eq!(bits.count_ones(), 0, "tenant B saw tenant A's data");
                assert_ne!(bits, marker);
            }
            other => panic!("unexpected output {other:?}"),
        }

        // Dataset-release scrub: resident Q6 bins vacate their tile
        // only after the last handle drops, leaving zeros behind.
        let table = pool
            .client(TenantId(10))
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap();
        drop(table);
        let after = pool
            .client(TenantId(11))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: (0..145)
                    .map(|row| CimInstruction::ReadRow { tile: 0, row })
                    .collect(),
            })
            .unwrap()
            .wait();
        match after.output.as_ref().unwrap() {
            JobOutput::Responses(responses) => {
                assert_eq!(responses.len(), 145);
                for resp in responses {
                    let bits = resp.clone().into_bits().unwrap();
                    assert_eq!(
                        bits.count_ones(),
                        0,
                        "released dataset rows must be scrubbed before reuse"
                    );
                }
            }
            other => panic!("unexpected output {other:?}"),
        }
    }

    #[test]
    fn store_without_result_rejected() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::StoreLast { tile: 0, row: 0 }],
            })
            .unwrap();
        let output = handle.wait().output;
        assert!(
            matches!(
                &output,
                Err(JobError::RejectedByVerifier { diagnostics })
                    if diagnostics.iter().any(|d| d.rule == RuleCode::LatchUndef)
            ),
            "{output:?}"
        );
    }

    #[test]
    fn panicking_stream_fails_job_but_not_shard() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        // A width-mismatched write panics inside the tile; the shard
        // must survive and serve the co-tenant normally. The verifier
        // would reject this stream at admission (L008), so it enters
        // through the unverified test seam: containment is the
        // defense-in-depth layer behind the verifier.
        let bad = pool
            .client(TenantId(0))
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                }],
            })
            .unwrap();
        let good = pool
            .client(TenantId(1))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![9; 8],
                key_seed: 2,
            })
            .unwrap();
        assert!(matches!(
            bad.wait().output,
            Err(JobError::ExecutionPanic { .. })
        ));
        assert!(good.wait().output.is_ok());
        assert_eq!(pool.telemetry().failures, 1);
    }

    #[test]
    fn kinds_recorded_in_reports() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::ScoutBulk {
                op: ScoutOp::And,
                rows: vec![BitVec::ones(32), BitVec::ones(32)],
            })
            .unwrap();
        let report = handle.wait();
        assert_eq!(report.kind, JobKind::ScoutBulk);
        assert!(report.shard < 2);
    }

    /// Satellite "smarter batching": with cost-aware packing, a cheap
    /// job submitted after an expensive one is no longer head-of-line
    /// blocked — it dispatches first, both across batches and inside a
    /// shared batch.
    #[test]
    fn cheap_jobs_are_not_head_of_line_blocked() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        // ~300 bin writes across two tiles: expensive.
        let expensive = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 2000,
                table_seed: 1,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        // A different-kind cheap job: lands in its own batch.
        let cheap_xor = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 2,
            })
            .unwrap();
        // A same-kind cheap job: coalesces into the Q6 batch.
        let cheap_q6 = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 400,
                table_seed: 3,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), &Tracer::disabled())
        };
        assert_eq!(batches.len(), 2, "XOR and Q6 form separate batches");
        // The cheap XOR batch dispatches before the expensive Q6 batch.
        assert_eq!(batches[0].1.jobs[0].compiled.job, cheap_xor.id());
        // Inside the Q6 batch, the cheap select runs before the
        // expensive one despite being submitted after it.
        let q6_jobs: Vec<JobId> = batches[1].1.jobs.iter().map(|p| p.compiled.job).collect();
        assert_eq!(q6_jobs, vec![cheap_q6.id(), expensive.id()]);
    }

    /// Satellite "smarter batching": the batch cost budget splits a
    /// queue of same-kind jobs that tile count alone would coalesce.
    #[test]
    fn batch_cost_budget_bounds_coalescing() {
        let mut cfg = PoolConfig::with_shards(1);
        // Each 64-byte XOR job costs 5 (two writes + a two-row logic
        // access + 1); cap a batch at two of them.
        cfg.max_batch_cost = 11;
        let pool = RuntimePool::new(cfg);
        let handles: Vec<JobHandle> = (0..4)
            .map(|i| {
                pool.client(TenantId(i))
                    .submit(&WorkloadSpec::XorEncrypt {
                        message: vec![i as u8; 64],
                        key_seed: i as u64,
                    })
                    .unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        assert_eq!(reports.len(), 4);
        assert_eq!(
            pool.telemetry().batches,
            2,
            "tile count alone would pack one batch; the cost budget packs two"
        );
    }

    /// Satellite regression: a `JobHandle::wait` issued *after* the
    /// worker already panicked (and after other actors pumped the
    /// completion) must return the failure report, never block and
    /// never lose the report to the pump.
    #[test]
    fn wait_after_worker_panic_returns_failure_report() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        // Width-mismatched write: panics inside the accelerator. The
        // unverified seam lets it past the admission verifier.
        let handle = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                }],
            })
            .unwrap();
        session.flush();
        // Let the worker hit the panic and emit the completion, then
        // pump it through a foreign actor (telemetry drains the
        // channel) so the report sits in the slot before `wait`.
        while pool.telemetry().jobs == 0 {
            std::thread::yield_now();
        }
        assert_eq!(handle.poll(), JobStatus::Completed);
        let report = handle.wait();
        assert!(
            matches!(report.output, Err(JobError::ExecutionPanic { .. })),
            "{:?}",
            report.output
        );
        // The shard survived: a follow-up job still serves.
        let ok = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 1,
            })
            .unwrap()
            .wait();
        assert!(ok.output.is_ok());
    }

    /// Satellite: fan-out-weighted costs keep cheapest-first honest —
    /// a wide raw logic job submitted first no longer head-of-line
    /// blocks a narrow one inside the shared batch.
    #[test]
    fn wide_fanout_raw_job_sorts_after_narrow_one() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let wide = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::Logic {
                    tile: 0,
                    op: ScoutOp::Or,
                    rows: (0..100).collect(),
                }],
            })
            .unwrap();
        let narrow = session
            .submit_unverified(&WorkloadSpec::Raw {
                digital_tiles: 1,
                analog_tiles: 0,
                instructions: vec![CimInstruction::Logic {
                    tile: 0,
                    op: ScoutOp::Or,
                    rows: vec![0, 1],
                }],
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), &Tracer::disabled())
        };
        assert_eq!(batches.len(), 1, "same-kind raw jobs coalesce");
        let order: Vec<JobId> = batches[0].1.jobs.iter().map(|p| p.compiled.job).collect();
        assert_eq!(order, vec![narrow.id(), wide.id()]);
    }

    /// Satellite: registering a dataset that can never fit the *pool*
    /// fails with the dedicated sizing error; anything smaller splits
    /// across shards or reports retryable pressure.
    #[test]
    fn oversized_dataset_registration_reports_sizing_error() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(1));
        // 9 tiles > 2 shards x 4 tiles: can never fit, terminal.
        let err = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 9 * 1024,
                table_seed: 1,
            })
            .unwrap_err();
        assert!(
            matches!(
                err,
                CompileError::DatasetTooLarge { needed, pool_capacity }
                    if needed.digital == 9 && pool_capacity.digital == 8
            ),
            "{err:?}"
        );
        // Transient pressure still reports the retryable error: a
        // dataset that *would* fit the pool once pins release is not a
        // sizing bug. Pin 3 + 3 tiles, leaving 1 + 1 free…
        let _pin = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 2,
            })
            .unwrap();
        let _pin2 = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 3,
            })
            .unwrap();
        let crowded = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 4,
            })
            .unwrap_err();
        assert!(
            matches!(
                crowded,
                CompileError::NeedsMoreDigitalTiles {
                    required: 3,
                    available: 2,
                }
            ),
            "{crowded:?}"
        );
        // …while a 2-tile dataset still fits — scattered 1 + 1 across
        // the two shards' remaining free tiles.
        let split = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 2 * 1024,
                table_seed: 5,
            })
            .unwrap();
        assert_eq!(split.shards().len(), 2, "pin scattered across shards");
    }

    #[test]
    fn dataset_queries_share_one_load() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(7));
        let table = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 1500,
                table_seed: 11,
            })
            .unwrap();
        let handles: Vec<JobHandle> = (0..3)
            .map(|_| {
                session
                    .submit(&WorkloadSpec::Q6Query {
                        dataset: table.id(),
                        params: Q6Params::tpch_default(),
                    })
                    .unwrap()
            })
            .collect();
        let reports = session.wait_all(handles);
        let expected = q6_scan(
            &LineItemTable::generate(1500, 11),
            &Q6Params::tpch_default(),
        );
        for report in &reports {
            assert_eq!(report.shard, table.shard(), "queries route to the dataset");
            match report.output.as_ref().unwrap() {
                JobOutput::Q6(result) => {
                    assert_eq!(result.matching_rows, expected.matching_rows)
                }
                other => panic!("wrong output {other:?}"),
            }
            assert_eq!(
                report.stats.row_writes, 14,
                "queries pay only scratch write-backs (7 per tile), never bin writes"
            );
        }
        let telemetry = pool.telemetry();
        let usage = &telemetry.datasets[&table.id().0];
        assert_eq!(usage.queries, 3);
        assert_eq!(usage.load_stats.row_writes, 2 * 145, "bins written once");
        assert!(usage.amortized_load_writes_per_query() < usage.load_stats.row_writes as f64);
    }

    /// Tentpole: a resident ternary rule table classifies packets
    /// through the pool bit-identically to the host-side priority scan.
    #[test]
    fn rule_classify_through_pool_matches_host_scan() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(3));
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 96,
                width: 32,
                wildcard_density: 0.3,
                seed: 77,
            })
            .unwrap();
        let host = RuleSet::generate(96, 32, 0.3, 77);
        let mut rng = seeded(4242);
        let packets: Vec<u64> = (0..40)
            .map(|_| {
                host.sample_packet(&mut rng)
                    .iter_ones()
                    .fold(0u64, |acc, j| acc | 1 << j)
            })
            .collect();
        let report = session
            .submit(&WorkloadSpec::RuleClassify {
                dataset: table.id(),
                packets: packets.clone(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = packets
            .iter()
            .map(|&p| host.classify(&key_bits(p, 32)))
            .collect();
        assert!(
            expected.iter().any(|m| m.is_some()),
            "sampled packets hit rules"
        );
        assert_eq!(report.output, Ok(JobOutput::Lookups(expected)));
        assert_eq!(
            report.stats.row_writes, 0,
            "rule writes were paid at registration"
        );
        assert!(report.stats.searches > 0);
        let usage = &pool.telemetry().datasets[&table.id().0];
        assert_eq!(usage.kind, "cam-rules");
        assert!(
            usage.load_stats.key_writes > 0,
            "keys written once, at load"
        );
    }

    /// Tentpole: an exact-match key dictionary resolves probes to their
    /// lowest matching slot — the build side of a dictionary join — and
    /// misses come back as `None`.
    #[test]
    fn key_lookup_resolves_lowest_slot_and_misses() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(4));
        // Slot 1 and slot 3 store the same key: the lower slot must win,
        // mirroring the host-side first-match scan.
        let keys: Vec<u64> = vec![5, 9, 14, 9, 21, 33];
        let dict = session
            .register_dataset(&DatasetSpec::CamKeys {
                keys: keys.clone(),
                width: 16,
            })
            .unwrap();
        let probes: Vec<u64> = vec![9, 33, 7, 5, 1000];
        let report = session
            .submit(&WorkloadSpec::KeyLookup {
                dataset: dict.id(),
                probes: probes.clone(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = probes
            .iter()
            .map(|p| keys.iter().position(|k| k == p).map(|i| i as u32))
            .collect();
        assert_eq!(expected[0], Some(1), "duplicate key resolves to slot 1");
        assert_eq!(report.output, Ok(JobOutput::Lookups(expected)));
    }

    /// Tentpole: raw ternary match sets served through the pool equal
    /// the host reference rule-by-rule, and in steady state every
    /// search is certified on the word-parallel tier — no match line
    /// ever needs explicit noise sampling.
    #[test]
    fn cam_search_matches_host_sets_on_the_word_tier() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(5));
        // 120 rules span two tiles (80 entry slots each at 160 rows).
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 120,
                width: 24,
                wildcard_density: 0.25,
                seed: 13,
            })
            .unwrap();
        let host = RuleSet::generate(120, 24, 0.25, 13);
        let mut rng = seeded(99);
        let packets: Vec<BitVec> = (0..16).map(|_| host.sample_packet(&mut rng)).collect();
        let keys: Vec<BitVec> = packets
            .iter()
            .map(|p| BitVec::from_fn(24, |j| p.get(j)))
            .collect();
        let report = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Ternary,
                keys,
            })
            .unwrap()
            .wait();
        let expected: Vec<BitVec> = packets.iter().map(|p| host.matches(p)).collect();
        assert_eq!(report.output, Ok(JobOutput::Matches(expected)));
        assert_eq!(report.stats.searches, 2 * 16, "two tiles x 16 keys");
        assert_eq!(
            report.stats.row_writes, 0,
            "resident searches carry zero row writes"
        );
        assert_eq!(
            report.device.match_pulses,
            120 * 16,
            "every entry fires once per key"
        );
        assert_eq!(
            report.device.sampled_columns, 0,
            "steady state: the word-parallel tier certifies every match line"
        );
    }

    /// Tentpole: a rule table bigger than one shard scatters its CAM
    /// entries across shards, and searches gather bit-identically to
    /// the host reference — the split is invisible to the caller.
    #[test]
    fn split_cam_rules_search_matches_host_across_shards() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(6));
        // 400 rules need 5 tiles; a shard has 4, so the pin must span
        // both shards.
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 400,
                width: 48,
                wildcard_density: 0.4,
                seed: 31,
            })
            .unwrap();
        assert_eq!(table.shards().len(), 2, "pin scattered across shards");
        let host = RuleSet::generate(400, 48, 0.4, 31);
        let mut rng = seeded(7);
        let packets: Vec<BitVec> = (0..8).map(|_| host.sample_packet(&mut rng)).collect();
        let report = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Ternary,
                keys: packets
                    .iter()
                    .map(|p| BitVec::from_fn(48, |j| p.get(j)))
                    .collect(),
            })
            .unwrap()
            .wait();
        let expected: Vec<BitVec> = packets.iter().map(|p| host.matches(p)).collect();
        assert_eq!(report.output, Ok(JobOutput::Matches(expected)));
        assert_eq!(report.shards.len(), 2, "search scatter-gathered");
        // Priority classification decodes from the same gathered sets.
        let classify = session
            .submit(&WorkloadSpec::RuleClassify {
                dataset: table.id(),
                packets: packets
                    .iter()
                    .map(|p| p.iter_ones().fold(0u64, |acc, j| acc | 1 << j))
                    .collect(),
            })
            .unwrap()
            .wait();
        let expected: Vec<Option<u32>> = packets.iter().map(|p| host.classify(p)).collect();
        assert_eq!(classify.output, Ok(JobOutput::Lookups(expected)));
    }

    /// Satellite: the associative-memory path (`HdcAssoc`, range-match
    /// sweep over CAM prototypes) reproduces the MVM classifier
    /// (`HdcClassify`) bit for bit — same task seed, same queries, same
    /// lowest-index argmax — on noise-free devices where both sides'
    /// decisions are provably exact.
    #[test]
    fn hdc_assoc_matches_hdc_classify_bit_for_bit() {
        let cfg = PoolConfig {
            shards: 1,
            reram_params: ReramParams {
                sigma_d2d: 0.0,
                sigma_c2c: 0.0,
                ..ReramParams::default()
            },
            analog_params: AnalogParams::ideal(),
            ..PoolConfig::default()
        };
        let run = |spec: &WorkloadSpec| {
            // A fresh pool per spec: both jobs get index 0, hence the
            // same derived seed, task, and query stream.
            let pool = RuntimePool::new(cfg);
            let report = pool.client(TenantId(0)).submit(spec).unwrap().wait();
            match report.output.unwrap() {
                JobOutput::Hdc(outcome) => outcome,
                other => panic!("wrong output {other:?}"),
            }
        };
        // d caps at tile_cols: CAM prototypes live in one digital tile.
        let classify = run(&WorkloadSpec::HdcClassify {
            classes: 4,
            d: 1024,
            ngram: 3,
            train_len: 2000,
            samples: 12,
            sample_len: 300,
        });
        let assoc = run(&WorkloadSpec::HdcAssoc {
            classes: 4,
            d: 1024,
            ngram: 3,
            train_len: 2000,
            samples: 12,
            sample_len: 300,
        });
        assert_eq!(assoc, classify, "associative memory = MVM classifier");
        let right = assoc
            .predictions
            .iter()
            .zip(&assoc.expected)
            .filter(|(p, e)| p == e)
            .count();
        assert!(right * 2 > assoc.expected.len(), "classifier is sane");
    }

    /// Satellite: cheapest-first dispatch holds across a mixed CAM /
    /// Q6 / NN backlog — the CAM search (cost = entries per search)
    /// jumps ahead of the costlier bitmap select and MVM-heavy
    /// inference even though it was submitted last.
    #[test]
    fn mixed_cam_q6_nn_backlog_dispatches_cheapest_first() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let session = pool.client(TenantId(0));
        let table = session
            .register_dataset(&DatasetSpec::CamRules {
                rules: 64,
                width: 16,
                wildcard_density: 0.2,
                seed: 5,
            })
            .unwrap();
        let _nn = session
            .submit(&WorkloadSpec::NnInfer {
                network: BinarizedMlp::random(&[8, 6, 3], 5),
                inputs: vec![BitVec::from_fn(8, |j| j % 2 == 0)],
            })
            .unwrap();
        let _q6 = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 1800,
                table_seed: 21,
                params: Q6Params::tpch_default(),
            })
            .unwrap();
        let cam = session
            .submit(&WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind: MatchKind::Exact,
                keys: vec![key_bits(3, 16)],
            })
            .unwrap();
        let batches = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, pool.config(), &Tracer::disabled())
        };
        let order: Vec<(u64, JobId)> = batches
            .iter()
            .map(|(_, b)| {
                (
                    b.jobs.iter().map(|p| p.compiled.envelope.cost_units).sum(),
                    b.jobs[0].compiled.job,
                )
            })
            .collect();
        assert_eq!(order.len(), 3, "three families, three batches: {order:?}");
        assert!(
            order.windows(2).all(|w| w[0].0 <= w[1].0),
            "batches dispatch cheapest-first: {order:?}"
        );
        assert_eq!(order[0].1, cam.id(), "the cheap CAM search goes first");
    }

    /// Regression: a fresh-lease job must route around shards whose
    /// free tiles a dataset pinned, not fail `AdmissionFailed` on them
    /// while another shard sits idle with room.
    #[test]
    fn fresh_leases_route_around_pinned_shards() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(1));
        // Pins 3 of 4 digital tiles on one shard.
        let dataset = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 9,
            })
            .unwrap();
        // Needs 2 free tiles: only the other shard fits.
        let report = session
            .submit(&WorkloadSpec::Q6Select {
                rows: 2000,
                table_seed: 1,
                params: Q6Params::tpch_default(),
            })
            .unwrap()
            .wait();
        assert!(report.output.is_ok(), "{:?}", report.output);
        assert_ne!(report.shard, dataset.shard(), "routed around the pins");
    }

    /// Regression: a concurrent telemetry/poll pumper consuming the
    /// `DatasetLoaded` completion must not strand `register_dataset`
    /// in a blocking `recv` forever.
    #[test]
    fn registration_survives_concurrent_pumpers() {
        use std::sync::atomic::{AtomicBool, Ordering};
        let pool = Arc::new(RuntimePool::new(PoolConfig::with_shards(1)));
        let stop = Arc::new(AtomicBool::new(false));
        let hammers: Vec<_> = (0..3)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let _ = pool.telemetry();
                    }
                })
            })
            .collect();
        let session = pool.client(TenantId(1));
        for _ in 0..50 {
            let handle = session
                .register_dataset(&DatasetSpec::Q6Table {
                    rows: 64,
                    table_seed: 1,
                })
                .unwrap();
            drop(handle);
        }
        stop.store(true, Ordering::Relaxed);
        for h in hammers {
            h.join().unwrap();
        }
    }

    #[test]
    fn foreign_tenant_cannot_query_a_dataset() {
        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let owner = pool.client(TenantId(1));
        let table = owner
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap();
        let err = pool
            .client(TenantId(2))
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .unwrap_err();
        assert_eq!(
            err,
            CompileError::DatasetAccessDenied {
                dataset: table.id(),
                owner: TenantId(1),
            }
        );
    }
}
