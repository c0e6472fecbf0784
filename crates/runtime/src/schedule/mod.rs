//! The scheduler layer: shard pool, admission, planning and workers.
//!
//! A [`RuntimePool`] owns a set of [`cim_core::CimAccelerator`]
//! *shards*, each driven by its own worker thread (std threads and
//! channels — no async runtime). Sessions ([`crate::PoolClient`])
//! submit workloads, which are compiled immediately
//! ([`crate::compile`]) and queued; a *flush* (explicit, or implied by
//! any `wait`) plans the queue deterministically and dispatches it:
//!
//! 1. **Shard selection** — each job goes to the least-loaded shard
//!    (ties to the lowest index); jobs against a resident dataset are
//!    routed to the dataset's shard. An analog dataset also keeps an
//!    exact copy on every other shard that had free analog tiles when
//!    it registered, and its queries rotate over the copies: the `k`-th
//!    query the plan routes to the dataset runs on copy `k mod n`, the
//!    primary first, then the replicas in shard order. Load is read
//!    from a per-shard ledger of routed envelope `cost_units` that every
//!    plan pass charges and carries over to the next, dataset queries
//!    included. Its debt is bounded: no shard trails the busiest by more
//!    than a fixed 16,384 units, so a shard that sat pinned or idle
//!    catches up for at most that much work. The plan is a pure function
//!    of the submission order, never of thread timing, and it does not
//!    depend on how the submissions were grouped into flushes.
//! 2. **Per-tile admission** — jobs hold leases on whole tiles. Fresh
//!    leases are carved from the shard's *free* tiles (tiles pinned by
//!    resident datasets are never handed out); dataset jobs reuse the
//!    dataset's pinned tiles. A replica never costs capacity: every fit
//!    decision counts its tiles as free, a fresh lease prefers tiles
//!    that hold no replica, and a lease or pin that must take one drops
//!    that copy — the shard's batch closes first, so the queries
//!    already routed to the copy run before the shard erases it.
//!    Instruction streams are relocated from
//!    virtual to physical tiles at dispatch, and any instruction
//!    addressing a tile outside its lease fails the job with
//!    [`JobError::TileFault`] *before* touching the accelerator.
//! 3. **One batch per shard** — each shard's share of a planning pass
//!    ships as one batch, its jobs in `(cost_units, job id)` order, so
//!    a cheap job is never head-of-line blocked behind an expensive one
//!    planned for the same shard. A fresh lease takes the shard's
//!    leading free tiles, whatever else the batch holds: the worker
//!    scrubs each lease before the next job runs.
//!
//! Every job draws its stochastic behaviour from a private seeded
//! stream ([`cim_core::CimAccelerator::run`]), takes its
//! stats from the accelerator alone ([`CimAccelerator::take_stats`])
//! and leases the same leading free tiles whatever it is batched with,
//! so its results do not depend on co-tenants, on execution order or on
//! how submissions were grouped into flushes: one flush and one flush
//! per submission are bit-identical — the invariant
//! `tests/runtime_pipeline.rs` pins.
//!
//! The pool tracks every submitted job in one table, from admission
//! until its handle takes the report: lifecycle state, wall-clock and
//! span bookkeeping and, for a job split across shards, its gather
//! state. Every job ends through one function, `complete`, on the
//! thread that finishes it: the shard worker that ran it (or its last
//! part), or the submitting thread for a job that never reaches a
//! shard. Waiters block on one condition variable, so polls and
//! telemetry are plain reads. This module owns that table and
//! admission; the planner lives in `plan` and the shard workers in
//! `worker`.
//!
//! After each job the runtime scrubs every tile row the job wrote (and
//! erases every analog tile it programmed, back to `g_min` over the
//! blocks its matrices occupied) so no data survives into the next
//! lease; the scrub cost is reported as maintenance overhead. Resident
//! datasets are the deliberate exception: their tiles, and their
//! replicas', are scrubbed only when the last [`crate::DatasetHandle`]
//! drops (a reclaimed replica, when a lease or pin takes its tiles).

mod plan;
mod worker;

pub(crate) use plan::MAX_ROUTING_DEBT;

use crate::client::PoolClient;
use crate::compile::{
    compile, compile_dataset_load, split_load_by_tile, CompileError, CompiledJob, DatasetProgram,
    Finalize, TileDemand,
};
use crate::dataset::{DatasetRecord, DatasetSpec, ResidentView, ShardPlacement};
use crate::job::{
    DatasetId, JobError, JobId, JobKind, JobOutput, JobReport, JobRoute, JobStatus, JobTiming,
    TenantId, WorkloadSpec,
};
use crate::telemetry::PoolTelemetry;
use crate::trace::{Attr, Tracer};
use cim_core::{CimAccelerator, CimAcceleratorBuilder, ExecutionStats};
use cim_crossbar::analog::AnalogParams;
use cim_device::reram::ReramParams;
use cim_obs::{NullSink, SpanId, TraceSink, Value};
use plan::{mark_dispatched, plan, scatter_assignment, trace_reclaim};
use std::collections::{BTreeMap, BTreeSet};
use std::panic::resume_unwind;
use std::sync::mpsc::{channel, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;
use worker::{
    contain, programmed_blocks, relocate, written_rows, LoadResult, Tiles, Worker, WorkerMsg,
};

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
    /// Pool seed: fabrication variation and per-job noise streams derive
    /// from it.
    pub seed: u64,
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
            seed: 0xC1A0,
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
    parts: BTreeMap<u32, JobReport>,
    /// The parent job's host-side decoder.
    finalizer: Arc<dyn Finalize>,
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
    /// Every resident dataset by id: the only record of the tiles
    /// datasets hold.
    datasets: BTreeMap<u64, DatasetRecord>,
    /// The routing ledger: envelope `cost_units` routed to each shard,
    /// carried across plan passes. Its least-loaded shard reads zero,
    /// and no shard trails the busiest by more than
    /// `plan::MAX_ROUTING_DEBT`.
    shard_load: Vec<u64>,
    next_job: u64,
    next_batch: u64,
    next_dataset: u64,
    telemetry: PoolTelemetry,
    /// Shard workers still running. Waiters panic instead of blocking
    /// once it reaches zero: no report can arrive any more.
    live_workers: usize,
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

    /// Every placement of a dataset copy on `shard`, with its dataset
    /// and whether it is a replica. A primary copy's tiles are pinned; a
    /// replica's tiles count as free.
    fn holds(&self, shard: usize) -> impl Iterator<Item = (u64, bool, &ShardPlacement)> {
        self.datasets.iter().flat_map(move |(&dataset, record)| {
            record
                .copies
                .iter()
                .enumerate()
                .flat_map(move |(copy, placements)| {
                    placements
                        .iter()
                        .filter(move |p| p.shard == shard)
                        .map(move |p| (dataset, copy > 0, p))
                })
        })
    }

    /// Unpinned tiles of `shard`, replicas' tiles included: `(digital,
    /// analog)`.
    fn free(&self, cfg: &PoolConfig, shard: usize) -> (usize, usize) {
        self.holds(shard).filter(|&(_, replica, _)| !replica).fold(
            (cfg.digital_tiles, cfg.analog_tiles),
            |(d, a), (_, _, p)| (d - p.digital_tiles.len(), a - p.analog_tiles.len()),
        )
    }

    /// Whether `demand` fits the unpinned tiles of `shard`.
    fn fits(&self, cfg: &PoolConfig, shard: usize, demand: TileDemand) -> bool {
        let (fd, fa) = self.free(cfg, shard);
        demand.digital <= fd && demand.analog <= fa
    }

    /// Takes the leading `demand` free (un-pinned) tiles of `shard`: the
    /// physical tiles a fresh lease or a new dataset pin takes. Analog
    /// tiles that hold no replica go first; a replica tile the demand
    /// still needs drops that replica, returned as `(dataset, tiles)` in
    /// tile order for the shard to erase. The caller has checked with
    /// [`Self::fits`] that the demand fits.
    fn lease(
        &mut self,
        cfg: &PoolConfig,
        shard: usize,
        demand: TileDemand,
    ) -> (Tiles, Vec<(u64, Vec<usize>)>) {
        let (mut digital_pins, mut analog_pins) = (BTreeSet::new(), BTreeSet::new());
        let mut replicas = BTreeMap::new();
        for (dataset, replica, p) in self.holds(shard) {
            if replica {
                replicas.extend(p.analog_tiles.iter().map(|&t| (t, dataset)));
            } else {
                digital_pins.extend(p.digital_tiles.iter().copied());
                analog_pins.extend(p.analog_tiles.iter().copied());
            }
        }
        let digital: Vec<usize> = (0..cfg.digital_tiles)
            .filter(|t| !digital_pins.contains(t))
            .take(demand.digital)
            .collect();
        let (clear, held): (Vec<usize>, Vec<usize>) = (0..cfg.analog_tiles)
            .filter(|t| !analog_pins.contains(t))
            .partition(|t| !replicas.contains_key(t));
        let mut analog: Vec<usize> = clear.into_iter().chain(held).take(demand.analog).collect();
        debug_assert_eq!(
            (digital.len(), analog.len()),
            (demand.digital, demand.analog),
            "the demand fits the free tiles"
        );
        analog.sort_unstable();
        let mut reclaimed = Vec::new();
        for tile in &analog {
            if let Some(dataset) = replicas.remove(tile) {
                replicas.retain(|_, held_by| *held_by != dataset);
                reclaimed.push((dataset, self.drop_replica(dataset, shard)));
            }
        }
        ((digital, analog), reclaimed)
    }

    /// The analog tiles of `shard` that neither a pin nor a replica
    /// holds.
    fn clear_analog(&self, cfg: &PoolConfig, shard: usize) -> Vec<usize> {
        let held: BTreeSet<usize> = self
            .holds(shard)
            .flat_map(|(_, _, p)| p.analog_tiles.iter().copied())
            .collect();
        (0..cfg.analog_tiles)
            .filter(|t| !held.contains(t))
            .collect()
    }

    /// Drops `dataset`'s replica on `shard` — its tiles hold nothing the
    /// pool tracks any more — and returns the tiles the shard must
    /// erase.
    fn drop_replica(&mut self, dataset: u64, shard: usize) -> Vec<usize> {
        let tiles = self
            .datasets
            .get_mut(&dataset)
            .and_then(|record| {
                let at = record.copies[1..]
                    .iter()
                    .position(|copy| copy.iter().any(|p| p.shard == shard))?;
                let copy = record.copies.remove(1 + at);
                Some(copy.into_iter().flat_map(|p| p.analog_tiles).collect())
            })
            .unwrap_or_default();
        self.telemetry.record_reclaim(DatasetId(dataset), shard);
        tiles
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

    /// The resident view of the dataset a spec queries, after checking
    /// it exists and belongs to `tenant`.
    fn resolve_dataset(
        &self,
        tenant: TenantId,
        spec: &WorkloadSpec,
    ) -> Result<Option<Arc<ResidentView>>, CompileError> {
        let Some(id) = spec.dataset() else {
            return Ok(None);
        };
        let record = self
            .datasets
            .get(&id.0)
            .ok_or(CompileError::UnknownDataset { dataset: id })?;
        if record.tenant != tenant {
            return Err(CompileError::DatasetAccessDenied {
                dataset: id,
                owner: record.tenant,
            });
        }
        Ok(Some(Arc::clone(&record.view)))
    }
}

/// State shared between the pool, its sessions, its handles and its
/// shard workers.
#[derive(Debug)]
pub(crate) struct PoolShared {
    cfg: PoolConfig,
    to_shards: Vec<Sender<WorkerMsg>>,
    state: Mutex<PoolState>,
    /// Signalled whenever a job ends or a shard worker exits; `wait`
    /// blocks on it.
    progress: Condvar,
    /// The pool's trace front end.
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
    /// tracing disabled (a null sink — near-free on the hot path). No
    /// digital tile draws its devices here: each draws them when a job
    /// first leases it (see [`RuntimePool::with_sink`]).
    ///
    /// # Panics
    ///
    /// Panics on the calling thread if the configuration has zero
    /// shards or zero digital tiles, or if a tile has zero rows or
    /// columns.
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
    /// Each shard's accelerator is built on its own scoped thread from
    /// its per-shard seed, and every build joins before any shard worker
    /// spawns. A build only advances the seed's stream past the digital
    /// tiles' device draws: the shard worker draws a tile's devices from
    /// its saved copy of that stream when a job first leases the tile
    /// (the lease's new tiles on parallel threads), each under a root
    /// `fabricate` span (attributes `shard`, `tile`, `job`) inside that
    /// job's `execute` interval. The devices are bit-identical to an
    /// eager build's, and a tile no job leases is never drawn.
    ///
    /// # Panics
    ///
    /// Panics on the calling thread if the configuration has zero
    /// shards or zero digital tiles, or if a tile has zero rows or
    /// columns.
    pub fn with_sink(cfg: PoolConfig, sink: Arc<dyn TraceSink>) -> Self {
        assert!(cfg.shards > 0, "pool needs at least one shard");
        assert!(
            cfg.digital_tiles > 0,
            "shards need at least one digital tile"
        );
        install_shard_panic_hook();
        let (to_shards, inboxes): (Vec<_>, Vec<_>) = (0..cfg.shards).map(|_| channel()).unzip();
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                pending: Vec::new(),
                jobs: BTreeMap::new(),
                datasets: BTreeMap::new(),
                shard_load: vec![0; cfg.shards],
                next_job: 0,
                next_batch: 0,
                next_dataset: 0,
                telemetry: PoolTelemetry::new(cfg.shards),
                live_workers: cfg.shards,
            }),
            progress: Condvar::new(),
            cfg,
            to_shards,
            tracer: Tracer::new(sink),
        });
        let shard_seed = |shard: usize| mix_seed(cfg.seed, 0xD1A5 + shard as u64);
        // Joining every build before any worker spawns re-raises a build
        // panic (a zero-sized tile) on the caller's thread, with its
        // original payload.
        let accelerators: Vec<CimAccelerator> = std::thread::scope(|scope| {
            let builds: Vec<_> = (0..cfg.shards)
                .map(|shard| {
                    scope.spawn(move || {
                        CimAcceleratorBuilder::new()
                            .digital_tiles(cfg.digital_tiles, cfg.tile_rows, cfg.tile_cols)
                            .analog_tiles(cfg.analog_tiles, cfg.analog_rows, cfg.analog_cols)
                            .reram_params(cfg.reram_params)
                            .analog_params(cfg.analog_params)
                            .seed(shard_seed(shard))
                            .build()
                    })
                })
                .collect();
            builds
                .into_iter()
                .map(|build| build.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        });
        let joins = inboxes
            .into_iter()
            .zip(accelerators)
            .enumerate()
            .map(|(shard, (inbox, accelerator))| {
                let worker = Worker {
                    shard,
                    accelerator,
                    pool: Arc::clone(&shared),
                };
                std::thread::Builder::new()
                    .name(format!("cim-shard-{shard}"))
                    .spawn(move || worker.run(inbox))
                    .unwrap_or_else(|e| panic!("spawn shard worker: {e}"))
            })
            .collect();
        RuntimePool { shared, joins }
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

    /// A snapshot of the telemetry aggregated over every job completed
    /// so far.
    pub fn telemetry(&self) -> PoolTelemetry {
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
        // Phase 1 (locked): assign the id and take the queried
        // dataset's view. Compilation itself (table generation, HDC training)
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
        let compile_result = compile(spec, job, tenant, &self.cfg, resident.as_deref());
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
            Err(err) => {
                let error = match err {
                    CompileError::NeedsMoreDigitalTiles {
                        required,
                        available,
                    } => JobError::WorkloadTooLarge {
                        digital_required: required,
                        analog_required: 0,
                        digital_capacity: available,
                        analog_capacity: self.cfg.analog_tiles,
                    },
                    CompileError::NeedsMoreAnalogTiles {
                        required,
                        available,
                    } => JobError::WorkloadTooLarge {
                        digital_required: 0,
                        analog_required: required,
                        digital_capacity: self.cfg.digital_tiles,
                        analog_capacity: available,
                    },
                    other => return Err(reject(other)),
                };
                let report = JobReport::new(
                    job,
                    tenant,
                    spec.kind(),
                    spec.dataset(),
                    JobRoute::Cim,
                    Err(error),
                );
                // It never compiled into a stream, so it never queues:
                // its traced route is job → compile → report.
                self.admit_complete(root, false, report);
                return Ok(job);
            }
        };

        // Static verification: raw streams are tenant input and always
        // checked (compiler output is lint-clean by construction, which
        // `compile` debug-asserts). Error-severity findings are terminal
        // — the program can never execute correctly, so a synthesized
        // failure report is completed immediately and no device state
        // is ever touched. The pool stays fully serviceable.
        if verify && compiled.kind == JobKind::Raw {
            let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_deref());
            if report.has_errors() {
                let error = JobError::RejectedByVerifier {
                    diagnostics: report.errors(),
                };
                let report = unexecuted_report(&compiled, 0, JobRoute::Cim, Err(error));
                self.admit_complete(root, true, report);
                return Ok(job);
            }
        }

        // Admission planning (TDO-CIM §offload decision): a job with a
        // certified bit-identical host reference may be served from the
        // host-executor lane instead of the pool. `AlwaysHost` forces
        // every eligible job there; `CostDriven` offloads only when the
        // host fallback's analytical delay beats the envelope's CIM
        // latency bound by the configured margin. Ineligible jobs (raw
        // streams, analog-score HDC) always run on the pool.
        let host_route = match (&compiled.host, self.cfg.offload_policy) {
            (None, _) | (_, OffloadPolicy::AlwaysCim) => false,
            (Some(_), OffloadPolicy::AlwaysHost) => true,
            (Some((_, delay)), OffloadPolicy::CostDriven { threshold }) => {
                delay.0 <= threshold * compiled.envelope.latency_bound.0
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
                    let report = unexecuted_report(&compiled, 0, JobRoute::Cim, Err(error));
                    self.admit_complete(root, true, report);
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
        if compiled.dataset.is_some() || (0..cfg.shards).any(|s| st.fits(cfg, s, demand)) {
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
    /// state touched — under a `host_execute` span, and telemetry counts
    /// it in [`PoolTelemetry::host_routed`].
    fn execute_host(&self, mut compiled: CompiledJob, root: SpanId) {
        let output = match compiled.host.take() {
            Some((output, _)) => output,
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
        self.admit_complete(root, true, report);
    }

    /// Admits a job that never runs on a shard — served on the host
    /// lane, or failed at submission — and ends it at once, so `wait`
    /// returns its report without blocking and the caller can tell a
    /// permanent failure apart from retryable admission errors. A
    /// `queued` job traces a queue span that closes at once; a job that
    /// failed before compiling into a stream never queued and has none.
    fn admit_complete(&self, root: SpanId, queued: bool, report: JobReport) {
        let mut st = lock(&self.state);
        let queue = if queued {
            self.tracer.open("queue", root, &[])
        } else {
            SpanId::NONE
        };
        st.admit(report.job, root, queue);
        complete(&mut st, &self.tracer, report, []);
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
        let compiled = compile(spec, probe, tenant, &self.cfg, resident.as_deref())?;
        let report = crate::verify::verify_compiled(&compiled, &self.cfg, resident.as_deref());
        Ok((report, compiled.envelope))
    }

    /// Plans the pending queue and dispatches it to the shard workers.
    /// Non-blocking: each shard worker ends the jobs it runs.
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
        let mut messages = plan(&mut st, &self.cfg, &self.tracer);
        let (batches, jobs_placed) = messages
            .iter()
            .filter_map(|(_, m)| match m {
                WorkerMsg::Batch(batch) => Some(batch.jobs.len()),
                _ => None,
            })
            .fold((0usize, 0usize), |(b, j), jobs| (b + 1, j + jobs));
        st.telemetry.batches += batches as u64;
        if batches > 0 {
            self.tracer
                .gauge("batch_occupancy", jobs_placed as f64 / batches as f64);
        }
        self.tracer.close(
            plan_span,
            0.0,
            &[
                ("batches", Value::U64(batches as u64)),
                ("jobs", Value::U64(jobs_placed as u64)),
            ],
        );
        mark_dispatched(&mut st, &self.tracer, &mut messages);
        for (shard, message) in messages {
            self.send(shard, message);
        }
    }

    /// Registers a dataset: compiles its load program, pins tiles on
    /// one shard — or, when no single shard can hold the pin, scatters
    /// contiguous chunks of its digital tiles across several shards —
    /// places an exact replica of an analog dataset on every other
    /// shard with enough clear analog tiles, sends every chunk's and
    /// every replica's load to its shard and collects the replies.
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
        let kind = payload.kind_label();
        let resident_blocks = programmed_blocks(&instructions, demand.analog);
        // Analog datasets are copied exactly: PCM fabrication draws
        // nothing and a load draws only from the dataset's seed. A
        // digital copy would differ by its tiles' device variation.
        let replicable = demand.digital == 0 && demand.analog > 0;

        let (shards, span, replies) = {
            let mut st = lock(&self.state);
            let st = &mut *st;
            let cfg = &self.cfg;

            // Most-free shard that fits the whole pin, ties to the
            // lowest index: datasets spread out, leaving fresh-lease
            // headroom.
            let single = (0..cfg.shards)
                .filter(|&s| st.fits(cfg, s, demand))
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

            // Pin each chunk on its shard's free tiles. A pin that takes
            // a replica's tile drops that replica; the erase reaches the
            // shard ahead of the load (same FIFO channel).
            let mut pins = Vec::with_capacity(assignment.len());
            for &(shard, digital_chunk) in &assignment {
                let chunk = TileDemand {
                    digital: digital_chunk,
                    analog: demand.analog,
                };
                let ((digital_tiles, analog_tiles), reclaimed) = st.lease(cfg, shard, chunk);
                for (dataset, tiles) in reclaimed {
                    trace_reclaim(&self.tracer, dataset, shard);
                    let _ = self.to_shards[shard].send(WorkerMsg::ReleaseDataset {
                        rows: Vec::new(),
                        analog_tiles: tiles,
                    });
                }
                pins.push((shard, digital_tiles, analog_tiles));
            }
            // One exact replica on every other shard whose clear analog
            // tiles (neither pinned nor holding a replica) hold it.
            let mut replicas = Vec::new();
            if replicable && pins.len() == 1 {
                for shard in (0..cfg.shards).filter(|&s| s != pins[0].0) {
                    let clear = st.clear_analog(cfg, shard);
                    if clear.len() >= demand.analog {
                        replicas.push(ShardPlacement {
                            shard,
                            digital_tiles: Vec::new(),
                            analog_tiles: clear[..demand.analog].to_vec(),
                            scrub_rows: Vec::new(),
                        });
                    }
                }
            }

            // The dataset's load span: one `load_execute` child per
            // shard chunk and per replica, closed once every load
            // replied.
            let span = self.tracer.open(
                "dataset_load",
                SpanId::NONE,
                &[
                    ("dataset", Value::U64(id.0)),
                    ("tenant", Value::U64(tenant.0 as u64)),
                    ("kind", Value::Str(kind)),
                    ("shards", Value::U64(assignment.len() as u64)),
                    ("copies", Value::U64(1 + replicas.len() as u64)),
                ],
            );

            // Split the load program into per-shard chunks, relocate
            // each onto its pinned tiles and send it; every replica
            // loads the whole program onto its own tiles with the same
            // seed.
            let sizes: Vec<usize> = assignment.iter().map(|&(_, n)| n).collect();
            let chunk_programs = if assignment.len() == 1 {
                vec![instructions]
            } else {
                split_load_by_tile(&instructions, &sizes)
            };
            let mut placements = Vec::with_capacity(pins.len());
            let mut replies = Vec::with_capacity(pins.len() + replicas.len());
            let mut load = |shard: usize, program, digital: &[usize], analog: &[usize]| {
                let relocated = match relocate(program, digital, analog) {
                    Ok(relocated) => relocated,
                    Err(_) => unreachable!("load program stays inside its demand"),
                };
                let scrub_rows: Vec<(usize, usize)> = written_rows(&relocated).collect();
                let (reply, result) = channel();
                // A worker that exited drops the message, and with it
                // the reply's sender.
                let _ = self.to_shards[shard].send(WorkerMsg::LoadDataset {
                    instructions: relocated,
                    seed,
                    span,
                    reply,
                });
                replies.push(result);
                scrub_rows
            };
            for replica in &replicas {
                load(
                    replica.shard,
                    chunk_programs[0].clone(),
                    &[],
                    &replica.analog_tiles,
                );
            }
            for ((shard, digital_tiles, analog_tiles), program) in
                pins.into_iter().zip(chunk_programs)
            {
                let scrub_rows = load(shard, program, &digital_tiles, &analog_tiles);
                placements.push(ShardPlacement {
                    shard,
                    digital_tiles,
                    analog_tiles,
                    scrub_rows,
                });
            }

            let shards: Vec<usize> = placements.iter().map(|p| p.shard).collect();
            st.telemetry.record_copies(
                id,
                shards
                    .iter()
                    .take(1)
                    .chain(replicas.iter().map(|r| &r.shard)),
            );
            let view = ResidentView {
                id,
                payload,
                digital_tiles: placements.iter().map(|p| p.digital_tiles.len()).sum(),
                analog_tiles: placements.iter().map(|p| p.analog_tiles.len()).sum(),
                resident_rows,
                resident_blocks,
                resident_bytes,
            };
            let copies = std::iter::once(placements)
                .chain(replicas.into_iter().map(|replica| vec![replica]))
                .collect();
            st.datasets.insert(
                id.0,
                DatasetRecord {
                    tenant,
                    copies,
                    routed: 0,
                    view: Arc::new(view),
                },
            );
            (shards, span, replies)
        };

        // Collect unlocked: a worker ends the jobs queued ahead of its
        // chunk under the pool lock. A worker that exits drops its
        // sender, so every `recv` returns.
        let results: Vec<LoadResult> = replies
            .iter()
            .map(|reply| {
                reply
                    .recv()
                    .unwrap_or_else(|_| Err("shard worker exited before the load ran".to_string()))
            })
            .collect();
        let mut failure = None;
        let mut load_sim = 0.0;
        {
            let mut st = lock(&self.state);
            for result in results {
                match result {
                    Ok((stats, device)) => {
                        load_sim += stats.busy_time.0;
                        st.telemetry.record_dataset_load(
                            id,
                            tenant,
                            kind,
                            resident_bytes,
                            &stats,
                            &device,
                        );
                    }
                    Err(message) => {
                        failure.get_or_insert(message);
                    }
                }
            }
            let outcome = if failure.is_none() { "ok" } else { "err" };
            self.tracer
                .close(span, load_sim, &[("outcome", Value::Str(outcome))]);
        }
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

    /// Releases a dataset's lease: drops its record, unpins its tiles
    /// for future admission and tells each shard holding a chunk or a
    /// replica to scrub them. Called by the last [`crate::DatasetHandle`]
    /// drop (and by load-failure rollback); idempotent.
    pub(crate) fn release_dataset(&self, id: DatasetId) {
        let mut st = lock(&self.state);
        let Some(record) = st.datasets.remove(&id.0) else {
            return;
        };
        for placement in record.copies.into_iter().flatten() {
            // The scrub is ordered before any batch planned after this
            // point (same FIFO channel), so a fresh lease can never
            // observe the dataset's rows. Ignore send failures: the
            // pool may already be shut down, taking the data with it.
            let _ = self.to_shards[placement.shard].send(WorkerMsg::ReleaseDataset {
                rows: placement.scrub_rows,
                analog_tiles: placement.analog_tiles,
            });
        }
    }

    /// Ends a job a shard worker ran — or parks one part of a split
    /// job in its gather, and ends the job once every part arrived: the
    /// parent's finalizer runs once over the concatenated chunk
    /// responses, the host-side merge of the scatter-gather — then wakes
    /// the waiters. Called on the worker's thread.
    fn job_done(&self, report: JobReport, part: Option<u32>) {
        let mut guard = lock(&self.state);
        let st = &mut *guard;
        match part {
            None => {
                let credit = (report.shard, report.stats);
                complete(st, &self.tracer, report, [credit]);
            }
            Some(part) => {
                let Some(entry) = st.jobs.get_mut(&report.job.0) else {
                    unreachable!("sub-report for a job the pool no longer tracks");
                };
                let root = entry.root;
                let Some(mut gather) = entry.gather.take() else {
                    unreachable!("sub-report for a job with no gather state");
                };
                if !gather.span.is_some() {
                    // The gather opens when the first part lands.
                    gather.span = self.tracer.open(
                        "gather",
                        root,
                        &[("parts", Value::U64(gather.expected as u64))],
                    );
                }
                gather.parts.insert(part, report);
                if gather.parts.len() < gather.expected {
                    entry.gather = Some(gather);
                } else {
                    self.tracer.close(gather.span, 0.0, &[]);
                    let finalize = self.tracer.open("finalize", root, &[]);
                    let (report, shard_stats) = assemble_gathered(*gather);
                    self.tracer.close(finalize, 0.0, &[]);
                    complete(st, &self.tracer, report, shard_stats);
                }
            }
        }
        drop(guard);
        self.progress.notify_all();
    }

    /// Blocks until `done(&state)` holds and returns the locked state.
    ///
    /// # Panics
    ///
    /// Panics if every shard worker exited before the predicate holds.
    fn wait_until(&self, done: impl Fn(&PoolState) -> bool) -> MutexGuard<'_, PoolState> {
        let mut st = lock(&self.state);
        while !done(&st) {
            assert!(
                st.live_workers > 0,
                "every shard worker exited before the awaited completion"
            );
            st = self
                .progress
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
        st
    }

    /// Non-blocking status of a job.
    pub(crate) fn poll_job(&self, job: JobId) -> JobStatus {
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
    /// Panics if every shard worker exited before the report arrived.
    pub(crate) fn wait_job(&self, job: JobId) -> JobReport {
        self.flush();
        let mut st = self.wait_until(|st| !st.awaiting_report(job));
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

/// The report of a compiled job that completed without executing on a
/// shard: host-routed, or failed before dispatch.
fn unexecuted_report(
    compiled: &CompiledJob,
    shard: usize,
    route: JobRoute,
    output: Result<JobOutput, JobError>,
) -> JobReport {
    JobReport {
        shard,
        ..JobReport::new(
            compiled.job,
            compiled.tenant,
            compiled.kind,
            compiled.dataset,
            route,
            output,
        )
    }
}

/// Ends a job: the one path every report takes, executed or not. Books
/// the report in telemetry, crediting each `(shard, stats)` pair to that
/// shard's ledger; stamps its wall-clock [`JobTiming`]; closes the job's
/// spans — the queue span if still open (the job never dispatched), a
/// `report` child marking completion, and finally the root span carrying
/// the job's simulated busy time; and moves the report into the job's
/// entry (or drops the entry if the handle was abandoned).
fn complete(
    st: &mut PoolState,
    tracer: &Tracer,
    mut report: JobReport,
    shard_stats: impl IntoIterator<Item = (usize, ExecutionStats)>,
) {
    st.telemetry.record_gathered(&report, shard_stats);
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
        entry.state = JobState::Done(Box::new(report));
    }
}

/// Assembles the single [`JobReport`] of a completed cross-shard split
/// job: chunk responses concatenate in part order and the parent's
/// finalizer decodes them exactly as an unsplit run would (a finalizer
/// panic is contained as [`JobError::ExecutionPanic`]); stats sum
/// (`ExecutionStats` is additive), maintenance folds, and the per-part
/// `(shard, stats)` pairs feed the per-shard telemetry ledgers.
fn assemble_gathered(gather: GatherState) -> (JobReport, Vec<(usize, ExecutionStats)>) {
    let GatherState {
        parts, finalizer, ..
    } = gather;
    let mut parts = parts.into_values();
    let Some(first) = parts.next() else {
        unreachable!("a gather holds at least one part");
    };
    let mut report = JobReport {
        shard: first.shard,
        shards: Vec::with_capacity(parts.len() + 1),
        batch: first.batch,
        ..JobReport::new(
            first.job,
            first.tenant,
            first.kind,
            first.dataset,
            JobRoute::Cim,
            Ok(JobOutput::Responses(Vec::new())),
        )
    };
    let mut shard_stats = Vec::with_capacity(parts.len() + 1);
    let mut responses = Vec::new();
    let mut error: Option<JobError> = None;
    for part in std::iter::once(first).chain(parts) {
        report.stats.accumulate(&part.stats);
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
        None => contain(|| finalizer.finalize(responses))
            .map_err(|message| JobError::ExecutionPanic { message }),
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

    /// The batch of a planning pass that shipped one batch and nothing
    /// else.
    fn only_batch(messages: &[(usize, WorkerMsg)]) -> &worker::Batch {
        match messages {
            [(_, WorkerMsg::Batch(batch))] => batch,
            _ => panic!("expected one batch, got {} messages", messages.len()),
        }
    }

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
    fn one_flush_ships_one_batch_per_shard() {
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
        // One planning pass on one shard ships one batch.
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

    /// A cheap job submitted after an expensive one is not head-of-line
    /// blocked: inside the shard's one batch of the pass, jobs run in
    /// `(cost_units, job id)` order, whatever their kind.
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
        let cheap_xor = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 2,
            })
            .unwrap();
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
        assert_eq!(batches.len(), 1, "one shard, one pass: one batch");
        let order: Vec<JobId> = only_batch(&batches)
            .jobs
            .iter()
            .map(|p| p.compiled.job)
            .collect();
        assert_eq!(order, vec![cheap_xor.id(), cheap_q6.id(), expensive.id()]);
        // The three leases share the shard's leading free tiles: each
        // is scrubbed before the next job runs.
        for placed in &only_batch(&batches).jobs {
            let demand = placed.compiled.demand.digital;
            assert_eq!(placed.digital_map, (0..demand).collect::<Vec<_>>());
        }
    }

    /// Regression: a `JobHandle::wait` issued *after* the worker already
    /// panicked and ended the job must return the failure report, never
    /// block waiting for a completion that already happened.
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
        // Let the worker hit the panic and end the job, so the report
        // sits in the job table before `wait`.
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

    /// `wait` on a pool whose shard workers have all exited panics
    /// instead of blocking forever: no report can arrive any more.
    #[test]
    #[should_panic(expected = "every shard worker exited")]
    fn wait_panics_once_every_worker_exited() {
        let mut pool = RuntimePool::new(PoolConfig::with_shards(1));
        let handle = pool
            .client(TenantId(0))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 8],
                key_seed: 1,
            })
            .unwrap();
        // Mark the job dispatched, but keep its batch from the worker.
        {
            let mut st = pool.shared.state.lock().unwrap();
            let mut batches = plan(&mut st, pool.config(), &Tracer::disabled());
            mark_dispatched(&mut st, &Tracer::disabled(), &mut batches);
        }
        pool.shared.send(0, WorkerMsg::Shutdown);
        for worker in pool.joins.drain(..) {
            worker.join().unwrap();
        }
        handle.wait();
    }

    /// A registration whose shard worker has exited fails with
    /// `DatasetLoadFailed` and rolls its pins back, instead of blocking.
    #[test]
    fn registration_fails_once_its_shard_worker_exited() {
        let mut pool = RuntimePool::new(PoolConfig::with_shards(1));
        pool.shared.send(0, WorkerMsg::Shutdown);
        for worker in pool.joins.drain(..) {
            worker.join().unwrap();
        }
        let err = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap_err();
        assert!(
            matches!(err, CompileError::DatasetLoadFailed { .. }),
            "{err:?}"
        );
        let st = pool.shared.state.lock().unwrap();
        assert!(st.datasets.is_empty(), "the record rolled back");
        let cfg = pool.config();
        assert_eq!(
            st.free(cfg, 0),
            (cfg.digital_tiles, cfg.analog_tiles),
            "the pins rolled back"
        );
    }

    /// A lease that needs several replicas' tiles reclaims them in tile
    /// order, not in dataset order, and once every handle drops each
    /// shard's tiles are all free and clear again.
    #[test]
    fn a_lease_reclaims_replicas_in_tile_order_and_release_frees_every_tile() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let cfg = *pool.config();
        let session = pool.client(TenantId(0));
        let weights = |seed| DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[8, 6, 3], seed),
        };
        // Two of shard 0's four digital tiles pinned: the networks'
        // primaries go to the freer shard 1, their replicas to shard 0.
        let table = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 2048,
                table_seed: 1,
            })
            .unwrap();
        assert_eq!(table.shards(), &[0]);
        let first = session.register_dataset(&weights(1)).unwrap();
        let second = session.register_dataset(&weights(2)).unwrap();
        assert_eq!((first.shard(), second.shard()), (1, 1));
        // Release the first network and register a third: its primary
        // takes shard 1's analog tile 0, its replica shard 0's tile 0,
        // below the second network's replica on tile 1.
        drop(first);
        let third = session.register_dataset(&weights(3)).unwrap();
        assert_eq!(third.shard(), 1);
        {
            let st = pool.shared.state.lock().unwrap();
            let replica_tiles = |id: DatasetId| -> Vec<(usize, Vec<usize>)> {
                st.datasets[&id.0].copies[1..]
                    .iter()
                    .flatten()
                    .map(|p| (p.shard, p.analog_tiles.clone()))
                    .collect()
            };
            assert_eq!(replica_tiles(second.id()), vec![(0, vec![1])]);
            assert_eq!(replica_tiles(third.id()), vec![(0, vec![0])]);
            assert_eq!(st.free(&cfg, 0), (2, 2), "replicas count as free");
            assert_eq!(st.free(&cfg, 1), (4, 0));
        }

        // A cold job that needs both analog tiles of a shard fits only
        // shard 0, and reclaims both replicas there.
        let _cold = session
            .submit(&WorkloadSpec::Raw {
                digital_tiles: 0,
                analog_tiles: 2,
                instructions: Vec::new(),
            })
            .unwrap();
        let messages = {
            let mut st = pool.shared.state.lock().unwrap();
            plan(&mut st, &cfg, &Tracer::disabled())
        };
        let steps: Vec<(usize, Option<Vec<usize>>)> = messages
            .iter()
            .map(|(shard, message)| match message {
                WorkerMsg::ReleaseDataset { analog_tiles, .. } => {
                    (*shard, Some(analog_tiles.clone()))
                }
                _ => (*shard, None),
            })
            .collect();
        assert_eq!(
            steps,
            vec![(0, Some(vec![0])), (0, Some(vec![1])), (0, None)],
            "the third network's replica on tile 0 erases first, then the \
             second's on tile 1, then the batch runs"
        );
        {
            let st = pool.shared.state.lock().unwrap();
            assert!(st.datasets.values().all(|record| record.copies.len() == 1));
        }
        for (shard, message) in messages {
            pool.shared.send(shard, message);
        }

        drop((table, second, third));
        let st = pool.shared.state.lock().unwrap();
        assert!(st.datasets.is_empty());
        for shard in 0..cfg.shards {
            assert_eq!(st.free(&cfg, shard), (cfg.digital_tiles, cfg.analog_tiles));
            assert_eq!(st.clear_analog(&cfg, shard).len(), cfg.analog_tiles);
        }
    }

    /// Fan-out-weighted costs keep cheapest-first honest: a wide raw
    /// logic job submitted first does not head-of-line block a narrow
    /// one in the shard's batch.
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
        assert_eq!(batches.len(), 1, "one shard, one pass: one batch");
        let order: Vec<JobId> = only_batch(&batches)
            .jobs
            .iter()
            .map(|p| p.compiled.job)
            .collect();
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

    /// Cheapest-first dispatch holds across a mixed CAM / Q6 / NN
    /// backlog: the CAM search (cost = entries per search) runs ahead of
    /// the costlier bitmap select and MVM-heavy inference in the
    /// shard's batch even though it was submitted last.
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
        assert_eq!(batches.len(), 1, "one shard, one pass: one batch");
        let order: Vec<(u64, JobId)> = only_batch(&batches)
            .jobs
            .iter()
            .map(|p| (p.compiled.envelope.cost_units, p.compiled.job))
            .collect();
        assert_eq!(order.len(), 3, "{order:?}");
        assert!(
            order.windows(2).all(|w| w[0].0 <= w[1].0),
            "jobs dispatch cheapest-first: {order:?}"
        );
        assert_eq!(order[0].1, cam.id(), "the cheap CAM search goes first");
        // Fresh leases take the leading free tiles, past digital tile 0
        // that the rule table pins.
        for placed in &only_batch(&batches).jobs {
            let demand = placed.compiled.demand;
            if placed.compiled.dataset.is_none() {
                assert_eq!(placed.digital_map, (1..=demand.digital).collect::<Vec<_>>());
                assert_eq!(placed.analog_map, (0..demand.analog).collect::<Vec<_>>());
            }
        }
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

    /// Threads hammering `telemetry` (and so the pool lock) while
    /// datasets register and release must never stall registration:
    /// it collects its load replies with the lock released.
    #[test]
    fn registration_survives_concurrent_telemetry_readers() {
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

    /// The routing ledger outlives each flush: dataset queries charge
    /// their shard, so the next fresh job goes to the other one. A
    /// shard that sat pinned while the other served catches up for at
    /// most [`plan::MAX_ROUTING_DEBT`] of work before routing alternates
    /// again.
    #[test]
    fn routing_ledger_carries_load_across_flushes() {
        let pool = RuntimePool::new(PoolConfig::with_shards(2));
        let session = pool.client(TenantId(1));

        let table = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 500,
                table_seed: 3,
            })
            .unwrap();
        assert_eq!(table.shard(), 0);
        for _ in 0..2 {
            let query = WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            };
            assert!(session.submit(&query).unwrap().wait().output.is_ok());
        }
        let fresh = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![3; 32],
                key_seed: 1,
            })
            .unwrap()
            .wait();
        assert_eq!(fresh.shard, 1, "the queries' load steers the next job away");
        drop(table);

        // Pin 3 of shard 0's 4 tiles: only shard 1 can take a 2-tile
        // select, and its ledger runs ahead while it serves them alone.
        let pin = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: 3 * 1024,
                table_seed: 9,
            })
            .unwrap();
        assert_eq!(pin.shard(), 0);
        let select = |seed: u64| WorkloadSpec::Q6Select {
            rows: 2000,
            table_seed: seed,
            params: Q6Params::tpch_default(),
        };
        let cost = session.verify(&select(0)).unwrap().1.cost_units;
        let serve = |seeds: std::ops::Range<u64>| -> Vec<usize> {
            let handles = seeds.map(|seed| session.submit(&select(seed)).unwrap());
            let reports = session.wait_all(handles.collect());
            reports.iter().map(|report| report.shard).collect()
        };
        let bound = plan::MAX_ROUTING_DEBT.div_ceil(cost) as usize + 1;
        // More selects than the bound: without it, the released shard
        // would take back every one of them in a row.
        let pinned = bound as u64 + 2;
        assert!(serve(0..pinned).iter().all(|&shard| shard == 1));
        drop(pin);
        let shards = serve(pinned..pinned + 2 * bound as u64);
        let longest_run = shards
            .split(|&shard| shard != 0)
            .map(<[usize]>::len)
            .max()
            .unwrap_or(0);
        assert!(
            (bound - 1..=bound).contains(&longest_run),
            "{longest_run} selects in a row on the released shard (bound {bound}): {shards:?}"
        );
        assert!(shards.contains(&1), "routing alternates again: {shards:?}");
    }

    /// A fault in a finalizer, whole or gathered, ends only its own
    /// job with `ExecutionPanic`; both shard workers live on.
    #[test]
    fn finalizer_panic_ends_only_its_job() {
        #[derive(Debug)]
        struct Faulty;
        impl Finalize for Faulty {
            fn finalize(&self, _: Vec<cim_core::isa::CimResponse>) -> JobOutput {
                panic!("finalizer fault")
            }
        }
        // One digital tile per shard: a 2-tile select splits across
        // both shards and finalizes at gather.
        let pool = RuntimePool::new(PoolConfig {
            digital_tiles: 1,
            ..PoolConfig::with_shards(2)
        });
        let session = pool.client(TenantId(0));
        let split_select = WorkloadSpec::Q6Select {
            rows: 1500,
            table_seed: 4,
            params: Q6Params::tpch_default(),
        };
        let whole = session
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![5; 16],
                key_seed: 3,
            })
            .unwrap();
        let split = session.submit(&split_select).unwrap();
        for job in lock(&pool.shared.state).pending.iter_mut() {
            job.finalizer = Arc::new(Faulty);
        }
        for report in session.wait_all(vec![whole, split]) {
            assert_eq!(
                report.output,
                Err(JobError::ExecutionPanic {
                    message: "finalizer fault".to_string()
                })
            );
        }
        let healthy = session.submit(&split_select).unwrap().wait();
        assert!(healthy.output.is_ok(), "{:?}", healthy.output);
        assert_eq!(healthy.shards, vec![0, 1], "both workers still serve");
    }

    /// A fabrication panic raised on a build thread reaches the caller
    /// of `RuntimePool::new` with its original message.
    #[test]
    #[should_panic(expected = "array dimensions must be nonzero")]
    fn zero_row_tiles_panic_on_the_calling_thread() {
        RuntimePool::new(PoolConfig {
            tile_rows: 0,
            ..PoolConfig::default()
        });
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
