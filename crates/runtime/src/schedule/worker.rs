//! The shard side of the pool: what the pool sends a shard, and the
//! worker thread that executes it on the shard's accelerator — relocating
//! each job onto its leased tiles, drawing the devices of tiles leased
//! for the first time, scrubbing the lease, decoding the job's outputs
//! and ending the job in the pool's job table. Execution and decoding
//! both run under panic containment.

use super::{lock, PoolShared};
use crate::compile::CompiledJob;
use crate::job::{JobError, JobOutput, JobReport, JobRoute};
use crate::trace::Attr;
use cim_core::isa::{CimInstruction, CimResponse, TileFamily};
use cim_core::{CimAccelerator, DeviceCounters, ExecutionStats};
use cim_crossbar::energy::OperationCost;
use cim_lint::Block;
use cim_obs::{SpanId, Value};
use cim_simkit::rng::seeded;
use std::collections::BTreeSet;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;

/// A job with its virtual→physical tile maps on a shard.
pub(super) struct PlacedJob {
    pub(super) compiled: CompiledJob,
    /// Physical digital tile of each virtual digital tile.
    pub(super) digital_map: Vec<usize>,
    /// Physical analog tile of each virtual analog tile.
    pub(super) analog_map: Vec<usize>,
    /// `Some(index)` when this is one sub-program of a cross-shard
    /// split job: its report routes to the gather step instead of
    /// completing the job directly.
    pub(super) part: Option<u32>,
    /// The job's root trace span (stamped by `mark_dispatched`, NONE
    /// when tracing is disabled).
    pub(super) root: SpanId,
    /// The per-part dispatch span, opened at dispatch and closed by the
    /// worker once the part completes.
    pub(super) dispatch: SpanId,
}

impl PlacedJob {
    /// `compiled` placed on the physical `(digital, analog)` tiles of
    /// `tiles`, mapped in virtual-tile order.
    pub(super) fn new(compiled: CompiledJob, tiles: Tiles, part: Option<u32>) -> Self {
        let (digital_map, analog_map) = tiles;
        PlacedJob {
            compiled,
            digital_map,
            analog_map,
            part,
            root: SpanId::NONE,
            dispatch: SpanId::NONE,
        }
    }
}

/// Physical `(digital, analog)` tiles on one shard.
pub(super) type Tiles = (Vec<usize>, Vec<usize>);

/// One dispatch unit: a shard's share of one planning pass, executed in
/// order. Its jobs may lease the same tiles; each lease is scrubbed
/// before the next job runs.
pub(super) struct Batch {
    pub(super) id: u64,
    pub(super) jobs: Vec<PlacedJob>,
}

/// What one shard's chunk of a dataset load produced: its stats and
/// device counters, or the contained panic.
pub(super) type LoadResult = Result<(ExecutionStats, DeviceCounters), String>;

/// What the pool sends a shard worker.
pub(super) enum WorkerMsg {
    /// Execute a batch of placed jobs.
    Batch(Batch),
    /// Execute one chunk of a dataset's load program (already on
    /// physical tiles) and send the result to `reply`.
    LoadDataset {
        instructions: Vec<CimInstruction>,
        seed: u64,
        /// The dataset's `dataset_load` span, parent of the worker's
        /// per-chunk `load_execute` span.
        span: SpanId,
        reply: Sender<LoadResult>,
    },
    /// Scrub a released dataset's pinned tiles.
    ReleaseDataset {
        rows: Vec<(usize, usize)>,
        analog_tiles: Vec<usize>,
    },
    /// Exit the worker loop (sent by `RuntimePool::drop`).
    Shutdown,
}

/// Relocates a compiled stream onto physical tiles via per-class maps
/// (virtual index → physical tile), rejecting any instruction that
/// escapes the lease. Tile indices are patched in place — the stream is
/// owned by the batch and executed exactly once, so no payload (bin
/// rows, weight matrices, query vectors) is copied on the worker hot
/// path.
pub(super) fn relocate(
    mut instructions: Vec<CimInstruction>,
    digital_map: &[usize],
    analog_map: &[usize],
) -> Result<Vec<CimInstruction>, JobError> {
    let mut have_bits = false;
    for (index, instr) in instructions.iter_mut().enumerate() {
        match instr {
            // Only reads and logic operations define the latch: match
            // sets are entry-indexed, not tile-width, so the accelerator
            // never latches them as a `StoreLast` operand.
            CimInstruction::ReadRow { .. } | CimInstruction::Logic { .. } => have_bits = true,
            CimInstruction::StoreLast { .. } if !have_bits => {
                return Err(JobError::StoreWithoutResult { index });
            }
            _ => {}
        }
        let (family, tile) = instr.tile();
        let (map, analog) = match family {
            TileFamily::Digital => (digital_map, false),
            TileFamily::Analog => (analog_map, true),
        };
        *instr.tile_mut() = map.get(tile).copied().ok_or(JobError::TileFault {
            virtual_tile: tile,
            granted: map.len(),
            analog,
        })?;
    }
    Ok(instructions)
}

/// The `(tile, row)` pairs a stream writes, in stream order — what a
/// scrub must clean. A key write pulses both rows of its entry's row
/// pair.
pub(super) fn written_rows(
    instructions: &[CimInstruction],
) -> impl Iterator<Item = (usize, usize)> + '_ {
    instructions.iter().flat_map(|instr| {
        let (tile, rows) = match *instr {
            CimInstruction::WriteRow { tile, row, .. }
            | CimInstruction::StoreLast { tile, row } => (tile, [Some(row), None]),
            CimInstruction::WriteKey { tile, slot, .. } => {
                (tile, [Some(2 * slot), Some(2 * slot + 1)])
            }
            _ => (0, [None, None]),
        };
        rows.into_iter().flatten().map(move |row| (tile, row))
    })
}

/// The matrix blocks a load stream programs into each of its `analog`
/// virtual tiles: what queries' MVMs over the resident tiles are
/// verified against.
pub(super) fn programmed_blocks(instructions: &[CimInstruction], analog: usize) -> Vec<Vec<Block>> {
    let mut blocks = vec![Vec::new(); analog];
    for instr in instructions {
        if let CimInstruction::ProgramMatrix { tile, col, matrix } = instr {
            if let Some(held) = blocks.get_mut(*tile) {
                held.push(Block::new(*col, (matrix.rows(), matrix.cols())));
            }
        }
    }
    blocks
}

/// Runs `f`, containing a panic as its rendered message, so a fault in
/// one job's execution or decoding ends only that job.
pub(super) fn contain<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)).map_err(|panic| {
        panic
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| panic.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "opaque panic payload".to_string())
    })
}

/// One shard: its accelerator, driven by a worker thread that executes
/// what the pool sends and ends each job in the pool's job table itself.
pub(super) struct Worker {
    pub(super) shard: usize,
    pub(super) accelerator: CimAccelerator,
    pub(super) pool: Arc<PoolShared>,
}

impl Drop for Worker {
    /// Counts the worker out — on shutdown or on an uncontained panic —
    /// so that waiters on a pool with no worker left panic instead of
    /// blocking forever.
    fn drop(&mut self) {
        lock(&self.pool.state).live_workers -= 1;
        self.pool.progress.notify_all();
    }
}

/// What executing a stream produced: the collected output responses
/// (or the contained panic) and the stream's own stats and device
/// counters.
type Executed = (
    Result<Vec<CimResponse>, String>,
    ExecutionStats,
    DeviceCounters,
);

impl Worker {
    /// The worker loop; returns on shutdown.
    pub(super) fn run(mut self, messages: Receiver<WorkerMsg>) {
        while let Ok(message) = messages.recv() {
            match message {
                WorkerMsg::Batch(batch) => {
                    for placed in batch.jobs {
                        let (part, dispatch) = (placed.part, placed.dispatch);
                        let report = self.run_job(batch.id, placed);
                        self.pool.tracer.close(dispatch, 0.0, &[]);
                        self.pool.job_done(report, part);
                    }
                }
                WorkerMsg::LoadDataset {
                    instructions,
                    seed,
                    span,
                    reply,
                } => {
                    let shard = Value::U64(self.shard as u64);
                    let exec_span =
                        self.pool
                            .tracer
                            .open("load_execute", span, &[("shard", shard)]);
                    let (executed, stats, device) = self.execute(instructions, seed, &[]);
                    self.pool.tracer.close(exec_span, stats.busy_time.0, &[]);
                    // Fails only if the registering thread is gone.
                    let _ = reply.send(executed.map(|_| (stats, device)));
                }
                WorkerMsg::ReleaseDataset { rows, analog_tiles } => {
                    let maintenance = self.scrub(rows, analog_tiles);
                    let mut st = lock(&self.pool.state);
                    st.telemetry.maintenance = st.telemetry.maintenance.then(maintenance);
                }
                WorkerMsg::Shutdown => return,
            }
        }
    }

    /// Executes a physical-tile stream under a private noise stream
    /// seeded with `seed`, collecting the responses of the `outputs`
    /// instruction indices. A malformed stream that slips past
    /// validation (e.g. a raw job with a shape mismatch) panics inside
    /// the accelerator; the panic is contained so one tenant cannot take
    /// the shard down.
    fn execute(
        &mut self,
        instructions: Vec<CimInstruction>,
        seed: u64,
        outputs: &[usize],
    ) -> Executed {
        let accelerator = &mut self.accelerator;
        let device_before = accelerator.device_counters();
        let executed = contain(|| accelerator.run(instructions, outputs, &mut seeded(seed)));
        // Every execution takes its own stats, so none are left over
        // from an earlier one.
        let stats = accelerator.take_stats();
        let device = accelerator.device_counters().delta(&device_before);
        (executed, stats, device)
    }

    /// Scrubs written rows and erases programmed analog tiles so no data
    /// survives into the next lease; returns the maintenance cost.
    fn scrub(
        &mut self,
        rows: impl IntoIterator<Item = (usize, usize)>,
        analog_tiles: impl IntoIterator<Item = usize>,
    ) -> OperationCost {
        let mut maintenance = OperationCost::default();
        for (tile, row) in rows {
            maintenance = maintenance.then(self.accelerator.scrub_digital_row(tile, row));
        }
        for tile in analog_tiles {
            maintenance = maintenance.then(self.accelerator.scrub_analog_tile(tile));
        }
        maintenance
    }

    /// Relocates, executes, scrubs and decodes one placed job.
    fn run_job(&mut self, batch: u64, placed: PlacedJob) -> JobReport {
        let PlacedJob {
            compiled,
            digital_map,
            analog_map,
            part,
            root,
            dispatch,
        } = placed;
        let shard = self.shard;
        let mut report = JobReport {
            shard,
            shards: vec![shard],
            batch,
            ..JobReport::new(
                compiled.job,
                compiled.tenant,
                compiled.kind,
                compiled.dataset,
                JobRoute::Cim,
                Ok(JobOutput::Responses(Vec::new())),
            )
        };

        let mut exec_attrs: [Attr; 4] = [
            ("job", Value::U64(compiled.job.0)),
            ("shard", Value::U64(shard as u64)),
            ("batch", Value::U64(batch)),
            ("part", Value::U64(0)),
        ];
        let exec_attr_count = match part {
            Some(index) => {
                exec_attrs[3] = ("part", Value::U64(index as u64));
                4
            }
            None => 3,
        };
        let exec_span = self
            .pool
            .tracer
            .open("execute", dispatch, &exec_attrs[..exec_attr_count]);

        let instructions = match relocate(compiled.instructions, &digital_map, &analog_map) {
            Ok(instructions) => instructions,
            Err(e) => {
                self.pool
                    .tracer
                    .close(exec_span, 0.0, &[("outcome", Value::Str("err"))]);
                report.output = Err(e);
                return report;
            }
        };

        // A digital tile draws its devices when it is first leased, not
        // when the pool is built. The lease's undrawn tiles draw side by
        // side, each under a root span inside this job's execute
        // interval, so the one-off cost shows in traces without joining
        // the job's own span tree.
        let undrawn: Vec<usize> = digital_map
            .iter()
            .copied()
            .filter(|&tile| !self.accelerator.digital_fabricated(tile))
            .collect();
        if let Some((&first, rest)) = undrawn.split_first() {
            let (accelerator, tracer) = (&self.accelerator, &self.pool.tracer);
            let fabricate = |tile: usize| {
                let span = tracer.open(
                    "fabricate",
                    SpanId::NONE,
                    &[
                        ("shard", Value::U64(shard as u64)),
                        ("tile", Value::U64(tile as u64)),
                        ("job", Value::U64(compiled.job.0)),
                    ],
                );
                accelerator.fabricate_digital(tile);
                tracer.close(span, 0.0, &[]);
            };
            std::thread::scope(|scope| {
                for &tile in rest {
                    scope.spawn(move || fabricate(tile));
                }
                fabricate(first);
            });
        }

        // Track what the job touches so it can be scrubbed afterwards.
        // Dataset queries write only scratch rows (their StoreLast
        // write-backs), so the resident rows survive for the next query.
        let written: BTreeSet<(usize, usize)> = written_rows(&instructions).collect();
        let programmed: BTreeSet<usize> = instructions
            .iter()
            .filter_map(|i| match i {
                CimInstruction::ProgramMatrix { tile, .. } => Some(*tile),
                _ => None,
            })
            .collect();

        // The device delta is taken before the scrub so the job's
        // counters reflect only its own work, not lease maintenance.
        let (executed, stats, device) =
            self.execute(instructions, compiled.seed, &compiled.outputs);
        let outcome = Value::Str(if executed.is_ok() { "ok" } else { "err" });
        self.pool
            .tracer
            .close(exec_span, stats.busy_time.0, &[("outcome", outcome)]);
        report.maintenance = self.scrub(written, programmed);
        report.output = executed
            .and_then(|outputs| {
                // Split parts skip the finalize span: the parent's single
                // finalize runs host-side at gather completion.
                let finalize = match part {
                    None => self.pool.tracer.open("finalize", root, &[]),
                    Some(_) => SpanId::NONE,
                };
                let output = contain(|| compiled.finalizer.finalize(outputs));
                self.pool.tracer.close(finalize, 0.0, &[]);
                output
            })
            .map_err(|message| JobError::ExecutionPanic { message });
        report.stats = stats;
        report.device = device;
        report
    }
}
