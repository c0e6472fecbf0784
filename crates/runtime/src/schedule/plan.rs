//! Planning: turning the pending queue into one batch per shard —
//! deterministic shard selection, rotation over a dataset's copies,
//! tile placement, cross-shard scatter of oversized jobs, erasing the
//! replicas a lease reclaims — and marking the planned jobs dispatched
//! in the job table.

use super::worker::{Batch, PlacedJob, Tiles, WorkerMsg};
use super::{complete, unexecuted_report, GatherState, JobState, PoolConfig, PoolState};
use crate::compile::{split_by_digital_tile, CompiledJob, TileDemand};
use crate::job::{JobError, JobRoute};
use crate::trace::{Attr, Tracer};
use cim_obs::{SpanId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Marks every planned job as dispatched; stamps the dispatch
/// wall-clock, closes the queue span and opens one `dispatch` span per
/// placed part (a split job dispatches several).
pub(super) fn mark_dispatched(
    st: &mut PoolState,
    tracer: &Tracer,
    messages: &mut [(usize, WorkerMsg)],
) {
    let now = Instant::now();
    for (shard, message) in messages.iter_mut() {
        let WorkerMsg::Batch(batch) = message else {
            continue;
        };
        let batch_id = batch.id;
        for placed in batch.jobs.iter_mut() {
            let Some(entry) = st.jobs.get_mut(&placed.compiled.job.0) else {
                continue;
            };
            if matches!(entry.state, JobState::Queued) {
                entry.state = JobState::Dispatched;
            }
            if entry.dispatched.is_none() {
                entry.dispatched = Some(now);
                tracer.close(entry.queue, 0.0, &[]);
                entry.queue = SpanId::NONE;
            }
            placed.root = entry.root;
            let mut attrs: [Attr; 3] = [
                ("shard", Value::U64(*shard as u64)),
                ("batch", Value::U64(batch_id)),
                ("part", Value::U64(0)),
            ];
            let count = match placed.part {
                Some(part) => {
                    attrs[2] = ("part", Value::U64(part as u64));
                    3
                }
                None => 2,
            };
            placed.dispatch = tracer.open("dispatch", entry.root, &attrs[..count]);
        }
    }
}

/// Greedy digital-tile scatter used by both dataset pins and fresh-job
/// splits: assigns `demand` tiles across shards as `(shard, tiles)`
/// chunks, most free tiles first (fewest chunks), ties to the lowest
/// index — a pure function of the free counts, so placement stays
/// deterministic and identical for the two callers. Returns `None`
/// when the free tiles cannot cover the demand.
pub(super) fn scatter_assignment(
    shards: usize,
    free_digital: impl Fn(usize) -> usize,
    demand: usize,
) -> Option<Vec<(usize, usize)>> {
    let mut order: Vec<usize> = (0..shards).collect();
    order.sort_by_key(|&s| (std::cmp::Reverse(free_digital(s)), s));
    let mut assignment = Vec::new();
    let mut remaining = demand;
    for s in order {
        if remaining == 0 {
            break;
        }
        let take = free_digital(s).min(remaining);
        if take > 0 {
            assignment.push((s, take));
            remaining -= take;
        }
    }
    (remaining == 0).then_some(assignment)
}

/// Traces the reclaim of `dataset`'s replica on `shard` as a closed
/// root `replica_reclaim` span.
pub(super) fn trace_reclaim(tracer: &Tracer, dataset: u64, shard: usize) {
    let span = tracer.open(
        "replica_reclaim",
        SpanId::NONE,
        &[
            ("dataset", Value::U64(dataset)),
            ("shard", Value::U64(shard as u64)),
        ],
    );
    tracer.close(span, 0.0, &[]);
}

/// The most a shard may trail the busiest shard in the routing ledger,
/// in envelope cost units. A shard that sat pinned or idle catches up
/// for at most this much work before routing alternates again.
pub(crate) const MAX_ROUTING_DEBT: u64 = 1 << 14;

/// Charges `cost` envelope units routed to `shard` to the routing
/// ledger `loads`, then bounds the debt: every shard is raised to at
/// least the busiest shard's load minus [`MAX_ROUTING_DEBT`], and the
/// least-loaded shard is rebased to zero, so the ledger never grows
/// without bound.
fn charge(loads: &mut [u64], shard: usize, cost: u64) {
    loads[shard] = loads[shard].saturating_add(cost);
    let busiest = loads.iter().copied().max().unwrap_or(0);
    let floor = busiest.saturating_sub(MAX_ROUTING_DEBT);
    let min = loads.iter().map(|&load| load.max(floor)).min().unwrap_or(0);
    for load in loads {
        *load = (*load).max(floor) - min;
    }
}

/// Splits `job` into one part per `(shard, tiles)` chunk, registers
/// its gather state in the job table and places each part on its shard
/// over the chunk's physical `(digital, analog)` tiles.
fn scatter(
    st: &mut PoolState,
    cfg: &PoolConfig,
    job: CompiledJob,
    chunks: Vec<(usize, Tiles)>,
    queues: &mut [Vec<PlacedJob>],
    loads: &mut [u64],
) {
    let sizes: Vec<usize> = chunks.iter().map(|(_, tiles)| tiles.0.len()).collect();
    let parts = split_by_digital_tile(&job, &sizes, cfg);
    if let Some(entry) = st.jobs.get_mut(&job.job.0) {
        entry.gather = Some(Box::new(GatherState {
            expected: parts.len(),
            parts: BTreeMap::new(),
            finalizer: Arc::clone(&job.finalizer),
            span: SpanId::NONE,
        }));
    }
    for (index, (part, (shard, tiles))) in parts.into_iter().zip(chunks).enumerate() {
        charge(loads, shard, part.envelope.cost_units);
        queues[shard].push(PlacedJob::new(part, tiles, Some(index as u32)));
    }
}

/// What a planning pass sends one shard, in order: batches of placed
/// jobs, and the erases of the replicas a lease reclaimed.
enum Step {
    Batch(Vec<PlacedJob>),
    Erase(Vec<usize>),
}

/// Plans the pending queue: routes each job to a shard and places it
/// there as it goes — a fresh lease on the shard's leading free
/// (un-pinned) tiles, a dataset job on the tiles of the dataset copy
/// whose turn it is — and scatters jobs (or dataset queries) whose
/// tiles span more than one shard. Each shard's share of the pass ships
/// as one batch, cheapest job first, unless a lease reclaims a replica
/// there: then the jobs planned so far ship first, the replica's erase
/// next, and the rest in a second batch. Returns `(shard, message)`
/// pairs in dispatch order.
pub(super) fn plan(
    st: &mut PoolState,
    cfg: &PoolConfig,
    tracer: &Tracer,
) -> Vec<(usize, WorkerMsg)> {
    let mut queues: Vec<Vec<PlacedJob>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    let mut closed: Vec<Vec<Step>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    // Every pass starts from the cost earlier passes routed, so routing
    // depends on the submission order alone, not on how submissions were
    // grouped into flushes.
    let mut loads = std::mem::take(&mut st.shard_load);
    let mut failures: Vec<(CompiledJob, usize, JobError)> = Vec::new();

    // Route jobs in job-id order, so the plan is a pure function of
    // submission order even when sessions submitted concurrently.
    let mut pending = std::mem::take(&mut st.pending);
    pending.sort_by_key(|job| job.job);
    for job in pending {
        let Some(id) = job.dataset else {
            // Least-loaded shard whose free (un-pinned) tiles fit the
            // lease. A splittable job no single shard can hold scatters
            // across shards by free capacity instead. If neither works
            // (datasets pinned tiles after submit-time validation),
            // fall back to the least-loaded shard and fail the job
            // cleanly there with `AdmissionFailed`.
            let fitting = (0..cfg.shards)
                .filter(|&s| st.fits(cfg, s, job.demand))
                .min_by_key(|&s| (loads[s], s));
            if fitting.is_none() && job.splittable && job.demand.analog == 0 {
                match scatter_assignment(cfg.shards, |s| st.free(cfg, s).0, job.demand.digital) {
                    Some(assignment) => {
                        // Digital tiles only, so no replica is reclaimed.
                        let chunks = assignment
                            .into_iter()
                            .map(|(s, n)| (s, st.lease(cfg, s, TileDemand::digital(n)).0))
                            .collect();
                        scatter(st, cfg, job, chunks, &mut queues, &mut loads);
                    }
                    None => {
                        // Pool-wide free shrank since submit validation:
                        // fail cleanly, like the single-shard path.
                        let error = JobError::AdmissionFailed {
                            digital_required: job.demand.digital,
                            digital_free: (0..cfg.shards).map(|s| st.free(cfg, s).0).sum(),
                            analog_required: 0,
                            analog_free: 0,
                        };
                        failures.push((job, 0, error));
                    }
                }
                continue;
            }
            let shard = fitting
                .or_else(|| (0..cfg.shards).min_by_key(|&s| (loads[s], s)))
                .unwrap_or_else(|| unreachable!("at least one shard"));
            charge(&mut loads, shard, job.envelope.cost_units);
            if fitting.is_some() {
                let (tiles, reclaimed) = st.lease(cfg, shard, job.demand);
                if !reclaimed.is_empty() {
                    // The queries already routed to a reclaimed copy run
                    // before the shard erases it.
                    let planned = std::mem::take(&mut queues[shard]);
                    if !planned.is_empty() {
                        closed[shard].push(Step::Batch(planned));
                    }
                    for (dataset, tiles) in reclaimed {
                        trace_reclaim(tracer, dataset, shard);
                        closed[shard].push(Step::Erase(tiles));
                    }
                }
                queues[shard].push(PlacedJob::new(job, tiles, None));
            } else {
                let (digital_free, analog_free) = st.free(cfg, shard);
                let error = JobError::AdmissionFailed {
                    digital_required: job.demand.digital,
                    digital_free,
                    analog_required: job.demand.analog,
                    analog_free,
                };
                failures.push((job, shard, error));
            }
            continue;
        };
        let Some(record) = st.datasets.get_mut(&id.0) else {
            failures.push((job, 0, JobError::DatasetReleased { dataset: id }));
            continue;
        };
        let mut chunks: Vec<(usize, Tiles)> = record
            .route()
            .iter()
            .map(|p| (p.shard, (p.digital_tiles.clone(), p.analog_tiles.clone())))
            .collect();
        if chunks.len() == 1 {
            let (shard, tiles) = chunks.swap_remove(0);
            charge(&mut loads, shard, job.envelope.cost_units);
            queues[shard].push(PlacedJob::new(job, tiles, None));
        } else if !job.splittable || job.demand.analog != 0 {
            // A query that cannot be tile-split against a dataset that
            // spans shards: no shard can run it whole. Raw queries are
            // never splittable, so a `RawQuery` over a dataset scattered
            // across shards fails here.
            let error = JobError::WorkloadTooLarge {
                digital_required: job.demand.digital,
                analog_required: job.demand.analog,
                digital_capacity: cfg.digital_tiles,
                analog_capacity: cfg.analog_tiles,
            };
            failures.push((job, chunks[0].0, error));
        } else {
            // The dataset spans shards: scatter the query so each chunk
            // of reductions runs on the shard pinning its tiles,
            // gathered host-side.
            scatter(st, cfg, job, chunks, &mut queues, &mut loads);
        }
    }
    st.shard_load = loads;

    // One batch per shard (or per side of a reclaim), cheapest job
    // first, so a cheap job is never head-of-line blocked behind an
    // expensive one planned for the same shard. Jobs in a batch may
    // share tiles: the worker scrubs each lease before the next job
    // runs.
    let mut out = Vec::new();
    for (shard, (mut steps, jobs)) in closed.into_iter().zip(queues).enumerate() {
        if !jobs.is_empty() {
            steps.push(Step::Batch(jobs));
        }
        for step in steps {
            let message = match step {
                Step::Batch(mut jobs) => {
                    jobs.sort_by_key(|p| (p.compiled.envelope.cost_units, p.compiled.job));
                    st.next_batch += 1;
                    WorkerMsg::Batch(Batch {
                        id: st.next_batch - 1,
                        jobs,
                    })
                }
                Step::Erase(analog_tiles) => WorkerMsg::ReleaseDataset {
                    rows: Vec::new(),
                    analog_tiles,
                },
            };
            out.push((shard, message));
        }
    }

    // Jobs that failed at planning never reach a shard: they end here.
    for (compiled, shard, error) in failures {
        let report = unexecuted_report(&compiled, shard, JobRoute::Cim, Err(error));
        complete(st, tracer, report, []);
    }
    out
}
