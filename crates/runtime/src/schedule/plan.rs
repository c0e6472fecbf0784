//! Planning: turning the pending queue into per-shard batches —
//! deterministic shard selection, cross-shard scatter of oversized
//! jobs, cost-aware batch packing — and marking the planned jobs
//! dispatched in the job table.

use super::worker::{Batch, PlacedJob};
use super::{complete, unexecuted_report, GatherState, JobState, PoolConfig, PoolState};
use crate::compile::{split_by_digital_tile, CompiledJob};
use crate::job::{JobError, JobRoute};
use crate::trace::{Attr, Tracer};
use cim_obs::{SpanId, Value};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Marks every planned job as dispatched; stamps the dispatch
/// wall-clock, closes the queue span and opens one `dispatch` span per
/// placed part (a split job dispatches several).
pub(super) fn mark_dispatched(st: &mut PoolState, tracer: &Tracer, batches: &mut [(usize, Batch)]) {
    let now = Instant::now();
    for (shard, batch) in batches.iter_mut() {
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

/// A dataset's pinned physical `(digital, analog)` tiles on one shard;
/// `None` for a fresh lease.
type Pins = Option<(Vec<usize>, Vec<usize>)>;

/// A pending job routed to its shard, with pinned tile maps resolved
/// for dataset jobs.
struct RoutedJob {
    compiled: CompiledJob,
    pinned: Pins,
    /// `Some(index)` for one sub-program of a cross-shard split job.
    part: Option<u32>,
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

/// Charges `cost` envelope units routed to `shard` to the routing
/// ledger `loads`, then bounds the debt: every shard is raised to at
/// least the busiest shard's load minus one batch's cost budget, and the
/// least-loaded shard is rebased to zero. A shard that sat pinned or
/// idle therefore catches up for at most one batch budget before routing
/// alternates again, and the ledger never grows without bound.
fn charge(loads: &mut [u64], shard: usize, cost: u64, cfg: &PoolConfig) {
    loads[shard] = loads[shard].saturating_add(cost);
    let busiest = loads.iter().copied().max().unwrap_or(0);
    let floor = busiest.saturating_sub(cfg.max_batch_cost);
    let min = loads.iter().map(|&load| load.max(floor)).min().unwrap_or(0);
    for load in loads {
        *load = (*load).max(floor) - min;
    }
}

/// Splits `job` into one part per `(shard, tiles, pins)` chunk,
/// registers its gather state in the job table and queues the parts on
/// their shards. `pins` are a dataset query's pinned tiles on the shard
/// (`None` for a fresh lease).
fn scatter(
    st: &mut PoolState,
    cfg: &PoolConfig,
    job: CompiledJob,
    chunks: &[(usize, usize, Pins)],
    queues: &mut [Vec<RoutedJob>],
    loads: &mut [u64],
) {
    let sizes: Vec<usize> = chunks.iter().map(|&(_, n, _)| n).collect();
    let parts = split_by_digital_tile(&job, &sizes, cfg);
    if let Some(entry) = st.jobs.get_mut(&job.job.0) {
        entry.gather = Some(Box::new(GatherState {
            expected: parts.len(),
            parts: BTreeMap::new(),
            finalizer: Arc::clone(&job.finalizer),
            span: SpanId::NONE,
        }));
    }
    for (index, (part, (shard, _, pinned))) in parts.into_iter().zip(chunks).enumerate() {
        charge(loads, *shard, part.envelope.cost_units, cfg);
        queues[*shard].push(RoutedJob {
            compiled: part,
            pinned: pinned.clone(),
            part: Some(index as u32),
        });
    }
}

impl RoutedJob {
    /// Places the job on its shard: a dataset job maps onto its pinned
    /// tiles; a fresh lease takes the next free tiles after `used`
    /// (digital, analog), which it advances.
    fn place(self, free: (&[usize], &[usize]), used: &mut (usize, usize)) -> PlacedJob {
        let (digital_map, analog_map) = match self.pinned {
            Some(pins) => pins,
            None => {
                let need = self.compiled.demand;
                let maps = (
                    free.0[used.0..used.0 + need.digital].to_vec(),
                    free.1[used.1..used.1 + need.analog].to_vec(),
                );
                *used = (used.0 + need.digital, used.1 + need.analog);
                maps
            }
        };
        PlacedJob {
            compiled: self.compiled,
            digital_map,
            analog_map,
            part: self.part,
            root: SpanId::NONE,
            dispatch: SpanId::NONE,
        }
    }
}

/// Plans the pending queue: deterministic shard selection, cost-aware
/// batch packing over free (un-pinned) tiles, shortest-job-first
/// ordering — and cross-shard scatter for jobs (or dataset queries)
/// whose tiles span more than one shard. Returns `(shard, batch)` pairs
/// in dispatch order.
pub(super) fn plan(st: &mut PoolState, cfg: &PoolConfig, tracer: &Tracer) -> Vec<(usize, Batch)> {
    let max_batch_jobs = cfg.max_batch_jobs.max(1);
    let mut queues: Vec<Vec<RoutedJob>> = (0..cfg.shards).map(|_| Vec::new()).collect();
    // Every pass starts from the cost earlier passes routed, so routing
    // depends on the submission order alone, not on how submissions were
    // grouped into flushes.
    let mut loads = std::mem::take(&mut st.shard_load);
    let mut failures: Vec<(CompiledJob, usize, JobError)> = Vec::new();

    // 1. Route jobs to shards, in job-id order so the plan is a pure
    // function of submission order even when sessions submitted
    // concurrently.
    let mut pending = std::mem::take(&mut st.pending);
    pending.sort_by_key(|job| job.job);
    for job in pending {
        let Some(id) = job.dataset else {
            // Least-loaded shard whose free (un-pinned) tiles fit the
            // lease. A splittable job no single shard can hold scatters
            // across shards by free capacity instead. If neither works
            // (datasets pinned tiles after submit-time validation),
            // fall back to the least-loaded shard and let packing fail
            // the job cleanly with `AdmissionFailed`.
            let fits = |s: usize| {
                let (fd, fa) = st.free(cfg, s);
                job.demand.digital <= fd && job.demand.analog <= fa
            };
            let fitting = (0..cfg.shards)
                .filter(|&s| fits(s))
                .min_by_key(|&s| (loads[s], s));
            if fitting.is_none() && job.splittable && job.demand.analog == 0 {
                match scatter_assignment(cfg.shards, |s| st.free(cfg, s).0, job.demand.digital) {
                    Some(assignment) => {
                        let chunks: Vec<_> =
                            assignment.iter().map(|&(s, n)| (s, n, None)).collect();
                        scatter(st, cfg, job, &chunks, &mut queues, &mut loads);
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
            charge(&mut loads, shard, job.envelope.cost_units, cfg);
            queues[shard].push(RoutedJob {
                compiled: job,
                pinned: None,
                part: None,
            });
            continue;
        };
        let Some(record) = st.datasets.get(&id.0) else {
            failures.push((job, 0, JobError::DatasetReleased { dataset: id }));
            continue;
        };
        let chunks: Vec<_> = record
            .placements
            .iter()
            .map(|p| {
                let pins = (p.digital_tiles.clone(), p.analog_tiles.clone());
                (p.shard, p.digital_tiles.len(), Some(pins))
            })
            .collect();
        if let [(shard, _, pinned)] = &chunks[..] {
            charge(&mut loads, *shard, job.envelope.cost_units, cfg);
            queues[*shard].push(RoutedJob {
                compiled: job,
                pinned: pinned.clone(),
                part: None,
            });
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
            failures.push((job, record.primary_shard(), error));
        } else {
            // The dataset spans shards: scatter the query so each chunk
            // of reductions runs on the shard pinning its tiles,
            // gathered host-side.
            scatter(st, cfg, job, &chunks, &mut queues, &mut loads);
        }
    }
    st.shard_load = loads;

    // 2. Pack per-shard batches.
    let mut out = Vec::new();
    for (shard, mut queue) in queues.into_iter().enumerate() {
        let free_digital: Vec<usize> = (0..cfg.digital_tiles)
            .filter(|t| !st.pinned_digital[shard].contains(t))
            .collect();
        let free_analog: Vec<usize> = (0..cfg.analog_tiles)
            .filter(|t| !st.pinned_analog[shard].contains(t))
            .collect();
        let free = (&free_digital[..], &free_analog[..]);
        let mut batches: Vec<(u64, Vec<PlacedJob>)> = Vec::new();
        while !queue.is_empty() {
            let first = queue.remove(0);
            let (kind, dataset) = (first.compiled.kind, first.compiled.dataset);
            let need = first.compiled.demand;
            if first.pinned.is_none()
                && (need.digital > free_digital.len() || need.analog > free_analog.len())
            {
                let error = JobError::AdmissionFailed {
                    digital_required: need.digital,
                    digital_free: free_digital.len(),
                    analog_required: need.analog,
                    analog_free: free_analog.len(),
                };
                failures.push((first.compiled, shard, error));
                continue;
            }
            let mut batch_cost = first.compiled.envelope.cost_units;
            // Dataset jobs share their pinned tiles and consume no free
            // budget.
            let mut used = (0, 0);
            let mut jobs = vec![first.place(free, &mut used)];

            // Coalesce compatible jobs from anywhere in the shard
            // queue, preserving their relative order. Jobs are
            // order-independent by construction (private noise
            // streams, exclusive or serially-shared leases), so
            // pulling a same-kind job forward cannot change any
            // result.
            let mut i = 0;
            while jobs.len() < max_batch_jobs && i < queue.len() {
                let candidate = &queue[i].compiled;
                let fits = candidate.kind == kind
                    && candidate.dataset == dataset
                    && batch_cost + candidate.envelope.cost_units <= cfg.max_batch_cost
                    && (dataset.is_some()
                        || (used.0 + candidate.demand.digital <= free_digital.len()
                            && used.1 + candidate.demand.analog <= free_analog.len()));
                if fits {
                    let routed = queue.remove(i);
                    batch_cost += routed.compiled.envelope.cost_units;
                    jobs.push(routed.place(free, &mut used));
                } else {
                    i += 1;
                }
            }

            // Shortest job first inside the batch: a cheap co-batched
            // job reports before an expensive one.
            jobs.sort_by_key(|p| (p.compiled.envelope.cost_units, p.compiled.job));
            batches.push((batch_cost, jobs));
        }
        // Cheapest batch first on the shard, for the same reason.
        batches.sort_by_key(|(cost, jobs)| (*cost, jobs.iter().map(|p| p.compiled.job).min()));
        for (_, jobs) in batches {
            out.push((
                shard,
                Batch {
                    id: st.next_batch,
                    jobs,
                },
            ));
            st.next_batch += 1;
        }
    }

    // Jobs that failed at planning never reach a shard: they end here.
    for (compiled, shard, error) in failures {
        let report = unexecuted_report(&compiled, shard, JobRoute::Cim, Err(error));
        complete(st, tracer, report, []);
    }
    out
}
