//! The telemetry layer: per-job, per-tenant, per-dataset and pool-wide
//! accounting.
//!
//! Every executed job yields an [`ExecutionStats`] delta measured on its
//! shard; the pool aggregates those deltas here. The invariant the
//! integration tests pin: the pool-wide stats are exactly the sum of the
//! per-job stats (scrubbing overhead is accounted separately as
//! maintenance, never attributed to tenants).
//!
//! Resident datasets get a second ledger: their one-time load cost is
//! recorded in [`DatasetUsage::load_stats`] and
//! [`DatasetUsage::load_device`], *never* in the per-job stats, while
//! every query against the dataset accumulates into
//! [`DatasetUsage::query_stats`]. The split makes the amortization the
//! paper argues for directly measurable: load writes are paid once,
//! queries carry only query-side operations. Entries survive release,
//! so the map alone holds the pool's whole load record.

use crate::job::{DatasetId, JobReport, JobRoute, TenantId};
use cim_core::{DeviceCounters, ExecutionStats};
use cim_crossbar::energy::OperationCost;
use cim_simkit::units::Seconds;
use std::collections::BTreeMap;
use std::fmt;

/// Aggregated usage of one tenant.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct TenantUsage {
    /// Jobs completed successfully.
    pub jobs: u64,
    /// Jobs rejected by validation (tile faults etc.).
    pub failed: u64,
    /// Accumulated execution statistics of the tenant's jobs.
    pub stats: ExecutionStats,
}

/// One exact copy of a resident dataset: the primary (for a dataset
/// spread over several shards, its first chunk's shard) or a replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DatasetCopy {
    /// The shard holding the copy.
    pub shard: usize,
    /// Queries the copy served.
    pub queries: u64,
    /// Whether a lease or a pin took the copy's tiles; a reclaimed copy
    /// serves no further query.
    pub reclaimed: bool,
}

/// Load-vs-query accounting of one resident dataset.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DatasetUsage {
    /// The owning tenant.
    pub tenant: u32,
    /// What is resident (`"q6-table"`, `"hdc-prototypes"`,
    /// `"nn-weights"`, `"cam-rules"`, `"cam-keys"`), recorded when the
    /// load completes.
    pub kind: &'static str,
    /// Bytes resident in the pinned tiles.
    pub resident_bytes: u64,
    /// The one-time load program's statistics (bin writes / matrix
    /// programming), summed over every copy's load. Paid once per copy
    /// at registration, kept out of every per-job stat.
    pub load_stats: ExecutionStats,
    /// Queries served against the dataset so far.
    pub queries: u64,
    /// Accumulated query-side statistics (reductions, MVMs, scratch
    /// write-backs — no resident-data writes).
    pub query_stats: ExecutionStats,
    /// Device-tier counters of the one-time load (word writes,
    /// program-and-verify pulses).
    pub load_device: DeviceCounters,
    /// Accumulated device-tier counters of the queries served.
    pub query_device: DeviceCounters,
    /// The dataset's copies, primary first, then its replicas in shard
    /// order, each with the queries it served.
    pub copies: Vec<DatasetCopy>,
}

impl DatasetUsage {
    /// Load-side row writes amortized over the queries served: the
    /// number the resident-dataset design exists to drive down. With no
    /// queries yet, this is the full (unamortized) load cost.
    pub fn amortized_load_writes_per_query(&self) -> f64 {
        self.load_stats.row_writes as f64 / (self.queries.max(1)) as f64
    }
}

/// Pool-wide aggregation across jobs, tenants and shards.
#[derive(Debug, Clone, Default)]
pub struct PoolTelemetry {
    /// Jobs reported (completed or failed).
    pub jobs: u64,
    /// Jobs that failed validation.
    pub failures: u64,
    /// Batches dispatched.
    pub batches: u64,
    /// Sum of all per-job execution statistics.
    pub pool: ExecutionStats,
    /// Per-tenant aggregation, keyed by tenant id.
    pub per_tenant: BTreeMap<u32, TenantUsage>,
    /// Per-dataset load-vs-query aggregation, keyed by dataset id.
    /// Entries survive dataset release so the amortization record is
    /// not lost with the lease.
    pub datasets: BTreeMap<u64, DatasetUsage>,
    /// Per-shard aggregation, indexed by shard.
    pub per_shard: Vec<ExecutionStats>,
    /// Scrubbing overhead (tile hygiene between tenants), kept separate
    /// from tenant-attributed work.
    pub maintenance: OperationCost,
    /// Sum of per-job device-tier counters (word accesses, sampled
    /// columns, program-and-verify pulses, MVM noise samples) — the
    /// physical cost drivers behind [`PoolTelemetry::pool`].
    pub device: DeviceCounters,
    /// Jobs the offload planner served on the host lane, off the
    /// shards.
    pub host_routed: u64,
}

impl PoolTelemetry {
    /// Creates telemetry for a pool of `shards` shards.
    pub(crate) fn new(shards: usize) -> Self {
        PoolTelemetry {
            per_shard: vec![ExecutionStats::default(); shards],
            ..PoolTelemetry::default()
        }
    }

    /// Folds one job report into the aggregates: the
    /// job/tenant/pool/dataset aggregates count it once (a
    /// scatter-gathered job's stats are the sub-program sum —
    /// `ExecutionStats` stays additive), while the per-shard ledgers are
    /// credited with each `(shard, stats)` part of `shard_stats`, so
    /// [`PoolTelemetry::simulated_makespan`] reflects the actual
    /// cross-shard parallelism of a split job instead of piling the
    /// whole job onto one shard.
    pub(crate) fn record_gathered(
        &mut self,
        report: &JobReport,
        shard_stats: impl IntoIterator<Item = (usize, ExecutionStats)>,
    ) {
        self.jobs += 1;
        let tenant = self.per_tenant.entry(report.tenant.0).or_default();
        match &report.output {
            Ok(_) => {
                tenant.jobs += 1;
                if report.route == JobRoute::Host {
                    self.host_routed += 1;
                }
            }
            Err(_) => {
                tenant.failed += 1;
                self.failures += 1;
            }
        }
        tenant.stats.accumulate(&report.stats);
        self.pool.accumulate(&report.stats);
        self.device.accumulate(&report.device);
        for (shard, stats) in shard_stats {
            if let Some(entry) = self.per_shard.get_mut(shard) {
                entry.accumulate(&stats);
            }
        }
        if let Some(dataset) = report.dataset {
            // A host-routed dataset query never read the resident
            // tiles: it must not inflate the dataset's query count (the
            // amortization denominator) or its device ledgers.
            if report.route == JobRoute::Cim {
                let usage = self.datasets.entry(dataset.0).or_default();
                if report.output.is_ok() {
                    usage.queries += 1;
                    // A copy serves a whole query on one shard, and no
                    // shard holds two copies of a dataset; a query
                    // scattered over a dataset's chunks reports the first
                    // chunk's shard, the primary's. A replica reclaimed
                    // after the plan routed a query to it still ran it.
                    if let Some(copy) = usage.copies.iter_mut().find(|c| c.shard == report.shard) {
                        copy.queries += 1;
                    }
                }
                usage.query_stats.accumulate(&report.stats);
                usage.query_device.accumulate(&report.device);
            }
        }
        self.maintenance = self.maintenance.then(report.maintenance);
    }

    /// Records a dataset's one-time load program. Load stats live in
    /// the dataset ledger, never in per-job stats — that separation
    /// *is* the amortization measurement.
    pub(crate) fn record_dataset_load(
        &mut self,
        dataset: DatasetId,
        tenant: TenantId,
        kind: &'static str,
        resident_bytes: u64,
        stats: &ExecutionStats,
        device: &DeviceCounters,
    ) {
        let usage = self.datasets.entry(dataset.0).or_default();
        usage.tenant = tenant.0;
        usage.kind = kind;
        usage.resident_bytes = resident_bytes;
        usage.load_stats.accumulate(stats);
        usage.load_device.accumulate(device);
    }

    /// Records where a dataset's copies sit when it registers: the
    /// primary's shard first, then each replica's.
    pub(crate) fn record_copies<'a>(
        &mut self,
        dataset: DatasetId,
        shards: impl IntoIterator<Item = &'a usize>,
    ) {
        self.datasets.entry(dataset.0).or_default().copies = shards
            .into_iter()
            .map(|&shard| DatasetCopy {
                shard,
                ..DatasetCopy::default()
            })
            .collect();
    }

    /// Marks a dataset's replica on `shard` reclaimed.
    pub(crate) fn record_reclaim(&mut self, dataset: DatasetId, shard: usize) {
        if let Some(copy) = self
            .datasets
            .get_mut(&dataset.0)
            .and_then(|usage| usage.copies.iter_mut().find(|c| c.shard == shard))
        {
            copy.reclaimed = true;
        }
    }

    /// Total simulated accelerator busy time attributed to jobs.
    pub fn simulated_busy(&self) -> Seconds {
        self.pool.busy_time
    }

    /// Simulated makespan of the served work: shards execute in
    /// parallel, so the pool finishes when its busiest shard does. This
    /// is the number that scales with shard count (the simulator's own
    /// wall-clock does not parallelize on a single host core).
    pub fn simulated_makespan(&self) -> Seconds {
        self.per_shard
            .iter()
            .map(|s| s.busy_time)
            .fold(Seconds::ZERO, Seconds::max)
    }
}

impl fmt::Display for PoolTelemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pool: {} jobs ({} failed) in {} batches, {} instructions",
            self.jobs,
            self.failures,
            self.batches,
            self.pool.instructions()
        )?;
        writeln!(
            f,
            "  energy {:.3e} J, busy {:.3e} s, maintenance {:.3e} J",
            self.pool.energy.0, self.pool.busy_time.0, self.maintenance.energy.0,
        )?;
        if self.host_routed > 0 {
            writeln!(f, "  host lane: {} jobs routed", self.host_routed)?;
        }
        writeln!(
            f,
            "  device: {} word accesses, {} sampled columns, {} program pulses, \
             {} noise samples (+{} pulses in dataset loads)",
            self.device.word_accesses,
            self.device.sampled_columns,
            self.device.program_pulses,
            self.device.noise_samples,
            self.datasets
                .values()
                .map(|usage| usage.load_device.program_pulses)
                .sum::<u64>()
        )?;
        for (tenant, usage) in &self.per_tenant {
            writeln!(
                f,
                "  tenant {tenant}: {} ok / {} failed, {} instr, {:.3e} J",
                usage.jobs,
                usage.failed,
                usage.stats.instructions(),
                usage.stats.energy.0
            )?;
        }
        for (dataset, usage) in &self.datasets {
            writeln!(
                f,
                "  dataset {dataset} [{}] (tenant {}): load {} instr / {:.3e} J once, \
                 {} queries ({} instr), {:.1} load-writes/query amortized",
                usage.kind,
                usage.tenant,
                usage.load_stats.instructions(),
                usage.load_stats.energy.0,
                usage.queries,
                usage.query_stats.instructions(),
                usage.amortized_load_writes_per_query()
            )?;
            if usage.copies.len() > 1 {
                let copies: Vec<String> = usage
                    .copies
                    .iter()
                    .map(|c| {
                        let gone = if c.reclaimed { ", reclaimed" } else { "" };
                        format!("shard {} ({} queries{gone})", c.shard, c.queries)
                    })
                    .collect();
                writeln!(f, "    copies: {}", copies.join(", "))?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{JobError, JobId, JobKind, JobOutput, JobReport};
    use cim_simkit::units::Joules;

    /// A report of job `job` of tenant 0 on shard 0.
    fn report(job: u64, route: JobRoute, output: Result<JobOutput, JobError>) -> JobReport {
        let shards = if route == JobRoute::Host {
            Vec::new()
        } else {
            vec![0]
        };
        JobReport {
            shards,
            batch: job,
            ..JobReport::new(
                JobId(job),
                TenantId(0),
                JobKind::XorEncrypt,
                None,
                route,
                output,
            )
        }
    }

    #[test]
    fn telemetry_tracks_shards_independently() {
        let t = PoolTelemetry::new(3);
        assert_eq!(t.per_shard.len(), 3);
    }

    /// A failed job counts as a failure, yet its stats still fold into
    /// the pool and tenant ledgers: a gathered split job burns real
    /// work on its other parts before one part fails.
    #[test]
    fn failed_jobs_keep_their_stats_in_the_ledgers() {
        let worked = ExecutionStats {
            logic_ops: 5,
            energy: Joules(1.0),
            busy_time: Seconds(0.5),
            ..ExecutionStats::default()
        };
        let mut t = PoolTelemetry::new(1);
        for output in [
            Ok(JobOutput::Cipher(vec![1])),
            Ok(JobOutput::Cipher(vec![2])),
            // A failure that still burned simulated work, like a
            // gathered split job whose last part panicked.
            Err(JobError::ExecutionPanic {
                message: "boom".into(),
            }),
        ] {
            let r = JobReport {
                stats: worked,
                ..report(t.jobs, JobRoute::Cim, output)
            };
            t.record_gathered(&r, [(r.shard, r.stats)]);
        }

        assert_eq!(t.jobs, 3);
        assert_eq!(t.failures, 1);
        assert_eq!((t.per_tenant[&0].jobs, t.per_tenant[&0].failed), (2, 1));
        // The failed job's stats are in the pool ledger.
        assert_eq!(t.pool.logic_ops, 15);
    }

    /// A host-routed job counts for its tenant and in
    /// [`PoolTelemetry::host_routed`], and the Display output advertises
    /// the host lane exactly when something was routed there.
    #[test]
    fn host_routed_jobs_are_counted_and_displayed() {
        let mut t = PoolTelemetry::new(1);
        for (job, route) in [JobRoute::Cim, JobRoute::Host, JobRoute::Host]
            .into_iter()
            .enumerate()
        {
            let r = report(job as u64, route, Ok(JobOutput::Cipher(vec![1])));
            t.record_gathered(&r, [(r.shard, r.stats)]);
        }

        assert_eq!(t.jobs, 3);
        assert_eq!(t.failures, 0);
        assert_eq!(t.host_routed, 2);
        // All three jobs still count for the tenant.
        assert_eq!(t.per_tenant[&0].jobs, 3);
        assert!(format!("{t}").contains("host lane: 2 jobs routed"));
        assert!(!format!("{}", PoolTelemetry::new(1)).contains("host lane:"));
    }
}
