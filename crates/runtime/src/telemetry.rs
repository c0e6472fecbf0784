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
//! recorded in [`DatasetUsage::load_stats`] (and the pool-wide
//! [`PoolTelemetry::dataset_load`] aggregate), *never* in the per-job
//! stats, while every query against the dataset accumulates into
//! [`DatasetUsage::query_stats`]. The split makes the amortization the
//! paper argues for directly measurable: load writes are paid once,
//! queries carry only query-side operations.

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
    /// programming). Paid exactly once per registration, kept out of
    /// every per-job stat.
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
}

impl DatasetUsage {
    /// Load-side row writes amortized over the queries served: the
    /// number the resident-dataset design exists to drive down. With no
    /// queries yet, this is the full (unamortized) load cost.
    pub fn amortized_load_writes_per_query(&self) -> f64 {
        self.load_stats.row_writes as f64 / (self.queries.max(1)) as f64
    }
}

/// Jobs the admission planner served on the host-executor lane.
///
/// Host-routed jobs never touch a shard, so their analytical offload
/// estimates describe work the accelerator *didn't* do; folding them
/// into [`PoolTelemetry::mean_speedup`] would pollute the accelerator's
/// own figure of merit. They get this ledger instead, with their own
/// mean over the estimates the planner declined.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HostRoutedLedger {
    /// Jobs served on the host lane.
    pub jobs: u64,
    /// Sum of the declined analytical speedup estimates, for averaging.
    forgone_sum: f64,
}

impl HostRoutedLedger {
    /// Mean analytical speedup the planner declined by keeping these
    /// jobs on the host — under a cost-driven policy this should sit
    /// near or below 1, precisely the jobs not worth offloading.
    pub fn mean_forgone_speedup(&self) -> f64 {
        if self.jobs == 0 {
            0.0
        } else {
            self.forgone_sum / self.jobs as f64
        }
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
    /// Sum of every dataset's one-time load statistics. Kept separate
    /// from [`PoolTelemetry::pool`], which remains exactly the sum of
    /// per-job stats.
    pub dataset_load: ExecutionStats,
    /// Per-shard aggregation, indexed by shard.
    pub per_shard: Vec<ExecutionStats>,
    /// Scrubbing overhead (tile hygiene between tenants), kept separate
    /// from tenant-attributed work.
    pub maintenance: OperationCost,
    /// Sum of per-job device-tier counters (word accesses, sampled
    /// columns, program-and-verify pulses, MVM noise samples) — the
    /// physical cost drivers behind [`PoolTelemetry::pool`].
    pub device: DeviceCounters,
    /// Device-tier counters of dataset load programs, kept out of
    /// [`PoolTelemetry::device`] like [`PoolTelemetry::dataset_load`].
    pub dataset_load_device: DeviceCounters,
    /// Jobs the offload planner served on the host lane, kept out of
    /// the accelerator's speedup mean.
    pub host_routed: HostRoutedLedger,
    /// Sum of the analytical speedup-vs-host estimates of CIM-executed
    /// jobs, for averaging.
    speedup_sum: f64,
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
                // Offload estimates describe executed work; failed jobs
                // never touched the accelerator and must not inflate the
                // pool-wide speedup. Host-routed jobs executed, but not
                // *here*: their declined estimates go to the host
                // ledger, never the accelerator's mean.
                if report.route == JobRoute::Host {
                    self.host_routed.jobs += 1;
                    self.host_routed.forgone_sum += report.offload.speedup();
                } else {
                    self.speedup_sum += report.offload.speedup();
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
                }
                usage.query_stats.accumulate(&report.stats);
                usage.query_device.accumulate(&report.device);
            }
        }
        self.maintenance = self.maintenance.then(report.maintenance);
    }

    /// Records a dataset's one-time load program. Load stats live in
    /// the dataset ledger (and [`PoolTelemetry::dataset_load`]), never
    /// in per-job stats — that separation *is* the amortization
    /// measurement.
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
        self.dataset_load.accumulate(stats);
        usage.load_device.accumulate(device);
        self.dataset_load_device.accumulate(device);
    }

    /// Mean analytical speedup-vs-host over successfully executed jobs.
    ///
    /// Failure accounting is deliberately asymmetric: a failed job
    /// contributes to [`PoolTelemetry::jobs`], [`PoolTelemetry::pool`]
    /// and its tenant/shard stat ledgers (a gathered split job that
    /// fails in one part still burned real simulated work on the
    /// others), but its offload estimate is *excluded* from this mean —
    /// the estimate describes the speedup of work the caller got
    /// results for, and a report whose output is `Err` delivered none.
    /// The denominator is therefore `jobs - failures`, never `jobs`,
    /// and mixing failing jobs into a pool cannot drag the mean toward
    /// zero (see `mean_speedup_ignores_failed_jobs`). Host-routed jobs
    /// are likewise excluded on both sides of the division — they
    /// executed on the host, so their estimates live in
    /// [`PoolTelemetry::host_routed`] (see
    /// `host_routed_jobs_stay_out_of_the_speedup_mean`).
    pub fn mean_speedup(&self) -> f64 {
        let executed = self.jobs - self.failures - self.host_routed.jobs;
        if executed == 0 {
            0.0
        } else {
            self.speedup_sum / executed as f64
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
            "  energy {:.3e} J, busy {:.3e} s, maintenance {:.3e} J, mean est. speedup {:.1}x",
            self.pool.energy.0,
            self.pool.busy_time.0,
            self.maintenance.energy.0,
            self.mean_speedup()
        )?;
        if self.host_routed.jobs > 0 {
            writeln!(
                f,
                "  host lane: {} jobs routed, mean forgone est. speedup {:.1}x",
                self.host_routed.jobs,
                self.host_routed.mean_forgone_speedup()
            )?;
        }
        writeln!(
            f,
            "  device: {} word accesses, {} sampled columns, {} program pulses, \
             {} noise samples (+{} pulses in dataset loads)",
            self.device.word_accesses,
            self.device.sampled_columns,
            self.device.program_pulses,
            self.device.noise_samples,
            self.dataset_load_device.program_pulses
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
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::units::Joules;

    #[test]
    fn telemetry_tracks_shards_independently() {
        let t = PoolTelemetry::new(3);
        assert_eq!(t.per_shard.len(), 3);
        assert_eq!(t.mean_speedup(), 0.0);
    }

    /// Pins the failure-accounting asymmetry documented on
    /// [`PoolTelemetry::mean_speedup`]: a failed job's stats fold into
    /// the pool/tenant ledgers (split jobs burn real work before a part
    /// fails), but its offload estimate never enters the speedup mean.
    #[test]
    fn mean_speedup_ignores_failed_jobs() {
        use crate::job::{JobError, JobId, JobKind, JobOutput, JobReport, JobTiming};
        use cim_arch::cim::CimSystem;
        use cim_arch::conventional::ConventionalMachine;
        use cim_core::offload::Program;
        use cim_core::DeviceCounters;
        use cim_crossbar::energy::OperationCost;
        use cim_simkit::units::ByteSize;

        let host = ConventionalMachine::xeon_e5_2680();
        let cim = CimSystem::paper_default();
        let offload = Program::streaming(ByteSize(4096), 0.5, 0.5, 0.5).estimate(&host, &cim);
        let speedup = offload.speedup();
        assert!(speedup > 0.0);
        let report =
            |job: u64, output: Result<JobOutput, JobError>, stats: ExecutionStats| JobReport {
                job: JobId(job),
                tenant: TenantId(0),
                kind: JobKind::XorEncrypt,
                dataset: None,
                shard: 0,
                shards: vec![0],
                batch: job,
                route: JobRoute::Cim,
                output,
                stats,
                maintenance: OperationCost::default(),
                offload,
                device: DeviceCounters::default(),
                timing: JobTiming::default(),
            };
        let worked = ExecutionStats {
            logic_ops: 5,
            energy: Joules(1.0),
            busy_time: Seconds(0.5),
            ..ExecutionStats::default()
        };

        let mut t = PoolTelemetry::new(1);
        for r in [
            report(0, Ok(JobOutput::Cipher(vec![1])), worked),
            report(1, Ok(JobOutput::Cipher(vec![2])), worked),
            // A failure that still burned simulated work, like a
            // gathered split job whose last part panicked.
            report(
                2,
                Err(JobError::ExecutionPanic {
                    message: "boom".into(),
                }),
                worked,
            ),
        ] {
            t.record_gathered(&r, [(r.shard, r.stats)]);
        }

        assert_eq!(t.jobs, 3);
        assert_eq!(t.failures, 1);
        // The failed job's stats are in the pool ledger...
        assert_eq!(t.pool.logic_ops, 15);
        // ...but the mean averages only the two successful estimates.
        assert!((t.mean_speedup() - speedup).abs() < 1e-12);

        // An all-failed pool has no executed jobs to average over.
        let mut all_failed = PoolTelemetry::new(1);
        let r = report(
            0,
            Err(JobError::ExecutionPanic {
                message: "boom".into(),
            }),
            worked,
        );
        all_failed.record_gathered(&r, [(r.shard, r.stats)]);
        assert_eq!(all_failed.mean_speedup(), 0.0);
    }

    /// Pins the host-lane accounting on [`PoolTelemetry::mean_speedup`]:
    /// a host-routed job is counted (jobs, tenant ledger) but its
    /// declined offload estimate lands in the [`HostRoutedLedger`], not
    /// the accelerator's speedup mean — routing tiny jobs to the host
    /// must leave the CIM figure of merit untouched on both sides of
    /// the division.
    #[test]
    fn host_routed_jobs_stay_out_of_the_speedup_mean() {
        use crate::job::{JobError, JobId, JobKind, JobOutput, JobReport, JobTiming};
        use cim_arch::cim::CimSystem;
        use cim_arch::conventional::ConventionalMachine;
        use cim_core::offload::Program;
        use cim_core::DeviceCounters;
        use cim_crossbar::energy::OperationCost;
        use cim_simkit::units::ByteSize;

        let host = ConventionalMachine::xeon_e5_2680();
        let cim = CimSystem::paper_default();
        let big = Program::streaming(ByteSize(1 << 20), 0.5, 0.5, 0.5).estimate(&host, &cim);
        let tiny = Program::streaming(ByteSize(64), 0.5, 0.5, 0.5).estimate(&host, &cim);
        let report = |job: u64, route: JobRoute, offload| JobReport {
            job: JobId(job),
            tenant: TenantId(0),
            kind: JobKind::XorEncrypt,
            dataset: None,
            shard: 0,
            shards: if route == JobRoute::Host {
                Vec::new()
            } else {
                vec![0]
            },
            batch: job,
            route,
            output: Ok::<_, JobError>(JobOutput::Cipher(vec![1])),
            stats: ExecutionStats::default(),
            maintenance: OperationCost::default(),
            offload,
            device: DeviceCounters::default(),
            timing: JobTiming::default(),
        };

        let mut t = PoolTelemetry::new(1);
        for r in [
            report(0, JobRoute::Cim, big),
            report(1, JobRoute::Host, tiny),
            report(2, JobRoute::Host, tiny),
        ] {
            t.record_gathered(&r, [(r.shard, r.stats)]);
        }

        assert_eq!(t.jobs, 3);
        assert_eq!(t.failures, 0);
        assert_eq!(t.host_routed.jobs, 2);
        // The accelerator mean averages exactly the one CIM job, as if
        // the host-routed pair had never been submitted…
        assert!((t.mean_speedup() - big.speedup()).abs() < 1e-12);
        // …while the host ledger averages exactly the declined pair.
        assert!((t.host_routed.mean_forgone_speedup() - tiny.speedup()).abs() < 1e-12);
        // All three jobs still count for the tenant.
        assert_eq!(t.per_tenant[&0].jobs, 3);

        // A host-only pool has no accelerator mean at all.
        let mut host_only = PoolTelemetry::new(1);
        let r = report(0, JobRoute::Host, tiny);
        host_only.record_gathered(&r, [(r.shard, r.stats)]);
        assert_eq!(host_only.mean_speedup(), 0.0);
        assert!(host_only.mean_host_line_present());
    }

    impl PoolTelemetry {
        /// Test seam: the Display output advertises the host lane
        /// exactly when something was routed there.
        fn mean_host_line_present(&self) -> bool {
            format!("{self}").contains("host lane:")
        }
    }
}
