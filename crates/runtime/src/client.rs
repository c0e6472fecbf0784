//! The session layer: per-tenant clients and non-blocking job handles.
//!
//! A [`PoolClient`] is one tenant's session on a [`crate::RuntimePool`]
//! (open one with [`crate::RuntimePool::client`]). Submission is
//! non-blocking: [`PoolClient::submit`] compiles and enqueues the
//! workload and returns a [`JobHandle`] immediately. Queued jobs
//! dispatch to the shard workers when the pool flushes — explicitly via
//! [`PoolClient::flush`], or implicitly the moment anything `wait`s —
//! so a session can stream submissions while earlier flushed work
//! executes, then collect results with [`JobHandle::wait`] or
//! [`PoolClient::wait_all`].
//!
//! Sessions also own resident data: [`PoolClient::register_dataset`]
//! loads a [`crate::DatasetSpec`] into pinned tiles once and returns a
//! reference-counted [`crate::DatasetHandle`] whose queries
//! ([`crate::WorkloadSpec::Q6Query`], [`crate::WorkloadSpec::HdcQuery`],
//! [`crate::WorkloadSpec::NnQuery`], [`crate::WorkloadSpec::CamSearch`],
//! [`crate::WorkloadSpec::RuleClassify`], [`crate::WorkloadSpec::KeyLookup`]
//! and [`crate::WorkloadSpec::RawQuery`]) skip the resident-data writes
//! entirely.

use crate::compile::CompileError;
use crate::dataset::{DatasetHandle, DatasetSpec};
use crate::job::{JobId, JobReport, JobStatus, TenantId, WorkloadSpec};
use crate::schedule::PoolShared;
use std::sync::Arc;

/// One tenant's session on the pool.
///
/// Cheap to clone and usable from any thread; every clone shares the
/// same tenant identity and pool.
#[derive(Debug, Clone)]
pub struct PoolClient {
    shared: Arc<PoolShared>,
    tenant: TenantId,
}

impl PoolClient {
    pub(crate) fn new(shared: Arc<PoolShared>, tenant: TenantId) -> Self {
        PoolClient { shared, tenant }
    }

    /// The tenant this session submits as.
    pub fn tenant(&self) -> TenantId {
        self.tenant
    }

    /// Compiles and enqueues a workload, returning a non-blocking
    /// handle to its eventual report.
    ///
    /// Compilation errors (workload does not fit the pool geometry,
    /// unknown or foreign dataset, empty work) surface immediately;
    /// execution errors surface in the report's `output`.
    pub fn submit(&self, spec: &WorkloadSpec) -> Result<JobHandle, CompileError> {
        let job = self.shared.submit_spec(self.tenant, spec, true)?;
        Ok(JobHandle {
            shared: Arc::clone(&self.shared),
            job,
        })
    }

    /// Test seam: submits without admission-time verification, so
    /// in-crate tests can still exercise the execution-side
    /// containment paths (panic isolation, tile-fault relocation) the
    /// verifier now blocks at the front door.
    #[cfg(test)]
    pub(crate) fn submit_unverified(&self, spec: &WorkloadSpec) -> Result<JobHandle, CompileError> {
        let job = self.shared.submit_spec(self.tenant, spec, false)?;
        Ok(JobHandle {
            shared: Arc::clone(&self.shared),
            job,
        })
    }

    /// Statically verifies and cost-analyzes a workload without
    /// submitting it.
    ///
    /// Compiles the spec exactly as [`PoolClient::submit`] would and
    /// runs both `cim-lint` passes on the resulting instruction
    /// stream, returning the full [`cim_lint::LintReport`] — warnings
    /// included, which a submission would accept silently — alongside
    /// the certified [`cim_lint::CostEnvelope`] the offload planner
    /// would weigh against the host fallback. Nothing is enqueued and
    /// no job id is consumed, so tooling can gate, price or debug raw
    /// streams before paying for a submission. Compile errors (bad
    /// geometry, unknown or foreign dataset…) surface the same way
    /// they would on submit.
    pub fn verify(
        &self,
        spec: &WorkloadSpec,
    ) -> Result<(cim_lint::LintReport, cim_lint::CostEnvelope), CompileError> {
        self.shared.verify_spec(self.tenant, spec)
    }

    /// Loads a dataset into pool-managed tiles and returns the lease.
    ///
    /// Blocks until the resident data is written (the one-time cost the
    /// lease amortizes); queries against the returned handle then carry
    /// only query-side work. A dataset too big for any single shard is
    /// scattered across several ([`DatasetHandle::shards`]) and queries
    /// against it are scatter-gathered chunk-by-chunk to the shards
    /// pinning their tiles — bit-identical to serving from one giant
    /// shard. The lease lives until the last clone of the handle drops,
    /// at which point the tiles are scrubbed and freed on every shard.
    pub fn register_dataset(&self, spec: &DatasetSpec) -> Result<DatasetHandle, CompileError> {
        let (id, shards) = self.shared.register_dataset(self.tenant, spec)?;
        Ok(DatasetHandle::new(
            Arc::clone(&self.shared),
            id,
            self.tenant,
            shards,
        ))
    }

    /// Dispatches every queued job (pool-wide, all sessions) to the
    /// shard workers without blocking: each shard's share of the queue
    /// ships as one batch, cheapest job first. Results arrive while the
    /// session continues.
    pub fn flush(&self) {
        self.shared.flush();
    }

    /// Completion drain: flushes, waits for every handle and returns
    /// their reports sorted by job id.
    pub fn wait_all(&self, handles: Vec<JobHandle>) -> Vec<JobReport> {
        self.shared.flush();
        let mut handles = handles;
        handles.sort_by_key(|h| h.id());
        handles.into_iter().map(JobHandle::wait).collect()
    }
}

/// A non-blocking handle to one submitted job.
///
/// Obtained from [`PoolClient::submit`]. [`JobHandle::poll`] observes
/// progress without blocking; [`JobHandle::wait`] consumes the handle
/// and returns the [`JobReport`]. Dropping the handle without waiting
/// abandons the report (the job still executes and is still counted in
/// telemetry).
#[derive(Debug)]
pub struct JobHandle {
    shared: Arc<PoolShared>,
    job: JobId,
}

impl JobHandle {
    /// The job's pool-wide id.
    pub fn id(&self) -> JobId {
        self.job
    }

    /// Where the job currently is, without blocking. `Queued` means the
    /// pool has not flushed since submission — flush (or wait) to make
    /// progress.
    pub fn poll(&self) -> JobStatus {
        self.shared.poll_job(self.job)
    }

    /// Flushes the pool if needed and blocks until the job's report is
    /// ready.
    ///
    /// # Panics
    ///
    /// Panics if the [`crate::RuntimePool`] is dropped before the
    /// report arrives.
    pub fn wait(self) -> JobReport {
        self.shared.wait_job(self.job)
        // `Drop` runs next but finds the slot already taken: no-op.
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.shared.abandon_job(self.job);
    }
}
