//! Pool setup and the closed-loop load generator.
//!
//! One generator thread keeps a fixed window of jobs outstanding,
//! submits in bursts and flushes after each burst, then harvests
//! completed reports with `JobHandle::poll`, blocking in
//! `JobHandle::wait` on the oldest job only when nothing completed and
//! the window is full. A job's latency runs from the start of its
//! `submit` (of its pre-flight `verify`, for raw streams) until the
//! generator holds its report.

use crate::spans::{Spans, StampedRing};
use crate::workload::{Mix, Shape, HDC_ACCURACY_FLOOR};
use cim_core::{DeviceCounters, ExecutionStats};
use cim_obs::{SpanId, TraceSink, Value};
use cim_runtime::{
    DatasetHandle, JobHandle, JobKind, JobOutput, JobReport, JobRoute, PoolClient, RuntimePool,
    TenantId, WorkloadSpec,
};
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// A built pool with its sessions and dataset leases.
pub struct Ctx {
    pub pool: RuntimePool,
    pub clients: Vec<PoolClient>,
    /// Kept alive so the datasets stay resident.
    _datasets: Vec<DatasetHandle>,
}

/// Wall times of one setup, in seconds.
#[derive(Debug, Clone, Default)]
pub struct SetupTimes {
    pub build: f64,
    /// `(dataset kind label, seconds)` in registration order.
    pub loads: Vec<(&'static str, f64)>,
    pub total: f64,
}

/// Builds the pool, registers the workload's datasets and serves the
/// warm-up jobs (drained before returning).
pub fn setup(mix: &Mix, sink: Option<Arc<StampedRing>>, spans: &Spans) -> (Ctx, SetupTimes) {
    let start = Instant::now();
    let cfg = mix.workload.pool_config();
    let (pool, build) = spans.timed("pool_build", &[], || match sink {
        Some(sink) => RuntimePool::with_sink(cfg, sink as Arc<dyn TraceSink>),
        None => RuntimePool::new(cfg),
    });
    let clients: Vec<PoolClient> = mix
        .tenants
        .iter()
        .map(|&t| pool.client(TenantId(t)))
        .collect();
    let mut datasets = Vec::new();
    let mut loads = Vec::new();
    for (i, (tenant, spec)) in mix.datasets.iter().enumerate() {
        let kind = dataset_kind(spec);
        let (handle, secs) = spans.timed("register_dataset", &[("kind", Value::Str(kind))], || {
            clients[*tenant].register_dataset(spec)
        });
        let handle = handle.unwrap_or_else(|e| panic!("register {kind}: {e:?}"));
        assert_eq!(
            handle.id().0,
            i as u64,
            "dataset ids follow registration order"
        );
        datasets.push(handle);
        loads.push((kind, secs));
    }
    let ctx = Ctx {
        pool,
        clients,
        _datasets: datasets,
    };
    let warm = run(
        &ctx,
        mix,
        0,
        Stop::Jobs(mix.workload.shape().warmup),
        0,
        spans,
    );
    // HDC accuracy is judged over the measured run, not the few
    // warm-up predictions.
    assert!(
        warm.failed_jobs() == 0,
        "{}: warm-up jobs failed: {:?}",
        mix.workload.name(),
        warm.errors_by_kind
    );
    let times = SetupTimes {
        build,
        loads,
        total: start.elapsed().as_secs_f64(),
    };
    (ctx, times)
}

fn dataset_kind(spec: &cim_runtime::DatasetSpec) -> &'static str {
    use cim_runtime::DatasetSpec::*;
    match spec {
        Q6Table { .. } => "q6_table",
        HdcPrototypes { .. } => "hdc_prototypes",
        CamRules { .. } => "cam_rules",
        CamKeys { .. } => "cam_keys",
        NnWeights { .. } => "nn_weights",
    }
}

/// When the generator stops submitting.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// After this many jobs.
    Jobs(u64),
    /// At the deadline, but not before `min_jobs` and not after
    /// `max_jobs` were submitted.
    Deadline {
        at: Instant,
        min_jobs: u64,
        max_jobs: u64,
    },
}

/// What the generator keeps of a job it wants to inspect later (the sim
/// prefix, or every job of a traced run).
#[derive(Debug, Clone)]
pub struct Rec {
    pub seq: u64,
    /// `(class, template)` in the workload's mix.
    pub pick: (usize, usize),
    pub job: u64,
    pub kind: JobKind,
    pub route: JobRoute,
    pub shards: Vec<usize>,
    pub stats: ExecutionStats,
    pub device: DeviceCounters,
    pub maintenance_j: f64,
    /// Debug rendering hash of the output, for determinism checks.
    pub output_digest: u64,
}

/// Wall timing of one observed job.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub kind: JobKind,
    pub latency_s: f64,
    /// When the generator held the report, seconds after the run began.
    pub seen_s: f64,
}

/// Everything one generator run observed.
#[derive(Debug, Default)]
pub struct Run {
    /// Every observed job, in observation order.
    pub samples: Vec<Sample>,
    /// Jobs with `seq` below the run's keep limit.
    pub recs: Vec<Rec>,
    /// Jobs the generator tried to submit.
    pub attempted: u64,
    /// Failed jobs and mismatched outputs, by job-kind label, plus
    /// `"submit"` for submissions (or raw pre-flights) that returned an
    /// error.
    pub errors_by_kind: BTreeMap<&'static str, u64>,
    /// Pooled `(correct, total, jobs)` of analog-scored HDC jobs.
    hdc: (u64, u64, u64),
    /// First submit to last observation.
    pub wall_s: f64,
}

impl Run {
    /// Submit errors, failed jobs and outputs that differ from their
    /// reference. Analog-scored HDC jobs are judged together: when their
    /// pooled accuracy falls below [`HDC_ACCURACY_FLOOR`], every one of
    /// them counts as an error.
    pub fn errors(&self) -> u64 {
        let (correct, total, jobs) = self.hdc;
        let hdc_errors = if (correct as f64) < HDC_ACCURACY_FLOOR * total as f64 {
            jobs
        } else {
            0
        };
        self.failed_jobs() + hdc_errors
    }

    /// Pooled accuracy of analog-scored HDC predictions, with their
    /// count; `None` without HDC jobs.
    pub fn hdc_accuracy(&self) -> Option<(f64, u64)> {
        let (correct, total, _) = self.hdc;
        (total > 0).then(|| (correct as f64 / total as f64, total))
    }

    /// Submit errors, failed jobs and mismatched outputs, without the
    /// pooled HDC accuracy judgement (which needs a run's worth of
    /// predictions).
    pub fn failed_jobs(&self) -> u64 {
        self.errors_by_kind.values().sum()
    }

    fn error(&mut self, kind: &'static str) {
        *self.errors_by_kind.entry(kind).or_default() += 1;
    }
}

struct Pending {
    seq: u64,
    pick: (usize, usize),
    handle: JobHandle,
    t0: Instant,
    request: SpanId,
}

/// Serves jobs `first_seq..` in the closed loop until `stop`, then
/// drains everything outstanding. Jobs numbered below `keep` are kept
/// as [`Rec`]s.
pub fn run(ctx: &Ctx, mix: &Mix, first_seq: u64, stop: Stop, keep: u64, spans: &Spans) -> Run {
    let Shape { window, burst, .. } = mix.workload.shape();
    let flusher = &ctx.clients[0];
    let mut out: VecDeque<Pending> = VecDeque::with_capacity(window);
    let mut result = Run::default();
    let mut seq = first_seq;
    let start = Instant::now();
    loop {
        let submitting = match stop {
            Stop::Jobs(n) => seq < first_seq + n,
            Stop::Deadline {
                at,
                min_jobs,
                max_jobs,
            } => {
                let n = seq - first_seq;
                n < min_jobs || (n < max_jobs && Instant::now() < at)
            }
        };
        // A burst goes out whole, once the window has room for all of it.
        if submitting && out.len() + burst <= window {
            for _ in 0..burst {
                if let Some(p) = submit(ctx, mix, seq, spans, &mut result) {
                    out.push_back(p);
                }
                seq += 1;
            }
            let span = spans.open("flush", SpanId::NONE, &[]);
            flusher.flush();
            spans.close(span, &[]);
        }
        if out.is_empty() {
            if submitting {
                continue;
            }
            break;
        }
        // Harvest whatever completed, in order.
        let span = spans.open("harvest", SpanId::NONE, &[]);
        let mut done = Vec::new();
        let mut i = 0;
        while i < out.len() {
            if out[i].handle.poll() == cim_runtime::JobStatus::Completed {
                let p = out
                    .remove(i)
                    .unwrap_or_else(|| unreachable!("index in range"));
                let report = p.handle.wait();
                let seen = Instant::now();
                spans.close(p.request, &[("job", Value::U64(report.job.0))]);
                done.push((p.seq, p.pick, p.t0, report, seen));
            } else {
                i += 1;
            }
        }
        spans.close(span, &[]);
        if done.is_empty() && (out.len() + burst > window || !submitting) {
            let p = out.pop_front().unwrap_or_else(|| unreachable!("non-empty"));
            let span = spans.open("wait", SpanId::NONE, &[]);
            let report = p.handle.wait();
            let now = Instant::now();
            spans.close(p.request, &[("job", Value::U64(report.job.0))]);
            spans.close(span, &[]);
            done.push((p.seq, p.pick, p.t0, report, now));
        }
        for (seq, pick, t0, report, seen) in done {
            result.samples.push(Sample {
                kind: report.kind,
                latency_s: seen.duration_since(t0).as_secs_f64(),
                seen_s: seen.duration_since(start).as_secs_f64(),
            });
            observe(&mut result, mix, seq, pick, report, seq < keep);
        }
    }
    result.wall_s = start.elapsed().as_secs_f64();
    result
}

fn submit(ctx: &Ctx, mix: &Mix, seq: u64, spans: &Spans, result: &mut Run) -> Option<Pending> {
    let pick = mix.pick(seq);
    let template = mix.template(pick);
    let client = &ctx.clients[template.tenant];
    result.attempted += 1;
    let request = spans.open("request", SpanId::NONE, &[("seq", Value::U64(seq))]);
    let t0 = Instant::now();
    if matches!(template.spec, WorkloadSpec::RawQuery { .. }) {
        let span = spans.open("verify", request, &[]);
        let verdict = client.verify(&template.spec);
        spans.close(span, &[]);
        if !matches!(&verdict, Ok((lint, _)) if !lint.has_errors()) {
            result.error("submit");
            spans.close(request, &[]);
            return None;
        }
    }
    let span = spans.open("submit", request, &[]);
    let submitted = client.submit(&template.spec);
    match submitted {
        Ok(handle) => {
            spans.close(span, &[("job", Value::U64(handle.id().0))]);
            Some(Pending {
                seq,
                pick,
                handle,
                t0,
                request,
            })
        }
        Err(_) => {
            spans.close(span, &[]);
            spans.close(request, &[]);
            result.error("submit");
            None
        }
    }
}

/// Checks a report against its reference and books it.
fn observe(
    result: &mut Run,
    mix: &Mix,
    seq: u64,
    pick: (usize, usize),
    report: JobReport,
    keep: bool,
) {
    if let Ok(JobOutput::Hdc(o)) = &report.output {
        let correct = o
            .predictions
            .iter()
            .zip(&o.expected)
            .filter(|(p, e)| p == e)
            .count() as u64;
        let (c, t, j) = result.hdc;
        result.hdc = (c + correct, t + o.predictions.len() as u64, j + 1);
    }
    let ok = match &report.output {
        Ok(out) => mix.template(pick).expect.check(out),
        Err(_) => false,
    };
    if !ok {
        result.error(report.kind.label());
    }
    if !keep {
        return;
    }
    let output_digest = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", report.output).hash(&mut h);
        h.finish()
    };
    result.recs.push(Rec {
        seq,
        pick,
        job: report.job.0,
        kind: report.kind,
        route: report.route,
        shards: report.shards,
        stats: report.stats,
        device: report.device,
        maintenance_j: report.maintenance.energy.0,
        output_digest,
    });
}
