//! Span-integrity properties of the pool's tracing (observability
//! tentpole).
//!
//! The contract these tests pin down:
//! 1. every span a traced pool opens is closed exactly once — a
//!    completed run leaves `unclosed == 0` and `orphan_closes == 0`
//!    no matter how jobs split, batch or fail,
//! 2. per-job span counts are a pure function of the job's route:
//!    an unsplit successful job records 7 spans (job, compile, queue,
//!    dispatch, execute, finalize, report), a job scattered into `P`
//!    parts records `6 + 2P` (one dispatch/execute pair per part plus
//!    one gather), and a terminally-rejected submission records 3
//!    (job, compile, report — it never queued); a malformed spec
//!    returns a typed error and still closes its root,
//! 3. nesting balances: compile/queue/finalize/report hang off the job
//!    root, every execute hangs off its part's dispatch, and resident
//!    queries never open a `dataset_load` span of their own.
//!
//! The mixed-queue property runs over the same scenario shapes as
//! `split_jobs.rs` (unsplit Q6, scattered Q6, XOR, oversized bulk
//! reductions), so the routes exercised here are exactly the ones the
//! scatter-gather tests prove bit-exact.

use cim_repro::cim_bitmap_db::tpch::Q6Params;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_obs::{RingRecorder, Snapshot, SpanNode, Value};
use cim_repro::cim_runtime::{
    CompileError, DatasetSpec, JobError, JobReport, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;

/// A pool tracing into a fresh ring recorder, on the default geometry
/// (4 digital tiles x 1024 entries per shard).
fn traced_pool(shards: usize) -> (Arc<RingRecorder>, RuntimePool) {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let pool = RuntimePool::with_sink(PoolConfig::with_shards(shards), ring.clone());
    (ring, pool)
}

/// The `job` root span belonging to `report`, matched by job-id
/// attribute.
fn root_of<'a>(snap: &'a Snapshot, report: &JobReport) -> &'a SpanNode {
    snap.roots_named("job")
        .find(|r| matches!(r.attr("job"), Some(Value::U64(id)) if *id == report.job.0))
        .unwrap_or_else(|| panic!("no job root for {}", report.job))
}

/// Children of `node` with a given stage name.
fn children_named<'a>(node: &'a SpanNode, name: &str) -> Vec<&'a SpanNode> {
    node.children.iter().filter(|c| c.name == name).collect()
}

/// Asserts the full route contract for one completed job: stage
/// multiplicities, dispatch/execute nesting and the total span count
/// (7 unsplit, `6 + 2P` when scattered into `P` parts).
fn assert_job_route(snap: &Snapshot, report: &JobReport) {
    let root = root_of(snap, report);
    let parts = report.shards.len();
    assert_eq!(children_named(root, "compile").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "queue").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "report").len(), 1, "{}", report.job);
    assert_eq!(children_named(root, "finalize").len(), 1, "{}", report.job);
    let dispatches = children_named(root, "dispatch");
    assert_eq!(dispatches.len(), parts.max(1), "{}", report.job);
    for dispatch in &dispatches {
        assert_eq!(
            children_named(dispatch, "execute").len(),
            1,
            "every dispatch wraps exactly one execute ({})",
            report.job
        );
    }
    let gathers = children_named(root, "gather");
    if parts >= 2 {
        assert_eq!(gathers.len(), 1, "split jobs gather once ({})", report.job);
        match gathers[0].attr("parts") {
            Some(Value::U64(n)) => assert_eq!(*n as usize, parts, "{}", report.job),
            other => panic!("gather span lacks a parts attr: {other:?}"),
        }
        assert_eq!(root.span_count(), 6 + 2 * parts, "{}", report.job);
    } else {
        assert!(gathers.is_empty(), "unsplit jobs never gather");
        assert_eq!(root.span_count(), 7, "{}", report.job);
    }
    match root.attr("outcome") {
        Some(Value::Str("ok")) => assert!(report.output.is_ok()),
        Some(Value::Str("err")) => assert!(report.output.is_err()),
        other => panic!("job root lacks an outcome attr: {other:?}"),
    }
}

/// An unsplit successful job traces the canonical 7-span route, with
/// the simulated time attributed to the root matching the report.
#[test]
fn unsplit_job_traces_seven_spans() {
    let (ring, pool) = traced_pool(1);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::XorEncrypt {
            message: (0..128u32).map(|b| b as u8).collect(),
            key_seed: 3,
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_eq!(snap.roots_named("job").count(), 1);
    assert_job_route(&snap, &report);
    let root = root_of(&snap, &report);
    assert!(
        (root.sim_seconds - report.stats.busy_time.0).abs() < 1e-12,
        "root sim time {} must match the report's busy time {}",
        root.sim_seconds,
        report.stats.busy_time.0
    );
}

/// A Q6 select scattered across shards traces one dispatch/execute
/// pair per part plus exactly one gather: `6 + 2P` spans.
#[test]
fn split_job_traces_one_execute_per_part_plus_gather() {
    let (ring, pool) = traced_pool(4);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::Q6Select {
            rows: 2 * 4 * 1024, // 8 tiles: 2x one shard
            table_seed: 33,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok());
    assert!(report.shards.len() >= 2, "the select actually scattered");
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_job_route(&snap, &report);
}

/// A workload that can never fit the pool is rejected terminally at
/// submission: its trace is just job → compile → report (it never
/// queued, so no queue/dispatch/execute spans exist), closed with an
/// `err` outcome.
#[test]
fn terminal_rejection_traces_three_spans_without_queueing() {
    let (ring, pool) = traced_pool(2);
    let report = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::Q6Select {
            rows: 3 * 4 * 1024, // 12 tiles on an 8-tile pool
            table_seed: 1,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(matches!(
        report.output,
        Err(JobError::WorkloadTooLarge { .. })
    ));
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    let root = root_of(&snap, &report);
    assert_eq!(root.span_count(), 3, "job + compile + report only");
    assert_eq!(children_named(root, "compile").len(), 1);
    assert_eq!(children_named(root, "report").len(), 1);
    assert!(children_named(root, "queue").is_empty(), "never queued");
    assert!(children_named(root, "dispatch").is_empty());
    assert!(matches!(root.attr("outcome"), Some(Value::Str("err"))));
}

/// Degenerate HDC specs are tenant input like any other: each one —
/// zero dimension, zero n-gram size, training or sample text shorter
/// than an n-gram — returns a typed [`CompileError`] from `submit` or
/// `register_dataset` instead of panicking the caller's thread, and
/// leaves no span open.
#[test]
fn degenerate_hdc_specs_return_typed_errors_and_close_their_spans() {
    let (ring, pool) = traced_pool(1);
    let session = pool.client(TenantId(1));
    let prototypes = session
        .register_dataset(&DatasetSpec::HdcPrototypes {
            classes: 2,
            d: 256,
            ngram: 3,
            train_len: 64,
        })
        .unwrap();
    let classify = |d, ngram, train_len, sample_len| WorkloadSpec::HdcClassify {
        classes: 2,
        d,
        ngram,
        train_len,
        samples: 2,
        sample_len,
    };
    let specs = [
        classify(0, 3, 64, 16),
        classify(256, 0, 64, 16),
        classify(256, 3, 0, 16),
        classify(256, 3, 64, 2),
        WorkloadSpec::HdcAssoc {
            classes: 2,
            d: 0,
            ngram: 3,
            train_len: 64,
            samples: 2,
            sample_len: 16,
        },
        WorkloadSpec::HdcQuery {
            dataset: prototypes.id(),
            samples: 2,
            sample_len: 2,
        },
    ];
    for spec in &specs {
        let result = catch_unwind(AssertUnwindSafe(|| session.submit(spec).map(drop)))
            .unwrap_or_else(|_| panic!("submit panicked on {spec:?}"));
        assert_eq!(result, Err(CompileError::EmptyWorkload), "{spec:?}");
    }
    let load = DatasetSpec::HdcPrototypes {
        classes: 2,
        d: 0,
        ngram: 3,
        train_len: 64,
    };
    let result = catch_unwind(AssertUnwindSafe(|| {
        session.register_dataset(&load).map(drop)
    }))
    .unwrap_or_else(|_| panic!("register_dataset panicked on {load:?}"));
    assert_eq!(result, Err(CompileError::EmptyWorkload));
    drop(prototypes);

    let snap = ring.snapshot();
    assert_eq!(
        snap.unclosed, 0,
        "every rejected submission closed its spans"
    );
    assert_eq!(snap.orphan_closes, 0);
    assert_eq!(snap.roots_named("job").count(), specs.len());
}

/// Resident queries ride the dataset's one `dataset_load` root: the
/// load span appears exactly once no matter how many queries follow,
/// and each query job still traces the full 7-span route carrying its
/// dataset attribution.
#[test]
fn resident_queries_reuse_one_dataset_load_span() {
    let (ring, pool) = traced_pool(2);
    let session = pool.client(TenantId(7));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 2000,
            table_seed: 42,
        })
        .unwrap();
    let mut reports = Vec::new();
    for _ in 0..3 {
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .unwrap()
            .wait();
        assert!(report.output.is_ok());
        reports.push(report);
    }
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    assert_eq!(
        snap.roots_named("dataset_load").count(),
        1,
        "the load is traced once, not per query"
    );
    let load = snap.roots_named("dataset_load").next().unwrap();
    assert!(matches!(load.attr("outcome"), Some(Value::Str("ok"))));
    assert_eq!(children_named(load, "load_execute").len(), 1);
    for report in &reports {
        assert_job_route(&snap, report);
        let root = root_of(&snap, report);
        assert!(
            matches!(root.attr("dataset"), Some(Value::U64(id)) if *id == table.id().0),
            "query roots carry their dataset id"
        );
    }
}

/// One scenario job for the mixed-queue property, indexed by the same
/// shapes `split_jobs.rs` proves bit-exact.
fn scenario_spec(choice: u8, seed: u64) -> WorkloadSpec {
    match choice % 4 {
        0 => WorkloadSpec::Q6Select {
            rows: 1500, // fits one shard: stays unsplit
            table_seed: seed,
            params: Q6Params::tpch_default(),
        },
        1 => WorkloadSpec::Q6Select {
            rows: 6 * 1024, // 6 tiles: splits on 4-tile shards
            table_seed: seed,
            params: Q6Params::tpch_default(),
        },
        2 => WorkloadSpec::XorEncrypt {
            message: (0..64u64).map(|b| (b ^ seed) as u8).collect(),
            key_seed: seed,
        },
        _ => WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            // 700 rows need 5 tiles: splits on 4-tile shards.
            rows: (0..700)
                .map(|i| BitVec::from_fn(256, |j| (i + j + seed as usize).is_multiple_of(13)))
                .collect(),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// Property: for any mixed queue of split_jobs scenarios served
    /// through a traced 4-shard pool, every span closes exactly once
    /// and every job's span count matches its route — `7` unsplit,
    /// `6 + 2P` scattered into `P` parts — with dispatch/execute
    /// nesting balanced throughout.
    #[test]
    fn mixed_queues_trace_balanced_routes(
        choices in prop::collection::vec(any::<u8>(), 1..5),
        seed in any::<u64>(),
    ) {
        let (ring, pool) = traced_pool(4);
        let handles: Vec<_> = choices
            .iter()
            .enumerate()
            .map(|(i, c)| {
                let tenant = TenantId(1 + (i % 3) as u32);
                let spec = scenario_spec(*c, seed.wrapping_add(i as u64));
                pool.client(tenant).submit(&spec).unwrap()
            })
            .collect();
        let reports = pool.client(TenantId(0)).wait_all(handles);
        prop_assert!(reports.iter().all(|r| r.output.is_ok()));

        let snap = ring.snapshot();
        prop_assert_eq!(snap.unclosed, 0);
        prop_assert_eq!(snap.orphan_closes, 0);
        prop_assert_eq!(snap.roots_named("job").count(), reports.len());
        for report in &reports {
            assert_job_route(&snap, report);
        }
        // The plan-time gauges fired: at least one flush observed the
        // queue before placement.
        prop_assert!(snap.gauges.contains_key("queue_depth"));
    }
}
