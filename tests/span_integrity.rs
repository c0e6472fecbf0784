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
//!    queries never open a `dataset_load` span of their own,
//! 4. a digital tile's device draws are one root `fabricate` span, in
//!    the execute interval of the first job that leases the tile, and
//!    never part of a job's own span count.
//!
//! The mixed-queue property runs over the same scenario shapes as
//! `split_jobs.rs` (unsplit Q6, scattered Q6, XOR, oversized bulk
//! reductions), so the routes exercised here are exactly the ones the
//! scatter-gather tests prove bit-exact. A stress test holds the first
//! contract under concurrent sessions that submit, flush, poll, wait,
//! drop handles and register and release datasets at random.

use cim_repro::cim_bitmap_db::tpch::Q6Params;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_obs::{Event, RingRecorder, Snapshot, SpanNode, Value};
use cim_repro::cim_runtime::{
    CompileError, DatasetHandle, DatasetSpec, JobError, JobHandle, JobReport, PoolClient,
    PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

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

/// A job ends on the shard worker that ran it, not when its caller
/// next touches the pool: while the caller is away, the job's root span
/// closes, and its timing stops at completion rather than at the
/// caller's return.
#[test]
fn jobs_end_while_their_caller_is_away() {
    let (ring, pool) = traced_pool(1);
    let session = pool.client(TenantId(1));
    let handle = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: vec![0x5A; 64],
            key_seed: 9,
        })
        .unwrap();
    session.flush();
    std::thread::sleep(Duration::from_millis(200));

    // No poll, wait or telemetry call since the flush.
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0, "every span closed while the caller slept");
    let root = snap
        .roots_named("job")
        .next()
        .expect("the job's root span closed");
    assert!(matches!(root.attr("outcome"), Some(Value::Str("ok"))));

    let report = handle.wait();
    assert!(report.output.is_ok());
    assert!(
        report.timing.total < Duration::from_millis(100),
        "timing stops when the job ends, not when the caller returns: {:?}",
        report.timing
    );
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

/// Analog datasets keep exact replicas. A registration that places one
/// traces a `load_execute` per copy under its one `dataset_load`
/// (attribute `copies`); queries served by either copy trace the full
/// 7-span route; and a lease that reclaims the replica leaves one
/// closed root `replica_reclaim` span naming the dataset and the shard.
#[test]
fn replica_loads_and_reclaims_close_their_spans() {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    // Two 16 x 64 analog tiles per shard: the weights pack into one, the
    // cold network needs both.
    let cfg = PoolConfig {
        analog_rows: 16,
        analog_cols: 64,
        ..PoolConfig::with_shards(2)
    };
    let pool = RuntimePool::with_sink(cfg, ring.clone());
    let session = pool.client(TenantId(4));
    let inputs = |len| vec![BitVec::from_fn(len, |j| j % 3 == 0)];
    let weights = session
        .register_dataset(&DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[32, 16, 4], 1),
        })
        .unwrap();
    let mut reports = Vec::new();
    for _ in 0..2 {
        reports.push(
            session
                .submit(&WorkloadSpec::NnQuery {
                    dataset: weights.id(),
                    inputs: inputs(32),
                })
                .unwrap()
                .wait(),
        );
    }
    reports.push(
        session
            .submit(&WorkloadSpec::NnInfer {
                network: BinarizedMlp::random(&[64, 16, 4], 2),
                inputs: inputs(64),
            })
            .unwrap()
            .wait(),
    );
    let shards: Vec<usize> = reports.iter().map(|r| r.shard).collect();
    assert_eq!(shards, vec![0, 1, 1], "primary, replica, then the reclaim");

    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
    for report in &reports {
        assert!(report.output.is_ok(), "{:?}", report.output);
        assert_job_route(&snap, report);
    }
    let load = snap.roots_named("dataset_load").next().unwrap();
    assert!(matches!(load.attr("copies"), Some(Value::U64(2))));
    let mut loads: Vec<u64> = children_named(load, "load_execute")
        .iter()
        .map(|l| match l.attr("shard") {
            Some(Value::U64(shard)) => *shard,
            other => panic!("load_execute lacks a shard attr: {other:?}"),
        })
        .collect();
    loads.sort_unstable();
    assert_eq!(loads, vec![0, 1], "one load per copy");
    let reclaims: Vec<&SpanNode> = snap.roots_named("replica_reclaim").collect();
    assert_eq!(reclaims.len(), 1);
    assert!(matches!(reclaims[0].attr("dataset"), Some(Value::U64(id)) if *id == weights.id().0));
    assert!(matches!(reclaims[0].attr("shard"), Some(Value::U64(1))));
}

/// The `(open, close)` wall times of the span named `name` carrying
/// every `(key, value)` attribute of `with`, from the raw events.
fn span_interval(events: &[Event], name: &str, with: &[(&str, u64)]) -> (u64, u64) {
    let (span, open) = events
        .iter()
        .find_map(|e| match e {
            Event::Open {
                span,
                name: n,
                wall_ns,
                attrs,
                ..
            } if *n == name
                && with.iter().all(|(key, value)| {
                    attrs
                        .iter()
                        .any(|(k, v)| k == key && matches!(v, Value::U64(x) if x == value))
                }) =>
            {
                Some((*span, *wall_ns))
            }
            _ => None,
        })
        .unwrap_or_else(|| panic!("no {name} span with {with:?}"));
    let close = events
        .iter()
        .find_map(|e| match e {
            Event::Close {
                span: s, wall_ns, ..
            } if *s == span => Some(*wall_ns),
            _ => None,
        })
        .unwrap_or_else(|| panic!("{name} span never closed"));
    (open, close)
}

/// A digital tile draws its devices when a job first leases it, under
/// one root `fabricate` span inside that job's `execute` interval: the
/// build draws none, the first one-tile select draws its tile, a second
/// select on the same tile draws nothing, and a three-tile select draws
/// only its two new tiles. Every job keeps its seven-span route.
#[test]
fn a_tile_fabricates_once_when_first_leased() {
    let (ring, pool) = traced_pool(1);
    assert_eq!(
        ring.snapshot().roots_named("fabricate").count(),
        0,
        "building the pool draws no device"
    );
    let session = pool.client(TenantId(4));
    let select = WorkloadSpec::Q6Select {
        rows: 900,
        table_seed: 5,
        params: Q6Params::tpch_default(),
    };
    let first = session.submit(&select).unwrap().wait();
    assert!(first.output.is_ok(), "{:?}", first.output);
    let snap = ring.snapshot();
    let fabricated: Vec<&SpanNode> = snap.roots_named("fabricate").collect();
    assert_eq!(fabricated.len(), 1, "one leased tile, one draw");
    let span = fabricated[0];
    assert!(matches!(span.attr("shard"), Some(Value::U64(0))));
    assert!(
        matches!(span.attr("tile"), Some(Value::U64(0))),
        "the leading free tile"
    );
    assert!(matches!(span.attr("job"), Some(Value::U64(j)) if *j == first.job.0));
    assert!(span.children.is_empty());
    assert_job_route(&snap, &first);
    let events = ring.events();
    let (fab_open, fab_close) = span_interval(&events, "fabricate", &[("job", first.job.0)]);
    let (exec_open, exec_close) = span_interval(&events, "execute", &[("job", first.job.0)]);
    assert!(
        exec_open <= fab_open && fab_close <= exec_close,
        "the draw sits in the job's execute interval"
    );

    let second = session.submit(&select).unwrap().wait();
    assert_eq!(second.output, first.output, "same devices, same answer");
    let snap = ring.snapshot();
    assert_eq!(
        snap.roots_named("fabricate").count(),
        1,
        "a drawn tile is never drawn again"
    );
    assert_job_route(&snap, &second);

    // A three-tile lease draws its two new tiles side by side, each in
    // the job's execute interval.
    let wide = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 2500,
            table_seed: 5,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(wide.output.is_ok(), "{:?}", wide.output);
    let snap = ring.snapshot();
    assert_eq!(snap.roots_named("fabricate").count(), 3);
    assert_job_route(&snap, &wide);
    let events = ring.events();
    let (exec_open, exec_close) = span_interval(&events, "execute", &[("job", wide.job.0)]);
    for tile in [1, 2] {
        let (open, close) =
            span_interval(&events, "fabricate", &[("job", wide.job.0), ("tile", tile)]);
        assert!(exec_open <= open && close <= exec_close, "tile {tile}");
    }
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);
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

/// One session of the stress test: `ops` random operations drawn from a
/// seeded RNG — submit a tiny job, flush, poll, wait on or drop a held
/// handle, register or release a 1-tile `Q6Table` — then wait on every
/// handle still held. Each `wait` must return its own job's report,
/// served or ended by its dataset's release. Returns the number of
/// accepted submissions.
fn stress_session(session: &PoolClient, seed: u64, ops: usize) -> u64 {
    let mut rng = seeded(seed);
    let mut held: Vec<JobHandle> = Vec::new();
    let mut table: Option<DatasetHandle> = None;
    let mut accepted = 0;
    let check = |handle: JobHandle| {
        let id = handle.id();
        let report = handle.wait();
        assert_eq!(report.job, id, "a wait returns its own job's report");
        assert!(
            matches!(report.output, Ok(_) | Err(JobError::DatasetReleased { .. })),
            "{id}: {:?}",
            report.output
        );
    };
    for op in 0..ops {
        match rng.gen_range(0..8) {
            0..=2 => {
                let spec = match (rng.gen_range(0..3), &table) {
                    (0, Some(table)) => WorkloadSpec::Q6Query {
                        dataset: table.id(),
                        params: Q6Params::tpch_default(),
                    },
                    (1, _) => WorkloadSpec::ScoutBulk {
                        op: ScoutOp::Or,
                        rows: (0..3)
                            .map(|i| BitVec::from_fn(128, |j| (i + j + op) % 5 == 0))
                            .collect(),
                    },
                    _ => WorkloadSpec::XorEncrypt {
                        message: vec![op as u8; 32],
                        key_seed: seed ^ op as u64,
                    },
                };
                held.push(session.submit(&spec).expect("tiny jobs always compile"));
                accepted += 1;
            }
            3 => session.flush(),
            4 if !held.is_empty() => {
                let _ = held[rng.gen_range(0..held.len())].poll();
            }
            5 if !held.is_empty() => check(held.swap_remove(rng.gen_range(0..held.len()))),
            6 if !held.is_empty() => drop(held.swap_remove(rng.gen_range(0..held.len()))),
            7 => {
                table = match table {
                    Some(_) => None,
                    None => Some(
                        session
                            .register_dataset(&DatasetSpec::Q6Table {
                                rows: rng.gen_range(64..=1024),
                                table_seed: seed ^ op as u64,
                            })
                            .expect("a 1-tile table always fits"),
                    ),
                }
            }
            _ => {}
        }
    }
    held.into_iter().for_each(check);
    accepted
}

/// Schedule-perturbation stress: four sessions on a 2-shard pool
/// interleave random submissions, flushes, polls, waits, handle drops
/// and dataset registrations and releases. Every accepted job is
/// counted exactly once, every span closes, and once every dataset
/// handle is gone the pins are back at zero: a table pinning every
/// digital tile of the pool registers, and after its release a select
/// filling every digital tile runs on both shards.
#[test]
fn concurrent_sessions_account_every_job_span_and_pin() {
    const SESSIONS: u32 = 4;
    let (ring, pool) = traced_pool(2);
    let start = Barrier::new(SESSIONS as usize);
    let accepted: u64 = std::thread::scope(|s| {
        let sessions: Vec<_> = (0..SESSIONS)
            .map(|t| {
                let session = pool.client(TenantId(t + 1));
                let start = &start;
                s.spawn(move || {
                    start.wait();
                    stress_session(&session, 0x57E55 + u64::from(t), 150)
                })
            })
            .collect();
        sessions.into_iter().map(|h| h.join().unwrap()).sum()
    });

    // Jobs whose handles were dropped end on the shard workers without
    // a caller: flush the last of them and let them finish.
    pool.flush();
    let deadline = Instant::now() + Duration::from_secs(30);
    while pool.telemetry().jobs < accepted && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(
        pool.telemetry().jobs,
        accepted,
        "one report per accepted job"
    );
    assert_eq!(ring.dropped(), 0, "the ring holds the whole run");
    let snap = ring.snapshot();
    assert_eq!(snap.unclosed, 0);
    assert_eq!(snap.orphan_closes, 0);

    // Every digital tile of the pool, as a table and then as a select:
    // neither fits unless no pin outlived its dataset, and the select
    // scatters over both shards whatever the routing ledger holds.
    let cfg = pool.config();
    let rows = cfg.shards * cfg.digital_tiles * cfg.tile_cols;
    let session = pool.client(TenantId(9));
    let whole_pool = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows,
            table_seed: 5,
        })
        .expect("no pin outlived its dataset");
    drop(whole_pool);
    let report = session
        .submit(&WorkloadSpec::Q6Select {
            rows,
            table_seed: 6,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    assert_eq!(report.shards, vec![0, 1], "both shards still serve");
}
