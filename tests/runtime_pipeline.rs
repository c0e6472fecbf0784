//! End-to-end tests of the `cim-runtime` serving path.
//!
//! Pins the runtime invariants:
//! 1. batched execution is bit-identical to one-job-per-batch execution
//!    for a fixed pool seed,
//! 2. a handle's report does not depend on how or when it is collected,
//! 3. pool-wide telemetry equals the sum of per-job statistics,
//! 4. tenants cannot read each other's tiles,
//! 5. resident datasets pay their load writes once, stay resident
//!    until the last `DatasetHandle` drops, and are never readable by
//!    another tenant,
//! 6. simulated makespan falls as shards are added, with outputs
//!    unchanged.

use cim_repro::cim_bitmap_db::query::{
    q6_bin_dictionary, q6_probe_keys, q6_result_from_selection, q6_scan,
    q6_selection_from_bin_slots, Q6Indexes, Q6_BIN_KEY_WIDTH,
};
use cim_repro::cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_core::ExecutionStats;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_imgproc::image::GrayImage;
use cim_repro::cim_runtime::{
    CompileError, DatasetSpec, ImgFilterOp, JobError, JobHandle, JobOutput, PoolConfig, RuleCode,
    RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;

/// A mixed multi-tenant workload touching every compiled job family.
fn mixed_workload() -> Vec<(TenantId, WorkloadSpec)> {
    let mut jobs = Vec::new();
    for i in 0..3u64 {
        jobs.push((
            TenantId(1),
            WorkloadSpec::Q6Select {
                rows: 900 + 300 * i as usize,
                table_seed: 11 + i,
                params: Q6Params::tpch_default(),
            },
        ));
        jobs.push((
            TenantId(2),
            WorkloadSpec::XorEncrypt {
                message: (0..200u32)
                    .map(|b| (b as u8).wrapping_mul(7).wrapping_add(i as u8))
                    .collect(),
                key_seed: 40 + i,
            },
        ));
        jobs.push((
            TenantId(3),
            WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows: (0..6)
                    .map(|r| BitVec::from_fn(256, |j| (j + r + i as usize).is_multiple_of(5)))
                    .collect(),
            },
        ));
        jobs.push((
            TenantId(5),
            WorkloadSpec::ImgFilter {
                image: GrayImage::checkerboard(32, 16, 4, 0.2, 0.8).with_gaussian_noise(0.05, i),
                filter: ImgFilterOp::Box { radius: 2 },
            },
        ));
    }
    jobs.push((
        TenantId(4),
        WorkloadSpec::HdcClassify {
            classes: 6,
            d: 2048,
            ngram: 3,
            train_len: 1200,
            samples: 12,
            sample_len: 200,
        },
    ));
    jobs
}

/// Submits every job through a per-tenant session, returning handles.
fn submit_all(pool: &RuntimePool, jobs: &[(TenantId, WorkloadSpec)]) -> Vec<JobHandle> {
    jobs.iter()
        .map(|(tenant, spec)| {
            pool.client(*tenant)
                .submit(spec)
                .expect("workload fits the pool")
        })
        .collect()
}

#[test]
fn batched_equals_sequential_for_fixed_seed() {
    let jobs = mixed_workload();

    let batched = RuntimePool::new(PoolConfig::with_shards(2));
    let handles = submit_all(&batched, &jobs);
    let batched_reports = batched.client(TenantId(0)).wait_all(handles);

    // The reference schedule: every job in a batch of its own.
    let sequential = RuntimePool::new(PoolConfig {
        coalesce: false,
        ..PoolConfig::with_shards(2)
    });
    let handles = submit_all(&sequential, &jobs);
    let sequential_reports = sequential.client(TenantId(0)).wait_all(handles);
    assert_eq!(
        sequential.telemetry().batches,
        sequential_reports.len() as u64,
        "one job per batch"
    );

    assert_eq!(batched_reports.len(), sequential_reports.len());
    for (b, s) in batched_reports.iter().zip(&sequential_reports) {
        assert_eq!(b.job, s.job);
        assert_eq!(b.output, s.output, "outputs differ for {}", b.job);
        // Operation counts are schedule-invariant. Energy is not
        // asserted bit-exact: coalesced jobs may lease different
        // physical tiles, and per-device fabrication variation makes
        // energy (not results) placement-dependent.
        assert_eq!(b.stats.row_writes, s.stats.row_writes, "{}", b.job);
        assert_eq!(b.stats.row_reads, s.stats.row_reads, "{}", b.job);
        assert_eq!(b.stats.logic_ops, s.stats.logic_ops, "{}", b.job);
        assert_eq!(
            b.stats.matrix_programs, s.stats.matrix_programs,
            "{}",
            b.job
        );
        assert_eq!(b.stats.mvms, s.stats.mvms, "{}", b.job);
        assert_eq!(b.shard, s.shard, "shard selection differs for {}", b.job);
    }
    // Batching actually batched: fewer batches than jobs.
    assert!(batched.telemetry().batches < batched_reports.len() as u64);
}

/// Tiles work in parallel: the same digital job set served on 1, 2 and
/// 4 shards finishes in strictly less simulated time as shards are
/// added (the pool ends when its busiest shard does), with outputs
/// identical across shard counts.
#[test]
fn simulated_makespan_falls_with_shard_count() {
    let mut jobs = Vec::new();
    for i in 0..4u64 {
        jobs.push((
            TenantId(1),
            WorkloadSpec::Q6Select {
                rows: 1000,
                table_seed: 100 + i,
                params: Q6Params::tpch_default(),
            },
        ));
        jobs.push((
            TenantId(2),
            WorkloadSpec::XorEncrypt {
                message: (0..256u32)
                    .map(|b| (b as u8).wrapping_add(i as u8))
                    .collect(),
                key_seed: 7 + i,
            },
        ));
        jobs.push((
            TenantId(3),
            WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows: (0..8)
                    .map(|r| BitVec::from_fn(1024, |j| (j + r) % 7 == i as usize))
                    .collect(),
            },
        ));
    }

    let mut makespans = Vec::new();
    let mut baseline: Option<Vec<_>> = None;
    for shards in [1usize, 2, 4] {
        let pool = RuntimePool::new(PoolConfig::with_shards(shards));
        let handles = submit_all(&pool, &jobs);
        let outputs: Vec<_> = pool
            .client(TenantId(0))
            .wait_all(handles)
            .into_iter()
            .map(|r| r.output.expect("digital jobs serve"))
            .collect();
        match &baseline {
            Some(want) => assert_eq!(&outputs, want, "outputs differ on {shards} shards"),
            None => baseline = Some(outputs),
        }
        makespans.push(pool.telemetry().simulated_makespan().0);
    }
    assert!(
        makespans.windows(2).all(|w| w[1] < w[0]),
        "simulated makespan must fall with shard count: {makespans:?}"
    );
}

/// A handle's report does not depend on how it is collected:
/// `wait_all` in job order and individual `wait`s in reverse order
/// return bit-identical reports for a fixed seed.
#[test]
fn handle_wait_matches_wait_all() {
    let jobs = mixed_workload();

    let session_pool = RuntimePool::new(PoolConfig::with_shards(2));
    let handles = submit_all(&session_pool, &jobs);
    // Exercise poll on the way: nothing blocks before the flush.
    for handle in &handles {
        assert_eq!(
            handle.poll(),
            cim_repro::cim_runtime::JobStatus::Queued,
            "submission must not implicitly dispatch"
        );
    }
    let session_reports = session_pool.client(TenantId(0)).wait_all(handles);

    let reverse_pool = RuntimePool::new(PoolConfig::with_shards(2));
    let mut reverse_reports: Vec<_> = submit_all(&reverse_pool, &jobs)
        .into_iter()
        .rev()
        .map(JobHandle::wait)
        .collect();
    reverse_reports.reverse();

    assert_eq!(session_reports, reverse_reports);
}

#[test]
fn pool_stats_equal_sum_of_job_stats() {
    let pool = RuntimePool::new(PoolConfig::with_shards(2));
    let handles = submit_all(&pool, &mixed_workload());
    let reports = pool.client(TenantId(0)).wait_all(handles);

    let mut summed = ExecutionStats::default();
    for r in &reports {
        summed.row_writes += r.stats.row_writes;
        summed.row_reads += r.stats.row_reads;
        summed.logic_ops += r.stats.logic_ops;
        summed.matrix_programs += r.stats.matrix_programs;
        summed.mvms += r.stats.mvms;
        summed.energy += r.stats.energy;
        summed.busy_time += r.stats.busy_time;
    }
    let telemetry = pool.telemetry();
    let pool_stats = telemetry.pool;
    assert_eq!(pool_stats.row_writes, summed.row_writes);
    assert_eq!(pool_stats.row_reads, summed.row_reads);
    assert_eq!(pool_stats.logic_ops, summed.logic_ops);
    assert_eq!(pool_stats.matrix_programs, summed.matrix_programs);
    assert_eq!(pool_stats.mvms, summed.mvms);
    assert!((pool_stats.energy.0 - summed.energy.0).abs() <= 1e-12 * summed.energy.0.abs());
    assert!(
        (pool_stats.busy_time.0 - summed.busy_time.0).abs() <= 1e-12 * summed.busy_time.0.abs()
    );

    // Per-tenant jobs add up to the total, and per-shard stats cover
    // every executed instruction.
    let tenant_jobs: u64 = telemetry
        .per_tenant
        .values()
        .map(|t| t.jobs + t.failed)
        .sum();
    assert_eq!(tenant_jobs, reports.len() as u64);
    let shard_instr: u64 = telemetry.per_shard.iter().map(|s| s.instructions()).sum();
    assert_eq!(shard_instr, pool_stats.instructions());
}

#[test]
fn tenants_cannot_read_each_others_tiles() {
    // Tenant A leases one tile and fills a row with a recognizable
    // pattern. Tenant B then leases a tile on the same (single-shard)
    // pool and reads the same row index: it must see scrubbed zeros,
    // and any access outside its lease must fault.
    let pool = RuntimePool::new(PoolConfig::with_shards(1));
    let marker = BitVec::from_fn(1024, |j| j % 2 == 0);

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
    assert!(
        first.maintenance.energy.0 > 0.0,
        "lease scrubbing must actually write"
    );

    // Tenant B tries to read the row tenant A wrote (same physical
    // tile 0, the first job completed so the lease was recycled). The
    // admission verifier rejects the probe outright: a raw stream may
    // only read rows it wrote itself (L001), so a cross-tenant residue
    // probe is not even expressible — isolation is enforced statically,
    // one layer before the scrub. (The dynamic check that the scrub
    // really zeroes the rows lives in the runtime's in-crate suite,
    // behind the verifier through a test-only seam.)
    let probe = pool.client(TenantId(11));
    let read_back = probe
        .submit(&WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![CimInstruction::ReadRow { tile: 0, row: 5 }],
        })
        .unwrap();
    // And tenant B also tries to escape its one-tile lease outright.
    let escape = probe
        .submit(&WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![CimInstruction::ReadRow { tile: 1, row: 5 }],
        })
        .unwrap();

    match read_back.wait().output {
        Err(JobError::RejectedByVerifier { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.rule == RuleCode::UninitRead),
                "{diagnostics:?}"
            );
        }
        other => panic!("cross-tenant probe must be rejected, got {other:?}"),
    }
    match escape.wait().output {
        Err(JobError::RejectedByVerifier { diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.rule == RuleCode::TileBounds),
                "{diagnostics:?}"
            );
        }
        other => panic!("out-of-lease access must be rejected, got {other:?}"),
    }
}

#[test]
fn q6_and_hdc_serve_end_to_end() {
    let pool = RuntimePool::new(PoolConfig::with_shards(2));
    let q6 = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::Q6Select {
            rows: 2500,
            table_seed: 77,
            params: Q6Params::tpch_default(),
        })
        .unwrap();
    let hdc = pool
        .client(TenantId(2))
        .submit(&WorkloadSpec::HdcClassify {
            classes: 8,
            d: 2048,
            ngram: 3,
            train_len: 2000,
            samples: 16,
            sample_len: 300,
        })
        .unwrap();

    let expected = q6_scan(
        &LineItemTable::generate(2500, 77),
        &Q6Params::tpch_default(),
    );
    match q6.wait().output.as_ref().unwrap() {
        JobOutput::Q6(result) => {
            assert_eq!(result.matching_rows, expected.matching_rows);
            assert!((result.revenue - expected.revenue).abs() < 1e-6);
        }
        other => panic!("unexpected output {other:?}"),
    }
    match hdc.wait().output.as_ref().unwrap() {
        JobOutput::Hdc(outcome) => {
            assert_eq!(outcome.predictions.len(), 16);
            assert!(
                outcome.accuracy() > 0.8,
                "in-array classification accuracy {}",
                outcome.accuracy()
            );
        }
        other => panic!("unexpected output {other:?}"),
    }
    // Telemetry saw both tenants and a positive offload estimate.
    let telemetry = pool.telemetry();
    assert_eq!(telemetry.per_tenant.len(), 2);
    assert!(telemetry.mean_speedup() > 1.0);
    assert!(telemetry.pool.mvms >= 16);
}

/// Acceptance: a repeated-query workload (≥8 Q6 queries against one
/// registered dataset) pays the resident-data writes once — visible in
/// the dataset's load stats — while per-query stats carry only
/// query-side operations, and every result stays bit-exact vs the
/// scalar reference.
#[test]
fn resident_dataset_amortizes_load_across_queries() {
    let pool = RuntimePool::new(PoolConfig::with_shards(2));
    let session = pool.client(TenantId(1));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 1800,
            table_seed: 21,
        })
        .unwrap();

    // Eight different parameterizations of Q6 against the same bins.
    let params: Vec<Q6Params> = (0..8)
        .map(|i| Q6Params {
            year: 1 + (i % 3) as u16,
            discount: 4 + (i % 4) as u8,
            max_quantity: 20 + 2 * (i % 5) as u8,
        })
        .collect();
    let handles: Vec<JobHandle> = params
        .iter()
        .map(|p| {
            session
                .submit(&WorkloadSpec::Q6Query {
                    dataset: table.id(),
                    params: *p,
                })
                .unwrap()
        })
        .collect();
    let reports = session.wait_all(handles);

    let reference_table = LineItemTable::generate(1800, 21);
    for (report, p) in reports.iter().zip(&params) {
        let expected = q6_scan(&reference_table, p);
        match report.output.as_ref().unwrap() {
            JobOutput::Q6(result) => {
                assert_eq!(result.matching_rows, expected.matching_rows, "{p:?}");
                assert!((result.revenue - expected.revenue).abs() < 1e-6, "{p:?}");
            }
            other => panic!("unexpected output {other:?}"),
        }
        // Query-side only: scratch write-backs (≤7 per tile on two
        // tiles), never the 145-per-tile bin writes.
        assert!(report.stats.row_writes <= 14, "{p:?}");
        assert!(report.stats.logic_ops > 0, "{p:?}");
    }

    let telemetry = pool.telemetry();
    let usage = &telemetry.datasets[&table.id().0];
    assert_eq!(usage.queries, 8);
    assert_eq!(
        usage.load_stats.row_writes,
        2 * 145,
        "bin writes paid exactly once, at registration"
    );
    let query_writes: u64 = reports.iter().map(|r| r.stats.row_writes).sum();
    assert_eq!(usage.query_stats.row_writes, query_writes);
    // The amortization the design exists for: per-query share of the
    // load is 8x smaller than the load itself.
    assert!(
        usage.amortized_load_writes_per_query() * 8.0 <= usage.load_stats.row_writes as f64 + 1e-9
    );
    // Loads are ledgered separately from per-job stats.
    assert_eq!(telemetry.pool.row_writes, query_writes);
}

/// Satellite: the dataset lease is reference-counted — the lease is
/// scrubbed only after the *last* handle drops, and a second tenant can
/// never read the resident data (neither while resident nor after).
#[test]
fn dataset_lease_scrubbed_only_after_last_handle_drops() {
    let pool = RuntimePool::new(PoolConfig::with_shards(1));
    let owner = pool.client(TenantId(1));
    let spy = pool.client(TenantId(2));

    // One-tile dataset (500 rows < 1024 cols) pins physical tile 0.
    let first_handle = owner
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 500,
            table_seed: 3,
        })
        .unwrap();
    let second_handle = first_handle.clone();
    assert_eq!(first_handle.ref_count(), 2);
    let expected = q6_scan(&LineItemTable::generate(500, 3), &Q6Params::tpch_default());

    // While resident: the other tenant cannot query it…
    let denied = spy
        .submit(&WorkloadSpec::Q6Query {
            dataset: first_handle.id(),
            params: Q6Params::tpch_default(),
        })
        .unwrap_err();
    assert!(matches!(denied, CompileError::DatasetAccessDenied { .. }));
    // …cannot lease enough tiles to cover the pinned one…
    let too_big = spy
        .submit(&WorkloadSpec::Raw {
            digital_tiles: 4,
            analog_tiles: 0,
            instructions: vec![],
        })
        .unwrap_err();
    assert!(matches!(
        too_big,
        CompileError::NeedsMoreDigitalTiles {
            required: 4,
            available: 3,
        }
    ));
    // …and a probing read of the resident rows through a fresh lease
    // is rejected at admission: a raw stream may only read rows it
    // wrote itself (L001), so resident data cannot be probed even
    // through the lease that maps around the pinned tile. (The dynamic
    // residue checks live in the runtime's in-crate suite, behind the
    // verifier through a test-only seam.)
    let probe = spy
        .submit(&WorkloadSpec::Raw {
            digital_tiles: 3,
            analog_tiles: 0,
            instructions: (0..3)
                .map(|tile| CimInstruction::ReadRow { tile, row: 0 })
                .collect(),
        })
        .unwrap()
        .wait();
    match probe.output {
        Err(JobError::RejectedByVerifier { ref diagnostics }) => {
            assert!(
                diagnostics.iter().any(|d| d.rule == RuleCode::UninitRead),
                "{diagnostics:?}"
            );
        }
        ref other => panic!("resident-data probe must be rejected, got {other:?}"),
    }

    // Dropping one of two handles must NOT release the lease: queries
    // still serve from the resident bins, bit-exact.
    drop(first_handle);
    let still_resident = owner
        .submit(&WorkloadSpec::Q6Query {
            dataset: second_handle.id(),
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    match still_resident.output.as_ref().unwrap() {
        JobOutput::Q6(result) => assert_eq!(result.matching_rows, expected.matching_rows),
        other => panic!("unexpected output {other:?}"),
    }

    // Dropping the last handle releases and scrubs. The freed tile
    // (physical 0, lowest index) goes back into fresh leases: reading
    // the rows the bins occupied must see zeros, and a query against
    // the dead id must be rejected.
    let dataset_id = second_handle.id();
    drop(second_handle);
    let dead = owner
        .submit(&WorkloadSpec::Q6Query {
            dataset: dataset_id,
            params: Q6Params::tpch_default(),
        })
        .unwrap_err();
    assert!(matches!(dead, CompileError::UnknownDataset { .. }));

    // A probe of the freed rows is still inexpressible for a tenant —
    // same L001 rejection as above, release or no release.
    let after = spy
        .submit(&WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: (0..145)
                .map(|row| CimInstruction::ReadRow { tile: 0, row })
                .collect(),
        })
        .unwrap()
        .wait();
    assert!(
        matches!(after.output, Err(JobError::RejectedByVerifier { .. })),
        "{:?}",
        after.output
    );
}

/// HDC prototypes stay programmed across query jobs and serve with the
/// same accuracy as the one-shot classification workload.
#[test]
fn resident_hdc_prototypes_serve_queries() {
    let pool = RuntimePool::new(PoolConfig::with_shards(1));
    let session = pool.client(TenantId(5));
    let prototypes = session
        .register_dataset(&DatasetSpec::HdcPrototypes {
            classes: 6,
            d: 2048,
            ngram: 3,
            train_len: 1500,
        })
        .unwrap();
    let handles: Vec<JobHandle> = (0..2)
        .map(|_| {
            session
                .submit(&WorkloadSpec::HdcQuery {
                    dataset: prototypes.id(),
                    samples: 12,
                    sample_len: 250,
                })
                .unwrap()
        })
        .collect();
    let reports = session.wait_all(handles);
    for report in &reports {
        assert_eq!(
            report.stats.matrix_programs, 0,
            "queries must not reprogram the matrix"
        );
        assert_eq!(report.stats.mvms, 12);
        match report.output.as_ref().unwrap() {
            JobOutput::Hdc(outcome) => {
                assert!(
                    outcome.accuracy() > 0.8,
                    "resident-prototype accuracy {}",
                    outcome.accuracy()
                );
            }
            other => panic!("unexpected output {other:?}"),
        }
    }
    let telemetry = pool.telemetry();
    let usage = &telemetry.datasets[&prototypes.id().0];
    assert_eq!(usage.load_stats.matrix_programs, 1, "programmed once");
    assert_eq!(usage.queries, 2);
}

/// The CAM-side half of a dictionary join closes the Q6 bitmap plan:
/// the bin dictionary lives resident in CAM slots, the predicate values
/// resolve to bin slots through `KeyLookup` exact searches, and the
/// host reassembles the selection — revenue matches the scalar scan bit
/// for bit. Exact match is noise-immune (zero mismatches ⇒ exactly zero
/// match-line current), so no noise knobs are needed.
#[test]
fn key_lookup_joins_the_q6_bitmap_plan() {
    let table = LineItemTable::generate(1500, 23);
    let params = Q6Params::tpch_default();
    let idx = Q6Indexes::build(&table);

    let pool = RuntimePool::new(PoolConfig::default());
    let session = pool.client(TenantId(8));
    let dictionary = session
        .register_dataset(&DatasetSpec::CamKeys {
            keys: q6_bin_dictionary(&idx),
            width: Q6_BIN_KEY_WIDTH,
        })
        .unwrap();
    let probes = q6_probe_keys(&params);
    let report = session
        .submit(&WorkloadSpec::KeyLookup {
            dataset: dictionary.id(),
            probes: probes.clone(),
        })
        .unwrap()
        .wait();

    let slots = match report.output.expect("lookup serves") {
        JobOutput::Lookups(slots) => slots,
        other => panic!("unexpected output {other:?}"),
    };
    assert_eq!(slots.len(), probes.len());
    assert!(slots.iter().any(Option::is_some), "predicates hit bins");
    assert_eq!(report.stats.row_writes, 0, "dictionary already resident");
    assert!(report.stats.searches >= probes.len() as u64);

    let selection = q6_selection_from_bin_slots(&idx, &slots);
    let joined = q6_result_from_selection(&table, &params, &selection);
    assert_eq!(joined, q6_scan(&table, &params), "join equals scalar scan");

    let telemetry = pool.telemetry();
    let usage = &telemetry.datasets[&dictionary.id().0];
    assert_eq!(usage.kind, "cam-keys");
    assert!(usage.load_stats.key_writes > 0, "keys written at load");
}
