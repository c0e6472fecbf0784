//! End-to-end tests of cross-shard scatter-gather (ISSUE 4 tentpole).
//!
//! The acceptance contract:
//! 1. a Q6 select sized to 2x one shard's digital tiles completes on a
//!    4-shard pool with results bit-identical to the same select on one
//!    giant shard (and to the scalar scan),
//! 2. split execution is invisible to the caller: outputs, op counts
//!    and the one-flush ≡ one-flush-per-submission invariant all hold
//!    through the gather,
//! 3. a job (or dataset) that can never fit the pool fails *terminally*
//!    — a synthesized `WorkloadTooLarge` report / `DatasetTooLarge`
//!    error — while mere admission pressure stays retryable,
//! 4. a resident dataset bigger than any one shard scatters its pin
//!    across shards and serves scatter-gathered queries bit-exactly,
//!    while a raw query over it, which cannot split, fails terminally.

use cim_repro::cim_bitmap_db::query::q6_scan;
use cim_repro::cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_runtime::{
    CompileError, DatasetSpec, JobError, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use proptest::prelude::*;

/// The default geometry (4 digital tiles x 1024 entries per shard) with
/// a given shard count.
fn pool(shards: usize) -> RuntimePool {
    RuntimePool::new(PoolConfig::with_shards(shards))
}

/// One giant shard owning `digital_tiles` tiles: the unsplit reference
/// a scattered pool must match bit-for-bit.
fn giant(digital_tiles: usize) -> RuntimePool {
    RuntimePool::new(PoolConfig {
        shards: 1,
        digital_tiles,
        ..PoolConfig::default()
    })
}

/// Acceptance: a Q6 select needing 2x one shard's digital tiles (8
/// tiles on 4-tile shards) completes on a 4-shard pool, bit-identical
/// to the same select on one giant 8-tile shard and to the scalar scan.
#[test]
fn double_shard_q6_select_splits_across_shards_bit_identically() {
    let rows = 2 * 4 * 1024; // 8 tiles: 2x one shard, half the pool
    let spec = WorkloadSpec::Q6Select {
        rows,
        table_seed: 33,
        params: Q6Params::tpch_default(),
    };

    let split_pool = pool(4);
    let report = split_pool.client(TenantId(1)).submit(&spec).unwrap().wait();
    assert!(
        report.shards.len() >= 2,
        "an 8-tile select cannot fit one 4-tile shard: {:?}",
        report.shards
    );

    let unsplit = giant(8).client(TenantId(1)).submit(&spec).unwrap().wait();
    assert_eq!(unsplit.shards.len(), 1, "the giant shard serves it whole");

    // Bit-identical output (including the f64 revenue: the gather
    // reassembles the full selection and aggregates once, in row
    // order — never a partial-sum merge).
    assert_eq!(
        report.output.as_ref().unwrap(),
        unsplit.output.as_ref().unwrap()
    );
    let expected = q6_scan(
        &LineItemTable::generate(rows, 33),
        &Q6Params::tpch_default(),
    );
    match report.output.as_ref().unwrap() {
        JobOutput::Q6(result) => {
            assert_eq!(result.matching_rows, expected.matching_rows);
            assert!((result.revenue - expected.revenue).abs() < 1e-6);
        }
        other => panic!("unexpected output {other:?}"),
    }

    // `ExecutionStats` stays additive across sub-programs: the split
    // job did exactly the unsplit job's array work.
    assert_eq!(report.stats.row_writes, unsplit.stats.row_writes);
    assert_eq!(report.stats.logic_ops, unsplit.stats.logic_ops);
    assert_eq!(report.stats.row_reads, unsplit.stats.row_reads);

    // Telemetry: the job counts once, its stats attribute per shard,
    // and the per-shard ledgers still partition the pool total.
    let telemetry = split_pool.telemetry();
    assert_eq!(telemetry.jobs, 1);
    assert!(
        telemetry
            .per_shard
            .iter()
            .filter(|s| s.instructions() > 0)
            .count()
            >= 2,
        "work landed on several shards"
    );
    let shard_instr: u64 = telemetry.per_shard.iter().map(|s| s.instructions()).sum();
    assert_eq!(shard_instr, telemetry.pool.instructions());
    assert_eq!(telemetry.pool.instructions(), report.stats.instructions());
    // The scatter is the scaling story: the pool finishes when its
    // busiest shard does, strictly earlier than the serialized work.
    assert!(telemetry.simulated_makespan().0 < telemetry.simulated_busy().0);
}

/// Acceptance: a job needing more tiles than the whole pool owns fails
/// *terminally* — a synthesized report, not a retryable error — while a
/// job that merely exceeds the currently free tiles stays transient.
#[test]
fn never_fits_select_fails_terminally_not_transiently() {
    let p = pool(2);
    let session = p.client(TenantId(1));

    // `shards + 1` shards' worth of tiles (12 on a 2x4-tile pool).
    let report = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 3 * 4 * 1024,
            table_seed: 1,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    match &report.output {
        Err(JobError::WorkloadTooLarge {
            digital_required,
            digital_capacity,
            ..
        }) => {
            assert_eq!(*digital_required, 12);
            assert_eq!(*digital_capacity, 8, "capacity reported pool-wide");
        }
        other => panic!("expected a terminal WorkloadTooLarge report, got {other:?}"),
    }
    assert!(report.shards.is_empty(), "never reached a shard");
    assert_eq!(p.telemetry().failures, 1);

    // Transient contrast: pin 3 + 3 of the 8 tiles, then ask for 3 at
    // once — fits the pool's capacity (and one empty shard), just not
    // the current free tiles. Retryable submit error, no report burned.
    let _pin = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 3 * 1024,
            table_seed: 2,
        })
        .unwrap();
    let _pin2 = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 3 * 1024,
            table_seed: 3,
        })
        .unwrap();
    let err = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 3 * 1024,
            table_seed: 4,
            params: Q6Params::tpch_default(),
        })
        .unwrap_err();
    assert!(
        matches!(
            err,
            CompileError::NeedsMoreDigitalTiles {
                required: 3,
                available: 2,
            }
        ),
        "{err:?}"
    );
    // `available` counts free tiles across the pool, and no shard holds
    // more than one of them, so the message names no shard.
    assert_eq!(err.to_string(), "needs 3 digital tiles, 2 available");
}

/// A resident Q6 dataset bigger than any one shard scatters its pin
/// across shards; queries scatter-gather chunk-by-chunk to the shards
/// holding their tiles and return exactly the scalar scan's answer.
#[test]
fn oversized_dataset_splits_load_and_serves_split_queries() {
    let p = pool(4);
    let session = p.client(TenantId(3));
    let rows = 2 * 4 * 1024; // 8 tiles: no single 4-tile shard fits
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows,
            table_seed: 5,
        })
        .unwrap();
    assert!(
        table.shards().len() >= 2,
        "the pin scattered: {:?}",
        table.shards()
    );
    assert_eq!(table.shard(), table.shards()[0], "primary shard is first");

    let reference = LineItemTable::generate(rows, 5);
    let params: Vec<Q6Params> = (0..4)
        .map(|i| Q6Params {
            year: 1 + (i % 3) as u16,
            discount: 4 + (i % 4) as u8,
            max_quantity: 20 + 2 * (i % 5) as u8,
        })
        .collect();
    for q in &params {
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: *q,
            })
            .unwrap()
            .wait();
        assert!(
            report.shards.len() >= 2,
            "each query scatter-gathers across the pin's shards"
        );
        let expected = q6_scan(&reference, q);
        match report.output.as_ref().unwrap() {
            JobOutput::Q6(result) => {
                assert_eq!(result.matching_rows, expected.matching_rows, "{q:?}");
                assert!((result.revenue - expected.revenue).abs() < 1e-6, "{q:?}");
            }
            other => panic!("unexpected output {other:?}"),
        }
        // Query side only: scratch write-backs (<= 7 per tile over 8
        // tiles), never the 145-per-tile bin writes.
        assert!(report.stats.row_writes <= 7 * 8, "{q:?}");
    }

    let telemetry = p.telemetry();
    let usage = &telemetry.datasets[&table.id().0];
    assert_eq!(usage.queries, params.len() as u64);
    assert_eq!(
        usage.load_stats.row_writes,
        8 * 145,
        "bin writes paid exactly once across all chunks"
    );

    // Releasing the lease unpins every shard: the whole pool's tiles
    // serve a fresh (pool-sized, split) select afterwards.
    drop(table);
    let after = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 4 * 4 * 1024,
            table_seed: 9,
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    let expected = q6_scan(
        &LineItemTable::generate(4 * 4 * 1024, 9),
        &Q6Params::tpch_default(),
    );
    match after.output.as_ref().unwrap() {
        JobOutput::Q6(result) => assert_eq!(result.matching_rows, expected.matching_rows),
        other => panic!("unexpected output {other:?}"),
    }
    assert_eq!(after.shards.len(), 4, "all four shards' tiles freed");
}

/// Raw streams never split, so a `RawQuery` over a dataset scattered
/// across shards fails terminally with `WorkloadTooLarge`: no one shard
/// holds the whole pin. A `Q6Query` on the same dataset still
/// scatter-gathers over both shards.
#[test]
fn raw_query_over_a_scattered_dataset_fails_terminally() {
    let p = pool(2);
    let session = p.client(TenantId(4));
    let rows = 5 * 1024; // 5 tiles: 4 on shard 0, 1 on shard 1
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows,
            table_seed: 8,
        })
        .unwrap();
    assert_eq!(table.shards(), [0, 1]);

    let raw = session
        .submit(&WorkloadSpec::RawQuery {
            dataset: table.id(),
            instructions: vec![CimInstruction::ReadRow { tile: 0, row: 0 }],
        })
        .unwrap()
        .wait();
    assert_eq!(
        raw.output,
        Err(JobError::WorkloadTooLarge {
            digital_required: 5,
            analog_required: 0,
            digital_capacity: 4,
            analog_capacity: 2,
        })
    );
    assert!(raw.shards.is_empty(), "{:?}", raw.shards);

    let query = session
        .submit(&WorkloadSpec::Q6Query {
            dataset: table.id(),
            params: Q6Params::tpch_default(),
        })
        .unwrap()
        .wait();
    let expected = q6_scan(&LineItemTable::generate(rows, 8), &Q6Params::tpch_default());
    match query.output.as_ref().unwrap() {
        JobOutput::Q6(result) => assert_eq!(result.matching_rows, expected.matching_rows),
        other => panic!("unexpected output {other:?}"),
    }
    assert_eq!(query.shards, [0, 1]);
}

/// A bulk reduction over more operand rows than one shard's tiles can
/// hold chunks across tiles *and* shards, and the host-side associative
/// merge reproduces the flat reference exactly.
#[test]
fn oversized_scout_bulk_reduction_is_exact() {
    // 158 operand rows per tile (160-row tiles, 2 scratch): 700 rows
    // need 5 tiles — more than one 4-tile shard.
    let width = 512;
    let rows: Vec<BitVec> = (0..700)
        .map(|i| BitVec::from_fn(width, |j| (i * 31 + j) % 97 == 0))
        .collect();
    let mut expected = BitVec::zeros(width);
    for r in &rows {
        expected = expected.or(r);
    }

    let p = pool(2);
    let report = p
        .client(TenantId(1))
        .submit(&WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows: rows.clone(),
        })
        .unwrap()
        .wait();
    assert_eq!(report.output, Ok(JobOutput::Bits(expected)));
    assert!(report.shards.len() >= 2, "{:?}", report.shards);

    // AND over the same rows, for the other associative merge.
    let mut all = BitVec::ones(width);
    for r in &rows {
        all = all.and(r);
    }
    let and_report = p
        .client(TenantId(1))
        .submit(&WorkloadSpec::ScoutBulk {
            op: ScoutOp::And,
            rows,
        })
        .unwrap()
        .wait();
    assert_eq!(and_report.output, Ok(JobOutput::Bits(all)));
}

/// The pool's core invariant survives the scatter-gather: one flush
/// (with splitting) is bit-identical to one flush per submission, job
/// by job — outputs, shards, stats, device counters and maintenance —
/// for a mixed queue containing oversized work.
#[test]
fn split_jobs_batched_equals_sequential() {
    let jobs: Vec<(TenantId, WorkloadSpec)> = vec![
        (
            TenantId(1),
            WorkloadSpec::Q6Select {
                rows: 6 * 1024, // 6 tiles: splits on 4-tile shards
                table_seed: 7,
                params: Q6Params::tpch_default(),
            },
        ),
        (
            TenantId(2),
            WorkloadSpec::XorEncrypt {
                message: (0..128u32).map(|b| b as u8).collect(),
                key_seed: 3,
            },
        ),
        (
            TenantId(1),
            WorkloadSpec::Q6Select {
                rows: 1500, // fits one shard: stays unsplit
                table_seed: 8,
                params: Q6Params::tpch_default(),
            },
        ),
        (
            TenantId(3),
            WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows: (0..700)
                    .map(|i| BitVec::from_fn(256, |j| (i + j) % 13 == 0))
                    .collect(),
            },
        ),
    ];

    // One flush: one planning pass, one batch per shard.
    let batched = pool(4);
    let handles: Vec<_> = jobs
        .iter()
        .map(|(tenant, spec)| batched.client(*tenant).submit(spec).unwrap())
        .collect();
    let batched_reports = batched.client(TenantId(0)).wait_all(handles);

    // The reference schedule: one flush per submission, so every job
    // (and every part) dispatches in a batch of its own.
    let sequential = pool(4);
    let handles: Vec<_> = jobs
        .iter()
        .map(|(tenant, spec)| {
            let session = sequential.client(*tenant);
            let handle = session.submit(spec).unwrap();
            session.flush();
            handle
        })
        .collect();
    let sequential_reports = sequential.client(TenantId(0)).wait_all(handles);

    assert_eq!(batched_reports.len(), sequential_reports.len());
    for (b, s) in batched_reports.iter().zip(&sequential_reports) {
        assert_eq!(b.job, s.job);
        assert_eq!(b.output, s.output, "outputs differ for {}", b.job);
        assert_eq!(b.shards, s.shards, "{}", b.job);
        assert_eq!(b.stats, s.stats, "stats differ for {}", b.job);
        assert_eq!(b.device, s.device, "device counters differ for {}", b.job);
        assert_eq!(
            b.maintenance, s.maintenance,
            "maintenance differs for {}",
            b.job
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Tentpole property: a Q6 select serves bit-identically whether it
    /// fits one shard, splits across 2, or splits across 4 — always
    /// equal to the giant-shard (unsplit) reference and the scalar
    /// scan, across random sizes and query parameters.
    #[test]
    fn q6_split_equals_unsplit_across_shard_counts(
        rows in 1024usize..5120,
        table_seed in any::<u64>(),
        year in 1u16..4,
        discount in 4u8..8,
        max_quantity in 20u8..29,
    ) {
        let params = Q6Params { year, discount, max_quantity };
        let spec = WorkloadSpec::Q6Select { rows, table_seed, params };
        let tiles = rows.div_ceil(1024);

        let reference = giant(8)
            .client(TenantId(1))
            .submit(&spec)
            .unwrap()
            .wait()
            .output;
        let scan = q6_scan(&LineItemTable::generate(rows, table_seed), &params);
        match reference.as_ref().unwrap() {
            JobOutput::Q6(result) => {
                prop_assert_eq!(result.matching_rows, scan.matching_rows);
                prop_assert!((result.revenue - scan.revenue).abs() < 1e-6);
            }
            other => panic!("unexpected output {other:?}"),
        }

        for shards in [1usize, 2, 4] {
            if tiles > shards * 4 {
                continue; // exceeds this pool: covered by the terminal test
            }
            let report = pool(shards)
                .client(TenantId(1))
                .submit(&spec)
                .unwrap()
                .wait();
            prop_assert_eq!(
                report.output.as_ref().unwrap(),
                reference.as_ref().unwrap(),
                "shards={}, tiles={}", shards, tiles
            );
        }
    }

    /// HDC classification is shard-count invariant: for a fixed pool
    /// seed, the same classify job lands on the same-seeded shard and
    /// returns identical predictions on 1-, 2- and 4-shard pools.
    #[test]
    fn hdc_classify_matches_across_shard_counts(
        classes in 2usize..6,
        samples in 1usize..6,
        sample_len in 50usize..150,
    ) {
        let spec = WorkloadSpec::HdcClassify {
            classes,
            d: 1024,
            ngram: 3,
            train_len: 400,
            samples,
            sample_len,
        };
        let mut outputs = Vec::new();
        for shards in [1usize, 2, 4] {
            let report = pool(shards)
                .client(TenantId(1))
                .submit(&spec)
                .unwrap()
                .wait();
            outputs.push(report.output);
        }
        prop_assert_eq!(&outputs[0], &outputs[1]);
        prop_assert_eq!(&outputs[1], &outputs[2]);
    }
}
