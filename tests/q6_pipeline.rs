//! Integration: the full §II QUERY SELECT pipeline.
//!
//! Verifies that the three Query-6 execution paths — scalar scan, bitmap
//! plan on the CPU, and the bitmap plan on CIM scouting logic served by
//! the pool, cold (`Q6Select`) and over resident bins (`Q6Query`) —
//! agree bit for bit across table sizes, tile widths and the whole
//! parameter domain; that parameters outside it are typed errors; and
//! that the served plan's operation counts behave as the architecture
//! predicts.

use cim_repro::cim_bitmap_db::query::{q6_bitmap_cpu, q6_result_from_selection, q6_scan, Q6Result};
use cim_repro::cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_repro::cim_core::ExecutionStats;
use cim_repro::cim_runtime::{
    CompileError, DatasetSpec, JobOutput, PoolClient, PoolConfig, RuntimePool, TenantId,
    WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use proptest::prelude::*;

/// Tile width of the property test's pool: tables of up to three tiles.
const TILE_COLS: usize = 512;

/// A one-shard pool of `tiles` digital tiles, each `tile_cols` wide.
fn pool(tiles: usize, tile_cols: usize) -> RuntimePool {
    RuntimePool::new(PoolConfig {
        shards: 1,
        digital_tiles: tiles,
        tile_cols,
        analog_tiles: 0,
        ..PoolConfig::default()
    })
}

/// Serves `spec`, returning its result and stats.
fn serve(session: &PoolClient, spec: &WorkloadSpec) -> (Q6Result, ExecutionStats) {
    let report = session.submit(spec).expect("spec compiles").wait();
    match report.output {
        Ok(JobOutput::Q6(result)) => (result, report.stats),
        other => panic!("{spec:?} failed: {other:?}"),
    }
}

/// Registers the table of `rows` and `table_seed` as resident bins and
/// serves one `Q6Query` over it; the bins are released on return.
fn serve_resident(
    session: &PoolClient,
    rows: usize,
    table_seed: u64,
    params: Q6Params,
) -> (Q6Result, ExecutionStats) {
    let resident = session
        .register_dataset(&DatasetSpec::Q6Table { rows, table_seed })
        .expect("table fits the pool");
    let query = WorkloadSpec::Q6Query {
        dataset: resident.id(),
        params,
    };
    serve(session, &query)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Over the whole parameter domain and table sizes that leave a
    /// partial last tile, the CPU plan, the cold select and the
    /// resident query all return the scan's result: `==` compares the
    /// revenue bit for bit.
    #[test]
    fn three_paths_agree_across_sizes_and_parameters(
        rows in 1usize..3 * TILE_COLS,
        table_seed in any::<u64>(),
        year in 0u16..=6,
        discount in 0u8..=11,
        max_quantity in 2u8..=51,
    ) {
        let params = Q6Params { year, discount, max_quantity };
        let table = LineItemTable::generate(rows, table_seed);
        let scan = q6_scan(&table, &params);
        prop_assert_eq!(q6_bitmap_cpu(&table, &params).result, scan, "CPU plan, {:?}", params);

        let pool = pool(3, TILE_COLS);
        let session = pool.client(TenantId(1));
        let select = WorkloadSpec::Q6Select { rows, table_seed, params };
        prop_assert_eq!(serve(&session, &select).0, scan, "Q6Select, rows={}, {:?}", rows, params);
        prop_assert_eq!(
            serve_resident(&session, rows, table_seed, params).0,
            scan,
            "Q6Query, rows={}, {:?}",
            rows,
            params
        );
    }
}

/// The served selection is the per-row predicate's, bit for bit: its
/// result equals the one aggregated over the predicate's selection, at
/// the default parameters and at every edge of the domain.
#[test]
fn cim_selection_is_bit_exact() {
    let table = LineItemTable::generate(6000, 9);
    let pool = pool(3, 2048);
    let session = pool.client(TenantId(1));
    // (year, discount, max_quantity): the default, then each edge.
    let edges = [
        (2, 6, 24),
        (6, 6, 24),
        (2, 0, 24),
        (2, 11, 24),
        (2, 6, 2),
        (2, 6, 51),
    ];
    for (year, discount, max_quantity) in edges {
        let params = Q6Params {
            year,
            discount,
            max_quantity,
        };
        let selection = BitVec::from_fn(table.rows(), |i| {
            params.matches(table.ship_month[i], table.discount[i], table.quantity[i])
        });
        let expected = q6_result_from_selection(&table, &params, &selection);
        assert_eq!(expected, q6_scan(&table, &params));
        let select = WorkloadSpec::Q6Select {
            rows: table.rows(),
            table_seed: 9,
            params,
        };
        assert_eq!(serve(&session, &select).0, expected, "{params:?}");
    }
}

/// Parameters whose predicate windows leave the stored bins are typed
/// errors from both `submit` and `verify`, for cold selects and for
/// resident queries alike, and the pool serves on.
#[test]
fn out_of_domain_parameters_are_invalid_specs() {
    let pool = pool(2, TILE_COLS);
    let session = pool.client(TenantId(1));
    let resident = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 500,
            table_seed: 3,
        })
        .expect("table fits the pool");
    // (year, discount, max_quantity) and the field each is blamed on.
    let probes = [
        (7, 6, 24, "params.year"),
        (8, 6, 24, "params.year"),
        (9, 6, 24, "params.year"),
        (6000, 6, 24, "params.year"),
        (u16::MAX, 6, 24, "params.year"),
        (2, 12, 24, "params.discount"),
        (2, 255, 24, "params.discount"),
        (2, 6, 0, "params.max_quantity"),
        (2, 6, 1, "params.max_quantity"),
        (2, 6, 52, "params.max_quantity"),
        (2, 6, 60, "params.max_quantity"),
        (2, 6, 255, "params.max_quantity"),
    ];
    for (year, discount, max_quantity, field) in probes {
        let params = Q6Params {
            year,
            discount,
            max_quantity,
        };
        let specs = [
            WorkloadSpec::Q6Select {
                rows: 500,
                table_seed: 3,
                params,
            },
            WorkloadSpec::Q6Query {
                dataset: resident.id(),
                params,
            },
        ];
        for spec in specs {
            for err in [session.submit(&spec).err(), session.verify(&spec).err()] {
                assert!(
                    matches!(err, Some(CompileError::InvalidSpec { field: f, .. }) if f == field),
                    "{spec:?}: {err:?}"
                );
            }
        }
    }
    let params = Q6Params::tpch_default();
    let query = WorkloadSpec::Q6Query {
        dataset: resident.id(),
        params,
    };
    let table = LineItemTable::generate(500, 3);
    assert_eq!(serve(&session, &query).0, q6_scan(&table, &params));
}

#[test]
fn array_accesses_independent_of_row_count_per_tile() {
    // One tile: the access count depends only on the plan, not the data.
    // Fan-in 8: months (12 bins) = 2 accesses, discount (3) = 1,
    // quantity (23) = 4, final AND = 1 → 8 accesses and 7 write-backs.
    let params = Q6Params::tpch_default();
    let pool = pool(2, 4096);
    let session = pool.client(TenantId(1));
    let (_, small) = serve_resident(&session, 500, 1, params);
    let (_, large) = serve_resident(&session, 4000, 2, params);
    assert_eq!((small.logic_ops, small.row_writes), (8, 7));
    assert_eq!(
        (large.logic_ops, large.row_writes),
        (small.logic_ops, small.row_writes)
    );
    assert!(small.energy.0 > 0.0 && small.busy_time.0 > 0.0);
    // A multi-row access folds up to 8 bins; the CPU plan ORs two rows
    // at a time.
    let cpu = q6_bitmap_cpu(&LineItemTable::generate(500, 1), &params);
    assert!(small.logic_ops < cpu.bitwise_ops);
}

#[test]
fn tiling_scales_ops_linearly() {
    let params = Q6Params::tpch_default();
    let (one, a) = serve_resident(&pool(1, 8000).client(TenantId(1)), 8000, 3, params);
    let (four, b) = serve_resident(&pool(4, 2000).client(TenantId(1)), 8000, 3, params);
    assert_eq!(one, four);
    assert_eq!(b.logic_ops, 4 * a.logic_ops);
    // Busy time scales with tile count: the tiles' accesses are summed.
    assert!(b.busy_time.0 > 3.0 * a.busy_time.0);
}
