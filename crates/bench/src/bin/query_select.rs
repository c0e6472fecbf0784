//! Regenerates the §II QUERY SELECT end-to-end experiment: TPC-H-like
//! Query-6 over a scale sweep, executed by scalar scan, the bitmap plan
//! on the CPU and the bitmap plan served by the CIM pool, with timing
//! and the served job's energy/op accounting.
//!
//! The CIM path is the pool's own: the table's bins are registered once
//! as a resident `Q6Table` on 4,096-column tiles, and a `Q6Query` then
//! pays only its reductions, so the CIM columns are the query's stats.

use cim_bench::{eng, print_table};
use cim_bitmap_db::query::{q6_bitmap_cpu, q6_scan};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_runtime::{DatasetSpec, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec};
use std::time::Instant;

/// Table rows (entries) per tile.
const TILE_COLS: usize = 4096;
/// Seed of the generated `lineitem` table.
const TABLE_SEED: u64 = 42;

fn main() {
    println!("# §II — QUERY SELECT (TPC-H Q6) across execution paths\n");
    let params = Q6Params::tpch_default();
    let mut rows = Vec::new();
    for &n in &[10_000usize, 50_000, 200_000] {
        let table = LineItemTable::generate(n, TABLE_SEED);

        let t0 = Instant::now();
        let scan = q6_scan(&table, &params);
        let t_scan = t0.elapsed();

        let t0 = Instant::now();
        let cpu = q6_bitmap_cpu(&table, &params);
        let t_cpu = t0.elapsed();

        let pool = RuntimePool::new(PoolConfig {
            shards: 1,
            digital_tiles: n.div_ceil(TILE_COLS),
            tile_cols: TILE_COLS,
            analog_tiles: 0,
            ..PoolConfig::default()
        });
        let session = pool.client(TenantId(1));
        let resident = session
            .register_dataset(&DatasetSpec::Q6Table {
                rows: n,
                table_seed: TABLE_SEED,
            })
            .expect("the pool is sized to the table");
        let t0 = Instant::now();
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: resident.id(),
                params,
            })
            .expect("query compiles")
            .wait();
        let t_served = t0.elapsed();
        let Ok(JobOutput::Q6(served)) = report.output else {
            panic!("Q6 query failed: {:?}", report.output);
        };

        assert_eq!(cpu.result, scan);
        assert_eq!(served, scan);

        let stats = report.stats;
        rows.push(vec![
            n.to_string(),
            scan.matching_rows.to_string(),
            format!("{:.2?}", t_scan),
            format!("{:.2?}", t_cpu),
            format!("{:.2?}", t_served),
            stats.logic_ops.to_string(),
            stats.row_writes.to_string(),
            eng(stats.energy.0, "J"),
            format!("{:.2} µs", stats.busy_time.micros()),
        ]);
    }
    print_table(
        &[
            "rows",
            "hits",
            "scan (host)",
            "bitmap CPU (host)",
            "CIM served (host)",
            "CIM array ops",
            "CIM write-backs",
            "CIM energy",
            "CIM busy time",
        ],
        &rows,
    );
    println!(
        "\nNote: 'CIM served' is wall-clock from submit to report; the modelled \
         CIM array ops/energy/busy-time columns are the query job's stats, \
         the bins having been loaded once beforehand. The CIM plan needs 8 \
         array accesses per {TILE_COLS}-entry tile regardless of row count \
         — the paper's point about bulk bit-wise query evaluation."
    );
}
