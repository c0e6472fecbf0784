//! The §II QUERY SELECT application end to end.
//!
//! Walks the paper's Fig. 2 star-catalog example, then runs TPC-H-like
//! Query-6 through all three execution paths — scalar scan, bitmap plan
//! on the CPU, and bitmap plan on CIM scouting logic served by the
//! `cim-runtime` accelerator pool — and checks they agree. The pool
//! holds the bins as a resident dataset, registered once, so repeated
//! queries pay only the query-side reductions.
//!
//! Run with: `cargo run --release --example query_select`

use cim_bitmap_db::query::{q6_bitmap_cpu, q6_scan};
use cim_bitmap_db::star::{star_catalog, StarBitmap};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_runtime::{DatasetSpec, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec};

fn main() {
    // --- Fig. 2: the star catalog as transposed bitmaps ----------------
    let stars = star_catalog();
    let bitmap = StarBitmap::build(&stars);
    println!("Fig. 2(b) transposed bitmap ({} stars):", stars.len());
    for (label, row) in bitmap.labels.iter().zip(&bitmap.rows) {
        let bits: String = (0..row.len())
            .map(|i| if row.get(i) { '1' } else { '0' })
            .collect();
        println!("  {label:<12} {bits}");
    }

    // "Which medium stars were discovered in 2010 or later?" — one AND.
    let sel = bitmap.row("size:medium").and(bitmap.row("year:new"));
    let names: Vec<char> = sel.iter_ones().map(|i| stars[i].name).collect();
    println!("medium AND new  -> {names:?} (expect ['B', 'D'])\n");

    // --- TPC-H Query-6 through three paths -----------------------------
    let table = LineItemTable::generate(100_000, 7);
    let params = Q6Params::tpch_default();

    let scan = q6_scan(&table, &params);
    println!(
        "scalar scan:  {} rows match, revenue {:.2}",
        scan.matching_rows, scan.revenue
    );

    let cpu = q6_bitmap_cpu(&table, &params);
    println!(
        "bitmap (CPU): {} rows match, revenue {:.2}, {} row-wide bit ops",
        cpu.result.matching_rows, cpu.result.revenue, cpu.bitwise_ops
    );
    assert_eq!(cpu.result, scan);

    // The CIM path: the bins are registered once as a resident dataset
    // on 4,096-column tiles; each query then pays only its reductions.
    let pool = RuntimePool::new(PoolConfig {
        shards: 1,
        digital_tiles: table.rows().div_ceil(4096),
        tile_cols: 4096,
        analog_tiles: 0,
        ..PoolConfig::default()
    });
    let session = pool.client(TenantId(1));
    let resident = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: table.rows(),
            table_seed: 7,
        })
        .expect("table fits the pool geometry");

    // Three parameterizations of Q6 against the same resident bins,
    // submitted as non-blocking handles; the first is the one above.
    let queries = [
        params,
        Q6Params { year: 3, ..params },
        Q6Params {
            discount: 4,
            max_quantity: 30,
            ..params
        },
    ];
    let handles: Vec<_> = queries
        .iter()
        .map(|params| {
            session
                .submit(&WorkloadSpec::Q6Query {
                    dataset: resident.id(),
                    params: *params,
                })
                .expect("query compiles")
        })
        .collect();
    println!("bitmap (CIM), each query checked against the scan:");
    for (report, params) in session.wait_all(handles).into_iter().zip(&queries) {
        let JobOutput::Q6(result) = report.output.expect("query executes") else {
            unreachable!("Q6 queries decode to Q6 results");
        };
        assert_eq!(result, q6_scan(&table, params));
        println!(
            "  year={} discount={} qty<{}: {} rows, revenue {:.2} — {} array accesses + {} \
             write-backs, {} / {}",
            params.year,
            params.discount,
            params.max_quantity,
            result.matching_rows,
            result.revenue,
            report.stats.logic_ops,
            report.stats.row_writes,
            report.stats.energy,
            report.stats.busy_time
        );
    }
    println!("all three paths agree ✓\n");
    let telemetry = pool.telemetry();
    let usage = &telemetry.datasets[&resident.id().0];
    println!(
        "bins written once ({} row writes), amortized to {:.1} per query over {} queries ✓",
        usage.load_stats.row_writes,
        usage.amortized_load_writes_per_query(),
        usage.queries
    );
}
