//! TPC-H Query 6 over bitmap bins: [`WorkloadSpec::Q6Select`] (bins
//! written per job), [`WorkloadSpec::Q6Query`] against a resident
//! [`DatasetSpec::Q6Table`], and the table's load program.
//!
//! Each tile holds the month, discount and quantity bins of up to
//! `tile_cols` table rows; a query ORs each predicate's bins through two
//! scratch rows and ANDs the three results. The finalizer aggregates
//! revenue over the selection on the host, exactly as in the paper's
//! execution model, so digital scouting over the bins (exact by the
//! margin analysis the serving tests pin) makes the output equal to
//! [`q6_scan`] — the job's certified host reference.
//!
//! [`WorkloadSpec::Q6Select`]: crate::WorkloadSpec::Q6Select
//! [`WorkloadSpec::Q6Query`]: crate::WorkloadSpec::Q6Query
//! [`DatasetSpec::Q6Table`]: crate::DatasetSpec::Q6Table

use super::{
    bits_of, emit_reduce, CompileError, CompiledJob, DatasetProgram, Finalize, HostProfile,
    Lowering, TileDemand,
};
use crate::dataset::ResidentPayload;
use crate::job::JobOutput;
use crate::schedule::PoolConfig;
use cim_bitmap_db::query::{q6_result_from_selection, q6_scan, Q6Indexes};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params, DISCOUNT_LEVELS, MAX_QUANTITY, SHIP_MONTHS};
use cim_core::isa::{CimInstruction, CimResponse};
use cim_crossbar::scouting::ScoutOp;
use cim_simkit::bitvec::BitVec;
use std::sync::Arc;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.9,
    l1_miss: 1.0,
    l2_miss: 1.0,
};

// The Q6 tile layout: month bins from row 0, then the discount and
// quantity bins, then the scratch rows. Resident bins occupy
// `0..SCRATCH_BASE`; queries reduce into the scratch rows.
const DISCOUNT_BASE: usize = SHIP_MONTHS as usize;
const QUANTITY_BASE: usize = DISCOUNT_BASE + DISCOUNT_LEVELS as usize;
const SCRATCH_BASE: usize = QUANTITY_BASE + MAX_QUANTITY as usize;
/// Scratch rows reserved at the top of a Q6 tile: two per predicate.
const SCRATCH_ROWS: usize = 6;

/// Rejects parameters whose predicate windows leave the bins a tile
/// stores: the year's 12 months must lie within the table's
/// [`SHIP_MONTHS`], the discount window `centre ± 1` must meet the
/// [`DISCOUNT_LEVELS`] bins, and the quantity window `1..max_quantity`
/// must be non-empty and within `1..=`[`MAX_QUANTITY`]. Every accepted
/// value serves a result equal to [`q6_scan`]'s. `compile` runs it
/// before [`select`] or [`query`], so a rejected spec costs no lowering
/// work.
pub(super) fn check_params(params: &Q6Params) -> Result<(), CompileError> {
    let last_year = SHIP_MONTHS / 12 - 1;
    if params.year > last_year {
        return Err(CompileError::InvalidSpec {
            field: "params.year",
            reason: format!("{} is past the table's last year, {last_year}", params.year),
        });
    }
    if params.discount > DISCOUNT_LEVELS {
        return Err(CompileError::InvalidSpec {
            field: "params.discount",
            reason: format!(
                "the window {}±1 misses the discount bins 0..={}",
                params.discount,
                DISCOUNT_LEVELS - 1
            ),
        });
    }
    if !(2..=MAX_QUANTITY + 1).contains(&params.max_quantity) {
        return Err(CompileError::InvalidSpec {
            field: "params.max_quantity",
            reason: format!(
                "{} is outside 2..={}: the window 1..max_quantity must be non-empty and \
                 within the quantity bins",
                params.max_quantity,
                MAX_QUANTITY + 1
            ),
        });
    }
    Ok(())
}

/// Reassembles per-tile selections and aggregates revenue on the host.
#[derive(Debug)]
struct Decode {
    /// The table the query ran over (aggregation is host-side float
    /// work). Shared so resident-dataset queries don't copy the table
    /// per job.
    table: Arc<LineItemTable>,
    params: Q6Params,
    /// Entry count per tile, in virtual tile order.
    widths: Vec<usize>,
}

impl Finalize for Decode {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let mut selection = BitVec::zeros(self.table.rows());
        let mut start = 0;
        for (resp, &width) in outputs.into_iter().zip(&self.widths) {
            for j in bits_of(resp).iter_ones() {
                if j < width {
                    selection.set(start + j, true);
                }
            }
            start += width;
        }
        JobOutput::Q6(q6_result_from_selection(
            &self.table,
            &self.params,
            &selection,
        ))
    }
}

/// Validates a Q6 footprint against the tile geometry and returns the
/// digital tile count it needs. Q6 work is tile-parallel, so the cap
/// is the *pool-wide* tile count (the admission layer decides whether
/// the tiles fit one shard or split across the pool) — checked here,
/// before any table generation, so a never-fits select cannot burn
/// O(rows) work compiling a stream the pool can never run.
fn footprint(rows: usize, cfg: &PoolConfig) -> Result<usize, CompileError> {
    if rows == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    let rows_needed = SCRATCH_BASE + SCRATCH_ROWS;
    if rows_needed > cfg.tile_rows {
        return Err(CompileError::NeedsMoreTileRows {
            required: rows_needed,
            available: cfg.tile_rows,
        });
    }
    let tiles = rows.div_ceil(cfg.tile_cols);
    let pool_tiles = cfg.digital_tiles * cfg.shards;
    if tiles > pool_tiles {
        return Err(CompileError::NeedsMoreDigitalTiles {
            required: tiles,
            available: pool_tiles,
        });
    }
    Ok(tiles)
}

/// Emits the resident-side writes of every tile — each bitmap bin of
/// the three predicate indexes, padded to the tile width — calling
/// `per_tile` after each tile's writes. Returns the per-tile widths.
fn emit_bins(
    instructions: &mut Vec<CimInstruction>,
    table: &LineItemTable,
    tiles: usize,
    cfg: &PoolConfig,
    mut per_tile: impl FnMut(&mut Vec<CimInstruction>, usize),
) -> Vec<usize> {
    let idx = Q6Indexes::build(table);
    let mut widths = Vec::with_capacity(tiles);
    let mut start = 0;
    for tile in 0..tiles {
        let width = cfg.tile_cols.min(table.rows() - start);
        widths.push(width);
        for (index, base) in [
            (&idx.month, 0),
            (&idx.discount, DISCOUNT_BASE),
            (&idx.quantity, QUANTITY_BASE),
        ] {
            for b in 0..index.bin_count() {
                let bits =
                    BitVec::from_fn(cfg.tile_cols, |j| j < width && index.bin(b).get(start + j));
                instructions.push(CimInstruction::WriteRow {
                    tile,
                    row: base + b,
                    bits,
                });
            }
        }
        per_tile(instructions, tile);
        start += width;
    }
    widths
}

/// Emits the query-side reductions of one tile (predicate ORs, final
/// AND) and records the AND as the tile's output.
fn emit_query(
    instructions: &mut Vec<CimInstruction>,
    outputs: &mut Vec<usize>,
    params: &Q6Params,
    tile: usize,
) {
    let [(mlo, mhi), (dlo, dhi), (qlo, qhi)] = Q6Indexes::predicate_ranges(params);
    let month_rows: Vec<usize> = (mlo..=mhi).map(|m| m as usize).collect();
    let discount_rows: Vec<usize> = (dlo..=dhi).map(|d| DISCOUNT_BASE + d as usize).collect();
    let quantity_rows: Vec<usize> = (qlo..=qhi)
        .map(|q| QUANTITY_BASE + (q as usize - 1))
        .collect();
    let reduced: Vec<usize> = [month_rows, discount_rows, quantity_rows]
        .iter()
        .enumerate()
        .map(|(p, rows)| {
            let scratch = [SCRATCH_BASE + 2 * p, SCRATCH_BASE + 2 * p + 1];
            emit_reduce(instructions, tile, rows, scratch, ScoutOp::Or)
        })
        .collect();
    instructions.push(CimInstruction::Logic {
        tile,
        op: ScoutOp::And,
        rows: reduced,
    });
    outputs.push(instructions.len() - 1);
}

/// Bytes of Q6 bins (the rows below `SCRATCH_BASE`) resident in
/// `tiles` tiles.
fn resident_bytes(tiles: usize, cfg: &PoolConfig) -> u64 {
    SCRATCH_BASE as u64 * tiles as u64 * cfg.tile_cols.div_ceil(8) as u64
}

/// A cold select: bins and reductions of every tile in one stream.
pub(super) fn select(
    lw: &Lowering,
    rows: usize,
    table_seed: u64,
    params: Q6Params,
) -> Result<CompiledJob, CompileError> {
    let tiles = footprint(rows, lw.cfg)?;
    let table = LineItemTable::generate(rows, table_seed);
    let mut instructions = Vec::new();
    let mut outputs = Vec::new();
    let widths = emit_bins(&mut instructions, &table, tiles, lw.cfg, |ins, tile| {
        emit_query(ins, &mut outputs, &params, tile)
    });
    let host = lw.host(PROFILE, resident_bytes(tiles, lw.cfg), || {
        Some(JobOutput::Q6(q6_scan(&table, &params)))
    });
    let decode = Decode {
        table: Arc::new(table),
        params,
        widths,
    };
    Ok(CompiledJob {
        splittable: true,
        host,
        ..lw.job(TileDemand::digital(tiles), instructions, outputs, decode)
    })
}

/// A query against a resident table: reductions only, lowered onto the
/// dataset's virtual tile order. The bin writes were paid once, by
/// [`load`].
pub(super) fn query(lw: &Lowering, params: Q6Params) -> Result<CompiledJob, CompileError> {
    let view = lw.dataset();
    let ResidentPayload::Q6 { table, widths } = &view.payload else {
        return Err(lw.mismatch());
    };
    let mut instructions = Vec::new();
    let mut outputs = Vec::new();
    for tile in 0..view.digital_tiles {
        emit_query(&mut instructions, &mut outputs, &params, tile);
    }
    let host = lw.host(PROFILE, view.resident_bytes, || {
        Some(JobOutput::Q6(q6_scan(table, &params)))
    });
    let decode = Decode {
        table: Arc::clone(table),
        params,
        widths: widths.clone(),
    };
    Ok(CompiledJob {
        splittable: true,
        host,
        ..lw.job(
            TileDemand::digital(view.digital_tiles),
            instructions,
            outputs,
            decode,
        )
    })
}

/// The load program of a resident table: every tile's bins.
pub(super) fn load(
    cfg: &PoolConfig,
    rows: usize,
    table_seed: u64,
) -> Result<DatasetProgram, CompileError> {
    let tiles = footprint(rows, cfg)?;
    let table = LineItemTable::generate(rows, table_seed);
    let mut instructions = Vec::new();
    let widths = emit_bins(&mut instructions, &table, tiles, cfg, |_, _| {});
    // Bins fill every row below the scratch region, which queries
    // reduce into.
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand::digital(tiles),
        payload: ResidentPayload::Q6 {
            table: Arc::new(table),
            widths,
        },
        resident_bytes: resident_bytes(tiles, cfg),
        resident_rows: vec![0..SCRATCH_BASE; tiles],
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use super::*;
    use crate::job::WorkloadSpec;

    fn select_spec(rows: usize, table_seed: u64) -> WorkloadSpec {
        WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params: Q6Params::tpch_default(),
        }
    }

    #[test]
    fn q6_compiles_to_resident_bins_plus_reductions() {
        let c = lower(&select_spec(1500, 9), &cfg()).unwrap();
        assert_eq!(c.demand.digital, 2);
        assert_eq!(c.outputs.len(), 2);
        // 145 bin writes per tile, plus reductions, plus one AND per tile.
        let writes = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::WriteRow { .. }))
            .count();
        assert_eq!(writes, 2 * 145);
    }

    #[test]
    fn q6_reduction_op_count_per_tile() {
        // Fan-in 8: months (12 bins) = 2 accesses, discount (3) = 1,
        // quantity (23) = 4, final AND = 1 → 8 logic ops and 7
        // store-backs per tile, whatever the tile's row count.
        let c = lower(&select_spec(500, 5), &cfg()).unwrap();
        let logic = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::Logic { .. }))
            .count();
        let stores = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::StoreLast { .. }))
            .count();
        assert_eq!(logic, 8);
        assert_eq!(stores, 7);
    }

    #[test]
    fn q6_bigger_than_one_shard_compiles_splittable() {
        // Tile count is an admission decision now, not a compile error:
        // a select outgrowing one shard compiles as a tile-parallel
        // (splittable) job the scheduler can scatter across shards.
        let mut small = cfg();
        small.digital_tiles = 1;
        let c = lower(&select_spec(small.tile_cols * 2, 1), &small).unwrap();
        assert_eq!(c.demand.digital, 2);
        assert!(c.splittable);
    }

    /// A select beyond the whole pool's capacity is rejected by the
    /// footprint check *before* the synthetic table is generated —
    /// never-fits submissions must stay cheap.
    #[test]
    fn q6_beyond_pool_capacity_rejected_before_table_generation() {
        assert!(matches!(
            lower(&select_spec(100 * cfg().tile_cols, 0), &cfg()),
            Err(CompileError::NeedsMoreDigitalTiles {
                required: 100,
                available: 8,
            })
        ));
    }
}
