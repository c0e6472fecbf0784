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

/// Scratch rows reserved at the top of a Q6 tile: two per predicate.
const SCRATCH_ROWS: usize = 6;

/// Row bases of the Q6 tile layout: `(month, discount, quantity,
/// scratch)`. Resident bins occupy `month..scratch`; queries reduce
/// into `scratch..scratch + SCRATCH_ROWS`.
fn q6_row_bases() -> (usize, usize, usize, usize) {
    let month_base = 0usize;
    let discount_base = SHIP_MONTHS as usize;
    let quantity_base = discount_base + DISCOUNT_LEVELS as usize;
    let scratch_base = quantity_base + MAX_QUANTITY as usize;
    (month_base, discount_base, quantity_base, scratch_base)
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
    let (_, _, _, scratch_base) = q6_row_bases();
    let rows_needed = scratch_base + SCRATCH_ROWS;
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
    let (month_base, discount_base, quantity_base, _) = q6_row_bases();
    let mut widths = Vec::with_capacity(tiles);
    let mut start = 0;
    for tile in 0..tiles {
        let width = cfg.tile_cols.min(table.rows() - start);
        widths.push(width);
        for (index, base) in [
            (&idx.month, month_base),
            (&idx.discount, discount_base),
            (&idx.quantity, quantity_base),
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
    let (month_base, discount_base, quantity_base, scratch_base) = q6_row_bases();
    let [(mlo, mhi), (dlo, dhi), (qlo, qhi)] = Q6Indexes::predicate_ranges(params);
    let month_rows: Vec<usize> = (mlo..=mhi).map(|m| month_base + m as usize).collect();
    let discount_rows: Vec<usize> = (dlo..=dhi).map(|d| discount_base + d as usize).collect();
    let quantity_rows: Vec<usize> = (qlo..=qhi)
        .map(|q| quantity_base + (q as usize - 1))
        .collect();
    let reduced: Vec<usize> = [month_rows, discount_rows, quantity_rows]
        .iter()
        .enumerate()
        .map(|(p, rows)| {
            let scratch = [scratch_base + 2 * p, scratch_base + 2 * p + 1];
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

/// Bytes of Q6 bins resident in `tiles` tiles.
fn resident_bytes(tiles: usize, cfg: &PoolConfig) -> u64 {
    let bin_rows = (SHIP_MONTHS as usize + DISCOUNT_LEVELS as usize + MAX_QUANTITY as usize) as u64;
    bin_rows * tiles as u64 * cfg.tile_cols.div_ceil(8) as u64
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
    let (_, _, _, scratch_base) = q6_row_bases();
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand::digital(tiles),
        payload: ResidentPayload::Q6 {
            table: Arc::new(table),
            widths,
        },
        resident_bytes: resident_bytes(tiles, cfg),
        resident_rows: vec![0..scratch_base; tiles],
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
    fn q6_reduction_op_count_matches_seed_engine() {
        // Fan-in 8: months (12 bins) = 2 accesses, discount (3) = 1,
        // quantity (23) = 4, final AND = 1 → 8 logic ops, 7 store-backs
        // per tile — the counts asserted for `Q6CimEngine` in the seed.
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
