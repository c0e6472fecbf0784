//! Bulk Scouting-Logic reductions over caller rows:
//! [`WorkloadSpec::ScoutBulk`].
//!
//! Operands beyond one tile's row budget chunk across tiles: each tile
//! reduces its chunk independently (fan-in-limited, through two scratch
//! rows) and the finalizer merges the partials host-side — every
//! [`ScoutOp`] is associative, so the fold equals the in-array result
//! over all operands, and the same fold over the caller's rows is the
//! job's certified host reference.
//!
//! [`WorkloadSpec::ScoutBulk`]: crate::WorkloadSpec::ScoutBulk

use super::{
    bits_of, emit_reduce, pad_row, CompileError, CompiledJob, Finalize, HostProfile, Lowering,
    TileDemand,
};
use crate::job::JobOutput;
use cim_core::isa::{CimInstruction, CimResponse};
use cim_crossbar::scouting::ScoutOp;
use cim_simkit::bitvec::BitVec;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.9,
    l1_miss: 1.0,
    l2_miss: 1.0,
};

/// Folds `rows` with `op` (`None` for no rows).
fn fold<'a>(op: ScoutOp, rows: impl IntoIterator<Item = &'a BitVec>) -> Option<BitVec> {
    rows.into_iter().fold(None, |acc: Option<BitVec>, r| {
        Some(match acc {
            None => r.clone(),
            Some(acc) => match op {
                ScoutOp::Or => acc.or(r),
                ScoutOp::And => acc.and(r),
                ScoutOp::Xor => acc.xor(r),
            },
        })
    })
}

/// Merges the per-tile partial rows with `op` and trims to the operand
/// width. A single-tile reduction carries one response and the merge is
/// the identity.
#[derive(Debug)]
struct Merge {
    /// Original operand width before padding to the tile width.
    width: usize,
    op: ScoutOp,
}

impl Finalize for Merge {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let partials: Vec<BitVec> = outputs.into_iter().map(bits_of).collect();
        let full = match fold(self.op, &partials) {
            Some(full) => full,
            None => unreachable!("a reduction always has at least one output"),
        };
        JobOutput::Bits(pad_row(&full, self.width, self.width))
    }
}

/// Lowers a bulk reduction of `rows` with `op`.
pub(super) fn bulk(
    lw: &Lowering,
    op: ScoutOp,
    rows: &[BitVec],
) -> Result<CompiledJob, CompileError> {
    let cfg = lw.cfg;
    if rows.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    if rows.len() < 2 || (op == ScoutOp::Xor && rows.len() != 2) {
        return Err(CompileError::UnsupportedFanIn {
            op,
            fan_in: rows.len(),
        });
    }
    let width = rows[0].len();
    if width > cfg.tile_cols {
        return Err(CompileError::BadOperandWidth {
            width,
            max: cfg.tile_cols,
        });
    }
    if let Some(r) = rows.iter().find(|r| r.len() != width) {
        return Err(CompileError::InputLengthMismatch {
            got: r.len(),
            expected: width,
        });
    }
    // XOR is exactly two rows, so it always fits one tile.
    let rows_per_tile = cfg.tile_rows.saturating_sub(2);
    if rows_per_tile == 0 || (op == ScoutOp::Xor && rows.len() + 2 > cfg.tile_rows) {
        return Err(CompileError::NeedsMoreTileRows {
            required: rows.len() + 2,
            available: cfg.tile_rows,
        });
    }
    let tiles = rows.len().div_ceil(rows_per_tile);
    // Balanced chunks keep every chunk as wide as possible (a chunk of
    // one row would carry no reduction at all).
    let (chunk_base, chunk_rem) = (rows.len() / tiles, rows.len() % tiles);

    let mut instructions = Vec::with_capacity(rows.len() + 2 * tiles);
    let mut outputs = Vec::with_capacity(tiles);
    let mut next = 0usize;
    for tile in 0..tiles {
        let chunk = chunk_base + usize::from(tile < chunk_rem);
        for (row, bits) in rows[next..next + chunk].iter().enumerate() {
            instructions.push(CimInstruction::WriteRow {
                tile,
                row,
                bits: pad_row(bits, width, cfg.tile_cols),
            });
        }
        next += chunk;
        if chunk == 1 {
            // A lone operand is its own partial result: read it back.
            instructions.push(CimInstruction::ReadRow { tile, row: 0 });
        } else if op == ScoutOp::Xor {
            instructions.push(CimInstruction::Logic {
                tile,
                op,
                rows: (0..chunk).collect(),
            });
        } else {
            let operands: Vec<usize> = (0..chunk).collect();
            emit_reduce(&mut instructions, tile, &operands, [chunk, chunk + 1], op);
        }
        // For multi-step reductions the result sits in a scratch row,
        // but the final Logic response already carries the same bits,
        // so the chunk's output is always its last Logic (or its lone
        // read-back).
        let output = match instructions.iter().rposition(|i| {
            matches!(
                i,
                CimInstruction::Logic { .. } | CimInstruction::ReadRow { .. }
            )
        }) {
            Some(index) => index,
            None => unreachable!("every chunk emits a read or a logic op"),
        };
        outputs.push(output);
    }
    let host = lw.host(PROFILE, lw.row_bytes(rows.len()), || {
        fold(op, rows).map(JobOutput::Bits)
    });
    Ok(CompiledJob {
        splittable: true,
        host,
        ..lw.job(
            TileDemand::digital(tiles),
            instructions,
            outputs,
            Merge { width, op },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use super::*;
    use crate::job::WorkloadSpec;

    #[test]
    fn scout_bulk_chunks_across_tiles_when_rows_exceed_one_tile() {
        let c = cfg();
        let n = c.tile_rows; // > tile_rows - 2 operands: needs 2 tiles
        let rows: Vec<BitVec> = (0..n)
            .map(|i| BitVec::from_fn(64, |j| (i + j) % 9 == 0))
            .collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows,
        };
        let job = lower(&spec, &c).unwrap();
        assert_eq!(job.demand.digital, 2, "operands chunk across two tiles");
        assert_eq!(job.outputs.len(), 2, "one partial per tile");
        assert!(job.splittable);
        // The partials merge with OR and trim to the operand width.
        let partials = vec![
            CimResponse::Bits(BitVec::from_fn(c.tile_cols, |j| j == 3)),
            CimResponse::Bits(BitVec::from_fn(c.tile_cols, |j| j == 5 || j == 100)),
        ];
        assert_eq!(
            job.finalizer.finalize(partials),
            JobOutput::Bits(BitVec::from_fn(64, |j| j == 3 || j == 5))
        );
    }

    #[test]
    fn scout_bulk_reduces_many_rows() {
        let rows: Vec<BitVec> = (0..10)
            .map(|i| BitVec::from_fn(64, |j| (i + j) % 3 == 0))
            .collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Or,
            rows,
        };
        let c = lower(&spec, &cfg()).unwrap();
        assert_eq!(c.demand.digital, 1);
        assert_eq!(c.outputs.len(), 1);
    }

    #[test]
    fn scout_xor_requires_two_rows() {
        let rows: Vec<BitVec> = (0..3).map(|_| BitVec::zeros(8)).collect();
        let spec = WorkloadSpec::ScoutBulk {
            op: ScoutOp::Xor,
            rows,
        };
        assert!(matches!(
            lower(&spec, &cfg()),
            Err(CompileError::UnsupportedFanIn { .. })
        ));
    }
}
