//! Image filtering over resident tile rows: [`WorkloadSpec::ImgFilter`].
//!
//! The 8-bit-quantized image is written row-per-row into digital tiles,
//! then every output row streams its `(2r+1)`-row neighbourhood through
//! `ReadRow` accesses — the §III-A pattern where a medium-size
//! neighbourhood is served from wide memory rows instead of thrashing a
//! register file. The filter arithmetic itself (integral images, the
//! guided filter's linear model) is host-side float work in the
//! finalizer over exactly the bytes the device stored, so running
//! `cim-imgproc` on [`GrayImage::quantized`]`(8)` is the job's certified
//! host reference.
//!
//! [`WorkloadSpec::ImgFilter`]: crate::WorkloadSpec::ImgFilter

use super::{
    bits_of, pad_row, CompileError, CompiledJob, Finalize, HostProfile, Lowering, TileDemand,
};
use crate::job::{ImgFilterOp, JobOutput};
use cim_core::isa::{CimInstruction, CimResponse};
use cim_imgproc::image::GrayImage;
use cim_simkit::bitvec::BitVec;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.8,
    l1_miss: 1.0,
    l2_miss: 1.0,
};

/// Rebuilds the image from its row reads and runs the filter on the
/// host.
#[derive(Debug)]
struct Filter {
    width: usize,
    height: usize,
    filter: ImgFilterOp,
    /// Image row index carried by each output response, in order.
    reads: Vec<usize>,
}

impl Finalize for Filter {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        // Windows re-read rows; identical copies overwrite harmlessly.
        let mut rows: Vec<Vec<f64>> = vec![Vec::new(); self.height];
        for (resp, &y) in outputs.into_iter().zip(&self.reads) {
            let bytes = bits_of(resp).to_bytes();
            rows[y] = bytes[..self.width]
                .iter()
                .map(|&b| b as f64 / 255.0)
                .collect();
        }
        assert!(
            rows.iter().all(|r| r.len() == self.width),
            "every image row read back"
        );
        let img = GrayImage::from_fn(self.width, self.height, |x, y| rows[y][x]);
        JobOutput::Image(self.filter.apply(&img))
    }
}

/// Rejects filter parameters the host filter cannot run or the pool
/// cannot stream: a guided `epsilon` that is not finite and positive,
/// and a `radius` above the tallest image one shard holds. Windows are
/// clipped to the image, so a larger radius would read nothing new.
fn validate(lw: &Lowering, filter: ImgFilterOp) -> Result<(), CompileError> {
    if let ImgFilterOp::Guided { epsilon, .. } = filter {
        if !(epsilon.is_finite() && epsilon > 0.0) {
            return Err(CompileError::InvalidSpec {
                field: "epsilon",
                reason: format!("{epsilon} is not finite and positive"),
            });
        }
    }
    let max_radius = lw.cfg.tile_rows * lw.cfg.digital_tiles;
    if filter.radius() > max_radius {
        return Err(CompileError::InvalidSpec {
            field: "radius",
            reason: format!(
                "{} exceeds {max_radius}, the tallest image one shard holds",
                filter.radius()
            ),
        });
    }
    Ok(())
}

/// Lowers a filter job: row writes of the quantized image, then one
/// clamped neighbourhood of row reads per output row.
pub(super) fn filter(
    lw: &Lowering,
    image: &GrayImage,
    filter: ImgFilterOp,
) -> Result<CompiledJob, CompileError> {
    validate(lw, filter)?;
    let cfg = lw.cfg;
    let (w, h) = (image.width(), image.height());
    let row_bits = 8 * w;
    if row_bits > cfg.tile_cols {
        return Err(CompileError::BadOperandWidth {
            width: row_bits,
            max: cfg.tile_cols,
        });
    }
    let tiles = h.div_ceil(cfg.tile_rows);
    if tiles > cfg.digital_tiles {
        return Err(CompileError::NeedsMoreDigitalTiles {
            required: tiles,
            available: cfg.digital_tiles,
        });
    }
    // One write and one `2r + 1`-row window of reads per image row.
    let stream_len = filter
        .radius()
        .checked_mul(2)
        .and_then(|d| d.checked_add(2))
        .and_then(|per_row| per_row.checked_mul(h))
        .ok_or_else(|| CompileError::InvalidSpec {
            field: "radius",
            reason: format!("the instruction stream of {h} rows overflows"),
        })?;
    let q = image.quantized(8);
    let loc = |y: usize| (y / cfg.tile_rows, y % cfg.tile_rows);

    let mut instructions = Vec::with_capacity(stream_len);
    for y in 0..h {
        let bytes: Vec<u8> = (0..w)
            .map(|x| (q.get(x, y) * 255.0).round() as u8)
            .collect();
        let (tile, row) = loc(y);
        instructions.push(CimInstruction::WriteRow {
            tile,
            row,
            bits: pad_row(&BitVec::from_bytes(&bytes), row_bits, cfg.tile_cols),
        });
    }

    let r = filter.radius() as isize;
    let mut outputs = Vec::with_capacity(stream_len - h);
    let mut reads = Vec::with_capacity(stream_len - h);
    for y in 0..h as isize {
        for wy in (y - r)..=(y + r) {
            let wy = wy.clamp(0, h as isize - 1) as usize;
            let (tile, row) = loc(wy);
            instructions.push(CimInstruction::ReadRow { tile, row });
            outputs.push(instructions.len() - 1);
            reads.push(wy);
        }
    }
    let host = lw.host(PROFILE, lw.row_bytes(h), || {
        Some(JobOutput::Image(filter.apply(&q)))
    });
    let decode = Filter {
        width: w,
        height: h,
        filter,
        reads,
    };
    Ok(CompiledJob {
        host,
        ..lw.job(TileDemand::digital(tiles), instructions, outputs, decode)
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use super::*;
    use crate::job::WorkloadSpec;

    #[test]
    fn img_filter_compiles_to_row_writes_and_window_reads() {
        let spec = WorkloadSpec::ImgFilter {
            image: GrayImage::gradient(16, 10),
            filter: ImgFilterOp::Box { radius: 2 },
        };
        let c = lower(&spec, &cfg()).unwrap();
        assert_eq!(c.demand.digital, 1);
        let writes = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::WriteRow { .. }))
            .count();
        let reads = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::ReadRow { .. }))
            .count();
        assert_eq!(writes, 10, "each image row resident once");
        assert_eq!(
            reads,
            10 * 5,
            "every output row streams its 2r+1 neighbourhood"
        );
        assert_eq!(c.outputs.len(), reads);
    }

    #[test]
    fn img_row_wider_than_tile_rejected() {
        let spec = WorkloadSpec::ImgFilter {
            image: GrayImage::constant(cfg().tile_cols / 8 + 1, 4, 0.5),
            filter: ImgFilterOp::Box { radius: 1 },
        };
        assert!(matches!(
            lower(&spec, &cfg()),
            Err(CompileError::BadOperandWidth { .. })
        ));
    }
}
