//! One-time-pad encryption: [`WorkloadSpec::XorEncrypt`].
//!
//! Message and key chunks are written as two rows of one tile and XOR-ed
//! by two-row sensing, chunk by chunk. Pure digital row logic, so the
//! software pad is the job's certified host reference.
//!
//! [`WorkloadSpec::XorEncrypt`]: crate::WorkloadSpec::XorEncrypt

use super::{bits_of, CompileError, CompiledJob, Finalize, HostProfile, Lowering, TileDemand};
use crate::job::JobOutput;
use cim_core::isa::{CimInstruction, CimResponse};
use cim_crossbar::scouting::ScoutOp;
use cim_simkit::bitvec::BitVec;
use cim_xor_cipher::otp::OneTimePad;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.95,
    l1_miss: 1.0,
    l2_miss: 1.0,
};

/// Concatenates the ciphertext chunks and trims them to `len` bytes.
#[derive(Debug)]
struct Cipher {
    /// Plaintext length in bytes.
    len: usize,
}

impl Finalize for Cipher {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let total_bits = self.len * 8;
        let mut bits = BitVec::zeros(total_bits);
        let mut cursor = 0;
        for resp in outputs {
            let chunk = bits_of(resp);
            for j in chunk.iter_ones() {
                if cursor + j < total_bits {
                    bits.set(cursor + j, true);
                }
            }
            cursor += chunk.len();
        }
        let mut bytes = bits.to_bytes();
        bytes.truncate(self.len);
        JobOutput::Cipher(bytes)
    }
}

/// Lowers an encryption: per tile-width chunk, write message and key
/// rows and XOR them.
pub(super) fn encrypt(
    lw: &Lowering,
    message: &[u8],
    key_seed: u64,
) -> Result<CompiledJob, CompileError> {
    if message.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    if lw.cfg.tile_rows < 2 {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2,
            available: lw.cfg.tile_rows,
        });
    }
    let pad = OneTimePad::generate(message.len(), key_seed);
    let msg_bits = BitVec::from_bytes(message);
    let key_bits = pad.key_bits();
    let total_bits = message.len() * 8;
    let width = lw.cfg.tile_cols;
    let chunks = total_bits.div_ceil(width);

    let mut instructions = Vec::with_capacity(3 * chunks);
    let mut outputs = Vec::with_capacity(chunks);
    for chunk in 0..chunks {
        let base = chunk * width;
        let slice = |bits: &BitVec| bits.window(base, width.min(total_bits - base), width);
        instructions.push(CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: slice(&msg_bits),
        });
        instructions.push(CimInstruction::WriteRow {
            tile: 0,
            row: 1,
            bits: slice(&key_bits),
        });
        instructions.push(CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Xor,
            rows: vec![0, 1],
        });
        outputs.push(instructions.len() - 1);
    }
    let host = lw.host(PROFILE, lw.row_bytes(2), || {
        pad.encrypt(message).ok().map(JobOutput::Cipher)
    });
    Ok(CompiledJob {
        host,
        ..lw.job(
            TileDemand::digital(1),
            instructions,
            outputs,
            Cipher { len: message.len() },
        )
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use crate::job::WorkloadSpec;

    #[test]
    fn xor_stream_roundtrips_through_finalizer_shape() {
        let spec = WorkloadSpec::XorEncrypt {
            message: vec![0xAB; 300],
            key_seed: 77,
        };
        let c = lower(&spec, &cfg()).unwrap();
        // 300 bytes = 2400 bits; tile width decides chunk count.
        let chunks = (300usize * 8).div_ceil(cfg().tile_cols);
        assert_eq!(c.outputs.len(), chunks);
        assert_eq!(c.instructions.len(), 3 * chunks);
    }
}
