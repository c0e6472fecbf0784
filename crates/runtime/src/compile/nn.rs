//! Binarized neural-network inference: [`WorkloadSpec::NnInfer`]
//! (weights programmed per job), [`WorkloadSpec::NnQuery`] against
//! resident [`DatasetSpec::NnWeights`], and the weights' load program.
//!
//! Every layer's ±1 weight matrix is a column block of the layer's own
//! `rows × cols`, packed first-fit, left to right, into as few analog
//! tiles as hold them: `[256, 32, 8]` puts its 32 × 256 first layer in
//! columns 0–255 of one tile and its 8 × 32 second layer in columns
//! 256–287 of the same tile, so a cold `NnInfer` leases one tile and
//! resident weights pin one. Each inference runs one MVM per layer, over
//! that layer's block alone. The finalizer snaps each score
//! onto the ±1×±1 parity lattice of the layer's fan-in, recovering the
//! exact integer under the bounded analog noise the compiler provisions
//! for — so [`BinarizedMlp::scores`] is the job's certified host
//! reference.
//!
//! [`WorkloadSpec::NnInfer`]: crate::WorkloadSpec::NnInfer
//! [`WorkloadSpec::NnQuery`]: crate::WorkloadSpec::NnQuery
//! [`DatasetSpec::NnWeights`]: crate::DatasetSpec::NnWeights

use super::{
    check_mvm_count, vector_of, CompileError, CompiledJob, DatasetProgram, Finalize, HostProfile,
    Lowering, TileDemand,
};
use crate::dataset::ResidentPayload;
use crate::job::{JobOutput, NnOutcome};
use crate::schedule::PoolConfig;
use cim_core::isa::{CimInstruction, CimResponse};
use cim_nn::binarized::{argmax_scores, snap_to_parity, BinarizedMlp};
use cim_simkit::bitvec::BitVec;
use std::sync::Arc;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.9,
    l1_miss: 0.9,
    l2_miss: 0.9,
};

/// Decodes final-layer MVM responses (one entry per class): snap each
/// entry onto the parity lattice of the final layer's fan-in, then
/// argmax into a class.
#[derive(Debug)]
struct Parity {
    /// Fan-in of the final layer (defines the parity lattice).
    fan_in: usize,
}

impl Parity {
    fn of(mlp: &BinarizedMlp) -> Self {
        let last = match mlp.layers().last() {
            Some(layer) => layer,
            None => unreachable!("binarized networks have at least one layer"),
        };
        Parity {
            fan_in: last.cols(),
        }
    }
}

/// Predictions and scores from per-input integer score vectors.
fn outcome(scores: Vec<Vec<i64>>) -> JobOutput {
    JobOutput::Nn(NnOutcome {
        predictions: scores.iter().map(|s| argmax_scores(s)).collect(),
        scores,
    })
}

impl Finalize for Parity {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        outcome(
            outputs
                .into_iter()
                .map(|resp| {
                    vector_of(resp)
                        .iter()
                        .map(|&v| snap_to_parity(v, self.fan_in))
                        .collect()
                })
                .collect(),
        )
    }
}

/// Validates the network against the analog tile geometry: every layer
/// fits one tile.
fn fits(mlp: &BinarizedMlp, cfg: &PoolConfig) -> Result<(), CompileError> {
    for m in mlp.layers() {
        if m.rows() > cfg.analog_rows || m.cols() > cfg.analog_cols {
            return Err(CompileError::AnalogShapeTooSmall {
                required: (m.rows(), m.cols()),
                available: (cfg.analog_rows, cfg.analog_cols),
            });
        }
    }
    Ok(())
}

/// Where the layers' weights sit: the `(tile, col)` block of each
/// layer, packed first-fit, left to right — each layer takes the first
/// tile with room for it after that tile's last block — and the number
/// of tiles the packing fills. Every layer must fit a tile ([`fits`]).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Layout {
    blocks: Vec<(usize, usize)>,
    tiles: usize,
}

impl Layout {
    fn of(mlp: &BinarizedMlp, cfg: &PoolConfig) -> Self {
        // The next free column of each tile opened so far.
        let mut next: Vec<usize> = Vec::new();
        let blocks = mlp
            .layers()
            .iter()
            .map(|layer| {
                let tile = match next
                    .iter()
                    .position(|&c| c + layer.cols() <= cfg.analog_cols)
                {
                    Some(tile) => tile,
                    None => {
                        next.push(0);
                        next.len() - 1
                    }
                };
                let col = next[tile];
                next[tile] += layer.cols();
                (tile, col)
            })
            .collect();
        Layout {
            blocks,
            tiles: next.len(),
        }
    }

    /// Checks the packed tiles against one shard's analog tiles.
    fn fits_shard(&self, cfg: &PoolConfig) -> Result<(), CompileError> {
        if self.tiles > cfg.analog_tiles {
            return Err(CompileError::NeedsMoreAnalogTiles {
                required: self.tiles,
                available: cfg.analog_tiles,
            });
        }
        Ok(())
    }
}

/// One `ProgramMatrix` per layer, of the layer's own `rows × cols` ±1
/// weight matrix, into its block of the layout: each tile programs,
/// reads and erases only its blocks (see `cim_crossbar::analog`'s
/// column blocks).
fn program_weights(mlp: &BinarizedMlp, layout: &Layout) -> Vec<CimInstruction> {
    mlp.layers()
        .iter()
        .zip(&layout.blocks)
        .map(|(layer, &(tile, col))| CimInstruction::ProgramMatrix {
            tile,
            col,
            matrix: layer.clone(),
        })
        .collect()
}

/// Bytes of the network's ±1 weights, one bit each: what a cold job
/// programs and what resident weights hold.
fn weight_bytes(mlp: &BinarizedMlp) -> u64 {
    (mlp.weight_count() as u64).div_ceil(8)
}

/// Validates inference inputs: some, at most as many MVMs (one per
/// layer per input) as one job may carry, each of the network's input
/// width.
fn check_inputs(mlp: &BinarizedMlp, inputs: &[BitVec]) -> Result<(), CompileError> {
    if inputs.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    check_mvm_count("inputs", inputs.len().saturating_mul(mlp.layers().len()))?;
    match inputs.iter().find(|x| x.len() != mlp.inputs()) {
        Some(x) => Err(CompileError::InputLengthMismatch {
            got: x.len(),
            expected: mlp.inputs(),
        }),
        None => Ok(()),
    }
}

/// Lowers the inference of `inputs` after `instructions` (the weight
/// programs, or nothing for a resident query): one MVM per layer per
/// input, over the layer's block of `layout`, the layer input chained
/// host-side at
/// compile time via the exact sign activations (the same integers the
/// parity decode recovers from the array, so the chain and the array
/// agree bit for bit). The final layer's MVM is each input's output.
fn inference(
    lw: &Lowering,
    mlp: &BinarizedMlp,
    layout: &Layout,
    inputs: &[BitVec],
    mut instructions: Vec<CimInstruction>,
) -> CompiledJob {
    let mut outputs = Vec::with_capacity(inputs.len());
    for x in inputs {
        let acts = mlp.activations(x);
        for ((layer, v), &(tile, col)) in mlp.layers().iter().zip(&acts).zip(&layout.blocks) {
            let x: Vec<f64> = (0..layer.cols())
                .map(|j| if v.get(j) { 1.0 } else { -1.0 })
                .collect();
            instructions.push(CimInstruction::Mvm { tile, col, x });
        }
        outputs.push(instructions.len() - 1);
    }
    let host = lw.host(PROFILE, weight_bytes(mlp), || {
        Some(outcome(inputs.iter().map(|x| mlp.scores(x)).collect()))
    });
    CompiledJob {
        host,
        ..lw.job(
            TileDemand::analog(layout.tiles),
            instructions,
            outputs,
            Parity::of(mlp),
        )
    }
}

/// Cold inference: program every layer's weights into a fresh analog
/// lease, then run the MVM cascade per input. The weight writes are
/// re-paid on every submission — exactly what a resident
/// [`DatasetSpec::NnWeights`](crate::DatasetSpec::NnWeights) amortizes.
pub(super) fn infer(
    lw: &Lowering,
    mlp: &BinarizedMlp,
    inputs: &[BitVec],
) -> Result<CompiledJob, CompileError> {
    fits(mlp, lw.cfg)?;
    check_inputs(mlp, inputs)?;
    let layout = Layout::of(mlp, lw.cfg);
    layout.fits_shard(lw.cfg)?;
    let programs = program_weights(mlp, &layout);
    Ok(inference(lw, mlp, &layout, inputs, programs))
}

/// Inference against resident weights: the MVM cascade only, lowered
/// onto the dataset's pinned blocks (the load's layout, recomputed from
/// the same network and geometry) — not a single weight write.
pub(super) fn query(lw: &Lowering, inputs: &[BitVec]) -> Result<CompiledJob, CompileError> {
    let ResidentPayload::Nn { network } = &lw.dataset().payload else {
        return Err(lw.mismatch());
    };
    check_inputs(network, inputs)?;
    let capacity = inputs.len() * network.layers().len();
    let layout = Layout::of(network, lw.cfg);
    Ok(inference(
        lw,
        network,
        &layout,
        inputs,
        Vec::with_capacity(capacity),
    ))
}

/// The load program of resident weights: one programmed block per
/// layer, packed into as few tiles as hold them.
pub(super) fn load(
    cfg: &PoolConfig,
    network: &BinarizedMlp,
) -> Result<DatasetProgram, CompileError> {
    fits(network, cfg)?;
    let layout = Layout::of(network, cfg);
    layout.fits_shard(cfg)?;
    Ok(DatasetProgram {
        instructions: program_weights(network, &layout),
        demand: TileDemand::analog(layout.tiles),
        payload: ResidentPayload::Nn {
            network: Arc::new(network.clone()),
        },
        resident_bytes: weight_bytes(network),
        resident_rows: Vec::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use super::*;
    use crate::dataset::ResidentView;
    use crate::job::{DatasetId, JobId, JobKind, TenantId, WorkloadSpec};
    use cim_lint::Block;

    #[test]
    fn nn_infer_compiles_to_programs_plus_mvm_cascade() {
        let mlp = BinarizedMlp::random(&[8, 6, 3], 5);
        let inputs: Vec<BitVec> = (0..4)
            .map(|i| BitVec::from_fn(8, |j| (i + j) % 2 == 0))
            .collect();
        let spec = WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs,
        };
        let c = lower(&spec, &cfg()).unwrap();
        assert_eq!(c.demand.analog, 1, "both layers pack into one tile");
        assert_eq!(c.kind, JobKind::NnInfer);
        let programs = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::ProgramMatrix { .. }))
            .count();
        let mvms = c
            .instructions
            .iter()
            .filter(|i| matches!(i, CimInstruction::Mvm { .. }))
            .count();
        assert_eq!(programs, 2, "each layer programmed once");
        assert_eq!(mvms, 4 * 2, "one MVM per layer per input");
        // Each layer programs and drives its own block of tile 0: a 6×8
        // matrix in columns 0..8 and a 3×6 one in columns 8..14, MVM
        // inputs of fan-in 8 and 6.
        let layer_at = |col: usize| &mlp.layers()[usize::from(col == 8)];
        for instr in &c.instructions {
            match instr {
                CimInstruction::ProgramMatrix { tile, col, matrix } => {
                    assert_eq!(*tile, 0);
                    let layer = layer_at(*col);
                    assert_eq!(matrix.as_slice(), layer.as_slice());
                    assert_eq!((matrix.rows(), matrix.cols()), (layer.rows(), layer.cols()));
                }
                CimInstruction::Mvm { tile, col, x } => {
                    assert_eq!(*tile, 0);
                    assert_eq!(x.len(), layer_at(*col).cols());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(c.outputs.len(), 4, "one output per inference");
        // Every output is a final-layer MVM (column 8).
        for &idx in &c.outputs {
            assert!(matches!(
                c.instructions[idx],
                CimInstruction::Mvm {
                    tile: 0,
                    col: 8,
                    ..
                }
            ));
        }
        // The decode lattice uses the final layer: 3 classes, fan-in 6.
        let decoded = c
            .finalizer
            .finalize(vec![CimResponse::Vector(vec![4.2, -1.9, 0.1])]);
        match decoded {
            JobOutput::Nn(outcome) => assert_eq!(outcome.scores, vec![vec![4, -2, 0]]),
            other => panic!("wrong output {other:?}"),
        }
    }

    #[test]
    fn nn_query_carries_no_weight_writes() {
        let mlp = BinarizedMlp::random(&[8, 6, 3], 5);
        let view = ResidentView {
            id: DatasetId(0),
            payload: ResidentPayload::Nn {
                network: Arc::new(mlp.clone()),
            },
            digital_tiles: 0,
            analog_tiles: 1,
            resident_rows: Vec::new(),
            resident_blocks: vec![vec![Block::new(0, (6, 8)), Block::new(8, (3, 6))]],
            resident_bytes: mlp.weight_count() as u64 / 8,
        };
        let spec = WorkloadSpec::NnQuery {
            dataset: DatasetId(0),
            inputs: vec![BitVec::from_fn(8, |j| j < 4); 3],
        };
        let c = super::super::compile(&spec, JobId(1), TenantId(1), &cfg(), Some(&view)).unwrap();
        assert!(
            c.instructions
                .iter()
                .all(|i| matches!(i, CimInstruction::Mvm { .. })),
            "a resident query is MVMs only — not a single weight write"
        );
        assert_eq!(c.instructions.len(), 3 * 2);
        assert_eq!(c.dataset, Some(DatasetId(0)));
    }

    #[test]
    fn layers_pack_first_fit_left_to_right() {
        let narrow = PoolConfig {
            analog_cols: 16,
            ..cfg()
        };
        // 8x16 fills tile 0; 8x8 and 8x8 fill tile 1; 4x8 opens tile 2.
        let mlp = BinarizedMlp::random(&[16, 8, 8, 8, 4], 3);
        let layout = Layout::of(&mlp, &narrow);
        assert_eq!(layout.blocks, vec![(0, 0), (1, 0), (1, 8), (2, 0)]);
        assert_eq!(layout.tiles, 3);
        // A later, narrower layer goes back to the first tile with room:
        // 4x8 does not fit beside 8x10, but 2x4 does.
        let mlp = BinarizedMlp::random(&[10, 8, 4, 2], 3);
        let layout = Layout::of(&mlp, &narrow);
        assert_eq!(layout.blocks, vec![(0, 0), (1, 0), (0, 10)]);
        assert_eq!(layout.tiles, 2);
        let roomy = Layout::of(&mlp, &cfg());
        assert_eq!(roomy.blocks, vec![(0, 0), (0, 10), (0, 18)]);
        assert_eq!(roomy.tiles, 1);
    }

    #[test]
    fn nn_input_validation() {
        let mlp = BinarizedMlp::random(&[8, 3], 1);
        let empty = WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs: vec![],
        };
        assert!(matches!(
            lower(&empty, &cfg()),
            Err(CompileError::EmptyWorkload)
        ));
        let short = WorkloadSpec::NnInfer {
            network: mlp,
            inputs: vec![BitVec::zeros(5)],
        };
        assert!(matches!(
            lower(&short, &cfg()),
            Err(CompileError::InputLengthMismatch {
                got: 5,
                expected: 8,
            })
        ));
    }

    #[test]
    fn nn_oversized_layer_rejected() {
        let mlp = BinarizedMlp::random(&[cfg().analog_cols + 1, 2], 1);
        let spec = WorkloadSpec::NnInfer {
            network: mlp,
            inputs: vec![BitVec::zeros(cfg().analog_cols + 1)],
        };
        assert!(matches!(
            lower(&spec, &cfg()),
            Err(CompileError::AnalogShapeTooSmall { .. })
        ));
    }
}
