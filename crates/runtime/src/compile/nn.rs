//! Binarized neural-network inference: [`WorkloadSpec::NnInfer`]
//! (weights programmed per job), [`WorkloadSpec::NnQuery`] against
//! resident [`DatasetSpec::NnWeights`], and the weights' load program.
//!
//! Every layer's ±1 weight matrix sits in its own analog tile, in a
//! window of the layer's own `rows × cols`, and each inference runs one
//! MVM per layer over the layer's fan-in. The finalizer snaps each score
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

/// Checks the layer count against one shard's analog tiles.
fn fits_shard(mlp: &BinarizedMlp, cfg: &PoolConfig) -> Result<(), CompileError> {
    let layers = mlp.layers().len();
    if layers > cfg.analog_tiles {
        return Err(CompileError::NeedsMoreAnalogTiles {
            required: layers,
            available: cfg.analog_tiles,
        });
    }
    Ok(())
}

/// One `ProgramMatrix` per tile, each of one layer's own `rows × cols`
/// ±1 weight matrix: the tile programs, reads and erases only that
/// window (see `cim_crossbar::analog`'s windows).
fn program_weights(mlp: &BinarizedMlp) -> Vec<CimInstruction> {
    mlp.layers()
        .iter()
        .enumerate()
        .map(|(tile, layer)| CimInstruction::ProgramMatrix {
            tile,
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
/// input, over the layer's fan-in, the layer input chained host-side at
/// compile time via the exact sign activations (the same integers the
/// parity decode recovers from the array, so the chain and the array
/// agree bit for bit). The final layer's MVM is each input's output.
fn inference(
    lw: &Lowering,
    mlp: &BinarizedMlp,
    inputs: &[BitVec],
    mut instructions: Vec<CimInstruction>,
) -> CompiledJob {
    let mut outputs = Vec::with_capacity(inputs.len());
    for x in inputs {
        let acts = mlp.activations(x);
        for (tile, (layer, v)) in mlp.layers().iter().zip(&acts).enumerate() {
            let x: Vec<f64> = (0..layer.cols())
                .map(|j| if v.get(j) { 1.0 } else { -1.0 })
                .collect();
            instructions.push(CimInstruction::Mvm { tile, x });
        }
        outputs.push(instructions.len() - 1);
    }
    let host = lw.host(PROFILE, weight_bytes(mlp), || {
        Some(outcome(inputs.iter().map(|x| mlp.scores(x)).collect()))
    });
    CompiledJob {
        host,
        ..lw.job(
            TileDemand::analog(mlp.layers().len()),
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
    fits_shard(mlp, lw.cfg)?;
    let programs = program_weights(mlp);
    Ok(inference(lw, mlp, inputs, programs))
}

/// Inference against resident weights: the MVM cascade only, lowered
/// onto the dataset's pinned analog tiles — not a single weight write.
pub(super) fn query(lw: &Lowering, inputs: &[BitVec]) -> Result<CompiledJob, CompileError> {
    let ResidentPayload::Nn { network } = &lw.dataset().payload else {
        return Err(lw.mismatch());
    };
    check_inputs(network, inputs)?;
    let capacity = inputs.len() * network.layers().len();
    Ok(inference(lw, network, inputs, Vec::with_capacity(capacity)))
}

/// The load program of resident weights: one programmed tile per layer.
pub(super) fn load(
    cfg: &PoolConfig,
    network: &BinarizedMlp,
) -> Result<DatasetProgram, CompileError> {
    fits(network, cfg)?;
    fits_shard(network, cfg)?;
    Ok(DatasetProgram {
        instructions: program_weights(network),
        demand: TileDemand::analog(network.layers().len()),
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
        assert_eq!(c.demand.analog, 2, "one analog tile per layer");
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
        // Each layer programs and drives its own window: a 6×8 and a
        // 3×6 matrix, MVM inputs of fan-in 8 and 6.
        for instr in &c.instructions {
            match instr {
                CimInstruction::ProgramMatrix { tile, matrix } => {
                    let layer = &mlp.layers()[*tile];
                    assert_eq!(matrix.as_slice(), layer.as_slice());
                    assert_eq!((matrix.rows(), matrix.cols()), (layer.rows(), layer.cols()));
                }
                CimInstruction::Mvm { tile, x } => {
                    assert_eq!(x.len(), mlp.layers()[*tile].cols());
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert_eq!(c.outputs.len(), 4, "one output per inference");
        // Every output is a final-layer MVM (tile 1).
        for &idx in &c.outputs {
            assert!(matches!(
                c.instructions[idx],
                CimInstruction::Mvm { tile: 1, .. }
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
            analog_tiles: 2,
            resident_rows: Vec::new(),
            resident_matrices: mlp.layers().iter().map(|l| (l.rows(), l.cols())).collect(),
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
