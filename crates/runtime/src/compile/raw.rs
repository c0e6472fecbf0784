//! Raw instruction streams: [`WorkloadSpec::Raw`] on a fresh lease and
//! [`WorkloadSpec::RawQuery`] over a resident dataset's pinned tiles.
//!
//! Tenant streams are passed through as written — every response is an
//! output, returned verbatim — and have no host semantics at all, so
//! they never carry a host reference. Admission always runs the static
//! verifier over them instead.
//!
//! [`WorkloadSpec::Raw`]: crate::WorkloadSpec::Raw
//! [`WorkloadSpec::RawQuery`]: crate::WorkloadSpec::RawQuery

use super::{CompiledJob, Finalize, Lowering, TileDemand};
use crate::job::JobOutput;
use cim_core::isa::{CimInstruction, CimResponse};

/// Returns every response verbatim — also the decoder of each part of
/// a scatter-gathered job, whose parent decodes the gathered sequence.
#[derive(Debug)]
pub(super) struct Verbatim;

impl Finalize for Verbatim {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        JobOutput::Responses(outputs)
    }
}

/// A raw stream over a fresh lease of the declared tiles.
pub(super) fn fresh(
    lw: &Lowering,
    digital_tiles: usize,
    analog_tiles: usize,
    instructions: &[CimInstruction],
) -> CompiledJob {
    let demand = TileDemand {
        digital: digital_tiles,
        analog: analog_tiles,
    };
    lw.job(
        demand,
        instructions.to_vec(),
        (0..instructions.len()).collect(),
        Verbatim,
    )
}

/// A raw stream addressing a dataset's pinned tiles: demand is exactly
/// the pin, so the scheduler maps virtual tiles onto the dataset's
/// placement like any other query.
pub(super) fn query(lw: &Lowering, instructions: &[CimInstruction]) -> CompiledJob {
    let view = lw.dataset();
    let demand = TileDemand {
        digital: view.digital_tiles,
        analog: view.analog_tiles,
    };
    lw.job(
        demand,
        instructions.to_vec(),
        (0..instructions.len()).collect(),
        Verbatim,
    )
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use crate::job::WorkloadSpec;
    use cim_core::isa::CimInstruction;
    use cim_crossbar::scouting::ScoutOp;

    /// Logic accesses cost the rows they touch, so a wide raw reduction
    /// cannot masquerade as one cheap instruction.
    #[test]
    fn raw_logic_cost_counts_row_fanout() {
        let logic = |rows: Vec<usize>| WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows,
            }],
        };
        let wide = lower(&logic((0..100).collect()), &cfg()).unwrap();
        let narrow = lower(&logic(vec![0, 1]), &cfg()).unwrap();
        assert_eq!(wide.envelope.cost_units, 101);
        assert_eq!(narrow.envelope.cost_units, 3);
    }
}
