//! Admission-time static verification: the bridge between the pool and
//! the `cim-lint` analyzer.
//!
//! The pool verifies raw instruction streams ([`crate::WorkloadSpec::Raw`]
//! and [`crate::WorkloadSpec::RawQuery`]) at every submission, since
//! they are tenant input. A program with error-severity findings is
//! rejected with a terminal [`crate::JobError::RejectedByVerifier`]
//! report *before* any device state is touched — the shard never sees
//! the stream. Compiled workloads are held to the same bar by a debug
//! assertion in [`crate::compile::compile`] and by the `lint_programs`
//! property suite.
//!
//! This module's job is building the [`LintTarget`]: the compiled job's
//! declared tile demand plus whatever the queried dataset already made
//! resident (the rows its load program wrote, the blocks of its
//! programmed prototype or weight matrices), so reads of resident data
//! verify clean, MVMs of the wrong length over it are rejected, and so
//! are writes over it.

use crate::compile::{CompiledJob, TileDemand, SCOUT_FAN_IN};
use crate::dataset::ResidentView;
use crate::schedule::PoolConfig;
use cim_arch::cim::CimUnitParams;
use cim_core::isa::CimInstruction;
use cim_lint::{CostEnvelope, CostModel, Geometry, LintReport, LintTarget};

/// The per-tile analysis geometry of a job with `demand` tiles under
/// the pool's configuration — shared by the safety and cost passes so
/// both analyze the identical machine.
pub(crate) fn lint_geometry(demand: TileDemand, cfg: &PoolConfig) -> Geometry {
    Geometry {
        digital_tiles: demand.digital,
        tile_rows: cfg.tile_rows,
        tile_cols: cfg.tile_cols,
        analog_tiles: demand.analog,
        analog_rows: cfg.analog_rows,
        analog_cols: cfg.analog_cols,
        scout_fan_in: SCOUT_FAN_IN,
    }
}

/// Runs the `cim-lint` cost pass over an instruction stream against
/// the pool geometry and the matrices `resident` holds: the certified
/// [`CostEnvelope`] every compiled job (and every split part) is sealed
/// with. The model prices pulses with the paper-default CIM unit
/// parameters and bounds program-and-verify by the pool's own PCM pulse
/// budget, so the envelope is sound for the exact devices the shards
/// simulate.
pub(crate) fn envelope_of(
    instructions: &[CimInstruction],
    demand: TileDemand,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> CostEnvelope {
    let model = CostModel::from_models(
        &CimUnitParams::default(),
        cfg.analog_params.pcm.max_program_pulses,
    );
    cim_lint::cost(instructions, &analog_target(demand, cfg, resident), &model)
}

/// The pool's per-tile geometry with the job's own tile counts, plus the
/// blocks `resident`'s load programmed into each analog tile — all the
/// cost pass reads of a target.
fn analog_target(
    demand: TileDemand,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> LintTarget {
    let mut target = LintTarget::new(lint_geometry(demand, cfg));
    for (tile, blocks) in resident
        .iter()
        .flat_map(|view| view.resident_blocks.iter().enumerate())
    {
        for &block in blocks {
            target = target.with_resident_analog(tile, block);
        }
    }
    target
}

/// Builds the lint target a job with `demand` runs against: the pool's
/// per-tile geometry with the job's own tile counts, plus what the
/// dataset it queries made resident — the rows its load wrote, and the
/// blocks its load programmed into each analog tile.
pub(crate) fn lint_target(
    demand: TileDemand,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> LintTarget {
    let mut target = analog_target(demand, cfg, resident);
    for (tile, rows) in resident
        .iter()
        .flat_map(|view| view.resident_rows.iter().enumerate())
    {
        target = target.with_resident_rows(tile, rows.clone());
    }
    target
}

/// Statically verifies a compiled job against the pool geometry and its
/// resident dataset. Deterministic: same job, same config, same report.
pub(crate) fn verify_compiled(
    compiled: &CompiledJob,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> LintReport {
    let target = lint_target(compiled.demand, cfg, resident);
    cim_lint::lint(&compiled.instructions, &compiled.outputs, &target)
}
