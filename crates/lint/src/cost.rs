//! The cost pass: a second abstract interpretation over the same
//! [`cim_core::CimInstruction`] stream the safety pass walks, producing
//! a **certified [`CostEnvelope`]** instead of diagnostics.
//!
//! Where [`crate::lint`] answers *"may this program run?"*, this pass
//! answers *"what will it cost?"* — statically, before any device state
//! is touched. The envelope carries three layers of certainty:
//!
//! * **Exact instruction/pulse counts** per tile family: row writes and
//!   reads, scouting accesses and their row activations, CAM key-write
//!   pulses, match-line pulses (one per searched entry, exactly what the
//!   device charges), analog matrix programs and MVMs. These are
//!   deterministic functions of the stream and hold with equality on
//!   any execution.
//! * **Sound upper bounds** on the device-tier counters
//!   (`DeviceCounters`): word accesses, sampled columns, program-and-
//!   verify pulses and analog noise samples. The simulated device
//!   resolves most accesses on its exact word path and only samples
//!   genuinely ambiguous margins, so the measured counters can fall
//!   below these bounds but never above them.
//! * **Model-derived bounds**: a latency and an energy bound priced
//!   with the `cim-arch` analytical CIM-unit parameters (10 ns op
//!   slots at effective parallelism 20, 10 pJ per word-op) and the
//!   `cim-tech` ADC energy model for sampled-column conversions. These
//!   are what an admission-time offload planner compares against a
//!   host-fallback estimate.
//!
//! Like the lint report, the envelope renders deterministically:
//! [`CostEnvelope::to_text`] and [`CostEnvelope::to_json`] depend only
//! on the analyzed stream and the [`CostModel`].

use crate::check::{Block, LintTarget};
use cim_arch::cim::CimUnitParams;
use cim_core::CimInstruction;
use cim_simkit::units::{Hertz, Joules, Seconds};
use cim_tech::adc::AdcModel;

/// Pricing knobs of the cost pass: the analytical-model constants the
/// envelope's latency/energy bounds and the device-counter bounds are
/// derived from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Latency of one logical CIM op slot (the paper's ≈10 ns).
    pub op_latency: Seconds,
    /// Word-operations sustained per op slot (interface-bounded).
    pub effective_parallelism: f64,
    /// Energy per accelerated word-operation.
    pub energy_per_op: Joules,
    /// Fixed per-offload overhead charged once per job.
    pub offload_overhead: Seconds,
    /// ADC energy per sampled-column conversion (the `cim-tech` Walden
    /// figure-of-merit at the op rate).
    pub adc_energy_per_sample: Joules,
    /// Worst-case program-and-verify pulses per analog device (the PCM
    /// iterative-programming cap).
    pub max_program_pulses: u64,
}

impl CostModel {
    /// Builds a model from the `cim-arch` CIM-unit parameters plus the
    /// device-side programming cap, pricing ADC conversions with the
    /// `cim-tech` 8-bit paper ADC at the unit's op rate.
    pub fn from_models(cim: &CimUnitParams, max_program_pulses: u32) -> Self {
        let op_rate = Hertz(1.0 / cim.op_latency.0);
        CostModel {
            op_latency: cim.op_latency,
            effective_parallelism: cim.effective_parallelism,
            energy_per_op: cim.energy_per_op,
            offload_overhead: cim.offload_overhead,
            adc_energy_per_sample: AdcModel::paper_8bit(op_rate).energy_per_sample(),
            max_program_pulses: max_program_pulses as u64,
        }
    }
}

impl Default for CostModel {
    /// The paper configuration: `cim-arch`'s default CIM unit and the
    /// default PCM programming cap of 20 pulses per device.
    fn default() -> Self {
        CostModel::from_models(&CimUnitParams::default(), 20)
    }
}

/// The certified cost of one compiled instruction stream.
///
/// Count fields are exact on any execution; `*_bound` fields are sound
/// upper bounds on the corresponding measured `DeviceCounters` (see the
/// module docs for which is which). All counts are accumulated over the
/// whole stream, per tile *family* semantics: digital rows for
/// write/read/scout/CAM work, analog devices for programs and MVMs.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CostEnvelope {
    /// `WriteRow` instructions (one row write pulse each).
    pub row_writes: u64,
    /// `StoreLast` write-backs (one row write pulse each).
    pub store_writes: u64,
    /// `ReadRow` sense accesses.
    pub row_reads: u64,
    /// `Logic` (Scouting) sense accesses.
    pub scout_ops: u64,
    /// Rows simultaneously activated across all scouting accesses — a
    /// wide access fans current through every operand row at once, so
    /// this (not `scout_ops`) is the scouting pulse total.
    pub scout_row_activations: u64,
    /// `WriteKey` instructions (a value row and a care row each).
    pub key_writes: u64,
    /// Row write pulses of the key writes (`2 × key_writes`).
    pub key_write_pulses: u64,
    /// `MatchSearch` accesses.
    pub searches: u64,
    /// Match-line pulses: one per searched entry, summed over all
    /// searches — exactly what the device's `match_pulses` counter
    /// charges.
    pub match_pulses: u64,
    /// `ProgramMatrix` instructions.
    pub matrix_programs: u64,
    /// Analog devices touched by matrix programs (`2 × rows × cols` of
    /// each programmed matrix, which occupies a block of its own shape:
    /// a differential pair holds each signed weight).
    pub programmed_devices: u64,
    /// `Mvm` + `MvmT` instructions.
    pub mvms: u64,
    /// Upper bound on `DeviceCounters::word_accesses`: each read, scout
    /// and search resolves on the word path at most once.
    pub word_access_bound: u64,
    /// Upper bound on `DeviceCounters::sampled_columns`: a read/scout
    /// can sample at most every tile column, a search at most every
    /// searched match line.
    pub sampled_column_bound: u64,
    /// Upper bound on `DeviceCounters::program_pulses`:
    /// `programmed_devices × max_program_pulses`. The batched
    /// program-and-verify pass pulses only still-unconverged devices
    /// each round, so the per-device cap — and hence this product —
    /// stays a sound ceiling.
    pub program_pulse_bound: u64,
    /// Upper bound on `DeviceCounters::noise_samples`: the fast path
    /// draws at most one aggregate sample per *output line* per tile of
    /// the differential pair, and a product reads only the block it
    /// addresses (`2 × rows` per `Mvm`, `2 × cols` per `MvmT`, of that
    /// block); the nominal tier draws none.
    pub noise_sample_bound: u64,
    /// Latency upper bound from the analytical model (offload overhead
    /// plus op slots at effective parallelism over the pulse bounds).
    pub latency_bound: Seconds,
    /// Energy upper bound from the analytical model (per-op energy over
    /// the pulse bounds plus ADC conversions for sampled columns).
    pub energy_bound: Joules,
    /// The scheduler's scalar load estimate, in units of one digital
    /// row access — the single cost authority that orders each shard's
    /// batch and charges the routing ledger. Always at least 1 (a job
    /// occupies a dispatch slot even when empty).
    pub cost_units: u64,
}

impl CostEnvelope {
    /// Total row write pulses across families of digital work
    /// (`WriteRow` + `StoreLast` + key-write pulses) — the numerator of
    /// endurance budgeting.
    pub fn write_pulses(&self) -> u64 {
        self.row_writes + self.store_writes + self.key_write_pulses
    }

    /// Worst-case device pulses the latency/energy bounds are priced
    /// over: every write pulse, every activated scout row, every match
    /// pulse, every read, and the program/noise pulse bounds.
    pub fn device_pulse_bound(&self) -> u64 {
        self.write_pulses()
            + self.row_reads
            + self.scout_row_activations
            + self.match_pulses
            + self.program_pulse_bound
            + self.noise_sample_bound
    }

    /// Deterministic plain-text rendering: one `key: value` line per
    /// field group, ending with the scalar cost.
    pub fn to_text(&self) -> String {
        format!(
            "writes: {w} rows + {s} stores + {kp} key pulses\n\
             reads: {r} rows, scouts: {so} accesses / {sa} activations\n\
             cam: {se} searches / {mp} match pulses\n\
             analog: {pr} programs / {pd} devices, {mv} mvms\n\
             bounds: {wa} word accesses, {sc} sampled columns, \
             {pp} program pulses, {ns} noise samples\n\
             latency <= {lat:.3e} s, energy <= {en:.3e} J, cost {cu}",
            w = self.row_writes,
            s = self.store_writes,
            kp = self.key_write_pulses,
            r = self.row_reads,
            so = self.scout_ops,
            sa = self.scout_row_activations,
            se = self.searches,
            mp = self.match_pulses,
            pr = self.matrix_programs,
            pd = self.programmed_devices,
            mv = self.mvms,
            wa = self.word_access_bound,
            sc = self.sampled_column_bound,
            pp = self.program_pulse_bound,
            ns = self.noise_sample_bound,
            lat = self.latency_bound.0,
            en = self.energy_bound.0,
            cu = self.cost_units,
        )
    }

    /// Deterministic JSON rendering of the envelope — the object the
    /// lint report embeds as its optional `cost` section. Numbers are
    /// plain integers for counts and `{:e}` floats for the model-derived
    /// bounds, the grammar `cim_obs::json::validate` accepts.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"cost_units\": {cu}, \
             \"counts\": {{\"row_writes\": {w}, \"store_writes\": {s}, \
             \"row_reads\": {r}, \"scout_ops\": {so}, \
             \"scout_row_activations\": {sa}, \"key_writes\": {kw}, \
             \"key_write_pulses\": {kp}, \"searches\": {se}, \
             \"match_pulses\": {mp}, \"matrix_programs\": {pr}, \
             \"programmed_devices\": {pd}, \"mvms\": {mv}}}, \
             \"bounds\": {{\"word_accesses\": {wa}, \
             \"sampled_columns\": {sc}, \"program_pulses\": {pp}, \
             \"noise_samples\": {ns}}}, \
             \"latency_bound_s\": {lat:e}, \"energy_bound_j\": {en:e}}}",
            cu = self.cost_units,
            w = self.row_writes,
            s = self.store_writes,
            r = self.row_reads,
            so = self.scout_ops,
            sa = self.scout_row_activations,
            kw = self.key_writes,
            kp = self.key_write_pulses,
            se = self.searches,
            mp = self.match_pulses,
            pr = self.matrix_programs,
            pd = self.programmed_devices,
            mv = self.mvms,
            wa = self.word_access_bound,
            sc = self.sampled_column_bound,
            pp = self.program_pulse_bound,
            ns = self.noise_sample_bound,
            lat = self.latency_bound.0,
            en = self.energy_bound.0,
        )
    }
}

impl std::fmt::Display for CostEnvelope {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.to_text())
    }
}

/// Scheduler weight of one `Mvm` or `MvmT`, in digital row accesses.
pub const MVM_WEIGHT: u64 = 100;

/// Scheduler weight of one `ProgramMatrix`: its latency bound in 10 ns
/// op slots (one slot per digital row access). The rows of a tile
/// program in lock-step rounds, so a program lasts as long as its
/// slowest device, however small its block: 20 verify rounds (the PCM
/// `max_program_pulses` cap) × 500 ns (`program_pulse_latency`) ÷ 10 ns
/// = 1,000 units.
const PROGRAM_WEIGHT: u64 = 20 * 500 / 10;

/// The per-instruction scheduler weight, in units of one digital row
/// access — the scale the runtime's routing ledger is kept in. Kept
/// here (next to the counting walk) so the envelope's `cost_units` is
/// the one authority the scheduler consumes.
fn scheduler_weight(instr: &CimInstruction) -> u64 {
    match instr {
        CimInstruction::WriteRow { .. }
        | CimInstruction::ReadRow { .. }
        | CimInstruction::StoreLast { .. } => 1,
        // A key write is two row pulses (value + care); a search pulses
        // every activated match line at once, so it costs the entries
        // it touches, like a wide Logic access.
        CimInstruction::WriteKey { .. } => 2,
        CimInstruction::MatchSearch { entries, .. } => *entries as u64,
        CimInstruction::Logic { rows, .. } => rows.len() as u64,
        CimInstruction::Mvm { .. } | CimInstruction::MvmT { .. } => MVM_WEIGHT,
        CimInstruction::ProgramMatrix { .. } => PROGRAM_WEIGHT,
    }
}

/// Runs the cost pass over `program`, certifying a [`CostEnvelope`]
/// against `target` under `model`'s pricing. The target's geometry caps
/// the columns an access can sample; its resident analog blocks, then
/// each in-stream `ProgramMatrix`, give the block every product reads.
///
/// The walk is total: out-of-bounds instructions still count (the
/// safety pass rejects them separately; a cost envelope of a rejected
/// program is never consumed), and a product that addresses no known
/// block is bounded by the whole tile. The result is deterministic in
/// `(program, target, model)`.
pub fn cost(program: &[CimInstruction], target: &LintTarget, model: &CostModel) -> CostEnvelope {
    let geometry = &target.geometry;
    // The blocks each analog tile holds.
    let mut blocks = target.resident_analog.clone();
    let shape = |blocks: &[Vec<Block>], tile: usize, col: usize| {
        blocks
            .get(tile)
            .and_then(|held| held.iter().find(|b| b.col == col))
            .map_or((geometry.analog_rows, geometry.analog_cols), |b| {
                (b.rows, b.cols)
            })
    };
    let mut env = CostEnvelope::default();
    for instr in program {
        match instr {
            CimInstruction::WriteRow { .. } => env.row_writes += 1,
            CimInstruction::StoreLast { .. } => env.store_writes += 1,
            CimInstruction::ReadRow { .. } => {
                env.row_reads += 1;
                env.word_access_bound += 1;
                env.sampled_column_bound += geometry.tile_cols as u64;
            }
            CimInstruction::Logic { rows, .. } => {
                env.scout_ops += 1;
                env.scout_row_activations += rows.len() as u64;
                env.word_access_bound += 1;
                env.sampled_column_bound += geometry.tile_cols as u64;
            }
            CimInstruction::WriteKey { .. } => {
                env.key_writes += 1;
                env.key_write_pulses += 2;
            }
            CimInstruction::MatchSearch { entries, .. } => {
                env.searches += 1;
                env.match_pulses += *entries as u64;
                env.word_access_bound += 1;
                env.sampled_column_bound += *entries as u64;
            }
            CimInstruction::ProgramMatrix { tile, col, matrix } => {
                if let Some(held) = blocks.get_mut(*tile) {
                    let block = Block::new(*col, (matrix.rows(), matrix.cols()));
                    held.retain(|b| !b.overlaps(&block));
                    held.push(block);
                }
                env.matrix_programs += 1;
                // A differential pair encodes each signed weight on two
                // devices; each device takes at most the iterative
                // program-and-verify cap.
                let devices = 2 * (matrix.rows() * matrix.cols()) as u64;
                env.programmed_devices += devices;
                env.program_pulse_bound += devices * model.max_program_pulses;
            }
            CimInstruction::Mvm { tile, col, .. } => {
                env.mvms += 1;
                // One aggregate sample per output line (forward products
                // read the block's rows), per tile of the differential
                // pair.
                env.noise_sample_bound += 2 * shape(&blocks, *tile, *col).0 as u64;
            }
            CimInstruction::MvmT { tile, col, .. } => {
                env.mvms += 1;
                // Transpose products read the block's columns.
                env.noise_sample_bound += 2 * shape(&blocks, *tile, *col).1 as u64;
            }
        }
        env.cost_units += scheduler_weight(instr);
    }
    env.cost_units += 1;
    let pulses = env.device_pulse_bound();
    env.latency_bound = Seconds(
        model.offload_overhead.0
            + model.op_latency.0 * (pulses as f64 / model.effective_parallelism),
    );
    env.energy_bound = Joules(
        model.energy_per_op.0 * pulses as f64
            + model.adc_energy_per_sample.0 * env.sampled_column_bound as f64,
    );
    env
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::Geometry;
    use cim_simkit::bitvec::BitVec;
    use cim_simkit::linalg::Matrix;

    fn target() -> LintTarget {
        LintTarget::new(geo())
    }

    fn geo() -> Geometry {
        Geometry {
            digital_tiles: 2,
            tile_rows: 16,
            tile_cols: 64,
            analog_tiles: 1,
            analog_rows: 4,
            analog_cols: 8,
            scout_fan_in: 8,
        }
    }

    fn sample_program() -> Vec<CimInstruction> {
        vec![
            CimInstruction::WriteRow {
                tile: 0,
                row: 0,
                bits: BitVec::zeros(64),
            },
            CimInstruction::WriteRow {
                tile: 0,
                row: 1,
                bits: BitVec::ones(64),
            },
            CimInstruction::Logic {
                tile: 0,
                op: cim_core::isa::ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
            CimInstruction::ReadRow { tile: 0, row: 2 },
            CimInstruction::WriteKey {
                tile: 1,
                slot: 0,
                value: BitVec::ones(64),
                care: BitVec::ones(64),
            },
            CimInstruction::MatchSearch {
                tile: 1,
                entries: 1,
                key: BitVec::ones(64),
                kind: cim_core::isa::MatchKind::Exact,
            },
            CimInstruction::ProgramMatrix {
                tile: 0,
                col: 0,
                matrix: Matrix::from_fn(4, 8, |_, _| 1.0),
            },
            CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: vec![1.0; 8],
            },
        ]
    }

    #[test]
    fn counts_are_exact_and_weights_match_the_scheduler_scale() {
        let env = cost(&sample_program(), &target(), &CostModel::default());
        assert_eq!(env.row_writes, 2);
        assert_eq!(env.store_writes, 1);
        assert_eq!(env.row_reads, 1);
        assert_eq!(env.scout_ops, 1);
        assert_eq!(env.scout_row_activations, 2);
        assert_eq!(env.key_writes, 1);
        assert_eq!(env.key_write_pulses, 2);
        assert_eq!(env.searches, 1);
        assert_eq!(env.match_pulses, 1);
        assert_eq!(env.matrix_programs, 1);
        assert_eq!(env.programmed_devices, 2 * 4 * 8);
        assert_eq!(env.mvms, 1);
        // Scheduler scale: writes/read/store 1 each, logic = fan-in,
        // key write 2, search = entries, mvm 100, program = its latency
        // bound of 1,000 op slots whatever its shape, plus the constant
        // 1.
        assert_eq!(env.cost_units, 2 + 1 + 1 + 2 + 2 + 1 + 1000 + 100 + 1);
    }

    #[test]
    fn bounds_dominate_structure() {
        let env = cost(&sample_program(), &target(), &CostModel::default());
        assert_eq!(env.word_access_bound, 3, "read + scout + search");
        assert_eq!(env.sampled_column_bound, 64 + 64 + 1);
        assert_eq!(env.program_pulse_bound, 2 * 32 * 20);
        assert_eq!(
            env.noise_sample_bound,
            2 * 4,
            "one sample per output line per tile"
        );
        assert!(env.latency_bound.0 > 0.0 && env.energy_bound.0 > 0.0);
    }

    #[test]
    fn noise_samples_are_bounded_by_the_block_a_product_reads() {
        let mvm = |tile| CimInstruction::Mvm {
            tile,
            col: 0,
            x: vec![],
        };
        let mvm_t = |tile| CimInstruction::MvmT {
            tile,
            col: 0,
            z: vec![],
        };
        let model = CostModel::default();
        // A resident 3x5 matrix: forward products read 3 lines,
        // transposes 5, on each tile of the pair.
        let resident = LintTarget::new(geo()).with_resident_analog(0, Block::new(0, (3, 5)));
        let env = cost(&[mvm(0), mvm_t(0)], &resident, &model);
        assert_eq!(env.noise_sample_bound, 2 * 3 + 2 * 5);
        // Each block bounds the products that address it: a 2x3 block
        // beside the 3x5 one reads 2 lines forward, 3 transposed.
        let packed = resident
            .clone()
            .with_resident_analog(0, Block::new(5, (2, 3)));
        let beside = [
            CimInstruction::Mvm {
                tile: 0,
                col: 5,
                x: vec![],
            },
            CimInstruction::MvmT {
                tile: 0,
                col: 5,
                z: vec![],
            },
            mvm(0),
        ];
        let env = cost(&beside, &packed, &model);
        assert_eq!(env.noise_sample_bound, 2 * 2 + 2 * 3 + 2 * 3);
        // An in-stream program replaces the block it overlaps from then
        // on.
        let program = vec![
            mvm(0),
            CimInstruction::ProgramMatrix {
                tile: 0,
                col: 0,
                matrix: Matrix::from_fn(2, 7, |_, _| 1.0),
            },
            mvm(0),
            mvm_t(0),
        ];
        let env = cost(&program, &resident, &model);
        assert_eq!(env.noise_sample_bound, 2 * 3 + 2 * 2 + 2 * 7);
        // A product with no known block is bounded by the whole 4x8
        // tile.
        let env = cost(&[mvm(0), mvm_t(0)], &target(), &model);
        assert_eq!(env.noise_sample_bound, 2 * 4 + 2 * 8);
        // A smaller block lowers both model bounds.
        let full = cost(&[mvm(0)], &target(), &model);
        let blocked = cost(&[mvm(0)], &resident, &model);
        assert!(blocked.latency_bound.0 < full.latency_bound.0);
        assert!(blocked.energy_bound.0 < full.energy_bound.0);
    }

    #[test]
    fn empty_program_costs_one_unit_and_overhead_only() {
        let env = cost(&[], &target(), &CostModel::default());
        assert_eq!(env.cost_units, 1);
        assert_eq!(env.device_pulse_bound(), 0);
        let model = CostModel::default();
        assert!((env.latency_bound.0 - model.offload_overhead.0).abs() < 1e-18);
        assert_eq!(env.energy_bound.0, 0.0);
    }

    #[test]
    fn renderings_are_deterministic() {
        let a = cost(&sample_program(), &target(), &CostModel::default());
        let b = cost(&sample_program(), &target(), &CostModel::default());
        assert_eq!(a.to_text(), b.to_text());
        assert_eq!(a.to_json(), b.to_json());
        assert!(a.to_json().contains("\"cost_units\": 1110"));
        assert!(a.to_text().contains("cost 1110"));
    }
}
