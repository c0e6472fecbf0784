//! Integration: energy/latency accounting consistency across the
//! accelerator stack — the accelerator's statistics must equal what its
//! tiles booked.

use cim_repro::cim_core::accelerator::CimAcceleratorBuilder;
use cim_repro::cim_core::isa::{CimClass, CimInstruction};
use cim_repro::cim_crossbar::analog::AnalogParams;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::rng::seeded;

/// Every instruction books its work on exactly one tile (an analog
/// instruction on both tiles of its differential pair), so the
/// accelerator's counts and energy are the sums of its tiles'. The two
/// tiles of a pair work side by side, so an analog instruction's busy
/// time is its slower tile's.
#[test]
fn stats_equal_the_sum_of_tile_stats() {
    let mut acc = CimAcceleratorBuilder::new()
        .digital_tiles(2, 16, 128)
        .analog_tiles(1, 12, 12)
        .analog_params(AnalogParams::default())
        .seed(9)
        .build();
    let mut program: Vec<CimInstruction> = (0..16)
        .map(|row| CimInstruction::WriteRow {
            tile: row % 2,
            row,
            bits: BitVec::from_fn(128, |i| (i + row) % 3 == 0),
        })
        .collect();
    program.extend([
        CimInstruction::ReadRow { tile: 0, row: 2 },
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Or,
            rows: vec![0, 2, 4, 6],
        },
        CimInstruction::StoreLast { tile: 1, row: 15 },
        CimInstruction::ProgramMatrix {
            tile: 0,
            col: 0,
            matrix: Matrix::from_fn(12, 12, |i, j| ((i + j) % 4) as f64 - 1.5),
        },
        CimInstruction::Mvm {
            tile: 0,
            col: 0,
            x: vec![0.3; 12],
        },
        CimInstruction::MvmT {
            tile: 0,
            col: 0,
            z: vec![0.2; 12],
        },
    ]);
    acc.run(program, &[], &mut seeded(9));

    let stats = *acc.stats();
    assert_eq!(stats.instructions(), 22);
    let digital: Vec<_> = (0..2).map(|t| *acc.digital_tile(t).stats()).collect();
    let analog = acc.analog_tile(0).stats();
    assert_eq!(
        stats.row_writes,
        digital.iter().map(|s| s.row_writes).sum::<u64>()
    );
    assert_eq!(
        stats.row_reads,
        digital.iter().map(|s| s.row_reads).sum::<u64>()
    );
    assert_eq!(
        stats.logic_ops,
        digital.iter().map(|s| s.scout_ops).sum::<u64>()
    );
    assert_eq!(2 * stats.matrix_programs, analog.programs);
    assert_eq!(2 * stats.mvms, analog.mvms + analog.transpose_mvms);

    let digital_energy: f64 = digital.iter().map(|s| s.energy.0).sum();
    let energy = digital_energy + analog.energy.0;
    assert!(
        (stats.energy.0 - energy).abs() <= 1e-12 * energy,
        "{} J booked against {energy} J on the tiles",
        stats.energy.0
    );
    // Each analog instruction takes between its slower tile's time and
    // both tiles' times in series.
    let digital_time: f64 = digital.iter().map(|s| s.busy_time.0).sum();
    let analog_time = stats.busy_time.0 - digital_time;
    let (positive, negative) = acc.analog_tile(0).tiles();
    let serial = positive.stats().busy_time.0 + negative.stats().busy_time.0;
    assert!(
        analog.busy_time.0 * (1.0 - 1e-12) <= analog_time && analog_time <= serial,
        "{analog_time} s of analog instructions, outside [{}, {serial}] s",
        analog.busy_time.0
    );
}

#[test]
fn instruction_classes_follow_taxonomy() {
    // CIM-P instructions never mutate cell state; CIM-A instructions do.
    let logic = CimInstruction::Logic {
        tile: 0,
        op: ScoutOp::And,
        rows: vec![0, 1],
    };
    assert_eq!(logic.class(), CimClass::Periphery);
    let write = CimInstruction::WriteRow {
        tile: 0,
        row: 0,
        bits: BitVec::zeros(8),
    };
    assert_eq!(write.class(), CimClass::Array);
    let program = CimInstruction::ProgramMatrix {
        tile: 0,
        col: 0,
        matrix: Matrix::zeros(2, 2),
    };
    assert_eq!(program.class(), CimClass::Array);
}

#[test]
fn deterministic_replay_across_builds() {
    let build = || {
        let mut acc = CimAcceleratorBuilder::new()
            .digital_tiles(1, 4, 64)
            .seed(77)
            .build();
        let program = vec![
            CimInstruction::WriteRow {
                tile: 0,
                row: 0,
                bits: BitVec::from_fn(64, |i| i % 7 == 0),
            },
            CimInstruction::WriteRow {
                tile: 0,
                row: 1,
                bits: BitVec::from_fn(64, |i| i % 2 == 0),
            },
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Xor,
                rows: vec![0, 1],
            },
        ];
        let bits = acc
            .run(program, &[2], &mut seeded(77))
            .pop()
            .and_then(|response| response.into_bits())
            .unwrap();
        (bits, acc.stats().energy)
    };
    let (bits_a, energy_a) = build();
    let (bits_b, energy_b) = build();
    assert_eq!(bits_a, bits_b);
    assert_eq!(energy_a, energy_b);
}
