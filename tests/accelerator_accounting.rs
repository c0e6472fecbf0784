//! Integration: energy/latency accounting consistency across the
//! accelerator stack — per-instruction costs must sum to the aggregate
//! statistics at every level.

use cim_repro::cim_core::accelerator::CimAcceleratorBuilder;
use cim_repro::cim_core::isa::{CimClass, CimInstruction};
use cim_repro::cim_crossbar::analog::AnalogParams;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::units::{Joules, Seconds};

#[test]
fn per_instruction_costs_sum_to_stats() {
    let mut acc = CimAcceleratorBuilder::new()
        .digital_tiles(2, 16, 128)
        .analog_tiles(1, 12, 12)
        .analog_params(AnalogParams::default())
        .seed(9)
        .build();

    let mut total_energy = Joules::ZERO;
    let mut total_time = Seconds::ZERO;
    let mut run = |acc: &mut cim_repro::cim_core::accelerator::CimAccelerator,
                   instr: CimInstruction| {
        let (_, cost) = acc.execute_with_cost(instr);
        total_energy += cost.energy;
        total_time += cost.latency;
    };

    for row in 0..16 {
        run(
            &mut acc,
            CimInstruction::WriteRow {
                tile: row % 2,
                row,
                bits: BitVec::from_fn(128, |i| (i + row) % 3 == 0),
            },
        );
    }
    run(&mut acc, CimInstruction::ReadRow { tile: 0, row: 3 });
    run(
        &mut acc,
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Or,
            rows: vec![1, 3, 5, 7],
        },
    );
    run(
        &mut acc,
        CimInstruction::ProgramMatrix {
            tile: 0,
            col: 0,
            matrix: Matrix::from_fn(12, 12, |i, j| ((i + j) % 4) as f64 - 1.5),
        },
    );
    run(
        &mut acc,
        CimInstruction::Mvm {
            tile: 0,
            col: 0,
            x: vec![0.3; 12],
        },
    );
    run(
        &mut acc,
        CimInstruction::MvmT {
            tile: 0,
            col: 0,
            z: vec![0.2; 12],
        },
    );

    let stats = acc.stats();
    assert_eq!(stats.instructions(), 21);
    assert!((stats.energy.0 - total_energy.0).abs() < 1e-15);
    assert!((stats.busy_time.0 - total_time.0).abs() < 1e-12);
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
        acc.execute(CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: BitVec::from_fn(64, |i| i % 7 == 0),
        });
        acc.execute(CimInstruction::WriteRow {
            tile: 0,
            row: 1,
            bits: BitVec::from_fn(64, |i| i % 2 == 0),
        });
        let bits = acc
            .execute(CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Xor,
                rows: vec![0, 1],
            })
            .into_bits()
            .unwrap();
        (bits, acc.stats().energy)
    };
    let (bits_a, energy_a) = build();
    let (bits_b, energy_b) = build();
    assert_eq!(bits_a, bits_b);
    assert_eq!(energy_a, energy_b);
}
