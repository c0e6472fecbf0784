//! Quickstart: the CIM accelerator in five minutes.
//!
//! Builds an accelerator with one digital tile (Scouting Logic) and one
//! analog tile (matrix-vector products), then exercises the §II and
//! §III primitives through the instruction-set API.
//!
//! Run with: `cargo run --example quickstart`

use cim_core::accelerator::CimAcceleratorBuilder;
use cim_core::isa::CimInstruction;
use cim_crossbar::analog::AnalogParams;
use cim_crossbar::scouting::ScoutOp;
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;

fn main() {
    // A small CIM accelerator: one 8×64 digital tile for bit-wise logic,
    // one 8×8 analog tile for matrix-vector products.
    let mut acc = CimAcceleratorBuilder::new()
        .digital_tiles(1, 8, 64)
        .analog_tiles(1, 8, 8)
        .analog_params(AnalogParams::default())
        .seed(2024)
        .build();
    // Every stream draws its read and programming noise from the RNG it
    // is run with.
    let mut rng = seeded(7);

    // --- Scouting Logic: bit-wise ops inside the read periphery -------
    // One stream writes both operands, then senses OR, AND and XOR;
    // the three logic results (instructions 2–4) are its outputs.
    let a = BitVec::from_fn(64, |i| i % 2 == 0);
    let b = BitVec::from_fn(64, |i| i % 3 == 0);
    let ops = [ScoutOp::Or, ScoutOp::And, ScoutOp::Xor];
    let mut program = vec![
        CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: a.clone(),
        },
        CimInstruction::WriteRow {
            tile: 0,
            row: 1,
            bits: b.clone(),
        },
    ];
    program.extend(ops.map(|op| CimInstruction::Logic {
        tile: 0,
        op,
        rows: vec![0, 1],
    }));
    let results = acc.run(program, &[2, 3, 4], &mut rng);
    for (op, response) in ops.into_iter().zip(results) {
        let result = response.into_bits().expect("logic returns bits");
        let expect = match op {
            ScoutOp::Or => a.or(&b),
            ScoutOp::And => a.and(&b),
            ScoutOp::Xor => a.xor(&b),
        };
        println!(
            "{op:?}: {} ones, matches CPU reference: {}",
            result.count_ones(),
            result == expect
        );
    }

    // --- Analog matrix-vector multiplication ---------------------------
    let m = Matrix::from_fn(8, 8, |i, j| ((i as f64) - (j as f64)) / 8.0);
    let x = vec![0.5, -0.25, 0.75, 0.0, 0.1, -0.6, 0.3, 0.9];
    let program = vec![
        CimInstruction::ProgramMatrix {
            tile: 0,
            col: 0,
            matrix: m.clone(),
        },
        CimInstruction::Mvm {
            tile: 0,
            col: 0,
            x: x.clone(),
        },
    ];
    let y = acc
        .run(program, &[1], &mut rng)
        .pop()
        .and_then(|response| response.into_vector())
        .expect("mvm returns a vector");
    let y_exact = m.matvec(&x);
    println!("\nanalog A·x vs exact:");
    for (i, (analog, exact)) in y.iter().zip(&y_exact).enumerate() {
        println!("  y[{i}] = {analog:+.4} (exact {exact:+.4})");
    }

    // --- Execution statistics ------------------------------------------
    let stats = acc.stats();
    println!(
        "\nexecuted {} instructions: {} writes, {} logic ops, {} programs, {} MVMs",
        stats.instructions(),
        stats.row_writes,
        stats.logic_ops,
        stats.matrix_programs,
        stats.mvms
    );
    println!("total energy: {}", stats.energy);
    println!("total busy time: {}", stats.busy_time);
}
