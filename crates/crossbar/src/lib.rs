//! # cim-crossbar
//!
//! Memristive crossbar array simulator — the circuit-level substrate every
//! CIM application study in the DATE'19 paper runs on.
//!
//! A crossbar is a grid of memristive devices at the intersections of word
//! lines (rows) and bit lines (columns). Two read disciplines cover all of
//! the paper's primitives:
//!
//! * **Analog matrix-vector multiplication** ([`analog`]): the matrix lives
//!   as device conductances; driving the rows with a voltage vector makes
//!   every column accumulate `I_j = Σ_i V_i·G_ij` by Ohm's and Kirchhoff's
//!   laws. DACs bound input precision, ADCs bound output precision, and
//!   the PCM devices contribute programming error, read noise and drift.
//!   Signed matrices use a differential pair of arrays with a subtraction
//!   circuit ([`mapping`]), exactly as §III-B-2 describes.
//! * **Scouting logic** ([`scouting`], Fig. 2(c)): activating two (or more)
//!   rows simultaneously makes each column's sense amplifier see the
//!   combined current; comparing it against one or two reference currents
//!   yields bitwise OR / AND / XOR of the stored rows in a single read,
//!   without moving data out of the array.
//!
//! [`digital::DigitalArray`] hosts binary ReRAM rows for scouting-logic
//! workloads (bitmap queries, XOR encryption, HD bitwise steps) on a
//! word-parallel struct-of-arrays fast path. The [`cam`] module adds a
//! third discipline on the same tiles: content-addressable (match-line)
//! search with exact, ternary and analog range semantics.
//!
//! The original per-device simulators of every tile kind survive in
//! [`mod@reference`] as the behavioural ground truth the fast paths are
//! property-tested against — test oracles, which no serving path uses.
//!
//! [`energy`] rolls per-event device/converter costs into per-operation
//! budgets — reproducing the paper's 222 mW / 222 nJ crossbar read point.
//!
//! # Example
//!
//! ```
//! use cim_crossbar::analog::{AnalogCrossbar, AnalogParams};
//! use cim_simkit::linalg::Matrix;
//! use cim_simkit::rng::seeded;
//!
//! let mut rng = seeded(7);
//! let a = Matrix::from_fn(8, 8, |i, j| ((i + j) % 3) as f64 * 0.3);
//! let mut xbar = AnalogCrossbar::new(8, 8, AnalogParams::default());
//! xbar.program_matrix(&a, &mut rng);
//! let x = vec![0.5; 8];
//! let y = xbar.matvec(&x, &mut rng);
//! let y_exact = a.matvec(&x);
//! for (a, b) in y.iter().zip(&y_exact) {
//!     assert!((a - b).abs() < 0.15, "analog {a} vs exact {b}");
//! }
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod analog;
pub mod cam;
pub mod digital;
pub mod energy;
pub mod mapping;
pub mod reference;
pub mod scouting;

pub use analog::{AnalogCrossbar, AnalogParams, DifferentialCrossbar};
pub use cam::{CamArray, MatchKind, Rule, RuleSet};
pub use digital::DigitalArray;
pub use energy::{CrossbarEnergyModel, OperationCost, ReadBudget};
pub use mapping::ConductanceMapping;
pub use reference::{
    ReferenceAnalogCrossbar, ReferenceCamArray, ReferenceDifferentialCrossbar,
    ReferenceDigitalArray,
};
pub use scouting::{ScoutOp, SenseAmplifier};
