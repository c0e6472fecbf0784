//! # cim-simkit
//!
//! Shared simulation substrate for the CIM (Computation-In-Memory)
//! reproduction workspace.
//!
//! This crate is the foundation every other crate in the workspace builds
//! on. It deliberately contains no domain knowledge about memristive
//! devices or CIM architectures; it provides the numeric and bookkeeping
//! vocabulary they share:
//!
//! * [`units`] — strongly-typed SI quantities ([`units::Seconds`],
//!   [`units::Joules`], [`units::Watts`], …) so that energy/latency/area
//!   accounting cannot mix dimensions by accident.
//! * [`bitvec`] — a packed bit vector used by the bitmap database, the XOR
//!   cipher, scouting logic and hyperdimensional computing.
//! * [`linalg`] — a small dense `f64` matrix/vector toolkit (the AMP solver
//!   and crossbar simulator need matrix-vector products, transposes and
//!   norms, nothing more exotic).
//! * [`stats`] — summary statistics and error metrics (NMSE, RMSE, …).
//! * [`rng`] — deterministic seeded RNG helpers plus Gaussian sampling
//!   (implemented via Box–Muller because the workspace only depends on
//!   `rand`, not `rand_distr`).
//! * [`quant`] — uniform quantizers modelling DAC/ADC resolution limits.
//!
//! # Example
//!
//! ```
//! use cim_simkit::units::{Joules, Seconds, Watts};
//! use cim_simkit::bitvec::BitVec;
//!
//! // Unit algebra: power × time = energy.
//! let e: Joules = Watts(0.222) * Seconds(1e-6);
//! assert!((e.0 - 2.22e-7).abs() < 1e-15);
//!
//! // Packed bitwise operations.
//! let a = BitVec::from_bools(&[true, false, true, false]);
//! let b = BitVec::from_bools(&[true, true, false, false]);
//! assert_eq!(a.xor(&b).to_bools(), vec![false, true, true, false]);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bitvec;
pub mod linalg;
pub mod quant;
pub mod rng;
pub mod stats;
pub mod units;

pub use bitvec::BitVec;
pub use linalg::Matrix;
pub use quant::UniformQuantizer;
