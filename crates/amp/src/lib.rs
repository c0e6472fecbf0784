//! # cim-amp
//!
//! Compressed sensing with approximate message passing (AMP) on exact
//! and memristive-crossbar matrix-vector backends — the §III-B
//! application of the DATE'19 paper.
//!
//! The observation model is `y = A·x₀ + w` with a known measurement
//! matrix `A ∈ ℝ^{M×N}`, `M < N`, and a sparse signal `x₀`. AMP (Donoho,
//! Maleki, Montanari — the paper's \[20\]) recovers `x₀` with the
//! first-order iteration
//!
//! ```text
//! zₜ   = y − A·xₜ + (N/M)·zₜ₋₁·⟨η'ₜ₋₁(A*·zₜ₋₁ + xₜ₋₁)⟩
//! xₜ₊₁ = ηₜ(A*·zₜ + xₜ)
//! ```
//!
//! whose only expensive operations are `A·x` and `A*·z` — both of which a
//! memristive crossbar evaluates in O(1) time on the *same* programmed
//! array (forward on one axis, transpose on the other), reducing AMP's
//! per-iteration complexity from O(MN) to O(N) (§III-B-2).
//!
//! * [`problem`] — measurement-matrix / sparse-signal / noise generators.
//! * [`solver`] — the AMP iteration over a pluggable
//!   [`solver::MatVecBackend`]: [`solver::ExactBackend`] (float) or
//!   [`solver::CrossbarBackend`] (programmed PCM differential crossbar
//!   with DAC/ADC quantization and device noise, after Le Gallo et al.,
//!   the paper's \[21\]).
//!
//! # Example
//!
//! ```
//! use cim_amp::problem::CsProblem;
//! use cim_amp::solver::{AmpSolver, ExactBackend};
//! use cim_simkit::stats::nmse_db;
//!
//! let p = CsProblem::generate(100, 200, 10, 0.0, 7);
//! let mut backend = ExactBackend::new(p.matrix.clone());
//! let r = AmpSolver::default().solve(&mut backend, &p.measurements, 200);
//! assert!(nmse_db(&p.signal, &r.estimate) < -30.0);
//! ```

pub mod problem;
pub mod solver;

pub use problem::CsProblem;
pub use solver::{AmpResult, AmpSolver, CrossbarBackend, ExactBackend, MatVecBackend};
