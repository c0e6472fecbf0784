//! The AMP solver over pluggable matrix-vector backends.
//!
//! AMP with soft thresholding (Donoho–Maleki–Montanari) iterates
//!
//! ```text
//! rₜ   = xₜ + A*·zₜ                     (pseudo-data)
//! xₜ₊₁ = η(rₜ; λₜ)                      (soft threshold)
//! zₜ₊₁ = y − A·xₜ₊₁ + zₜ·‖xₜ₊₁‖₀/M      (residual + Onsager term)
//! ```
//!
//! with the threshold tied to the residual energy, `λₜ = α·‖zₜ‖₂/√M`.
//! The Onsager correction `zₜ·‖x‖₀/M` — equal to `(N/M)·zₜ·⟨η'⟩` since
//! `η' ∈ {0,1}` — is what distinguishes AMP from plain iterative soft
//! thresholding and gives it its fast convergence; the tests include an
//! ablation that disables it.
//!
//! The two products are abstracted behind [`MatVecBackend`] so the same
//! solver runs on exact floating point or inside a memristive crossbar.

use cim_crossbar::analog::{AnalogParams, DifferentialCrossbar};
use cim_crossbar::energy::OperationCost;
use cim_simkit::linalg::{norm2, Matrix};
use cim_simkit::rng::seeded;
use rand::rngs::StdRng;

/// Soft-threshold operator `η(x; λ) = sign(x)·max(|x|−λ, 0)`.
pub fn soft_threshold(x: f64, lambda: f64) -> f64 {
    if x > lambda {
        x - lambda
    } else if x < -lambda {
        x + lambda
    } else {
        0.0
    }
}

/// Derivative of the soft-threshold operator (0 inside the dead zone,
/// 1 outside).
pub fn soft_threshold_derivative(x: f64, lambda: f64) -> f64 {
    if x.abs() > lambda {
        1.0
    } else {
        0.0
    }
}

/// The two products AMP needs, provided by exact math or by hardware.
pub trait MatVecBackend {
    /// Forward product `A·x` (`x` of length N, result of length M).
    fn forward(&mut self, x: &[f64]) -> Vec<f64>;
    /// Adjoint product `A*·z` (`z` of length M, result of length N).
    fn adjoint(&mut self, z: &[f64]) -> Vec<f64>;
    /// Number of products executed so far (forward + adjoint).
    fn products(&self) -> u64;
}

/// Exact floating-point backend.
#[derive(Debug, Clone)]
pub struct ExactBackend {
    a: Matrix,
    products: u64,
}

impl ExactBackend {
    /// Wraps a measurement matrix.
    pub fn new(a: Matrix) -> Self {
        ExactBackend { a, products: 0 }
    }
}

impl MatVecBackend for ExactBackend {
    fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.products += 1;
        self.a.matvec(x)
    }

    fn adjoint(&mut self, z: &[f64]) -> Vec<f64> {
        self.products += 1;
        self.a.matvec_t(z)
    }

    fn products(&self) -> u64 {
        self.products
    }
}

/// Memristive-crossbar backend: the matrix is programmed once into a
/// differential PCM pair; both products run on the same array.
#[derive(Debug)]
pub struct CrossbarBackend {
    xbar: DifferentialCrossbar,
    rng: StdRng,
    products: u64,
    programming_cost: OperationCost,
}

impl CrossbarBackend {
    /// Programs `a` into a differential crossbar with the given analog
    /// configuration.
    pub fn new(a: &Matrix, params: AnalogParams, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let mut xbar = DifferentialCrossbar::new(a.rows(), a.cols(), params);
        let programming_cost = xbar.program_matrix(a, &mut rng);
        CrossbarBackend {
            xbar,
            rng,
            products: 0,
            programming_cost,
        }
    }

    /// The one-time programming cost (the paper: "this initialization
    /// needs to be performed only once").
    pub fn programming_cost(&self) -> OperationCost {
        self.programming_cost
    }

    /// Accumulated crossbar statistics (energy, busy time, op counts).
    pub fn stats(&self) -> cim_crossbar::analog::CrossbarStats {
        self.xbar.stats()
    }
}

impl MatVecBackend for CrossbarBackend {
    fn forward(&mut self, x: &[f64]) -> Vec<f64> {
        self.products += 1;
        self.xbar.matvec(x, &mut self.rng)
    }

    fn adjoint(&mut self, z: &[f64]) -> Vec<f64> {
        self.products += 1;
        self.xbar.matvec_t(z, &mut self.rng)
    }

    fn products(&self) -> u64 {
        self.products
    }
}

/// AMP solver configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpSolver {
    /// Maximum iterations.
    pub max_iterations: usize,
    /// Threshold multiplier α in `λₜ = α·‖zₜ‖/√M`.
    pub threshold_factor: f64,
    /// Stop when the relative change of the estimate falls below this.
    pub tolerance: f64,
    /// Include the Onsager correction (disable only for the IST
    /// ablation).
    pub onsager: bool,
}

impl Default for AmpSolver {
    fn default() -> Self {
        AmpSolver {
            max_iterations: 50,
            threshold_factor: 1.4,
            tolerance: 1e-8,
            onsager: true,
        }
    }
}

/// Outcome of an AMP run.
#[derive(Debug, Clone, PartialEq)]
pub struct AmpResult {
    /// The recovered signal estimate.
    pub estimate: Vec<f64>,
    /// Iterations executed.
    pub iterations: usize,
    /// Residual norm ‖z‖₂ after each iteration.
    pub residual_history: Vec<f64>,
    /// Matrix-vector products consumed.
    pub products: u64,
}

impl AmpSolver {
    /// Runs AMP on measurements `y` for a signal of dimension `n`.
    ///
    /// # Panics
    ///
    /// Panics if `y` is empty or `n == 0`.
    pub fn solve<B: MatVecBackend + ?Sized>(
        &self,
        backend: &mut B,
        y: &[f64],
        n: usize,
    ) -> AmpResult {
        assert!(!y.is_empty(), "no measurements");
        assert!(n > 0, "zero signal dimension");
        let m = y.len();
        let products_before = backend.products();

        let mut x = vec![0.0; n];
        let mut z = y.to_vec();
        let mut history = Vec::with_capacity(self.max_iterations);
        let mut iterations = 0;

        for _ in 0..self.max_iterations {
            iterations += 1;
            // Pseudo-data r = x + A*·z.
            let atz = backend.adjoint(&z);
            let r: Vec<f64> = x.iter().zip(&atz).map(|(xi, ai)| xi + ai).collect();

            // Threshold tied to the residual energy.
            let lambda = self.threshold_factor * norm2(&z) / (m as f64).sqrt();
            let x_new: Vec<f64> = r.iter().map(|&ri| soft_threshold(ri, lambda)).collect();

            // Residual with Onsager correction.
            let ax = backend.forward(&x_new);
            let nnz = x_new.iter().filter(|v| **v != 0.0).count() as f64;
            let onsager_gain = if self.onsager { nnz / m as f64 } else { 0.0 };
            let z_new: Vec<f64> = y
                .iter()
                .zip(&ax)
                .zip(&z)
                .map(|((yi, axi), zi)| yi - axi + onsager_gain * zi)
                .collect();

            let delta = diff_norm(&x_new, &x);
            let x_scale = norm2(&x_new).max(1e-12);
            x = x_new;
            z = z_new;
            history.push(norm2(&z));
            if delta / x_scale < self.tolerance {
                break;
            }
        }

        AmpResult {
            estimate: x,
            iterations,
            residual_history: history,
            products: backend.products() - products_before,
        }
    }
}

fn diff_norm(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::CsProblem;
    use cim_simkit::stats::nmse_db;

    #[test]
    fn soft_threshold_properties() {
        assert_eq!(soft_threshold(3.0, 1.0), 2.0);
        assert_eq!(soft_threshold(-3.0, 1.0), -2.0);
        assert_eq!(soft_threshold(0.5, 1.0), 0.0);
        assert_eq!(soft_threshold(-0.5, 1.0), 0.0);
        assert_eq!(soft_threshold_derivative(3.0, 1.0), 1.0);
        assert_eq!(soft_threshold_derivative(0.5, 1.0), 0.0);
    }

    #[test]
    fn exact_recovery_noiseless() {
        let p = CsProblem::generate(250, 500, 25, 0.0, 11);
        let mut backend = ExactBackend::new(p.matrix.clone());
        let r = AmpSolver::default().solve(&mut backend, &p.measurements, p.n());
        let nmse = nmse_db(&p.signal, &r.estimate);
        assert!(nmse < -40.0, "NMSE {nmse} dB after {} iters", r.iterations);
    }

    #[test]
    fn recovery_identifies_support() {
        let p = CsProblem::generate(128, 256, 12, 0.0, 12);
        let mut backend = ExactBackend::new(p.matrix.clone());
        let r = AmpSolver::default().solve(&mut backend, &p.measurements, p.n());
        for (i, (&truth, &est)) in p.signal.iter().zip(&r.estimate).enumerate() {
            if truth.abs() > 0.3 {
                assert!(est.abs() > 0.05, "missed support at {i}: {truth} vs {est}");
            }
        }
    }

    #[test]
    fn noisy_recovery_degrades_gracefully() {
        let clean = CsProblem::generate(200, 400, 20, 0.0, 13);
        let noisy = CsProblem::generate(200, 400, 20, 0.05, 13);
        let solver = AmpSolver::default();
        let r_clean = solver.solve(
            &mut ExactBackend::new(clean.matrix.clone()),
            &clean.measurements,
            clean.n(),
        );
        let r_noisy = solver.solve(
            &mut ExactBackend::new(noisy.matrix.clone()),
            &noisy.measurements,
            noisy.n(),
        );
        let e_clean = nmse_db(&clean.signal, &r_clean.estimate);
        let e_noisy = nmse_db(&noisy.signal, &r_noisy.estimate);
        assert!(e_clean < e_noisy, "clean {e_clean} vs noisy {e_noisy}");
        assert!(e_noisy < -10.0, "noisy recovery still useful: {e_noisy}");
    }

    #[test]
    fn residuals_decrease() {
        let p = CsProblem::generate(150, 300, 15, 0.0, 14);
        let mut backend = ExactBackend::new(p.matrix.clone());
        let r = AmpSolver::default().solve(&mut backend, &p.measurements, p.n());
        let first = r.residual_history[0];
        let last = *r.residual_history.last().unwrap();
        assert!(last < first / 10.0, "first {first}, last {last}");
    }

    #[test]
    fn onsager_term_accelerates_convergence() {
        let p = CsProblem::generate(200, 400, 30, 0.0, 15);
        let amp = AmpSolver::default();
        let ist = AmpSolver {
            onsager: false,
            ..AmpSolver::default()
        };
        let r_amp = amp.solve(
            &mut ExactBackend::new(p.matrix.clone()),
            &p.measurements,
            p.n(),
        );
        let r_ist = ist.solve(
            &mut ExactBackend::new(p.matrix.clone()),
            &p.measurements,
            p.n(),
        );
        let e_amp = nmse_db(&p.signal, &r_amp.estimate);
        let e_ist = nmse_db(&p.signal, &r_ist.estimate);
        assert!(
            e_amp < e_ist - 5.0,
            "AMP {e_amp} dB must beat IST {e_ist} dB at equal iterations"
        );
    }

    #[test]
    fn products_are_two_per_iteration() {
        let p = CsProblem::generate(64, 128, 8, 0.0, 16);
        let mut backend = ExactBackend::new(p.matrix.clone());
        let r = AmpSolver::default().solve(&mut backend, &p.measurements, p.n());
        assert_eq!(r.products, 2 * r.iterations as u64);
    }

    #[test]
    fn crossbar_backend_recovers_with_analog_noise() {
        let p = CsProblem::generate(64, 128, 6, 0.0, 17);
        let params = AnalogParams {
            adc_bits: 10,
            dac_bits: 10,
            ..AnalogParams::default()
        };
        let mut backend = CrossbarBackend::new(&p.matrix, params, 99);
        let solver = AmpSolver {
            max_iterations: 40,
            ..AmpSolver::default()
        };
        let r = solver.solve(&mut backend, &p.measurements, p.n());
        let nmse = nmse_db(&p.signal, &r.estimate);
        assert!(nmse < -10.0, "crossbar NMSE {nmse} dB");
        // And it must be worse than exact float, showing the analog cost.
        let r_exact = AmpSolver::default().solve(
            &mut ExactBackend::new(p.matrix.clone()),
            &p.measurements,
            p.n(),
        );
        assert!(nmse_db(&p.signal, &r_exact.estimate) < nmse);
        assert!(backend.stats().mvms > 0);
        assert!(backend.programming_cost().energy.0 > 0.0);
    }

    #[test]
    fn crossbar_ideal_params_match_exact_closely() {
        let p = CsProblem::generate(48, 96, 5, 0.0, 18);
        let mut backend = CrossbarBackend::new(&p.matrix, AnalogParams::ideal(), 100);
        let r = AmpSolver::default().solve(&mut backend, &p.measurements, p.n());
        let nmse = nmse_db(&p.signal, &r.estimate);
        assert!(nmse < -25.0, "ideal crossbar NMSE {nmse} dB");
    }
}
