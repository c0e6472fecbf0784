//! Struct-of-arrays storage for an array of multi-level PCM devices.
//!
//! [`PcmBank`] is the analog counterpart of [`crate::bank::ReramBank`]: it
//! holds the state of a `rows × cols` array of [`crate::pcm::PcmDevice`]
//! cells as flat row-major vectors — programmed conductance and the
//! per-device lifetime pulse ledger — in fabrication order, so that
//! array-level simulators can run vectorized matrix-vector products over
//! contiguous conductance slices instead of chasing per-device structs.
//!
//! A program writes a *window*: a block of devices anchored at row 0 and
//! at a given first column, as large as the matrix it encodes. The bank
//! stores conductances only for its *extent*, the origin-anchored
//! rectangle covering the union of the windows programmed since the
//! last [`PcmBank::erase`]; every device outside the extent is at
//! `g_min` by construction. Storage, programming and
//! erasing therefore scale with what was programmed, not with the array.
//! The wear ledger covers every device for its whole lifetime.
//!
//! Three contracts tie the bank to the behavioural device model:
//!
//! * **State identity.** A fresh bank holds every device in the
//!   fully-RESET state (`g_min`), exactly like `PcmDevice::new`; PCM
//!   fabrication in this model is deterministic, so no RNG is consumed.
//! * **Programming equivalence.** [`PcmBank::program_and_verify`] keeps
//!   the per-device law of `PcmDevice::program_and_verify` exactly — with
//!   `sigma_prog == 0` the stored state is bit-identical to the
//!   behavioural model — but samples the noisy case in *closed form*
//!   rather than pulse by pulse. The sequential loop draws one normal per
//!   pulse until the clamped write lands within tolerance; equivalently,
//!   the pulse count is geometric in the acceptance probability of the
//!   clamped-normal write, and the final conductance is that write
//!   conditioned on acceptance (or on rejection when the pulse budget
//!   runs out), independent of the count. The bank samples exactly that
//!   joint distribution — a geometric draw by inversion plus one
//!   inverse-CDF draw of the conditioned normal — spending two uniforms
//!   per device instead of one normal per pulse. Pulse counts, wear
//!   ledger, clamping and convergence marginals are identical in
//!   distribution to the per-device loop; the raw RNG stream is consumed
//!   differently, so noisy trajectories are not draw-for-draw identical.
//! * **Erase equivalence.** [`PcmBank::erase`] is `PcmDevice::reset` on
//!   every device: one RESET pulse for each device not already at
//!   `g_min`, no RNG drawn.

use crate::pcm::PcmParams;
use cim_simkit::rng::{normal_cdf, normal_inverse_cdf};
use cim_simkit::units::{Joules, Seconds};
use rand::Rng;

/// Outcome of one batched pass over a bank: a program-and-verify of a
/// window, or an erase of the extent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BankProgramReport {
    /// Total pulses issued across all devices in this pass.
    pub pulses: u64,
    /// Largest per-device pulse count in this pass — the number of
    /// verify rounds executed, and the latency-critical device.
    pub max_device_pulses: u32,
    /// Whether every device met the tolerance within the pulse budget.
    pub converged: bool,
    /// Largest final relative error `|G − G_target| / G_range` over the
    /// window after the last verify.
    pub max_rel_error: f64,
    /// Total energy spent (`pulse_energy × pulses`).
    pub energy: Joules,
    /// Latency: rows of a bank pulse in lock-step rounds, so the pass
    /// takes as long as its slowest device
    /// (`pulse_latency × max_device_pulses`).
    pub latency: Seconds,
}

/// A `rows × cols` PCM array in struct-of-arrays form.
#[derive(Debug, Clone, PartialEq)]
pub struct PcmBank {
    params: PcmParams,
    rows: usize,
    cols: usize,
    /// `(rows, cols)` of the origin-anchored rectangle covering the
    /// windows programmed since the last erase.
    extent: (usize, usize),
    /// Programmed conductance in siemens of the extent's devices,
    /// row-major with row stride `extent.1`.
    g_programmed: Vec<f64>,
    /// Lifetime program pulses per device (wear ledger), row-major over
    /// the whole bank.
    pulses: Vec<u64>,
}

impl PcmBank {
    /// Creates a bank of `rows × cols` devices, all in the fully-RESET
    /// (minimum conductance) state with zero lifetime pulses.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: PcmParams) -> Self {
        assert!(rows > 0 && cols > 0, "bank dimensions must be nonzero");
        PcmBank {
            params,
            rows,
            cols,
            extent: (0, 0),
            g_programmed: Vec::new(),
            pulses: vec![0; rows * cols],
        }
    }

    /// Bank dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The shared device parameters.
    pub fn params(&self) -> &PcmParams {
        &self.params
    }

    /// `(rows, cols)` of the extent: the origin-anchored rectangle
    /// covering the windows programmed since the last erase. Every
    /// device outside it is at `g_min`.
    pub fn extent(&self) -> (usize, usize) {
        self.extent
    }

    /// Programmed (pre-drift, noise-free) conductances of every device in
    /// siemens, row-major fabrication order. Builds a whole-bank copy;
    /// the read path uses [`Self::extent_row`].
    pub fn conductances(&self) -> Vec<f64> {
        (0..self.rows)
            .flat_map(|row| (0..self.cols).map(move |col| self.conductance(row, col)))
            .collect()
    }

    /// The stored conductances of one row of the extent (its first
    /// `extent().1` devices) as a contiguous slice — what the vectorized
    /// MVM fast path dots against.
    ///
    /// # Panics
    ///
    /// Panics if `row` lies outside the extent.
    pub fn extent_row(&self, row: usize) -> &[f64] {
        let (rows, cols) = self.extent;
        assert!(row < rows, "row {row} outside the programmed extent");
        &self.g_programmed[row * cols..(row + 1) * cols]
    }

    /// Programmed conductance of device `(row, col)` in siemens.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn conductance(&self, row: usize, col: usize) -> f64 {
        assert!(row < self.rows && col < self.cols, "device out of range");
        let (rows, cols) = self.extent;
        if row < rows && col < cols {
            self.g_programmed[row * cols + col]
        } else {
            self.params.g_min.0
        }
    }

    /// Lifetime program pulses of device `(row, col)` — the wear ledger.
    ///
    /// # Panics
    ///
    /// Panics if the coordinates are out of range.
    pub fn pulse_count(&self, row: usize, col: usize) -> u64 {
        assert!(row < self.rows && col < self.cols, "device out of range");
        self.pulses[row * self.cols + col]
    }

    /// Total lifetime program pulses across the bank.
    pub fn total_pulses(&self) -> u64 {
        self.pulses.iter().sum()
    }

    /// The multiplicative drift factor `(t/t₀)^(−ν)` every conductance in
    /// the bank sees `elapsed` after programming (device parameters are
    /// shared, so drift is a single scalar for the whole bank). Returns
    /// exactly `1.0` with no drift or before the reference time, matching
    /// `PcmDevice::drifted_conductance`.
    pub fn drift_factor(&self, elapsed: Seconds) -> f64 {
        if self.params.drift_nu == 0.0 || elapsed.0 <= 0.0 {
            return 1.0;
        }
        let ratio = (elapsed.0 / self.params.drift_t0.0).max(1.0);
        ratio.powf(-self.params.drift_nu)
    }

    /// Widens the extent to cover `(rows, cols)`, keeping the stored
    /// conductances and adding the new devices at `g_min`.
    fn cover(&mut self, (rows, cols): (usize, usize)) {
        let (er, ec) = self.extent;
        let (nr, nc) = (er.max(rows), ec.max(cols));
        let g_min = self.params.g_min.0;
        if nc != ec && !self.g_programmed.is_empty() {
            // Lay the stored rows out again at the wider stride.
            let old = std::mem::take(&mut self.g_programmed);
            self.g_programmed.reserve(nr * nc);
            for row in old.chunks(ec) {
                self.g_programmed.extend_from_slice(row);
                self.g_programmed
                    .resize(self.g_programmed.len() + nc - ec, g_min);
            }
        }
        self.g_programmed.resize(nr * nc, g_min);
        self.extent = (nr, nc);
    }

    /// Batched program-and-verify of the `window = (rows, cols)` devices
    /// anchored at row 0 and column `col`: drives each toward its entry
    /// of `targets`
    /// (siemens, row-major over the window) until the verified
    /// conductance is within `rel_tolerance` of the target relative to
    /// the conductance window, or the per-device pulse budget is
    /// exhausted. Devices outside the window keep their state. The noisy
    /// case samples each device's pulse count and final state from the
    /// exact joint law of the sequential pulse loop (see the module
    /// docs), so per-device pulse counts, the wear ledger and stored
    /// conductances match the per-device loop in distribution while
    /// spending two uniform draws per device.
    ///
    /// # Panics
    ///
    /// Panics if the window leaves the bank, `targets.len()` is not
    /// `rows × cols`, `rel_tolerance <= 0`, or a target that requires
    /// pulsing lies outside `[g_min, g_max]`.
    pub fn program_and_verify<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        window: (usize, usize),
        targets: &[f64],
        rel_tolerance: f64,
        rng: &mut R,
    ) -> BankProgramReport {
        let (w_rows, w_cols) = window;
        assert!(
            w_rows <= self.rows && col + w_cols <= self.cols,
            "window {w_rows}x{w_cols} at column {col} exceeds the {}x{} bank",
            self.rows,
            self.cols
        );
        assert_eq!(targets.len(), w_rows * w_cols, "target count mismatch");
        assert!(rel_tolerance > 0.0, "tolerance must be positive");
        self.cover((w_rows, col + w_cols));
        let stride = self.extent.1;
        let bank_cols = self.cols;
        // Window index → (stored conductance, wear ledger) indices.
        let slot = |i: usize| {
            let (r, c) = (i / w_cols, col + i % w_cols);
            (r * stride + c, r * bank_cols + c)
        };
        let range = self.params.g_range().0;
        let g_min = self.params.g_min.0;
        let g_max = self.params.g_max.0;

        // Convergence mask: devices whose verified error still exceeds the
        // tolerance. Devices already on target never pulse (and, as in the
        // per-device model, never hit the window assertion).
        let mut active: Vec<u32> = Vec::new();
        for r in 0..w_rows {
            let first = r * stride + col;
            let stored = &self.g_programmed[first..first + w_cols];
            let wanted = &targets[r * w_cols..(r + 1) * w_cols];
            for (c, (&g, &t)) in stored.iter().zip(wanted).enumerate() {
                if (g - t).abs() / range > rel_tolerance {
                    assert!(
                        t >= g_min && t <= g_max,
                        "target conductance {t} outside window [{g_min}, {g_max}]"
                    );
                    active.push((r * w_cols + c) as u32);
                }
            }
        }

        let sigma = self.params.sigma_prog * range;
        let mut total_pulses = 0u64;
        let mut rounds = 0u32;
        let mut all_converged = true;
        if sigma == 0.0 {
            // Noise-free pulses land exactly on target: one pulse converges
            // every out-of-tolerance device, no RNG is consumed.
            if !active.is_empty() {
                rounds = 1;
                total_pulses = active.len() as u64;
                for &i in &active {
                    let (s, l) = slot(i as usize);
                    self.g_programmed[s] = targets[i as usize].clamp(g_min, g_max);
                    self.pulses[l] += 1;
                }
            }
        } else {
            // Closed-form sampling of the sequential pulse loop. A pulse
            // writes `clamp(t + σ·z, g_min, g_max)` and verifies
            // `|g − t| ≤ tol·range`; with σ = sigma_prog·range the
            // accepted z-interval is `[−τ, τ]`, τ = tol/sigma_prog —
            // widened to a whole tail when the window clamp itself lands
            // within tolerance (then every z beyond the clamp accepts).
            // The pulse count is geometric in that acceptance mass and
            // the final state is the clamped write conditioned on
            // acceptance (or rejection when the budget runs out),
            // independent of the count.
            let tau = rel_tolerance / self.params.sigma_prog;
            let cap = self.params.max_program_pulses;
            // Devices whose window edges sit beyond ±τ·σ of the target
            // (the common case) share one acceptance interval.
            let phi_lo = normal_cdf(-tau);
            let phi_hi = normal_cdf(tau);
            let interior_inv_ln_q = (1.0 - (phi_hi - phi_lo)).ln().recip();
            for &i in &active {
                let t = targets[i as usize];
                let lo = (g_min - t) / sigma; // z driven to the g_min clamp
                let hi = (g_max - t) / sigma; // z driven to the g_max clamp
                let interior = lo <= -tau && hi >= tau;
                let (pa, pb) = if interior {
                    (phi_lo, phi_hi)
                } else {
                    (
                        if lo <= -tau { phi_lo } else { 0.0 },
                        if hi >= tau { phi_hi } else { 1.0 },
                    )
                };
                let p = pb - pa;
                // Pulse count by geometric inversion: P(K > n) = (1−p)ⁿ.
                let u: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
                let draws = if p >= 1.0 {
                    1.0
                } else {
                    let inv_ln_q = if interior {
                        interior_inv_ln_q
                    } else {
                        (1.0 - p).ln().recip()
                    };
                    (u.ln() * inv_ln_q).ceil().max(1.0)
                };
                let (k, converged) = if draws <= cap as f64 {
                    (draws as u32, true)
                } else {
                    (cap, false)
                };
                // Final state: the clamped write conditioned on the pass
                // outcome. ±∞ quantiles at the interval ends collapse
                // onto the window clamp, which is exactly the point mass
                // the clamped write puts there.
                let v: f64 = rng.gen::<f64>();
                let z = if converged {
                    normal_inverse_cdf(pa + v * p)
                } else {
                    all_converged = false;
                    let w = v * (1.0 - p);
                    normal_inverse_cdf(if w < pa { w } else { w + p })
                };
                let (s, l) = slot(i as usize);
                self.g_programmed[s] = (t + sigma * z).clamp(g_min, g_max);
                self.pulses[l] += k as u64;
                total_pulses += k as u64;
                rounds = rounds.max(k);
            }
        }

        let mut max_rel_error = 0.0f64;
        for r in 0..w_rows {
            let first = r * stride + col;
            let stored = &self.g_programmed[first..first + w_cols];
            let wanted = &targets[r * w_cols..(r + 1) * w_cols];
            for (&g, &t) in stored.iter().zip(wanted) {
                max_rel_error = max_rel_error.max((g - t).abs() / range);
            }
        }
        BankProgramReport {
            pulses: total_pulses,
            max_device_pulses: rounds,
            converged: all_converged,
            max_rel_error,
            energy: self.params.program_pulse_energy * total_pulses as f64,
            latency: self.params.program_pulse_latency * rounds as f64,
        }
    }

    /// Erases the extent: one RESET pulse returns each device not already
    /// at `g_min` to `g_min` — the law of `PcmDevice::reset`, so no RNG is
    /// drawn — and is booked in the wear ledger. The pulses fire in one
    /// lock-step round. Afterwards the extent is empty and every device
    /// of the bank reads `g_min`.
    pub fn erase(&mut self) -> BankProgramReport {
        let (rows, cols) = self.extent;
        let g_min = self.params.g_min.0;
        let mut pulses = 0u64;
        for r in 0..rows {
            let stored = &self.g_programmed[r * cols..(r + 1) * cols];
            let ledger = &mut self.pulses[r * self.cols..r * self.cols + cols];
            for (&g, wear) in stored.iter().zip(ledger) {
                if g != g_min {
                    *wear += 1;
                    pulses += 1;
                }
            }
        }
        self.g_programmed.clear();
        self.extent = (0, 0);
        let rounds = u32::from(pulses > 0);
        BankProgramReport {
            pulses,
            max_device_pulses: rounds,
            converged: true,
            max_rel_error: 0.0,
            energy: self.params.program_pulse_energy * pulses as f64,
            latency: self.params.program_pulse_latency * rounds as f64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pcm::PcmDevice;
    use cim_simkit::rng::seeded;
    use cim_simkit::units::Siemens;

    fn targets(params: &PcmParams, n: usize) -> Vec<f64> {
        let range = params.g_range().0;
        (0..n)
            .map(|i| params.g_min.0 + range * (i as f64 + 0.5) / n as f64)
            .collect()
    }

    #[test]
    fn fresh_bank_is_reset() {
        let params = PcmParams::default();
        let bank = PcmBank::new(3, 5, params);
        assert_eq!(bank.shape(), (3, 5));
        assert!(bank.conductances().iter().all(|&g| g == params.g_min.0));
        assert_eq!(bank.total_pulses(), 0);
    }

    #[test]
    fn noise_free_programming_is_bit_identical_to_device_model() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(4, 4, params);
        let t = targets(&params, 16);
        let mut rng = seeded(1);
        let report = bank.program_and_verify(0, (4, 4), &t, 1e-6, &mut rng);
        assert!(report.converged);
        assert_eq!(report.pulses, 16);
        assert_eq!(report.max_device_pulses, 1);
        let mut dev_rng = seeded(2);
        for (i, &target) in t.iter().enumerate() {
            let mut d = PcmDevice::new(params);
            let rep = d.program_and_verify(Siemens(target), 1e-6, &mut dev_rng);
            assert_eq!(rep.pulses, 1);
            assert_eq!(d.programmed_conductance().0, bank.conductances()[i]);
            assert_eq!(bank.pulse_count(i / 4, i % 4), 1);
        }
    }

    #[test]
    fn on_target_devices_take_zero_pulses() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(2, 2, params);
        // Every fresh device already sits at g_min == its target.
        let t = vec![params.g_min.0; 4];
        let mut rng = seeded(3);
        let report = bank.program_and_verify(0, (2, 2), &t, 1e-6, &mut rng);
        assert_eq!(report.pulses, 0);
        assert_eq!(report.max_device_pulses, 0);
        assert!(report.converged);
        assert_eq!(bank.total_pulses(), 0);
    }

    #[test]
    fn noisy_programming_converges_and_accounts() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(8, 8, params);
        let t = targets(&params, 64);
        let mut rng = seeded(4);
        let report = bank.program_and_verify(0, (8, 8), &t, 0.01, &mut rng);
        assert!(report.converged, "err {}", report.max_rel_error);
        assert!(report.max_rel_error <= 0.01);
        assert!(report.pulses >= 64, "pulses {}", report.pulses);
        assert_eq!(bank.total_pulses(), report.pulses);
        let expected_energy = params.program_pulse_energy.0 * report.pulses as f64;
        assert!((report.energy.0 - expected_energy).abs() <= 1e-18);
        let expected_latency = params.program_pulse_latency.0 * report.max_device_pulses as f64;
        assert!((report.latency.0 - expected_latency).abs() <= 1e-15);
        // The slowest device bounds every other device's pulse count.
        let max = (0..8)
            .flat_map(|r| (0..8).map(move |c| (r, c)))
            .map(|(r, c)| bank.pulse_count(r, c))
            .max();
        assert_eq!(max, Some(report.max_device_pulses as u64));
    }

    #[test]
    fn pulse_statistics_match_device_model() {
        // Mean pulses per device over an ensemble agrees with the
        // per-device loop (the samplers differ draw-for-draw but share
        // the marginal distribution).
        let params = PcmParams::default();
        let t = targets(&params, 32);
        let mut bank_pulses = 0u64;
        let mut dev_pulses = 0u64;
        for seed in 0..40 {
            let mut bank = PcmBank::new(4, 8, params);
            let mut rng = seeded(seed);
            bank_pulses += bank
                .program_and_verify(0, (4, 8), &t, 0.01, &mut rng)
                .pulses;
            let mut rng = seeded(1000 + seed);
            for &target in &t {
                let mut d = PcmDevice::new(params);
                dev_pulses += d.program_and_verify(Siemens(target), 0.01, &mut rng).pulses as u64;
            }
        }
        let ratio = bank_pulses as f64 / dev_pulses as f64;
        assert!((ratio - 1.0).abs() < 0.05, "pulse ratio {ratio}");
    }

    #[test]
    fn drift_factor_matches_device_model() {
        let params = PcmParams::default();
        let bank = PcmBank::new(2, 2, params);
        let d = PcmDevice::new(params);
        for elapsed in [0.0, 0.5, 1.0, 10.0, 1e6] {
            let factor = bank.drift_factor(Seconds(elapsed));
            let expected = d.drifted_conductance(Seconds(elapsed)).0 / params.g_min.0;
            assert!(
                (factor - expected).abs() <= 1e-15,
                "elapsed {elapsed}: {factor} vs {expected}"
            );
        }
        assert_eq!(bank.drift_factor(Seconds(0.5)), 1.0);
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn out_of_window_target_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(1, 2, params);
        let mut rng = seeded(5);
        bank.program_and_verify(0, (1, 2), &[params.g_min.0, 100e-6], 0.01, &mut rng);
    }

    #[test]
    #[should_panic(expected = "target count mismatch")]
    fn wrong_target_count_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(2, 2, params);
        let mut rng = seeded(6);
        bank.program_and_verify(0, (2, 2), &[params.g_min.0; 3], 0.01, &mut rng);
    }

    #[test]
    fn windows_grow_the_extent_and_erase_resets_it() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(4, 5, params);
        let mut rng = seeded(7);
        let t = targets(&params, 6);
        bank.program_and_verify(0, (2, 3), &t, 1e-6, &mut rng);
        assert_eq!(bank.extent(), (2, 3));
        assert_eq!(bank.conductance(1, 2), t[5]);
        // A narrower, taller window widens the extent to the union and
        // keeps the devices it does not cover.
        bank.program_and_verify(0, (3, 1), &t[..3], 1e-6, &mut rng);
        assert_eq!(bank.extent(), (3, 3));
        assert_eq!(bank.conductance(2, 0), t[2]);
        assert_eq!(bank.conductance(1, 2), t[5]);
        assert_eq!(bank.extent_row(2), &[t[2], params.g_min.0, params.g_min.0]);
        let all = bank.conductances();
        assert_eq!(all.len(), 20);
        let off_g_min = all.iter().filter(|&&g| g != params.g_min.0).count();
        assert_eq!(off_g_min, 7);
        // Erase: one RESET pulse per device off g_min, no RNG, and the
        // same ledger as resetting every device of the model.
        let before = bank.total_pulses();
        let report = bank.erase();
        assert_eq!(report.pulses, 7);
        assert_eq!(report.max_device_pulses, 1);
        assert_eq!(report.latency, params.program_pulse_latency);
        assert_eq!(bank.total_pulses(), before + 7);
        assert_eq!(bank.extent(), (0, 0));
        assert!(bank.conductances().iter().all(|&g| g == params.g_min.0));
        assert_eq!(bank.pulse_count(1, 2), 2, "programmed once, reset once");
        assert_eq!(bank.pulse_count(3, 4), 0, "never touched");
        // An erased bank erases for free.
        assert_eq!(bank.erase().pulses, 0);
        assert_eq!(bank.erase().latency, Seconds(0.0));
    }

    #[test]
    fn an_offset_window_writes_its_own_columns() {
        let params = PcmParams::ideal();
        let mut bank = PcmBank::new(3, 8, params);
        let mut rng = seeded(9);
        let t = targets(&params, 6);
        bank.program_and_verify(0, (3, 2), &t, 1e-6, &mut rng);
        // A 2x3 window at column 4 sits beside the first: the extent
        // covers both, the gap between them stays at g_min, and the
        // ledger books the offset devices.
        bank.program_and_verify(4, (2, 3), &t, 1e-6, &mut rng);
        assert_eq!(bank.extent(), (3, 7));
        assert_eq!(bank.conductance(1, 1), t[3]);
        assert_eq!(&bank.extent_row(1)[4..7], &t[3..6]);
        assert_eq!(bank.conductance(0, 2), params.g_min.0);
        assert_eq!(bank.conductance(2, 5), params.g_min.0);
        assert_eq!(bank.pulse_count(1, 6), 1);
        assert_eq!(bank.pulse_count(1, 3), 0);
        assert_eq!(bank.erase().pulses, 12);
        assert!(bank.conductances().iter().all(|&g| g == params.g_min.0));
    }

    #[test]
    #[should_panic(expected = "exceeds the 2x2 bank")]
    fn oversized_window_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(2, 2, params);
        let mut rng = seeded(8);
        bank.program_and_verify(0, (3, 1), &[params.g_min.0; 3], 0.01, &mut rng);
    }

    #[test]
    #[should_panic(expected = "at column 1 exceeds the 2x2 bank")]
    fn a_window_past_the_last_column_panics() {
        let params = PcmParams::default();
        let mut bank = PcmBank::new(2, 2, params);
        let mut rng = seeded(10);
        bank.program_and_verify(1, (1, 2), &[params.g_min.0; 2], 0.01, &mut rng);
    }
}
