//! Multi-level phase-change memory (PCM) device model.
//!
//! A PCM device stores an analog conductance `G ∈ [g_min, g_max]` set by
//! partial crystallization of the chalcogenide. The model follows the
//! behavioural abstractions used in the in-memory-computing literature
//! (Le Gallo et al., IEEE TED 2018; Sebastian et al., JAP 2018):
//!
//! * **Programming noise** — each program pulse lands near the target with
//!   a Gaussian error proportional to the conductance range; accuracy is
//!   recovered by *iterative program-and-verify*.
//! * **Read noise** — every read sees instantaneous (1/f) fluctuation
//!   proportional to the current conductance.
//! * **Drift** — the amorphous phase relaxes structurally, so conductance
//!   decays as `G(t) = G_prog · (t/t₀)^(−ν)` after programming.
//!
//! Per-event energies let array simulators account for the 1 µA × 0.2 V
//! READ budget quoted in §III-B-3 of the paper.

use cim_simkit::rng::normal;
use cim_simkit::units::{Amperes, Joules, Seconds, Siemens, Volts};
use rand::Rng;

/// Technology parameters of a multi-level PCM device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PcmParams {
    /// Minimum programmable conductance (fully amorphous / RESET).
    pub g_min: Siemens,
    /// Maximum programmable conductance (fully crystalline / SET).
    pub g_max: Siemens,
    /// Programming-noise sigma as a fraction of the conductance range.
    pub sigma_prog: f64,
    /// Read-noise sigma as a fraction of the instantaneous conductance.
    pub sigma_read: f64,
    /// Drift exponent ν in `G(t) = G_prog (t/t₀)^(−ν)`.
    pub drift_nu: f64,
    /// Drift reference time t₀.
    pub drift_t0: Seconds,
    /// Maximum number of program-and-verify iterations.
    pub max_program_pulses: u32,
    /// Read voltage amplitude.
    pub read_voltage: Volts,
    /// Duration of one read.
    pub read_latency: Seconds,
    /// Energy of one program pulse (RESET-class pulse dominates).
    pub program_pulse_energy: Joules,
    /// Duration of one program pulse including verify read.
    pub program_pulse_latency: Seconds,
}

impl Default for PcmParams {
    /// Values representative of doped-GST mushroom cells in 90 nm
    /// (prototype chip of Le Gallo et al.): 0.1–20 µS window, ~3 %
    /// programming sigma, ~1 % read noise, ν ≈ 0.05, ~100 ns reads at
    /// 0.2 V, ~30 pJ program pulses.
    fn default() -> Self {
        PcmParams {
            g_min: Siemens(0.1e-6),
            g_max: Siemens(20e-6),
            sigma_prog: 0.03,
            sigma_read: 0.01,
            drift_nu: 0.05,
            drift_t0: Seconds(1.0),
            max_program_pulses: 20,
            read_voltage: Volts(0.2),
            read_latency: Seconds::from_nanos(100.0),
            program_pulse_energy: Joules::from_picos(30.0),
            program_pulse_latency: Seconds::from_nanos(500.0),
        }
    }
}

impl PcmParams {
    /// An idealized device with no noise and no drift — useful for tests
    /// isolating algorithmic behaviour from device physics.
    pub fn ideal() -> Self {
        PcmParams {
            sigma_prog: 0.0,
            sigma_read: 0.0,
            drift_nu: 0.0,
            ..PcmParams::default()
        }
    }

    /// Width of the programmable conductance window.
    pub fn g_range(&self) -> Siemens {
        Siemens(self.g_max.0 - self.g_min.0)
    }

    /// The average read current the paper assumes (1 µA per device):
    /// mid-window conductance times the read voltage.
    pub fn mean_read_current(&self) -> Amperes {
        let g_mid = Siemens(0.5 * (self.g_min.0 + self.g_max.0));
        self.read_voltage * g_mid
    }
}

/// Outcome of an iterative program-and-verify sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramReport {
    /// Number of program pulses issued.
    pub pulses: u32,
    /// Final relative error |G − G_target| / G_range after the last verify.
    pub final_rel_error: f64,
    /// Whether the tolerance was met within the pulse budget.
    pub converged: bool,
    /// Total programming energy spent.
    pub energy: Joules,
    /// Total programming latency.
    pub latency: Seconds,
}

/// A multi-level PCM device instance.
#[derive(Debug, Clone, PartialEq)]
pub struct PcmDevice {
    params: PcmParams,
    /// Conductance established by the last programming event.
    g_programmed: Siemens,
    pulses_lifetime: u64,
}

impl PcmDevice {
    /// Creates a device in the fully-RESET (minimum conductance) state.
    pub fn new(params: PcmParams) -> Self {
        PcmDevice {
            g_programmed: params.g_min,
            params,
            pulses_lifetime: 0,
        }
    }

    /// The device parameters.
    pub fn params(&self) -> &PcmParams {
        &self.params
    }

    /// Conductance as left by the last program operation (pre-drift,
    /// noise-free view).
    pub fn programmed_conductance(&self) -> Siemens {
        self.g_programmed
    }

    /// Total program pulses over the device lifetime (endurance proxy).
    pub fn pulse_count(&self) -> u64 {
        self.pulses_lifetime
    }

    /// Issues a single program pulse aimed at `target`, landing with
    /// Gaussian programming noise. The result is clamped to the physical
    /// conductance window.
    ///
    /// # Panics
    ///
    /// Panics if `target` lies outside `[g_min, g_max]`.
    pub fn program_pulse<R: Rng + ?Sized>(&mut self, target: Siemens, rng: &mut R) {
        assert!(
            target.0 >= self.params.g_min.0 && target.0 <= self.params.g_max.0,
            "target conductance {} outside window [{}, {}]",
            target.0,
            self.params.g_min.0,
            self.params.g_max.0
        );
        let sigma = self.params.sigma_prog * self.params.g_range().0;
        let g = normal(rng, target.0, sigma);
        self.g_programmed = Siemens(g.clamp(self.params.g_min.0, self.params.g_max.0));
        self.pulses_lifetime += 1;
    }

    /// Erases the device: one RESET pulse melt-quenches it back to the
    /// fully amorphous `g_min` state. RESET lands on `g_min` exactly, so
    /// it draws no random numbers; a device already at `g_min` takes no
    /// pulse. Returns the pulses fired (0 or 1).
    pub fn reset(&mut self) -> u32 {
        if self.g_programmed == self.params.g_min {
            return 0;
        }
        self.g_programmed = self.params.g_min;
        self.pulses_lifetime += 1;
        1
    }

    /// Iteratively programs the device until the verified conductance is
    /// within `rel_tolerance` (relative to the conductance window) of the
    /// target, or the pulse budget is exhausted.
    ///
    /// # Panics
    ///
    /// Panics if `target` lies outside the window or `rel_tolerance <= 0`.
    pub fn program_and_verify<R: Rng + ?Sized>(
        &mut self,
        target: Siemens,
        rel_tolerance: f64,
        rng: &mut R,
    ) -> ProgramReport {
        assert!(rel_tolerance > 0.0, "tolerance must be positive");
        let range = self.params.g_range().0;
        let mut pulses = 0;
        let mut rel_err = (self.g_programmed.0 - target.0).abs() / range;
        while rel_err > rel_tolerance && pulses < self.params.max_program_pulses {
            self.program_pulse(target, rng);
            pulses += 1;
            rel_err = (self.g_programmed.0 - target.0).abs() / range;
        }
        ProgramReport {
            pulses,
            final_rel_error: rel_err,
            converged: rel_err <= rel_tolerance,
            energy: self.params.program_pulse_energy * pulses as f64,
            latency: self.params.program_pulse_latency * pulses as f64,
        }
    }

    /// The deterministic drifted conductance `elapsed` after programming
    /// (no read noise).
    pub fn drifted_conductance(&self, elapsed: Seconds) -> Siemens {
        if self.params.drift_nu == 0.0 || elapsed.0 <= 0.0 {
            return self.g_programmed;
        }
        // Drift only applies once t exceeds the reference time; before t₀
        // the conductance is the as-programmed value.
        let ratio = (elapsed.0 / self.params.drift_t0.0).max(1.0);
        Siemens(self.g_programmed.0 * ratio.powf(-self.params.drift_nu))
    }

    /// Samples a read of the conductance `elapsed` after programming,
    /// including drift and instantaneous read noise. Clamped to be
    /// non-negative.
    pub fn read<R: Rng + ?Sized>(&self, elapsed: Seconds, rng: &mut R) -> Siemens {
        let g = self.drifted_conductance(elapsed).0;
        let noisy = normal(rng, g, self.params.sigma_read * g);
        Siemens(noisy.max(0.0))
    }

    /// Current drawn during a read at the configured read voltage
    /// (deterministic part, used for power budgeting).
    pub fn read_current(&self, elapsed: Seconds) -> Amperes {
        self.params.read_voltage * self.drifted_conductance(elapsed)
    }

    /// Energy of one read event: `V² · G · t_read`.
    pub fn read_energy(&self, elapsed: Seconds) -> Joules {
        let i = self.read_current(elapsed);
        (i * self.params.read_voltage) * self.params.read_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;
    use cim_simkit::stats::Summary;

    #[test]
    fn fresh_device_is_reset() {
        let d = PcmDevice::new(PcmParams::default());
        assert_eq!(d.programmed_conductance(), PcmParams::default().g_min);
        assert_eq!(d.pulse_count(), 0);
    }

    #[test]
    fn reset_returns_to_g_min_with_one_pulse() {
        let mut rng = seeded(10);
        let params = PcmParams::default();
        let mut d = PcmDevice::new(params);
        assert_eq!(d.reset(), 0, "a fresh device is already RESET");
        d.program_pulse(Siemens(10e-6), &mut rng);
        assert_eq!(d.reset(), 1);
        assert_eq!(d.programmed_conductance(), params.g_min);
        assert_eq!(d.pulse_count(), 2);
        assert_eq!(d.reset(), 0);
    }

    #[test]
    fn ideal_single_pulse_hits_target() {
        let mut rng = seeded(1);
        let mut d = PcmDevice::new(PcmParams::ideal());
        let target = Siemens(5e-6);
        d.program_pulse(target, &mut rng);
        assert_eq!(d.programmed_conductance(), target);
    }

    #[test]
    fn program_and_verify_converges_with_noise() {
        let mut rng = seeded(2);
        let params = PcmParams::default();
        let range = params.g_range().0;
        for i in 2..50 {
            let mut d = PcmDevice::new(params);
            let target = Siemens(params.g_min.0 + range * (i as f64 + 0.5) / 50.0);
            let rep = d.program_and_verify(target, 0.01, &mut rng);
            assert!(rep.converged, "target {:?} did not converge", target);
            assert!(rep.final_rel_error <= 0.01);
            assert!(rep.pulses >= 1);
        }
    }

    #[test]
    fn tighter_tolerance_needs_more_pulses() {
        let params = PcmParams::default();
        let target = Siemens(10e-6);
        let mut pulses_loose = 0u32;
        let mut pulses_tight = 0u32;
        for seed in 0..40 {
            let mut rng = seeded(seed);
            let mut d = PcmDevice::new(params);
            pulses_loose += d.program_and_verify(target, 0.05, &mut rng).pulses;
            let mut rng = seeded(seed);
            let mut d = PcmDevice::new(params);
            pulses_tight += d.program_and_verify(target, 0.005, &mut rng).pulses;
        }
        assert!(
            pulses_tight > pulses_loose,
            "tight {pulses_tight} vs loose {pulses_loose}"
        );
    }

    #[test]
    fn programming_energy_scales_with_pulses() {
        let mut rng = seeded(3);
        let params = PcmParams::default();
        let mut d = PcmDevice::new(params);
        let rep = d.program_and_verify(Siemens(10e-6), 0.005, &mut rng);
        assert!((rep.energy.0 - params.program_pulse_energy.0 * rep.pulses as f64).abs() < 1e-18);
        assert!((rep.latency.0 - params.program_pulse_latency.0 * rep.pulses as f64).abs() < 1e-15);
    }

    #[test]
    fn drift_decays_monotonically() {
        let mut rng = seeded(4);
        let mut d = PcmDevice::new(PcmParams::default());
        d.program_and_verify(Siemens(10e-6), 0.01, &mut rng);
        let g0 = d.drifted_conductance(Seconds(0.5)).0;
        let g1 = d.drifted_conductance(Seconds(10.0)).0;
        let g2 = d.drifted_conductance(Seconds(1000.0)).0;
        assert!(g0 >= g1 && g1 > g2, "g0={g0} g1={g1} g2={g2}");
        // One decade of time loses the factor 10^(-nu) ≈ 10^-0.05 ≈ 0.89.
        let per_decade = g2 / g1;
        assert!((per_decade - 10f64.powf(-2.0 * 0.05)).abs() < 1e-6);
    }

    #[test]
    fn no_drift_before_reference_time() {
        let mut rng = seeded(5);
        let mut d = PcmDevice::new(PcmParams::default());
        d.program_and_verify(Siemens(10e-6), 0.01, &mut rng);
        assert_eq!(
            d.drifted_conductance(Seconds(0.0)),
            d.programmed_conductance()
        );
        assert_eq!(
            d.drifted_conductance(Seconds(0.5)),
            d.programmed_conductance()
        );
    }

    #[test]
    fn read_noise_statistics() {
        let mut rng = seeded(6);
        let mut d = PcmDevice::new(PcmParams::default());
        d.program_and_verify(Siemens(10e-6), 0.005, &mut rng);
        let g_true = d.drifted_conductance(Seconds(1.0)).0;
        let reads: Vec<f64> = (0..20_000)
            .map(|_| d.read(Seconds(1.0), &mut rng).0)
            .collect();
        let s = Summary::of(&reads);
        assert!((s.mean - g_true).abs() / g_true < 0.005);
        assert!((s.std / g_true - 0.01).abs() < 0.002);
    }

    #[test]
    fn mean_read_current_is_about_one_microamp() {
        // The paper assumes 1 µA average read current per device at 0.2 V;
        // with a 0.1–20 µS window the mid-level gives ≈ 2 µA, and the
        // average over typical programmed patterns (biased to lower G)
        // lands near 1 µA. Check the order of magnitude here.
        let p = PcmParams::default();
        let i = p.mean_read_current().0;
        assert!(i > 0.5e-6 && i < 5e-6, "mean read current {i}");
    }

    #[test]
    fn read_energy_order_of_magnitude() {
        let mut rng = seeded(7);
        let mut d = PcmDevice::new(PcmParams::default());
        d.program_and_verify(Siemens(10e-6), 0.01, &mut rng);
        // 0.2 V × 2 µA × 100 ns = 40 fJ.
        let e = d.read_energy(Seconds(1.0)).0;
        assert!(e > 1e-15 && e < 1e-12, "read energy {e}");
    }

    #[test]
    #[should_panic(expected = "outside window")]
    fn programming_outside_window_panics() {
        let mut rng = seeded(8);
        let mut d = PcmDevice::new(PcmParams::default());
        d.program_pulse(Siemens(100e-6), &mut rng);
    }

    #[test]
    fn clamping_keeps_conductance_physical() {
        let mut rng = seeded(9);
        let params = PcmParams {
            sigma_prog: 0.5, // absurd noise to force clamping
            ..PcmParams::default()
        };
        let mut d = PcmDevice::new(params);
        for _ in 0..200 {
            d.program_pulse(Siemens(19.9e-6), &mut rng);
            let g = d.programmed_conductance().0;
            assert!(g >= params.g_min.0 && g <= params.g_max.0);
        }
    }
}
