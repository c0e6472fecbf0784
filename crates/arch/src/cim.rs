//! Analytical model of the CIM-accelerated system.
//!
//! The paper's CIM architecture (§II-B/C) keeps "a single host processor
//! with the same characteristics as an individual core in the conventional
//! architecture" — 2.5 GHz, 32 KB L1, 256 KB L2, 1 GB DRAM — next to a CIM
//! unit of 2²⁰ parallel memory arrays occupying the area of 3 GB of DRAM.
//! A logical instruction inside the CIM unit takes ≈10 ns.
//!
//! The delay model:
//!
//! ```text
//! delay_host = (1−X)·N · CPI(f_ref=0.3, m₁·(1−X), m₂·(1−X)) / f_clk
//! delay_cim  = X·N · t_CIM / P_eff
//! delay      = delay_host + delay_cim
//! ```
//!
//! Two modelling choices deserve emphasis:
//!
//! * **Miss filtering** — the accelerated instructions are precisely the
//!   data-intensive, cache-hostile ones; once they execute inside the
//!   memory, the host's remaining access stream misses far less. We scale
//!   the host-visible miss rates by `(1 − X)`.
//! * **Effective parallelism `P_eff`** — although the CIM unit holds 2²⁰
//!   arrays, sustained issue is bounded by the command/row-driver
//!   interface; the calibrated effective speedup per CIM op is `P_eff =
//!   20` word-operations per 10 ns slot. This reproduces the paper's
//!   ≈35× best-case speedup.
//!
//! The energy model charges the host like the conventional machine (with
//! its smaller static power), `E_CIM_OP` per accelerated word-op, and CIM
//! peripheral static power only while the CIM unit is busy.

use crate::conventional::ConventionalMachine;
use crate::params::{Workload, MEM_REF_RATE_OTHER};
use cim_simkit::units::{Joules, Seconds, Watts};

/// Parameters of the CIM side of the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimUnitParams {
    /// Latency of one logical operation inside the CIM core (~10 ns,
    /// equivalently ≈20–25 host cycles).
    pub op_latency: Seconds,
    /// Effective parallel word-operations sustained per op slot
    /// (interface-bounded, not array-bounded).
    pub effective_parallelism: f64,
    /// Energy per accelerated word-operation (device currents + sense
    /// amplifiers + local control).
    pub energy_per_op: Joules,
    /// Peripheral static power while the CIM unit computes. The arrays
    /// themselves are non-volatile and leak nothing.
    pub active_static_power: Watts,
    /// Fixed per-offload overhead (command issue, address-window setup,
    /// coherence flush). Amortized over the problem size — this is what
    /// makes the improvement "problem-size dependent" (§V).
    pub offload_overhead: Seconds,
    /// Number of parallel memory arrays (reporting; throughput is bounded
    /// by `effective_parallelism`).
    pub array_count: u64,
}

impl Default for CimUnitParams {
    fn default() -> Self {
        CimUnitParams {
            op_latency: Seconds::from_nanos(10.0),
            effective_parallelism: 20.0,
            energy_per_op: Joules::from_picos(10.0),
            active_static_power: Watts(2.0),
            offload_overhead: Seconds::from_micros(10.0),
            array_count: 1 << 20,
        }
    }
}

/// The full CIM system: host core + CIM unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CimSystem {
    host: ConventionalMachine,
    cim: CimUnitParams,
}

impl CimSystem {
    /// Builds a system from an explicit host machine and CIM unit.
    pub fn new(host: ConventionalMachine, cim: CimUnitParams) -> Self {
        CimSystem { host, cim }
    }

    /// The paper's configuration: single-core host (2.5 GHz, 1 GB DRAM)
    /// plus a 2²⁰-array CIM unit at 10 ns per logical op.
    pub fn paper_default() -> Self {
        CimSystem {
            host: ConventionalMachine::single_core_host(),
            cim: CimUnitParams::default(),
        }
    }

    /// The host machine model.
    pub fn host(&self) -> &ConventionalMachine {
        &self.host
    }

    /// The CIM unit parameters.
    pub fn cim_params(&self) -> &CimUnitParams {
        &self.cim
    }

    /// Host-visible miss rates after offloading: the accelerated stream's
    /// misses leave with it.
    pub fn host_miss_rates(&self, w: &Workload) -> (f64, f64) {
        let keep = 1.0 - w.accel_fraction;
        (w.l1_miss * keep, w.l2_miss * keep)
    }

    /// Runtime of the host-resident fraction.
    pub fn host_delay(&self, w: &Workload) -> Seconds {
        let (m1, m2) = self.host_miss_rates(w);
        let cpi = self.host.cpi(MEM_REF_RATE_OTHER, m1, m2);
        self.host.params().clock.period() * (w.host_instructions() * cpi)
    }

    /// Runtime of the accelerated fraction inside the CIM unit,
    /// including the fixed offload overhead when anything is offloaded.
    pub fn cim_delay(&self, w: &Workload) -> Seconds {
        if w.accel_fraction == 0.0 {
            return Seconds::ZERO;
        }
        self.cim.offload_overhead
            + self.cim.op_latency * (w.accel_instructions() / self.cim.effective_parallelism)
    }

    /// Total runtime (host and CIM phases serialized, as in the Fig. 1(b)
    /// loop-offload execution model).
    pub fn delay(&self, w: &Workload) -> Seconds {
        self.host_delay(w) + self.cim_delay(w)
    }

    /// Total energy: host dynamic + host static over the whole runtime +
    /// CIM op energy + CIM peripheral static while busy.
    pub fn energy(&self, w: &Workload) -> Joules {
        let (m1, m2) = self.host_miss_rates(w);
        let host_dynamic =
            self.host
                .dynamic_energy(w.host_instructions(), MEM_REF_RATE_OTHER, m1, m2);
        let host_static = self.host.params().static_power * self.delay(w);
        let cim_dynamic = Joules(self.cim.energy_per_op.0 * w.accel_instructions());
        let cim_static = self.cim.active_static_power * self.cim_delay(w);
        host_dynamic + host_static + cim_dynamic + cim_static
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_accel_fraction_degenerates_to_host() {
        let sys = CimSystem::paper_default();
        let w = Workload::paper_32gib(0.0, 0.5, 0.5);
        assert_eq!(sys.cim_delay(&w).0, 0.0);
        // With X = 0 the host sees the full miss rates.
        let (m1, m2) = sys.host_miss_rates(&w);
        assert_eq!((m1, m2), (0.5, 0.5));
    }

    #[test]
    fn full_offload_leaves_host_nearly_idle() {
        let sys = CimSystem::paper_default();
        let w = Workload::paper_32gib(1.0, 1.0, 1.0);
        assert_eq!(sys.host_delay(&w).0, 0.0);
        assert!(sys.cim_delay(&w).0 > 0.0);
    }

    #[test]
    fn miss_filtering_scales_with_x() {
        let sys = CimSystem::paper_default();
        let w = Workload::paper_32gib(0.6, 1.0, 0.8);
        let (m1, m2) = sys.host_miss_rates(&w);
        assert!((m1 - 0.4).abs() < 1e-12);
        assert!((m2 - 0.32).abs() < 1e-12);
    }

    #[test]
    fn cim_delay_uses_effective_parallelism() {
        let sys = CimSystem::paper_default();
        let w = Workload::paper_32gib(0.9, 0.0, 0.0);
        let expected = 10e-6 + 10e-9 * w.accel_instructions() / 20.0;
        assert!((sys.cim_delay(&w).0 - expected).abs() / expected < 1e-12);
    }

    #[test]
    fn delay_monotone_in_miss_rates() {
        let sys = CimSystem::paper_default();
        let mut last = 0.0;
        for i in 0..=10 {
            let r = i as f64 / 10.0;
            let d = sys.delay(&Workload::paper_32gib(0.6, r, r)).0;
            assert!(d >= last);
            last = d;
        }
    }

    #[test]
    fn energy_components_positive() {
        let sys = CimSystem::paper_default();
        let w = Workload::paper_32gib(0.5, 0.5, 0.5);
        assert!(sys.energy(&w).0 > 0.0);
        let w_zero = Workload::paper_32gib(0.5, 0.0, 0.0);
        assert!(sys.energy(&w).0 > sys.energy(&w_zero).0);
    }
}
