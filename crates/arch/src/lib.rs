//! # cim-arch
//!
//! Architecture-level analytical delay/energy models comparing a
//! conventional multicore with a CIM-accelerated system — the §II-C
//! evaluation of the DATE'19 paper (Figures 3 and 4).
//!
//! The paper develops "two analytical models similar to that in
//! [Du Nguyen et al., TVLSI'17]; one for conventional architecture and one
//! for CIM architecture" and sweeps the L1/L2 miss rates and the fraction
//! `X` of instructions accelerated in the CIM core. The models here follow
//! that structure with first-order, fully documented equations:
//!
//! * [`conventional`] — a 4-core Xeon-E5-2680-class machine: per
//!   instruction one base cycle plus miss-rate-weighted L2/DRAM penalties;
//!   energy from per-access hierarchy costs plus static power × runtime.
//! * [`cim`] — one host core of the same microarchitecture plus a CIM
//!   unit executing the accelerated (bit-wise, data-intensive) fraction at
//!   10 ns per logical operation with an effective parallel-issue factor.
//!   Offloading the data-intensive instructions also removes their
//!   cache-polluting accesses, so the host sees miss rates scaled by
//!   `(1 − X)`.
//! * [`sweep`] — the (m₁, m₂) grid sweeps that regenerate the Fig. 3 and
//!   Fig. 4 surfaces, plus speedup/energy-gain helpers.
//!
//! Absolute seconds and joules are model outputs (the paper's testbed is
//! not available); the calibration tests in [`sweep`] assert the paper's
//! headline *shape*: speedup up to ≈35× at X = 90 %, conventional winning
//! at low miss rates when X = 30 %, and CIM energy always lower — ≈6× at
//! X = 30 % and about two orders of magnitude at X = 90 %.
//!
//! # Example
//!
//! ```
//! use cim_arch::params::Workload;
//! use cim_arch::{cim::CimSystem, conventional::ConventionalMachine};
//!
//! let conv = ConventionalMachine::xeon_e5_2680();
//! let cim = CimSystem::paper_default();
//! let w = Workload::paper_32gib(0.9, 1.0, 1.0); // X=90%, worst-case misses
//! let speedup = conv.delay(&w) / cim.delay(&w);
//! assert!(speedup > 30.0 && speedup < 45.0);
//! ```

pub mod cim;
pub mod conventional;
pub mod params;
pub mod sweep;

pub use cim::CimSystem;
pub use conventional::ConventionalMachine;
pub use params::Workload;
pub use sweep::{MissRateGrid, SweepPoint};
