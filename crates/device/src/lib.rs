//! # cim-device
//!
//! Behavioural models of the memristive devices underlying the DATE'19 CIM
//! application studies.
//!
//! Two device families appear in the paper:
//!
//! * **Binary ReRAM-like devices** ([`reram`]) with two resistance states
//!   `R_LOW` / `R_HIGH`. Scouting Logic (§II of the paper) senses the
//!   parallel combination of two or more such devices against reference
//!   currents to compute OR/AND/XOR during a read.
//! * **Multi-level phase-change memory (PCM)** ([`pcm`]) whose analog
//!   conductance encodes matrix coefficients for in-memory matrix-vector
//!   multiplication (§III-B, §IV). The model captures the three
//!   non-idealities that matter for application accuracy: programming
//!   noise (addressed by iterative program-and-verify), instantaneous read
//!   noise, and conductance drift `G(t) = G_prog · (t/t₀)^(−ν)`.
//!
//! Both models expose per-event energy and latency so array-level
//! simulators can do bottom-up accounting. For array-scale simulation both
//! families also come in struct-of-arrays form: the binary devices as
//! [`bank`] (packed state words plus flat read-current tables, drawn
//! at the first sensing access, the storage layout behind the
//! word-parallel digital-tile fast path) and the PCM devices as
//! [`pcm_bank`] (flat conductance and pulse-ledger vectors in fabrication
//! order with batched program-and-verify of origin-anchored windows and
//! an erase of what was programmed, the storage layout behind the
//! vectorized analog-crossbar fast path).
//!
//! # Example
//!
//! ```
//! use cim_device::pcm::{PcmDevice, PcmParams};
//! use cim_simkit::rng::seeded;
//! use cim_simkit::units::{Seconds, Siemens};
//!
//! let mut rng = seeded(1);
//! let params = PcmParams::default();
//! let mut dev = PcmDevice::new(params);
//! let target = Siemens(10e-6);
//! let report = dev.program_and_verify(target, 0.02, &mut rng);
//! assert!(report.converged);
//! let g = dev.read(Seconds(0.1), &mut rng);
//! assert!((g.0 - target.0).abs() / target.0 < 0.1);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod bank;
pub mod pcm;
pub mod pcm_bank;
pub mod reram;

pub use bank::{CurrentExtremes, ReramBank};
pub use pcm::{PcmDevice, PcmParams, ProgramReport};
pub use pcm_bank::{BankProgramReport, PcmBank};
pub use reram::{ReramDevice, ReramParams, ReramState};
