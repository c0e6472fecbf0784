//! # cim-core
//!
//! The CIM accelerator as a library — the architecture contribution of the
//! DATE'19 paper assembled from the workspace substrates.
//!
//! Figure 1 of the paper shows the target system: a conventional CPU with
//! its DRAM, plus a **CIM core** used as an on-chip accelerator. The CIM
//! core consists of dense memristive crossbar tiles and CMOS periphery;
//! the processor reaches it through an extended address space, and
//! memory-intensive loops are offloaded to it while the rest of the
//! program stays on the host.
//!
//! * [`isa`] — the CIM instruction set: row writes/reads, Scouting-Logic
//!   operations, analog matrix-vector products and matrix programming.
//!   Each instruction documents whether it computes in the array
//!   (CIM-A) or in the periphery (CIM-P), the taxonomy of §I.
//! * [`accelerator`] — [`CimAccelerator`]: a set of digital and analog
//!   tiles with an executor that runs instruction streams and accounts
//!   energy, latency and operation counts. Each stream owns its
//!   `StoreLast` result latch and draws its noise from the caller's RNG.
//! * [`offload`] — the Fig. 1(b) execution model: programs as host
//!   sections and CIM-able loops, planned onto the architecture and
//!   costed with the `cim-arch` analytical models.
//!
//! # Example
//!
//! ```
//! use cim_core::accelerator::CimAcceleratorBuilder;
//! use cim_core::isa::CimInstruction;
//! use cim_crossbar::scouting::ScoutOp;
//! use cim_simkit::bitvec::BitVec;
//! use cim_simkit::rng::seeded;
//!
//! let mut acc = CimAcceleratorBuilder::new()
//!     .digital_tiles(1, 8, 64)
//!     .seed(1)
//!     .build();
//! // One stream: two row writes, then a Scouting-Logic XOR whose
//! // response (instruction 2) is the run's one output.
//! let program = vec![
//!     CimInstruction::WriteRow {
//!         tile: 0,
//!         row: 0,
//!         bits: BitVec::ones(64),
//!     },
//!     CimInstruction::WriteRow {
//!         tile: 0,
//!         row: 1,
//!         bits: BitVec::zeros(64),
//!     },
//!     CimInstruction::Logic {
//!         tile: 0,
//!         op: ScoutOp::Xor,
//!         rows: vec![0, 1],
//!     },
//! ];
//! let mut responses = acc.run(program, &[2], &mut seeded(7));
//! let xor = responses.pop().and_then(|r| r.into_bits()).unwrap();
//! assert_eq!(xor.count_ones(), 64);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod accelerator;
pub mod isa;
pub mod offload;

pub use accelerator::{CimAccelerator, CimAcceleratorBuilder, DeviceCounters, ExecutionStats};
pub use isa::{CimClass, CimInstruction, CimResponse, EffectSummary, MatchKind, TileFamily};
pub use offload::{OffloadEstimate, Program, Section};
