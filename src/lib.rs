//! # cim-repro
//!
//! Umbrella crate of the reproduction of *"Applications of
//! Computation-In-Memory Architectures based on Memristive Devices"*
//! (Hamdioui et al., DATE 2019).
//!
//! This crate re-exports every workspace member so the `examples/` and
//! `tests/` directories can exercise the whole system through one
//! dependency. See `README.md` for the tour.
//!
//! The workspace layers, bottom-up:
//!
//! 1. [`cim_simkit`] — units, bit vectors, linear algebra, statistics.
//! 2. [`cim_device`] — PCM and ReRAM behavioural device models.
//! 3. [`cim_tech`] — ADC/DAC/FPGA/MCU/CMOS technology cost models.
//! 4. [`cim_crossbar`] — analog MVM crossbars and Scouting Logic arrays.
//! 5. [`cim_arch`] — the §II-C analytical architecture models.
//! 6. [`cim_core`] — the CIM accelerator: ISA, tiles, offload model.
//! 7. Applications: [`cim_bitmap_db`], [`cim_xor_cipher`], [`cim_amp`],
//!    [`cim_imgproc`], [`cim_nn`], [`cim_hdc`].
//! 8. [`cim_obs`] — dependency-free tracing, metrics and profiling
//!    primitives: trace sinks, a ring recorder, mergeable latency
//!    histograms, deterministic snapshot JSON and Chrome trace export.
//! 9. [`cim_lint`] — the static program verifier for compiled CIM
//!    instruction streams: per-instruction effect summaries fed to an
//!    abstract interpreter with stable `L00x` rule codes, run at pool
//!    admission and available standalone.
//! 10. [`cim_runtime`] — the multi-tenant accelerator-pool runtime that
//!     serves batched application workloads across shards through
//!     per-tenant sessions: non-blocking `JobHandle`s per submission
//!     and reference-counted resident datasets that amortize array
//!     writes across queries (see the "Serving workloads" section of
//!     README.md).

pub use cim_amp;
pub use cim_arch;
pub use cim_bitmap_db;
pub use cim_core;
pub use cim_crossbar;
pub use cim_device;
pub use cim_hdc;
pub use cim_imgproc;
pub use cim_lint;
pub use cim_nn;
pub use cim_obs;
pub use cim_runtime;
pub use cim_simkit;
pub use cim_tech;
pub use cim_xor_cipher;
