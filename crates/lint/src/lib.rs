//! # cim-lint
//!
//! A dataflow-style static analyzer for compiled CIM instruction
//! streams.
//!
//! Every workload the `cim-runtime` pool serves is first lowered to a
//! flat [`cim_core::CimInstruction`] stream. Nothing about such a
//! stream is checked by construction: a compiler bug — or a hand-built
//! raw program from a tenant — would otherwise surface as a
//! mid-execution panic inside a shard, after device state is already
//! half-mutated. The TDO-CIM line of work places program
//! analysis at admission time, where a CIM runtime decides what is safe
//! to run in-memory; this crate is that analysis for the workspace's
//! runtime.
//!
//! The analyzer is an abstract interpreter (see [`lint`]) walking a
//! program once, folding each instruction's
//! [`cim_core::EffectSummary`] into a small abstract state:
//!
//! * **row initialization** per digital tile — reads of rows no prior
//!   instruction (or resident dataset) wrote are flagged
//!   ([`RuleCode::UninitRead`]);
//! * **latch def-use** — the stream's `last_bits` latch must be live
//!   when a `StoreLast` consumes it
//!   ([`RuleCode::LatchUndef`]), and a latch definition that is never
//!   stored nor returned is dead code ([`RuleCode::LatchDead`], the one
//!   warning-severity rule);
//! * **tile/row bounds** against the target [`Geometry`]
//!   ([`RuleCode::TileBounds`], [`RuleCode::RowBounds`]);
//! * **operand arity** — XOR takes exactly two rows, OR/AND at least
//!   two and at most the scouting fan-in, no duplicate activations
//!   ([`RuleCode::BadArity`]);
//! * **operand width** — bit vectors must match the tile width; a
//!   programmed matrix's column block must stay inside the tile and off
//!   every live block; and an MVM must address a block programmed
//!   in-stream or resident on the tile, with a vector of that block's
//!   width ([`RuleCode::WidthMismatch`]);
//! * **pinned-dataset write protection** — a query program over a
//!   resident dataset must not write, store into, or reprogram
//!   anything the dataset pinned ([`RuleCode::ResidentWrite`]).
//!
//! Diagnostics come back as a [`LintReport`] of
//! [`Diagnostic`]s with stable rule codes (`L001-UNINIT-READ` …
//! `L008-WIDTH-MISMATCH`) and render deterministically as text
//! ([`LintReport::to_text`]) or JSON ([`LintReport::to_json`]).
//!
//! A second pass, [`cost`], walks the same stream but certifies a
//! [`CostEnvelope`] instead of diagnostics: exact per-tile-family
//! instruction/pulse counts, sound upper bounds on the measured device
//! counters, and latency/energy bounds from the `cim-arch`/`cim-tech`
//! analytical models. The envelope is the
//! TDO-CIM-style cost input an admission-time offload planner compares
//! against a host-fallback estimate; [`LintReport::to_json_with`]
//! embeds it as the report's optional `cost` section.
//!
//! # Example
//!
//! ```
//! use cim_core::CimInstruction;
//! use cim_lint::{lint, Geometry, LintTarget, RuleCode};
//!
//! // XOR over three rows: the sense amplifier cannot do that.
//! let program = vec![CimInstruction::Logic {
//!     tile: 0,
//!     op: cim_core::isa::ScoutOp::Xor,
//!     rows: vec![0, 1, 2],
//! }];
//! let target = LintTarget::new(Geometry {
//!     digital_tiles: 1,
//!     tile_rows: 8,
//!     tile_cols: 32,
//!     analog_tiles: 0,
//!     analog_rows: 0,
//!     analog_cols: 0,
//!     scout_fan_in: 8,
//! });
//! let outputs: Vec<usize> = (0..program.len()).collect();
//! let report = lint(&program, &outputs, &target);
//! assert!(report.has_errors());
//! assert!(report
//!     .diagnostics
//!     .iter()
//!     .any(|d| d.rule == RuleCode::BadArity));
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

mod check;
mod cost;
mod diag;

pub use check::{lint, Block, Geometry, LintTarget};
pub use cost::{cost, CostEnvelope, CostModel, MVM_WEIGHT};
pub use diag::{Diagnostic, LintReport, RuleCode, Severity};
