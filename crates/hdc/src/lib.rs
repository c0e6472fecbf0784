//! # cim-hdc
//!
//! Brain-inspired hyperdimensional (HD) computing — the §IV-B
//! application of the DATE'19 paper.
//!
//! HD computing represents information as *hypervectors*: d-dimensional
//! (d ≳ 1000) holographic pseudo-random binary vectors with i.i.d.
//! components. Because random hypervectors are quasi-orthogonal in high
//! dimension, a small algebra of bit-wise **MAP operations** — Majority
//! (addition), XOR (multiplication), Permutation — suffices to bind,
//! bundle and sequence symbols, and an associative memory classifies by
//! distance. All three MAP operations and the associative-memory
//! dot-product are exactly the primitives a memristive CIM array
//! executes in place (§IV-B-2).
//!
//! * [`hypervector`] — the HD algebra: random generation, bind, bundle,
//!   permute, Hamming distance.
//! * [`item_memory`] — symbol and continuous (level) item memories.
//! * [`encoder`] — n-gram text encoding (Fig. 8(a)) and multi-channel
//!   biosignal encoding (Fig. 8(b)).
//! * [`assoc`] — the associative memory: train by bundling, classify by
//!   Hamming distance.
//! * [`lang`] — 21-language recognition on synthetic Markov-chain
//!   corpora substituted for the non-redistributable ones.
//! * [`emg`] — EMG hand-gesture recognition (5 gestures, 4 channels) on
//!   synthetic envelopes.
//! * [`cost`] — the §IV-B-3 comparison: CIM HD processor vs 65 nm CMOS
//!   RTL (9× area, 5× energy; replaceable modules 2–3 orders).
//!
//! The associative search in a PCM crossbar is not defined here: the
//! `cim-runtime` pool serves it (`HdcClassify`, and `HdcPrototypes` with
//! `HdcQuery`), programming these prototypes into an analog tile and
//! running one matrix-vector product per query.
//!
//! # Example
//!
//! ```
//! use cim_hdc::hypervector::Hypervector;
//! use cim_simkit::rng::seeded;
//!
//! let mut rng = seeded(1);
//! let a = Hypervector::random(2048, &mut rng);
//! let b = Hypervector::random(2048, &mut rng);
//! // Random hypervectors are quasi-orthogonal …
//! assert!((a.normalized_hamming(&b) - 0.5).abs() < 0.05);
//! // … and binding is invertible.
//! let bound = a.bind(&b);
//! assert_eq!(bound.bind(&b), a);
//! ```

#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

pub mod assoc;
pub mod cost;
pub mod emg;
pub mod encoder;
pub mod hypervector;
pub mod item_memory;
pub mod lang;
pub mod robustness;

pub use assoc::AssociativeMemory;
pub use cost::{HdProcessorCost, HdWorkload};
pub use encoder::{BiosignalEncoder, NgramEncoder};
pub use hypervector::{Bundler, Hypervector};
pub use item_memory::{ContinuousItemMemory, ItemMemory};
pub use robustness::{bit_error_sweep, prototype_separation};
