//! # cim-nn
//!
//! Inference-oriented neural networks on memristive crossbars, with the
//! IoT platform energy models of the DATE'19 paper's §IV-A (Fig. 7).
//!
//! The paper targets always-ON deep-learning inference on edge devices —
//! human-activity recognition, keyword spotting, ECG event detection —
//! where "deep neural networks are just a cascade of matrix-vector
//! multiply units and activation functions" and every matrix-vector
//! product maps onto an analog crossbar. The key obstacle is precision:
//! analog multiplication plus DAC/ADC quantization; the paper cites
//! incremental network quantization (Zhou et al., \[23\]) as evidence that
//! low-precision inference can match floating point.
//!
//! * [`layer`] / [`network`] — dense layers, activations, forward pass.
//! * [`binarized`] — ±1-weight networks with exact integer semantics,
//!   the form `cim-runtime` serves through analog tiles bit-exactly.
//! * [`train`] — a compact mini-batch SGD trainer (softmax cross
//!   entropy) used to produce non-trivial weights for the experiments.
//! * [`quant`] — per-layer uniform quantization and INQ-style
//!   power-of-two quantization of trained weights.
//! * [`crossbar`] — dense layers executed on differential PCM crossbars.
//! * [`task`] — synthetic sensory classification tasks (Gaussian-cluster
//!   HAR-like data substituted for the non-redistributable datasets).
//! * [`energy`] — the **Fig. 7(b)** energy comparison: CIM with 4-bit
//!   ADCs vs sub-threshold and nominal-voltage Cortex-M0 software.
//!
//! # Example
//!
//! ```
//! use cim_nn::task::SensoryTask;
//! use cim_nn::train::TrainConfig;
//!
//! let task = SensoryTask::generate(16, 4, 200, 0.25, 3);
//! let net = TrainConfig::default().train(&task, 5);
//! let acc = task.accuracy(&net, task.test_set());
//! assert!(acc > 0.8, "accuracy {acc}");
//! ```

pub mod binarized;
pub mod crossbar;
pub mod energy;
pub mod layer;
pub mod network;
pub mod quant;
pub mod task;
pub mod train;

pub use binarized::BinarizedMlp;
pub use crossbar::CrossbarNetwork;
pub use energy::{fig7b_series, InferencePlatform};
pub use layer::{Activation, DenseLayer};
pub use network::Network;
pub use task::SensoryTask;
pub use train::TrainConfig;
