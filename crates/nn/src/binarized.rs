//! Binarized inference: ±1 weights, ±1 activations, exact integer
//! scores.
//!
//! The paper's IoT inference argument leans on aggressive quantization
//! (Zhou et al., \[23\]) to make analog matrix-vector hardware viable;
//! the extreme point of that axis is the *binarized* network, where
//! every weight and every hidden activation is ±1. That choice is what
//! lets a binarized layer execute on a **noisy** analog crossbar with
//! *bit-exact* results: a pre-activation `y = Σ wᵢxᵢ` with `w, x ∈
//! {±1}` over fan-in `n` is an integer with `y ≡ n (mod 2)`, so valid
//! outputs sit on a lattice with spacing 2 and any analog read whose
//! total error stays below 1.0 snaps back to the exact integer
//! ([`snap_to_parity`]). `cim-runtime` uses exactly this decode to
//! serve [`BinarizedMlp`] inference through its analog tiles with
//! outputs bit-identical to the host reference ([`BinarizedMlp::scores`]).
//!
//! Bits encode values as `true → +1`, `false → −1`; hidden layers
//! activate with `sign` (`y ≥ 0 → +1`), and the final layer's integer
//! scores are argmax-ed into a class prediction.
//!
//! # Word-parallel scoring
//!
//! With both operands as sign bits, a ±1 product is `+1` exactly where
//! the bits agree, so a layer output over fan-in `n` is
//! `n − 2·popcount(w ⊕ x)`: one XOR and one popcount per 64 weights.
//! Every layer's weights are packed into such sign rows once, when the
//! network is built, and [`BinarizedMlp::activations`] and
//! [`BinarizedMlp::scores`] run on them alone — the one scoring path
//! behind the runtime's host reference and the inputs it chains into
//! each layer's MVM. The per-weight `±1` dot product survives only as
//! the test oracle these kernels are property-tested against.

use crate::network::Network;
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use rand::Rng;

/// A feed-forward network with ±1 weights and sign activations.
///
/// The exact integer forward pass here is the reference semantic the
/// runtime-served path must reproduce bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct BinarizedMlp {
    /// Per-layer ±1 weight matrices, `outputs × inputs`.
    layers: Vec<Matrix>,
    /// The same weights as packed sign rows, one per layer.
    packed: Vec<SignRows>,
}

impl BinarizedMlp {
    /// Builds a network from explicit ±1 weight matrices.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty, any entry is not exactly ±1, or
    /// consecutive layers disagree on dimensions.
    pub fn from_layers(layers: Vec<Matrix>) -> Self {
        assert!(!layers.is_empty(), "empty binarized network");
        for (i, m) in layers.iter().enumerate() {
            assert!(
                m.as_slice().iter().all(|&w| w == 1.0 || w == -1.0),
                "layer {i} holds a non-±1 weight"
            );
        }
        for pair in layers.windows(2) {
            assert_eq!(pair[0].rows(), pair[1].cols(), "layer dimension mismatch");
        }
        BinarizedMlp::packing(layers)
    }

    /// A random ±1 network with the given layer widths
    /// (`dims = [inputs, hidden…, classes]`).
    ///
    /// # Panics
    ///
    /// Panics if `dims` has fewer than two entries or any zero width.
    pub fn random(dims: &[usize], seed: u64) -> Self {
        assert!(dims.len() >= 2, "need at least [inputs, outputs]");
        assert!(dims.iter().all(|&d| d > 0), "zero-width layer");
        let mut rng = seeded(seed);
        let layers = dims
            .windows(2)
            .map(|w| {
                Matrix::from_fn(
                    w[1],
                    w[0],
                    |_, _| if rng.gen::<f64>() < 0.5 { -1.0 } else { 1.0 },
                )
            })
            .collect();
        BinarizedMlp::packing(layers)
    }

    /// Sign-binarizes a trained float [`Network`] (the usual BNN
    /// distillation: `w ≥ 0 → +1`, `w < 0 → −1`; biases are dropped).
    ///
    /// # Panics
    ///
    /// Panics if the network is empty.
    pub fn from_network(net: &Network) -> Self {
        assert!(!net.layers().is_empty(), "empty network");
        let layers = net
            .layers()
            .iter()
            .map(|l| {
                Matrix::from_fn(l.outputs(), l.inputs(), |i, j| {
                    if l.weights.get(i, j) >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    }
                })
            })
            .collect();
        BinarizedMlp::packing(layers)
    }

    /// Wraps checked ±1 layers, packing their sign rows.
    fn packing(layers: Vec<Matrix>) -> Self {
        let packed = layers.iter().map(SignRows::of).collect();
        BinarizedMlp { layers, packed }
    }

    /// The ±1 weight matrices in layer order.
    pub fn layers(&self) -> &[Matrix] {
        &self.layers
    }

    /// Input dimension.
    pub fn inputs(&self) -> usize {
        self.layers[0].cols()
    }

    /// Output dimension (class count).
    pub fn classes(&self) -> usize {
        self.layers.last().expect("nonempty").rows()
    }

    /// Total weights across all layers (one bit each when stored).
    pub fn weight_count(&self) -> usize {
        self.layers.iter().map(|m| m.rows() * m.cols()).sum()
    }

    /// The ±1 input vector of every layer for input `x`: entry 0 is `x`
    /// itself, entry `ℓ > 0` the sign-activated output of layer `ℓ−1`.
    ///
    /// This is what a compiler needs to emit one MVM per layer with the
    /// inter-layer activation performed host-side.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    pub fn activations(&self, x: &BitVec) -> Vec<BitVec> {
        assert_eq!(x.len(), self.inputs(), "input length mismatch");
        let mut acts = Vec::with_capacity(self.packed.len());
        acts.push(x.clone());
        for layer in &self.packed[..self.packed.len() - 1] {
            let next = layer.activate(acts[acts.len() - 1].words());
            acts.push(next);
        }
        acts
    }

    /// Exact integer scores of the final layer for input `x`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != inputs()`.
    pub fn scores(&self, x: &BitVec) -> Vec<i64> {
        let acts = self.activations(x);
        let last = &self.packed[self.packed.len() - 1];
        last.scores(acts[acts.len() - 1].words()).collect()
    }

    /// Class prediction: argmax of [`BinarizedMlp::scores`] (ties to
    /// the first).
    pub fn predict(&self, x: &BitVec) -> usize {
        argmax_scores(&self.scores(x))
    }
}

/// Index of the largest integer score, ties to the first — the one
/// tie-breaking rule shared by the host reference and every decoder of
/// served scores.
///
/// # Panics
///
/// Panics if `scores` is empty.
pub fn argmax_scores(scores: &[i64]) -> usize {
    assert!(!scores.is_empty(), "argmax of empty scores");
    let mut best = 0;
    for (i, &s) in scores.iter().enumerate() {
        if s > scores[best] {
            best = i;
        }
    }
    best
}

const WORD_BITS: usize = 64;

/// One layer's ±1 weights as packed sign rows (`+1 → 1`, `−1 → 0`),
/// each output's row padded to whole words with zeros.
#[derive(Debug, Clone, PartialEq)]
struct SignRows {
    fan_in: usize,
    words_per_row: usize,
    /// Row-major sign words, `words_per_row` per output.
    words: Vec<u64>,
}

impl SignRows {
    fn of(layer: &Matrix) -> Self {
        let fan_in = layer.cols();
        let words_per_row = fan_in.div_ceil(WORD_BITS);
        let mut words = vec![0u64; layer.rows() * words_per_row];
        for (i, row) in words.chunks_exact_mut(words_per_row).enumerate() {
            for (j, &w) in layer.row(i).iter().enumerate() {
                if w > 0.0 {
                    row[j / WORD_BITS] |= 1 << (j % WORD_BITS);
                }
            }
        }
        SignRows {
            fan_in,
            words_per_row,
            words,
        }
    }

    /// Integer pre-activations `W·x` on a packed ±1 input whose bits
    /// past the fan-in are zero (as a [`BitVec`]'s are): `n − 2·h` per
    /// output, `h` the sign bits on which row and input disagree.
    fn scores<'a>(&'a self, x: &'a [u64]) -> impl Iterator<Item = i64> + 'a {
        let n = self.fan_in as i64;
        self.words.chunks_exact(self.words_per_row).map(move |row| {
            let h: u32 = row.iter().zip(x).map(|(w, v)| (w ^ v).count_ones()).sum();
            n - 2 * h as i64
        })
    }

    /// The sign activations (`y ≥ 0 → 1`) of every output, packed.
    fn activate(&self, x: &[u64]) -> BitVec {
        let outputs = self.words.len() / self.words_per_row;
        let mut words = vec![0u64; outputs.div_ceil(WORD_BITS)];
        for (i, y) in self.scores(x).enumerate() {
            if y >= 0 {
                words[i / WORD_BITS] |= 1 << (i % WORD_BITS);
            }
        }
        BitVec::from_words(words, outputs)
    }
}

/// Snaps a noisy analog readout of a ±1×±1 dot product onto its parity
/// lattice `{−n, −n+2, …, n}` for fan-in `n`.
///
/// Valid outputs are spaced 2 apart, so the snap recovers the exact
/// integer whenever the total analog error (programming residue, read
/// noise, ADC quantization) is below 1.0 — the noise margin binarized
/// inference buys, and the decode `cim-runtime` applies to MVM
/// responses.
pub fn snap_to_parity(y: f64, fan_in: usize) -> i64 {
    let n = fan_in as i64;
    let k = ((n as f64 - y) / 2.0).round() as i64;
    n - 2 * k.clamp(0, n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::SensoryTask;
    use crate::train::TrainConfig;

    /// The scalar oracle: integer pre-activations `W·v` of one ±1 layer,
    /// one `±1 × ±1` product per weight.
    fn layer_scores(layer: &Matrix, v: &BitVec) -> Vec<i64> {
        (0..layer.rows())
            .map(|i| {
                (0..layer.cols())
                    .map(|j| {
                        let w = layer.get(i, j) as i64;
                        if v.get(j) {
                            w
                        } else {
                            -w
                        }
                    })
                    .sum()
            })
            .collect()
    }

    /// [`BinarizedMlp::activations`] and [`BinarizedMlp::scores`]
    /// chained through the scalar oracle.
    fn oracle(mlp: &BinarizedMlp, x: &BitVec) -> (Vec<BitVec>, Vec<i64>) {
        let mut acts = vec![x.clone()];
        let mut y = layer_scores(&mlp.layers()[0], x);
        for layer in &mlp.layers()[1..] {
            acts.push(BitVec::from_fn(y.len(), |i| y[i] >= 0));
            y = layer_scores(layer, &acts[acts.len() - 1]);
        }
        (acts, y)
    }

    #[test]
    fn packed_scoring_matches_the_scalar_oracle() {
        let mut rng = seeded(0xB17);
        // Widths straddling the word boundary, then random widths up to
        // 300 at random depths.
        let mut shapes: Vec<Vec<usize>> = vec![
            vec![1, 1],
            vec![63, 64, 65],
            vec![64, 1, 63],
            vec![65, 300, 64, 1],
            vec![256, 32, 8],
        ];
        for _ in 0..40 {
            let depth = rng.gen_range(2..=5);
            shapes.push((0..depth).map(|_| rng.gen_range(1..=300)).collect());
        }
        for (n, dims) in shapes.iter().enumerate() {
            let mlp = BinarizedMlp::random(dims, n as u64);
            for _ in 0..4 {
                let density = rng.gen::<f64>();
                let x = BitVec::from_fn(dims[0], |_| rng.gen::<f64>() < density);
                let (acts, scores) = oracle(&mlp, &x);
                assert_eq!(mlp.activations(&x), acts, "activations of {dims:?}");
                assert_eq!(mlp.scores(&x), scores, "scores of {dims:?}");
            }
        }
    }

    #[test]
    fn random_network_is_deterministic_and_binary() {
        let a = BinarizedMlp::random(&[8, 6, 3], 42);
        let b = BinarizedMlp::random(&[8, 6, 3], 42);
        assert_eq!(a, b);
        assert_eq!(a.inputs(), 8);
        assert_eq!(a.classes(), 3);
        assert_eq!(a.weight_count(), 8 * 6 + 6 * 3);
        for m in a.layers() {
            assert!(m.as_slice().iter().all(|&w| w == 1.0 || w == -1.0));
        }
    }

    #[test]
    fn scores_have_fan_in_parity() {
        let mlp = BinarizedMlp::random(&[9, 7, 4], 3);
        let x = BitVec::from_fn(9, |i| i % 2 == 0);
        // Hidden fan-in 9: pre-activations odd. Final fan-in 7: odd.
        for s in mlp.scores(&x) {
            assert_eq!((s + 7).rem_euclid(2), 0, "score {s} off the parity lattice");
        }
    }

    #[test]
    fn single_layer_scores_match_hand_computation() {
        let w = Matrix::from_rows(&[&[1.0, -1.0, 1.0], &[-1.0, -1.0, -1.0]]);
        let mlp = BinarizedMlp::from_layers(vec![w]);
        // x = (+1, +1, −1): row 0 → 1 − 1 − 1 = −1; row 1 → −1 − 1 + 1 = −1.
        let x = BitVec::from_bools(&[true, true, false]);
        assert_eq!(mlp.scores(&x), vec![-1, -1]);
        assert_eq!(mlp.predict(&x), 0, "tie goes to the first class");
    }

    #[test]
    fn activations_chain_through_sign() {
        let mlp = BinarizedMlp::random(&[6, 5, 2], 9);
        let x = BitVec::from_fn(6, |i| i < 3);
        let acts = mlp.activations(&x);
        assert_eq!(acts.len(), 2);
        assert_eq!(acts[0], x);
        // Layer-1 input is the sign of layer-0 pre-activations.
        let y0 = layer_scores(&mlp.layers()[0], &x);
        for (i, &s) in y0.iter().enumerate() {
            assert_eq!(acts[1].get(i), s >= 0);
        }
    }

    #[test]
    fn from_network_binarizes_by_sign() {
        let task = SensoryTask::generate(10, 3, 40, 0.2, 5);
        let net = TrainConfig::default().train(&task, 4);
        let mlp = BinarizedMlp::from_network(&net);
        assert_eq!(mlp.inputs(), 10);
        assert_eq!(mlp.classes(), 3);
        for (bl, fl) in mlp.layers().iter().zip(net.layers()) {
            for i in 0..bl.rows() {
                for j in 0..bl.cols() {
                    let expected = if fl.weights.get(i, j) >= 0.0 {
                        1.0
                    } else {
                        -1.0
                    };
                    assert_eq!(bl.get(i, j), expected);
                }
            }
        }
    }

    #[test]
    fn snap_recovers_lattice_points_under_noise() {
        for n in [1usize, 2, 7, 32] {
            let lattice: Vec<i64> = (0..=n).map(|k| n as i64 - 2 * k as i64).collect();
            for &y in &lattice {
                for noise in [-0.99, -0.4, 0.0, 0.4, 0.99] {
                    assert_eq!(
                        snap_to_parity(y as f64 + noise, n),
                        y,
                        "n={n} y={y} noise={noise}"
                    );
                }
            }
        }
        // Out-of-range readings clamp to the lattice ends.
        assert_eq!(snap_to_parity(9.7, 5), 5);
        assert_eq!(snap_to_parity(-9.7, 5), -5);
    }

    #[test]
    #[should_panic(expected = "non-±1 weight")]
    fn non_binary_weights_rejected() {
        let _ = BinarizedMlp::from_layers(vec![Matrix::from_rows(&[&[0.5, 1.0]])]);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn bad_chaining_rejected() {
        let a = Matrix::from_fn(3, 4, |_, _| 1.0);
        let b = Matrix::from_fn(2, 5, |_, _| 1.0);
        let _ = BinarizedMlp::from_layers(vec![a, b]);
    }
}
