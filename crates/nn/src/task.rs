//! Synthetic sensory classification tasks.
//!
//! The paper's IoT examples — human-activity recognition, keyword
//! spotting, ECG event detection — are small-input, few-class problems.
//! Their datasets are not redistributable, so, as a substitution,
//! [`SensoryTask`] generates Gaussian class clusters with
//! controllable spread: each class owns a random prototype vector in
//! `[0, 1]^d` and samples scatter around it. This preserves what the
//! experiments need: a non-trivial decision problem whose accuracy
//! degrades measurably when weights are quantized or executed on noisy
//! analog hardware.

use crate::network::Network;
use cim_simkit::rng::{normal, seeded};
use cim_simkit::stats::accuracy;
use rand::Rng;

/// A labelled dataset split into train and test halves.
#[derive(Debug, Clone, PartialEq)]
pub struct SensoryTask {
    dims: usize,
    classes: usize,
    train_x: Vec<Vec<f64>>,
    train_y: Vec<usize>,
    test_x: Vec<Vec<f64>>,
    test_y: Vec<usize>,
}

impl SensoryTask {
    /// Generates a task with `classes` Gaussian clusters in `dims`
    /// dimensions, `samples_per_class` per class per split, and cluster
    /// standard deviation `spread`.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn generate(
        dims: usize,
        classes: usize,
        samples_per_class: usize,
        spread: f64,
        seed: u64,
    ) -> Self {
        assert!(
            dims > 0 && classes > 0 && samples_per_class > 0,
            "empty task"
        );
        let mut rng = seeded(seed);
        let prototypes: Vec<Vec<f64>> = (0..classes)
            .map(|_| (0..dims).map(|_| rng.gen::<f64>()).collect())
            .collect();
        let sample_split = |rng: &mut rand::rngs::StdRng| {
            let mut xs = Vec::new();
            let mut ys = Vec::new();
            for (c, proto) in prototypes.iter().enumerate() {
                for _ in 0..samples_per_class {
                    xs.push(proto.iter().map(|&p| normal(rng, p, spread)).collect());
                    ys.push(c);
                }
            }
            (xs, ys)
        };
        let (train_x, train_y) = sample_split(&mut rng);
        let (test_x, test_y) = sample_split(&mut rng);
        SensoryTask {
            dims,
            classes,
            train_x,
            train_y,
            test_x,
            test_y,
        }
    }

    /// Input dimension.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// The training split as `(inputs, labels)`.
    pub fn train_set(&self) -> (&[Vec<f64>], &[usize]) {
        (&self.train_x, &self.train_y)
    }

    /// The held-out test split as `(inputs, labels)`.
    pub fn test_set(&self) -> (&[Vec<f64>], &[usize]) {
        (&self.test_x, &self.test_y)
    }

    /// Classification accuracy of a network on a split.
    pub fn accuracy(&self, net: &Network, split: (&[Vec<f64>], &[usize])) -> f64 {
        let (xs, ys) = split;
        let predictions: Vec<usize> = xs.iter().map(|x| net.predict(x)).collect();
        accuracy(ys, &predictions)
    }

    /// Accuracy under an arbitrary prediction function (used for
    /// crossbar-executed networks).
    pub fn accuracy_with(
        &self,
        split: (&[Vec<f64>], &[usize]),
        mut predict: impl FnMut(&[f64]) -> usize,
    ) -> f64 {
        let (xs, ys) = split;
        let predictions: Vec<usize> = xs.iter().map(|x| predict(x)).collect();
        accuracy(ys, &predictions)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_and_determinism() {
        let t = SensoryTask::generate(8, 5, 20, 0.1, 1);
        assert_eq!(t.dims(), 8);
        assert_eq!(t.classes(), 5);
        assert_eq!(t.train_set().0.len(), 100);
        assert_eq!(t.test_set().0.len(), 100);
        assert_eq!(t.train_set().0[0].len(), 8);
        assert_eq!(t, SensoryTask::generate(8, 5, 20, 0.1, 1));
    }

    #[test]
    fn labels_are_balanced() {
        let t = SensoryTask::generate(4, 3, 10, 0.1, 2);
        let (_, ys) = t.train_set();
        for c in 0..3 {
            assert_eq!(ys.iter().filter(|&&y| y == c).count(), 10);
        }
    }

    #[test]
    fn small_spread_is_separable_by_prototypes() {
        // A nearest-prototype classifier on tight clusters should be
        // nearly perfect; validates the generator is learnable at all.
        let t = SensoryTask::generate(16, 4, 50, 0.05, 3);
        let (xs, ys) = t.test_set();
        let (tx, ty) = t.train_set();
        // Class means from the training split.
        let mut means = vec![vec![0.0; 16]; 4];
        let mut counts = vec![0usize; 4];
        for (x, &y) in tx.iter().zip(ty) {
            counts[y] += 1;
            for (m, v) in means[y].iter_mut().zip(x) {
                *m += v;
            }
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f64;
            }
        }
        let mut correct = 0;
        for (x, &y) in xs.iter().zip(ys) {
            let mut best = 0;
            let mut best_d = f64::INFINITY;
            for (c, m) in means.iter().enumerate() {
                let d: f64 = m.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
                if d < best_d {
                    best_d = d;
                    best = c;
                }
            }
            if best == y {
                correct += 1;
            }
        }
        assert!(correct as f64 / ys.len() as f64 > 0.95);
    }
}
