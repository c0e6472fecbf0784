//! The associative memory: train by bundling, classify by distance.
//!
//! "During training, the associative memory updates the learned patterns
//! with new hypervectors, while during classification it computes
//! distances between a query hypervector and learned patterns" (§IV-B-1).
//! Each class keeps a [`Bundler`]; finalized prototypes answer nearest-
//! neighbour queries under Hamming distance.

use crate::hypervector::{Bundler, Hypervector};

/// An associative memory over `classes` labels.
#[derive(Debug, Clone)]
pub struct AssociativeMemory {
    d: usize,
    bundlers: Vec<Bundler>,
    prototypes: Option<Vec<Hypervector>>,
}

impl AssociativeMemory {
    /// Creates an empty memory for the given class count and dimension.
    ///
    /// # Panics
    ///
    /// Panics if either is zero.
    pub fn new(classes: usize, d: usize) -> Self {
        assert!(classes > 0 && d > 0, "empty associative memory");
        AssociativeMemory {
            d,
            bundlers: (0..classes)
                .map(|c| Bundler::new(d, 0xA550C + c as u64))
                .collect(),
            prototypes: None,
        }
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.d
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.bundlers.len()
    }

    /// Adds a training example for `class`. Invalidates any finalized
    /// prototypes.
    ///
    /// # Panics
    ///
    /// Panics if the class is out of range or dimensions differ.
    pub fn train(&mut self, class: usize, example: &Hypervector) {
        assert!(class < self.bundlers.len(), "class {class} out of range");
        self.bundlers[class].add(example);
        self.prototypes = None;
    }

    /// Finalizes (or re-finalizes) the class prototypes.
    ///
    /// # Panics
    ///
    /// Panics if any class received no training examples.
    pub fn finalize(&mut self) -> &[Hypervector] {
        let bundlers = &self.bundlers;
        self.prototypes
            .get_or_insert_with(|| bundlers.iter().map(Bundler::finalize).collect())
    }

    /// The finalized prototypes, if available.
    pub fn prototypes(&self) -> Option<&[Hypervector]> {
        self.prototypes.as_deref()
    }

    /// Classifies a query by minimum Hamming distance, returning the
    /// label and the normalized distance to the winner.
    ///
    /// Ties are deterministic: among equally distant prototypes the
    /// *lowest* class index wins (strict `<` scan in ascending class
    /// order). The runtime's `HdcClassify`/`HdcQuery` argmax and its
    /// `HdcAssoc` re-rank resolve ties by the same rule, so their
    /// outputs stay bit-comparable.
    ///
    /// # Panics
    ///
    /// Panics if any class is untrained or dimensions differ.
    pub fn classify(&mut self, query: &Hypervector) -> (usize, f64) {
        let dim = self.d;
        let prototypes = self.finalize();
        let mut best = 0;
        let mut best_d = usize::MAX;
        for (c, proto) in prototypes.iter().enumerate() {
            let d = query.hamming(proto);
            if d < best_d {
                best_d = d;
                best = c;
            }
        }
        (best, best_d as f64 / dim as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item_memory::flip_random_bits;
    use cim_simkit::rng::seeded;

    const D: usize = 4096;

    fn trained_memory(classes: usize, per_class: usize) -> (AssociativeMemory, Vec<Hypervector>) {
        let mut rng = seeded(42);
        let mut am = AssociativeMemory::new(classes, D);
        let mut anchors = Vec::new();
        for c in 0..classes {
            let anchor = Hypervector::random(D, &mut rng);
            for i in 0..per_class {
                // Noisy variants of the class anchor.
                let noisy = flip_random_bits(&anchor, D / 10, (c * 100 + i) as u64);
                am.train(c, &noisy);
            }
            anchors.push(anchor);
        }
        (am, anchors)
    }

    #[test]
    fn classifies_noisy_queries() {
        let (mut am, anchors) = trained_memory(8, 9);
        for (c, anchor) in anchors.iter().enumerate() {
            let query = flip_random_bits(anchor, D / 8, 999 + c as u64);
            let (label, dist) = am.classify(&query);
            assert_eq!(label, c);
            assert!(dist < 0.3, "winner distance {dist}");
        }
    }

    #[test]
    fn prototype_similar_to_anchor() {
        let (mut am, anchors) = trained_memory(4, 9);
        let prototypes = am.finalize().to_vec();
        for (p, a) in prototypes.iter().zip(&anchors) {
            assert!(p.normalized_hamming(a) < 0.2);
        }
    }

    #[test]
    fn retraining_updates_prototypes() {
        let mut rng = seeded(7);
        let mut am = AssociativeMemory::new(2, D);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        am.train(0, &a);
        am.train(1, &b);
        let (label, _) = am.classify(&a);
        assert_eq!(label, 0);
        // Overwhelm class 1 with copies of `a`: queries for `a` now tie
        // or flip — add to the *same* memory and observe the prototype
        // moved.
        for _ in 0..8 {
            am.train(1, &a);
        }
        let protos = am.finalize();
        assert!(protos[1].normalized_hamming(&a) < 0.2);
    }

    /// Pins the documented tie rule: equally distant prototypes resolve
    /// to the lowest class index, never to scan order accidents.
    #[test]
    fn exact_ties_resolve_to_the_lowest_class_index() {
        let mut rng = seeded(9);
        let far = Hypervector::random(D, &mut rng);
        let shared = Hypervector::random(D, &mut rng);
        let mut am = AssociativeMemory::new(3, D);
        am.train(0, &far);
        // Classes 1 and 2 learn the identical prototype: a query at
        // that prototype ties them at distance zero.
        am.train(1, &shared);
        am.train(2, &shared);
        let (label, dist) = am.classify(&shared);
        assert_eq!(label, 1, "lowest tied index wins");
        assert_eq!(dist, 0.0);
    }

    #[test]
    fn accessors() {
        let am = AssociativeMemory::new(3, 64);
        assert_eq!(am.classes(), 3);
        assert_eq!(am.dim(), 64);
        assert!(am.prototypes().is_none());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_class_rejected() {
        let mut rng = seeded(1);
        let mut am = AssociativeMemory::new(2, 64);
        am.train(5, &Hypervector::random(64, &mut rng));
    }
}
