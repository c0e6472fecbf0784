//! The hypervector algebra: the MAP operations.
//!
//! * **Multiplication** = componentwise XOR (`⊗`): binds two
//!   hypervectors into one that is quasi-orthogonal to both, and is its
//!   own inverse (`(a ⊗ b) ⊗ b = a`).
//! * **Addition** = componentwise majority (`[a + b + …]`): bundles a
//!   set into a vector *similar* to every member; ties (even counts) are
//!   broken by a pseudo-random tiebreak vector, matching the paper's
//!   "ties broken at random".
//! * **Permutation** (`ρ`) = cyclic rotation: encodes sequence position;
//!   preserves distances and distributes over XOR.
//!
//! All operations return vectors of the same dimension — hypervectors
//! are fixed-width, which is what makes them memory-friendly.

use cim_simkit::bitvec::BitVec;
use rand::Rng;

/// A d-dimensional binary hypervector.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Hypervector {
    bits: BitVec,
}

impl Hypervector {
    /// Draws a uniform random hypervector of dimension `d`.
    ///
    /// Bit `i` is the `i`-th `gen::<bool>()` draw. The draws are packed
    /// straight into words, 64 to a word, least-significant bit first:
    /// the same draws in the same order as a per-bit
    /// `BitVec::from_fn(d, |_| rng.gen::<bool>())` build, so the vector
    /// and the generator's next draw are the same either way.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn random<R: Rng + ?Sized>(d: usize, rng: &mut R) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        let words = (0..d.div_ceil(64))
            .map(|w| {
                let bits = (d - 64 * w).min(64);
                (0..bits).fold(0u64, |word, j| word | u64::from(rng.gen::<bool>()) << j)
            })
            .collect();
        Hypervector {
            bits: BitVec::from_words(words, d),
        }
    }

    /// Wraps an existing bit vector.
    ///
    /// # Panics
    ///
    /// Panics if the vector is empty.
    pub fn from_bits(bits: BitVec) -> Self {
        assert!(!bits.is_empty(), "empty hypervector");
        Hypervector { bits }
    }

    /// The all-zeros hypervector (identity of XOR binding).
    pub fn zeros(d: usize) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        Hypervector {
            bits: BitVec::zeros(d),
        }
    }

    /// Dimension d.
    pub fn dim(&self) -> usize {
        self.bits.len()
    }

    /// The underlying bits.
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// MAP multiplication: componentwise XOR binding.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn bind(&self, other: &Self) -> Self {
        Hypervector {
            bits: self.bits.xor(&other.bits),
        }
    }

    /// MAP permutation ρ^k: cyclic rotation by `k` positions.
    pub fn permute(&self, k: usize) -> Self {
        Hypervector {
            bits: self.bits.rotate(k),
        }
    }

    /// In-place `self = self ⊗ ρ^k(other)`: binds a permuted vector into
    /// an accumulator without building the permuted vector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub(crate) fn bind_permuted_assign(&mut self, other: &Self, k: usize) {
        self.bits.xor_rotated_assign(&other.bits, k);
    }

    /// Hamming distance to another hypervector.
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn hamming(&self, other: &Self) -> usize {
        self.bits.hamming(&other.bits)
    }

    /// Hamming distance normalized to `[0, 1]` (0.5 ⇒ quasi-orthogonal).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn normalized_hamming(&self, other: &Self) -> f64 {
        self.hamming(other) as f64 / self.dim() as f64
    }

    /// Integer dot product of the 0/1 vectors (the overlap an analog
    /// crossbar column reports).
    ///
    /// # Panics
    ///
    /// Panics if dimensions differ.
    pub fn dot(&self, other: &Self) -> usize {
        self.bits.dot(&other.bits)
    }

    /// MAP addition of an odd number of hypervectors: exact
    /// componentwise majority.
    ///
    /// # Panics
    ///
    /// Panics if `vs` is empty, even-sized, or dimensions differ.
    pub fn majority(vs: &[&Self]) -> Self {
        let bit_refs: Vec<&BitVec> = vs.iter().map(|v| &v.bits).collect();
        Hypervector {
            bits: BitVec::majority(&bit_refs),
        }
    }
}

/// Incremental majority bundling with deterministic pseudo-random tie
/// breaking — the practical form of MAP addition for large, possibly
/// even, bundle sizes.
///
/// The per-position counts are kept bit-sliced, as carry-save counter
/// planes: plane `p` holds bit `p` of every position's count, one `u64`
/// per 64 positions. Adding a vector is a ripple-carry increment of 64
/// counters at a time: the vector's word is the carry into plane 0, and
/// each plane keeps `plane ^ carry` and passes `plane & carry` up, for
/// at most ⌈log₂(n+1)⌉ planes. The planes read back as exactly the
/// counts a per-position `u32` counter would hold, so
/// [`Bundler::finalize`] applies the same majority and tie rule.
#[derive(Debug, Clone)]
pub struct Bundler {
    /// Counter planes, plane-major: plane `p` is
    /// `planes[p * words .. (p + 1) * words]`.
    planes: Vec<u64>,
    n: u32,
    tiebreak: Hypervector,
}

impl Bundler {
    /// Creates a bundler for dimension `d`; `tiebreak_seed` fixes the
    /// random tie-break vector so bundling is reproducible.
    ///
    /// # Panics
    ///
    /// Panics if `d == 0`.
    pub fn new(d: usize, tiebreak_seed: u64) -> Self {
        assert!(d > 0, "dimension must be nonzero");
        let mut rng = cim_simkit::rng::seeded(tiebreak_seed);
        Bundler {
            planes: Vec::new(),
            n: 0,
            tiebreak: Hypervector::random(d, &mut rng),
        }
    }

    /// Adds one hypervector to the bundle.
    ///
    /// # Panics
    ///
    /// Panics if the dimension differs, or if the bundle already holds
    /// `u32::MAX` vectors.
    pub fn add(&mut self, hv: &Hypervector) {
        assert_eq!(hv.dim(), self.tiebreak.dim(), "dimension mismatch");
        assert!(self.n < u32::MAX, "a bundle holds at most u32::MAX vectors");
        self.n += 1;
        let words = hv.bits.words();
        let stride = words.len();
        // A count of n needs ⌈log₂(n+1)⌉ planes: one more at each power of two.
        if self.planes.len() < stride * (u32::BITS - self.n.leading_zeros()) as usize {
            self.planes.resize(self.planes.len() + stride, 0);
        }
        for (w, &word) in words.iter().enumerate() {
            let mut carry = word;
            for plane in self.planes[w..].iter_mut().step_by(stride) {
                if carry == 0 {
                    break;
                }
                let sum = *plane ^ carry;
                carry &= *plane;
                *plane = sum;
            }
        }
    }

    /// Number of vectors bundled so far.
    pub fn len(&self) -> u32 {
        self.n
    }

    /// `true` if nothing was added yet.
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Finalizes the bundle: bit `i` is 1 when strictly more than half
    /// of the added vectors set it (`2·count > n`); exact ties
    /// (`2·count = n`) follow the tie-break vector.
    ///
    /// With `h = ⌊n/2⌋`, `2·count > n` is `count > h` and a tie is
    /// `count = h` with `n` even. Both are read off the counter planes a
    /// word at a time, comparing all 64 counts with `h` from the top
    /// plane down.
    ///
    /// # Panics
    ///
    /// Panics if the bundle is empty.
    pub fn finalize(&self) -> Hypervector {
        assert!(self.n > 0, "cannot finalize an empty bundle");
        let half = self.n / 2;
        let ties = self.n.is_multiple_of(2);
        let tiebreak = self.tiebreak.bits.words();
        let stride = tiebreak.len();
        let words = tiebreak
            .iter()
            .enumerate()
            .map(|(w, &tie)| {
                // `greater`: count > half so far; `equal`: every plane
                // read so far matches half's bit.
                let (mut greater, mut equal) = (0u64, !0u64);
                for (p, &plane) in self.planes[w..].iter().step_by(stride).enumerate().rev() {
                    if half >> p & 1 == 1 {
                        equal &= plane;
                    } else {
                        greater |= equal & plane;
                        equal &= !plane;
                    }
                }
                if ties {
                    greater | equal & tie
                } else {
                    greater
                }
            })
            .collect();
        Hypervector {
            bits: BitVec::from_words(words, self.tiebreak.dim()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;

    const D: usize = 4096;

    #[test]
    fn random_vectors_are_dense_and_balanced() {
        let mut rng = seeded(1);
        let hv = Hypervector::random(D, &mut rng);
        let ones = hv.bits().count_ones() as f64 / D as f64;
        assert!((ones - 0.5).abs() < 0.05, "density {ones}");
    }

    #[test]
    fn quasi_orthogonality() {
        let mut rng = seeded(2);
        let vs: Vec<Hypervector> = (0..20).map(|_| Hypervector::random(D, &mut rng)).collect();
        for i in 0..vs.len() {
            for j in (i + 1)..vs.len() {
                let d = vs[i].normalized_hamming(&vs[j]);
                assert!((d - 0.5).abs() < 0.05, "pair ({i},{j}) distance {d}");
            }
        }
    }

    #[test]
    fn binding_is_self_inverse_and_commutative() {
        let mut rng = seeded(3);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        assert_eq!(a.bind(&b).bind(&b), a);
        assert_eq!(a.bind(&b), b.bind(&a));
        assert_eq!(a.bind(&Hypervector::zeros(D)), a);
    }

    #[test]
    fn binding_is_distance_preserving() {
        let mut rng = seeded(4);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        let c = Hypervector::random(D, &mut rng);
        assert_eq!(a.hamming(&b), a.bind(&c).hamming(&b.bind(&c)));
    }

    #[test]
    fn bound_vector_is_dissimilar_to_both_factors() {
        let mut rng = seeded(5);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        let ab = a.bind(&b);
        assert!((ab.normalized_hamming(&a) - 0.5).abs() < 0.05);
        assert!((ab.normalized_hamming(&b) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permutation_preserves_weight_and_inverts() {
        let mut rng = seeded(6);
        let a = Hypervector::random(D, &mut rng);
        let p = a.permute(17);
        assert_eq!(p.bits().count_ones(), a.bits().count_ones());
        assert_eq!(p.permute(D - 17), a);
        // A rotated vector is quasi-orthogonal to the original.
        assert!((p.normalized_hamming(&a) - 0.5).abs() < 0.05);
    }

    #[test]
    fn permutation_distributes_over_binding() {
        let mut rng = seeded(7);
        let a = Hypervector::random(D, &mut rng);
        let b = Hypervector::random(D, &mut rng);
        assert_eq!(a.bind(&b).permute(5), a.permute(5).bind(&b.permute(5)));
    }

    #[test]
    fn majority_is_similar_to_members() {
        let mut rng = seeded(8);
        let vs: Vec<Hypervector> = (0..5).map(|_| Hypervector::random(D, &mut rng)).collect();
        let refs: Vec<&Hypervector> = vs.iter().collect();
        let m = Hypervector::majority(&refs);
        let outsider = Hypervector::random(D, &mut rng);
        for v in &vs {
            let d_member = m.normalized_hamming(v);
            let d_out = m.normalized_hamming(&outsider);
            assert!(
                d_member < d_out - 0.05,
                "member {d_member} vs outsider {d_out}"
            );
        }
    }

    #[test]
    fn bundler_matches_exact_majority_for_odd_sets() {
        let mut rng = seeded(9);
        let vs: Vec<Hypervector> = (0..7).map(|_| Hypervector::random(D, &mut rng)).collect();
        let refs: Vec<&Hypervector> = vs.iter().collect();
        let exact = Hypervector::majority(&refs);
        let mut bundler = Bundler::new(D, 0);
        for v in &vs {
            bundler.add(v);
        }
        assert_eq!(bundler.finalize(), exact);
    }

    #[test]
    fn bundler_handles_even_sets_deterministically() {
        let mut rng = seeded(10);
        let vs: Vec<Hypervector> = (0..6).map(|_| Hypervector::random(D, &mut rng)).collect();
        let run = |seed| {
            let mut b = Bundler::new(D, seed);
            for v in &vs {
                b.add(v);
            }
            b.finalize()
        };
        assert_eq!(run(1), run(1));
        // Different tiebreak seeds may differ, but only on tie positions:
        // both bundles stay similar to all members.
        let m = run(1);
        for v in &vs {
            assert!(m.normalized_hamming(v) < 0.45);
        }
        assert!(Bundler::new(D, 1).is_empty());
    }

    #[test]
    #[should_panic(expected = "empty bundle")]
    fn empty_bundle_rejected() {
        let _ = Bundler::new(16, 0).finalize();
    }
}
