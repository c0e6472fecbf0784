//! A packed, fixed-length bit vector.
//!
//! [`BitVec`] stores bits in `u64` words and provides the bulk bitwise
//! operations (`AND`, `OR`, `XOR`, `NOT`, majority) that the bitmap
//! database, the one-time-pad cipher, scouting logic and hyperdimensional
//! computing are built from. Operations over whole vectors work one word at
//! a time, which is also how the CPU baselines in the benchmarks execute.
//!
//! # Example
//!
//! ```
//! use cim_simkit::bitvec::BitVec;
//!
//! let mut v = BitVec::zeros(130);
//! v.set(0, true);
//! v.set(129, true);
//! assert_eq!(v.count_ones(), 2);
//! assert!(v.get(129));
//!
//! let w = BitVec::ones(130);
//! assert_eq!(v.and(&w), v);
//! assert_eq!(v.or(&w), w);
//! ```

use std::fmt;

const WORD_BITS: usize = 64;

/// A fixed-length vector of bits packed into `u64` words.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct BitVec {
    words: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// Creates a vector of `len` zero bits.
    pub fn zeros(len: usize) -> Self {
        BitVec {
            words: vec![0; len.div_ceil(WORD_BITS)],
            len,
        }
    }

    /// Creates a vector of `len` one bits.
    pub fn ones(len: usize) -> Self {
        let mut v = BitVec {
            words: vec![!0u64; len.div_ceil(WORD_BITS)],
            len,
        };
        v.mask_tail();
        v
    }

    /// Builds a vector from a slice of booleans.
    pub fn from_bools(bits: &[bool]) -> Self {
        let mut v = BitVec::zeros(bits.len());
        for (i, &b) in bits.iter().enumerate() {
            if b {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector of `len` bits from a closure mapping index → bit.
    pub fn from_fn(len: usize, mut f: impl FnMut(usize) -> bool) -> Self {
        let mut v = BitVec::zeros(len);
        for i in 0..len {
            if f(i) {
                v.set(i, true);
            }
        }
        v
    }

    /// Builds a vector of `len` bits directly from packed `u64` words
    /// (bit `i` lives at `words[i / 64] >> (i % 64)`). Bits beyond `len`
    /// in the last word are cleared.
    ///
    /// This is the word-parallel construction path: simulators that
    /// compute 64 columns per machine word hand their result words over
    /// without a per-bit [`BitVec::set`] loop.
    ///
    /// # Panics
    ///
    /// Panics if `words.len() != len.div_ceil(64)`.
    pub fn from_words(words: Vec<u64>, len: usize) -> Self {
        assert_eq!(
            words.len(),
            len.div_ceil(WORD_BITS),
            "word count does not match bit length {len}"
        );
        let mut v = BitVec { words, len };
        v.mask_tail();
        v
    }

    /// Consumes the vector, returning its packed words (the inverse of
    /// [`BitVec::from_words`]; the last word's unused high bits are zero).
    pub fn into_words(self) -> Vec<u64> {
        self.words
    }

    /// Builds a vector from packed bytes, least-significant bit first.
    /// The resulting length is `bytes.len() * 8`.
    pub fn from_bytes(bytes: &[u8]) -> Self {
        let mut v = BitVec::zeros(bytes.len() * 8);
        for (i, &b) in bytes.iter().enumerate() {
            v.words[i / 8] |= (b as u64) << ((i % 8) * 8);
        }
        v
    }

    /// Serializes to packed bytes, least-significant bit first.
    /// The length is padded up to a whole number of bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let n_bytes = self.len.div_ceil(8);
        let mut out = Vec::with_capacity(n_bytes);
        for i in 0..n_bytes {
            let word = self.words[i / 8];
            out.push(((word >> ((i % 8) * 8)) & 0xFF) as u8);
        }
        out
    }

    /// The number of bits in the vector.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if the vector holds no bits.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The backing words (last word's unused high bits are zero).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Reads the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn get(&self, index: usize) -> bool {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        (self.words[index / WORD_BITS] >> (index % WORD_BITS)) & 1 == 1
    }

    /// Writes the bit at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= len`.
    pub fn set(&mut self, index: usize, value: bool) {
        assert!(
            index < self.len,
            "bit index {index} out of range {}",
            self.len
        );
        let mask = 1u64 << (index % WORD_BITS);
        if value {
            self.words[index / WORD_BITS] |= mask;
        } else {
            self.words[index / WORD_BITS] &= !mask;
        }
    }

    /// The number of set bits.
    pub fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// The number of clear bits.
    pub fn count_zeros(&self) -> usize {
        self.len - self.count_ones()
    }

    /// Bitwise AND with another vector of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a & b)
    }

    /// Bitwise OR with another vector of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a | b)
    }

    /// Bitwise XOR with another vector of equal length.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor(&self, other: &Self) -> Self {
        self.zip_words(other, |a, b| a ^ b)
    }

    /// Bitwise complement (respecting the logical length).
    pub fn not(&self) -> Self {
        let mut out = BitVec {
            words: self.words.iter().map(|w| !w).collect(),
            len: self.len,
        };
        out.mask_tail();
        out
    }

    /// In-place AND (the CPU-baseline inner loop of bitmap queries).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= *b;
        }
    }

    /// In-place OR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= *b;
        }
    }

    /// In-place XOR.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a ^= *b;
        }
    }

    /// Bitwise majority of an odd number of equal-length vectors — the HD
    /// computing "addition" (componentwise majority with no tie possible).
    ///
    /// # Panics
    ///
    /// Panics if `vs` is empty, lengths differ, or `vs.len()` is even.
    pub fn majority(vs: &[&Self]) -> Self {
        assert!(!vs.is_empty(), "majority of zero vectors");
        assert!(
            vs.len() % 2 == 1,
            "majority requires an odd count, got {}",
            vs.len()
        );
        let len = vs[0].len;
        for v in vs {
            assert_eq!(v.len, len, "bit vector length mismatch");
        }
        let threshold = vs.len() / 2;
        BitVec::from_fn(len, |i| {
            let ones = vs.iter().filter(|v| v.get(i)).count();
            ones > threshold
        })
    }

    /// Cyclic rotation left by `k` positions — the HD computing permutation
    /// operation ρ. Bit `i` of the result equals bit `(i + len - k) % len`
    /// of the input, i.e. every bit moves *up* by `k`.
    ///
    /// Works on whole words. With `k` reduced mod `len`, the result is
    /// `(x << k) | (x >> (len − k))` cut to `len` bits, where `x` is the
    /// vector read as one `len`-bit integer. The left shift carries bit
    /// `j < len − k` up to `j + k`; the right shift wraps bit
    /// `j ≥ len − k` round to `j + k − len`. Together they place every
    /// input bit where the per-bit law puts it, and each output word
    /// reads at most two input words per shift, so a rotation costs
    /// O(len / 64) word operations.
    pub fn rotate(&self, k: usize) -> Self {
        let mut out = BitVec::zeros(self.len);
        out.xor_rotated_assign(self, k);
        out
    }

    /// In-place `self ^= src.rotate(k)`, without materializing the
    /// rotated vector: the HD computing bind of a permuted vector into
    /// an accumulator. Each rotated word is built from `src`'s words as
    /// in [`BitVec::rotate`] and XORed straight into `self`.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn xor_rotated_assign(&mut self, src: &Self, k: usize) {
        assert_eq!(self.len, src.len, "bit vector length mismatch");
        if self.len == 0 {
            return;
        }
        let k = k % self.len;
        for (w, out) in self.words.iter_mut().enumerate() {
            *out ^= shl_word(&src.words, k, w) | shr_word(&src.words, self.len - k, w);
        }
        // The left shift also carries bits past `len`, into the tail.
        self.mask_tail();
    }

    /// Bits `start..start + take` of `self`, zero-padded to a vector of
    /// `len` bits: bit `j` of the result is bit `start + j` of `self` for
    /// `j < take`, and zero from `take` on. This is how an operand lands
    /// in a wider tile row. It is built from whole shifted words with the
    /// last one masked at `take`, so it costs `O(len / 64)` word
    /// operations where a [`BitVec::from_fn`] copy tests every bit.
    ///
    /// # Panics
    ///
    /// Panics if `take > len` or the window runs past the end of `self`.
    pub fn window(&self, start: usize, take: usize, len: usize) -> Self {
        assert!(take <= len, "a {take}-bit window overflows {len} bits");
        assert!(
            start.checked_add(take).is_some_and(|end| end <= self.len),
            "window {start}..{start}+{take} out of range {}",
            self.len
        );
        let mut out = BitVec::zeros(len);
        for (w, word) in out.words[..take.div_ceil(WORD_BITS)].iter_mut().enumerate() {
            *word = shr_word(&self.words, start, w);
        }
        // The last shifted word also carries source bits from past the
        // window; clear them.
        let rem = take % WORD_BITS;
        if rem != 0 {
            out.words[take / WORD_BITS] &= (1u64 << rem) - 1;
        }
        out
    }

    /// Hamming distance (count of differing positions).
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn hamming(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a ^ b).count_ones() as usize)
            .sum()
    }

    /// Dot product of the two vectors viewed as 0/1 integer vectors — the
    /// quantity an analog crossbar column produces when one vector drives
    /// the rows and the other is stored as device states.
    ///
    /// # Panics
    ///
    /// Panics if the lengths differ.
    pub fn dot(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterator over the indices of set bits in ascending order.
    pub fn iter_ones(&self) -> IterOnes<'_> {
        IterOnes {
            vec: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Expands into a `Vec<bool>`.
    pub fn to_bools(&self) -> Vec<bool> {
        (0..self.len).map(|i| self.get(i)).collect()
    }

    fn zip_words(&self, other: &Self, f: impl Fn(u64, u64) -> u64) -> Self {
        assert_eq!(self.len, other.len, "bit vector length mismatch");
        BitVec {
            words: self
                .words
                .iter()
                .zip(&other.words)
                .map(|(&a, &b)| f(a, b))
                .collect(),
            len: self.len,
        }
    }

    /// Clears bits beyond the logical length in the last word.
    fn mask_tail(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Word `w` of `x << s`, where `x` is the integer whose bit `i` is
/// `words[i / 64] >> (i % 64)`.
fn shl_word(words: &[u64], s: usize, w: usize) -> u64 {
    let (q, r) = (s / WORD_BITS, s % WORD_BITS);
    if w < q {
        return 0;
    }
    let lo = words[w - q] << r;
    if r == 0 || w == q {
        lo
    } else {
        lo | words[w - q - 1] >> (WORD_BITS - r)
    }
}

/// Word `w` of `x >> s`, for `x` as in [`shl_word`]; words past the end
/// read as zero.
fn shr_word(words: &[u64], s: usize, w: usize) -> u64 {
    let (q, r) = (s / WORD_BITS, s % WORD_BITS);
    let at = |i: usize| words.get(i).copied().unwrap_or(0);
    let lo = at(w + q) >> r;
    if r == 0 {
        lo
    } else {
        lo | at(w + q + 1) << (WORD_BITS - r)
    }
}

impl fmt::Debug for BitVec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BitVec[{}; ", self.len)?;
        let shown = self.len.min(64);
        for i in 0..shown {
            write!(f, "{}", if self.get(i) { '1' } else { '0' })?;
        }
        if self.len > shown {
            write!(f, "…")?;
        }
        write!(f, "]")
    }
}

impl FromIterator<bool> for BitVec {
    fn from_iter<I: IntoIterator<Item = bool>>(iter: I) -> Self {
        let bits: Vec<bool> = iter.into_iter().collect();
        BitVec::from_bools(&bits)
    }
}

/// Iterator over set-bit indices, produced by [`BitVec::iter_ones`].
#[derive(Debug, Clone)]
pub struct IterOnes<'a> {
    vec: &'a BitVec,
    word_idx: usize,
    current: u64,
}

impl Iterator for IterOnes<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.vec.words.len() {
                return None;
            }
            self.current = self.vec.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_counts() {
        let z = BitVec::zeros(100);
        assert_eq!(z.len(), 100);
        assert_eq!(z.count_ones(), 0);
        assert_eq!(z.count_zeros(), 100);
        let o = BitVec::ones(100);
        assert_eq!(o.count_ones(), 100);
        assert_eq!(o.count_zeros(), 0);
    }

    #[test]
    fn ones_masks_tail_word() {
        // 65 bits spans two words; the second word must hold exactly 1 bit.
        let o = BitVec::ones(65);
        assert_eq!(o.count_ones(), 65);
        assert_eq!(o.words()[1], 1);
    }

    #[test]
    fn get_set_round_trip() {
        let mut v = BitVec::zeros(200);
        v.set(0, true);
        v.set(63, true);
        v.set(64, true);
        v.set(199, true);
        assert!(v.get(0) && v.get(63) && v.get(64) && v.get(199));
        assert!(!v.get(1) && !v.get(65));
        v.set(63, false);
        assert!(!v.get(63));
        assert_eq!(v.count_ones(), 3);
    }

    #[test]
    fn boolean_ops_match_elementwise() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.and(&b).to_bools(), vec![true, false, false, false]);
        assert_eq!(a.or(&b).to_bools(), vec![true, true, true, false]);
        assert_eq!(a.xor(&b).to_bools(), vec![false, true, true, false]);
        assert_eq!(a.not().to_bools(), vec![false, false, true, true]);
    }

    #[test]
    fn not_respects_length() {
        let v = BitVec::zeros(70);
        let n = v.not();
        assert_eq!(n.count_ones(), 70);
        // Unused tail bits must stay zero so count_ones stays truthful.
        assert_eq!(n.words()[1] >> 6, 0);
    }

    #[test]
    fn in_place_ops() {
        let mut a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        a.and_assign(&b);
        assert_eq!(a.to_bools(), vec![true, false, false, false]);
        a.or_assign(&b);
        assert_eq!(a.to_bools(), vec![true, false, true, false]);
        a.xor_assign(&b);
        assert_eq!(a.count_ones(), 0);
    }

    #[test]
    fn majority_of_three() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        let c = BitVec::from_bools(&[true, false, false, true]);
        let m = BitVec::majority(&[&a, &b, &c]);
        assert_eq!(m.to_bools(), vec![true, false, false, false]);
    }

    #[test]
    #[should_panic(expected = "odd count")]
    fn majority_requires_odd() {
        let a = BitVec::zeros(4);
        let b = BitVec::zeros(4);
        let _ = BitVec::majority(&[&a, &b]);
    }

    #[test]
    fn rotation_is_cyclic() {
        let v = BitVec::from_bools(&[true, false, false, false, false]);
        let r = v.rotate(2);
        assert_eq!(r.to_bools(), vec![false, false, true, false, false]);
        assert_eq!(v.rotate(5), v);
        assert_eq!(v.rotate(7), v.rotate(2));
    }

    #[test]
    fn word_rotation_follows_the_per_bit_law() {
        let v = BitVec::from_fn(130, |i| i % 7 == 0 || i == 129);
        for k in [1, 63, 64, 65, 127, 128, 129, 130, 131, 300] {
            let r = v.rotate(k);
            for i in 0..130 {
                assert_eq!(r.get(i), v.get((i + 130 - k % 130) % 130), "k {k} bit {i}");
            }
            let mut acc = BitVec::ones(130);
            acc.xor_rotated_assign(&v, k);
            assert_eq!(acc, r.not(), "k {k}");
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn window_matches_the_per_bit_copy(
            src_len in 0usize..300,
            pick in proptest::prelude::any::<u64>(),
            extra in 0usize..140,
            seed in proptest::prelude::any::<u64>(),
        ) {
            use rand::Rng;
            let mut rng = crate::rng::seeded(seed);
            let src = BitVec::from_fn(src_len, |_| rng.gen());
            let start = (pick % (src_len as u64 + 1)) as usize;
            let take = ((pick >> 20) % ((src_len - start) as u64 + 1)) as usize;
            let len = take + extra;
            let want = BitVec::from_fn(len, |j| j < take && src.get(start + j));
            // Equal words: the tail past `take`, and past `len` in the
            // last word, is zero as well.
            proptest::prop_assert_eq!(src.window(start, take, len), want);
        }
    }

    #[test]
    fn window_edges() {
        let src = BitVec::ones(200);
        assert_eq!(src.window(0, 0, 70), BitVec::zeros(70));
        assert_eq!(src.window(200, 0, 1), BitVec::zeros(1));
        assert_eq!(src.window(0, 200, 200), src);
        let w = src.window(63, 65, 128);
        assert_eq!(w.words(), &[!0u64, 1]);
        assert_eq!(src.window(136, 64, 64), BitVec::ones(64));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn window_past_the_end_panics() {
        let _ = BitVec::zeros(100).window(40, 61, 128);
    }

    #[test]
    fn hamming_and_dot() {
        let a = BitVec::from_bools(&[true, true, false, false]);
        let b = BitVec::from_bools(&[true, false, true, false]);
        assert_eq!(a.hamming(&b), 2);
        assert_eq!(a.dot(&b), 1);
        assert_eq!(a.hamming(&a), 0);
        assert_eq!(a.dot(&a), 2);
    }

    #[test]
    fn iter_ones_yields_indices() {
        let mut v = BitVec::zeros(150);
        for &i in &[3, 64, 127, 149] {
            v.set(i, true);
        }
        let ones: Vec<usize> = v.iter_ones().collect();
        assert_eq!(ones, vec![3, 64, 127, 149]);
    }

    #[test]
    fn words_round_trip() {
        let v = BitVec::from_fn(130, |i| i % 3 == 0);
        let w = BitVec::from_words(v.words().to_vec(), 130);
        assert_eq!(w, v);
        assert_eq!(w.clone().into_words(), v.words().to_vec());
    }

    #[test]
    fn from_words_masks_tail() {
        let v = BitVec::from_words(vec![!0u64, !0u64], 70);
        assert_eq!(v.count_ones(), 70);
        assert_eq!(v.words()[1] >> 6, 0);
    }

    #[test]
    #[should_panic(expected = "word count")]
    fn from_words_rejects_wrong_count() {
        let _ = BitVec::from_words(vec![0u64], 70);
    }

    #[test]
    fn bytes_round_trip() {
        let bytes = [0xDEu8, 0xAD, 0xBE, 0xEF, 0x01, 0x80, 0x00, 0xFF, 0x42];
        let v = BitVec::from_bytes(&bytes);
        assert_eq!(v.len(), 72);
        assert_eq!(v.to_bytes(), bytes.to_vec());
    }

    #[test]
    fn from_iterator_collect() {
        let v: BitVec = (0..10).map(|i| i % 2 == 0).collect();
        assert_eq!(v.count_ones(), 5);
        assert!(v.get(0) && !v.get(1));
    }

    #[test]
    fn debug_is_nonempty() {
        let v = BitVec::zeros(4);
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        let _ = BitVec::zeros(4).and(&BitVec::zeros(5));
    }

    #[test]
    fn empty_vector() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        assert_eq!(v.count_ones(), 0);
        assert_eq!(v.rotate(3), v);
        assert_eq!(v.iter_ones().count(), 0);
    }
}
