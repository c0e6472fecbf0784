//! Property suite pinning the word-level hyperdimensional lowering
//! against per-bit oracles kept here, one bit per `get`/`set`:
//!
//! * **rotation** — `BitVec::rotate` and `xor_rotated_assign` follow
//!   the per-bit law of ρ^k (bit `i` of the result is bit
//!   `(i + len − k) mod len` of the input) for every length and shift;
//! * **random vectors** — `Hypervector::random` packs the same
//!   `gen::<bool>()` draws, in the same order, as a per-bit build, and
//!   leaves the generator at the same next draw;
//! * **bundling** — the bit-sliced `Bundler` equals per-position `u32`
//!   counters with the `2·count > n` majority and the tie-break vector on
//!   `2·count = n`, for odd and even bundles and dimensions that are not
//!   a multiple of 64;
//! * **encoding and training** — `encode_sequence`, the streaming
//!   `encode_stream` and the `LanguageTask::train` prototypes equal an
//!   oracle n-gram encoder built from the per-bit parts.

use cim_repro::cim_hdc::encoder::NgramEncoder;
use cim_repro::cim_hdc::hypervector::{Bundler, Hypervector};
use cim_repro::cim_hdc::item_memory::ItemMemory;
use cim_repro::cim_hdc::lang::{LanguageTask, SyntheticLanguage, ALPHABET};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// Tie-break seed of the bundle `NgramEncoder` encodes a sequence into.
const SEQUENCE_TIEBREAK: u64 = 0x9e37;
/// Item-memory seed `LanguageTask::train` draws the letter vectors from.
const LANGUAGE_ITEMS: u64 = 0x1e77e4;
/// Tie-break seed of class 0's bundle in `AssociativeMemory`.
const CLASS_TIEBREAK: u64 = 0xA550C;

/// Per-bit ρ^k.
fn rotate_oracle(v: &BitVec, k: usize) -> BitVec {
    let len = v.len();
    BitVec::from_fn(len, |i| v.get((i + len - k % len) % len))
}

/// Per-bit random vector: bit `i` is the `i`-th draw.
fn random_oracle(d: usize, rng: &mut StdRng) -> BitVec {
    BitVec::from_fn(d, |_| rng.gen::<bool>())
}

/// Per-position `u32` counters with a per-bit tie-break vector.
struct OracleBundle {
    counts: Vec<u32>,
    n: u32,
    tiebreak: BitVec,
}

impl OracleBundle {
    fn new(d: usize, tiebreak_seed: u64) -> Self {
        OracleBundle {
            counts: vec![0; d],
            n: 0,
            tiebreak: random_oracle(d, &mut seeded(tiebreak_seed)),
        }
    }

    fn add(&mut self, v: &BitVec) {
        for (i, count) in self.counts.iter_mut().enumerate() {
            *count += u32::from(v.get(i));
        }
        self.n += 1;
    }

    fn finalize(&self) -> BitVec {
        BitVec::from_fn(self.counts.len(), |i| {
            let twice = 2 * self.counts[i];
            if twice == self.n {
                self.tiebreak.get(i)
            } else {
                twice > self.n
            }
        })
    }
}

/// `symbols` per-bit random item vectors drawn from one seeded stream.
fn items_oracle(symbols: usize, d: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = seeded(seed);
    (0..symbols).map(|_| random_oracle(d, &mut rng)).collect()
}

/// The oracle n-gram encoder: every window binds
/// `ρ^{n−1}(L₁) ⊗ … ⊗ Lₙ` through per-bit rotations, and the windows
/// bundle into per-position counters.
fn encode_oracle(items: &[BitVec], n: usize, symbols: &[usize]) -> BitVec {
    let d = items[0].len();
    let mut bundle = OracleBundle::new(d, SEQUENCE_TIEBREAK);
    for window in symbols.windows(n) {
        let mut gram = BitVec::zeros(d);
        for (i, &s) in window.iter().enumerate() {
            gram = gram.xor(&rotate_oracle(&items[s], n - 1 - i));
        }
        bundle.add(&gram);
    }
    bundle.finalize()
}

/// A random vector of density `p`: 0 and 1 give constant vectors, whose
/// counts run to the bundle size and exercise the top counter plane.
fn biased(d: usize, p: f64, rng: &mut StdRng) -> BitVec {
    BitVec::from_fn(d, |_| rng.gen_bool(p))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn rotate_follows_the_per_bit_law(len in 1usize..=300, k in 0usize..=900, seed in any::<u64>()) {
        let mut rng = seeded(seed);
        let k = k % (3 * len + 1);
        let v = random_oracle(len, &mut rng);
        let expected = rotate_oracle(&v, k);
        prop_assert_eq!(v.rotate(k), expected.clone(), "len {} k {}", len, k);
        let mut acc = random_oracle(len, &mut rng);
        let bound = acc.xor(&expected);
        acc.xor_rotated_assign(&v, k);
        prop_assert_eq!(acc, bound, "len {} k {}", len, k);
    }

    #[test]
    fn random_packs_the_per_bit_draws(d in 1usize..=300, seed in any::<u64>()) {
        let (mut packed, mut per_bit) = (seeded(seed), seeded(seed));
        prop_assert_eq!(
            Hypervector::random(d, &mut packed).bits().clone(),
            random_oracle(d, &mut per_bit)
        );
        prop_assert_eq!(packed.gen::<u64>(), per_bit.gen::<u64>(), "d {}", d);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bundler_matches_per_position_counters(
        d in 1usize..=200,
        adds in 1usize..=600,
        density in 0usize..5,
        seed in any::<u64>(),
    ) {
        let p = [0.0, 0.1, 0.5, 0.9, 1.0][density];
        let mut rng = seeded(seed);
        let mut bundler = Bundler::new(d, seed);
        let mut oracle = OracleBundle::new(d, seed);
        for _ in 0..adds {
            let v = biased(d, p, &mut rng);
            bundler.add(&Hypervector::from_bits(v.clone()));
            oracle.add(&v);
        }
        prop_assert_eq!(bundler.len() as usize, adds);
        prop_assert_eq!(
            bundler.finalize().bits().clone(),
            oracle.finalize(),
            "d {} adds {} p {}", d, adds, p
        );
    }

    #[test]
    fn encode_sequence_matches_the_oracle_encoder(
        d in 1usize..=260,
        n in 1usize..=5,
        extra in 0usize..=120,
        seed in any::<u64>(),
    ) {
        let encoder = NgramEncoder::new(ItemMemory::new(ALPHABET, d, seed), n);
        let items = items_oracle(ALPHABET, d, seed);
        let mut rng = seeded(seed ^ 0x5eed);
        let text: Vec<usize> = (0..n + extra).map(|_| rng.gen_range(0..ALPHABET)).collect();
        let expected = encode_oracle(&items, n, &text);
        prop_assert_eq!(
            encoder.encode_sequence(&text).bits().clone(),
            expected.clone(),
            "d {} n {} len {}", d, n, text.len()
        );
        prop_assert_eq!(encoder.encode_stream(text.iter().copied()).bits().clone(), expected);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn train_prototypes_match_the_oracle_encoder(
        classes in 1usize..=4,
        d in 16usize..=300,
        n in 1usize..=4,
        extra in 1usize..=200,
        seed in any::<u64>(),
    ) {
        let train_len = n + extra;
        let mut task = LanguageTask::train(classes, d, n, train_len, seed);
        let items = items_oracle(ALPHABET, d, LANGUAGE_ITEMS);
        let mut rng = seeded(seed);
        for (c, proto) in task.memory.finalize().iter().enumerate() {
            let text = SyntheticLanguage::new(c as u64).sample_text(train_len, &mut rng);
            let mut class = OracleBundle::new(d, CLASS_TIEBREAK + c as u64);
            class.add(&encode_oracle(&items, n, &text));
            prop_assert_eq!(proto.bits().clone(), class.finalize(), "class {}", c);
        }
    }

    #[test]
    fn streamed_symbols_are_the_sampled_text(id in 0u64..21, len in 0usize..=400, seed in any::<u64>()) {
        let lang = SyntheticLanguage::new(id);
        let (mut streamed, mut sampled) = (seeded(seed), seeded(seed));
        let text = lang.sample_text(len, &mut sampled);
        prop_assert_eq!(lang.symbols(len, &mut streamed).collect::<Vec<_>>(), text);
        prop_assert_eq!(streamed.gen::<u64>(), sampled.gen::<u64>());
    }
}

/// A vector bundled with its complement ties at every position, so the
/// bundle is exactly the tie-break vector.
#[test]
fn even_ties_take_the_tiebreak_bit() {
    for d in [1, 63, 64, 65, 200, 1024] {
        for seed in 0..4 {
            let v = random_oracle(d, &mut seeded(seed + 100));
            let mut bundler = Bundler::new(d, seed);
            bundler.add(&Hypervector::from_bits(v.clone()));
            bundler.add(&Hypervector::from_bits(v.not()));
            let tiebreak = random_oracle(d, &mut seeded(seed));
            assert_eq!(bundler.finalize().bits(), &tiebreak, "d {d} seed {seed}");
        }
    }
}
