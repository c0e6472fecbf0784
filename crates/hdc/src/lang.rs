//! Language recognition on synthetic corpora (Fig. 8(a), 21 classes).
//!
//! The paper's language-identification task uses 21 European languages.
//! Those corpora are not redistributable here, so, as a substitution,
//! each "language" is an order-2 character Markov chain over
//! a 27-symbol alphabet (a–z plus space) with its own sharpened random
//! transition statistics. What the HD experiment measures is the
//! classifier's ability to separate sources by n-gram statistics, which
//! the substitution preserves by construction.

use crate::assoc::AssociativeMemory;
use crate::encoder::NgramEncoder;
use crate::item_memory::ItemMemory;
use cim_simkit::rng::{categorical, seeded};
use rand::rngs::StdRng;
use rand::Rng;

/// Alphabet size: a–z plus space.
pub const ALPHABET: usize = 27;

/// The paper's class count.
pub const PAPER_LANGUAGES: usize = 21;

/// Successors retained per order-2 context (natural-language-like
/// branching factor).
pub const SUCCESSORS_PER_CONTEXT: usize = 5;

/// A synthetic language: an order-2 Markov chain over the alphabet.
#[derive(Debug, Clone)]
pub struct SyntheticLanguage {
    /// Transition weights `[prev2][prev1][next]`, sharpened so each
    /// context strongly prefers a few successors (as natural languages
    /// do).
    transitions: Vec<f64>,
}

impl SyntheticLanguage {
    /// Generates language `id`'s transition table deterministically.
    pub fn new(id: u64) -> Self {
        let mut rng = seeded(0x1A96 + id * 7919);
        let mut transitions = vec![0.0; ALPHABET * ALPHABET * ALPHABET];
        for ctx in 0..ALPHABET * ALPHABET {
            let row = &mut transitions[ctx * ALPHABET..(ctx + 1) * ALPHABET];
            // Natural languages have a small branching factor per
            // context: draw sharpened weights, then keep only the top
            // successors so each language owns a distinctive n-gram set.
            for w in row.iter_mut() {
                let u: f64 = rng.gen();
                *w = u * u * u;
            }
            let mut ranked = [0.0; ALPHABET];
            ranked.copy_from_slice(row);
            let (_, &mut cutoff, _) =
                ranked.select_nth_unstable_by(SUCCESSORS_PER_CONTEXT - 1, |a, b| b.total_cmp(a));
            for w in row.iter_mut() {
                if *w < cutoff {
                    *w = 0.0;
                }
            }
        }
        SyntheticLanguage { transitions }
    }

    /// Samples a text of `len` symbols.
    pub fn sample_text<R: Rng + ?Sized>(&self, len: usize, rng: &mut R) -> Vec<usize> {
        self.symbols(len, rng).collect()
    }

    /// Samples a text of `len` symbols lazily, one symbol per `next`:
    /// the same draws in the same order as
    /// [`SyntheticLanguage::sample_text`], so a long text can stream
    /// into [`NgramEncoder::encode_stream`] without being stored.
    pub fn symbols<'a, R: Rng + ?Sized>(
        &'a self,
        len: usize,
        rng: &'a mut R,
    ) -> impl Iterator<Item = usize> + 'a {
        let mut p2 = rng.gen_range(0..ALPHABET);
        let mut p1 = rng.gen_range(0..ALPHABET);
        (0..len).map(move |_| {
            let ctx = p2 * ALPHABET + p1;
            let next = categorical(rng, &self.transitions[ctx * ALPHABET..(ctx + 1) * ALPHABET]);
            p2 = p1;
            p1 = next;
            next
        })
    }
}

/// A trained HD language classifier with its held-out evaluation.
#[derive(Debug)]
pub struct LanguageTask {
    /// The synthetic languages.
    pub languages: Vec<SyntheticLanguage>,
    /// The trained encoder.
    pub encoder: NgramEncoder,
    /// The trained associative memory.
    pub memory: AssociativeMemory,
    rng: StdRng,
}

impl LanguageTask {
    /// Builds and trains a classifier: `classes` languages, dimension
    /// `d`, `ngram`-gram encoding, `train_len` training symbols per
    /// language.
    ///
    /// # Panics
    ///
    /// Panics if any size parameter is zero.
    pub fn train(classes: usize, d: usize, ngram: usize, train_len: usize, seed: u64) -> Self {
        assert!(classes > 0 && train_len > ngram, "degenerate task");
        let languages: Vec<SyntheticLanguage> = (0..classes)
            .map(|c| SyntheticLanguage::new(c as u64))
            .collect();
        let encoder = NgramEncoder::new(ItemMemory::new(ALPHABET, d, 0x1e77e4), ngram);
        let mut memory = AssociativeMemory::new(classes, d);
        let mut rng = seeded(seed);
        for (c, lang) in languages.iter().enumerate() {
            memory.train(c, &encoder.encode_stream(lang.symbols(train_len, &mut rng)));
        }
        LanguageTask {
            languages,
            encoder,
            memory,
            rng,
        }
    }

    /// Classifies one fresh sample of `len` symbols from language
    /// `class`, returning the predicted label.
    pub fn classify_sample(&mut self, class: usize, len: usize) -> usize {
        let query = self
            .encoder
            .encode_stream(self.languages[class].symbols(len, &mut self.rng));
        self.memory.classify(&query).0
    }

    /// Evaluates accuracy over `per_class` fresh samples of `len`
    /// symbols per language.
    pub fn accuracy(&mut self, per_class: usize, len: usize) -> f64 {
        let classes = self.languages.len();
        let mut correct = 0usize;
        for c in 0..classes {
            for _ in 0..per_class {
                if self.classify_sample(c, len) == c {
                    correct += 1;
                }
            }
        }
        correct as f64 / (classes * per_class) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn languages_differ_statistically() {
        let a = SyntheticLanguage::new(0);
        let b = SyntheticLanguage::new(1);
        let mut rng = seeded(1);
        let ta = a.sample_text(500, &mut rng);
        let tb = b.sample_text(500, &mut rng);
        // Unigram histograms must differ noticeably.
        let hist = |t: &[usize]| {
            let mut h = vec![0f64; ALPHABET];
            for &s in t {
                h[s] += 1.0;
            }
            h
        };
        let (ha, hb) = (hist(&ta), hist(&tb));
        let l1: f64 = ha.iter().zip(&hb).map(|(x, y)| (x - y).abs()).sum();
        assert!(l1 > 100.0, "unigram histogram L1 distance {l1}");
    }

    #[test]
    fn symbols_stay_in_alphabet() {
        let lang = SyntheticLanguage::new(3);
        let mut rng = seeded(2);
        let text = lang.sample_text(1000, &mut rng);
        assert!(text.iter().all(|&s| s < ALPHABET));
    }

    #[test]
    fn eight_language_accuracy_is_high() {
        // A reduced instance for test speed; the bench runs the paper's
        // 21 languages at d = 10,000.
        let mut task = LanguageTask::train(8, 4096, 3, 2000, 5);
        let acc = task.accuracy(6, 300);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn longer_queries_are_easier() {
        let mut task = LanguageTask::train(6, 2048, 3, 1500, 6);
        let short = task.accuracy(8, 40);
        let long = task.accuracy(8, 400);
        assert!(
            long >= short - 0.05,
            "long-query accuracy {long} vs short {short}"
        );
        assert!(long > 0.85, "long-query accuracy {long}");
    }

    #[test]
    fn higher_dimension_helps_or_saturates() {
        let mut small = LanguageTask::train(6, 512, 3, 1500, 7);
        let mut big = LanguageTask::train(6, 8192, 3, 1500, 7);
        let acc_small = small.accuracy(6, 100);
        let acc_big = big.accuracy(6, 100);
        assert!(
            acc_big >= acc_small - 0.05,
            "big {acc_big} vs small {acc_small}"
        );
    }
}
