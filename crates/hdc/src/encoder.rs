//! HD encoders: n-gram text encoding and multi-channel biosignals.
//!
//! Fig. 8(a): language recognition maps each letter through the item
//! memory and encodes the text as the bundle of its letter n-grams,
//! where an n-gram binds permuted letter vectors:
//! `G = ρ^{n−1}(L₁) ⊗ ρ^{n−2}(L₂) ⊗ … ⊗ Lₙ`.
//!
//! Fig. 8(b): biosignal processing encodes each time step as the bundle
//! over channels of `channel_id ⊗ level(amplitude)` and the recording as
//! the bundle of its time-step records.

use crate::hypervector::{Bundler, Hypervector};
use crate::item_memory::{ContinuousItemMemory, ItemMemory};
use std::collections::VecDeque;

/// The n-gram text encoder of Fig. 8(a).
#[derive(Debug, Clone)]
pub struct NgramEncoder {
    item_memory: ItemMemory,
    n: usize,
}

impl NgramEncoder {
    /// Creates an encoder with `n`-grams over the given item memory.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0`.
    pub fn new(item_memory: ItemMemory, n: usize) -> Self {
        assert!(n > 0, "n-gram size must be nonzero");
        NgramEncoder { item_memory, n }
    }

    /// The item memory in use.
    pub fn item_memory(&self) -> &ItemMemory {
        &self.item_memory
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.item_memory.dim()
    }

    /// n-gram size.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Encodes one n-gram window of symbols.
    ///
    /// # Panics
    ///
    /// Panics if `window.len() != n` or a symbol is out of range.
    pub fn encode_ngram(&self, window: &[usize]) -> Hypervector {
        assert_eq!(window.len(), self.n, "window must hold exactly n symbols");
        self.bind_window(window.iter().copied())
    }

    /// `ρ^{n−1}(L₁) ⊗ … ⊗ Lₙ` over a window of `n` symbols, each rotated
    /// item vector XORed straight into one accumulator.
    fn bind_window(&self, window: impl Iterator<Item = usize>) -> Hypervector {
        let mut acc = Hypervector::zeros(self.dim());
        for (i, symbol) in window.enumerate() {
            acc.bind_permuted_assign(self.item_memory.get(symbol), self.n - 1 - i);
        }
        acc
    }

    /// Encodes a symbol sequence as the bundle of all its n-grams.
    ///
    /// # Panics
    ///
    /// Panics if the sequence is shorter than `n`.
    pub fn encode_sequence(&self, symbols: &[usize]) -> Hypervector {
        self.encode_stream(symbols.iter().copied())
    }

    /// Encodes a symbol stream as the bundle of all its n-grams, the
    /// same vector [`NgramEncoder::encode_sequence`] gives for the
    /// collected stream. Only a rolling window of the last `n` symbols
    /// is held, so the stream's length sizes no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the stream yields fewer than `n` symbols, more than
    /// `u32::MAX` n-grams, or a symbol out of range.
    pub fn encode_stream(&self, symbols: impl IntoIterator<Item = usize>) -> Hypervector {
        let mut window = VecDeque::with_capacity(self.n);
        let mut bundler = Bundler::new(self.dim(), 0x9e37);
        for symbol in symbols {
            if window.len() == self.n {
                window.pop_front();
            }
            window.push_back(symbol);
            if window.len() == self.n {
                bundler.add(&self.bind_window(window.iter().copied()));
            }
        }
        assert!(
            window.len() == self.n,
            "sequence of {} symbols shorter than n = {}",
            window.len(),
            self.n
        );
        bundler.finalize()
    }

    /// Number of MAP operations one sequence encoding performs —
    /// the workload figure the cost model consumes.
    pub fn map_ops_for(&self, sequence_len: usize) -> usize {
        let ngrams = sequence_len.saturating_sub(self.n - 1);
        // Per n-gram: n permutations + n−1 XORs; plus one bundling add
        // per n-gram (counted as one op) and the final threshold.
        ngrams * (2 * self.n - 1) + ngrams + 1
    }
}

/// The multi-channel biosignal encoder of Fig. 8(b).
#[derive(Debug, Clone)]
pub struct BiosignalEncoder {
    channel_memory: ItemMemory,
    level_memory: ContinuousItemMemory,
}

impl BiosignalEncoder {
    /// Creates an encoder for `channels` input channels with the given
    /// continuous level memory.
    ///
    /// # Panics
    ///
    /// Panics if the two memories disagree on dimension.
    pub fn new(channel_memory: ItemMemory, level_memory: ContinuousItemMemory) -> Self {
        assert_eq!(
            channel_memory.dim(),
            level_memory.dim(),
            "channel and level memories must share the dimension"
        );
        BiosignalEncoder {
            channel_memory,
            level_memory,
        }
    }

    /// Hypervector dimension.
    pub fn dim(&self) -> usize {
        self.channel_memory.dim()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channel_memory.len()
    }

    /// Encodes one time step: bundle over channels of
    /// `channel ⊗ level(sample)`.
    ///
    /// # Panics
    ///
    /// Panics if `samples.len()` differs from the channel count.
    pub fn encode_timestep(&self, samples: &[f64]) -> Hypervector {
        assert_eq!(
            samples.len(),
            self.channel_memory.len(),
            "one sample per channel required"
        );
        let mut bundler = Bundler::new(self.dim(), 0xb105);
        for (ch, &v) in samples.iter().enumerate() {
            let bound = self
                .channel_memory
                .get(ch)
                .bind(self.level_memory.encode(v));
            bundler.add(&bound);
        }
        bundler.finalize()
    }

    /// Encodes a recording (`timesteps × channels`) as the bundle of its
    /// time-step records.
    ///
    /// # Panics
    ///
    /// Panics if the recording is empty or rows differ in width.
    pub fn encode_recording(&self, recording: &[Vec<f64>]) -> Hypervector {
        assert!(!recording.is_empty(), "empty recording");
        let mut bundler = Bundler::new(self.dim(), 0x5e9);
        for step in recording {
            bundler.add(&self.encode_timestep(step));
        }
        bundler.finalize()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoder() -> NgramEncoder {
        NgramEncoder::new(ItemMemory::new(27, 2048, 1), 3)
    }

    #[test]
    fn ngram_is_order_sensitive() {
        let e = encoder();
        let abc = e.encode_ngram(&[0, 1, 2]);
        let cba = e.encode_ngram(&[2, 1, 0]);
        let d = abc.normalized_hamming(&cba);
        assert!((d - 0.5).abs() < 0.06, "reversed n-gram distance {d}");
    }

    #[test]
    fn same_window_same_vector() {
        let e = encoder();
        assert_eq!(e.encode_ngram(&[3, 7, 11]), e.encode_ngram(&[3, 7, 11]));
    }

    #[test]
    fn sequence_similar_to_shared_ngrams() {
        let e = encoder();
        // Two sequences sharing most n-grams are closer than unrelated.
        let s1: Vec<usize> = (0..40).map(|i| i % 9).collect();
        let mut s2 = s1.clone();
        s2[20] = 25; // one symbol changed
        let s3: Vec<usize> = (0..40).map(|i| (i * 7 + 3) % 26).collect();
        let h1 = e.encode_sequence(&s1);
        let h2 = e.encode_sequence(&s2);
        let h3 = e.encode_sequence(&s3);
        assert!(h1.normalized_hamming(&h2) < h1.normalized_hamming(&h3));
    }

    #[test]
    fn map_ops_counting() {
        let e = encoder();
        // 10 symbols, trigram: 8 n-grams × (5 + 1) + 1 = 49.
        assert_eq!(e.map_ops_for(10), 49);
        assert_eq!(e.map_ops_for(2), 1); // no full n-gram, just threshold
    }

    #[test]
    fn biosignal_timestep_reflects_amplitudes() {
        let channels = ItemMemory::new(4, 2048, 2);
        let levels = ContinuousItemMemory::new(16, 2048, 0.0, 1.0, 3);
        let e = BiosignalEncoder::new(channels, levels);
        assert_eq!(e.channels(), 4);
        let quiet = e.encode_timestep(&[0.1, 0.1, 0.1, 0.1]);
        let quiet2 = e.encode_timestep(&[0.12, 0.1, 0.08, 0.11]);
        let loud = e.encode_timestep(&[0.9, 0.95, 0.85, 0.9]);
        assert!(quiet.normalized_hamming(&quiet2) < quiet.normalized_hamming(&loud));
    }

    #[test]
    fn recording_bundles_timesteps() {
        let channels = ItemMemory::new(4, 1024, 4);
        let levels = ContinuousItemMemory::new(8, 1024, 0.0, 1.0, 5);
        let e = BiosignalEncoder::new(channels, levels);
        let rec: Vec<Vec<f64>> = (0..20).map(|_| vec![0.2, 0.4, 0.6, 0.8]).collect();
        let hv = e.encode_recording(&rec);
        // A constant recording's bundle is similar to its time-step code.
        let step = e.encode_timestep(&[0.2, 0.4, 0.6, 0.8]);
        assert!(hv.normalized_hamming(&step) < 0.2);
    }

    #[test]
    #[should_panic(expected = "shorter than n")]
    fn short_sequence_rejected() {
        let e = encoder();
        let _ = e.encode_sequence(&[1, 2]);
    }
}
