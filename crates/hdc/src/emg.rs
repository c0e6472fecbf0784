//! EMG hand-gesture recognition on synthetic envelopes (Fig. 8(b)).
//!
//! The paper's biosignal case study classifies 5 hand gestures from
//! 4-channel electromyography (Rahimi et al., the paper's \[27\]). Real
//! recordings are not redistributable, so, as a substitution, each
//! gesture is a characteristic per-channel amplitude envelope:
//! muscles (channels) activate at gesture-specific levels, measured
//! envelopes fluctuate around them, and sensor noise perturbs every
//! sample. The HD pipeline (continuous item memory → channel binding →
//! temporal bundling → associative memory) is the one used on real EMG.

use crate::assoc::AssociativeMemory;
use crate::encoder::BiosignalEncoder;
use crate::item_memory::{ContinuousItemMemory, ItemMemory};
use cim_simkit::rng::{normal, seeded};
use rand::rngs::StdRng;
use rand::Rng;

/// The paper's gesture count.
pub const PAPER_GESTURES: usize = 5;
/// The paper's channel count.
pub const PAPER_CHANNELS: usize = 4;

/// A synthetic EMG source: per-gesture, per-channel activation levels.
#[derive(Debug, Clone)]
pub struct EmgSource {
    /// `gestures × channels` mean activation levels in [0.1, 0.9].
    levels: Vec<Vec<f64>>,
    /// Std of the sample fluctuation around the activation level.
    noise: f64,
}

impl EmgSource {
    /// Creates a source with `gestures × channels` random activation
    /// patterns and the given sample noise.
    pub fn new(gestures: usize, channels: usize, noise: f64, seed: u64) -> Self {
        let mut rng = seeded(seed);
        let levels = (0..gestures)
            .map(|_| {
                (0..channels)
                    .map(|_| 0.1 + 0.8 * rng.gen::<f64>())
                    .collect()
            })
            .collect();
        EmgSource { levels, noise }
    }

    /// Number of gestures.
    pub fn gestures(&self) -> usize {
        self.levels.len()
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.levels[0].len()
    }

    /// Samples a `timesteps × channels` recording of one gesture.
    ///
    /// # Panics
    ///
    /// Panics if the gesture index is out of range.
    pub fn record<R: Rng + ?Sized>(
        &self,
        gesture: usize,
        timesteps: usize,
        rng: &mut R,
    ) -> Vec<Vec<f64>> {
        let pattern = &self.levels[gesture];
        (0..timesteps)
            .map(|_| {
                pattern
                    .iter()
                    .map(|&mean| normal(rng, mean, self.noise).clamp(0.0, 1.0))
                    .collect()
            })
            .collect()
    }
}

/// A trained HD gesture classifier.
#[derive(Debug)]
pub struct EmgTask {
    /// The synthetic EMG source.
    pub source: EmgSource,
    /// The trained encoder.
    pub encoder: BiosignalEncoder,
    /// The trained associative memory.
    pub memory: AssociativeMemory,
    rng: StdRng,
    timesteps: usize,
}

impl EmgTask {
    /// Builds and trains a classifier with the paper's 5-gesture /
    /// 4-channel shape: dimension `d`, `levels` amplitude levels,
    /// `train_recordings` recordings per gesture of `timesteps` samples.
    pub fn train(
        d: usize,
        levels: usize,
        timesteps: usize,
        train_recordings: usize,
        noise: f64,
        seed: u64,
    ) -> Self {
        let source = EmgSource::new(PAPER_GESTURES, PAPER_CHANNELS, noise, seed);
        let encoder = BiosignalEncoder::new(
            ItemMemory::new(PAPER_CHANNELS, d, 0xc4a),
            ContinuousItemMemory::new(levels, d, 0.0, 1.0, 0x1e5),
        );
        let mut memory = AssociativeMemory::new(PAPER_GESTURES, d);
        let mut rng = seeded(seed + 1);
        for g in 0..PAPER_GESTURES {
            for _ in 0..train_recordings {
                let rec = source.record(g, timesteps, &mut rng);
                memory.train(g, &encoder.encode_recording(&rec));
            }
        }
        EmgTask {
            source,
            encoder,
            memory,
            rng,
            timesteps,
        }
    }

    /// Classifies one fresh recording of `gesture`.
    pub fn classify_sample(&mut self, gesture: usize) -> usize {
        let rec = self.source.record(gesture, self.timesteps, &mut self.rng);
        let query = self.encoder.encode_recording(&rec);
        self.memory.classify(&query).0
    }

    /// Accuracy over `per_gesture` fresh recordings per gesture.
    pub fn accuracy(&mut self, per_gesture: usize) -> f64 {
        let mut correct = 0;
        for g in 0..PAPER_GESTURES {
            for _ in 0..per_gesture {
                if self.classify_sample(g) == g {
                    correct += 1;
                }
            }
        }
        correct as f64 / (PAPER_GESTURES * per_gesture) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn source_shapes() {
        let src = EmgSource::new(5, 4, 0.05, 1);
        assert_eq!(src.gestures(), 5);
        assert_eq!(src.channels(), 4);
        let mut rng = seeded(2);
        let rec = src.record(2, 30, &mut rng);
        assert_eq!(rec.len(), 30);
        assert_eq!(rec[0].len(), 4);
        assert!(rec.iter().flatten().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn gesture_recognition_beats_90_percent() {
        let mut task = EmgTask::train(4096, 16, 40, 5, 0.05, 3);
        let acc = task.accuracy(10);
        assert!(acc > 0.9, "accuracy {acc}");
    }

    #[test]
    fn noisier_signals_harder() {
        let mut clean = EmgTask::train(2048, 16, 30, 4, 0.03, 4);
        let mut noisy = EmgTask::train(2048, 16, 30, 4, 0.35, 4);
        let acc_clean = clean.accuracy(8);
        let acc_noisy = noisy.accuracy(8);
        assert!(
            acc_clean >= acc_noisy,
            "clean {acc_clean} vs noisy {acc_noisy}"
        );
    }

    #[test]
    fn one_shot_training_still_works() {
        // HD computing's hallmark: a single training example per class
        // already classifies well above chance (cf. the paper's one-shot
        // iEEG citation [29]).
        let mut task = EmgTask::train(4096, 16, 40, 1, 0.05, 5);
        let acc = task.accuracy(10);
        assert!(acc > 0.6, "one-shot accuracy {acc}");
    }
}
