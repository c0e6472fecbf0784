//! The per-name gauge aggregate the recorder computes: [`GaugeStats`]
//! is the summary [`crate::Snapshot`] keeps for every gauge name seen
//! in the event stream.

/// Aggregate over every sample of one gauge name: the summary that
/// turns point-in-time samples (queue depth at each plan) into
/// reportable statistics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GaugeStats {
    /// Samples seen.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Most recent sample.
    pub last: f64,
}

impl Default for GaugeStats {
    fn default() -> Self {
        GaugeStats {
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            last: 0.0,
        }
    }
}

impl GaugeStats {
    /// Folds one sample in.
    pub fn observe(&mut self, v: f64) {
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.last = v;
    }

    /// Mean of the samples (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest sample, or 0.0 when empty (instead of the +∞ identity).
    pub fn min_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Largest sample, or 0.0 when empty (instead of the −∞ identity).
    pub fn max_or_zero(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gauge_stats_aggregate() {
        let mut s = GaugeStats::default();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min_or_zero(), 0.0);
        for v in [3.0, 1.0, 2.0] {
            s.observe(v);
        }
        assert_eq!(s.count, 3);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.last, 2.0);
        assert!((s.mean() - 2.0).abs() < 1e-12);
    }
}
