//! Struct-of-arrays storage for a fabricated bank of binary ReRAM devices.
//!
//! [`crate::reram::ReramDevice`] is the single-device reference model: one
//! struct per device, a full [`crate::reram::ReramParams`] copy each, and a
//! `V/R` division on every read. An array simulator iterating millions of
//! accesses wants none of that in its inner loop, so [`ReramBank`] stores
//! the same fabricated population column-packed:
//!
//! * device **states** as packed `u64` words (64 devices per word, one row
//!   padded to whole words), so bulk row operations are a handful of word
//!   ops instead of per-bit sets;
//! * the per-device fabricated **read currents** (`V/R_actual` for both
//!   states) as flat `Vec<f64>`, divided out *once* at construction
//!   instead of on every access (read energies `V²/R_actual · t_read`
//!   derive from them with the reference model's exact float-op order);
//! * a lazily folded per-row **read-energy sum**: a row write only marks
//!   the row's sum stale (a write is `O(cols / 64)` word copies, so
//!   refolding the row's `cols` energies there would cost far more than
//!   the write itself), the first access that reads the row folds it
//!   once, and later accesses reuse it, so the cost of an access
//!   activating `k` rows is `O(k)` instead of `O(k × cols)`. A fresh
//!   bank starts every row stale too. Every sum is the same column-order
//!   fold over the same state, only computed later, so the values are
//!   bit-identical to folding on every write, and a row written and
//!   rewritten (or scrubbed) unread is never summed;
//! * the array-wide fabricated current **extremes**, which let a sense
//!   model prove whole accesses margin-safe without touching any per-device
//!   value.
//!
//! Fabrication draws the device-to-device variation in exactly the order
//! `Vec<ReramDevice>` construction would (row-major, `r_low` before
//! `r_high` per device), so a bank and a reference device population built
//! from the same seeded RNG hold bit-identical resistances — the
//! equivalence the `soa_equivalence` proptest suite pins.

use crate::reram::ReramParams;
use cim_simkit::rng::log_normal;
use cim_simkit::units::Ohms;
use rand::Rng;

const WORD_BITS: usize = 64;

/// Array-wide extremes of the fabricated per-device read currents, used
/// by sense models to bound what any column's aggregate current can be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurrentExtremes {
    /// Smallest fabricated LRS read current in the bank (A).
    pub i_low_min: f64,
    /// Largest fabricated LRS read current in the bank (A).
    pub i_low_max: f64,
    /// Smallest fabricated HRS read current in the bank (A).
    pub i_high_min: f64,
    /// Largest fabricated HRS read current in the bank (A).
    pub i_high_max: f64,
}

/// A `rows × cols` fabricated population of binary ReRAM devices in
/// struct-of-arrays layout.
#[derive(Debug, Clone)]
pub struct ReramBank {
    params: ReramParams,
    rows: usize,
    cols: usize,
    words_per_row: usize,
    /// Packed device states, row-major; bit 1 = LRS (logic `1`).
    state: Vec<u64>,
    /// Fabricated LRS read current per device (A), row-major. Read
    /// energies derive from these (`(I·V)·t_read`, the reference
    /// model's float-op order) rather than being stored separately.
    i_low: Vec<f64>,
    /// Fabricated HRS read current per device (A), row-major.
    i_high: Vec<f64>,
    extremes: CurrentExtremes,
    /// Cached `Σ_j read_energy(r, j)` at the devices' present states;
    /// `None` until the first [`ReramBank::row_energy`] after
    /// fabrication or after a write folds the row.
    row_energy: Vec<Option<f64>>,
}

impl ReramBank {
    /// Fabricates a bank, drawing per-device resistances from the
    /// log-normal device-to-device distribution in reference order.
    /// All devices start in the HRS (logic 0), like an unformed array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        params: ReramParams,
        rng: &mut R,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "bank dimensions must be nonzero");
        let n = rows * cols;
        let mut i_low = Vec::with_capacity(n);
        let mut i_high = Vec::with_capacity(n);
        let mut extremes = CurrentExtremes {
            i_low_min: f64::INFINITY,
            i_low_max: f64::NEG_INFINITY,
            i_high_min: f64::INFINITY,
            i_high_max: f64::NEG_INFINITY,
        };
        for _ in 0..n {
            // Same draw order as `ReramDevice::new`: r_low, then r_high,
            // and the same `V/R` arithmetic as `ReramDevice::read_current`
            // so the precomputed currents are bit-identical to what the
            // reference model computes on the fly.
            let r_low = Ohms(params.r_low.0 * log_normal(rng, 0.0, params.sigma_d2d));
            let r_high = Ohms(params.r_high.0 * log_normal(rng, 0.0, params.sigma_d2d));
            let il = (params.read_voltage / r_low).0;
            let ih = (params.read_voltage / r_high).0;
            extremes.i_low_min = extremes.i_low_min.min(il);
            extremes.i_low_max = extremes.i_low_max.max(il);
            extremes.i_high_min = extremes.i_high_min.min(ih);
            extremes.i_high_max = extremes.i_high_max.max(ih);
            i_low.push(il);
            i_high.push(ih);
        }
        let words_per_row = cols.div_ceil(WORD_BITS);
        ReramBank {
            params,
            rows,
            cols,
            words_per_row,
            state: vec![0; rows * words_per_row],
            i_low,
            i_high,
            extremes,
            row_energy: vec![None; rows],
        }
    }

    /// Bank dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The device parameters the bank was fabricated with.
    pub fn params(&self) -> &ReramParams {
        &self.params
    }

    /// Packed state words per row.
    pub fn words_per_row(&self) -> usize {
        self.words_per_row
    }

    /// Array-wide fabricated read-current extremes.
    pub fn extremes(&self) -> CurrentExtremes {
        self.extremes
    }

    /// The stored logic bit of device `(r, j)`.
    ///
    /// # Panics
    ///
    /// Panics if the position is out of range.
    pub fn bit(&self, r: usize, j: usize) -> bool {
        assert!(
            r < self.rows && j < self.cols,
            "device ({r}, {j}) out of range"
        );
        (self.state[r * self.words_per_row + j / WORD_BITS] >> (j % WORD_BITS)) & 1 == 1
    }

    /// The packed state words of row `r` (unused tail bits are zero).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_words(&self, r: usize) -> &[u64] {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        &self.state[r * self.words_per_row..(r + 1) * self.words_per_row]
    }

    /// Overwrites row `r` from packed words: `O(cols / 64)` word copies.
    /// The row's cached read-energy sum turns stale, to be folded by the
    /// first [`Self::row_energy`] that reads it.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or the word count does not match.
    pub fn write_row_words(&mut self, r: usize, words: &[u64]) {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        assert_eq!(words.len(), self.words_per_row, "row word-count mismatch");
        let dst = &mut self.state[r * self.words_per_row..(r + 1) * self.words_per_row];
        dst.copy_from_slice(words);
        // Mask the tail so stray bits can never alias phantom devices.
        let rem = self.cols % WORD_BITS;
        if rem != 0 {
            if let Some(last) = dst.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
        self.row_energy[r] = None;
    }

    /// The fabricated read current of device `(r, j)` in its present
    /// state, without cycle-to-cycle noise (A).
    pub fn current(&self, r: usize, j: usize) -> f64 {
        let idx = r * self.cols + j;
        if self.bit(r, j) {
            self.i_low[idx]
        } else {
            self.i_high[idx]
        }
    }

    /// Adds row `r`'s present-state read currents into `acc` column-wise
    /// (`acc[j] += I(r, j)`), the vectorizable inner step of aggregate
    /// column-current evaluation.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `acc.len() != cols`.
    pub fn add_row_currents(&self, r: usize, acc: &mut [f64]) {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        assert_eq!(acc.len(), self.cols, "accumulator width mismatch");
        let base = r * self.cols;
        let words = &self.state[r * self.words_per_row..(r + 1) * self.words_per_row];
        for (j, a) in acc.iter_mut().enumerate() {
            let lrs = (words[j / WORD_BITS] >> (j % WORD_BITS)) & 1 == 1;
            *a += if lrs {
                self.i_low[base + j]
            } else {
                self.i_high[base + j]
            };
        }
    }

    /// The read-pulse energy of device `(r, j)` in its present state (J):
    /// `V²/R · t_read`, derived from the stored fabricated current with
    /// the same float operations as `ReramDevice::read_energy`.
    pub fn read_energy(&self, r: usize, j: usize) -> f64 {
        self.pulse_energy(self.current(r, j))
    }

    /// `Σ_j read_energy(r, j)` of row `r` at present states (J). The
    /// first call after fabrication or a write folds the row once, in
    /// column order; later calls return the cached sum until the next
    /// write.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn row_energy(&mut self, r: usize) -> f64 {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        match self.row_energy[r] {
            Some(sum) => sum,
            None => {
                let sum = self.fold_row_energy(r);
                self.row_energy[r] = Some(sum);
                sum
            }
        }
    }

    fn pulse_energy(&self, current: f64) -> f64 {
        (current * self.params.read_voltage.0) * self.params.read_latency.0
    }

    /// Folds row `r`'s present-state read energies in column order, the
    /// reference model's per-device loop order, so the sum is the same
    /// floating-point fold it would compute.
    fn fold_row_energy(&self, r: usize) -> f64 {
        let base = r * self.cols;
        let words = &self.state[r * self.words_per_row..(r + 1) * self.words_per_row];
        let mut sum = 0.0;
        for j in 0..self.cols {
            let lrs = (words[j / WORD_BITS] >> (j % WORD_BITS)) & 1 == 1;
            let i = if lrs {
                self.i_low[base + j]
            } else {
                self.i_high[base + j]
            };
            sum += self.pulse_energy(i);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reram::ReramDevice;
    use cim_simkit::rng::seeded;

    #[test]
    fn fabrication_matches_reference_devices() {
        let params = ReramParams::default();
        let mut rng_a = seeded(9);
        let mut rng_b = seeded(9);
        let bank = ReramBank::new(3, 5, params, &mut rng_a);
        for r in 0..3 {
            for j in 0..5 {
                let mut dev = ReramDevice::new(params, &mut rng_b);
                assert_eq!(
                    bank.current(r, j),
                    (params.read_voltage / dev.resistance()).0
                );
                dev.write(true);
                assert_eq!(
                    bank.i_low[r * 5 + j],
                    (params.read_voltage / dev.resistance()).0
                );
                assert_eq!(
                    bank.pulse_energy(bank.i_low[r * 5 + j]),
                    dev.read_energy().0
                );
            }
        }
    }

    #[test]
    fn fresh_bank_is_all_hrs() {
        let mut rng = seeded(1);
        let bank = ReramBank::new(4, 70, ReramParams::default(), &mut rng);
        assert_eq!(bank.shape(), (4, 70));
        assert_eq!(bank.words_per_row(), 2);
        for r in 0..4 {
            assert!(bank.row_words(r).iter().all(|&w| w == 0));
            assert!(!bank.bit(r, 69));
        }
    }

    #[test]
    fn write_row_words_round_trips_and_masks_tail() {
        let mut rng = seeded(2);
        let mut bank = ReramBank::new(2, 70, ReramParams::default(), &mut rng);
        bank.write_row_words(1, &[!0u64, !0u64]);
        assert_eq!(bank.row_words(1)[1] >> 6, 0, "tail bits cleared");
        assert!(bank.bit(1, 0) && bank.bit(1, 69));
        assert!(!bank.bit(0, 0));
    }

    #[test]
    fn row_energy_tracks_state_changes() {
        let mut rng = seeded(3);
        let mut bank = ReramBank::new(2, 64, ReramParams::ideal(), &mut rng);
        let hrs_sum = bank.row_energy(0);
        bank.write_row_words(0, &[!0u64]);
        let lrs_sum = bank.row_energy(0);
        // LRS reads draw far more energy than HRS reads.
        assert!(lrs_sum > 10.0 * hrs_sum, "{lrs_sum} vs {hrs_sum}");
        // Fresh sum equals a manual rescan.
        let rescan: f64 = (0..64).map(|j| bank.read_energy(0, j)).sum();
        assert_eq!(lrs_sum, rescan);
    }

    /// Column-order rescan of row `r`'s present-state read energies.
    fn rescan(bank: &ReramBank, r: usize) -> f64 {
        let mut sum = 0.0;
        for j in 0..bank.shape().1 {
            sum += bank.read_energy(r, j);
        }
        sum
    }

    #[test]
    fn deferred_fold_is_bit_identical_to_a_rescan() {
        use rand::seq::SliceRandom;
        let (rows, cols) = (12, 150);
        let mut rng = seeded(31);
        let mut bank = ReramBank::new(rows, cols, ReramParams::default(), &mut seeded(7));
        // About a quarter of the devices in the LRS, tail bits clear.
        let random_row = |rng: &mut rand::rngs::StdRng| -> Vec<u64> {
            let mut words: Vec<u64> = (0..cols.div_ceil(WORD_BITS))
                .map(|_| rng.gen::<u64>() & rng.gen::<u64>())
                .collect();
            if let Some(last) = words.last_mut() {
                *last &= (1u64 << (cols % WORD_BITS)) - 1;
            }
            words
        };
        for _ in 0..40 {
            let r = rng.gen_range(0..rows);
            bank.write_row_words(r, &random_row(&mut rng));
        }
        let mut order: Vec<usize> = (0..rows).collect();
        order.shuffle(&mut rng);
        for &r in &order {
            assert_eq!(bank.row_energy(r).to_bits(), rescan(&bank, r).to_bits());
            // A second read returns the cached fold unchanged.
            assert_eq!(bank.row_energy(r).to_bits(), rescan(&bank, r).to_bits());
        }

        // Written twice before its first read: the fold sees the latest
        // state only.
        let first = random_row(&mut rng);
        let second = random_row(&mut rng);
        bank.write_row_words(3, &first);
        bank.write_row_words(3, &second);
        assert_eq!(bank.row_words(3), &second[..]);
        assert_eq!(bank.row_energy(3).to_bits(), rescan(&bank, 3).to_bits());

        // A zero write (a scrub) folds back to the fabricated all-HRS
        // sum, bit for bit.
        let mut fresh = ReramBank::new(rows, cols, ReramParams::default(), &mut seeded(7));
        let zeros = vec![0u64; bank.words_per_row()];
        for r in 0..rows {
            bank.write_row_words(r, &zeros);
            assert_eq!(bank.row_energy(r).to_bits(), fresh.row_energy(r).to_bits());
            assert_eq!(bank.row_energy(r).to_bits(), rescan(&bank, r).to_bits());
        }
    }

    #[test]
    fn extremes_bound_every_device() {
        let mut rng = seeded(4);
        let bank = ReramBank::new(6, 40, ReramParams::default(), &mut rng);
        let e = bank.extremes();
        for idx in 0..6 * 40 {
            assert!(bank.i_low[idx] >= e.i_low_min && bank.i_low[idx] <= e.i_low_max);
            assert!(bank.i_high[idx] >= e.i_high_min && bank.i_high[idx] <= e.i_high_max);
        }
        assert!(
            e.i_high_max < e.i_low_min,
            "states separated at default variation"
        );
    }

    #[test]
    fn add_row_currents_accumulates() {
        let mut rng = seeded(5);
        let mut bank = ReramBank::new(2, 8, ReramParams::ideal(), &mut rng);
        bank.write_row_words(0, &[0b1010_1010]);
        let mut acc = vec![0.0; 8];
        bank.add_row_currents(0, &mut acc);
        bank.add_row_currents(1, &mut acc);
        let p = ReramParams::ideal();
        for (j, &a) in acc.iter().enumerate() {
            let expect = if j % 2 == 1 {
                p.i_low().0 + p.i_high().0
            } else {
                2.0 * p.i_high().0
            };
            assert!((a - expect).abs() < 1e-18, "col {j}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_row_rejected() {
        let mut rng = seeded(6);
        let bank = ReramBank::new(2, 8, ReramParams::default(), &mut rng);
        let _ = bank.row_words(2);
    }
}
