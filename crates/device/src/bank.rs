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
//!   states) as flat `Vec<f64>`, divided out *once* instead of on every
//!   access (read energies `V²/R_actual · t_read` derive from them with
//!   the reference model's exact float-op order);
//! * a lazily folded per-row **read-energy sum**: a row write only marks
//!   the row's sum stale (a write is `O(cols / 64)` word copies, so
//!   refolding the row's `cols` energies there would cost far more than
//!   the write itself), the first access that reads the row folds it
//!   once, and later accesses reuse it, so the cost of an access
//!   activating `k` rows is `O(k)` instead of `O(k × cols)`. A fresh
//!   bank starts every row stale too. Every sum is the same column-order
//!   fold over the same state, only computed later, so the values are
//!   bit-identical to folding on every write, and a row written and
//!   rewritten (or scrubbed) unread is never summed. An access that
//!   finds several of its rows stale folds them in one interleaved pass
//!   ([`ReramBank::fold_stale_rows`]): one accumulator per row, each
//!   still in column order, so their add chains overlap instead of
//!   running back to back;
//! * the array-wide fabricated current **extremes**, which let a sense
//!   model prove whole accesses margin-safe without touching any per-device
//!   value.
//!
//! Fabrication draws the device-to-device variation in exactly the order
//! `Vec<ReramDevice>` construction would (row-major, `r_low` before
//! `r_high` per device), so a bank and a reference device population built
//! from the same seeded RNG hold bit-identical resistances — the
//! equivalence the `soa_equivalence` proptest suite pins.
//!
//! The draws are deferred until a device's current is first needed.
//! [`ReramBank::new`] keeps a copy of the caller's RNG and advances the
//! caller's stream past the two log-normals per device that fabrication
//! takes, so the stream continues exactly as if the devices had been
//! drawn. The currents and extremes are drawn from the copy by the first
//! call that reads them ([`ReramBank::current`],
//! [`ReramBank::add_row_currents`], [`ReramBank::row_energy`],
//! [`ReramBank::extremes`], or [`ReramBank::fabricate`] ahead of time).
//! Writes and scrubs touch only the state words, so a bank that is never
//! sensed never pays for its devices: the same values, drawn later or
//! not at all.

use crate::reram::ReramParams;
use cim_simkit::rng::{log_normal, skip_log_normals};
use cim_simkit::units::Ohms;
use rand::rngs::StdRng;
use std::sync::OnceLock;

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

/// The fabricated part of a bank: what its device-to-device variation
/// draws decide.
#[derive(Debug, Clone)]
struct Devices {
    /// Fabricated LRS read current per device (A), row-major. Read
    /// energies derive from these (`(I·V)·t_read`, the reference
    /// model's float-op order) rather than being stored separately.
    i_low: Vec<f64>,
    /// Fabricated HRS read current per device (A), row-major.
    i_high: Vec<f64>,
    extremes: CurrentExtremes,
}

impl Devices {
    /// Draws `n` devices' resistances from `rng`, in reference order.
    fn fabricate(n: usize, params: &ReramParams, rng: &mut StdRng) -> Self {
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
        Devices {
            i_low,
            i_high,
            extremes,
        }
    }
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
    /// The caller's RNG as it stood at construction: the devices are
    /// drawn from a copy of it.
    fab_rng: StdRng,
    /// The fabricated currents, drawn by the first call that reads one.
    devices: OnceLock<Devices>,
    /// Cached `Σ_j read_energy(r, j)` at the devices' present states;
    /// `None` until the first [`ReramBank::row_energy`] after
    /// fabrication or after a write folds the row.
    row_energy: Vec<Option<f64>>,
}

impl ReramBank {
    /// Fabricates a bank whose per-device resistances come from the
    /// log-normal device-to-device distribution, drawn from `rng` in
    /// reference order. The draws themselves wait for the first access
    /// that needs a device current; `rng` is advanced past them now, so
    /// the caller's stream continues as if they had been made. All
    /// devices start in the HRS (logic 0), like an unformed array.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: ReramParams, rng: &mut StdRng) -> Self {
        assert!(rows > 0 && cols > 0, "bank dimensions must be nonzero");
        let fab_rng = rng.clone();
        // Two log-normals per device: r_low, then r_high.
        skip_log_normals(rng, 2 * rows * cols);
        let words_per_row = cols.div_ceil(WORD_BITS);
        ReramBank {
            params,
            rows,
            cols,
            words_per_row,
            state: vec![0; rows * words_per_row],
            fab_rng,
            devices: OnceLock::new(),
            row_energy: vec![None; rows],
        }
    }

    /// The fabricated currents, drawn now if nothing has read them yet.
    fn devices(&self) -> &Devices {
        self.devices.get_or_init(|| {
            Devices::fabricate(
                self.rows * self.cols,
                &self.params,
                &mut self.fab_rng.clone(),
            )
        })
    }

    /// Whether the devices' currents have been drawn yet.
    pub fn is_fabricated(&self) -> bool {
        self.devices.get().is_some()
    }

    /// Draws the devices' currents now, if no access has yet: the values
    /// are those the first sensing access would draw, so calling this
    /// only moves the cost out of that access.
    pub fn fabricate(&self) {
        self.devices();
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
        self.devices().extremes
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
        let devices = self.devices();
        let idx = r * self.cols + j;
        if self.bit(r, j) {
            devices.i_low[idx]
        } else {
            devices.i_high[idx]
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
        let devices = self.devices();
        let base = r * self.cols;
        let words = &self.state[r * self.words_per_row..(r + 1) * self.words_per_row];
        for (j, a) in acc.iter_mut().enumerate() {
            let lrs = (words[j / WORD_BITS] >> (j % WORD_BITS)) & 1 == 1;
            *a += if lrs {
                devices.i_low[base + j]
            } else {
                devices.i_high[base + j]
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
                let [sum] = self.fold_rows([r]);
                self.row_energy[r] = Some(sum);
                sum
            }
        }
    }

    /// Folds the read-energy sums of every stale row among `rows` (those
    /// written, or never read, since their last fold), so the
    /// [`Self::row_energy`] calls of one access all hit the cache. Up to
    /// three rows fold in one interleaved pass, one accumulator each, and
    /// every accumulator adds its row's energies in column order, so
    /// each sum is bit-identical to folding its row alone. Rows listed
    /// twice fold once; folded rows are left as they are.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of range.
    pub fn fold_stale_rows(&mut self, rows: impl IntoIterator<Item = usize>) {
        let mut stale: Vec<usize> = rows
            .into_iter()
            .filter(|&r| {
                assert!(r < self.rows, "row {r} out of range {}", self.rows);
                self.row_energy[r].is_none()
            })
            .collect();
        stale.sort_unstable();
        stale.dedup();
        // Three rows per pass are enough for their add chains to
        // overlap; on x86-64, passes of four measured several times
        // slower per row.
        for group in stale.chunks(3) {
            match *group {
                [a, b, c] => self.store_folds([a, b, c]),
                [a, b] => self.store_folds([a, b]),
                [a] => self.store_folds([a]),
                _ => {}
            }
        }
    }

    fn store_folds<const N: usize>(&mut self, rows: [usize; N]) {
        let sums = self.fold_rows(rows);
        for (r, sum) in rows.into_iter().zip(sums) {
            self.row_energy[r] = Some(sum);
        }
    }

    fn pulse_energy(&self, current: f64) -> f64 {
        (current * self.params.read_voltage.0) * self.params.read_latency.0
    }

    /// Folds each of `rows`' present-state read energies in column order,
    /// the reference model's per-device loop order, so every sum is the
    /// same floating-point fold it would compute. The rows share one
    /// pass over the columns, each into its own accumulator.
    fn fold_rows<const N: usize>(&self, rows: [usize; N]) -> [f64; N] {
        let devices = self.devices();
        let cols = self.cols;
        let i_low = rows.map(|r| &devices.i_low[r * cols..(r + 1) * cols]);
        let i_high = rows.map(|r| &devices.i_high[r * cols..(r + 1) * cols]);
        let (volts, secs) = (self.params.read_voltage.0, self.params.read_latency.0);
        let mut sums = [0.0; N];
        for w in 0..self.words_per_row {
            let words = rows.map(|r| self.state[r * self.words_per_row + w]);
            let start = w * WORD_BITS;
            for bit in 0..WORD_BITS.min(cols - start) {
                let j = start + bit;
                #[allow(clippy::needless_range_loop)]
                for n in 0..N {
                    // A bit-mask select rather than a branch: stored
                    // data is close to random, so a branch would
                    // mispredict on about every other device.
                    let lrs = 0u64.wrapping_sub((words[n] >> bit) & 1);
                    let i =
                        f64::from_bits(i_low[n][j].to_bits() & lrs | i_high[n][j].to_bits() & !lrs);
                    // `pulse_energy`'s float-op order, with the
                    // parameters hoisted: calling it here measured 20 %
                    // slower.
                    sums[n] += (i * volts) * secs;
                }
            }
        }
        sums
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reram::ReramDevice;
    use cim_simkit::rng::seeded;
    use rand::Rng;

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
                    bank.devices().i_low[r * 5 + j],
                    (params.read_voltage / dev.resistance()).0
                );
                assert_eq!(
                    bank.pulse_energy(bank.devices().i_low[r * 5 + j]),
                    dev.read_energy().0
                );
            }
        }
        // The caller's stream continues where the reference devices'
        // draws leave it.
        assert_eq!(rng_a, rng_b);
    }

    #[test]
    fn devices_are_drawn_at_the_first_read_with_the_eager_values() {
        let params = ReramParams {
            sigma_d2d: 0.2,
            ..ReramParams::default()
        };
        let (rows, cols) = (5, 70);
        let eager = Devices::fabricate(rows * cols, &params, &mut seeded(21));
        let mut rng = seeded(21);
        let fresh = ReramBank::new(rows, cols, params, &mut rng);
        assert!(!fresh.is_fabricated(), "construction draws nothing");

        // Writes and scrubs touch only the state words.
        let mut written = fresh.clone();
        written.write_row_words(2, &[!0u64, 0x3F]);
        written.write_row_words(2, &[0, 0]);
        written.write_row_words(4, &[0xF0F0, 1]);
        assert!(!written.is_fabricated(), "writes draw nothing");
        let before = written.clone();

        // The first read draws exactly the eager population.
        assert_eq!(written.current(4, 4), eager.i_low[4 * cols + 4]);
        assert!(written.is_fabricated());
        assert_eq!(written.devices().i_low, eager.i_low);
        assert_eq!(written.devices().i_high, eager.i_high);
        assert_eq!(written.extremes(), eager.extremes);

        // A clone taken before the draw fabricates the same values, as
        // does the fresh bank through its row energies.
        assert_eq!(before.devices().i_low, eager.i_low);
        assert_eq!(before.devices().i_high, eager.i_high);
        let mut fresh = fresh;
        let hrs: f64 = (0..cols).fold(0.0, |sum, j| {
            sum + fresh.pulse_energy(eager.i_high[cols + j])
        });
        assert_eq!(fresh.row_energy(1).to_bits(), hrs.to_bits());
        assert!(fresh.is_fabricated());

        // Fabricating ahead of time changes nothing either.
        let early = ReramBank::new(rows, cols, params, &mut seeded(21));
        early.fabricate();
        assert!(early.is_fabricated());
        assert_eq!(early.devices().i_low, eager.i_low);
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
        let random_row = |rng: &mut StdRng| -> Vec<u64> {
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

        // One to eight stale rows folded together, mixed with folded
        // rows and repeats: every sum, tail columns included, equals its
        // row's own column-order fold.
        for stale in 1..=8 {
            order.shuffle(&mut rng);
            for &r in &order[..stale] {
                bank.write_row_words(r, &random_row(&mut rng));
            }
            let mut access: Vec<usize> = order[..stale + 3].to_vec();
            access.push(order[0]);
            access.shuffle(&mut rng);
            bank.fold_stale_rows(access.iter().copied());
            for &r in &access {
                assert_eq!(
                    bank.row_energy[r].map(f64::to_bits),
                    Some(rescan(&bank, r).to_bits())
                );
            }
        }

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
        let d = bank.devices();
        for idx in 0..6 * 40 {
            assert!(d.i_low[idx] >= e.i_low_min && d.i_low[idx] <= e.i_low_max);
            assert!(d.i_high[idx] >= e.i_high_min && d.i_high[idx] <= e.i_high_max);
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
