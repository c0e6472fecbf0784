//! A digital (binary-state) memristive array with Scouting-Logic reads.
//!
//! [`DigitalArray`] hosts bit vectors as rows of binary ReRAM devices.
//! Besides ordinary row writes and reads it executes the paper's §II
//! primitive: a [`ScoutOp`] over two or more stored rows, producing the
//! bitwise result across all columns *in a single array access* — this is
//! what accelerates bitmap-index queries and one-time-pad XOR.
//!
//! # Word-parallel fast path
//!
//! The hardware computes all columns of an access in one read cycle, so
//! the simulator should too. Device storage is struct-of-arrays
//! ([`ReramBank`]): packed state words plus per-device fabricated read
//! currents, divided out once when the first sensing access draws the
//! devices (a tile that is only written never draws them). A column's
//! sensed bit depends on how many of its activated devices are in the
//! LRS, so each access first builds a **per-count certainty table**:
//! for every count `m` of LRS devices among the `k` activated rows, the
//! array-wide fabricated current extremes (plus a ±8σ clip of the
//! cycle-to-cycle log-normal noise) either prove that every column
//! holding `m` LRS devices senses the boolean result, or leave the
//! count undecided. The access is then served by the cheaper of two
//! tiers:
//!
//! 1. **Word tier** — every count is decided, so the sensed result *is*
//!    the boolean result: a few `u64` ops per 64 columns, no per-column
//!    work at all. This is the steady state for nominal technology
//!    parameters at small fan-in, and the only case counted in
//!    [`DigitalStats::word_accesses`].
//! 2. **Screened tier** — some counts are undecided (a wide AND, whose
//!    `k` and `k−1` LRS levels sit closer than the array-wide spread:
//!    the Scouting-Logic sense-margin problem). Each column's LRS count
//!    is computed bit-sliced over the activated rows' words, 64 columns
//!    at a time, and columns of a decided count take the boolean result.
//!    Only the rest, in column order, sum their exact nominal aggregate
//!    current from the precomputed per-device currents and are decided
//!    when their clipped noise interval stays on one side of the
//!    reference(s); with `sigma_c2c == 0` this is exact and never
//!    samples. Columns still ambiguous draw per-device log-normal noise
//!    through the caller's RNG (the **sampled** columns).
//!
//! The ±8σ clip declares a column decision-safe when the probability that
//! noise crosses the reference is below ~1e-15 per device draw; the
//! bit-serial [`crate::reference::ReferenceDigitalArray`] (which always
//! samples) remains the behavioural ground truth, and the
//! `soa_equivalence` proptest suite pins the two implementations against
//! each other.
//!
//! Access costing is `O(fan-in)`: every row caches the sum of its
//! devices' present-state read energies. A row write only marks the sum
//! stale, and the first access that activates the row folds it once, so
//! writes stay word copies and rows rewritten or scrubbed unread are
//! never summed. An access that activates several stale rows folds them
//! together in one pass over the columns, each sum still in column
//! order.
//!
//! Every operation returns / accumulates an [`OperationCost`] so workloads
//! can report end-to-end energy and latency.

use crate::energy::OperationCost;
use crate::scouting::{ScoutOp, SenseAmplifier};
use cim_device::bank::ReramBank;
use cim_device::reram::ReramParams;
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::log_normal;
use cim_simkit::units::{Joules, Seconds};
use rand::rngs::StdRng;
use rand::Rng;

/// Energy of one sense-amplifier decision (per column, per access).
/// Shared with the bit-serial reference model so the two cost accesses
/// identically by construction.
pub(crate) const SENSE_AMP_ENERGY: Joules = Joules(5e-15);

/// Cycle-to-cycle noise beyond this many sigmas is treated as unable to
/// flip a sense decision (per-draw probability ≈ 1.2e-15); columns whose
/// clipped noise interval straddles a reference are sampled exactly.
const C2C_CLIP_SIGMAS: f64 = 8.0;

const WORD_BITS: usize = 64;

/// Execution statistics of a digital array.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DigitalStats {
    /// Row writes performed.
    pub row_writes: u64,
    /// Plain row reads performed.
    pub row_reads: u64,
    /// Scouting-logic operations performed.
    pub scout_ops: u64,
    /// Read accesses served entirely by the word-parallel tier.
    pub word_accesses: u64,
    /// Columns (or CAM match lines) whose sense decision needed
    /// explicit noise sampling.
    pub sampled_columns: u64,
    /// CAM match-line searches performed (see [`crate::cam`]).
    pub searches: u64,
    /// Match-line evaluations fired across all searches (entries
    /// compared per search, the CAM-side device-cost driver).
    pub match_pulses: u64,
    /// Total energy.
    pub energy: Joules,
    /// Total busy time.
    pub busy_time: Seconds,
}

/// What an access asks the sense amplifiers to decide.
#[derive(Debug, Clone, Copy)]
enum SenseKind {
    /// Plain single-row read against the mid reference.
    Read,
    /// Multi-row scouting operation.
    Scout(ScoutOp),
}

/// A `rows × cols` array of binary memristive devices.
#[derive(Debug, Clone)]
pub struct DigitalArray {
    bank: ReramBank,
    sense_amp: SenseAmplifier,
    stats: DigitalStats,
    /// Constant cost of a row write (every device receives a pulse, so
    /// the energy is data-independent); folded once at construction.
    write_cost: OperationCost,
}

impl DigitalArray {
    /// Fabricates an array with per-device variation drawn from `rng`.
    /// The draws are made when an access first senses the array (see
    /// [`ReramBank::new`]); `rng` leaves here advanced past them.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: ReramParams, rng: &mut StdRng) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        let bank = ReramBank::new(rows, cols, params, rng);
        let mut write_energy = Joules::ZERO;
        for _ in 0..cols {
            write_energy += params.write_energy;
        }
        DigitalArray {
            bank,
            sense_amp: SenseAmplifier::new(&params),
            stats: DigitalStats::default(),
            write_cost: OperationCost {
                energy: write_energy,
                latency: params.write_latency,
            },
        }
    }

    /// Array dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.bank.shape()
    }

    /// The device parameters the array was fabricated with.
    pub fn params(&self) -> &ReramParams {
        self.bank.params()
    }

    /// The array's sense amplifier (for margin analysis).
    pub fn sense_amp(&self) -> &SenseAmplifier {
        &self.sense_amp
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &DigitalStats {
        &self.stats
    }

    /// Whether the array's device currents have been drawn yet: they
    /// are drawn by the first sensing access, or by [`Self::fabricate`].
    pub fn is_fabricated(&self) -> bool {
        self.bank.is_fabricated()
    }

    /// Draws the array's device currents now, if no access has yet, so
    /// the first sensing access does not pay for them. The values are
    /// the same either way.
    pub fn fabricate(&self) {
        self.bank.fabricate();
    }

    /// Disjoint borrows of the bank and the statistics, so the CAM
    /// match-line engine can fold entry energies and read device state
    /// while accounting.
    pub(crate) fn cam_parts(&mut self) -> (&mut ReramBank, &mut DigitalStats) {
        (&mut self.bank, &mut self.stats)
    }

    /// Writes a bit vector into row `r`: a word copy into the packed
    /// state. The row's cached read-energy sum turns stale and is folded
    /// by the first access that activates the row.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `bits.len() != cols`.
    pub fn write_row(&mut self, r: usize, bits: &BitVec) -> OperationCost {
        let (rows, cols) = self.bank.shape();
        assert!(r < rows, "row {r} out of range {rows}");
        assert_eq!(bits.len(), cols, "row width mismatch");
        self.bank.write_row_words(r, bits.words());
        let cost = self.write_cost;
        self.stats.row_writes += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        cost
    }

    /// The bits stored in row `r` (device states, no sensing noise).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn stored_row(&self, r: usize) -> BitVec {
        BitVec::from_words(self.bank.row_words(r).to_vec(), self.bank.shape().1)
    }

    /// Reads row `r` through the sense amplifiers, including device read
    /// noise.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn read_row<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) -> BitVec {
        self.read_row_with_cost(r, rng).0
    }

    /// [`Self::read_row`] returning the access cost alongside.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::read_row`].
    pub fn read_row_with_cost<R: Rng + ?Sized>(
        &mut self,
        r: usize,
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        let rows = self.bank.shape().0;
        assert!(r < rows, "row {r} out of range {rows}");
        let words = self.sense_access(SenseKind::Read, &[r], rng);
        let out = BitVec::from_words(words, self.bank.shape().1);
        let cost = self.access_cost(&[r]);
        self.stats.row_reads += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (out, cost)
    }

    /// Executes a Scouting-Logic operation over the given stored rows,
    /// returning the column-wise result. One array access regardless of
    /// width.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of range, rows repeat, or the operation
    /// does not support the fan-in.
    pub fn scout<R: Rng + ?Sized>(&mut self, op: ScoutOp, rows: &[usize], rng: &mut R) -> BitVec {
        self.scout_with_cost(op, rows, rng).0
    }

    /// [`Self::scout`] returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::scout`].
    pub fn scout_with_cost<R: Rng + ?Sized>(
        &mut self,
        op: ScoutOp,
        rows: &[usize],
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        let k = rows.len();
        assert!(op.supports_fan_in(k), "{op:?} does not support fan-in {k}");
        let row_count = self.bank.shape().0;
        for (n, &r) in rows.iter().enumerate() {
            assert!(r < row_count, "row {r} out of range {row_count}");
            assert!(
                !rows[..n].contains(&r),
                "row {r} activated twice in one scouting access"
            );
        }
        let words = self.sense_access(SenseKind::Scout(op), rows, rng);
        let out = BitVec::from_words(words, self.bank.shape().1);
        let cost = self.access_cost(rows);
        self.stats.scout_ops += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (out, cost)
    }

    /// The exact boolean result the scouting access is meant to compute,
    /// from stored states — used to measure sensing error rates. Computed
    /// word-parallel from the packed states.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of range.
    pub fn scout_exact(&self, op: ScoutOp, rows: &[usize]) -> BitVec {
        let cols = self.bank.shape().1;
        let words = if rows.is_empty() {
            // `ScoutOp::apply` of an empty operand list is `false`.
            vec![0u64; self.bank.words_per_row()]
        } else {
            self.fold_state_words(op, rows)
        };
        BitVec::from_words(words, cols)
    }

    /// Senses one access: the word tier when the per-count certainty
    /// table decides every count, otherwise the screened tier, which
    /// takes the boolean result for every column of a decided LRS count
    /// and senses only the rest, in column order — exact nominal
    /// currents first, per-device noise draws for the columns those
    /// leave ambiguous. Returns the decision bits as packed words.
    fn sense_access<R: Rng + ?Sized>(
        &mut self,
        kind: SenseKind,
        rows: &[usize],
        rng: &mut R,
    ) -> Vec<u64> {
        let k = rows.len();
        let (lo_ref, hi_ref) = self.references(kind, k);
        let mut words = match kind {
            SenseKind::Read => self.bank.row_words(rows[0]).to_vec(),
            SenseKind::Scout(op) => self.fold_state_words(op, rows),
        };
        let undecided = self.undecided_counts(kind, k, lo_ref, hi_ref);
        if undecided.is_empty() {
            self.stats.word_accesses += 1;
            return words;
        }

        let cols = self.bank.shape().1;
        let sigma = self.bank.params().sigma_c2c;
        let (c_lo, c_hi) = clip_factors(sigma);
        // Bit planes wide enough to count to `k`.
        let mut count = [0u64; usize::BITS as usize];
        let planes = &mut count[..(usize::BITS - k.leading_zeros()) as usize];
        for (w, word) in words.iter_mut().enumerate() {
            let mut pending = if undecided.len() == k + 1 {
                !0
            } else {
                let row_words = rows.iter().map(|&r| self.bank.row_words(r)[w]);
                undecided_columns(planes, &undecided, row_words)
            };
            let rem = cols - w * WORD_BITS;
            if rem < WORD_BITS {
                pending &= (1u64 << rem) - 1;
            }
            while pending != 0 {
                let bit = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let j = w * WORD_BITS + bit;
                let mut nom = 0.0;
                for &r in rows {
                    nom += self.bank.current(r, j);
                }
                let certain_true = nom * c_lo > lo_ref && hi_ref.is_none_or(|h| nom * c_hi < h);
                let sensed = certain_true || {
                    let certain_false =
                        nom * c_hi <= lo_ref || hi_ref.is_some_and(|h| nom * c_lo >= h);
                    !certain_false && {
                        // Sampled: this column's margin is genuinely
                        // ambiguous — draw the per-device noise, in the
                        // same device order as the reference model.
                        self.stats.sampled_columns += 1;
                        let mut i = 0.0;
                        for &r in rows {
                            i += self.bank.current(r, j) / log_normal(rng, 0.0, sigma);
                        }
                        i > lo_ref && hi_ref.is_none_or(|h| i < h)
                    }
                };
                if sensed {
                    *word |= 1 << bit;
                } else {
                    *word &= !(1 << bit);
                }
            }
        }
        words
    }

    /// The sense reference(s) of an access: decision is `I > lo` and,
    /// for window comparators (XOR), additionally `I < hi`.
    fn references(&self, kind: SenseKind, k: usize) -> (f64, Option<f64>) {
        match kind {
            SenseKind::Read => (self.sense_amp.read_reference().0, None),
            SenseKind::Scout(ScoutOp::Or) => (self.sense_amp.or_reference(k).0, None),
            SenseKind::Scout(ScoutOp::And) => (self.sense_amp.and_reference(k).0, None),
            SenseKind::Scout(ScoutOp::Xor) => (
                self.sense_amp.or_reference(2).0,
                Some(self.sense_amp.and_reference(2).0),
            ),
        }
    }

    /// The per-count certainty table of an access over `k` rows, as the
    /// counts it leaves undecided: `m` is decided when, for *every*
    /// possible column holding `m` LRS devices, the array-wide
    /// fabricated current extremes and the clipped cycle-to-cycle noise
    /// range prove the sense decision equals the boolean result. `O(k)`.
    fn undecided_counts(
        &self,
        kind: SenseKind,
        k: usize,
        lo_ref: f64,
        hi_ref: Option<f64>,
    ) -> Vec<usize> {
        let (c_lo, c_hi) = clip_factors(self.bank.params().sigma_c2c);
        let e = self.bank.extremes();
        (0..=k)
            .filter(|&ones| {
                let lrs = ones as f64;
                let hrs = (k - ones) as f64;
                let min_i = (lrs * e.i_low_min + hrs * e.i_high_min) * c_lo;
                let max_i = (lrs * e.i_low_max + hrs * e.i_high_max) * c_hi;
                let expect = match kind {
                    SenseKind::Read => ones == 1,
                    SenseKind::Scout(ScoutOp::Or) => ones > 0,
                    SenseKind::Scout(ScoutOp::And) => ones == k,
                    SenseKind::Scout(ScoutOp::Xor) => ones == 1,
                };
                let certain = if expect {
                    min_i > lo_ref && hi_ref.is_none_or(|h| max_i < h)
                } else {
                    max_i <= lo_ref || hi_ref.is_some_and(|h| min_i >= h)
                };
                !certain
            })
            .collect()
    }

    /// Boolean fold of the activated rows' packed state words.
    fn fold_state_words(&self, op: ScoutOp, rows: &[usize]) -> Vec<u64> {
        let mut acc = self.bank.row_words(rows[0]).to_vec();
        for &r in &rows[1..] {
            for (a, &w) in acc.iter_mut().zip(self.bank.row_words(r)) {
                match op {
                    ScoutOp::Or => *a |= w,
                    ScoutOp::And => *a &= w,
                    ScoutOp::Xor => *a ^= w,
                }
            }
        }
        acc
    }

    /// Cost of one read access activating `rows`: device read energy of
    /// every activated device plus one sense decision per column, in one
    /// read-latency cycle. `O(fan-in)` via the cached per-row sums; the
    /// rows written since their last access are folded here, once, in
    /// one joint pass.
    fn access_cost(&mut self, rows: &[usize]) -> OperationCost {
        self.bank.fold_stale_rows(rows.iter().copied());
        let mut energy = SENSE_AMP_ENERGY.0 * self.bank.shape().1 as f64;
        for &r in rows {
            energy += self.bank.row_energy(r);
        }
        OperationCost {
            energy: Joules(energy),
            latency: self.bank.params().read_latency,
        }
    }
}

/// Multiplicative bounds of the clipped cycle-to-cycle log-normal noise.
pub(crate) fn clip_factors(sigma: f64) -> (f64, f64) {
    if sigma == 0.0 {
        (1.0, 1.0)
    } else {
        (
            (-C2C_CLIP_SIGMAS * sigma).exp(),
            (C2C_CLIP_SIGMAS * sigma).exp(),
        )
    }
}

/// The columns of one 64-column word whose LRS count is one of
/// `undecided`, given the activated rows' state words at that position.
/// Each row word ripple-carries into the bit `planes` (zeroed here, wide
/// enough to count every row), which then hold the 64 counts bit-sliced.
fn undecided_columns(
    planes: &mut [u64],
    undecided: &[usize],
    row_words: impl Iterator<Item = u64>,
) -> u64 {
    planes.fill(0);
    for mut carry in row_words {
        for plane in planes.iter_mut() {
            if carry == 0 {
                break;
            }
            let next = *plane & carry;
            *plane ^= carry;
            carry = next;
        }
    }
    undecided.iter().fold(0, |mask, &m| {
        mask | planes.iter().enumerate().fold(!0, |equal, (p, &plane)| {
            equal & if (m >> p) & 1 == 1 { plane } else { !plane }
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;

    /// The unscreened tiers this module served before count screening,
    /// kept as the screened tier's oracle: the word tier when the
    /// extremes decide every count, otherwise every column's exact
    /// nominal current, sampling the ambiguous columns.
    impl DigitalArray {
        fn sense_per_column<R: Rng + ?Sized>(
            &mut self,
            kind: SenseKind,
            rows: &[usize],
            rng: &mut R,
        ) -> Vec<u64> {
            let k = rows.len();
            let (lo_ref, hi_ref) = self.references(kind, k);
            if self.word_path_safe(kind, k, lo_ref, hi_ref) {
                self.stats.word_accesses += 1;
                return match kind {
                    SenseKind::Read => self.bank.row_words(rows[0]).to_vec(),
                    SenseKind::Scout(op) => self.fold_state_words(op, rows),
                };
            }
            let cols = self.bank.shape().1;
            let mut nominal = vec![0.0; cols];
            for &r in rows {
                self.bank.add_row_currents(r, &mut nominal);
            }
            let sigma = self.bank.params().sigma_c2c;
            let (c_lo, c_hi) = clip_factors(sigma);
            let mut words = vec![0u64; self.bank.words_per_row()];
            for (j, &nom) in nominal.iter().enumerate() {
                let certain_true = nom * c_lo > lo_ref && hi_ref.is_none_or(|h| nom * c_hi < h);
                let bit = if certain_true {
                    true
                } else {
                    let certain_false =
                        nom * c_hi <= lo_ref || hi_ref.is_some_and(|h| nom * c_lo >= h);
                    if certain_false {
                        false
                    } else {
                        self.stats.sampled_columns += 1;
                        let mut i = 0.0;
                        for &r in rows {
                            i += self.bank.current(r, j) / log_normal(rng, 0.0, sigma);
                        }
                        i > lo_ref && hi_ref.is_none_or(|h| i < h)
                    }
                };
                if bit {
                    words[j / WORD_BITS] |= 1u64 << (j % WORD_BITS);
                }
            }
            words
        }

        /// Whether every count decides like the boolean operation: the
        /// whole-access form of the certainty table.
        fn word_path_safe(
            &self,
            kind: SenseKind,
            k: usize,
            lo_ref: f64,
            hi_ref: Option<f64>,
        ) -> bool {
            let (c_lo, c_hi) = clip_factors(self.bank.params().sigma_c2c);
            let e = self.bank.extremes();
            for ones in 0..=k {
                let lrs = ones as f64;
                let hrs = (k - ones) as f64;
                let min_i = (lrs * e.i_low_min + hrs * e.i_high_min) * c_lo;
                let max_i = (lrs * e.i_low_max + hrs * e.i_high_max) * c_hi;
                let expect = match kind {
                    SenseKind::Read => ones == 1,
                    SenseKind::Scout(ScoutOp::Or) => ones > 0,
                    SenseKind::Scout(ScoutOp::And) => ones == k,
                    SenseKind::Scout(ScoutOp::Xor) => ones == 1,
                };
                let certain = if expect {
                    min_i > lo_ref && hi_ref.is_none_or(|h| max_i < h)
                } else {
                    max_i <= lo_ref || hi_ref.is_some_and(|h| min_i >= h)
                };
                if !certain {
                    return false;
                }
            }
            true
        }

        /// One read or scouting access, accounted like
        /// [`DigitalArray::scout_with_cost`], on the oracle tiers.
        fn access_per_column<R: Rng + ?Sized>(
            &mut self,
            kind: SenseKind,
            rows: &[usize],
            rng: &mut R,
        ) -> (BitVec, OperationCost) {
            let words = self.sense_per_column(kind, rows, rng);
            let cost = self.access_cost(rows);
            match kind {
                SenseKind::Read => self.stats.row_reads += 1,
                SenseKind::Scout(_) => self.stats.scout_ops += 1,
            }
            self.stats.energy += cost.energy;
            self.stats.busy_time += cost.latency;
            (BitVec::from_words(words, self.bank.shape().1), cost)
        }
    }

    #[test]
    fn screened_tier_matches_the_per_column_tier_bit_for_bit() {
        let default = ReramParams::default();
        let configs = [
            ("default", default),
            (
                "heavy d2d",
                ReramParams {
                    sigma_d2d: 0.5,
                    ..default
                },
            ),
            (
                "sampled c2c",
                ReramParams {
                    sigma_c2c: 0.05,
                    ..default
                },
            ),
        ];
        let (rows, cols) = (24, 150);
        for (name, params) in configs {
            let mut rng = seeded(0x5C4E);
            let mut screened = DigitalArray::new(rows, cols, params, &mut rng);
            // Dense rows put many columns at the wide-AND counts `k` and
            // `k − 1`; sparse ones at the low OR counts.
            for r in 0..rows {
                let density = [0.1, 0.5, 0.9, 0.97, 1.0][r % 5];
                let bits = BitVec::from_fn(cols, |_| rng.gen::<f64>() < density);
                screened.write_row(r, &bits);
            }
            let mut oracle = screened.clone();
            let mut accesses: Vec<(SenseKind, Vec<usize>)> = Vec::new();
            for k in 2..=20 {
                for op in [ScoutOp::Or, ScoutOp::And] {
                    for _ in 0..3 {
                        let mut picked: Vec<usize> = (0..rows).collect();
                        rand::seq::SliceRandom::shuffle(&mut picked[..], &mut rng);
                        picked.truncate(k);
                        accesses.push((SenseKind::Scout(op), picked));
                    }
                }
            }
            for r in 0..4 {
                accesses.push((SenseKind::Scout(ScoutOp::Xor), vec![r, r + 5]));
                accesses.push((SenseKind::Read, vec![r]));
            }
            let mut rng_s = seeded(0xD1CE);
            let mut rng_o = seeded(0xD1CE);
            for (kind, picked) in &accesses {
                let (got, got_cost) = match *kind {
                    SenseKind::Read => screened.read_row_with_cost(picked[0], &mut rng_s),
                    SenseKind::Scout(op) => screened.scout_with_cost(op, picked, &mut rng_s),
                };
                let (want, want_cost) = oracle.access_per_column(*kind, picked, &mut rng_o);
                let what = format!("{name}: {kind:?} over {picked:?}");
                assert_eq!(got, want, "sensed words, {what}");
                assert_eq!(got_cost, want_cost, "cost, {what}");
                assert_eq!(screened.stats(), oracle.stats(), "stats, {what}");
                assert_eq!(rng_s.gen::<u64>(), rng_o.gen::<u64>(), "RNG stream, {what}");
            }
            let stats = screened.stats();
            let total = accesses.len() as u64;
            assert!(stats.word_accesses < total, "{name}: some access screened");
            if name == "sampled c2c" {
                assert!(stats.sampled_columns > 0, "{name}: the sampled tier ran");
            }
        }
    }

    fn array_with_rows(rows: &[&[bool]]) -> (DigitalArray, rand::rngs::StdRng) {
        let mut rng = seeded(42);
        let cols = rows[0].len();
        let mut arr = DigitalArray::new(rows.len().max(2), cols, ReramParams::default(), &mut rng);
        for (i, bits) in rows.iter().enumerate() {
            arr.write_row(i, &BitVec::from_bools(bits));
        }
        (arr, rng)
    }

    #[test]
    fn write_then_stored_round_trip() {
        let bits = [true, false, true, true, false];
        let (arr, _) = array_with_rows(&[&bits]);
        assert_eq!(arr.stored_row(0), BitVec::from_bools(&bits));
    }

    #[test]
    fn read_row_matches_stored_under_nominal_noise() {
        let (mut arr, mut rng) = array_with_rows(&[&[true, false, true, false, true, true]]);
        for _ in 0..50 {
            assert_eq!(arr.read_row(0, &mut rng), arr.stored_row(0));
        }
    }

    #[test]
    fn scouting_or_and_xor_match_boolean() {
        let a = [true, true, false, false, true, false, true, false];
        let b = [true, false, true, false, false, true, true, false];
        let (mut arr, mut rng) = array_with_rows(&[&a, &b]);
        let or = arr.scout(ScoutOp::Or, &[0, 1], &mut rng);
        let and = arr.scout(ScoutOp::And, &[0, 1], &mut rng);
        let xor = arr.scout(ScoutOp::Xor, &[0, 1], &mut rng);
        for j in 0..8 {
            assert_eq!(or.get(j), a[j] | b[j], "OR col {j}");
            assert_eq!(and.get(j), a[j] & b[j], "AND col {j}");
            assert_eq!(xor.get(j), a[j] ^ b[j], "XOR col {j}");
        }
    }

    #[test]
    fn scouting_matches_exact_reference() {
        let mut rng = seeded(7);
        let mut arr = DigitalArray::new(4, 64, ReramParams::default(), &mut rng);
        for r in 0..4 {
            let row = BitVec::from_fn(64, |j| (j * (r + 3)) % 5 < 2);
            arr.write_row(r, &row);
        }
        for op in [ScoutOp::Or, ScoutOp::And] {
            let sensed = arr.scout(op, &[0, 1, 2, 3], &mut rng);
            assert_eq!(sensed, arr.scout_exact(op, &[0, 1, 2, 3]), "{op:?}");
        }
        let sensed = arr.scout(ScoutOp::Xor, &[1, 2], &mut rng);
        assert_eq!(sensed, arr.scout_exact(ScoutOp::Xor, &[1, 2]));
    }

    #[test]
    fn multi_row_or_wide_fan_in() {
        let mut rng = seeded(8);
        let mut arr = DigitalArray::new(8, 32, ReramParams::default(), &mut rng);
        for r in 0..8 {
            arr.write_row(r, &BitVec::from_fn(32, |j| j == r * 4));
        }
        let rows: Vec<usize> = (0..8).collect();
        let or = arr.scout(ScoutOp::Or, &rows, &mut rng);
        assert_eq!(or, arr.scout_exact(ScoutOp::Or, &rows));
        assert_eq!(or.count_ones(), 8);
    }

    #[test]
    fn stats_and_costs_accumulate() {
        let (mut arr, mut rng) =
            array_with_rows(&[&[true, false, true, false], &[false, true, true, false]]);
        let before = *arr.stats();
        let (_, cost) = arr.scout_with_cost(ScoutOp::Or, &[0, 1], &mut rng);
        assert!(cost.energy.0 > 0.0);
        assert!((cost.latency.nanos() - 10.0).abs() < 1e-9);
        let after = *arr.stats();
        assert_eq!(after.scout_ops, before.scout_ops + 1);
        assert!((after.energy.0 - before.energy.0 - cost.energy.0).abs() < 1e-20);
    }

    #[test]
    fn scouting_cheaper_than_read_out_and_compute() {
        // One scouting access activates 2 rows; the CPU alternative needs
        // two full row reads (2 accesses) — scouting must cost less array
        // energy than the two reads it replaces.
        let (mut arr, mut rng) = array_with_rows(&[
            &[true, false, true, false, true, false, true, false],
            &[true, true, false, false, true, true, false, false],
        ]);
        let (_, scout_cost) = arr.scout_with_cost(ScoutOp::And, &[0, 1], &mut rng);
        let s0 = arr.stats().energy;
        arr.read_row(0, &mut rng);
        arr.read_row(1, &mut rng);
        let two_reads = arr.stats().energy - s0;
        assert!(scout_cost.energy.0 < two_reads.0);
    }

    #[test]
    fn nominal_params_take_the_word_path_without_sampling() {
        let (mut arr, mut rng) = array_with_rows(&[
            &[true, false, true, false, true, false, true, false],
            &[true, true, false, false, true, true, false, false],
        ]);
        for op in [ScoutOp::Or, ScoutOp::And, ScoutOp::Xor] {
            let _ = arr.scout(op, &[0, 1], &mut rng);
        }
        arr.read_row(0, &mut rng);
        assert_eq!(arr.stats().word_accesses, 4);
        assert_eq!(arr.stats().sampled_columns, 0);
    }

    #[test]
    fn wide_and_fan_in_samples_but_matches_exact() {
        // AND at fan-in 8 has a current margin comparable to the clipped
        // noise range, so the word tier refuses it and ambiguous columns
        // are sampled — the sensed result must still match the boolean
        // reference (the true margin is dozens of noise sigmas).
        let mut rng = seeded(13);
        let mut arr = DigitalArray::new(8, 96, ReramParams::default(), &mut rng);
        for r in 0..8 {
            // Columns below 64 have exactly one HRS device (7 of 8 LRS,
            // aggregate just under the AND reference); columns from 64 up
            // are all-LRS (just above it) — both inside the clipped noise
            // window, so both need sampling.
            arr.write_row(r, &BitVec::from_fn(96, |j| j >= 64 || j % 8 != r));
        }
        let rows: Vec<usize> = (0..8).collect();
        let sensed = arr.scout(ScoutOp::And, &rows, &mut rng);
        assert_eq!(sensed, arr.scout_exact(ScoutOp::And, &rows));
        assert_eq!(arr.stats().word_accesses, 0);
        assert!(arr.stats().sampled_columns > 0, "ambiguous columns sampled");
    }

    #[test]
    fn zero_c2c_noise_never_samples_even_under_heavy_d2d() {
        // σ_d2d = 0.3 spreads fabricated currents far beyond the word
        // tier's tolerance, but with σ_c2c = 0 the screened tier decides
        // every undecided column exactly from its nominal current.
        let params = ReramParams {
            sigma_d2d: 0.3,
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        let mut rng = seeded(14);
        let mut arr = DigitalArray::new(4, 64, params, &mut rng);
        for r in 0..4 {
            arr.write_row(r, &BitVec::from_fn(64, |j| (j * (r + 2)) % 7 < 3));
        }
        for op in [ScoutOp::Or, ScoutOp::And] {
            let _ = arr.scout(op, &[0, 1, 2, 3], &mut rng);
        }
        assert_eq!(arr.stats().sampled_columns, 0);
    }

    #[test]
    #[should_panic(expected = "activated twice")]
    fn duplicate_rows_rejected() {
        let (mut arr, mut rng) = array_with_rows(&[&[true, false], &[false, true]]);
        let _ = arr.scout(ScoutOp::Or, &[0, 0], &mut rng);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut rng = seeded(9);
        let mut arr = DigitalArray::new(2, 8, ReramParams::default(), &mut rng);
        arr.write_row(0, &BitVec::zeros(4));
    }
}
