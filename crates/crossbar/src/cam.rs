//! Content-addressable (associative) search over stored rows.
//!
//! A CAM compares a search key against *every* resident entry in one
//! array access and raises one **match line** per entry. Memristive
//! implementations (Li et al., *Analog content addressable memories with
//! memristors*, PAPERS.md) store each ternary cell as a device pair —
//! here one **value** row and one **care** row per entry, the classic
//! 2×-area TCAM encoding laid out on an ordinary [`DigitalArray`] tile:
//! entry `s` occupies bank rows `2s` (value) and `2s + 1` (care).
//!
//! During a search, a cell conducts onto its entry's match line exactly
//! when it is *cared* (care device in the LRS) **and** its stored value
//! bit differs from the key bit; matching and don't-care cells
//! contribute no current. The match-line current is therefore
//! proportional to the entry's mismatch count
//! `m = popcount((value ⊕ key) & care)`, and a window comparator on
//! that current generalizes all three search semantics:
//!
//! * **Exact** — window `[0, 0]` with all-ones care rows (binary-CAM
//!   discipline): only `m = 0`, i.e. `value == key`, matches.
//! * **Ternary** — window `[0, 0]` with stored don't-care masks.
//! * **Range** — window `[lo, hi]` on the mismatch count: the analog
//!   capability of Li et al.'s aCAM, where the match-line level itself
//!   carries information (e.g. Hamming-distance search for HDC
//!   associative memory). Field-value ranges in rule tables compile to
//!   thermometer-coded ternary patterns, the classic TCAM range
//!   encoding; this window comparator is the generalization.
//!
//! # Tiered match-line evaluation
//!
//! The same decisions as [`crate::digital`]'s sense path — word,
//! nominal and sampled — but per match line (one decision per *entry*,
//! not per column):
//!
//! 1. **Word tier** — a zero-mismatch entry draws *exactly zero*
//!    match-line current, so `[0, 0]` windows always decide from stored
//!    state: a few `u64` ops per entry (`(value ⊕ key) & care`, all-zero
//!    test). Wider windows are word-safe when the bank's fabricated
//!    current extremes (±8σ-clipped cycle-to-cycle noise) keep every
//!    possible mismatch count on the correct side of both references.
//! 2. **Nominal tier** — the exact fabricated match-line current is
//!    summed over the entry's mismatching care devices; entries whose
//!    clipped noise interval clears both references decide directly.
//!    Exact whenever `sigma_c2c == 0`.
//! 3. **Sampled tier** — genuinely margin-ambiguous entries draw
//!    per-device cycle-to-cycle noise through the caller's RNG, in the
//!    bit-serial reference's device order.
//!
//! [`crate::reference::ReferenceCamArray`] is the always-sampling
//! bit-serial ground truth; the `cam_equivalence` proptest suite pins
//! the two against each other and against the host scalar reference
//! [`host_match`].

use crate::digital::{clip_factors, DigitalArray, DigitalStats, SENSE_AMP_ENERGY};
use crate::energy::OperationCost;
use cim_device::bank::ReramBank;
use cim_device::reram::ReramParams;
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::{log_normal, seeded};
use cim_simkit::units::Joules;
use rand::rngs::StdRng;
use rand::Rng;

const WORD_BITS: usize = 64;

/// The match semantics of one CAM search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MatchKind {
    /// Exact match: every bit of the key must equal the stored value.
    /// Assumes binary-CAM discipline (all-ones care rows); physically
    /// identical to [`MatchKind::Ternary`], since only cared cells
    /// conduct.
    Exact,
    /// Ternary match: key must equal the stored value on every *cared*
    /// bit; don't-care cells never conduct.
    Ternary,
    /// Analog range match: the entry matches when its mismatch count
    /// over cared bits falls in `[lo, hi]` — a window comparator on the
    /// match-line current.
    Range {
        /// Smallest matching mismatch count.
        lo: u32,
        /// Largest matching mismatch count (inclusive).
        hi: u32,
    },
}

impl MatchKind {
    /// The inclusive mismatch-count window the search accepts.
    ///
    /// # Panics
    ///
    /// Panics if a [`MatchKind::Range`] window has `lo > hi`.
    pub fn window(self) -> (usize, usize) {
        match self {
            MatchKind::Exact | MatchKind::Ternary => (0, 0),
            MatchKind::Range { lo, hi } => {
                assert!(lo <= hi, "range window [{lo}, {hi}] is empty");
                (lo as usize, hi as usize)
            }
        }
    }

    /// Short label for traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            MatchKind::Exact => "exact",
            MatchKind::Ternary => "ternary",
            MatchKind::Range { .. } => "range",
        }
    }
}

/// The match-line current references of a `[lo, hi]` mismatch window:
/// decision is `I > lo_ref` (absent when `lo == 0`; zero mismatches draw
/// exactly zero current) and `I < hi_ref`. Boundaries sit halfway
/// between adjacent nominal levels `m · i_low`.
pub(crate) fn window_references(params: &ReramParams, lo: usize, hi: usize) -> (Option<f64>, f64) {
    let i_nom = params.i_low().0;
    let lo_ref = (lo > 0).then_some((lo as f64 - 0.5) * i_nom);
    let hi_ref = (hi as f64 + 0.5) * i_nom;
    (lo_ref, hi_ref)
}

/// Whether every possible mismatch count of this bank decides its
/// window membership correctly under the fabricated current extremes
/// and clipped cycle-to-cycle noise — the match-line counterpart of the
/// digital word tier. Monotonicity of the current in the mismatch count
/// reduces the proof to the four window-boundary counts.
fn word_path_safe(
    bank: &ReramBank,
    lo: usize,
    hi: usize,
    lo_ref: Option<f64>,
    hi_ref: f64,
) -> bool {
    let (c_lo, c_hi) = clip_factors(bank.params().sigma_c2c);
    let e = bank.extremes();
    let cols = bank.shape().1;
    let int_min = |m: usize| m as f64 * e.i_low_min * c_lo;
    let int_max = |m: usize| m as f64 * e.i_low_max * c_hi;
    let decides = |m: usize| {
        if lo <= m && m <= hi {
            lo_ref.is_none_or(|l| int_min(m) > l) && int_max(m) < hi_ref
        } else {
            lo_ref.is_some_and(|l| int_max(m) <= l) || int_min(m) >= hi_ref
        }
    };
    [
        lo.checked_sub(1),
        Some(lo),
        Some(hi.min(cols)),
        hi.checked_add(1),
    ]
    .into_iter()
    .flatten()
    .filter(|&m| m <= cols)
    .all(decides)
}

/// Evaluates `entries` match lines against `key`, returning the match
/// bits as packed words (bit `s` = entry `s` matched). The tiered
/// engine shared by [`DigitalArray::match_search`] and [`CamArray`].
pub(crate) fn match_lines<R: Rng + ?Sized>(
    bank: &ReramBank,
    stats: &mut DigitalStats,
    entries: usize,
    key: &BitVec,
    kind: MatchKind,
    rng: &mut R,
) -> Vec<u64> {
    let (lo, hi) = kind.window();
    let (lo_ref, hi_ref) = window_references(bank.params(), lo, hi);
    let sigma = bank.params().sigma_c2c;
    let (c_lo, c_hi) = clip_factors(sigma);
    let word_safe = word_path_safe(bank, lo, hi, lo_ref, hi_ref);
    if word_safe {
        stats.word_accesses += 1;
    }
    let key_words = key.words();
    let mut out = vec![0u64; entries.div_ceil(WORD_BITS)];
    let mut mismatch = vec![0u64; bank.words_per_row()];
    for s in 0..entries {
        let care_row = 2 * s + 1;
        let value = bank.row_words(2 * s);
        let care = bank.row_words(care_row);
        let mut m = 0usize;
        for (d, ((&v, &c), &k)) in mismatch
            .iter_mut()
            .zip(value.iter().zip(care).zip(key_words))
        {
            *d = (v ^ k) & c;
            m += d.count_ones() as usize;
        }
        // A zero-mismatch entry conducts no current at all, so its
        // decision is exact regardless of noise — `[0, 0]` windows
        // (exact and ternary search) always take this path.
        let matched = if word_safe || m == 0 {
            lo <= m && m <= hi
        } else {
            // Nominal tier: the exact fabricated match-line current.
            let mut nominal = 0.0;
            for (wi, &w) in mismatch.iter().enumerate() {
                let mut w = w;
                while w != 0 {
                    let j = wi * WORD_BITS + w.trailing_zeros() as usize;
                    w &= w - 1;
                    nominal += bank.current(care_row, j);
                }
            }
            let certain_match =
                lo_ref.is_none_or(|l| nominal * c_lo > l) && nominal * c_hi < hi_ref;
            if certain_match {
                true
            } else {
                let certain_miss =
                    lo_ref.is_some_and(|l| nominal * c_hi <= l) || nominal * c_lo >= hi_ref;
                if certain_miss {
                    false
                } else {
                    // Sampled tier: this match line's margin is
                    // genuinely ambiguous — draw the per-device noise
                    // in the reference model's device order.
                    stats.sampled_columns += 1;
                    let mut i = 0.0;
                    for (wi, &w) in mismatch.iter().enumerate() {
                        let mut w = w;
                        while w != 0 {
                            let j = wi * WORD_BITS + w.trailing_zeros() as usize;
                            w &= w - 1;
                            i += bank.current(care_row, j) / log_normal(rng, 0.0, sigma);
                        }
                    }
                    lo_ref.is_none_or(|l| i > l) && i < hi_ref
                }
            }
        };
        if matched {
            out[s / WORD_BITS] |= 1u64 << (s % WORD_BITS);
        }
    }
    out
}

/// CAM-mode access surface of a digital tile: entry-slot addressing over
/// the row-pair layout.
impl DigitalArray {
    /// Number of CAM entry slots the tile holds (`rows / 2`).
    pub fn cam_entries(&self) -> usize {
        self.shape().0 / 2
    }

    /// Writes one CAM entry: `value` into bank row `2·slot`, `care` into
    /// row `2·slot + 1`. Two write pulses back to back.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or either vector's width does
    /// not match the tile.
    pub fn write_key(&mut self, slot: usize, value: &BitVec, care: &BitVec) -> OperationCost {
        let entries = self.cam_entries();
        assert!(slot < entries, "CAM slot {slot} out of range {entries}");
        let a = self.write_row(2 * slot, value);
        let b = self.write_row(2 * slot + 1, care);
        OperationCost {
            energy: a.energy + b.energy,
            latency: a.latency + b.latency,
        }
    }

    /// The stored `(value, care)` pair of one entry slot (device states,
    /// no sensing noise).
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn stored_key(&self, slot: usize) -> (BitVec, BitVec) {
        let entries = self.cam_entries();
        assert!(slot < entries, "CAM slot {slot} out of range {entries}");
        (self.stored_row(2 * slot), self.stored_row(2 * slot + 1))
    }

    /// Searches the first `entries` slots against `key` in one array
    /// access, returning one match bit per entry and the access cost.
    ///
    /// # Panics
    ///
    /// Panics if `entries` is zero or out of range, the key width does
    /// not match the tile, or a range window is empty.
    pub fn match_search<R: Rng + ?Sized>(
        &mut self,
        entries: usize,
        key: &BitVec,
        kind: MatchKind,
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        let slots = self.cam_entries();
        assert!(entries > 0, "searching zero CAM entries");
        assert!(
            entries <= slots,
            "entry count {entries} out of range {slots}"
        );
        assert_eq!(key.len(), self.shape().1, "key width mismatch");
        let latency = self.params().read_latency;
        let (bank, stats) = self.cam_parts();
        bank.fold_stale_rows(0..2 * entries);
        let mut energy = SENSE_AMP_ENERGY.0 * entries as f64;
        for s in 0..entries {
            energy += bank.row_energy(2 * s) + bank.row_energy(2 * s + 1);
        }
        let cost = OperationCost {
            energy: Joules(energy),
            latency,
        };
        let words = match_lines(bank, stats, entries, key, kind, rng);
        stats.searches += 1;
        stats.match_pulses += entries as u64;
        stats.energy += cost.energy;
        stats.busy_time += cost.latency;
        (BitVec::from_words(words, entries), cost)
    }
}

/// A dedicated `entries × width` CAM tile: a [`DigitalArray`] in
/// row-pair layout with slot-addressed access — convenient for
/// standalone associative-memory studies and the equivalence suite.
#[derive(Debug, Clone)]
pub struct CamArray {
    inner: DigitalArray,
}

impl CamArray {
    /// Fabricates a CAM of `entries` slots of `width` ternary cells
    /// (2·entries bank rows), drawing device variation from `rng` in
    /// the same order as `DigitalArray::new(2 * entries, width, ..)`.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(entries: usize, width: usize, params: ReramParams, rng: &mut StdRng) -> Self {
        assert!(entries > 0, "CAM needs at least one entry");
        CamArray {
            inner: DigitalArray::new(2 * entries, width, params, rng),
        }
    }

    /// CAM dimensions `(entries, width)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.inner.cam_entries(), self.inner.shape().1)
    }

    /// Accumulated execution statistics of the underlying tile.
    pub fn stats(&self) -> &DigitalStats {
        self.inner.stats()
    }

    /// See [`DigitalArray::write_key`].
    pub fn write_key(&mut self, slot: usize, value: &BitVec, care: &BitVec) -> OperationCost {
        self.inner.write_key(slot, value, care)
    }

    /// See [`DigitalArray::stored_key`].
    pub fn stored_key(&self, slot: usize) -> (BitVec, BitVec) {
        self.inner.stored_key(slot)
    }

    /// Searches every slot; see [`DigitalArray::match_search`].
    pub fn search<R: Rng + ?Sized>(
        &mut self,
        key: &BitVec,
        kind: MatchKind,
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        let entries = self.inner.cam_entries();
        self.inner.match_search(entries, key, kind, rng)
    }
}

/// Host scalar reference for one entry: walks the key bit by bit,
/// counting mismatches over cared positions — the CPU baseline every
/// CAM path must reproduce bit-identically.
pub fn host_match(value: &BitVec, care: &BitVec, key: &BitVec, kind: MatchKind) -> bool {
    assert_eq!(value.len(), key.len(), "key width mismatch");
    assert_eq!(care.len(), key.len(), "care width mismatch");
    let (lo, hi) = kind.window();
    let mut m = 0usize;
    for j in 0..key.len() {
        if care.get(j) && value.get(j) != key.get(j) {
            m += 1;
        }
    }
    lo <= m && m <= hi
}

/// Packs the low `width` bits of a machine word into a search key —
/// how `u64`-coded packets and probe keys enter the CAM path.
///
/// # Panics
///
/// Panics if `width` is zero or exceeds 64.
pub fn key_bits(word: u64, width: usize) -> BitVec {
    assert!(width > 0 && width <= 64, "key width {width} out of range");
    BitVec::from_words(vec![word], width)
}

/// One ternary classification rule: match `value` on the cared bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Rule {
    /// Bits the packet must equal where cared.
    pub value: BitVec,
    /// Cared positions (`0` = wildcard).
    pub care: BitVec,
}

/// A synthetic priority-ordered ternary rule table — the
/// packet-classification workload's resident dataset, with its host
/// scan references.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuleSet {
    width: usize,
    rules: Vec<Rule>,
}

impl RuleSet {
    /// Generates `count` random rules of `width` bits, each bit
    /// independently a wildcard with probability `wildcard_density`.
    /// Deterministic in the seed.
    ///
    /// # Panics
    ///
    /// Panics if `count` or `width` is zero, or the density is outside
    /// `[0, 1]`.
    pub fn generate(count: usize, width: usize, wildcard_density: f64, seed: u64) -> Self {
        assert!(
            count > 0 && width > 0,
            "rule table dimensions must be nonzero"
        );
        assert!(
            (0.0..=1.0).contains(&wildcard_density),
            "wildcard density {wildcard_density} outside [0, 1]"
        );
        let mut rng = seeded(seed);
        let rules = (0..count)
            .map(|_| {
                let value = BitVec::from_fn(width, |_| rng.gen::<bool>());
                let care = BitVec::from_fn(width, |_| !rng.gen_bool(wildcard_density));
                Rule { value, care }
            })
            .collect();
        RuleSet { width, rules }
    }

    /// Rule width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// The rules in priority order (lowest index wins).
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Host scan reference: per-rule ternary match bits for one packet.
    pub fn matches(&self, packet: &BitVec) -> BitVec {
        BitVec::from_fn(self.rules.len(), |i| {
            host_match(
                &self.rules[i].value,
                &self.rules[i].care,
                packet,
                MatchKind::Ternary,
            )
        })
    }

    /// Host classification reference: the highest-priority (lowest
    /// index) matching rule, if any.
    pub fn classify(&self, packet: &BitVec) -> Option<u32> {
        self.rules
            .iter()
            .position(|r| host_match(&r.value, &r.care, packet, MatchKind::Ternary))
            .map(|i| i as u32)
    }

    /// Samples a packet biased to hit the table: a uniformly chosen
    /// rule's cared bits with randomized wildcards.
    pub fn sample_packet<R: Rng + ?Sized>(&self, rng: &mut R) -> BitVec {
        let r = &self.rules[rng.gen_range(0..self.rules.len())];
        BitVec::from_fn(self.width, |j| {
            if r.care.get(j) {
                r.value.get(j)
            } else {
                rng.gen::<bool>()
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::ReferenceCamArray;

    /// A CAM whose entry `s` mismatches the all-zero key in exactly `s`
    /// cared positions.
    fn staircase_cam(
        entries: usize,
        width: usize,
        params: ReramParams,
    ) -> (CamArray, rand::rngs::StdRng) {
        let mut rng = seeded(21);
        let mut cam = CamArray::new(entries, width, params, &mut rng);
        for s in 0..entries {
            let value = BitVec::from_fn(width, |j| j < s);
            cam.write_key(s, &value, &BitVec::ones(width));
        }
        (cam, rng)
    }

    #[test]
    fn write_key_round_trips_value_and_care() {
        let mut rng = seeded(3);
        let mut cam = CamArray::new(4, 24, ReramParams::default(), &mut rng);
        let value = BitVec::from_fn(24, |j| j % 3 == 0);
        let care = BitVec::from_fn(24, |j| j % 2 == 0);
        cam.write_key(2, &value, &care);
        assert_eq!(cam.stored_key(2), (value, care));
        assert_eq!(cam.stats().row_writes, 2);
    }

    #[test]
    fn exact_and_ternary_take_the_word_path_at_defaults() {
        let mut rng = seeded(5);
        let mut cam = CamArray::new(8, 32, ReramParams::default(), &mut rng);
        let stored: Vec<BitVec> = (0..8)
            .map(|s| BitVec::from_fn(32, |j| (j * (s + 2)) % 5 < 2))
            .collect();
        for (s, v) in stored.iter().enumerate() {
            let care = if s % 2 == 0 {
                BitVec::ones(32)
            } else {
                BitVec::from_fn(32, |j| j % 4 != 1)
            };
            cam.write_key(s, v, &care);
        }
        for (q, kind) in [(0usize, MatchKind::Exact), (3, MatchKind::Ternary)] {
            let (hits, cost) = cam.search(&stored[q], kind, &mut rng);
            assert!(hits.get(q), "{kind:?} must hit its own entry");
            assert!(cost.energy.0 > 0.0);
            for s in 0..8 {
                let (value, care) = cam.stored_key(s);
                assert_eq!(
                    hits.get(s),
                    host_match(&value, &care, &stored[q], kind),
                    "{kind:?} entry {s}"
                );
            }
        }
        // The steady state: every search word-certified, nothing sampled.
        assert_eq!(cam.stats().searches, 2);
        assert_eq!(cam.stats().word_accesses, 2);
        assert_eq!(cam.stats().sampled_columns, 0);
        assert_eq!(cam.stats().match_pulses, 16);
    }

    #[test]
    fn range_window_selects_mismatch_band_when_ideal() {
        let (mut cam, mut rng) = staircase_cam(10, 16, ReramParams::ideal());
        let key = BitVec::zeros(16);
        let (hits, _) = cam.search(&key, MatchKind::Range { lo: 2, hi: 5 }, &mut rng);
        for s in 0..10 {
            assert_eq!(hits.get(s), (2..=5).contains(&s), "entry {s}");
        }
    }

    #[test]
    fn shallow_range_windows_word_certify_at_defaults() {
        let (mut cam, mut rng) = staircase_cam(6, 16, ReramParams::default());
        let key = BitVec::zeros(16);
        let (hits, _) = cam.search(&key, MatchKind::Range { lo: 0, hi: 1 }, &mut rng);
        assert!(hits.get(0) && hits.get(1) && !hits.get(2));
        assert_eq!(cam.stats().word_accesses, 1);
        assert_eq!(cam.stats().sampled_columns, 0);
    }

    #[test]
    fn deep_windows_fall_back_but_stay_exact_without_c2c_noise() {
        // σ_d2d = 0.3 spreads fabricated currents far beyond the word
        // tier's tolerance for a deep window, but with σ_c2c = 0 the
        // nominal tier decides every match line exactly.
        let params = ReramParams {
            sigma_d2d: 0.3,
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        let (mut cam, mut rng) = staircase_cam(12, 16, params);
        let key = BitVec::zeros(16);
        let (hits, _) = cam.search(&key, MatchKind::Range { lo: 4, hi: 9 }, &mut rng);
        assert_eq!(cam.stats().sampled_columns, 0);
        // Wide d2d spread can genuinely misplace a match-line current
        // relative to the shared references, so compare against the
        // nominal-current decision, not the ideal mismatch count.
        assert!(hits.get(5) && !hits.get(0), "interior of the band decided");
    }

    #[test]
    fn fast_path_matches_reference_at_zero_c2c() {
        let params = ReramParams {
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        let mut rng_a = seeded(77);
        let mut rng_b = seeded(77);
        let mut fast = CamArray::new(7, 40, params, &mut rng_a);
        let mut refe = ReferenceCamArray::new(7, 40, params, &mut rng_b);
        for s in 0..7 {
            let value = BitVec::from_fn(40, |j| (j + s) % 3 == 0);
            let care = BitVec::from_fn(40, |j| (j + 2 * s) % 7 != 1);
            fast.write_key(s, &value, &care);
            refe.write_key(s, &value, &care);
            assert_eq!(fast.stored_key(s), refe.stored_key(s), "slot {s}");
        }
        let key = BitVec::from_fn(40, |j| j % 3 == 0);
        for kind in [
            MatchKind::Exact,
            MatchKind::Ternary,
            MatchKind::Range { lo: 0, hi: 6 },
            MatchKind::Range { lo: 3, hi: 10 },
        ] {
            let (a, ca) = fast.search(&key, kind, &mut rng_a);
            let (b, cb) = refe.search(&key, kind, &mut rng_b);
            assert_eq!(a, b, "{kind:?}");
            assert!((ca.energy.0 - cb.energy.0).abs() <= 1e-12 * cb.energy.0.abs());
            assert_eq!(ca.latency, cb.latency);
        }
    }

    #[test]
    fn ruleset_classify_prefers_lowest_index() {
        let all_wild = Rule {
            value: BitVec::zeros(8),
            care: BitVec::zeros(8),
        };
        let rules = RuleSet {
            width: 8,
            rules: vec![all_wild.clone(), all_wild],
        };
        // Both rules match everything; priority picks rule 0.
        assert_eq!(rules.classify(&BitVec::ones(8)), Some(0));
        assert_eq!(rules.matches(&BitVec::ones(8)).count_ones(), 2);
    }

    #[test]
    fn ruleset_generation_is_deterministic_and_hittable() {
        let a = RuleSet::generate(32, 24, 0.3, 9);
        let b = RuleSet::generate(32, 24, 0.3, 9);
        assert_eq!(a, b);
        let mut rng = seeded(1);
        let mut hits = 0;
        for _ in 0..20 {
            let p = a.sample_packet(&mut rng);
            if a.classify(&p).is_some() {
                hits += 1;
            }
        }
        assert_eq!(hits, 20, "sampled packets always hit their source rule");
    }

    #[test]
    fn key_bits_packs_low_bits() {
        let k = key_bits(0b1011, 6);
        assert_eq!(k.to_bools(), vec![true, true, false, true, false, false]);
        assert_eq!(key_bits(u64::MAX, 64).count_ones(), 64);
    }

    #[test]
    #[should_panic(expected = "range window")]
    fn empty_range_window_rejected() {
        let _ = MatchKind::Range { lo: 3, hi: 1 }.window();
    }

    #[test]
    #[should_panic(expected = "key width mismatch")]
    fn wrong_key_width_rejected() {
        let mut rng = seeded(2);
        let mut cam = CamArray::new(2, 16, ReramParams::default(), &mut rng);
        let _ = cam.search(&BitVec::zeros(8), MatchKind::Exact, &mut rng);
    }
}
