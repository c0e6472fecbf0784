//! Property suite pinning the word-parallel SoA digital array against the
//! bit-serial per-device reference model.
//!
//! `DigitalArray` (struct-of-arrays storage, tiered word-parallel sensing,
//! cached O(fan-in) access costs) and `ReferenceDigitalArray` (one
//! `ReramDevice` per bit, everything recomputed per access) are fabricated
//! from the same seed and driven through the same random operation
//! scripts across random geometries and fan-ins. The fast array folds a
//! row's read-energy sum when an access first activates the row after a
//! write; the scripts include all-zero writes (what a lease scrub
//! writes), and the accounting asserts below cover reads after both
//! kinds of write. The fast array also draws its devices only at its
//! first sensing access, while the reference draws them at
//! construction. The suite asserts:
//!
//! * **states** — stored rows are bit-identical after any write sequence,
//!   under any variation setting;
//! * **sensed outputs** — read/scout results are bit-identical whenever
//!   `sigma_c2c == 0` (both with ideal devices and under heavy
//!   device-to-device spread, which forces the fast path off its word
//!   tier into exact per-column evaluation);
//! * **accounting** — per-operation energy/latency and the accumulated
//!   stats agree to 1e-12 relative under default (noisy) parameters;
//! * **deferred fabrication** — both constructors leave the caller's RNG
//!   at the same position, writes and scrubs draw no device, and the
//!   classes above still hold when the first sensing access follows
//!   them.

use cim_repro::cim_crossbar::digital::DigitalArray;
use cim_repro::cim_crossbar::reference::ReferenceDigitalArray;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_device::reram::ReramParams;
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// 1e-12 relative agreement (the fast path folds row-energy sums in a
/// different floating-point association than the per-device loop).
fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// One scripted operation, decoded from two random words.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Writes `pattern_row(cols, pattern)`, or with `None` an all-zero
    /// row, as the lease scrub does.
    Write {
        row: usize,
        pattern: Option<u64>,
    },
    Read {
        row: usize,
    },
    Scout {
        op: ScoutOp,
        start: usize,
        k: usize,
    },
}

fn decode_ops(rows: usize, sels: &[u8], args: &[u64]) -> Vec<Op> {
    sels.iter()
        .zip(args)
        .map(|(&sel, &x)| {
            let row = (x % rows as u64) as usize;
            match sel % 4 {
                // One write in four is all zeros.
                0 | 1 => Op::Write {
                    row,
                    pattern: ((x >> 40) % 4 != 0).then_some(x),
                },
                2 => Op::Read { row },
                _ => {
                    let max_k = rows.min(8);
                    let (op, k) = match (x >> 32) % 3 {
                        0 => (ScoutOp::Or, 2 + (x % (max_k as u64 - 1)) as usize),
                        1 => (ScoutOp::And, 2 + (x % (max_k as u64 - 1)) as usize),
                        _ => (ScoutOp::Xor, 2),
                    };
                    // A contiguous row window gives distinct rows at any
                    // geometry.
                    let start = (x % (rows - k + 1) as u64) as usize;
                    Op::Scout { op, start, k }
                }
            }
        })
        .collect()
}

fn pattern_row(cols: usize, pattern: u64) -> BitVec {
    BitVec::from_fn(cols, |j| {
        (j as u64)
            .wrapping_add(pattern)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            >> 61
            < 3
    })
}

/// Runs one script against both implementations and checks the
/// equivalence classes that hold for `params`.
fn check_equivalence(
    rows: usize,
    cols: usize,
    params: ReramParams,
    fab_seed: u64,
    sels: &[u8],
    args: &[u64],
) -> Result<(), TestCaseError> {
    let mut fast = DigitalArray::new(rows, cols, params, &mut seeded(fab_seed));
    let mut reference = ReferenceDigitalArray::new(rows, cols, params, &mut seeded(fab_seed));
    drive(&mut fast, &mut reference, fab_seed, sels, args)
}

/// Drives both arrays, fabricated alike, through the script `sels` and
/// `args` decode to, under noise streams seeded from `noise_seed`, then
/// checks the equivalence classes that hold for their parameters.
fn drive(
    fast: &mut DigitalArray,
    reference: &mut ReferenceDigitalArray,
    noise_seed: u64,
    sels: &[u8],
    args: &[u64],
) -> Result<(), TestCaseError> {
    let (rows, cols) = fast.shape();
    // Outputs are deterministic (hence comparable) exactly when the
    // cycle-to-cycle noise is off; state and accounting always agree.
    let compare_outputs = fast.params().sigma_c2c == 0.0;
    let mut fast_rng = seeded(noise_seed ^ 0x517E);
    let mut ref_rng = seeded(noise_seed ^ 0x517E);

    for op in decode_ops(rows, sels, args) {
        match op {
            Op::Write { row, pattern } => {
                let bits = pattern.map_or_else(|| BitVec::zeros(cols), |p| pattern_row(cols, p));
                let fc = fast.write_row(row, &bits);
                let rc = reference.write_row(row, &bits);
                prop_assert!(
                    rel_close(fc.energy.0, rc.energy.0),
                    "write energy {} vs {}",
                    fc.energy.0,
                    rc.energy.0
                );
                prop_assert_eq!(fc.latency, rc.latency);
            }
            Op::Read { row } => {
                let (fb, fc) = fast.read_row_with_cost(row, &mut fast_rng);
                let (rb, rc) = reference.read_row_with_cost(row, &mut ref_rng);
                if compare_outputs {
                    prop_assert_eq!(&fb, &rb, "read row {}", row);
                }
                prop_assert!(
                    rel_close(fc.energy.0, rc.energy.0),
                    "read energy {} vs {}",
                    fc.energy.0,
                    rc.energy.0
                );
                prop_assert_eq!(fc.latency, rc.latency);
            }
            Op::Scout { op, start, k } => {
                let picked: Vec<usize> = (start..start + k).collect();
                let (fb, fc) = fast.scout_with_cost(op, &picked, &mut fast_rng);
                let (rb, rc) = reference.scout_with_cost(op, &picked, &mut ref_rng);
                if compare_outputs {
                    prop_assert_eq!(&fb, &rb, "{:?} over {:?}", op, &picked);
                }
                prop_assert_eq!(
                    fast.scout_exact(op, &picked),
                    reference.scout_exact(op, &picked)
                );
                prop_assert!(
                    rel_close(fc.energy.0, rc.energy.0),
                    "{:?} energy {} vs {}",
                    op,
                    fc.energy.0,
                    rc.energy.0
                );
                prop_assert_eq!(fc.latency, rc.latency);
            }
        }
    }

    // Fabricated states are identical regardless of noise settings.
    for r in 0..rows {
        prop_assert_eq!(fast.stored_row(r), reference.stored_row(r), "row {}", r);
    }
    // Accumulated accounting agrees to 1e-12 relative.
    let (fs, rs) = (fast.stats(), reference.stats());
    prop_assert_eq!(fs.row_writes, rs.row_writes);
    prop_assert_eq!(fs.row_reads, rs.row_reads);
    prop_assert_eq!(fs.scout_ops, rs.scout_ops);
    prop_assert!(
        rel_close(fs.energy.0, rs.energy.0),
        "total energy {} vs {}",
        fs.energy.0,
        rs.energy.0
    );
    prop_assert!(rel_close(fs.busy_time.0, rs.busy_time.0));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn soa_matches_reference_ideal_devices(
        rows in 2usize..10,
        cols in 1usize..170,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 20),
        args in prop::collection::vec(any::<u64>(), 20),
    ) {
        check_equivalence(rows, cols, ReramParams::ideal(), fab_seed, &sels, &args)?;
    }

    #[test]
    fn soa_matches_reference_under_d2d_spread(
        rows in 2usize..10,
        cols in 1usize..170,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 20),
        args in prop::collection::vec(any::<u64>(), 20),
    ) {
        // Heavy device-to-device spread with zero cycle-to-cycle noise:
        // sensing is still deterministic, but the word tier's margin
        // proof fails and the screened tier's exact nominal currents
        // must carry the equivalence (including genuine sensing errors,
        // which both implementations must commit identically).
        let params = ReramParams {
            sigma_d2d: 0.25,
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        check_equivalence(rows, cols, params, fab_seed, &sels, &args)?;
    }

    #[test]
    fn soa_matches_reference_accounting_under_noise(
        rows in 2usize..10,
        cols in 1usize..170,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 20),
        args in prop::collection::vec(any::<u64>(), 20),
    ) {
        // Default (noisy) parameters: sensed bits are stochastic so only
        // states, op counters and energy/latency accounting are pinned.
        check_equivalence(rows, cols, ReramParams::default(), fab_seed, &sels, &args)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The fast array draws its devices at its first sensing access, the
    /// reference at construction. Both constructors leave the caller's
    /// stream at the same position, writes and scrubs alone draw
    /// nothing, and a first sensing access that comes after writes and
    /// scrubs still meets the reference bit for bit.
    #[test]
    fn deferred_fabrication_matches_the_eager_reference(
        rows in 2usize..10,
        cols in 1usize..170,
        d2d in 0usize..3,
        fab_seed in any::<u64>(),
        writes in prop::collection::vec(any::<u64>(), 6),
        sels in prop::collection::vec(any::<u8>(), 20),
        args in prop::collection::vec(any::<u64>(), 20),
    ) {
        let params = ReramParams {
            sigma_d2d: [0.0, ReramParams::default().sigma_d2d, 0.5][d2d],
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        let mut fast_fab = seeded(fab_seed);
        let mut ref_fab = seeded(fab_seed);
        let mut fast = DigitalArray::new(rows, cols, params, &mut fast_fab);
        let mut reference = ReferenceDigitalArray::new(rows, cols, params, &mut ref_fab);
        prop_assert_eq!(fast_fab.gen::<u64>(), ref_fab.gen::<u64>(), "stream positions");
        prop_assert!(!fast.is_fabricated(), "construction draws nothing");

        // Every third write is a scrub's all-zero row.
        for (n, &x) in writes.iter().enumerate() {
            let row = (x % rows as u64) as usize;
            let bits = if n % 3 == 2 { BitVec::zeros(cols) } else { pattern_row(cols, x) };
            fast.write_row(row, &bits);
            reference.write_row(row, &bits);
        }
        prop_assert!(!fast.is_fabricated(), "writes and scrubs draw nothing");

        // The first sensing access, then the random script.
        let row = (writes[0] % rows as u64) as usize;
        let (fb, fc) = fast.read_row_with_cost(row, &mut seeded(fab_seed));
        let (rb, rc) = reference.read_row_with_cost(row, &mut seeded(fab_seed));
        prop_assert!(fast.is_fabricated());
        prop_assert_eq!(fb, rb);
        prop_assert!(rel_close(fc.energy.0, rc.energy.0), "{} vs {}", fc.energy.0, rc.energy.0);
        drive(&mut fast, &mut reference, fab_seed, &sels, &args)?;
    }
}

/// The fast path's noise sampling is *behaviourally* equivalent too: at
/// default variation every sensed result it produces matches the exact
/// boolean result, just as the reference model's does (margins sit tens
/// of noise sigmas from the references).
#[test]
fn sensed_results_match_boolean_at_default_variation() {
    let mut rng = seeded(0xFA57);
    let mut arr = DigitalArray::new(10, 257, ReramParams::default(), &mut rng);
    for r in 0..10 {
        arr.write_row(r, &pattern_row(257, r as u64 * 77));
    }
    for k in [2usize, 3, 4, 8] {
        let picked: Vec<usize> = (0..k).collect();
        for op in [ScoutOp::Or, ScoutOp::And] {
            assert_eq!(
                arr.scout(op, &picked, &mut rng),
                arr.scout_exact(op, &picked),
                "{op:?} fan-in {k}"
            );
        }
    }
    assert_eq!(
        arr.scout(ScoutOp::Xor, &[3, 7], &mut rng),
        arr.scout_exact(ScoutOp::Xor, &[3, 7])
    );
}
