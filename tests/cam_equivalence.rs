//! Property suite pinning the word-parallel CAM path against its
//! references, three ways:
//!
//! * **`CamArray` vs `ReferenceCamArray`** — the tiered word-parallel
//!   match-line search against the bit-serial per-device model,
//!   fabricated from the same seed and driven through the same random
//!   write/search scripts across random geometries, care masks, and
//!   range windows. Stored states are bit-identical after any script
//!   under any variation setting; search outputs are bit-identical
//!   whenever `sigma_c2c == 0` (including heavy device-to-device spread,
//!   which forces the word tier into exact per-line evaluation); energy
//!   and latency accounting agrees to 1e-12 relative even under full
//!   noise.
//! * **vs the host scalar** — with ideal devices, both arrays reproduce
//!   [`host_match`]'s bit-by-bit mismatch count for every entry and
//!   every match kind.
//! * **split vs giant through the pool** — a `CamSearch` scatter-
//!   gathered across two shards returns bit-identical match sets to the
//!   same dataset served whole by one shard with twice the tiles, and
//!   both equal the host scan.

use cim_repro::cim_crossbar::cam::{host_match, CamArray, MatchKind, RuleSet};
use cim_repro::cim_crossbar::reference::ReferenceCamArray;
use cim_repro::cim_device::reram::ReramParams;
use cim_repro::cim_runtime::{
    DatasetSpec, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;

/// 1e-12 relative agreement (the word-parallel path folds row-energy
/// sums in a different floating-point association than the per-device
/// loop).
fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// One scripted operation, decoded from two random words.
#[derive(Debug, Clone, Copy)]
enum Op {
    Write { slot: usize, pattern: u64 },
    Search { pattern: u64, kind: MatchKind },
}

fn decode_ops(entries: usize, width: usize, sels: &[u8], args: &[u64]) -> Vec<Op> {
    sels.iter()
        .zip(args)
        .map(|(&sel, &x)| {
            if sel % 3 == 0 {
                Op::Write {
                    slot: (x % entries as u64) as usize,
                    pattern: x,
                }
            } else {
                let kind = match (x >> 32) % 3 {
                    0 => MatchKind::Exact,
                    1 => MatchKind::Ternary,
                    _ => {
                        let lo = ((x >> 40) % (width as u64 + 1)) as u32;
                        let slack = width as u64 + 1 - lo as u64;
                        let hi = lo + ((x >> 48) % slack) as u32;
                        MatchKind::Range { lo, hi }
                    }
                };
                Op::Search { pattern: x, kind }
            }
        })
        .collect()
}

fn pattern_bits(width: usize, pattern: u64) -> BitVec {
    BitVec::from_fn(width, |j| {
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
    entries: usize,
    width: usize,
    params: ReramParams,
    fab_seed: u64,
    sels: &[u8],
    args: &[u64],
) -> Result<(), TestCaseError> {
    // Outputs are deterministic (hence comparable) exactly when the
    // cycle-to-cycle noise is off; with device-to-device spread both
    // arrays may commit genuine (identical) sensing errors, so the host
    // scalar is only pinned on ideal devices.
    let compare_outputs = params.sigma_c2c == 0.0;
    let compare_host = params.sigma_c2c == 0.0 && params.sigma_d2d == 0.0;

    let mut fast = CamArray::new(entries, width, params, &mut seeded(fab_seed));
    let mut reference = ReferenceCamArray::new(entries, width, params, &mut seeded(fab_seed));
    let mut fast_rng = seeded(fab_seed ^ 0xCA11);
    let mut ref_rng = seeded(fab_seed ^ 0xCA11);

    // Program every slot up front so searches always see written keys.
    for s in 0..entries {
        let value = pattern_bits(width, s as u64 ^ fab_seed);
        let care = pattern_bits(width, (s as u64).rotate_left(17) ^ !fab_seed);
        fast.write_key(s, &value, &care);
        reference.write_key(s, &value, &care);
    }

    for op in decode_ops(entries, width, sels, args) {
        match op {
            Op::Write { slot, pattern } => {
                let value = pattern_bits(width, pattern);
                let care = pattern_bits(width, pattern.rotate_left(23));
                let fc = fast.write_key(slot, &value, &care);
                let rc = reference.write_key(slot, &value, &care);
                prop_assert!(
                    rel_close(fc.energy.0, rc.energy.0),
                    "write energy {} vs {}",
                    fc.energy.0,
                    rc.energy.0
                );
                prop_assert_eq!(fc.latency, rc.latency);
            }
            Op::Search { pattern, kind } => {
                let key = pattern_bits(width, pattern.rotate_left(41));
                let (fb, fc) = fast.search(&key, kind, &mut fast_rng);
                let (rb, rc) = reference.search(&key, kind, &mut ref_rng);
                if compare_outputs {
                    prop_assert_eq!(&fb, &rb, "{:?} search", kind);
                }
                if compare_host {
                    let host = BitVec::from_fn(entries, |s| {
                        let (value, care) = fast.stored_key(s);
                        host_match(&value, &care, &key, kind)
                    });
                    prop_assert_eq!(&fb, &host, "{:?} vs host scalar", kind);
                }
                prop_assert!(
                    rel_close(fc.energy.0, rc.energy.0),
                    "{:?} energy {} vs {}",
                    kind,
                    fc.energy.0,
                    rc.energy.0
                );
                prop_assert_eq!(fc.latency, rc.latency);
            }
        }
    }

    // Stored states are identical regardless of noise settings.
    for s in 0..entries {
        prop_assert_eq!(fast.stored_key(s), reference.stored_key(s), "slot {}", s);
    }
    // Accumulated accounting agrees to 1e-12 relative.
    let (fs, rs) = (fast.stats(), reference.stats());
    prop_assert_eq!(fs.row_writes, rs.row_writes);
    prop_assert_eq!(fs.searches, rs.searches);
    prop_assert_eq!(fs.match_pulses, rs.match_pulses);
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
    #![proptest_config(ProptestConfig::with_cases(20))]

    #[test]
    fn cam_matches_reference_and_host_on_ideal_devices(
        entries in 1usize..24,
        width in 1usize..130,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 16),
        args in prop::collection::vec(any::<u64>(), 16),
    ) {
        check_equivalence(entries, width, ReramParams::ideal(), fab_seed, &sels, &args)?;
    }

    #[test]
    fn cam_matches_reference_under_d2d_spread(
        entries in 1usize..24,
        width in 1usize..130,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 16),
        args in prop::collection::vec(any::<u64>(), 16),
    ) {
        // Heavy device-to-device spread with zero cycle-to-cycle noise:
        // sensing is still deterministic, but the match-line word tier's
        // margin proof fails and the exact per-line tier must carry the
        // equivalence (including genuine window-placement errors, which
        // both implementations must commit identically).
        let params = ReramParams {
            sigma_d2d: 0.25,
            sigma_c2c: 0.0,
            ..ReramParams::default()
        };
        check_equivalence(entries, width, params, fab_seed, &sels, &args)?;
    }

    #[test]
    fn cam_matches_reference_accounting_under_noise(
        entries in 1usize..24,
        width in 1usize..130,
        fab_seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 16),
        args in prop::collection::vec(any::<u64>(), 16),
    ) {
        // Default (noisy) parameters: range decisions near the window
        // boundaries are stochastic, so only states, op counters and
        // energy/latency accounting are pinned.
        check_equivalence(entries, width, ReramParams::default(), fab_seed, &sels, &args)?;
    }
}

/// Searches a resident rule table through a pool for every match kind,
/// returning the per-key match sets.
fn pool_search(cfg: PoolConfig, keys: &[BitVec], kind: MatchKind) -> (Vec<BitVec>, usize) {
    let pool = RuntimePool::new(cfg);
    let session = pool.client(TenantId(3));
    let table = session
        .register_dataset(&DatasetSpec::CamRules {
            rules: 400,
            width: 48,
            wildcard_density: 0.4,
            seed: 31,
        })
        .unwrap();
    let report = session
        .submit(&WorkloadSpec::CamSearch {
            dataset: table.id(),
            kind,
            keys: keys.to_vec(),
        })
        .unwrap()
        .wait();
    let shards = report.shards.len();
    match report.output.expect("search serves") {
        JobOutput::Matches(sets) => (sets, shards),
        other => panic!("unexpected output {other:?}"),
    }
}

/// A `CamSearch` split across shards is bit-identical to the same
/// dataset served whole by one giant shard, and both equal the host
/// scan — for exact, ternary, and analog range semantics alike (range
/// windows are exact on ideal devices; zero mismatches draw exactly
/// zero current either way).
#[test]
fn split_cam_search_equals_single_giant_shard() {
    // 400 rules = 5 tiles at 80 entries/tile: splits across the default
    // 2 × 4-tile pool, fits whole in one shard with 8 tiles.
    let split_cfg = PoolConfig {
        reram_params: ReramParams::ideal(),
        ..PoolConfig::default()
    };
    let giant_cfg = PoolConfig {
        shards: 1,
        digital_tiles: 8,
        reram_params: ReramParams::ideal(),
        ..PoolConfig::default()
    };
    let host = RuleSet::generate(400, 48, 0.4, 31);
    let mut rng = seeded(0x6A17);
    let keys: Vec<BitVec> = (0..10).map(|_| host.sample_packet(&mut rng)).collect();

    for kind in [
        MatchKind::Exact,
        MatchKind::Ternary,
        MatchKind::Range { lo: 0, hi: 3 },
    ] {
        let (split, split_shards) = pool_search(split_cfg, &keys, kind);
        let (giant, giant_shards) = pool_search(giant_cfg, &keys, kind);
        assert_eq!(split_shards, 2, "{kind:?} job must scatter");
        assert_eq!(giant_shards, 1, "{kind:?} job must not scatter");
        assert_eq!(split, giant, "{kind:?} split vs giant");
        for (key, set) in keys.iter().zip(&giant) {
            let expected = BitVec::from_fn(400, |s| {
                let rule = &host.rules()[s];
                host_match(&rule.value, &rule.care, key, kind)
            });
            assert_eq!(set, &expected, "{kind:?} vs host scan");
        }
    }
}
