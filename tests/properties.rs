//! Cross-crate property-based tests (proptest).
//!
//! These pin the invariants the reproduction rests on: cipher
//! involution (in software and served by the pool), bitmap-plan ≡
//! scalar-predicate semantics, scouting logic ≡ boolean algebra under
//! nominal devices, quantizer error bounds, HD algebra laws, and filter
//! fixed points.

use cim_repro::cim_bitmap_db::bitmap::{BinSpec, BitmapIndex};
use cim_repro::cim_crossbar::digital::DigitalArray;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_device::reram::ReramParams;
use cim_repro::cim_hdc::hypervector::Hypervector;
use cim_repro::cim_imgproc::guided::{guided_filter, GuidedParams};
use cim_repro::cim_imgproc::image::GrayImage;
use cim_repro::cim_runtime::{
    JobOutput, JobReport, PoolClient, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::quant::UniformQuantizer;
use cim_repro::cim_simkit::rng::seeded;
use cim_repro::cim_xor_cipher::otp::OneTimePad;
use proptest::prelude::*;

/// Width of the cipher pool's one tile, in bits: a message of up to 96
/// bytes spans up to six chunks, and one under 16 bytes fits in one.
const CIPHER_TILE_COLS: usize = 128;

/// Serves `XorEncrypt` of `message` under the pad of `key_seed`.
fn serve_xor(session: &PoolClient, message: &[u8], key_seed: u64) -> JobReport {
    session
        .submit(&WorkloadSpec::XorEncrypt {
            message: message.to_vec(),
            key_seed,
        })
        .expect("the message fits the pool")
        .wait()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn otp_decrypt_inverts_encrypt(message in prop::collection::vec(any::<u8>(), 1..200), seed in any::<u64>()) {
        let pad = OneTimePad::generate(message.len(), seed);
        let ct = pad.encrypt(&message).unwrap();
        prop_assert_eq!(pad.decrypt(&ct).unwrap(), message);
    }

    /// The served cipher is the software pad's, byte for byte, at one
    /// scouting XOR and two row writes per tile-width chunk, and the
    /// same pad decrypts it.
    #[test]
    fn cim_cipher_matches_software(message in prop::collection::vec(any::<u8>(), 1..96), seed in any::<u64>()) {
        let sw = OneTimePad::generate(message.len(), seed).encrypt(&message).unwrap();
        let pool = RuntimePool::new(PoolConfig {
            shards: 1,
            digital_tiles: 1,
            tile_cols: CIPHER_TILE_COLS,
            analog_tiles: 0,
            ..PoolConfig::default()
        });
        let session = pool.client(TenantId(1));
        let report = serve_xor(&session, &message, seed);
        prop_assert_eq!(&report.output, &Ok(JobOutput::Cipher(sw.clone())));
        let chunks = (message.len() * 8).div_ceil(CIPHER_TILE_COLS) as u64;
        prop_assert_eq!(report.stats.logic_ops, chunks);
        prop_assert_eq!(report.stats.row_writes, 2 * chunks);
        prop_assert!(report.stats.energy.0 > 0.0 && report.stats.busy_time.0 > 0.0);
        prop_assert_eq!(serve_xor(&session, &sw, seed).output, Ok(JobOutput::Cipher(message)));
    }

    #[test]
    fn bitmap_range_select_equals_scalar_filter(
        values in prop::collection::vec(0i64..50, 1..300),
        lo in 0i64..50,
        width in 0i64..50,
    ) {
        let hi = (lo + width).min(49);
        let idx = BitmapIndex::build(BinSpec::Equality { lo: 0, hi: 49 }, &values);
        let sel = idx.select_range(lo, hi);
        for (i, &v) in values.iter().enumerate() {
            prop_assert_eq!(sel.get(i), v >= lo && v <= hi, "row {} value {}", i, v);
        }
    }

    #[test]
    fn scouting_equals_boolean_algebra(
        a in prop::collection::vec(any::<bool>(), 32),
        b in prop::collection::vec(any::<bool>(), 32),
        seed in any::<u64>(),
    ) {
        let mut rng = seeded(seed);
        let mut arr = DigitalArray::new(2, 32, ReramParams::default(), &mut rng);
        arr.write_row(0, &BitVec::from_bools(&a));
        arr.write_row(1, &BitVec::from_bools(&b));
        for op in [ScoutOp::Or, ScoutOp::And, ScoutOp::Xor] {
            let sensed = arr.scout(op, &[0, 1], &mut rng);
            let expect: Vec<bool> = a.iter().zip(&b).map(|(&x, &y)| match op {
                ScoutOp::Or => x | y,
                ScoutOp::And => x & y,
                ScoutOp::Xor => x ^ y,
            }).collect();
            prop_assert_eq!(sensed, BitVec::from_bools(&expect), "{:?}", op);
        }
    }

    #[test]
    fn quantizer_error_bounded_and_idempotent(
        bits in 2u32..12,
        x in -10.0f64..10.0,
        scale in 0.1f64..10.0,
    ) {
        let q = UniformQuantizer::mid_tread(bits, scale);
        let y = q.quantize(x);
        // In-range inputs stay within half a step; all inputs clip into range.
        if x.abs() <= scale {
            prop_assert!((y - x).abs() <= q.max_error() + 1e-12);
        }
        prop_assert!(y.abs() <= scale + 1e-12);
        // Idempotence.
        prop_assert_eq!(q.quantize(y), y);
    }

    #[test]
    fn hd_binding_laws(seed in any::<u64>(), k in 1usize..500) {
        let mut rng = seeded(seed);
        let a = Hypervector::random(1024, &mut rng);
        let b = Hypervector::random(1024, &mut rng);
        // Self-inverse, commutative, permutation-distributive.
        prop_assert_eq!(a.bind(&b).bind(&b), a.clone());
        prop_assert_eq!(a.bind(&b), b.bind(&a));
        let k = k % 1024;
        prop_assert_eq!(
            a.bind(&b).permute(k),
            a.permute(k).bind(&b.permute(k))
        );
        // Distance preservation under binding.
        let c = Hypervector::random(1024, &mut rng);
        prop_assert_eq!(a.hamming(&b), a.bind(&c).hamming(&b.bind(&c)));
    }

    #[test]
    fn guided_filter_constant_fixed_point(v in 0.0f64..1.0, r in 1usize..6) {
        let img = GrayImage::constant(24, 24, v);
        let out = guided_filter(&img, &img, &GuidedParams { radius: r, epsilon: 0.01 });
        for &p in out.as_slice() {
            prop_assert!((p - v).abs() < 1e-9);
        }
    }

    #[test]
    fn bitvec_boolean_laws(
        a in prop::collection::vec(any::<bool>(), 1..128),
    ) {
        let v = BitVec::from_bools(&a);
        let ones = BitVec::ones(a.len());
        let zeros = BitVec::zeros(a.len());
        prop_assert_eq!(v.and(&ones), v.clone());
        prop_assert_eq!(v.or(&zeros), v.clone());
        prop_assert_eq!(v.xor(&v), zeros.clone());
        prop_assert_eq!(v.not().not(), v.clone());
        // De Morgan.
        prop_assert_eq!(v.not().or(&ones.not()), v.and(&ones).not());
    }
}
