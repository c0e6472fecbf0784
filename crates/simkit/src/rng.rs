//! Deterministic random number helpers.
//!
//! Every stochastic component in the workspace (device noise, workload
//! generators, synthetic datasets) draws from a seeded [`rand::rngs::StdRng`]
//! so that experiments are exactly reproducible. The workspace depends only
//! on `rand` (not `rand_distr`), so the Gaussian sampler here implements the
//! Box–Muller transform directly.
//!
//! # Example
//!
//! ```
//! use cim_simkit::rng::{seeded, standard_normal};
//!
//! let mut rng = seeded(42);
//! let z = standard_normal(&mut rng);
//! assert!(z.is_finite());
//!
//! // Identical seeds give identical streams.
//! let mut a = seeded(7);
//! let mut b = seeded(7);
//! assert_eq!(standard_normal(&mut a), standard_normal(&mut b));
//! ```

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Creates a deterministic RNG from a 64-bit seed.
pub fn seeded(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Draws a standard normal `N(0, 1)` sample via the Box–Muller transform.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Draw u1 from (0, 1] so the logarithm is finite.
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// Draws a normal `N(mean, std²)` sample.
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

/// Draws two independent standard normal `N(0, 1)` samples from a single
/// Box–Muller transform, using both the cosine and sine halves.
///
/// This halves the uniform-draw and transcendental cost per sample
/// relative to [`standard_normal`] (which discards the sine half), so bulk
/// samplers — e.g. batched program-and-verify over a whole conductance
/// bank — should draw through this function. The *marginal* distribution
/// of every returned value is exactly `N(0, 1)` and the two halves are
/// independent, but the stream is **not** draw-for-draw identical to
/// repeated [`standard_normal`] calls on the same RNG; callers relying on
/// bit-reproducibility must pick one sampler and stay with it.
pub fn standard_normal_pair<R: Rng + ?Sized>(rng: &mut R) -> (f64, f64) {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen::<f64>();
    let r = (-2.0 * u1.ln()).sqrt();
    let theta = 2.0 * std::f64::consts::PI * u2;
    (r * theta.cos(), r * theta.sin())
}

/// The standard normal cumulative distribution function `Φ(x)`.
///
/// West's double-precision rational approximation (Hart's algorithm
/// 5666 in the central region, a continued fraction in the far tail),
/// accurate to about 1e-15 — the exact-arithmetic companion of
/// [`normal_inverse_cdf`] for closed-form samplers that need interval
/// probabilities of a Gaussian (e.g. program-and-verify acceptance
/// windows).
pub fn normal_cdf(x: f64) -> f64 {
    let z = x.abs();
    let c = if z > 37.0 {
        0.0
    } else {
        let e = (-z * z / 2.0).exp();
        if z < 7.071_067_811_865_475 {
            const NUM: [f64; 7] = [
                3.526_249_659_989_11e-2,
                0.700_383_064_443_688,
                6.373_962_203_531_65,
                33.912_866_078_383,
                112.079_291_497_871,
                221.213_596_169_931,
                220.206_867_912_376,
            ];
            const DEN: [f64; 8] = [
                8.838_834_764_831_84e-2,
                1.755_667_163_182_64,
                16.064_177_579_207,
                86.780_732_202_946_1,
                296.564_248_779_674,
                637.333_633_378_831,
                793.826_512_519_948,
                440.413_735_824_752,
            ];
            let n = NUM[1..].iter().fold(NUM[0], |acc, &c| acc * z + c);
            let d = DEN[1..].iter().fold(DEN[0], |acc, &c| acc * z + c);
            e * n / d
        } else {
            let b = z + 0.65;
            let b = z + 4.0 / b;
            let b = z + 3.0 / b;
            let b = z + 2.0 / b;
            let b = z + 1.0 / b;
            e / (b * 2.506_628_274_631_000_5)
        }
    };
    if x > 0.0 {
        1.0 - c
    } else {
        c
    }
}

/// The standard normal quantile function `Φ⁻¹(p)` (inverse of
/// [`normal_cdf`]).
///
/// Acklam's rational approximation, accurate to about 1.2e-9 relative —
/// far below the resolution of any seeded distributional test in the
/// workspace. Returns `-∞` for `p <= 0` and `+∞` for `p >= 1`, which
/// composes correctly with conductance-window clamping in samplers.
pub fn normal_inverse_cdf(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;
    if p <= 0.0 {
        return f64::NEG_INFINITY;
    }
    if p >= 1.0 {
        return f64::INFINITY;
    }
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Draws a log-normal sample whose *logarithm* is `N(mu, sigma²)`.
///
/// Used for resistance-state variation, which is empirically log-normal in
/// memristive devices.
pub fn log_normal<R: Rng + ?Sized>(rng: &mut R, mu: f64, sigma: f64) -> f64 {
    normal(rng, mu, sigma).exp()
}

/// Uniform `u64` draws one [`log_normal`] sample consumes: the two
/// uniforms of its Box–Muller transform.
const LOG_NORMAL_DRAWS: usize = 2;

/// Advances `rng` past `count` [`log_normal`] samples without computing
/// them: afterwards the stream continues exactly where it would after
/// `count` calls, whatever their `mu` and `sigma`. Lets a simulator
/// defer a population's draws to a clone of the stream while handing
/// the caller's stream on unchanged.
pub fn skip_log_normals<R: Rng + ?Sized>(rng: &mut R, count: usize) {
    for _ in 0..count * LOG_NORMAL_DRAWS {
        rng.next_u64();
    }
}

/// Fills a vector with `n` i.i.d. standard normal samples.
pub fn normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize) -> Vec<f64> {
    (0..n).map(|_| standard_normal(rng)).collect()
}

/// Generates a `k`-sparse length-`n` vector: `k` positions chosen uniformly
/// without replacement, each set to a standard normal value; the rest zero.
///
/// # Panics
///
/// Panics if `k > n`.
pub fn sparse_normal_vec<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<f64> {
    assert!(k <= n, "sparsity {k} exceeds length {n}");
    let mut v = vec![0.0; n];
    // Floyd's algorithm for sampling k distinct indices from 0..n,
    // assigning values in sorted index order so the output depends only
    // on the RNG stream (HashSet iteration order is not deterministic).
    let mut chosen = std::collections::HashSet::with_capacity(k);
    for j in (n - k)..n {
        let t = rng.gen_range(0..=j);
        let idx = if chosen.contains(&t) { j } else { t };
        chosen.insert(idx);
    }
    let mut indices: Vec<usize> = chosen.into_iter().collect();
    indices.sort_unstable();
    for idx in indices {
        v[idx] = standard_normal(rng);
    }
    v
}

/// Draws a Bernoulli(p) sample.
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn bernoulli<R: Rng + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    rng.gen::<f64>() < p
}

/// Samples an index from a discrete distribution given by non-negative
/// weights (not necessarily normalized).
///
/// # Panics
///
/// Panics if `weights` is empty or sums to zero.
pub fn categorical<R: Rng + ?Sized>(rng: &mut R, weights: &[f64]) -> usize {
    assert!(!weights.is_empty(), "categorical over empty weights");
    let total: f64 = weights.iter().sum();
    assert!(total > 0.0, "categorical weights sum to zero");
    let mut u = rng.gen::<f64>() * total;
    for (i, &w) in weights.iter().enumerate() {
        u -= w;
        if u <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    #[test]
    fn seeded_streams_are_deterministic() {
        let mut a = seeded(123);
        let mut b = seeded(123);
        for _ in 0..100 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = seeded(1);
        let xs = normal_vec(&mut rng, 200_000);
        let s = Summary::of(&xs);
        assert!(s.mean.abs() < 0.01, "mean {}", s.mean);
        assert!((s.std - 1.0).abs() < 0.01, "std {}", s.std);
    }

    #[test]
    fn standard_normal_pair_moments_and_independence() {
        let mut rng = seeded(11);
        let mut xs = Vec::with_capacity(200_000);
        let mut cross = 0.0f64;
        for _ in 0..100_000 {
            let (a, b) = standard_normal_pair(&mut rng);
            cross += a * b;
            xs.push(a);
            xs.push(b);
        }
        let s = Summary::of(&xs);
        assert!(s.mean.abs() < 0.01, "mean {}", s.mean);
        assert!((s.std - 1.0).abs() < 0.01, "std {}", s.std);
        // The two Box–Muller halves are uncorrelated.
        assert!(
            (cross / 100_000.0).abs() < 0.02,
            "corr {}",
            cross / 100_000.0
        );
    }

    #[test]
    fn normal_cdf_reference_values() {
        assert_eq!(normal_cdf(0.0), 0.5);
        assert!((normal_cdf(1.0) - 0.841_344_746_068_543).abs() < 1e-12);
        assert!((normal_cdf(-1.0) - 0.158_655_253_931_457).abs() < 1e-12);
        assert!((normal_cdf(1.96) - 0.975_002_104_851_780).abs() < 1e-12);
        assert!((normal_cdf(8.0) - 1.0).abs() < 1e-15);
        assert!(normal_cdf(-8.0) > 0.0 && normal_cdf(-8.0) < 1e-14);
        assert_eq!(normal_cdf(-40.0), 0.0);
        assert_eq!(normal_cdf(40.0), 1.0);
    }

    #[test]
    fn normal_inverse_cdf_round_trips() {
        for i in 1..200 {
            let x = -5.0 + 10.0 * i as f64 / 200.0;
            let back = normal_inverse_cdf(normal_cdf(x));
            assert!((back - x).abs() < 1e-7, "x {x} round-tripped to {back}");
        }
        assert_eq!(normal_inverse_cdf(0.0), f64::NEG_INFINITY);
        assert_eq!(normal_inverse_cdf(1.0), f64::INFINITY);
        assert_eq!(normal_inverse_cdf(0.5), 0.0);
        // Tail branches, within Acklam's ~1.2e-9 relative accuracy.
        assert!((normal_cdf(normal_inverse_cdf(1e-6)) - 1e-6).abs() / 1e-6 < 1e-4);
        assert!((normal_cdf(normal_inverse_cdf(1.0 - 1e-6)) - (1.0 - 1e-6)).abs() < 1e-10);
    }

    #[test]
    fn normal_shifts_and_scales() {
        let mut rng = seeded(2);
        let xs: Vec<f64> = (0..100_000).map(|_| normal(&mut rng, 5.0, 2.0)).collect();
        let s = Summary::of(&xs);
        assert!((s.mean - 5.0).abs() < 0.05);
        assert!((s.std - 2.0).abs() < 0.05);
    }

    #[test]
    fn log_normal_is_positive() {
        let mut rng = seeded(3);
        for _ in 0..1000 {
            assert!(log_normal(&mut rng, 0.0, 0.5) > 0.0);
        }
    }

    #[test]
    fn skipping_log_normals_lands_where_drawing_them_does() {
        for count in [0, 1, 7, 1000] {
            let mut drawn = seeded(12);
            for _ in 0..count {
                log_normal(&mut drawn, 0.0, 0.3);
            }
            let mut skipped = seeded(12);
            skip_log_normals(&mut skipped, count);
            assert_eq!(drawn, skipped, "{count} samples");
        }
    }

    #[test]
    fn sparse_vector_has_exact_support() {
        let mut rng = seeded(4);
        let v = sparse_normal_vec(&mut rng, 500, 25);
        assert_eq!(v.len(), 500);
        let nnz = v.iter().filter(|x| **x != 0.0).count();
        assert_eq!(nnz, 25);
    }

    #[test]
    fn sparse_vector_full_and_empty() {
        let mut rng = seeded(5);
        let all = sparse_normal_vec(&mut rng, 10, 10);
        assert_eq!(all.iter().filter(|x| **x != 0.0).count(), 10);
        let none = sparse_normal_vec(&mut rng, 10, 0);
        assert!(none.iter().all(|x| *x == 0.0));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = seeded(6);
        let hits = (0..100_000).filter(|_| bernoulli(&mut rng, 0.3)).count();
        let p = hits as f64 / 100_000.0;
        assert!((p - 0.3).abs() < 0.01, "p = {p}");
    }

    #[test]
    fn categorical_respects_weights() {
        let mut rng = seeded(7);
        let mut counts = [0usize; 3];
        for _ in 0..90_000 {
            counts[categorical(&mut rng, &[1.0, 2.0, 6.0])] += 1;
        }
        assert!((counts[0] as f64 / 10_000.0 - 1.0).abs() < 0.1);
        assert!((counts[1] as f64 / 10_000.0 - 2.0).abs() < 0.15);
        assert!((counts[2] as f64 / 10_000.0 - 6.0).abs() < 0.2);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn sparse_rejects_k_gt_n() {
        let mut rng = seeded(8);
        let _ = sparse_normal_vec(&mut rng, 4, 5);
    }
}
