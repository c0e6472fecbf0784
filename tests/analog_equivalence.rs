//! Property suite pinning the vectorized SoA analog crossbar against the
//! per-device reference simulator.
//!
//! `DifferentialCrossbar` (struct-of-arrays `PcmBank` storage, one dot
//! product per output line, per-output-line aggregate noise sampling,
//! batched masked program-and-verify) and `ReferenceDifferentialCrossbar`
//! (one `PcmDevice` per cell, per-pulse and per-device RNG draws) are
//! driven through the same random operation scripts across random
//! geometries. The suite asserts, mirroring `soa_equivalence`:
//!
//! * **states & outputs** — stored matrices, every device's conductance
//!   and wear ledger, product outputs, pulse counts and per-op costs are
//!   bit-identical (costs to 1e-12 relative) whenever
//!   `sigma_prog == 0 && sigma_read == 0`, with and without drift;
//! * **blocks and erase** — scripts program matrices smaller than the
//!   tile into column blocks at random first columns, large and small in
//!   turn (a program replacing the blocks it overlaps), run products over
//!   the block programmed last, and erase; every script ends with an
//!   erase and a program of a different shape. After an erase every
//!   device reads `g_min` on both implementations, at any sigma;
//! * **accounting** — under default (noisy) parameters both
//!   implementations keep their pulse/energy/latency identities
//!   (`energy = pulse_energy × pulses`, latency capped by the pulse
//!   budget, one aggregate sample per output line on the fast path, one
//!   per activated device on the reference) to 1e-12 relative;
//! * **distributions** — with noise on, the aggregate per-output-line
//!   sampler and the batched programmer agree with the per-device
//!   reference in mean and variance over seeded ensembles;
//! * **blocked kernel** — the forward product, which folds four output
//!   lines per pass over the input voltages, gives outputs, costs,
//!   statistics and RNG streams bit-identical to folding one line at a
//!   time, for windows whose row count leaves every tail length, with
//!   and without read noise.

use cim_repro::cim_crossbar::analog::{AnalogCrossbar, AnalogParams, DifferentialCrossbar};
use cim_repro::cim_crossbar::energy::{CrossbarEnergyModel, OperationCost};
use cim_repro::cim_crossbar::reference::ReferenceDifferentialCrossbar;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::quant::UniformQuantizer;
use cim_repro::cim_simkit::rng::{seeded, standard_normal};
use cim_repro::cim_simkit::stats::Summary;
use cim_repro::cim_simkit::units::Seconds;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::Rng;

/// 1e-12 relative agreement (the fast path folds device power and pulse
/// energy in a different floating-point association than the per-device
/// loop).
fn rel_close(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-12 * a.abs().max(b.abs()).max(f64::MIN_POSITIVE)
}

/// One scripted operation, decoded from two random words.
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Program a `window`-shaped matrix as the block at column `col`.
    Program {
        pattern: u64,
        col: usize,
        window: (usize, usize),
    },
    /// RESET the pair to `g_min`.
    Erase,
    Mvm {
        pattern: u64,
    },
    MvmT {
        pattern: u64,
    },
}

/// A window shape within the `rows × cols` tile, drawn from `pattern`.
fn window_of(rows: usize, cols: usize, pattern: u64) -> (usize, usize) {
    let h = hash(pattern ^ 0x3D);
    (1 + (h >> 20) as usize % rows, 1 + (h >> 40) as usize % cols)
}

fn decode_ops(rows: usize, cols: usize, sels: &[u8], args: &[u64]) -> Vec<Op> {
    // Every script opens with a full-tile program so products never hit
    // an unprogrammed pair, and every erase is followed by a program.
    let program = |x: u64| {
        let window = window_of(rows, cols, x);
        Op::Program {
            pattern: x,
            col: (hash(x ^ 0xC0) >> 50) as usize % (cols - window.1 + 1),
            window,
        }
    };
    let mut ops = vec![Op::Program {
        pattern: 0,
        col: 0,
        window: (rows, cols),
    }];
    for (&sel, &x) in sels.iter().zip(args) {
        match sel % 6 {
            0 => ops.push(program(x)),
            1 => ops.extend([Op::Erase, program(x)]),
            2 | 3 => ops.push(Op::Mvm { pattern: x }),
            _ => ops.push(Op::MvmT { pattern: x }),
        }
    }
    // Close with an erase and a program of a different shape from the
    // last one (`rows, cols >= 2`, so `w % n + 1 != w`).
    let last = ops
        .iter()
        .rev()
        .find_map(|op| match op {
            Op::Program { window, .. } => Some(*window),
            _ => None,
        })
        .unwrap_or((rows, cols));
    ops.extend([
        Op::Erase,
        Op::Program {
            pattern: !last.0 as u64,
            col: 0,
            window: (last.0 % rows + 1, last.1 % cols + 1),
        },
        Op::Mvm { pattern: 1 },
        Op::MvmT { pattern: 2 },
    ]);
    ops
}

fn hash(v: u64) -> u64 {
    v.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// Every device of both tiles of the pair: the fast path's conductance
/// and wear ledger (which store only the programmed extent) against the
/// reference's per-device structs (which store the whole tile).
fn check_devices(
    fast: &DifferentialCrossbar,
    reference: &ReferenceDifferentialCrossbar,
) -> Result<(), TestCaseError> {
    let (fp, fneg) = fast.tiles();
    let (rp, rneg) = reference.tiles();
    for (f, r) in [(fp, rp), (fneg, rneg)] {
        let (rows, cols) = f.shape();
        for i in 0..rows {
            for j in 0..cols {
                let device = r.device(i, j);
                prop_assert_eq!(
                    f.bank().conductance(i, j),
                    device.programmed_conductance().0,
                    "conductance of device ({}, {}) diverged",
                    i,
                    j
                );
                prop_assert_eq!(
                    f.bank().pulse_count(i, j),
                    device.pulse_count(),
                    "wear of device ({}, {}) diverged",
                    i,
                    j
                );
            }
        }
    }
    Ok(())
}

/// After an erase, every device of both implementations reads `g_min`.
fn check_erased(
    fast: &DifferentialCrossbar,
    reference: &ReferenceDifferentialCrossbar,
    g_min: f64,
) -> Result<(), TestCaseError> {
    let (fp, fneg) = fast.tiles();
    let (rp, rneg) = reference.tiles();
    for tile in [fp, fneg] {
        prop_assert!(tile.bank().conductances().iter().all(|&g| g == g_min));
        prop_assert!(tile.mapping().is_none(), "an erased tile is unprogrammed");
    }
    for tile in [rp, rneg] {
        let (rows, cols) = tile.shape();
        for i in 0..rows {
            for j in 0..cols {
                prop_assert_eq!(tile.device(i, j).programmed_conductance().0, g_min);
            }
        }
    }
    Ok(())
}

/// A signed test matrix derived from `pattern`, entries in `[-1, 1]`.
fn pattern_matrix(rows: usize, cols: usize, pattern: u64) -> Matrix {
    Matrix::from_fn(rows, cols, |i, j| {
        let h = hash((i * cols + j + 1) as u64 ^ pattern);
        (h >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
    })
}

/// A signed test vector with exact zeros mixed in (so the zero-input-line
/// skip of both read paths is exercised); nonzero entries stay clear of
/// the DAC's dead zone.
fn pattern_vec(n: usize, pattern: u64) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let h = hash((i + 1) as u64 ^ pattern);
            if h.is_multiple_of(8) {
                0.0
            } else {
                let u = (h >> 11) as f64 / (1u64 << 53) as f64;
                let v = u * 2.0 - 1.0;
                if v >= 0.0 {
                    0.1 + 0.9 * v
                } else {
                    -0.1 + 0.9 * v
                }
            }
        })
        .collect()
}

/// Runs one script against both implementations and checks the
/// equivalence classes that hold for `params`: bit-identical outputs and
/// states with zero sigmas, per-op accounting identities always.
fn check_equivalence(
    rows: usize,
    cols: usize,
    params: AnalogParams,
    seed: u64,
    sels: &[u8],
    args: &[u64],
) -> Result<(), TestCaseError> {
    // Trajectories coincide exactly when programming and reads are both
    // deterministic; with noise on, the two implementations consume RNG
    // differently and only the accounting identities are comparable.
    let deterministic = params.pcm.sigma_prog == 0.0 && params.pcm.sigma_read == 0.0;
    let pulse_energy = params.pcm.program_pulse_energy.0;
    let pulse_latency = params.pcm.program_pulse_latency.0;
    let pulse_cap = params.pcm.max_program_pulses as f64;

    let mut fast = DifferentialCrossbar::new(rows, cols, params);
    let mut reference = ReferenceDifferentialCrossbar::new(rows, cols, params);
    let mut fast_rng = seeded(seed ^ 0x517E);
    let mut ref_rng = seeded(seed ^ 0x517E);
    // The first column and shape of the block programmed last.
    let (mut col, mut window) = (0, (rows, cols));

    for op in decode_ops(rows, cols, sels, args) {
        match op {
            Op::Program {
                pattern,
                col: at,
                window: shape,
            } => {
                (col, window) = (at, shape);
                let m = pattern_matrix(shape.0, shape.1, pattern);
                let before_f = fast.stats().program_pulses;
                let before_r = reference.stats().program_pulses;
                let fc = fast.program_matrix_at(col, &m, &mut fast_rng);
                let rc = reference.program_matrix_at(col, &m, &mut ref_rng);
                let dp_f = fast.stats().program_pulses - before_f;
                let dp_r = reference.stats().program_pulses - before_r;
                // Accounting identities hold per implementation under any
                // noise setting.
                prop_assert!(
                    rel_close(fc.energy.0, pulse_energy * dp_f as f64),
                    "fast program energy {} vs {} pulses",
                    fc.energy.0,
                    dp_f
                );
                prop_assert!(
                    rel_close(rc.energy.0, pulse_energy * dp_r as f64),
                    "reference program energy {} vs {} pulses",
                    rc.energy.0,
                    dp_r
                );
                prop_assert!(fc.latency.0 <= pulse_latency * pulse_cap * (1.0 + 1e-12));
                prop_assert!(rc.latency.0 <= pulse_latency * pulse_cap * (1.0 + 1e-12));
                if deterministic {
                    prop_assert_eq!(dp_f, dp_r, "pulse counts diverged");
                    prop_assert!(rel_close(fc.energy.0, rc.energy.0));
                    prop_assert!(rel_close(fc.latency.0, rc.latency.0));
                    let (fm, rm) = (fast.stored_matrix_at(col), reference.stored_matrix_at(col));
                    prop_assert_eq!(
                        fm.as_slice(),
                        rm.as_slice(),
                        "stored state diverged after program"
                    );
                    check_devices(&fast, &reference)?;
                }
            }
            Op::Erase => {
                let before_f = fast.stats().program_pulses;
                let before_r = reference.stats().program_pulses;
                let fc = fast.erase();
                let rc = reference.erase();
                let dp_f = fast.stats().program_pulses - before_f;
                let dp_r = reference.stats().program_pulses - before_r;
                // One RESET pulse per device off g_min, in one round.
                for (cost, pulses) in [(fc, dp_f), (rc, dp_r)] {
                    prop_assert!(rel_close(cost.energy.0, pulse_energy * pulses as f64));
                    let round = if pulses > 0 { pulse_latency } else { 0.0 };
                    prop_assert_eq!(cost.latency.0, round);
                }
                check_erased(&fast, &reference, params.pcm.g_min.0)?;
                if deterministic {
                    prop_assert_eq!(dp_f, dp_r, "erase pulse counts diverged");
                    check_devices(&fast, &reference)?;
                }
            }
            Op::Mvm { pattern } => {
                let (rows, cols) = window;
                let x = pattern_vec(cols, pattern);
                let before_f = fast.stats().noise_samples;
                let before_r = reference.stats().noise_samples;
                let (fy, fc) = fast.matvec_at(col, &x, &mut fast_rng);
                let (ry, rc) = reference.matvec_at(col, &x, &mut ref_rng);
                check_product(
                    &fy,
                    &ry,
                    fc.energy.0,
                    rc.energy.0,
                    fc.latency.0,
                    rc.latency.0,
                    deterministic,
                )?;
                check_samples(
                    params,
                    &x,
                    rows,
                    fast.stats().noise_samples - before_f,
                    reference.stats().noise_samples - before_r,
                )?;
            }
            Op::MvmT { pattern } => {
                let (rows, cols) = window;
                let z = pattern_vec(rows, pattern);
                let before_f = fast.stats().noise_samples;
                let before_r = reference.stats().noise_samples;
                let (fy, fc) = fast.matvec_t_at(col, &z, &mut fast_rng);
                let (ry, rc) = reference.matvec_t_at(col, &z, &mut ref_rng);
                check_product(
                    &fy,
                    &ry,
                    fc.energy.0,
                    rc.energy.0,
                    fc.latency.0,
                    rc.latency.0,
                    deterministic,
                )?;
                check_samples(
                    params,
                    &z,
                    cols,
                    fast.stats().noise_samples - before_f,
                    reference.stats().noise_samples - before_r,
                )?;
            }
        }
    }

    // Operation tallies always agree; full accounting coincides to 1e-12
    // when the trajectories do.
    let (fs, rs) = (fast.stats(), reference.stats());
    prop_assert_eq!(fs.mvms, rs.mvms);
    prop_assert_eq!(fs.transpose_mvms, rs.transpose_mvms);
    prop_assert_eq!(fs.programs, rs.programs);
    if deterministic {
        prop_assert_eq!(fs.program_pulses, rs.program_pulses);
        prop_assert!(
            rel_close(fs.energy.0, rs.energy.0),
            "total energy {} vs {}",
            fs.energy.0,
            rs.energy.0
        );
        prop_assert!(
            rel_close(fs.busy_time.0, rs.busy_time.0),
            "busy time {} vs {}",
            fs.busy_time.0,
            rs.busy_time.0
        );
        let (fm, rm) = (fast.stored_matrix(), reference.stored_matrix());
        prop_assert_eq!(fm.as_slice(), rm.as_slice());
        check_devices(&fast, &reference)?;
    }
    Ok(())
}

/// Output and per-op cost comparison for one product.
fn check_product(
    fy: &[f64],
    ry: &[f64],
    fe: f64,
    re: f64,
    fl: f64,
    rl: f64,
    deterministic: bool,
) -> Result<(), TestCaseError> {
    if deterministic {
        prop_assert_eq!(fy, ry, "product outputs diverged");
        prop_assert!(rel_close(fe, re), "product energy {} vs {}", fe, re);
        prop_assert!(rel_close(fl, rl), "product latency {} vs {}", fl, rl);
    }
    Ok(())
}

/// Tier counter contract for one product over a differential pair: the
/// fast path draws one aggregate sample per output line (zero on the
/// nominal tier), the reference one per activated device.
fn check_samples(
    params: AnalogParams,
    input: &[f64],
    n_out: usize,
    fast_delta: u64,
    ref_delta: u64,
) -> Result<(), TestCaseError> {
    let nnz = input.iter().filter(|&&v| v != 0.0).count() as u64;
    if params.pcm.sigma_read > 0.0 && nnz > 0 {
        prop_assert_eq!(fast_delta, 2 * n_out as u64);
    } else {
        prop_assert_eq!(fast_delta, 0);
    }
    if nnz > 0 {
        prop_assert_eq!(ref_delta, 2 * nnz * n_out as u64);
    } else {
        prop_assert_eq!(ref_delta, 0);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn soa_matches_reference_ideal_devices(
        rows in 2usize..12,
        cols in 2usize..12,
        seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 12),
        args in prop::collection::vec(any::<u64>(), 12),
    ) {
        check_equivalence(rows, cols, AnalogParams::ideal(), seed, &sels, &args)?;
    }

    #[test]
    fn soa_matches_reference_under_drift(
        rows in 2usize..12,
        cols in 2usize..12,
        seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 12),
        args in prop::collection::vec(any::<u64>(), 12),
    ) {
        // Zero sigmas but heavy drift and coarse default converters: the
        // deterministic trajectory must stay bit-identical with the
        // per-device drifted-conductance evaluation.
        let mut params = AnalogParams::default();
        params.pcm.sigma_prog = 0.0;
        params.pcm.sigma_read = 0.0;
        params.age = Seconds(1e5);
        check_equivalence(rows, cols, params, seed, &sels, &args)?;
    }

    #[test]
    fn soa_accounting_holds_under_noise(
        rows in 2usize..12,
        cols in 2usize..12,
        seed in any::<u64>(),
        sels in prop::collection::vec(any::<u8>(), 12),
        args in prop::collection::vec(any::<u64>(), 12),
    ) {
        // Default noisy parameters: trajectories diverge (different RNG
        // consumption), but each implementation's pulse/energy/latency
        // identities and the tier counter contracts must hold.
        check_equivalence(rows, cols, AnalogParams::default(), seed, &sels, &args)?;
    }
}

/// With identical programmed states (`sigma_prog == 0`) and read noise
/// on, the per-output-line aggregate sampler must match the per-device
/// reference in mean and variance over a seeded ensemble.
#[test]
fn read_noise_distribution_matches_reference() {
    let mut params = AnalogParams::ideal();
    params.pcm.sigma_read = 0.01;
    let (rows, cols) = (6, 5);
    let a = pattern_matrix(rows, cols, 0xD15);
    let x = pattern_vec(cols, 0xD16);

    let mut fast = DifferentialCrossbar::new(rows, cols, params);
    let mut reference = ReferenceDifferentialCrossbar::new(rows, cols, params);
    let mut fast_rng = seeded(0xF00D);
    let mut ref_rng = seeded(0xBEEF);
    fast.program_matrix(&a, &mut fast_rng);
    reference.program_matrix(&a, &mut ref_rng);
    assert_eq!(
        fast.stored_matrix().as_slice(),
        reference.stored_matrix().as_slice(),
        "states must coincide before comparing read distributions"
    );

    const TRIALS: usize = 4000;
    let mut fast_line0 = Vec::with_capacity(TRIALS);
    let mut ref_line0 = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        fast_line0.push(fast.matvec(&x, &mut fast_rng)[0]);
        ref_line0.push(reference.matvec(&x, &mut ref_rng)[0]);
    }
    let f = Summary::of(&fast_line0);
    let r = Summary::of(&ref_line0);
    // Means agree within a few standard errors of each other.
    let se = r.std / (TRIALS as f64).sqrt();
    assert!(
        (f.mean - r.mean).abs() < 6.0 * se,
        "means diverge: fast {} vs reference {} (se {se})",
        f.mean,
        r.mean
    );
    // The aggregate draw carries the exact per-device variance.
    assert!(r.std > 0.0, "reference read noise should be visible");
    let ratio = f.std / r.std;
    assert!(
        (0.9..1.1).contains(&ratio),
        "std ratio {ratio}: fast {} vs reference {}",
        f.std,
        r.std
    );
}

/// With programming noise on, the batched masked program-and-verify must
/// match the per-device loop in pulse statistics and stored-error spread
/// over a seeded ensemble.
#[test]
fn program_noise_distribution_matches_reference() {
    let params = AnalogParams::default();
    let (rows, cols) = (8, 6);
    let a = pattern_matrix(rows, cols, 0xAB1E);

    let mut fast_pulses = 0u64;
    let mut ref_pulses = 0u64;
    let mut fast_err = Vec::new();
    let mut ref_err = Vec::new();
    for seed in 0..100u64 {
        let mut fast = DifferentialCrossbar::new(rows, cols, params);
        let mut reference = ReferenceDifferentialCrossbar::new(rows, cols, params);
        fast.program_matrix(&a, &mut seeded(seed));
        reference.program_matrix(&a, &mut seeded(seed ^ 0x5EED));
        fast_pulses += fast.stats().program_pulses;
        ref_pulses += reference.stats().program_pulses;
        let fs = fast.stored_matrix();
        let rs = reference.stored_matrix();
        for i in 0..rows {
            for j in 0..cols {
                fast_err.push(fs.get(i, j) - a.get(i, j));
                ref_err.push(rs.get(i, j) - a.get(i, j));
            }
        }
    }
    let pulse_ratio = fast_pulses as f64 / ref_pulses as f64;
    assert!(
        (pulse_ratio - 1.0).abs() < 0.05,
        "pulse ratio {pulse_ratio}: fast {fast_pulses} vs reference {ref_pulses}"
    );
    let f = Summary::of(&fast_err);
    let r = Summary::of(&ref_err);
    assert!(r.std > 0.0, "programming noise should leave residual error");
    let spread_ratio = f.std / r.std;
    assert!(
        (0.9..1.1).contains(&spread_ratio),
        "stored-error spread ratio {spread_ratio}"
    );
}

/// The forward product of `tile` over its `(rows, cols)` window with one
/// output line folded at a time — the loop the blocked kernel replaced,
/// kept here as its oracle. Every other step (DAC, drift, aggregate
/// read noise, offset subtraction, ADC, cost) follows the tile's
/// pipeline. Returns the outputs, the cost and the samples drawn.
fn per_line_forward(
    tile: &AnalogCrossbar,
    (rows, cols): (usize, usize),
    x: &[f64],
    rng: &mut StdRng,
) -> (Vec<f64>, OperationCost, u64) {
    let p = *tile.params();
    let mapping = *tile.mapping().expect("programmed");
    let (tile_rows, tile_cols) = tile.shape();
    let model = CrossbarEnergyModel::for_tile(tile_rows, tile_cols, p.adc_bits);
    let in_scale = if p.dynamic_input_scaling {
        let peak = x.iter().fold(0.0f64, |m, v| m.max(v.abs()));
        if peak == 0.0 {
            return (vec![0.0; rows], model.mvm_cost(0.0, cols, rows), 0);
        }
        peak
    } else {
        p.input_full_scale
    };
    let dac = UniformQuantizer::mid_tread(p.dac_bits, 1.0);
    let volts: Vec<f64> = x
        .iter()
        .map(|&v| dac.quantize(v / in_scale) * p.read_voltage.0)
        .collect();
    let drift = tile.bank().drift_factor(p.age);
    let mut currents = vec![0.0f64; rows];
    let mut sq = vec![0.0f64; rows];
    let mut device_power = 0.0f64;
    for j in 0..rows {
        let (mut sum, mut sumsq, mut power) = (0.0f64, 0.0f64, 0.0f64);
        for (&v, &g) in volts.iter().zip(&tile.bank().extent_row(j)[..cols]) {
            let t = v * (g * drift);
            sum += t;
            sumsq += t * t;
            power += v * t;
        }
        currents[j] = sum;
        sq[j] = sumsq;
        device_power += power;
    }
    let samples = if p.pcm.sigma_read > 0.0 {
        for (current, &sumsq) in currents.iter_mut().zip(&sq) {
            *current += p.pcm.sigma_read * sumsq.sqrt() * standard_normal(rng);
        }
        rows as u64
    } else {
        0
    };
    let v_sum: f64 = volts.iter().sum();
    let offset = v_sum * mapping.g_min().0;
    for c in &mut currents {
        *c -= offset;
    }
    let peak = currents.iter().fold(0.0f64, |m, c| m.max(c.abs()));
    let adc = UniformQuantizer::mid_tread(
        p.adc_bits,
        p.adc_full_scale_override.unwrap_or(peak).max(1e-18),
    );
    let lsb_scale =
        in_scale * mapping.w_max() / (p.read_voltage.0 * (mapping.g_max().0 - mapping.g_min().0));
    let y = currents
        .iter()
        .map(|&c| adc.quantize(c) * lsb_scale)
        .collect();
    (y, model.mvm_cost(device_power, cols, rows), samples)
}

/// Windows of 1, 3, 5, 8 and 32 rows (tails of every length around
/// four-line blocks) give outputs, costs, statistics and RNG streams
/// bit-identical to the per-line fold, at `sigma_read` 0 and above.
#[test]
fn blocked_forward_kernel_matches_the_per_line_fold() {
    let (tile_rows, tile_cols) = (32, 100);
    for sigma_read in [0.0, 0.02] {
        let mut params = AnalogParams::default();
        params.pcm.sigma_read = sigma_read;
        params.age = Seconds(1e4);
        for rows in [1, 3, 5, 8, 32] {
            for cols in [1, 7, 64, 100] {
                let what = format!("{rows}x{cols} window at sigma_read {sigma_read}");
                let mut tile = AnalogCrossbar::new(tile_rows, tile_cols, params);
                let m = pattern_matrix(rows, cols, (rows * 131 + cols) as u64);
                let m = Matrix::from_fn(rows, cols, |i, j| m.get(i, j).abs());
                tile.program_matrix(&m, &mut seeded(rows as u64));
                let oracle = tile.clone();
                let mut expected = *tile.stats();
                let inputs = (0..4u64)
                    .map(|pattern| pattern_vec(cols, pattern))
                    .chain([vec![0.0; cols]]);
                for (n, x) in inputs.enumerate() {
                    let mut rng_k = seeded(n as u64 ^ 0xB10C);
                    let mut rng_o = seeded(n as u64 ^ 0xB10C);
                    let (y, cost) = tile.matvec_with_cost(&x, &mut rng_k);
                    let (y_o, cost_o, samples) =
                        per_line_forward(&oracle, (rows, cols), &x, &mut rng_o);
                    let bits = |v: &[f64]| v.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&y), bits(&y_o), "outputs, {what}");
                    assert_eq!(cost, cost_o, "cost, {what}");
                    expected.mvms += 1;
                    if samples == 0 {
                        expected.nominal_mvms += 1;
                    } else {
                        expected.noise_samples += samples;
                    }
                    expected.energy += cost_o.energy;
                    expected.busy_time += cost_o.latency;
                    assert_eq!(*tile.stats(), expected, "stats, {what}");
                    assert_eq!(rng_k.gen::<u64>(), rng_o.gen::<u64>(), "RNG stream, {what}");
                }
            }
        }
    }
}
