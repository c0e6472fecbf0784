//! Release-mode perf smoke test: the device-level floors and exports
//! the serving benchmark (`perfbench/`) does not measure.
//!
//! Four groups, each asserting its own bar:
//!
//! * `scout_q6_fastpath` — the word-parallel digital tile against the
//!   bit-serial reference on a Q6-shaped access mix (≥ 5× wall clock),
//!   on a Q6-shaped write phase (≥ 20×) and on one 3-row AND access
//!   (≥ 14×); and a default pool's build against one tile's device
//!   draws (the build must be the faster: tiles draw their devices when
//!   first leased).
//! * `analog_mvm` — the vectorized analog crossbar against the
//!   per-device reference: serving MVMs (≥ 5×) and cold programming
//!   (≥ 3×), plus NN and HDC serving lanes and packed binarized scoring
//!   against the scalar ±1 dot product (≥ 20×).
//! * `cam_range_accuracy` — analog `Range` CAM match accuracy against
//!   the exact host baseline as the window widens.
//! * `observability` — a traced seeded pool run exports a Chrome trace
//!   (`runtime_trace.json`) and a deterministic snapshot
//!   (`runtime_snapshot.json`), and the null-sink tracer stays under
//!   its per-span bound.
//!
//! The results land in `BENCH.json`. End-to-end serving throughput and
//! latency are measured by `perfbench` instead (see `BENCHMARK.json`).
//!
//! Run with `--release`; the debug simulator is an order of magnitude
//! slower:
//!
//! ```text
//! cargo run --release -p cim-bench --bin perf_smoke
//! ```

use cim_bitmap_db::tpch::Q6Params;
use cim_crossbar::analog::{AnalogParams, DifferentialCrossbar};
use cim_crossbar::cam::{host_match, CamArray, MatchKind as CamMatchKind};
use cim_crossbar::digital::DigitalArray;
use cim_crossbar::reference::{ReferenceDifferentialCrossbar, ReferenceDigitalArray};
use cim_crossbar::scouting::ScoutOp;
use cim_device::reram::ReramParams;
use cim_nn::binarized::BinarizedMlp;
use cim_obs::{RingRecorder, Snapshot, SpanId, Value};
use cim_runtime::{DatasetSpec, PoolConfig, RuntimePool, TenantId, Tracer, WorkloadSpec};
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use rand::Rng;
use std::sync::Arc;
use std::time::Instant;

/// One machine-readable benchmark row, collected into `BENCH.json` so the
/// perf trajectory is tracked across PRs.
struct BenchEntry {
    group: String,
    /// Simulated (architectural) makespan of the measured work, seconds.
    sim_makespan: f64,
    /// Host wall-clock of the measured work, milliseconds.
    wall_ms: f64,
    /// The group's headline ratio (speedup vs its baseline).
    speedup: f64,
    /// Group-specific extra fields (per-lane speedups, accuracy curve,
    /// export sizes), serialized alongside the fixed trio.
    extras: Vec<(&'static str, f64)>,
}

impl BenchEntry {
    fn new(group: impl Into<String>, sim_makespan: f64, wall_ms: f64, speedup: f64) -> Self {
        BenchEntry {
            group: group.into(),
            sim_makespan,
            wall_ms,
            speedup,
            extras: Vec::new(),
        }
    }

    fn extra(mut self, key: &'static str, value: f64) -> Self {
        self.extras.push((key, value));
        self
    }
}

/// Serializes the collected entries as `BENCH.json` in the working
/// directory: `{"groups": {name: {sim_makespan, wall_ms, speedup,
/// ...extras}}}`.
fn write_bench_json(entries: &[BenchEntry]) {
    let rows: Vec<String> = entries
        .iter()
        .map(|e| {
            let mut fields = vec![
                format!(
                    "\"sim_makespan\": {}",
                    cim_obs::json::number(e.sim_makespan)
                ),
                format!("\"wall_ms\": {:.3}", e.wall_ms),
                format!("\"speedup\": {:.3}", e.speedup),
            ];
            for (key, value) in &e.extras {
                fields.push(format!("\"{key}\": {}", cim_obs::json::number(*value)));
            }
            format!("    \"{}\": {{{}}}", e.group, fields.join(", "))
        })
        .collect();
    let json = format!("{{\n  \"groups\": {{\n{}\n  }}\n}}\n", rows.join(",\n"));
    cim_obs::json::validate(&json).expect("BENCH.json must be valid JSON");
    std::fs::write("BENCH.json", &json).expect("write BENCH.json");
    println!("\nwrote BENCH.json ({} groups)", entries.len());
}

/// The word-parallel digital-tile fast path vs the pre-refactor
/// bit-serial inner loop, on the Scouting/Q6 access mix.
///
/// Both implementations are fabricated from the same seed and driven
/// through the identical access script shaped like the Q6 plan's inner
/// loop: wide-fan-in OR reductions over bin rows with scratch
/// write-backs, the final 3-row AND, one XOR (the cipher access) and a
/// plain row read. The fast path must be at least [`FASTPATH_FLOOR`]×
/// faster in wall clock — the assertion the CI perf-smoke job rides on.
///
/// A second pair of tiles, shaped like the pool's (160 × 1,024), runs
/// the write phase of one Q6 select tile: 145 bin writes, 8 OR
/// reductions each written back to a scratch row, then the lease scrub's
/// 151 zero writes. A write is a word copy on the fast tile, whose row
/// read-energy sums are folded only when an access first reads a row,
/// so the phase must be at least [`WRITE_PHASE_FLOOR`]× faster than the
/// reference; folding every row as it is written reads about 12×.
///
/// The same pool-shaped tiles also time the Q6 plan's final access on
/// its own: three freshly stored scratch rows ANDed in one access,
/// which folds the three rows' read energies. At fan-in 3 the
/// array-wide current extremes cannot prove that every all-LRS column
/// clears the AND reference, so the access is screened: the fast tile
/// sums exact currents only for the columns whose LRS count is
/// undecided and must stay [`AND_ACCESS_FLOOR`]× faster than the
/// reference. Summing every column's current instead (the unscreened
/// tier) reads 8–11× on a 2-vCPU host.
///
/// A fast tile draws its devices at its first sensing access, and the
/// reference array at construction, so every fast tile here draws them
/// before its timed region: one pool-shaped tile's draws take longer
/// than the whole access mix.
///
/// Last, the group times one 160 × 1,024 tile's device draws
/// (`tile_fabricate_ms`) and the median build of a default pool
/// (`pool_build_ms`, 2 shards × 4 such tiles). The pool draws no device
/// at build, so it must build faster than a single tile fabricates.
const FASTPATH_FLOOR: f64 = 5.0;
const WRITE_PHASE_FLOOR: f64 = 20.0;
const AND_ACCESS_FLOOR: f64 = 14.0;

fn scout_q6_fastpath() -> BenchEntry {
    println!("\n# FAST PATH — word-parallel digital tile vs bit-serial reference\n");
    const ROWS: usize = 160;
    const COLS: usize = 2048;
    const ITERS: usize = 300;
    let params = ReramParams::default();

    let mut fast = DigitalArray::new(ROWS, COLS, params, &mut seeded(0x50A));
    fast.fabricate();
    let mut reference = ReferenceDigitalArray::new(ROWS, COLS, params, &mut seeded(0x50A));
    let bins: Vec<BitVec> = (0..16)
        .map(|r| BitVec::from_fn(COLS, |j| (j * 31 + r * 17) % (r + 2) == 0))
        .collect();
    for (r, bits) in bins.iter().enumerate() {
        fast.write_row(r, bits);
        reference.write_row(r, bits);
    }

    // One wall-clocked run of the Q6-shaped access mix against either
    // array (both expose the same access surface).
    macro_rules! q6_mix {
        ($arr:expr, $rng:expr) => {{
            let start = Instant::now();
            for _ in 0..ITERS {
                for (slot, window) in [(0usize, 0usize), (1, 4), (2, 8)] {
                    let rows: Vec<usize> = (window..window + 8).collect();
                    let or = $arr.scout(ScoutOp::Or, &rows, $rng);
                    $arr.write_row(16 + slot, &or);
                }
                let _ = $arr.scout(ScoutOp::And, &[16, 17, 18], $rng);
                let _ = $arr.scout(ScoutOp::Xor, &[0, 1], $rng);
                let _ = $arr.read_row(3, $rng);
            }
            start.elapsed().as_secs_f64()
        }};
    }

    let mut rng = seeded(0xF00D);
    let fast_wall = q6_mix!(fast, &mut rng);
    let sim_makespan = fast.stats().busy_time.0;
    let mut rng = seeded(0xF00D);
    let ref_wall = q6_mix!(reference, &mut rng);

    // Same accesses, same simulated cost, same sensed bits — only the
    // host time differs.
    for slot in 16..19 {
        assert_eq!(
            fast.stored_row(slot),
            reference.stored_row(slot),
            "scratch row {slot} diverged"
        );
    }
    let speedup = ref_wall / fast_wall;
    println!(
        "{:>22} {:>10} {:>13} {:>13} {:>9}",
        "path", "accesses", "sim mksp (s)", "wall (s)", "speedup"
    );
    println!(
        "{:>22} {:>10} {:>13.3e} {:>13.3e} {:>9}",
        "bit-serial reference",
        ITERS * 9,
        reference.stats().busy_time.0,
        ref_wall,
        "1.00x"
    );
    println!(
        "{:>22} {:>10} {:>13.3e} {:>13.3e} {:>8.1}x",
        "word-parallel SoA",
        ITERS * 9,
        sim_makespan,
        fast_wall,
        speedup
    );
    assert!(
        speedup >= FASTPATH_FLOOR,
        "fast-path speedup {speedup:.2}x regressed below the {FASTPATH_FLOOR}x floor"
    );
    let (fast_phase, ref_phase) = q6_write_phase();
    let write_phase_speedup = ref_phase / fast_phase;
    println!(
        "{:>22} {:>10} {:>13} {:>13.3e} {:>8.1}x  (reference {:.3e} s)",
        "Q6 write phase",
        Q6_BINS + 2 * Q6_REDUCTIONS + Q6_BINS + Q6_SCRATCH,
        "",
        fast_phase,
        write_phase_speedup,
        ref_phase
    );
    assert!(
        write_phase_speedup >= WRITE_PHASE_FLOOR,
        "write-phase speedup {write_phase_speedup:.2}x regressed below the \
         {WRITE_PHASE_FLOOR}x floor"
    );
    let (fast_and, ref_and) = and_access();
    let and_speedup = ref_and / fast_and;
    println!(
        "{:>22} {:>10} {:>13} {:>13.3e} {:>8.1}x  (reference {:.3e} s)",
        "3-row AND access", 1, "", fast_and, and_speedup, ref_and
    );
    assert!(
        and_speedup >= AND_ACCESS_FLOOR,
        "3-row AND speedup {and_speedup:.2}x regressed below the {AND_ACCESS_FLOOR}x floor"
    );
    let (pool_build, tile_fabricate) = pool_build_vs_tile_fabricate();
    println!(
        "{:>22} {:>10.2} ms, one 160 x 1024 tile's devices {:.2} ms",
        "default pool build",
        pool_build * 1e3,
        tile_fabricate * 1e3
    );
    assert!(
        pool_build < tile_fabricate,
        "a default pool took {:.2} ms to build, longer than one tile's device draws \
         ({:.2} ms): building must not draw devices",
        pool_build * 1e3,
        tile_fabricate * 1e3
    );
    BenchEntry::new("scout_q6_fastpath", sim_makespan, fast_wall * 1e3, speedup)
        .extra("write_phase_speedup", write_phase_speedup)
        .extra("fast_write_phase_us", fast_phase * 1e6)
        .extra("and_access_speedup", and_speedup)
        .extra("fast_and_access_us", fast_and * 1e6)
        .extra("pool_build_ms", pool_build * 1e3)
        .extra("tile_fabricate_ms", tile_fabricate * 1e3)
}

/// Wall seconds of the median of nine default [`RuntimePool::new`]
/// builds, and of drawing the devices of one pool-shaped tile.
fn pool_build_vs_tile_fabricate() -> (f64, f64) {
    const BUILDS: usize = 9;
    let mut builds: Vec<f64> = (0..BUILDS)
        .map(|_| {
            let start = Instant::now();
            let pool = RuntimePool::new(PoolConfig::default());
            let wall = start.elapsed().as_secs_f64();
            drop(pool);
            wall
        })
        .collect();
    builds.sort_by(f64::total_cmp);
    let tile = DigitalArray::new(160, 1024, ReramParams::default(), &mut seeded(0xFAB));
    let start = Instant::now();
    tile.fabricate();
    let fabricate = start.elapsed().as_secs_f64();
    assert!(tile.is_fabricated());
    (builds[BUILDS / 2], fabricate)
}

/// Wall seconds of one 3-row AND access over freshly stored scratch
/// rows on a pool-shaped tile, fast and reference, which must sense the
/// same bits. Each side reports its 10th-percentile access: single
/// accesses are microseconds long, so the lower quantile keeps
/// interference from other processes out of the ratio.
fn and_access() -> (f64, f64) {
    const ROWS: usize = 160;
    const COLS: usize = 1024;
    const ACCESSES: usize = 1001;
    const SCRATCH: [usize; 3] = [150, 151, 152];
    let params = ReramParams::default();
    let mut fast = DigitalArray::new(ROWS, COLS, params, &mut seeded(0xA4D));
    fast.fabricate();
    let mut reference = ReferenceDigitalArray::new(ROWS, COLS, params, &mut seeded(0xA4D));
    // Half-dense OR-reduction results, a different triple per access.
    let stored: Vec<BitVec> = (0..6)
        .map(|r| BitVec::from_fn(COLS, |j| (j * 13 + r * 7) % 11 < 6))
        .collect();

    macro_rules! and_accesses {
        ($arr:expr, $rng:expr) => {{
            let mut walls = Vec::with_capacity(ACCESSES);
            let mut sensed = Vec::with_capacity(ACCESSES);
            for i in 0..ACCESSES {
                for (n, &row) in SCRATCH.iter().enumerate() {
                    $arr.write_row(row, &stored[(i + n) % stored.len()]);
                }
                let start = Instant::now();
                sensed.push($arr.scout(ScoutOp::And, &SCRATCH, $rng));
                walls.push(start.elapsed().as_secs_f64());
            }
            walls.sort_by(f64::total_cmp);
            (walls[ACCESSES / 10], sensed)
        }};
    }

    let (fast_access, fast_bits) = and_accesses!(fast, &mut seeded(0xF00D));
    let (ref_access, ref_bits) = and_accesses!(reference, &mut seeded(0xF00D));
    assert_eq!(fast_bits, ref_bits, "3-row AND results diverged");
    (fast_access, ref_access)
}

/// Bin rows, OR reductions and scratch rows of one Q6 select tile.
const Q6_BINS: usize = 145;
const Q6_REDUCTIONS: usize = 8;
const Q6_SCRATCH: usize = 6;

/// Median wall seconds of one Q6-shaped write phase on the fast and
/// the reference tile, which must account the same energy.
fn q6_write_phase() -> (f64, f64) {
    const ROWS: usize = 160;
    const COLS: usize = 1024;
    const PHASES: usize = 15;
    let params = ReramParams::default();
    let mut fast = DigitalArray::new(ROWS, COLS, params, &mut seeded(0x5C0));
    fast.fabricate();
    let mut reference = ReferenceDigitalArray::new(ROWS, COLS, params, &mut seeded(0x5C0));
    // 10 %-dense bins, each set column owned by one bin in ten.
    let bins: Vec<BitVec> = (0..Q6_BINS)
        .map(|r| BitVec::from_fn(COLS, |j| (j + 7 * r) % 10 == 0))
        .collect();
    let zeros = BitVec::zeros(COLS);

    // Per-phase wall seconds of the write phase against either array.
    macro_rules! write_phases {
        ($arr:expr, $rng:expr) => {{
            let mut walls = Vec::with_capacity(PHASES);
            for _ in 0..PHASES {
                let start = Instant::now();
                for (r, bits) in bins.iter().enumerate() {
                    $arr.write_row(r, bits);
                }
                for i in 0..Q6_REDUCTIONS {
                    let rows: Vec<usize> = (8 * i..8 * i + 8).collect();
                    let or = $arr.scout(ScoutOp::Or, &rows, $rng);
                    $arr.write_row(Q6_BINS + i % Q6_SCRATCH, &or);
                }
                for r in 0..Q6_BINS + Q6_SCRATCH {
                    $arr.write_row(r, &zeros);
                }
                walls.push(start.elapsed().as_secs_f64());
            }
            walls.sort_by(f64::total_cmp);
            walls[PHASES / 2]
        }};
    }

    let fast_phase = write_phases!(fast, &mut seeded(0xF00D));
    let ref_phase = write_phases!(reference, &mut seeded(0xF00D));
    let (fe, re) = (fast.stats().energy.0, reference.stats().energy.0);
    assert!(
        (fe - re).abs() <= 1e-12 * fe.abs().max(re.abs()),
        "write-phase energy {fe} vs reference {re}"
    );
    (fast_phase, ref_phase)
}

/// The word-parallel analog fast path vs the per-device reference
/// crossbar, on the MVM shapes the pool actually serves.
///
/// Both differential pairs hold the same weights under default (noisy)
/// PCM parameters. Four lanes are measured:
///
/// * **serving MVMs** (the headline) — repeated reads against a resident
///   128×128 matrix: the SoA path does one contiguous dot product plus a
///   single aggregate noise draw per output line, the reference one RNG
///   draw per device. Floor: [`ANALOG_MVM_FLOOR`]×.
/// * **cold programming** — a fresh pair program-and-verified from
///   scratch each round (the dominant cost of the cold NN path): batched
///   masked rounds vs the per-device pulse loop. Floor:
///   [`ANALOG_PROGRAM_FLOOR`]×.
/// * **resident-NN serving** — the `[256, 32, 8]` binarized cascade (two
///   chained layer MVMs per inference) against resident weights.
/// * **HDC serving** — one 8×2048 class-prototype score MVM per query,
///   the associative-memory shape of the HDC classifier.
///
/// * **binarized scoring** — the host-side lowering of every resident
///   NN query: the `[256, 32, 8]` network's scores from its packed sign
///   rows (`n − 2·popcount(w ⊕ x)`) against the scalar ±1 dot product.
///   Floor: [`NN_SCORING_FLOOR`]×.
///
/// Every floor is asserted so the CI perf-smoke job catches a
/// regression of the vectorized paths.
const ANALOG_MVM_FLOOR: f64 = 5.0;
const ANALOG_PROGRAM_FLOOR: f64 = 3.0;
const NN_SCORING_FLOOR: f64 = 20.0;

/// The scalar oracle of binarized scoring: one `±1 × ±1` product per
/// weight, chained through the sign activations.
fn scalar_scores(mlp: &BinarizedMlp, x: &BitVec) -> Vec<i64> {
    let mut v = x.clone();
    let mut y = Vec::new();
    for (n, layer) in mlp.layers().iter().enumerate() {
        if n > 0 {
            v = BitVec::from_fn(y.len(), |i| y[i] >= 0);
        }
        y = (0..layer.rows())
            .map(|i| {
                (0..layer.cols())
                    .map(|j| {
                        let w = layer.get(i, j) as i64;
                        if v.get(j) {
                            w
                        } else {
                            -w
                        }
                    })
                    .sum()
            })
            .collect();
    }
    y
}

/// Mean wall seconds per input of scoring the `[256, 32, 8]` network,
/// packed and scalar, which must agree.
fn nn_scoring() -> (f64, f64) {
    const INPUTS: usize = 64;
    const ROUNDS: usize = 20;
    let mlp = BinarizedMlp::random(&[256, 32, 8], 0x5C0);
    let mut rng = seeded(0x1B);
    let inputs: Vec<BitVec> = (0..INPUTS)
        .map(|_| BitVec::from_fn(256, |_| rng.gen()))
        .collect();
    let time = |score: &dyn Fn(&BitVec) -> Vec<i64>| {
        let start = Instant::now();
        for _ in 0..ROUNDS {
            for x in &inputs {
                std::hint::black_box(score(std::hint::black_box(x)));
            }
        }
        start.elapsed().as_secs_f64() / (ROUNDS * INPUTS) as f64
    };
    for x in &inputs {
        assert_eq!(
            mlp.scores(x),
            scalar_scores(&mlp, x),
            "binarized scores diverged"
        );
    }
    (time(&|x| mlp.scores(x)), time(&|x| scalar_scores(&mlp, x)))
}

fn analog_mvm() -> BenchEntry {
    println!("\n# ANALOG FAST PATH — SoA vectorized crossbar vs per-device reference\n");
    const ROWS: usize = 128;
    const COLS: usize = 128;
    const MVM_ITERS: usize = 300;
    const PROGRAM_ROUNDS: usize = 6;
    let params = AnalogParams::default();
    let w = Matrix::from_fn(ROWS, COLS, |i, j| {
        ((i * 31 + j * 17) % 97) as f64 / 96.0 - 0.5
    });
    let x: Vec<f64> = (0..COLS).map(|j| (j % 13) as f64 / 12.0 - 0.5).collect();

    // Cold programming: a fresh pair programmed from scratch per round.
    let mut rng = seeded(0xA9);
    let start = Instant::now();
    let mut fast = {
        let mut pair = DifferentialCrossbar::new(ROWS, COLS, params);
        pair.program_matrix(&w, &mut rng);
        for _ in 1..PROGRAM_ROUNDS {
            pair = DifferentialCrossbar::new(ROWS, COLS, params);
            pair.program_matrix(&w, &mut rng);
        }
        pair
    };
    let fast_prog = start.elapsed().as_secs_f64() / PROGRAM_ROUNDS as f64;
    let mut rng = seeded(0xA9);
    let start = Instant::now();
    let mut reference = {
        let mut pair = ReferenceDifferentialCrossbar::new(ROWS, COLS, params);
        pair.program_matrix(&w, &mut rng);
        for _ in 1..PROGRAM_ROUNDS {
            pair = ReferenceDifferentialCrossbar::new(ROWS, COLS, params);
            pair.program_matrix(&w, &mut rng);
        }
        pair
    };
    let ref_prog = start.elapsed().as_secs_f64() / PROGRAM_ROUNDS as f64;
    let program_speedup = ref_prog / fast_prog;

    // Serving: repeated MVMs against the resident matrix.
    let mut rng = seeded(0xF00D);
    let start = Instant::now();
    for _ in 0..MVM_ITERS {
        std::hint::black_box(fast.matvec(&x, &mut rng));
    }
    let fast_mvm_wall = start.elapsed().as_secs_f64();
    let mut rng = seeded(0xF00D);
    let start = Instant::now();
    for _ in 0..MVM_ITERS {
        std::hint::black_box(reference.matvec(&x, &mut rng));
    }
    let ref_mvm_wall = start.elapsed().as_secs_f64();
    let speedup = ref_mvm_wall / fast_mvm_wall;
    let sim_makespan = fast.stats().busy_time.0;

    // Resident-NN lane: the [256, 32, 8] binarized cascade, two chained
    // layer MVMs per inference with a sign activation between them.
    const INFERS: usize = 200;
    let l1 = Matrix::from_fn(
        32,
        256,
        |i, j| if (i * 7 + j) % 2 == 0 { 1.0 } else { -1.0 },
    );
    let l2 = Matrix::from_fn(8, 32, |i, j| if (i * 5 + j) % 3 == 0 { 1.0 } else { -1.0 });
    let nn_in: Vec<f64> = (0..256)
        .map(|j| if j % 2 == 0 { 1.0 } else { -1.0 })
        .collect();
    let sign = |v: &f64| if *v >= 0.0 { 1.0 } else { -1.0 };
    let nn_lane = |wall: &mut f64, mv: &mut dyn FnMut(&[f64], bool) -> Vec<f64>| {
        let start = Instant::now();
        for _ in 0..INFERS {
            let hidden: Vec<f64> = mv(&nn_in, true).iter().map(sign).collect();
            std::hint::black_box(mv(&hidden, false));
        }
        *wall = start.elapsed().as_secs_f64();
    };
    let (mut fast_nn_wall, mut ref_nn_wall) = (0.0, 0.0);
    {
        let mut fa = DifferentialCrossbar::new(32, 256, params);
        let mut fb = DifferentialCrossbar::new(8, 32, params);
        let mut rng = seeded(0x11A);
        fa.program_matrix(&l1, &mut rng);
        fb.program_matrix(&l2, &mut rng);
        nn_lane(&mut fast_nn_wall, &mut |x, first| {
            if first {
                fa.matvec(x, &mut rng)
            } else {
                fb.matvec(x, &mut rng)
            }
        });
        let mut ra = ReferenceDifferentialCrossbar::new(32, 256, params);
        let mut rb = ReferenceDifferentialCrossbar::new(8, 32, params);
        let mut rng = seeded(0x11A);
        ra.program_matrix(&l1, &mut rng);
        rb.program_matrix(&l2, &mut rng);
        nn_lane(&mut ref_nn_wall, &mut |x, first| {
            if first {
                ra.matvec(x, &mut rng)
            } else {
                rb.matvec(x, &mut rng)
            }
        });
    }
    let nn_speedup = ref_nn_wall / fast_nn_wall;

    // HDC lane: one wide class-score MVM (8 classes × d = 2048) per
    // query against resident bipolar prototypes.
    const HDC_QUERIES: usize = 50;
    const HDC_D: usize = 2048;
    let proto = Matrix::from_fn(
        8,
        HDC_D,
        |i, j| if (i * 13 + j * 7) % 2 == 0 { 1.0 } else { -1.0 },
    );
    let query: Vec<f64> = (0..HDC_D)
        .map(|j| if (j * 3) % 5 < 2 { 1.0 } else { -1.0 })
        .collect();
    let mut fast_hdc = DifferentialCrossbar::new(8, HDC_D, params);
    let mut rng = seeded(0x11D);
    fast_hdc.program_matrix(&proto, &mut rng);
    let start = Instant::now();
    for _ in 0..HDC_QUERIES {
        std::hint::black_box(fast_hdc.matvec(&query, &mut rng));
    }
    let fast_hdc_wall = start.elapsed().as_secs_f64();
    let mut ref_hdc = ReferenceDifferentialCrossbar::new(8, HDC_D, params);
    let mut rng = seeded(0x11D);
    ref_hdc.program_matrix(&proto, &mut rng);
    let start = Instant::now();
    for _ in 0..HDC_QUERIES {
        std::hint::black_box(ref_hdc.matvec(&query, &mut rng));
    }
    let ref_hdc_wall = start.elapsed().as_secs_f64();
    let hdc_speedup = ref_hdc_wall / fast_hdc_wall;
    let (packed_score, scalar_score) = nn_scoring();
    let scoring_speedup = scalar_score / packed_score;

    println!(
        "{:>22} {:>14} {:>14} {:>9}",
        "lane", "fast", "reference", "speedup"
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "128x128 MVM",
        fast_mvm_wall / MVM_ITERS as f64 * 1e6,
        ref_mvm_wall / MVM_ITERS as f64 * 1e6,
        speedup
    );
    println!(
        "{:>22} {:>11.2} ms {:>11.2} ms {:>8.1}x",
        "cold program",
        fast_prog * 1e3,
        ref_prog * 1e3,
        program_speedup
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "NN inference",
        fast_nn_wall / INFERS as f64 * 1e6,
        ref_nn_wall / INFERS as f64 * 1e6,
        nn_speedup
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x",
        "HDC query",
        fast_hdc_wall / HDC_QUERIES as f64 * 1e6,
        ref_hdc_wall / HDC_QUERIES as f64 * 1e6,
        hdc_speedup
    );
    println!(
        "{:>22} {:>11.2} us {:>11.2} us {:>8.1}x  (scalar ±1 dot product)",
        "binarized scoring",
        packed_score * 1e6,
        scalar_score * 1e6,
        scoring_speedup
    );
    assert!(
        speedup >= ANALOG_MVM_FLOOR,
        "analog MVM speedup {speedup:.2}x regressed below the {ANALOG_MVM_FLOOR}x floor"
    );
    assert!(
        program_speedup >= ANALOG_PROGRAM_FLOOR,
        "cold program speedup {program_speedup:.2}x regressed below the \
         {ANALOG_PROGRAM_FLOOR}x floor"
    );
    assert!(
        scoring_speedup >= NN_SCORING_FLOOR,
        "binarized scoring speedup {scoring_speedup:.2}x regressed below the \
         {NN_SCORING_FLOOR}x floor"
    );
    BenchEntry::new("analog_mvm", sim_makespan, fast_mvm_wall * 1e3, speedup)
        .extra("program_speedup", program_speedup)
        .extra("fast_mvm_us", fast_mvm_wall / MVM_ITERS as f64 * 1e6)
        .extra("ref_mvm_us", ref_mvm_wall / MVM_ITERS as f64 * 1e6)
        .extra("fast_program_ms", fast_prog * 1e3)
        .extra("ref_program_ms", ref_prog * 1e3)
        .extra("nn_serving_speedup", nn_speedup)
        .extra("nn_infer_per_s", INFERS as f64 / fast_nn_wall)
        .extra("hdc_serving_speedup", hdc_speedup)
        .extra("hdc_query_per_s", HDC_QUERIES as f64 / fast_hdc_wall)
        .extra("nn_scoring_speedup", scoring_speedup)
        .extra("nn_scoring_us", packed_score * 1e6)
}

/// Measured accuracy of analog `Range` CAM matching versus window width:
/// how wide a mismatch window survives device-to-device variation.
///
/// A seeded CAM under default ReRAM variation answers `Range { lo: 0,
/// hi: w }` searches for widening `w`; every match line is scored
/// against the exact host baseline [`host_match`]. The aggregate
/// match-line current spread grows like √(conducting cells)·σ_d2d while
/// the decision gap stays one LRS current, so wide windows near the
/// typical mismatch count start misdeciding — the measured curve lands
/// in `BENCH.json` as `acc_w{w}` plus the headline
/// `widest_exact_window`, the largest measured width with a perfect
/// match set. Width 1 (the window the word tier certifies) must stay
/// exact.
fn cam_range_accuracy() -> BenchEntry {
    println!("\n# CAM RANGE ACCURACY — analog window match vs exact host baseline\n");
    const ENTRIES: usize = 64;
    const WIDTH: usize = 64;
    const KEYS: usize = 200;
    const WIDTHS: [u32; 9] = [1, 2, 4, 8, 16, 24, 32, 40, 48];
    let mut rng = seeded(0xCA4E);
    let mut cam = CamArray::new(ENTRIES, WIDTH, ReramParams::default(), &mut rng);
    let care = BitVec::ones(WIDTH);
    let stored: Vec<BitVec> = (0..ENTRIES)
        .map(|_| BitVec::from_fn(WIDTH, |_| rng.gen()))
        .collect();
    for (slot, value) in stored.iter().enumerate() {
        cam.write_key(slot, value, &care);
    }
    let keys: Vec<BitVec> = (0..KEYS)
        .map(|_| BitVec::from_fn(WIDTH, |_| rng.gen()))
        .collect();

    let start = Instant::now();
    let mut curve = Vec::new();
    for &hi in &WIDTHS {
        let kind = CamMatchKind::Range { lo: 0, hi };
        let mut correct = 0usize;
        for key in &keys {
            let (hits, _) = cam.search(key, kind, &mut rng);
            for (slot, value) in stored.iter().enumerate() {
                if hits.get(slot) == host_match(value, &care, key, kind) {
                    correct += 1;
                }
            }
        }
        curve.push((hi, correct as f64 / (KEYS * ENTRIES) as f64));
    }
    let wall = start.elapsed().as_secs_f64();
    let sim_makespan = cam.stats().busy_time.0;

    println!("{:>12} {:>10}", "window [0,w]", "accuracy");
    for &(w, acc) in &curve {
        println!("{:>12} {:>10.4}", w, acc);
    }
    let widest_exact = curve
        .iter()
        .take_while(|&&(_, acc)| acc == 1.0)
        .last()
        .map(|&(w, _)| w)
        .unwrap_or(0);
    println!("\nwidest exactly-decided window: [0, {widest_exact}]");
    assert_eq!(
        curve[0].1, 1.0,
        "width-1 range windows (the certified tier) must decide exactly"
    );
    let mut entry = BenchEntry::new(
        "cam_range_accuracy",
        sim_makespan,
        wall * 1e3,
        widest_exact as f64,
    );
    for &(w, acc) in &curve {
        entry = entry.extra(
            match w {
                1 => "acc_w1",
                2 => "acc_w2",
                4 => "acc_w4",
                8 => "acc_w8",
                16 => "acc_w16",
                24 => "acc_w24",
                32 => "acc_w32",
                40 => "acc_w40",
                _ => "acc_w48",
            },
            acc,
        );
    }
    entry.extra("widest_exact_window", widest_exact as f64)
}

/// One seeded serving run traced into a ring recorder: a resident Q6
/// table with queries (dataset-load spans), a small encryption, and an
/// oversized select that scatters across both shards (per-part
/// dispatch/execute spans plus the gather span). Jobs run one at a
/// time so the planner sees an identical queue on every invocation —
/// the snapshot must come out byte-identical across runs.
fn traced_run() -> (String, String, Snapshot, f64) {
    let ring = Arc::new(RingRecorder::new(1 << 16));
    let pool = RuntimePool::with_sink(PoolConfig::with_shards(2), ring.clone());
    let session = pool.client(TenantId(1));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 2000,
            table_seed: 42,
        })
        .expect("dataset fits pool");
    for _ in 0..2 {
        let report = session
            .submit(&WorkloadSpec::Q6Query {
                dataset: table.id(),
                params: Q6Params::tpch_default(),
            })
            .expect("query fits pool")
            .wait();
        assert!(report.output.is_ok(), "{:?}", report.output);
    }
    let report = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: (0..256u32).map(|b| b as u8).collect(),
            key_seed: 9,
        })
        .expect("job fits pool")
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    // Six tiles against two free + four free: must scatter-gather.
    let report = session
        .submit(&WorkloadSpec::Q6Select {
            rows: 6 * 1024,
            table_seed: 77,
            params: Q6Params::tpch_default(),
        })
        .expect("splits across the pool")
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    assert!(report.shards.len() >= 2, "the select actually scattered");
    let sim_makespan = pool.telemetry().simulated_makespan().0;
    drop(table);
    let snap = ring.snapshot();
    (ring.chrome_trace_json(), snap.to_json(), snap, sim_makespan)
}

/// The observability story itself: a traced seeded run exports a valid
/// Chrome trace (`runtime_trace.json`) and a deterministic snapshot
/// (`runtime_snapshot.json` — byte-identical across two identical
/// runs), every span closes exactly once, and the default null-sink
/// tracer stays under [`NULL_SINK_NS_PER_OP`] per open/close pair —
/// the bound the CI perf-smoke job rides on.
const NULL_SINK_NS_PER_OP: f64 = 100.0;

fn observability() -> BenchEntry {
    println!("\n# OBSERVABILITY — traced serving run, exports, and null-sink overhead\n");
    let start = Instant::now();
    let (trace_json, snap_json, snap, sim_makespan) = traced_run();
    let wall = start.elapsed().as_secs_f64();

    // Span integrity: every lifecycle stage closed exactly once.
    assert_eq!(snap.unclosed, 0, "every span must close exactly once");
    assert_eq!(snap.orphan_closes, 0, "no close without a matching open");
    let job_roots = snap.roots_named("job").count();
    let load_roots = snap.roots_named("dataset_load").count();
    assert_eq!(job_roots, 4, "2 queries + 1 encrypt + 1 split select");
    assert_eq!(load_roots, 1, "one resident dataset load");

    // Exports: both files must be well-formed JSON, and the snapshot
    // (which excludes wall-clock fields by construction) must be
    // byte-identical on a second identically-seeded run.
    cim_obs::json::validate(&trace_json).expect("Chrome trace must be valid JSON");
    cim_obs::json::validate(&snap_json).expect("snapshot must be valid JSON");
    let (_, snap_json_again, _, _) = traced_run();
    assert_eq!(
        snap_json, snap_json_again,
        "seeded snapshots must be byte-identical across runs"
    );
    std::fs::write("runtime_trace.json", &trace_json).expect("write runtime_trace.json");
    std::fs::write("runtime_snapshot.json", &snap_json).expect("write runtime_snapshot.json");

    // Null-sink overhead: the default pool traces into a null sink, so
    // an open/close pair on the disabled path must stay near-free.
    let tracer = Tracer::disabled();
    assert!(!tracer.enabled());
    const OPS: u64 = 2_000_000;
    let bench_start = Instant::now();
    for i in 0..OPS {
        let span = tracer.open("bench", SpanId::NONE, &[("i", Value::U64(i))]);
        tracer.close(std::hint::black_box(span), 0.0, &[]);
    }
    let ns_per_op = bench_start.elapsed().as_nanos() as f64 / OPS as f64;

    println!(
        "{:>10} spans across {job_roots} jobs + {load_roots} dataset load (unclosed: {})",
        snap.span_count(),
        snap.unclosed
    );
    println!(
        "{:>10} wrote runtime_trace.json ({} B) and runtime_snapshot.json ({} B, deterministic)",
        "",
        trace_json.len(),
        snap_json.len()
    );
    println!("{:>10} null-sink open/close pair: {ns_per_op:.1} ns", "");
    assert!(
        ns_per_op < NULL_SINK_NS_PER_OP,
        "null-sink overhead {ns_per_op:.1} ns/op broke the {NULL_SINK_NS_PER_OP} ns bound"
    );

    BenchEntry::new("observability", sim_makespan, wall * 1e3, 1.0)
        .extra("spans", snap.span_count() as f64)
        .extra("null_sink_ns_per_op", ns_per_op)
        .extra("snapshot_bytes", snap_json.len() as f64)
}

fn main() {
    write_bench_json(&[
        scout_q6_fastpath(),
        analog_mvm(),
        cam_range_accuracy(),
        observability(),
    ]);
}
