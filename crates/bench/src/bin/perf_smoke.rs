//! Release-mode perf smoke test: the device-level floors and exports
//! the serving benchmark (`perfbench/`) does not measure.
//!
//! Four groups, each asserting its own bar:
//!
//! * `scout_q6_fastpath` — the word-parallel digital tile against the
//!   bit-serial reference on a Q6-shaped access mix (≥ 5× wall clock).
//! * `analog_mvm` — the vectorized analog crossbar against the
//!   per-device reference: serving MVMs (≥ 5×) and cold programming
//!   (≥ 3×), plus NN and HDC serving lanes.
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
const FASTPATH_FLOOR: f64 = 5.0;

fn scout_q6_fastpath() -> BenchEntry {
    println!("\n# FAST PATH — word-parallel digital tile vs bit-serial reference\n");
    const ROWS: usize = 160;
    const COLS: usize = 2048;
    const ITERS: usize = 300;
    let params = ReramParams::default();

    let mut fast = DigitalArray::new(ROWS, COLS, params, &mut seeded(0x50A));
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
    BenchEntry::new("scout_q6_fastpath", sim_makespan, fast_wall * 1e3, speedup)
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
/// Both floors are asserted so the CI perf-smoke job catches a
/// regression of the vectorized path.
const ANALOG_MVM_FLOOR: f64 = 5.0;
const ANALOG_PROGRAM_FLOOR: f64 = 3.0;

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
    assert!(
        speedup >= ANALOG_MVM_FLOOR,
        "analog MVM speedup {speedup:.2}x regressed below the {ANALOG_MVM_FLOOR}x floor"
    );
    assert!(
        program_speedup >= ANALOG_PROGRAM_FLOOR,
        "cold program speedup {program_speedup:.2}x regressed below the \
         {ANALOG_PROGRAM_FLOOR}x floor"
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
