//! Direct calls into the lowering and device layers at the workloads'
//! shapes, each timed under its own benchmark span.

use crate::metrics::{median, Metric};
use crate::spans::Spans;
use crate::workload::{HDC_CLASSES, HDC_D, HDC_NGRAM, HDC_SAMPLE_LEN, HDC_TRAIN_LEN, Q6_ROWS};
use cim_bitmap_db::tpch::LineItemTable;
use cim_crossbar::analog::{AnalogParams, DifferentialCrossbar};
use cim_crossbar::cam::{CamArray, MatchKind, RuleSet};
use cim_crossbar::digital::DigitalArray;
use cim_crossbar::scouting::ScoutOp;
use cim_device::reram::ReramParams;
use cim_hdc::lang::LanguageTask;
use cim_obs::Value;
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use rand::Rng;
use std::hint::black_box;

/// Median wall time of `reps` calls, in seconds.
fn time_reps(spans: &Spans, name: &'static str, reps: usize, mut f: impl FnMut()) -> f64 {
    let secs: Vec<f64> = (0..reps)
        .map(|_| {
            spans
                .timed("layer", &[("call", Value::Str(name))], &mut f)
                .1
        })
        .collect();
    median(&secs)
}

pub fn measure(spans: &Spans) -> Vec<Metric> {
    let mut m = Vec::new();
    let mut rng = seeded(0x1A7E);

    // compile layer: host-side lowering at the cold-mix HDC and Q6 shapes.
    let train = time_reps(spans, "hdc_train", 3, || {
        black_box(LanguageTask::train(
            HDC_CLASSES,
            HDC_D,
            HDC_NGRAM,
            HDC_TRAIN_LEN,
            7,
        ));
    });
    m.push(Metric::new("lower.hdc_train_ms", train * 1e3, "ms", 3));
    let task = LanguageTask::train(HDC_CLASSES, HDC_D, HDC_NGRAM, HDC_TRAIN_LEN, 7);
    let text = task.languages[0].sample_text(HDC_SAMPLE_LEN, &mut rng);
    let encode = time_reps(spans, "hdc_encode", 50, || {
        black_box(task.encoder.encode_sequence(black_box(&text)));
    });
    m.push(Metric::new("lower.hdc_encode_ms", encode * 1e3, "ms", 50));
    let table = time_reps(spans, "q6_table", 20, || {
        black_box(LineItemTable::generate(Q6_ROWS, 11));
    });
    m.push(Metric::new("lower.q6_table_ms", table * 1e3, "ms", 20));

    // device layer: a 160×1024 digital tile, 32×256 differential pair,
    // 80-entry CAM tile — the pool's tile geometry and NN layer shape.
    let params = ReramParams::default();
    let mut tile = DigitalArray::new(160, 1024, params, &mut rng);
    for r in 0..8 {
        let bits = BitVec::from_fn(1024, |_| rng.gen::<f64>() < 0.1);
        tile.write_row(r, &bits);
    }
    let rows: Vec<usize> = (0..8).collect();
    let scout = time_reps(spans, "scout", 200, || {
        black_box(tile.scout(ScoutOp::Or, &rows, &mut rng));
    });
    m.push(Metric::new("device.scout_us", scout * 1e6, "us", 200));

    let analog = AnalogParams::default();
    let w = Matrix::from_fn(32, 256, |_, _| if rng.gen::<bool>() { 1.0 } else { -1.0 });
    let mut pulses = 0u64;
    let program = time_reps(spans, "program", 10, || {
        let mut pair = DifferentialCrossbar::new(32, 256, analog);
        pair.program_matrix(&w, &mut rng);
        pulses += pair.stats().program_pulses;
        black_box(pair);
    });
    m.push(Metric::new("device.program_ms", program * 1e3, "ms", 10));
    m.push(
        Metric::new(
            "device.pulses_per_cell",
            pulses as f64 / (10 * 2 * 32 * 256) as f64,
            "pulses",
            10 * 2 * 32 * 256,
        )
        .sim(),
    );
    let mut pair = DifferentialCrossbar::new(32, 256, analog);
    pair.program_matrix(&w, &mut rng);
    let x: Vec<f64> = (0..256)
        .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
        .collect();
    let mvm = time_reps(spans, "mvm", 200, || {
        black_box(pair.matvec(black_box(&x), &mut rng));
    });
    m.push(Metric::new("device.mvm_us", mvm * 1e6, "us", 200));

    let rules = RuleSet::generate(80, 48, 0.3, 5);
    let mut cam = CamArray::new(80, 1024, params, &mut rng);
    let pad = |b: &BitVec| BitVec::from_fn(1024, |j| j < 48 && b.get(j));
    for (slot, rule) in rules.rules().iter().enumerate() {
        cam.write_key(slot, &pad(&rule.value), &pad(&rule.care));
    }
    let key = pad(&rules.sample_packet(&mut rng));
    let search = time_reps(spans, "cam_search", 200, || {
        black_box(cam.search(black_box(&key), MatchKind::Ternary, &mut rng));
    });
    m.push(Metric::new("device.cam_search_us", search * 1e6, "us", 200));
    m
}
