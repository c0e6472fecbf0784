//! Regenerates the §IV-B-3 accuracy study: HD language recognition with
//! the paper's 21 classes, comparing ideal software classification
//! against the associative search served by the CIM pool, on ideal
//! devices and under PCM device noise.
//!
//! The two served rows are paired. Each submits the same `HdcClassify`
//! spec as the first job of a one-shard pool, and the two pools differ
//! only in `analog_params`. A job's seed derives from the pool seed and
//! its id, so both pools train the same prototypes and classify the
//! same queries: the rows differ by the devices alone.

use cim_bench::{eng, print_table};
use cim_hdc::lang::{LanguageTask, PAPER_LANGUAGES};
use cim_runtime::{
    AnalogParams, HdcOutcome, JobOutput, JobReport, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};

/// Hypervector dimension, as in the paper.
const D: usize = 10_000;

/// Serves `spec` as the first job of a one-shard pool whose analog
/// tiles hold `D` columns of devices built with `analog_params`.
fn serve(spec: &WorkloadSpec, analog_params: AnalogParams) -> (HdcOutcome, JobReport) {
    let pool = RuntimePool::new(PoolConfig {
        shards: 1,
        analog_cols: D,
        analog_params,
        ..PoolConfig::default()
    });
    let report = pool
        .client(TenantId(1))
        .submit(spec)
        .expect("the prototypes fit one analog tile")
        .wait();
    let Ok(JobOutput::Hdc(outcome)) = &report.output else {
        panic!("HDC classification failed: {:?}", report.output);
    };
    (outcome.clone(), report)
}

fn main() {
    println!("# §IV-B-3 — HD language recognition, {PAPER_LANGUAGES} classes, d = {D}\n");
    // Training and query lengths sized for a run of a few seconds.
    let (train_len, query_len, per_class) = (3_000, 200, 5);
    let mut task = LanguageTask::train(PAPER_LANGUAGES, D, 3, train_len, 1);
    let software_acc = task.accuracy(per_class, query_len);

    let spec = WorkloadSpec::HdcClassify {
        classes: PAPER_LANGUAGES,
        d: D,
        ngram: 3,
        train_len,
        samples: PAPER_LANGUAGES * per_class,
        sample_len: query_len,
    };
    let (ideal, ideal_report) = serve(&spec, AnalogParams::ideal());
    let (pcm, pcm_report) = serve(&spec, AnalogParams::default());
    // Job 0 of two pools with one seed: the same queries, in one order.
    assert_eq!(ideal_report.job, pcm_report.job);
    assert_eq!(ideal.expected, pcm.expected);

    let served = |name: &str, outcome: &HdcOutcome, report: &JobReport| {
        vec![
            name.to_string(),
            format!("{:.1}%", outcome.accuracy() * 100.0),
            report.stats.mvms.to_string(),
            eng(report.stats.energy.0, "J"),
        ]
    };
    print_table(
        &["implementation", "accuracy", "MVMs", "CIM energy"],
        &[
            vec![
                "ideal software (host)".to_string(),
                format!("{:.1}%", software_acc * 100.0),
                "—".to_string(),
                "—".to_string(),
            ],
            served("CIM served, ideal devices", &ideal, &ideal_report),
            served("CIM served, PCM noise", &pcm, &pcm_report),
        ],
    );
    println!(
        "\npaper: \"the CIM architecture can deliver comparable accuracies \
         to the ideal software simulations for the task of language \
         recognition\""
    );
    assert!(
        pcm.accuracy() >= ideal.accuracy() - 0.1,
        "PCM accuracy {} must be comparable to ideal devices {}",
        pcm.accuracy(),
        ideal.accuracy()
    );
}
