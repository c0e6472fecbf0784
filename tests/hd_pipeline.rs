//! Integration: the §IV-B HD-computing pipeline — language and gesture
//! classification through the full encode→bundle→search stack, on the
//! digital associative memory and on the analog search the pool serves.

use cim_repro::cim_hdc::emg::EmgTask;
use cim_repro::cim_hdc::lang::LanguageTask;
use cim_repro::cim_runtime::{
    AnalogParams, DatasetSpec, HdcOutcome, JobId, JobOutput, JobReport, PoolConfig, RuntimePool,
    TenantId, WorkloadSpec,
};

#[test]
fn language_recognition_accuracy_floor() {
    let mut task = LanguageTask::train(10, 4096, 3, 2000, 1);
    let acc = task.accuracy(5, 250);
    assert!(acc > 0.9, "10-language accuracy {acc}");
}

#[test]
fn emg_gesture_accuracy_floor() {
    let mut task = EmgTask::train(4096, 16, 40, 4, 0.06, 2);
    let acc = task.accuracy(8);
    assert!(acc > 0.85, "EMG accuracy {acc}");
}

/// The §IV-B-3 language task at reduced scale: 8 classes at d = 4,096,
/// five queries of 250 symbols per class.
const CLASSIFY: WorkloadSpec = WorkloadSpec::HdcClassify {
    classes: 8,
    d: 4096,
    ngram: 3,
    train_len: 1500,
    samples: 40,
    sample_len: 250,
};

/// Serves [`CLASSIFY`] as the first job of a one-shard pool whose analog
/// tiles hold its 4,096 columns with devices built from `analog_params`.
fn serve(analog_params: AnalogParams) -> (HdcOutcome, JobReport) {
    let pool = RuntimePool::new(PoolConfig {
        shards: 1,
        analog_cols: 4096,
        analog_params,
        ..PoolConfig::default()
    });
    let report = pool.client(TenantId(1)).submit(&CLASSIFY).unwrap().wait();
    let Ok(JobOutput::Hdc(outcome)) = &report.output else {
        panic!("HDC classification failed: {:?}", report.output);
    };
    (outcome.clone(), report)
}

#[test]
fn cim_associative_memory_comparable_to_software() {
    // Paired: two pools that differ only in their analog devices. Each
    // job is job 0 under the same pool seed, so both train the same
    // prototypes and classify the same queries.
    let (ideal, ideal_report) = serve(AnalogParams::ideal());
    let (pcm, pcm_report) = serve(AnalogParams::default());
    assert_eq!(ideal.expected, pcm.expected);
    assert!(
        ideal.accuracy() > 0.9,
        "ideal-device accuracy {}",
        ideal.accuracy()
    );
    assert!(
        pcm.accuracy() >= ideal.accuracy() - 0.1,
        "PCM accuracy {} must be comparable to ideal devices {}",
        pcm.accuracy(),
        ideal.accuracy()
    );
    // One program of the prototypes, then one MVM per query, each
    // charged to the job.
    for report in [&ideal_report, &pcm_report] {
        assert_eq!(report.job, JobId(0));
        assert_eq!(report.stats.matrix_programs, 1);
        assert_eq!(report.stats.mvms, 40);
        assert!(report.stats.energy.0 > 0.0, "{:?}", report.stats);
    }
}

#[test]
fn served_search_survives_read_noise() {
    let mut noisy = AnalogParams::default();
    noisy.pcm.sigma_read = 0.05; // 5× the default read noise
    let (outcome, _) = serve(noisy);
    assert!(
        outcome.accuracy() > 0.9,
        "noisy-crossbar accuracy {}",
        outcome.accuracy()
    );
}

#[test]
fn query_energy_is_accounted() {
    // Resident prototypes: the one matrix program is charged to the
    // dataset, and a query job's energy is exactly what it adds to the
    // pool total.
    let d = 2048;
    let pool = RuntimePool::new(PoolConfig {
        shards: 1,
        analog_cols: d,
        ..PoolConfig::default()
    });
    let session = pool.client(TenantId(1));
    let resident = session
        .register_dataset(&DatasetSpec::HdcPrototypes {
            classes: 4,
            d,
            ngram: 3,
            train_len: 800,
        })
        .unwrap();
    let telemetry = pool.telemetry();
    let programming = &telemetry.datasets[&resident.id().0].load_stats;
    assert_eq!(programming.matrix_programs, 1);
    assert!(programming.energy.0 > 0.0);

    let before = telemetry.pool.energy;
    let report = session
        .submit(&WorkloadSpec::HdcQuery {
            dataset: resident.id(),
            samples: 1,
            sample_len: 100,
        })
        .unwrap()
        .wait();
    assert!(report.output.is_ok(), "{:?}", report.output);
    assert_eq!(report.stats.matrix_programs, 0);
    assert_eq!(report.stats.mvms, 1);
    assert!(report.stats.energy.0 > 0.0);
    let after = pool.telemetry().pool.energy;
    assert!((after.0 - before.0 - report.stats.energy.0).abs() < 1e-15);
}
