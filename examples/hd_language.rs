//! The §IV-B hyperdimensional-computing application: language
//! recognition with the associative search executed in a PCM crossbar.
//!
//! Trains an HD classifier on synthetic Markov-chain "languages" and
//! classifies on the host — then serves classification through the
//! `cim-runtime` pool: the prototypes are programmed once as a
//! resident dataset and every query job carries only its
//! matrix-vector products, read under PCM device noise.
//!
//! Run with: `cargo run --release --example hd_language`

use cim_hdc::lang::LanguageTask;
use cim_runtime::{DatasetSpec, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec};

fn main() {
    let classes = 10;
    let d = 8192;
    println!("training HD language classifier: {classes} languages, d = {d}, tri-grams…");
    let mut task = LanguageTask::train(classes, d, 3, 2500, 11);

    let software = task.accuracy(8, 200);
    println!(
        "software associative memory: {:.1}% accuracy",
        software * 100.0
    );

    // --- Served through the runtime: resident prototypes ----------------
    println!("\nserving classification through the cim-runtime pool…");
    let pool = RuntimePool::new(PoolConfig {
        shards: 1,
        analog_cols: d,
        ..PoolConfig::default()
    });
    let session = pool.client(TenantId(1));
    let resident = session
        .register_dataset(&DatasetSpec::HdcPrototypes {
            classes,
            d,
            ngram: 3,
            train_len: 2500,
        })
        .expect("prototypes fit the analog tile");

    // Two bursts of non-blocking query jobs against the same matrix.
    let handles: Vec<_> = (0..2)
        .map(|_| {
            session
                .submit(&WorkloadSpec::HdcQuery {
                    dataset: resident.id(),
                    samples: 20,
                    sample_len: 200,
                })
                .expect("query compiles")
        })
        .collect();
    for report in session.wait_all(handles) {
        let JobOutput::Hdc(outcome) = report.output.expect("queries execute") else {
            unreachable!("HDC queries decode to HDC outcomes");
        };
        println!(
            "  burst of {} queries: {:.1}% accuracy, {} MVMs, {} per query, \
             0 reprogramming writes",
            outcome.predictions.len(),
            outcome.accuracy() * 100.0,
            report.stats.mvms,
            report.stats.energy / outcome.predictions.len() as f64
        );
    }
    let telemetry = pool.telemetry();
    let usage = &telemetry.datasets[&resident.id().0];
    println!(
        "prototypes programmed once ({} matrix program, {}), {} query jobs amortize it ✓",
        usage.load_stats.matrix_programs, usage.load_stats.energy, usage.queries
    );
    println!(
        "\npaper: the CIM architecture delivers accuracies comparable to \
         ideal software for language recognition."
    );
}
