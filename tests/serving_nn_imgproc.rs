//! End-to-end tests of the NN and image-processing serving paths
//! through `cim-runtime` (ISSUE 3 tentpole).
//!
//! The acceptance contract: `NnInfer` through the pool's *noisy* analog
//! tiles is bit-identical to the direct `cim-nn` binarized reference
//! (the ±1 parity-lattice decode absorbs programming residue, read
//! noise and ADC quantization), resident `NnQuery` equals cold
//! `NnInfer` while paying the weight writes exactly once, and
//! `ImgFilter` equals running `cim-imgproc` on the 8-bit-quantized
//! image directly.

use cim_repro::cim_imgproc::image::GrayImage;
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_runtime::{
    DatasetSpec, ImgFilterOp, JobHandle, JobOutput, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// A pool with compact analog tiles, near the layer sizes under test.
/// Layers pack side by side into column blocks, so a two-layer network
/// fills one or two of these 16 x 32 tiles.
fn nn_pool(shards: usize) -> RuntimePool {
    RuntimePool::new(PoolConfig {
        // Four tiles: room for a resident network and a cold lease of
        // the same network on one shard, whether it packs into one tile
        // or two.
        analog_tiles: 4,
        analog_rows: 16,
        analog_cols: 32,
        ..PoolConfig::with_shards(shards)
    })
}

/// Deterministic ±1 input vectors.
fn random_inputs(count: usize, len: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| BitVec::from_fn(len, |_| rng.gen::<f64>() < 0.5))
        .collect()
}

fn nn_output(output: &JobOutput) -> (&Vec<usize>, &Vec<Vec<i64>>) {
    match output {
        JobOutput::Nn(outcome) => (&outcome.predictions, &outcome.scores),
        other => panic!("unexpected output {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole acceptance: runtime-served inference is bit-identical
    /// to the direct `cim-nn` integer reference across random
    /// binarized layers, random inputs and both workload forms.
    #[test]
    fn nn_infer_through_runtime_is_bit_identical_to_direct(
        inputs_dim in 2usize..24,
        hidden in 2usize..16,
        classes in 2usize..8,
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
        samples in 1usize..4,
    ) {
        let mlp = BinarizedMlp::random(&[inputs_dim, hidden, classes], net_seed);
        let inputs = random_inputs(samples, inputs_dim, input_seed);

        let pool = nn_pool(1);
        let report = pool
            .client(TenantId(1))
            .submit(&WorkloadSpec::NnInfer {
                network: mlp.clone(),
                inputs: inputs.clone(),
            })
            .unwrap()
            .wait();
        let (predictions, scores) = nn_output(report.output.as_ref().unwrap());
        for (i, x) in inputs.iter().enumerate() {
            prop_assert_eq!(&scores[i], &mlp.scores(x), "scores diverge on input {}", i);
            prop_assert_eq!(predictions[i], mlp.predict(x));
        }
        // The MVM work really ran in the array: one per layer per input.
        prop_assert_eq!(report.stats.mvms, 2 * samples as u64);
        prop_assert_eq!(report.stats.matrix_programs, 2);
    }

    /// Tentpole acceptance: a resident `NnQuery` returns exactly what
    /// the cold `NnInfer` returns, with zero weight writes in the
    /// query job.
    #[test]
    fn resident_nn_query_equals_cold_infer(
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        let mlp = BinarizedMlp::random(&[12, 10, 4], net_seed);
        let inputs = random_inputs(3, 12, input_seed);

        let pool = nn_pool(1);
        let session = pool.client(TenantId(1));
        let weights = session
            .register_dataset(&DatasetSpec::NnWeights {
                network: mlp.clone(),
            })
            .unwrap();
        let resident = session
            .submit(&WorkloadSpec::NnQuery {
                dataset: weights.id(),
                inputs: inputs.clone(),
            })
            .unwrap()
            .wait();
        let cold = session
            .submit(&WorkloadSpec::NnInfer {
                network: mlp,
                inputs,
            })
            .unwrap()
            .wait();
        prop_assert_eq!(
            resident.output.as_ref().unwrap(),
            cold.output.as_ref().unwrap()
        );
        prop_assert_eq!(resident.stats.matrix_programs, 0, "query reprogrammed weights");
        prop_assert!(cold.stats.matrix_programs > 0);
    }

    /// Tentpole acceptance: `ImgFilter` through the runtime equals
    /// `cim-imgproc` on the 8-bit-quantized image, bit for bit.
    #[test]
    fn img_filter_through_runtime_is_bit_identical_to_direct(
        width in 4usize..40,
        height in 4usize..24,
        radius in 1usize..4,
        noise_seed in any::<u64>(),
        guided in any::<bool>(),
    ) {
        let image = GrayImage::checkerboard(width, height, 3, 0.15, 0.85)
            .with_gaussian_noise(0.1, noise_seed);
        let filter = if guided {
            ImgFilterOp::Guided { radius, epsilon: 0.01 }
        } else {
            ImgFilterOp::Box { radius }
        };

        let pool = RuntimePool::new(PoolConfig::with_shards(1));
        let report = pool
            .client(TenantId(2))
            .submit(&WorkloadSpec::ImgFilter {
                image: image.clone(),
                filter,
            })
            .unwrap()
            .wait();
        // The direct path: `cim-imgproc` on the 8-bit-quantized image
        // (`ImgFilterOp::apply` is the same dispatch the finalizer
        // uses; `examples/guided_filter.rs` pins it against a literal
        // `guided_filter` call).
        let expected = filter.apply(&image.quantized(8));
        match report.output.as_ref().unwrap() {
            JobOutput::Image(out) => prop_assert_eq!(out, &expected),
            other => panic!("unexpected output {other:?}"),
        }
        // Row-access-heavy, as §III-A argues: every output row streamed
        // its whole neighbourhood out of the tile rows.
        prop_assert_eq!(report.stats.row_reads, (height * (2 * radius + 1)) as u64);
        prop_assert_eq!(report.stats.row_writes, height as u64);
    }
}

/// Acceptance: ≥ 8 batched inferences against one registered
/// `NnWeights` dataset amortize the weight programming — load paid
/// once in the dataset ledger, queries carry only MVMs, and the
/// simulated per-query time beats the cold path by ≥ 3x.
#[test]
fn resident_nn_amortizes_weight_programming() {
    const QUERIES: usize = 8;
    let mlp = BinarizedMlp::random(&[16, 12, 4], 99);
    let inputs = random_inputs(2, 16, 7);

    let cold_pool = nn_pool(1);
    let cold_session = cold_pool.client(TenantId(1));
    let cold_handles: Vec<JobHandle> = (0..QUERIES)
        .map(|_| {
            cold_session
                .submit(&WorkloadSpec::NnInfer {
                    network: mlp.clone(),
                    inputs: inputs.clone(),
                })
                .unwrap()
        })
        .collect();
    let cold_reports = cold_session.wait_all(cold_handles);
    assert!(cold_reports.iter().all(|r| r.output.is_ok()));
    let cold_telemetry = cold_pool.telemetry();
    let cold_sim = cold_telemetry.pool.busy_time.0;
    assert!(
        cold_telemetry.device.program_pulses > 0,
        "cold jobs program-and-verify their weights"
    );

    let warm_pool = nn_pool(1);
    let warm_session = warm_pool.client(TenantId(1));
    let weights = warm_session
        .register_dataset(&DatasetSpec::NnWeights {
            network: mlp.clone(),
        })
        .unwrap();
    let warm_handles: Vec<JobHandle> = (0..QUERIES)
        .map(|_| {
            warm_session
                .submit(&WorkloadSpec::NnQuery {
                    dataset: weights.id(),
                    inputs: inputs.clone(),
                })
                .unwrap()
        })
        .collect();
    let warm_reports = warm_session.wait_all(warm_handles);
    for (w, c) in warm_reports.iter().zip(&cold_reports) {
        assert_eq!(w.output.as_ref().unwrap(), c.output.as_ref().unwrap());
        assert_eq!(w.stats.matrix_programs, 0);
    }

    let telemetry = warm_pool.telemetry();
    let usage = &telemetry.datasets[&weights.id().0];
    assert_eq!(usage.kind, "nn-weights");
    assert_eq!(usage.queries, QUERIES as u64);
    assert_eq!(
        usage.load_stats.matrix_programs, 2,
        "weights programmed exactly once per layer, at registration"
    );
    assert!(usage.load_device.program_pulses > 0);
    assert_eq!(
        usage.query_device.program_pulses, 0,
        "resident queries carry zero program-and-verify pulses"
    );
    // Amortized resident serving: per-query share of (load + queries)
    // vs the cold path that reprograms per job.
    let warm_sim = usage.load_stats.busy_time.0 + usage.query_stats.busy_time.0;
    let speedup = cold_sim / warm_sim;
    assert!(
        speedup >= 3.0,
        "resident NN speedup {speedup:.2}x below the 3x acceptance bar"
    );
}

/// Three-layer networks fit: `[256, 32, 16, 8]` packs its layers into
/// columns 0–255, 256–287 and 288–303 of one default 32 x 2,048 analog
/// tile. Cold `NnInfer` and resident `NnQuery` both serve
/// `BinarizedMlp::scores` bit for bit, and each resident copy of the
/// weights pins one of the shard's two analog tiles.
#[test]
fn three_layer_network_serves_from_one_tile() {
    let mlp = BinarizedMlp::random(&[256, 32, 16, 8], 31);
    let inputs = random_inputs(4, 256, 9);
    let pool = RuntimePool::new(PoolConfig::with_shards(1));
    let session = pool.client(TenantId(1));
    let cold = session
        .submit(&WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs: inputs.clone(),
        })
        .unwrap()
        .wait();
    let weights = DatasetSpec::NnWeights {
        network: mlp.clone(),
    };
    // Two resident copies fill the shard's two analog tiles: each packs
    // into one.
    let first = session.register_dataset(&weights).unwrap();
    let _second = session.register_dataset(&weights).unwrap();
    let resident = session
        .submit(&WorkloadSpec::NnQuery {
            dataset: first.id(),
            inputs: inputs.clone(),
        })
        .unwrap()
        .wait();
    for report in [&cold, &resident] {
        let (predictions, scores) = nn_output(report.output.as_ref().unwrap());
        for (i, x) in inputs.iter().enumerate() {
            assert_eq!(scores[i], mlp.scores(x), "input {i}");
            assert_eq!(predictions[i], mlp.predict(x));
        }
        assert_eq!(report.stats.mvms, 3 * 4, "one MVM per layer per input");
    }
    assert_eq!(cold.stats.matrix_programs, 3);
    assert_eq!(resident.stats.matrix_programs, 0);
    let telemetry = pool.telemetry();
    assert_eq!(
        telemetry.datasets[&first.id().0].load_stats.matrix_programs,
        3
    );
}

/// A mixed pool serves NN and imgproc jobs next to the PR-1/2 families
/// without interference, and kinds land in the reports.
#[test]
fn nn_and_img_serve_alongside_existing_families() {
    use cim_repro::cim_bitmap_db::tpch::Q6Params;
    let pool = nn_pool(2);
    let mlp = BinarizedMlp::random(&[8, 6, 3], 4);
    let nn = pool
        .client(TenantId(1))
        .submit(&WorkloadSpec::NnInfer {
            network: mlp.clone(),
            inputs: random_inputs(2, 8, 1),
        })
        .unwrap();
    let img = pool
        .client(TenantId(2))
        .submit(&WorkloadSpec::ImgFilter {
            image: GrayImage::step_edge(24, 12, 12, 0.2, 0.8),
            filter: ImgFilterOp::Guided {
                radius: 2,
                epsilon: 0.02,
            },
        })
        .unwrap();
    let q6 = pool
        .client(TenantId(3))
        .submit(&WorkloadSpec::Q6Select {
            rows: 800,
            table_seed: 5,
            params: Q6Params::tpch_default(),
        })
        .unwrap();
    let reports = pool.client(TenantId(0)).wait_all(vec![nn, img, q6]);
    assert!(reports.iter().all(|r| r.output.is_ok()));
    let telemetry = pool.telemetry();
    assert_eq!(telemetry.per_tenant.len(), 3);
    assert!(telemetry.pool.mvms >= 4);
    assert!(telemetry.pool.row_reads >= 12 * 5);
}

/// Foreign tenants cannot query a resident NN dataset — weights are an
/// isolation domain like every other dataset.
#[test]
fn foreign_tenant_cannot_query_nn_weights() {
    use cim_repro::cim_runtime::CompileError;
    let pool = nn_pool(1);
    let owner = pool.client(TenantId(1));
    let weights = owner
        .register_dataset(&DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[8, 4], 2),
        })
        .unwrap();
    let err = pool
        .client(TenantId(2))
        .submit(&WorkloadSpec::NnQuery {
            dataset: weights.id(),
            inputs: random_inputs(1, 8, 3),
        })
        .unwrap_err();
    assert!(matches!(err, CompileError::DatasetAccessDenied { .. }));
}
