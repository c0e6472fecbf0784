//! Exact replicas of resident analog datasets.
//!
//! An analog dataset (NN weights, HDC prototypes) keeps an exact copy on
//! every other shard that has free analog tiles when it registers, and
//! its queries rotate over the copies. These tests pin what the copies
//! may and may not change:
//! 1. a query a replica serves reports exactly what the primary would,
//!    apart from the shard that served it;
//! 2. one flush equals one flush per submission on a pool with copies,
//!    when a fresh lease reclaims one as well;
//! 3. copies never cost capacity: a cold job that needs every analog
//!    tile of a shard takes a replica's tiles, and later queries land
//!    on the remaining copy;
//! 4. release scrubs every copy and returns every tile.

use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::analog::AnalogParams;
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_runtime::{
    DatasetCopy, DatasetId, DatasetSpec, JobOutput, JobReport, PoolConfig, RuntimePool, TenantId,
    WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

/// Deterministic ±1 input vectors.
fn random_inputs(count: usize, len: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| BitVec::from_fn(len, |_| rng.gen::<f64>() < 0.5))
        .collect()
}

/// Asserts that `report` served exactly `mlp`'s host scores for
/// `inputs`.
fn assert_scores(report: &JobReport, mlp: &BinarizedMlp, inputs: &[BitVec]) {
    match report.output.as_ref() {
        Ok(JobOutput::Nn(outcome)) => {
            let expected: Vec<Vec<i64>> = inputs.iter().map(|x| mlp.scores(x)).collect();
            assert_eq!(outcome.scores, expected, "{}", report.job);
        }
        other => panic!("{}: unexpected output {other:?}", report.job),
    }
}

fn nn_query(dataset: DatasetId, inputs: &[BitVec]) -> WorkloadSpec {
    WorkloadSpec::NnQuery {
        dataset,
        inputs: inputs.to_vec(),
    }
}

/// Two shards of two compact 16 x 64 analog tiles: `[64, 16, 4]` packs
/// into both tiles of a shard (16 x 64 fills one, 4 x 16 opens the
/// other), `[32, 16, 4]` into one.
fn compact(analog_params: AnalogParams) -> PoolConfig {
    PoolConfig {
        analog_rows: 16,
        analog_cols: 64,
        analog_params,
        ..PoolConfig::with_shards(2)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The copies are exact: each query of the same sequence reports
    /// the same output, stats, device counters and maintenance whether
    /// a 2-shard pool serves it from a replica or a 1-shard pool from
    /// the primary. Only the shard differs.
    #[test]
    fn a_replica_serves_what_the_primary_serves(
        hidden in 2usize..32,
        classes in 2usize..9,
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
        samples in 1usize..4,
    ) {
        let mlp = BinarizedMlp::random(&[48, hidden, classes], net_seed);
        let inputs = random_inputs(samples, 48, input_seed);
        let serve = |shards| {
            let pool = RuntimePool::new(PoolConfig::with_shards(shards));
            let session = pool.client(TenantId(1));
            let weights = session
                .register_dataset(&DatasetSpec::NnWeights { network: mlp.clone() })
                .unwrap();
            let prototypes = session
                .register_dataset(&DatasetSpec::HdcPrototypes {
                    classes: 3,
                    d: 256,
                    ngram: 3,
                    train_len: 120,
                })
                .unwrap();
            let hdc = WorkloadSpec::HdcQuery {
                dataset: prototypes.id(),
                samples: 2,
                sample_len: 40,
            };
            let specs = [
                nn_query(weights.id(), &inputs),
                nn_query(weights.id(), &inputs),
                hdc.clone(),
                hdc,
            ];
            let reports: Vec<JobReport> =
                specs.iter().map(|spec| session.submit(spec).unwrap().wait()).collect();
            let copies: Vec<Vec<usize>> = [weights.id(), prototypes.id()]
                .iter()
                .map(|id| pool.telemetry().datasets[&id.0].copies.iter().map(|c| c.shard).collect())
                .collect();
            (reports, copies)
        };
        let (two, copies) = serve(2);
        let (one, single) = serve(1);
        // Weights first on shard 0, copied to shard 1; the prototypes
        // then go to the shard with more free tiles, shard 1, and are
        // copied to shard 0.
        prop_assert_eq!(copies, vec![vec![0, 1], vec![1, 0]]);
        prop_assert_eq!(single, vec![vec![0], vec![0]]);
        for (a, b) in two.iter().zip(&one) {
            prop_assert_eq!(a.job, b.job);
            prop_assert_eq!(&a.output, &b.output);
            prop_assert_eq!(a.stats, b.stats);
            prop_assert_eq!(a.device, b.device);
            prop_assert_eq!(a.maintenance, b.maintenance);
            prop_assert_eq!(&b.shards, &vec![0]);
        }
        let served: Vec<Vec<usize>> = two.iter().map(|r| r.shards.clone()).collect();
        prop_assert_eq!(served, vec![vec![0], vec![1], vec![1], vec![0]]);
        assert_scores(&two[1], &mlp, &inputs);
    }
}

/// Submits `specs` from one session, in one flush or flushing after
/// each submission, and waits for every report.
fn serve(pool: &RuntimePool, specs: &[WorkloadSpec], flush_each: bool) -> Vec<JobReport> {
    let session = pool.client(TenantId(1));
    let handles = specs
        .iter()
        .map(|spec| {
            let handle = session.submit(spec).unwrap();
            if flush_each {
                session.flush();
            }
            handle
        })
        .collect();
    session.wait_all(handles)
}

/// One flush is bit-identical to one flush per submission on a pool
/// with copies, when a fresh lease reclaims one: the cold two-tile job
/// fits only shard 1, where the weights' replica counts as free, and
/// takes its tiles. One flush closes shard 1's batch before the erase,
/// so the query routed to the replica ran first; every later query runs
/// on the primary.
#[test]
fn batched_equals_sequential_with_copies_and_a_reclaim() {
    let weights = BinarizedMlp::random(&[32, 16, 4], 7);
    let wide = BinarizedMlp::random(&[64, 16, 4], 8);
    let inputs = random_inputs(2, 32, 1);
    let wide_inputs = random_inputs(2, 64, 2);
    let run = |flush_each| {
        let pool = RuntimePool::new(compact(AnalogParams::default()));
        let handle = pool
            .client(TenantId(1))
            .register_dataset(&DatasetSpec::NnWeights {
                network: weights.clone(),
            })
            .unwrap();
        let id = handle.id();
        let specs = vec![
            nn_query(id, &inputs),
            nn_query(id, &inputs[..1]),
            WorkloadSpec::XorEncrypt {
                message: (0..96u8).collect(),
                key_seed: 3,
            },
            WorkloadSpec::NnInfer {
                network: wide.clone(),
                inputs: wide_inputs.clone(),
            },
            nn_query(id, &inputs[1..]),
            nn_query(id, &inputs),
            nn_query(id, &inputs),
        ];
        let reports = serve(&pool, &specs, flush_each);
        let telemetry = pool.telemetry();
        (reports, telemetry)
    };
    let (batched, bt) = run(false);
    let (sequential, st) = run(true);
    assert_eq!(batched.len(), sequential.len());
    for (b, s) in batched.iter().zip(&sequential) {
        assert_eq!(b.job, s.job);
        assert_eq!(b.output, s.output, "outputs differ for {}", b.job);
        assert_eq!((b.shard, &b.shards), (s.shard, &s.shards), "{}", b.job);
        assert_eq!(b.stats, s.stats, "stats differ for {}", b.job);
        assert_eq!(b.device, s.device, "device counters differ for {}", b.job);
        assert_eq!(b.maintenance, s.maintenance, "{}", b.job);
    }
    let nn_shards: Vec<usize> = [0, 1, 3, 4, 5, 6]
        .iter()
        .map(|&i| batched[i].shard)
        .collect();
    assert_eq!(nn_shards, vec![0, 1, 1, 0, 0, 0]);
    assert_scores(&batched[3], &wide, &wide_inputs);
    for (report, inputs) in [
        (&batched[0], &inputs[..]),
        (&batched[1], &inputs[..1]),
        (&batched[4], &inputs[1..]),
        (&batched[6], &inputs[..]),
    ] {
        assert_scores(report, &weights, inputs);
    }
    // Shard 0's one batch, and shard 1's query batch and cold batch on
    // either side of the erase.
    assert_eq!(bt.batches, 3);
    assert_eq!(st.batches, 7);
    let copies = |t: &cim_repro::cim_runtime::PoolTelemetry| t.datasets[&0].copies.clone();
    let expected = vec![
        DatasetCopy {
            shard: 0,
            queries: 4,
            reclaimed: false,
        },
        DatasetCopy {
            shard: 1,
            queries: 1,
            reclaimed: true,
        },
    ];
    assert_eq!(copies(&bt), expected);
    assert_eq!(copies(&st), expected);
}

/// Copies fill every analog tile of a 2-shard pool, and a cold job that
/// needs two tiles still runs: shard 1's replica tiles count as free,
/// the lease takes them, and the queries after it land on the primary.
/// Every output matches its host reference.
#[test]
fn copies_never_cost_capacity() {
    let weights = BinarizedMlp::random(&[64, 16, 4], 5);
    let cold = BinarizedMlp::random(&[64, 16, 4], 6);
    let inputs = random_inputs(2, 64, 3);
    let pool = RuntimePool::new(compact(AnalogParams::default()));
    let session = pool.client(TenantId(1));
    let handle = session
        .register_dataset(&DatasetSpec::NnWeights {
            network: weights.clone(),
        })
        .unwrap();
    assert_eq!(handle.shards(), &[0]);
    let usage = |pool: &RuntimePool| pool.telemetry().datasets[&handle.id().0].clone();
    // One load per copy, booked as load cost.
    assert_eq!(usage(&pool).load_stats.matrix_programs, 2 * 2);
    let query = |inputs: &[BitVec]| {
        let report = session
            .submit(&nn_query(handle.id(), inputs))
            .unwrap()
            .wait();
        assert_scores(&report, &weights, inputs);
        report.shard
    };
    assert_eq!((query(&inputs), query(&inputs)), (0, 1));
    let report = session
        .submit(&WorkloadSpec::NnInfer {
            network: cold.clone(),
            inputs: inputs.clone(),
        })
        .unwrap()
        .wait();
    assert_scores(&report, &cold, &inputs);
    assert_eq!(report.shards, vec![1], "only shard 1's tiles were free");
    for _ in 0..3 {
        assert_eq!(query(&inputs), 0, "the remaining copy serves");
    }
    let copies: Vec<(usize, u64, bool)> = usage(&pool)
        .copies
        .iter()
        .map(|c| (c.shard, c.queries, c.reclaimed))
        .collect();
    assert_eq!(copies, vec![(0, 4, false), (1, 1, true)]);
}

/// Release scrubs every copy and returns every tile. On ideal devices a
/// program from `g_min` pulses each ±1 weight's one active device once,
/// and a device left holding the weight would not pulse at all; so raw
/// probes that program the released weights onto each shard's tiles
/// read one pulse per weight on both shards. Both probes need every
/// analog tile of their shard, and a new registration is copied to both
/// shards again.
#[test]
fn release_scrubs_every_copy_and_returns_every_tile() {
    let weights = BinarizedMlp::random(&[64, 16, 4], 9);
    let inputs = random_inputs(1, 64, 4);
    let pool = RuntimePool::new(compact(AnalogParams::ideal()));
    let session = pool.client(TenantId(1));
    let handle = session
        .register_dataset(&DatasetSpec::NnWeights {
            network: weights.clone(),
        })
        .unwrap();
    for _ in 0..2 {
        let report = session
            .submit(&nn_query(handle.id(), &inputs))
            .unwrap()
            .wait();
        assert_scores(&report, &weights, &inputs);
    }
    drop(handle);

    // The load's blocks: each layer at column 0 of its own tile.
    let probe = WorkloadSpec::Raw {
        digital_tiles: 0,
        analog_tiles: 2,
        instructions: weights
            .layers()
            .iter()
            .enumerate()
            .map(|(tile, layer)| CimInstruction::ProgramMatrix {
                tile,
                col: 0,
                matrix: layer.clone(),
            })
            .collect(),
    };
    let probes = serve(&pool, &[probe.clone(), probe], false);
    let mut shards: Vec<usize> = probes.iter().map(|r| r.shard).collect();
    shards.sort_unstable();
    assert_eq!(shards, vec![0, 1], "every shard's analog tiles are free");
    for report in &probes {
        assert!(report.output.is_ok(), "{:?}", report.output);
        assert_eq!(
            report.device.program_pulses,
            weights.weight_count() as u64,
            "shard {} still held the released weights",
            report.shard
        );
    }
    let again = session
        .register_dataset(&DatasetSpec::NnWeights { network: weights })
        .unwrap();
    let copies: Vec<usize> = pool.telemetry().datasets[&again.id().0]
        .copies
        .iter()
        .map(|c| c.shard)
        .collect();
    assert_eq!(copies, vec![0, 1], "no tile still counts as a replica's");
}
