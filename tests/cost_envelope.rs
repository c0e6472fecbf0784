//! Cost-envelope contract of the pool (the `cim-lint` cost pass at
//! admission).
//!
//! Three halves:
//!
//! * **The envelope is sound** — property tests sweep every compiled
//!   workload kind through [`PoolClient::verify`], then execute the
//!   same spec and require the statically certified counts to dominate
//!   the measured device-tier counters: the exact instruction counts
//!   hold with equality against `ExecutionStats` (and match pulses
//!   against the device counter), and every `*_bound` field upper-bounds
//!   its measured `DeviceCounters` partner. A planner pricing jobs off
//!   the envelope can never be under-charged by the device.
//! * **Routing is semantics-free** — the same mixed job set runs under
//!   `AlwaysCim`, `AlwaysHost` and `CostDriven` pools with the same
//!   seed, and every output is bit-identical. Host-routed reports carry
//!   `JobRoute::Host` and an empty shard set; the cost-driven planner
//!   actually routes the tiny jobs host-side and keeps the big ones on
//!   the accelerator.
//! * **The envelope travels** — the lint report's JSON export with the
//!   embedded `cost` section, and the envelope's own JSON, both parse
//!   under the `cim_obs` JSON grammar.

use cim_repro::cim_bitmap_db::tpch::Q6Params;
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_imgproc::image::GrayImage;
use cim_repro::cim_lint::CostEnvelope;
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_obs::json;
use cim_repro::cim_runtime::{
    DatasetSpec, ImgFilterOp, JobReport, JobRoute, MatchKind, OffloadPolicy, PoolConfig,
    RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::linalg::Matrix;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

fn pool() -> RuntimePool {
    RuntimePool::new(PoolConfig::with_shards(1))
}

fn random_bits(count: usize, len: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| BitVec::from_fn(len, |_| rng.gen::<f64>() < 0.5))
        .collect()
}

/// Verifies a spec, executes it on the same pool, and asserts the
/// static envelope dominates the measured execution: exact counts with
/// equality, device-tier bounds from above. Returns the report so a
/// caller can pile on kind-specific checks.
fn assert_sound(pool: &RuntimePool, spec: &WorkloadSpec) -> Result<JobReport, TestCaseError> {
    let session = pool.client(TenantId(0));
    let (_, env) = session
        .verify(spec)
        .map_err(|e| TestCaseError::fail(format!("verify failed: {e}")))?;
    let report = session
        .submit(spec)
        .map_err(|e| TestCaseError::fail(format!("submit failed: {e}")))?
        .wait();
    prop_assert!(report.output.is_ok(), "{:?}", report.output);
    prop_assert_eq!(report.route, JobRoute::Cim);

    // Exact counts: instruction tallies hold with equality on any
    // execution, and match pulses equal the device's own counter.
    let s = &report.stats;
    prop_assert_eq!(s.row_writes, env.row_writes + env.store_writes);
    prop_assert_eq!(s.row_reads, env.row_reads);
    prop_assert_eq!(s.logic_ops, env.scout_ops);
    prop_assert_eq!(s.key_writes, env.key_writes);
    prop_assert_eq!(s.searches, env.searches);
    prop_assert_eq!(s.matrix_programs, env.matrix_programs);
    prop_assert_eq!(s.mvms, env.mvms);
    prop_assert_eq!(report.device.match_pulses, env.match_pulses);

    // Sound bounds: the sampling tiers may resolve below these, never
    // above.
    let d = &report.device;
    prop_assert!(
        d.word_accesses <= env.word_access_bound,
        "word accesses {} > bound {}",
        d.word_accesses,
        env.word_access_bound
    );
    prop_assert!(
        d.sampled_columns <= env.sampled_column_bound,
        "sampled columns {} > bound {}",
        d.sampled_columns,
        env.sampled_column_bound
    );
    prop_assert!(
        d.program_pulses <= env.program_pulse_bound,
        "program pulses {} > bound {}",
        d.program_pulses,
        env.program_pulse_bound
    );
    prop_assert!(
        d.noise_samples <= env.noise_sample_bound,
        "noise samples {} > bound {}",
        d.noise_samples,
        env.noise_sample_bound
    );
    // Nominal-tier products draw nothing; each Mvm/MvmT instruction
    // touches the two tiles of one differential pair at most once.
    prop_assert!(
        d.nominal_mvms <= 2 * env.mvms,
        "nominal products {} > 2 × {} MVM instructions",
        d.nominal_mvms,
        env.mvms
    );
    Ok(report)
}

// ---------------------------------------------------------------------
// Half 1: the envelope dominates measured execution, for every kind.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn q6_select_envelope_is_sound(rows in 64usize..1024, table_seed in any::<u64>()) {
        assert_sound(&pool(), &WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params: Q6Params::tpch_default(),
        })?;
    }

    #[test]
    fn q6_query_envelope_is_sound(rows in 64usize..512, table_seed in any::<u64>()) {
        let pool = pool();
        let table = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::Q6Table { rows, table_seed })
            .unwrap();
        assert_sound(&pool, &WorkloadSpec::Q6Query {
            dataset: table.id(),
            params: Q6Params::tpch_default(),
        })?;
    }

    #[test]
    fn hdc_classify_envelope_is_sound(classes in 2usize..4, d in 128usize..256) {
        assert_sound(&pool(), &WorkloadSpec::HdcClassify {
            classes,
            d,
            ngram: 2,
            train_len: 64,
            samples: 1,
            sample_len: 16,
        })?;
    }

    #[test]
    fn hdc_query_envelope_is_sound(classes in 2usize..4, d in 128usize..256) {
        let pool = pool();
        let protos = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::HdcPrototypes {
                classes,
                d,
                ngram: 2,
                train_len: 64,
            })
            .unwrap();
        assert_sound(&pool, &WorkloadSpec::HdcQuery {
            dataset: protos.id(),
            samples: 1,
            sample_len: 16,
        })?;
    }

    #[test]
    fn hdc_assoc_envelope_is_sound(classes in 2usize..4, d in 128usize..256) {
        assert_sound(&pool(), &WorkloadSpec::HdcAssoc {
            classes,
            d,
            ngram: 2,
            train_len: 64,
            samples: 2,
            sample_len: 16,
        })?;
    }

    #[test]
    fn xor_encrypt_envelope_is_sound(
        message in prop::collection::vec(any::<u8>(), 1..128),
        key_seed in any::<u64>(),
    ) {
        assert_sound(&pool(), &WorkloadSpec::XorEncrypt { message, key_seed })?;
    }

    #[test]
    fn scout_bulk_envelope_is_sound(
        op_sel in 0usize..3,
        fan_in in 2usize..8,
        width in 8usize..128,
        seed in any::<u64>(),
    ) {
        let (op, rows) = match op_sel {
            0 => (ScoutOp::Or, fan_in),
            1 => (ScoutOp::And, fan_in),
            _ => (ScoutOp::Xor, 2),
        };
        assert_sound(&pool(), &WorkloadSpec::ScoutBulk {
            op,
            rows: random_bits(rows, width, seed),
        })?;
    }

    #[test]
    fn nn_infer_envelope_is_sound(
        inputs_dim in 2usize..16,
        hidden in 2usize..12,
        classes in 2usize..6,
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        assert_sound(&pool(), &WorkloadSpec::NnInfer {
            network: BinarizedMlp::random(&[inputs_dim, hidden, classes], net_seed),
            inputs: random_bits(2, inputs_dim, input_seed),
        })?;
    }

    #[test]
    fn nn_query_envelope_is_sound(
        inputs_dim in 2usize..16,
        classes in 2usize..6,
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        let pool = pool();
        let weights = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::NnWeights {
                network: BinarizedMlp::random(&[inputs_dim, classes], net_seed),
            })
            .unwrap();
        assert_sound(&pool, &WorkloadSpec::NnQuery {
            dataset: weights.id(),
            inputs: random_bits(2, inputs_dim, input_seed),
        })?;
    }

    #[test]
    fn cam_search_and_rule_classify_envelopes_are_sound(
        rules in 2usize..24,
        width in 4usize..24,
        seed in any::<u64>(),
        key_seed in any::<u64>(),
    ) {
        let pool = pool();
        let table = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::CamRules {
                rules,
                width,
                wildcard_density: 0.2,
                seed,
            })
            .unwrap();
        for kind in [MatchKind::Exact, MatchKind::Ternary, MatchKind::Range { lo: 0, hi: 2 }] {
            assert_sound(&pool, &WorkloadSpec::CamSearch {
                dataset: table.id(),
                kind,
                keys: random_bits(3, width, key_seed),
            })?;
        }
        assert_sound(&pool, &WorkloadSpec::RuleClassify {
            dataset: table.id(),
            packets: vec![0, 1, (1 << (width - 1)) | 1],
        })?;
    }

    #[test]
    fn key_lookup_envelope_is_sound(
        keys in prop::collection::vec(0u64..1024, 1..24),
        width in 10usize..24,
    ) {
        let pool = pool();
        let dict = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::CamKeys { keys: keys.clone(), width })
            .unwrap();
        assert_sound(&pool, &WorkloadSpec::KeyLookup {
            dataset: dict.id(),
            probes: vec![keys[0], 1023],
        })?;
    }

    #[test]
    fn img_filter_envelope_is_sound(
        w in 8usize..28,
        h in 8usize..20,
        radius in 1usize..3,
        guided in any::<bool>(),
    ) {
        let filter = if guided {
            ImgFilterOp::Guided { radius, epsilon: 0.01 }
        } else {
            ImgFilterOp::Box { radius }
        };
        assert_sound(&pool(), &WorkloadSpec::ImgFilter {
            image: GrayImage::checkerboard(w, h, 3, 0.15, 0.85),
            filter,
        })?;
    }
}

/// Raw streams get an envelope too — the planner prices pre-compiled
/// programs on the same authority as compiled ones.
#[test]
fn raw_stream_envelope_is_sound() {
    let spec = WorkloadSpec::Raw {
        digital_tiles: 1,
        analog_tiles: 0,
        instructions: vec![
            CimInstruction::WriteRow {
                tile: 0,
                row: 0,
                bits: BitVec::ones(1024),
            },
            CimInstruction::WriteRow {
                tile: 0,
                row: 1,
                bits: BitVec::zeros(1024),
            },
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
            CimInstruction::ReadRow { tile: 0, row: 2 },
        ],
    };
    assert_sound(&pool(), &spec).unwrap();
}

/// A raw analog stream exercising both product axes of the
/// per-output-line noise bound and the masked program-and-verify pulse
/// bound.
fn raw_analog_spec() -> WorkloadSpec {
    let mut rng = seeded(0xA11A);
    let matrix = Matrix::from_fn(8, 6, |_, _| rng.gen::<f64>() - 0.5);
    WorkloadSpec::Raw {
        digital_tiles: 0,
        analog_tiles: 1,
        instructions: vec![
            CimInstruction::ProgramMatrix { tile: 0, matrix },
            CimInstruction::Mvm {
                tile: 0,
                x: vec![0.5; 6],
            },
            CimInstruction::MvmT {
                tile: 0,
                z: vec![0.25; 8],
            },
        ],
    }
}

fn small_analog_pool() -> PoolConfig {
    let mut cfg = PoolConfig::with_shards(1);
    cfg.analog_rows = 8;
    cfg.analog_cols = 6;
    cfg
}

/// The analog envelope stays sound on the sampled tier (default params,
/// `sigma_read > 0`), where dense inputs meet the per-output-line bound
/// with equality.
#[test]
fn raw_analog_stream_envelope_is_sound_on_the_sampled_tier() {
    let report = assert_sound(&RuntimePool::new(small_analog_pool()), &raw_analog_spec()).unwrap();
    let d = &report.device;
    assert_eq!(
        d.noise_samples,
        2 * 8 + 2 * 6,
        "one aggregate draw per output line per tile: Mvm reads the rows, MvmT the columns"
    );
    assert_eq!(d.nominal_mvms, 0);
    assert!(d.program_pulses > 0);
}

/// With `sigma_read == 0` every product lands on the nominal tier: zero
/// draws measured, still under the (unchanged) static bound.
#[test]
fn raw_analog_stream_envelope_is_sound_on_the_nominal_tier() {
    let mut cfg = small_analog_pool();
    cfg.analog_params.pcm.sigma_read = 0.0;
    let report = assert_sound(&RuntimePool::new(cfg), &raw_analog_spec()).unwrap();
    let d = &report.device;
    assert_eq!(d.noise_samples, 0);
    assert_eq!(d.nominal_mvms, 2 * 2, "two instructions × two tiles");
    assert!(d.program_pulses > 0);
}

// ---------------------------------------------------------------------
// Half 2: offload routing never changes a single output bit.
// ---------------------------------------------------------------------

/// The mixed set the routing tests run: tiny host-winning jobs and
/// accelerator-scale ones, covering host-eligible kinds.
fn mixed_specs() -> Vec<WorkloadSpec> {
    vec![
        WorkloadSpec::XorEncrypt {
            message: vec![7; 16],
            key_seed: 11,
        },
        WorkloadSpec::ScoutBulk {
            op: ScoutOp::Xor,
            rows: random_bits(2, 32, 5),
        },
        WorkloadSpec::Q6Select {
            rows: 2048,
            table_seed: 42,
            params: Q6Params::tpch_default(),
        },
        WorkloadSpec::NnInfer {
            network: BinarizedMlp::random(&[10, 8, 4], 3),
            inputs: random_bits(3, 10, 9),
        },
        WorkloadSpec::ImgFilter {
            image: GrayImage::step_edge(24, 12, 12, 0.2, 0.8),
            filter: ImgFilterOp::Box { radius: 1 },
        },
        WorkloadSpec::HdcClassify {
            classes: 2,
            d: 128,
            ngram: 2,
            train_len: 64,
            samples: 1,
            sample_len: 8,
        },
    ]
}

fn run_all(policy: OffloadPolicy) -> Vec<JobReport> {
    let mut cfg = PoolConfig::with_shards(1);
    cfg.offload_policy = policy;
    let pool = RuntimePool::new(cfg);
    let session = pool.client(TenantId(0));
    let handles: Vec<_> = mixed_specs()
        .iter()
        .map(|s| session.submit(s).unwrap())
        .collect();
    let reports = session.wait_all(handles);
    // Host routing must never leak into the accelerator's speedup mean.
    let t = pool.telemetry();
    let host = reports.iter().filter(|r| r.route == JobRoute::Host).count() as u64;
    assert_eq!(t.host_routed.jobs, host);
    reports
}

/// A host-routed job reports its lane honestly: `JobRoute::Host`, no
/// shards, and (under `AlwaysHost`) every host-eligible kind takes it.
#[test]
fn always_host_serves_eligible_jobs_off_the_pool() {
    let reports = run_all(OffloadPolicy::AlwaysHost);
    for r in &reports {
        assert!(r.output.is_ok(), "{:?}", r.output);
        if r.route == JobRoute::Host {
            assert!(
                r.shards.is_empty(),
                "host job claims shards: {:?}",
                r.shards
            );
        } else {
            assert!(!r.shards.is_empty());
        }
    }
    // Every kind in the mixed set carries a host certificate except the
    // analog-scored HDC classification, which is never host-eligible.
    let host = reports.iter().filter(|r| r.route == JobRoute::Host).count();
    assert_eq!(host, mixed_specs().len() - 1, "{reports:?}");
}

/// The acceptance bar: under `CostDriven`, a job the planner routes to
/// the host executes there and still produces *bit-identical* output to
/// the all-CIM pool — routing is purely a performance decision.
#[test]
fn cost_driven_outputs_are_bit_identical_to_always_cim() {
    let cim = run_all(OffloadPolicy::AlwaysCim);
    let driven = run_all(OffloadPolicy::CostDriven { threshold: 1.0 });
    let host = run_all(OffloadPolicy::AlwaysHost);
    assert!(cim.iter().all(|r| r.route == JobRoute::Cim));
    // The cost-driven planner routes the tiny jobs host-side…
    assert!(
        driven.iter().any(|r| r.route == JobRoute::Host),
        "cost-driven planner never offloaded to the host"
    );
    // …and none of the three lanes disagrees on a single output bit.
    for ((c, d), h) in cim.iter().zip(&driven).zip(&host) {
        assert_eq!(c.kind, d.kind);
        assert_eq!(c.output, d.output, "cost-driven diverged on {:?}", c.kind);
        assert_eq!(c.output, h.output, "host lane diverged on {:?}", c.kind);
    }
}

// ---------------------------------------------------------------------
// Half 3: the envelope travels (JSON), and backpressure holds.
// ---------------------------------------------------------------------

/// Both JSON renderings — the envelope alone and the lint report with
/// the embedded `cost` section — parse under the `cim_obs` grammar, and
/// the embedding is strictly additive over the plain report shape.
#[test]
fn envelope_json_parses_and_embeds_in_the_lint_report() {
    let pool = pool();
    let session = pool.client(TenantId(0));
    let spec = WorkloadSpec::Q6Select {
        rows: 256,
        table_seed: 7,
        params: Q6Params::tpch_default(),
    };
    let (report, env) = session.verify(&spec).unwrap();
    assert!(env.cost_units > 0);

    let env_json = env.to_json();
    json::validate(&env_json).unwrap_or_else(|e| panic!("envelope json invalid: {e}\n{env_json}"));

    let with_cost = report.to_json_with(Some(&env));
    json::validate(&with_cost)
        .unwrap_or_else(|e| panic!("report+cost json invalid: {e}\n{with_cost}"));
    assert!(with_cost.contains("\"cost\": {\"cost_units\": "));
    // Without an envelope the export is byte-identical to the plain
    // shape — existing consumers keep parsing.
    assert_eq!(report.to_json_with(None), report.to_json());

    // Determinism: re-verifying yields the same envelope and rendering.
    let (_, env2) = session.verify(&spec).unwrap();
    assert_eq!(env, env2);
    assert_eq!(env2.to_json(), env_json);
    assert_eq!(CostEnvelope::default().to_json().len(), {
        json::validate(&CostEnvelope::default().to_json()).unwrap();
        CostEnvelope::default().to_json().len()
    });
}
