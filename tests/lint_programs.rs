//! Static-verification contract of the pool (`cim-lint` at admission).
//!
//! Two halves:
//!
//! * **The compiler is lint-clean** — property tests sweep every
//!   compiled workload kind through [`PoolClient::verify`] and require
//!   a spotless report: zero errors *and* zero warnings. The pool's own
//!   compiler must never emit a program its own verifier would flag.
//! * **The verifier catches mutations** — deterministic tests submit
//!   raw streams carrying one seeded defect each (dropped write,
//!   swapped tile, out-of-range row, bad fan-in, resident-dataset
//!   write, width mismatch, undefined latch) and require admission to
//!   fail terminally with [`JobError::RejectedByVerifier`] carrying the
//!   intended `L00x` rule code — before any device state is touched,
//!   with the pool fully serviceable afterwards.

use cim_repro::cim_bitmap_db::tpch::Q6Params;
use cim_repro::cim_core::isa::CimInstruction;
use cim_repro::cim_crossbar::scouting::ScoutOp;
use cim_repro::cim_imgproc::image::GrayImage;
use cim_repro::cim_lint::{self, Geometry, LintTarget, RuleCode, Severity};
use cim_repro::cim_nn::binarized::BinarizedMlp;
use cim_repro::cim_runtime::{
    DatasetSpec, ImgFilterOp, JobError, MatchKind, PoolConfig, RuntimePool, TenantId, WorkloadSpec,
};
use cim_repro::cim_simkit::bitvec::BitVec;
use cim_repro::cim_simkit::rng::seeded;
use proptest::prelude::*;
use rand::Rng;

fn pool() -> RuntimePool {
    RuntimePool::new(PoolConfig::with_shards(1))
}

/// Verifies a spec (optionally registering a dataset first through
/// `make_spec`) and asserts the report is spotless: no errors, no
/// warnings. Dataset handles stay alive for the duration of the check.
fn assert_clean(pool: &RuntimePool, spec: &WorkloadSpec) -> Result<(), TestCaseError> {
    let (report, envelope) = pool
        .client(TenantId(0))
        .verify(spec)
        .map_err(|e| TestCaseError::fail(format!("compile failed: {e}")))?;
    prop_assert!(
        report.is_clean(),
        "compiler output not lint-clean:\n{}",
        report.to_text()
    );
    prop_assert!(
        envelope.cost_units > 0,
        "cost pass priced a non-empty program at zero:\n{}",
        envelope.to_text()
    );
    Ok(())
}

fn random_bits(count: usize, len: usize, seed: u64) -> Vec<BitVec> {
    let mut rng = seeded(seed);
    (0..count)
        .map(|_| BitVec::from_fn(len, |_| rng.gen::<f64>() < 0.5))
        .collect()
}

// ---------------------------------------------------------------------
// Half 1: every compiled workload kind is lint-clean, by property.
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn q6_select_compiles_clean(rows in 64usize..2048, table_seed in any::<u64>()) {
        assert_clean(&pool(), &WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params: Q6Params::tpch_default(),
        })?;
    }

    #[test]
    fn q6_query_compiles_clean(rows in 64usize..1024, table_seed in any::<u64>()) {
        let pool = pool();
        let table = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::Q6Table { rows, table_seed })
            .unwrap();
        assert_clean(&pool, &WorkloadSpec::Q6Query {
            dataset: table.id(),
            params: Q6Params::tpch_default(),
        })?;
    }

    #[test]
    fn hdc_classify_compiles_clean(
        classes in 2usize..4,
        d in 128usize..512,
        samples in 1usize..3,
    ) {
        assert_clean(&pool(), &WorkloadSpec::HdcClassify {
            classes,
            d,
            ngram: 2,
            train_len: 64,
            samples,
            sample_len: 16,
        })?;
    }

    #[test]
    fn hdc_query_compiles_clean(classes in 2usize..4, d in 128usize..512) {
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
        assert_clean(&pool, &WorkloadSpec::HdcQuery {
            dataset: protos.id(),
            samples: 2,
            sample_len: 16,
        })?;
    }

    #[test]
    fn hdc_assoc_compiles_clean(classes in 2usize..4, d in 128usize..512) {
        assert_clean(&pool(), &WorkloadSpec::HdcAssoc {
            classes,
            d,
            ngram: 2,
            train_len: 64,
            samples: 2,
            sample_len: 16,
        })?;
    }

    #[test]
    fn xor_encrypt_compiles_clean(
        message in prop::collection::vec(any::<u8>(), 1..256),
        key_seed in any::<u64>(),
    ) {
        assert_clean(&pool(), &WorkloadSpec::XorEncrypt { message, key_seed })?;
    }

    #[test]
    fn scout_bulk_compiles_clean(
        op_sel in 0usize..3,
        fan_in in 2usize..8,
        width in 8usize..256,
        seed in any::<u64>(),
    ) {
        let (op, rows) = match op_sel {
            0 => (ScoutOp::Or, fan_in),
            1 => (ScoutOp::And, fan_in),
            _ => (ScoutOp::Xor, 2), // XOR sensing is strictly two-row
        };
        assert_clean(&pool(), &WorkloadSpec::ScoutBulk {
            op,
            rows: random_bits(rows, width, seed),
        })?;
    }

    #[test]
    fn nn_infer_compiles_clean(
        inputs_dim in 2usize..24,
        hidden in 2usize..16,
        classes in 2usize..8,
        net_seed in any::<u64>(),
        input_seed in any::<u64>(),
    ) {
        assert_clean(&pool(), &WorkloadSpec::NnInfer {
            network: BinarizedMlp::random(&[inputs_dim, hidden, classes], net_seed),
            inputs: random_bits(2, inputs_dim, input_seed),
        })?;
    }

    #[test]
    fn nn_query_compiles_clean(
        inputs_dim in 2usize..24,
        classes in 2usize..8,
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
        assert_clean(&pool, &WorkloadSpec::NnQuery {
            dataset: weights.id(),
            inputs: random_bits(2, inputs_dim, input_seed),
        })?;
    }

    #[test]
    fn cam_search_and_rule_classify_compile_clean(
        rules in 2usize..32,
        width in 4usize..32,
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
        assert_clean(&pool, &WorkloadSpec::CamSearch {
            dataset: table.id(),
            kind: MatchKind::Ternary,
            keys: random_bits(3, width, key_seed),
        })?;
        assert_clean(&pool, &WorkloadSpec::RuleClassify {
            dataset: table.id(),
            packets: vec![0, 1, (1 << (width - 1)) | 1],
        })?;
    }

    #[test]
    fn key_lookup_compiles_clean(
        keys in prop::collection::vec(0u64..1024, 1..32),
        width in 10usize..32,
    ) {
        let pool = pool();
        let dict = pool
            .client(TenantId(0))
            .register_dataset(&DatasetSpec::CamKeys { keys: keys.clone(), width })
            .unwrap();
        assert_clean(&pool, &WorkloadSpec::KeyLookup {
            dataset: dict.id(),
            probes: vec![keys[0], 1023],
        })?;
    }

    #[test]
    fn img_filter_compiles_clean(
        w in 8usize..40,
        h in 8usize..24,
        radius in 1usize..3,
        guided in any::<bool>(),
    ) {
        let filter = if guided {
            ImgFilterOp::Guided { radius, epsilon: 0.01 }
        } else {
            ImgFilterOp::Box { radius }
        };
        assert_clean(&pool(), &WorkloadSpec::ImgFilter {
            image: GrayImage::checkerboard(w, h, 3, 0.15, 0.85),
            filter,
        })?;
    }
}

// ---------------------------------------------------------------------
// Half 2: seeded mutations each trip their intended rule at admission.
// ---------------------------------------------------------------------

/// Submits a raw stream and returns the verifier diagnostics its
/// terminal report carries. Panics if the job was not rejected.
fn rejected_codes(pool: &RuntimePool, spec: &WorkloadSpec) -> Vec<RuleCode> {
    let report = pool.client(TenantId(9)).submit(spec).unwrap().wait();
    match report.output {
        Err(JobError::RejectedByVerifier { diagnostics }) => {
            assert!(!diagnostics.is_empty());
            assert!(diagnostics.iter().all(|d| d.severity == Severity::Error));
            diagnostics.iter().map(|d| d.rule).collect()
        }
        other => panic!("expected verifier rejection, got {other:?}"),
    }
}

fn raw(instructions: Vec<CimInstruction>) -> WorkloadSpec {
    WorkloadSpec::Raw {
        digital_tiles: 1,
        analog_tiles: 0,
        instructions,
    }
}

const COLS: usize = 1024; // default PoolConfig digital tile width

/// Mutation "dropped producer write": a reduction over a row the
/// stream never initialized.
#[test]
fn uninitialized_read_rejected_l001() {
    let codes = rejected_codes(
        &pool(),
        &raw(vec![
            CimInstruction::WriteRow {
                tile: 0,
                row: 0,
                bits: BitVec::ones(COLS),
            },
            // Row 1 was never written: the dropped-write mutation.
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
        ]),
    );
    assert_eq!(codes, vec![RuleCode::UninitRead]);
}

/// Mutation "store before any compute": `StoreLast` with no live latch.
#[test]
fn undefined_latch_store_rejected_l002() {
    let codes = rejected_codes(
        &pool(),
        &raw(vec![CimInstruction::StoreLast { tile: 0, row: 0 }]),
    );
    assert_eq!(codes, vec![RuleCode::LatchUndef]);
}

/// Mutation "swapped tile index": the stream addresses tile 3 but the
/// lease grants a single tile.
#[test]
fn tile_out_of_bounds_rejected_l004() {
    let codes = rejected_codes(
        &pool(),
        &raw(vec![CimInstruction::ReadRow { tile: 3, row: 0 }]),
    );
    assert!(codes.contains(&RuleCode::TileBounds), "{codes:?}");
}

/// Mutation "row index past the tile": row 5000 in a 160-row tile.
#[test]
fn row_out_of_bounds_rejected_l005() {
    let codes = rejected_codes(
        &pool(),
        &raw(vec![CimInstruction::WriteRow {
            tile: 0,
            row: 5000,
            bits: BitVec::ones(COLS),
        }]),
    );
    assert!(codes.contains(&RuleCode::RowBounds), "{codes:?}");
}

/// Mutation "XOR over three rows": XOR sensing distinguishes exactly
/// two resistance sums, so fan-in 3 can never execute.
#[test]
fn xor_fan_in_three_rejected_l006() {
    let mut stream: Vec<CimInstruction> = (0..3)
        .map(|row| CimInstruction::WriteRow {
            tile: 0,
            row,
            bits: BitVec::ones(COLS),
        })
        .collect();
    stream.push(CimInstruction::Logic {
        tile: 0,
        op: ScoutOp::Xor,
        rows: vec![0, 1, 2],
    });
    let codes = rejected_codes(&pool(), &raw(stream));
    assert_eq!(codes, vec![RuleCode::BadArity]);
}

/// Mutation "write into the pinned dataset": a raw query program that
/// overwrites one of the resident Q6 bin rows the dataset owns.
#[test]
fn resident_write_rejected_l007() {
    let pool = pool();
    let session = pool.client(TenantId(9));
    let table = session
        .register_dataset(&DatasetSpec::Q6Table {
            rows: 256,
            table_seed: 7,
        })
        .unwrap();
    let report = session
        .submit(&WorkloadSpec::RawQuery {
            dataset: table.id(),
            instructions: vec![CimInstruction::WriteRow {
                tile: 0,
                row: 0, // resident bin row, owned by the dataset
                bits: BitVec::ones(COLS),
            }],
        })
        .unwrap()
        .wait();
    match report.output {
        Err(JobError::RejectedByVerifier { diagnostics }) => {
            assert!(
                diagnostics
                    .iter()
                    .any(|d| d.rule == RuleCode::ResidentWrite),
                "{diagnostics:?}"
            );
        }
        other => panic!("expected verifier rejection, got {other:?}"),
    }
    // Reading the same resident row is legitimate — that is what
    // query programs do.
    let ok = session
        .submit(&WorkloadSpec::RawQuery {
            dataset: table.id(),
            instructions: vec![CimInstruction::ReadRow { tile: 0, row: 0 }],
        })
        .unwrap()
        .wait();
    assert!(ok.output.is_ok(), "{:?}", ok.output);
}

/// Mutation "wrong operand width": a row write narrower than the tile.
#[test]
fn width_mismatch_rejected_l008() {
    let codes = rejected_codes(
        &pool(),
        &raw(vec![CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: BitVec::ones(3),
        }]),
    );
    assert_eq!(codes, vec![RuleCode::WidthMismatch]);
}

/// Mutation "wrong MVM length over a resident matrix": a raw query
/// driving a resident weight matrix with an input longer than the
/// matrix's columns (or, transposed, its rows) is an L008 width
/// mismatch at admission, not an execution panic on the shard.
#[test]
fn resident_matrix_width_mismatch_rejected_l008() {
    let pool = pool();
    let session = pool.client(TenantId(9));
    let weights = session
        .register_dataset(&DatasetSpec::NnWeights {
            network: BinarizedMlp::random(&[16, 8, 4], 3),
        })
        .unwrap();
    let query = |instr: CimInstruction| WorkloadSpec::RawQuery {
        dataset: weights.id(),
        instructions: vec![instr],
    };
    // Virtual tile 0 holds the first layer, an 8 x 16 matrix.
    let cases = [
        (
            CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: vec![0.5; 16],
            },
            CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: vec![0.5; 2048],
            },
        ),
        (
            CimInstruction::MvmT {
                tile: 0,
                col: 0,
                z: vec![0.5; 8],
            },
            CimInstruction::MvmT {
                tile: 0,
                col: 0,
                z: vec![0.5; 2048],
            },
        ),
    ];
    for (good, bad) in cases {
        let bad = query(bad);
        let (report, _) = session.verify(&bad).unwrap();
        let codes: Vec<RuleCode> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(codes, vec![RuleCode::WidthMismatch], "{}", report.to_text());
        let rejected = session.submit(&bad).unwrap().wait();
        assert!(
            matches!(rejected.output, Err(JobError::RejectedByVerifier { .. })),
            "{:?}",
            rejected.output
        );
        assert_eq!(rejected.stats.instructions(), 0, "never touched a shard");
        assert!(rejected.shards.is_empty(), "never dispatched");

        let good = query(good);
        let (report, _) = session.verify(&good).unwrap();
        assert!(report.is_clean(), "{}", report.to_text());
        let served = session.submit(&good).unwrap().wait();
        assert!(served.output.is_ok(), "{:?}", served.output);
        assert_eq!(served.stats.mvms, 1);
    }
}

/// L003 is the one warning-severity rule: a latch defined and then
/// clobbered unread never rejects a submission (raw jobs return every
/// response anyway), but the standalone analyzer reports it.
#[test]
fn dead_latch_is_warning_only_l003() {
    let target = LintTarget::new(Geometry {
        digital_tiles: 1,
        tile_rows: 8,
        tile_cols: 16,
        analog_tiles: 0,
        analog_rows: 0,
        analog_cols: 0,
        scout_fan_in: 8,
    });
    let program = vec![
        CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: BitVec::ones(16),
        },
        CimInstruction::WriteRow {
            tile: 0,
            row: 1,
            bits: BitVec::zeros(16),
        },
        // Defines the latch…
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Or,
            rows: vec![0, 1],
        },
        // …and clobbers it before anything read it.
        CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::And,
            rows: vec![0, 1],
        },
        CimInstruction::StoreLast { tile: 0, row: 2 },
    ];
    // Only the final AND's result is returned: the OR at index 2 is a
    // dead definition.
    let report = cim_lint::lint(&program, &[4], &target);
    assert!(!report.has_errors());
    assert_eq!(report.warning_count(), 1);
    assert!(report.to_json().contains("L003"));

    // The same shape of stream (widened to the pool's tiles) sails
    // through admission: warnings never reject.
    let widened: Vec<CimInstruction> = program
        .into_iter()
        .map(|i| match i {
            CimInstruction::WriteRow { tile, row, bits } => CimInstruction::WriteRow {
                tile,
                row,
                bits: if bits.count_ones() > 0 {
                    BitVec::ones(COLS)
                } else {
                    BitVec::zeros(COLS)
                },
            },
            other => other,
        })
        .collect();
    let ok = pool()
        .client(TenantId(0))
        .submit(&raw(widened))
        .unwrap()
        .wait();
    assert!(ok.output.is_ok(), "{:?}", ok.output);
}

/// Satellite regression: an out-of-bounds raw stream yields a terminal
/// failure report at admission — not a mid-batch accelerator panic —
/// and the pool stays fully serviceable for everyone afterwards.
#[test]
fn rejected_raw_job_leaves_pool_serviceable() {
    let pool = pool();
    let bad = pool
        .client(TenantId(0))
        .submit(&raw(vec![CimInstruction::ReadRow { tile: 7, row: 0 }]))
        .unwrap();
    let report = bad.wait();
    assert!(
        matches!(report.output, Err(JobError::RejectedByVerifier { .. })),
        "{:?}",
        report.output
    );
    assert_eq!(report.stats.instructions(), 0, "never touched a shard");
    assert!(report.shards.is_empty(), "never dispatched");

    // The pool serves both the same tenant and a co-tenant afterwards.
    for tenant in [0, 1] {
        let ok = pool
            .client(TenantId(tenant))
            .submit(&WorkloadSpec::XorEncrypt {
                message: vec![1; 32],
                key_seed: u64::from(tenant),
            })
            .unwrap()
            .wait();
        assert!(ok.output.is_ok(), "{:?}", ok.output);
    }
    assert_eq!(pool.telemetry().failures, 1);
}

/// `PoolClient::verify` is side-effect free: no job id is consumed, no
/// slot is created, and the report carries the full diagnostics —
/// warnings included — without anything executing.
#[test]
fn standalone_verify_consumes_nothing() {
    let pool = pool();
    let session = pool.client(TenantId(0));
    let bad = raw(vec![CimInstruction::ReadRow { tile: 7, row: 0 }]);
    let (report, _envelope) = session.verify(&bad).unwrap();
    assert!(report.has_errors());
    assert!(report
        .errors()
        .iter()
        .any(|d| d.rule == RuleCode::TileBounds));
    assert_eq!(pool.telemetry().jobs, 0, "verify never submits");

    // Job ids are unaffected: the next real submission still executes.
    let ok = session
        .submit(&WorkloadSpec::XorEncrypt {
            message: vec![5; 16],
            key_seed: 1,
        })
        .unwrap()
        .wait();
    assert!(ok.output.is_ok());
}
