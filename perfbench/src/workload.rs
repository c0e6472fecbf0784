//! The three workloads: their datasets, job templates, host references
//! and traffic shape.
//!
//! Every input derives from the `--seed` argument; the pool seed stays
//! fixed because it stands for the modelled chip. Host references are
//! computed here, once, before any timed window.

use cim_bitmap_db::query::{q6_scan, Q6Result};
use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
use cim_core::isa::{CimInstruction, CimResponse};
use cim_crossbar::cam::{key_bits, RuleSet};
use cim_crossbar::scouting::ScoutOp;
use cim_imgproc::image::GrayImage;
use cim_nn::binarized::BinarizedMlp;
use cim_runtime::{
    DatasetId, DatasetSpec, ImgFilterOp, JobOutput, MatchKind, OffloadPolicy, PoolConfig,
    WorkloadSpec,
};
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::seeded;
use cim_xor_cipher::otp::OneTimePad;
use rand::rngs::StdRng;
use rand::Rng;

/// Shards of the benchmark pool (one per host core of the reference
/// 2-core container; the generator adds a third thread).
pub const SHARDS: usize = 2;
/// HDC shape shared by `HdcClassify` jobs, the resident prototypes and
/// the direct lowering calls.
pub const HDC_CLASSES: usize = 4;
pub const HDC_D: usize = 1024;
pub const HDC_NGRAM: usize = 3;
pub const HDC_TRAIN_LEN: usize = 300;
pub const HDC_SAMPLE_LEN: usize = 100;
/// Accuracy floor for analog-scored HDC jobs, pooled over a run's HDC
/// predictions against their `expected` labels: 1.2× chance at four
/// classes. It catches a broken scoring path (chance or constant
/// predictions), not model quality: these small shapes score about
/// 0.42–0.52 on this device model.
pub const HDC_ACCURACY_FLOOR: f64 = 0.3;
/// Rows of an ordinary `Q6Select`, and of the one that scatters.
pub const Q6_ROWS: usize = 2000;
pub const Q6_SPLIT_ROWS: usize = 5 * 1024 + 200;
/// Rows of the accelerator-scale selects among `tiny_offload`'s swarm.
const TINY_Q6_ROWS: usize = 1000;
/// Binarized network shape of the NN jobs.
pub const NN_DIMS: [usize; 3] = [256, 32, 8];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ColdMix,
    ResidentQuery,
    TinyOffload,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ColdMix,
        Workload::ResidentQuery,
        Workload::TinyOffload,
    ];

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdMix => "cold_mix",
            Workload::ResidentQuery => "resident_query",
            Workload::TinyOffload => "tiny_offload",
        }
    }

    /// The pool every run of the workload serves on.
    pub fn pool_config(self) -> PoolConfig {
        let mut cfg = PoolConfig::with_shards(SHARDS);
        if self == Workload::TinyOffload {
            cfg.offload_policy = OffloadPolicy::CostDriven { threshold: 1.0 };
        }
        cfg
    }

    /// Closed-loop traffic shape.
    pub fn shape(self) -> Shape {
        match self {
            Workload::ColdMix => Shape {
                window: 2,
                burst: 1,
                warmup: 16,
                sim_prefix: 96,
            },
            Workload::ResidentQuery => Shape {
                window: 8,
                burst: 1,
                warmup: 200,
                sim_prefix: 2000,
            },
            Workload::TinyOffload => Shape {
                window: 64,
                burst: 16,
                warmup: 256,
                sim_prefix: 8192,
            },
        }
    }
}

/// How the generator drives a workload.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Jobs kept outstanding.
    pub window: usize,
    /// Submissions per flush.
    pub burst: usize,
    /// Jobs served and drained before measurement starts.
    pub warmup: u64,
    /// Measured jobs (by sequence number) the sim metrics are taken
    /// over, so they repeat exactly at a fixed seed whatever the wall
    /// speed. The run extends past `--seconds` until they completed.
    pub sim_prefix: u64,
}

/// The host reference a job's output must match.
#[derive(Debug, Clone)]
pub enum Expect {
    Q6(Q6Result),
    Cipher(Vec<u8>),
    Bits(BitVec),
    Nn(Vec<Vec<i64>>),
    Image(GrayImage),
    Matches(Vec<BitVec>),
    Lookups(Vec<Option<u32>>),
    Rows(Vec<BitVec>),
    /// Analog-scored HDC: accuracy on the job's own `expected` labels,
    /// pooled over the run.
    HdcAccuracy,
}

impl Expect {
    pub fn check(&self, out: &JobOutput) -> bool {
        match (self, out) {
            (Expect::Q6(want), JobOutput::Q6(got)) => {
                got.matching_rows == want.matching_rows
                    && (got.revenue - want.revenue).abs() <= 1e-9 * want.revenue.abs().max(1.0)
            }
            (Expect::Cipher(want), JobOutput::Cipher(got)) => got == want,
            (Expect::Bits(want), JobOutput::Bits(got)) => got == want,
            (Expect::Nn(want), JobOutput::Nn(got)) => {
                got.scores == *want
                    && got
                        .predictions
                        .iter()
                        .zip(want)
                        .all(|(p, s)| *p == argmax(s))
            }
            (Expect::Image(want), JobOutput::Image(got)) => got == want,
            (Expect::Matches(want), JobOutput::Matches(got)) => got == want,
            (Expect::Lookups(want), JobOutput::Lookups(got)) => got == want,
            (Expect::Rows(want), JobOutput::Responses(got)) => {
                got.len() == want.len()
                    && got
                        .iter()
                        .zip(want)
                        .all(|(r, w)| matches!(r, CimResponse::Bits(b) if b == w))
            }
            // Scored against the pooled floor in `Run::errors`.
            (Expect::HdcAccuracy, JobOutput::Hdc(got)) => {
                got.predictions.len() == got.expected.len() && !got.predictions.is_empty()
            }
            _ => false,
        }
    }
}

/// Lowest index of the largest score (the runtime's tie rule).
fn argmax(scores: &[i64]) -> usize {
    let mut best = 0;
    for (i, s) in scores.iter().enumerate() {
        if *s > scores[best] {
            best = i;
        }
    }
    best
}

/// One job the generator can submit.
#[derive(Debug, Clone)]
pub struct Template {
    /// Index into the workload's tenant sessions.
    pub tenant: usize,
    pub spec: WorkloadSpec,
    pub expect: Expect,
}

/// A workload's job source: template classes and the fixed cyclic
/// schedule over them. The class of job `seq` is fixed by the schedule
/// (so every run serves the same kind mix); the template within the
/// class is drawn from the seed.
#[derive(Debug)]
pub struct Mix {
    pub workload: Workload,
    pub seed: u64,
    /// Tenants, as `TenantId` numbers.
    pub tenants: Vec<u32>,
    /// Datasets to register during setup: `(tenant index, spec)`.
    pub datasets: Vec<(usize, DatasetSpec)>,
    pub classes: Vec<Vec<Template>>,
    pub schedule: Vec<usize>,
}

impl Mix {
    /// The job with sequence number `seq`: `(class, template index)`.
    pub fn pick(&self, seq: u64) -> (usize, usize) {
        let class = self.schedule[(seq % self.schedule.len() as u64) as usize];
        let n = self.classes[class].len() as u64;
        (
            class,
            (splitmix(self.seed ^ seq.wrapping_mul(0x9E37)) % n) as usize,
        )
    }

    pub fn template(&self, (class, index): (usize, usize)) -> &Template {
        &self.classes[class][index]
    }

    /// Order-sensitive digest of every input, to show that a seed
    /// changes the inputs.
    pub fn input_digest(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        format!("{:?}", self.datasets).hash(&mut h);
        for class in &self.classes {
            for t in class {
                format!("{:?}", t.spec).hash(&mut h);
            }
        }
        h.finish()
    }

    pub fn build(workload: Workload, seed: u64) -> Mix {
        let mut rng = seeded(splitmix(seed ^ 0xBE4C));
        match workload {
            Workload::ColdMix => cold_mix(seed, &mut rng),
            Workload::ResidentQuery => resident_query(seed, &mut rng),
            Workload::TinyOffload => tiny_offload(seed, &mut rng),
        }
    }
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn random_params(rng: &mut StdRng) -> Q6Params {
    Q6Params {
        year: rng.gen_range(0..6),
        discount: rng.gen_range(2..9),
        max_quantity: rng.gen_range(18..32),
    }
}

fn random_bits(len: usize, density: f64, rng: &mut StdRng) -> BitVec {
    BitVec::from_fn(len, |_| rng.gen::<f64>() < density)
}

fn q6_select(rows: usize, rng: &mut StdRng) -> Template {
    let table_seed = rng.gen::<u64>();
    let params = random_params(rng);
    Template {
        tenant: 0,
        expect: Expect::Q6(q6_scan(&LineItemTable::generate(rows, table_seed), &params)),
        spec: WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params,
        },
    }
}

fn xor(tenant: usize, len: usize, rng: &mut StdRng) -> Template {
    let message: Vec<u8> = (0..len).map(|_| rng.gen::<u8>()).collect();
    let key_seed = rng.gen::<u64>();
    let cipher = OneTimePad::generate(len, key_seed)
        .encrypt(&message)
        .unwrap_or_else(|e| panic!("pad covers the message: {e:?}"));
    Template {
        tenant,
        spec: WorkloadSpec::XorEncrypt { message, key_seed },
        expect: Expect::Cipher(cipher),
    }
}

fn scout(tenant: usize, rows: usize, width: usize, rng: &mut StdRng) -> Template {
    let op = if rng.gen::<bool>() {
        ScoutOp::Or
    } else {
        ScoutOp::And
    };
    // Dense operands for AND, sparse for OR, so neither folds to a
    // constant row.
    let density = if op == ScoutOp::And { 0.9 } else { 0.1 };
    let rows: Vec<BitVec> = (0..rows)
        .map(|_| random_bits(width, density, rng))
        .collect();
    let folded = rows[1..].iter().fold(rows[0].clone(), |acc, r| match op {
        ScoutOp::Or => acc.or(r),
        ScoutOp::And => acc.and(r),
        ScoutOp::Xor => acc.xor(r),
    });
    Template {
        tenant,
        spec: WorkloadSpec::ScoutBulk { op, rows },
        expect: Expect::Bits(folded),
    }
}

fn nn_scores(network: &BinarizedMlp, inputs: &[BitVec]) -> Expect {
    Expect::Nn(inputs.iter().map(|x| network.scores(x)).collect())
}

fn random_image(rng: &mut StdRng) -> GrayImage {
    let (fx, fy, phase): (f64, f64, f64) = (
        rng.gen_range(0.05..0.3),
        rng.gen_range(0.05..0.3),
        rng.gen(),
    );
    let noise = rng.gen::<u64>();
    GrayImage::from_fn(48, 48, |x, y| {
        0.5 + 0.4 * ((x as f64 * fx + y as f64 * fy + phase) * std::f64::consts::TAU).sin()
    })
    .with_gaussian_noise(0.05, noise)
}

fn img(filter: ImgFilterOp, rng: &mut StdRng) -> Template {
    let image = random_image(rng);
    Template {
        tenant: 2,
        expect: Expect::Image(filter.apply(&image.quantized(8))),
        spec: WorkloadSpec::ImgFilter { image, filter },
    }
}

/// Templates per class: enough distinct inputs that no two nearby jobs
/// repeat, few enough that references stay cheap to precompute.
const VARIANTS: usize = 64;

/// `VARIANTS` templates of one class; `f` gets the variant index, which
/// fixes input sizes so that every seed serves the same size mix.
fn class(rng: &mut StdRng, f: impl Fn(&mut StdRng, usize) -> Template) -> Vec<Template> {
    (0..VARIANTS).map(|i| f(rng, i)).collect()
}

fn cold_mix(seed: u64, rng: &mut StdRng) -> Mix {
    let q6 = class(rng, |r, _| q6_select(Q6_ROWS, r));
    let q6_split = class(rng, |r, _| q6_select(Q6_SPLIT_ROWS, r));
    let xor_c = class(rng, |r, _| xor(1, 256, r));
    let scout_c = class(rng, |r, _| scout(1, 8, 1024, r));
    let nn = class(rng, |r, _| {
        let network = BinarizedMlp::random(&NN_DIMS, r.gen());
        let inputs: Vec<BitVec> = (0..2).map(|_| random_bits(NN_DIMS[0], 0.5, r)).collect();
        Template {
            tenant: 2,
            expect: nn_scores(&network, &inputs),
            spec: WorkloadSpec::NnInfer { network, inputs },
        }
    });
    let img_box = class(rng, |r, _| img(ImgFilterOp::Box { radius: 2 }, r));
    let img_guided = class(rng, |r, _| {
        img(
            ImgFilterOp::Guided {
                radius: 2,
                epsilon: 0.01,
            },
            r,
        )
    });
    // The HDC job's inputs are its shape; the pool derives its text
    // from the job's own noise seed.
    let hdc = vec![Template {
        tenant: 3,
        spec: WorkloadSpec::HdcClassify {
            classes: HDC_CLASSES,
            d: HDC_D,
            ngram: HDC_NGRAM,
            train_len: HDC_TRAIN_LEN,
            samples: HDC_CLASSES,
            sample_len: HDC_SAMPLE_LEN,
        },
        expect: Expect::HdcAccuracy,
    }];
    // Classes: 0 q6, 1 q6_split, 2 xor, 3 scout, 4 nn, 5 box, 6 guided,
    // 7 hdc. Per 32 jobs: 15 selects, 8 XOR/scout, 4 filters, 4 NN and
    // one HDC. Kinds differ in latency by up to 20×, so the mix sets where
    // the percentiles land: the median falls in the middle of the
    // selects' share and p90 in the middle of the NN jobs' share, not on
    // an edge between two latency modes, where run-to-run noise would
    // swing them. One HDC job in 32 keeps its training (the costliest
    // lowering) under half the mix's wall time.
    let schedule = vec![
        0, 2, 0, 3, 0, 4, 0, 5, 0, 2, 0, 3, 0, 6, 1, 4, //
        0, 2, 0, 3, 0, 5, 0, 7, 0, 2, 0, 3, 4, 6, 1, 4,
    ];
    Mix {
        workload: Workload::ColdMix,
        seed,
        tenants: vec![1, 2, 3, 4],
        datasets: Vec::new(),
        classes: vec![q6, q6_split, xor_c, scout_c, nn, img_box, img_guided, hdc],
        schedule,
    }
}

/// Resident datasets of `resident_query`, registered in this order so
/// their ids are 0..5: NN weights first (both analog tiles of shard 0),
/// then the HDC prototypes (shard 1), then the digital pins.
const DS_NN: u64 = 0;
const DS_HDC: u64 = 1;
const DS_Q6: u64 = 2;
const DS_RULES: u64 = 3;
const DS_KEYS: u64 = 4;
const Q6_TABLE_ROWS: usize = 2048;
const RULES: usize = 128;
const RULE_WIDTH: usize = 48;
const KEYS: usize = 64;
const KEY_WIDTH: usize = 32;

fn resident_query(seed: u64, rng: &mut StdRng) -> Mix {
    let network = BinarizedMlp::random(&NN_DIMS, rng.gen());
    let table_seed = rng.gen::<u64>();
    let rules_seed = rng.gen::<u64>();
    let mut keys: Vec<u64> = Vec::with_capacity(KEYS);
    while keys.len() < KEYS {
        let k = rng.gen::<u64>() & ((1 << KEY_WIDTH) - 1);
        if !keys.contains(&k) {
            keys.push(k);
        }
    }
    let datasets = vec![
        (
            1,
            DatasetSpec::NnWeights {
                network: network.clone(),
            },
        ),
        (
            1,
            DatasetSpec::HdcPrototypes {
                classes: HDC_CLASSES,
                d: HDC_D,
                ngram: HDC_NGRAM,
                train_len: HDC_TRAIN_LEN,
            },
        ),
        (
            0,
            DatasetSpec::Q6Table {
                rows: Q6_TABLE_ROWS,
                table_seed,
            },
        ),
        (
            2,
            DatasetSpec::CamRules {
                rules: RULES,
                width: RULE_WIDTH,
                wildcard_density: 0.3,
                seed: rules_seed,
            },
        ),
        (
            2,
            DatasetSpec::CamKeys {
                keys: keys.clone(),
                width: KEY_WIDTH,
            },
        ),
    ];
    let table = LineItemTable::generate(Q6_TABLE_ROWS, table_seed);
    let rules = RuleSet::generate(RULES, RULE_WIDTH, 0.3, rules_seed);
    let word = |bits: &BitVec| bits.words()[0];

    let q6 = class(rng, |r, _| {
        let params = random_params(r);
        Template {
            tenant: 0,
            spec: WorkloadSpec::Q6Query {
                dataset: DatasetId(DS_Q6),
                params,
            },
            expect: Expect::Q6(q6_scan(&table, &params)),
        }
    });
    let nn = class(rng, |r, i| {
        let inputs: Vec<BitVec> = (0..1 + i % 2)
            .map(|_| random_bits(NN_DIMS[0], 0.5, r))
            .collect();
        Template {
            tenant: 1,
            expect: nn_scores(&network, &inputs),
            spec: WorkloadSpec::NnQuery {
                dataset: DatasetId(DS_NN),
                inputs,
            },
        }
    });
    let classify = class(rng, |r, i| {
        let packets: Vec<BitVec> = (0..2 + i % 5).map(|_| rules.sample_packet(r)).collect();
        Template {
            tenant: 2,
            expect: Expect::Lookups(packets.iter().map(|p| rules.classify(p)).collect()),
            spec: WorkloadSpec::RuleClassify {
                dataset: DatasetId(DS_RULES),
                packets: packets.iter().map(word).collect(),
            },
        }
    });
    let lookup = class(rng, |r, i| {
        // Half the probes hit the dictionary, half miss it.
        let probes: Vec<u64> = (0..2 + i % 5)
            .map(|p| {
                if p % 2 == 0 {
                    keys[r.gen_range(0..KEYS)]
                } else {
                    r.gen::<u64>() & ((1 << KEY_WIDTH) - 1)
                }
            })
            .collect();
        let scan = |p: &u64| keys.iter().position(|k| k == p).map(|i| i as u32);
        Template {
            tenant: 2,
            expect: Expect::Lookups(probes.iter().map(scan).collect()),
            spec: WorkloadSpec::KeyLookup {
                dataset: DatasetId(DS_KEYS),
                probes,
            },
        }
    });
    let search = class(rng, |r, i| {
        let keys: Vec<BitVec> = (0..1 + i % 3).map(|_| rules.sample_packet(r)).collect();
        Template {
            tenant: 2,
            expect: Expect::Matches(keys.iter().map(|k| rules.matches(k)).collect()),
            spec: WorkloadSpec::CamSearch {
                dataset: DatasetId(DS_RULES),
                kind: MatchKind::Ternary,
                keys,
            },
        }
    });
    let hdc = vec![Template {
        tenant: 1,
        spec: WorkloadSpec::HdcQuery {
            dataset: DatasetId(DS_HDC),
            samples: 2,
            sample_len: HDC_SAMPLE_LEN,
        },
        expect: Expect::HdcAccuracy,
    }];
    // Raw row reads of dictionary entries' value rows (slot s holds
    // rows 2s and 2s+1 of the dataset's single tile).
    let tile_cols = Workload::ResidentQuery.pool_config().tile_cols;
    let raw = class(rng, |r, i| {
        let slots: Vec<usize> = (0..1 + i % 3).map(|_| r.gen_range(0..KEYS)).collect();
        Template {
            tenant: 2,
            spec: WorkloadSpec::RawQuery {
                dataset: DatasetId(DS_KEYS),
                instructions: slots
                    .iter()
                    .map(|&s| CimInstruction::ReadRow {
                        tile: 0,
                        row: 2 * s,
                    })
                    .collect(),
            },
            expect: Expect::Rows(
                slots
                    .iter()
                    .map(|&s| {
                        let k = key_bits(keys[s], KEY_WIDTH);
                        BitVec::from_fn(tile_cols, |j| j < KEY_WIDTH && k.get(j))
                    })
                    .collect(),
            ),
        }
    });
    // Classes: 0 q6, 1 nn, 2 classify, 3 lookup, 4 search, 5 hdc, 6 raw.
    // One HDC query in 40: its query encoding is the costliest lowering
    // here, and keeping it rare keeps it under half the mix's wall time.
    let schedule = vec![
        0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 5, 6, 4, //
        0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1, 2, 6, 4,
    ];
    Mix {
        workload: Workload::ResidentQuery,
        seed,
        tenants: vec![1, 2, 3],
        datasets,
        classes: vec![q6, nn, classify, lookup, search, hdc, raw],
        schedule,
    }
}

fn tiny_offload(seed: u64, rng: &mut StdRng) -> Mix {
    let xor_c = class(rng, |r, _| xor(0, 32, r));
    let scout_c = class(rng, |r, _| scout(1, 3, 128, r));
    let q6 = class(rng, |r, _| Template {
        tenant: 2,
        ..q6_select(TINY_Q6_ROWS, r)
    });
    // Classes: 0 xor, 1 scout, 2 q6 — three accelerator-scale selects
    // in every 64 jobs, opening one 16-job burst (so their lowering does
    // not sit inside the tiny jobs' latencies). Three CIM jobs in one
    // flush over two shards is the least that lets the planner coalesce
    // a batch.
    let mut schedule: Vec<usize> = (0..64).map(|i| i % 2).collect();
    schedule[..3].fill(2);
    Mix {
        workload: Workload::TinyOffload,
        seed,
        tenants: vec![1, 2, 3],
        datasets: Vec::new(),
        classes: vec![xor_c, scout_c, q6],
        schedule,
    }
}
