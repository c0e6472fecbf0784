//! Hyperdimensional language classification: [`WorkloadSpec::HdcClassify`]
//! (prototypes programmed per job), [`WorkloadSpec::HdcQuery`] against
//! resident [`DatasetSpec::HdcPrototypes`] and the prototypes' load
//! program — the `classes × d` prototype matrix as the column-0 block of
//! an analog tile, one `d`-input MVM per query, argmaxed on the host — plus
//! [`WorkloadSpec::HdcAssoc`], the same task served as an associative
//! memory over CAM tiles.
//!
//! The analog-scored kinds argmax raw crossbar read-outs through the
//! DAC/ADC quantization path, which carries no exactness certificate
//! even with noise disabled: they are never host-routed. The
//! associative sweep is exact on a noise-free ReRAM pool, where its
//! host reference — the lowest-index argmax of prototype/query overlap
//! — is certified.
//!
//! [`WorkloadSpec::HdcClassify`]: crate::WorkloadSpec::HdcClassify
//! [`WorkloadSpec::HdcQuery`]: crate::WorkloadSpec::HdcQuery
//! [`WorkloadSpec::HdcAssoc`]: crate::WorkloadSpec::HdcAssoc
//! [`DatasetSpec::HdcPrototypes`]: crate::DatasetSpec::HdcPrototypes

use super::{
    bits_of, check_mvm_count, pad_row, vector_of, CompileError, CompiledJob, DatasetProgram,
    Finalize, HostProfile, Lowering, TileDemand,
};
use crate::dataset::ResidentPayload;
use crate::job::{HdcOutcome, JobOutput};
use crate::schedule::PoolConfig;
use cim_core::isa::{CimInstruction, CimResponse, MatchKind};
use cim_hdc::hypervector::Hypervector;
use cim_hdc::lang::LanguageTask;
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::rng::seeded;
use std::sync::Arc;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.85,
    l1_miss: 0.9,
    l2_miss: 0.9,
};

/// The language task a spec trains: `classes` synthetic languages,
/// dimension `d`, `ngram`-gram encoding, `train_len` training symbols
/// per language.
#[derive(Debug, Clone, Copy)]
pub(super) struct Task {
    classes: usize,
    d: usize,
    ngram: usize,
    train_len: usize,
}

impl Task {
    pub(super) fn new(classes: usize, d: usize, ngram: usize, train_len: usize) -> Self {
        Task {
            classes,
            d,
            ngram,
            train_len,
        }
    }

    /// Rejects tasks `LanguageTask::train` cannot build: no classes, a
    /// zero dimension or n-gram size, or training text no longer than
    /// one n-gram. Then rejects, as invalid, an n-gram longer than the
    /// dimension and training texts over the host-work budget.
    fn validate(&self) -> Result<(), CompileError> {
        if self.classes == 0 || self.d == 0 || self.ngram == 0 || self.train_len <= self.ngram {
            return Err(CompileError::EmptyWorkload);
        }
        if self.ngram > self.d {
            // ρ^k and ρ^(k mod d) are the same permutation, so a longer
            // window encodes two positions alike.
            return Err(CompileError::InvalidSpec {
                field: "ngram",
                reason: format!("{} exceeds the dimension {}", self.ngram, self.d),
            });
        }
        check_host_work("train_len", self.classes, self.train_len)
    }

    /// Trains on the host (one-shot prototype construction is setup
    /// work, exactly as `LanguageTask` does) and returns the task with
    /// its finalized prototypes.
    fn train(&self, seed: u64) -> (LanguageTask, Vec<Hypervector>) {
        let mut task = LanguageTask::train(self.classes, self.d, self.ngram, self.train_len, seed);
        let prototypes = task.memory.finalize().to_vec();
        (task, prototypes)
    }

    /// Rejects tasks whose prototype matrix outgrows an analog tile.
    fn fits_analog(&self, cfg: &PoolConfig) -> Result<(), CompileError> {
        if self.classes > cfg.analog_rows || self.d > cfg.analog_cols {
            return Err(CompileError::AnalogShapeTooSmall {
                required: (self.classes, self.d),
                available: (cfg.analog_rows, cfg.analog_cols),
            });
        }
        Ok(())
    }
}

/// The host-work budget of one HDC spec, in symbols: the host encodes
/// the training texts of a classifier or prototype load (`classes ×
/// train_len` symbols) and the query texts of a job (`samples ×
/// sample_len`) on the submitting thread, before any tile is touched,
/// and each total must stay within this budget. Encoding costs about
/// 0.6 µs per symbol at `d` = 1,024 and 1 µs at 2,048 (2 vCPUs), so a
/// spec at the budget holds the caller for a few tenths of a second.
/// Every text within it also stays far below the `u32::MAX` n-grams a
/// bundle counts.
pub(crate) const HDC_HOST_SYMBOLS: usize = 1 << 18;

/// Rejects `texts` texts of `len` symbols each that together exceed
/// [`HDC_HOST_SYMBOLS`].
fn check_host_work(field: &'static str, texts: usize, len: usize) -> Result<(), CompileError> {
    let symbols = texts.saturating_mul(len);
    if symbols > HDC_HOST_SYMBOLS {
        return Err(CompileError::InvalidSpec {
            field,
            reason: format!(
                "{texts} texts of {len} symbols exceed the host-work budget of \
                 {HDC_HOST_SYMBOLS} symbols"
            ),
        });
    }
    Ok(())
}

/// Rejects query batches with no samples, or with samples too short to
/// hold one `ngram`-gram (`ngram` is nonzero for every validated task),
/// batches of more samples than one job carries MVMs
/// ([`check_mvm_count`]: the analog kinds run one MVM per sample, and
/// `HdcAssoc` shares the cap so the three kinds accept the same
/// batches), and query texts over the host-work budget.
fn check_samples(samples: usize, sample_len: usize, ngram: usize) -> Result<(), CompileError> {
    if samples == 0 || sample_len < ngram {
        return Err(CompileError::EmptyWorkload);
    }
    check_mvm_count("samples", samples)?;
    check_host_work("sample_len", samples, sample_len)
}

/// The prototypes as a `classes × d` 0/1 conductance matrix: the tile
/// programs, reads and erases only that block.
fn prototype_matrix(prototypes: &[Hypervector], d: usize) -> Matrix {
    Matrix::from_fn(prototypes.len(), d, |r, c| {
        if prototypes[r].bits().get(c) {
            1.0
        } else {
            0.0
        }
    })
}

/// Samples `samples` queries round-robin over the task's classes from
/// the job's private query stream, returning each encoded query with
/// its ground-truth class. The same seed gives the same queries on
/// every path, so the MVM and associative classifiers see identical
/// inputs.
fn sample_queries(
    task: &LanguageTask,
    classes: usize,
    samples: usize,
    sample_len: usize,
    seed: u64,
) -> Vec<(BitVec, usize)> {
    let mut sample_rng = seeded(crate::mix_seed(seed, 0x5A17));
    (0..samples)
        .map(|i| {
            let class = i % classes;
            let text = task.languages[class].symbols(sample_len, &mut sample_rng);
            (task.encoder.encode_stream(text).bits().clone(), class)
        })
        .collect()
}

/// Appends one `d`-input MVM per query against prototype tile 0, each
/// an output.
fn emit_mvm_queries(
    instructions: &mut Vec<CimInstruction>,
    queries: Vec<(BitVec, usize)>,
    d: usize,
) -> (Vec<usize>, Vec<usize>) {
    let mut outputs = Vec::with_capacity(queries.len());
    let mut expected = Vec::with_capacity(queries.len());
    for (query, class) in queries {
        let x: Vec<f64> = (0..d)
            .map(|j| if query.get(j) { 1.0 } else { 0.0 })
            .collect();
        instructions.push(CimInstruction::Mvm { tile: 0, col: 0, x });
        outputs.push(instructions.len() - 1);
        expected.push(class);
    }
    (outputs, expected)
}

/// Argmaxes each score vector (one entry per class), ties to the
/// lowest class index.
#[derive(Debug)]
struct Argmax {
    expected: Vec<usize>,
}

impl Finalize for Argmax {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let predictions = outputs
            .into_iter()
            .map(|resp| {
                let scores = vector_of(resp);
                let mut best = 0;
                for (c, &s) in scores.iter().enumerate() {
                    if s > scores[best] {
                        best = c;
                    }
                }
                best
            })
            .collect();
        JobOutput::Hdc(HdcOutcome {
            predictions,
            expected: self.expected.clone(),
        })
    }
}

/// Cold classification: train, program the prototypes, one MVM per
/// query.
pub(super) fn classify(
    lw: &Lowering,
    spec: Task,
    samples: usize,
    sample_len: usize,
) -> Result<CompiledJob, CompileError> {
    spec.validate()?;
    check_samples(samples, sample_len, spec.ngram)?;
    spec.fits_analog(lw.cfg)?;
    let (task, prototypes) = spec.train(lw.seed);
    let mut instructions = vec![CimInstruction::ProgramMatrix {
        tile: 0,
        col: 0,
        matrix: prototype_matrix(&prototypes, spec.d),
    }];
    let queries = sample_queries(&task, spec.classes, samples, sample_len, lw.seed);
    let (outputs, expected) = emit_mvm_queries(&mut instructions, queries, spec.d);
    let decode = Argmax { expected };
    Ok(lw.job(TileDemand::analog(1), instructions, outputs, decode))
}

/// Queries against resident prototypes: one MVM per query, no matrix
/// programming.
pub(super) fn query(
    lw: &Lowering,
    samples: usize,
    sample_len: usize,
) -> Result<CompiledJob, CompileError> {
    let ResidentPayload::Hdc { task, classes, d } = &lw.dataset().payload else {
        return Err(lw.mismatch());
    };
    check_samples(samples, sample_len, task.encoder.n())?;
    let mut instructions = Vec::with_capacity(samples);
    let queries = sample_queries(task, *classes, samples, sample_len, lw.seed);
    let (outputs, expected) = emit_mvm_queries(&mut instructions, queries, *d);
    let decode = Argmax { expected };
    Ok(lw.job(TileDemand::analog(1), instructions, outputs, decode))
}

/// The load program of resident prototypes: train, then program one
/// analog tile.
pub(super) fn load(
    cfg: &PoolConfig,
    spec: Task,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    spec.validate()?;
    spec.fits_analog(cfg)?;
    let (task, prototypes) = spec.train(seed);
    Ok(DatasetProgram {
        instructions: vec![CimInstruction::ProgramMatrix {
            tile: 0,
            col: 0,
            matrix: prototype_matrix(&prototypes, spec.d),
        }],
        demand: TileDemand::analog(1),
        payload: ResidentPayload::Hdc {
            task: Arc::new(task),
            classes: spec.classes,
            d: spec.d,
        },
        resident_bytes: (spec.classes * spec.d) as u64 / 8,
        resident_rows: Vec::new(),
    })
}

/// The lowest-index class of maximal prototype/query overlap among the
/// classes set in `candidates` (strict `>` on an ascending scan keeps
/// the lowest index on ties — the same rule as [`Argmax`]).
fn best_overlap(
    prototypes: &[BitVec],
    query: &BitVec,
    candidates: impl Iterator<Item = usize>,
) -> Option<(usize, usize)> {
    let mut best: Option<(usize, usize)> = None;
    for c in candidates.filter(|&c| c < prototypes.len()) {
        let o = prototypes[c].and(query).count_ones();
        if best.is_none_or(|(_, bo)| o > bo) {
            best = Some((c, o));
        }
    }
    best
}

/// Decodes an associative-memory window sweep: per query, an expanding
/// sequence of Hamming-window searches over the class prototypes.
/// Candidates accumulate across windows until the certified-stop rule
/// proves the best candidate's overlap beats every class still outside
/// the window; the exact host re-rank over the candidates then
/// reproduces [`Argmax`]'s lowest-index argmax bit for bit (falling
/// back to an all-class re-rank if the sweep never certifies).
#[derive(Debug)]
struct Sweep {
    /// Class prototypes as `d`-bit vectors, in class order.
    prototypes: Vec<BitVec>,
    /// Encoded queries as `d`-bit vectors, in sample order.
    queries: Vec<BitVec>,
    expected: Vec<usize>,
    /// The `hi` bound of each sweep window, in emission order.
    windows: Vec<u32>,
}

impl Finalize for Sweep {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let classes = self.prototypes.len();
        let w = self.windows.len();
        let responses: Vec<BitVec> = outputs.into_iter().map(bits_of).collect();
        assert_eq!(
            responses.len(),
            self.queries.len() * w,
            "one response per window"
        );
        let p_max = self
            .prototypes
            .iter()
            .map(BitVec::count_ones)
            .max()
            .unwrap_or(0);
        let predictions = self
            .queries
            .iter()
            .enumerate()
            .map(|(i, query)| {
                let q_ones = query.count_ones();
                let mut candidates = BitVec::zeros(classes);
                for (wi, &h) in self.windows.iter().enumerate() {
                    for c in responses[i * w + wi].iter_ones() {
                        if c < classes {
                            candidates.set(c, true);
                        }
                    }
                    if let Some((bc, bo)) =
                        best_overlap(&self.prototypes, query, candidates.iter_ones())
                    {
                        // Every class still outside a `[0, h]` Hamming
                        // window has overlap at most `(p_max + q_ones -
                        // h - 1) / 2`; once the best candidate provably
                        // beats that, the global argmax (ties included)
                        // is already in the candidate set.
                        if 2 * bo + h as usize >= p_max + q_ones {
                            return bc;
                        }
                    }
                }
                // The sweep never certified (possible only under sense
                // noise): exact re-rank over every class.
                best_overlap(&self.prototypes, query, 0..classes).map_or(0, |(bc, _)| bc)
            })
            .collect();
        JobOutput::Hdc(HdcOutcome {
            predictions,
            expected: self.expected.clone(),
        })
    }
}

/// The associative memory on a CAM tile: class prototypes stored as
/// binary-CAM entries, each query resolved by an expanding
/// Hamming-window sweep ([`MatchKind::Range`] searches) plus the
/// certified host re-rank of [`Sweep`]. Same task training and query
/// sampling as [`classify`], so for one seed the two paths classify the
/// identical queries.
pub(super) fn assoc(
    lw: &Lowering,
    spec: Task,
    samples: usize,
    sample_len: usize,
) -> Result<CompiledJob, CompileError> {
    let (cfg, classes, d) = (lw.cfg, spec.classes, spec.d);
    spec.validate()?;
    check_samples(samples, sample_len, spec.ngram)?;
    if 2 * classes > cfg.tile_rows {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2 * classes,
            available: cfg.tile_rows,
        });
    }
    if d > cfg.tile_cols {
        return Err(CompileError::BadOperandWidth {
            width: d,
            max: cfg.tile_cols,
        });
    }
    let (task, raw) = spec.train(lw.seed);
    let prototypes: Vec<BitVec> = raw.iter().map(|p| pad_row(p.bits(), d, d)).collect();
    // All-ones care over the hypervector dimensions: match-line current
    // is the full Hamming distance (binary-CAM discipline); padding
    // columns never conduct.
    let care = BitVec::from_fn(cfg.tile_cols, |j| j < d);
    let mut instructions: Vec<CimInstruction> = prototypes
        .iter()
        .enumerate()
        .map(|(slot, p)| CimInstruction::WriteKey {
            tile: 0,
            slot,
            value: pad_row(p, d, cfg.tile_cols),
            care: care.clone(),
        })
        .collect();
    // Exponential window sweep [0,0], [0,1], [0,3], … capped at the
    // full dimension: O(log d) searches per query, and the final window
    // spans every possible Hamming distance.
    let mut windows = vec![0u32];
    let mut h = 1usize;
    while h < d {
        windows.push(h as u32);
        h = 2 * h + 1;
    }
    if windows.last().copied().unwrap_or(0) < d as u32 {
        windows.push(d as u32);
    }
    let mut outputs = Vec::with_capacity(samples * windows.len());
    let mut queries = Vec::with_capacity(samples);
    let mut expected = Vec::with_capacity(samples);
    for (query, class) in sample_queries(&task, classes, samples, sample_len, lw.seed) {
        let key = pad_row(&query, d, cfg.tile_cols);
        for &h in &windows {
            instructions.push(CimInstruction::MatchSearch {
                tile: 0,
                entries: classes,
                key: key.clone(),
                kind: MatchKind::Range { lo: 0, hi: h },
            });
            outputs.push(instructions.len() - 1);
        }
        queries.push(query);
        expected.push(class);
    }
    // The noise-free sweep provably returns the global lowest-index
    // argmax of prototype/query overlap: the host computes it directly.
    let host = lw.host(PROFILE, lw.row_bytes(2 * classes), || {
        lw.reram_noise_free().then(|| {
            JobOutput::Hdc(HdcOutcome {
                predictions: queries
                    .iter()
                    .map(|q| best_overlap(&prototypes, q, 0..classes).map_or(0, |(bc, _)| bc))
                    .collect(),
                expected: expected.clone(),
            })
        })
    });
    let decode = Sweep {
        prototypes,
        queries,
        expected,
        windows,
    };
    Ok(CompiledJob {
        host,
        ..lw.job(TileDemand::digital(1), instructions, outputs, decode)
    })
}

#[cfg(test)]
mod tests {
    use super::super::tests::{cfg, lower};
    use super::*;
    use crate::job::WorkloadSpec;

    #[test]
    fn hdc_programs_its_window_and_queries_its_dimension() {
        let spec = WorkloadSpec::HdcClassify {
            classes: 4,
            d: 512,
            ngram: 3,
            train_len: 400,
            samples: 6,
            sample_len: 50,
        };
        let c = lower(&spec, &cfg()).unwrap();
        assert_eq!(c.demand.analog, 1);
        assert_eq!(c.outputs.len(), 6);
        // The prototype matrix is `classes × d`, smaller than the tile,
        // and every query drives the `d` prototype columns.
        assert!(4 < cfg().analog_rows && 512 < cfg().analog_cols);
        match &c.instructions[0] {
            CimInstruction::ProgramMatrix { matrix, .. } => {
                assert_eq!((matrix.rows(), matrix.cols()), (4, 512));
            }
            other => panic!("expected ProgramMatrix first, got {other:?}"),
        }
        for instr in &c.instructions[1..] {
            match instr {
                CimInstruction::Mvm { x, .. } => assert_eq!(x.len(), 512),
                other => panic!("expected MVM queries, got {other:?}"),
            }
        }
        // Ground-truth labels run round-robin over the classes.
        let scores = vec![CimResponse::Vector(vec![0.0; 4]); 6];
        match c.finalizer.finalize(scores) {
            JobOutput::Hdc(outcome) => assert_eq!(outcome.expected, vec![0, 1, 2, 3, 0, 1]),
            other => panic!("wrong output {other:?}"),
        }
    }

    #[test]
    fn hdc_oversized_dimension_rejected() {
        let spec = WorkloadSpec::HdcClassify {
            classes: 4,
            d: cfg().analog_cols + 1,
            ngram: 3,
            train_len: 400,
            samples: 1,
            sample_len: 10,
        };
        assert!(matches!(
            lower(&spec, &cfg()),
            Err(CompileError::AnalogShapeTooSmall { .. })
        ));
    }
}
