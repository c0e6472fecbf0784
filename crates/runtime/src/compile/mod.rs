//! The compile layer: lowering application workloads to instruction
//! streams.
//!
//! The (crate-internal) `compile` entry point turns a [`WorkloadSpec`]
//! into a `CompiledJob`: a straight-line [`CimInstruction`] stream over
//! *virtual* tile indices (`0..demand`), the indices of the instructions
//! whose responses are the job's outputs and a finalizer that decodes
//! those responses on the host.
//!
//! Virtual tile indices keep compilation independent of placement: the
//! scheduler relocates the stream onto whichever physical tiles the
//! admission layer leases, and the same compiled job can run on any
//! shard. Multi-step reductions use [`CimInstruction::StoreLast`]
//! (Pinatubo-style write-back) so whole reduction trees execute without
//! host round-trips, alternating between two scratch rows per predicate
//! so an access never reads the row it is about to overwrite.
//!
//! Each workload family lives in one submodule that owns everything
//! about it: its lowering (and its dataset's load program, if it has
//! one), its host-side decoder, its host reference and therefore its
//! eligibility for the offload planner's host lane — `q6`, `hdc`, `cam`,
//! `nn`, `img`, `xor`, `scout` and `raw`. This module holds what they
//! share: the `Lowering` context, the compiled-job type and the
//! cross-shard split helpers.

mod cam;
mod hdc;
mod img;
mod nn;
mod q6;
mod raw;
mod scout;
mod xor;

use crate::dataset::{DatasetSpec, ResidentPayload, ResidentView};
use crate::job::{DatasetId, JobId, JobKind, JobOutput, TenantId, WorkloadSpec};
use crate::schedule::{OffloadPolicy, PoolConfig, MAX_ROUTING_DEBT};
use cim_arch::conventional::ConventionalMachine;
use cim_core::isa::{CimInstruction, CimResponse, TileFamily};
use cim_core::offload::Program;
use cim_crossbar::scouting::ScoutOp;
use cim_lint::{CostEnvelope, MVM_WEIGHT};
use cim_simkit::bitvec::BitVec;
use cim_simkit::units::{ByteSize, Seconds};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;
use std::sync::Arc;

/// The most rows one Scouting-Logic access of a compiled reduction
/// reads: wider OR/AND reductions chain accesses through scratch rows.
pub(crate) const SCOUT_FAN_IN: usize = 8;

/// Digital tiles and analog tiles a job needs simultaneously.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TileDemand {
    /// Digital (Scouting-Logic) tiles.
    pub digital: usize,
    /// Analog (matrix-vector) tiles.
    pub analog: usize,
}

impl TileDemand {
    /// A digital-only demand.
    pub(crate) fn digital(tiles: usize) -> Self {
        TileDemand {
            digital: tiles,
            analog: 0,
        }
    }

    /// An analog-only demand.
    pub(crate) fn analog(tiles: usize) -> Self {
        TileDemand {
            digital: 0,
            analog: tiles,
        }
    }
}

/// Cache profile of a host-eligible family's kernel, which prices its
/// host fallback in the `cim-arch` §II-C model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct HostProfile {
    /// Fraction of dynamic instructions the CIM core absorbs.
    pub accel_fraction: f64,
    /// L1 miss rate of the host running the same kernel.
    pub l1_miss: f64,
    /// L2 miss rate of the host running the same kernel.
    pub l2_miss: f64,
}

impl HostProfile {
    /// The analytical delay of one streaming pass over `bytes` of data
    /// on the paper's conventional host (Xeon E5-2680).
    fn host_delay(self, bytes: u64) -> Seconds {
        let program = Program::streaming(
            ByteSize(bytes.max(64)),
            self.accel_fraction,
            self.l1_miss,
            self.l2_miss,
        );
        ConventionalMachine::xeon_e5_2680().delay(&program.as_workload())
    }
}

/// Host-side decoding of a job's output responses. Every workload
/// family implements it next to its lowering; a finalizer only ever
/// consumes outputs its own compiler emitted.
pub(crate) trait Finalize: fmt::Debug + Send + Sync {
    /// Decodes the collected output responses into the job's output.
    ///
    /// # Panics
    ///
    /// Panics if the responses do not match what the compiled stream
    /// promised (a runtime invariant, not a tenant-reachable state).
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput;
}

/// Rejects a job of more operations than one job may carry: at `units`
/// cost units each, `count` operations must fit [`MAX_ROUTING_DEBT`],
/// the most work the routing ledger lets one shard run ahead by.
/// Checked before lowering allocates one operand per operation, so an
/// oversized count is a typed error instead of an allocation failure.
/// `field` names the spec field the count grows with, `what` the
/// operations.
fn check_cost_units(
    field: &'static str,
    what: &str,
    count: usize,
    units: u64,
) -> Result<(), CompileError> {
    let max = (MAX_ROUTING_DEBT / units.max(1)) as usize;
    if count > max {
        return Err(CompileError::InvalidSpec {
            field,
            reason: format!(
                "{count} {what} exceed the {max} one job may carry at {units} cost units each"
            ),
        });
    }
    Ok(())
}

/// [`check_cost_units`] for MVMs, [`MVM_WEIGHT`] cost units each: at
/// most 163 MVMs per job.
fn check_mvm_count(field: &'static str, mvms: usize) -> Result<(), CompileError> {
    check_cost_units(field, "MVMs", mvms, MVM_WEIGHT)
}

/// Decodes a bits response. Finalizers only consume outputs their own
/// compiler emitted, so any other shape is a compiler bug — a runtime
/// invariant, not a tenant-reachable state.
fn bits_of(resp: CimResponse) -> BitVec {
    match resp.into_bits() {
        Some(bits) => bits,
        None => unreachable!("compiled output promised a bit vector"),
    }
}

/// Decodes a vector response; see [`bits_of`] for why failure is
/// unreachable.
fn vector_of(resp: CimResponse) -> Vec<f64> {
    match resp.into_vector() {
        Some(v) => v,
        None => unreachable!("compiled output promised a vector"),
    }
}

/// The first `width` bits of `bits` (at most `cols` of them), zero-padded
/// to `cols` columns — the row layout every family writes operands in.
fn pad_row(bits: &BitVec, width: usize, cols: usize) -> BitVec {
    bits.window(0, width.min(cols), cols)
}

/// A workload lowered to an executable form.
#[derive(Debug, Clone)]
pub(crate) struct CompiledJob {
    /// The job id.
    pub job: JobId,
    /// The owning tenant.
    pub tenant: TenantId,
    /// Workload family: names the job's report, and marks raw streams
    /// for verification at admission.
    pub kind: JobKind,
    /// The resident dataset the job runs against, if any: the
    /// scheduler routes the job to the dataset's shard and maps its
    /// virtual tiles onto the dataset's pinned tiles instead of
    /// granting a fresh lease.
    pub dataset: Option<DatasetId>,
    /// Tiles the job must hold while executing.
    pub demand: TileDemand,
    /// The instruction stream, over virtual tile indices `0..demand`.
    pub instructions: Vec<CimInstruction>,
    /// Indices of instructions whose responses the finalizer consumes.
    pub outputs: Vec<usize>,
    /// Host-side output decoder.
    pub finalizer: Arc<dyn Finalize>,
    /// Seed of the job's private noise stream.
    pub seed: u64,
    /// Whether the job is digital-tile-parallel: every instruction
    /// touches exactly one digital tile and the tiles never exchange
    /// data, so the scheduler may partition the virtual tiles into
    /// contiguous chunks and scatter them across shards, gathering the
    /// chunk responses host-side before the (single) finalizer runs.
    /// This is what lets a job bigger than any one shard still serve
    /// from the pool's aggregate capacity.
    pub splittable: bool,
    /// The certified cost envelope of the instruction stream — the
    /// `cim_lint::cost` pass over this job against the pool geometry,
    /// sealed at compile time (and per part when a job splits). The one
    /// cost authority: shard balancing, cheapest-first dispatch and the
    /// offload planner all read its `cost_units`, which weighs analog
    /// operations by their simulated latency and logic accesses by the
    /// rows they activate.
    pub envelope: CostEnvelope,
    /// The host fallback, precomputed at compile time for workload
    /// kinds whose host reference path is certified bit-identical to
    /// the CIM execution: the host result and its analytical host
    /// delay, which the `CostDriven` planner weighs against the
    /// envelope's latency bound. `None` when the kind has no such
    /// certificate (raw streams, analog-score HDC) or when the pool
    /// policy never routes to the host — the planner can only pick the
    /// host lane when this is `Some`.
    pub host: Option<(JobOutput, Seconds)>,
}

/// Why a workload cannot be compiled for a given pool configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompileError {
    /// The workload needs more digital tiles than are available. For
    /// tile-parallel (splittable) workloads `available` is pool-wide —
    /// the pool's capacity when raised at compile time, its currently
    /// free tiles when raised by admission; for single-shard workloads
    /// it is the best shard's.
    NeedsMoreDigitalTiles {
        /// Tiles required.
        required: usize,
        /// Tiles available (see above for the scope).
        available: usize,
    },
    /// The workload needs more rows per tile than the configured geometry.
    NeedsMoreTileRows {
        /// Rows required.
        required: usize,
        /// Rows per configured tile.
        available: usize,
    },
    /// The workload needs more analog tiles than one shard owns.
    NeedsMoreAnalogTiles {
        /// Tiles required.
        required: usize,
        /// Tiles one shard owns.
        available: usize,
    },
    /// Prototype matrix exceeds the analog tile geometry.
    AnalogShapeTooSmall {
        /// (classes, dimension) required.
        required: (usize, usize),
        /// (rows, cols) of a configured analog tile.
        available: (usize, usize),
    },
    /// The workload carries no work (empty message, zero rows…).
    EmptyWorkload,
    /// An operand is wider than the tile (or CAM entry) allows.
    BadOperandWidth {
        /// Offending width.
        width: usize,
        /// Maximum (tile) width.
        max: usize,
    },
    /// The operation does not support the requested fan-in (XOR is
    /// exactly two rows).
    UnsupportedFanIn {
        /// The operation.
        op: ScoutOp,
        /// The requested fan-in.
        fan_in: usize,
    },
    /// A query referenced a dataset id the pool has never seen (or one
    /// already fully released).
    UnknownDataset {
        /// The offending id.
        dataset: DatasetId,
    },
    /// A query referenced a dataset owned by another tenant. Datasets
    /// are isolation domains: only the registering tenant may read one.
    DatasetAccessDenied {
        /// The dataset.
        dataset: DatasetId,
        /// Its owner.
        owner: TenantId,
    },
    /// A query's workload family does not match the dataset's kind
    /// (e.g. a [`WorkloadSpec::Q6Query`] against HDC prototypes).
    DatasetKindMismatch {
        /// The dataset.
        dataset: DatasetId,
    },
    /// The dataset's load program failed on the shard; the registration
    /// is rolled back.
    DatasetLoadFailed {
        /// The captured failure message.
        message: String,
    },
    /// The dataset can never fit, regardless of current admission
    /// pressure: its digital pin outgrows the *whole pool* (digital
    /// datasets split across shards), or its analog pin outgrows one
    /// shard (weight matrices are not yet split). Callers should size
    /// the dataset down; retrying or waiting for leases to free cannot
    /// help, which is what distinguishes this from the transient
    /// `NeedsMore…Tiles` errors.
    DatasetTooLarge {
        /// Tiles the dataset's load program needs.
        needed: TileDemand,
        /// The most the pool can ever pin for one dataset: pool-wide
        /// digital tiles, one shard's analog tiles.
        pool_capacity: TileDemand,
    },
    /// An input's length does not match the length the workload
    /// expects: a network's input width, the width of the other rows of
    /// a bulk reduction, or the entry width of a CAM dataset.
    InputLengthMismatch {
        /// Offending input length.
        got: usize,
        /// The expected length.
        expected: usize,
    },
    /// A spec parameter is outside the range the workload accepts: a
    /// float that is not finite and positive, or a size beyond the pool
    /// geometry.
    InvalidSpec {
        /// The offending spec field.
        field: &'static str,
        /// Why the value is rejected.
        reason: String,
    },
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompileError::NeedsMoreDigitalTiles {
                required,
                available,
            } => write!(f, "needs {required} digital tiles, {available} available"),
            CompileError::NeedsMoreAnalogTiles {
                required,
                available,
            } => write!(f, "needs {required} analog tiles, shard has {available}"),
            CompileError::NeedsMoreTileRows {
                required,
                available,
            } => write!(f, "needs {required} rows per tile, tiles have {available}"),
            CompileError::AnalogShapeTooSmall {
                required,
                available,
            } => write!(
                f,
                "needs a {}x{} analog tile, shard tiles are {}x{}",
                required.0, required.1, available.0, available.1
            ),
            CompileError::EmptyWorkload => write!(f, "workload carries no work"),
            CompileError::BadOperandWidth { width, max } => {
                write!(f, "operand width {width} exceeds tile width {max}")
            }
            CompileError::UnsupportedFanIn { op, fan_in } => {
                write!(f, "{op:?} does not support fan-in {fan_in}")
            }
            CompileError::UnknownDataset { dataset } => {
                write!(f, "{dataset} is not registered with this pool")
            }
            CompileError::DatasetAccessDenied { dataset, owner } => {
                write!(f, "{dataset} is owned by {owner}")
            }
            CompileError::DatasetKindMismatch { dataset } => {
                write!(f, "query kind does not match what {dataset} holds")
            }
            CompileError::DatasetLoadFailed { message } => {
                write!(f, "dataset load program failed: {message}")
            }
            CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            } => write!(
                f,
                "dataset needs {} digital + {} analog tiles, the pool can ever pin {} digital \
                 (pool-wide) + {} analog (one shard): size the dataset down",
                needed.digital, needed.analog, pool_capacity.digital, pool_capacity.analog
            ),
            CompileError::InputLengthMismatch { got, expected } => {
                write!(f, "input has length {got}, expected {expected}")
            }
            CompileError::InvalidSpec { field, reason } => {
                write!(f, "invalid `{field}`: {reason}")
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// Everything a family's lowering needs besides the spec itself: who
/// submitted the job, its kind, the pool it compiles for, the job's
/// private noise seed and — for dataset queries — the dataset the
/// scheduler resolved (and access-checked) before compiling.
pub(crate) struct Lowering<'a> {
    job: JobId,
    tenant: TenantId,
    /// The spec's [`WorkloadSpec::kind`], the one source of a job's kind.
    kind: JobKind,
    /// The pool geometry and policy.
    cfg: &'a PoolConfig,
    /// Seed of the job's private noise stream.
    seed: u64,
    /// The queried dataset, for dataset-backed specs.
    resident: Option<&'a ResidentView>,
}

impl<'a> Lowering<'a> {
    /// The resident view the scheduler resolved before compiling. Query
    /// specs never reach `compile` without one (submission resolves the
    /// dataset under the pool lock before lowering), so a missing view
    /// is a scheduler bug, not a tenant error.
    fn dataset(&self) -> &'a ResidentView {
        match self.resident {
            Some(view) => view,
            None => unreachable!("scheduler resolves the dataset before compiling"),
        }
    }

    /// The error for a query whose family does not match its dataset.
    fn mismatch(&self) -> CompileError {
        CompileError::DatasetKindMismatch {
            dataset: self.dataset().id,
        }
    }

    /// The job's host fallback, computed only when the pool's offload
    /// policy can ever route to the host — under
    /// [`OffloadPolicy::AlwaysCim`] the work would be pure waste at
    /// admission time. `reference` returns `None` for jobs whose host
    /// path carries no bit-identity certificate; otherwise its output
    /// comes with the host delay of a kernel of the family's `profile`
    /// over `bytes` of data.
    fn host(
        &self,
        profile: HostProfile,
        bytes: u64,
        reference: impl FnOnce() -> Option<JobOutput>,
    ) -> Option<(JobOutput, Seconds)> {
        if self.cfg.offload_policy == OffloadPolicy::AlwaysCim {
            return None;
        }
        Some((reference()?, profile.host_delay(bytes)))
    }

    /// `true` when the pool's ReRAM model is noise-free: no
    /// device-to-device variation and no cycle-to-cycle read noise, so
    /// every digital sense and CAM match line resolves deterministically
    /// at its nominal current. Range-window CAM searches (and the HDC
    /// associative sweep built on them) are exact precisely in this
    /// regime; the host-route planner only trusts them then.
    fn reram_noise_free(&self) -> bool {
        self.cfg.reram_params.sigma_d2d == 0.0 && self.cfg.reram_params.sigma_c2c == 0.0
    }

    /// Bytes of `rows` full digital tile rows.
    fn row_bytes(&self, rows: usize) -> u64 {
        (rows * self.cfg.tile_cols.div_ceil(8)) as u64
    }

    /// A compiled job with the family-independent parts filled in: ids,
    /// kind, seed, the sealed cost envelope and, for a query, the
    /// dataset. Families override the rest (splittability, host
    /// fallback) with struct-update syntax.
    fn job(
        &self,
        demand: TileDemand,
        instructions: Vec<CimInstruction>,
        outputs: Vec<usize>,
        finalizer: impl Finalize + 'static,
    ) -> CompiledJob {
        CompiledJob {
            job: self.job,
            tenant: self.tenant,
            kind: self.kind,
            dataset: self.resident.map(|view| view.id),
            demand,
            // Every admitted job carries the analyzer's verdict, and
            // balancing and dispatch order read nothing else.
            envelope: crate::verify::envelope_of(&instructions, demand, self.cfg, self.resident),
            instructions,
            outputs,
            finalizer: Arc::new(finalizer),
            seed: self.seed,
            splittable: false,
            host: None,
        }
    }
}

/// Lowers workload `spec`, job `job` of `tenant`, into a [`CompiledJob`]
/// for the pool `cfg`. `resident` is the dataset a query runs against,
/// resolved and access-checked by the scheduler. The job's noise seed
/// derives from its id.
pub(crate) fn compile(
    spec: &WorkloadSpec,
    job: JobId,
    tenant: TenantId,
    cfg: &PoolConfig,
    resident: Option<&ResidentView>,
) -> Result<CompiledJob, CompileError> {
    let lw = &Lowering {
        job,
        tenant,
        kind: spec.kind(),
        cfg,
        seed: crate::mix_seed(cfg.seed, 0x0B0B ^ job.0),
        resident,
    };
    let compiled = match spec {
        // The Q6 check runs here rather than inside `q6::select`: there
        // it tipped the optimizer into outlining the bin rows' bit loop,
        // and cold selects lowered about 8 % slower.
        WorkloadSpec::Q6Select {
            rows,
            table_seed,
            params,
        } => q6::check_params(params).and_then(|()| q6::select(lw, *rows, *table_seed, *params)),
        WorkloadSpec::Q6Query { params, .. } => {
            q6::check_params(params).and_then(|()| q6::query(lw, *params))
        }
        WorkloadSpec::HdcClassify {
            classes,
            d,
            ngram,
            train_len,
            samples,
            sample_len,
        } => hdc::classify(
            lw,
            hdc::Task::new(*classes, *d, *ngram, *train_len),
            *samples,
            *sample_len,
        ),
        WorkloadSpec::HdcQuery {
            samples,
            sample_len,
            ..
        } => hdc::query(lw, *samples, *sample_len),
        WorkloadSpec::HdcAssoc {
            classes,
            d,
            ngram,
            train_len,
            samples,
            sample_len,
        } => hdc::assoc(
            lw,
            hdc::Task::new(*classes, *d, *ngram, *train_len),
            *samples,
            *sample_len,
        ),
        WorkloadSpec::CamSearch { kind, keys, .. } => cam::search(lw, *kind, keys),
        WorkloadSpec::RuleClassify { packets, .. } => cam::classify(lw, packets),
        WorkloadSpec::KeyLookup { probes, .. } => cam::lookup(lw, probes),
        WorkloadSpec::NnInfer { network, inputs } => nn::infer(lw, network, inputs),
        WorkloadSpec::NnQuery { inputs, .. } => nn::query(lw, inputs),
        WorkloadSpec::ImgFilter { image, filter } => img::filter(lw, image, *filter),
        WorkloadSpec::XorEncrypt { message, key_seed } => xor::encrypt(lw, message, *key_seed),
        WorkloadSpec::ScoutBulk { op, rows } => scout::bulk(lw, *op, rows),
        WorkloadSpec::Raw {
            digital_tiles,
            analog_tiles,
            instructions,
        } => Ok(raw::fresh(lw, *digital_tiles, *analog_tiles, instructions)),
        WorkloadSpec::RawQuery { instructions, .. } => Ok(raw::query(lw, instructions)),
    }?;
    // A raw stream's device work is whatever the tenant wrote, so it is
    // bounded after sealing, by the most work the routing ledger lets one
    // shard run ahead by. Compiled kinds bound their counts before
    // lowering instead (a cold `HdcClassify` at its MVM cap seals 17,301
    // units, its program included).
    if lw.kind == JobKind::Raw && compiled.envelope.cost_units > MAX_ROUTING_DEBT {
        return Err(CompileError::InvalidSpec {
            field: "instructions",
            reason: format!(
                "the stream costs {} units, over the {MAX_ROUTING_DEBT} one job may carry",
                compiled.envelope.cost_units
            ),
        });
    }
    // The compiler holds its own output to the lint-clean bar: in debug
    // builds every non-raw program is re-checked by the static verifier
    // at submit, so a lowering bug surfaces here with a rule code
    // instead of as a mid-batch shard panic. Raw streams are tenant
    // input, checked (and rejected, not asserted) by admission instead.
    #[cfg(debug_assertions)]
    if lw.kind != JobKind::Raw {
        let report = crate::verify::verify_compiled(&compiled, lw.cfg, lw.resident);
        debug_assert!(
            report.is_clean(),
            "compiler emitted a program the verifier rejects ({kind:?}):\n{text}",
            kind = compiled.kind,
            text = report.to_text()
        );
    }
    Ok(compiled)
}

/// Emits an OR/AND reduction over `rows`, at most [`SCOUT_FAN_IN`]
/// rows per access, ping-ponging intermediates through the two
/// `scratch` rows: the first access folds up to [`SCOUT_FAN_IN`] rows,
/// each later one the accumulator plus up to `SCOUT_FAN_IN - 1` more,
/// and each is followed by a write-back. Returns the row holding the
/// result; a single row is its own result at no cost.
fn emit_reduce(
    instructions: &mut Vec<CimInstruction>,
    tile: usize,
    rows: &[usize],
    scratch: [usize; 2],
    op: ScoutOp,
) -> usize {
    assert!(!rows.is_empty(), "empty reduction operand list");
    if rows.len() == 1 {
        return rows[0];
    }
    let [mut target, mut spare] = scratch;
    let (first, mut rest) = rows.split_at(SCOUT_FAN_IN.min(rows.len()));
    let mut operands = first.to_vec();
    loop {
        instructions.push(CimInstruction::Logic {
            tile,
            op,
            rows: operands,
        });
        instructions.push(CimInstruction::StoreLast { tile, row: target });
        if rest.is_empty() {
            return target;
        }
        let (next, tail) = rest.split_at((SCOUT_FAN_IN - 1).min(rest.len()));
        operands = [&[target], next].concat();
        rest = tail;
        std::mem::swap(&mut target, &mut spare);
    }
}

/// A dataset's load program lowered over virtual tiles, plus the
/// host-side payload queries against it will need.
#[derive(Debug)]
pub(crate) struct DatasetProgram {
    /// Resident-data writes (Q6 bin rows, CAM entries or programmed
    /// matrices), over virtual tile indices `0..demand`.
    pub instructions: Vec<CimInstruction>,
    /// Tiles the dataset pins for its whole lifetime.
    pub demand: TileDemand,
    /// Host-side query/finalization payload.
    pub payload: ResidentPayload,
    /// Bytes resident in the pinned tiles.
    pub resident_bytes: u64,
    /// The resident rows of each virtual digital tile: what queries may
    /// read but never overwrite.
    pub resident_rows: Vec<Range<usize>>,
}

/// Lowers a [`DatasetSpec`] into its one-time load program.
///
/// A pin the pool can never hold is a sizing error, not admission
/// pressure: a family's tile-count error becomes
/// [`CompileError::DatasetTooLarge`] here. Digital loads split across
/// shards, so their cap is the pool-wide tile count; analog pins (weight
/// matrices, prototype tiles) must still fit one shard.
pub(crate) fn compile_dataset_load(
    spec: &DatasetSpec,
    cfg: &PoolConfig,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    let program = match spec {
        DatasetSpec::Q6Table { rows, table_seed } => q6::load(cfg, *rows, *table_seed),
        DatasetSpec::HdcPrototypes {
            classes,
            d,
            ngram,
            train_len,
        } => hdc::load(cfg, hdc::Task::new(*classes, *d, *ngram, *train_len), seed),
        DatasetSpec::CamRules {
            rules,
            width,
            wildcard_density,
            seed: table_seed,
        } => cam::load_rules(cfg, *rules, *width, *wildcard_density, *table_seed),
        DatasetSpec::CamKeys { keys, width } => cam::load_keys(cfg, keys, *width),
        DatasetSpec::NnWeights { network } => nn::load(cfg, network),
    };
    let too_large = |needed: TileDemand| CompileError::DatasetTooLarge {
        needed,
        pool_capacity: TileDemand {
            digital: cfg.digital_tiles * cfg.shards,
            analog: cfg.analog_tiles,
        },
    };
    program.map_err(|e| match e {
        CompileError::NeedsMoreDigitalTiles { required, .. } => {
            too_large(TileDemand::digital(required))
        }
        CompileError::NeedsMoreAnalogTiles { required, .. } => {
            too_large(TileDemand::analog(required))
        }
        other => other,
    })
}

/// The instructions of a digital-only stream that address virtual tiles
/// `base..base + chunk`, retiled to chunk-local indices, each with its
/// index in the original stream.
fn chunk_of(
    instructions: &[CimInstruction],
    base: usize,
    chunk: usize,
) -> impl Iterator<Item = (usize, CimInstruction)> + '_ {
    instructions
        .iter()
        .enumerate()
        .filter_map(move |(index, instr)| {
            let (TileFamily::Digital, tile) = instr.tile() else {
                unreachable!("splittable streams are digital-only")
            };
            (base..base + chunk).contains(&tile).then(|| {
                let mut instr = instr.clone();
                *instr.tile_mut() -= base;
                (index, instr)
            })
        })
}

/// Splits a digital-tile-parallel compiled job into contiguous
/// virtual-tile chunks — one sub-program per chunk, retiled to local
/// virtual indices `0..chunk`.
///
/// Each sub-program returns its raw chunk responses; the scheduler's
/// gather step concatenates them in chunk order and runs the *parent's*
/// finalizer exactly once over the whole sequence, so a split job
/// decodes through the identical host-side path as an unsplit one —
/// bit-identical results by construction, never a partial-merge
/// approximation.
///
/// `chunks` must partition `parent.demand.digital` in ascending
/// virtual-tile order (instruction emission orders outputs by tile, so
/// contiguous ascending chunks preserve the parent's output order).
pub(crate) fn split_by_digital_tile(
    parent: &CompiledJob,
    chunks: &[usize],
    cfg: &PoolConfig,
) -> Vec<CompiledJob> {
    debug_assert_eq!(
        chunks.iter().sum::<usize>(),
        parent.demand.digital,
        "chunks partition the parent's digital tiles"
    );
    debug_assert_eq!(parent.demand.analog, 0, "only digital jobs split");
    let output_set: BTreeSet<usize> = parent.outputs.iter().copied().collect();
    let mut parts = Vec::with_capacity(chunks.len());
    let mut base = 0usize;
    for (part, &chunk) in chunks.iter().enumerate() {
        let mut instructions = Vec::new();
        let mut outputs = Vec::new();
        for (index, instr) in chunk_of(&parent.instructions, base, chunk) {
            if output_set.contains(&index) {
                outputs.push(instructions.len());
            }
            instructions.push(instr);
        }
        let demand = TileDemand::digital(chunk);
        parts.push(CompiledJob {
            job: parent.job,
            tenant: parent.tenant,
            kind: parent.kind,
            dataset: parent.dataset,
            // Parts are balanced and batched by their own envelopes, so
            // each sub-stream is re-analyzed against its chunk geometry.
            envelope: crate::verify::envelope_of(&instructions, demand, cfg, None),
            demand,
            instructions,
            outputs,
            finalizer: Arc::new(raw::Verbatim),
            // Sub-streams are digital (exact): distinct noise seeds per
            // part cannot change results, only keep streams private.
            seed: crate::mix_seed(parent.seed, 0x5EED ^ part as u64),
            splittable: false,
            // A part is always CIM work: the planner routes whole jobs
            // to the host before any split happens.
            host: None,
        });
        base += chunk;
    }
    parts
}

/// Splits a dataset load program (digital writes over virtual tiles,
/// no outputs) into per-chunk instruction lists retiled to chunk-local
/// virtual indices — the load-side twin of [`split_by_digital_tile`].
pub(crate) fn split_load_by_tile(
    instructions: &[CimInstruction],
    chunks: &[usize],
) -> Vec<Vec<CimInstruction>> {
    let mut base = 0usize;
    chunks
        .iter()
        .map(|&chunk| {
            let part = chunk_of(instructions, base, chunk)
                .map(|(_, instr)| instr)
                .collect();
            base += chunk;
            part
        })
        .collect()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use cim_bitmap_db::tpch::Q6Params;

    /// The default pool geometry.
    pub(crate) fn cfg() -> PoolConfig {
        PoolConfig::default()
    }

    /// Compiles a dataset-free spec as job 0 of tenant 0 on `cfg`.
    pub(crate) fn lower(
        spec: &WorkloadSpec,
        cfg: &PoolConfig,
    ) -> Result<CompiledJob, CompileError> {
        compile(spec, JobId(0), TenantId(0), cfg, None)
    }

    #[test]
    fn split_by_digital_tile_partitions_stream_and_outputs() {
        let spec = WorkloadSpec::Q6Select {
            rows: 3 * cfg().tile_cols,
            table_seed: 4,
            params: Q6Params::tpch_default(),
        };
        let parent = lower(&spec, &cfg()).unwrap();
        assert_eq!(parent.demand.digital, 3);
        let parts = split_by_digital_tile(&parent, &[2, 1], &cfg());
        assert_eq!(parts.len(), 2);
        // Instructions and outputs partition exactly.
        assert_eq!(
            parts.iter().map(|p| p.instructions.len()).sum::<usize>(),
            parent.instructions.len()
        );
        assert_eq!(
            parts.iter().map(|p| p.outputs.len()).sum::<usize>(),
            parent.outputs.len()
        );
        assert_eq!(parts[0].demand.digital, 2);
        assert_eq!(parts[1].demand.digital, 1);
        // Every sub-stream is retiled to local virtual indices and
        // returns its responses verbatim.
        for part in &parts {
            assert_eq!(
                part.finalizer.finalize(vec![CimResponse::Done]),
                JobOutput::Responses(vec![CimResponse::Done])
            );
            assert!(!part.splittable, "sub-programs never re-split");
            for instr in &part.instructions {
                let (family, tile) = instr.tile();
                assert_eq!(family, TileFamily::Digital, "{instr:?}");
                assert!(tile < part.demand.digital);
            }
        }
    }

    /// An impossible dataset pin is a dedicated sizing error, not a
    /// generic capacity failure. Digital loads split across shards, so
    /// it fires only past the *pool* capacity, reported as such
    /// (`pool_capacity`, not one shard).
    #[test]
    fn oversized_dataset_load_is_a_dedicated_error() {
        let c = cfg();
        let pool_tiles = c.digital_tiles * c.shards;
        // One shard's worth plus one: splittable across the pool, so it
        // compiles fine now.
        let fits_pool = DatasetSpec::Q6Table {
            rows: (c.digital_tiles + 1) * c.tile_cols,
            table_seed: 1,
        };
        assert!(compile_dataset_load(&fits_pool, &c, 0).is_ok());
        // The whole pool's worth plus one: can never fit anywhere.
        let q6 = DatasetSpec::Q6Table {
            rows: (pool_tiles + 1) * c.tile_cols,
            table_seed: 1,
        };
        match compile_dataset_load(&q6, &c, 0) {
            Err(CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            }) => {
                assert_eq!(needed.digital, pool_tiles + 1);
                assert_eq!(pool_capacity.digital, pool_tiles);
            }
            other => panic!("expected DatasetTooLarge, got {other:?}"),
        }
        // Analog pins are not split: one shard's analog tiles remain
        // the limit for weight matrices. Layers pack side by side, so a
        // three-layer network fits one tile...
        let nn = |dims: &[usize]| DatasetSpec::NnWeights {
            network: cim_nn::binarized::BinarizedMlp::random(dims, 1),
        };
        let packed = compile_dataset_load(&nn(&[8, 8, 8, 4]), &c, 0).map(|p| p.demand);
        assert_eq!(packed, Ok(TileDemand::analog(1)));
        // ...and the refusal is for blocks that need more tiles than a
        // shard has: on 16-column tiles, 8x16 fills one, two 8x8 layers
        // a second, and the 4x8 layer would open a third.
        let narrow = PoolConfig {
            analog_cols: 16,
            ..c
        };
        match compile_dataset_load(&nn(&[16, 8, 8, 8, 4]), &narrow, 0) {
            Err(CompileError::DatasetTooLarge {
                needed,
                pool_capacity,
            }) => {
                assert_eq!(needed.analog, 3, "the packed blocks need three tiles");
                assert_eq!(pool_capacity.analog, narrow.analog_tiles);
            }
            other => panic!("expected DatasetTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn empty_workloads_rejected() {
        for spec in [
            WorkloadSpec::Q6Select {
                rows: 0,
                table_seed: 0,
                params: Q6Params::tpch_default(),
            },
            WorkloadSpec::XorEncrypt {
                message: vec![],
                key_seed: 0,
            },
            WorkloadSpec::ScoutBulk {
                op: ScoutOp::Or,
                rows: vec![],
            },
        ] {
            assert!(
                matches!(lower(&spec, &cfg()), Err(CompileError::EmptyWorkload)),
                "{spec:?}"
            );
        }
    }
}
