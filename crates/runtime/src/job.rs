//! Jobs: what tenants submit and what the pool returns.
//!
//! A [`WorkloadSpec`] names one application kernel with its parameters.
//! The compile layer lowers it to an instruction stream; the
//! scheduler executes it on a shard and returns a [`JobReport`] with the
//! decoded [`JobOutput`], per-job [`ExecutionStats`] and the
//! speedup-vs-host estimate from the `cim-arch` analytical models.

use cim_bitmap_db::query::Q6Result;
use cim_bitmap_db::tpch::Q6Params;
use cim_core::isa::{CimInstruction, CimResponse, MatchKind};
use cim_core::offload::OffloadEstimate;
use cim_core::ExecutionStats;
use cim_crossbar::energy::OperationCost;
use cim_crossbar::scouting::ScoutOp;
use cim_imgproc::image::GrayImage;
use cim_nn::binarized::BinarizedMlp;
use cim_simkit::bitvec::BitVec;
use std::fmt;

/// Identifies a tenant (an isolation domain for tiles and telemetry).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u32);

/// Identifies a submitted job. Ids are assigned in submission order and
/// reports are returned sorted by id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct JobId(pub u64);

/// Identifies a resident dataset registered through
/// [`crate::PoolClient::register_dataset`]. Ids are assigned in
/// registration order, pool-wide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DatasetId(pub u64);

impl fmt::Display for TenantId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant-{}", self.0)
    }
}

impl fmt::Display for JobId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

impl fmt::Display for DatasetId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dataset-{}", self.0)
    }
}

/// Where a submitted job currently is in its lifecycle, as observed by
/// [`crate::JobHandle::poll`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Compiled and queued in the pool, not yet dispatched to a shard.
    /// Jobs dispatch when the pool flushes (explicitly via
    /// [`crate::PoolClient::flush`], or implicitly on any `wait`).
    Queued,
    /// Dispatched to a shard worker; its report has not arrived yet.
    Dispatched,
    /// The job's [`JobReport`] is ready;
    /// [`crate::JobHandle::wait`] returns without blocking.
    Completed,
}

/// One application workload a tenant can submit to the pool.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkloadSpec {
    /// TPC-H Query-6 selection over a synthetic `lineitem` table, the
    /// `cim-bitmap-db` workload: bitmap bins resident as tile rows,
    /// predicate ORs and the final AND as Scouting-Logic accesses.
    Q6Select {
        /// Table rows to generate.
        rows: usize,
        /// Seed of the synthetic table.
        table_seed: u64,
        /// Query parameters.
        params: Q6Params,
    },
    /// Hyperdimensional language classification, the `cim-hdc` workload:
    /// class prototypes programmed into an analog tile, one matrix-vector
    /// product per query.
    HdcClassify {
        /// Number of synthetic languages.
        classes: usize,
        /// Hypervector dimension.
        d: usize,
        /// n-gram order of the encoder.
        ngram: usize,
        /// Training symbols per language.
        train_len: usize,
        /// Queries to classify (round-robin over classes).
        samples: usize,
        /// Symbols per query.
        sample_len: usize,
    },
    /// One-time-pad encryption, the `cim-xor-cipher` workload: message
    /// and key rows XOR-ed by two-row sensing.
    XorEncrypt {
        /// Plaintext bytes.
        message: Vec<u8>,
        /// Seed of the generated pad.
        key_seed: u64,
    },
    /// A bulk Scouting-Logic reduction over caller-provided rows.
    ScoutBulk {
        /// The bit-wise operation (XOR requires exactly two rows).
        op: ScoutOp,
        /// Operand rows; all must share one width.
        rows: Vec<BitVec>,
    },
    /// A raw pre-compiled instruction stream (virtual tile indices).
    ///
    /// The escape hatch for tooling and tests; instruction tile indices
    /// are still validated against the declared demand, so a raw stream
    /// cannot escape its lease.
    Raw {
        /// Digital tiles requested.
        digital_tiles: usize,
        /// Analog tiles requested.
        analog_tiles: usize,
        /// The stream to execute.
        instructions: Vec<CimInstruction>,
    },
    /// A raw pre-compiled instruction stream executed over a resident
    /// dataset's pinned tiles (virtual tile indices into the dataset's
    /// placement).
    ///
    /// The tooling escape hatch for datasets: custom query programs the
    /// built-in query specs do not cover. The verifier always checks
    /// these streams — reads of dataset rows are fine, but writes into
    /// anything the dataset pinned are rejected at admission
    /// (`L007-RESIDENT-WRITE`), since the dataset outlives the job.
    RawQuery {
        /// The registered dataset whose tiles the stream addresses.
        dataset: DatasetId,
        /// The stream to execute.
        instructions: Vec<CimInstruction>,
    },
    /// A Query-6 selection against a resident
    /// [`crate::DatasetSpec::Q6Table`] dataset: the bitmap bins are
    /// already pinned in the dataset's tiles, so the job carries only
    /// the query-side reductions (no resident-data writes).
    Q6Query {
        /// The registered dataset to query.
        dataset: DatasetId,
        /// Query parameters.
        params: Q6Params,
    },
    /// Classification queries against a resident
    /// [`crate::DatasetSpec::HdcPrototypes`] dataset: the prototype
    /// matrix is already programmed into the dataset's analog tile, so
    /// the job carries only the per-query matrix-vector products.
    HdcQuery {
        /// The registered dataset to query.
        dataset: DatasetId,
        /// Queries to classify (round-robin over the dataset's classes).
        samples: usize,
        /// Symbols per query.
        sample_len: usize,
    },
    /// Binarized neural-network inference, the `cim-nn` workload: every
    /// layer's ±1 weight matrix is programmed into its own analog tile
    /// and each inference runs one matrix-vector product per layer,
    /// with sign activations and the final argmax applied host-side.
    /// Outputs are bit-identical to [`BinarizedMlp::scores`] — the
    /// parity-lattice decode absorbs the analog read noise.
    NnInfer {
        /// The network to serve (weights programmed by this job, paid
        /// on every submission — register a
        /// [`crate::DatasetSpec::NnWeights`] dataset to amortize them).
        network: BinarizedMlp,
        /// Input vectors, one inference each (`true → +1`,
        /// `false → −1`; length must equal the network's input width).
        inputs: Vec<BitVec>,
    },
    /// Inference against a resident [`crate::DatasetSpec::NnWeights`]
    /// dataset: the weight matrices are already programmed into the
    /// dataset's pinned analog tiles, so the job carries only the
    /// per-layer matrix-vector products — no weight writes at all.
    NnQuery {
        /// The registered dataset to query.
        dataset: DatasetId,
        /// Input vectors, one inference each.
        inputs: Vec<BitVec>,
    },
    /// An associative search against a resident
    /// [`crate::DatasetSpec::CamRules`] or
    /// [`crate::DatasetSpec::CamKeys`] dataset: every key is one
    /// match-line access per resident tile, returning the raw per-entry
    /// match bits. The lowest-level associative workload — the
    /// classification and lookup specs below are conveniences over it.
    CamSearch {
        /// The registered dataset to search.
        dataset: DatasetId,
        /// Exact, ternary or analog range semantics.
        kind: MatchKind,
        /// Search keys, one match-line access per key per tile (each
        /// key's width must equal the dataset's entry width).
        keys: Vec<BitVec>,
    },
    /// Packet classification against a resident
    /// [`crate::DatasetSpec::CamRules`] rule table: one ternary search
    /// per packet, resolved to the highest-priority (lowest-index)
    /// matching rule host-side. Bit-identical to
    /// [`cim_crossbar::RuleSet::classify`].
    RuleClassify {
        /// The registered rule table to classify against.
        dataset: DatasetId,
        /// Packets as machine words (low `width` bits used).
        packets: Vec<u64>,
    },
    /// Key lookup against a resident [`crate::DatasetSpec::CamKeys`]
    /// dictionary: one exact search per probe, resolved to the
    /// lowest-index matching slot host-side — the CAM-side half of a
    /// dictionary join.
    KeyLookup {
        /// The registered key dictionary to probe.
        dataset: DatasetId,
        /// Probe keys as machine words (low `width` bits used).
        probes: Vec<u64>,
    },
    /// Hyperdimensional associative memory served by the CAM tiles:
    /// class prototypes stored as CAM entries, each query resolved by an
    /// expanding Hamming-distance window sweep
    /// ([`MatchKind::Range`]) with a host re-rank over the final match
    /// set. Replaces [`WorkloadSpec::HdcClassify`]'s host-side argmax
    /// with in-memory search; predictions are bit-identical to it under
    /// binarized readout.
    HdcAssoc {
        /// Number of synthetic languages.
        classes: usize,
        /// Hypervector dimension.
        d: usize,
        /// n-gram order of the encoder.
        ngram: usize,
        /// Training symbols per language.
        train_len: usize,
        /// Queries to classify (round-robin over classes).
        samples: usize,
        /// Symbols per query.
        sample_len: usize,
    },
    /// Image filtering, the `cim-imgproc` workload: the 8-bit-quantized
    /// image resides as packed rows in digital tiles and every output
    /// row streams its `(2r+1)`-row neighbourhood through row reads —
    /// the §III-A access pattern — while the filter arithmetic runs in
    /// the host finalizer. Output is bit-identical to running the
    /// filter on [`GrayImage::quantized`]`(8)` directly.
    ImgFilter {
        /// The image to filter (quantized to 8 bits on residency).
        image: GrayImage,
        /// Which filter to apply.
        filter: ImgFilterOp,
    },
}

/// The filter an [`WorkloadSpec::ImgFilter`] job applies.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ImgFilterOp {
    /// Mean over a `(2r+1) × (2r+1)` window (`cim_imgproc::boxfilter`).
    Box {
        /// Window radius.
        radius: usize,
    },
    /// Self-guided edge-preserving filter (`cim_imgproc::guided`).
    Guided {
        /// Window radius.
        radius: usize,
        /// Regularization ε.
        epsilon: f64,
    },
}

impl ImgFilterOp {
    /// The neighbourhood radius the filter reads around each pixel.
    pub fn radius(&self) -> usize {
        match self {
            ImgFilterOp::Box { radius } | ImgFilterOp::Guided { radius, .. } => *radius,
        }
    }

    /// Applies the filter on the host — the single dispatch both the
    /// runtime's finalizer and any direct-path reference use, so the
    /// bit-identity contract cannot drift between the two.
    pub fn apply(&self, img: &GrayImage) -> GrayImage {
        match self {
            ImgFilterOp::Box { radius } => cim_imgproc::boxfilter::box_filter(img, *radius),
            ImgFilterOp::Guided { radius, epsilon } => cim_imgproc::guided::guided_filter(
                img,
                img,
                &cim_imgproc::guided::GuidedParams {
                    radius: *radius,
                    epsilon: *epsilon,
                },
            ),
        }
    }
}

/// Coarse workload family, used for batch-compatibility decisions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobKind {
    /// [`WorkloadSpec::Q6Select`].
    Q6Select,
    /// [`WorkloadSpec::HdcClassify`].
    HdcClassify,
    /// [`WorkloadSpec::XorEncrypt`].
    XorEncrypt,
    /// [`WorkloadSpec::ScoutBulk`].
    ScoutBulk,
    /// [`WorkloadSpec::Raw`].
    Raw,
    /// [`WorkloadSpec::Q6Query`].
    Q6Query,
    /// [`WorkloadSpec::HdcQuery`].
    HdcQuery,
    /// [`WorkloadSpec::NnInfer`].
    NnInfer,
    /// [`WorkloadSpec::NnQuery`].
    NnQuery,
    /// [`WorkloadSpec::CamSearch`].
    CamSearch,
    /// [`WorkloadSpec::RuleClassify`].
    RuleClassify,
    /// [`WorkloadSpec::KeyLookup`].
    KeyLookup,
    /// [`WorkloadSpec::HdcAssoc`].
    HdcAssoc,
    /// [`WorkloadSpec::ImgFilter`].
    ImgFilter,
}

impl JobKind {
    /// Stable lowercase label, used for trace attributes and reports.
    pub fn label(&self) -> &'static str {
        match self {
            JobKind::Q6Select => "q6-select",
            JobKind::HdcClassify => "hdc-classify",
            JobKind::XorEncrypt => "xor-encrypt",
            JobKind::ScoutBulk => "scout-bulk",
            JobKind::Raw => "raw",
            JobKind::Q6Query => "q6-query",
            JobKind::HdcQuery => "hdc-query",
            JobKind::NnInfer => "nn-infer",
            JobKind::NnQuery => "nn-query",
            JobKind::CamSearch => "cam-search",
            JobKind::RuleClassify => "rule-classify",
            JobKind::KeyLookup => "key-lookup",
            JobKind::HdcAssoc => "hdc-assoc",
            JobKind::ImgFilter => "img-filter",
        }
    }
}

impl WorkloadSpec {
    /// The workload's family.
    pub fn kind(&self) -> JobKind {
        match self {
            WorkloadSpec::Q6Select { .. } => JobKind::Q6Select,
            WorkloadSpec::HdcClassify { .. } => JobKind::HdcClassify,
            WorkloadSpec::XorEncrypt { .. } => JobKind::XorEncrypt,
            WorkloadSpec::ScoutBulk { .. } => JobKind::ScoutBulk,
            WorkloadSpec::Raw { .. } | WorkloadSpec::RawQuery { .. } => JobKind::Raw,
            WorkloadSpec::Q6Query { .. } => JobKind::Q6Query,
            WorkloadSpec::HdcQuery { .. } => JobKind::HdcQuery,
            WorkloadSpec::NnInfer { .. } => JobKind::NnInfer,
            WorkloadSpec::NnQuery { .. } => JobKind::NnQuery,
            WorkloadSpec::CamSearch { .. } => JobKind::CamSearch,
            WorkloadSpec::RuleClassify { .. } => JobKind::RuleClassify,
            WorkloadSpec::KeyLookup { .. } => JobKind::KeyLookup,
            WorkloadSpec::HdcAssoc { .. } => JobKind::HdcAssoc,
            WorkloadSpec::ImgFilter { .. } => JobKind::ImgFilter,
        }
    }

    /// The resident dataset the workload queries, if any.
    pub fn dataset(&self) -> Option<DatasetId> {
        match self {
            WorkloadSpec::Q6Query { dataset, .. }
            | WorkloadSpec::HdcQuery { dataset, .. }
            | WorkloadSpec::NnQuery { dataset, .. }
            | WorkloadSpec::CamSearch { dataset, .. }
            | WorkloadSpec::RuleClassify { dataset, .. }
            | WorkloadSpec::KeyLookup { dataset, .. }
            | WorkloadSpec::RawQuery { dataset, .. } => Some(*dataset),
            _ => None,
        }
    }
}

/// Outcome of a hyperdimensional classification job.
#[derive(Debug, Clone, PartialEq)]
pub struct HdcOutcome {
    /// Predicted class per query.
    pub predictions: Vec<usize>,
    /// Ground-truth class per query.
    pub expected: Vec<usize>,
}

impl HdcOutcome {
    /// Fraction of queries classified correctly.
    pub fn accuracy(&self) -> f64 {
        if self.predictions.is_empty() {
            return 0.0;
        }
        let correct = self
            .predictions
            .iter()
            .zip(&self.expected)
            .filter(|(p, e)| p == e)
            .count();
        correct as f64 / self.predictions.len() as f64
    }
}

/// Outcome of a binarized-inference job.
#[derive(Debug, Clone, PartialEq)]
pub struct NnOutcome {
    /// Predicted class per input (argmax of the scores, ties → first).
    pub predictions: Vec<usize>,
    /// Exact integer output scores per input, recovered from the
    /// analog readout by the parity-lattice snap.
    pub scores: Vec<Vec<i64>>,
}

/// The decoded result of a completed job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutput {
    /// Query-6 revenue and match count.
    Q6(Q6Result),
    /// Classification predictions.
    Hdc(HdcOutcome),
    /// Ciphertext bytes.
    Cipher(Vec<u8>),
    /// Result row of a bulk reduction.
    Bits(BitVec),
    /// Binarized-inference predictions and integer scores.
    Nn(NnOutcome),
    /// A filtered image.
    Image(GrayImage),
    /// Per-key match sets of a [`WorkloadSpec::CamSearch`] job: bit `s`
    /// of entry `keys[q]` is set when resident entry `s` matched key
    /// `q` (entries in dataset order across tiles).
    Matches(Vec<BitVec>),
    /// Per-probe resolved slots: for [`WorkloadSpec::RuleClassify`] the
    /// highest-priority (lowest-index) matching rule, for
    /// [`WorkloadSpec::KeyLookup`] the lowest-index matching dictionary
    /// slot; `None` when nothing matched.
    Lookups(Vec<Option<u32>>),
    /// Raw responses of every instruction in a [`WorkloadSpec::Raw`] job.
    Responses(Vec<CimResponse>),
}

/// Why a job failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// An instruction addressed a tile outside the job's lease.
    TileFault {
        /// The offending virtual tile index.
        virtual_tile: usize,
        /// Tiles actually granted.
        granted: usize,
        /// `true` if the analog index space, `false` if digital.
        analog: bool,
    },
    /// A `StoreLast` appeared before any bits-producing instruction.
    StoreWithoutResult {
        /// Index of the offending instruction.
        index: usize,
    },
    /// The instruction stream panicked inside the accelerator (shape
    /// mismatch, unsupported fan-in…). The shard survives; the job is
    /// failed and its lease scrubbed.
    ExecutionPanic {
        /// The captured panic message.
        message: String,
    },
    /// At dispatch time no shard had enough free (un-pinned) tiles for
    /// the job's lease. This can only happen when datasets registered
    /// after submission pinned tiles on every shard that could have
    /// fit the job when it was validated.
    AdmissionFailed {
        /// Digital tiles the job needs.
        digital_required: usize,
        /// Digital tiles free on the selected shard.
        digital_free: usize,
        /// Analog tiles the job needs.
        analog_required: usize,
        /// Analog tiles free on the selected shard.
        analog_free: usize,
    },
    /// The queried dataset was released (every [`crate::DatasetHandle`]
    /// dropped) between submission and dispatch.
    DatasetReleased {
        /// The dataset the job referenced.
        dataset: DatasetId,
    },
    /// The static verifier (`cim-lint`) found error-severity defects in
    /// the compiled instruction stream: the program would fault, read
    /// garbage, or corrupt resident state on the accelerator. Terminal
    /// and raised before any device state is touched — the pool stays
    /// fully serviceable. Raw streams, which are tenant input, are
    /// always verified; compiled workloads are lint-clean by
    /// construction.
    RejectedByVerifier {
        /// The error-severity findings, in instruction order, with
        /// stable rule codes (`L001-UNINIT-READ` …).
        diagnostics: Vec<cim_lint::Diagnostic>,
    },
    /// The workload can never be admitted on this pool: even with every
    /// tile free — and cross-shard splitting for tile-parallel
    /// workloads — its demand exceeds what the pool owns. Terminal:
    /// unlike the transient `NeedsMore…Tiles` submission errors,
    /// resubmitting cannot succeed; reshape the workload or grow the
    /// pool. Surfaced as a synthesized failure report so callers can
    /// tell it apart from retryable admission pressure.
    WorkloadTooLarge {
        /// Digital tiles the job needs at once.
        digital_required: usize,
        /// Analog tiles the job needs at once.
        analog_required: usize,
        /// Digital tiles the job could ever use: the whole pool for a
        /// splittable workload, one shard otherwise.
        digital_capacity: usize,
        /// Analog tiles the job could ever use (one shard — analog
        /// workloads are not split).
        analog_capacity: usize,
    },
}

impl fmt::Display for JobError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobError::TileFault {
                virtual_tile,
                granted,
                analog,
            } => write!(
                f,
                "tile fault: {} tile {} outside lease of {} tiles",
                if *analog { "analog" } else { "digital" },
                virtual_tile,
                granted
            ),
            JobError::StoreWithoutResult { index } => {
                write!(f, "instruction {index}: StoreLast with no pending result")
            }
            JobError::ExecutionPanic { message } => {
                write!(f, "instruction stream panicked: {message}")
            }
            JobError::AdmissionFailed {
                digital_required,
                digital_free,
                analog_required,
                analog_free,
            } => write!(
                f,
                "lease unavailable: needs {digital_required} digital + {analog_required} analog \
                 tiles, shard has {digital_free} + {analog_free} free"
            ),
            JobError::DatasetReleased { dataset } => {
                write!(f, "{dataset} was released before the job dispatched")
            }
            JobError::RejectedByVerifier { diagnostics } => {
                write!(f, "rejected by verifier: {} error(s)", diagnostics.len())?;
                if let Some(first) = diagnostics.first() {
                    write!(f, "; first: {first}")?;
                }
                Ok(())
            }
            JobError::WorkloadTooLarge {
                digital_required,
                analog_required,
                digital_capacity,
                analog_capacity,
            } => write!(
                f,
                "workload can never fit: needs {digital_required} digital + {analog_required} \
                 analog tiles, the pool can ever grant {digital_capacity} + {analog_capacity}: \
                 split the workload or grow the pool"
            ),
        }
    }
}

impl std::error::Error for JobError {}

/// Wall-clock latency of one job's trip through the pool, measured by
/// the scheduler and stamped on the report at completion — so
/// [`crate::JobHandle::wait`] callers see latency without wiring a
/// trace sink.
///
/// Wall times vary run to run; [`JobReport`]'s equality deliberately
/// ignores this field so reports of identical seeded executions still
/// compare equal.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct JobTiming {
    /// Submission (admission into the queue) to dispatch. For jobs that
    /// failed before dispatch this covers submission to failure.
    pub queued: std::time::Duration,
    /// Dispatch to report completion (shard transit, execution, gather).
    /// Zero for jobs that never dispatched.
    pub service: std::time::Duration,
    /// Submission to report completion (`queued` + `service`).
    pub total: std::time::Duration,
}

/// Where the admission planner executed a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum JobRoute {
    /// The job ran on the CIM pool (shards, batches, device models).
    Cim,
    /// The offload planner kept the job on the host: its envelope lost
    /// to the host-fallback cost (or the policy forced the host lane),
    /// and the precomputed bit-identical host result was served without
    /// touching a shard — `shards` is empty and no batch id is
    /// consumed.
    Host,
}

/// Everything the pool reports back about one job.
///
/// Equality compares every deterministic field and ignores
/// [`JobReport::timing`] (wall clock): two seeded runs of the same
/// workload produce equal reports even though their latencies differ.
#[derive(Debug, Clone)]
pub struct JobReport {
    /// The job.
    pub job: JobId,
    /// Its tenant.
    pub tenant: TenantId,
    /// Its workload family.
    pub kind: JobKind,
    /// The resident dataset the job queried, if any. Telemetry uses
    /// this to attribute the job's stats to the dataset's query side.
    pub dataset: Option<DatasetId>,
    /// Shard that executed it (for a cross-shard split job: the shard
    /// of the first sub-program; see [`JobReport::shards`]).
    pub shard: usize,
    /// Every shard that executed part of the job, in sub-program order.
    /// A singleton for ordinary jobs; several entries when an oversized
    /// job was scatter-gathered across shards. Empty only for jobs that
    /// failed before reaching any shard.
    pub shards: Vec<usize>,
    /// Batch it was coalesced into (`u64::MAX` if the job failed at
    /// dispatch and never reached a shard, or was host-routed).
    pub batch: u64,
    /// Which lane the planner executed the job on. Host-routed jobs
    /// report `shards: []` and a `u64::MAX` batch.
    pub route: JobRoute,
    /// Decoded output, or the isolation/validation error.
    pub output: Result<JobOutput, JobError>,
    /// Instruction counts, energy and busy time attributed to this job.
    pub stats: ExecutionStats,
    /// Post-job scrubbing overhead (tile hygiene between tenants).
    pub maintenance: OperationCost,
    /// Speedup/energy-gain estimate vs the conventional host, from the
    /// `cim-arch` §II-C analytical models.
    pub offload: OffloadEstimate,
    /// Device-tier cost drivers attributed to this job: words touched,
    /// columns sampled, program-and-verify pulses, analog noise-model
    /// samples. Deterministic, unlike wall timing.
    pub device: cim_core::DeviceCounters,
    /// Wall-clock queue/service/total latency (excluded from equality).
    pub timing: JobTiming,
}

impl PartialEq for JobReport {
    fn eq(&self, other: &Self) -> bool {
        // `timing` is deliberately omitted: wall-clock latency differs
        // between otherwise identical seeded runs.
        self.job == other.job
            && self.tenant == other.tenant
            && self.kind == other.kind
            && self.dataset == other.dataset
            && self.shard == other.shard
            && self.shards == other.shards
            && self.batch == other.batch
            && self.route == other.route
            && self.output == other.output
            && self.stats == other.stats
            && self.maintenance == other.maintenance
            && self.offload == other.offload
            && self.device == other.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kinds_match_specs() {
        let spec = WorkloadSpec::XorEncrypt {
            message: vec![1, 2],
            key_seed: 3,
        };
        assert_eq!(spec.kind(), JobKind::XorEncrypt);
        let raw = WorkloadSpec::Raw {
            digital_tiles: 1,
            analog_tiles: 0,
            instructions: vec![],
        };
        assert_eq!(raw.kind(), JobKind::Raw);
    }

    #[test]
    fn hdc_accuracy_counts_matches() {
        let o = HdcOutcome {
            predictions: vec![0, 1, 2, 2],
            expected: vec![0, 1, 2, 3],
        };
        assert!((o.accuracy() - 0.75).abs() < 1e-12);
        let empty = HdcOutcome {
            predictions: vec![],
            expected: vec![],
        };
        assert_eq!(empty.accuracy(), 0.0);
    }

    #[test]
    fn errors_render() {
        let e = JobError::TileFault {
            virtual_tile: 7,
            granted: 2,
            analog: false,
        };
        assert!(e.to_string().contains("digital tile 7"));
        assert!(e.to_string().contains("2 tiles"));
        let s = JobError::StoreWithoutResult { index: 3 };
        assert!(s.to_string().contains("instruction 3"));
    }

    #[test]
    fn ids_display() {
        assert_eq!(TenantId(4).to_string(), "tenant-4");
        assert_eq!(JobId(9).to_string(), "job-9");
        assert_eq!(DatasetId(2).to_string(), "dataset-2");
    }

    #[test]
    fn nn_and_img_specs_classify() {
        let mlp = BinarizedMlp::random(&[4, 3], 1);
        let infer = WorkloadSpec::NnInfer {
            network: mlp,
            inputs: vec![BitVec::ones(4)],
        };
        assert_eq!(infer.kind(), JobKind::NnInfer);
        assert_eq!(infer.dataset(), None);
        let query = WorkloadSpec::NnQuery {
            dataset: DatasetId(7),
            inputs: vec![BitVec::zeros(4)],
        };
        assert_eq!(query.kind(), JobKind::NnQuery);
        assert_eq!(query.dataset(), Some(DatasetId(7)));
        let img = WorkloadSpec::ImgFilter {
            image: GrayImage::constant(4, 4, 0.5),
            filter: ImgFilterOp::Guided {
                radius: 2,
                epsilon: 0.01,
            },
        };
        assert_eq!(img.kind(), JobKind::ImgFilter);
        assert_eq!(img.dataset(), None);
        assert_eq!(ImgFilterOp::Box { radius: 3 }.radius(), 3);
    }

    #[test]
    fn cam_specs_classify_and_name_their_dataset() {
        let search = WorkloadSpec::CamSearch {
            dataset: DatasetId(5),
            kind: MatchKind::Ternary,
            keys: vec![BitVec::zeros(16)],
        };
        assert_eq!(search.kind(), JobKind::CamSearch);
        assert_eq!(search.kind().label(), "cam-search");
        assert_eq!(search.dataset(), Some(DatasetId(5)));
        let classify = WorkloadSpec::RuleClassify {
            dataset: DatasetId(6),
            packets: vec![0b1010],
        };
        assert_eq!(classify.kind().label(), "rule-classify");
        assert_eq!(classify.dataset(), Some(DatasetId(6)));
        let lookup = WorkloadSpec::KeyLookup {
            dataset: DatasetId(7),
            probes: vec![3, 9],
        };
        assert_eq!(lookup.kind().label(), "key-lookup");
        assert_eq!(lookup.dataset(), Some(DatasetId(7)));
        let assoc = WorkloadSpec::HdcAssoc {
            classes: 4,
            d: 256,
            ngram: 3,
            train_len: 100,
            samples: 8,
            sample_len: 20,
        };
        assert_eq!(assoc.kind().label(), "hdc-assoc");
        assert_eq!(assoc.dataset(), None, "HdcAssoc carries its own prototypes");
    }

    #[test]
    fn query_specs_name_their_dataset() {
        let q = WorkloadSpec::HdcQuery {
            dataset: DatasetId(3),
            samples: 4,
            sample_len: 50,
        };
        assert_eq!(q.kind(), JobKind::HdcQuery);
        assert_eq!(q.dataset(), Some(DatasetId(3)));
        let plain = WorkloadSpec::XorEncrypt {
            message: vec![1],
            key_seed: 0,
        };
        assert_eq!(plain.dataset(), None);
    }
}
