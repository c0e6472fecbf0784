//! Resident datasets: pool-managed, reference-counted data leases.
//!
//! The DATE'19 CIM case wins precisely when resident data is written
//! into the crossbar once and then read by many queries. A
//! [`DatasetSpec`] names such a data set (TPC-H Q6 bitmap bins, HDC
//! class prototypes, NN weights, CAM rule tables and key
//! dictionaries); [`crate::PoolClient::register_dataset`] compiles its
//! load program, pins tiles on one shard — or scatters chunks of its
//! digital tiles across several when no one shard can hold it —
//! executes the load once and returns a [`DatasetHandle`].
//!
//! An analog dataset (NN weights, HDC prototypes) also keeps an exact
//! *replica* on every other shard with free analog tiles, and its
//! queries rotate over the copies, so the shards' crossbars serve it in
//! parallel. PCM fabrication draws nothing and a load draws only from
//! the dataset's seed, so every copy holds the same conductances and
//! serves bit-identical reports. A replica never costs capacity: the
//! pool counts its tiles as free, and a fresh lease or a new pin that
//! needs them drops the replica first.
//!
//! The handle is the lease: it is cheaply cloneable
//! (reference-counted), and the pinned tiles stay resident — and their
//! loading writes stay amortized across every query — until the *last*
//! clone drops. Only then is the lease scrubbed and the tiles returned
//! to the free pool, so no later tenant can ever observe the data.
//! Telemetry keeps the load-side cost and the query-side cost separate
//! (see [`crate::telemetry::DatasetUsage`]) so the amortization is
//! measurable.

use crate::job::{DatasetId, TenantId};
use crate::schedule::PoolShared;
use cim_bitmap_db::tpch::LineItemTable;
use cim_crossbar::cam::RuleSet;
use cim_hdc::lang::LanguageTask;
use cim_lint::Block;
use cim_nn::binarized::BinarizedMlp;
use std::ops::Range;
use std::sync::Arc;

/// A data set that can be made resident in pool tiles and queried
/// repeatedly without re-paying its loading writes.
#[derive(Debug, Clone, PartialEq)]
pub enum DatasetSpec {
    /// A synthetic TPC-H `lineitem` table, resident as transposed
    /// bitmap bins in digital tiles. Queried with
    /// [`crate::WorkloadSpec::Q6Query`].
    Q6Table {
        /// Table rows to generate.
        rows: usize,
        /// Seed of the synthetic table.
        table_seed: u64,
    },
    /// Trained HDC language prototypes, resident as a programmed
    /// matrix in one analog tile. Queried with
    /// [`crate::WorkloadSpec::HdcQuery`].
    HdcPrototypes {
        /// Number of synthetic languages.
        classes: usize,
        /// Hypervector dimension.
        d: usize,
        /// n-gram order of the encoder, at most `d`.
        ngram: usize,
        /// Training symbols per language; `classes × train_len` must
        /// stay within the host-work budget of 2¹⁸ symbols.
        train_len: usize,
    },
    /// A synthetic priority-ordered ternary rule table, resident as CAM
    /// entries (value + care row pairs) in digital tiles. Searched with
    /// [`crate::WorkloadSpec::CamSearch`] and classified against with
    /// [`crate::WorkloadSpec::RuleClassify`].
    CamRules {
        /// Rules to generate.
        rules: usize,
        /// Rule width in bits (≤ 64 so packets fit machine words).
        width: usize,
        /// Per-bit wildcard probability.
        wildcard_density: f64,
        /// Seed of the synthetic table.
        seed: u64,
    },
    /// An explicit key dictionary, resident as binary-CAM entries
    /// (all-ones care rows) in digital tiles — the build side of a
    /// dictionary join. Probed with
    /// [`crate::WorkloadSpec::KeyLookup`] (exact search, lowest-index
    /// slot wins) or searched raw with
    /// [`crate::WorkloadSpec::CamSearch`].
    CamKeys {
        /// The dictionary keys, one CAM slot each (low `width` bits).
        keys: Vec<u64>,
        /// Key width in bits (1..=64).
        width: usize,
    },
    /// A binarized network's weight matrices, resident as one column
    /// block per layer, packed into as few analog tiles as hold them —
    /// the canonical stationary operand of crossbar inference. Queried with
    /// [`crate::WorkloadSpec::NnQuery`], whose jobs carry only
    /// matrix-vector products: the weight writes are paid exactly once,
    /// here.
    NnWeights {
        /// The network whose weights go resident.
        network: BinarizedMlp,
    },
}

/// A reference-counted lease on a resident dataset.
///
/// Clones share the lease; the pool scrubs the pinned tiles and frees
/// them only when the last clone drops. Obtain one from
/// [`crate::PoolClient::register_dataset`] and query it by passing
/// [`DatasetHandle::id`] in a dataset query ([`crate::WorkloadSpec`]'s
/// `Q6Query`, `HdcQuery`, `NnQuery`, `CamSearch`, `RuleClassify`,
/// `KeyLookup` or `RawQuery`) submitted from the owning tenant's
/// session.
#[derive(Debug, Clone)]
pub struct DatasetHandle {
    core: Arc<DatasetCore>,
}

impl DatasetHandle {
    pub(crate) fn new(
        shared: Arc<PoolShared>,
        id: DatasetId,
        tenant: TenantId,
        shards: Vec<usize>,
    ) -> Self {
        DatasetHandle {
            core: Arc::new(DatasetCore {
                shared,
                id,
                tenant,
                shards,
            }),
        }
    }

    /// The dataset's pool-wide id (what query specs reference).
    pub fn id(&self) -> DatasetId {
        self.core.id
    }

    /// The tenant that owns the lease; only this tenant's sessions may
    /// query the dataset.
    pub fn tenant(&self) -> TenantId {
        self.core.tenant
    }

    /// The first (primary) shard the dataset is resident on. A dataset
    /// bigger than one shard spans several — see
    /// [`DatasetHandle::shards`]; queries are scatter-gathered so each
    /// chunk routes to the shard pinning its tiles. Replicas of an
    /// analog dataset are not listed here: they come and go with the
    /// pool's free tiles (see [`crate::telemetry::DatasetUsage::copies`]).
    pub fn shard(&self) -> usize {
        self.core.shards[0]
    }

    /// Every shard holding a chunk of the dataset's primary copy, in
    /// virtual tile order. A singleton when the whole pin fits one
    /// shard.
    pub fn shards(&self) -> &[usize] {
        &self.core.shards
    }

    /// Number of live lease clones (this one included). The pinned
    /// tiles are scrubbed when this reaches zero.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.core)
    }
}

/// The shared inner of a [`DatasetHandle`]; dropping the last `Arc`
/// releases the lease.
#[derive(Debug)]
struct DatasetCore {
    shared: Arc<PoolShared>,
    id: DatasetId,
    tenant: TenantId,
    shards: Vec<usize>,
}

impl Drop for DatasetCore {
    fn drop(&mut self) {
        self.shared.release_dataset(self.id);
    }
}

/// What a loaded dataset holds host-side: everything query compilation
/// and finalization need, its bulky parts behind `Arc`s so a finalizer
/// can keep one without copying it.
#[derive(Debug)]
pub(crate) enum ResidentPayload {
    /// Q6 bins: the generating table (host-side aggregation input) and
    /// the entry count of each resident tile.
    Q6 {
        table: Arc<LineItemTable>,
        widths: Vec<usize>,
    },
    /// HDC prototypes: the trained task (query sampling + encoding) and
    /// the stored matrix shape.
    Hdc {
        task: Arc<LanguageTask>,
        classes: usize,
        d: usize,
    },
    /// NN weights: the binarized network (query compilation chains the
    /// inter-layer activations host-side; finalization decodes scores
    /// against its final layer's fan-in).
    Nn { network: Arc<BinarizedMlp> },
    /// CAM rule table: the generating rules (host scan references for
    /// classification) and the entry count of each resident tile.
    CamRules {
        rules: Arc<RuleSet>,
        entries: Vec<usize>,
    },
    /// CAM key dictionary: the stored keys (host probe references) and
    /// the entry count of each resident tile.
    CamKeys {
        keys: Arc<Vec<u64>>,
        width: usize,
        entries: Vec<usize>,
    },
}

impl ResidentPayload {
    /// Short label of what is resident, for telemetry.
    pub fn kind_label(&self) -> &'static str {
        match self {
            ResidentPayload::Q6 { .. } => "q6-table",
            ResidentPayload::Hdc { .. } => "hdc-prototypes",
            ResidentPayload::Nn { .. } => "nn-weights",
            ResidentPayload::CamRules { .. } => "cam-rules",
            ResidentPayload::CamKeys { .. } => "cam-keys",
        }
    }
}

/// What query compilation needs of a resident dataset, built once at
/// registration and shared by every query, whose (potentially
/// expensive) lowering runs outside the pool lock.
#[derive(Debug)]
pub(crate) struct ResidentView {
    /// The dataset's id.
    pub id: DatasetId,
    pub payload: ResidentPayload,
    /// Number of digital tiles the dataset pins.
    pub digital_tiles: usize,
    /// Number of analog tiles the dataset pins (every one programmed).
    pub analog_tiles: usize,
    /// The resident rows of each virtual digital tile, which queries may
    /// read but never overwrite.
    pub resident_rows: Vec<Range<usize>>,
    /// The matrix blocks each virtual analog tile holds.
    pub resident_blocks: Vec<Vec<Block>>,
    /// Bytes resident in the pinned tiles.
    pub resident_bytes: u64,
}

/// One shard's slice of a dataset copy: the physical tiles it holds
/// there (covering a contiguous chunk of the dataset's virtual tiles)
/// and the rows its chunk of the load program wrote.
#[derive(Debug, Clone)]
pub(crate) struct ShardPlacement {
    pub shard: usize,
    /// Physical digital tiles held on the shard, in virtual order.
    pub digital_tiles: Vec<usize>,
    /// Physical analog tiles held on the shard, in virtual order.
    pub analog_tiles: Vec<usize>,
    /// Physical `(tile, row)` pairs the chunk's load wrote — what the
    /// release scrub must clean on this shard.
    pub scrub_rows: Vec<(usize, usize)>,
}

/// Pool-side record of one resident dataset, and the pool's only record
/// of the tiles it holds. The record lives from registration until
/// release; a query still queued then fails with
/// [`crate::JobError::DatasetReleased`].
#[derive(Debug)]
pub(crate) struct DatasetRecord {
    pub tenant: TenantId,
    /// The dataset's copies, each a list of shard placements in virtual
    /// tile order (chunk `c` covers virtual tiles `sum(len of 0..c) ..+
    /// len(c)`). Copy 0 is the primary, whose tiles are pinned: one
    /// placement, or one per shard chunk for a dataset bigger than any
    /// one shard, whose queries are scatter-gathered across them. Every
    /// later copy is one placement: an exact replica of an analog
    /// dataset on another shard, in shard order, on tiles the pool still
    /// counts as free. A reclaimed replica leaves the list.
    pub copies: Vec<Vec<ShardPlacement>>,
    /// Queries routed so far: the `k`-th is served by copy `k mod n`.
    pub routed: u64,
    /// What query compilation needs, shared by every query.
    pub view: Arc<ResidentView>,
}

impl DatasetRecord {
    /// The copy the next query runs on, advancing the rotation.
    pub fn route(&mut self) -> &[ShardPlacement] {
        let k = self.routed % self.copies.len() as u64;
        self.routed += 1;
        &self.copies[k as usize]
    }
}
