//! Associative search over CAM tiles: [`WorkloadSpec::CamSearch`],
//! [`WorkloadSpec::RuleClassify`] and [`WorkloadSpec::KeyLookup`]
//! against resident [`DatasetSpec::CamRules`] / [`DatasetSpec::CamKeys`],
//! and those datasets' load programs.
//!
//! Entries live as `(value, care)` row pairs from row 0 up; every key is
//! one match-line access per resident tile, emitted tile-major so a
//! scatter-gathered search concatenates into the same response
//! sequence as an unsplit one. Exact and ternary windows resolve on the
//! word-safe path regardless of noise, so their host scans are
//! certified references; analog range windows only on a noise-free
//! ReRAM pool.
//!
//! [`WorkloadSpec::CamSearch`]: crate::WorkloadSpec::CamSearch
//! [`WorkloadSpec::RuleClassify`]: crate::WorkloadSpec::RuleClassify
//! [`WorkloadSpec::KeyLookup`]: crate::WorkloadSpec::KeyLookup
//! [`DatasetSpec::CamRules`]: crate::DatasetSpec::CamRules
//! [`DatasetSpec::CamKeys`]: crate::DatasetSpec::CamKeys

use super::{
    bits_of, check_cost_units, pad_row, CompileError, CompiledJob, DatasetProgram, Finalize,
    HostProfile, Lowering, TileDemand,
};
use crate::dataset::ResidentPayload;
use crate::job::JobOutput;
use crate::schedule::PoolConfig;
use cim_core::isa::{CimInstruction, CimResponse, MatchKind};
use cim_crossbar::cam::{host_match, key_bits, RuleSet};
use cim_simkit::bitvec::BitVec;
use std::sync::Arc;

const PROFILE: HostProfile = HostProfile {
    accel_fraction: 0.9,
    l1_miss: 1.0,
    l2_miss: 1.0,
};

/// Reassembles tile-major match-line responses (`entries.len()` tiles ×
/// `keys` keys) into one match set per key; with `resolve`, each set
/// then collapses to its lowest-index matching entry — the priority
/// encoder of a classification/lookup CAM.
#[derive(Debug)]
struct MatchSets {
    keys: usize,
    /// CAM entry count per tile, in virtual tile order.
    entries: Vec<usize>,
    resolve: bool,
}

impl Finalize for MatchSets {
    fn finalize(&self, outputs: Vec<CimResponse>) -> JobOutput {
        let total: usize = self.entries.iter().sum();
        let bases: Vec<usize> = self
            .entries
            .iter()
            .scan(0, |base, &n| {
                let start = *base;
                *base += n;
                Some(start)
            })
            .collect();
        let mut sets = vec![BitVec::zeros(total); self.keys];
        for (i, resp) in outputs.into_iter().enumerate() {
            let (t, q) = (i / self.keys, i % self.keys);
            for s in bits_of(resp).iter_ones() {
                sets[q].set(bases[t] + s, true);
            }
        }
        if !self.resolve {
            return JobOutput::Matches(sets);
        }
        JobOutput::Lookups(
            sets.iter()
                .map(|set| set.iter_ones().next().map(|s| s as u32))
                .collect(),
        )
    }
}

/// Rejects more keys than one job may search the resident `entries`
/// with: each key is one `MatchSearch` per tile, costing the tile's
/// entries, so the job's search cost is `keys × Σ entries` units.
/// `field` names the spec field holding the keys.
fn check_key_count(
    field: &'static str,
    keys: usize,
    entries: &[usize],
) -> Result<(), CompileError> {
    check_cost_units(field, field, keys, entries.iter().sum::<usize>() as u64)
}

/// Lowers `keys` (each `width` bits) searched with `window` against
/// every tile of a resident dataset holding `entries` per tile, tile
/// 0's keys first; `resolve` picks the decoder.
fn searches(
    lw: &Lowering,
    entries: &[usize],
    width: usize,
    keys: &[BitVec],
    window: MatchKind,
    resolve: bool,
) -> CompiledJob {
    let padded: Vec<BitVec> = keys
        .iter()
        .map(|k| pad_row(k, width, lw.cfg.tile_cols))
        .collect();
    let mut instructions = Vec::with_capacity(entries.len() * keys.len());
    for (tile, &n) in entries.iter().enumerate() {
        for key in &padded {
            instructions.push(CimInstruction::MatchSearch {
                tile,
                entries: n,
                key: key.clone(),
                kind: window,
            });
        }
    }
    let outputs = (0..instructions.len()).collect();
    let decode = MatchSets {
        keys: keys.len(),
        entries: entries.to_vec(),
        resolve,
    };
    CompiledJob {
        splittable: true,
        ..lw.job(
            TileDemand::digital(entries.len()),
            instructions,
            outputs,
            decode,
        )
    }
}

/// The `(value, care)` pairs a CAM dataset stores, in dataset order
/// across tiles — the host-side view of the match array.
fn entry_pairs(payload: &ResidentPayload) -> Option<Vec<(BitVec, BitVec)>> {
    match payload {
        ResidentPayload::CamRules { rules, .. } => Some(
            rules
                .rules()
                .iter()
                .map(|r| (r.value.clone(), r.care.clone()))
                .collect(),
        ),
        ResidentPayload::CamKeys { keys, width, .. } => Some(
            keys.iter()
                .map(|&k| (key_bits(k, *width), BitVec::ones(*width)))
                .collect(),
        ),
        _ => None,
    }
}

/// A raw search: per-key match sets over a rule table or dictionary.
pub(super) fn search(
    lw: &Lowering,
    kind: MatchKind,
    keys: &[BitVec],
) -> Result<CompiledJob, CompileError> {
    let payload = &lw.dataset().payload;
    let (width, entries) = match payload {
        ResidentPayload::CamRules { rules, entries } => (rules.width(), entries),
        ResidentPayload::CamKeys { width, entries, .. } => (*width, entries),
        _ => return Err(lw.mismatch()),
    };
    if keys.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    check_key_count("keys", keys.len(), entries)?;
    if let MatchKind::Range { lo, hi } = kind {
        // An empty window can match nothing: no work to run.
        if lo > hi {
            return Err(CompileError::EmptyWorkload);
        }
    }
    if let Some(k) = keys.iter().find(|k| k.len() != width) {
        return Err(CompileError::InputLengthMismatch {
            got: k.len(),
            expected: width,
        });
    }
    let host = lw.host(PROFILE, lw.dataset().resident_bytes, || {
        if matches!(kind, MatchKind::Range { .. }) && !lw.reram_noise_free() {
            return None;
        }
        let pairs = entry_pairs(payload)?;
        Some(JobOutput::Matches(
            keys.iter()
                .map(|key| {
                    BitVec::from_fn(pairs.len(), |s| {
                        host_match(&pairs[s].0, &pairs[s].1, key, kind)
                    })
                })
                .collect(),
        ))
    });
    Ok(CompiledJob {
        host,
        ..searches(lw, entries, width, keys, kind, false)
    })
}

/// Packet classification: a ternary search per packet, resolved to the
/// highest-priority (lowest-index) matching rule — bit-identical to
/// [`RuleSet::classify`].
pub(super) fn classify(lw: &Lowering, packets: &[u64]) -> Result<CompiledJob, CompileError> {
    let ResidentPayload::CamRules { rules, entries } = &lw.dataset().payload else {
        return Err(lw.mismatch());
    };
    if packets.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    check_key_count("packets", packets.len(), entries)?;
    let width = rules.width();
    let keys: Vec<BitVec> = packets.iter().map(|&p| key_bits(p, width)).collect();
    let host = lw.host(PROFILE, lw.dataset().resident_bytes, || {
        Some(JobOutput::Lookups(
            keys.iter().map(|key| rules.classify(key)).collect(),
        ))
    });
    Ok(CompiledJob {
        host,
        ..searches(lw, entries, width, &keys, MatchKind::Ternary, true)
    })
}

/// Key lookup: an exact search per probe, resolved to the lowest-index
/// matching slot — the CAM half of a dictionary join.
pub(super) fn lookup(lw: &Lowering, probes: &[u64]) -> Result<CompiledJob, CompileError> {
    let ResidentPayload::CamKeys {
        keys: stored,
        width,
        entries,
    } = &lw.dataset().payload
    else {
        return Err(lw.mismatch());
    };
    // One dictionary key went into one CAM slot at load time; lookup
    // resolution maps match-set bit positions straight back to
    // dictionary indices, which only holds while the counts agree.
    debug_assert_eq!(stored.len(), entries.iter().sum::<usize>());
    if probes.is_empty() {
        return Err(CompileError::EmptyWorkload);
    }
    check_key_count("probes", probes.len(), entries)?;
    let keys: Vec<BitVec> = probes.iter().map(|&p| key_bits(p, *width)).collect();
    let host = lw.host(PROFILE, lw.dataset().resident_bytes, || {
        Some(JobOutput::Lookups(
            keys.iter()
                .map(|probe| {
                    stored
                        .iter()
                        .position(|&k| key_bits(k, *width) == *probe)
                        .map(|i| i as u32)
                })
                .collect(),
        ))
    });
    Ok(CompiledJob {
        host,
        ..searches(lw, entries, *width, &keys, MatchKind::Exact, true)
    })
}

/// Validates a CAM entry width (keys travel as `u64` words, so the
/// width is bounded by 64 bits as well as the tile geometry) and the
/// digital tiles `count` entries pin: each tile holds `tile_rows / 2`
/// row-pair slots, and the pin may span the whole pool (CAM loads are
/// tile-parallel and split across shards like Q6 bins).
fn entry_tiles(count: usize, width: usize, cfg: &PoolConfig) -> Result<usize, CompileError> {
    let max = 64.min(cfg.tile_cols);
    if width == 0 || width > max {
        return Err(CompileError::BadOperandWidth { width, max });
    }
    if count == 0 {
        return Err(CompileError::EmptyWorkload);
    }
    let per_tile = cfg.tile_rows / 2;
    if per_tile == 0 {
        return Err(CompileError::NeedsMoreTileRows {
            required: 2,
            available: cfg.tile_rows,
        });
    }
    let tiles = count.div_ceil(per_tile);
    let pool_tiles = cfg.digital_tiles * cfg.shards;
    if tiles > pool_tiles {
        return Err(CompileError::NeedsMoreDigitalTiles {
            required: tiles,
            available: pool_tiles,
        });
    }
    Ok(tiles)
}

/// The load program of `count` CAM entries: entry `e` lands in slot
/// `e % slots_per_tile` of virtual tile `e / slots_per_tile`, value and
/// care both padded to the tile width (padding cells carry zero care,
/// so they never conduct). Returns the program and the per-tile entry
/// counts, in virtual tile order.
fn load_entries(
    cfg: &PoolConfig,
    pairs: impl Iterator<Item = (BitVec, BitVec)>,
    count: usize,
    width: usize,
) -> Result<(Vec<CimInstruction>, Vec<usize>), CompileError> {
    let tiles = entry_tiles(count, width, cfg)?;
    let per_tile = cfg.tile_rows / 2;
    let mut instructions = Vec::with_capacity(count);
    let mut entries = vec![0usize; tiles];
    for (e, (value, care)) in pairs.enumerate() {
        let (tile, slot) = (e / per_tile, e % per_tile);
        entries[tile] = slot + 1;
        instructions.push(CimInstruction::WriteKey {
            tile,
            slot,
            value: pad_row(&value, width, cfg.tile_cols),
            care: pad_row(&care, width, cfg.tile_cols),
        });
    }
    Ok((instructions, entries))
}

/// The resident rows of each tile: the `(value, care)` row pairs of its
/// entries, from row 0 up.
fn entry_rows(entries: &[usize]) -> Vec<std::ops::Range<usize>> {
    entries.iter().map(|&n| 0..2 * n).collect()
}

/// Bytes of CAM entries resident across tiles (two full rows per entry).
fn resident_bytes(count: usize, cfg: &PoolConfig) -> u64 {
    2 * count as u64 * cfg.tile_cols.div_ceil(8) as u64
}

/// The load program of a synthetic priority-ordered rule table.
pub(super) fn load_rules(
    cfg: &PoolConfig,
    rules: usize,
    width: usize,
    wildcard_density: f64,
    seed: u64,
) -> Result<DatasetProgram, CompileError> {
    entry_tiles(rules, width, cfg)?;
    let set = RuleSet::generate(rules, width, wildcard_density, seed);
    let pairs = set
        .rules()
        .iter()
        .map(|r| (r.value.clone(), r.care.clone()));
    let (instructions, entries) = load_entries(cfg, pairs, rules, width)?;
    let resident_rows = entry_rows(&entries);
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand::digital(entries.len()),
        payload: ResidentPayload::CamRules {
            rules: Arc::new(set),
            entries,
        },
        resident_bytes: resident_bytes(rules, cfg),
        resident_rows,
    })
}

/// The load program of an explicit key dictionary (binary-CAM entries,
/// all-ones care).
pub(super) fn load_keys(
    cfg: &PoolConfig,
    keys: &[u64],
    width: usize,
) -> Result<DatasetProgram, CompileError> {
    let care = BitVec::ones(width.min(64));
    let pairs = keys.iter().map(|&k| (key_bits(k, width), care.clone()));
    let (instructions, entries) = load_entries(cfg, pairs, keys.len(), width)?;
    let resident_rows = entry_rows(&entries);
    Ok(DatasetProgram {
        instructions,
        demand: TileDemand::digital(entries.len()),
        payload: ResidentPayload::CamKeys {
            keys: Arc::new(keys.to_vec()),
            width,
            entries,
        },
        resident_bytes: resident_bytes(keys.len(), cfg),
        resident_rows,
    })
}
