//! The CIM instruction set and the CIM-A / CIM-P taxonomy.
//!
//! §I of the paper divides CIM designs by *where the result of the
//! computation is produced*: inside the memory array (**CIM-A**, e.g.
//! majority/implication logic in the cells) or in the peripheral circuits
//! (**CIM-P**, e.g. Scouting Logic in the sense amplifiers, analog MVM in
//! the column ADCs). Every instruction below carries its class; the
//! accelerator in this workspace is a CIM-P design throughout, matching
//! the paper's choice ("CIM-P entails a lesser impact on the design").

use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;

pub use cim_crossbar::cam::MatchKind;
pub use cim_crossbar::scouting::ScoutOp;

/// Where a CIM operation produces its result (§I taxonomy).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CimClass {
    /// Result produced inside the memory array (cell states change).
    Array,
    /// Result produced in the peripheral circuitry (sense amplifiers,
    /// ADCs); cell states are only read.
    Periphery,
}

/// One instruction for the CIM accelerator.
///
/// Tile indices address digital tiles for bit-wise instructions and
/// analog tiles for matrix instructions; the two tile families have
/// separate index spaces.
#[derive(Debug, Clone, PartialEq)]
pub enum CimInstruction {
    /// Store a bit vector into a digital tile row.
    WriteRow {
        /// Digital tile index.
        tile: usize,
        /// Row within the tile.
        row: usize,
        /// Bits to store (must match the tile width).
        bits: BitVec,
    },
    /// Read a digital tile row through its sense amplifiers.
    ReadRow {
        /// Digital tile index.
        tile: usize,
        /// Row within the tile.
        row: usize,
    },
    /// Scouting-Logic bit-wise operation over stored rows (single access).
    Logic {
        /// Digital tile index.
        tile: usize,
        /// Bit-wise operation.
        op: ScoutOp,
        /// Activated rows (2+ for OR/AND, exactly 2 for XOR).
        rows: Vec<usize>,
    },
    /// Store the latest `ReadRow` or `Logic` result of the same stream
    /// into a digital tile row (Pinatubo-style intermediate write-back).
    ///
    /// A sense-amplifier result is not a stored operand, so multi-step
    /// reductions must write intermediates back before reusing them.
    /// Without this instruction every write-back would round-trip
    /// through the host; with it, a compiled instruction stream can
    /// express whole reduction trees that stay inside the CIM core.
    StoreLast {
        /// Digital tile index.
        tile: usize,
        /// Destination row within the tile.
        row: usize,
    },
    /// Store one CAM entry (value + don't-care mask) into a digital
    /// tile's entry slot: value row `2·slot`, care row `2·slot + 1`
    /// (the TCAM row-pair layout of `cim_crossbar::cam`).
    WriteKey {
        /// Digital tile index.
        tile: usize,
        /// CAM entry slot within the tile (`rows / 2` slots).
        slot: usize,
        /// Stored value bits (must match the tile width).
        value: BitVec,
        /// Cared positions (`0` = wildcard; all-ones for exact match).
        care: BitVec,
    },
    /// Match-line search over a digital tile's first `entries` CAM
    /// slots: one access, one match bit per entry.
    MatchSearch {
        /// Digital tile index.
        tile: usize,
        /// Number of leading entry slots to search.
        entries: usize,
        /// The search key (must match the tile width).
        key: BitVec,
        /// Exact, ternary or analog range semantics.
        kind: MatchKind,
    },
    /// Program a signed matrix into an analog tile (differential pair),
    /// as a column block: the matrix's own devices, anchored at row 0
    /// and column `col`. A tile holds several blocks side by side; a
    /// program replaces every block whose columns it overlaps.
    ProgramMatrix {
        /// Analog tile index.
        tile: usize,
        /// First column of the block.
        col: usize,
        /// The matrix to program.
        matrix: Matrix,
    },
    /// Analog matrix-vector product `A·x` over the block whose first
    /// column is `col`: it drives only that block's columns and converts
    /// only its rows.
    Mvm {
        /// Analog tile index.
        tile: usize,
        /// First column of the block.
        col: usize,
        /// Input vector (length = the block's columns).
        x: Vec<f64>,
    },
    /// Analog transpose product `Aᵀ·z` over the same block.
    MvmT {
        /// Analog tile index.
        tile: usize,
        /// First column of the block.
        col: usize,
        /// Input vector (length = the block's rows).
        z: Vec<f64>,
    },
}

impl CimInstruction {
    /// The taxonomy class of this instruction. Everything this
    /// accelerator executes is CIM-P except matrix programming, which
    /// changes cell states.
    pub fn class(&self) -> CimClass {
        match self {
            CimInstruction::WriteRow { .. }
            | CimInstruction::WriteKey { .. }
            | CimInstruction::StoreLast { .. }
            | CimInstruction::ProgramMatrix { .. } => CimClass::Array,
            _ => CimClass::Periphery,
        }
    }

    /// Short mnemonic for traces and reports.
    pub fn mnemonic(&self) -> &'static str {
        match self {
            CimInstruction::WriteRow { .. } => "CIM.WR",
            CimInstruction::ReadRow { .. } => "CIM.RD",
            CimInstruction::Logic { op, .. } => match op {
                ScoutOp::Or => "CIM.OR",
                ScoutOp::And => "CIM.AND",
                ScoutOp::Xor => "CIM.XOR",
            },
            CimInstruction::StoreLast { .. } => "CIM.ST",
            CimInstruction::WriteKey { .. } => "CAM.WK",
            CimInstruction::MatchSearch { kind, .. } => match kind {
                MatchKind::Exact => "CAM.EXACT",
                MatchKind::Ternary => "CAM.TERN",
                MatchKind::Range { .. } => "CAM.RANGE",
            },
            CimInstruction::ProgramMatrix { .. } => "CIM.PROG",
            CimInstruction::Mvm { .. } => "CIM.MVM",
            CimInstruction::MvmT { .. } => "CIM.MVMT",
        }
    }
}

/// Which tile family an instruction addresses. The two families have
/// separate index spaces (see [`CimInstruction`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TileFamily {
    /// Binary ReRAM tiles: row writes/reads, Scouting Logic, CAM mode.
    Digital,
    /// PCM differential crossbars: matrix programming and MVMs.
    Analog,
}

/// The static effect summary of one instruction: which tile it
/// addresses, which digital rows it reads and writes, whether it
/// defines or consumes its stream's `last_bits` latch, and which CAM
/// entry slots it touches.
///
/// This is the per-instruction ground truth static analyzers build on
/// (the `cim-lint` abstract interpreter walks a program folding these
/// summaries): it is derived here, next to the executor semantics, so
/// the analysis can never drift from what [`CimInstruction`] actually
/// does to a tile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EffectSummary {
    /// The tile family the instruction addresses.
    pub family: TileFamily,
    /// The tile index within its family.
    pub tile: usize,
    /// Digital rows the instruction senses (activated rows of a logic
    /// operation, the read row, the value+care rows of a match-line
    /// search). Empty for analog instructions.
    pub rows_read: Vec<usize>,
    /// Digital rows the instruction stores into (row writes, latch
    /// write-backs, the value+care row pair of a CAM key write).
    pub rows_written: Vec<usize>,
    /// Whether the instruction leaves a bit-vector result in its
    /// stream's `last_bits` latch for a following
    /// [`CimInstruction::StoreLast`]. Match searches return bits but do
    /// *not* define the latch (match sets are entry-indexed, not
    /// tile-width).
    pub defines_latch: bool,
    /// Whether the instruction requires a live `last_bits` latch
    /// (today only [`CimInstruction::StoreLast`], which takes the latch
    /// and re-defines it with the same value).
    pub consumes_latch: bool,
    /// CAM entry slots the instruction touches (the written slot of a
    /// key write; every searched slot of a match search).
    pub cam_slots: Vec<usize>,
    /// Whether the instruction senses the tile's programmed matrix
    /// (analog MVMs, forward and transpose).
    pub reads_matrix: bool,
    /// Whether the instruction reprograms the tile's matrix.
    pub writes_matrix: bool,
}

impl EffectSummary {
    /// An effect-free summary addressing one tile; the per-instruction
    /// constructors fill in what actually happens.
    fn at(family: TileFamily, tile: usize) -> Self {
        EffectSummary {
            family,
            tile,
            rows_read: Vec::new(),
            rows_written: Vec::new(),
            defines_latch: false,
            consumes_latch: false,
            cam_slots: Vec::new(),
            reads_matrix: false,
            writes_matrix: false,
        }
    }
}

impl CimInstruction {
    /// The tile this instruction addresses: its family and its index
    /// within that family's index space.
    pub fn tile(&self) -> (TileFamily, usize) {
        match *self {
            CimInstruction::WriteRow { tile, .. }
            | CimInstruction::ReadRow { tile, .. }
            | CimInstruction::Logic { tile, .. }
            | CimInstruction::StoreLast { tile, .. }
            | CimInstruction::WriteKey { tile, .. }
            | CimInstruction::MatchSearch { tile, .. } => (TileFamily::Digital, tile),
            CimInstruction::ProgramMatrix { tile, .. }
            | CimInstruction::Mvm { tile, .. }
            | CimInstruction::MvmT { tile, .. } => (TileFamily::Analog, tile),
        }
    }

    /// The index of the tile this instruction addresses, for moving a
    /// stream between index spaces (virtual to physical tiles, or into
    /// a split chunk's local indices). The family stays
    /// [`CimInstruction::tile`]'s.
    pub fn tile_mut(&mut self) -> &mut usize {
        match self {
            CimInstruction::WriteRow { tile, .. }
            | CimInstruction::ReadRow { tile, .. }
            | CimInstruction::Logic { tile, .. }
            | CimInstruction::StoreLast { tile, .. }
            | CimInstruction::WriteKey { tile, .. }
            | CimInstruction::MatchSearch { tile, .. }
            | CimInstruction::ProgramMatrix { tile, .. }
            | CimInstruction::Mvm { tile, .. }
            | CimInstruction::MvmT { tile, .. } => tile,
        }
    }

    /// The static [`EffectSummary`] of this instruction.
    ///
    /// Mirrors the executor in `cim_core::accelerator` effect for
    /// effect: a `StoreLast` both consumes and re-defines the latch
    /// (the stored value stays latched), and a `MatchSearch`
    /// reads the value+care row pair of every searched entry without
    /// touching the latch.
    pub fn effects(&self) -> EffectSummary {
        let (family, tile) = self.tile();
        let at = EffectSummary::at(family, tile);
        match self {
            CimInstruction::WriteRow { row, .. } => EffectSummary {
                rows_written: vec![*row],
                ..at
            },
            CimInstruction::ReadRow { row, .. } => EffectSummary {
                rows_read: vec![*row],
                defines_latch: true,
                ..at
            },
            CimInstruction::Logic { rows, .. } => EffectSummary {
                rows_read: rows.clone(),
                defines_latch: true,
                ..at
            },
            CimInstruction::StoreLast { row, .. } => EffectSummary {
                rows_written: vec![*row],
                defines_latch: true,
                consumes_latch: true,
                ..at
            },
            CimInstruction::WriteKey { slot, .. } => EffectSummary {
                rows_written: vec![2 * slot, 2 * slot + 1],
                cam_slots: vec![*slot],
                ..at
            },
            CimInstruction::MatchSearch { entries, .. } => EffectSummary {
                rows_read: (0..2 * entries).collect(),
                cam_slots: (0..*entries).collect(),
                ..at
            },
            CimInstruction::ProgramMatrix { .. } => EffectSummary {
                writes_matrix: true,
                ..at
            },
            CimInstruction::Mvm { .. } | CimInstruction::MvmT { .. } => EffectSummary {
                reads_matrix: true,
                ..at
            },
        }
    }
}

/// The value an instruction returns.
#[derive(Debug, Clone, PartialEq)]
pub enum CimResponse {
    /// No data (writes, programming).
    Done,
    /// A bit vector (row reads, logic operations).
    Bits(BitVec),
    /// A real vector (matrix products).
    Vector(Vec<f64>),
}

impl CimResponse {
    /// Extracts the bit-vector payload, if any.
    pub fn into_bits(self) -> Option<BitVec> {
        match self {
            CimResponse::Bits(b) => Some(b),
            _ => None,
        }
    }

    /// Extracts the real-vector payload, if any.
    pub fn into_vector(self) -> Option<Vec<f64>> {
        match self {
            CimResponse::Vector(v) => Some(v),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_follow_taxonomy() {
        let wr = CimInstruction::WriteRow {
            tile: 0,
            row: 0,
            bits: BitVec::zeros(4),
        };
        assert_eq!(wr.class(), CimClass::Array);
        let logic = CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::Or,
            rows: vec![0, 1],
        };
        assert_eq!(logic.class(), CimClass::Periphery);
        let mvm = CimInstruction::Mvm {
            tile: 0,
            col: 0,
            x: vec![],
        };
        assert_eq!(mvm.class(), CimClass::Periphery);
    }

    #[test]
    fn mnemonics_are_distinct_per_logic_op() {
        let mk = |op| CimInstruction::Logic {
            tile: 0,
            op,
            rows: vec![0, 1],
        };
        assert_eq!(mk(ScoutOp::Or).mnemonic(), "CIM.OR");
        assert_eq!(mk(ScoutOp::And).mnemonic(), "CIM.AND");
        assert_eq!(mk(ScoutOp::Xor).mnemonic(), "CIM.XOR");
    }

    #[test]
    fn cam_instructions_class_and_mnemonics() {
        let wk = CimInstruction::WriteKey {
            tile: 0,
            slot: 0,
            value: BitVec::zeros(4),
            care: BitVec::ones(4),
        };
        assert_eq!(wk.class(), CimClass::Array);
        assert_eq!(wk.mnemonic(), "CAM.WK");
        let mk = |kind| CimInstruction::MatchSearch {
            tile: 0,
            entries: 2,
            key: BitVec::zeros(4),
            kind,
        };
        assert_eq!(mk(MatchKind::Exact).class(), CimClass::Periphery);
        assert_eq!(mk(MatchKind::Exact).mnemonic(), "CAM.EXACT");
        assert_eq!(mk(MatchKind::Ternary).mnemonic(), "CAM.TERN");
        assert_eq!(
            mk(MatchKind::Range { lo: 0, hi: 3 }).mnemonic(),
            "CAM.RANGE"
        );
    }

    #[test]
    fn effects_mirror_executor_semantics() {
        let st = CimInstruction::StoreLast { tile: 1, row: 5 };
        let e = st.effects();
        assert_eq!(e.family, TileFamily::Digital);
        assert_eq!(e.tile, 1);
        assert_eq!(e.rows_written, vec![5]);
        // The executor takes the latch and puts the value back.
        assert!(e.consumes_latch && e.defines_latch);

        let logic = CimInstruction::Logic {
            tile: 0,
            op: ScoutOp::And,
            rows: vec![2, 7, 3],
        };
        let e = logic.effects();
        assert_eq!(e.rows_read, vec![2, 7, 3]);
        assert!(e.defines_latch && !e.consumes_latch);
        assert!(e.rows_written.is_empty());

        let wk = CimInstruction::WriteKey {
            tile: 0,
            slot: 3,
            value: BitVec::zeros(8),
            care: BitVec::ones(8),
        };
        let e = wk.effects();
        assert_eq!(e.rows_written, vec![6, 7], "TCAM row pair of slot 3");
        assert_eq!(e.cam_slots, vec![3]);

        let ms = CimInstruction::MatchSearch {
            tile: 0,
            entries: 2,
            key: BitVec::zeros(8),
            kind: MatchKind::Exact,
        };
        let e = ms.effects();
        assert_eq!(e.rows_read, vec![0, 1, 2, 3]);
        assert_eq!(e.cam_slots, vec![0, 1]);
        // Match sets are entry-indexed, not a storable latch operand.
        assert!(!e.defines_latch);

        let pm = CimInstruction::ProgramMatrix {
            tile: 1,
            col: 0,
            matrix: Matrix::from_fn(2, 2, |_, _| 1.0),
        };
        let e = pm.effects();
        assert_eq!(e.family, TileFamily::Analog);
        assert!(e.writes_matrix && !e.reads_matrix);
        let mut mv = CimInstruction::Mvm {
            tile: 1,
            col: 2,
            x: vec![0.0; 2],
        };
        assert!(mv.effects().reads_matrix);
        *mv.tile_mut() = 3;
        assert_eq!(mv.tile(), (TileFamily::Analog, 3));
        let mvt = CimInstruction::MvmT {
            tile: 1,
            col: 0,
            z: vec![0.0; 2],
        };
        assert!(mvt.effects().reads_matrix && !mvt.effects().writes_matrix);
    }

    #[test]
    fn response_extractors() {
        assert_eq!(CimResponse::Done.into_bits(), None);
        assert_eq!(
            CimResponse::Bits(BitVec::ones(3)).into_bits(),
            Some(BitVec::ones(3))
        );
        assert_eq!(
            CimResponse::Vector(vec![1.0]).into_vector(),
            Some(vec![1.0])
        );
        assert_eq!(CimResponse::Bits(BitVec::ones(3)).into_vector(), None);
    }
}
