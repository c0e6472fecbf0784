//! The abstract interpreter: walks a program once, folding each
//! instruction's [`cim_core::EffectSummary`] into an abstract machine
//! state and emitting [`Diagnostic`]s where the program would fault,
//! waste work, or touch resident data.

use crate::diag::{Diagnostic, LintReport, RuleCode};
use cim_core::isa::ScoutOp;
use cim_core::{CimInstruction, TileFamily};
use std::collections::BTreeSet;

/// The tile geometry a program is verified against.
///
/// Tile counts are the program's *declared demand* (its virtual tile
/// space — the runtime leases exactly this many physical tiles), not
/// the whole pool: an instruction addressing a tile beyond the demand
/// would escape its lease.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Geometry {
    /// Digital tiles the program may address.
    pub digital_tiles: usize,
    /// Rows per digital tile.
    pub tile_rows: usize,
    /// Columns (bit width) per digital tile.
    pub tile_cols: usize,
    /// Analog tiles the program may address.
    pub analog_tiles: usize,
    /// Rows per analog tile.
    pub analog_rows: usize,
    /// Columns per analog tile.
    pub analog_cols: usize,
    /// Maximum simultaneously activated rows of a scouting operation.
    pub scout_fan_in: usize,
}

/// One matrix an analog tile holds: `rows × cols` devices anchored at
/// row 0 and column `col` (see `cim_crossbar::analog`'s column blocks).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Block {
    /// First column.
    pub col: usize,
    /// Rows (the outputs of a forward product).
    pub rows: usize,
    /// Columns (the inputs of a forward product).
    pub cols: usize,
}

impl Block {
    /// The `(rows, cols)` block whose first column is `col`.
    pub fn new(col: usize, (rows, cols): (usize, usize)) -> Self {
        Block { col, rows, cols }
    }

    /// Whether the two blocks share a column.
    pub fn overlaps(&self, other: &Block) -> bool {
        self.col < other.col + other.cols && other.col < self.col + self.cols
    }
}

/// What a program runs against: the geometry plus the resident state a
/// pinned dataset established before the program starts.
///
/// Resident digital rows (and resident analog tiles) count as
/// *initialized* — reading them is the whole point of a query — and as
/// *write-protected*: the dataset outlives the job, so storing over
/// them would corrupt every later query ([`RuleCode::ResidentWrite`]).
/// A resident analog tile carries its matrices' blocks, so MVM operands
/// over it are checked like those over an in-stream program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintTarget {
    /// The tile geometry.
    pub geometry: Geometry,
    /// Per digital tile: rows resident (initialized and protected)
    /// before the program runs. Indexed by virtual tile.
    pub resident_digital: Vec<BTreeSet<usize>>,
    /// Per analog tile: the blocks resident (programmed and protected)
    /// before the program runs.
    pub resident_analog: Vec<Vec<Block>>,
}

impl LintTarget {
    /// A target with no resident state (fresh-lease programs).
    pub fn new(geometry: Geometry) -> Self {
        LintTarget {
            geometry,
            resident_digital: vec![BTreeSet::new(); geometry.digital_tiles],
            resident_analog: vec![Vec::new(); geometry.analog_tiles],
        }
    }

    /// Marks `rows` of digital tile `tile` resident.
    pub fn with_resident_rows(
        mut self,
        tile: usize,
        rows: impl IntoIterator<Item = usize>,
    ) -> Self {
        if tile < self.resident_digital.len() {
            self.resident_digital[tile].extend(rows);
        }
        self
    }

    /// Marks analog tile `tile` as holding a resident matrix `block`.
    pub fn with_resident_analog(mut self, tile: usize, block: Block) -> Self {
        if let Some(blocks) = self.resident_analog.get_mut(tile) {
            blocks.push(block);
        }
        self
    }
}

/// What the interpreter knows about one analog tile: the live blocks a
/// product may address, and whether a resident dataset programmed them
/// before the stream runs (then MVM operands are checked against them,
/// and any program on the tile is a resident-write violation).
#[derive(Debug, Clone, Default)]
struct AnalogTile {
    blocks: Vec<Block>,
    resident: bool,
}

/// One live definition of the stream's `last_bits` latch.
#[derive(Debug, Clone, Copy)]
struct LatchDef {
    /// Index of the defining instruction.
    index: usize,
    /// Whether anything consumed the definition (a `StoreLast`, or the
    /// defining instruction's response being a program output).
    used: bool,
}

/// Statically verifies `program` against `target`.
///
/// `outputs` lists the instruction indices whose responses the job
/// returns to the host (a compiled job's output set); a latch
/// definition that is neither stored nor listed there is dead work.
/// The returned report is deterministic: diagnostics are sorted by
/// instruction index, then rule code.
pub fn lint(program: &[CimInstruction], outputs: &[usize], target: &LintTarget) -> LintReport {
    let geo = target.geometry;
    let outputs: BTreeSet<usize> = outputs.iter().copied().collect();
    let mut diags: Vec<Diagnostic> = Vec::new();
    // Initialized rows per digital tile, seeded with the resident rows.
    let mut init: Vec<BTreeSet<usize>> = (0..geo.digital_tiles)
        .map(|t| target.resident_digital.get(t).cloned().unwrap_or_default())
        .collect();
    let mut analog: Vec<AnalogTile> = (0..geo.analog_tiles)
        .map(|t| {
            let blocks = target.resident_analog.get(t).cloned().unwrap_or_default();
            AnalogTile {
                resident: !blocks.is_empty(),
                blocks,
            }
        })
        .collect();
    let mut latch: Option<LatchDef> = None;

    for (i, instr) in program.iter().enumerate() {
        let fx = instr.effects();
        let mn = instr.mnemonic();

        // Tile bounds first: everything else indexes per-tile state.
        let granted = match fx.family {
            TileFamily::Digital => geo.digital_tiles,
            TileFamily::Analog => geo.analog_tiles,
        };
        if fx.tile >= granted {
            let family = match fx.family {
                TileFamily::Digital => "digital",
                TileFamily::Analog => "analog",
            };
            diags.push(Diagnostic::new(
                RuleCode::TileBounds,
                i,
                format!("{mn} addresses {family} tile {t} but the program demands {granted} {family} tile(s)", t = fx.tile),
            ));
            continue;
        }

        match fx.family {
            TileFamily::Digital => {
                check_digital_widths(instr, i, geo.tile_cols, &mut diags);
                check_row_bounds(
                    instr,
                    &fx.rows_read,
                    &fx.rows_written,
                    i,
                    geo.tile_rows,
                    &mut diags,
                );
                if let CimInstruction::Logic { op, rows, .. } = instr {
                    check_arity(*op, rows, i, geo.scout_fan_in, &mut diags);
                }

                // Reads of rows nothing initialized (in-bounds only, to
                // avoid doubling up on the bounds diagnostic).
                let uninit: Vec<usize> = fx
                    .rows_read
                    .iter()
                    .copied()
                    .filter(|&r| r < geo.tile_rows && !init[fx.tile].contains(&r))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if !uninit.is_empty() {
                    diags.push(Diagnostic::new(
                        RuleCode::UninitRead,
                        i,
                        format!(
                            "{mn} senses uninitialized row(s) {uninit:?} of tile {t}",
                            t = fx.tile
                        ),
                    ));
                }

                // Writes over the resident dataset's pinned rows.
                let protected: Vec<usize> = fx
                    .rows_written
                    .iter()
                    .copied()
                    .filter(|r| {
                        target
                            .resident_digital
                            .get(fx.tile)
                            .is_some_and(|rows| rows.contains(r))
                    })
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                if !protected.is_empty() {
                    diags.push(Diagnostic::new(
                        RuleCode::ResidentWrite,
                        i,
                        format!(
                            "{mn} writes resident dataset row(s) {protected:?} of tile {t}",
                            t = fx.tile
                        ),
                    ));
                }

                // Latch def-use.
                if fx.consumes_latch {
                    match latch.as_mut() {
                        None => diags.push(Diagnostic::new(
                            RuleCode::LatchUndef,
                            i,
                            format!("{mn} consumes the last_bits latch but no prior instruction defined it"),
                        )),
                        Some(def) => def.used = true,
                    }
                    if fx.defines_latch {
                        // StoreLast re-defines the latch with the value
                        // it just stored: live, and already consumed.
                        latch = Some(LatchDef {
                            index: i,
                            used: true,
                        });
                    }
                } else if fx.defines_latch {
                    if let Some(prev) = latch {
                        if !prev.used && !outputs.contains(&prev.index) {
                            diags.push(dead_latch(prev.index, i));
                        }
                    }
                    latch = Some(LatchDef {
                        index: i,
                        used: outputs.contains(&i),
                    });
                }

                for &w in &fx.rows_written {
                    if w < geo.tile_rows {
                        init[fx.tile].insert(w);
                    }
                }
            }
            TileFamily::Analog => {
                check_analog(instr, i, fx.tile, geo, &mut analog, &mut diags);
            }
        }
    }

    if let Some(prev) = latch {
        if !prev.used && !outputs.contains(&prev.index) {
            diags.push(dead_latch(prev.index, program.len()));
        }
    }

    diags.sort_by(|a, b| {
        a.instr_index
            .cmp(&b.instr_index)
            .then_with(|| a.rule.code().cmp(b.rule.code()))
    });
    LintReport { diagnostics: diags }
}

/// A dead-latch warning anchored at the defining instruction,
/// mentioning where the definition died.
fn dead_latch(defined_at: usize, died_at: usize) -> Diagnostic {
    Diagnostic::new(
        RuleCode::LatchDead,
        defined_at,
        format!(
            "last_bits defined here but neither stored nor returned before instruction {died_at}"
        ),
    )
}

/// Bit-vector operand widths must match the tile width exactly (the
/// tile asserts this at execution).
fn check_digital_widths(
    instr: &CimInstruction,
    i: usize,
    tile_cols: usize,
    diags: &mut Vec<Diagnostic>,
) {
    let mut bad = |what: &str, width: usize| {
        diags.push(Diagnostic::new(
            RuleCode::WidthMismatch,
            i,
            format!(
                "{mn} {what} is {width} bits wide, the tile is {tile_cols}",
                mn = instr.mnemonic()
            ),
        ));
    };
    match instr {
        CimInstruction::WriteRow { bits, .. } if bits.len() != tile_cols => {
            bad("operand", bits.len());
        }
        CimInstruction::WriteKey { value, care, .. } => {
            if value.len() != tile_cols {
                bad("value", value.len());
            }
            if care.len() != tile_cols {
                bad("care mask", care.len());
            }
        }
        CimInstruction::MatchSearch { key, .. } if key.len() != tile_cols => {
            bad("search key", key.len());
        }
        _ => {}
    }
}

/// Row, CAM slot and entry ranges must stay inside the tile.
fn check_row_bounds(
    instr: &CimInstruction,
    rows_read: &[usize],
    rows_written: &[usize],
    i: usize,
    tile_rows: usize,
    diags: &mut Vec<Diagnostic>,
) {
    match instr {
        CimInstruction::WriteKey { slot, .. } => {
            if 2 * slot + 1 >= tile_rows {
                diags.push(Diagnostic::new(
                    RuleCode::RowBounds,
                    i,
                    format!(
                        "CAM.WK slot {slot} needs row pair ({}, {}), the tile has {tile_rows} rows \
                         ({} slots)",
                        2 * slot,
                        2 * slot + 1,
                        tile_rows / 2
                    ),
                ));
            }
        }
        CimInstruction::MatchSearch { entries, .. } => {
            if 2 * entries > tile_rows {
                diags.push(Diagnostic::new(
                    RuleCode::RowBounds,
                    i,
                    format!(
                        "{mn} searches {entries} entries (rows 0..{}), the tile has {tile_rows} \
                         rows ({} slots)",
                        2 * entries,
                        tile_rows / 2,
                        mn = instr.mnemonic()
                    ),
                ));
            }
        }
        _ => {
            let oob: Vec<usize> = rows_read
                .iter()
                .chain(rows_written)
                .copied()
                .filter(|&r| r >= tile_rows)
                .collect::<BTreeSet<_>>()
                .into_iter()
                .collect();
            if !oob.is_empty() {
                diags.push(Diagnostic::new(
                    RuleCode::RowBounds,
                    i,
                    format!(
                        "{mn} addresses row(s) {oob:?}, the tile has {tile_rows} rows",
                        mn = instr.mnemonic()
                    ),
                ));
            }
        }
    }
}

/// Operand lists the sense amplifier cannot realize.
fn check_arity(op: ScoutOp, rows: &[usize], i: usize, fan_in: usize, diags: &mut Vec<Diagnostic>) {
    let mut bad = |message: String| diags.push(Diagnostic::new(RuleCode::BadArity, i, message));
    if !op.supports_fan_in(rows.len()) {
        bad(format!(
            "{op:?} does not support fan-in {} (OR/AND need ≥ 2 rows, XOR exactly 2)",
            rows.len()
        ));
    } else if rows.len() > fan_in {
        bad(format!(
            "fan-in {} exceeds the scouting limit {fan_in}",
            rows.len()
        ));
    }
    let distinct: BTreeSet<usize> = rows.iter().copied().collect();
    if distinct.len() != rows.len() {
        bad(format!(
            "duplicate activated rows {rows:?} (a row can only be activated once per access)"
        ));
    }
}

/// Analog-side checks: blocks against the tile and against the live
/// blocks they would overlap, MVM operands against the programmed or
/// resident block they address, senses of unprogrammed tiles, programs
/// on resident tiles.
fn check_analog(
    instr: &CimInstruction,
    i: usize,
    tile: usize,
    geo: Geometry,
    analog: &mut [AnalogTile],
    diags: &mut Vec<Diagnostic>,
) {
    let state = &mut analog[tile];
    let (col, len, mn) = match instr {
        CimInstruction::ProgramMatrix { col, matrix, .. } => {
            let block = Block::new(*col, (matrix.rows(), matrix.cols()));
            let inside = block.rows <= geo.analog_rows && block.col + block.cols <= geo.analog_cols;
            if !inside {
                diags.push(Diagnostic::new(
                    RuleCode::WidthMismatch,
                    i,
                    format!(
                        "CIM.PROG programs a {}x{} matrix at column {}, the tile is {}x{}",
                        block.rows, block.cols, block.col, geo.analog_rows, geo.analog_cols
                    ),
                ));
            }
            if state.resident {
                diags.push(Diagnostic::new(
                    RuleCode::ResidentWrite,
                    i,
                    format!("CIM.PROG reprograms analog tile {tile}, which holds a resident dataset matrix"),
                ));
            } else if inside {
                if let Some(live) = state.blocks.iter().find(|b| b.overlaps(&block)) {
                    diags.push(Diagnostic::new(
                        RuleCode::WidthMismatch,
                        i,
                        format!(
                            "CIM.PROG programs columns {}..{} of analog tile {tile}, over the live block in columns {}..{}",
                            block.col,
                            block.col + block.cols,
                            live.col,
                            live.col + live.cols
                        ),
                    ));
                }
                // As on the tile, the program replaces what it overlaps.
                state.blocks.retain(|b| !b.overlaps(&block));
                state.blocks.push(block);
            }
            return;
        }
        CimInstruction::Mvm { col, x, .. } => (*col, x.len(), "CIM.MVM"),
        CimInstruction::MvmT { col, z, .. } => (*col, z.len(), "CIM.MVMT"),
        _ => return,
    };
    if state.blocks.is_empty() {
        diags.push(unprogrammed_mvm(i, tile, mn));
        return;
    }
    let Some(block) = state.blocks.iter().find(|b| b.col == col) else {
        diags.push(Diagnostic::new(
            RuleCode::WidthMismatch,
            i,
            format!("{mn} addresses column {col} of analog tile {tile}, where no block starts"),
        ));
        return;
    };
    let (width, axis) = match instr {
        CimInstruction::Mvm { .. } => (block.cols, "columns"),
        _ => (block.rows, "rows"),
    };
    if len != width {
        diags.push(Diagnostic::new(
            RuleCode::WidthMismatch,
            i,
            format!("{mn} input has length {len}, the programmed block has {width} {axis}"),
        ));
    }
}

/// An MVM over a tile no one programmed.
fn unprogrammed_mvm(i: usize, tile: usize, mn: &str) -> Diagnostic {
    Diagnostic::new(
        RuleCode::UninitRead,
        i,
        format!("{mn} senses analog tile {tile} but no matrix was programmed or resident"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_core::isa::MatchKind;
    use cim_simkit::bitvec::BitVec;
    use cim_simkit::linalg::Matrix;

    fn geometry() -> Geometry {
        Geometry {
            digital_tiles: 2,
            tile_rows: 8,
            tile_cols: 16,
            analog_tiles: 1,
            analog_rows: 4,
            analog_cols: 4,
            scout_fan_in: 4,
        }
    }

    fn run(program: Vec<CimInstruction>, target: &LintTarget) -> LintReport {
        let outputs: Vec<usize> = (0..program.len()).collect();
        lint(&program, &outputs, target)
    }

    fn wr(tile: usize, row: usize) -> CimInstruction {
        CimInstruction::WriteRow {
            tile,
            row,
            bits: BitVec::zeros(16),
        }
    }

    #[test]
    fn clean_reduction_program_passes() {
        let target = LintTarget::new(geometry());
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
            CimInstruction::ReadRow { tile: 0, row: 2 },
        ];
        let report = run(program, &target);
        assert!(report.is_clean(), "{}", report.to_text());
    }

    #[test]
    fn uninit_read_is_flagged() {
        let target = LintTarget::new(geometry());
        let report = run(vec![CimInstruction::ReadRow { tile: 0, row: 3 }], &target);
        assert_eq!(report.error_count(), 1);
        assert_eq!(report.diagnostics[0].rule, RuleCode::UninitRead);
    }

    #[test]
    fn resident_rows_are_readable_but_not_writable() {
        let target = LintTarget::new(geometry()).with_resident_rows(0, 0..4);
        let ok = run(
            vec![CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::And,
                rows: vec![0, 3],
            }],
            &target,
        );
        assert!(ok.is_clean(), "{}", ok.to_text());
        let bad = run(vec![wr(0, 2)], &target);
        assert_eq!(bad.diagnostics[0].rule, RuleCode::ResidentWrite);
        // Scratch rows above the resident range stay writable.
        let scratch = run(vec![wr(0, 6)], &target);
        assert!(scratch.is_clean());
    }

    #[test]
    fn store_last_without_definition() {
        let target = LintTarget::new(geometry());
        let report = run(vec![CimInstruction::StoreLast { tile: 0, row: 0 }], &target);
        assert_eq!(report.diagnostics[0].rule, RuleCode::LatchUndef);
    }

    #[test]
    fn dead_latch_is_a_warning_only_when_unreturned() {
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::Or,
                rows: vec![0, 1],
            },
            CimInstruction::Logic {
                tile: 0,
                op: ScoutOp::And,
                rows: vec![0, 1],
            },
            CimInstruction::StoreLast { tile: 0, row: 2 },
        ];
        let target = LintTarget::new(geometry());
        // Returned to the host: instruction 2 is an output, not dead.
        let all_out = lint(&program, &[2, 3], &target);
        assert!(all_out.is_clean(), "{}", all_out.to_text());
        // Not an output and clobbered by instruction 3: dead.
        let report = lint(&program, &[3], &target);
        assert_eq!(report.error_count(), 0);
        assert_eq!(report.warning_count(), 1);
        let warn = &report.diagnostics[0];
        assert_eq!(warn.rule, RuleCode::LatchDead);
        assert_eq!(warn.instr_index, 2);
    }

    #[test]
    fn dead_latch_at_end_of_program() {
        let program = vec![wr(0, 0), CimInstruction::ReadRow { tile: 0, row: 0 }];
        let target = LintTarget::new(geometry());
        let report = lint(&program, &[], &target);
        assert_eq!(report.warning_count(), 1);
        assert_eq!(report.diagnostics[0].instr_index, 1);
    }

    #[test]
    fn tile_and_row_bounds() {
        let target = LintTarget::new(geometry());
        let report = run(
            vec![
                CimInstruction::ReadRow { tile: 5, row: 0 },
                wr(0, 200),
                CimInstruction::Mvm {
                    tile: 3,
                    col: 0,
                    x: vec![0.0; 4],
                },
            ],
            &target,
        );
        let rules: Vec<RuleCode> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![
                RuleCode::TileBounds,
                RuleCode::RowBounds,
                RuleCode::TileBounds
            ]
        );
    }

    #[test]
    fn cam_slot_and_entry_bounds() {
        let target = LintTarget::new(geometry());
        // 8 rows = 4 slots; slot 4 and a 5-entry search both overflow.
        let report = run(
            vec![
                CimInstruction::WriteKey {
                    tile: 0,
                    slot: 4,
                    value: BitVec::zeros(16),
                    care: BitVec::ones(16),
                },
                CimInstruction::MatchSearch {
                    tile: 0,
                    entries: 5,
                    key: BitVec::zeros(16),
                    kind: MatchKind::Exact,
                },
            ],
            &target,
        );
        assert!(
            report
                .diagnostics
                .iter()
                .filter(|d| d.rule == RuleCode::RowBounds)
                .count()
                >= 2
        );
    }

    #[test]
    fn arity_rules() {
        let target = LintTarget::new(geometry());
        let logic = |op, rows| CimInstruction::Logic { tile: 0, op, rows };
        let program = vec![
            wr(0, 0),
            wr(0, 1),
            wr(0, 2),
            logic(ScoutOp::Xor, vec![0, 1, 2]), // XOR needs exactly 2
            logic(ScoutOp::And, vec![0]),       // fewer than 2
            logic(ScoutOp::Or, vec![0, 1, 2, 0, 1]), // above fan-in 4
            logic(ScoutOp::Or, vec![0, 0]),     // duplicate rows
        ];
        let report = run(program, &target);
        let arity: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleCode::BadArity)
            .map(|d| d.instr_index)
            .collect();
        assert_eq!(arity, vec![3, 4, 5, 5, 6]);
    }

    #[test]
    fn width_mismatches() {
        let target = LintTarget::new(geometry());
        let report = run(
            vec![
                CimInstruction::WriteRow {
                    tile: 0,
                    row: 0,
                    bits: BitVec::ones(3),
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(9, 2, |_, _| 1.0),
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(2, 3, |_, _| 1.0),
                },
                CimInstruction::Mvm {
                    tile: 0,
                    col: 0,
                    x: vec![0.0; 7],
                },
            ],
            &target,
        );
        let widths: Vec<usize> = report
            .diagnostics
            .iter()
            .filter(|d| d.rule == RuleCode::WidthMismatch)
            .map(|d| d.instr_index)
            .collect();
        assert_eq!(widths, vec![0, 1, 3], "{}", report.to_text());
    }

    #[test]
    fn analog_resident_protection_and_uninit_sense() {
        let fresh = LintTarget::new(geometry());
        let report = run(
            vec![CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: vec![0.0; 4],
            }],
            &fresh,
        );
        assert_eq!(report.diagnostics[0].rule, RuleCode::UninitRead);

        // A resident 2x3 matrix: MVMs drive its 3 columns, MVMTs its 2
        // rows, and any other length is a width mismatch.
        let resident = LintTarget::new(geometry()).with_resident_analog(0, Block::new(0, (2, 3)));
        let ok = run(
            vec![
                CimInstruction::Mvm {
                    tile: 0,
                    col: 0,
                    x: vec![0.0; 3],
                },
                CimInstruction::MvmT {
                    tile: 0,
                    col: 0,
                    z: vec![0.0; 2],
                },
            ],
            &resident,
        );
        assert!(ok.is_clean(), "{}", ok.to_text());
        let wrong = run(
            vec![
                CimInstruction::Mvm {
                    tile: 0,
                    col: 0,
                    x: vec![0.0; 4],
                },
                CimInstruction::MvmT {
                    tile: 0,
                    col: 0,
                    z: vec![0.0; 3],
                },
            ],
            &resident,
        );
        let rules: Vec<RuleCode> = wrong.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(rules, vec![RuleCode::WidthMismatch; 2]);
        let reprogram = run(
            vec![CimInstruction::ProgramMatrix {
                tile: 0,
                col: 0,
                matrix: Matrix::from_fn(2, 2, |_, _| 1.0),
            }],
            &resident,
        );
        assert_eq!(reprogram.diagnostics[0].rule, RuleCode::ResidentWrite);
    }

    #[test]
    fn blocks_share_a_tile_and_products_address_them_by_column() {
        let prog = |col, rows, cols| CimInstruction::ProgramMatrix {
            tile: 0,
            col,
            matrix: Matrix::from_fn(rows, cols, |_, _| 1.0),
        };
        let mvm = |col, len| CimInstruction::Mvm {
            tile: 0,
            col,
            x: vec![0.0; len],
        };
        let mvm_t = |col, len| CimInstruction::MvmT {
            tile: 0,
            col,
            z: vec![0.0; len],
        };
        // Two layers side by side in the 4x4 tile: columns 0..3 and 3..4.
        let target = LintTarget::new(geometry());
        let clean = run(
            vec![
                prog(0, 4, 3),
                prog(3, 2, 1),
                mvm(0, 3),
                mvm(3, 1),
                mvm_t(3, 2),
            ],
            &target,
        );
        assert!(clean.is_clean(), "{}", clean.to_text());
        // A product whose column starts no block, or whose width is not
        // its block's, is a width mismatch; so is a block that leaves
        // the tile or lands on a live block.
        let report = run(
            vec![
                prog(0, 4, 3),
                mvm(1, 2),
                mvm(0, 1),
                prog(2, 2, 2),
                prog(3, 1, 2),
            ],
            &target,
        );
        let rules: Vec<(usize, RuleCode)> = report
            .diagnostics
            .iter()
            .map(|d| (d.instr_index, d.rule))
            .collect();
        assert_eq!(
            rules,
            (1..5)
                .map(|i| (i, RuleCode::WidthMismatch))
                .collect::<Vec<_>>(),
            "{}",
            report.to_text()
        );
        // Resident blocks are checked the same way, and any program on
        // their tile is a resident write.
        let resident = LintTarget::new(geometry())
            .with_resident_analog(0, Block::new(0, (4, 2)))
            .with_resident_analog(0, Block::new(2, (1, 2)));
        assert!(run(vec![mvm(0, 2), mvm_t(2, 1)], &resident).is_clean());
        let report = run(vec![mvm(2, 1), prog(3, 1, 1)], &resident);
        let rules: Vec<RuleCode> = report.diagnostics.iter().map(|d| d.rule).collect();
        assert_eq!(
            rules,
            vec![RuleCode::WidthMismatch, RuleCode::ResidentWrite]
        );
    }

    #[test]
    fn cam_round_trip_is_clean() {
        let target = LintTarget::new(geometry());
        let program = vec![
            CimInstruction::WriteKey {
                tile: 0,
                slot: 0,
                value: BitVec::zeros(16),
                care: BitVec::ones(16),
            },
            CimInstruction::WriteKey {
                tile: 0,
                slot: 1,
                value: BitVec::ones(16),
                care: BitVec::ones(16),
            },
            CimInstruction::MatchSearch {
                tile: 0,
                entries: 2,
                key: BitVec::zeros(16),
                kind: MatchKind::Ternary,
            },
        ];
        let report = run(program, &target);
        assert!(report.is_clean(), "{}", report.to_text());
        // Searching a third, never-written entry senses uninit rows.
        let over = run(
            vec![CimInstruction::MatchSearch {
                tile: 0,
                entries: 3,
                key: BitVec::zeros(16),
                kind: MatchKind::Exact,
            }],
            &target,
        );
        assert_eq!(over.diagnostics[0].rule, RuleCode::UninitRead);
    }

    #[test]
    fn reports_are_deterministic_and_sorted() {
        let target = LintTarget::new(geometry());
        let program = vec![
            CimInstruction::StoreLast { tile: 0, row: 99 },
            CimInstruction::ReadRow { tile: 9, row: 0 },
        ];
        let outputs: Vec<usize> = (0..program.len()).collect();
        let a = lint(&program, &outputs, &target);
        let b = lint(&program, &outputs, &target);
        assert_eq!(a, b);
        assert_eq!(a.to_json(), b.to_json());
        let indices: Vec<usize> = a.diagnostics.iter().map(|d| d.instr_index).collect();
        let mut sorted = indices.clone();
        sorted.sort_unstable();
        assert_eq!(indices, sorted);
    }
}
