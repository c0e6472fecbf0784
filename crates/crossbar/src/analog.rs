//! Analog matrix-vector multiplication in a PCM crossbar.
//!
//! The measurement matrix (or weight matrix) is programmed as device
//! conductances; a matrix-vector product is one physical read:
//!
//! 1. the input vector is quantized by row DACs and applied as voltages
//!    (negative elements as negative voltages, §III-B-2),
//! 2. every column wire sums `I_j = Σ_i V_i·G_ij` (Ohm + Kirchhoff),
//! 3. a reference column carrying the zero-weight conductance `g_min` is
//!    subtracted to remove the mapping offset,
//! 4. column ADCs digitize the currents, and the result is rescaled back
//!    to weight×input units.
//!
//! The transpose product `Aᵀ·z` drives the *columns* and reads the *rows*
//! of the same array — this is what lets AMP reuse one programmed matrix
//! for both of its products (§III-B-2).
//!
//! [`DifferentialCrossbar`] pairs two arrays with a subtraction circuit to
//! represent signed matrices.
//!
//! # The word-parallel fast path
//!
//! Device state lives in a struct-of-arrays [`PcmBank`] (flat conductance
//! and pulse-ledger vectors in fabrication order), and the read path is
//! vectorized: each output line is one dot product over a contiguous
//! conductance slice, and read noise is sampled per *output line* from the
//! exact aggregate distribution of the per-device draws —
//! `I_j ~ N(Σ V·g, σ_eff)` with `σ_eff² = Σ (V·σ_read·g)²`, which is
//! distribution-identical to summing one Gaussian per device.
//!
//! The forward product folds four output lines per pass over the input
//! voltages (one blocked kernel, which folds a block's last one to three
//! lines the same way). Each line still accumulates its own `Σ V·g`,
//! `Σ (V·g)²` and device power in column order, and the lines' powers
//! are added to the product's total line by line, so outputs, costs and
//! statistics are bit-identical to folding one line at a time; the four
//! independent accumulator chains keep the floating-point adders busy
//! where one line's chain would wait on each add. Two tiers result:
//!
//! * **nominal** (`sigma_read == 0`, or an all-zero input): no stochastic
//!   draws at all — counted in [`CrossbarStats::nominal_mvms`];
//! * **sampled** (`sigma_read > 0`): one aggregate Gaussian per output
//!   line — counted in [`CrossbarStats::noise_samples`].
//!
//! Programming is batched through [`PcmBank::program_and_verify`]: one RNG
//! pass per pulse round over only the still-unconverged devices, with
//! per-device pulse counts and the wear ledger preserved. The
//! pre-refactor per-device simulator is kept as
//! [`crate::reference::ReferenceAnalogCrossbar`], pinned against this
//! implementation by the `analog_equivalence` proptest suite:
//! bit-identical stored state and outputs at zero sigmas, distributional
//! agreement otherwise, accounting to 1e-12 relative.
//!
//! # Blocks and erase
//!
//! A tile holds matrices side by side in *column blocks*: each block is
//! one matrix's own `rows × cols` devices, anchored at row 0 and at the
//! block's first column, with its own conductance mapping. A program
//! writes only its block's devices and replaces any block whose columns
//! it overlaps; a forward product over a block drives only the block's
//! columns and converts only its rows (the transpose swaps the two),
//! and [`CrossbarEnergyModel::mvm_cost`] prices exactly those lines, as
//! the paper prices a layer by the rows and columns it drives (§IV-A).
//! So two layers of a network can share one tile — say a 32 × 256 block
//! in columns 0–255 and an 8 × 32 block in columns 256–287 — and each
//! product costs what it would on a tile of its own. The column-0 entry
//! points ([`AnalogCrossbar::program_matrix`],
//! [`AnalogCrossbar::matvec`], …) address the block at column 0; a
//! full-tile matrix is the block that covers the tile.
//!
//! [`AnalogCrossbar::erase`] RESETs every device programmed since the
//! last erase back to `g_min` — one pulse per device not already there,
//! no random draws, no conductance mapping — and leaves the tile with
//! no blocks. It is how a tile is cleared between tenants.

use crate::energy::{CrossbarEnergyModel, OperationCost};
use crate::mapping::{split_signed, ConductanceMapping};
use cim_device::pcm::PcmParams;
use cim_device::pcm_bank::PcmBank;
use cim_simkit::linalg::Matrix;
use cim_simkit::quant::UniformQuantizer;
use cim_simkit::rng::standard_normal;
use cim_simkit::units::{Seconds, Volts};
use rand::Rng;

/// Configuration of an analog crossbar tile.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalogParams {
    /// Device technology parameters.
    pub pcm: PcmParams,
    /// Row-DAC resolution in bits.
    pub dac_bits: u32,
    /// Column-ADC resolution in bits.
    pub adc_bits: u32,
    /// Relative tolerance for iterative program-and-verify.
    pub program_tolerance: f64,
    /// Time elapsed since programming, applied as drift on every read.
    pub age: Seconds,
    /// Full-scale read voltage on a row.
    pub read_voltage: Volts,
    /// Input magnitude mapped to the full-scale read voltage when
    /// dynamic scaling is off.
    pub input_full_scale: f64,
    /// Digitally pre-scale every input vector so its largest magnitude
    /// hits the DAC full scale (and undo the factor on the outputs).
    /// This is the standard per-vector scaling used by analog MVM
    /// hardware; disable it only to study DAC clipping.
    pub dynamic_input_scaling: bool,
    /// Optional ADC full-scale current override. `None` sizes the ADC to
    /// the worst-case column current (never clips, coarser steps).
    pub adc_full_scale_override: Option<f64>,
}

impl Default for AnalogParams {
    fn default() -> Self {
        AnalogParams {
            pcm: PcmParams::default(),
            dac_bits: 8,
            adc_bits: 8,
            program_tolerance: 0.01,
            age: Seconds(1.0),
            read_voltage: Volts(0.2),
            input_full_scale: 1.0,
            dynamic_input_scaling: true,
            adc_full_scale_override: None,
        }
    }
}

impl AnalogParams {
    /// Idealized configuration (noise-free devices, 16-bit converters) for
    /// isolating algorithmic behaviour from analog non-idealities.
    pub fn ideal() -> Self {
        AnalogParams {
            pcm: PcmParams::ideal(),
            dac_bits: 16,
            adc_bits: 16,
            program_tolerance: 1e-6,
            ..AnalogParams::default()
        }
    }
}

/// Execution statistics accumulated by a crossbar tile.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CrossbarStats {
    /// Completed forward matrix-vector products.
    pub mvms: u64,
    /// Completed transpose matrix-vector products.
    pub transpose_mvms: u64,
    /// Products served on the nominal no-sampling tier: `sigma_read == 0`
    /// configurations and all-zero inputs, where the fast path draws no
    /// stochastic samples at all.
    pub nominal_mvms: u64,
    /// Matrix programming operations.
    pub programs: u64,
    /// Total pulses across all devices: program-and-verify pulses and
    /// the RESET pulses of erases.
    pub program_pulses: u64,
    /// Stochastic read samples drawn during analog products. The fast
    /// path draws one *aggregate* sample per output line per sampled-tier
    /// MVM (`N(Σ V·g, σ_eff)`, distribution-identical to per-device
    /// draws); the per-device reference simulator draws one per
    /// (nonzero input line × output line).
    pub noise_samples: u64,
    /// Total energy across all operations.
    pub energy: cim_simkit::units::Joules,
    /// Total busy time across all operations.
    pub busy_time: Seconds,
}

impl CrossbarStats {
    /// Combines the statistics of two tiles operating in parallel:
    /// counters and energy add, busy time overlaps (max).
    pub fn merged(&self, other: &CrossbarStats) -> CrossbarStats {
        CrossbarStats {
            mvms: self.mvms + other.mvms,
            transpose_mvms: self.transpose_mvms + other.transpose_mvms,
            nominal_mvms: self.nominal_mvms + other.nominal_mvms,
            programs: self.programs + other.programs,
            program_pulses: self.program_pulses + other.program_pulses,
            noise_samples: self.noise_samples + other.noise_samples,
            energy: self.energy + other.energy,
            busy_time: self.busy_time.max(other.busy_time),
        }
    }
}

/// One matrix a tile holds: anchored at row 0 and column `col`, of its
/// own shape, under its own weight↔conductance mapping.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Block {
    col: usize,
    rows: usize,
    cols: usize,
    mapping: ConductanceMapping,
}

impl Block {
    /// Whether the block's columns overlap `col..col + cols`.
    fn overlaps(&self, col: usize, cols: usize) -> bool {
        self.col < col + cols && col < self.col + self.cols
    }
}

/// A single analog crossbar tile storing non-negative matrices.
///
/// Device state lives in a struct-of-arrays [`PcmBank`]; the read and
/// program paths are the vectorized fast path described in the
/// [module docs](self). Each programmed matrix occupies a column block
/// anchored at row 0, and [`Self::erase`] RESETs what was programmed
/// (see [Blocks and erase](self#blocks-and-erase)).
#[derive(Debug, Clone)]
pub struct AnalogCrossbar {
    rows: usize,
    cols: usize,
    params: AnalogParams,
    bank: PcmBank,
    /// The programmed blocks, in column order; empty when unprogrammed.
    blocks: Vec<Block>,
    energy_model: CrossbarEnergyModel,
    stats: CrossbarStats,
    /// Reusable DAC-output scratch buffer (row voltages).
    volts: Vec<f64>,
    /// Reusable per-output-line variance accumulator scratch buffer.
    sq: Vec<f64>,
}

impl AnalogCrossbar {
    /// Creates an unprogrammed `rows × cols` tile.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: AnalogParams) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be nonzero");
        let bank = PcmBank::new(rows, cols, params.pcm);
        let energy_model = CrossbarEnergyModel::for_tile(rows, cols, params.adc_bits);
        AnalogCrossbar {
            rows,
            cols,
            params,
            bank,
            blocks: Vec::new(),
            energy_model,
            stats: CrossbarStats::default(),
            volts: Vec::new(),
            sq: Vec::new(),
        }
    }

    /// Tile dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Tile configuration.
    pub fn params(&self) -> &AnalogParams {
        &self.params
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// The weight↔conductance mapping of the block at column 0, if
    /// one is programmed.
    pub fn mapping(&self) -> Option<&ConductanceMapping> {
        self.mapping_at(0)
    }

    /// The weight↔conductance mapping of the block whose first column is
    /// `col`, if one is programmed there.
    pub fn mapping_at(&self, col: usize) -> Option<&ConductanceMapping> {
        self.blocks
            .iter()
            .find(|b| b.col == col)
            .map(|b| &b.mapping)
    }

    /// The underlying struct-of-arrays device bank (conductances and the
    /// per-device wear ledger).
    pub fn bank(&self) -> &PcmBank {
        &self.bank
    }

    /// Programs a non-negative matrix into the block at column 0,
    /// deriving the mapping from its largest entry. Returns the total
    /// programming cost.
    ///
    /// # Panics
    ///
    /// Panics if the matrix is larger than the tile, contains negative
    /// entries, or is all zeros.
    pub fn program_matrix<R: Rng + ?Sized>(&mut self, m: &Matrix, rng: &mut R) -> OperationCost {
        self.program_matrix_at(0, m, rng)
    }

    /// Programs a non-negative matrix into a block of its own shape at
    /// column `col`, deriving the mapping from its largest entry.
    ///
    /// # Panics
    ///
    /// Panics if the block leaves the tile, or the matrix contains
    /// negative entries or is all zeros.
    pub fn program_matrix_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        m: &Matrix,
        rng: &mut R,
    ) -> OperationCost {
        let mapping =
            ConductanceMapping::for_matrix(self.params.pcm.g_min, self.params.pcm.g_max, m);
        self.program_matrix_with_mapping(col, m, mapping, rng)
    }

    /// Programs a non-negative matrix under an explicit mapping (shared
    /// across the tiles of a differential pair) into a block of its own
    /// shape at column `col`, via one batched program-and-verify pass
    /// over the block's devices. The block replaces every block whose
    /// columns it overlaps.
    ///
    /// # Panics
    ///
    /// Panics if the block leaves the tile or the matrix contains
    /// negative entries.
    pub fn program_matrix_with_mapping<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        m: &Matrix,
        mapping: ConductanceMapping,
        rng: &mut R,
    ) -> OperationCost {
        let window = (m.rows(), m.cols());
        assert!(
            window.0 <= self.rows && col + window.1 <= self.cols,
            "a {}x{} matrix at column {col} does not fit the {}x{} tile",
            window.0,
            window.1,
            self.rows,
            self.cols
        );
        let targets: Vec<f64> = m
            .as_slice()
            .iter()
            .map(|&w| {
                assert!(w >= 0.0, "negative weight {w} on a single-ended tile");
                mapping.weight_to_conductance(w).0
            })
            .collect();
        let report =
            self.bank
                .program_and_verify(col, window, &targets, self.params.program_tolerance, rng);
        self.blocks.retain(|b| !b.overlaps(col, window.1));
        let at = self.blocks.partition_point(|b| b.col < col);
        self.blocks.insert(
            at,
            Block {
                col,
                rows: window.0,
                cols: window.1,
                mapping,
            },
        );
        self.stats.programs += 1;
        self.stats.program_pulses += report.pulses;
        self.stats.energy += report.energy;
        // Rows program in lock-step rounds, so the pass takes as long as
        // its slowest device.
        self.stats.busy_time += report.latency;
        OperationCost {
            energy: report.energy,
            latency: report.latency,
        }
    }

    /// RESETs every device programmed since the last erase to `g_min`
    /// (one pulse per device not already there, booked in the wear
    /// ledger and in the stats' pulses, energy and busy time) and drops
    /// every block, so the tile reads as unprogrammed. Draws no random
    /// numbers and needs no mapping. Returns the erase cost.
    pub fn erase(&mut self) -> OperationCost {
        let report = self.bank.erase();
        self.blocks.clear();
        self.stats.program_pulses += report.pulses;
        self.stats.energy += report.energy;
        self.stats.busy_time += report.latency;
        OperationCost {
            energy: report.energy,
            latency: report.latency,
        }
    }

    /// The block whose first column is `col`.
    ///
    /// # Panics
    ///
    /// Panics if the tile is not programmed, or no block starts at
    /// `col`.
    fn block(&self, col: usize) -> Block {
        assert!(!self.blocks.is_empty(), "crossbar not programmed");
        match self.blocks.iter().find(|b| b.col == col) {
            Some(block) => *block,
            None => panic!("no matrix block starts at column {col}"),
        }
    }

    /// The matrix the block at column 0 encodes, decoded from programmed
    /// (noise-free, pre-drift) conductances.
    ///
    /// # Panics
    ///
    /// Panics if the tile is not programmed or holds no block at
    /// column 0.
    pub fn stored_matrix(&self) -> Matrix {
        self.stored_matrix_at(0)
    }

    /// The matrix the block at column `col` encodes, decoded from
    /// programmed (noise-free, pre-drift) conductances.
    ///
    /// # Panics
    ///
    /// Panics if the tile is not programmed or no block starts at `col`.
    pub fn stored_matrix_at(&self, col: usize) -> Matrix {
        let block = self.block(col);
        Matrix::from_fn(block.rows, block.cols, |i, j| {
            block
                .mapping
                .conductance_to_weight(cim_simkit::units::Siemens(self.bank.extent_row(i)[col + j]))
        })
    }

    /// Forward analog product `y = A·x` over the block at column 0
    /// (`x.len()` is the block's columns, the output length its rows).
    ///
    /// # Panics
    ///
    /// Panics if the tile holds no block at column 0 or `x` does not
    /// match the block's columns.
    pub fn matvec<R: Rng + ?Sized>(&mut self, x: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_at(0, x, rng).0
    }

    /// Forward analog product over the block at column 0, returning the
    /// operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if the tile holds no block at column 0 or `x` does not
    /// match the block's columns.
    pub fn matvec_with_cost<R: Rng + ?Sized>(
        &mut self,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        self.matvec_at(0, x, rng)
    }

    /// Forward analog product `y = A·x` over the block at column `col`,
    /// returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if no block starts at `col` or `x` does not match the
    /// block's columns.
    pub fn matvec_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (y, cost, samples) = self.product(col, x, true, rng);
        self.stats.mvms += 1;
        self.note_samples(samples);
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (y, cost)
    }

    /// Transpose analog product `x = Aᵀ·z` over the block at column 0
    /// (`z.len()` is the block's rows, the output length its columns),
    /// driving the other axis of the *same* programmed array — the reuse
    /// AMP exploits.
    ///
    /// # Panics
    ///
    /// Panics if the tile holds no block at column 0 or `z` does not
    /// match the block's rows.
    pub fn matvec_t<R: Rng + ?Sized>(&mut self, z: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_t_at(0, z, rng).0
    }

    /// Transpose analog product over the block at column 0, returning
    /// the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if the tile holds no block at column 0 or `z` does not
    /// match the block's rows.
    pub fn matvec_t_with_cost<R: Rng + ?Sized>(
        &mut self,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        self.matvec_t_at(0, z, rng)
    }

    /// Transpose analog product `x = Aᵀ·z` over the block at column
    /// `col`, returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if no block starts at `col` or `z` does not match the
    /// block's rows.
    pub fn matvec_t_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (y, cost, samples) = self.product(col, z, false, rng);
        self.stats.transpose_mvms += 1;
        self.note_samples(samples);
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (y, cost)
    }

    fn note_samples(&mut self, samples: u64) {
        if samples == 0 {
            self.stats.nominal_mvms += 1;
        } else {
            self.stats.noise_samples += samples;
        }
    }

    /// Shared vectorized analog read path over the block at column
    /// `col`. `forward == true` computes `A·x` (inputs indexed by matrix
    /// column), `forward == false` computes `Aᵀ·z` (inputs indexed by
    /// matrix row). The third return is the number of aggregate
    /// stochastic samples drawn (one per output line on the sampled
    /// tier, zero on the nominal tier).
    fn product<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        input: &[f64],
        forward: bool,
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost, u64) {
        let Block {
            rows,
            cols,
            mapping,
            ..
        } = self.block(col);
        let p = self.params;
        let (n_in, n_out) = if forward { (cols, rows) } else { (rows, cols) };
        assert_eq!(
            input.len(),
            n_in,
            "input length must equal the block's {}",
            if forward { "columns" } else { "rows" }
        );

        // 1. Digital pre-scaler: normalize the vector to the DAC full
        //    scale (undone on the outputs), then DAC-quantize and convert
        //    to row voltages — into the reusable scratch buffer.
        let in_scale = if p.dynamic_input_scaling {
            let peak = input.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if peak == 0.0 {
                // An all-zero vector drives no rows: the converters still
                // cycle, the devices dissipate nothing.
                let cost = self.energy_model.mvm_cost(0.0, n_in, n_out);
                return (vec![0.0; n_out], cost, 0);
            }
            peak
        } else {
            p.input_full_scale
        };
        let mut volts = std::mem::take(&mut self.volts);
        let dac = UniformQuantizer::mid_tread(p.dac_bits, 1.0);
        volts.clear();
        volts.extend(
            input
                .iter()
                .map(|&x| dac.quantize(x / in_scale) * p.read_voltage.0),
        );

        // 2. Kirchhoff accumulation over contiguous conductance rows: each
        //    output line is one dot product, tracking Σ V·g (the mean
        //    current), Σ (V·g)² (the aggregate noise variance, sampled
        //    tier only) and instantaneous device power. The per-device
        //    drifted conductance `g·(t/t₀)^(−ν)` is formed inside the loop
        //    so the accumulation is bit-identical to the per-device
        //    reference at `sigma_read == 0`.
        let drift = self.bank.drift_factor(p.age);
        let bank = &self.bank;
        let sampled = p.pcm.sigma_read > 0.0;
        let mut currents = vec![0.0f64; n_out];
        let mut sq = std::mem::take(&mut self.sq);
        sq.clear();
        sq.resize(if sampled { n_out } else { 0 }, 0.0);
        let mut device_power = 0.0f64;
        if forward {
            let mut first = 0;
            while first < n_out {
                let (lines, kernel): (usize, Kernel) = match (n_out - first, sampled) {
                    (1, false) => (1, fold_lines::<1, false>),
                    (2, false) => (2, fold_lines::<2, false>),
                    (3, false) => (3, fold_lines::<3, false>),
                    (_, false) => (BLOCK_LINES, fold_lines::<BLOCK_LINES, false>),
                    (1, true) => (1, fold_lines::<1, true>),
                    (2, true) => (2, fold_lines::<2, true>),
                    (3, true) => (3, fold_lines::<3, true>),
                    (_, true) => (BLOCK_LINES, fold_lines::<BLOCK_LINES, true>),
                };
                let rows: [&[f64]; BLOCK_LINES] = std::array::from_fn(|l| match l < lines {
                    true => &bank.extent_row(first + l)[col..col + n_in],
                    false => &[],
                });
                let outputs = first..first + lines;
                kernel(
                    &rows,
                    &volts,
                    drift,
                    &mut currents[outputs.clone()],
                    sq.get_mut(outputs).unwrap_or_default(),
                    &mut device_power,
                );
                first += lines;
            }
        } else {
            for (i, &v) in volts.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                let row = &bank.extent_row(i)[col..col + cols];
                if sampled {
                    for ((current, s), &gp) in currents.iter_mut().zip(sq.iter_mut()).zip(row) {
                        let t = v * (gp * drift);
                        *current += t;
                        *s += t * t;
                        device_power += v * t;
                    }
                } else {
                    for (current, &gp) in currents.iter_mut().zip(row) {
                        let t = v * (gp * drift);
                        *current += t;
                        device_power += v * t;
                    }
                }
            }
        }

        // 2b. Sampled tier: one aggregate Gaussian per output line,
        //     N(Σ V·g, σ_eff) with σ_eff² = σ_read²·Σ (V·g)² —
        //     distribution-identical to summing a per-device draw for
        //     every activated device.
        let samples = if sampled {
            for (current, &sumsq) in currents.iter_mut().zip(&sq) {
                *current += p.pcm.sigma_read * sumsq.sqrt() * standard_normal(rng);
            }
            n_out as u64
        } else {
            0
        };

        // 3. Reference-line subtraction of the g_min offset.
        let v_sum: f64 = volts.iter().sum();
        let offset = v_sum * mapping.g_min().0;
        for c in &mut currents {
            *c -= offset;
        }

        // 4. ADC quantization in the current domain. Without an explicit
        //    override the converter auto-ranges to the access's peak
        //    column current — modelling the programmable-gain stage real
        //    crossbar read-outs place before the ADC, which preserves
        //    *relative* precision across widely varying signal levels.
        let peak_current = currents.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let full_scale = p.adc_full_scale_override.unwrap_or(peak_current).max(1e-18);
        let adc = UniformQuantizer::mid_tread(p.adc_bits, full_scale);

        // 5. Rescale current-domain values to weight×input units, undoing
        //    the digital pre-scaler — in place: `currents` becomes the
        //    output vector.
        let lsb_scale = in_scale * mapping.w_max()
            / (p.read_voltage.0 * (mapping.g_max().0 - mapping.g_min().0));
        for c in &mut currents {
            *c = adc.quantize(*c) * lsb_scale;
        }

        let cost = self.energy_model.mvm_cost(device_power, n_in, n_out);
        self.volts = volts;
        self.sq = sq;
        (currents, cost, samples)
    }
}

/// Output lines the forward kernel folds per pass over the input
/// voltages.
const BLOCK_LINES: usize = 4;

/// A forward kernel: [`fold_lines`] for one line count and tier.
type Kernel = fn(&[&[f64]; BLOCK_LINES], &[f64], f64, &mut [f64], &mut [f64], &mut f64);

/// The blocked forward kernel: folds the first `N` of `rows` (a block's
/// output lines, each the block's conductances of one row) in one pass
/// over the row voltages `volts`, with the per-device drifted
/// conductance `g·drift` formed in the loop. Each line keeps its own
/// `Σ V·g` (into `currents`), `Σ (V·g)²` (into `sq`, on the `SAMPLED`
/// tier only) and device power, each folded in column order, and the
/// lines' powers are added to `device_power` line by line — so every
/// value is bit-identical to folding one line at a time.
fn fold_lines<const N: usize, const SAMPLED: bool>(
    rows: &[&[f64]; BLOCK_LINES],
    volts: &[f64],
    drift: f64,
    currents: &mut [f64],
    sq: &mut [f64],
    device_power: &mut f64,
) {
    let n = volts.len();
    let lines: [&[f64]; N] = std::array::from_fn(|l| &rows[l][..n]);
    let mut sum = [0.0f64; N];
    let mut sumsq = [0.0f64; N];
    let mut power = [0.0f64; N];
    for (c, &v) in volts.iter().enumerate() {
        for l in 0..N {
            let t = v * (lines[l][c] * drift);
            sum[l] += t;
            if SAMPLED {
                sumsq[l] += t * t;
            }
            power[l] += v * t;
        }
    }
    currents.copy_from_slice(&sum);
    if SAMPLED {
        sq.copy_from_slice(&sumsq);
    }
    for p in power {
        *device_power += p;
    }
}

/// A signed-matrix crossbar: positive and negative parts on two tiles,
/// combined by a subtraction circuit. Both tiles hold each matrix in the
/// same column block and erase together (see
/// [Blocks and erase](self#blocks-and-erase)).
#[derive(Debug, Clone)]
pub struct DifferentialCrossbar {
    positive: AnalogCrossbar,
    negative: AnalogCrossbar,
}

impl DifferentialCrossbar {
    /// Creates an unprogrammed differential pair of `rows × cols` tiles.
    pub fn new(rows: usize, cols: usize, params: AnalogParams) -> Self {
        DifferentialCrossbar {
            positive: AnalogCrossbar::new(rows, cols, params),
            negative: AnalogCrossbar::new(rows, cols, params),
        }
    }

    /// Tile dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.positive.shape()
    }

    /// The `(positive, negative)` tiles of the pair.
    pub fn tiles(&self) -> (&AnalogCrossbar, &AnalogCrossbar) {
        (&self.positive, &self.negative)
    }

    /// Programs a signed matrix into the block at column 0 (see
    /// [`Self::program_matrix_at`]).
    ///
    /// # Panics
    ///
    /// Panics if the matrix is larger than the tiles or is all zeros.
    pub fn program_matrix<R: Rng + ?Sized>(&mut self, m: &Matrix, rng: &mut R) -> OperationCost {
        self.program_matrix_at(0, m, rng)
    }

    /// Programs a signed matrix into a block of its own shape at column
    /// `col`: its positive part on one tile, the magnitude of its
    /// negative part on the other, under one shared mapping so the
    /// subtraction is consistent.
    ///
    /// # Panics
    ///
    /// Panics if the block leaves the tiles or the matrix is all zeros.
    pub fn program_matrix_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        m: &Matrix,
        rng: &mut R,
    ) -> OperationCost {
        let mapping = ConductanceMapping::for_matrix(
            self.positive.params.pcm.g_min,
            self.positive.params.pcm.g_max,
            m,
        );
        let (pos, neg) = split_signed(m);
        let c1 = self
            .positive
            .program_matrix_with_mapping(col, &pos, mapping, rng);
        let c2 = self
            .negative
            .program_matrix_with_mapping(col, &neg, mapping, rng);
        OperationCost {
            energy: c1.energy + c2.energy,
            // The two tiles program in parallel.
            latency: c1.latency.max(c2.latency),
        }
    }

    /// Erases both tiles (see [`AnalogCrossbar::erase`]); they erase in
    /// parallel.
    pub fn erase(&mut self) -> OperationCost {
        let c1 = self.positive.erase();
        let c2 = self.negative.erase();
        c1.alongside(c2)
    }

    /// The signed matrix the block at column 0 encodes (positive tile
    /// minus negative tile, noise-free view).
    ///
    /// # Panics
    ///
    /// Panics if the pair holds no block at column 0.
    pub fn stored_matrix(&self) -> Matrix {
        self.stored_matrix_at(0)
    }

    /// The signed matrix the block at column `col` encodes.
    ///
    /// # Panics
    ///
    /// Panics if no block starts at `col`.
    pub fn stored_matrix_at(&self, col: usize) -> Matrix {
        let p = self.positive.stored_matrix_at(col);
        let n = self.negative.stored_matrix_at(col);
        Matrix::from_fn(p.rows(), p.cols(), |i, j| p.get(i, j) - n.get(i, j))
    }

    /// Forward product `y = A·x` over the block at column 0, through
    /// both tiles and the subtraction circuit.
    pub fn matvec<R: Rng + ?Sized>(&mut self, x: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_at(0, x, rng).0
    }

    /// Forward product over the block at column 0 with its operation
    /// cost.
    pub fn matvec_with_cost<R: Rng + ?Sized>(
        &mut self,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        self.matvec_at(0, x, rng)
    }

    /// Forward product over the block at column `col` with its operation
    /// cost (both tiles read in parallel: energies add, latencies
    /// overlap).
    pub fn matvec_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (yp, cp) = self.positive.matvec_at(col, x, rng);
        let (yn, cn) = self.negative.matvec_at(col, x, rng);
        let y = yp.iter().zip(&yn).map(|(a, b)| a - b).collect();
        (
            y,
            OperationCost {
                energy: cp.energy + cn.energy,
                latency: cp.latency.max(cn.latency),
            },
        )
    }

    /// Transpose product `x = Aᵀ·z` over the block at column 0, through
    /// both tiles.
    pub fn matvec_t<R: Rng + ?Sized>(&mut self, z: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_t_at(0, z, rng).0
    }

    /// Transpose product over the block at column 0 with its operation
    /// cost.
    pub fn matvec_t_with_cost<R: Rng + ?Sized>(
        &mut self,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        self.matvec_t_at(0, z, rng)
    }

    /// Transpose product over the block at column `col` with its
    /// operation cost (tiles in parallel).
    pub fn matvec_t_at<R: Rng + ?Sized>(
        &mut self,
        col: usize,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (yp, cp) = self.positive.matvec_t_at(col, z, rng);
        let (yn, cn) = self.negative.matvec_t_at(col, z, rng);
        let y = yp.iter().zip(&yn).map(|(a, b)| a - b).collect();
        (y, cp.alongside(cn))
    }

    /// Combined statistics of both tiles.
    pub fn stats(&self) -> CrossbarStats {
        self.positive.stats().merged(self.negative.stats())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;
    use cim_simkit::stats::rmse;
    use cim_simkit::units::Siemens;

    fn test_matrix(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |i, j| ((i * cols + j) % 7) as f64 / 7.0)
    }

    #[test]
    fn ideal_tile_reproduces_exact_product() {
        let mut rng = seeded(1);
        let a = test_matrix(16, 12);
        let mut xbar = AnalogCrossbar::new(16, 12, AnalogParams::ideal());
        xbar.program_matrix(&a, &mut rng);
        let x: Vec<f64> = (0..12).map(|i| (i as f64 / 12.0) - 0.5).collect();
        let y = xbar.matvec(&x, &mut rng);
        let y_exact = a.matvec(&x);
        assert!(rmse(&y_exact, &y) < 1e-3, "rmse {}", rmse(&y_exact, &y));
    }

    #[test]
    fn ideal_transpose_matches_exact() {
        let mut rng = seeded(2);
        let a = test_matrix(10, 14);
        let mut xbar = AnalogCrossbar::new(10, 14, AnalogParams::ideal());
        xbar.program_matrix(&a, &mut rng);
        let z: Vec<f64> = (0..10).map(|j| (j as f64 / 10.0) - 0.3).collect();
        let y = xbar.matvec_t(&z, &mut rng);
        let y_exact = a.matvec_t(&z);
        assert!(rmse(&y_exact, &y) < 1e-3);
    }

    #[test]
    fn realistic_tile_is_approximate_but_close() {
        let mut rng = seeded(3);
        let a = test_matrix(32, 32);
        let mut xbar = AnalogCrossbar::new(32, 32, AnalogParams::default());
        xbar.program_matrix(&a, &mut rng);
        let x = vec![0.5; 32];
        let y = xbar.matvec(&x, &mut rng);
        let y_exact = a.matvec(&x);
        let e = rmse(&y_exact, &y);
        assert!(e > 0.0, "realistic tile should not be exact");
        assert!(e < 0.5, "rmse too large: {e}");
    }

    #[test]
    fn stored_matrix_matches_programmed_within_tolerance() {
        let mut rng = seeded(4);
        let a = test_matrix(8, 8);
        let mut xbar = AnalogCrossbar::new(8, 8, AnalogParams::default());
        xbar.program_matrix(&a, &mut rng);
        let stored = xbar.stored_matrix();
        let mapping = xbar.mapping().unwrap();
        // program tolerance is relative to the conductance window → weight
        // error ≤ tolerance × w_max.
        let tol = 0.01 * mapping.w_max() + 1e-12;
        for i in 0..8 {
            for j in 0..8 {
                assert!(
                    (stored.get(i, j) - a.get(i, j)).abs() <= tol,
                    "({i},{j}): {} vs {}",
                    stored.get(i, j),
                    a.get(i, j)
                );
            }
        }
    }

    #[test]
    fn differential_pair_handles_signed_matrices() {
        let mut rng = seeded(5);
        let a = Matrix::from_fn(12, 12, |i, j| ((i as f64 - j as f64) / 12.0).sin());
        let mut pair = DifferentialCrossbar::new(12, 12, AnalogParams::ideal());
        pair.program_matrix(&a, &mut rng);
        let x: Vec<f64> = (0..12).map(|i| 0.8 * ((i as f64) / 6.0 - 1.0)).collect();
        let y = pair.matvec(&x, &mut rng);
        let y_exact = a.matvec(&x);
        assert!(rmse(&y_exact, &y) < 2e-3, "rmse {}", rmse(&y_exact, &y));
        let yt = pair.matvec_t(&x, &mut rng);
        let yt_exact = a.matvec_t(&x);
        assert!(rmse(&yt_exact, &yt) < 2e-3);
    }

    #[test]
    fn differential_stored_matrix_reconstructs_sign() {
        let mut rng = seeded(6);
        let a = Matrix::from_rows(&[&[1.0, -2.0], &[-0.5, 0.0]]);
        let mut pair = DifferentialCrossbar::new(2, 2, AnalogParams::ideal());
        pair.program_matrix(&a, &mut rng);
        let s = pair.stored_matrix();
        for i in 0..2 {
            for j in 0..2 {
                assert!((s.get(i, j) - a.get(i, j)).abs() < 1e-6);
            }
        }
    }

    #[test]
    fn stats_count_every_operation() {
        let mut rng = seeded(7);
        let a = test_matrix(4, 4);
        let mut xbar = AnalogCrossbar::new(4, 4, AnalogParams::default());
        xbar.program_matrix(&a, &mut rng);
        let x = vec![0.1; 4];
        xbar.matvec(&x, &mut rng);
        xbar.matvec(&x, &mut rng);
        xbar.matvec_t(&[0.1; 4], &mut rng);
        let s = xbar.stats();
        assert_eq!(s.mvms, 2);
        assert_eq!(s.transpose_mvms, 1);
        assert_eq!(s.programs, 1);
        assert!(s.program_pulses >= 16, "pulses {}", s.program_pulses);
        // Default params sample one aggregate draw per output line.
        assert_eq!(s.noise_samples, 3 * 4);
        assert_eq!(s.nominal_mvms, 0);
        assert!(s.energy.0 > 0.0);
        assert!(s.busy_time.0 > 0.0);
    }

    #[test]
    fn nominal_tier_draws_no_samples() {
        let mut rng = seeded(13);
        let a = test_matrix(6, 6);
        let mut params = AnalogParams::default();
        params.pcm.sigma_read = 0.0;
        let mut xbar = AnalogCrossbar::new(6, 6, params);
        xbar.program_matrix(&a, &mut rng);
        xbar.matvec(&[0.3; 6], &mut rng);
        xbar.matvec_t(&[0.2; 6], &mut rng);
        let s = xbar.stats();
        assert_eq!(s.noise_samples, 0);
        assert_eq!(s.nominal_mvms, 2);
    }

    #[test]
    fn wear_ledger_tracks_per_device_pulses() {
        let mut rng = seeded(14);
        let a = test_matrix(4, 4);
        let mut xbar = AnalogCrossbar::new(4, 4, AnalogParams::default());
        xbar.program_matrix(&a, &mut rng);
        let ledger: u64 = xbar.bank().total_pulses();
        assert_eq!(ledger, xbar.stats().program_pulses);
        // The all-zero weight maps to g_min: that fresh device needs no
        // pulse, so its ledger entry stays zero.
        assert_eq!(xbar.bank().pulse_count(0, 0), 0);
    }

    #[test]
    fn mvm_cost_is_positive_and_scales_with_size() {
        let mut rng = seeded(8);
        let small_m = test_matrix(8, 8);
        let mut small = AnalogCrossbar::new(8, 8, AnalogParams::default());
        small.program_matrix(&small_m, &mut rng);
        let (_, c_small) = small.matvec_with_cost(&[0.5; 8], &mut rng);

        let big_m = test_matrix(64, 64);
        let mut big = AnalogCrossbar::new(64, 64, AnalogParams::default());
        big.program_matrix(&big_m, &mut rng);
        let (_, c_big) = big.matvec_with_cost(&vec![0.5; 64], &mut rng);

        assert!(c_small.energy.0 > 0.0);
        assert!(c_big.energy.0 > c_small.energy.0);
    }

    #[test]
    fn coarse_adc_degrades_accuracy() {
        let a = test_matrix(16, 16);
        let x = vec![0.7; 16];
        let y_exact = a.matvec(&x);

        let mut fine_err = 0.0;
        let mut coarse_err = 0.0;
        for seed in 0..10 {
            let mut rng = seeded(100 + seed);
            let mut p = AnalogParams::ideal();
            p.adc_bits = 12;
            let mut xbar = AnalogCrossbar::new(16, 16, p);
            xbar.program_matrix(&a, &mut rng);
            fine_err += rmse(&y_exact, &xbar.matvec(&x, &mut rng));

            let mut rng = seeded(100 + seed);
            let mut p = AnalogParams::ideal();
            p.adc_bits = 3;
            let mut xbar = AnalogCrossbar::new(16, 16, p);
            xbar.program_matrix(&a, &mut rng);
            coarse_err += rmse(&y_exact, &xbar.matvec(&x, &mut rng));
        }
        assert!(
            coarse_err > 4.0 * fine_err,
            "coarse {coarse_err} vs fine {fine_err}"
        );
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let mut rng = seeded(9);
        let a = test_matrix(8, 8);
        let mut xbar = AnalogCrossbar::new(8, 8, AnalogParams::default());
        xbar.program_matrix(&a, &mut rng);
        let y = xbar.matvec(&[0.0; 8], &mut rng);
        assert!(y.iter().all(|&v| v.abs() < 1e-9), "{y:?}");
        // All-zero inputs draw nothing: served on the nominal tier.
        assert_eq!(xbar.stats().nominal_mvms, 1);
    }

    #[test]
    fn block_products_drive_and_convert_only_its_lines() {
        let mut rng = seeded(15);
        let params = AnalogParams::ideal();
        let a = test_matrix(3, 5);
        let mut xbar = AnalogCrossbar::new(8, 8, params);
        xbar.program_matrix(&a, &mut rng);
        let stored = xbar.stored_matrix();
        assert_eq!((stored.rows(), stored.cols()), (3, 5));
        assert_eq!(stored.as_slice(), a.as_slice());
        // Only the block's 15 devices were written.
        assert_eq!(xbar.bank().extent(), (3, 5));
        let x: Vec<f64> = (0..5).map(|i| i as f64 / 5.0 - 0.4).collect();
        let y = xbar.matvec(&x, &mut rng);
        assert_eq!(y.len(), 3);
        assert!(rmse(&a.matvec(&x), &y) < 1e-3);
        let z = [0.3, -0.2, 0.5];
        assert!(rmse(&a.matvec_t(&z), &xbar.matvec_t(&z, &mut rng)) < 1e-3);
        // The converters are priced for the block's 5 inputs and 3
        // outputs (forward) and 3 inputs and 5 outputs (transpose).
        let model = CrossbarEnergyModel::for_tile(8, 8, params.adc_bits);
        let (_, cost) = xbar.matvec_with_cost(&[0.0; 5], &mut rng);
        assert_eq!(cost, model.mvm_cost(0.0, 5, 3));
        let (_, cost) = xbar.matvec_t_with_cost(&[0.0; 3], &mut rng);
        assert_eq!(cost, model.mvm_cost(0.0, 3, 5));
    }

    #[test]
    fn erase_resets_what_was_programmed_and_unprograms() {
        let mut rng = seeded(16);
        let params = AnalogParams::default();
        let mut xbar = AnalogCrossbar::new(6, 10, params);
        xbar.program_matrix(&test_matrix(6, 10), &mut rng);
        xbar.program_matrix(&test_matrix(2, 3), &mut rng);
        assert_eq!(xbar.bank().extent(), (6, 10), "the union of both blocks");
        let off_g_min = xbar
            .bank()
            .conductances()
            .iter()
            .filter(|&&g| g != params.pcm.g_min.0)
            .count() as u64;
        let pulses = xbar.stats().program_pulses;
        let cost = xbar.erase();
        assert_eq!(xbar.stats().program_pulses - pulses, off_g_min);
        assert!(
            (cost.energy.0 - params.pcm.program_pulse_energy.0 * off_g_min as f64).abs() < 1e-24
        );
        assert_eq!(cost.latency, params.pcm.program_pulse_latency);
        assert_eq!(xbar.stats().programs, 2, "an erase is not a program");
        assert_eq!(xbar.bank().total_pulses(), xbar.stats().program_pulses);
        assert!(xbar
            .bank()
            .conductances()
            .iter()
            .all(|&g| g == params.pcm.g_min.0));
        assert!(xbar.mapping().is_none(), "an erased tile is unprogrammed");
    }

    #[test]
    fn blocks_side_by_side_read_like_tiles_of_their_own() {
        let params = AnalogParams::default();
        let (a, b) = (test_matrix(6, 5), test_matrix(3, 4));
        let mut shared = DifferentialCrossbar::new(8, 12, params);
        let mut first = DifferentialCrossbar::new(8, 12, params);
        let mut second = DifferentialCrossbar::new(8, 12, params);
        let (mut rng_shared, mut rng_alone) = (seeded(19), seeded(19));
        // The same draws in the same order: A at column 0, then B at
        // column 5 of one tile, against A and B on tiles of their own.
        let costs = (
            shared.program_matrix_at(0, &a, &mut rng_shared),
            shared.program_matrix_at(5, &b, &mut rng_shared),
        );
        assert_eq!(costs.0, first.program_matrix(&a, &mut rng_alone));
        assert_eq!(costs.1, second.program_matrix(&b, &mut rng_alone));
        assert_eq!(shared.stored_matrix_at(5), second.stored_matrix());
        let x: Vec<f64> = (0..5).map(|i| i as f64 / 5.0 - 0.3).collect();
        let z = [0.4, -0.1, 0.2];
        for _ in 0..3 {
            assert_eq!(
                shared.matvec_at(0, &x, &mut rng_shared),
                first.matvec_with_cost(&x, &mut rng_alone)
            );
            assert_eq!(
                shared.matvec_at(5, &x[..4], &mut rng_shared),
                second.matvec_with_cost(&x[..4], &mut rng_alone)
            );
            assert_eq!(
                shared.matvec_t_at(5, &z, &mut rng_shared),
                second.matvec_t_with_cost(&z, &mut rng_alone)
            );
        }
        let merged = first.stats().merged(&second.stats());
        let stats = shared.stats();
        assert_eq!(
            (stats.programs, stats.program_pulses, stats.noise_samples),
            (merged.programs, merged.program_pulses, merged.noise_samples)
        );
        // An erase RESETs both blocks, as erasing both tiles would, and
        // drops them.
        shared.erase();
        first.erase();
        second.erase();
        let merged = first.stats().merged(&second.stats());
        assert_eq!(shared.stats().program_pulses, merged.program_pulses);
        let (positive, _) = shared.tiles();
        assert!(positive.mapping_at(5).is_none());
    }

    #[test]
    fn a_program_replaces_the_blocks_it_overlaps() {
        let mut rng = seeded(20);
        let mut xbar = AnalogCrossbar::new(4, 10, AnalogParams::ideal());
        xbar.program_matrix_at(0, &test_matrix(2, 3), &mut rng);
        xbar.program_matrix_at(3, &test_matrix(2, 3), &mut rng);
        xbar.program_matrix_at(7, &test_matrix(2, 3), &mut rng);
        xbar.program_matrix_at(2, &test_matrix(4, 2), &mut rng);
        assert!(xbar.mapping_at(0).is_none() && xbar.mapping_at(3).is_none());
        assert!(xbar.mapping_at(2).is_some() && xbar.mapping_at(7).is_some());
        assert_eq!(
            xbar.stored_matrix_at(2).as_slice(),
            test_matrix(4, 2).as_slice()
        );
    }

    #[test]
    #[should_panic(expected = "no matrix block starts at column 1")]
    fn products_address_a_block_by_its_first_column() {
        let mut rng = seeded(21);
        let mut xbar = AnalogCrossbar::new(4, 8, AnalogParams::default());
        xbar.program_matrix_at(0, &test_matrix(4, 2), &mut rng);
        let _ = xbar.matvec_at(1, &[0.5; 2], &mut rng);
    }

    #[test]
    #[should_panic(expected = "at column 6 does not fit the 4x8 tile")]
    fn a_block_past_the_last_column_panics() {
        let mut rng = seeded(22);
        let mut xbar = AnalogCrossbar::new(4, 8, AnalogParams::default());
        xbar.program_matrix_at(6, &test_matrix(4, 3), &mut rng);
    }

    #[test]
    #[should_panic(expected = "does not fit the 4x4 tile")]
    fn oversized_matrix_panics() {
        let mut rng = seeded(17);
        let mut xbar = AnalogCrossbar::new(4, 4, AnalogParams::default());
        xbar.program_matrix(&test_matrix(4, 5), &mut rng);
    }

    #[test]
    #[should_panic(expected = "block's columns")]
    fn matvec_checks_the_block_width() {
        let mut rng = seeded(18);
        let mut xbar = AnalogCrossbar::new(4, 4, AnalogParams::default());
        xbar.program_matrix(&test_matrix(4, 2), &mut rng);
        let _ = xbar.matvec(&[0.5; 4], &mut rng);
    }

    #[test]
    #[should_panic(expected = "not programmed")]
    fn matvec_requires_programming() {
        let mut rng = seeded(10);
        let mut xbar = AnalogCrossbar::new(4, 4, AnalogParams::default());
        let _ = xbar.matvec(&[0.0; 4], &mut rng);
    }

    #[test]
    #[should_panic(expected = "negative weight")]
    fn single_ended_tile_rejects_negative() {
        let mut rng = seeded(11);
        let mut xbar = AnalogCrossbar::new(2, 2, AnalogParams::default());
        let m = Matrix::from_rows(&[&[1.0, -1.0], &[0.0, 0.0]]);
        let mapping = ConductanceMapping::new(Siemens(0.1e-6), Siemens(20e-6), 1.0);
        xbar.program_matrix_with_mapping(0, &m, mapping, &mut rng);
    }

    #[test]
    fn drift_ages_reduce_outputs() {
        let a = test_matrix(16, 16);
        let x = vec![0.8; 16];
        let mut rng = seeded(12);
        let mut young_p = AnalogParams::default();
        young_p.pcm.sigma_read = 0.0;
        young_p.age = Seconds(1.0);
        let mut young = AnalogCrossbar::new(16, 16, young_p);
        young.program_matrix(&a, &mut rng);
        let y_young: f64 = young.matvec(&x, &mut rng).iter().sum();

        let mut rng = seeded(12);
        let mut old_p = young_p;
        old_p.age = Seconds(1e6);
        let mut old = AnalogCrossbar::new(16, 16, old_p);
        old.program_matrix(&a, &mut rng);
        let y_old: f64 = old.matvec(&x, &mut rng).iter().sum();

        assert!(
            y_old < y_young * 0.9,
            "drift should depress outputs: young {y_young}, old {y_old}"
        );
    }
}
