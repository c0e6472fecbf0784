//! Per-device reference implementations of the array simulators.
//!
//! [`ReferenceDigitalArray`] is the original `Vec<ReramDevice>` simulator:
//! one [`ReramDevice`] struct per bit, a fresh `V/R` division per activated
//! device on *every* access, a cycle-to-cycle noise draw per device per
//! read, and per-bit [`BitVec`] construction. It is deliberately kept
//! un-optimized as the behavioural ground truth for the word-parallel
//! [`crate::digital::DigitalArray`]:
//!
//! * the `soa_equivalence` proptest suite pins stored states, sensed
//!   outputs (whenever `sigma_c2c == 0`) and energy/latency accounting of
//!   the fast path against this model across random geometries;
//! * the `perf_smoke` bench binary measures the fast path's wall-clock
//!   speedup over this pre-refactor inner loop and asserts it stays
//!   above its floor.
//!
//! [`ReferenceAnalogCrossbar`] and [`ReferenceDifferentialCrossbar`] play
//! the same two roles for the analog layer: they are the pre-refactor
//! `Vec<PcmDevice>` simulator — per-device program-and-verify with one RNG
//! draw per pulse, and a scalar double loop drawing per-device read noise
//! on every MVM — pinned against the vectorized
//! [`crate::analog::AnalogCrossbar`] by the `analog_equivalence` suite and
//! raced by the `analog_mvm` perf-smoke group.
//!
//! [`ReferenceCamArray`] is the same ground truth for match-line search,
//! pinned against [`crate::cam::CamArray`] by the `cam_equivalence`
//! suite.
//!
//! The APIs mirror the fast arrays' access surfaces.

use crate::analog::{AnalogParams, CrossbarStats};
use crate::cam::{window_references, MatchKind};
use crate::digital::{DigitalStats, SENSE_AMP_ENERGY};
use crate::energy::{CrossbarEnergyModel, OperationCost};
use crate::mapping::{split_signed, ConductanceMapping};
use crate::scouting::{ScoutOp, SenseAmplifier};
use cim_device::pcm::PcmDevice;
use cim_device::reram::{ReramDevice, ReramParams};
use cim_simkit::bitvec::BitVec;
use cim_simkit::linalg::Matrix;
use cim_simkit::quant::UniformQuantizer;
use cim_simkit::units::{Amperes, Joules, Seconds};
use rand::Rng;

/// A `rows × cols` array of individually modelled binary devices.
#[derive(Debug, Clone)]
pub struct ReferenceDigitalArray {
    rows: usize,
    cols: usize,
    params: ReramParams,
    devices: Vec<ReramDevice>,
    sense_amp: SenseAmplifier,
    stats: DigitalStats,
}

impl ReferenceDigitalArray {
    /// Fabricates an array with per-device variation drawn from `rng`, in
    /// the same device order as [`crate::digital::DigitalArray::new`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        rows: usize,
        cols: usize,
        params: ReramParams,
        rng: &mut R,
    ) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be nonzero");
        let devices = (0..rows * cols)
            .map(|_| ReramDevice::new(params, rng))
            .collect();
        ReferenceDigitalArray {
            rows,
            cols,
            params,
            devices,
            sense_amp: SenseAmplifier::new(&params),
            stats: DigitalStats::default(),
        }
    }

    /// Array dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &DigitalStats {
        &self.stats
    }

    /// Writes a bit vector into row `r`, one device at a time.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range or `bits.len() != cols`.
    pub fn write_row(&mut self, r: usize, bits: &BitVec) -> OperationCost {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        assert_eq!(bits.len(), self.cols, "row width mismatch");
        let mut energy = Joules::ZERO;
        for j in 0..self.cols {
            energy += self.devices[r * self.cols + j].write(bits.get(j));
        }
        let cost = OperationCost {
            energy,
            latency: self.params.write_latency,
        };
        self.stats.row_writes += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        cost
    }

    /// The bits stored in row `r` (device states, no sensing noise).
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn stored_row(&self, r: usize) -> BitVec {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        BitVec::from_fn(self.cols, |j| self.devices[r * self.cols + j].bit())
    }

    /// Reads row `r` through the sense amplifiers, drawing one noise
    /// sample per device.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn read_row<R: Rng + ?Sized>(&mut self, r: usize, rng: &mut R) -> BitVec {
        self.read_row_with_cost(r, rng).0
    }

    /// [`Self::read_row`] returning the access cost alongside.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::read_row`].
    pub fn read_row_with_cost<R: Rng + ?Sized>(
        &mut self,
        r: usize,
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        assert!(r < self.rows, "row {r} out of range {}", self.rows);
        let reference = self.sense_amp.read_reference();
        let out = BitVec::from_fn(self.cols, |j| {
            let i = self.devices[r * self.cols + j].read_current(rng);
            i.0 > reference.0
        });
        let cost = self.access_cost(&[r]);
        self.stats.row_reads += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (out, cost)
    }

    /// Executes a Scouting-Logic operation over the given stored rows.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of range, rows repeat, or the operation
    /// does not support the fan-in.
    pub fn scout<R: Rng + ?Sized>(&mut self, op: ScoutOp, rows: &[usize], rng: &mut R) -> BitVec {
        self.scout_with_cost(op, rows, rng).0
    }

    /// [`Self::scout`] returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Same conditions as [`Self::scout`].
    pub fn scout_with_cost<R: Rng + ?Sized>(
        &mut self,
        op: ScoutOp,
        rows: &[usize],
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        let k = rows.len();
        assert!(op.supports_fan_in(k), "{op:?} does not support fan-in {k}");
        for (n, &r) in rows.iter().enumerate() {
            assert!(r < self.rows, "row {r} out of range {}", self.rows);
            assert!(
                !rows[..n].contains(&r),
                "row {r} activated twice in one scouting access"
            );
        }
        let out = BitVec::from_fn(self.cols, |j| {
            let mut i_in = Amperes::ZERO;
            for &r in rows {
                i_in += self.devices[r * self.cols + j].read_current(rng);
            }
            self.sense_amp.decide(op, k, i_in)
        });
        let cost = self.access_cost(rows);
        self.stats.scout_ops += 1;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (out, cost)
    }

    /// The exact boolean result of the scouting access, from stored
    /// states.
    ///
    /// # Panics
    ///
    /// Panics if any row is out of range.
    pub fn scout_exact(&self, op: ScoutOp, rows: &[usize]) -> BitVec {
        BitVec::from_fn(self.cols, |j| {
            let bits: Vec<bool> = rows
                .iter()
                .map(|&r| self.devices[r * self.cols + j].bit())
                .collect();
            op.apply(&bits)
        })
    }

    /// The pre-refactor access costing: re-derives every activated
    /// device's read energy (a `V/R` division each) on every access.
    fn access_cost(&self, rows: &[usize]) -> OperationCost {
        let mut energy = SENSE_AMP_ENERGY * self.cols as f64;
        for &r in rows {
            for j in 0..self.cols {
                energy += self.devices[r * self.cols + j].read_energy();
            }
        }
        OperationCost {
            energy,
            latency: self.params.read_latency,
        }
    }
}

/// A `rows × cols` analog tile of individually modelled PCM devices — the
/// pre-refactor behavioural ground truth for
/// [`crate::analog::AnalogCrossbar`].
///
/// Programming runs iterative program-and-verify one device at a time
/// (one RNG draw per pulse, device-major order); every analog product
/// draws per-device read noise in a scalar double loop, so its
/// [`CrossbarStats::noise_samples`] counts one sample per
/// (nonzero input line × output line) per MVM.
#[derive(Debug, Clone)]
pub struct ReferenceAnalogCrossbar {
    rows: usize,
    cols: usize,
    params: AnalogParams,
    devices: Vec<PcmDevice>,
    mapping: Option<ConductanceMapping>,
    energy_model: CrossbarEnergyModel,
    stats: CrossbarStats,
}

impl ReferenceAnalogCrossbar {
    /// Creates an unprogrammed `rows × cols` tile, every device in the
    /// fully-RESET state (same fabrication contract as the fast path —
    /// PCM fabrication draws no RNG).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize, params: AnalogParams) -> Self {
        assert!(rows > 0 && cols > 0, "crossbar dimensions must be nonzero");
        let devices = vec![PcmDevice::new(params.pcm); rows * cols];
        let energy_model = CrossbarEnergyModel::for_tile(rows, cols, params.adc_bits);
        ReferenceAnalogCrossbar {
            rows,
            cols,
            params,
            devices,
            mapping: None,
            energy_model,
            stats: CrossbarStats::default(),
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

    /// The active weight↔conductance mapping, if programmed.
    pub fn mapping(&self) -> Option<&ConductanceMapping> {
        self.mapping.as_ref()
    }

    /// Programs a non-negative matrix, deriving the mapping from its
    /// largest entry. Returns the total programming cost.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape mismatches the tile, contains negative
    /// entries, or is all zeros.
    pub fn program_matrix<R: Rng + ?Sized>(&mut self, m: &Matrix, rng: &mut R) -> OperationCost {
        let mapping =
            ConductanceMapping::for_matrix(self.params.pcm.g_min, self.params.pcm.g_max, m);
        self.program_matrix_with_mapping(m, mapping, rng)
    }

    /// Programs a non-negative matrix under an explicit mapping, running
    /// program-and-verify per device with one RNG draw per pulse.
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape mismatches the tile or contains negative
    /// entries.
    pub fn program_matrix_with_mapping<R: Rng + ?Sized>(
        &mut self,
        m: &Matrix,
        mapping: ConductanceMapping,
        rng: &mut R,
    ) -> OperationCost {
        assert_eq!(
            (m.rows(), m.cols()),
            (self.rows, self.cols),
            "matrix shape mismatch"
        );
        let mut pulses = 0u64;
        let mut energy = Joules::ZERO;
        let mut latency = Seconds::ZERO;
        for i in 0..self.rows {
            for j in 0..self.cols {
                let w = m.get(i, j);
                assert!(w >= 0.0, "negative weight {w} on a single-ended tile");
                let target = mapping.weight_to_conductance(w);
                let report = self.devices[i * self.cols + j].program_and_verify(
                    target,
                    self.params.program_tolerance,
                    rng,
                );
                pulses += report.pulses as u64;
                energy += report.energy;
                // Rows are programmed sequentially; devices within a row in
                // parallel, so the row latency is its slowest device.
                latency = latency.max(report.latency);
            }
        }
        self.mapping = Some(mapping);
        self.stats.programs += 1;
        self.stats.program_pulses += pulses;
        self.stats.energy += energy;
        self.stats.busy_time += latency;
        OperationCost { energy, latency }
    }

    /// The matrix the tile currently encodes, decoded from programmed
    /// (noise-free, pre-drift) conductances.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed.
    pub fn stored_matrix(&self) -> Matrix {
        let mapping = match self.mapping {
            Some(m) => m,
            None => panic!("crossbar not programmed"),
        };
        Matrix::from_fn(self.rows, self.cols, |i, j| {
            mapping.conductance_to_weight(self.devices[i * self.cols + j].programmed_conductance())
        })
    }

    /// Forward analog product `y = A·x`.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed or `x.len() != cols`.
    pub fn matvec<R: Rng + ?Sized>(&mut self, x: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_with_cost(x, rng).0
    }

    /// Forward analog product returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed or `x.len() != cols`.
    pub fn matvec_with_cost<R: Rng + ?Sized>(
        &mut self,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        assert_eq!(x.len(), self.cols, "input length must equal cols");
        let (y, cost, samples) = self.product(x, true, rng);
        self.stats.mvms += 1;
        self.stats.noise_samples += samples;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (y, cost)
    }

    /// Transpose analog product `x = Aᵀ·z`.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed or `z.len() != rows`.
    pub fn matvec_t<R: Rng + ?Sized>(&mut self, z: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_t_with_cost(z, rng).0
    }

    /// Transpose analog product returning the operation cost alongside.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed or `z.len() != rows`.
    pub fn matvec_t_with_cost<R: Rng + ?Sized>(
        &mut self,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        assert_eq!(z.len(), self.rows, "input length must equal rows");
        let (y, cost, samples) = self.product(z, false, rng);
        self.stats.transpose_mvms += 1;
        self.stats.noise_samples += samples;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (y, cost)
    }

    /// The product `A·x` computed from programmed conductances without
    /// noise, drift or quantization.
    ///
    /// # Panics
    ///
    /// Panics if the tile was never programmed.
    pub fn ideal_matvec(&self, x: &[f64]) -> Vec<f64> {
        self.stored_matrix().matvec(x)
    }

    /// The pre-refactor analog read path: a scalar double loop drawing one
    /// stochastic read per activated device. The third return is the
    /// number of per-device samples drawn.
    fn product<R: Rng + ?Sized>(
        &self,
        input: &[f64],
        forward: bool,
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost, u64) {
        let mapping = match self.mapping {
            Some(m) => m,
            None => panic!("crossbar not programmed"),
        };
        let p = &self.params;
        let (n_in, n_out) = if forward {
            (self.cols, self.rows)
        } else {
            (self.rows, self.cols)
        };

        // 1. Digital pre-scaler, DAC quantization, row voltages.
        let in_scale = if p.dynamic_input_scaling {
            let peak = input.iter().fold(0.0f64, |m, v| m.max(v.abs()));
            if peak == 0.0 {
                let cost = self.energy_model.mvm_cost(0.0, n_in, n_out);
                return (vec![0.0; n_out], cost, 0);
            }
            peak
        } else {
            p.input_full_scale
        };
        let dac = UniformQuantizer::mid_tread(p.dac_bits, 1.0);
        let volts: Vec<f64> = input
            .iter()
            .map(|&x| dac.quantize(x / in_scale) * p.read_voltage.0)
            .collect();

        // 2. Kirchhoff accumulation with per-device read-noise samples.
        let mut currents = vec![0.0f64; n_out];
        let mut device_power = 0.0f64;
        let mut samples = 0u64;
        for (i, &v) in volts.iter().enumerate() {
            if v == 0.0 {
                continue;
            }
            samples += n_out as u64;
            for (j, current) in currents.iter_mut().enumerate() {
                let idx = if forward {
                    j * self.cols + i
                } else {
                    i * self.cols + j
                };
                let g = self.devices[idx].read(p.age, rng).0;
                *current += v * g;
                device_power += v * v * g;
            }
        }

        // 3. Reference-line subtraction of the g_min offset.
        let v_sum: f64 = volts.iter().sum();
        let offset = v_sum * mapping.g_min().0;
        for c in &mut currents {
            *c -= offset;
        }

        // 4. Auto-ranging ADC quantization in the current domain.
        let peak_current = currents.iter().fold(0.0f64, |m, c| m.max(c.abs()));
        let full_scale = p.adc_full_scale_override.unwrap_or(peak_current).max(1e-18);
        let adc = UniformQuantizer::mid_tread(p.adc_bits, full_scale);
        let digitized: Vec<f64> = currents.iter().map(|&c| adc.quantize(c)).collect();

        // 5. Rescale to weight×input units, undoing the pre-scaler.
        let lsb_scale = in_scale * mapping.w_max()
            / (p.read_voltage.0 * (mapping.g_max().0 - mapping.g_min().0));
        let y: Vec<f64> = digitized.iter().map(|&c| c * lsb_scale).collect();

        let cost = self.energy_model.mvm_cost(device_power, n_in, n_out);
        (y, cost, samples)
    }
}

/// The per-device differential pair: two [`ReferenceAnalogCrossbar`] tiles
/// and a subtraction circuit, mirroring
/// [`crate::analog::DifferentialCrossbar`].
#[derive(Debug, Clone)]
pub struct ReferenceDifferentialCrossbar {
    positive: ReferenceAnalogCrossbar,
    negative: ReferenceAnalogCrossbar,
}

impl ReferenceDifferentialCrossbar {
    /// Creates an unprogrammed differential pair of `rows × cols` tiles.
    pub fn new(rows: usize, cols: usize, params: AnalogParams) -> Self {
        ReferenceDifferentialCrossbar {
            positive: ReferenceAnalogCrossbar::new(rows, cols, params),
            negative: ReferenceAnalogCrossbar::new(rows, cols, params),
        }
    }

    /// Tile dimensions `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        self.positive.shape()
    }

    /// Programs a signed matrix under one shared mapping, positive part
    /// first then negative magnitudes (device-major RNG order within each
    /// tile).
    ///
    /// # Panics
    ///
    /// Panics if the matrix shape mismatches the tiles or is all zeros.
    pub fn program_matrix<R: Rng + ?Sized>(&mut self, m: &Matrix, rng: &mut R) -> OperationCost {
        let mapping = ConductanceMapping::for_matrix(
            self.positive.params.pcm.g_min,
            self.positive.params.pcm.g_max,
            m,
        );
        let (pos, neg) = split_signed(m);
        let c1 = self
            .positive
            .program_matrix_with_mapping(&pos, mapping, rng);
        let c2 = self
            .negative
            .program_matrix_with_mapping(&neg, mapping, rng);
        OperationCost {
            energy: c1.energy + c2.energy,
            // The two tiles program in parallel.
            latency: c1.latency.max(c2.latency),
        }
    }

    /// The signed matrix currently encoded (noise-free view).
    ///
    /// # Panics
    ///
    /// Panics if the pair was never programmed.
    pub fn stored_matrix(&self) -> Matrix {
        let p = self.positive.stored_matrix();
        let n = self.negative.stored_matrix();
        Matrix::from_fn(p.rows(), p.cols(), |i, j| p.get(i, j) - n.get(i, j))
    }

    /// Forward product `y = A·x` through both tiles.
    pub fn matvec<R: Rng + ?Sized>(&mut self, x: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_with_cost(x, rng).0
    }

    /// Forward product with its operation cost (tiles in parallel).
    pub fn matvec_with_cost<R: Rng + ?Sized>(
        &mut self,
        x: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (yp, cp) = self.positive.matvec_with_cost(x, rng);
        let (yn, cn) = self.negative.matvec_with_cost(x, rng);
        let y = yp.iter().zip(&yn).map(|(a, b)| a - b).collect();
        (
            y,
            OperationCost {
                energy: cp.energy + cn.energy,
                latency: cp.latency.max(cn.latency),
            },
        )
    }

    /// Transpose product `x = Aᵀ·z` through both tiles.
    pub fn matvec_t<R: Rng + ?Sized>(&mut self, z: &[f64], rng: &mut R) -> Vec<f64> {
        self.matvec_t_with_cost(z, rng).0
    }

    /// Transpose product with its operation cost (tiles in parallel).
    pub fn matvec_t_with_cost<R: Rng + ?Sized>(
        &mut self,
        z: &[f64],
        rng: &mut R,
    ) -> (Vec<f64>, OperationCost) {
        let (yp, cp) = self.positive.matvec_t_with_cost(z, rng);
        let (yn, cn) = self.negative.matvec_t_with_cost(z, rng);
        let y = yp.iter().zip(&yn).map(|(a, b)| a - b).collect();
        (y, cp.alongside(cn))
    }

    /// Combined statistics of both tiles.
    pub fn stats(&self) -> CrossbarStats {
        self.positive.stats().merged(self.negative.stats())
    }
}

/// Bit-serial reference CAM: one [`ReramDevice`] struct per cell, a
/// noisy current draw per conducting cell on every search, scalar
/// match-line sums. Deliberately un-optimized — the behavioural ground
/// truth the word-parallel path is property-tested against, fabricated
/// in the identical device order so stored states are bit-identical.
#[derive(Debug, Clone)]
pub struct ReferenceCamArray {
    entries: usize,
    width: usize,
    params: ReramParams,
    /// Row-major over `2·entries` rows: entry `s`'s value cells at row
    /// `2s`, care cells at row `2s + 1`.
    devices: Vec<ReramDevice>,
    stats: DigitalStats,
}

impl ReferenceCamArray {
    /// Fabricates the reference CAM in the same device order as
    /// [`crate::cam::CamArray::new`].
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new<R: Rng + ?Sized>(
        entries: usize,
        width: usize,
        params: ReramParams,
        rng: &mut R,
    ) -> Self {
        assert!(entries > 0 && width > 0, "CAM dimensions must be nonzero");
        let devices = (0..2 * entries * width)
            .map(|_| ReramDevice::new(params, rng))
            .collect();
        ReferenceCamArray {
            entries,
            width,
            params,
            devices,
            stats: DigitalStats::default(),
        }
    }

    /// CAM dimensions `(entries, width)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.entries, self.width)
    }

    /// Accumulated execution statistics.
    pub fn stats(&self) -> &DigitalStats {
        &self.stats
    }

    /// Writes one entry, one device at a time.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range or a width does not match.
    pub fn write_key(&mut self, slot: usize, value: &BitVec, care: &BitVec) -> OperationCost {
        assert!(
            slot < self.entries,
            "CAM slot {slot} out of range {}",
            self.entries
        );
        assert_eq!(value.len(), self.width, "value width mismatch");
        assert_eq!(care.len(), self.width, "care width mismatch");
        let mut energy = Joules::ZERO;
        for j in 0..self.width {
            energy += self.devices[2 * slot * self.width + j].write(value.get(j));
        }
        for j in 0..self.width {
            energy += self.devices[(2 * slot + 1) * self.width + j].write(care.get(j));
        }
        let cost = OperationCost {
            energy,
            latency: self.params.write_latency + self.params.write_latency,
        };
        self.stats.row_writes += 2;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        cost
    }

    /// The stored `(value, care)` pair of one slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is out of range.
    pub fn stored_key(&self, slot: usize) -> (BitVec, BitVec) {
        assert!(
            slot < self.entries,
            "CAM slot {slot} out of range {}",
            self.entries
        );
        let row =
            |r: usize| BitVec::from_fn(self.width, |j| self.devices[r * self.width + j].bit());
        (row(2 * slot), row(2 * slot + 1))
    }

    /// Searches every slot against `key`, drawing one noisy current per
    /// conducting (cared, mismatching) cell.
    ///
    /// # Panics
    ///
    /// Panics if the key width does not match or a range window is
    /// empty.
    pub fn search<R: Rng + ?Sized>(
        &mut self,
        key: &BitVec,
        kind: MatchKind,
        rng: &mut R,
    ) -> (BitVec, OperationCost) {
        assert_eq!(key.len(), self.width, "key width mismatch");
        let (lo, hi) = kind.window();
        let (lo_ref, hi_ref) = window_references(&self.params, lo, hi);
        let out = BitVec::from_fn(self.entries, |s| {
            let mut i = 0.0;
            for j in 0..self.width {
                let care = self.devices[(2 * s + 1) * self.width + j].bit();
                let value = self.devices[2 * s * self.width + j].bit();
                if care && value != key.get(j) {
                    i += self.devices[(2 * s + 1) * self.width + j]
                        .read_current(rng)
                        .0;
                }
            }
            lo_ref.is_none_or(|l| i > l) && i < hi_ref
        });
        // Pre-refactor costing: re-derive every activated device's read
        // energy (a `V/R` division each) on every search.
        let mut energy = SENSE_AMP_ENERGY * self.entries as f64;
        for d in &self.devices {
            energy += d.read_energy();
        }
        let cost = OperationCost {
            energy,
            latency: self.params.read_latency,
        };
        self.stats.searches += 1;
        self.stats.match_pulses += self.entries as u64;
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        (out, cost)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_simkit::rng::seeded;

    #[test]
    fn reference_write_read_scout_round_trip() {
        let mut rng = seeded(11);
        let mut arr = ReferenceDigitalArray::new(2, 16, ReramParams::default(), &mut rng);
        let a = BitVec::from_fn(16, |i| i % 3 == 0);
        let b = BitVec::from_fn(16, |i| i % 2 == 0);
        arr.write_row(0, &a);
        arr.write_row(1, &b);
        assert_eq!(arr.stored_row(0), a);
        assert_eq!(arr.read_row(0, &mut rng), a);
        assert_eq!(arr.scout(ScoutOp::And, &[0, 1], &mut rng), a.and(&b));
        assert_eq!(arr.scout_exact(ScoutOp::Or, &[0, 1]), a.or(&b));
        assert_eq!(arr.stats().row_writes, 2);
        assert_eq!(arr.stats().scout_ops, 1);
    }

    #[test]
    fn reference_analog_round_trip() {
        use cim_simkit::stats::rmse;
        let mut rng = seeded(21);
        let a = Matrix::from_fn(6, 5, |i, j| ((i as f64 - 2.0 * j as f64) / 6.0).sin());
        let mut pair = ReferenceDifferentialCrossbar::new(6, 5, AnalogParams::ideal());
        pair.program_matrix(&a, &mut rng);
        let x: Vec<f64> = (0..5).map(|i| (i as f64) / 5.0 - 0.4).collect();
        let y = pair.matvec(&x, &mut rng);
        assert!(rmse(&a.matvec(&x), &y) < 2e-3);
        let z: Vec<f64> = (0..6).map(|i| 0.3 - (i as f64) / 7.0).collect();
        let yt = pair.matvec_t(&z, &mut rng);
        assert!(rmse(&a.matvec_t(&z), &yt) < 2e-3);
        let s = pair.stats();
        assert_eq!(s.programs, 2);
        assert_eq!(s.mvms, 2);
        assert_eq!(s.transpose_mvms, 2);
        // The reference never uses the aggregate tier.
        assert_eq!(s.nominal_mvms, 0);
        // Per-device sampling: one draw per (nonzero input × output line);
        // x has one exactly-zero entry, so its MVM drives only 4 rows.
        assert_eq!(s.noise_samples, 2 * (4 * 6 + 6 * 5) as u64);
    }
}
