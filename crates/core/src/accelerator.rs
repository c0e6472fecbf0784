//! The CIM accelerator: tiles, executor and statistics.
//!
//! [`CimAccelerator`] owns a set of digital tiles (binary ReRAM arrays
//! with Scouting Logic) and analog tiles (PCM differential crossbars for
//! signed matrix-vector products), executes [`CimInstruction`]s against
//! them, and accounts per-class operation counts, energy and busy time.
//!
//! Construction goes through [`CimAcceleratorBuilder`] (C-BUILDER): tile
//! counts and geometries vary per application, and a seed fixes the
//! fabrication variation. Each [`CimAccelerator::run`] draws its noise
//! from the caller's RNG, so whole workloads are reproducible.

use crate::isa::{CimInstruction, CimResponse};
use cim_crossbar::analog::{AnalogParams, DifferentialCrossbar};
use cim_crossbar::digital::DigitalArray;
use cim_crossbar::energy::OperationCost;
use cim_device::reram::ReramParams;
use cim_simkit::bitvec::BitVec;
use cim_simkit::rng::seeded;
use cim_simkit::units::{Joules, Seconds};
use rand::rngs::StdRng;
use std::collections::BTreeSet;

/// Aggregate execution statistics of an accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ExecutionStats {
    /// Row writes executed.
    pub row_writes: u64,
    /// Row reads executed.
    pub row_reads: u64,
    /// Scouting-Logic operations executed.
    pub logic_ops: u64,
    /// Matrix programming operations executed.
    pub matrix_programs: u64,
    /// Analog matrix-vector products executed (forward + transpose).
    pub mvms: u64,
    /// CAM key writes executed (each fires two row-write pulses).
    pub key_writes: u64,
    /// CAM match-line searches executed.
    pub searches: u64,
    /// Total energy over all executed instructions.
    pub energy: Joules,
    /// Total busy time over all executed instructions.
    pub busy_time: Seconds,
}

impl ExecutionStats {
    /// Total instruction count.
    pub fn instructions(&self) -> u64 {
        self.row_writes
            + self.row_reads
            + self.logic_ops
            + self.matrix_programs
            + self.mvms
            + self.key_writes
            + self.searches
    }

    /// Field-wise accumulation of `other` into `self`.
    pub fn accumulate(&mut self, other: &ExecutionStats) {
        self.row_writes += other.row_writes;
        self.row_reads += other.row_reads;
        self.logic_ops += other.logic_ops;
        self.matrix_programs += other.matrix_programs;
        self.mvms += other.mvms;
        self.key_writes += other.key_writes;
        self.searches += other.searches;
        self.energy += other.energy;
        self.busy_time += other.busy_time;
    }
}

/// Device-tier cost drivers summed over every tile of an accelerator.
///
/// Where [`ExecutionStats`] counts *instructions*, these count the work
/// underneath them: memory words touched, ADC columns digitized,
/// program-and-verify pulses fired, stochastic device reads drawn. All
/// four are deterministic functions of the executed workload, so
/// deltas around a job attribute device-level cost to that job exactly.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DeviceCounters {
    /// Machine words touched by digital row reads/writes.
    pub word_accesses: u64,
    /// Columns digitized by sampled (partial-width) digital reads.
    pub sampled_columns: u64,
    /// Pulses fired while programming analog tiles (program-and-verify)
    /// or erasing them (RESET).
    pub program_pulses: u64,
    /// Stochastic read samples drawn during analog MVMs — one aggregate
    /// draw per output line on the sampled tier of the fast path.
    pub noise_samples: u64,
    /// Analog products served on the nominal no-sampling tier
    /// (`sigma_read == 0` or an all-zero input: zero stochastic draws).
    pub nominal_mvms: u64,
    /// CAM match-line evaluations fired (entries compared per search).
    pub match_pulses: u64,
}

impl DeviceCounters {
    /// Element-wise difference (`self − earlier`), for bracketing a job.
    pub fn delta(&self, earlier: &DeviceCounters) -> DeviceCounters {
        DeviceCounters {
            word_accesses: self.word_accesses - earlier.word_accesses,
            sampled_columns: self.sampled_columns - earlier.sampled_columns,
            program_pulses: self.program_pulses - earlier.program_pulses,
            noise_samples: self.noise_samples - earlier.noise_samples,
            nominal_mvms: self.nominal_mvms - earlier.nominal_mvms,
            match_pulses: self.match_pulses - earlier.match_pulses,
        }
    }

    /// Element-wise accumulation of `other` into `self`.
    pub fn accumulate(&mut self, other: &DeviceCounters) {
        self.word_accesses += other.word_accesses;
        self.sampled_columns += other.sampled_columns;
        self.program_pulses += other.program_pulses;
        self.noise_samples += other.noise_samples;
        self.nominal_mvms += other.nominal_mvms;
        self.match_pulses += other.match_pulses;
    }
}

/// Builder for [`CimAccelerator`].
#[derive(Debug, Clone)]
pub struct CimAcceleratorBuilder {
    digital: Vec<(usize, usize)>,
    analog: Vec<(usize, usize)>,
    reram: ReramParams,
    analog_params: AnalogParams,
    seed: u64,
}

impl CimAcceleratorBuilder {
    /// Starts an empty accelerator description.
    pub fn new() -> Self {
        CimAcceleratorBuilder {
            digital: Vec::new(),
            analog: Vec::new(),
            reram: ReramParams::default(),
            analog_params: AnalogParams::default(),
            seed: 0,
        }
    }

    /// Adds `count` digital tiles of `rows × cols` devices.
    pub fn digital_tiles(&mut self, count: usize, rows: usize, cols: usize) -> &mut Self {
        self.digital
            .extend(std::iter::repeat_n((rows, cols), count));
        self
    }

    /// Adds `count` analog (differential) tiles of `rows × cols` weights.
    pub fn analog_tiles(&mut self, count: usize, rows: usize, cols: usize) -> &mut Self {
        self.analog.extend(std::iter::repeat_n((rows, cols), count));
        self
    }

    /// Sets the binary-device technology for digital tiles.
    pub fn reram_params(&mut self, params: ReramParams) -> &mut Self {
        self.reram = params;
        self
    }

    /// Sets the analog tile configuration (PCM devices, converters).
    pub fn analog_params(&mut self, params: AnalogParams) -> &mut Self {
        self.analog_params = params;
        self
    }

    /// Sets the seed of the digital tiles' fabrication variation. Runtime
    /// noise draws from the RNG each [`CimAccelerator::run`] is given.
    pub fn seed(&mut self, seed: u64) -> &mut Self {
        self.seed = seed;
        self
    }

    /// Fabricates the accelerator.
    pub fn build(&self) -> CimAccelerator {
        let mut rng = seeded(self.seed);
        let digital_tiles = self
            .digital
            .iter()
            .map(|&(r, c)| DigitalArray::new(r, c, self.reram, &mut rng))
            .collect();
        let analog_tiles = self
            .analog
            .iter()
            .map(|&(r, c)| DifferentialCrossbar::new(r, c, self.analog_params))
            .collect();
        CimAccelerator {
            digital_tiles,
            analog_tiles,
            stats: ExecutionStats::default(),
        }
    }
}

impl Default for CimAcceleratorBuilder {
    fn default() -> Self {
        CimAcceleratorBuilder::new()
    }
}

/// A fabricated CIM accelerator instance.
#[derive(Debug)]
pub struct CimAccelerator {
    digital_tiles: Vec<DigitalArray>,
    analog_tiles: Vec<DifferentialCrossbar>,
    stats: ExecutionStats,
}

impl CimAccelerator {
    /// Number of digital tiles.
    pub fn digital_tile_count(&self) -> usize {
        self.digital_tiles.len()
    }

    /// Number of analog tiles.
    pub fn analog_tile_count(&self) -> usize {
        self.analog_tiles.len()
    }

    /// Execution statistics accumulated since construction or the last
    /// [`Self::take_stats`].
    pub fn stats(&self) -> &ExecutionStats {
        &self.stats
    }

    /// Returns the accumulated execution statistics and resets them to
    /// zero. Taking the stats around one execution attributes exactly
    /// its own work to it: its energy and busy time are sums over its
    /// instructions alone, so they round the same whatever ran before.
    pub fn take_stats(&mut self) -> ExecutionStats {
        std::mem::take(&mut self.stats)
    }

    /// Device-tier cost drivers summed over all tiles (see
    /// [`DeviceCounters`]). Monotonically increasing: bracket an
    /// execution with before/after copies and [`DeviceCounters::delta`]
    /// to attribute counts to it.
    pub fn device_counters(&self) -> DeviceCounters {
        let mut c = DeviceCounters::default();
        for tile in &self.digital_tiles {
            let s = tile.stats();
            c.word_accesses += s.word_accesses;
            c.sampled_columns += s.sampled_columns;
            c.match_pulses += s.match_pulses;
        }
        for tile in &self.analog_tiles {
            let s = tile.stats();
            c.program_pulses += s.program_pulses;
            c.noise_samples += s.noise_samples;
            c.nominal_mvms += s.nominal_mvms;
        }
        c
    }

    /// Direct access to a digital tile (for workload setup/inspection).
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn digital_tile(&self, tile: usize) -> &DigitalArray {
        &self.digital_tiles[tile]
    }

    /// Direct access to an analog tile.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn analog_tile(&self, tile: usize) -> &DifferentialCrossbar {
        &self.analog_tiles[tile]
    }

    /// Whether a digital tile's device currents have been drawn yet. A
    /// tile draws them at its first sensing instruction, or at
    /// [`Self::fabricate_digital`]; until then it holds only states.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn digital_fabricated(&self, tile: usize) -> bool {
        self.digital_tiles[tile].is_fabricated()
    }

    /// Draws a digital tile's device currents now, if nothing has yet,
    /// so its first sensing instruction does not pay for them. The
    /// values and every RNG stream are the same either way. Takes
    /// `&self`, so several tiles can draw on several threads at once.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn fabricate_digital(&self, tile: usize) {
        self.digital_tiles[tile].fabricate();
    }

    /// Zeroes one digital tile row (tenant-isolation scrubbing).
    ///
    /// This is a maintenance write: it costs real write energy on the
    /// tile (returned to the caller for overhead accounting) but is not
    /// added to the accelerator's [`ExecutionStats`], which account only
    /// work performed on behalf of executed instructions.
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn scrub_digital_row(&mut self, tile: usize, row: usize) -> OperationCost {
        let cols = self.digital_tiles[tile].shape().1;
        self.digital_tiles[tile].write_row(row, &BitVec::zeros(cols))
    }

    /// Erases an analog tile (tenant-isolation scrubbing): every device
    /// programmed since the last erase — the union of the windows its
    /// matrices occupied — is RESET to `g_min`, one pulse per device not
    /// already there, and the tile reads as unprogrammed. The erase draws
    /// no random numbers and needs no conductance mapping, and its cost
    /// grows with what was programmed, not with the tile. Like
    /// [`Self::scrub_digital_row`], the cost is returned but not charged
    /// to [`ExecutionStats`].
    ///
    /// # Panics
    ///
    /// Panics if the tile index is out of range.
    pub fn scrub_analog_tile(&mut self, tile: usize) -> OperationCost {
        self.analog_tiles[tile].erase()
    }

    /// Runs one instruction stream, drawing all stochastic behaviour
    /// (read noise, programming noise) from `rng`, and returns the
    /// responses of the instructions `outputs` lists by index, in stream
    /// order.
    ///
    /// The stream owns its result latch: a [`CimInstruction::StoreLast`]
    /// writes back the latest `ReadRow` or `Logic` result of the same
    /// call, so nothing one stream sensed can be stored by the next. A
    /// stream with no `StoreLast` keeps no copy of its results. Giving
    /// every job its own seeded `rng` makes its results independent of
    /// which other jobs share the accelerator and in which order they
    /// run, which is how the multi-tenant runtime calls it.
    ///
    /// # Panics
    ///
    /// Panics on malformed instructions: unknown tile indices, shape
    /// mismatches, unsupported logic fan-in (the conditions documented
    /// on the underlying tile operations), or a `StoreLast` with no
    /// earlier read or logic result in the stream. The instructions
    /// before the faulting one have run and are counted in the stats.
    pub fn run(
        &mut self,
        program: Vec<CimInstruction>,
        outputs: &[usize],
        rng: &mut StdRng,
    ) -> Vec<CimResponse> {
        let latching = program
            .iter()
            .any(|i| matches!(i, CimInstruction::StoreLast { .. }));
        let mut latch = None;
        let wanted: BTreeSet<usize> = outputs.iter().copied().collect();
        let mut responses = Vec::with_capacity(wanted.len());
        for (index, instruction) in program.into_iter().enumerate() {
            let response = self.step(instruction, latching, &mut latch, rng);
            if wanted.contains(&index) {
                responses.push(response);
            }
        }
        responses
    }

    /// Executes one instruction of a stream. `ReadRow` and `Logic`
    /// results go to the stream's `latch` when it is `latching`.
    fn step(
        &mut self,
        instruction: CimInstruction,
        latching: bool,
        latch: &mut Option<BitVec>,
        rng: &mut StdRng,
    ) -> CimResponse {
        let (response, cost) = match instruction {
            CimInstruction::WriteRow { tile, row, bits } => {
                let cost = self.digital_tiles[tile].write_row(row, &bits);
                self.stats.row_writes += 1;
                (CimResponse::Done, cost)
            }
            CimInstruction::ReadRow { tile, row } => {
                let (bits, cost) = self.digital_tiles[tile].read_row_with_cost(row, rng);
                self.stats.row_reads += 1;
                if latching {
                    *latch = Some(bits.clone());
                }
                (CimResponse::Bits(bits), cost)
            }
            CimInstruction::Logic { tile, op, rows } => {
                let (bits, cost) = self.digital_tiles[tile].scout_with_cost(op, &rows, rng);
                self.stats.logic_ops += 1;
                if latching {
                    *latch = Some(bits.clone());
                }
                (CimResponse::Bits(bits), cost)
            }
            CimInstruction::StoreLast { tile, row } => {
                let Some(bits) = latch.as_ref() else {
                    panic!("StoreLast with no preceding bits-producing instruction");
                };
                let cost = self.digital_tiles[tile].write_row(row, bits);
                self.stats.row_writes += 1;
                (CimResponse::Done, cost)
            }
            CimInstruction::WriteKey {
                tile,
                slot,
                value,
                care,
            } => {
                let cost = self.digital_tiles[tile].write_key(slot, &value, &care);
                self.stats.key_writes += 1;
                (CimResponse::Done, cost)
            }
            CimInstruction::MatchSearch {
                tile,
                entries,
                key,
                kind,
            } => {
                // Match sets are entry-indexed (not tile-width), so they
                // are not a storable `StoreLast` operand — they return to
                // the host side for gathering/finalization.
                let (bits, cost) = self.digital_tiles[tile].match_search(entries, &key, kind, rng);
                self.stats.searches += 1;
                (CimResponse::Bits(bits), cost)
            }
            CimInstruction::ProgramMatrix { tile, col, matrix } => {
                let cost = self.analog_tiles[tile].program_matrix_at(col, &matrix, rng);
                self.stats.matrix_programs += 1;
                (CimResponse::Done, cost)
            }
            CimInstruction::Mvm { tile, col, x } => {
                let (y, cost) = self.analog_tiles[tile].matvec_at(col, &x, rng);
                self.stats.mvms += 1;
                (CimResponse::Vector(y), cost)
            }
            CimInstruction::MvmT { tile, col, z } => {
                let (y, cost) = self.analog_tiles[tile].matvec_t_at(col, &z, rng);
                self.stats.mvms += 1;
                (CimResponse::Vector(y), cost)
            }
        };
        self.stats.energy += cost.energy;
        self.stats.busy_time += cost.latency;
        response
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cim_crossbar::scouting::ScoutOp;
    use cim_simkit::bitvec::BitVec;
    use cim_simkit::linalg::Matrix;

    fn small_accelerator() -> CimAccelerator {
        CimAcceleratorBuilder::new()
            .digital_tiles(2, 8, 32)
            .analog_tiles(1, 8, 8)
            .analog_params(AnalogParams::ideal())
            .seed(3)
            .build()
    }

    /// Runs `program` under a fixed noise stream and returns every
    /// response.
    fn run_all(acc: &mut CimAccelerator, program: Vec<CimInstruction>) -> Vec<CimResponse> {
        let outputs: Vec<usize> = (0..program.len()).collect();
        acc.run(program, &outputs, &mut seeded(7))
    }

    /// The bits of the one response of a one-instruction run.
    fn sense(acc: &mut CimAccelerator, instruction: CimInstruction) -> BitVec {
        let response = run_all(acc, vec![instruction]).pop();
        response.and_then(CimResponse::into_bits).unwrap()
    }

    /// The vector of the one response of a one-instruction run.
    fn product(acc: &mut CimAccelerator, instruction: CimInstruction) -> Vec<f64> {
        let response = run_all(acc, vec![instruction]).pop();
        response.and_then(CimResponse::into_vector).unwrap()
    }

    fn write(tile: usize, row: usize, bits: &BitVec) -> CimInstruction {
        CimInstruction::WriteRow {
            tile,
            row,
            bits: bits.clone(),
        }
    }

    fn logic(op: ScoutOp) -> CimInstruction {
        CimInstruction::Logic {
            tile: 0,
            op,
            rows: vec![0, 1],
        }
    }

    #[test]
    fn accumulate_into_default_copies() {
        let mut a = ExecutionStats::default();
        let b = ExecutionStats {
            row_writes: 3,
            row_reads: 1,
            logic_ops: 2,
            matrix_programs: 0,
            mvms: 4,
            key_writes: 2,
            searches: 6,
            energy: Joules(1.5),
            busy_time: Seconds(0.25),
        };
        a.accumulate(&b);
        assert_eq!(a, b);
    }

    #[test]
    fn take_stats_returns_and_resets() {
        let mut acc = small_accelerator();
        run_all(&mut acc, vec![CimInstruction::ReadRow { tile: 0, row: 0 }]);
        let before = *acc.stats();
        assert_eq!(acc.take_stats(), before);
        assert_eq!(*acc.stats(), ExecutionStats::default());
        run_all(&mut acc, vec![CimInstruction::ReadRow { tile: 0, row: 0 }]);
        assert_eq!(
            acc.take_stats().row_reads,
            1,
            "the next take holds one read"
        );
    }

    #[test]
    fn builder_creates_requested_tiles() {
        let acc = small_accelerator();
        assert_eq!(acc.digital_tile_count(), 2);
        assert_eq!(acc.analog_tile_count(), 1);
        assert_eq!(acc.digital_tile(0).shape(), (8, 32));
        assert_eq!(acc.analog_tile(0).shape(), (8, 8));
    }

    #[test]
    fn write_read_round_trip() {
        let mut acc = small_accelerator();
        let bits = BitVec::from_fn(32, |i| i % 3 == 0);
        run_all(&mut acc, vec![write(1, 4, &bits)]);
        let read = sense(&mut acc, CimInstruction::ReadRow { tile: 1, row: 4 });
        assert_eq!(read, bits);
    }

    #[test]
    fn logic_instruction_computes_boolean() {
        let mut acc = small_accelerator();
        let a = BitVec::from_fn(32, |i| i % 2 == 0);
        let b = BitVec::from_fn(32, |i| i % 4 == 0);
        run_all(&mut acc, vec![write(0, 0, &a), write(0, 1, &b)]);
        assert_eq!(sense(&mut acc, logic(ScoutOp::And)), a.and(&b));
    }

    #[test]
    fn mvm_round_trip() {
        let mut acc = small_accelerator();
        let m = Matrix::from_fn(8, 8, |i, j| (i as f64 - j as f64) / 8.0);
        run_all(
            &mut acc,
            vec![CimInstruction::ProgramMatrix {
                tile: 0,
                col: 0,
                matrix: m.clone(),
            }],
        );
        let x = vec![0.5; 8];
        let y = product(
            &mut acc,
            CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: x.clone(),
            },
        );
        for (a, b) in y.iter().zip(&m.matvec(&x)) {
            assert!((a - b).abs() < 1e-2, "{a} vs {b}");
        }
        let z = vec![0.25; 8];
        let yt = product(
            &mut acc,
            CimInstruction::MvmT {
                tile: 0,
                col: 0,
                z: z.clone(),
            },
        );
        for (a, b) in yt.iter().zip(&m.matvec_t(&z)) {
            assert!((a - b).abs() < 1e-2);
        }
    }

    #[test]
    #[should_panic(expected = "not programmed")]
    fn analog_scrub_erases_every_window_and_unprograms() {
        let mut acc = CimAcceleratorBuilder::new()
            .analog_tiles(1, 32, 64)
            .seed(4)
            .build();
        let g_min = AnalogParams::default().pcm.g_min.0;
        run_all(
            &mut acc,
            vec![
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(32, 64, |i, j| ((i * 64 + j) % 5) as f64 - 2.0),
                },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(4, 4, |i, j| if i == j { 1.0 } else { -0.5 }),
                },
            ],
        );
        let cost = acc.scrub_analog_tile(0);
        assert!(
            cost.energy.0 > 0.0,
            "the first program left devices to reset"
        );
        let (positive, negative) = acc.analog_tile(0).tiles();
        for tile in [positive, negative] {
            assert!(
                tile.bank().conductances().iter().all(|&g| g == g_min),
                "the scrub left a device off g_min"
            );
        }
        run_all(
            &mut acc,
            vec![CimInstruction::Mvm {
                tile: 0,
                col: 0,
                x: vec![1.0; 4],
            }],
        );
    }

    #[test]
    fn stats_count_every_instruction_class() {
        let mut acc = small_accelerator();
        run_all(
            &mut acc,
            vec![
                write(0, 0, &BitVec::zeros(32)),
                write(0, 1, &BitVec::ones(32)),
                CimInstruction::ReadRow { tile: 0, row: 0 },
                logic(ScoutOp::Or),
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(8, 8, |i, j| ((i + j) % 2) as f64),
                },
                CimInstruction::Mvm {
                    tile: 0,
                    col: 0,
                    x: vec![0.0; 8],
                },
            ],
        );
        let s = acc.stats();
        assert_eq!(s.row_writes, 2);
        assert_eq!(s.row_reads, 1);
        assert_eq!(s.logic_ops, 1);
        assert_eq!(s.matrix_programs, 1);
        assert_eq!(s.mvms, 1);
        assert_eq!(s.instructions(), 6);
        assert!(s.energy.0 > 0.0);
        assert!(s.busy_time.0 > 0.0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut acc = small_accelerator();
            run_all(
                &mut acc,
                vec![write(0, 0, &BitVec::from_fn(32, |i| i % 5 == 0))],
            );
            sense(&mut acc, CimInstruction::ReadRow { tile: 0, row: 0 })
        };
        assert_eq!(run(), run());
    }

    /// `run` returns the listed outputs alone, in stream order whatever
    /// order they are listed in.
    #[test]
    fn run_returns_the_listed_outputs_in_stream_order() {
        let mut acc = small_accelerator();
        let a = BitVec::from_fn(32, |i| i % 2 == 0);
        let b = BitVec::from_fn(32, |i| i % 3 == 0);
        let responses = acc.run(
            vec![
                write(0, 0, &a),
                write(0, 1, &b),
                logic(ScoutOp::Or),
                CimInstruction::ReadRow { tile: 0, row: 1 },
                logic(ScoutOp::And),
            ],
            &[4, 2],
            &mut seeded(7),
        );
        let bits: Vec<BitVec> = responses
            .into_iter()
            .map(|r| r.into_bits().unwrap())
            .collect();
        assert_eq!(bits, vec![a.or(&b), a.and(&b)]);
    }

    /// A `StoreLast` writes back the latest read or logic result of its
    /// stream, whether or not that result is one of the run's outputs.
    #[test]
    fn store_last_writes_the_latest_result_output_or_not() {
        let mut acc = small_accelerator();
        let a = BitVec::from_fn(32, |i| i % 2 == 0);
        let b = BitVec::from_fn(32, |i| i % 3 == 0);
        let read_a = CimInstruction::ReadRow { tile: 0, row: 0 };
        // The read is an output and the later logic result is not: the
        // logic result is stored.
        let responses = acc.run(
            vec![
                write(0, 0, &a),
                write(0, 1, &b),
                read_a.clone(),
                logic(ScoutOp::Or),
                CimInstruction::StoreLast { tile: 0, row: 2 },
            ],
            &[2],
            &mut seeded(7),
        );
        assert_eq!(responses.len(), 1);
        assert_eq!(acc.digital_tile(0).stored_row(2), a.or(&b));
        // The logic result is an output and the later read is not: the
        // read is stored.
        let responses = acc.run(
            vec![
                logic(ScoutOp::And),
                read_a,
                CimInstruction::StoreLast { tile: 1, row: 3 },
            ],
            &[0],
            &mut seeded(7),
        );
        assert_eq!(responses.len(), 1);
        assert_eq!(acc.digital_tile(1).stored_row(3), a);
    }

    /// The latch belongs to one run: a stream that opens with
    /// `StoreLast` has nothing to store, even right after another run
    /// sensed bits.
    #[test]
    #[should_panic(expected = "StoreLast with no preceding")]
    fn store_last_opening_a_run_panics_after_an_earlier_run_sensed() {
        let mut acc = small_accelerator();
        let bits = BitVec::from_fn(32, |i| i % 4 == 0);
        run_all(
            &mut acc,
            vec![
                write(0, 0, &bits),
                CimInstruction::ReadRow { tile: 0, row: 0 },
                CimInstruction::StoreLast { tile: 0, row: 1 },
            ],
        );
        assert_eq!(acc.digital_tile(0).stored_row(1), bits);
        run_all(
            &mut acc,
            vec![CimInstruction::StoreLast { tile: 0, row: 2 }],
        );
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn unknown_tile_panics() {
        let mut acc = small_accelerator();
        run_all(&mut acc, vec![CimInstruction::ReadRow { tile: 9, row: 0 }]);
    }

    #[test]
    fn cam_search_serves_match_bits_and_counts() {
        use crate::isa::MatchKind;
        let mut acc = small_accelerator();
        let keys: Vec<BitVec> = (0..3)
            .map(|s| BitVec::from_fn(32, |j| (j + s) % 4 == 0))
            .collect();
        let writes = keys
            .iter()
            .enumerate()
            .map(|(slot, key)| CimInstruction::WriteKey {
                tile: 0,
                slot,
                value: key.clone(),
                care: BitVec::ones(32),
            })
            .collect();
        run_all(&mut acc, writes);
        let before = acc.device_counters();
        let hits = sense(
            &mut acc,
            CimInstruction::MatchSearch {
                tile: 0,
                entries: 3,
                key: keys[1].clone(),
                kind: MatchKind::Exact,
            },
        );
        assert_eq!(hits.to_bools(), vec![false, true, false]);
        let s = acc.stats();
        assert_eq!(s.key_writes, 3);
        assert_eq!(s.searches, 1);
        assert_eq!(s.instructions(), 4);
        assert!(s.energy.0 > 0.0);
        let delta = acc.device_counters().delta(&before);
        assert_eq!(delta.match_pulses, 3, "one pulse per searched entry");
    }

    #[test]
    fn device_counters_bracket_a_workload() {
        let mut acc = small_accelerator();
        let before = acc.device_counters();
        assert_eq!(before, DeviceCounters::default());

        run_all(
            &mut acc,
            vec![
                write(0, 0, &BitVec::from_fn(32, |i| i % 2 == 0)),
                CimInstruction::ReadRow { tile: 0, row: 0 },
                CimInstruction::ProgramMatrix {
                    tile: 0,
                    col: 0,
                    matrix: Matrix::from_fn(8, 8, |i, j| (i + j) as f64 / 16.0 - 0.25),
                },
                CimInstruction::Mvm {
                    tile: 0,
                    col: 0,
                    x: vec![1.0; 8],
                },
            ],
        );

        let delta = acc.device_counters().delta(&before);
        // A 32-bit row write + read touches words on both paths.
        assert!(delta.word_accesses > 0, "no word accesses: {delta:?}");
        // Program-and-verify fired pulses (already-converged devices
        // may need none, so only positivity is portable across params).
        assert!(delta.program_pulses > 0, "pulses: {delta:?}");
        // This accelerator's ideal params have `sigma_read == 0`, so the
        // MVM is served on the nominal tier: zero stochastic draws, one
        // nominal product per tile of the differential pair.
        assert_eq!(delta.noise_samples, 0);
        assert_eq!(delta.nominal_mvms, 2);

        let mut sum = DeviceCounters::default();
        sum.accumulate(&delta);
        assert_eq!(sum, delta);
    }
}
