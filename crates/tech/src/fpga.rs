//! FPGA device catalog and the AMP dot-product accelerator estimator.
//!
//! §III-B-3 of the paper compares the PCM crossbar against "an FPGA design
//! that operates at the same speed and the same precision", reporting its
//! resource utilization in **Table I**:
//!
//! ```text
//! LUT      FF      BRAM  f[MHz]  Pstatic[W]  Pdynamic[W]
//! 307908   180368  1024  200     4.04        26.4
//! [46.4%]  [13.6%] [47.4%]   (utilization on the xcku115 FPGA device)
//! ```
//!
//! The design instantiates **1024 dot-product units**, each holding one
//! 1024-element matrix row at 4-bit precision in a local 32 Kbit BlockRAM.
//! One dot product takes `vector_len / 8 + 5` cycles; a full matrix-vector
//! product therefore takes 133 cycles = 665 ns at 200 MHz and consumes
//! ≈ 17.7 µJ at 26.6 W dynamic power.
//!
//! [`AmpAcceleratorDesign`] reproduces those numbers from per-unit costs
//! and scales to other design points (unit counts, vector lengths,
//! precisions).

use cim_simkit::units::{Hertz, Joules, Seconds, Watts};

/// Per-unit LUT cost implied by Table I (307,908 LUTs / 1024 units).
pub const LUTS_PER_UNIT: f64 = 307_908.0 / 1024.0;
/// Per-unit flip-flop cost implied by Table I (180,368 FFs / 1024 units).
pub const FFS_PER_UNIT: f64 = 180_368.0 / 1024.0;
/// Each unit stores its matrix row in one 36 Kbit-class BlockRAM.
pub const BRAMS_PER_UNIT: f64 = 1.0;
/// Dynamic power per unit at 200 MHz implied by Table I (26.4 W / 1024).
pub const DYNAMIC_WATTS_PER_UNIT: f64 = 26.4 / 1024.0;

/// An FPGA device with its available resources.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaDevice {
    /// Marketing name, e.g. `"xcku115"`.
    pub name: &'static str,
    /// Available 6-input LUTs.
    pub luts: u64,
    /// Available flip-flops.
    pub ffs: u64,
    /// Available 36 Kbit-class BlockRAMs.
    pub brams: u64,
    /// Device static power in watts.
    pub static_power_w: f64,
}

impl FpgaDevice {
    /// The Kintex UltraScale XCKU115 used in the paper (663,360 LUTs,
    /// 1,326,720 FFs, 2,160 BRAM36; static power from Table I).
    pub fn xcku115() -> Self {
        FpgaDevice {
            name: "xcku115",
            luts: 663_360,
            ffs: 1_326_720,
            brams: 2_160,
            static_power_w: 4.04,
        }
    }

    /// A mid-range device for scaling studies (Kintex-7 K410T-class).
    pub fn k410t() -> Self {
        FpgaDevice {
            name: "xc7k410t",
            luts: 254_200,
            ffs: 508_400,
            brams: 795,
            static_power_w: 1.2,
        }
    }
}

/// Resource utilization of a design placed on a specific device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FpgaUtilization {
    /// Absolute LUTs used.
    pub luts: u64,
    /// Absolute flip-flops used.
    pub ffs: u64,
    /// Absolute BlockRAMs used.
    pub brams: u64,
    /// LUT utilization as a fraction of the device.
    pub lut_frac: f64,
    /// FF utilization as a fraction of the device.
    pub ff_frac: f64,
    /// BRAM utilization as a fraction of the device.
    pub bram_frac: f64,
}

impl FpgaUtilization {
    /// `true` if every resource fits on the device.
    pub fn fits(&self) -> bool {
        self.lut_frac <= 1.0 && self.ff_frac <= 1.0 && self.bram_frac <= 1.0
    }
}

/// The AMP matrix-vector accelerator design point of §III-B-3.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AmpAcceleratorDesign {
    /// Number of parallel dot-product units (= matrix rows served).
    pub units: usize,
    /// Elements per matrix row (= vector length).
    pub vector_len: usize,
    /// Weight/input precision in bits.
    pub precision_bits: u32,
    /// Clock frequency.
    pub clock: Hertz,
}

impl AmpAcceleratorDesign {
    /// The paper's design: 1024 units × 1024 elements × 4 bits @ 200 MHz.
    pub fn paper() -> Self {
        AmpAcceleratorDesign {
            units: 1024,
            vector_len: 1024,
            precision_bits: 4,
            clock: Hertz::from_mega(200.0),
        }
    }

    /// Estimated resource utilization on `device`.
    ///
    /// Logic cost scales linearly with unit count and with precision
    /// relative to the characterized 4-bit design; each unit keeps its row
    /// in one BRAM as long as the row fits in 32 Kbit, spilling to more
    /// BRAMs beyond that.
    pub fn utilization(&self, device: &FpgaDevice) -> FpgaUtilization {
        let precision_scale = self.precision_bits as f64 / 4.0;
        let luts = (self.units as f64 * LUTS_PER_UNIT * precision_scale).round() as u64;
        let ffs = (self.units as f64 * FFS_PER_UNIT * precision_scale).round() as u64;
        let row_bits = self.vector_len as u64 * self.precision_bits as u64;
        let brams_per_unit = row_bits.div_ceil(32_768).max(1);
        let brams = self.units as u64 * brams_per_unit;
        FpgaUtilization {
            luts,
            ffs,
            brams,
            lut_frac: luts as f64 / device.luts as f64,
            ff_frac: ffs as f64 / device.ffs as f64,
            bram_frac: brams as f64 / device.brams as f64,
        }
    }

    /// Cycles for one dot product: the unit consumes 8 elements per cycle
    /// and needs 5 cycles to drain the pipeline (`len/8 + 5`).
    pub fn dot_product_cycles(&self) -> u64 {
        (self.vector_len as u64).div_ceil(8) + 5
    }

    /// Latency of one full matrix-vector product. All `units` rows proceed
    /// in parallel, so the MVM latency equals one dot-product latency when
    /// the matrix has at most `units` rows, and tiles otherwise.
    pub fn mvm_latency(&self, matrix_rows: usize) -> Seconds {
        let passes = matrix_rows.div_ceil(self.units) as f64;
        self.clock.period() * (self.dot_product_cycles() as f64 * passes)
    }

    /// Dynamic power while computing, scaled from the Table I design point
    /// linearly in unit count, precision and clock.
    pub fn dynamic_power(&self) -> Watts {
        let precision_scale = self.precision_bits as f64 / 4.0;
        let clock_scale = self.clock.0 / 200e6;
        Watts(self.units as f64 * DYNAMIC_WATTS_PER_UNIT * precision_scale * clock_scale)
    }

    /// Dynamic energy of one full matrix-vector product.
    pub fn mvm_energy(&self, matrix_rows: usize) -> Joules {
        self.dynamic_power() * self.mvm_latency(matrix_rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_luts_ffs_brams_exact() {
        let u = AmpAcceleratorDesign::paper().utilization(&FpgaDevice::xcku115());
        assert_eq!(u.luts, 307_908);
        assert_eq!(u.ffs, 180_368);
        assert_eq!(u.brams, 1_024);
    }

    #[test]
    fn table1_utilization_percentages() {
        let u = AmpAcceleratorDesign::paper().utilization(&FpgaDevice::xcku115());
        assert!(
            (u.lut_frac * 100.0 - 46.4).abs() < 0.1,
            "LUT% {}",
            u.lut_frac * 100.0
        );
        assert!(
            (u.ff_frac * 100.0 - 13.6).abs() < 0.1,
            "FF% {}",
            u.ff_frac * 100.0
        );
        assert!(
            (u.bram_frac * 100.0 - 47.4).abs() < 0.1,
            "BRAM% {}",
            u.bram_frac * 100.0
        );
        assert!(u.fits());
    }

    #[test]
    fn dot_product_takes_133_cycles() {
        assert_eq!(AmpAcceleratorDesign::paper().dot_product_cycles(), 133);
    }

    #[test]
    fn mvm_latency_is_665ns() {
        let t = AmpAcceleratorDesign::paper().mvm_latency(1024);
        assert!((t.nanos() - 665.0).abs() < 1e-6, "latency {} ns", t.nanos());
    }

    #[test]
    fn mvm_energy_is_about_17_7_uj() {
        // The paper's text uses 26.6 W × 665 ns = 17.7 µJ; Table I lists
        // 26.4 W, giving 17.56 µJ. Accept within 1 %.
        let e = AmpAcceleratorDesign::paper().mvm_energy(1024);
        assert!(
            (e.micro() - 17.7).abs() / 17.7 < 0.01,
            "energy {} µJ",
            e.micro()
        );
    }

    #[test]
    fn dynamic_power_matches_table() {
        let p = AmpAcceleratorDesign::paper().dynamic_power();
        assert!((p.0 - 26.4).abs() < 1e-9);
    }

    #[test]
    fn tiling_beyond_unit_count() {
        let d = AmpAcceleratorDesign::paper();
        let one_pass = d.mvm_latency(1024);
        let two_pass = d.mvm_latency(2048);
        assert!((two_pass.0 / one_pass.0 - 2.0).abs() < 1e-12);
    }

    #[test]
    fn eight_bit_design_doubles_logic() {
        let mut d = AmpAcceleratorDesign::paper();
        d.precision_bits = 8;
        let u4 = AmpAcceleratorDesign::paper().utilization(&FpgaDevice::xcku115());
        let u8 = d.utilization(&FpgaDevice::xcku115());
        assert!((u8.luts as f64 / u4.luts as f64 - 2.0).abs() < 0.01);
        // 8-bit rows of 1024 elements = 8 Kbit — still one BRAM each.
        assert_eq!(u8.brams, 1024);
    }

    #[test]
    fn paper_design_does_not_fit_small_device() {
        let u = AmpAcceleratorDesign::paper().utilization(&FpgaDevice::k410t());
        assert!(!u.fits());
    }

    #[test]
    fn static_power_from_table() {
        assert!((FpgaDevice::xcku115().static_power_w - 4.04).abs() < 1e-12);
    }
}
