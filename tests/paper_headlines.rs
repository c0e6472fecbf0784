//! Integration: every headline number the paper reports, asserted in
//! one place: the machine-checked paper-vs-measured record.

use cim_repro::cim_arch::sweep::paper_figure_sweeps;
use cim_repro::cim_crossbar::energy::ReadBudget;
use cim_repro::cim_hdc::cost::{HdProcessorCost, HdWorkload};
use cim_repro::cim_nn::energy::{fig7b_dims, fig7b_series};
use cim_repro::cim_tech::area::CrossbarFloorplan;
use cim_repro::cim_tech::fpga::{AmpAcceleratorDesign, FpgaDevice};

#[test]
fn table1_cells() {
    let u = AmpAcceleratorDesign::paper().utilization(&FpgaDevice::xcku115());
    assert_eq!((u.luts, u.ffs, u.brams), (307_908, 180_368, 1_024));
    assert!((u.lut_frac * 100.0 - 46.4).abs() < 0.1);
    assert!((u.ff_frac * 100.0 - 13.6).abs() < 0.1);
    assert!((u.bram_frac * 100.0 - 47.4).abs() < 0.1);
}

#[test]
fn section3b_fpga_numbers() {
    let d = AmpAcceleratorDesign::paper();
    assert_eq!(d.dot_product_cycles(), 133);
    assert!((d.mvm_latency(1024).nanos() - 665.0).abs() < 1e-6);
    assert!((d.mvm_energy(1024).micro() - 17.7).abs() / 17.7 < 0.01);
    assert!((d.dynamic_power().0 - 26.4).abs() < 1e-9);
}

#[test]
fn section3b_crossbar_numbers() {
    let b = ReadBudget::paper_crossbar();
    assert!((b.device_power.0 - 0.21).abs() < 0.01);
    assert!((b.adc_power.milli() - 12.0).abs() < 1.0);
    assert!((b.total_power().milli() - 222.0).abs() < 2.0);
    assert!((b.energy_per_read().nano() - 222.0).abs() < 2.0);

    let fpga = AmpAcceleratorDesign::paper();
    let power_ratio = fpga.dynamic_power().0 / b.total_power().0;
    let energy_ratio = fpga.mvm_energy(1024).0 / b.energy_per_read().0;
    assert!(
        (power_ratio - 120.0).abs() < 5.0,
        "power ratio {power_ratio}"
    );
    assert!(
        (energy_ratio - 80.0).abs() < 4.0,
        "energy ratio {energy_ratio}"
    );
}

#[test]
fn section3b_macro_area() {
    let a = CrossbarFloorplan::paper_amp_macro().total_area().0;
    assert!((a - 0.332).abs() < 0.002, "macro area {a}");
}

#[test]
fn figure3_shape() {
    let sweeps = paper_figure_sweeps();
    // Up to ~35x speedup at X = 90 %.
    let best = sweeps[2].1.iter().map(|p| p.speedup()).fold(0.0, f64::max);
    assert!((30.0..=45.0).contains(&best), "best speedup {best}");
    // Conventional wins at low miss rates when X = 30 %.
    let low_corner = sweeps[0]
        .1
        .iter()
        .find(|p| p.l1_miss == 0.0 && p.l2_miss == 0.0)
        .unwrap();
    assert!(low_corner.speedup() < 1.0);
}

#[test]
fn figure4_shape() {
    let sweeps = paper_figure_sweeps();
    // CIM energy always lower.
    for (_, pts) in &sweeps {
        assert!(pts.iter().all(|p| p.energy_gain() > 1.0));
    }
    // ~6x at X = 30 % (mid-miss), two orders of magnitude at X = 90 %.
    let mid = sweeps[0]
        .1
        .iter()
        .find(|p| (p.l1_miss - 0.5).abs() < 1e-9 && (p.l2_miss - 0.5).abs() < 1e-9)
        .unwrap();
    assert!(
        (4.0..=9.0).contains(&mid.energy_gain()),
        "{}",
        mid.energy_gain()
    );
    let best = sweeps[2]
        .1
        .iter()
        .map(|p| p.energy_gain())
        .fold(0.0, f64::max);
    assert!((100.0..=250.0).contains(&best), "best energy gain {best}");
}

#[test]
fn figure7b_shape() {
    let rows = fig7b_series(&fig7b_dims());
    assert_eq!(rows.len(), 5);
    for row in &rows {
        // Envelope of the published axis.
        for e in &row.energies {
            assert!(e.0 > 1e-11 && e.0 < 1e-3);
        }
        // Ordering and the fixed 10x MCU gap.
        assert!(row.energies[0].0 < row.energies[1].0);
        assert!((row.energies[2].0 / row.energies[1].0 - 10.0).abs() < 0.01);
    }
}

#[test]
fn section4b_hd_processor_factors() {
    let c = HdProcessorCost::evaluate(HdWorkload::paper_language());
    let area = c.area_improvement();
    let energy = c.energy_improvement();
    let repl = c.replaceable_energy_improvement();
    assert!(
        (7.5..=10.5).contains(&area),
        "area improvement {area} (paper: 9x)"
    );
    assert!(
        (4.0..=6.0).contains(&energy),
        "energy improvement {energy} (paper: 5x)"
    );
    assert!(
        (100.0..=1000.0).contains(&repl),
        "replaceable-only improvement {repl} (paper: 2-3 orders)"
    );
}
