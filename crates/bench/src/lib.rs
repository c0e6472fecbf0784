//! # cim-bench
//!
//! Figure/table regeneration for every evaluation artifact in the
//! DATE'19 paper, plus the device-level perf floors.
//!
//! Every target is a binary under `src/bin/`:
//!
//! * **Regeneration binaries** — each prints the rows or series of one
//!   paper artifact, so paper and measured values can be compared:
//!   - `fig3` / `fig4` — the §II-C delay/energy surfaces,
//!   - `table1` — the AMP FPGA utilization table,
//!   - `crossbar_vs_fpga` — the §III-B-3 power/energy/area comparison,
//!   - `fig7b` — the IoT inference energy curves,
//!   - `hd_accuracy` / `hd_cost` — the §IV-B accuracy and 9×/5× studies,
//!     the accuracy study served by the runtime pool on ideal and on
//!     PCM devices,
//!   - `scouting_margins` — the Fig. 2(c) sensing-margin analysis,
//!   - `query_select` — TPC-H Q6 end-to-end across execution paths, the
//!     CIM path served by the runtime pool over resident bins,
//!   - `amp_quality` — AMP recovery quality, float vs crossbar.
//! * **`perf_smoke`** — the one microbenchmark: it asserts the
//!   device-level floors the serving benchmark (`perfbench/`) does not
//!   measure and writes `BENCH.json`.
//!
//! The library part holds the small formatting helpers the binaries
//! share.

use std::fmt::Display;

/// Prints a markdown-style table: a header row and aligned value rows.
///
/// # Panics
///
/// Panics if a row's width differs from the header's.
pub fn print_table<H: Display, C: Display>(headers: &[H], rows: &[Vec<C>]) {
    let headers: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            assert_eq!(r.len(), headers.len(), "row width mismatch");
            r.iter().map(|c| c.to_string()).collect()
        })
        .collect();
    let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
    for row in &cells {
        for (w, c) in widths.iter_mut().zip(row) {
            *w = (*w).max(c.len());
        }
    }
    let line = |row: &[String]| {
        let cols: Vec<String> = row
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect();
        println!("| {} |", cols.join(" | "));
    };
    line(&headers);
    let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
    line(&sep);
    for row in &cells {
        line(row);
    }
}

/// Formats a value in engineering notation with a unit suffix.
pub fn eng(value: f64, unit: &str) -> String {
    if value == 0.0 {
        return format!("0 {unit}");
    }
    let magnitude = value.abs();
    let (scale, prefix) = if magnitude >= 1e9 {
        (1e-9, "G")
    } else if magnitude >= 1e6 {
        (1e-6, "M")
    } else if magnitude >= 1e3 {
        (1e-3, "k")
    } else if magnitude >= 1.0 {
        (1.0, "")
    } else if magnitude >= 1e-3 {
        (1e3, "m")
    } else if magnitude >= 1e-6 {
        (1e6, "µ")
    } else if magnitude >= 1e-9 {
        (1e9, "n")
    } else if magnitude >= 1e-12 {
        (1e12, "p")
    } else {
        (1e15, "f")
    };
    format!("{:.3} {prefix}{unit}", value * scale)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eng_prefixes() {
        assert_eq!(eng(0.0, "J"), "0 J");
        assert_eq!(eng(17.7e-6, "J"), "17.700 µJ");
        assert_eq!(eng(222e-9, "J"), "222.000 nJ");
        assert_eq!(eng(26.4, "W"), "26.400 W");
        assert_eq!(eng(2.5e9, "Hz"), "2.500 GHz");
        assert_eq!(eng(40e-15, "J"), "40.000 fJ");
    }

    #[test]
    fn table_printing_does_not_panic() {
        print_table(&["a", "b"], &[vec!["1", "2"], vec!["333", "4"]]);
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn table_width_checked() {
        print_table(&["a", "b"], &[vec!["1"]]);
    }
}
