//! Query-6 on the host: the scalar scan, the bitmap plan and the
//! pieces the CIM lowering shares with them.
//!
//! * [`q6_scan`] — the conventional row-at-a-time predicate scan, and
//!   the reference every other path must reproduce bit for bit.
//! * [`q6_bitmap_cpu`] — bitmap plan on the host CPU: OR the qualifying
//!   bins of each predicate, AND the three intermediate vectors, word by
//!   word.
//! * [`Q6Indexes`] and [`q6_result_from_selection`] — the bins and the
//!   host-side revenue aggregation of the third path, the same plan run
//!   as Scouting-Logic reductions over bins stored as tile rows. That
//!   path is served by the `cim-runtime` pool (`WorkloadSpec::Q6Select`
//!   and `Q6Query`); its lowering is the one definition of the Q6 tile
//!   layout and reduction order.

use crate::bitmap::{BinSpec, BitmapIndex};
use crate::tpch::{LineItemTable, Q6Params, DISCOUNT_LEVELS, MAX_QUANTITY, SHIP_MONTHS};
use cim_simkit::bitvec::BitVec;

/// Result of a Query-6 execution.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Q6Result {
    /// `sum(l_extendedprice * l_discount)` over matching rows.
    pub revenue: f64,
    /// Number of matching rows.
    pub matching_rows: usize,
}

/// A bitmap-plan execution with its operation count.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanExecution {
    /// The query result.
    pub result: Q6Result,
    /// Bit-wise vector operations executed (ORs + ANDs over whole rows).
    pub bitwise_ops: u64,
}

/// Scalar baseline: evaluate the predicate row by row.
pub fn q6_scan(table: &LineItemTable, params: &Q6Params) -> Q6Result {
    let mut revenue = 0.0;
    let mut matching = 0;
    for i in 0..table.rows() {
        if params.matches(table.ship_month[i], table.discount[i], table.quantity[i]) {
            revenue += params.revenue_term(table.extended_price[i], table.discount[i]);
            matching += 1;
        }
    }
    Q6Result {
        revenue,
        matching_rows: matching,
    }
}

/// The three per-column bitmap indexes Query-6 needs.
#[derive(Debug, Clone)]
pub struct Q6Indexes {
    /// Month-of-shipment equality bins (84).
    pub month: BitmapIndex,
    /// Discount equality bins (11).
    pub discount: BitmapIndex,
    /// Quantity equality bins (50).
    pub quantity: BitmapIndex,
}

impl Q6Indexes {
    /// Builds all three indexes from a table.
    pub fn build(table: &LineItemTable) -> Self {
        let months: Vec<i64> = table.ship_month.iter().map(|&v| v as i64).collect();
        let discounts: Vec<i64> = table.discount.iter().map(|&v| v as i64).collect();
        let quantities: Vec<i64> = table.quantity.iter().map(|&v| v as i64).collect();
        Q6Indexes {
            month: BitmapIndex::build(
                BinSpec::Equality {
                    lo: 0,
                    hi: SHIP_MONTHS as i64 - 1,
                },
                &months,
            ),
            discount: BitmapIndex::build(
                BinSpec::Equality {
                    lo: 0,
                    hi: DISCOUNT_LEVELS as i64 - 1,
                },
                &discounts,
            ),
            quantity: BitmapIndex::build(
                BinSpec::Equality {
                    lo: 1,
                    hi: MAX_QUANTITY as i64,
                },
                &quantities,
            ),
        }
    }

    /// The (month, discount, quantity) closed value ranges Query-6
    /// selects, clipped to the column domains.
    pub fn predicate_ranges(params: &Q6Params) -> [(i64, i64); 3] {
        let month_lo = params.year as i64 * 12;
        [
            (month_lo, month_lo + 11),
            (
                (params.discount as i64 - 1).max(0),
                (params.discount as i64 + 1).min(DISCOUNT_LEVELS as i64 - 1),
            ),
            (1, params.max_quantity as i64 - 1),
        ]
    }
}

/// Bit width of a [`q6_bin_key`]: a 2-bit column tag over an 8-bit bin
/// value (bin values top out at 83 ship months).
pub const Q6_BIN_KEY_WIDTH: usize = 10;

/// Encodes one bitmap bin as an associative-lookup key: the predicate
/// column tag (0 = month, 1 = discount, 2 = quantity) over the binned
/// value. The encoding is the *build side* of a dictionary join: store
/// every bin's key in a CAM, and a predicate value probes straight to
/// its bin slot in one exact-match search instead of a host hash/scan.
pub fn q6_bin_key(column: usize, value: i64) -> u64 {
    debug_assert!(column < 3, "Q6 has three predicate columns");
    debug_assert!((0..256).contains(&value), "bin values fit one byte");
    ((column as u64) << 8) | value as u64
}

/// Every Q6 bin's [`q6_bin_key`] in CAM-slot order — month bins, then
/// discount, then quantity, each ascending by value: the same row order
/// the served Q6 tiles store the bins in, so a resolved slot index maps
/// straight back to a bin with no indirection table.
pub fn q6_bin_dictionary(idx: &Q6Indexes) -> Vec<u64> {
    let mut keys = Vec::new();
    for (column, index) in [&idx.month, &idx.discount, &idx.quantity]
        .into_iter()
        .enumerate()
    {
        let lo = match index.spec() {
            BinSpec::Equality { lo, .. } => *lo,
            BinSpec::Ranges { .. } => unreachable!("Q6 indexes are equality-binned"),
        };
        for b in 0..index.bin_count() {
            keys.push(q6_bin_key(column, lo + b as i64));
        }
    }
    keys
}

/// The probe side of the dictionary join: the key of every value the
/// query's three predicate ranges select. Values outside a column's
/// binned domain still probe (and miss), mirroring how
/// [`BitmapIndex::select_range`] clips to the domain.
pub fn q6_probe_keys(params: &Q6Params) -> Vec<u64> {
    let ranges = Q6Indexes::predicate_ranges(params);
    let mut keys = Vec::new();
    for (column, (lo, hi)) in ranges.into_iter().enumerate() {
        for value in lo.max(0)..=hi {
            keys.push(q6_bin_key(column, value));
        }
    }
    keys
}

/// Rebuilds the Query-6 row selection from resolved dictionary slots:
/// each `Some(slot)` names one bin in [`q6_bin_dictionary`] order, the
/// bins of each predicate column OR together, and the three column
/// vectors AND. Probes that missed (`None`) contribute nothing — they
/// were out-of-domain values, exactly the bins `select_range` clips.
pub fn q6_selection_from_bin_slots(idx: &Q6Indexes, slots: &[Option<u32>]) -> BitVec {
    let counts = [
        idx.month.bin_count(),
        idx.discount.bin_count(),
        idx.quantity.bin_count(),
    ];
    let entries = idx.month.entries();
    let mut columns = [
        BitVec::zeros(entries),
        BitVec::zeros(entries),
        BitVec::zeros(entries),
    ];
    for slot in slots.iter().flatten() {
        let mut slot = *slot as usize;
        for (column, &count) in counts.iter().enumerate() {
            if slot < count {
                let index = [&idx.month, &idx.discount, &idx.quantity][column];
                columns[column].or_assign(index.bin(slot));
                break;
            }
            slot -= count;
        }
    }
    let [mut sel, discount_sel, quantity_sel] = columns;
    sel.and_assign(&discount_sel);
    sel.and_assign(&quantity_sel);
    sel
}

/// Bitmap plan on the host CPU.
pub fn q6_bitmap_cpu(table: &LineItemTable, params: &Q6Params) -> PlanExecution {
    let idx = Q6Indexes::build(table);
    let [(mlo, mhi), (dlo, dhi), (qlo, qhi)] = Q6Indexes::predicate_ranges(params);
    let mut sel = idx.month.select_range(mlo, mhi);
    sel.and_assign(&idx.discount.select_range(dlo, dhi));
    sel.and_assign(&idx.quantity.select_range(qlo, qhi));

    let or_ops = |n: i64| (n - 1).max(0) as u64;
    let bitwise_ops = or_ops(mhi - mlo + 1) + or_ops(dhi - dlo + 1) + or_ops(qhi - qlo + 1) + 2;
    PlanExecution {
        result: q6_result_from_selection(table, params, &sel),
        bitwise_ops,
    }
}

/// Computes the final Query-6 result from a selection vector: revenue
/// aggregation happens on the host, in row order, so a selection equal
/// to the scan's yields a result equal to [`q6_scan`]'s bit for bit.
pub fn q6_result_from_selection(
    table: &LineItemTable,
    params: &Q6Params,
    selection: &BitVec,
) -> Q6Result {
    let mut revenue = 0.0;
    let mut matching = 0;
    for i in selection.iter_ones() {
        revenue += params.revenue_term(table.extended_price[i], table.discount[i]);
        matching += 1;
    }
    Q6Result {
        revenue,
        matching_rows: matching,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> LineItemTable {
        LineItemTable::generate(3000, 99)
    }

    #[test]
    fn scan_and_bitmap_cpu_agree() {
        let t = table();
        let p = Q6Params::tpch_default();
        let scan = q6_scan(&t, &p);
        let plan = q6_bitmap_cpu(&t, &p);
        assert_eq!(plan.result, scan);
        assert!(plan.bitwise_ops > 0);
    }

    /// The dictionary join decomposes the bitmap plan into pure
    /// exact-match lookups: probing every qualifying predicate value
    /// against the bin-key dictionary and OR/AND-ing the resolved bins
    /// reproduces the scalar scan's selection bit for bit.
    #[test]
    fn bin_dictionary_join_matches_scan() {
        let t = table();
        let p = Q6Params::tpch_default();
        let idx = Q6Indexes::build(&t);
        let dictionary = q6_bin_dictionary(&idx);
        assert_eq!(dictionary.len(), 145, "84 + 11 + 50 bins");
        assert!(dictionary.iter().all(|k| *k < 1 << Q6_BIN_KEY_WIDTH));
        // Host-simulated exact-match lookup (first matching slot wins),
        // the reference the pool's `KeyLookup` workload must reproduce.
        let slots: Vec<Option<u32>> = q6_probe_keys(&p)
            .iter()
            .map(|probe| dictionary.iter().position(|k| k == probe).map(|s| s as u32))
            .collect();
        let sel = q6_selection_from_bin_slots(&idx, &slots);
        for i in 0..t.rows() {
            let expect = p.matches(t.ship_month[i], t.discount[i], t.quantity[i]);
            assert_eq!(sel.get(i), expect, "row {i}");
        }
    }
}
