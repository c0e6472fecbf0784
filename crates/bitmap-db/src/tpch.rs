//! TPC-H-like `lineitem` generator and Query-6 parameters.
//!
//! The paper's QUERY SELECT kernel "performs the query-06 of the TPC-H
//! benchmark". TPC-H data is generated by `dbgen`, which is not
//! redistributable here; as a substitution, this module generates a
//! `lineitem` table with the same column *distributions* the query
//! touches:
//!
//! * `l_shipdate`  — uniform over the 7 years 1992–1998, stored as a
//!   month index `0..84`;
//! * `l_discount` — uniform over {0.00, 0.01, …, 0.10}, stored in cents;
//! * `l_quantity` — uniform over 1..=50;
//! * `l_extendedprice` — uniform over [901, 104950) dollars.
//!
//! Query-6 with its default substitution parameters:
//!
//! ```sql
//! SELECT sum(l_extendedprice * l_discount) AS revenue
//! FROM lineitem
//! WHERE l_shipdate >= '1994-01-01' AND l_shipdate < '1995-01-01'
//!   AND l_discount BETWEEN 0.06 - 0.01 AND 0.06 + 0.01
//!   AND l_quantity < 24;
//! ```

use rand::Rng;

/// Number of month bins (7 years × 12 months).
pub const SHIP_MONTHS: u16 = 84;
/// Number of discount bins (0 … 10 cents of discount percentage).
pub const DISCOUNT_LEVELS: u8 = 11;
/// Largest quantity value.
pub const MAX_QUANTITY: u8 = 50;

/// A columnar `lineitem` table restricted to the Query-6 columns.
#[derive(Debug, Clone, PartialEq)]
pub struct LineItemTable {
    /// `l_shipdate` as a month index in `0..SHIP_MONTHS` (0 = 1992-01).
    pub ship_month: Vec<u16>,
    /// `l_discount` in hundredths (0 ..= 10, i.e. 0.00–0.10).
    pub discount: Vec<u8>,
    /// `l_quantity` in `1..=MAX_QUANTITY`.
    pub quantity: Vec<u8>,
    /// `l_extendedprice` in dollars.
    pub extended_price: Vec<f64>,
}

impl LineItemTable {
    /// Generates `rows` line items with a deterministic seed.
    pub fn generate(rows: usize, seed: u64) -> Self {
        let mut rng = cim_simkit::rng::seeded(seed);
        let mut t = LineItemTable {
            ship_month: Vec::with_capacity(rows),
            discount: Vec::with_capacity(rows),
            quantity: Vec::with_capacity(rows),
            extended_price: Vec::with_capacity(rows),
        };
        for _ in 0..rows {
            t.ship_month.push(rng.gen_range(0..SHIP_MONTHS));
            t.discount.push(rng.gen_range(0..DISCOUNT_LEVELS));
            t.quantity.push(rng.gen_range(1..=MAX_QUANTITY));
            t.extended_price.push(rng.gen_range(901.0..104_950.0));
        }
        t
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.ship_month.len()
    }
}

/// Query-6 substitution parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Q6Params {
    /// Year selector: rows with `ship_month` in `year*12 .. (year+1)*12`
    /// match (0 = 1992 … 6 = 1998).
    pub year: u16,
    /// Discount centre in hundredths; matches `discount ∈ [centre−1,
    /// centre+1]`.
    pub discount: u8,
    /// Quantity bound; matches `quantity < max_quantity`.
    pub max_quantity: u8,
}

impl Q6Params {
    /// TPC-H's default substitution: DATE = 1994-01-01, DISCOUNT = 0.06,
    /// QUANTITY = 24.
    pub fn tpch_default() -> Self {
        Q6Params {
            year: 2,
            discount: 6,
            max_quantity: 24,
        }
    }

    /// `true` if a single row matches all three predicates.
    ///
    /// The windows are tested in `u32`, where no parameter value
    /// overflows, so a year past the table's last one matches no row.
    /// Each two-sided window is one unsigned compare: a value below the
    /// window's start wraps to far above its width.
    pub fn matches(&self, ship_month: u16, discount: u8, quantity: u8) -> bool {
        let month_lo = u32::from(self.year) * 12;
        u32::from(ship_month).wrapping_sub(month_lo) < 12
            && (u32::from(discount) + 1).wrapping_sub(u32::from(self.discount)) <= 2
            && quantity < self.max_quantity
    }

    /// The revenue contribution of a matching row:
    /// `extendedprice × discount`.
    pub fn revenue_term(&self, extended_price: f64, discount: u8) -> f64 {
        extended_price * discount as f64 / 100.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_respects_column_domains() {
        let t = LineItemTable::generate(5000, 1);
        assert_eq!(t.rows(), 5000);
        assert!(t.ship_month.iter().all(|&m| m < SHIP_MONTHS));
        assert!(t.discount.iter().all(|&d| d < DISCOUNT_LEVELS));
        assert!(t.quantity.iter().all(|&q| (1..=MAX_QUANTITY).contains(&q)));
        assert!(t
            .extended_price
            .iter()
            .all(|&p| (901.0..104_950.0).contains(&p)));
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(
            LineItemTable::generate(100, 7),
            LineItemTable::generate(100, 7)
        );
        assert_ne!(
            LineItemTable::generate(100, 7),
            LineItemTable::generate(100, 8)
        );
    }

    #[test]
    fn q6_default_selectivity_near_theory() {
        // P(match) = (12/84) × (3/11) × (23/50) ≈ 1.79 %.
        let t = LineItemTable::generate(200_000, 2);
        let p = Q6Params::tpch_default();
        let hits = (0..t.rows())
            .filter(|&i| p.matches(t.ship_month[i], t.discount[i], t.quantity[i]))
            .count();
        let rate = hits as f64 / t.rows() as f64;
        let theory = (12.0 / 84.0) * (3.0 / 11.0) * (23.0 / 50.0);
        assert!(
            (rate - theory).abs() < 0.003,
            "rate {rate} vs theory {theory}"
        );
    }

    #[test]
    fn predicate_edges() {
        let p = Q6Params::tpch_default();
        // Year 1994 = months 24..36.
        assert!(p.matches(24, 6, 1));
        assert!(p.matches(35, 5, 23));
        assert!(!p.matches(23, 6, 1));
        assert!(!p.matches(36, 6, 1));
        // Discount window 5..=7.
        assert!(p.matches(30, 7, 10));
        assert!(!p.matches(30, 8, 10));
        assert!(!p.matches(30, 4, 10));
        // Quantity strictly below 24.
        assert!(!p.matches(30, 6, 24));
    }

    #[test]
    fn discount_zero_does_not_underflow() {
        let p = Q6Params {
            year: 0,
            discount: 0,
            max_quantity: 50,
        };
        // discount+1 >= centre must hold for discount = 0, centre = 0.
        assert!(p.matches(0, 0, 1));
        assert!(p.matches(0, 1, 1));
        assert!(!p.matches(0, 2, 1));
    }

    #[test]
    fn years_past_the_table_match_nothing() {
        // `year * 12` once overflowed `u16`: 5462 wrapped to months
        // 8..20, and `u16::MAX` panicked in debug builds.
        let t = LineItemTable::generate(2000, 3);
        for year in [5462, u16::MAX] {
            let p = Q6Params {
                year,
                ..Q6Params::tpch_default()
            };
            let hits = (0..t.rows())
                .filter(|&i| p.matches(t.ship_month[i], t.discount[i], t.quantity[i]))
                .count();
            assert_eq!(hits, 0, "year {year}");
        }
    }

    #[test]
    fn revenue_term_scaling() {
        let p = Q6Params::tpch_default();
        assert!((p.revenue_term(1000.0, 6) - 60.0).abs() < 1e-12);
        assert_eq!(p.revenue_term(1000.0, 0), 0.0);
    }
}
