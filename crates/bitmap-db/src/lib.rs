//! # cim-bitmap-db
//!
//! The data side of the §II "QUERY SELECT" application of the DATE'19
//! paper: bitmap indexes, a TPC-H-like table and the host Query-6 paths.
//!
//! The paper represents a database as *transposed bitmaps* (Fig. 2(b)):
//! each low-cardinality column is binned, each bin becomes one row of
//! zeros and ones, and each database entry is one column. Queries then
//! reduce to bit-wise AND/OR across bin rows — exactly the operations
//! Scouting Logic evaluates inside the memory array.
//!
//! * [`bitmap`] — bin encoders and the [`bitmap::BitmapIndex`].
//! * [`star`] — the paper's Fig. 2(a) star-catalog example dataset.
//! * [`tpch`] — a TPC-H-like `lineitem` generator and the Query-6
//!   parameters (the paper's QUERY SELECT kernel runs TPC-H query-06).
//! * [`query`] — Query-6 on the host: the scalar row scan (the
//!   reference), the bitmap plan on the CPU, and the bins and revenue
//!   aggregation the CIM path shares with them.
//!
//! The CIM path itself — bins stored as rows of digital tiles, the
//! plan's ORs and final AND run as Scouting-Logic accesses — is the
//! `cim-runtime` pool's Q6 lowering (`WorkloadSpec::Q6Select`, and
//! `Q6Query` over a resident `DatasetSpec::Q6Table`); every path returns
//! the scan's result bit for bit.
//!
//! # Example
//!
//! ```
//! use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
//! use cim_bitmap_db::query::{q6_scan, q6_bitmap_cpu};
//!
//! let table = LineItemTable::generate(2000, 42);
//! let params = Q6Params::tpch_default();
//! let scan = q6_scan(&table, &params);
//! let cpu = q6_bitmap_cpu(&table, &params);
//! assert_eq!(scan, cpu.result);
//! ```

pub mod bitmap;
pub mod query;
pub mod star;
pub mod tpch;

pub use bitmap::{BinSpec, BitmapIndex};
pub use query::{q6_bitmap_cpu, q6_scan, Q6Result};
pub use tpch::{LineItemTable, Q6Params};
