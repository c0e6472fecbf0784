//! # cim-bitmap-db
//!
//! A bitmap-index database engine with CIM-accelerated query execution —
//! the §II "QUERY SELECT" application of the DATE'19 paper.
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
//! * [`query`] — Query-6 executed three ways: scalar row scan, bitmap
//!   plan on the CPU, and bitmap plan on CIM scouting logic; all three
//!   return bit-identical row selections.
//!
//! # Example
//!
//! ```
//! use cim_bitmap_db::tpch::{LineItemTable, Q6Params};
//! use cim_bitmap_db::query::{q6_scan, q6_bitmap_cpu, Q6CimEngine};
//!
//! let table = LineItemTable::generate(2000, 42);
//! let params = Q6Params::tpch_default();
//! let scan = q6_scan(&table, &params);
//! let cpu = q6_bitmap_cpu(&table, &params);
//! assert_eq!(scan.matching_rows, cpu.result.matching_rows);
//!
//! let mut engine = Q6CimEngine::load(&table, 1024, 7);
//! let cim = engine.execute(&params, &table);
//! assert_eq!(scan.matching_rows, cim.result.matching_rows);
//! ```

pub mod bitmap;
pub mod query;
pub mod star;
pub mod tpch;

pub use bitmap::{BinSpec, BitmapIndex};
pub use query::{q6_bitmap_cpu, q6_scan, Q6CimEngine, Q6Result};
pub use tpch::{LineItemTable, Q6Params};
