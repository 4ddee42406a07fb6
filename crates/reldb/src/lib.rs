//! `graphgen-reldb` — a small in-memory columnar relational engine.
//!
//! GraphGen (the paper's system) sits on top of PostgreSQL and needs only
//! "basic SQL support from the underlying storage engine": table scans,
//! selection, projection, equi-joins, `DISTINCT`, and catalog statistics
//! (`pg_stats.n_distinct`) for its large-output-join test. This crate is the
//! from-scratch substitute for that substrate:
//!
//! * [`Value`] / [`DataType`] — a compact dynamic value model (64-bit ints
//!   and strings cover every schema in the paper's Fig. 15).
//! * [`Schema`] / [`Table`] — column-oriented storage with append ingestion.
//! * [`Database`] — the catalog: named tables plus per-column statistics
//!   (row count, exact distinct count) used by the extraction planner.
//! * [`Interner`] — the per-database dictionary mapping each distinct
//!   [`Value`] to a dense `u32` [`Vid`] (NULL is [`NULL_VID`]).
//! * [`RowSet`] — the flat arena of dictionary ids every operator consumes
//!   and produces: one allocation per batch, rows addressed by index, four
//!   bytes per cell.
//! * [`exec`] — physical operators: filtered scan with projection, hash
//!   equi-join with projection, distinct, and a reference nested-loop join
//!   for testing; and [`query::Query`], a tiny logical plan ("the SQL we
//!   generate").
//!
//! A chain query runs on dictionary ids from scan to output: the scan
//! resolves each projected cell to its id once, joins and `DISTINCT` hash
//! and compare `u32`s only, and [`query::Query::run_threaded`] builds its
//! `(Value, Value)` pairs once, from the surviving output rows.
//!
//! Every operator takes a `threads` knob (morsel-parallel scans and join
//! probes, hash-partitioned join builds and DISTINCT — std scoped threads)
//! and produces byte-identical output for any thread count; see [`exec`]
//! for the operator contract and ordering guarantee.
//!
//! Tables are mutable after registration: [`Database::insert_rows`] and
//! [`Database::delete_rows`] apply a batch, recompute the statistics, and
//! return a typed [`Delta`] log that `graphgen-core`'s incremental module
//! consumes to maintain extracted graphs without re-running queries.

#![warn(missing_docs)]

pub mod catalog;
pub mod csv;
pub mod delta;
pub mod error;
pub mod exec;
pub mod expr;
pub mod intern;
pub mod query;
pub mod rowset;
pub mod schema;
pub mod table;
pub mod value;

pub use catalog::{ColumnStats, Database};
pub use delta::{Delta, DeltaBatch, DeltaOp, DeltaRow};
pub use error::{DbError, DbResult};
pub use expr::Predicate;
pub use intern::{Interner, Vid, NULL_VID};
pub use query::Query;
pub use rowset::RowSet;
pub use schema::{Column, Schema};
pub use table::Table;
pub use value::{DataType, Value};
