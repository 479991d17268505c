//! # rock-data — relational substrate for Rock
//!
//! This crate implements the data model that every other Rock crate builds
//! on: typed [`Value`]s, relation and database [`schema`]s, [`Tuple`]s that
//! carry an entity id (`EID`, following Codd's extended relational model as
//! adopted by the paper §2), [`Relation`]s with optional *per-cell
//! timestamps* (temporal relations, §2.2), whole [`Database`] instances,
//! update batches (ΔD) for the incremental modes, column statistics used by
//! the discovery/optimizer layers, and a small CSV reader/writer.
//!
//! Design notes (see DESIGN.md §3):
//! * `Value` is a compact enum with a **total order** (floats compare via
//!   `total_cmp`) so that values can live in sorted indexes and B-tree maps.
//! * Strings are reference-counted (`Arc<str>`) and interned per database,
//!   which keeps tuples cheap to clone — the chase clones tuples liberally.
//! * Every tuple has a stable [`TupleId`] and an [`Eid`]; the fix store in
//!   `rock-chase` keys its `[EID]=` / `[EID.A]=` structures by these ids.

// Every evaluation hot path sits on this crate; a panic here takes down a
// whole chase round (or a Crystal worker), so non-test code must surface
// errors as values — same gate as rock-crystal, rock-rees, and rock-chase.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod bitset;
pub mod column;
pub mod csvio;
pub mod database;
pub mod dict;
pub mod error;
pub mod ids;
pub mod relation;
pub mod schema;
pub mod stats;
pub mod temporal;
pub mod tuple;
pub mod update;
pub mod value;

pub use rock_crystal::hash::{FxHashMap, FxHashSet};
pub use rock_crystal::{json, json_codec, rng};

pub use bitset::Bitset;
pub use column::{row_heap_bytes, Column, ColumnData, ColumnSet, PredOp};
pub use database::Database;
pub use dict::Dictionary;
pub use error::DataError;
pub use ids::{AttrId, CellRef, Eid, GlobalTid, RelId, TupleId};
pub use relation::Relation;
pub use schema::{AttrType, Attribute, DatabaseSchema, RelationSchema};
pub use stats::{ColumnStats, TableStats};
pub use temporal::Timestamp;
pub use tuple::Tuple;
pub use update::{check_arities, Delta, Update};
pub use value::{cmp_int_float, Value};
