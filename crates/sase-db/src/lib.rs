//! # sase-db — the event database
//!
//! Replaces the paper's MySQL 5.0.22 instance (§3, "Event Database"):
//! "SASE contains a persistence storage component to support querying over
//! historical data and to allow query results from the stream processor to
//! be joined with stored data."
//!
//! * [`table`] / [`database`] — an in-memory relational store with typed
//!   tables, secondary indexes, and a SQL subset for ad-hoc queries
//! * [`location`] — the Location Update rule's `TimeIn`/`TimeOut` storage
//! * [`containment`] — the Containment Update rule's storage
//! * [`trace`] — the §4 track-and-trace queries (current location,
//!   movement history)
//!
//! ## Two read paths, one set of tables
//!
//! * **Typed, for the rules and track-and-trace.** [`Database::read`] and
//!   [`Database::write`] hand a closure the `&Table` / `&mut Table` under
//!   one lock acquisition; [`LocationStore`], [`ContainmentStore`] and
//!   [`TrackAndTrace`] are [`Table::probe`]s of an index and by-value row
//!   writes on it: no SQL text, no result set, and a read-modify-write
//!   such as `update_location` is one critical section. The stores own
//!   `item_location (item, area, time_in, time_out)`, indexed on `item`,
//!   and `containment (item, container, time_in, time_out)`, indexed on
//!   `item` and `container`.
//! * **SQL, for ad-hoc use** (the repl's `sql`, examples, tests):
//!   [`Database::execute`] / [`Database::query`] parse a statement per call
//!   and pick candidate rows with the same [`Table::probe`].
//!
//! The tables are ordinary tables with no cache beside them, so each path
//! sees every row the other wrote; `tests/typed_vs_sql.rs` holds the stores
//! equal to the statements they used to run.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod containment;
pub mod database;
pub mod error;
pub mod location;
pub mod sql;
pub mod table;
pub mod trace;

pub use containment::{ContainmentStore, Membership};
pub use database::{Database, ResultSet, StatementResult};
pub use error::{DbError, Result};
pub use location::{LocationStore, Stay, OPEN};
pub use sql::{parse_sql, Statement};
pub use table::{Column, Row, RowId, Table, TableSchema};
pub use trace::{TraceEntry, TrackAndTrace};
