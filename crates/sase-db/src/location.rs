//! Location history — the Location Update archiving rule's storage.
//!
//! §2.1.1 (Q2) / §3: "Internally, the event database stores the location of
//! an item using TimeIn and TimeOut attributes, representing the duration
//! of its stay. The `_updateLocation` function first sets the TimeOut
//! attribute of the current location using the y.Timestamp value, and then
//! creates a tuple for the new location with the TimeIn attribute also set
//! to the value of y.Timestamp."
//!
//! An open (current) stay has `time_out = -1`. The containment table has
//! the same shape, so what both stores do to such a table lives here.

use sase_core::value::{Value, ValueKey, ValueType};

use crate::database::Database;
use crate::error::Result;
use crate::table::{Row, RowId, Table};

/// Sentinel `time_out` for the current (open) stay.
pub const OPEN: i64 = -1;

/// Name of the backing table.
pub const TABLE: &str = "item_location";

/// Column positions shared by `item_location` and `containment`: both are
/// `(item, place, time_in, time_out)`, the place an area or a container,
/// and both are indexed on `item`.
const ITEM: usize = 0;
pub(crate) const PLACE: usize = 1;
const TIME_IN: usize = 2;
const TIME_OUT: usize = 3;

/// Create an interval table, or add the indexes an existing one lacks.
pub(crate) fn ensure_intervals(
    db: &Database,
    table: &str,
    place: &str,
    indexed: &[&str],
) -> Result<()> {
    let columns = ["item", place, "time_in", "time_out"].map(|c| (c, ValueType::Int));
    db.ensure_table(table, &columns, indexed)
}

/// `[place, time_in, time_out]` of one row.
pub(crate) type Interval = [i64; 3];

fn interval(row: &Row) -> Interval {
    [PLACE, TIME_IN, TIME_OUT].map(|pos| row[pos].as_int().expect("interval columns are ints"))
}

fn is_open(row: &Row) -> bool {
    row[TIME_OUT].as_int() == Some(OPEN)
}

/// Live rows whose column `pos` — one the store indexed at open — is `key`,
/// oldest first: what `WHERE <col> = <key>` selects, in the same order.
pub(crate) fn rows_of(t: &Table, pos: usize, key: i64) -> impl Iterator<Item = (RowId, &Row)> {
    t.probe(pos, &ValueKey::Int(key))
        .expect("the store indexed this column at open")
        .iter()
        .map(|&rid| (rid, t.get(rid).expect("index is live")))
}

/// The item's open interval; the oldest, should ad-hoc SQL have opened
/// several.
pub(crate) fn current(t: &Table, item: i64) -> Option<Interval> {
    rows_of(t, ITEM, item)
        .find(|(_, row)| is_open(row))
        .map(|(_, row)| interval(row))
}

/// All intervals of an item, chronological.
pub(crate) fn history(t: &Table, item: i64) -> Vec<Interval> {
    let mut all: Vec<Interval> = rows_of(t, ITEM, item)
        .map(|(_, row)| interval(row))
        .collect();
    all.sort_by_key(|[_, time_in, _]| *time_in);
    all
}

/// Close every open interval of an item at `ts`; false when none was open.
pub(crate) fn close(t: &mut Table, item: i64, ts: i64) -> Result<bool> {
    let mut open = rows_of(t, ITEM, item)
        .filter(|(_, row)| is_open(row))
        .map(|(rid, _)| rid);
    let first = open.next();
    // Non-empty only after ad-hoc SQL reopened intervals; collecting
    // nothing allocates nothing.
    let rest: Vec<RowId> = open.collect();
    for rid in first.iter().chain(&rest) {
        t.update_row(*rid, &[(TIME_OUT, Value::Int(ts))])?;
    }
    Ok(first.is_some())
}

/// The read-modify-write both archiving rules share: unless the item's
/// open interval is already at `place`, close what is open at `ts` and open
/// one at `place` from `ts`. False when nothing changed.
pub(crate) fn enter(t: &mut Table, item: i64, place: i64, ts: i64) -> Result<bool> {
    if current(t, item).is_some_and(|[at, ..]| at == place) {
        return Ok(false);
    }
    close(t, item, ts)?;
    t.insert([item, place, ts, OPEN].map(Value::Int).to_vec())?;
    Ok(true)
}

/// Items with an open interval at `place` among `rows`, ascending.
pub(crate) fn open_items<'t>(rows: impl Iterator<Item = (RowId, &'t Row)>, place: i64) -> Vec<i64> {
    let mut items: Vec<i64> = rows
        .filter(|(_, row)| matches!(interval(row), [at, _, OPEN] if at == place))
        .filter_map(|(_, row)| row[ITEM].as_int())
        .collect();
    items.sort_unstable();
    items
}

/// One stay of an item in an area.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stay {
    /// The area.
    pub area: i64,
    /// Arrival time.
    pub time_in: i64,
    /// Departure time; [`OPEN`] while current.
    pub time_out: i64,
}

fn stay([area, time_in, time_out]: Interval) -> Stay {
    Stay {
        area,
        time_in,
        time_out,
    }
}

/// Typed access to the `item_location` table: index probes and by-value
/// row writes under one lock acquisition per call.
#[derive(Debug, Clone)]
pub struct LocationStore {
    db: Database,
}

impl LocationStore {
    /// Open (creating if needed) the location table on a database.
    pub fn open(db: Database) -> Result<LocationStore> {
        ensure_intervals(&db, TABLE, "area", &["item"])?;
        Ok(LocationStore { db })
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// The paper's `_updateLocation` semantics: close the current stay at
    /// `ts` and open a new one in `area` at `ts`, as one critical section.
    /// Re-observing the current area is a no-op (no location change
    /// happened).
    pub fn update_location(&self, item: i64, area: i64, ts: i64) -> Result<bool> {
        self.db.write(TABLE, |t| enter(t, item, area, ts))
    }

    /// The item's current stay, if it is anywhere.
    pub fn current_location(&self, item: i64) -> Result<Option<Stay>> {
        self.db.read(TABLE, |t| Ok(current(t, item).map(stay)))
    }

    /// All stays of an item, chronological.
    pub fn history(&self, item: i64) -> Result<Vec<Stay>> {
        self.db.read(TABLE, |t| {
            Ok(history(t, item).into_iter().map(stay).collect())
        })
    }

    /// Items currently in an area (a scan: `area` is not indexed).
    pub fn items_in_area(&self, area: i64) -> Result<Vec<i64>> {
        self.db.read(TABLE, |t| Ok(open_items(t.iter(), area)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> LocationStore {
        LocationStore::open(Database::new()).unwrap()
    }

    #[test]
    fn update_location_implements_paper_semantics() {
        let s = store();
        assert!(s.update_location(1, 1, 10).unwrap());
        assert!(s.update_location(1, 3, 20).unwrap());
        assert!(s.update_location(1, 4, 30).unwrap());
        let h = s.history(1).unwrap();
        assert_eq!(
            h,
            vec![
                Stay {
                    area: 1,
                    time_in: 10,
                    time_out: 20
                },
                Stay {
                    area: 3,
                    time_in: 20,
                    time_out: 30
                },
                Stay {
                    area: 4,
                    time_in: 30,
                    time_out: OPEN
                },
            ]
        );
        assert_eq!(
            s.current_location(1).unwrap(),
            Some(Stay {
                area: 4,
                time_in: 30,
                time_out: OPEN
            })
        );
    }

    #[test]
    fn same_area_is_a_noop() {
        let s = store();
        assert!(s.update_location(1, 2, 10).unwrap());
        assert!(!s.update_location(1, 2, 15).unwrap());
        assert_eq!(s.history(1).unwrap().len(), 1);
    }

    #[test]
    fn unknown_item_has_no_location() {
        let s = store();
        assert_eq!(s.current_location(42).unwrap(), None);
        assert!(s.history(42).unwrap().is_empty());
    }

    #[test]
    fn items_in_area() {
        let s = store();
        s.update_location(1, 5, 10).unwrap();
        s.update_location(2, 5, 11).unwrap();
        s.update_location(3, 6, 12).unwrap();
        s.update_location(1, 6, 20).unwrap(); // item 1 moved away
        assert_eq!(s.items_in_area(5).unwrap(), vec![2]);
        let mut in6 = s.items_in_area(6).unwrap();
        in6.sort_unstable();
        assert_eq!(in6, vec![1, 3]);
    }

    #[test]
    fn open_reuses_existing_table() {
        let db = Database::new();
        let a = LocationStore::open(db.clone()).unwrap();
        a.update_location(1, 1, 5).unwrap();
        let b = LocationStore::open(db).unwrap();
        assert_eq!(b.history(1).unwrap().len(), 1);
    }
}
