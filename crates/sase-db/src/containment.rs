//! Containment history — the Containment Update archiving rule's storage.
//!
//! §3: "For containment updates, readings from unloading and loading zones
//! are aggregated into a containment relationship" — which item is in which
//! box/pallet, and when. Mirrors the location table's `TimeIn`/`TimeOut`
//! representation; an open membership has `time_out = -1`.

use crate::database::Database;
use crate::error::Result;
use crate::location::{
    close, current, ensure_intervals, enter, history, open_items, rows_of, Interval, PLACE,
};

/// Name of the backing table.
pub const TABLE: &str = "containment";

/// One membership of an item in a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Membership {
    /// The container id.
    pub container: i64,
    /// When the item entered.
    pub time_in: i64,
    /// When it left; [`OPEN`](crate::location::OPEN) while current.
    pub time_out: i64,
}

fn membership([container, time_in, time_out]: Interval) -> Membership {
    Membership {
        container,
        time_in,
        time_out,
    }
}

/// Typed access to the `containment` table, on the same index probes and
/// by-value writes as [`LocationStore`](crate::location::LocationStore).
#[derive(Debug, Clone)]
pub struct ContainmentStore {
    db: Database,
}

impl ContainmentStore {
    /// Open (creating if needed) the containment table on a database.
    pub fn open(db: Database) -> Result<ContainmentStore> {
        ensure_intervals(&db, TABLE, "container", &["item", "container"])?;
        Ok(ContainmentStore { db })
    }

    /// The underlying database handle.
    pub fn database(&self) -> &Database {
        &self.db
    }

    /// Record the item entering a container at `ts`. Closes any other open
    /// membership first (an item is in at most one container), in the same
    /// critical section.
    pub fn add_to_container(&self, item: i64, container: i64, ts: i64) -> Result<()> {
        self.db
            .write(TABLE, |t| enter(t, item, container, ts).map(drop))
    }

    /// Record the item leaving its current container at `ts`.
    pub fn remove_from_container(&self, item: i64, ts: i64) -> Result<bool> {
        self.db.write(TABLE, |t| close(t, item, ts))
    }

    /// The item's current container, if boxed.
    pub fn current_container(&self, item: i64) -> Result<Option<Membership>> {
        self.db
            .read(TABLE, |t| Ok(current(t, item).map(membership)))
    }

    /// All memberships of an item, chronological.
    pub fn history(&self, item: i64) -> Result<Vec<Membership>> {
        self.db.read(TABLE, |t| {
            Ok(history(t, item).into_iter().map(membership).collect())
        })
    }

    /// Items currently inside a container.
    pub fn contents(&self, container: i64) -> Result<Vec<i64>> {
        self.db.read(TABLE, |t| {
            Ok(open_items(rows_of(t, PLACE, container), container))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::location::OPEN;

    fn store() -> ContainmentStore {
        ContainmentStore::open(Database::new()).unwrap()
    }

    #[test]
    fn box_and_rebox() {
        let s = store();
        s.add_to_container(1, 1000, 5).unwrap();
        s.add_to_container(1, 2000, 9).unwrap(); // implicit removal from 1000
        let h = s.history(1).unwrap();
        assert_eq!(
            h,
            vec![
                Membership {
                    container: 1000,
                    time_in: 5,
                    time_out: 9
                },
                Membership {
                    container: 2000,
                    time_in: 9,
                    time_out: OPEN
                },
            ]
        );
        assert_eq!(s.current_container(1).unwrap().unwrap().container, 2000);
    }

    #[test]
    fn explicit_removal() {
        let s = store();
        s.add_to_container(1, 1000, 5).unwrap();
        assert!(s.remove_from_container(1, 8).unwrap());
        assert!(s.current_container(1).unwrap().is_none());
        assert!(!s.remove_from_container(1, 9).unwrap()); // nothing open
    }

    #[test]
    fn same_container_noop() {
        let s = store();
        s.add_to_container(1, 1000, 5).unwrap();
        s.add_to_container(1, 1000, 7).unwrap();
        assert_eq!(s.history(1).unwrap().len(), 1);
    }

    #[test]
    fn contents_lists_current_items() {
        let s = store();
        s.add_to_container(1, 1000, 5).unwrap();
        s.add_to_container(2, 1000, 6).unwrap();
        s.add_to_container(3, 2000, 7).unwrap();
        s.remove_from_container(2, 8).unwrap();
        assert_eq!(s.contents(1000).unwrap(), vec![1]);
        assert_eq!(s.contents(2000).unwrap(), vec![3]);
        assert!(s.contents(3000).unwrap().is_empty());
    }
}
