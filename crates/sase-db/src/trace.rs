//! Track-and-trace queries (§4): "Current location: find the current
//! location of an item. Movement history: find the location and containment
//! changes of an item."
//!
//! Combines the location and containment tables into one chronological
//! view of an item's journey through the simulated supply chain. Both
//! halves are read through the typed stores: two `item` index probes, no
//! SQL.

use crate::containment::ContainmentStore;
use crate::database::Database;
use crate::error::Result;
use crate::location::{LocationStore, Stay, OPEN};

/// One entry of an item's merged movement history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEntry {
    /// The item stayed in an area.
    Location {
        /// The area.
        area: i64,
        /// Arrival.
        time_in: i64,
        /// Departure; [`OPEN`] if current.
        time_out: i64,
    },
    /// The item was inside a container.
    Containment {
        /// The container.
        container: i64,
        /// When it entered.
        time_in: i64,
        /// When it left; [`OPEN`] if current.
        time_out: i64,
    },
}

impl TraceEntry {
    /// Start time, for chronological merging.
    pub fn time_in(&self) -> i64 {
        match self {
            TraceEntry::Location { time_in, .. } | TraceEntry::Containment { time_in, .. } => {
                *time_in
            }
        }
    }
}

/// The track-and-trace query interface over an event database.
#[derive(Debug, Clone)]
pub struct TrackAndTrace {
    locations: LocationStore,
    containments: ContainmentStore,
}

impl TrackAndTrace {
    /// Open over a database (creates the tables if needed).
    pub fn open(db: Database) -> Result<TrackAndTrace> {
        Ok(TrackAndTrace {
            locations: LocationStore::open(db.clone())?,
            containments: ContainmentStore::open(db)?,
        })
    }

    /// The location store.
    pub fn locations(&self) -> &LocationStore {
        &self.locations
    }

    /// The containment store.
    pub fn containments(&self) -> &ContainmentStore {
        &self.containments
    }

    /// §4 "Current location": where an item is right now.
    pub fn current_location(&self, item: i64) -> Result<Option<Stay>> {
        self.locations.current_location(item)
    }

    /// §4 "Movement history": location and containment changes of an item,
    /// merged chronologically (ties: location before containment).
    pub fn movement_history(&self, item: i64) -> Result<Vec<TraceEntry>> {
        let mut entries: Vec<TraceEntry> = self
            .locations
            .history(item)?
            .into_iter()
            .map(|s| TraceEntry::Location {
                area: s.area,
                time_in: s.time_in,
                time_out: s.time_out,
            })
            .collect();
        entries.extend(self.containments.history(item)?.into_iter().map(|m| {
            TraceEntry::Containment {
                container: m.container,
                time_in: m.time_in,
                time_out: m.time_out,
            }
        }));
        entries.sort_by_key(|e| {
            (
                e.time_in(),
                matches!(e, TraceEntry::Containment { .. }) as u8,
            )
        });
        Ok(entries)
    }

    /// Render a history as the UI would display it.
    pub fn render_history(&self, item: i64) -> Result<String> {
        use std::fmt::Write as _;
        let mut out = format!("movement history of item {item}:\n");
        for e in self.movement_history(item)? {
            let (time_in, time_out, place) = match e {
                TraceEntry::Location {
                    area,
                    time_in,
                    time_out,
                } => (time_in, time_out, format!("in area {area}")),
                TraceEntry::Containment {
                    container,
                    time_in,
                    time_out,
                } => (time_in, time_out, format!("inside container {container}")),
            };
            if time_out == OPEN {
                let _ = writeln!(out, "  [{time_in} .. now] {place}");
            } else {
                let _ = writeln!(out, "  [{time_in} .. {time_out}] {place}");
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tnt() -> TrackAndTrace {
        TrackAndTrace::open(Database::new()).unwrap()
    }

    #[test]
    fn merged_history_is_chronological() {
        let t = tnt();
        t.containments().add_to_container(1, 1000, 2).unwrap();
        t.locations().update_location(1, 100, 3).unwrap();
        t.locations().update_location(1, 101, 7).unwrap();
        t.containments().remove_from_container(1, 9).unwrap();
        t.locations().update_location(1, 1, 12).unwrap();

        let h = t.movement_history(1).unwrap();
        assert_eq!(h.len(), 4);
        assert!(h.windows(2).all(|w| w[0].time_in() <= w[1].time_in()));
        assert!(matches!(
            h[0],
            TraceEntry::Containment {
                container: 1000,
                ..
            }
        ));
        assert!(matches!(h[3], TraceEntry::Location { area: 1, .. }));

        let cur = t.current_location(1).unwrap().unwrap();
        assert_eq!(cur.area, 1);

        let text = t.render_history(1).unwrap();
        assert!(text.contains("inside container 1000"));
        assert!(text.contains("in area 1"));
        assert!(text.contains("now"));
    }

    #[test]
    fn empty_history() {
        let t = tnt();
        assert!(t.movement_history(5).unwrap().is_empty());
        assert!(t.current_location(5).unwrap().is_none());
    }
}
