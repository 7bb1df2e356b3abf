//! Configuration of the Cleaning and Association Layer.

use sase_core::hash::FxHashMap;

use crate::reading::ReaderId;

/// The logical kind of a monitored area; drives which event type the Event
/// Generation Layer emits for readings in that area.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AreaKind {
    /// A retail shelf — emits `SHELF_READING`.
    Shelf,
    /// A check-out counter — emits `COUNTER_READING`.
    Counter,
    /// A store exit — emits `EXIT_READING`.
    Exit,
    /// A warehouse loading zone — emits `LOADING_READING`.
    Loading,
    /// A warehouse unloading zone — emits `UNLOADING_READING`.
    Unloading,
}

impl AreaKind {
    /// The event type name emitted for readings in this kind of area.
    pub fn event_type(&self) -> &'static str {
        match self {
            AreaKind::Shelf => "SHELF_READING",
            AreaKind::Counter => "COUNTER_READING",
            AreaKind::Exit => "EXIT_READING",
            AreaKind::Loading => "LOADING_READING",
            AreaKind::Unloading => "UNLOADING_READING",
        }
    }

    /// All kinds, for registering every event schema.
    pub fn all() -> [AreaKind; 5] {
        [
            AreaKind::Shelf,
            AreaKind::Counter,
            AreaKind::Exit,
            AreaKind::Loading,
            AreaKind::Unloading,
        ]
    }
}

/// A logical area a reader monitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaInfo {
    /// The area id carried in generated events (`AreaId`).
    pub area_id: i64,
    /// The area kind.
    pub kind: AreaKind,
}

/// Configuration shared by the pipeline layers.
///
/// * Valid tag codes carry the `valid_prefix` in their high 16 bits — the
///   anomaly filter's plausibility test (simulating EPC code-space checks).
/// * `smoothing_window` is the paper's `w`: "the system decides whether an
///   object was present at time t based not only on the reading at time t,
///   but also on the readings of this object in a window of size w before
///   t" (§3).
/// * `units_per_tick` is the Time Conversion Layer's logical-time-unit
///   system configuration parameter.
/// * `dedup_window` is how many logical units two same-tag/same-area
///   readings may be apart and still be considered duplicates.
#[derive(Debug, Clone)]
pub struct CleaningConfig {
    /// High-16-bit prefix every valid tag code carries.
    pub valid_prefix: u16,
    /// Smoothing window width in ticks.
    pub smoothing_window: u64,
    /// Logical time units per reader tick.
    pub units_per_tick: u64,
    /// Duplicate-suppression window in logical units.
    pub dedup_window: u64,
    /// Reader → area association (the redundant-setup case maps several
    /// readers to one area).
    pub reader_areas: FxHashMap<ReaderId, AreaInfo>,
}

impl CleaningConfig {
    /// A config with the given reader→area map and sensible defaults.
    pub fn new(reader_areas: FxHashMap<ReaderId, AreaInfo>) -> Self {
        CleaningConfig {
            valid_prefix: 0xEC00,
            smoothing_window: 2,
            units_per_tick: 1,
            dedup_window: 1,
            reader_areas,
        }
    }

    /// Is a complete tag code plausible?
    pub fn is_valid_tag(&self, code: u64) -> bool {
        (code >> 48) as u16 == self.valid_prefix
    }

    /// Compose a valid tag code from a small item id.
    pub fn make_tag(&self, item: u64) -> u64 {
        ((self.valid_prefix as u64) << 48) | (item & 0x0000_FFFF_FFFF_FFFF)
    }

    /// Extract the item id from a valid tag code.
    pub fn item_of_tag(&self, code: u64) -> u64 {
        code & 0x0000_FFFF_FFFF_FFFF
    }

    /// Area info of a reader, if associated.
    pub fn area_of(&self, reader: ReaderId) -> Option<AreaInfo> {
        self.reader_areas.get(&reader).copied()
    }

    /// The paper's demo setup (Figure 2): four readers — two shelves, one
    /// check-out counter, one exit, each in its own logical area.
    pub fn retail_demo() -> Self {
        let mut readers = FxHashMap::default();
        readers.insert(
            1,
            AreaInfo {
                area_id: 1,
                kind: AreaKind::Shelf,
            },
        );
        readers.insert(
            2,
            AreaInfo {
                area_id: 2,
                kind: AreaKind::Shelf,
            },
        );
        readers.insert(
            3,
            AreaInfo {
                area_id: 3,
                kind: AreaKind::Counter,
            },
        );
        readers.insert(
            4,
            AreaInfo {
                area_id: 4,
                kind: AreaKind::Exit,
            },
        );
        CleaningConfig::new(readers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_validity_round_trip() {
        let cfg = CleaningConfig::retail_demo();
        let t = cfg.make_tag(42);
        assert!(cfg.is_valid_tag(t));
        assert_eq!(cfg.item_of_tag(t), 42);
        assert!(!cfg.is_valid_tag(0xDEAD_0000_0000_002A));
    }

    #[test]
    fn retail_demo_layout() {
        let cfg = CleaningConfig::retail_demo();
        assert_eq!(cfg.reader_areas.len(), 4);
        assert_eq!(cfg.area_of(4).unwrap().kind, AreaKind::Exit);
        assert_eq!(cfg.area_of(4).unwrap().area_id, 4);
        assert!(cfg.area_of(99).is_none());
    }

    #[test]
    fn kind_event_types() {
        assert_eq!(AreaKind::Shelf.event_type(), "SHELF_READING");
        assert_eq!(AreaKind::all().len(), 5);
    }
}
