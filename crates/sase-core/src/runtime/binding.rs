//! Runtime bindings: assignments of events to pattern slots.
//!
//! Both views borrow their events. A completed match is a slice of events,
//! one per positive component in pattern order ([`MatchBinding`]); a match
//! under construction is a chain of borrowed events, one per bound
//! component, each link on a frame of the construction's recursion (the
//! crate-private `Suffix`).

use crate::event::Event;
use crate::expr::Binding;
use crate::pattern::CompiledPattern;

/// A [`Binding`] view over a complete match of the positive components —
/// one event per positive component, in pattern order — optionally
/// extended with a candidate event for one negated slot (used by negation
/// checks).
pub struct MatchBinding<'a> {
    pattern: &'a CompiledPattern,
    positives: &'a [Event],
    extra: Option<(usize, &'a Event)>,
}

impl<'a> MatchBinding<'a> {
    /// View over the positive events of a match.
    pub fn new(pattern: &'a CompiledPattern, positives: &'a [Event]) -> Self {
        debug_assert_eq!(positives.len(), pattern.positive_len());
        MatchBinding {
            pattern,
            positives,
            extra: None,
        }
    }

    /// Extend with a candidate event bound to a negated slot.
    pub fn with_negated(
        pattern: &'a CompiledPattern,
        positives: &'a [Event],
        neg_slot: usize,
        candidate: &'a Event,
    ) -> Self {
        MatchBinding {
            pattern,
            positives,
            extra: Some((neg_slot, candidate)),
        }
    }
}

impl Binding for MatchBinding<'_> {
    fn event_at(&self, slot: usize) -> Option<&Event> {
        if let Some((neg_slot, e)) = self.extra {
            if slot == neg_slot {
                return Some(e);
            }
        }
        let elem = self.pattern.elements.get(slot)?;
        if elem.negated {
            return None;
        }
        self.positives.get(elem.positive_index)
    }
}

/// The positive components bound so far by backward sequence construction:
/// a suffix of the pattern's positive components, `event` bound to the
/// first of them at pattern slot `slot`, and `rest` to the ones after it.
/// Each link lives on a frame of the construction's recursion and borrows
/// its event from an instance of the index (or from the arriving event), so
/// binding a candidate costs neither an allocation nor a reference count.
/// As a [`Binding`], slots the suffix does not cover read as unbound.
pub(crate) struct Suffix<'a> {
    pub(crate) slot: usize,
    pub(crate) event: &'a Event,
    pub(crate) rest: Option<&'a Suffix<'a>>,
}

impl<'a> Suffix<'a> {
    /// The bound events, in pattern order.
    pub(crate) fn events(&'a self) -> impl Iterator<Item = &'a Event> {
        std::iter::successors(Some(self), |s| s.rest).map(|s| s.event)
    }
}

impl Binding for Suffix<'_> {
    fn event_at(&self, slot: usize) -> Option<&Event> {
        let mut link = self;
        while link.slot != slot {
            link = link.rest?;
        }
        Some(link.event)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::expr::Binding;
    use crate::lang::parse_query;
    use crate::value::Value;

    #[test]
    fn binding_maps_slots_through_negation() {
        let reg = retail_registry();
        let q = parse_query(
            "EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) WITHIN 10",
        )
        .unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        let mk = |ty: &str, ts: u64| {
            reg.build_event(ty, ts, vec![Value::Int(1), Value::str("p"), Value::Int(1)])
                .unwrap()
        };
        let positives = vec![mk("SHELF_READING", 1), mk("EXIT_READING", 5)];
        let b = MatchBinding::new(&p, &positives);
        assert_eq!(b.event_at(0).unwrap().type_name(), "SHELF_READING");
        assert!(b.event_at(1).is_none()); // negated slot unbound
        assert_eq!(b.event_at(2).unwrap().type_name(), "EXIT_READING");
        assert!(b.event_at(3).is_none());

        let counter = mk("COUNTER_READING", 3);
        let nb = MatchBinding::with_negated(&p, &positives, 1, &counter);
        assert_eq!(nb.event_at(1).unwrap().type_name(), "COUNTER_READING");
    }

    #[test]
    fn suffix_binds_its_own_slots() {
        let reg = retail_registry();
        let mk = |ty: &str, ts: u64| {
            reg.build_event(ty, ts, vec![Value::Int(1), Value::str("p"), Value::Int(1)])
                .unwrap()
        };
        let (w, z) = (mk("SHELF_READING", 2), mk("EXIT_READING", 5));
        // SEQ(x, !(y), w, z): the suffix binds w and z, at slots 2 and 3.
        let last = Suffix {
            slot: 3,
            event: &z,
            rest: None,
        };
        let two = Suffix {
            slot: 2,
            event: &w,
            rest: Some(&last),
        };
        let stamps: Vec<u64> = two.events().map(Event::timestamp).collect();
        assert_eq!(stamps, vec![2, 5]);
        assert!(two.event_at(0).is_none());
        assert!(two.event_at(1).is_none()); // negated slot
        assert_eq!(two.event_at(2).unwrap().timestamp(), 2);
        assert_eq!(two.event_at(3).unwrap().timestamp(), 5);
        assert!(two.event_at(4).is_none());
    }
}
