//! Composite events: the output of the event matching block.
//!
//! §2.1.1: "The event matching block transforms a stream of input events to
//! a stream of new composite events", which the RETURN clause then projects
//! for final output.

use std::fmt;
use std::sync::Arc;

use crate::event::Event;
use crate::time::Timestamp;
use crate::value::Value;

/// A composite event emitted by a query: the matched constituent events
/// plus the values computed by the RETURN clause.
///
/// An emission is immutable once built, so its body is shared: the events
/// and the RETURN values each sit in one reference-counted allocation, and
/// cloning a `ComplexEvent` — into an archive, a subscriber's channel, the
/// `INTO` derivation queue — copies a few pointers and bumps their counts.
/// Every clone of an emission reads the same events and values.
#[derive(Debug, Clone)]
pub struct ComplexEvent {
    /// Name of the query that produced this output.
    pub query: Arc<str>,
    /// Variable names of the positive pattern components, in order (shared
    /// with the query's plan: every emission of a query names the same
    /// variables).
    pub variables: Arc<[Arc<str>]>,
    /// The matched events (one per positive component, in order), shared
    /// by every clone of this emission.
    pub events: Arc<[Event]>,
    /// RETURN projection: `(column name, value)` pairs in clause order,
    /// shared by every clone of this emission. Empty when the query has no
    /// RETURN clause.
    pub values: Arc<[(Arc<str>, Value)]>,
    /// Timestamp of the last constituent event (detection time).
    pub detected_at: Timestamp,
    /// Output stream name (`INTO`), if the query declared one.
    pub into: Option<Arc<str>>,
}

impl ComplexEvent {
    /// Look up a RETURN column by name (case-insensitive).
    pub fn value(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v)
    }

    /// The event bound to a positive-component variable.
    pub fn event_for(&self, var: &str) -> Option<&Event> {
        self.variables
            .iter()
            .position(|v| v.as_ref() == var)
            .map(|i| &self.events[i])
    }
}

impl fmt::Display for ComplexEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}@{}]", self.query, self.detected_at)?;
        if !self.values.is_empty() {
            write!(f, " {{")?;
            for (i, (n, v)) in self.values.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{n}: {v}")?;
            }
            write!(f, "}}")?;
        }
        write!(f, " <-")?;
        for (var, e) in self.variables.iter().zip(self.events.iter()) {
            write!(f, " {var}={e}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;

    #[test]
    fn accessors_and_display() {
        let reg = retail_registry();
        let shelf = reg
            .build_event(
                "SHELF_READING",
                3,
                vec![Value::Int(9), Value::str("soap"), Value::Int(2)],
            )
            .unwrap();
        let exit = reg
            .build_event(
                "EXIT_READING",
                8,
                vec![Value::Int(9), Value::str("soap"), Value::Int(4)],
            )
            .unwrap();
        let ce = ComplexEvent {
            query: Arc::from("shoplifting"),
            variables: Arc::from([Arc::from("x"), Arc::from("z")]),
            events: Arc::from([shelf, exit]),
            values: Arc::from([(Arc::from("x.TagId"), Value::Int(9))]),
            detected_at: 8,
            into: None,
        };
        assert_eq!(ce.value("x.tagid"), Some(&Value::Int(9)));
        assert!(ce.value("zzz").is_none());
        assert_eq!(ce.event_for("z").unwrap().timestamp(), 8);
        assert!(ce.event_for("q").is_none());
        let s = ce.to_string();
        assert!(s.contains("[shoplifting@8]"));
        assert!(s.contains("x.TagId: 9"));
    }
}
