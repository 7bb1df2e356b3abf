//! Compiled event patterns.
//!
//! The planner turns the parsed `SEQ(...)` construct into a
//! [`CompiledPattern`]: event type names are resolved against the
//! [`SchemaRegistry`], every component is assigned a *slot* (its position in
//! the pattern, negated components included), and the structural rules of
//! SASE 1.0 are enforced — in particular, negation must be flanked by
//! positive components on both sides ("the non-occurrence of B *between* A
//! and C"); a pattern may not begin or end with `!(...)`.

use std::sync::Arc;

use crate::error::{Result, SaseError};
use crate::event::{EventTypeId, SchemaRegistry};
use crate::lang::ast::Pattern;

/// One compiled component of a sequence pattern.
#[derive(Debug, Clone)]
pub struct CompiledElem {
    /// True for `!(TYPE var)`.
    pub negated: bool,
    /// Resolved candidate types (one for a plain component, several for
    /// `ANY(...)`).
    pub type_ids: Vec<EventTypeId>,
    /// Type names as written, for diagnostics and EXPLAIN.
    pub type_names: Vec<Arc<str>>,
    /// The bound variable.
    pub variable: Arc<str>,
    /// This component's slot (index in the full component list).
    pub slot: usize,
    /// For a positive component: its index among positive components.
    /// For a negated component: unused (0).
    pub positive_index: usize,
}

impl CompiledElem {
    /// Whether an event type can bind to this component.
    pub fn matches_type(&self, ty: EventTypeId) -> bool {
        self.type_ids.contains(&ty)
    }
}

/// Scope of one negated component: the non-occurrence is required strictly
/// between the two flanking positive components.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NegationScope {
    /// Slot of the negated component.
    pub slot: usize,
    /// Positive index of the component immediately before.
    pub after_positive: usize,
    /// Positive index of the component immediately after.
    pub before_positive: usize,
}

/// A fully compiled sequence pattern.
#[derive(Debug, Clone)]
pub struct CompiledPattern {
    /// All components in pattern order (slot order).
    pub elements: Vec<CompiledElem>,
    /// Slots of positive components, in order.
    pub positive_slots: Vec<usize>,
    /// Variables of the positive components, in order: the one list every
    /// composite event of the query shares.
    pub positive_variables: Arc<[Arc<str>]>,
    /// Scopes for negated components, in pattern order.
    pub negations: Vec<NegationScope>,
}

impl CompiledPattern {
    /// Compile a parsed pattern against a schema registry.
    pub fn compile(pattern: &Pattern, registry: &SchemaRegistry) -> Result<CompiledPattern> {
        if pattern.elements.is_empty() {
            return Err(SaseError::semantic("empty event pattern"));
        }
        if pattern.elements.first().map(|e| e.negated).unwrap_or(false) {
            return Err(SaseError::semantic(
                "a sequence pattern cannot begin with a negated component: negation \
                 expresses non-occurrence *between* two positive events",
            ));
        }
        if pattern.elements.last().map(|e| e.negated).unwrap_or(false) {
            return Err(SaseError::semantic(
                "a sequence pattern cannot end with a negated component: negation \
                 expresses non-occurrence *between* two positive events",
            ));
        }

        let mut seen_vars: Vec<&str> = Vec::new();
        let mut elements = Vec::with_capacity(pattern.elements.len());
        let mut positive_slots = Vec::new();
        for (slot, elem) in pattern.elements.iter().enumerate() {
            if seen_vars.iter().any(|v| *v == elem.variable) {
                return Err(SaseError::semantic(format!(
                    "pattern variable `{}` is bound more than once",
                    elem.variable
                )));
            }
            seen_vars.push(&elem.variable);

            let mut type_ids = Vec::with_capacity(elem.event_types.len());
            let mut type_names = Vec::with_capacity(elem.event_types.len());
            for name in &elem.event_types {
                let id = registry
                    .type_id(name)
                    .ok_or_else(|| SaseError::semantic(format!("unknown event type `{name}`")))?;
                if type_ids.contains(&id) {
                    return Err(SaseError::semantic(format!(
                        "duplicate event type `{name}` in ANY(...)"
                    )));
                }
                type_ids.push(id);
                type_names.push(Arc::from(name.as_str()));
            }

            let positive_index = positive_slots.len();
            if !elem.negated {
                positive_slots.push(slot);
            }
            elements.push(CompiledElem {
                negated: elem.negated,
                type_ids,
                type_names,
                variable: Arc::from(elem.variable.as_str()),
                slot,
                positive_index: if elem.negated { 0 } else { positive_index },
            });
        }

        // Resolve negation scopes. By the head/tail checks above every
        // negated slot has a positive on each side (possibly past other
        // negated slots, e.g. SEQ(A a, !(B b), !(C c), D d)).
        let mut negations = Vec::new();
        for (slot, elem) in elements.iter().enumerate() {
            if !elem.negated {
                continue;
            }
            let after_positive = elements[..slot]
                .iter()
                .rev()
                .find(|e| !e.negated)
                .map(|e| e.positive_index)
                .expect("head negation rejected above");
            let before_positive = elements[slot + 1..]
                .iter()
                .find(|e| !e.negated)
                .map(|e| e.positive_index)
                .expect("tail negation rejected above");
            negations.push(NegationScope {
                slot,
                after_positive,
                before_positive,
            });
        }

        let positive_variables = positive_slots
            .iter()
            .map(|slot| elements[*slot].variable.clone())
            .collect();
        Ok(CompiledPattern {
            elements,
            positive_slots,
            positive_variables,
            negations,
        })
    }

    /// Number of positive components (the NFA length).
    pub fn positive_len(&self) -> usize {
        self.positive_slots.len()
    }

    /// Total number of components, negated included (the slot count).
    pub fn slot_count(&self) -> usize {
        self.elements.len()
    }

    /// The element at a positive index.
    pub fn positive_elem(&self, positive_index: usize) -> &CompiledElem {
        &self.elements[self.positive_slots[positive_index]]
    }

    /// Every event type this pattern can react to: the candidate types of
    /// all positive components plus the types of negated components (whose
    /// occurrences must be observed as counterexamples). Sorted, deduped.
    ///
    /// This is the routing set of the query: an event whose type is not in
    /// it can neither bind a component nor kill a match, so an engine may
    /// skip the query entirely for such events.
    pub fn relevant_type_ids(&self) -> Vec<EventTypeId> {
        let mut ids: Vec<EventTypeId> = self
            .elements
            .iter()
            .flat_map(|e| e.type_ids.iter().copied())
            .collect();
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// Variable-name to slot mapping for expression compilation.
    pub fn slot_table(&self) -> Vec<(String, usize)> {
        self.elements
            .iter()
            .map(|e| (e.variable.to_string(), e.slot))
            .collect()
    }

    /// Find the element binding `var`.
    pub fn elem_for_var(&self, var: &str) -> Option<&CompiledElem> {
        self.elements.iter().find(|e| &*e.variable == var)
    }

    /// Do all candidate types of every listed element expose `attr`
    /// (schema attribute or the timestamp pseudo-attribute)?
    pub fn all_have_attr(&self, registry: &SchemaRegistry, attr: &str) -> bool {
        if attr.eq_ignore_ascii_case("timestamp") || attr.eq_ignore_ascii_case("ts") {
            return true;
        }
        self.elements.iter().all(|e| {
            e.type_ids.iter().all(|id| {
                registry
                    .schema(*id)
                    .map(|s| s.attr_position(attr).is_some())
                    .unwrap_or(false)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::lang::parse_query;

    fn compile(src: &str) -> Result<CompiledPattern> {
        let q = parse_query(src).unwrap();
        CompiledPattern::compile(&q.pattern, &retail_registry())
    }

    #[test]
    fn q1_pattern_compiles() {
        let p =
            compile("EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) WITHIN 10")
                .unwrap();
        assert_eq!(p.slot_count(), 3);
        assert_eq!(p.positive_len(), 2);
        assert_eq!(p.positive_slots, vec![0, 2]);
        assert_eq!(p.negations.len(), 1);
        let n = p.negations[0];
        assert_eq!(n.slot, 1);
        assert_eq!(n.after_positive, 0);
        assert_eq!(n.before_positive, 1);
        assert_eq!(p.positive_elem(1).variable.as_ref(), "z");
    }

    #[test]
    fn head_negation_rejected() {
        let err = compile("EVENT SEQ(!(SHELF_READING x), EXIT_READING z)").unwrap_err();
        assert!(err.to_string().contains("begin"));
    }

    #[test]
    fn tail_negation_rejected() {
        let err = compile("EVENT SEQ(SHELF_READING x, !(EXIT_READING z))").unwrap_err();
        assert!(err.to_string().contains("end"));
    }

    #[test]
    fn adjacent_negations_share_scope() {
        let p = compile(
            "EVENT SEQ(SHELF_READING a, !(COUNTER_READING b), !(EXIT_READING c), \
             SHELF_READING d)",
        )
        .unwrap();
        assert_eq!(p.negations.len(), 2);
        assert_eq!(p.negations[0].after_positive, 0);
        assert_eq!(p.negations[0].before_positive, 1);
        assert_eq!(p.negations[1].after_positive, 0);
        assert_eq!(p.negations[1].before_positive, 1);
    }

    #[test]
    fn duplicate_variable_rejected() {
        let err = compile("EVENT SEQ(SHELF_READING x, EXIT_READING x)").unwrap_err();
        assert!(err.to_string().contains("more than once"));
    }

    #[test]
    fn unknown_type_rejected() {
        let err = compile("EVENT SEQ(WAREHOUSE_READING x, EXIT_READING y)").unwrap_err();
        assert!(err.to_string().contains("unknown event type"));
    }

    #[test]
    fn any_compiles_and_dedups() {
        let p =
            compile("EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) v, EXIT_READING w)").unwrap();
        assert_eq!(p.elements[0].type_ids.len(), 2);
        assert!(compile("EVENT SEQ(ANY(SHELF_READING, SHELF_READING) v, EXIT_READING w)").is_err());
    }

    #[test]
    fn slot_table_covers_all_components() {
        let p =
            compile("EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) WITHIN 10")
                .unwrap();
        let t = p.slot_table();
        assert_eq!(
            t,
            vec![
                ("x".to_string(), 0),
                ("y".to_string(), 1),
                ("z".to_string(), 2)
            ]
        );
    }

    #[test]
    fn attr_presence_check() {
        let reg = retail_registry();
        let q = parse_query("EVENT SEQ(SHELF_READING x, EXIT_READING z) WITHIN 5").unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        assert!(p.all_have_attr(&reg, "TagId"));
        assert!(p.all_have_attr(&reg, "timestamp"));
        assert!(!p.all_have_attr(&reg, "Temperature"));
    }
}
