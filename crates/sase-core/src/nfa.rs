//! The NFA model underlying SASE sequence operators.
//!
//! §2.1.2: "we devise native sequence operators based on a Non-deterministic
//! Finite Automata based model which can read query-specific event sequences
//! efficiently from continuously arriving events."
//!
//! The NFA for `SEQ(T1 v1, ..., Tn vn)` (positive components only — negation
//! is handled by a separate operator over the constructed sequences) is a
//! linear automaton with `n + 1` states. State `i` has:
//!
//! * a *forward* edge to state `i + 1`, taken when an event of a type in
//!   `T_{i+1}` arrives, and
//! * an implicit *self-loop* on every event (SASE 1.0 sequences are
//!   "skip till any match": irrelevant events between components are
//!   ignored, and one event can extend many partial runs).
//!
//! The Active Instance Stack runtime ([`crate::runtime::ssc`]) is an
//! optimized encoding of exactly this automaton; the automaton itself is
//! what `explain` prints.

use std::fmt;
use std::fmt::Write as _;

use crate::event::EventTypeId;
use crate::pattern::CompiledPattern;

/// A state index in the NFA. State 0 is initial; the highest state accepts.
pub type StateId = usize;

/// A forward transition of the linear sequence NFA.
#[derive(Debug, Clone)]
pub struct Transition {
    /// Event types that trigger the transition.
    pub on_types: Vec<EventTypeId>,
    /// Human-readable labels for EXPLAIN output.
    pub labels: Vec<String>,
    /// Target state.
    pub to: StateId,
}

/// A state of the sequence NFA.
#[derive(Debug, Clone, Default)]
pub struct State {
    /// The forward transition out of this state (none for the accept state).
    pub forward: Option<Transition>,
    /// Variable bound by taking the forward transition, for display.
    pub binds: Option<String>,
}

/// The linear NFA for the positive components of a sequence pattern.
#[derive(Debug, Clone)]
pub struct Nfa {
    states: Vec<State>,
}

impl Nfa {
    /// Build the NFA from a compiled pattern (positive components only).
    pub fn from_pattern(pattern: &CompiledPattern) -> Nfa {
        let n = pattern.positive_len();
        let mut states = Vec::with_capacity(n + 1);
        for i in 0..n {
            let elem = pattern.positive_elem(i);
            states.push(State {
                forward: Some(Transition {
                    on_types: elem.type_ids.clone(),
                    labels: elem.type_names.iter().map(|s| s.to_string()).collect(),
                    to: i + 1,
                }),
                binds: Some(elem.variable.to_string()),
            });
        }
        states.push(State::default()); // accept state
        Nfa { states }
    }

    /// Number of states (positive components + 1).
    pub fn state_count(&self) -> usize {
        self.states.len()
    }

    /// The initial state.
    pub fn initial(&self) -> StateId {
        0
    }

    /// The accepting state.
    pub fn accepting(&self) -> StateId {
        self.states.len() - 1
    }

    /// Is `state` accepting?
    pub fn is_accepting(&self, state: StateId) -> bool {
        state == self.accepting()
    }

    /// The state reached from `state` on an event of type `ty`, if the
    /// forward edge fires. (The self-loop always also applies; callers keep
    /// the original run alive themselves — that is what makes it an NFA.)
    pub fn step(&self, state: StateId, ty: EventTypeId) -> Option<StateId> {
        let t = self.states.get(state)?.forward.as_ref()?;
        t.on_types.contains(&ty).then_some(t.to)
    }

    /// Whether a trace of event types can drive the NFA from initial to
    /// accepting, skipping arbitrary events (subsequence semantics).
    /// Used by property tests as the executable specification.
    pub fn accepts_trace(&self, trace: &[EventTypeId]) -> bool {
        let mut state = self.initial();
        for ty in trace {
            if let Some(next) = self.step(state, *ty) {
                state = next;
                if self.is_accepting(state) {
                    return true;
                }
            }
        }
        self.is_accepting(state)
    }

    /// Graphviz dot rendering, for documentation and debugging.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph nfa {\n  rankdir=LR;\n");
        for (i, s) in self.states.iter().enumerate() {
            let shape = if self.is_accepting(i) {
                "doublecircle"
            } else {
                "circle"
            };
            let _ = writeln!(out, "  s{i} [shape={shape} label=\"{i}\"];");
            if let Some(t) = &s.forward {
                let label = t.labels.join("|");
                let binds = s.binds.as_deref().unwrap_or("?");
                let _ = writeln!(out, "  s{i} -> s{} [label=\"{label} {binds}\"];", t.to);
            }
            let _ = writeln!(out, "  s{i} -> s{i} [label=\"*\" style=dashed];");
        }
        out.push_str("}\n");
        out
    }
}

impl fmt::Display for Nfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, s) in self.states.iter().enumerate() {
            if let Some(t) = &s.forward {
                write!(
                    f,
                    "{i} --{}:{}--> ",
                    t.labels.join("|"),
                    s.binds.as_deref().unwrap_or("?")
                )?;
            } else {
                write!(f, "({i})")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::retail_registry;
    use crate::lang::parse_query;
    use crate::pattern::CompiledPattern;

    fn nfa_for(src: &str) -> (Nfa, crate::event::SchemaRegistry) {
        let reg = retail_registry();
        let q = parse_query(src).unwrap();
        let p = CompiledPattern::compile(&q.pattern, &reg).unwrap();
        (Nfa::from_pattern(&p), reg)
    }

    #[test]
    fn q1_nfa_shape() {
        // Negated component is not part of the NFA.
        let (nfa, _) =
            nfa_for("EVENT SEQ(SHELF_READING x, !(COUNTER_READING y), EXIT_READING z) WITHIN 10");
        assert_eq!(nfa.state_count(), 3);
        assert_eq!(nfa.accepting(), 2);
    }

    #[test]
    fn step_and_skip() {
        let (nfa, reg) = nfa_for("EVENT SEQ(SHELF_READING x, EXIT_READING z)");
        let shelf = reg.type_id("SHELF_READING").unwrap();
        let counter = reg.type_id("COUNTER_READING").unwrap();
        let exit = reg.type_id("EXIT_READING").unwrap();
        assert_eq!(nfa.step(0, shelf), Some(1));
        assert_eq!(nfa.step(0, exit), None);
        assert_eq!(nfa.step(1, exit), Some(2));
        assert_eq!(nfa.step(2, exit), None); // accept state has no edge

        assert!(nfa.accepts_trace(&[shelf, counter, exit]));
        assert!(nfa.accepts_trace(&[counter, shelf, counter, counter, exit]));
        assert!(!nfa.accepts_trace(&[exit, shelf]));
        assert!(!nfa.accepts_trace(&[shelf, counter]));
    }

    #[test]
    fn any_transition_fires_on_all_listed_types() {
        let (nfa, reg) =
            nfa_for("EVENT SEQ(ANY(SHELF_READING, COUNTER_READING) v, EXIT_READING w)");
        let shelf = reg.type_id("SHELF_READING").unwrap();
        let counter = reg.type_id("COUNTER_READING").unwrap();
        assert_eq!(nfa.step(0, shelf), Some(1));
        assert_eq!(nfa.step(0, counter), Some(1));
    }

    #[test]
    fn dot_output_mentions_every_state() {
        let (nfa, _) = nfa_for("EVENT SEQ(SHELF_READING x, EXIT_READING z)");
        let dot = nfa.to_dot();
        assert!(dot.contains("s0"));
        assert!(dot.contains("s2"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.contains("SHELF_READING"));
    }
}
