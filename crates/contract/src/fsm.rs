//! Contract finite-state machines.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// A contract state.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct State(String);

impl State {
    /// Creates a state.
    pub fn new(name: impl Into<String>) -> Self {
        Self(name.into())
    }

    /// The state name.
    pub fn as_str(&self) -> &str {
        &self.0
    }
}

impl fmt::Display for State {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<&str> for State {
    fn from(s: &str) -> Self {
        Self::new(s)
    }
}

/// A transition: in `from`, event `event` moves the contract to `to`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Transition {
    from: State,
    event: String,
    to: State,
}

/// Defects found by the static checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpecIssue {
    /// A state is declared but unreachable from the initial state.
    Unreachable(State),
    /// Two transitions share `(from, event)` (nondeterminism).
    Nondeterministic {
        /// The conflicting source state.
        from: State,
        /// The conflicting event.
        event: String,
    },
    /// A transition targets or leaves an undeclared state.
    UndeclaredState(State),
    /// A breach state has outgoing transitions (breaches are terminal).
    BreachNotTerminal(State),
    /// The initial state is not declared.
    UndeclaredInitial(State),
}

impl fmt::Display for SpecIssue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpecIssue::Unreachable(s) => write!(f, "state {s} unreachable"),
            SpecIssue::Nondeterministic { from, event } => {
                write!(f, "nondeterministic on ({from}, {event})")
            }
            SpecIssue::UndeclaredState(s) => write!(f, "undeclared state {s}"),
            SpecIssue::BreachNotTerminal(s) => write!(f, "breach state {s} has outgoing edges"),
            SpecIssue::UndeclaredInitial(s) => write!(f, "undeclared initial state {s}"),
        }
    }
}

/// An executable contract specification.
#[derive(Debug, Clone)]
pub struct ContractSpec {
    name: String,
    states: BTreeSet<State>,
    initial: State,
    breach: BTreeSet<State>,
    transitions: Vec<Transition>,
}

impl ContractSpec {
    /// Starts a contract named `name` with the given initial state.
    pub fn new(name: impl Into<String>, initial: impl Into<State>) -> Self {
        let initial = initial.into();
        let mut states = BTreeSet::new();
        states.insert(initial.clone());
        Self {
            name: name.into(),
            states,
            initial,
            breach: BTreeSet::new(),
            transitions: Vec::new(),
        }
    }

    /// Declares a state (builder).
    #[must_use]
    pub fn state(mut self, state: impl Into<State>) -> Self {
        self.states.insert(state.into());
        self
    }

    /// Declares a terminal breach state (builder).
    #[must_use]
    pub fn breach_state(mut self, state: impl Into<State>) -> Self {
        let s = state.into();
        self.states.insert(s.clone());
        self.breach.insert(s);
        self
    }

    /// Adds a transition (builder).
    #[must_use]
    pub fn transition(
        mut self,
        from: impl Into<State>,
        event: impl Into<String>,
        to: impl Into<State>,
    ) -> Self {
        self.transitions.push(Transition {
            from: from.into(),
            event: event.into(),
            to: to.into(),
        });
        self
    }

    /// The contract's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The initial state.
    pub fn initial(&self) -> &State {
        &self.initial
    }

    /// `true` if `state` is a breach state.
    pub fn is_breach(&self, state: &State) -> bool {
        self.breach.contains(state)
    }

    /// The unique successor of `(state, event)`, if defined.
    pub fn next(&self, state: &State, event: &str) -> Option<&State> {
        self.transitions
            .iter()
            .find(|t| t.from == *state && t.event == event)
            .map(|t| &t.to)
    }

    /// Statically checks the specification (the model-checking pass).
    ///
    /// Returns all defects found; an empty vector means the contract is
    /// well-formed: deterministic, fully declared, breach states terminal,
    /// and every state reachable.
    pub fn check(&self) -> Vec<SpecIssue> {
        let mut issues = Vec::new();
        if !self.states.contains(&self.initial) {
            issues.push(SpecIssue::UndeclaredInitial(self.initial.clone()));
        }
        // Declared-state and breach-terminality checks.
        let mut seen: BTreeMap<(&State, &str), usize> = BTreeMap::new();
        for t in &self.transitions {
            for s in [&t.from, &t.to] {
                if !self.states.contains(s) {
                    issues.push(SpecIssue::UndeclaredState(s.clone()));
                }
            }
            if self.breach.contains(&t.from) {
                issues.push(SpecIssue::BreachNotTerminal(t.from.clone()));
            }
            *seen.entry((&t.from, &t.event)).or_insert(0) += 1;
        }
        for ((from, event), count) in seen {
            if count > 1 {
                issues.push(SpecIssue::Nondeterministic {
                    from: from.clone(),
                    event: event.to_string(),
                });
            }
        }
        // Reachability (BFS from initial).
        let mut reachable = BTreeSet::new();
        let mut queue = VecDeque::from([self.initial.clone()]);
        while let Some(state) = queue.pop_front() {
            if !reachable.insert(state.clone()) {
                continue;
            }
            for t in self.transitions.iter().filter(|t| t.from == state) {
                queue.push_back(t.to.clone());
            }
        }
        for state in &self.states {
            if !reachable.contains(state) {
                issues.push(SpecIssue::Unreachable(state.clone()));
            }
        }
        issues
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's running example: negotiate a part order.
    pub(crate) fn order_contract() -> ContractSpec {
        ContractSpec::new("part-order", "negotiating")
            .state("agreed")
            .state("delivered")
            .breach_state("breached")
            .transition("negotiating", "spec.agreed", "agreed")
            .transition("negotiating", "spec.rejected", "negotiating")
            .transition("agreed", "part.delivered", "delivered")
            .transition("agreed", "deadline.missed", "breached")
    }

    #[test]
    fn well_formed_contract_passes_check() {
        assert!(order_contract().check().is_empty());
    }

    #[test]
    fn next_and_enabled() {
        let c = order_contract();
        assert_eq!(
            c.next(&State::new("negotiating"), "spec.agreed"),
            Some(&State::new("agreed"))
        );
        assert_eq!(c.next(&State::new("agreed"), "spec.agreed"), None);
        for event in ["deadline.missed", "part.delivered"] {
            assert!(c.next(&State::new("agreed"), event).is_some(), "{event}");
        }
        assert!(c.is_breach(&State::new("breached")));
        assert!(!c.is_breach(&State::new("agreed")));
    }

    #[test]
    fn unreachable_state_detected() {
        let c = ContractSpec::new("c", "a").state("island");
        assert!(c
            .check()
            .contains(&SpecIssue::Unreachable(State::new("island"))));
    }

    #[test]
    fn nondeterminism_detected() {
        let c = ContractSpec::new("c", "a")
            .state("b")
            .state("c")
            .transition("a", "e", "b")
            .transition("a", "e", "c");
        assert!(c
            .check()
            .iter()
            .any(|i| matches!(i, SpecIssue::Nondeterministic { .. })));
    }

    #[test]
    fn undeclared_state_detected() {
        let c = ContractSpec::new("c", "a").transition("a", "e", "ghost");
        assert!(c
            .check()
            .contains(&SpecIssue::UndeclaredState(State::new("ghost"))));
    }

    #[test]
    fn breach_must_be_terminal() {
        let c = ContractSpec::new("c", "a")
            .breach_state("bad")
            .transition("a", "e", "bad")
            .transition("bad", "undo", "a");
        assert!(c
            .check()
            .contains(&SpecIssue::BreachNotTerminal(State::new("bad"))));
    }

    #[test]
    fn issues_display() {
        for issue in ContractSpec::new("c", "a")
            .transition("a", "e", "ghost")
            .check()
        {
            assert!(!issue.to_string().is_empty());
        }
    }
}
