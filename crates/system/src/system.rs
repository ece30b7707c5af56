//! The system model and its builder.

use crate::error::SystemError;
use dds_logic::{parse_formula, Formula, Var};
use dds_structure::Schema;
use std::fmt;
use std::sync::Arc;

/// A control state, identified by index into the system's state list.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// Index into the state list.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for StateId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "q{}", self.0)
    }
}

/// Variable holding register `i`'s value *before* a transition.
#[inline]
pub fn old_var(i: usize) -> Var {
    Var(2 * i as u32)
}

/// Variable holding register `i`'s value *after* a transition.
#[inline]
pub fn new_var(i: usize) -> Var {
    Var(2 * i as u32 + 1)
}

/// How many characters of a guard its diagnostics quote.
const GUARD_ECHO: usize = 80;

/// `guard` as its diagnostics quote it: in backticks, cut after
/// [`GUARD_ECHO`] characters with `...`.
fn quoted(guard: &str) -> String {
    match guard.char_indices().nth(GUARD_ECHO) {
        Some((end, _)) => format!("`{}...`", &guard[..end]),
        None => format!("`{guard}`"),
    }
}

/// A transition rule `from --guard--> to`.
#[derive(Clone, Debug, PartialEq)]
pub struct Rule {
    /// Source control state.
    pub from: StateId,
    /// Target control state.
    pub to: StateId,
    /// Guard over variables `old_var(i)` / `new_var(i)` (plus quantified
    /// variables when existential).
    pub guard: Formula,
}

/// A database-driven system (§2).
#[derive(Clone, Debug)]
pub struct System {
    schema: Arc<Schema>,
    state_names: Vec<String>,
    register_names: Vec<String>,
    initial: Vec<StateId>,
    accepting: Vec<StateId>,
    rules: Vec<Rule>,
}

impl System {
    /// The database schema the guards query.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of control states.
    pub fn num_states(&self) -> usize {
        self.state_names.len()
    }

    /// Number of registers `k`.
    pub fn num_registers(&self) -> usize {
        self.register_names.len()
    }

    /// Display name of a state.
    pub fn state_name(&self, q: StateId) -> &str {
        &self.state_names[q.index()]
    }

    /// Display name of a register.
    pub fn register_name(&self, i: usize) -> &str {
        &self.register_names[i]
    }

    /// Initial states `I`.
    pub fn initial(&self) -> &[StateId] {
        &self.initial
    }

    /// Accepting states `F`.
    pub fn accepting(&self) -> &[StateId] {
        &self.accepting
    }

    /// Whether `q` is accepting.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(&q)
    }

    /// Whether `q` is initial.
    pub fn is_initial(&self, q: StateId) -> bool {
        self.initial.contains(&q)
    }

    /// All transition rules.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Rules leaving state `q`.
    pub fn rules_from(&self, q: StateId) -> impl Iterator<Item = &Rule> {
        self.rules.iter().filter(move |r| r.from == q)
    }

    /// True when every guard is quantifier-free (the paper's base model).
    pub fn is_quantifier_free(&self) -> bool {
        self.rules.iter().all(|r| r.guard.is_quantifier_free())
    }

    /// Constructs a system from parts (programmatic alternative to
    /// [`SystemBuilder`]). State/register counts are inferred from the name
    /// lists; rules must reference valid states.
    pub fn from_parts(
        schema: Arc<Schema>,
        state_names: Vec<String>,
        register_names: Vec<String>,
        initial: Vec<StateId>,
        accepting: Vec<StateId>,
        rules: Vec<Rule>,
    ) -> Result<System, SystemError> {
        if initial.is_empty() {
            return Err(SystemError::NoInitialState);
        }
        for r in &rules {
            for q in [r.from, r.to] {
                if q.index() >= state_names.len() {
                    return Err(SystemError::UnknownState(format!("{q:?}")));
                }
            }
        }
        Ok(System {
            schema,
            state_names,
            register_names,
            initial,
            accepting,
            rules,
        })
    }
}

/// Builder with a readable textual guard syntax.
///
/// Registers are declared up front; a register named `x` is referred to in
/// guards as `x_old` / `x_new`. See the crate docs of `dds-logic` for the
/// guard grammar.
///
/// ```
/// use dds_structure::Schema;
/// use dds_system::SystemBuilder;
///
/// let mut schema = Schema::new();
/// schema.add_relation("E", 2).unwrap();
/// let schema = schema.finish();
///
/// let mut b = SystemBuilder::new(schema, &["x"]);
/// b.state("s").initial();
/// b.state("t").accepting();
/// b.rule("s", "t", "E(x_old, x_new)").unwrap();
/// let system = b.finish().unwrap();
/// assert_eq!(system.num_states(), 2);
/// ```
#[derive(Debug)]
pub struct SystemBuilder {
    schema: Arc<Schema>,
    state_names: Vec<String>,
    register_names: Vec<String>,
    initial: Vec<StateId>,
    accepting: Vec<StateId>,
    rules: Vec<Rule>,
    error: Option<SystemError>,
}

/// Handle returned by [`SystemBuilder::state`] to mark the state initial or
/// accepting.
#[derive(Debug)]
pub struct StateHandle<'a> {
    builder: &'a mut SystemBuilder,
    id: StateId,
}

impl StateHandle<'_> {
    /// Marks the state initial. Returns the handle for chaining.
    pub fn initial(self) -> Self {
        self.builder.initial.push(self.id);
        self
    }

    /// Marks the state accepting. Returns the handle for chaining.
    pub fn accepting(self) -> Self {
        self.builder.accepting.push(self.id);
        self
    }

    /// The state's id.
    pub fn id(&self) -> StateId {
        self.id
    }
}

impl SystemBuilder {
    /// Starts building a system over `schema` with the given register names.
    pub fn new(schema: Arc<Schema>, registers: &[&str]) -> SystemBuilder {
        let mut b = SystemBuilder {
            schema,
            state_names: Vec::new(),
            register_names: Vec::new(),
            initial: Vec::new(),
            accepting: Vec::new(),
            rules: Vec::new(),
            error: None,
        };
        for r in registers {
            if b.register_names.iter().any(|x| x == r) {
                b.error = Some(SystemError::DuplicateRegister((*r).to_owned()));
            } else {
                b.register_names.push((*r).to_owned());
            }
        }
        b
    }

    /// Declares a state (duplicates are an error reported at `finish`).
    pub fn state(&mut self, name: &str) -> StateHandle<'_> {
        if self.state_names.iter().any(|x| x == name) && self.error.is_none() {
            self.error = Some(SystemError::DuplicateState(name.to_owned()));
        }
        let id = StateId(self.state_names.len() as u32);
        self.state_names.push(name.to_owned());
        StateHandle { builder: self, id }
    }

    fn state_id(&self, name: &str) -> Result<StateId, SystemError> {
        self.state_names
            .iter()
            .position(|x| x == name)
            .map(|i| StateId(i as u32))
            .ok_or_else(|| SystemError::UnknownState(name.to_owned()))
    }

    /// Resolves a guard variable name (`x_old` / `x_new`).
    fn resolve_var(&self, name: &str) -> Option<Var> {
        let (reg, phase) = name.rsplit_once('_')?;
        let i = self.register_names.iter().position(|r| r == reg)?;
        match phase {
            "old" => Some(old_var(i)),
            "new" => Some(new_var(i)),
            _ => None,
        }
    }

    /// Adds a rule with a textual guard.
    pub fn rule(&mut self, from: &str, to: &str, guard: &str) -> Result<(), SystemError> {
        let from = self.state_id(from)?;
        let to = self.state_id(to)?;
        let k = self.register_names.len() as u32;
        let parsed = parse_formula(
            guard,
            &self.schema,
            |name| self.resolve_var(name),
            2 * k, // quantified variables start past the register block
        )
        .map_err(|e| SystemError::Guard(format!("{e} in {}", quoted(guard))))?;
        if !parsed.is_existential() {
            return Err(SystemError::Guard(format!(
                "guard {} is not existential (quantifier under negation)",
                quoted(guard)
            )));
        }
        self.rules.push(Rule {
            from,
            to,
            guard: parsed,
        });
        Ok(())
    }

    /// Adds a rule with a pre-built guard formula.
    pub fn rule_formula(&mut self, from: StateId, to: StateId, guard: Formula) {
        self.rules.push(Rule { from, to, guard });
    }

    /// Finishes building.
    pub fn finish(self) -> Result<System, SystemError> {
        if let Some(e) = self.error {
            return Err(e);
        }
        System::from_parts(
            self.schema,
            self.state_names,
            self.register_names,
            self.initial,
            self.accepting,
            self.rules,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        s.add_relation("red", 1).unwrap();
        s.finish()
    }

    /// The paper's Example 1: odd-length red cycles.
    pub fn example1(schema: Arc<Schema>) -> System {
        let mut b = SystemBuilder::new(schema, &["x", "y"]);
        b.state("start").initial();
        b.state("q0");
        b.state("q1");
        b.state("end").accepting();
        b.rule(
            "start",
            "q0",
            "x_old = x_new & x_new = y_old & y_old = y_new",
        )
        .unwrap();
        b.rule("q0", "q1", "x_old = x_new & E(y_old, y_new) & red(y_new)")
            .unwrap();
        b.rule("q1", "q0", "x_old = x_new & E(y_old, y_new) & red(y_new)")
            .unwrap();
        b.rule("q1", "end", "x_old = x_new & x_new = y_old & y_old = y_new")
            .unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn builds_example1() {
        let sys = example1(schema());
        assert_eq!(sys.num_states(), 4);
        assert_eq!(sys.num_registers(), 2);
        assert_eq!(sys.initial(), &[StateId(0)]);
        assert_eq!(sys.accepting(), &[StateId(3)]);
        assert_eq!(sys.rules().len(), 4);
        assert!(sys.is_quantifier_free());
        assert_eq!(sys.rules_from(StateId(1)).count(), 1);
        assert_eq!(sys.state_name(StateId(3)), "end");
    }

    #[test]
    fn guard_variables_resolve_to_convention() {
        let sys = example1(schema());
        // rule q0 -> q1 uses x_old=v0, x_new=v1, y_old=v2, y_new=v3
        let guard = &sys.rules()[1].guard;
        assert_eq!(
            guard.free_vars(),
            vec![old_var(0), new_var(0), old_var(1), new_var(1)]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn errors_surface() {
        let mut b = SystemBuilder::new(schema(), &["x"]);
        b.state("a").initial();
        assert!(matches!(
            b.rule("a", "nope", "true"),
            Err(SystemError::UnknownState(_))
        ));
        assert!(matches!(
            b.rule("a", "a", "E(x_old)"),
            Err(SystemError::Guard(_))
        ));
        // Unknown variable name.
        assert!(matches!(
            b.rule("a", "a", "z_old = x_old"),
            Err(SystemError::Guard(_))
        ));

        let mut b2 = SystemBuilder::new(schema(), &["x"]);
        b2.state("a");
        b2.state("a");
        assert!(matches!(b2.finish(), Err(SystemError::DuplicateState(_))));

        let mut b3 = SystemBuilder::new(schema(), &["x"]);
        b3.state("a");
        assert!(matches!(b3.finish(), Err(SystemError::NoInitialState)));
    }

    #[test]
    fn existential_guards_accepted_negated_rejected() {
        let mut b = SystemBuilder::new(schema(), &["x"]);
        b.state("a").initial().accepting();
        b.rule("a", "a", "exists z . E(x_old, z) & red(z)").unwrap();
        assert!(matches!(
            b.rule("a", "a", "!(exists z . E(x_old, z))"),
            Err(SystemError::Guard(_))
        ));
        let sys = b.finish().unwrap();
        assert!(!sys.is_quantifier_free());
    }

    #[test]
    fn guard_errors_quote_at_most_a_line_of_the_guard() {
        let mut b = SystemBuilder::new(schema(), &["x"]);
        b.state("a").initial();
        let Err(SystemError::Guard(short)) = b.rule("a", "a", "E(x_old)") else {
            panic!("an arity error");
        };
        assert!(short.ends_with(" in `E(x_old)`"), "{short}");
        let long = format!("{}E(x_old, x_old)", "(".repeat(300));
        let Err(SystemError::Guard(msg)) = b.rule("a", "a", &long) else {
            panic!("a parse error");
        };
        assert!(
            msg.ends_with(&format!(" in `{}...`", "(".repeat(80))),
            "{msg}"
        );
        let long = format!("!(exists z . E(x_old, z)){}", " & true".repeat(20));
        let Err(SystemError::Guard(msg)) = b.rule("a", "a", &long) else {
            panic!("a negated quantifier");
        };
        assert!(
            msg.starts_with(&format!("guard `{}...`", &long[..80])),
            "{msg}"
        );
    }
}
