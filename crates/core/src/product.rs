//! Product construction for spec equivalence (`dds equiv`).
//!
//! Two systems over the *same* schema and register count are joined into one
//! system with disjoint control-state spaces (side A keeps its state ids,
//! side B's are offset by `A`'s state count) and the shared data domain. No
//! rule crosses sides, so a run of the product is a run of exactly one input
//! system — the product is just both searches sharing one interner, one
//! transition memo and one frontier. [`crate::engine::Engine::run_multi`]
//! over the two lifted accepting sets then decides, in a single search,
//! whether the sides reach the same outcome — and on divergence the engine's
//! certified witness replays on the side that reached its target.
//!
//! [`bisim`] is the stretch mode: instead of comparing final reachability it
//! compares, depth by depth, the *sets of accepting configurations* the two
//! sides have produced — stepwise outcome equivalence, strictly finer than
//! reachability agreement. It runs sequentially on the engine's search
//! primitives (its verdict is a pure function of the product, so there is
//! nothing thread-dependent to pin).

use crate::class::{SymbolicClass, Trace};
use crate::engine::{Engine, Search};
use dds_system::{Run, StateId, System};
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// Which input system a product state (or a witness) belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// The first spec (`a.dds`).
    A,
    /// The second spec (`b.dds`).
    B,
}

impl Side {
    /// The one-letter label used in reports: `a` or `b`.
    pub fn label(self) -> &'static str {
        match self {
            Side::A => "a",
            Side::B => "b",
        }
    }
}

/// Why two systems cannot be joined into a product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ProductError {
    /// The systems query different schemas.
    SchemaMismatch,
    /// The systems have different register counts (guards are positional, so
    /// the counts must agree; register *names* may differ freely).
    RegisterMismatch {
        /// Register count of the first system.
        a: usize,
        /// Register count of the second system.
        b: usize,
    },
}

impl fmt::Display for ProductError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ProductError::SchemaMismatch => {
                write!(f, "the two systems query different schemas")
            }
            ProductError::RegisterMismatch { a, b } => write!(
                f,
                "register count mismatch: the first system has {a} registers, the second {b}"
            ),
        }
    }
}

impl std::error::Error for ProductError {}

/// The disjoint union of two systems over a shared schema.
#[derive(Debug)]
pub struct Product {
    system: System,
    a_states: usize,
    a_accepting: Vec<StateId>,
    b_accepting: Vec<StateId>,
}

/// Joins two systems into their product ([module docs](self)).
///
/// State names are prefixed `a.`/`b.` so traces over the product read
/// unambiguously; registers take side A's names (the counts are checked
/// equal, and guards only ever address registers by position).
pub fn product(a: &System, b: &System) -> Result<Product, ProductError> {
    if a.schema() != b.schema() {
        return Err(ProductError::SchemaMismatch);
    }
    if a.num_registers() != b.num_registers() {
        return Err(ProductError::RegisterMismatch {
            a: a.num_registers(),
            b: b.num_registers(),
        });
    }
    let a_states = a.num_states();
    let lift_b = |q: StateId| StateId(q.0 + a_states as u32);
    let mut state_names: Vec<String> = Vec::with_capacity(a_states + b.num_states());
    for q in 0..a_states {
        state_names.push(format!("a.{}", a.state_name(StateId(q as u32))));
    }
    for q in 0..b.num_states() {
        state_names.push(format!("b.{}", b.state_name(StateId(q as u32))));
    }
    let register_names: Vec<String> = (0..a.num_registers())
        .map(|i| a.register_name(i).to_owned())
        .collect();
    let mut initial: Vec<StateId> = a.initial().to_vec();
    initial.extend(b.initial().iter().map(|&q| lift_b(q)));
    let a_accepting: Vec<StateId> = a.accepting().to_vec();
    let b_accepting: Vec<StateId> = b.accepting().iter().map(|&q| lift_b(q)).collect();
    let mut accepting = a_accepting.clone();
    accepting.extend(b_accepting.iter().copied());
    let mut rules = a.rules().to_vec();
    rules.extend(b.rules().iter().map(|r| dds_system::Rule {
        from: lift_b(r.from),
        to: lift_b(r.to),
        guard: r.guard.clone(),
    }));
    let system = System::from_parts(
        a.schema().clone(),
        state_names,
        register_names,
        initial,
        accepting,
        rules,
    )
    .expect("the product of two valid systems is valid");
    Ok(Product {
        system,
        a_states,
        a_accepting,
        b_accepting,
    })
}

impl Product {
    /// The joint system (disjoint states, union initial/accepting).
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Number of side-A states (side B's ids start here).
    pub fn a_states(&self) -> usize {
        self.a_states
    }

    /// Maps a product state back to its side and side-local state.
    pub fn side_of(&self, q: StateId) -> (Side, StateId) {
        if q.index() < self.a_states {
            (Side::A, q)
        } else {
            (Side::B, StateId(q.0 - self.a_states as u32))
        }
    }

    /// Side A's accepting states, as product state ids.
    pub fn a_targets(&self) -> &[StateId] {
        &self.a_accepting
    }

    /// Side B's accepting states, as product state ids.
    pub fn b_targets(&self) -> &[StateId] {
        &self.b_accepting
    }

    /// Projects a product run onto the side it lives on. Product runs never
    /// cross sides (no rule does), so the side is determined by the first
    /// state.
    ///
    /// # Panics
    /// Panics on an empty run or one that mixes sides (no valid product run
    /// does).
    pub fn project_run(&self, run: &Run) -> (Side, Run) {
        let (side, _) = self.side_of(*run.states.first().expect("runs are nonempty"));
        let states = run
            .states
            .iter()
            .map(|&q| {
                let (s, local) = self.side_of(q);
                assert_eq!(s, side, "product runs never cross sides");
                local
            })
            .collect();
        (
            side,
            Run {
                states,
                vals: run.vals.clone(),
            },
        )
    }
}

/// Verdict of the stepwise ([`bisim`]) check.
#[derive(Clone, Debug, PartialEq)]
pub enum BisimOutcome<Cfg> {
    /// Both sides produce identical accepting-configuration sets at every
    /// depth, and both frontiers were exhausted.
    Equivalent,
    /// At `depth`, one side has produced an accepting configuration the
    /// other has not; `trace` leads to it over the product system.
    Divergent {
        /// The side possessing the extra accepting configuration.
        side: Side,
        /// BFS depth (number of completed layers) at which the sets first
        /// differ.
        depth: usize,
        /// Trace to the distinguishing configuration, over the product
        /// system's states.
        trace: Trace<Cfg>,
    },
    /// The exploration budget ran out with the sets still equal.
    ResourceLimit,
}

/// Result of [`bisim`]: the verdict plus basic search measurements.
#[derive(Clone, Debug, PartialEq)]
pub struct BisimCheck<Cfg> {
    /// The stepwise verdict.
    pub outcome: BisimOutcome<Cfg>,
    /// BFS layers completed.
    pub depth: usize,
    /// `(state, configuration)` pairs explored.
    pub configs_explored: usize,
}

/// Stepwise outcome equivalence over a product: the engine's breadth-first
/// search (one shared interner, visited bitmaps and transition memo),
/// comparing after every layer the cumulative sets of configurations each
/// side has produced *at its accepting states*. The first layer after which
/// the sets differ yields a divergence witness; if both frontiers exhaust
/// with the sets still equal, the sides are stepwise equivalent (which
/// implies outcome equivalence, not vice versa).
pub fn bisim<C: SymbolicClass>(
    class: &C,
    prod: &Product,
    max_configs: usize,
) -> BisimCheck<C::Config> {
    let engine = Engine::new(class, prod.system());
    let mut s = engine.init_search();
    // Cumulative accepting configurations per side, and the arena index that
    // first produced each (for the witness trace).
    let mut seen: [BTreeSet<u32>; 2] = [BTreeSet::new(), BTreeSet::new()];
    let mut origin: HashMap<(usize, u32), usize> = HashMap::new();
    let check = |outcome, s: &Search<C::Config>| BisimCheck {
        outcome,
        depth: s.stats.levels,
        configs_explored: s.stats.configs_explored,
    };
    let mut level_start = 0usize;
    loop {
        let level_end = s.arena.len();
        // Ingest the layer's accepting configurations into the side sets.
        for idx in level_start..level_end {
            let node = &s.arena[idx];
            if !engine.compiled_system().is_accepting(node.state) {
                continue;
            }
            let side_idx = match prod.side_of(node.state).0 {
                Side::A => 0,
                Side::B => 1,
            };
            if seen[side_idx].insert(node.cfg.0) {
                origin.entry((side_idx, node.cfg.0)).or_insert(idx);
            }
        }
        // Compare cumulatively: the smallest configuration id in the
        // symmetric difference (deterministic — ids follow interning order)
        // names the divergence.
        if let Some(&extra) = seen[0].symmetric_difference(&seen[1]).next() {
            let (side, side_idx) = if seen[0].contains(&extra) {
                (Side::A, 0)
            } else {
                (Side::B, 1)
            };
            let trace = engine.trace_to(origin[&(side_idx, extra)], &s);
            let depth = s.stats.levels;
            return check(BisimOutcome::Divergent { side, depth, trace }, &s);
        }
        if level_start == level_end {
            return check(BisimOutcome::Equivalent, &s);
        }
        s.stats.levels += 1;
        for idx in level_start..level_end {
            s.stats.configs_explored += 1;
            if s.arena.len() > max_configs {
                return check(BisimOutcome::ResourceLimit, &s);
            }
            engine.expand(&mut s, idx);
        }
        level_start = level_end;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{EngineOptions, TargetStatus};
    use crate::free::FreeRelationalClass;
    use dds_structure::Schema;
    use dds_system::SystemBuilder;
    use std::sync::Arc;

    fn graph_schema() -> Arc<Schema> {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        s.add_relation("red", 1).unwrap();
        s.finish()
    }

    /// The paper's Example 1 system (odd red cycles).
    fn example1(schema: Arc<Schema>) -> System {
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

    /// Example 1 with the accepting entry rule's guard made unsatisfiable:
    /// same shape, empty language.
    fn example1_severed(schema: Arc<Schema>) -> System {
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
        b.rule("q1", "end", "x_old != x_old").unwrap();
        b.finish().unwrap()
    }

    #[test]
    fn product_shape_and_side_mapping() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let b = example1(schema);
        let p = product(&a, &b).unwrap();
        assert_eq!(p.system().num_states(), 8);
        assert_eq!(p.system().num_registers(), 2);
        assert_eq!(p.system().initial().len(), 2);
        assert_eq!(p.system().rules().len(), 8);
        assert_eq!(p.system().state_name(StateId(0)), "a.start");
        assert_eq!(p.system().state_name(StateId(4)), "b.start");
        assert_eq!(p.side_of(StateId(3)), (Side::A, StateId(3)));
        assert_eq!(p.side_of(StateId(7)), (Side::B, StateId(3)));
        assert_eq!(p.a_targets(), &[StateId(3)]);
        assert_eq!(p.b_targets(), &[StateId(7)]);
    }

    #[test]
    fn mismatches_are_structured_errors() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let mut other = Schema::new();
        other.add_relation("F", 1).unwrap();
        let other = other.finish();
        let mut b = SystemBuilder::new(other, &["x"]);
        b.state("s").initial().accepting();
        b.rule("s", "s", "F(x_old)").unwrap();
        let b = b.finish().unwrap();
        assert!(matches!(product(&a, &b), Err(ProductError::SchemaMismatch)));

        let mut c = SystemBuilder::new(schema, &["x"]);
        c.state("s").initial().accepting();
        c.rule("s", "s", "red(x_old)").unwrap();
        let c = c.finish().unwrap();
        assert!(matches!(
            product(&a, &c),
            Err(ProductError::RegisterMismatch { a: 2, b: 1 })
        ));
    }

    #[test]
    fn run_multi_decides_both_sides_of_a_divergent_product() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let b = example1_severed(schema.clone());
        let p = product(&a, &b).unwrap();
        let class = FreeRelationalClass::new(schema);
        let engine = Engine::new(&class, p.system());
        let out = engine.run_multi(&[p.a_targets().to_vec(), p.b_targets().to_vec()]);
        assert!(out.targets[0].is_reached());
        assert_eq!(out.targets[1], TargetStatus::Unreachable);
        // The witness projects onto side A and replays there.
        let TargetStatus::Reached { witness, .. } = &out.targets[0] else {
            unreachable!()
        };
        let (db, run) = witness.as_ref().expect("free class concretizes");
        let projected = run.project_registers(p.system().num_registers());
        let (side, local) = p.project_run(&projected);
        assert_eq!(side, Side::A);
        a.check_run(db, &local, true).unwrap();
    }

    #[test]
    fn run_multi_self_product_is_symmetric_and_thread_stable() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let p = product(&a, &a).unwrap();
        let class = FreeRelationalClass::new(schema);
        let targets = [p.a_targets().to_vec(), p.b_targets().to_vec()];
        let seq = Engine::new(&class, p.system()).run_multi(&targets);
        assert!(seq.targets[0].is_reached() && seq.targets[1].is_reached());
        for threads in [2usize, 4, 8] {
            let par = Engine::new(&class, p.system())
                .with_options(EngineOptions::default().threads(threads))
                .run_multi(&targets);
            assert_eq!(seq, par, "threads = {threads}");
        }
    }

    #[test]
    fn run_multi_budget_yields_undecided() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let b = example1_severed(schema.clone());
        let p = product(&a, &b).unwrap();
        let class = FreeRelationalClass::new(schema);
        let out = Engine::new(&class, p.system())
            .with_options(EngineOptions::default().max_configs(2))
            .run_multi(&[p.a_targets().to_vec(), p.b_targets().to_vec()]);
        assert_eq!(out.targets[0], TargetStatus::Undecided);
        assert_eq!(out.targets[1], TargetStatus::Undecided);
    }

    #[test]
    fn bisim_agrees_on_equivalence_and_catches_divergence() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let class = FreeRelationalClass::new(schema.clone());

        let same = product(&a, &a).unwrap();
        let check = bisim(&class, &same, 1_000_000);
        assert_eq!(check.outcome, BisimOutcome::Equivalent);
        assert!(check.depth > 0 && check.configs_explored > 0);

        let b = example1_severed(schema);
        let diff = product(&a, &b).unwrap();
        let check = bisim(&class, &diff, 1_000_000);
        let BisimOutcome::Divergent { side, trace, .. } = &check.outcome else {
            panic!("severed side must diverge, got {:?}", check.outcome);
        };
        assert_eq!(*side, Side::A);
        let last = trace.steps.last().unwrap();
        assert_eq!(diff.side_of(last.state).0, Side::A);
        assert!(diff.system().is_accepting(last.state));
    }

    #[test]
    fn bisim_budget_is_reported() {
        let schema = graph_schema();
        let a = example1(schema.clone());
        let p = product(&a, &a).unwrap();
        let class = FreeRelationalClass::new(schema);
        let check = bisim(&class, &p, 2);
        assert_eq!(check.outcome, BisimOutcome::ResourceLimit);
    }
}
