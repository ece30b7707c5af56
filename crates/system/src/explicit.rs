//! Explicit-state model checking against one fixed database.
//!
//! For a fixed database `D` the configuration space `(q, val)` is finite
//! (`|Q| · n^k`), so reachability of an accepting state is plain BFS. This is
//! the *reference semantics* of the whole project: the symbolic engine's
//! witnesses are re-validated here, and the brute-force emptiness baseline
//! calls this on every enumerated database.
//!
//! New valuations are *guard-directed*. Each rule gets a plan from its
//! guard's forced literals ([`forced_literals`]), and the registers are
//! enumerated one at a time in index order. A register forced equal to an
//! already-bound variable takes that one value; otherwise a forced atom
//! whose other arguments are bound narrows it to a column of `D`; otherwise
//! it ranges over all elements. Values breaking a forced disequality with a
//! bound variable are dropped. Every candidate list is sorted, so the
//! enumerated valuations are an order-preserving subsequence of all `n^k`
//! tuples, and every skipped one falsifies the guard. The full guard is
//! still evaluated on each enumerated valuation, so the BFS and the returned
//! run are exactly those of trying every valuation.

use crate::run::Run;
use crate::system::{new_var, StateId, System};
use dds_logic::eval::eval;
use dds_logic::transform::{forced_literals, Literal};
use dds_logic::{Formula, Var};
use dds_structure::{Element, Structure, SymbolId};
use std::collections::HashMap;

/// One explored configuration with a back-pointer for witness extraction.
struct Node {
    state: StateId,
    val: Vec<Element>,
    parent: Option<usize>,
}

/// Searches for an accepting run of `system` driven by `db`; returns a
/// shortest one (in number of transitions) if any exists.
pub fn find_accepting_run(system: &System, db: &Structure) -> Option<Run> {
    let k = system.num_registers();
    if db.size() == 0 {
        return None; // no valuation exists
    }
    // The arena doubles as the BFS queue: nodes are expanded in push order.
    let mut arena: Vec<Node> = Vec::new();
    let mut seen: HashMap<(StateId, Vec<Element>), ()> = HashMap::new();

    let elements: Vec<Element> = db.elements().collect();
    for &q in system.initial() {
        for val in dds_structure::structure::tuples_over(&elements, k) {
            if seen.insert((q, val.clone()), ()).is_none() {
                arena.push(Node {
                    state: q,
                    val,
                    parent: None,
                });
            }
        }
    }

    let plans: Vec<RulePlan> = system
        .rules()
        .iter()
        .map(|r| RulePlan::of(&r.guard, k))
        .collect();
    let mut combined = vec![Element(0); 2 * k];
    let mut candidates = vec![Vec::new(); k];
    for idx in 0.. {
        let Some(node) = arena.get(idx) else {
            break;
        };
        let state = node.state;
        if system.is_accepting(state) {
            return Some(extract(&arena, idx));
        }
        for (i, &e) in node.val.iter().enumerate() {
            combined[2 * i] = e;
        }
        for (rule, plan) in system.rules().iter().zip(&plans) {
            if rule.from != state {
                continue;
            }
            plan.visit(
                0,
                db,
                &elements,
                &mut combined,
                &mut candidates,
                &mut |combined| {
                    if eval(&rule.guard, db, combined).unwrap_or(false) {
                        let val: Vec<Element> = (0..k).map(|i| combined[2 * i + 1]).collect();
                        if seen.insert((rule.to, val.clone()), ()).is_none() {
                            arena.push(Node {
                                state: rule.to,
                                val,
                                parent: Some(idx),
                            });
                        }
                    }
                },
            );
        }
    }
    None
}

/// Where a register's candidate values come from (see the module docs).
enum Source {
    /// The value of a bound variable the register is forced equal to.
    Equal(Var),
    /// The register's column of the database tuples matching the forced
    /// atom `rel(args)` on its other, bound, arguments.
    Column(SymbolId, Vec<Var>),
    /// Every element of the database.
    All,
}

/// One register's step of a [`RulePlan`].
struct RegisterPlan {
    source: Source,
    /// Bound variables the register is forced to differ from.
    differ: Vec<Var>,
}

/// The guard-directed enumeration of one rule's new valuations.
struct RulePlan {
    registers: Vec<RegisterPlan>,
}

impl RulePlan {
    /// Plans the enumeration from the forced literals of `guard`: a variable
    /// is bound at register `i` when it is an old value or the new value of
    /// a register before `i`.
    fn of(guard: &Formula, k: usize) -> RulePlan {
        let literals = forced_literals(guard);
        let registers = (0..k)
            .map(|i| {
                let v = new_var(i);
                let bound = |w: Var| w != v && w.index() < 2 * k && (w.0 % 2 == 0 || w < v);
                let mut equal = None;
                let mut column = None;
                let mut differ = Vec::new();
                for lit in &literals {
                    match lit {
                        Literal::Eq(a, b, pol) => {
                            let w = match (*a == v, *b == v) {
                                (true, _) => *b,
                                (_, true) => *a,
                                _ => continue,
                            };
                            if !bound(w) {
                                continue;
                            }
                            if *pol {
                                equal.get_or_insert(w);
                            } else {
                                differ.push(w);
                            }
                        }
                        Literal::Rel(r, args, true)
                            if args.contains(&v) && args.iter().all(|&w| w == v || bound(w)) =>
                        {
                            column.get_or_insert_with(|| Source::Column(*r, args.clone()));
                        }
                        Literal::Rel(..) => {}
                    }
                }
                let source = match equal {
                    Some(w) => Source::Equal(w),
                    None => column.unwrap_or(Source::All),
                };
                RegisterPlan { source, differ }
            })
            .collect();
        RulePlan { registers }
    }

    /// Enumerates registers `i..` of `combined` (whose old values and new
    /// values below `i` are set) in lexicographic order, calling `f` on
    /// each complete valuation. `candidates[i]` is register `i`'s scratch
    /// list.
    fn visit(
        &self,
        i: usize,
        db: &Structure,
        elements: &[Element],
        combined: &mut [Element],
        candidates: &mut [Vec<Element>],
        f: &mut dyn FnMut(&[Element]),
    ) {
        let Some(reg) = self.registers.get(i) else {
            return f(combined);
        };
        let v = new_var(i);
        let list = &mut candidates[i];
        list.clear();
        match &reg.source {
            Source::Equal(w) => list.push(combined[w.index()]),
            Source::Column(rel, args) => {
                'tuples: for t in db.rel_tuples(*rel) {
                    let mut value = None;
                    for (&e, &a) in t.iter().zip(args) {
                        if a != v {
                            if e != combined[a.index()] {
                                continue 'tuples;
                            }
                        } else if *value.get_or_insert(e) != e {
                            continue 'tuples;
                        }
                    }
                    list.extend(value);
                }
                list.sort_unstable();
                list.dedup();
            }
            Source::All => list.extend_from_slice(elements),
        }
        list.retain(|&e| reg.differ.iter().all(|w| combined[w.index()] != e));
        for c in 0..candidates[i].len() {
            combined[v.index()] = candidates[i][c];
            self.visit(i + 1, db, elements, combined, candidates, f);
        }
    }
}

/// Convenience wrapper: does `db` drive any accepting run?
pub fn has_accepting_run(system: &System, db: &Structure) -> bool {
    find_accepting_run(system, db).is_some()
}

fn extract(arena: &[Node], mut idx: usize) -> Run {
    let mut states = Vec::new();
    let mut vals = Vec::new();
    loop {
        states.push(arena[idx].state);
        vals.push(arena[idx].val.clone());
        match arena[idx].parent {
            Some(p) => idx = p,
            None => break,
        }
    }
    states.reverse();
    vals.reverse();
    Run { states, vals }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::SystemBuilder;
    use dds_structure::Schema;
    use std::sync::Arc;

    /// Example 1 (odd red cycle) plus the 5-node graph from the paper.
    fn example1_setup() -> (System, Structure) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let red = s.add_relation("red", 1).unwrap();
        let schema: Arc<Schema> = s.finish();

        let mut b = SystemBuilder::new(schema.clone(), &["x", "y"]);
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
        let sys = b.finish().unwrap();

        // The paper's picture: nodes 1..5 (here 0..4), all red, edges forming
        // the odd cycle 0 -> 1 -> 2 -> 3 -> 4 -> 0 ... the paper's graph has
        // an odd red cycle of length 7 through node reuse; a plain 5-cycle of
        // red nodes suffices for the test.
        let mut g = Structure::new(schema.clone(), 5);
        for i in 0..5u32 {
            g.add_fact(red, &[Element(i)]).unwrap();
            g.add_fact(e, &[Element(i), Element((i + 1) % 5)]).unwrap();
        }
        (sys, g)
    }

    #[test]
    fn example1_accepts_odd_red_cycle() {
        let (sys, g) = example1_setup();
        let run = find_accepting_run(&sys, &g).expect("odd red cycle exists");
        sys.check_run(&g, &run, true).unwrap();
        // start -> q0 -> (q1 q0)* -> q1 -> end traversing 5 edges: 8 configs.
        assert_eq!(run.len(), 8);
    }

    #[test]
    fn example1_rejects_even_cycle_and_uncolored() {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let red = s.add_relation("red", 1).unwrap();
        let schema: Arc<Schema> = s.finish();
        let (sys, _) = example1_setup();
        // Even red cycle: no accepting run.
        let mut even = Structure::new(schema.clone(), 4);
        for i in 0..4u32 {
            even.add_fact(red, &[Element(i)]).unwrap();
            even.add_fact(e, &[Element(i), Element((i + 1) % 4)])
                .unwrap();
        }
        // Schemas built separately are equal, so guards evaluate fine.
        assert!(!has_accepting_run(&sys, &even));
        // Odd cycle but white nodes: rejected.
        let mut white = Structure::new(schema, 3);
        for i in 0..3u32 {
            white
                .add_fact(e, &[Element(i), Element((i + 1) % 3)])
                .unwrap();
        }
        assert!(!has_accepting_run(&sys, &white));
    }

    #[test]
    fn empty_database_has_no_runs() {
        let (sys, g) = example1_setup();
        let empty = Structure::new(g.schema().clone(), 0);
        assert!(!has_accepting_run(&sys, &empty));
    }

    #[test]
    fn existential_guards_work_explicitly() {
        // Accept iff some element has an outgoing edge to a red node,
        // reachable in one step from the register.
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let red = s.add_relation("red", 1).unwrap();
        let schema: Arc<Schema> = s.finish();
        let mut b = SystemBuilder::new(schema.clone(), &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule(
            "s",
            "t",
            "x_old = x_new & (exists z . E(x_old, z) & red(z))",
        )
        .unwrap();
        let sys = b.finish().unwrap();

        let mut g = Structure::new(schema.clone(), 2);
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();
        g.add_fact(red, &[Element(1)]).unwrap();
        let run = find_accepting_run(&sys, &g).unwrap();
        assert_eq!(run.vals[0][0], Element(0));

        let mut g2 = Structure::new(schema, 2);
        g2.add_fact(e, &[Element(0), Element(1)]).unwrap();
        assert!(!has_accepting_run(&sys, &g2));
    }
}
