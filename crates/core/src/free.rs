//! The *free* relational class: all finite databases over a relational
//! schema.
//!
//! This is the classic Fraïssé class of all finite σ-structures (its Fraïssé
//! limit is the "random" σ-structure). Amalgamation is free: glue along the
//! shared part and take the union of the facts — so candidate amalgams are
//! enumerated as arbitrary extensions of the base by the new register
//! values, with:
//!
//! * all tuples among the new points enumerated exhaustively (they survive
//!   into the next configuration, so completeness demands it), and
//! * cross tuples restricted to those some guard atom mentions — the class
//!   is closed under removing tuples, so any amalgam can be thinned to such
//!   a candidate without changing the guard atoms or the generated new
//!   configuration (see the module docs of [`crate::amalgam`]);
//! * cross and new tuples the guard forces or forbids fixed before the
//!   enumeration ([`GuardHints::forced_facts`]).
//!
//! Each placement is one [`Family`]: the base with the fresh elements and
//! the forced-on facts, and the remaining tuples (sorted and deduplicated
//! in one reused buffer) as its optional facts, whose subsets the visitor
//! walks as masks.

use crate::amalgam::{
    fill_combined, hint_tuples, internal_new_tuples, placement_contexts, reset_extended,
    AmalgamClass, AmalgamVisitor, Family, GuardHints,
};
use crate::class::Pointed;
use dds_structure::enumerate::StructureIter;
use dds_structure::{Schema, Structure};
use std::ops::ControlFlow;
use std::sync::Arc;

/// All finite databases over a purely relational schema.
#[derive(Clone, Debug)]
pub struct FreeRelationalClass {
    schema: Arc<Schema>,
}

impl FreeRelationalClass {
    /// Creates the class. Panics when the schema has function symbols (the
    /// free class with functions has unbounded blowup and is not supported;
    /// the paper's functional examples — trees — have their own class).
    pub fn new(schema: Arc<Schema>) -> FreeRelationalClass {
        assert!(
            schema.is_relational(),
            "FreeRelationalClass requires a purely relational schema"
        );
        FreeRelationalClass { schema }
    }
}

impl AmalgamClass for FreeRelationalClass {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn empty_members(&self) -> Vec<Structure> {
        StructureIter::new(self.schema.clone(), 0).collect()
    }

    fn for_each_amalgam(
        &self,
        base: &Pointed,
        k_new: usize,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()> {
        let mut cand = base.structure.clone();
        let placements = placement_contexts(base.structure.size(), k_new);
        let (mut combined, mut np_universe, mut optional) = (Vec::new(), Vec::new(), Vec::new());
        for ctx in placements.iter() {
            fill_combined(&mut combined, &base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            let Some(forced) = hints.forced_facts(&combined, &base.structure) else {
                continue;
            };
            // Universe of elements that survive into the next configuration.
            np_universe.clone_from(&ctx.new_points);
            np_universe.sort_unstable();
            np_universe.dedup();
            optional.clear();
            internal_new_tuples(
                &mut optional,
                &self.schema,
                self.schema.relations(),
                &np_universe,
                &ctx.fresh,
            );
            hint_tuples(&mut optional, &hints.atoms, &combined, &ctx.fresh);
            optional.sort_unstable();
            optional.dedup();
            reset_extended(&mut cand, &base.structure, ctx.fresh.len());
            if forced.apply(&mut optional, &mut cand) {
                f(&mut Family {
                    cand: &mut cand,
                    new_points: &ctx.new_points,
                    optional: &optional,
                })?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::{collect_amalgams, combined_valuation};
    use crate::class::SymbolicClass;
    use dds_logic::{Formula, Var};
    use dds_system::{new_var, old_var};
    use std::collections::BTreeSet;

    fn graph_class() -> FreeRelationalClass {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        FreeRelationalClass::new(s.finish())
    }

    #[test]
    fn initial_configs_counts() {
        let class = graph_class();
        // k = 1: structures on 1 element with one binary relation: loop or
        // not -> 2 configs.
        assert_eq!(class.initial_configs(1).len(), 2);
        // k = 2: pattern xx -> 2 structures; pattern xy -> 16 structures on 2
        // elements, modulo pointed iso all distinct (points are ordered, and
        // both orderings of distinct elements are identified by
        // canonicalization only when symmetric).
        let configs = class.initial_configs(2);
        let keys: BTreeSet<_> = configs.iter().map(|c| c.key().clone()).collect();
        assert_eq!(configs.len(), keys.len());
        assert_eq!(configs.len(), 2 + 16);
    }

    #[test]
    fn transitions_respect_guard() {
        let class = graph_class();
        let e = class.schema().lookup("E").unwrap();
        // One register; guard: E(x_old, x_new) & x_old != x_new.
        let guard = Formula::and(vec![
            Formula::rel_vars(e, &[old_var(0), new_var(0)]),
            Formula::negate(Formula::var_eq(old_var(0), new_var(0))),
        ]);
        // Start from the single-element loop-free config.
        let start = class
            .initial_configs(1)
            .into_iter()
            .find(|c| c.pointed.structure.fact_count() == 0)
            .unwrap();
        let succs = class.transitions(&start, &guard);
        assert!(!succs.is_empty());
        // Every successor is a 1-element config (generated by the new point)
        // and can have a loop or not — the edge to the old element is gone.
        for s in &succs {
            assert_eq!(s.pointed.structure.size(), 1);
        }
        // Guard x_old = x_new & E(x_old, x_old) from a loop-free start: the
        // old element has no loop (frozen), so no successor.
        let guard2 = Formula::and(vec![
            Formula::var_eq(old_var(0), new_var(0)),
            Formula::rel_vars(e, &[old_var(0), old_var(0)]),
        ]);
        assert!(class.transitions(&start, &guard2).is_empty());
        let _ = Var(0);
    }

    #[test]
    fn forced_literals_fix_facts_before_enumeration() {
        let class = graph_class();
        let e = class.schema().lookup("E").unwrap();
        // Every conjunct is forced, so the pruned candidates are exactly the
        // guard-passing ones of the unpruned enumeration, in order.
        let guard = Formula::and(vec![
            Formula::rel_vars(e, &[old_var(0), new_var(0)]),
            Formula::negate(Formula::rel_vars(e, &[new_var(0), new_var(0)])),
        ]);
        let hints = GuardHints::of(&guard);
        assert_eq!(hints.rels.len(), 2);
        let unpruned = GuardHints {
            rels: Vec::new(),
            ..hints.clone()
        };
        for start in class.initial_configs(1) {
            let base = &start.pointed;
            let pruned = collect_amalgams(&class, base, &hints);
            let passing: Vec<_> = collect_amalgams(&class, base, &unpruned)
                .into_iter()
                .filter(|c| {
                    let val = combined_valuation(&base.points, &c.points);
                    dds_logic::eval::eval(&guard, &c.structure, &val).unwrap()
                })
                .collect();
            assert_eq!(pruned, passing);
        }
    }

    #[test]
    fn amalgams_extend_base_in_place() {
        let class = graph_class();
        let start = class.initial_configs(1).into_iter().next().unwrap();
        for cand in collect_amalgams(&class, &start.pointed, &GuardHints::default()) {
            assert!(cand.structure.size() >= start.pointed.structure.size());
            // Frozen base: restriction to old elements equals the base.
            let (sub, _) = cand
                .structure
                .substructure(&start.pointed.structure.elements().collect::<Vec<_>>())
                .unwrap();
            assert_eq!(sub, start.pointed.structure);
        }
    }
}
