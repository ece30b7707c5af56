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
//!   configuration (see the module docs of [`crate::amalgam`]).

use crate::amalgam::{
    combined_valuation, enumerate_fact_subsets, hint_tuples, internal_new_tuples,
    placement_contexts, reset_extended, AmalgamClass, AmalgamVisitor, GuardHints,
};
use crate::class::Pointed;
use dds_structure::enumerate::StructureIter;
use dds_structure::{Element, Schema};
use std::collections::BTreeSet;
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

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        for pattern in crate::amalgam::point_patterns(k) {
            let m = pattern.iter().copied().max().map_or(0, |x| x + 1);
            for s in StructureIter::new(self.schema.clone(), m) {
                let points = pattern.iter().map(|&c| Element::from_index(c)).collect();
                out.push(Pointed::new(s, points));
            }
        }
        out
    }

    fn for_each_amalgam(
        &self,
        base: &Pointed,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()> {
        let k = base.points.len();
        let mut cand = base.structure.clone();
        for ctx in placement_contexts(base.structure.size(), k).iter() {
            let combined = combined_valuation(&base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            // Universe of elements that survive into the next configuration.
            let mut np_universe: Vec<Element> = ctx.new_points.clone();
            np_universe.sort_unstable();
            np_universe.dedup();
            let mut optional: BTreeSet<(dds_structure::SymbolId, Vec<Element>)> =
                internal_new_tuples(&self.schema, &np_universe, &ctx.fresh)
                    .into_iter()
                    .collect();
            optional.extend(hint_tuples(&hints.atoms, &combined, &ctx.fresh));
            let optional: Vec<_> = optional.into_iter().collect();
            reset_extended(&mut cand, &base.structure, ctx.fresh.len());
            enumerate_fact_subsets(&mut cand, &optional, |s| f(s, &ctx.new_points))?;
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use crate::class::{RelConfig, SymbolicClass};
    use dds_logic::{Formula, Var};
    use dds_system::{new_var, old_var};

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
        // Reference: count distinct canonical keys directly.
        let mut keys = BTreeSet::new();
        for p in class.initial_pointed(2) {
            keys.insert(RelConfig::canonical(&p).key().clone());
        }
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
