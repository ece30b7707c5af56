//! Finite linear orders (Example 3) — the setting of register automata over
//! linearly ordered data domains (Segoufin–Toruńczyk, cited as \[9\]).
//!
//! The class of all finite strict linear orders over the schema `{<}` is
//! Fraïssé (its limit is `⟨ℚ,<⟩`). Amalgams are enumerated as interleavings:
//! new register values are either identified with old elements or inserted
//! as fresh elements at arbitrary positions of the chain. The class is *not*
//! closed under removing tuples (totality), so the guard-hint optimisation
//! does not apply; instead the complete interleaving enumeration is itself
//! polynomial per placement.

use crate::amalgam::{
    combined_valuation, field_bits, placement_contexts, reset_extended, surjections, tag_field,
    AmalgamClass, AmalgamVisitor, Family, GuardHints,
};
use crate::class::Pointed;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::ops::ControlFlow;
use std::sync::Arc;

/// All finite strict linear orders, over the schema with one binary relation
/// `<`.
#[derive(Clone, Debug)]
pub struct LinearOrderClass {
    schema: Arc<Schema>,
    lt: SymbolId,
}

impl LinearOrderClass {
    /// Creates the class (and its schema, exposed via `schema()`).
    pub fn new() -> LinearOrderClass {
        let mut sc = Schema::new();
        let lt = sc.add_relation("<", 2).unwrap();
        LinearOrderClass {
            schema: sc.finish(),
            lt,
        }
    }

    /// The `<` symbol.
    pub fn lt(&self) -> SymbolId {
        self.lt
    }

    /// Builds the chain structure for elements listed in ascending order.
    fn chain(&self, order: &[Element], size: usize) -> Structure {
        let mut s = Structure::new(self.schema.clone(), size);
        self.add_chain_facts(&mut s, order, 0);
        s
    }

    /// Adds the `<`-facts of the chain `order` (ascending) that involve an
    /// element with index `>= from` (with `from = 0`, all of them).
    fn add_chain_facts(&self, s: &mut Structure, order: &[Element], from: usize) {
        for i in 0..order.len() {
            for j in i + 1..order.len() {
                if order[i].index().max(order[j].index()) >= from {
                    s.add_fact(self.lt, &[order[i], order[j]])
                        .expect("chain elements are in range");
                }
            }
        }
    }

    /// Extracts the ascending element order of a member chain.
    fn order_of(&self, s: &Structure) -> Vec<Element> {
        let mut elems: Vec<Element> = s.elements().collect();
        elems.sort_by_key(|&e| s.rel_tuples(self.lt).filter(|t| t[1] == e).count());
        elems
    }

    /// The canonical chain `0 < 1 < .. < n-1` — up to isomorphism the only
    /// member of size `n`.
    pub fn chain_structure(&self, n: usize) -> Structure {
        let order: Vec<Element> = (0..n).map(Element::from_index).collect();
        self.chain(&order, n)
    }

    /// One representative per isomorphism class of members with `1..=max_size`
    /// elements (the canonical chains). As with
    /// [`crate::EquivalenceClass::members_up_to`], an accepting run exists on
    /// a member iff it exists on its canonical chain, so this list is a
    /// complete brute-force emptiness basis up to the bound.
    pub fn members_up_to(&self, max_size: usize) -> Vec<Structure> {
        (1..=max_size).map(|n| self.chain_structure(n)).collect()
    }

    /// Membership: a strict total order. Exposed for baselines and tests.
    pub fn is_member(&self, s: &Structure) -> bool {
        let n = s.size();
        // Irreflexive, antisymmetric, total, transitive.
        for a in s.elements() {
            if s.holds(self.lt, &[a, a]) {
                return false;
            }
            for b in s.elements() {
                if a != b {
                    let ab = s.holds(self.lt, &[a, b]);
                    let ba = s.holds(self.lt, &[b, a]);
                    if ab == ba {
                        return false; // both (not antisymmetric) or neither (not total)
                    }
                }
                for c in s.elements() {
                    if s.holds(self.lt, &[a, b])
                        && s.holds(self.lt, &[b, c])
                        && !s.holds(self.lt, &[a, c])
                    {
                        return false;
                    }
                }
            }
        }
        let _ = n;
        true
    }
}

impl Default for LinearOrderClass {
    fn default() -> Self {
        Self::new()
    }
}

impl AmalgamClass for LinearOrderClass {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        let lo = usize::from(k != 0);
        for m in lo..=k {
            let order: Vec<Element> = (0..m as u32).map(Element).collect();
            let s = self.chain(&order, m);
            for surj in surjections(k, m) {
                let points = surj.iter().map(|&c| Element::from_index(c)).collect();
                out.push(Pointed::new(s.clone(), points));
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
        let m_old = base.structure.size();
        let old_order = self.order_of(&base.structure);
        let mut cand = base.structure.clone();
        let placements = placement_contexts(m_old, k);
        let pbits = field_bits(placements.len());
        for (pi, ctx) in placements.iter().enumerate() {
            let combined = combined_valuation(&base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            // Interleave the fresh elements into the old chain in every way;
            // the base is a member, so each chain is the base plus the facts
            // that involve a fresh element. Tag: the placement, then the
            // interleaving.
            for (ii, order) in interleavings(&old_order, &ctx.fresh).iter().enumerate() {
                reset_extended(&mut cand, &base.structure, ctx.fresh.len());
                self.add_chain_facts(&mut cand, order, m_old);
                f(&mut Family::single(
                    &mut cand,
                    &ctx.new_points,
                    tag_field(pi as u64, pbits, ii as u64),
                ))?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// All sequences merging `old` (kept in order) with all elements of `fresh`
/// in every relative order and position: `(|old|+|fresh|)! / |old|!` many.
fn interleavings(old: &[Element], fresh: &[Element]) -> Vec<Vec<Element>> {
    let mut out = Vec::new();
    let mut cur: Vec<Element> = old.to_vec();
    fn go(fresh: &[Element], cur: &mut Vec<Element>, out: &mut Vec<Vec<Element>>) {
        match fresh.split_first() {
            None => out.push(cur.clone()),
            Some((&f, rest)) => {
                for pos in 0..=cur.len() {
                    cur.insert(pos, f);
                    go(rest, cur, out);
                    cur.remove(pos);
                }
            }
        }
    }
    go(fresh, &mut cur, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use crate::class::SymbolicClass;
    use dds_logic::Formula;
    use dds_system::{new_var, old_var};

    #[test]
    fn initial_chains_enumerated() {
        let class = LinearOrderClass::new();
        // k=2: m=1 (both points equal) 1 surjection; m=2: 2 surjections.
        assert_eq!(class.initial_configs(2).len(), 3);
        for p in class.initial_pointed(2) {
            assert!(class.is_member(&p.structure));
        }
    }

    #[test]
    fn member_rejects_partial_orders() {
        let class = LinearOrderClass::new();
        let mut s = Structure::new(class.public_schema().clone(), 2);
        assert!(!class.is_member(&s)); // not total
        s.add_fact(class.lt(), &[Element(0), Element(1)]).unwrap();
        assert!(class.is_member(&s));
        s.add_fact(class.lt(), &[Element(1), Element(0)]).unwrap();
        assert!(!class.is_member(&s)); // not antisymmetric
    }

    #[test]
    fn amalgams_are_chains_extending_base() {
        let class = LinearOrderClass::new();
        let base = class
            .initial_pointed(2)
            .into_iter()
            .find(|p| p.structure.size() == 2)
            .unwrap();
        for cand in collect_amalgams(&class, &base, &GuardHints::default()) {
            assert!(class.is_member(&cand.structure), "{:?}", cand.structure);
            // The in-place extension builds exactly the chain structure.
            let order = class.order_of(&cand.structure);
            assert_eq!(cand.structure, class.chain(&order, order.len()));
            // Old pair keeps its orientation.
            assert!(cand.structure.holds(class.lt(), &[Element(0), Element(1)]));
        }
    }

    #[test]
    fn strict_growth_is_always_possible() {
        // Guard x_new > x_old can fire forever — the hallmark of dense
        // linear orders via amalgamation (no bound on the chain length).
        let class = LinearOrderClass::new();
        let guard = Formula::rel_vars(class.lt(), &[old_var(0), new_var(0)]);
        let mut cfg = class.initial_configs(1).into_iter().next().unwrap();
        for _ in 0..5 {
            let succs = class.transitions(&cfg, &guard);
            assert!(!succs.is_empty());
            cfg = succs.into_iter().next().unwrap();
            // Configurations stay size 1 (generated by the single register).
            assert_eq!(cfg.pointed.structure.size(), 1);
        }
    }
}
