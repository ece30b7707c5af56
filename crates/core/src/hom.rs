//! `HOM(H)`: databases that map homomorphically to a template `H`
//! (§3.2, §4.3 — Lemma 7 and Theorem 4).
//!
//! `HOM(H)` itself is not closed under amalgamation (Example 4: 2-colorable
//! graphs). The paper's fix is the *colored lift* `HOM(H̃)`: extend the
//! schema with one unary color predicate per element of `H`, and require
//! every element to carry exactly one color such that every σ-tuple is
//! color-compatible with `H`. The lift is Fraïssé (Lemma 7: amalgamation is
//! disjoint union with identification — the coloring itself witnesses the
//! homomorphism), its σ-projection is `HOM(H)` up to substructures, so
//! emptiness transfers by Lemma 6. Because the schema stays relational the
//! blowup is the identity and the procedure runs in PSpace (Theorem 4).
//!
//! This class manipulates colored structures internally; the engine's
//! guards only see σ, and witnesses are σ-projections (the colors are
//! exactly a homomorphism to `H`, which tests re-verify with the independent
//! homomorphism search of `dds-structure`).

use crate::amalgam::{
    combined_valuation, enumerate_fact_subsets, hint_tuples, internal_new_tuples,
    placement_contexts, reset_extended, AmalgamClass, AmalgamVisitor, GuardHints,
};
use crate::class::Pointed;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// The colored lift of `HOM(H)` for a relational template `H`.
#[derive(Clone, Debug)]
pub struct HomClass {
    public: Arc<Schema>,
    internal: Arc<Schema>,
    template: Structure,
    color_syms: Vec<SymbolId>,
}

impl HomClass {
    /// Builds the class for a template `H` over a purely relational schema.
    pub fn new(template: Structure) -> HomClass {
        let public = template.schema().clone();
        assert!(
            public.is_relational(),
            "HomClass requires a purely relational schema"
        );
        let mut colors = Schema::new();
        for h in 0..template.size() {
            colors.add_relation(&format!("__col{h}"), 1).unwrap();
        }
        let internal = Arc::new(public.union(&colors).expect("fresh color names"));
        let color_syms = (0..template.size())
            .map(|h| internal.lookup(&format!("__col{h}")).expect("just added"))
            .collect();
        HomClass {
            public,
            internal,
            template,
            color_syms,
        }
    }

    /// The template `H`.
    pub fn template(&self) -> &Structure {
        &self.template
    }

    /// The color of an element (None when missing or ambiguous — not a
    /// member then).
    fn color_of(&self, s: &Structure, e: Element) -> Option<usize> {
        let mut found = None;
        for (h, &c) in self.color_syms.iter().enumerate() {
            if s.holds(c, &[e]) {
                if found.is_some() {
                    return None;
                }
                found = Some(h);
            }
        }
        found
    }

    /// Whether a σ-tuple is allowed given element colors.
    fn tuple_compatible(&self, rel: SymbolId, tuple: &[Element], colors: &[usize]) -> bool {
        // `rel` must be a σ-symbol; ids of σ-symbols agree between public and
        // internal schemas (internal = public ∪ colors, appended).
        let mapped: Vec<Element> = tuple
            .iter()
            .map(|e| Element::from_index(colors[e.index()]))
            .collect();
        let public_rel = self
            .public
            .lookup(self.internal.name(rel))
            .expect("σ symbol");
        self.template.holds(public_rel, &mapped)
    }

    /// Membership in the lift: exactly one color per element, all σ-tuples
    /// color-compatible. Exposed for tests and the brute-force baseline.
    pub fn is_member(&self, s: &Structure) -> bool {
        let mut colors = Vec::with_capacity(s.size());
        for e in s.elements() {
            match self.color_of(s, e) {
                Some(h) => colors.push(h),
                None => return false,
            }
        }
        for r in self.public.relations() {
            let internal_r = self.internal.lookup(self.public.name(r)).expect("shared");
            for t in s.rel_tuples(internal_r) {
                if !self.tuple_compatible(internal_r, t, &colors) {
                    return false;
                }
            }
        }
        true
    }

    /// Membership over the *public* schema: whether some homomorphism of
    /// `s` into the template exists (the defining condition of `HOM(H)`,
    /// decided by brute force over all assignments). This is the oracle the
    /// differential fuzz harness feeds to
    /// `dds_system::baseline::bounded_emptiness_relational`, and the check
    /// applied to certified engine witnesses — which live over the public
    /// schema, unlike [`HomClass::is_member`]'s colored lifts.
    pub fn maps_into_template(&self, s: &Structure) -> bool {
        let n = s.size();
        let m = self.template.size();
        if n == 0 {
            return true;
        }
        if m == 0 {
            return false;
        }
        let mut assign = vec![0usize; n];
        loop {
            let ok = self.public.relations().all(|r| {
                s.rel_tuples(r).all(|t| {
                    let mapped: Vec<Element> = t
                        .iter()
                        .map(|e| Element::from_index(assign[e.index()]))
                        .collect();
                    self.template.holds(r, &mapped)
                })
            });
            if ok {
                return true;
            }
            // Odometer over assignments.
            let mut i = 0;
            loop {
                if i == n {
                    return false;
                }
                assign[i] += 1;
                if assign[i] < m {
                    break;
                }
                assign[i] = 0;
                i += 1;
            }
        }
    }

    /// σ-relation symbols as internal ids.
    fn sigma_rels(&self) -> Vec<SymbolId> {
        self.public
            .relations()
            .map(|r| self.internal.lookup(self.public.name(r)).expect("shared"))
            .collect()
    }
}

impl AmalgamClass for HomClass {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.internal
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.public
    }

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        let nh = self.template.size();
        if nh == 0 {
            return out; // HOM(∅) contains only the empty database
        }
        let sigma = self.sigma_rels();
        for pattern in crate::amalgam::point_patterns(k) {
            let m = pattern.iter().copied().max().map_or(0, |x| x + 1);
            let points: Vec<Element> = pattern.iter().map(|&c| Element::from_index(c)).collect();
            // Enumerate colorings, then subsets of the compatible tuples.
            let elems: Vec<Element> = (0..m as u32).map(Element).collect();
            for colors in color_vectors(m, nh) {
                let mut base = Structure::new(self.internal.clone(), m);
                for (e, &h) in elems.iter().zip(&colors) {
                    base.add_fact(self.color_syms[h], &[*e]).unwrap();
                }
                let mut optional = Vec::new();
                for &r in &sigma {
                    for t in dds_structure::structure::tuples_over(&elems, self.internal.arity(r)) {
                        if self.tuple_compatible(r, &t, &colors) {
                            optional.push((r, t));
                        }
                    }
                }
                let _ = enumerate_fact_subsets(&mut base, &optional, |s| {
                    out.push(Pointed::new(s.clone(), points.clone()));
                    ControlFlow::Continue(())
                });
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
        let nh = self.template.size();
        let sigma: BTreeSet<SymbolId> = self.sigma_rels().into_iter().collect();
        // Colors of base elements (base is a member by induction).
        let base_colors: Vec<usize> = base
            .structure
            .elements()
            .map(|e| self.color_of(&base.structure, e).expect("base is a member"))
            .collect();
        let mut cand = base.structure.clone();
        for ctx in placement_contexts(base.structure.size(), k).iter() {
            let combined = combined_valuation(&base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            let mut np_universe: Vec<Element> = ctx.new_points.clone();
            np_universe.sort_unstable();
            np_universe.dedup();
            for fresh_colors in color_vectors(ctx.fresh.len(), nh) {
                let mut colors = base_colors.clone();
                colors.extend(fresh_colors.iter().copied());
                // Optional facts: only color-compatible σ-tuples (others can
                // never appear in a member).
                let mut optional: BTreeSet<(SymbolId, Vec<Element>)> = BTreeSet::new();
                for (r, t) in internal_new_tuples(&self.internal, &np_universe, &ctx.fresh)
                    .into_iter()
                    .chain(hint_tuples(&hints.atoms, &combined, &ctx.fresh))
                {
                    if sigma.contains(&r) && self.tuple_compatible(r, &t, &colors) {
                        optional.insert((r, t));
                    }
                }
                let optional: Vec<_> = optional.into_iter().collect();
                reset_extended(&mut cand, &base.structure, ctx.fresh.len());
                for (fr, &h) in ctx.fresh.iter().zip(&fresh_colors) {
                    cand.add_fact(self.color_syms[h], &[*fr])
                        .expect("fresh elements are in range");
                }
                enumerate_fact_subsets(&mut cand, &optional, |s| f(s, &ctx.new_points))?;
            }
        }
        ControlFlow::Continue(())
    }
}

/// All color assignments for `m` elements over `nh` colors.
fn color_vectors(m: usize, nh: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = vec![0usize; m];
    loop {
        out.push(cur.clone());
        let mut pos = 0;
        loop {
            if pos == m {
                return out;
            }
            cur[pos] += 1;
            if cur[pos] < nh {
                break;
            }
            cur[pos] = 0;
            pos += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use dds_structure::morphism::find_homomorphism;

    /// The paper's Example 2 template: enough to kill odd red cycles.
    /// Here: a 2-clique (edges both ways, no loops) — graphs mapping to it
    /// are 2-colorable, i.e. have no odd cycle at all.
    fn two_clique() -> Structure {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let mut h = Structure::new(schema, 2);
        h.add_fact(e, &[Element(0), Element(1)]).unwrap();
        h.add_fact(e, &[Element(1), Element(0)]).unwrap();
        h
    }

    #[test]
    fn membership_matches_homomorphism_search() {
        let class = HomClass::new(two_clique());
        // Every member's σ-projection admits a homomorphism to H; check on
        // all 1- and 2-element colored structures produced by the enumerator.
        for k in [1usize, 2] {
            for p in class.initial_pointed(k) {
                assert!(class.is_member(&p.structure), "enumerated non-member");
                let projected = class.project(&p.structure);
                assert!(
                    find_homomorphism(&projected, class.template()).is_some(),
                    "projection not in HOM(H): {projected:?}"
                );
            }
        }
    }

    #[test]
    fn non_members_detected() {
        let class = HomClass::new(two_clique());
        let internal = class.internal_schema().clone();
        let e = internal.lookup("E").unwrap();
        let c0 = internal.lookup("__col0").unwrap();
        // Loop on a single colored element: E(h,h) not in the 2-clique.
        let mut s = Structure::new(internal.clone(), 1);
        s.add_fact(c0, &[Element(0)]).unwrap();
        s.add_fact(e, &[Element(0), Element(0)]).unwrap();
        assert!(!class.is_member(&s));
        // Missing color.
        let s2 = Structure::new(internal.clone(), 1);
        assert!(!class.is_member(&s2));
        // Two colors.
        let c1 = internal.lookup("__col1").unwrap();
        let mut s3 = Structure::new(internal, 1);
        s3.add_fact(c0, &[Element(0)]).unwrap();
        s3.add_fact(c1, &[Element(0)]).unwrap();
        assert!(!class.is_member(&s3));
    }

    #[test]
    fn amalgams_never_leave_the_class() {
        let class = HomClass::new(two_clique());
        for start in class.initial_pointed(1) {
            for cand in collect_amalgams(&class, &start, &GuardHints::default()) {
                assert!(class.is_member(&cand.structure));
            }
        }
    }
}
