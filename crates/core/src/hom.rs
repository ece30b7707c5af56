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
//! Candidate amalgams are enumerated as in the free class, per placement
//! and fresh coloring: each is one [`Family`] whose optional facts are the
//! color-compatible σ-tuples among the new points and of the guard's
//! atoms. Those σ-tuples are computed once per placement; each coloring
//! keeps its compatible ones.
//!
//! This class manipulates colored structures internally; the engine's
//! guards only see σ, and witnesses are σ-projections (the colors are
//! exactly a homomorphism to `H`, which tests re-verify with the independent
//! homomorphism search of `dds-structure`).

use crate::amalgam::{
    fill_combined, hint_tuples, internal_new_tuples, placement_contexts, reset_extended,
    AmalgamClass, AmalgamVisitor, Family, GuardHints,
};
use crate::class::Pointed;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::ops::ControlFlow;
use std::sync::Arc;

/// The colored lift of `HOM(H)` for a relational template `H`.
#[derive(Clone, Debug)]
pub struct HomClass {
    public: Arc<Schema>,
    internal: Arc<Schema>,
    template: Structure,
    color_syms: Vec<SymbolId>,
    /// σ-relation symbols as internal ids (equal to their public ids).
    sigma: Vec<SymbolId>,
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
        let sigma = public
            .relations()
            .map(|r| internal.lookup(public.name(r)).expect("shared"))
            .collect();
        HomClass {
            public,
            internal,
            template,
            color_syms,
            sigma,
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
        // internal schemas (internal = public ∪ colors, appended), so it
        // indexes the template directly.
        let color = |e: &Element| Element::from_index(colors[e.index()]);
        let mut buf = [Element(0); 8];
        if tuple.len() <= buf.len() {
            for (slot, e) in buf.iter_mut().zip(tuple) {
                *slot = color(e);
            }
            self.template.holds(rel, &buf[..tuple.len()])
        } else {
            self.template
                .holds(rel, &tuple.iter().map(color).collect::<Vec<_>>())
        }
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
        self.sigma.iter().all(|&r| {
            s.rel_tuples(r)
                .all(|t| self.tuple_compatible(r, t, &colors))
        })
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
}

impl AmalgamClass for HomClass {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.internal
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.public
    }

    /// Each set of the template's nullary facts: they are the
    /// color-compatible tuples on no elements.
    ///
    /// # Panics
    ///
    /// When the template holds 64 or more nullary facts, whose subsets a
    /// `u64` mask cannot count.
    fn empty_members(&self) -> Vec<Structure> {
        let held: Vec<SymbolId> = self
            .sigma
            .iter()
            .copied()
            .filter(|&r| self.internal.arity(r) == 0 && self.template.holds(r, &[]))
            .collect();
        let subsets = u32::try_from(held.len())
            .ok()
            .and_then(|n| 1u64.checked_shl(n))
            .unwrap_or_else(|| panic!("too many nullary facts in the template ({})", held.len()));
        (0..subsets)
            .map(|mask| {
                let mut s = Structure::new(self.internal.clone(), 0);
                for (i, &r) in held.iter().enumerate() {
                    if mask >> i & 1 == 1 {
                        s.add_fact(r, &[]).expect("nullary σ-fact");
                    }
                }
                s
            })
            .collect()
    }

    fn for_each_amalgam(
        &self,
        base: &Pointed,
        k_new: usize,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()> {
        let nh = self.template.size();
        // Colors of base elements (base is a member by induction).
        let base_colors: Vec<usize> = base
            .structure
            .elements()
            .map(|e| self.color_of(&base.structure, e).expect("base is a member"))
            .collect();
        let mut cand = base.structure.clone();
        let placements = placement_contexts(base.structure.size(), k_new);
        // The colorings of `j` fresh elements, computed once per `j`.
        let mut colorings_of: Vec<Option<Vec<Vec<usize>>>> = vec![None; k_new + 1];
        let mut colors = base_colors.clone();
        let (mut combined, mut np_universe) = (Vec::new(), Vec::new());
        let (mut sigma_tuples, mut optional) = (Vec::new(), Vec::new());
        for ctx in placements.iter() {
            fill_combined(&mut combined, &base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            let Some(forced) = hints.forced_facts(&combined, &base.structure) else {
                continue;
            };
            np_universe.clone_from(&ctx.new_points);
            np_universe.sort_unstable();
            np_universe.dedup();
            // The σ-tuples among the new points and of the hint atoms, once
            // per placement; each coloring keeps its compatible ones.
            sigma_tuples.clear();
            internal_new_tuples(
                &mut sigma_tuples,
                &self.internal,
                self.sigma.iter().copied(),
                &np_universe,
                &ctx.fresh,
            );
            hint_tuples(&mut sigma_tuples, &hints.atoms, &combined, &ctx.fresh);
            sigma_tuples.retain(|(r, _)| self.sigma.contains(r));
            sigma_tuples.sort_unstable();
            sigma_tuples.dedup();
            let colorings = colorings_of[ctx.fresh.len()]
                .get_or_insert_with(|| color_vectors(ctx.fresh.len(), nh));
            for fresh_colors in colorings.iter() {
                colors.truncate(base_colors.len());
                colors.extend_from_slice(fresh_colors);
                // Optional facts: only color-compatible σ-tuples (others can
                // never appear in a member).
                optional.clear();
                optional.extend(
                    sigma_tuples
                        .iter()
                        .filter(|(r, t)| self.tuple_compatible(*r, t, &colors))
                        .cloned(),
                );
                reset_extended(&mut cand, &base.structure, ctx.fresh.len());
                for (fr, &h) in ctx.fresh.iter().zip(fresh_colors) {
                    cand.add_fact(self.color_syms[h], &[*fr])
                        .expect("fresh elements are in range");
                }
                // A forced-on fact missing from `optional` is
                // color-incompatible: no member of this coloring has it.
                if forced.apply(&mut optional, &mut cand) {
                    f(&mut Family {
                        cand: &mut cand,
                        new_points: &ctx.new_points,
                        optional: &optional,
                    })?;
                }
            }
        }
        ControlFlow::Continue(())
    }
}

/// All color assignments for `m` elements over `nh` colors.
fn color_vectors(m: usize, nh: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if nh == 0 && m > 0 {
        return out; // HOM(∅) has no elements
    }
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
    use crate::class::SymbolicClass;
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
            for cfg in class.initial_configs(k) {
                let p = &cfg.pointed;
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

    /// A template on no elements holding the nullary facts `P0()..P{n-1}()`.
    fn nullary_template(n: usize) -> Structure {
        let mut sc = Schema::new();
        let rels: Vec<_> = (0..n)
            .map(|i| sc.add_relation(&format!("P{i}"), 0).unwrap())
            .collect();
        let mut h = Structure::new(sc.finish(), 0);
        for r in rels {
            h.add_fact(r, &[]).unwrap();
        }
        h
    }

    #[test]
    fn every_subset_of_held_nullary_facts_is_a_member() {
        assert_eq!(HomClass::new(nullary_template(3)).empty_members().len(), 8);
    }

    /// At 64 held facts the subset count overflows a `u64`. A wrapped
    /// count would leave one member without facts, and the class would
    /// answer `empty` for reachable states.
    #[test]
    #[should_panic(expected = "too many nullary facts in the template (64)")]
    fn sixty_four_held_nullary_facts_fail_loudly() {
        HomClass::new(nullary_template(64)).empty_members();
    }

    #[test]
    fn amalgams_never_leave_the_class() {
        let class = HomClass::new(two_clique());
        for start in class.initial_configs(1) {
            for cand in collect_amalgams(&class, &start.pointed, &GuardHints::default()) {
                assert!(class.is_member(&cand.structure));
            }
        }
    }
}
