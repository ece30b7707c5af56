//! Data values: the products `C ⊗ F` and `C ⊙ F` of §4.4 (Proposition 1,
//! Corollary 8).
//!
//! The paper attaches to every database element a data value drawn from a
//! *homogeneous* relational structure `F` — canonically `⟨ℕ,=⟩` (equality
//! only) or `⟨ℚ,<⟩` (dense order; by Remark 1 this also covers `⟨ℕ,<⟩`,
//! whose finite substructures are the same). A finite run only ever compares
//! finitely many values, and homogeneity means only the induced
//! quantifier-free type matters, so configurations need only carry the
//! induced relation on their elements:
//!
//! * for `⟨ℕ,=⟩`: an equivalence relation (`x ~ y` ⇔ equal data values);
//! * for `⟨ℚ,<⟩`: a strict weak order (`x << y` ⇔ smaller data value).
//!
//! The `⊙` (injective) variant additionally requires pairwise distinct
//! values — the paper's convention for relational databases, while `⊗`
//! matches XML attributes (Examples 5 and 6).
//!
//! Proposition 1 states `C ⊗ F` and `C ⊙ F` are Fraïssé with the same blowup
//! as `C`; its proof amalgamates the two coordinates independently over a
//! shared domain — exactly how the product's
//! [`AmalgamClass::for_each_amalgam`] composes the inner class's amalgams
//! with data-part extensions.

use crate::amalgam::{project_structure, reset_extended, AmalgamClass, AmalgamVisitor, GuardHints};
use crate::class::Pointed;
use crate::equiv::block_extensions;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::collections::BTreeSet;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Which homogeneous structure supplies the data values.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataKind {
    /// `⟨ℕ,=⟩`: equality comparisons only.
    Equality,
    /// `⟨ℚ,<⟩` (equivalently `⟨ℕ,<⟩` for finite substructures): ordered
    /// values.
    Order,
}

/// Configuration of a data-value product.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataSpec {
    /// The homogeneous structure.
    pub kind: DataKind,
    /// `⊙` (true): values pairwise distinct; `⊗` (false): arbitrary.
    pub injective: bool,
    /// Relation symbol name added to the schema (`~` or `<<` by default).
    pub symbol: String,
}

impl DataSpec {
    /// `⊗ ⟨ℕ,=⟩` — XML-style attributes compared with `x ~ y`.
    pub fn nat_eq() -> DataSpec {
        DataSpec {
            kind: DataKind::Equality,
            injective: false,
            symbol: "~".into(),
        }
    }

    /// `⊙ ⟨ℕ,=⟩` — relational-style unique identifiers.
    pub fn nat_eq_injective() -> DataSpec {
        DataSpec {
            injective: true,
            ..DataSpec::nat_eq()
        }
    }

    /// `⊗ ⟨ℚ,<⟩` — ordered data values compared with `x << y`.
    pub fn rational_order() -> DataSpec {
        DataSpec {
            kind: DataKind::Order,
            injective: false,
            symbol: "<<".into(),
        }
    }

    /// `⊙ ⟨ℚ,<⟩` — distinct ordered values (a linear order on elements).
    pub fn rational_order_injective() -> DataSpec {
        DataSpec {
            injective: true,
            ..DataSpec::rational_order()
        }
    }
}

/// The product class `C ⊗ F` / `C ⊙ F` over an inner [`AmalgamClass`].
#[derive(Clone, Debug)]
pub struct DataClass<C> {
    inner: C,
    spec: DataSpec,
    public: Arc<Schema>,
    internal: Arc<Schema>,
    data_sym: SymbolId,
}

impl<C: AmalgamClass> DataClass<C> {
    /// Wraps `inner`, extending both its schemas with the data relation.
    pub fn new(inner: C, spec: DataSpec) -> DataClass<C> {
        let mut extra = Schema::new();
        extra.add_relation(&spec.symbol, 2).unwrap();
        let public = Arc::new(
            inner
                .public_schema()
                .union(&extra)
                .expect("data symbol clashes with base schema"),
        );
        let internal = Arc::new(
            inner
                .internal_schema()
                .union(&extra)
                .expect("data symbol clashes with internal schema"),
        );
        let data_sym = internal.lookup(&spec.symbol).expect("just added");
        DataClass {
            inner,
            spec,
            public,
            internal,
            data_sym,
        }
    }

    /// The wrapped class.
    pub fn inner(&self) -> &C {
        &self.inner
    }

    /// The data relation symbol, in the *public* schema.
    pub fn data_symbol(&self) -> SymbolId {
        self.public
            .lookup(&self.spec.symbol)
            .expect("added at construction")
    }

    /// Reads the data classes of a member structure's elements: for
    /// `Equality`, block ids; for `Order`, ranks (ascending).
    pub fn data_classes(&self, s: &Structure) -> Vec<usize> {
        match self.spec.kind {
            DataKind::Equality => {
                let mut blocks = vec![usize::MAX; s.size()];
                let mut next = 0;
                for e in s.elements() {
                    if blocks[e.index()] == usize::MAX {
                        blocks[e.index()] = next;
                        for f in s.elements() {
                            if e != f && s.holds(self.data_sym, &[e, f]) {
                                blocks[f.index()] = next;
                            }
                        }
                        next += 1;
                    }
                }
                blocks
            }
            DataKind::Order => {
                // rank(e) = number of distinct value classes strictly below.
                let mut ranks = vec![0usize; s.size()];
                for e in s.elements() {
                    let mut below: Vec<Element> = s
                        .elements()
                        .filter(|&d| s.holds(self.data_sym, &[d, e]))
                        .collect();
                    // Count distinct classes among `below` = rank.
                    below.retain(|&d| !s.holds(self.data_sym, &[e, d]));
                    let mut classes = 0usize;
                    let mut seen: Vec<Element> = Vec::new();
                    for &d in &below {
                        if !seen.iter().any(|&x| {
                            !s.holds(self.data_sym, &[x, d]) && !s.holds(self.data_sym, &[d, x])
                        }) {
                            classes += 1;
                            seen.push(d);
                        }
                    }
                    ranks[e.index()] = classes;
                }
                ranks
            }
        }
    }

    /// Overlays data facts for the given class/rank assignment on top of an
    /// inner structure embedded into the product schema.
    fn with_data(&self, inner_struct: &Structure, classes: &[usize]) -> Structure {
        let mut s = project_structure(inner_struct, &self.internal);
        self.add_data_facts(&mut s, classes, 0);
        s
    }

    /// Adds the data facts of a class/rank assignment that involve an
    /// element with index `>= from` (with `from = 0`, all of them).
    fn add_data_facts(&self, s: &mut Structure, classes: &[usize], from: usize) {
        for (i, ci) in classes.iter().enumerate() {
            for (j, cj) in classes.iter().enumerate() {
                let keep = match self.spec.kind {
                    DataKind::Equality => ci == cj,
                    DataKind::Order => ci < cj,
                };
                if keep && i.max(j) >= from {
                    s.add_fact(
                        self.data_sym,
                        &[Element::from_index(i), Element::from_index(j)],
                    )
                    .expect("assignment elements are in range");
                }
            }
        }
    }

    /// All data assignments for `m` fresh-standing elements (no old part).
    fn assignments(&self, m: usize) -> Vec<Vec<usize>> {
        match (self.spec.kind, self.spec.injective) {
            (DataKind::Equality, false) => crate::amalgam::point_patterns(m),
            (DataKind::Equality, true) => vec![(0..m).collect()],
            (DataKind::Order, false) => weak_orders(m),
            (DataKind::Order, true) => permutations(m),
        }
    }

    /// All extensions of old data classes by `extra` new elements.
    fn extensions(&self, old: &[usize], extra: usize) -> Vec<Vec<usize>> {
        match (self.spec.kind, self.spec.injective) {
            (DataKind::Equality, false) => block_extensions(old, extra),
            (DataKind::Equality, true) => {
                // Each fresh element gets a brand-new singleton class.
                let base = old.iter().copied().max().map_or(0, |x| x + 1);
                let mut v = old.to_vec();
                v.extend((0..extra).map(|i| base + i));
                vec![v]
            }
            (DataKind::Order, injective) => rank_extensions(old, extra, injective),
        }
    }
}

/// All strict weak orders on `m` elements, as rank vectors with contiguous
/// image `0..=max` (ordered Bell numbers of them).
fn weak_orders(m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = Vec::new();
    // Build by inserting elements one at a time (tie or gap), starting empty.
    fn go(m: usize, cur: &mut Vec<usize>, out: &mut BTreeSet<Vec<usize>>) {
        if cur.len() == m {
            out.insert(cur.clone());
            return;
        }
        let ranks = cur.iter().copied().max().map_or(0, |x| x + 1);
        for r in 0..ranks {
            cur.push(r);
            go(m, cur, out);
            cur.pop();
        }
        for gap in 0..=ranks {
            let saved = cur.clone();
            for x in cur.iter_mut() {
                if *x >= gap {
                    *x += 1;
                }
            }
            cur.push(gap);
            go(m, cur, out);
            *cur = saved;
        }
    }
    let mut set = BTreeSet::new();
    go(m, &mut cur, &mut set);
    out.extend(set);
    out
}

/// All permutations of `0..m` (strict orders).
fn permutations(m: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur: Vec<usize> = (0..m).collect();
    fn go(k: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if k == cur.len() {
            out.push(cur.clone());
            return;
        }
        for i in k..cur.len() {
            cur.swap(k, i);
            go(k + 1, cur, out);
            cur.swap(k, i);
        }
    }
    go(0, &mut cur, &mut out);
    out
}

/// All rank-vector extensions by `extra` elements (ties allowed unless
/// `injective`); old elements' relative ranks are preserved (their absolute
/// ranks may shift when a gap is used).
fn rank_extensions(old: &[usize], extra: usize, injective: bool) -> Vec<Vec<usize>> {
    let mut set = BTreeSet::new();
    fn go(cur: &[usize], extra: usize, injective: bool, set: &mut BTreeSet<Vec<usize>>) {
        if extra == 0 {
            set.insert(cur.to_vec());
            return;
        }
        let ranks = cur.iter().copied().max().map_or(0, |x| x + 1);
        if !injective {
            for r in 0..ranks {
                let mut next = cur.to_vec();
                next.push(r);
                go(&next, extra - 1, injective, set);
            }
        }
        for gap in 0..=ranks {
            let mut next: Vec<usize> = cur
                .iter()
                .map(|&x| if x >= gap { x + 1 } else { x })
                .collect();
            next.push(gap);
            go(&next, extra - 1, injective, set);
        }
    }
    go(old, extra, injective, &mut set);
    set.into_iter().collect()
}

impl<C: AmalgamClass> AmalgamClass for DataClass<C> {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.internal
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.public
    }

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        for p in self.inner.initial_pointed(k) {
            for classes in self.assignments(p.structure.size()) {
                out.push(Pointed::new(
                    self.with_data(&p.structure, &classes),
                    p.points.clone(),
                ));
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
        // Split work: inner class handles the σ part, we extend the data
        // part. Hints for the inner class are those over its symbols (shared
        // prefix of the internal schema); the forced (dis)equalities are
        // schema-independent, so the inner class prunes placements with
        // them directly.
        let inner_syms = self.inner.internal_schema().len();
        let inner_hints = GuardHints {
            atoms: hints
                .atoms
                .iter()
                .filter(|(r, _)| r.index() < inner_syms)
                .cloned()
                .collect(),
            eqs: hints.eqs.clone(),
        };
        let base_inner = Pointed::new(
            project_structure(&base.structure, self.inner.internal_schema()),
            base.points.clone(),
        );
        let old_classes = self.data_classes(&base.structure);
        let m_old = base.structure.size();
        // The base is a member and both coordinates freeze the old elements,
        // so `with_data(inner, classes)` is the base plus the inner and data
        // facts that involve a fresh element. `lifted` holds the base plus
        // the inner candidate's fresh facts; `cand` adds the data facts.
        let mut lifted = base.structure.clone();
        let mut cand = base.structure.clone();
        self.inner
            .for_each_amalgam(&base_inner, &inner_hints, &mut |inner, points| {
                let extra = inner.size() - m_old;
                reset_extended(&mut lifted, &base.structure, extra);
                for r in inner.schema().relations() {
                    for t in inner
                        .rel_tuples(r)
                        .filter(|t| t.iter().any(|e| e.index() >= m_old))
                    {
                        lifted.add_fact(r, t).expect("inner symbols are a prefix");
                    }
                }
                for classes in self.extensions(&old_classes, extra) {
                    cand.clone_from(&lifted);
                    self.add_data_facts(&mut cand, &classes, m_old);
                    f(&cand, points)?;
                }
                ControlFlow::Continue(())
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use crate::class::SymbolicClass;
    use crate::free::FreeRelationalClass;

    fn base() -> FreeRelationalClass {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        FreeRelationalClass::new(s.finish())
    }

    #[test]
    fn weak_orders_counts_are_ordered_bell() {
        assert_eq!(weak_orders(0).len(), 1);
        assert_eq!(weak_orders(1).len(), 1);
        assert_eq!(weak_orders(2).len(), 3);
        assert_eq!(weak_orders(3).len(), 13);
    }

    #[test]
    fn rank_extensions_preserve_old_order() {
        // Old ranks [0, 1]; add one element: ties (2) + gaps (3) = 5.
        let exts = rank_extensions(&[0, 1], 1, false);
        assert_eq!(exts.len(), 5);
        for e in &exts {
            assert!(e[0] < e[1], "old order broken: {e:?}");
        }
        // Injective: gaps only.
        assert_eq!(rank_extensions(&[0, 1], 1, true).len(), 3);
    }

    #[test]
    fn nat_eq_product_evaluates_guards() {
        let class = DataClass::new(base(), DataSpec::nat_eq());
        let schema = class.public_schema().clone();
        assert!(schema.lookup("~").is_ok());
        // k=1 initial configs: base loop/no-loop × trivial data = 2.
        assert_eq!(class.initial_configs(1).len(), 2);
        // k=2: base had 18; each 2-element base config gets 2 data partitions,
        // single-element ones 1.
        let configs = class.initial_configs(2);
        // 2 single-element configs × 1 partition + 16 two-element × 2.
        assert_eq!(configs.len(), 2 + 16 * 2);
    }

    #[test]
    fn injective_forces_distinct_values() {
        let class = DataClass::new(base(), DataSpec::nat_eq_injective());
        for cfg in class.initial_configs(2) {
            let s = &cfg.pointed.structure;
            let sym = class.internal.lookup("~").unwrap();
            for a in s.elements() {
                for b in s.elements() {
                    assert_eq!(s.holds(sym, &[a, b]), a == b);
                }
            }
        }
    }

    #[test]
    fn order_product_ranks_roundtrip() {
        let class = DataClass::new(base(), DataSpec::rational_order());
        for cfg in class.initial_configs(2) {
            let ranks = class.data_classes(&cfg.pointed.structure);
            // Rebuilding from the ranks reproduces the same data facts.
            let inner_part =
                project_structure(&cfg.pointed.structure, class.inner().internal_schema());
            let rebuilt = class.with_data(&inner_part, &ranks);
            assert_eq!(rebuilt, cfg.pointed.structure);
        }
    }

    #[test]
    fn data_amalgams_freeze_old_values() {
        for spec in [DataSpec::nat_eq(), DataSpec::rational_order()] {
            let class = DataClass::new(base(), spec);
            for base_cfg in class.initial_configs(2) {
                let pointed = &base_cfg.pointed;
                for cand in collect_amalgams(&class, pointed, &GuardHints::default()) {
                    let old = class.data_classes(&pointed.structure);
                    let new = class.data_classes(&cand.structure);
                    // The in-place extension builds exactly the product
                    // structure.
                    let inner = project_structure(&cand.structure, class.inner().internal_schema());
                    assert_eq!(cand.structure, class.with_data(&inner, &new));
                    // Old elements keep their equalities and order.
                    for i in 0..old.len() {
                        for j in 0..old.len() {
                            assert_eq!(old[i].cmp(&old[j]), new[i].cmp(&new[j]));
                        }
                    }
                }
            }
        }
    }
}
