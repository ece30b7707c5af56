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
//!
//! Example 3's classes are such products over the *empty* free class (the
//! class of bare finite sets): finite equivalence relations are the
//! structures of `⊗ ⟨ℕ,=⟩` with `~` ([`DataClass::equivalence`]), and
//! finite strict linear orders — the setting of Segoufin–Toruńczyk, cited
//! as \[9\] — those of `⊙ ⟨ℚ,<⟩` with `<` ([`DataClass::linear_order`]),
//! since `⊙` makes the values pairwise distinct. Their amalgams are the
//! block extensions and the interleavings of fresh elements into the chain.

use crate::amalgam::{
    for_each_candidate, project_structure, reset_extended, AmalgamClass, AmalgamVisitor, Family,
    GuardHints,
};
use crate::class::Pointed;
use crate::free::FreeRelationalClass;
use dds_structure::{Element, Schema, Structure, SymbolId};
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

    /// The data values the product attaches.
    pub fn spec(&self) -> &DataSpec {
        &self.spec
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
                // In a strict weak order an element's below-count grows
                // with its class, so its rank (the number of distinct
                // classes strictly below) is the position of that count
                // among the distinct below-counts.
                let mut below = vec![0usize; s.size()];
                for t in s.rel_tuples(self.data_sym) {
                    below[t[1].index()] += 1;
                }
                let mut counts = below.clone();
                counts.sort_unstable();
                counts.dedup();
                below
                    .iter()
                    .map(|c| counts.binary_search(c).expect("a count of `below`"))
                    .collect()
            }
        }
    }

    /// Overlays data facts for the given class/rank assignment on top of an
    /// inner structure embedded into the product schema.
    #[cfg(test)]
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

impl DataClass<FreeRelationalClass> {
    /// Finite strict linear orders over `{<}` (Example 3): `⊙ ⟨ℚ,<⟩` over
    /// the empty free class, whose Fraïssé limit is `⟨ℚ,<⟩` itself.
    pub fn linear_order() -> Self {
        DataClass::new(
            FreeRelationalClass::new(Schema::new().finish()),
            DataSpec {
                symbol: "<".into(),
                ..DataSpec::rational_order_injective()
            },
        )
    }

    /// Finite equivalence relations over `{~}` (Example 3): `⊗ ⟨ℕ,=⟩` over
    /// the empty free class.
    pub fn equivalence() -> Self {
        DataClass::new(
            FreeRelationalClass::new(Schema::new().finish()),
            DataSpec::nat_eq(),
        )
    }
}

/// All rank-vector extensions by `extra` elements (ties allowed unless
/// `injective`); old elements' relative ranks are preserved (their absolute
/// ranks may shift when a gap is used). Each extension is built along one
/// path, so the list has no repeats. Injective extensions come in insertion
/// order — each fresh element in turn goes into every gap of the chain,
/// lowest first — and the others sorted.
fn rank_extensions(old: &[usize], extra: usize, injective: bool) -> Vec<Vec<usize>> {
    fn go(cur: &[usize], extra: usize, injective: bool, out: &mut Vec<Vec<usize>>) {
        if extra == 0 {
            out.push(cur.to_vec());
            return;
        }
        let ranks = cur.iter().copied().max().map_or(0, |x| x + 1);
        if !injective {
            for r in 0..ranks {
                let mut next = cur.to_vec();
                next.push(r);
                go(&next, extra - 1, injective, out);
            }
        }
        for gap in 0..=ranks {
            let mut next: Vec<usize> = cur
                .iter()
                .map(|&x| if x >= gap { x + 1 } else { x })
                .collect();
            next.push(gap);
            go(&next, extra - 1, injective, out);
        }
    }
    let mut out = Vec::new();
    go(old, extra, injective, &mut out);
    if !injective {
        out.sort_unstable();
    }
    out
}

/// All extensions of an existing block assignment by `extra` new elements:
/// each new element joins an existing block or a (normalized) new block.
fn block_extensions(old_blocks: &[usize], extra: usize) -> Vec<Vec<usize>> {
    let base_count = old_blocks.iter().copied().max().map_or(0, |m| m + 1);
    let mut out = Vec::new();
    let mut cur = old_blocks.to_vec();
    fn go(extra: usize, next_new: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if extra == 0 {
            out.push(cur.clone());
            return;
        }
        for b in 0..next_new {
            cur.push(b);
            go(extra - 1, next_new.max(b + 1), cur, out);
            cur.pop();
        }
        // A fresh block.
        cur.push(next_new);
        go(extra - 1, next_new + 1, cur, out);
        cur.pop();
    }
    go(extra, base_count, &mut cur, &mut out);
    out
}

impl<C: AmalgamClass> AmalgamClass for DataClass<C> {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.internal
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.public
    }

    /// The inner class's, lifted to the product schema: with no elements
    /// there is no data to attach.
    fn empty_members(&self) -> Vec<Structure> {
        self.inner
            .empty_members()
            .iter()
            .map(|s| project_structure(s, &self.internal))
            .collect()
    }

    fn for_each_amalgam(
        &self,
        base: &Pointed,
        k_new: usize,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()> {
        // Split work: inner class handles the σ part, we extend the data
        // part. Hints and forced relation literals for the inner class are
        // those over its symbols (shared prefix of the internal schema); the
        // data part never changes them. The forced (dis)equalities are
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
            rels: hints
                .rels
                .iter()
                .filter(|((r, _), _)| r.index() < inner_syms)
                .cloned()
                .collect(),
        };
        let base_inner = Pointed::new(
            project_structure(&base.structure, self.inner.internal_schema()),
            base.points.clone(),
        );
        let old_classes = self.data_classes(&base.structure);
        let m_old = base.structure.size();
        // The data extensions of the old classes by `extra` fresh elements,
        // computed once per `extra` (at most `k_new`).
        let mut extensions: Vec<Option<Vec<Vec<usize>>>> = vec![None; k_new + 1];
        // The base is a member and both coordinates freeze the old elements,
        // so `with_data(inner, classes)` is the base plus the inner and data
        // facts that involve a fresh element. `lifted` holds the base plus
        // the inner candidate's fresh facts; `cand` adds the data facts.
        let mut lifted = base.structure.clone();
        let mut cand = base.structure.clone();
        for_each_candidate(
            &self.inner,
            &base_inner,
            k_new,
            &inner_hints,
            |inner, points| {
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
                let extensions =
                    extensions[extra].get_or_insert_with(|| self.extensions(&old_classes, extra));
                for classes in extensions.iter() {
                    cand.clone_from(&lifted);
                    self.add_data_facts(&mut cand, classes, m_old);
                    f(&mut Family::single(&mut cand, points))?;
                }
                ControlFlow::Continue(())
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use crate::class::SymbolicClass;
    use dds_logic::Formula;
    use dds_system::{new_var, old_var};

    fn base() -> FreeRelationalClass {
        let mut s = Schema::new();
        s.add_relation("E", 2).unwrap();
        FreeRelationalClass::new(s.finish())
    }

    #[test]
    fn weak_orders_are_sorted_and_ordered_bell() {
        for (m, count) in [1, 1, 3, 13, 75].into_iter().enumerate() {
            let orders = rank_extensions(&[], m, false);
            assert_eq!(orders.len(), count);
            assert!(orders.windows(2).all(|w| w[0] < w[1]), "{orders:?}");
        }
    }

    #[test]
    fn rank_extensions_preserve_old_order() {
        // Old ranks [0, 1]; add one element: ties (2) + gaps (3) = 5.
        let exts = rank_extensions(&[0, 1], 1, false);
        assert_eq!(exts.len(), 5);
        for e in &exts {
            assert!(e[0] < e[1], "old order broken: {e:?}");
        }
    }

    #[test]
    fn injective_rank_extensions_interleave_lowest_gap_first() {
        // The fresh element goes below the chain, between, then on top.
        assert_eq!(
            rank_extensions(&[0, 1], 1, true),
            vec![vec![1, 2, 0], vec![0, 2, 1], vec![0, 1, 2]]
        );
    }

    #[test]
    fn block_extensions_cover_all_choices() {
        // 2 old blocks, 1 extra element: join block 0, block 1, or open a
        // new one.
        assert_eq!(block_extensions(&[0, 1], 1).len(), 3);
        // 1 old block, 2 extras: the first joins it or opens block 1 (2),
        // the second joins one of the blocks so far or opens another (2, 3).
        assert_eq!(block_extensions(&[0], 2).len(), 5);
    }

    /// The definition of an element's rank: the number of distinct value
    /// classes strictly below it.
    fn reference_ranks(s: &Structure, lt: SymbolId) -> Vec<usize> {
        let same = |a: Element, b: Element| !s.holds(lt, &[a, b]) && !s.holds(lt, &[b, a]);
        s.elements()
            .map(|e| {
                let mut classes: Vec<Element> = Vec::new();
                for d in s.elements().filter(|&d| s.holds(lt, &[d, e])) {
                    if !classes.iter().any(|&c| same(c, d)) {
                        classes.push(d);
                    }
                }
                classes.len()
            })
            .collect()
    }

    #[test]
    fn order_ranks_match_the_definition() {
        let class = DataClass::new(base(), DataSpec::rational_order());
        let lt = class.data_symbol();
        for m in 0..=5 {
            let inner = Structure::new(class.inner().public_schema().clone(), m);
            for ranks in rank_extensions(&[], m, false) {
                let s = class.with_data(&inner, &ranks);
                assert_eq!(class.data_classes(&s), reference_ranks(&s, lt));
                assert_eq!(class.data_classes(&s), ranks);
            }
        }
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
    fn example3_initial_counts() {
        // k=2: both points equal (1 config), or distinct: two orientations
        // of the chain, two partitions into blocks.
        assert_eq!(DataClass::linear_order().initial_configs(2).len(), 3);
        assert_eq!(DataClass::equivalence().initial_configs(2).len(), 3);
        // k=3: 1 + 3·2 + 6 chains; 1 + 3·2 + 5 partitions.
        assert_eq!(DataClass::linear_order().initial_configs(3).len(), 13);
        assert_eq!(DataClass::equivalence().initial_configs(3).len(), 12);
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
        let classes = [
            DataClass::new(base(), DataSpec::nat_eq()),
            DataClass::new(base(), DataSpec::rational_order()),
            DataClass::linear_order(),
            DataClass::equivalence(),
        ];
        for class in classes {
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
                    // `⊙`: every element has a value of its own.
                    if class.spec().injective {
                        let mut sorted = new.clone();
                        sorted.sort_unstable();
                        sorted.dedup();
                        assert_eq!(sorted.len(), new.len());
                    }
                }
            }
        }
    }

    #[test]
    fn linear_order_grows_strictly_forever() {
        // Guard x_new > x_old can fire forever — the hallmark of dense
        // linear orders via amalgamation (no bound on the chain length).
        let class = DataClass::linear_order();
        let guard = Formula::rel_vars(class.data_symbol(), &[old_var(0), new_var(0)]);
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
