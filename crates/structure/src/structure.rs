//! Finite structures: domains plus interpretations of schema symbols (§2).

use crate::element::Element;
use crate::error::StructureError;
use crate::schema::{Schema, SymbolId, SymbolKind};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// One relation's tuple set, stored flat: rows of `arity` elements
/// concatenated in lexicographic order inside a single `Vec`.
///
/// The engine's amalgamation hot path resets a small candidate structure
/// once per placement and edits it once per fact subset; with per-tuple
/// `BTreeSet<Vec<Element>>` nodes every copy was a fresh allocation per
/// tuple. Flat rows make a copy one `memcpy` per relation and let
/// [`Rows::clone_from`] reuse the existing buffer. Membership is
/// a binary search over row indices; iteration is `chunks_exact` — both in
/// the same lexicographic order the `BTreeSet` produced, so canonical
/// configurations and every rendered artifact are unchanged.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Rows {
    arity: usize,
    /// Concatenated rows, lexicographically sorted. Empty for `arity == 0`
    /// — a nullary relation's single empty tuple cannot occupy row space,
    /// so its presence lives in `nullary`.
    data: Vec<Element>,
    /// Whether the empty tuple is present (`arity == 0` only).
    nullary: bool,
}

impl Rows {
    fn new(arity: usize) -> Rows {
        Rows {
            arity,
            data: Vec::new(),
            nullary: false,
        }
    }

    fn len(&self) -> usize {
        match self.data.len().checked_div(self.arity) {
            Some(rows) => rows,
            None => usize::from(self.nullary),
        }
    }

    /// Row index of `tuple`, or the insertion point keeping the rows sorted.
    fn search(&self, tuple: &[Element]) -> Result<usize, usize> {
        debug_assert_eq!(tuple.len(), self.arity);
        let n = self.len();
        let (mut lo, mut hi) = (0usize, n);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match self.data[mid * self.arity..(mid + 1) * self.arity].cmp(tuple) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    fn contains(&self, tuple: &[Element]) -> bool {
        if self.arity == 0 {
            return self.nullary;
        }
        self.search(tuple).is_ok()
    }

    fn insert(&mut self, tuple: &[Element]) {
        if self.arity == 0 {
            self.nullary = true;
            return;
        }
        if let Err(pos) = self.search(tuple) {
            let at = pos * self.arity;
            self.data.splice(at..at, tuple.iter().copied());
        }
    }

    fn remove(&mut self, tuple: &[Element]) {
        if self.arity == 0 {
            self.nullary = false;
            return;
        }
        if let Ok(pos) = self.search(tuple) {
            let at = pos * self.arity;
            self.data.drain(at..at + self.arity);
        }
    }

    /// Iterates rows in lexicographic order.
    fn iter(&self) -> impl Iterator<Item = &[Element]> {
        let empty = if self.arity == 0 && self.nullary {
            Some(&[][..])
        } else {
            None
        };
        let rows = if self.arity > 0 {
            Some(self.data.chunks_exact(self.arity))
        } else {
            None
        };
        empty.into_iter().chain(rows.into_iter().flatten())
    }

    /// Clones `src` into `self`, reusing the row buffer's allocation.
    fn clone_from_rows(&mut self, src: &Rows) {
        self.arity = src.arity;
        self.nullary = src.nullary;
        self.data.clone_from(&src.data);
    }
}

/// A finite structure (a "database" in the paper's terminology): a domain
/// `{e0, .., e(n-1)}` together with an interpretation of every relation
/// symbol as a set of tuples and every function symbol as a total function.
///
/// Invariants maintained by the mutation API:
/// * every tuple stored respects the declared arity;
/// * every element mentioned is inside the domain.
///
/// Totality of functions is *not* enforced during construction (structures
/// are built incrementally) but is checked by [`Structure::validate`], and
/// all substructure/morphism algorithms assume it.
///
/// ```
/// use dds_structure::{Schema, Structure, Element};
/// let mut schema = Schema::new();
/// let edge = schema.add_relation("E", 2).unwrap();
/// let schema = schema.finish();
///
/// let mut g = Structure::new(schema, 3);
/// g.add_fact(edge, &[Element(0), Element(1)]).unwrap();
/// g.add_fact(edge, &[Element(1), Element(2)]).unwrap();
/// assert!(g.holds(edge, &[Element(0), Element(1)]));
/// assert!(!g.holds(edge, &[Element(1), Element(0)]));
/// ```
#[derive(PartialEq, Eq)]
pub struct Structure {
    schema: Arc<Schema>,
    size: usize,
    /// Relation tables, indexed by symbol id (empty for function symbols).
    rels: Vec<Rows>,
    /// Function tables, indexed by symbol id (empty for relation symbols).
    funcs: Vec<BTreeMap<Vec<Element>, Element>>,
}

impl Clone for Structure {
    fn clone(&self) -> Structure {
        Structure {
            schema: self.schema.clone(),
            size: self.size,
            rels: self.rels.clone(),
            funcs: self.funcs.clone(),
        }
    }

    /// Reuses `self`'s relation buffers — the reason the amalgam enumeration
    /// can reset its candidate buffer without allocating.
    fn clone_from(&mut self, src: &Structure) {
        self.schema = src.schema.clone();
        self.size = src.size;
        if self.rels.len() == src.rels.len() {
            for (dst, s) in self.rels.iter_mut().zip(&src.rels) {
                dst.clone_from_rows(s);
            }
        } else {
            self.rels.clone_from(&src.rels);
        }
        self.funcs.clone_from(&src.funcs);
    }
}

impl Structure {
    /// Creates a structure with `size` elements and empty interpretations.
    pub fn new(schema: Arc<Schema>, size: usize) -> Structure {
        let rels = schema
            .symbols()
            .map(|s| match schema.kind(s) {
                SymbolKind::Relation => Rows::new(schema.arity(s)),
                SymbolKind::Function => Rows::new(0),
            })
            .collect();
        let n = schema.len();
        Structure {
            schema,
            size,
            rels,
            funcs: vec![BTreeMap::new(); n],
        }
    }

    /// The structure's schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of domain elements.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Iterates over the domain.
    pub fn elements(&self) -> impl Iterator<Item = Element> {
        (0..self.size as u32).map(Element)
    }

    /// True when both structures share the same schema (cheap pointer check
    /// first, deep comparison as fallback).
    pub fn same_schema(&self, other: &Structure) -> bool {
        Arc::ptr_eq(&self.schema, &other.schema) || self.schema == other.schema
    }

    fn check(
        &self,
        sym: SymbolId,
        tuple: &[Element],
        kind: SymbolKind,
    ) -> Result<(), StructureError> {
        if self.schema.kind(sym) != kind {
            return Err(StructureError::KindMismatch {
                symbol: self.schema.name(sym).to_owned(),
            });
        }
        if self.schema.arity(sym) != tuple.len() {
            return Err(StructureError::ArityMismatch {
                symbol: self.schema.name(sym).to_owned(),
                expected: self.schema.arity(sym),
                got: tuple.len(),
            });
        }
        for &e in tuple {
            if e.index() >= self.size {
                return Err(StructureError::ElementOutOfRange {
                    element: e.index(),
                    size: self.size,
                });
            }
        }
        Ok(())
    }

    /// Inserts a tuple into a relation.
    pub fn add_fact(&mut self, rel: SymbolId, tuple: &[Element]) -> Result<(), StructureError> {
        self.check(rel, tuple, SymbolKind::Relation)?;
        self.rels[rel.index()].insert(tuple);
        Ok(())
    }

    /// Removes a tuple from a relation (no-op when absent).
    pub fn remove_fact(&mut self, rel: SymbolId, tuple: &[Element]) -> Result<(), StructureError> {
        self.check(rel, tuple, SymbolKind::Relation)?;
        self.rels[rel.index()].remove(tuple);
        Ok(())
    }

    /// Whether a relation holds of a tuple.
    ///
    /// # Panics
    /// Panics when the symbol is not a relation of matching arity — this is a
    /// programmer error, not a data error.
    pub fn holds(&self, rel: SymbolId, tuple: &[Element]) -> bool {
        if let Err(e) = self.check(rel, tuple, SymbolKind::Relation) {
            panic!("Structure::holds: {e}");
        }
        self.rels[rel.index()].contains(tuple)
    }

    /// Defines the value of a function symbol on an argument tuple.
    pub fn set_func(
        &mut self,
        func: SymbolId,
        args: &[Element],
        value: Element,
    ) -> Result<(), StructureError> {
        self.check(func, args, SymbolKind::Function)?;
        if value.index() >= self.size {
            return Err(StructureError::ElementOutOfRange {
                element: value.index(),
                size: self.size,
            });
        }
        self.funcs[func.index()].insert(args.to_vec(), value);
        Ok(())
    }

    /// Applies a function symbol, returning `None` where undefined.
    pub fn try_apply(&self, func: SymbolId, args: &[Element]) -> Option<Element> {
        if self.check(func, args, SymbolKind::Function).is_err() {
            return None;
        }
        self.funcs[func.index()].get(args).copied()
    }

    /// Applies a function symbol.
    ///
    /// # Panics
    /// Panics when the symbol is misused or the function is undefined at
    /// `args` (structures are validated to be total before algorithms run).
    pub fn apply(&self, func: SymbolId, args: &[Element]) -> Element {
        if let Err(e) = self.check(func, args, SymbolKind::Function) {
            panic!("Structure::apply: {e}");
        }
        match self.funcs[func.index()].get(args) {
            Some(&v) => v,
            None => panic!(
                "Structure::apply: function `{}` undefined at {:?}",
                self.schema.name(func),
                args
            ),
        }
    }

    /// Iterates over the tuples of a relation in lexicographic order.
    pub fn rel_tuples(&self, rel: SymbolId) -> impl Iterator<Item = &[Element]> {
        self.rels[rel.index()].iter()
    }

    /// Number of tuples in a relation.
    pub fn rel_len(&self, rel: SymbolId) -> usize {
        self.rels[rel.index()].len()
    }

    /// Iterates over `(args, value)` entries of a function in lexicographic
    /// argument order.
    pub fn func_entries(&self, func: SymbolId) -> impl Iterator<Item = (&[Element], Element)> {
        self.funcs[func.index()]
            .iter()
            .map(|(k, &v)| (k.as_slice(), v))
    }

    /// Checks that every function symbol is total on the domain.
    pub fn validate(&self) -> Result<(), StructureError> {
        for f in self.schema.functions() {
            let arity = self.schema.arity(f);
            let expected = self.size.pow(arity as u32);
            if self.funcs[f.index()].len() != expected {
                return Err(StructureError::PartialFunction {
                    symbol: self.schema.name(f).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// Total number of relation tuples (a rough "how big is this database"
    /// measure used in diagnostics and benches).
    pub fn fact_count(&self) -> usize {
        self.rels.iter().map(|r| r.len()).sum()
    }

    // ------------------------------------------------------------------
    // Substructures (§2: induced, function-closed).
    // ------------------------------------------------------------------

    /// Closes a seed set under all function symbols and returns the closure
    /// in ascending element order.
    ///
    /// This computes the domain of the substructure *generated by* the seeds
    /// (§4.1); for purely relational schemas it just sorts and dedups.
    pub fn closure(&self, seeds: &[Element]) -> Vec<Element> {
        let mut in_set = vec![false; self.size];
        let mut worklist: Vec<Element> = Vec::with_capacity(seeds.len());
        for &s in seeds {
            assert!(s.index() < self.size, "closure: seed out of range");
            if !in_set[s.index()] {
                in_set[s.index()] = true;
                worklist.push(s);
            }
        }
        let funcs: Vec<SymbolId> = self.schema.functions().collect();
        // Fixpoint: apply every function to every argument tuple drawn from
        // the current set. Sizes are tiny (bounded by the class blowup), so
        // the simple recompute-all loop is clear and fast enough.
        let mut changed = !worklist.is_empty();
        while changed {
            changed = false;
            let current: Vec<Element> = (0..self.size as u32)
                .map(Element)
                .filter(|e| in_set[e.index()])
                .collect();
            for &f in &funcs {
                let arity = self.schema.arity(f);
                for args in tuples_over(&current, arity) {
                    if let Some(v) = self.try_apply(f, &args) {
                        if !in_set[v.index()] {
                            in_set[v.index()] = true;
                            changed = true;
                        }
                    }
                }
            }
        }
        (0..self.size as u32)
            .map(Element)
            .filter(|e| in_set[e.index()])
            .collect()
    }

    /// Builds the induced substructure on `subset`, which must be closed
    /// under the function symbols.
    ///
    /// Returns the substructure together with the list mapping each new
    /// element index to the original element (`result.1[new.index()] == old`).
    pub fn substructure(
        &self,
        subset: &[Element],
    ) -> Result<(Structure, Vec<Element>), StructureError> {
        let mut sorted: Vec<Element> = subset.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut old_to_new: BTreeMap<Element, Element> = BTreeMap::new();
        for (i, &e) in sorted.iter().enumerate() {
            if e.index() >= self.size {
                return Err(StructureError::ElementOutOfRange {
                    element: e.index(),
                    size: self.size,
                });
            }
            old_to_new.insert(e, Element::from_index(i));
        }
        let mut sub = Structure::new(self.schema.clone(), sorted.len());
        for r in self.schema.relations() {
            for tuple in self.rel_tuples(r) {
                if let Some(mapped) = map_tuple(tuple, &old_to_new) {
                    sub.rels[r.index()].insert(&mapped);
                }
            }
        }
        for f in self.schema.functions() {
            let arity = self.schema.arity(f);
            for args in tuples_over(&sorted, arity) {
                let v =
                    self.try_apply(f, &args)
                        .ok_or_else(|| StructureError::PartialFunction {
                            symbol: self.schema.name(f).to_owned(),
                        })?;
                let new_v = *old_to_new
                    .get(&v)
                    .ok_or_else(|| StructureError::NotClosed {
                        symbol: self.schema.name(f).to_owned(),
                    })?;
                let new_args: Vec<Element> = args.iter().map(|a| old_to_new[a]).collect();
                sub.funcs[f.index()].insert(new_args, new_v);
            }
        }
        Ok((sub, sorted))
    }

    /// The substructure *generated by* `seeds`: closure under functions, then
    /// induced restriction. Returns the substructure and the new→old element
    /// map.
    pub fn generated(&self, seeds: &[Element]) -> (Structure, Vec<Element>) {
        let closed = self.closure(seeds);
        self.substructure(&closed)
            .expect("closure is closed by construction")
    }

    // ------------------------------------------------------------------
    // Combinators.
    // ------------------------------------------------------------------

    /// Disjoint union of two structures over the same purely relational
    /// schema; elements of `other` are shifted by `self.size()`.
    pub fn disjoint_union(&self, other: &Structure) -> Result<Structure, StructureError> {
        if !self.same_schema(other) {
            return Err(StructureError::SchemaMismatch);
        }
        if let Some(f) = self.schema.functions().next() {
            // Functions on cross tuples would be undefined; the paper only
            // uses ⊎ for joint embedding, which we never need on functional
            // schemas.
            return Err(StructureError::PartialFunction {
                symbol: self.schema.name(f).to_owned(),
            });
        }
        let mut out = Structure::new(self.schema.clone(), self.size + other.size);
        for r in self.schema.relations() {
            for t in self.rel_tuples(r) {
                out.rels[r.index()].insert(t);
            }
            for t in other.rel_tuples(r) {
                let shifted: Vec<Element> = t
                    .iter()
                    .map(|e| Element::from_index(e.index() + self.size))
                    .collect();
                out.rels[r.index()].insert(&shifted);
            }
        }
        Ok(out)
    }

    /// Applies a bijective renaming of elements: `perm[old.index()] = new`.
    pub fn map_elements(&self, perm: &[Element]) -> Structure {
        assert_eq!(
            perm.len(),
            self.size,
            "map_elements: wrong permutation size"
        );
        let mut seen = vec![false; self.size];
        for &p in perm {
            assert!(
                p.index() < self.size && !seen[p.index()],
                "map_elements: not a permutation"
            );
            seen[p.index()] = true;
        }
        let mut out = Structure::new(self.schema.clone(), self.size);
        for r in self.schema.relations() {
            for t in self.rel_tuples(r) {
                let mapped: Vec<Element> = t.iter().map(|e| perm[e.index()]).collect();
                out.rels[r.index()].insert(&mapped);
            }
        }
        for f in self.schema.functions() {
            for (args, v) in self.func_entries(f) {
                let mapped: Vec<Element> = args.iter().map(|e| perm[e.index()]).collect();
                out.funcs[f.index()].insert(mapped, perm[v.index()]);
            }
        }
        out
    }

    /// Extends the domain with `extra` fresh isolated elements (no relations,
    /// functions left undefined on new tuples — callers must complete them).
    pub fn extend_domain(&self, extra: usize) -> Structure {
        let mut out = self.clone();
        out.size += extra;
        out
    }

    /// In-place variant of [`Structure::extend_domain`], for callers reusing
    /// a buffer (e.g. the amalgam candidate buffer) instead of cloning.
    pub fn extend_domain_in_place(&mut self, extra: usize) {
        self.size += extra;
    }
}

/// Maps a tuple through a partial element map; `None` if any component is
/// outside the map (used to restrict relations to a subset).
fn map_tuple(tuple: &[Element], map: &BTreeMap<Element, Element>) -> Option<Vec<Element>> {
    tuple.iter().map(|e| map.get(e).copied()).collect()
}

/// All tuples of the given arity over an element list (cartesian power, in
/// lexicographic order of index vectors). Exposed for the enumeration and
/// amalgamation modules.
pub fn tuples_over(elems: &[Element], arity: usize) -> Vec<Vec<Element>> {
    let mut out = Vec::new();
    if arity == 0 {
        out.push(Vec::new());
        return out;
    }
    if elems.is_empty() {
        return out;
    }
    let mut idx = vec![0usize; arity];
    loop {
        out.push(idx.iter().map(|&i| elems[i]).collect());
        // advance odometer
        let mut pos = arity;
        loop {
            if pos == 0 {
                return out;
            }
            pos -= 1;
            idx[pos] += 1;
            if idx[pos] < elems.len() {
                break;
            }
            idx[pos] = 0;
        }
    }
}

impl fmt::Debug for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Structure(n={}", self.size)?;
        for r in self.schema.relations() {
            if self.rel_len(r) > 0 {
                write!(f, ", {}={{", self.schema.name(r))?;
                for (i, t) in self.rel_tuples(r).enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{t:?}")?;
                }
                write!(f, "}}")?;
            }
        }
        for fun in self.schema.functions() {
            write!(f, ", {}=[", self.schema.name(fun))?;
            for (i, (args, v)) in self.func_entries(fun).enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{args:?}->{v:?}")?;
            }
            write!(f, "]")?;
        }
        write!(f, ")")
    }
}

impl fmt::Display for Structure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn graph_schema() -> (Arc<Schema>, SymbolId, SymbolId) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let red = s.add_relation("red", 1).unwrap();
        (s.finish(), e, red)
    }

    #[test]
    fn facts_roundtrip() {
        let (schema, e, red) = graph_schema();
        let mut g = Structure::new(schema, 3);
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();
        g.add_fact(red, &[Element(2)]).unwrap();
        assert!(g.holds(e, &[Element(0), Element(1)]));
        assert!(!g.holds(e, &[Element(1), Element(0)]));
        assert!(g.holds(red, &[Element(2)]));
        assert_eq!(g.fact_count(), 2);
        g.remove_fact(e, &[Element(0), Element(1)]).unwrap();
        assert!(!g.holds(e, &[Element(0), Element(1)]));
    }

    #[test]
    fn arity_and_range_checked() {
        let (schema, e, _) = graph_schema();
        let mut g = Structure::new(schema, 2);
        assert!(matches!(
            g.add_fact(e, &[Element(0)]),
            Err(StructureError::ArityMismatch { .. })
        ));
        assert!(matches!(
            g.add_fact(e, &[Element(0), Element(7)]),
            Err(StructureError::ElementOutOfRange { .. })
        ));
    }

    #[test]
    fn functions_and_validation() {
        let mut s = Schema::new();
        let f = s.add_function("f", 1).unwrap();
        let schema = s.finish();
        let mut a = Structure::new(schema, 2);
        assert!(a.validate().is_err());
        a.set_func(f, &[Element(0)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(1)).unwrap();
        a.validate().unwrap();
        assert_eq!(a.apply(f, &[Element(0)]), Element(1));
    }

    #[test]
    fn closure_under_functions() {
        let mut s = Schema::new();
        let f = s.add_function("f", 1).unwrap();
        let schema = s.finish();
        let mut a = Structure::new(schema, 4);
        // f: 0 -> 1 -> 2 -> 2, 3 -> 3
        a.set_func(f, &[Element(0)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(2)).unwrap();
        a.set_func(f, &[Element(2)], Element(2)).unwrap();
        a.set_func(f, &[Element(3)], Element(3)).unwrap();
        assert_eq!(
            a.closure(&[Element(0)]),
            vec![Element(0), Element(1), Element(2)]
        );
        assert_eq!(a.closure(&[Element(3)]), vec![Element(3)]);
        assert_eq!(a.closure(&[]), Vec::<Element>::new());
    }

    #[test]
    fn generated_substructure_renumbers() {
        let (schema, e, red) = graph_schema();
        let mut g = Structure::new(schema, 4);
        g.add_fact(e, &[Element(1), Element(3)]).unwrap();
        g.add_fact(e, &[Element(3), Element(1)]).unwrap();
        g.add_fact(red, &[Element(3)]).unwrap();
        g.add_fact(e, &[Element(0), Element(1)]).unwrap(); // dropped: 0 outside
        let (sub, names) = g.generated(&[Element(3), Element(1)]);
        assert_eq!(sub.size(), 2);
        assert_eq!(names, vec![Element(1), Element(3)]);
        assert!(sub.holds(e, &[Element(0), Element(1)]));
        assert!(sub.holds(e, &[Element(1), Element(0)]));
        assert!(sub.holds(red, &[Element(1)]));
        assert!(!sub.holds(red, &[Element(0)]));
        assert_eq!(sub.fact_count(), 3);
    }

    #[test]
    fn substructure_requires_closed_subset() {
        let mut s = Schema::new();
        let f = s.add_function("f", 1).unwrap();
        let schema = s.finish();
        let mut a = Structure::new(schema, 2);
        a.set_func(f, &[Element(0)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(1)).unwrap();
        assert!(matches!(
            a.substructure(&[Element(0)]),
            Err(StructureError::NotClosed { .. })
        ));
        assert!(a.substructure(&[Element(0), Element(1)]).is_ok());
    }

    #[test]
    fn disjoint_union_shifts() {
        let (schema, e, _) = graph_schema();
        let mut a = Structure::new(schema.clone(), 2);
        a.add_fact(e, &[Element(0), Element(1)]).unwrap();
        let mut b = Structure::new(schema, 1);
        b.add_fact(e, &[Element(0), Element(0)]).unwrap();
        let u = a.disjoint_union(&b).unwrap();
        assert_eq!(u.size(), 3);
        assert!(u.holds(e, &[Element(0), Element(1)]));
        assert!(u.holds(e, &[Element(2), Element(2)]));
        assert_eq!(u.fact_count(), 2);
    }

    #[test]
    fn map_elements_permutes() {
        let (schema, e, red) = graph_schema();
        let mut a = Structure::new(schema, 2);
        a.add_fact(e, &[Element(0), Element(1)]).unwrap();
        a.add_fact(red, &[Element(0)]).unwrap();
        let b = a.map_elements(&[Element(1), Element(0)]);
        assert!(b.holds(e, &[Element(1), Element(0)]));
        assert!(b.holds(red, &[Element(1)]));
        assert!(!b.holds(red, &[Element(0)]));
    }

    #[test]
    fn tuples_over_enumerates_cartesian_power() {
        let elems = [Element(0), Element(2)];
        let ts = tuples_over(&elems, 2);
        assert_eq!(ts.len(), 4);
        assert_eq!(ts[0], vec![Element(0), Element(0)]);
        assert_eq!(ts[3], vec![Element(2), Element(2)]);
        assert_eq!(tuples_over(&elems, 0), vec![Vec::<Element>::new()]);
        assert!(tuples_over(&[], 2).is_empty());
    }
}
