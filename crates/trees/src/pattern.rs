//! Tree patterns: the symbolic configurations of the tree class.
//!
//! A pattern is a cca-closed set of nodes of some run tree with the induced
//! descendant order, document order and states. Nodes are numbered in
//! document (pre-)order, which makes the representation canonical. The
//! `ancestormost` and `descendantmost` pointers are *determined* by the
//! pattern (topmost / lowest same-component pattern node on the respective
//! path — see DESIGN.md §4.3), so they are recomputed rather than stored;
//! the `leftmost_q`/`rightmost_q` child pointers are abstracted away (the
//! crate docs say why `Empty` answers of the class are not known to be
//! sound).

use crate::automaton::TreeAutomaton;
use crate::tree::Tree;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A pattern: nodes in document order, pattern-parent pointers, states, and
/// register positions.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct TreePattern {
    /// Pattern parent (closest pattern ancestor); `None` exactly for node 0.
    pub parent: Vec<Option<usize>>,
    /// Automaton state of each node.
    pub states: Vec<u32>,
    /// `points[i]` = node holding register `i`'s value.
    pub points: Vec<u32>,
}

impl std::fmt::Debug for TreePattern {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "TreePattern(parent={:?}, states={:?} @ {:?})",
            self.parent, self.states, self.points
        )
    }
}

impl TreePattern {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// True when the pattern has no nodes (never valid).
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// Pattern children of `v`, in document order.
    pub fn children(&self, v: usize) -> Vec<usize> {
        (0..self.len())
            .filter(|&w| self.parent[w] == Some(v))
            .collect()
    }

    /// Is `a` a pattern-ancestor of (or equal to) `b`?
    pub fn is_ancestor(&self, a: usize, b: usize) -> bool {
        let mut cur = Some(b);
        while let Some(x) = cur {
            if x == a {
                return true;
            }
            cur = self.parent[x];
        }
        false
    }

    /// Closest common pattern ancestor (patterns are cca-closed, so this is
    /// the real tree's cca).
    pub fn cca(&self, a: usize, b: usize) -> usize {
        let mut anc: Vec<usize> = Vec::new();
        let mut cur = Some(a);
        while let Some(x) = cur {
            anc.push(x);
            cur = self.parent[x];
        }
        let mut cur = Some(b);
        while let Some(x) = cur {
            if anc.contains(&x) {
                return x;
            }
            cur = self.parent[x];
        }
        0
    }

    /// Determined `ancestormost_Γ(v)`: topmost pattern node with component
    /// `comp` on `v`'s pattern root path (self when none).
    pub fn amost(&self, aut: &TreeAutomaton, v: usize, comp: usize) -> usize {
        let mut best = v;
        let mut cur = Some(v);
        while let Some(x) = cur {
            if aut.comp(self.states[x]) == comp {
                best = x;
            }
            cur = self.parent[x];
        }
        best
    }

    /// Determined `descendantmost(v)`: the lowest same-component pattern
    /// descendant (self when none / branching component).
    pub fn dmost(&self, aut: &TreeAutomaton, v: usize) -> usize {
        let c = aut.comp(self.states[v]);
        if aut.is_branching(c) {
            return v;
        }
        let mut best = v;
        for w in 0..self.len() {
            if aut.comp(self.states[w]) == c && self.is_ancestor(v, w) && self.is_ancestor(best, w)
            {
                best = w;
            }
        }
        best
    }

    /// Components present on `v`'s pattern root path (inclusive).
    pub fn path_components(&self, aut: &TreeAutomaton, v: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        let mut cur = Some(v);
        while let Some(x) = cur {
            out.insert(aut.comp(self.states[x]));
            cur = self.parent[x];
        }
        out
    }

    /// Membership check: the necessary conditions derived from the pointer
    /// discipline (see module docs). These conditions alone do not make
    /// `Empty` engine answers sound: the successor enumeration can miss
    /// runs whose pointer nodes lie outside both configurations (see the
    /// crate docs).
    pub fn is_valid(&self, aut: &TreeAutomaton) -> bool {
        let n = self.len();
        if n == 0 || self.parent[0].is_some() {
            return false;
        }
        if self.points.iter().any(|&p| p as usize >= n) {
            return false;
        }
        // Document-order numbering sanity: parents precede children.
        if (1..n).any(|v| match self.parent[v] {
            Some(p) => p >= v,
            None => true,
        }) {
            return false;
        }
        // Root state; all states groundable.
        if !aut.is_root_state(self.states[0]) {
            return false;
        }
        if self.states.iter().any(|&q| !aut.is_groundable(q)) {
            return false;
        }
        // Per-edge vertical feasibility with the ancestormost component
        // discipline: intermediates only from components on the parent's
        // root path.
        for v in 1..n {
            let p = self.parent[v].expect("non-root");
            let allowed = self.path_components(aut, p);
            if !desc_allowed(aut, self.states[v], self.states[p], &allowed) {
                return false;
            }
        }
        // Linear components: same-component descendants of a node form a
        // chain (pairwise comparable).
        for v in 0..n {
            let c = aut.comp(self.states[v]);
            if aut.is_branching(c) {
                continue;
            }
            let descs: Vec<usize> = (v + 1..n)
                .filter(|&w| aut.comp(self.states[w]) == c && self.is_ancestor(v, w))
                .collect();
            for (i, &a) in descs.iter().enumerate() {
                for &b in &descs[i + 1..] {
                    if !self.is_ancestor(a, b) && !self.is_ancestor(b, a) {
                        return false;
                    }
                }
            }
        }
        // Sibling feasibility: consecutive pattern children must be
        // embeddable under distinct chain positions in order.
        for v in 0..n {
            let ch = self.children(v);
            for w in ch.windows(2) {
                if !sibling_pair_feasible(aut, self.states[v], self.states[w[0]], self.states[w[1]])
                {
                    return false;
                }
            }
        }
        true
    }

    /// Closure of a seed node set under cca and the determined pointers —
    /// the substructure generated by the seeds.
    pub fn closure(&self, aut: &TreeAutomaton, seeds: &[usize]) -> BTreeSet<usize> {
        let mut set: BTreeSet<usize> = seeds.iter().copied().collect();
        loop {
            let mut add = BTreeSet::new();
            let items: Vec<usize> = set.iter().copied().collect();
            for &a in &items {
                for &b in &items {
                    add.insert(self.cca(a, b));
                }
                for c in 0..aut.num_components() {
                    add.insert(self.amost(aut, a, c));
                }
                add.insert(self.dmost(aut, a));
            }
            let before = set.len();
            set.extend(add);
            if set.len() == before {
                return set;
            }
        }
    }

    /// Restricts to a closed node subset, renumbering in document order;
    /// `point_map` gives the register nodes inside the subset.
    pub fn restrict(&self, keep: &BTreeSet<usize>, new_points: &[usize]) -> TreePattern {
        let order: Vec<usize> = keep.iter().copied().collect(); // already doc order
        let index_of = |v: usize| order.iter().position(|&x| x == v).expect("kept");
        let parent = order
            .iter()
            .map(|&v| {
                // Closest kept ancestor.
                let mut cur = self.parent[v];
                while let Some(x) = cur {
                    if keep.contains(&x) {
                        return Some(index_of(x));
                    }
                    cur = self.parent[x];
                }
                None
            })
            .collect();
        TreePattern {
            parent,
            states: order.iter().map(|&v| self.states[v]).collect(),
            points: new_points.iter().map(|&v| index_of(v) as u32).collect(),
        }
    }

    /// Materializes the pattern as a structure over `TreeSchema(A)` —
    /// exact for quantifier-free guards, since patterns are induced
    /// substructures.
    pub fn materialize(
        &self,
        aut: &TreeAutomaton,
        schema: &Arc<Schema>,
        label_syms: &[SymbolId],
    ) -> Structure {
        let mut s = Structure::new(schema.clone(), self.len());
        let le = schema.lookup("<=").expect("tree schema");
        let doc = schema.lookup("<<").expect("tree schema");
        let cca = schema.lookup("cca").expect("tree schema");
        for v in 0..self.len() {
            s.add_fact(
                label_syms[aut.label(self.states[v])],
                &[Element::from_index(v)],
            )
            .expect("valid");
            for w in 0..self.len() {
                if self.is_ancestor(v, w) {
                    s.add_fact(le, &[Element::from_index(v), Element::from_index(w)])
                        .expect("valid");
                }
                if v < w {
                    s.add_fact(doc, &[Element::from_index(v), Element::from_index(w)])
                        .expect("valid");
                }
                s.set_func(
                    cca,
                    &[Element::from_index(v), Element::from_index(w)],
                    Element::from_index(self.cca(v, w)),
                )
                .expect("valid");
            }
        }
        s
    }

    /// Extracts the pattern induced by a node subset of a concrete run
    /// (used by cross-validation tests: closures of real runs must pass
    /// `is_valid`).
    pub fn from_run_subset(
        t: &Tree,
        states: &[u32],
        subset: &BTreeSet<usize>,
        points: &[usize],
    ) -> TreePattern {
        let doc_idx = t.doc_index();
        let mut order: Vec<usize> = subset.iter().copied().collect();
        order.sort_by_key(|&v| doc_idx[v]);
        let index_of = |v: usize| order.iter().position(|&x| x == v).expect("kept");
        let parent = order
            .iter()
            .map(|&v| {
                let mut cur = t.parent(v);
                while let Some(x) = cur {
                    if subset.contains(&x) {
                        return Some(index_of(x));
                    }
                    cur = t.parent(x);
                }
                None
            })
            .collect();
        TreePattern {
            parent,
            states: order.iter().map(|&v| states[v]).collect(),
            points: points.iter().map(|&v| index_of(v) as u32).collect(),
        }
    }
}

/// Can a `target`-state node appear strictly below a `parent_state` node
/// with all strictly-intermediate states drawn from `allowed` components?
pub fn desc_allowed(
    aut: &TreeAutomaton,
    target: u32,
    parent_state: u32,
    allowed: &BTreeSet<usize>,
) -> bool {
    if aut.kid(target, parent_state) {
        return true;
    }
    let n = aut.num_states() as u32;
    let mut frontier: Vec<u32> = (0..n)
        .filter(|&s| aut.kid(s, parent_state) && allowed.contains(&aut.comp(s)))
        .collect();
    let mut seen: Vec<bool> = vec![false; n as usize];
    for &s in &frontier {
        seen[s as usize] = true;
    }
    while let Some(s) = frontier.pop() {
        if aut.kid(target, s) {
            return true;
        }
        for s2 in 0..n {
            if !seen[s2 as usize] && aut.kid(s2, s) && allowed.contains(&aut.comp(s2)) {
                seen[s2 as usize] = true;
                frontier.push(s2);
            }
        }
    }
    false
}

/// Necessary condition for two pattern children to sit (in order) below one
/// node: two chain positions `s1 →ns+ s2` on a completable children chain of
/// `q`, with each child realizable at-or-below its position.
pub fn sibling_pair_feasible(aut: &TreeAutomaton, q: u32, c1: u32, c2: u32) -> bool {
    let n = aut.num_states() as u32;
    for s1 in 0..n {
        if !aut.kid(s1, q) || !(s1 == c1 || aut.desc(c1, s1)) {
            continue;
        }
        for s2 in 0..n {
            if !aut.kid(s2, q) || !(s2 == c2 || aut.desc(c2, s2)) {
                continue;
            }
            if aut.ns_plus(s2, s1) {
                return true;
            }
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::fixtures::{chain_automaton, star_automaton};
    use crate::pointers::{pointer_closure, run_pointers};

    #[test]
    fn chain_patterns_validate() {
        let aut = chain_automaton();
        // Pattern: root R with (gapped) descendant B.
        let p = TreePattern {
            parent: vec![None, Some(0)],
            states: vec![0, 2],
            points: vec![1],
        };
        assert!(p.is_valid(&aut));
        // B cannot be an ancestor of R.
        let bad = TreePattern {
            parent: vec![None, Some(0)],
            states: vec![2, 0],
            points: vec![1],
        };
        assert!(!bad.is_valid(&aut));
        // Non-root top state rejected.
        let bad2 = TreePattern {
            parent: vec![None],
            states: vec![1],
            points: vec![0],
        };
        assert!(!bad2.is_valid(&aut));
    }

    #[test]
    fn sibling_feasibility_enforced() {
        let aut = chain_automaton(); // unary: no two children ever
        let two_kids = TreePattern {
            parent: vec![None, Some(0), Some(0)],
            states: vec![0, 2, 2],
            points: vec![1, 2],
        };
        assert!(!two_kids.is_valid(&aut));
        let star = star_automaton();
        let two_kids_star = TreePattern {
            parent: vec![None, Some(0), Some(0)],
            states: vec![0, 1, 1],
            points: vec![1, 2],
        };
        assert!(two_kids_star.is_valid(&star));
    }

    #[test]
    fn closures_of_real_runs_validate() {
        // Soundness of is_valid: pointer closures of real run subsets pass.
        let aut = chain_automaton();
        let mut t = Tree::leaf(0);
        let a1 = t.push_child(0, 1);
        let a2 = t.push_child(a1, 1);
        let a3 = t.push_child(a2, 1);
        let b = t.push_child(a3, 2);
        let states = vec![0, 1, 1, 1, 2];
        assert!(aut.is_run(&t, &states));
        let ptr = run_pointers(&aut, &t, &states);
        for seed in [a1, a2, a3, b] {
            let cl = pointer_closure(&t, &ptr, &[seed]);
            let pat = TreePattern::from_run_subset(&t, &states, &cl, &[seed]);
            assert!(pat.is_valid(&aut), "closure of {seed}: {pat:?}");
        }
    }

    #[test]
    fn closure_and_restrict_roundtrip() {
        let aut = chain_automaton();
        // R - A - A - B pattern, point on the deep B.
        let p = TreePattern {
            parent: vec![None, Some(0), Some(1), Some(2)],
            states: vec![0, 1, 1, 2],
            points: vec![3],
        };
        let cl = p.closure(&aut, &[3]);
        // dmost of A-top pulls the deepest A; amost pulls the top A and root.
        assert!(cl.contains(&0));
        let sub = p.restrict(&cl, &[3]);
        assert!(sub.is_valid(&aut));
        assert_eq!(sub.points.len(), 1);
    }

    #[test]
    fn materialize_matches_treedb_shape() {
        let aut = chain_automaton();
        let schema = crate::tree::tree_schema(aut.labels());
        let syms = crate::tree::label_symbols(&schema, aut.labels());
        let p = TreePattern {
            parent: vec![None, Some(0)],
            states: vec![0, 2],
            points: vec![1],
        };
        let db = p.materialize(&aut, &schema, &syms);
        db.validate().unwrap();
        let le = schema.lookup("<=").unwrap();
        assert!(db.holds(le, &[Element(0), Element(1)]));
        assert!(!db.holds(le, &[Element(1), Element(0)]));
    }
}
