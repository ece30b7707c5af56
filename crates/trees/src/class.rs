//! The [`TreeClass`]: plugging tree patterns into the Theorem 5 engine.
//!
//! One glue builds every pattern. It places the `k` new register values
//! into the old pattern: on an existing node, splitting a pattern edge, as
//! a fresh leaf child, or diverging off an edge through a fresh cca node
//! (Appendix E's case split of Figures 2/3). Then it closes the placement
//! under fresh pointer nodes (§5.4): a fresh point may get a fresh
//! `ancestormost_Γ` on its root path, and a fresh point, cca node or
//! `ancestormost` node may get a fresh same-component `descendantmost`
//! below it, with the cca node that hangs it off an existing edge. Each
//! node asks for each pointer once, so the closure adds at most
//! `k · (components + 1)` pointer nodes and their cca nodes, a bound of the
//! automaton in the spirit of Lemma 14. The amalgam must keep the old
//! pattern's *determined* pointers intact (its `ancestormost` /
//! `descendantmost` values are frozen — the executable form of Lemma 25's
//! "the pointers are defined the same way"), be generated by its points,
//! and pass the membership conditions; the guard is evaluated exactly on the
//! materialized amalgam. The successor is the closure of the new points.
//!
//! The initial patterns are the same glue under `true`, from the 0-point
//! patterns: the root alone, or the root with its same-component
//! `descendantmost` (every closure holds both).
//!
//! `NonEmpty` answers are certified through the bounded baseline (an actual
//! accepted tree plus a re-validated run). `tests/completeness_oracle.rs`
//! checks, for every accepted run of at most 6 nodes of every corpus
//! automaton and up to 2 registers, that the pattern of each valuation is
//! initial and that each step between two valuations is a glue step; larger
//! runs are not checked.

use crate::automaton::TreeAutomaton;
use crate::baseline::bounded_emptiness;
use crate::pattern::{sibling_pair_feasible, TreePattern};
use crate::tree::{label_symbols, tree_schema};
use dds_core::{Pointed, SymbolicClass, Trace};
use dds_logic::eval::eval;
use dds_logic::Formula;
use dds_structure::{Element, Schema, Structure, SymbolId};
use dds_system::{Run, System};
use std::collections::HashSet;
use std::sync::Arc;

/// Node budget for certifying a `NonEmpty` answer through the bounded
/// baseline.
const CERTIFY_NODES: usize = 9;

/// The tree class `Treedb(L)` for the language of a [`TreeAutomaton`].
#[derive(Clone, Debug)]
pub struct TreeClass {
    aut: TreeAutomaton,
    schema: Arc<Schema>,
    label_syms: Vec<SymbolId>,
}

impl TreeClass {
    /// Builds the class.
    pub fn new(aut: TreeAutomaton) -> TreeClass {
        let schema = tree_schema(aut.labels());
        let label_syms = label_symbols(&schema, aut.labels());
        TreeClass {
            aut,
            schema,
            label_syms,
        }
    }

    /// The automaton.
    pub fn automaton(&self) -> &TreeAutomaton {
        &self.aut
    }

    /// Glues `k` new points onto each of `cfgs` under `guard`; returns the
    /// successors in first-occurrence order.
    fn glue<'a>(
        &self,
        cfgs: impl IntoIterator<Item = &'a TreePattern>,
        guard: &Formula,
        k: usize,
    ) -> Vec<TreePattern> {
        let (mut out, mut seen) = (Vec::new(), HashSet::new());
        for cfg in cfgs {
            let mut glue = Glue {
                class: self,
                cfg,
                guard,
                k,
                out: &mut out,
                seen: &mut seen,
            };
            glue.place(&Arena::from_pattern(cfg), &mut Vec::new());
        }
        out
    }

    /// Groundable states of component `comp`, or of every component.
    fn states(&self, comp: Option<usize>) -> Vec<u32> {
        (0..self.aut.num_states() as u32)
            .filter(|&q| self.aut.is_groundable(q) && comp.map_or(true, |c| self.aut.comp(q) == c))
            .collect()
    }

    /// The 0-point patterns: a root, alone or with a fresh same-component
    /// `descendantmost` below it.
    fn empty_patterns(&self) -> Vec<TreePattern> {
        let mut out = Vec::new();
        for q in self.states(None) {
            if !self.aut.is_root_state(q) {
                continue;
            }
            out.push(TreePattern {
                parent: vec![None],
                states: vec![q],
                points: vec![],
            });
            let c = self.aut.comp(q);
            if !self.aut.is_branching(c) {
                out.extend(self.states(Some(c)).into_iter().map(|d| TreePattern {
                    parent: vec![None, Some(0)],
                    states: vec![q, d],
                    points: vec![],
                }));
            }
        }
        out
    }

    /// Every way to add one fresh node with a state from `states`: on the
    /// edge above a node of `above`, as a leaf child of a node of `under` at
    /// any sibling gap, or (with `diverge`) as the other child of a fresh
    /// cca node on the edge above a node of `above`, on either side.
    ///
    /// Each arena on the way to an amalgam is the pattern induced by a set
    /// of nodes of a run, so each insertion must keep what any such pattern
    /// satisfies: a fresh node's state reaches its child's and is reached
    /// from its parent's, and consecutive children fit under their parent.
    fn insertions(
        &self,
        arena: &Arena,
        states: &[u32],
        above: &[usize],
        under: &[usize],
        diverge: bool,
    ) -> Vec<(Arena, usize)> {
        let aut = &self.aut;
        let parent = |id: usize| arena.parent[id].expect("non-root");
        let on_edge = |id: usize, q: u32| {
            aut.desc(arena.state[id], q) && aut.desc(q, arena.state[parent(id)])
        };
        let mut out = Vec::new();
        let mut keep = |a2: Arena, fresh: usize, changed: &[usize]| {
            if changed.iter().all(|&v| a2.siblings_fit(aut, v)) {
                out.push((a2, fresh));
            }
        };
        for &id in above {
            for &q in states.iter().filter(|&&q| on_edge(id, q)) {
                let mut a2 = arena.clone();
                let fresh = a2.split_edge(id, q);
                keep(a2, fresh, &[parent(id)]);
            }
        }
        for &id in under {
            for gap in 0..=arena.children[id].len() {
                for &q in states.iter().filter(|&&q| aut.desc(q, arena.state[id])) {
                    let mut a2 = arena.clone();
                    let fresh = a2.insert_child(id, gap, q);
                    keep(a2, fresh, &[id]);
                }
            }
        }
        if diverge {
            for &id in above {
                for &wq in states.iter().filter(|&&q| on_edge(id, q)) {
                    for &yq in states.iter().filter(|&&q| aut.desc(q, wq)) {
                        for side in [0usize, 1] {
                            let mut a2 = arena.clone();
                            let w = a2.split_edge(id, wq);
                            let fresh = a2.insert_child(w, side, yq);
                            keep(a2, fresh, &[parent(id), w]);
                        }
                    }
                }
            }
        }
        out
    }

    /// A fresh `ancestormost_comp(x)`: a `comp` node on `x`'s root path,
    /// above the path's topmost `comp` node and below every old node (whose
    /// pointers are frozen).
    fn fresh_amost(&self, arena: &Arena, old: usize, x: usize, comp: usize) -> Vec<(Arena, usize)> {
        let mut path = vec![x];
        while let Some(p) = arena.parent[*path.last().expect("nonempty")] {
            path.push(p);
        }
        let top = path
            .iter()
            .rposition(|&v| self.aut.comp(arena.state[v]) == comp)
            .unwrap_or(0);
        let above: Vec<usize> = path[top..]
            .iter()
            .copied()
            .take_while(|&v| v >= old)
            .collect();
        self.insertions(arena, &self.states(Some(comp)), &above, &[], false)
    }

    /// A fresh `descendantmost(x)` in a linear component: a same-component
    /// node below the lowest one under `x`, when that one is fresh.
    fn fresh_dmost(&self, arena: &Arena, old: usize, x: usize) -> Vec<(Arena, usize)> {
        let comp = self.aut.comp(arena.state[x]);
        if self.aut.is_branching(comp) {
            return Vec::new();
        }
        let same = |w: &&usize| self.aut.comp(arena.state[**w]) == comp;
        let mut low = x;
        while let Some(&w) = arena.children[low].iter().find(same) {
            low = w;
        }
        if low < old {
            return Vec::new();
        }
        let below = arena.children[low].clone();
        self.insertions(arena, &self.states(Some(comp)), &below, &[low], true)
    }
}

/// A pointer of a fresh node that the glue may add as a fresh node.
#[derive(Clone, Copy)]
enum Pointer {
    /// `ancestormost_Γ` of the node, for component `Γ`.
    Amost(usize, usize),
    /// `descendantmost` of the node.
    Dmost(usize),
}

/// One glue: amalgams of `cfg` with `k` new points, under `guard`, whose
/// successors go to `out` in first-occurrence order.
struct Glue<'a> {
    class: &'a TreeClass,
    cfg: &'a TreePattern,
    guard: &'a Formula,
    k: usize,
    out: &'a mut Vec<TreePattern>,
    seen: &'a mut HashSet<TreePattern>,
}

impl Glue<'_> {
    /// Places the next register's value, then closes under pointers.
    fn place(&mut self, arena: &Arena, chosen: &mut Vec<usize>) {
        let old = self.cfg.len();
        if chosen.len() == self.k {
            let ncomp = self.class.aut.num_components();
            let mut slots = Vec::new();
            for x in old..arena.len() {
                if chosen.contains(&x) {
                    slots.extend((0..ncomp).map(|c| Pointer::Amost(x, c)));
                }
                slots.push(Pointer::Dmost(x));
            }
            self.close(arena, chosen, &mut slots, 0);
            return;
        }
        let ids: Vec<usize> = (0..arena.len()).collect();
        for &id in &ids {
            chosen.push(id);
            self.place(arena, chosen);
            chosen.pop();
        }
        let edges = &ids[1..]; // every node but the root has an edge above it
        let states = self.class.states(None);
        for (a2, fresh) in self.class.insertions(arena, &states, edges, &ids, true) {
            chosen.push(fresh);
            self.place(&a2, chosen);
            chosen.pop();
        }
    }

    /// Decides `slots[i..]`: each pointer is a node the arena already has,
    /// or a fresh one.
    fn close(&mut self, arena: &Arena, chosen: &[usize], slots: &mut Vec<Pointer>, i: usize) {
        let Some(&slot) = slots.get(i) else {
            return self.finish(arena, chosen);
        };
        self.close(arena, chosen, slots, i + 1);
        let old = self.cfg.len();
        let options = match slot {
            Pointer::Amost(x, c) => self.class.fresh_amost(arena, old, x, c),
            Pointer::Dmost(x) => self.class.fresh_dmost(arena, old, x),
        };
        let amost = matches!(slot, Pointer::Amost(..));
        for (a2, fresh) in options {
            // An `ancestormost` node's own `descendantmost` may be fresh
            // too; its other pointers are those of the node below it.
            if amost {
                slots.push(Pointer::Dmost(fresh));
            }
            self.close(&a2, chosen, slots, i + 1);
            if amost {
                slots.pop();
            }
        }
    }

    /// Checks the amalgam and records the successor.
    fn finish(&mut self, arena: &Arena, chosen: &[usize]) {
        let aut = &self.class.aut;
        let cfg = self.cfg;
        let (mut amalgam, index_of) = arena.to_pattern();
        let new_points: Vec<usize> = chosen.iter().map(|&id| index_of[id]).collect();
        amalgam.points = new_points.iter().map(|&p| p as u32).collect();
        if !amalgam.is_valid(aut) {
            return;
        }
        // Frozen determined pointers of old nodes.
        for old_idx in 0..cfg.len() {
            let a_idx = index_of[old_idx];
            for c in 0..aut.num_components() {
                if index_of[cfg.amost(aut, old_idx, c)] != amalgam.amost(aut, a_idx, c) {
                    return;
                }
            }
            if index_of[cfg.dmost(aut, old_idx)] != amalgam.dmost(aut, a_idx) {
                return;
            }
        }
        // Every node is generated by the points.
        let old_points: Vec<usize> = cfg.points.iter().map(|&p| index_of[p as usize]).collect();
        let all: Vec<usize> = old_points.iter().chain(&new_points).copied().collect();
        if amalgam.closure(aut, &all).len() != amalgam.len() {
            return;
        }
        // Guard on the materialized amalgam.
        let db = amalgam.materialize(aut, &self.class.schema, &self.class.label_syms);
        let combined: Vec<Element> = old_points
            .iter()
            .zip(&new_points)
            .flat_map(|(&o, &n)| [Element::from_index(o), Element::from_index(n)])
            .collect();
        if !eval(self.guard, &db, &combined).unwrap_or(false) {
            return;
        }
        // Successor configuration = closure of the new points.
        let keep = amalgam.closure(aut, &new_points);
        let next = amalgam.restrict(&keep, &new_points);
        debug_assert!(next.is_valid(aut));
        if self.seen.insert(next.clone()) {
            self.out.push(next);
        }
    }
}

/// A mutable pattern with stable node ids (the old pattern's nodes keep
/// their indices; fresh nodes are appended), supporting the gluing
/// insertions.
#[derive(Clone, Debug)]
struct Arena {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>, // ordered
    state: Vec<u32>,
}

impl Arena {
    fn from_pattern(p: &TreePattern) -> Arena {
        let n = p.len();
        let mut a = Arena {
            parent: p.parent.clone(),
            children: vec![Vec::new(); n],
            state: p.states.clone(),
        };
        for v in 0..n {
            if let Some(par) = p.parent[v] {
                a.children[par].push(v); // pattern order = doc order
            }
        }
        a
    }

    fn len(&self) -> usize {
        self.parent.len()
    }

    /// Do consecutive children of `v` fit under it (see
    /// [`sibling_pair_feasible`])?
    fn siblings_fit(&self, aut: &TreeAutomaton, v: usize) -> bool {
        self.children[v]
            .windows(2)
            .all(|w| sibling_pair_feasible(aut, self.state[v], self.state[w[0]], self.state[w[1]]))
    }

    /// Inserts a fresh node on the edge above `x`; returns its id.
    fn split_edge(&mut self, x: usize, state: u32) -> usize {
        let p = self.parent[x].expect("non-root");
        let id = self.parent.len();
        self.parent.push(Some(p));
        self.children.push(vec![x]);
        self.state.push(state);
        let pos = self.children[p]
            .iter()
            .position(|&c| c == x)
            .expect("child");
        self.children[p][pos] = id;
        self.parent[x] = Some(id);
        id
    }

    /// Inserts a fresh leaf child of `p` at sibling gap `gap`; returns its
    /// id.
    fn insert_child(&mut self, p: usize, gap: usize, state: u32) -> usize {
        let id = self.parent.len();
        self.parent.push(Some(p));
        self.children.push(vec![]);
        self.state.push(state);
        let gap = gap.min(self.children[p].len());
        self.children[p].insert(gap, id);
        id
    }

    /// Renumbers into a canonical pattern (preorder); returns it (without
    /// points) and the id → pattern-index map.
    fn to_pattern(&self) -> (TreePattern, Vec<usize>) {
        let n = self.parent.len();
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![0]; // the old pattern's root stays the root
        while let Some(v) = stack.pop() {
            order.push(v);
            for &c in self.children[v].iter().rev() {
                stack.push(c);
            }
        }
        let mut index_of = vec![0usize; n];
        for (i, &v) in order.iter().enumerate() {
            index_of[v] = i;
        }
        let pattern = TreePattern {
            parent: order
                .iter()
                .map(|&v| self.parent[v].map(|p| index_of[p]))
                .collect(),
            states: order.iter().map(|&v| self.state[v]).collect(),
            points: vec![],
        };
        (pattern, index_of)
    }
}

// The engine's parallel frontier shares the class across scoped worker
// threads and moves successor configurations between them; both are plain
// immutable data, which these assertions pin down at compile time.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<TreeClass>();
const _: () = _assert_send_sync::<TreePattern>();

impl SymbolicClass for TreeClass {
    type Config = TreePattern;

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn initial_configs(&self, k: usize) -> Vec<TreePattern> {
        self.glue(&self.empty_patterns(), &Formula::True, k)
    }

    fn transitions(&self, cfg: &TreePattern, guard: &Formula) -> Vec<TreePattern> {
        self.glue([cfg], guard, cfg.points.len())
    }

    fn materialize(&self, cfg: &TreePattern) -> Pointed {
        Pointed::new(
            cfg.materialize(&self.aut, &self.schema, &self.label_syms),
            cfg.points
                .iter()
                .map(|&p| Element::from_index(p as usize))
                .collect(),
        )
    }

    fn concretize(&self, system: &System, _trace: &Trace<TreePattern>) -> Option<(Structure, Run)> {
        // Certification through the bounded baseline: an actual accepted
        // tree driving an accepting run. (The engine re-validates.)
        bounded_emptiness(&self.aut, system, CERTIFY_NODES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::fixtures::{chain_automaton, star_automaton};
    use dds_core::Engine;
    use dds_system::SystemBuilder;

    #[test]
    fn initial_patterns_valid_and_generated() {
        let class = TreeClass::new(chain_automaton());
        let configs = class.initial_configs(1);
        assert!(!configs.is_empty());
        for c in &configs {
            assert!(c.is_valid(class.automaton()), "{c:?}");
            let seeds: Vec<usize> = c.points.iter().map(|&p| p as usize).collect();
            assert_eq!(c.closure(class.automaton(), &seeds).len(), c.len());
        }
    }

    #[test]
    fn descendant_walk_nonempty_with_certificate() {
        // The intro's toy system shape: walk from the root to a strict
        // descendant with label b.
        let class = TreeClass::new(chain_automaton());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule(
            "s",
            "t",
            "x_old <= x_new & x_old != x_new & r(x_old) & b(x_new)",
        )
        .unwrap();
        let system = b.finish().unwrap();
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("certified via baseline");
        system.check_run(db, run, true).unwrap();
    }

    #[test]
    fn impossible_label_combination_is_empty() {
        let class = TreeClass::new(chain_automaton());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        // No node is both a and b.
        b.rule("s", "t", "a(x_old) & b(x_old)").unwrap();
        let system = b.finish().unwrap();
        assert!(Engine::new(&class, &system).run().is_empty());
    }

    #[test]
    fn sibling_order_via_document_order() {
        // In the star automaton, two distinct a-leaves exist in document
        // order.
        let class = TreeClass::new(star_automaton());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x", "y"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule(
            "s",
            "t",
            "a(x_old) & a(y_old) & x_old << y_old & x_old = x_new & y_old = y_new",
        )
        .unwrap();
        let system = b.finish().unwrap();
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("certified");
        system.check_run(db, run, true).unwrap();
        assert!(db.size() >= 3);
    }

    #[test]
    fn engine_agrees_with_baseline_on_tree_cases() {
        for aut in [chain_automaton(), star_automaton()] {
            let class = TreeClass::new(aut);
            let guards = [
                "x_old <= x_new & x_old != x_new",
                "x_old = x_new & r(x_old)",
                "cca(x_old, x_new) = x_old & x_old != x_new",
                "r(x_old) & a(x_old)",
            ];
            for g in guards {
                let schema = class.schema().clone();
                let mut b = SystemBuilder::new(schema, &["x"]);
                b.state("s").initial();
                b.state("t").accepting();
                if b.rule("s", "t", g).is_err() {
                    continue; // guard mentions a label this automaton lacks
                }
                let system = b.finish().unwrap();
                let engine_says = Engine::new(&class, &system).run().is_nonempty();
                let baseline_says = bounded_emptiness(class.automaton(), &system, 6).is_some();
                assert_eq!(engine_says, baseline_says, "guard `{g}`");
            }
        }
    }
}
