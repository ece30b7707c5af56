//! The [`TreeClass`]: plugging tree patterns into the Theorem 5 engine.
//!
//! Sub-transitions place the `k` new register values into the old pattern:
//! on an existing node, splitting a pattern edge, as a fresh child subtree,
//! or diverging off an edge through a fresh cca node (the closure of the new
//! points demands the meet explicitly, mirroring Appendix E's case split of
//! Figures 2/3). The amalgam must keep the old pattern's *determined*
//! pointers intact (its `ancestormost`/`descendantmost` values are frozen —
//! the executable form of Lemma 25's "the pointers are defined the same
//! way") and pass the membership conditions; the guard is evaluated exactly
//! on the materialized amalgam.
//!
//! `NonEmpty` answers are certified through the bounded baseline (an actual
//! accepted tree plus a re-validated run). `Empty` answers can be wrong: a
//! new point's pointer nodes may lie outside both configurations, and the
//! placements above never add such nodes, so that step is missed (see the
//! crate docs).

use crate::automaton::TreeAutomaton;
use crate::baseline::bounded_emptiness;
use crate::pattern::TreePattern;
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
    /// Node cap for initial-pattern enumeration.
    initial_cap: usize,
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
            initial_cap: 8,
        }
    }

    /// The automaton.
    pub fn automaton(&self) -> &TreeAutomaton {
        &self.aut
    }

    /// Enumerates valid patterns with at most `cap` nodes generated by `k`
    /// points.
    fn enumerate_patterns(&self, k: usize, cap: usize) -> Vec<TreePattern> {
        // Generate preorder shapes with states, prune by validity, then
        // choose points that generate the whole pattern.
        let mut out = Vec::new();
        let nq = self.aut.num_states() as u32;
        // Components on the pattern root path of `v` (inclusive), computed
        // on the raw vectors so pruning needs no pattern allocation.
        fn path_comps(
            aut: &TreeAutomaton,
            parent: &[Option<usize>],
            states: &[u32],
            mut v: usize,
        ) -> std::collections::BTreeSet<usize> {
            let mut comps = std::collections::BTreeSet::new();
            loop {
                comps.insert(aut.comp(states[v]));
                match parent[v] {
                    Some(p) => v = p,
                    None => break,
                }
            }
            comps
        }
        // Shapes as parent vectors in preorder: parent[v] in 0..v.
        // Recursive generation with early state assignment.
        fn gen(
            class: &TreeClass,
            parent: &mut Vec<Option<usize>>,
            states: &mut Vec<u32>,
            k: usize,
            cap: usize,
            nq: u32,
            out: &mut Vec<TreePattern>,
        ) {
            // Try to finish here: choose generating points.
            let proto = TreePattern {
                parent: parent.clone(),
                states: states.clone(),
                points: vec![],
            };
            if proto.is_valid(&class.aut) {
                class.complete_points(&proto, k, out);
            }
            if parent.len() == cap {
                return;
            }
            // Append a node in preorder: its parent is any node on the
            // rightmost path of the current shape (keeps preorder valid).
            let mut rightmost_path = Vec::new();
            if !parent.is_empty() {
                // Rightmost path: start at root, repeatedly take last child.
                let mut cur = 0usize;
                rightmost_path.push(cur);
                loop {
                    let last_child = (0..parent.len()).rfind(|&w| parent[w] == Some(cur));
                    match last_child {
                        Some(c) => {
                            rightmost_path.push(c);
                            cur = c;
                        }
                        None => break,
                    }
                }
            }
            let choices: Vec<Option<usize>> = if parent.is_empty() {
                vec![None]
            } else {
                rightmost_path.into_iter().map(Some).collect()
            };
            for p in choices {
                // Prune inputs depending only on the parent, hoisted out of
                // the state loop.
                let parent_ctx = p.map(|par| {
                    (
                        par,
                        path_comps(&class.aut, parent, states, par),
                        (0..parent.len()).rfind(|&w| parent[w] == Some(par)),
                    )
                });
                for q in 0..nq {
                    if !class.aut.is_groundable(q) {
                        continue;
                    }
                    // Monotone prunes: these `is_valid` conditions only
                    // involve states and root paths that are frozen the
                    // moment the node is appended (preorder generation never
                    // revisits them), so a failing prefix cannot extend to
                    // any valid pattern and the whole subtree is skipped.
                    // This collapses the `states^nodes` explosion to the
                    // automaton-consistent shapes.
                    match &parent_ctx {
                        None => {
                            if !class.aut.is_root_state(q) {
                                continue;
                            }
                        }
                        Some((par, allowed, prev)) => {
                            if !crate::pattern::desc_allowed(&class.aut, q, states[*par], allowed) {
                                continue;
                            }
                            if let Some(prev) = prev {
                                if !crate::pattern::sibling_pair_feasible(
                                    &class.aut,
                                    states[*par],
                                    states[*prev],
                                    q,
                                ) {
                                    continue;
                                }
                            }
                        }
                    }
                    parent.push(p);
                    states.push(q);
                    gen(class, parent, states, k, cap, nq, out);
                    parent.pop();
                    states.pop();
                }
            }
        }
        let mut parent = Vec::new();
        let mut states = Vec::new();
        gen(self, &mut parent, &mut states, k, cap, nq, &mut out);
        out
    }

    /// Chooses all `k`-point tuples that generate the whole pattern.
    fn complete_points(&self, proto: &TreePattern, k: usize, out: &mut Vec<TreePattern>) {
        let n = proto.len();
        let mut points = vec![0u32; k];
        fn assign(
            class: &TreeClass,
            proto: &TreePattern,
            i: usize,
            n: usize,
            points: &mut Vec<u32>,
            out: &mut Vec<TreePattern>,
        ) {
            if i == points.len() {
                let seeds: Vec<usize> = points.iter().map(|&p| p as usize).collect();
                if proto.closure(&class.aut, &seeds).len() == n {
                    out.push(TreePattern {
                        parent: proto.parent.clone(),
                        states: proto.states.clone(),
                        points: points.clone(),
                    });
                }
                return;
            }
            for p in 0..n as u32 {
                points[i] = p;
                assign(class, proto, i + 1, n, points, out);
            }
        }
        assign(self, proto, 0, n, &mut points, out);
    }

    /// Enumerates amalgams: mutable pattern arenas with stable ids.
    fn glue(&self, cfg: &TreePattern, guard: &Formula) -> Vec<TreePattern> {
        let k = cfg.points.len();
        let mut results = Vec::new();
        let mut seen = HashSet::new();
        let base = Arena::from_pattern(cfg);
        self.place(
            &base,
            cfg,
            guard,
            0,
            k,
            &mut Vec::new(),
            &mut results,
            &mut seen,
        );
        results
    }

    #[allow(clippy::too_many_arguments)]
    fn place(
        &self,
        arena: &Arena,
        cfg: &TreePattern,
        guard: &Formula,
        reg: usize,
        k: usize,
        chosen: &mut Vec<usize>, // node ids per placed register
        results: &mut Vec<TreePattern>,
        seen: &mut HashSet<TreePattern>,
    ) {
        if reg == k {
            self.finish_glue(arena, cfg, guard, chosen, results, seen);
            return;
        }
        // (a) an existing node.
        for id in arena.ids() {
            chosen.push(id);
            self.place(arena, cfg, guard, reg + 1, k, chosen, results, seen);
            chosen.pop();
        }
        let nq = self.aut.num_states() as u32;
        // (b) split a pattern edge (fresh node strictly between p and x).
        for id in arena.ids() {
            if arena.parent(id).is_none() {
                continue;
            }
            for q in 0..nq {
                let mut a2 = arena.clone();
                let fresh = a2.split_edge(id, q);
                chosen.push(fresh);
                self.place(&a2, cfg, guard, reg + 1, k, chosen, results, seen);
                chosen.pop();
            }
        }
        // (c) a fresh child subtree of an existing node, at any sibling gap.
        for id in arena.ids() {
            let gaps = arena.children(id).len() + 1;
            for gap in 0..gaps {
                for q in 0..nq {
                    let mut a2 = arena.clone();
                    let fresh = a2.insert_child(id, gap, q);
                    chosen.push(fresh);
                    self.place(&a2, cfg, guard, reg + 1, k, chosen, results, seen);
                    chosen.pop();
                }
            }
        }
        // (d) diverge off an edge: fresh cca node w on the edge above `id`,
        // fresh point y as w's other child (either side of the old branch).
        for id in arena.ids() {
            if arena.parent(id).is_none() {
                continue;
            }
            for wq in 0..nq {
                for yq in 0..nq {
                    for side in [0usize, 1] {
                        let mut a2 = arena.clone();
                        let w = a2.split_edge(id, wq);
                        let fresh = a2.insert_child(w, side, yq);
                        chosen.push(fresh);
                        self.place(&a2, cfg, guard, reg + 1, k, chosen, results, seen);
                        chosen.pop();
                    }
                }
            }
        }
    }

    fn finish_glue(
        &self,
        arena: &Arena,
        cfg: &TreePattern,
        guard: &Formula,
        chosen: &[usize],
        results: &mut Vec<TreePattern>,
        seen: &mut HashSet<TreePattern>,
    ) {
        // Amalgam pattern, with maps: arena id -> pattern index.
        let (amalgam_nopoints, index_of) = arena.to_pattern();
        let old_points: Vec<u32> = cfg
            .points
            .iter()
            .map(|&p| index_of[arena.old_id(p as usize)] as u32)
            .collect();
        let new_points: Vec<u32> = chosen.iter().map(|&id| index_of[id] as u32).collect();
        let mut amalgam = amalgam_nopoints;
        amalgam.points = new_points.clone();
        if !amalgam.is_valid(&self.aut) {
            return;
        }
        // Frozen determined pointers of old nodes.
        for (old_idx, &_q) in cfg.states.iter().enumerate() {
            let a_idx = index_of[arena.old_id(old_idx)];
            for c in 0..self.aut.num_components() {
                let old_t = cfg.amost(&self.aut, old_idx, c);
                let new_t = amalgam.amost(&self.aut, a_idx, c);
                if index_of[arena.old_id(old_t)] != new_t {
                    return;
                }
            }
            let old_d = cfg.dmost(&self.aut, old_idx);
            let new_d = amalgam.dmost(&self.aut, a_idx);
            if index_of[arena.old_id(old_d)] != new_d {
                return;
            }
        }
        // Guard on the materialized amalgam.
        let db = amalgam.materialize(&self.aut, &self.schema, &self.label_syms);
        let mut combined = Vec::with_capacity(2 * old_points.len());
        for i in 0..old_points.len() {
            combined.push(Element::from_index(old_points[i] as usize));
            combined.push(Element::from_index(new_points[i] as usize));
        }
        if !eval(guard, &db, &combined).unwrap_or(false) {
            return;
        }
        // Successor configuration = closure of the new points.
        let seeds: Vec<usize> = new_points.iter().map(|&p| p as usize).collect();
        let keep = amalgam.closure(&self.aut, &seeds);
        let next = amalgam.restrict(&keep, &seeds);
        debug_assert!(next.is_valid(&self.aut));
        if seen.insert(next.clone()) {
            results.push(next);
        }
    }
}

/// A mutable pattern with stable node ids (indices into arena vectors),
/// supporting the gluing insertions.
#[derive(Clone, Debug)]
struct Arena {
    parent: Vec<Option<usize>>,
    children: Vec<Vec<usize>>, // ordered
    state: Vec<u32>,
    /// Arena ids of the original pattern's nodes (by pattern index).
    old_ids: Vec<usize>,
}

impl Arena {
    fn from_pattern(p: &TreePattern) -> Arena {
        let n = p.len();
        let mut a = Arena {
            parent: p.parent.clone(),
            children: vec![Vec::new(); n],
            state: p.states.clone(),
            old_ids: (0..n).collect(),
        };
        for v in 0..n {
            if let Some(par) = p.parent[v] {
                a.children[par].push(v); // pattern order = doc order
            }
        }
        a
    }

    fn ids(&self) -> Vec<usize> {
        (0..self.parent.len()).collect()
    }

    fn parent(&self, id: usize) -> Option<usize> {
        self.parent[id]
    }

    fn children(&self, id: usize) -> &[usize] {
        &self.children[id]
    }

    fn old_id(&self, pattern_index: usize) -> usize {
        self.old_ids[pattern_index]
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
        let root = (0..n).find(|&v| self.parent[v].is_none()).expect("rooted");
        let mut order = Vec::with_capacity(n);
        let mut stack = vec![root];
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
        let cap = self.initial_cap.max(2 * k);
        let mut out = self.enumerate_patterns(k, cap);
        let mut seen = HashSet::new();
        out.retain(|p| seen.insert(p.clone()));
        out
    }

    fn transitions(&self, cfg: &TreePattern, guard: &Formula) -> Vec<TreePattern> {
        self.glue(cfg, guard)
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
