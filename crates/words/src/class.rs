//! The [`WordClass`]: a `SymbolicClass` implementation of Theorem 10.
//!
//! Sub-transitions are *gluings*: the amalgam of the old configuration and
//! the new register values is the old sequence with at most `k` fresh
//! positions inserted. Since components absent from a configuration are
//! absent from the whole word (their pointers say so), and present
//! components' global first/last occurrences are frozen, a fresh position's
//! state must belong to a component already present, strictly between its
//! first and last occurrence — precisely the insertions performed by the
//! paper's proof of Proposition 2. Word order collapses everything strictly
//! inside a gap into one SCC, which is what makes the replay-based witness
//! concretization below sound (inserting next to the shared predecessor
//! keeps every affected gap realizable).

use crate::config::{allowed_in_gap, component_span, WordConfig};
use crate::nfa::{Nfa, NfaStateId};
use dds_core::{Pointed, SymbolicClass, Trace};
use dds_logic::eval::eval;
use dds_logic::Formula;
use dds_structure::{Element, Schema, Structure, SymbolId};
use dds_system::{Run, StateId, System};
use std::collections::HashSet;
use std::sync::Arc;

/// The class `Worddb(L)` for a regular language `L`, with the pointer
/// enrichment handled symbolically.
#[derive(Clone, Debug)]
pub struct WordClass {
    nfa: Nfa,
    schema: Arc<Schema>,
    letter_syms: Vec<SymbolId>,
    lt: SymbolId,
}

/// Provenance of a glued (amalgam) position.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Prov {
    /// Position `i` of the old configuration.
    Old(usize),
    /// Freshly inserted position.
    Fresh,
}

/// One gluing outcome: the amalgam sequence, per-position provenance, and
/// the extracted successor configuration with its position map into the
/// amalgam.
#[derive(Clone, Debug)]
struct Glue {
    union: Vec<NfaStateId>,
    prov: Vec<Prov>,
    next: WordConfig,
    /// `next_map[i]` = amalgam index of the successor configuration's
    /// position `i`.
    next_map: Vec<usize>,
}

impl WordClass {
    /// Builds the class for (the nonempty-word part of) a regular language.
    pub fn new(nfa: Nfa) -> WordClass {
        let mut sc = Schema::new();
        let letter_syms: Vec<SymbolId> = nfa
            .letters()
            .iter()
            .map(|l| sc.add_relation(l, 1).expect("distinct letters"))
            .collect();
        let lt = sc.add_relation("<", 2).expect("fresh symbol");
        WordClass {
            nfa,
            schema: sc.finish(),
            letter_syms,
            lt,
        }
    }

    /// The underlying normalized automaton.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The `<` (position order) symbol.
    pub fn lt(&self) -> SymbolId {
        self.lt
    }

    /// Builds `Worddb(w)` for a state sequence (positions, letter
    /// predicates, strict order).
    pub fn worddb(&self, states: &[NfaStateId]) -> Structure {
        let mut s = Structure::new(self.schema.clone(), states.len());
        for (i, &q) in states.iter().enumerate() {
            s.add_fact(
                self.letter_syms[self.nfa.letter(q)],
                &[Element::from_index(i)],
            )
            .expect("valid");
            for j in i + 1..states.len() {
                s.add_fact(self.lt, &[Element::from_index(i), Element::from_index(j)])
                    .expect("valid");
            }
        }
        s
    }

    /// Appends to `out` the 0-point configurations that extend `seq`: the
    /// valid configurations without registers, in which every position is
    /// the first or the last occurrence of its component. Each component
    /// occurs at most twice, so the search is over sequences of at most
    /// `2·#components` states.
    fn unpointed_configs(&self, seq: &mut Vec<NfaStateId>, out: &mut Vec<WordConfig>) {
        if seq.last().is_some_and(|&q| self.nfa.is_accepting(q)) {
            let cfg = WordConfig {
                states: seq.clone(),
                points: Vec::new(),
            };
            if cfg.is_valid(&self.nfa) {
                out.push(cfg);
            }
        }
        for q in self.nfa.states() {
            let follows = match seq.last() {
                None => self.nfa.is_entry(q),
                Some(&prev) => self.nfa.reach_avoiding(prev, q, &|_| true),
            };
            // A third occurrence of a component would leave the second one
            // neither its first nor its last.
            let c = self.nfa.component(q);
            if follows && seq.iter().filter(|&&p| self.nfa.component(p) == c).count() < 2 {
                seq.push(q);
                self.unpointed_configs(seq, out);
                seq.pop();
            }
        }
    }

    /// Enumerates all gluings of `cfg` with `k_new` new register values
    /// satisfying `guard` (`cfg.points.len()` of them for a sub-transition,
    /// any number for the initial configurations over a 0-point one).
    fn glue_outcomes(&self, cfg: &WordConfig, guard: &Formula, k_new: usize) -> Vec<Glue> {
        let m = cfg.len();
        let mut results = Vec::new();

        // Recursive choice of each new point: an old position or a fresh
        // insertion (state × slot). Each choice sequence yields a distinct
        // `(union, prov, new_points)`: a fresh position is the point of the
        // first register that names it, and the final order fixes the slot
        // it was inserted at.
        #[allow(clippy::too_many_arguments)]
        fn choose(
            class: &WordClass,
            cfg: &WordConfig,
            guard: &Formula,
            reg: usize,
            k: usize,
            union: &mut Vec<NfaStateId>,
            prov: &mut Vec<Prov>,
            new_points: &mut Vec<u32>,
            results: &mut Vec<Glue>,
        ) {
            if reg == k {
                class.complete_glue(cfg, guard, union, prov, new_points, results);
                return;
            }
            // (a) an existing position (old or previously inserted fresh).
            for pos in 0..union.len() {
                new_points.push(pos as u32);
                choose(
                    class,
                    cfg,
                    guard,
                    reg + 1,
                    k,
                    union,
                    prov,
                    new_points,
                    results,
                );
                new_points.pop();
            }
            // (b) a fresh position: any state of a present component,
            // strictly inside that component's span.
            let span_u = component_span(&class.nfa, union);
            for q in class.nfa.states() {
                if let Some((first, last)) = span_u[class.nfa.component(q)] {
                    for slot in first + 1..=last {
                        union.insert(slot, q);
                        prov.insert(slot, Prov::Fresh);
                        // Adjust previously chosen points at or after slot.
                        for p in new_points.iter_mut() {
                            if *p as usize >= slot {
                                *p += 1;
                            }
                        }
                        new_points.push(slot as u32);
                        choose(
                            class,
                            cfg,
                            guard,
                            reg + 1,
                            k,
                            union,
                            prov,
                            new_points,
                            results,
                        );
                        new_points.pop();
                        for p in new_points.iter_mut() {
                            if *p as usize > slot {
                                *p -= 1;
                            }
                        }
                        union.remove(slot);
                        prov.remove(slot);
                    }
                }
            }
        }

        let mut union = cfg.states.clone();
        let mut prov: Vec<Prov> = (0..m).map(Prov::Old).collect();
        let mut new_points = Vec::new();
        choose(
            self,
            cfg,
            guard,
            0,
            k_new,
            &mut union,
            &mut prov,
            &mut new_points,
            &mut results,
        );
        results
    }

    /// Validates a candidate amalgam, evaluates the guard and extracts the
    /// successor configuration.
    fn complete_glue(
        &self,
        cfg: &WordConfig,
        guard: &Formula,
        union: &[NfaStateId],
        prov: &[Prov],
        new_points: &[u32],
        results: &mut Vec<Glue>,
    ) {
        let span = component_span(&self.nfa, union);
        // Frozen pointers: the old configuration's first/last occurrences
        // must remain global ones. Fresh insertions were restricted to the
        // strict inside of the *union's* spans, which can drift as points
        // accumulate; re-check against the old positions.
        let old_index: Vec<usize> = prov
            .iter()
            .enumerate()
            .filter_map(|(u, p)| match p {
                Prov::Old(_) => Some(u),
                Prov::Fresh => None,
            })
            .collect();
        let old_span = component_span(&self.nfa, &cfg.states);
        for (c, os) in old_span.iter().enumerate() {
            if let Some((of, ol)) = os {
                let (uf, ul) = span[c].expect("still present");
                if uf != old_index[*of] || ul != old_index[*ol] {
                    return;
                }
            }
        }
        // Absent components stay absent (fresh states were restricted to
        // present components, so this is structural; assert in debug).
        debug_assert!(span
            .iter()
            .enumerate()
            .all(|(c, s)| s.is_none() == old_span[c].is_none()));
        // Gap realizability of the amalgam.
        for a in 0..union.len() - 1 {
            if !self.nfa.reach_avoiding(union[a], union[a + 1], &|s| {
                allowed_in_gap(&self.nfa, &span, a, s)
            }) {
                return;
            }
        }
        // Guard evaluation on the materialized amalgam.
        let db = self.worddb(union);
        let combined = {
            let old: Vec<Element> = cfg
                .points
                .iter()
                .map(|&p| Element::from_index(old_index[p as usize]))
                .collect();
            let new: Vec<Element> = new_points
                .iter()
                .map(|&p| Element::from_index(p as usize))
                .collect();
            let mut v = Vec::with_capacity(2 * old.len());
            for i in 0..old.len() {
                v.push(old[i]);
                v.push(new[i]);
            }
            v
        };
        if !eval(guard, &db, &combined).unwrap_or(false) {
            return;
        }
        // Successor configuration: new points plus all (global) markers.
        let mut keep: Vec<usize> = new_points.iter().map(|&p| p as usize).collect();
        for s in span.iter().flatten() {
            keep.push(s.0);
            keep.push(s.1);
        }
        keep.sort_unstable();
        keep.dedup();
        let next_states: Vec<NfaStateId> = keep.iter().map(|&u| union[u]).collect();
        let next_points: Vec<u32> = new_points
            .iter()
            .map(|&p| keep.iter().position(|&u| u == p as usize).expect("kept") as u32)
            .collect();
        let next = WordConfig {
            states: next_states,
            points: next_points,
        };
        debug_assert!(next.is_valid(&self.nfa), "glue produced invalid successor");
        results.push(Glue {
            union: union.to_vec(),
            prov: prov.to_vec(),
            next,
            next_map: keep,
        });
    }
}

// The engine's parallel frontier shares the class across scoped worker
// threads and moves successor configurations between them; both are plain
// immutable data, which these assertions pin down at compile time.
const fn _assert_send_sync<T: Send + Sync>() {}
const _: () = _assert_send_sync::<WordClass>();
const _: () = _assert_send_sync::<WordConfig>();

impl SymbolicClass for WordClass {
    type Config = WordConfig;

    fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The gluings of `k` points into each 0-point configuration, sorted
    /// by `(states, points)`: every `k`-pointed configuration keeps the
    /// first and last occurrences of its components, which form a 0-point
    /// configuration of their own.
    fn initial_configs(&self, k: usize) -> Vec<WordConfig> {
        let mut unpointed = Vec::new();
        self.unpointed_configs(&mut Vec::new(), &mut unpointed);
        let mut out: Vec<WordConfig> = unpointed
            .iter()
            .flat_map(|cfg| self.glue_outcomes(cfg, &Formula::True, k))
            .map(|g| g.next)
            .collect();
        out.sort_unstable_by(|a, b| (&a.states, &a.points).cmp(&(&b.states, &b.points)));
        out.dedup();
        out
    }

    fn transitions(&self, cfg: &WordConfig, guard: &Formula) -> Vec<WordConfig> {
        let mut out = Vec::new();
        let mut seen = HashSet::new();
        for g in self.glue_outcomes(cfg, guard, cfg.points.len()) {
            if seen.insert(g.next.clone()) {
                out.push(g.next);
            }
        }
        out
    }

    fn materialize(&self, cfg: &WordConfig) -> Pointed {
        Pointed::new(
            self.worddb(&cfg.states),
            cfg.points
                .iter()
                .map(|&p| Element::from_index(p as usize))
                .collect(),
        )
    }

    fn concretize(&self, system: &System, trace: &Trace<WordConfig>) -> Option<(Structure, Run)> {
        let first = trace.steps.first()?;
        // The evolving pseudo-word: stable ids per position.
        let mut w_states: Vec<NfaStateId> = first.config.states.clone();
        let mut w_ids: Vec<u32> = (0..w_states.len() as u32).collect();
        let mut next_id = w_states.len() as u32;
        // Current configuration and its positions' ids.
        let mut cur = first.config.clone();
        let mut cur_ids: Vec<u32> = w_ids.clone();
        // Register values per step, as stable ids.
        let mut val_ids: Vec<Vec<u32>> =
            vec![cur.points.iter().map(|&p| cur_ids[p as usize]).collect()];
        let mut states_seq: Vec<StateId> = vec![first.state];

        for step in &trace.steps[1..] {
            let rule = &system.rules()[step.rule?];
            let glue = self
                .glue_outcomes(&cur, &rule.guard, cur.points.len())
                .into_iter()
                .find(|g| g.next == step.config)?;
            // Map the amalgam into the pseudo-word: old positions keep their
            // ids; fresh positions are inserted immediately before the next
            // old neighbour (or at the region end), which stays inside the
            // same component region (see module docs).
            let mut union_ids: Vec<u32> = Vec::with_capacity(glue.union.len());
            let mut old_iter = 0usize; // index into cur positions
            for (u, p) in glue.prov.iter().enumerate() {
                match p {
                    Prov::Old(i) => {
                        debug_assert_eq!(*i, old_iter);
                        old_iter += 1;
                        union_ids.push(cur_ids[*i]);
                    }
                    Prov::Fresh => {
                        // Insert into W before the W-position of the next old
                        // neighbour; if none, at the very end.
                        let w_pos = glue.prov[u + 1..]
                            .iter()
                            .find_map(|q| match q {
                                Prov::Old(j) => Some(
                                    w_ids
                                        .iter()
                                        .position(|&id| id == cur_ids[*j])
                                        .expect("old id in W"),
                                ),
                                Prov::Fresh => None,
                            })
                            .unwrap_or(w_states.len());
                        let id = next_id;
                        next_id += 1;
                        w_states.insert(w_pos, glue.union[u]);
                        w_ids.insert(w_pos, id);
                        union_ids.push(id);
                    }
                }
            }
            cur = glue.next;
            cur_ids = glue.next_map.iter().map(|&u| union_ids[u]).collect();
            val_ids.push(cur.points.iter().map(|&p| cur_ids[p as usize]).collect());
            states_seq.push(step.state);
        }

        // Expand the pseudo-word into a real accepting run of the NFA.
        let whole = WordConfig {
            states: w_states.clone(),
            points: (0..w_states.len() as u32).collect(),
        };
        let (full, index) = whole.expand(&self.nfa)?;
        debug_assert!(self.nfa.accepts_state_sequence(&full));
        let db = self.worddb(&full);
        let id_to_pos = |id: u32| -> Element {
            let w = w_ids.iter().position(|&x| x == id).expect("id present");
            Element::from_index(index[w])
        };
        let run = Run {
            states: states_seq,
            vals: val_ids
                .iter()
                .map(|ids| ids.iter().map(|&id| id_to_pos(id)).collect())
                .collect(),
        };
        Some((db, run))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_core::Engine;
    use dds_system::SystemBuilder;

    /// `(ab)+`.
    fn ab_plus() -> Nfa {
        Nfa::new(
            vec!["a".into(), "b".into()],
            vec![0, 1],
            vec![(0, 1), (1, 0)],
            vec![0],
            vec![1],
        )
        .unwrap()
    }

    #[test]
    fn initial_configs_are_valid_and_deduped() {
        let class = WordClass::new(ab_plus());
        let configs = class.initial_configs(1);
        assert!(!configs.is_empty());
        let mut seen = HashSet::new();
        for c in &configs {
            assert!(c.is_valid(class.nfa()), "invalid: {c:?}");
            assert!(seen.insert(c.clone()), "duplicate: {c:?}");
        }
    }

    #[test]
    fn move_right_system_is_nonempty_with_certified_word() {
        // One register walking strictly right from an a-position to a
        // b-position.
        let class = WordClass::new(ab_plus());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", "x_old < x_new & a(x_old) & b(x_new)")
            .unwrap();
        let system = b.finish().unwrap();
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("words concretize");
        system.check_run(db, run, true).unwrap();
    }

    #[test]
    fn impossible_letter_demand_is_empty() {
        // In (ab)+ the first position is always 'a'; demanding a 'b' at a
        // position with nothing before it is impossible: x is first iff
        // nothing < x, which guards cannot say; instead demand b(x) & a(x).
        let class = WordClass::new(ab_plus());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", "a(x_old) & b(x_old)").unwrap();
        let system = b.finish().unwrap();
        assert!(Engine::new(&class, &system).run().is_empty());
    }

    #[test]
    fn strictly_left_walk_is_bounded_by_word_start() {
        // Walk left twice from the leftmost a: impossible to do 3 distinct
        // strict decreases on positions of letter a in (ab)+ words of any
        // length? It IS possible — words can be long. Check non-emptiness
        // and that the witness has >= 3 a-positions.
        let class = WordClass::new(ab_plus());
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s0").initial();
        b.state("s1");
        b.state("s2").accepting();
        b.rule("s0", "s1", "x_new < x_old & a(x_old) & a(x_new)")
            .unwrap();
        b.rule("s1", "s2", "x_new < x_old & a(x_old) & a(x_new)")
            .unwrap();
        let system = b.finish().unwrap();
        let outcome = Engine::new(&class, &system).run();
        assert!(outcome.is_nonempty());
        let (db, run) = outcome.witness().expect("concretized");
        system.check_run(db, run, true).unwrap();
        // The witness word has at least 3 a-positions (strictly decreasing).
        let a_sym = class.schema().lookup("a").unwrap();
        assert!(db.rel_len(a_sym) >= 3);
    }

    #[test]
    fn glue_outcomes_are_pairwise_distinct() {
        // Every choice sequence of `glue_outcomes` yields its own
        // `(union, prov, new_points)` triple, so no gluing is built twice.
        let class = WordClass::new(ab_plus());
        let mut cfgs = Vec::new();
        class.unpointed_configs(&mut Vec::new(), &mut cfgs);
        cfgs.push(WordConfig {
            states: vec![NfaStateId(0), NfaStateId(1)],
            points: vec![0],
        });
        for cfg in &cfgs {
            for k in 1..=2 {
                let outcomes = class.glue_outcomes(cfg, &Formula::True, k);
                assert!(!outcomes.is_empty());
                let mut seen = HashSet::new();
                for g in outcomes {
                    let new_points: Vec<usize> = g
                        .next
                        .points
                        .iter()
                        .map(|&p| g.next_map[p as usize])
                        .collect();
                    assert!(
                        seen.insert((g.union.clone(), g.prov.clone(), new_points)),
                        "duplicate gluing of {cfg:?} at k={k}: {g:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn glue_preserves_markers() {
        let class = WordClass::new(ab_plus());
        let (a, b) = (NfaStateId(0), NfaStateId(1));
        let cfg = WordConfig {
            states: vec![a, b],
            points: vec![0],
        };
        // Insert freely (guard true): every outcome keeps position 0 as the
        // global first of the SCC and the last b as global last.
        for g in class.glue_outcomes(&cfg, &Formula::True, 1) {
            assert_eq!(g.union[0], a);
            assert_eq!(*g.union.last().unwrap(), b);
            assert!(g.next.is_valid(class.nfa()));
        }
    }
}
