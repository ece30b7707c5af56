//! Shared machinery for relational (semi-)Fraïssé classes.
//!
//! All relational classes in this crate (free, `HOM`, linear orders,
//! equivalence relations, data products) implement the [`AmalgamClass`]
//! trait: they enumerate `k`-generated members and, most importantly,
//! *amalgams* — extensions of a base pointed structure by `k` new register
//! values that stay inside the class. A blanket implementation turns any
//! `AmalgamClass` into a [`SymbolicClass`] for the Theorem 5 engine,
//! providing:
//!
//! * sub-transition successors (amalgams filtered by the guard, restricted to
//!   the substructure generated by the new points, canonicalized), resolved
//!   against the search's interner ([`SymbolicClass::successors`]);
//! * witness concretization by replaying the trace against ever-growing full
//!   databases — the executable form of the paper's soundness induction
//!   ("by closure under amalgamation we get a database A′ ...", §4.1).
//!
//! Amalgams are *streamed*: [`AmalgamClass::for_each_amalgam`] builds each
//! candidate in one buffer reused for the whole call and lends it to a
//! visitor, which may stop the enumeration with [`ControlFlow::Break`].
//! Successor computation evaluates the guard on the borrowed candidate and,
//! for the ones that pass, writes only the canonical key words of the
//! substructure the new points generate
//! ([`encode_generated_relational`]: the schemas here are relational, so
//! that substructure is induced on the new points). The words are probed
//! against the search's interner and then against the successors this call
//! already built; only a key absent from both becomes a configuration
//! ([`RelConfig::generated_by`]). The engine interns every initial
//! configuration — every `k`-generated member — before it expands
//! anything, so its calls build no configuration at all; `transitions`,
//! against an empty interner, builds each distinct successor once. Replay
//! compares key words the same way, stops at the first candidate matching
//! the trace step and clones only that one.
//!
//! The guard steers the enumeration through *hints*: the relation atoms of
//! the guard, as variable tuples. Classes closed under removing tuples
//! (free, `HOM`) only ever add cross tuples that some guard atom mentions —
//! any richer amalgam can be thinned to such a candidate without changing
//! membership, the guard's atoms, or the generated new configuration, so the
//! enumeration stays complete while avoiding the `2^(2k)^arity` blow-up of
//! enumerating every cross tuple.
//!
//! The hints also carry the guard's *forced literals* (conjuncts that hold
//! in every model, [`forced_literals`]). Forced (dis)equalities rule out
//! placements. Forced relation literals fix facts: under a placement each
//! is a concrete tuple, decided by the base when it has no fresh element,
//! and otherwise added to the candidate up front (or left out) instead of
//! being enumerated. Every skipped candidate breaks a forced literal and the
//! rest keep their relative order, so the guard-passing candidates — and
//! hence successor lists, traces and witnesses — are exactly those of the
//! unpruned enumeration.

use crate::class::{Pointed, RelConfig, SymbolicClass, Trace};
use crate::intern::{probe_hash, ConfigId, Interner, Resolved};
use dds_logic::eval::eval;
use dds_logic::transform::{forced_literals, Literal};
use dds_logic::{Formula, Term, Var};
use dds_structure::{
    encode_generated_relational, Element, KeyScratch, Schema, Structure, SymbolId,
};
use dds_system::{Run, System};
use std::cell::RefCell;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::ops::ControlFlow;
use std::rc::Rc;
use std::sync::Arc;

/// All placements of `k` points into a base of a given size, shared by
/// reference between the memo and its borrowers.
pub type PlacementTable = Rc<Vec<PlacementCtx>>;

thread_local! {
    static PLACEMENTS_MEMO: RefCell<HashMap<(usize, usize), PlacementTable>> =
        RefCell::new(HashMap::new());
}

/// The visitor [`AmalgamClass::for_each_amalgam`] lends each candidate to:
/// the candidate structure and its new points. Returning
/// [`ControlFlow::Break`] stops the enumeration.
pub type AmalgamVisitor<'a> = dyn FnMut(&Structure, &[Element]) -> ControlFlow<()> + 'a;

/// A relation atom of a guard, as a variable tuple (relational schemas have
/// no function symbols, so guard terms are plain variables).
pub type Hint = (SymbolId, Vec<Var>);

/// A concrete fact: a relation and an element tuple.
pub type Fact = (SymbolId, Vec<Element>);

/// What a relational class must provide. See the module docs.
///
/// `Sync` is required because the blanket [`SymbolicClass`] implementation
/// hands `&self` to the engine's scoped worker threads; all implementations
/// are immutable data, so the bound is automatic.
pub trait AmalgamClass: Sync {
    /// Schema of the structures the class actually manipulates (may extend
    /// the public schema, e.g. with the colors of the `HOM` lift).
    fn internal_schema(&self) -> &Arc<Schema>;

    /// Schema the guards are written against.
    fn public_schema(&self) -> &Arc<Schema>;

    /// Every `k`-pointed member generated by its points (duplicates allowed;
    /// the engine canonicalizes). Over the internal schema.
    fn initial_pointed(&self, k: usize) -> Vec<Pointed>;

    /// Visits the candidate amalgams: pointed structures `(A, new_points)`
    /// such that `A` is a member of the class, `A` extends `base.structure`
    /// *in place* (elements `0..base.size()` are untouched, fresh elements
    /// appended), and `new_points` are the new register values. The visited
    /// set must cover, for every member amalgam in the class sense *that
    /// satisfies the guard the hints came from*, some candidate that agrees
    /// with it on the hint atoms and on the substructure generated by the
    /// new points — so implementations may (and should) skip placements
    /// ruled out by [`GuardHints::placement_allows`].
    ///
    /// Candidates are built in a buffer reused for the whole call, so `f`
    /// only borrows each one; the order is deterministic (placements in
    /// [`placements`] order, then the class's own extension order). Returns
    /// `Break` as soon as `f` does, `Continue` once every candidate has been
    /// visited.
    fn for_each_amalgam(
        &self,
        base: &Pointed,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()>;

    /// Projects an internal structure to the public schema (copying the
    /// symbols shared by name). The default handles the identity case.
    fn project(&self, s: &Structure) -> Structure {
        project_structure(s, self.public_schema())
    }
}

/// Copies all facts of symbols that exist (by name) in `target` — the
/// σ-projection of Lemma 6.
pub fn project_structure(s: &Structure, target: &Arc<Schema>) -> Structure {
    if s.schema() == target {
        return s.clone();
    }
    let mut out = Structure::new(target.clone(), s.size());
    for sym in target.symbols() {
        let name = target.name(sym);
        if let Ok(src) = s.schema().lookup(name) {
            match target.kind(sym) {
                dds_structure::SymbolKind::Relation => {
                    for t in s.rel_tuples(src) {
                        out.add_fact(sym, t).expect("same arity by construction");
                    }
                }
                dds_structure::SymbolKind::Function => {
                    for (args, v) in s.func_entries(src) {
                        out.set_func(sym, args, v)
                            .expect("same arity by construction");
                    }
                }
            }
        }
    }
    out
}

/// Rewrites a formula's symbol ids from one schema to another by name.
/// Needed because guards are parsed against the public schema while classes
/// evaluate them on internal structures.
pub fn translate_formula(f: &Formula, from: &Schema, to: &Schema) -> Formula {
    fn term(t: &Term, from: &Schema, to: &Schema) -> Term {
        match t {
            Term::Var(v) => Term::Var(*v),
            Term::App(s, args) => Term::App(
                to.lookup(from.name(*s)).expect("symbol exists in target"),
                args.iter().map(|a| term(a, from, to)).collect(),
            ),
        }
    }
    match f {
        Formula::True => Formula::True,
        Formula::False => Formula::False,
        Formula::Eq(a, b) => Formula::Eq(term(a, from, to), term(b, from, to)),
        Formula::Rel(r, args) => Formula::Rel(
            to.lookup(from.name(*r)).expect("symbol exists in target"),
            args.iter().map(|a| term(a, from, to)).collect(),
        ),
        Formula::Not(inner) => Formula::Not(Box::new(translate_formula(inner, from, to))),
        Formula::And(fs) => {
            Formula::And(fs.iter().map(|x| translate_formula(x, from, to)).collect())
        }
        Formula::Or(fs) => Formula::Or(fs.iter().map(|x| translate_formula(x, from, to)).collect()),
        Formula::Exists(vs, inner) => {
            Formula::Exists(vs.clone(), Box::new(translate_formula(inner, from, to)))
        }
    }
}

/// Guard information steering the amalgam enumeration: the relation atoms
/// (tuple hints for the optional cross facts) plus the literals the guard
/// *forces* — the conjuncts of [`forced_literals`], which hold in every
/// model of the guard. Forced (dis)equalities depend only on the point
/// placement, so placements violating one are skipped before the
/// exponential fact/coloring enumerations. Forced relation literals fix
/// facts: under a placement each becomes a concrete tuple that every
/// guard-satisfying candidate contains (or lacks), so classes closed under
/// removing tuples decide it once instead of enumerating it
/// ([`GuardHints::forced_facts`]).
#[derive(Clone, Debug, Default)]
pub struct GuardHints {
    /// All relation atoms of the guard, as variable tuples.
    pub atoms: Vec<Hint>,
    /// Forced variable (dis)equalities: `(a, b, true)` means every model of
    /// the guard has `a = b`; `(a, b, false)` means `a != b`.
    pub eqs: Vec<(Var, Var, bool)>,
    /// Forced relation literals: `((r, vars), true)` means every model of
    /// the guard has `r(vars)`; `false` means it has `!r(vars)`.
    pub rels: Vec<(Hint, bool)>,
}

impl GuardHints {
    /// Extracts the hints of a quantifier-free guard.
    pub fn of(guard: &Formula) -> GuardHints {
        let mut hints = GuardHints {
            atoms: collect_hints(guard),
            ..GuardHints::default()
        };
        for lit in forced_literals(guard) {
            match lit {
                Literal::Eq(a, b, pol) => hints.eqs.push((a, b, pol)),
                Literal::Rel(r, vars, pol) => hints.rels.push(((r, vars), pol)),
            }
        }
        hints
    }

    /// True when the combined old/new valuation satisfies every forced
    /// (dis)equality — a necessary condition for any amalgam of this
    /// placement to satisfy the guard. Out-of-range variables are treated
    /// conservatively (allowed).
    pub fn placement_allows(&self, combined: &[Element]) -> bool {
        self.eqs.iter().all(|&(a, b, want_eq)| {
            match (combined.get(a.index()), combined.get(b.index())) {
                (Some(x), Some(y)) => (x == y) == want_eq,
                _ => true,
            }
        })
    }

    /// Instantiates the forced relation literals under a placement's
    /// combined valuation over `base` (the old elements are `0..base.size()`,
    /// the rest are fresh). A tuple over old elements only is frozen, so a
    /// literal the base disagrees with rules the placement out, as does a
    /// tuple forced both ways; both give `None`. Literals with out-of-range
    /// variables are ignored.
    pub fn forced_facts(&self, combined: &[Element], base: &Structure) -> Option<ForcedFacts> {
        let mut forced = ForcedFacts::default();
        for ((rel, vars), pol) in &self.rels {
            let Some(tuple) = vars
                .iter()
                .map(|v| combined.get(v.index()).copied())
                .collect::<Option<Vec<Element>>>()
            else {
                continue;
            };
            if tuple.iter().all(|e| e.index() < base.size()) {
                if base.holds(*rel, &tuple) != *pol {
                    return None;
                }
            } else if *pol {
                forced.on.push((*rel, tuple));
            } else {
                forced.off.push((*rel, tuple));
            }
        }
        forced.on.sort_unstable();
        forced.on.dedup();
        if forced.on.iter().any(|fact| forced.off.contains(fact)) {
            return None;
        }
        Some(forced)
    }
}

/// The forced relation literals of a guard under one placement, as concrete
/// facts on fresh elements (see [`GuardHints::forced_facts`]).
#[derive(Clone, Debug, Default)]
pub struct ForcedFacts {
    on: Vec<Fact>,
    off: Vec<Fact>,
}

impl ForcedFacts {
    /// Fixes the forced facts before a subset enumeration: removes every
    /// forced fact from `optional` and adds the forced-on ones to `cand`.
    /// Returns `false`, leaving `cand` untouched, when a forced-on fact is
    /// not optional — no candidate can contain it, so none satisfies the
    /// guard.
    ///
    /// The subsets of the remaining optional facts, in mask order, are
    /// exactly the old subsets that agree with the forced facts, in the old
    /// order; the others all falsify the guard.
    pub fn apply(&self, optional: &mut Vec<Fact>, cand: &mut Structure) -> bool {
        if !self.on.iter().all(|fact| optional.contains(fact)) {
            return false;
        }
        optional.retain(|fact| !self.on.contains(fact) && !self.off.contains(fact));
        for (rel, t) in &self.on {
            cand.add_fact(*rel, t).expect("optional facts are valid");
        }
        true
    }
}

/// Collects the relation atoms of a quantifier-free guard as variable
/// tuples, skipping atoms with non-variable arguments.
pub fn collect_hints(guard: &Formula) -> Vec<Hint> {
    dds_logic::transform::atoms(guard)
        .into_iter()
        .filter_map(|a| match a {
            Formula::Rel(r, args) => {
                let vars: Option<Vec<Var>> = args
                    .iter()
                    .map(|t| match t {
                        Term::Var(v) => Some(*v),
                        Term::App(..) => None,
                    })
                    .collect();
                vars.map(|vs| (r, vs))
            }
            _ => None,
        })
        .collect()
}

/// Interleaved old/new valuation (matches `dds_system`'s convention:
/// variable `2i` = old value of register `i`, `2i+1` = new value).
pub fn combined_valuation(old: &[Element], new: &[Element]) -> Vec<Element> {
    let mut out = Vec::with_capacity(2 * old.len());
    fill_combined(&mut out, old, new);
    out
}

/// Where a new register value lands in an amalgam.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PointTarget {
    /// An existing element of the base structure.
    Old(usize),
    /// The j-th fresh element (appended after the base domain).
    Fresh(usize),
}

/// All normalized placements of `k` new points over a base with `m_old`
/// elements: each point is an old element or a fresh one; fresh indices are
/// normalized to first-occurrence order so placements are canonical.
pub fn placements(m_old: usize, k: usize) -> Vec<Vec<PointTarget>> {
    let mut out = Vec::new();
    let mut cur: Vec<PointTarget> = Vec::with_capacity(k);
    fn go(
        m_old: usize,
        k: usize,
        next_fresh: usize,
        cur: &mut Vec<PointTarget>,
        out: &mut Vec<Vec<PointTarget>>,
    ) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for j in 0..m_old {
            cur.push(PointTarget::Old(j));
            go(m_old, k, next_fresh, cur, out);
            cur.pop();
        }
        for f in 0..=next_fresh {
            cur.push(PointTarget::Fresh(f));
            go(m_old, k, next_fresh.max(f + 1), cur, out);
            cur.pop();
        }
    }
    go(m_old, k, 0, &mut cur, &mut out);
    out
}

/// A placement of the `k` new points over a base with `m_old` elements,
/// in concrete elements: the new points and the fresh elements.
#[derive(Debug)]
pub struct PlacementCtx {
    /// Concrete positions of the new register values.
    pub new_points: Vec<Element>,
    /// The fresh elements (contiguous at the end of the domain, starting at
    /// `m_old`).
    pub fresh: Vec<Element>,
}

/// Every placement of `k` new points over a base with `m_old` elements, in
/// [`placements`] order. The list depends only on `(m_old, k)`, and the same
/// handful of pairs recur for every successor computation of a search, so
/// each thread computes each list once.
pub fn placement_contexts(m_old: usize, k: usize) -> PlacementTable {
    PLACEMENTS_MEMO.with(|memo| {
        Rc::clone(
            memo.borrow_mut()
                .entry((m_old, k))
                .or_insert_with(|| Rc::new(instantiate_placements(m_old, k))),
        )
    })
}

fn instantiate_placements(m_old: usize, k: usize) -> Vec<PlacementCtx> {
    placements(m_old, k)
        .iter()
        .map(|pl| {
            let fresh_count = pl
                .iter()
                .filter_map(|t| match t {
                    PointTarget::Fresh(f) => Some(f + 1),
                    PointTarget::Old(_) => None,
                })
                .max()
                .unwrap_or(0);
            let new_points = pl
                .iter()
                .map(|t| match t {
                    PointTarget::Old(j) => Element::from_index(*j),
                    PointTarget::Fresh(f) => Element::from_index(m_old + f),
                })
                .collect();
            let fresh = (0..fresh_count)
                .map(|f| Element::from_index(m_old + f))
                .collect();
            PlacementCtx { new_points, fresh }
        })
        .collect()
}

/// Resets `buf` to `base` extended by `extra` fresh isolated elements,
/// reusing `buf`'s relation buffers.
pub(crate) fn reset_extended(buf: &mut Structure, base: &Structure, extra: usize) {
    buf.clone_from(base);
    buf.extend_domain_in_place(extra);
}

/// Concrete tuples a guard's hint atoms refer to under a combined valuation
/// (deduplicated). Only tuples involving at least one element of `involving`
/// are returned — the others are frozen parts of the base.
pub fn hint_tuples(hints: &[Hint], combined: &[Element], involving: &[Element]) -> Vec<Fact> {
    let mut out: BTreeSet<Fact> = BTreeSet::new();
    for (rel, vars) in hints {
        let tuple: Option<Vec<Element>> = vars
            .iter()
            .map(|v| combined.get(v.index()).copied())
            .collect();
        if let Some(t) = tuple {
            if t.iter().any(|e| involving.contains(e)) {
                out.insert((*rel, t));
            }
        }
    }
    out.into_iter().collect()
}

/// All tuples over `universe` (per relation of `schema`) that involve at
/// least one element of `involving` and whose elements all lie in
/// `universe`. These are the tuples that survive into the new configuration,
/// so completeness requires enumerating all subsets of them.
pub fn internal_new_tuples(
    schema: &Schema,
    universe: &[Element],
    involving: &[Element],
) -> Vec<Fact> {
    let mut out = Vec::new();
    for r in schema.relations() {
        for t in dds_structure::structure::tuples_over(universe, schema.arity(r)) {
            if t.iter().any(|e| involving.contains(e)) {
                out.push((r, t));
            }
        }
    }
    out
}

/// Visits `cand` extended by every subset of `optional`, in increasing
/// subset-mask order (bit `i` stands for `optional[i]`).
///
/// `cand` must hold the base structure on entry, with none of the
/// (pairwise distinct) `optional` facts. Consecutive masks differ by one
/// added fact and the removal of the facts below it, so each step edits
/// `cand` in place instead of rebuilding it. On return `cand` holds the base
/// plus some of the optional facts; callers reset it before reuse.
pub fn enumerate_fact_subsets(
    cand: &mut Structure,
    optional: &[Fact],
    mut f: impl FnMut(&Structure) -> ControlFlow<()>,
) -> ControlFlow<()> {
    assert!(
        optional.len() <= 24,
        "enumerate_fact_subsets: too many optional facts ({})",
        optional.len()
    );
    debug_assert!(optional.iter().all(|(rel, t)| !cand.holds(*rel, t)));
    f(cand)?;
    for mask in 1u64..(1u64 << optional.len()) {
        // From `mask - 1` to `mask`: the lowest set bit of `mask` turns on
        // and every bit below it turns off.
        let low = mask.trailing_zeros() as usize;
        for (rel, t) in &optional[..low] {
            cand.remove_fact(*rel, t).expect("valid fact");
        }
        let (rel, t) = &optional[low];
        cand.add_fact(*rel, t).expect("valid fact");
        f(cand)?;
    }
    ControlFlow::Continue(())
}

/// Restricted-growth strings of length `k`: all set partitions of `k` points
/// (the patterns of which registers share a value).
pub fn point_patterns(k: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut cur = Vec::with_capacity(k);
    fn go(k: usize, max: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if cur.len() == k {
            out.push(cur.clone());
            return;
        }
        for c in 0..=max {
            cur.push(c);
            go(k, max.max(c + 1), cur, out);
            cur.pop();
        }
    }
    go(k, 0, &mut cur, &mut out);
    out
}

/// All surjective maps `k -> m` (order of classes matters, e.g. positions of
/// a chain).
pub fn surjections(k: usize, m: usize) -> Vec<Vec<usize>> {
    if m == 0 {
        return if k == 0 { vec![vec![]] } else { vec![] };
    }
    let mut out = Vec::new();
    let mut cur = vec![0usize; k];
    fn go(i: usize, k: usize, m: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if i == k {
            let mut used = vec![false; m];
            for &c in cur.iter() {
                used[c] = true;
            }
            if used.iter().all(|&u| u) {
                out.push(cur.clone());
            }
            return;
        }
        for c in 0..m {
            cur[i] = c;
            go(i + 1, k, m, cur, out);
        }
    }
    go(0, k, m, &mut cur, &mut out);
    out
}

/// Writes the interleaved old/new valuation into `out` (see
/// [`combined_valuation`]), reusing its buffer.
fn fill_combined(out: &mut Vec<Element>, old: &[Element], new: &[Element]) {
    debug_assert_eq!(old.len(), new.len());
    out.clear();
    out.extend(old.iter().zip(new).flat_map(|(&o, &n)| [o, n]));
}

/// Generic witness concretization by trace replay (see module docs): grows a
/// full database step by step, at each step selecting the first amalgam of
/// the *entire current database* whose new-point-generated configuration
/// matches the trace. Mirrors the paper's soundness induction.
pub fn replay_trace<T: AmalgamClass>(
    class: &T,
    system: &System,
    trace: &Trace<RelConfig>,
) -> Option<(Structure, Run)> {
    let first = trace.steps.first()?;
    let mut db = first.config.pointed.structure.clone();
    let mut points = first.config.pointed.points.clone();
    let mut states = vec![first.state];
    let mut vals = vec![points.clone()];
    let mut combined = Vec::new();
    let mut key = KeyScratch::default();

    for step in &trace.steps[1..] {
        let rule = &system.rules()[step.rule?];
        let guard = translate_formula(&rule.guard, system.schema(), class.internal_schema());
        let hints = GuardHints::of(&guard);
        let base = Pointed::new(db, points);
        let mut found = None;
        let _ = class.for_each_amalgam(&base, &hints, &mut |s, new_points| {
            fill_combined(&mut combined, &base.points, new_points);
            if eval(&guard, s, &combined).unwrap_or(false)
                && encode_generated_relational(s, new_points, &mut key) == step.config.key_hash()
                && key.words() == step.config.key().as_words()
            {
                found = Some((s.clone(), new_points.to_vec()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        });
        (db, points) = found?;
        states.push(step.state);
        vals.push(points.clone());
    }
    Some((class.project(&db), Run { states, vals }))
}

impl<T: AmalgamClass> SymbolicClass for T {
    type Config = RelConfig;

    fn schema(&self) -> &Arc<Schema> {
        self.public_schema()
    }

    fn initial_configs(&self, k: usize) -> Vec<RelConfig> {
        let mut seen = BTreeSet::new();
        let mut out = Vec::new();
        for p in self.initial_pointed(k) {
            let cfg = RelConfig::canonical(&p);
            if seen.insert(cfg.key().clone()) {
                out.push(cfg);
            }
        }
        out
    }

    fn transitions(&self, cfg: &RelConfig, guard: &Formula) -> Vec<RelConfig> {
        self.successors(cfg, guard, &Interner::new())
            .into_iter()
            .map(|entry| match entry {
                Resolved::Fresh(next, _) => *next,
                Resolved::Interned(_) => unreachable!("an empty interner holds no id"),
            })
            .collect()
    }

    /// Resolves each guard-passing candidate by its canonical key words
    /// ([`encode_generated_relational`]) against `known`, then against the
    /// fresh successors this call already built; only a key absent from
    /// both becomes a [`RelConfig`]. Entries keep first-occurrence order.
    fn successors(
        &self,
        cfg: &RelConfig,
        guard: &Formula,
        known: &Interner<RelConfig>,
    ) -> Vec<Resolved<RelConfig>> {
        let guard = translate_formula(guard, self.public_schema(), self.internal_schema());
        let hints = GuardHints::of(&guard);
        let mut key = KeyScratch::default();
        let mut seen_ids: HashSet<ConfigId> = HashSet::new();
        // Probe hash → position in `out` of the first fresh entry under it.
        let mut fresh_at: HashMap<u64, usize> = HashMap::new();
        let mut out = Vec::new();
        let mut combined = Vec::new();
        let _ = self.for_each_amalgam(&cfg.pointed, &hints, &mut |s, new_points| {
            fill_combined(&mut combined, &cfg.pointed.points, new_points);
            if !eval(&guard, s, &combined).unwrap_or(false) {
                return ControlFlow::Continue(());
            }
            // `RelConfig` hashes as its key hash (see its `Hash` impl).
            let hash = probe_hash(&encode_generated_relational(s, new_points, &mut key));
            let words = key.words();
            let same_key = |c: &RelConfig| c.key().as_words() == words;
            if let Some(id) = known.lookup_with(hash, same_key) {
                if seen_ids.insert(id) {
                    out.push(Resolved::Interned(id));
                }
                return ControlFlow::Continue(());
            }
            let is_fresh_dup = |entry: &Resolved<RelConfig>| {
                matches!(entry, Resolved::Fresh(c, h) if *h == hash && same_key(c))
            };
            let dup = match fresh_at.get(&hash) {
                None => false,
                // A different key under the same hash is a collision: fall
                // back to scanning every fresh entry.
                Some(&at) => is_fresh_dup(&out[at]) || out.iter().any(is_fresh_dup),
            };
            if !dup {
                fresh_at.entry(hash).or_insert(out.len());
                out.push(Resolved::Fresh(
                    Box::new(RelConfig::generated_by(s, new_points)),
                    hash,
                ));
            }
            ControlFlow::Continue(())
        });
        out
    }

    fn materialize(&self, cfg: &RelConfig) -> Pointed {
        Pointed {
            structure: self.project(&cfg.pointed.structure),
            points: cfg.pointed.points.clone(),
        }
    }

    fn concretize(&self, system: &System, trace: &Trace<RelConfig>) -> Option<(Structure, Run)> {
        replay_trace(self, system, trace)
    }
}

/// Every candidate of [`AmalgamClass::for_each_amalgam`], cloned out of the
/// visitor's buffer (unit tests inspect them after the enumeration).
#[cfg(test)]
pub(crate) fn collect_amalgams<C: AmalgamClass>(
    class: &C,
    base: &Pointed,
    hints: &GuardHints,
) -> Vec<Pointed> {
    let mut out = Vec::new();
    let _ = class.for_each_amalgam(base, hints, &mut |s, points| {
        out.push(Pointed::new(s.clone(), points.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placements_are_normalized_and_complete() {
        // m_old = 1, k = 2: targets per point: Old(0) or Fresh; patterns:
        // OO, OF0, F0O, F0F0, F0F1 -> 5
        let p = placements(1, 2);
        assert_eq!(p.len(), 5);
        assert!(p.contains(&vec![PointTarget::Fresh(0), PointTarget::Fresh(1)]));
        // Non-normalized Fresh(1) before Fresh(0) is absent.
        assert!(!p.contains(&vec![PointTarget::Fresh(1), PointTarget::Fresh(0)]));
        // k = 0: single empty placement.
        assert_eq!(placements(3, 0).len(), 1);
    }

    #[test]
    fn point_patterns_count_is_bell() {
        assert_eq!(point_patterns(0).len(), 1);
        assert_eq!(point_patterns(1).len(), 1);
        assert_eq!(point_patterns(2).len(), 2);
        assert_eq!(point_patterns(3).len(), 5);
        assert_eq!(point_patterns(4).len(), 15);
    }

    #[test]
    fn surjections_counts() {
        assert_eq!(surjections(2, 1).len(), 1);
        assert_eq!(surjections(2, 2).len(), 2);
        assert_eq!(surjections(3, 2).len(), 6);
        assert_eq!(surjections(2, 3).len(), 0);
        assert_eq!(surjections(0, 0).len(), 1);
    }

    #[test]
    fn hints_collected_from_guard() {
        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let schema = sc.finish();
        let guard = Formula::and(vec![
            Formula::rel_vars(e, &[Var(0), Var(3)]),
            Formula::negate(Formula::rel_vars(e, &[Var(1), Var(1)])),
            Formula::var_eq(Var(0), Var(1)),
        ]);
        let hints = collect_hints(&guard);
        assert_eq!(hints.len(), 2);
        assert_eq!(hints[0], (e, vec![Var(0), Var(3)]));
        let _ = schema;
    }

    #[test]
    fn translate_formula_remaps_by_name() {
        let mut a = Schema::new();
        let e_a = a.add_relation("E", 2).unwrap();
        let a = a.finish();
        let mut b = Schema::new();
        b.add_relation("pad", 1).unwrap();
        let e_b = b.add_relation("E", 2).unwrap();
        let b = b.finish();
        let f = Formula::rel_vars(e_a, &[Var(0), Var(1)]);
        let g = translate_formula(&f, &a, &b);
        assert_eq!(g, Formula::rel_vars(e_b, &[Var(0), Var(1)]));
    }

    #[test]
    fn projection_keeps_shared_symbols() {
        let mut big = Schema::new();
        let e = big.add_relation("E", 2).unwrap();
        let c = big.add_relation("col0", 1).unwrap();
        let big = big.finish();
        let mut small = Schema::new();
        small.add_relation("E", 2).unwrap();
        let small = small.finish();
        let mut s = Structure::new(big, 2);
        s.add_fact(e, &[Element(0), Element(1)]).unwrap();
        s.add_fact(c, &[Element(0)]).unwrap();
        let p = project_structure(&s, &small);
        assert_eq!(p.fact_count(), 1);
        let e_small = small.lookup("E").unwrap();
        assert!(p.holds(e_small, &[Element(0), Element(1)]));
    }
}
