//! Shared machinery for relational (semi-)Fraïssé classes.
//!
//! All relational classes in this crate (free, `HOM` and the data
//! products, which include Example 3's linear orders and equivalence
//! relations) implement the [`AmalgamClass`] trait: they list their members
//! on 0 elements and, most importantly, enumerate *amalgams* — extensions
//! of a base pointed structure by `k_new` new register values that stay
//! inside the class. A blanket implementation turns any `AmalgamClass` into
//! a [`SymbolicClass`] for the Theorem 5 engine, providing:
//!
//! * initial configurations: the amalgams of each member on 0 elements
//!   (with no points) by `k` new points, under the guard `true` — every
//!   `k`-generated member is one, over the part no point generates;
//! * sub-transition successors (amalgams filtered by the guard, restricted to
//!   the substructure generated by the new points, canonicalized), resolved
//!   against the search's interner ([`SymbolicClass::successors`]);
//! * witness concretization by construction ([`replay_trace`]): each trace
//!   step is found among the candidates over the previous configuration and
//!   amalgamated onto the witness so far ([`AmalgamClass::glue`]) — the
//!   executable form of the paper's soundness induction ("by closure under
//!   amalgamation we get a database A′ ...", §4.1).
//!
//! Amalgams are *streamed* in *families*: [`AmalgamClass::for_each_amalgam`]
//! lends a visitor one [`Family`] at a time — a candidate built in a buffer
//! reused for the whole call, plus the sorted *optional facts* whose every
//! subset extends it to another candidate, all with the same new points.
//! The free and `HOM` classes pass one family per placement (and fresh
//! coloring); data products pass one-candidate families. The visitor may stop the
//! enumeration with [`ControlFlow::Break`]. A family's candidates are its
//! subset masks in increasing order; [`Family::for_each`] builds each in
//! turn, which is what replay and the tests use ([`for_each_candidate`]).
//!
//! Successor computation first specialises the guard to the base
//! configuration ([`residual`]): atoms over old registers only become their
//! values there and the constants fold. The amalgams freeze the base, so
//! the residual holds on a candidate exactly when the guard does. A
//! residual `false` has no successors; otherwise each interned
//! configuration keeps a successor memo from residual to successor ids
//! ([`Interner::memo`]), so guard classes that differ only in what the
//! configuration decides share one resolution. A list is kept there only
//! when every entry is an interned id, and a base the interner lacks
//! (`transitions`) has no memo.
//!
//! On a miss the enumeration runs with the residual's hints and walks the
//! masks without building them ([`Family::for_each_passing`]). A
//! quantifier-free guard over variables sees only the facts on the old and
//! new points (the paper's locality argument), so it is decided on the
//! family where it can be ([`Family::decide`]). It is evaluated once with
//! every optional fact absent; when that reads no optional fact — always
//! for a conjunction of literals, whose relation literals are forced facts
//! fixed before the walk — its value holds for every mask, and the family
//! is skipped or every mask passes with no further evaluation
//! ([`eval_with`]). A guard that does read one, or is not quantifier-free,
//! is evaluated on each candidate built in turn.
//!
//! A guard-passing candidate is named by the configuration it generates.
//! The schemas here are relational, so that configuration is the
//! substructure induced on the new points, numbered by first occurrence
//! ([`RelConfig::generated_by`]), and its *packed key*
//! ([`RelConfig::packed`]) — the equality pattern of the new registers and
//! one bit per fact among the distinct new points — is its probe word
//! whenever the layout fits in 64 bits, whatever the base. [`FamilyKeys`]
//! computes the keys once per family — the pattern plus the facts of the
//! empty subset, and one bit per optional fact (none for a fact with an
//! element outside the new points) — and the interner files every
//! configuration with a packed key under that word. One probe thus
//! resolves such a candidate without touching the buffer. A candidate
//! whose layout is wider moves the buffer to its mask by adding and
//! removing just the facts that differ, and its configuration is built
//! there and probed as a value, as every fresh successor is built. Each
//! candidate is probed against the interner, then against the fresh
//! successors the call already built, and only one absent from both is
//! built. Debug builds rebuild every packed hit in a separate buffer and
//! assert that it is the interned configuration; the family's buffer
//! moves exactly as in release.
//!
//! The initial configurations are resolved the same way against an empty
//! interner, so each distinct one is built once. The engine interns every
//! initial configuration — every `k`-generated member — before it expands
//! anything, so its calls build no configuration at all; `transitions`,
//! against an empty interner, builds each distinct successor once. Replay
//! enumerates the candidates over the previous trace configuration — the
//! base the expansion used — evaluates the guard on each, builds the
//! configuration its new points generate, stops at the first that is the
//! trace step and clones only that candidate, which it keeps for the steps
//! that recur. It never enumerates amalgams of the witness itself.
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

use crate::class::{point_numbers, PackedLayout, Pointed, RelConfig, SymbolicClass, Trace};
use crate::data::DataLayer;
use crate::intern::{probe_hash, BuildWordHasher, ConfigId, Interner, Resolved};
use dds_logic::eval::{eval, eval_with, is_local};
use dds_logic::transform::{forced_literals, Literal};
use dds_logic::{Formula, Term, Var};
use dds_structure::{Element, Schema, Structure, SymbolId};
use dds_system::{Run, System};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashMap;
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

/// The visitor [`AmalgamClass::for_each_amalgam`] lends each [`Family`] of
/// candidates to. Returning [`ControlFlow::Break`] stops the enumeration.
pub type AmalgamVisitor<'a> = dyn FnMut(&mut Family<'_>) -> ControlFlow<()> + 'a;

/// A *family* of candidate amalgams with the same new points: `cand`
/// extended by each subset of `optional`. A subset is a mask (bit `i`
/// stands for `optional[i]`), and the family's candidates are its masks in
/// increasing order. Classes without optional facts pass one-candidate
/// families ([`Family::single`]).
#[derive(Debug)]
pub struct Family<'a> {
    /// The candidate of the empty subset: the base, the fresh elements and
    /// the facts every candidate of the family has, but none of
    /// `optional`. A visitor may leave it holding any subset; the class
    /// resets it before the next family.
    pub cand: &'a mut Structure,
    /// The new register values.
    pub new_points: &'a [Element],
    /// The optional facts: sorted, distinct, at most 24.
    pub optional: &'a [Fact],
}

impl<'a> Family<'a> {
    /// The family of the one candidate `cand`.
    pub fn single(cand: &'a mut Structure, new_points: &'a [Element]) -> Self {
        Family {
            cand,
            new_points,
            optional: &[],
        }
    }

    /// Visits every candidate with its mask, in increasing mask order,
    /// editing `cand` in place: consecutive masks differ by one added fact
    /// and the removal of the facts below it.
    pub fn for_each(
        &mut self,
        mut f: impl FnMut(&Structure, u64) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        let mut at = 0;
        for mask in masks(self.cand, self.optional) {
            move_to(self.cand, self.optional, at, mask);
            at = mask;
            f(self.cand, mask)?;
        }
        ControlFlow::Continue(())
    }

    /// The value of `guard` under `val` on every candidate, when one
    /// evaluation decides it; `None` when each candidate needs its own.
    ///
    /// A [local](is_local) guard sees only the atoms over old and new
    /// points, so it is evaluated once on the empty subset, answering
    /// optional tuples `false`. If that evaluation read no optional fact,
    /// its value holds for every subset (it follows the same path through
    /// the same answers). A guard that reads one, or is not local, decides
    /// nothing here.
    pub fn decide(&self, guard: &Formula, local: bool, val: &[Element]) -> Option<bool> {
        if !local {
            return None;
        }
        let (cand, optional) = (&*self.cand, self.optional);
        let mut reads = false;
        let value = eval_with(guard, val, |r, t| {
            let opt = optional
                .binary_search_by(|(or, ot)| or.cmp(&r).then_with(|| ot.as_slice().cmp(t)))
                .is_ok();
            reads |= opt;
            !opt && cand.holds(r, t)
        });
        (!reads).then(|| value.unwrap_or(false))
    }

    /// Visits the candidates that satisfy `guard` under `val`, in
    /// [`Family::for_each`]'s order, lending each with its mask as a
    /// [`Candidate`] that builds the structure only when asked. `decided`
    /// is [`Family::decide`]'s answer: `Some(false)` visits nothing,
    /// `Some(true)` every mask without evaluating, and `None` evaluates the
    /// guard on each candidate built in turn.
    pub fn for_each_passing(
        &mut self,
        guard: &Formula,
        decided: Option<bool>,
        val: &[Element],
        mut visit: impl FnMut(u64, &mut Candidate<'_>) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if decided == Some(false) {
            return ControlFlow::Continue(());
        }
        let optional = self.optional;
        let mut at = 0;
        for mask in masks(self.cand, optional) {
            if decided.is_none() {
                move_to(self.cand, optional, at, mask);
                at = mask;
                if !eval(guard, self.cand, val).unwrap_or(false) {
                    continue;
                }
            }
            visit(
                mask,
                &mut Candidate {
                    buf: &mut *self.cand,
                    optional,
                    at: &mut at,
                    mask,
                },
            )?;
        }
        ControlFlow::Continue(())
    }
}

/// A candidate of a [`Family`] that [`Family::for_each_passing`] lends
/// without building it.
#[derive(Debug)]
pub struct Candidate<'c> {
    buf: &'c mut Structure,
    optional: &'c [Fact],
    /// The mask `buf` holds.
    at: &'c mut u64,
    mask: u64,
}

impl Candidate<'_> {
    /// The candidate structure: moves the family's buffer to this subset by
    /// adding and removing just the facts the two subsets disagree on.
    pub fn get(&mut self) -> &Structure {
        move_to(self.buf, self.optional, *self.at, self.mask);
        *self.at = self.mask;
        self.buf
    }

    /// The candidate structure built in `buf`, leaving the family's buffer
    /// where it is.
    pub fn copy_into<'b>(&self, buf: &'b mut Option<Structure>) -> &'b Structure {
        let buf = match buf {
            Some(buf) => {
                buf.clone_from(self.buf);
                buf
            }
            None => buf.insert(self.buf.clone()),
        };
        move_to(buf, self.optional, *self.at, self.mask);
        buf
    }
}

/// The subset masks over a family's optional facts, in increasing order.
/// `cand` and `optional` are only checked against [`Family`]'s invariants.
fn masks(cand: &Structure, optional: &[Fact]) -> std::ops::Range<u64> {
    let n = optional.len();
    assert!(n <= 24, "too many optional facts in one family ({n})");
    debug_assert!(optional.windows(2).all(|w| w[0] < w[1]));
    debug_assert!(optional.iter().all(|(rel, t)| !cand.holds(*rel, t)));
    0..1 << n
}

/// Moves `cand` from the subset `from` of `optional` to the subset `to`:
/// adds and removes just the facts of `from ^ to`, lowest bit first.
fn move_to(cand: &mut Structure, optional: &[Fact], from: u64, to: u64) {
    let mut diff = from ^ to;
    while diff != 0 {
        let i = diff.trailing_zeros() as usize;
        diff &= diff - 1;
        let (rel, t) = &optional[i];
        if to >> i & 1 == 1 {
            cand.add_fact(*rel, t)
        } else {
            cand.remove_fact(*rel, t)
        }
        .expect("optional facts are valid");
    }
}

/// The packed keys ([`RelConfig::packed`]) of the configurations a family's
/// candidates generate: the *head* — the new points' pattern and the facts
/// the empty subset holds among them — plus one bit per optional fact, 0
/// for a fact with an element outside the new points. The key does not
/// depend on the base, so it names the successor in the whole search.
#[derive(Debug)]
pub struct FamilyKeys {
    /// Per number of distinct new points, the layout (`None`: too wide).
    layouts: Vec<Option<PackedLayout>>,
    numbered: Vec<Element>,
    head: u64,
    bits: Vec<u64>,
}

impl FamilyKeys {
    /// For families over `schema` with `k` new points.
    pub fn new(schema: &Schema, k: usize) -> FamilyKeys {
        FamilyKeys {
            layouts: (0..=k).map(|n| PackedLayout::new(schema, k, n)).collect(),
            numbered: Vec::new(),
            head: 0,
            bits: Vec::new(),
        }
    }

    /// Computes the keys of `family`'s candidates; `false` when their
    /// layout does not fit in 64 bits.
    pub fn prepare(&mut self, family: &Family<'_>) -> bool {
        debug_assert_eq!(self.layouts.len(), family.new_points.len() + 1);
        point_numbers(family.new_points, &mut self.numbered);
        let Some(Some(layout)) = self.layouts.get(self.numbered.len()) else {
            return false;
        };
        self.head = layout.key(family.cand, family.new_points, &self.numbered);
        self.bits.clear();
        self.bits.extend(
            family
                .optional
                .iter()
                .map(|(r, t)| layout.fact_bit(*r, t, &self.numbered)),
        );
        true
    }

    /// The key of the candidate with subset `mask`, after a successful
    /// [`FamilyKeys::prepare`].
    pub fn key(&self, mask: u64) -> u64 {
        let (mut key, mut rest) = (self.head, mask);
        while rest != 0 {
            key |= self.bits[rest.trailing_zeros() as usize];
            rest &= rest - 1;
        }
        key
    }
}

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

    /// The members on 0 elements, one per set of nullary facts the class
    /// allows, over the internal schema. With no points they are the
    /// 0-point configurations, and every initial configuration is one of
    /// their amalgams (see [`SymbolicClass::initial_configs`]).
    fn empty_members(&self) -> Vec<Structure>;

    /// Visits the candidate amalgams: pointed structures `(A, new_points)`
    /// such that `A` is a member of the class, `A` extends `base.structure`
    /// *in place* (elements `0..base.size()` are untouched, fresh elements
    /// appended), and `new_points` are the `k_new` new register values
    /// (`base.points.len()` for a sub-transition, any `k` for the initial
    /// configurations over a base without points). The visited
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
        k_new: usize,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()>;

    /// Projects an internal structure to the public schema (copying the
    /// symbols shared by name). The default handles the identity case.
    fn project(&self, s: &Structure) -> Structure {
        project_structure(s, self.public_schema())
    }

    /// Amalgamates a candidate `step` onto the witness `w` ([`replay_trace`]).
    /// `step` is a candidate over a configuration whose element `i` is
    /// `w`'s element `at[i]`, and on which `w` induces that configuration;
    /// `step`'s fresh elements `at.len()..` are appended to `w`, in order.
    /// The default is the free amalgam, which is the class's own for the
    /// free and `HOM` classes: it appends `step`'s fresh elements and
    /// copies every fact over the internal schema's relations that involves
    /// one. (A product's inner class calls it with a longer `step`, whose
    /// symbols extend the inner schema's.)
    fn glue(&self, w: &mut Witness, step: &Structure, at: &[Element]) {
        let (n, m) = (at.len(), w.db.size());
        w.db.extend_domain_in_place(step.size() - n);
        let image = |e: &Element| match at.get(e.index()) {
            Some(&old) => old,
            None => Element::from_index(m + e.index() - n),
        };
        let mut mapped = Vec::new();
        for r in self.internal_schema().relations() {
            for t in step
                .rel_tuples(r)
                .filter(|t| t.iter().any(|e| e.index() >= n))
            {
                mapped.clear();
                mapped.extend(t.iter().map(image));
                w.db.add_fact(r, &mapped)
                    .expect("glued elements are in range");
            }
        }
    }

    /// Writes what [`AmalgamClass::glue`] deferred, making `w.db` the
    /// witness database. The default defers nothing.
    fn finish(&self, _w: &mut Witness) {}
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

/// Appends to `out` the concrete tuples a guard's hint atoms refer to under
/// a combined valuation (in atom order, duplicates kept). Only tuples
/// involving at least one element of `involving` are appended — the others
/// are frozen parts of the base.
pub fn hint_tuples(
    out: &mut Vec<Fact>,
    hints: &[Hint],
    combined: &[Element],
    involving: &[Element],
) {
    for (rel, vars) in hints {
        let tuple: Option<Vec<Element>> = vars
            .iter()
            .map(|v| combined.get(v.index()).copied())
            .collect();
        if let Some(t) = tuple {
            if t.iter().any(|e| involving.contains(e)) {
                out.push((*rel, t));
            }
        }
    }
}

/// Appends to `out` all tuples over `universe` (per relation in `relations`,
/// of `schema`) that involve at least one element of `involving` and whose
/// elements all lie in `universe`. These are the tuples that survive into
/// the new configuration, so completeness requires enumerating all subsets
/// of them.
pub fn internal_new_tuples(
    out: &mut Vec<Fact>,
    schema: &Schema,
    relations: impl IntoIterator<Item = SymbolId>,
    universe: &[Element],
    involving: &[Element],
) {
    for r in relations {
        for t in dds_structure::structure::tuples_over(universe, schema.arity(r)) {
            if t.iter().any(|e| involving.contains(e)) {
                out.push((r, t));
            }
        }
    }
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

/// Writes the interleaved old/new valuation into `out` (see
/// [`combined_valuation`]), reusing its buffer. A base without points (the
/// initial configurations, resolved under `true`) gives the empty valuation.
pub(crate) fn fill_combined(out: &mut Vec<Element>, old: &[Element], new: &[Element]) {
    debug_assert!(old.is_empty() || old.len() == new.len());
    out.clear();
    out.extend(old.iter().zip(new).flat_map(|(&o, &n)| [o, n]));
}

/// A witness database under construction by [`replay_trace`]: a member of
/// the class over its internal schema, except that a data product keeps
/// its relation as one value class per element, updated as each step is
/// glued on and written once by [`AmalgamClass::finish`].
#[derive(Clone, Debug)]
pub struct Witness {
    /// The database; a data layer's relation holds only the first
    /// configuration's facts until [`AmalgamClass::finish`].
    pub(crate) db: Structure,
    /// One entry per data layer glued so far.
    pub(crate) layers: Vec<DataLayer>,
}

/// Witness concretization by construction, the executable form of the
/// paper's soundness induction ("by closure under amalgamation we get a
/// database A′", §4.1). The trace's first configuration seeds the witness.
/// Each later step searches the candidates over the *previous*
/// configuration's representative — the base an engine expansion uses —
/// for the first that satisfies the rule's guard and whose new points
/// generate the step's configuration, then glues it onto the witness
/// ([`AmalgamClass::glue`]) along the map from the configuration's points
/// to the current register values. The witness restricted to the glued
/// candidate's image is that candidate, so the guard, which is
/// quantifier-free, holds there as it did on the candidate.
///
/// Within one replay the found candidate is kept per (previous
/// configuration, guard, next configuration), so a step that recurs is
/// glued without a search.
pub fn replay_trace<T: AmalgamClass>(
    class: &T,
    system: &System,
    trace: &Trace<RelConfig>,
) -> Option<(Structure, Run)> {
    replay(class, system, trace, None)
}

/// [`replay_trace`], calling `inspect` after each glue with the witness so
/// far (finished, over the internal schema) and the new register values.
pub fn replay_trace_inspect<T: AmalgamClass>(
    class: &T,
    system: &System,
    trace: &Trace<RelConfig>,
    inspect: &mut Inspect<'_>,
) -> Option<(Structure, Run)> {
    replay(class, system, trace, Some(inspect))
}

/// The visitor [`replay_trace_inspect`] calls after each glue.
type Inspect<'a> = dyn FnMut(&Structure, &[Element]) + 'a;

fn replay<T: AmalgamClass>(
    class: &T,
    system: &System,
    trace: &Trace<RelConfig>,
    mut inspect: Option<&mut Inspect<'_>>,
) -> Option<(Structure, Run)> {
    let first = trace.steps.first()?;
    // The distinct guards of the rules the trace takes, over the internal
    // schema, and each rule's number among them once it is taken.
    let mut guards: Vec<Formula> = Vec::new();
    let mut guard_of = vec![None; system.rules().len()];
    let mut found: HashMap<(&RelConfig, usize, &RelConfig), Pointed> = HashMap::new();
    let mut w = Witness {
        db: first.config.pointed.structure.clone(),
        layers: Vec::new(),
    };
    let mut points = first.config.pointed.points.clone();
    let mut states = vec![first.state];
    let mut vals = vec![points.clone()];
    let mut at = Vec::new();
    for pair in trace.steps.windows(2) {
        let (prev, next) = (&pair[0].config, &pair[1].config);
        let rule = pair[1].rule?;
        let guard = *guard_of[rule].get_or_insert_with(|| {
            let g = translate_formula(
                &system.rules()[rule].guard,
                system.schema(),
                class.internal_schema(),
            );
            guards.iter().position(|h| *h == g).unwrap_or_else(|| {
                guards.push(g);
                guards.len() - 1
            })
        });
        let step = match found.entry((prev, guard, next)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(e) => {
                e.insert(step_candidate(class, &prev.pointed, &guards[guard], next)?)
            }
        };
        // The configuration's elements are its distinct points.
        at.clear();
        at.resize(prev.pointed.structure.size(), Element(0));
        for (p, &v) in prev.pointed.points.iter().zip(&points) {
            at[p.index()] = v;
        }
        let m = w.db.size();
        class.glue(&mut w, &step.structure, &at);
        for (v, p) in points.iter_mut().zip(&step.points) {
            *v = at
                .get(p.index())
                .copied()
                .unwrap_or_else(|| Element::from_index(m + p.index() - at.len()));
        }
        states.push(pair[1].state);
        vals.push(points.clone());
        if let Some(inspect) = inspect.as_mut() {
            let mut done = w.clone();
            class.finish(&mut done);
            inspect(&done.db, &points);
        }
    }
    class.finish(&mut w);
    Some((class.project(&w.db), Run { states, vals }))
}

/// The first candidate over `base` that satisfies `guard` and whose new
/// points generate `next`, with its new points.
fn step_candidate<T: AmalgamClass>(
    class: &T,
    base: &Pointed,
    guard: &Formula,
    next: &RelConfig,
) -> Option<Pointed> {
    let mut found = None;
    let mut combined = Vec::new();
    let _ = for_each_candidate(
        class,
        base,
        base.points.len(),
        &GuardHints::of(guard),
        |s, new_points| {
            fill_combined(&mut combined, &base.points, new_points);
            if eval(guard, s, &combined).unwrap_or(false)
                && RelConfig::generated_by(s, new_points) == *next
            {
                found = Some(Pointed::new(s.clone(), new_points.to_vec()));
                return ControlFlow::Break(());
            }
            ControlFlow::Continue(())
        },
    );
    found
}

impl<T: AmalgamClass> SymbolicClass for T {
    type Config = RelConfig;

    fn schema(&self) -> &Arc<Schema> {
        self.public_schema()
    }

    /// The successors under `true` of each 0-point configuration
    /// ([`AmalgamClass::empty_members`]) with `k` new points. Every
    /// `k`-generated member is an amalgam over the part no point generates,
    /// which is a member on 0 elements. Two members on 0 elements differ in
    /// a nullary fact, which every configuration over them keeps, so their
    /// successor lists are disjoint.
    fn initial_configs(&self, k: usize) -> Vec<RelConfig> {
        let none = Interner::new();
        self.empty_members()
            .into_iter()
            .flat_map(|s| {
                let base = Pointed::new(s, Vec::new());
                resolve_amalgams(self, &base, k, &Formula::True, &none)
            })
            .map(|entry| match entry {
                Resolved::Fresh(cfg, _) => *cfg,
                Resolved::Interned(_) => unreachable!("an empty interner holds no id"),
            })
            .collect()
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

    /// Specialises `guard` to `cfg` ([`residual`]) and answers a residual
    /// `false` with no successors. When `known` holds `cfg`, a list its
    /// successor memo ([`Interner::memo`]) keeps under the residual is the
    /// answer. Otherwise each candidate that satisfies the residual is
    /// resolved by its packed key or else as a built value (see the module
    /// docs), and a list made only of interned ids goes into the memo.
    fn successors(
        &self,
        cfg: &RelConfig,
        guard: &Formula,
        known: &Interner<RelConfig>,
    ) -> Vec<Resolved<RelConfig>> {
        let guard = residual(
            translate_formula(guard, self.public_schema(), self.internal_schema()),
            &cfg.pointed,
        );
        if guard == Formula::False {
            return Vec::new();
        }
        let id = known.lookup_prehashed(cfg, Interner::hash_value(cfg));
        if let Some(ids) = id.and_then(|id| known.memo(id).get(&guard).cloned()) {
            return ids.iter().map(|&id| Resolved::Interned(id)).collect();
        }
        let k = cfg.pointed.points.len();
        let out = resolve_amalgams(self, &cfg.pointed, k, &guard, known);
        if let Some(id) = id {
            let ids: Option<Arc<[ConfigId]>> = out
                .iter()
                .map(|entry| match entry {
                    Resolved::Interned(id) => Some(*id),
                    Resolved::Fresh(..) => None,
                })
                .collect();
            if let Some(ids) = ids {
                known.memo(id).insert(guard, ids);
            }
        }
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

/// `guard` specialised to the configuration `cfg` it is evaluated over:
/// every atom whose variables are all old registers becomes its value on
/// `cfg`'s points, `v = v` becomes `true`, and the constants fold through
/// [`Formula::and`], [`Formula::or`] and [`Formula::negate`]. The amalgams
/// of `cfg` freeze its structure, so the residual holds on a candidate
/// exactly when `guard` does.
///
/// Only a [local](is_local) guard whose variables are registers
/// (`0..2k`) is specialised: `eval` answers the others with an error or
/// reads a domain, which folding could change.
pub fn residual(guard: Formula, cfg: &Pointed) -> Formula {
    fn fold(f: Formula, cfg: &Pointed) -> Formula {
        let old = |t: &Term| match t {
            Term::Var(v) if v.index() % 2 == 0 => Some(cfg.points[v.index() / 2]),
            _ => None,
        };
        let constant = |value: bool| if value { Formula::True } else { Formula::False };
        match f {
            Formula::Eq(a, b) if a == b => Formula::True,
            Formula::Eq(a, b) => match (old(&a), old(&b)) {
                (Some(x), Some(y)) => constant(x == y),
                _ => Formula::Eq(a, b),
            },
            Formula::Rel(r, args) => match args.iter().map(old).collect::<Option<Vec<_>>>() {
                Some(tuple) => constant(cfg.structure.holds(r, &tuple)),
                None => Formula::Rel(r, args),
            },
            Formula::Not(inner) => Formula::negate(fold(*inner, cfg)),
            Formula::And(fs) => Formula::and(fs.into_iter().map(|f| fold(f, cfg)).collect()),
            Formula::Or(fs) => Formula::or(fs.into_iter().map(|f| fold(f, cfg)).collect()),
            other => other,
        }
    }
    let registers = 2 * cfg.points.len();
    if is_local(&guard) && guard.free_vars().iter().all(|v| v.index() < registers) {
        fold(guard, cfg)
    } else {
        guard
    }
}

/// The key-first resolution behind [`SymbolicClass::successors`] and
/// [`SymbolicClass::initial_configs`]: the configurations the `k_new` new
/// points generate in the candidates over `base` that satisfy `guard`
/// (over the internal schema), resolved against `known`. A candidate with
/// a packed key ([`FamilyKeys`]) is probed by it; one without is built and
/// probed as a value. Each is probed against `known`, then against the
/// fresh successors this call already built, and only a configuration
/// absent from both is built. Entries keep first-occurrence order.
fn resolve_amalgams<T: AmalgamClass + ?Sized>(
    class: &T,
    base: &Pointed,
    k_new: usize,
    guard: &Formula,
    known: &Interner<RelConfig>,
) -> Vec<Resolved<RelConfig>> {
    let hints = GuardHints::of(guard);
    let mut keys = FamilyKeys::new(class.internal_schema(), k_new);
    // Bitmap over `known`'s ids of the ones already in `out`.
    let mut seen_ids = vec![0u64; known.len().div_ceil(64)];
    let mut push_id = |out: &mut Vec<Resolved<RelConfig>>, id: ConfigId| {
        let (word, bit) = (id.index() / 64, 1u64 << (id.index() % 64));
        if seen_ids[word] & bit == 0 {
            seen_ids[word] |= bit;
            out.push(Resolved::Interned(id));
        }
    };
    // Probe hash → position in `out` of the first fresh entry under it.
    let mut fresh_at: HashMap<u64, usize, BuildWordHasher> = HashMap::default();
    let mut out = Vec::new();
    let mut combined = Vec::new();
    let local = is_local(guard);
    // Debug builds re-check packed hits on a copy, so the family's buffer
    // moves exactly as in release.
    let mut recheck = None;
    let _ = class.for_each_amalgam(base, k_new, &hints, &mut |family| {
        fill_combined(&mut combined, &base.points, family.new_points);
        let decided = family.decide(guard, local, &combined);
        if decided == Some(false) {
            return ControlFlow::Continue(());
        }
        let has_keys = keys.prepare(family);
        let new_points = family.new_points;
        family.for_each_passing(guard, decided, &combined, |mask, cand| {
            // A successor with a packed key is probed by it, which is how
            // `RelConfig` hashes then; one without is built now and probed
            // as a value.
            let (hash, packed, built) = if has_keys {
                let packed = keys.key(mask);
                (probe_hash(&packed), Some(packed), None)
            } else {
                let next = RelConfig::generated_by(cand.get(), new_points);
                (Interner::hash_value(&next), None, Some(next))
            };
            let same = |c: &RelConfig| match &built {
                Some(next) => c == next,
                None => c.packed() == packed && c.pointed.points.len() == k_new,
            };
            if let Some(id) = known.lookup_with(hash, same) {
                debug_assert!(
                    built.is_some()
                        || RelConfig::generated_by(cand.copy_into(&mut recheck), new_points)
                            == *known.get(id),
                    "packed key {packed:?} over {base:?} names two configurations"
                );
                push_id(&mut out, id);
                return ControlFlow::Continue(());
            }
            let is_fresh_dup = |entry: &Resolved<RelConfig>| {
                matches!(entry, Resolved::Fresh(c, h) if *h == hash && same(c))
            };
            let dup = match fresh_at.get(&hash) {
                None => false,
                // A different configuration under the same hash is a
                // collision: fall back to scanning every fresh entry.
                Some(&at) => is_fresh_dup(&out[at]) || out.iter().any(is_fresh_dup),
            };
            if !dup {
                let next = built.unwrap_or_else(|| {
                    let next = RelConfig::generated_by(cand.get(), new_points);
                    debug_assert_eq!(next.packed(), packed, "{next:?}");
                    next
                });
                fresh_at.entry(hash).or_insert(out.len());
                out.push(Resolved::Fresh(Box::new(next), hash));
            }
            ControlFlow::Continue(())
        })
    });
    out
}

/// Visits the candidates of [`AmalgamClass::for_each_amalgam`] one at a
/// time ([`Family::for_each`]), each with its new points.
pub fn for_each_candidate<C: AmalgamClass + ?Sized>(
    class: &C,
    base: &Pointed,
    k_new: usize,
    hints: &GuardHints,
    mut f: impl FnMut(&Structure, &[Element]) -> ControlFlow<()>,
) -> ControlFlow<()> {
    class.for_each_amalgam(base, k_new, hints, &mut |family| {
        let new_points = family.new_points;
        family.for_each(|s, _| f(s, new_points))
    })
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
    let _ = for_each_candidate(class, base, base.points.len(), hints, |s, points| {
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
