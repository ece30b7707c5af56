//! Property tests for the Fraïssé-class invariants the engine's correctness
//! rests on (§4.1): amalgams stay in the class, extend the base in place,
//! and sub-transition successors are themselves valid configurations. Three
//! oracles pin the streaming successor path to the plain definition: the
//! one-pass canonicalization and the words-only key encoder against
//! `generated()` + `RelConfig::canonical`; `transitions` and the
//! interner-resolving `successors` (cold, seeded, warm, from the
//! per-configuration memo, and under the residual guard) against a
//! reference built from those under the original guard over the spec
//! corpora; and the packed-key contract — a candidate's per-family packed
//! key is that of the configuration it generates — over the same corpora.
//! A fourth pins the guard evaluator the successor search decides families
//! with (`eval_with`) to `eval`.

use dds::core::amalgam::{
    combined_valuation, for_each_candidate, residual, translate_formula, FamilyKeys, GuardHints,
};
use dds::core::intern::Resolved;
use dds::core::{AmalgamClass, Interner, Pointed, RelConfig};
use dds::logic::eval::{eval, eval_with, is_local};
use dds::prelude::*;
use dds::structure::{encode_generated_relational, KeyScratch};
use dds_cli::load_spec;
use dds_cli::lower::{AnyClass, Task};
use dds_gen::diff::is_data_relation;
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Every candidate amalgam, cloned out of the visitor's buffer.
fn amalgams<C: AmalgamClass>(class: &C, base: &Pointed) -> Vec<Pointed> {
    let mut out = Vec::new();
    let k = base.points.len();
    let _ = for_each_candidate(class, base, k, &GuardHints::default(), |s, points| {
        out.push(Pointed::new(s.clone(), points.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

/// Builds an arbitrary equivalence-class configuration from a block string.
fn equiv_pointed(
    class: &DataClass<FreeRelationalClass>,
    blocks: &[usize],
    points: &[usize],
) -> Pointed {
    let sim = class.data_symbol();
    let mut s = Structure::new(class.schema().clone(), blocks.len());
    for (i, bi) in blocks.iter().enumerate() {
        for (j, bj) in blocks.iter().enumerate() {
            if bi == bj {
                s.add_fact(sim, &[Element::from_index(i), Element::from_index(j)])
                    .unwrap();
            }
        }
    }
    Pointed::new(s, points.iter().map(|&p| Element::from_index(p)).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Equivalence relations: every amalgam of a member is a member and
    /// freezes the base ~-facts.
    #[test]
    fn equivalence_amalgams_are_members(
        raw_blocks in proptest::collection::vec(0usize..3, 1..4),
        point in 0usize..3,
    ) {
        let class = DataClass::equivalence();
        // Normalize the block string (restricted growth).
        let mut map = std::collections::HashMap::new();
        let mut next = 0usize;
        let blocks: Vec<usize> = raw_blocks.iter().map(|&b| {
            *map.entry(b).or_insert_with(|| { let v = next; next += 1; v })
        }).collect();
        let point = point % blocks.len();
        let base = equiv_pointed(&class, &blocks, &[point]);
        for cand in amalgams(&class, &base) {
            prop_assert!(is_data_relation(class.spec(), &cand.structure));
            // Base frozen: old blocks unchanged.
            let old = class.data_classes(&base.structure);
            let new = class.data_classes(&cand.structure);
            for i in 0..old.len() {
                for j in 0..old.len() {
                    prop_assert_eq!(old[i] == old[j], new[i] == new[j]);
                }
            }
        }
    }

    /// Linear orders: amalgams are total strict orders preserving the base.
    #[test]
    fn linear_order_amalgams_are_members(m in 1usize..4, point in 0usize..4) {
        let class = DataClass::linear_order();
        let base = class
            .initial_configs(1)
            .into_iter()
            .map(|c| c.pointed)
            .find(|p| p.structure.size() == m.min(1))
            .unwrap();
        let _ = point;
        for cand in amalgams(&class, &base) {
            prop_assert!(is_data_relation(class.spec(), &cand.structure));
        }
    }

    /// Free class: the generated successor configuration of any amalgam is
    /// point-generated (the engine's canonicalization precondition).
    #[test]
    fn free_amalgam_successors_are_generated(bits in 0u8..16) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let schema = s.finish();
        let mut g = Structure::new(schema.clone(), 2);
        if bits & 1 != 0 { g.add_fact(e, &[Element(0), Element(1)]).unwrap(); }
        if bits & 2 != 0 { g.add_fact(e, &[Element(1), Element(0)]).unwrap(); }
        if bits & 4 != 0 { g.add_fact(e, &[Element(0), Element(0)]).unwrap(); }
        if bits & 8 != 0 { g.add_fact(e, &[Element(1), Element(1)]).unwrap(); }
        let class = FreeRelationalClass::new(schema);
        let base = Pointed::new(g, vec![Element(0), Element(1)]);
        for cand in amalgams(&class, &base).into_iter().take(64) {
            let small = cand.generated();
            // Every element of the generated part is a point value.
            for el in small.structure.elements() {
                prop_assert!(small.points.contains(&el));
            }
        }
    }

    /// The one-pass canonicalization equals `generated()` followed by
    /// `RelConfig::canonical` — key words, representative and points — and
    /// the words-only encoder writes the same words and returns the same
    /// hash, over random relational structures with relations of arity
    /// 0–6, up to 8 elements, and repeated, permuted points. The encoder's
    /// scratch first encodes an unrelated pointing, so stale buffer contents
    /// would show.
    #[test]
    fn one_pass_canonicalization_matches_generated(
        size in 1usize..9,
        arities in proptest::collection::vec(0usize..7, 1..4),
        facts in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0usize..8, 6..7)),
            0..24,
        ),
        raw_points in proptest::collection::vec(0usize..8, 0..8),
    ) {
        let mut sc = Schema::new();
        let rels: Vec<SymbolId> = arities
            .iter()
            .enumerate()
            .map(|(i, &a)| sc.add_relation(&format!("R{i}"), a).unwrap())
            .collect();
        let mut s = Structure::new(sc.finish(), size);
        for (r, coords) in &facts {
            let r = r % rels.len();
            let tuple: Vec<Element> = coords[..arities[r]]
                .iter()
                .map(|&e| Element::from_index(e % size))
                .collect();
            s.add_fact(rels[r], &tuple).unwrap();
        }
        let points: Vec<Element> =
            raw_points.iter().map(|&p| Element::from_index(p % size)).collect();
        let fast = RelConfig::generated_by(&s, &points);
        let mut scratch = KeyScratch::default();
        let reversed: Vec<Element> = points.iter().rev().copied().collect();
        encode_generated_relational(&s, &reversed, &mut scratch);
        let hash = encode_generated_relational(&s, &points, &mut scratch);
        let reference = RelConfig::canonical(&Pointed::new(s, points).generated());
        prop_assert_eq!(fast.key().as_words(), reference.key().as_words());
        prop_assert_eq!(&fast.pointed, &reference.pointed);
        prop_assert_eq!(scratch.words(), reference.key().as_words());
        prop_assert_eq!(hash, reference.key().hash64());
    }
}

/// A formula read off a stream of choices (0 once the stream runs out):
/// `True`, `False`, `Not`, `And` and `Or` of up to three parts, nested up
/// to `depth`, over equalities and relation atoms of `rels`, with variables
/// `v0`..`v5`.
fn formula_from(
    choices: &mut std::slice::Iter<'_, u32>,
    rels: &[SymbolId],
    depth: usize,
) -> Formula {
    fn pick(choices: &mut std::slice::Iter<'_, u32>, n: usize) -> usize {
        choices.next().map_or(0, |&c| c as usize % n)
    }
    let var = |choices: &mut std::slice::Iter<'_, u32>| Term::var(Var(pick(choices, 6) as u32));
    match pick(choices, if depth == 0 { 4 } else { 7 }) {
        0 => Formula::True,
        1 => Formula::False,
        2 => Formula::Eq(var(choices), var(choices)),
        3 => {
            let r = rels[pick(choices, rels.len())];
            let arity = [1, 2, 9][r.index()];
            Formula::Rel(r, (0..arity).map(|_| var(choices)).collect())
        }
        4 => Formula::Not(Box::new(formula_from(choices, rels, depth - 1))),
        kind => {
            let parts = (0..pick(choices, 4))
                .map(|_| formula_from(choices, rels, depth - 1))
                .collect();
            if kind == 5 {
                Formula::And(parts)
            } else {
                Formula::Or(parts)
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `eval_with` answering atoms from a structure is `eval` on it, errors
    /// included, over random nestings of the connectives, equalities and
    /// atoms of arity 1, 2 and 9 (wider than `eval`'s stack buffer), with
    /// valuations of up to four elements for variables `v0`..`v5`.
    #[test]
    fn eval_with_matches_eval(
        size in 1usize..4,
        facts in proptest::collection::vec(
            (0usize..3, proptest::collection::vec(0usize..3, 9..10)),
            0..24,
        ),
        raw_val in proptest::collection::vec(0usize..3, 0..5),
        choices in proptest::collection::vec(0u32..1000, 8..64),
    ) {
        let mut sc = Schema::new();
        let rels = [
            sc.add_relation("u", 1).unwrap(),
            sc.add_relation("E", 2).unwrap(),
            sc.add_relation("W", 9).unwrap(),
        ];
        let mut s = Structure::new(sc.finish(), size);
        for (r, coords) in &facts {
            let tuple: Vec<Element> = coords[..[1, 2, 9][*r]]
                .iter()
                .map(|&e| Element::from_index(e % size))
                .collect();
            s.add_fact(rels[*r], &tuple).unwrap();
        }
        let val: Vec<Element> = raw_val.iter().map(|&e| Element::from_index(e % size)).collect();
        let f = formula_from(&mut choices.iter(), &rels, 3);
        prop_assert!(is_local(&f));
        prop_assert_eq!(eval_with(&f, &val, |r, t| s.holds(r, t)), eval(&f, &s, &val));
    }
}

/// The plain definition of a sub-transition: visit the candidates, keep
/// those satisfying the guard, restrict each to the substructure its new
/// points generate, canonicalize, and deduplicate in order. The forced
/// relation literals are cleared, so the visitor enumerates every fact
/// subset instead of fixing the forced ones first.
fn reference_transitions<C: AmalgamClass>(
    class: &C,
    cfg: &RelConfig,
    guard: &Formula,
) -> Vec<RelConfig> {
    let guard = translate_formula(guard, class.public_schema(), class.internal_schema());
    let hints = GuardHints {
        rels: Vec::new(),
        ..GuardHints::of(&guard)
    };
    let mut seen = HashSet::new();
    let mut out = Vec::new();
    let k = cfg.pointed.points.len();
    let _ = for_each_candidate(class, &cfg.pointed, k, &hints, |s, points| {
        let combined = combined_valuation(&cfg.pointed.points, points);
        if dds::logic::eval::eval(&guard, s, &combined).unwrap_or(false) {
            let next = RelConfig::canonical(&Pointed::new(s.clone(), points.to_vec()).generated());
            if seen.insert(next.key().clone()) {
                out.push(next);
            }
        }
        ControlFlow::Continue(())
    });
    out
}

/// Maps a resolved successor list back to configurations, asserting that
/// each `Interned` id is held by `known` and each `Fresh` value is absent
/// from it and carries its probe hash.
fn unresolve(entries: Vec<Resolved<RelConfig>>, known: &Interner<RelConfig>) -> Vec<RelConfig> {
    entries
        .into_iter()
        .map(|entry| match entry {
            Resolved::Interned(id) => known.get(id).clone(),
            Resolved::Fresh(cfg, hash) => {
                assert_eq!(hash, Interner::hash_value(&cfg), "{cfg:?}");
                assert_eq!(known.lookup(&cfg), None, "{cfg:?} is interned");
                *cfg
            }
        })
        .collect()
}

/// Checks the packed-key contract on `cfg`: over the default hints and
/// the hints of every guard in `guards` and of its residual on `cfg`, each
/// candidate's packed key, as the successor search computes it per family
/// ([`FamilyKeys`]), is the packed key of the configuration it generates,
/// and is missing exactly when that one has none. Returns how many
/// candidates of the default and guard hints had no packed key.
fn check_packed_keys<C: AmalgamClass>(
    class: &C,
    cfg: &RelConfig,
    guards: &[Formula],
    label: &str,
) -> usize {
    let mut unpacked = 0;
    let k = cfg.pointed.points.len();
    let mut keys = FamilyKeys::new(class.internal_schema(), k);
    let internal = guards.iter().flat_map(|g| {
        let g = translate_formula(g, class.public_schema(), class.internal_schema());
        [(residual(g.clone(), &cfg.pointed), false), (g, true)]
    });
    for (guard, counted) in std::iter::once((Formula::True, true)).chain(internal) {
        let _ = class.for_each_amalgam(&cfg.pointed, k, &GuardHints::of(&guard), &mut |family| {
            let packed = keys.prepare(family);
            let new_points = family.new_points;
            family.for_each(|s, mask| {
                let next = RelConfig::generated_by(s, new_points);
                let key = packed.then(|| keys.key(mask));
                assert_eq!(
                    key,
                    next.packed(),
                    "{label}: packed key of a candidate over {cfg:?} generating {next:?}"
                );
                unpacked += usize::from(counted && key.is_none());
                ControlFlow::Continue(())
            })
        });
    }
    unpacked
}

/// What [`check_transitions`] checked.
#[derive(Default)]
struct Checked {
    /// `(configuration, guard)` pairs.
    pairs: usize,
    /// Candidates without a packed key ([`check_packed_keys`]).
    unpacked: usize,
    /// Families whose guard, evaluated on the empty subset, reads one of
    /// their optional facts: the successor search evaluates the guard on
    /// each of their candidates instead of once per family.
    reading: usize,
}

/// How many of the families `successors` visits for `cfg` under `guard`
/// have a residual guard that reads an optional fact on the empty subset.
fn families_reading_optional<C: AmalgamClass>(
    class: &C,
    cfg: &RelConfig,
    guard: &Formula,
) -> usize {
    let guard = residual(
        translate_formula(guard, class.public_schema(), class.internal_schema()),
        &cfg.pointed,
    );
    let mut reading = 0;
    let (k, hints) = (cfg.pointed.points.len(), GuardHints::of(&guard));
    let _ = class.for_each_amalgam(&cfg.pointed, k, &hints, &mut |family| {
        let combined = combined_valuation(&cfg.pointed.points, family.new_points);
        let mut reads = false;
        let _ = eval_with(&guard, &combined, |r, t| {
            let optional = family.optional.iter().any(|(o, u)| *o == r && u == t);
            reads |= optional;
            !optional && family.cand.holds(r, t)
        });
        reading += usize::from(reads);
        ControlFlow::Continue(())
    });
    reading
}

/// For every initial configuration × compiled rule guard of one reach
/// system, checks against [`reference_transitions`] under the guard:
/// `transitions`; `successors` under the guard resolved against an empty
/// interner, against one seeded with the initial configurations that are
/// not successors plus every other reference successor (in reverse, so ids
/// and list positions disagree), which mixes `Interned` and `Fresh`
/// entries, and against one interner seeded with every initial
/// configuration, as the engine seeds its own; and `successors` under the
/// guard's residual on the configuration. The warm interner is resolved
/// against three times per pair, interning the fresh successors after the
/// first as the engine's merge does, so the second call keeps its list in
/// the configuration's successor memo and the third answers from it.
/// Lists must match in order. Also checks the packed-key contract
/// ([`check_packed_keys`]) on every initial configuration.
fn check_transitions<C: AmalgamClass>(class: &C, system: &System, label: &str) -> Checked {
    let engine = Engine::new(class, system);
    let compiled = engine.compiled_system();
    let initial = class.initial_configs(compiled.num_registers());
    let guards: Vec<Formula> = compiled.rules().iter().map(|r| r.guard.clone()).collect();
    let mut warm = Interner::new();
    for cfg in &initial {
        warm.intern(cfg.clone());
    }
    let mut checked = Checked::default();
    for cfg in &initial {
        checked.unpacked += check_packed_keys(class, cfg, &guards, label);
        for guard in &guards {
            let reference = reference_transitions(class, cfg, guard);
            let keys = |v: &[RelConfig]| {
                v.iter()
                    .map(|c| (c.key().as_words().to_vec(), c.pointed.clone()))
                    .collect::<Vec<_>>()
            };
            let internal = translate_formula(guard, class.public_schema(), class.internal_schema());
            let specialised = residual(internal, &cfg.pointed);
            let public =
                translate_formula(&specialised, class.internal_schema(), class.public_schema());
            let empty = Interner::new();
            let mut seeded = Interner::new();
            for unrelated in initial.iter().rev().filter(|c| !reference.contains(c)) {
                seeded.intern(unrelated.clone());
            }
            for succ in reference.iter().skip(1).step_by(2).rev() {
                seeded.intern(succ.clone());
            }
            let cold = unresolve(class.successors(cfg, guard, &warm), &warm);
            for succ in &cold {
                warm.intern(succ.clone());
            }
            for (how, got) in [
                ("transitions", class.transitions(cfg, guard)),
                (
                    "successors (empty interner)",
                    unresolve(class.successors(cfg, guard, &empty), &empty),
                ),
                (
                    "successors (seeded interner)",
                    unresolve(class.successors(cfg, guard, &seeded), &seeded),
                ),
                ("successors (warm interner)", cold),
                (
                    "successors (warm interner, filling the memo)",
                    unresolve(class.successors(cfg, guard, &warm), &warm),
                ),
                (
                    "successors (warm interner, from the memo)",
                    unresolve(class.successors(cfg, guard, &warm), &warm),
                ),
                (
                    "successors under the residual",
                    unresolve(class.successors(cfg, &public, &empty), &empty),
                ),
            ] {
                assert_eq!(
                    keys(&got),
                    keys(&reference),
                    "{label}: {how} of {cfg:?} under {guard:?} differ",
                );
            }
            let id = warm.lookup(cfg).expect("an initial configuration");
            assert_eq!(
                warm.memo(id).contains_key(&specialised),
                specialised != Formula::False,
                "{label}: memo of {cfg:?} under {specialised:?}"
            );
            checked.pairs += 1;
            checked.reading += families_reading_optional(class, cfg, guard);
        }
    }
    checked
}

fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dds"))
        .collect();
    out.sort();
    out
}

/// Runs `check` on the class and every reach system of each relational
/// spec in `dirs`; returns how many specs were relational.
fn for_each_relational_spec(
    dirs: &[&str],
    mut check: impl FnMut(&AnyClass, &System, &str),
) -> usize {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut specs = 0;
    for dir in dirs {
        for path in spec_files(&root.join(dir)) {
            let label = path.display().to_string();
            let lowered = load_spec(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
            if matches!(
                lowered.class,
                AnyClass::Words(_) | AnyClass::Trees(_) | AnyClass::Counter(_)
            ) {
                continue;
            }
            let mut relational = false;
            for p in &lowered.properties {
                if let Task::Reach(system) = &p.task {
                    check(&lowered.class, system, &label);
                    relational = true;
                }
            }
            specs += usize::from(relational);
        }
    }
    specs
}

/// Dispatches a generic check over the relational classes of [`AnyClass`].
macro_rules! with_relational_class {
    ($class:expr, |$c:ident| $body:expr) => {
        match $class {
            AnyClass::Free($c) => $body,
            AnyClass::Hom($c) => $body,
            AnyClass::Order($c) => $body,
            AnyClass::Equiv($c) => $body,
            AnyClass::DataFree($c) => $body,
            AnyClass::DataHom($c) => $body,
            AnyClass::DataOrder($c) => $body,
            AnyClass::DataEquiv($c) => $body,
            AnyClass::Words(_) | AnyClass::Trees(_) | AnyClass::Counter(_) => {
                unreachable!("not a relational class")
            }
        }
    };
}

/// Corpus oracle: over every relational-class spec in `specs/` and
/// `specs/fuzz/`, `transitions` and `successors` (against an empty, a
/// seeded and a warm interner, from the memo, and under the residual
/// guard) return exactly the reference successor list, in the same order,
/// and each candidate's packed key is that of its successor.
///
/// Every guard-passing candidate of these specs has a packed key: wider
/// layouts are pinned by [`high_arity_relations_verify`]. The free
/// disjunctive-guard spec must reach the per-candidate guard evaluation of
/// a local guard: some family of it has a residual guard that reads an
/// optional fact.
#[test]
fn corpus_transitions_match_the_reference() {
    let mut pairs = 0;
    let mut reading = HashSet::new();
    let specs = for_each_relational_spec(&["specs", "specs/fuzz"], |class, system, label| {
        let checked = with_relational_class!(class, |c| check_transitions(c, system, label));
        pairs += checked.pairs;
        assert_eq!(
            checked.unpacked, 0,
            "{label}: candidates without a packed key"
        );
        if checked.reading > 0 {
            reading.insert(label.rsplit('/').next().unwrap().to_owned());
        }
    });
    assert!(
        specs >= 15,
        "only {specs} relational specs found — corpus shrank?"
    );
    assert!(pairs >= 500, "only {pairs} (config, guard) pairs checked");
    assert!(
        reading.contains("disjunctive_guards.dds"),
        "no family of disjunctive_guards.dds has a guard reading an optional fact"
    );
}

/// A quantified guard is not local, so `successors` evaluates it on each
/// candidate built in turn; `transitions` and warm-memo `successors` still
/// match the reference. (The engine never passes one: it eliminates
/// existentials first.)
#[test]
fn quantified_guards_match_the_reference() {
    let mut sc = Schema::new();
    let e = sc.add_relation("E", 2).unwrap();
    let u = sc.add_relation("u0", 1).unwrap();
    let class = FreeRelationalClass::new(sc.finish());
    // ∃z. E(x_old, z) & E(z, x_new), or u0(x_new) & !E(x_old, x_new).
    let guard = Formula::Or(vec![
        Formula::Exists(
            vec![Var(2)],
            Box::new(Formula::and(vec![
                Formula::rel_vars(e, &[Var(0), Var(2)]),
                Formula::rel_vars(e, &[Var(2), Var(1)]),
            ])),
        ),
        Formula::and(vec![
            Formula::rel_vars(u, &[Var(1)]),
            Formula::negate(Formula::rel_vars(e, &[Var(0), Var(1)])),
        ]),
    ]);
    assert!(!is_local(&guard));
    let initial = class.initial_configs(1);
    let mut warm = Interner::new();
    for cfg in &initial {
        warm.intern(cfg.clone());
    }
    let mut nonempty = 0;
    for cfg in &initial {
        let reference = reference_transitions(&class, cfg, &guard);
        nonempty += usize::from(!reference.is_empty());
        assert_eq!(class.transitions(cfg, &guard), reference, "{cfg:?}");
        for _ in 0..2 {
            let got = unresolve(class.successors(cfg, &guard, &warm), &warm);
            assert_eq!(got, reference, "{cfg:?}");
        }
    }
    assert!(nonempty > 0);
}

/// The key hash mixes: the distinct initial-configuration keys of every
/// relational spec in `specs/` and `bench/macro/` have distinct
/// [`dds::structure::CanonicalKey::hash64`]s.
#[test]
fn initial_key_hashes_are_distinct() {
    fn hashes<C: AmalgamClass>(class: &C, system: &System) -> Vec<(u64, Vec<u64>)> {
        class
            .initial_configs(system.num_registers())
            .iter()
            .map(|c| (c.key_hash(), c.key().as_words().to_vec()))
            .collect()
    }
    let mut keys = 0;
    let specs = for_each_relational_spec(&["specs", "bench/macro"], |class, system, label| {
        let mut by_hash: HashMap<u64, Vec<u64>> = HashMap::new();
        for (hash, words) in with_relational_class!(class, |c| hashes(c, system)) {
            let first = by_hash.entry(hash).or_insert_with(|| words.clone());
            assert_eq!(*first, words, "{label}: two keys share hash {hash:#x}");
            keys += 1;
        }
    });
    assert!(specs >= 20, "only {specs} relational specs found");
    assert!(keys >= 1000, "only {keys} initial keys checked");
}

/// Relations of arity 5 and 6 go through the successor oracle and verify
/// end to end, with a certified witness; their candidates over two
/// distinct new points have no packed key. The class is `HOM` so that the
/// initial configurations stay few: the free class would enumerate every
/// `R/6` structure on two elements.
#[test]
fn high_arity_relations_verify() {
    let spec = "
system wide_arity
schema {
  relation R/6
  relation Q/5
}
class hom {
  element a b c
  fact R(a, b, c, a, b, c)
  fact R(a, b, c, c, b, a)
  fact Q(a, a, b, c, c)
  fact Q(c, b, a, a, b)
}
registers x y
states {
  s init
  t
  u
}
rule s -> t: R(x_old, y_old, y_new, x_old, y_old, y_new) & x_old = x_new
rule t -> u: Q(x_old, x_old, y_new, y_old, y_old) & !(R(x_new, y_new, y_new, y_new, y_new, x_new))
property reach {
  accept u
  expect nonempty
}
";
    let lowered = load_spec(spec).unwrap();
    let AnyClass::Hom(class) = &lowered.class else {
        panic!("HOM class expected");
    };
    let Task::Reach(system) = &lowered.properties[0].task else {
        panic!("reach property expected");
    };
    // Two distinct new points span 2^6 + 2^5 tuples of `R` and `Q`, more
    // than a packed key holds, so those candidates are resolved by key
    // words: at most the 258 candidates the earlier per-base tags left
    // without one.
    let checked = check_transitions(class, system, "wide_arity");
    assert!(checked.pairs > 0);
    assert!(
        (1..=258).contains(&checked.unpacked),
        "{} candidates without a packed key",
        checked.unpacked
    );
    let outcome = Engine::new(class, system).run();
    assert!(outcome.is_nonempty(), "{outcome:?}");
    assert!(outcome.witness().is_some(), "witness not certified");
}

/// Two nullary relations: a database with `Q` but not `P` must be told
/// apart from one with `P` but not `Q`, or the search merges them and
/// misses the run below.
#[test]
fn nullary_relations_are_told_apart() {
    let spec = "
system nullary
schema {
  relation P/0
  relation Q/0
}
class free
registers x
states {
  s init
  t
}
rule s -> t: Q() & !(P()) & x_old = x_new
property reach {
  accept t
  expect nonempty
}
";
    let lowered = load_spec(spec).unwrap();
    let AnyClass::Free(class) = &lowered.class else {
        panic!("free class expected");
    };
    let Task::Reach(system) = &lowered.properties[0].task else {
        panic!("reach property expected");
    };
    assert_eq!(class.initial_configs(1).len(), 4);
    assert!(check_transitions(class, system, "nullary").pairs > 0);
    let outcome = Engine::new(class, system).run();
    assert!(outcome.is_nonempty(), "{outcome:?}");
    assert!(outcome.witness().is_some(), "witness not certified");
}

/// Word class: every transition successor is a valid configuration, and the
/// expansion of any valid configuration is an accepting automaton run.
#[test]
fn word_transitions_produce_valid_configs() {
    let nfa = Nfa::new(
        vec!["a".into(), "b".into()],
        vec![0, 1],
        vec![(0, 1), (1, 0), (1, 1)],
        vec![0],
        vec![1],
    )
    .unwrap();
    let class = WordClass::new(nfa);
    let guard = dds::logic::parse_formula(
        "x_old < x_new",
        class.schema(),
        |n| match n {
            "x_old" => Some(dds::logic::Var(0)),
            "x_new" => Some(dds::logic::Var(1)),
            _ => None,
        },
        2,
    )
    .unwrap();
    let mut frontier = class.initial_configs(1);
    for _round in 0..2 {
        let mut next = Vec::new();
        for cfg in frontier.iter().take(25) {
            assert!(cfg.is_valid(class.nfa()), "invalid in frontier: {cfg:?}");
            let (full, _) = cfg.expand(class.nfa()).expect("valid expands");
            assert!(class.nfa().accepts_state_sequence(&full));
            for succ in class.transitions(cfg, &guard) {
                assert!(succ.is_valid(class.nfa()), "invalid successor: {succ:?}");
                next.push(succ);
            }
        }
        frontier = next;
    }
}

/// Tree class: successors of valid patterns are valid, and materialized
/// patterns are well-formed structures (total cca, consistent orders).
#[test]
fn tree_transitions_produce_valid_patterns() {
    let aut = TreeAutomaton::new(
        vec!["r".into(), "a".into(), "b".into()],
        vec![0, 1, 2],
        vec![2],
        vec![0],
        vec![0, 1, 2],
        vec![(1, 0), (2, 0), (1, 1), (2, 1)],
        vec![(2, 1)],
    );
    let class = TreeClass::new(aut);
    let guard = dds::logic::parse_formula(
        "x_old <= x_new",
        class.schema(),
        |n| match n {
            "x_old" => Some(dds::logic::Var(0)),
            "x_new" => Some(dds::logic::Var(1)),
            _ => None,
        },
        2,
    )
    .unwrap();
    for cfg in class.initial_configs(1).iter().take(20) {
        let mat = class.materialize(cfg);
        mat.structure.validate().expect("total functions");
        for succ in class.transitions(cfg, &guard).iter().take(20) {
            assert!(succ.is_valid(class.automaton()), "invalid: {succ:?}");
            // Successors are generated by their points.
            let seeds: Vec<usize> = succ.points.iter().map(|&p| p as usize).collect();
            assert_eq!(succ.closure(class.automaton(), &seeds).len(), succ.len());
        }
    }
}
