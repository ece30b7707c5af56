//! Property tests for the Fraïssé-class invariants the engine's correctness
//! rests on (§4.1): amalgams stay in the class, extend the base in place,
//! and sub-transition successors are themselves valid configurations. Two
//! oracles pin the streaming successor path to the plain definition: the
//! one-pass canonicalization and the words-only key encoder against
//! `generated()` + `RelConfig::canonical`, and `transitions` and the
//! interner-resolving `successors` against a reference built from those
//! over the spec corpora.

use dds::core::amalgam::{combined_valuation, translate_formula, GuardHints};
use dds::core::intern::Resolved;
use dds::core::{AmalgamClass, Interner, Pointed, RelConfig};
use dds::prelude::*;
use dds::structure::{encode_generated_relational, KeyScratch};
use dds_cli::load_spec;
use dds_cli::lower::{AnyClass, Task};
use proptest::prelude::*;
use std::collections::HashSet;
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// Every candidate amalgam, cloned out of the visitor's buffer.
fn amalgams<C: AmalgamClass>(class: &C, base: &Pointed) -> Vec<Pointed> {
    let mut out = Vec::new();
    let _ = class.for_each_amalgam(base, &GuardHints::default(), &mut |s, points| {
        out.push(Pointed::new(s.clone(), points.to_vec()));
        ControlFlow::Continue(())
    });
    out
}

/// Builds an arbitrary equivalence-class configuration from a block string.
fn equiv_pointed(class: &EquivalenceClass, blocks: &[usize], points: &[usize]) -> Pointed {
    Pointed::new(
        class.from_blocks(blocks),
        points.iter().map(|&p| Element::from_index(p)).collect(),
    )
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
        let class = EquivalenceClass::new();
        // Normalize the block string (restricted growth).
        let mut map = std::collections::HashMap::new();
        let mut next = 0usize;
        let blocks: Vec<usize> = raw_blocks.iter().map(|&b| {
            *map.entry(b).or_insert_with(|| { let v = next; next += 1; v })
        }).collect();
        let point = point % blocks.len();
        let base = equiv_pointed(&class, &blocks, &[point]);
        for cand in amalgams(&class, &base) {
            prop_assert!(class.is_member(&cand.structure));
            // Base frozen: old blocks unchanged.
            let old = class.blocks_of(&base.structure);
            let new = class.blocks_of(&cand.structure);
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
        let class = LinearOrderClass::new();
        let base = class
            .initial_pointed(1)
            .into_iter()
            .find(|p| p.structure.size() == m.min(1))
            .unwrap();
        let _ = point;
        for cand in amalgams(&class, &base) {
            prop_assert!(class.is_member(&cand.structure));
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
    let _ = class.for_each_amalgam(&cfg.pointed, &hints, &mut |s, points| {
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

/// For every initial configuration × compiled rule guard of one reach
/// system, checks against [`reference_transitions`]: `transitions`, and
/// `successors` resolved against an empty interner and against one seeded
/// with the initial configurations that are not successors plus every
/// other reference successor (in reverse, so ids and list positions
/// disagree), which mixes `Interned` and `Fresh` entries. Lists must match
/// in order. Returns the number of pairs checked.
fn check_transitions<C: AmalgamClass>(class: &C, system: &System, label: &str) -> usize {
    let engine = Engine::new(class, system);
    let compiled = engine.compiled_system();
    let initial = class.initial_configs(compiled.num_registers());
    let mut pairs = 0;
    for cfg in &initial {
        for rule in compiled.rules() {
            let reference = reference_transitions(class, cfg, &rule.guard);
            let keys = |v: &[RelConfig]| {
                v.iter()
                    .map(|c| (c.key().as_words().to_vec(), c.pointed.clone()))
                    .collect::<Vec<_>>()
            };
            let empty = Interner::new();
            let mut seeded = Interner::new();
            for unrelated in initial.iter().rev().filter(|c| !reference.contains(c)) {
                seeded.intern(unrelated.clone());
            }
            for succ in reference.iter().skip(1).step_by(2).rev() {
                seeded.intern(succ.clone());
            }
            for (how, got) in [
                ("transitions", class.transitions(cfg, &rule.guard)),
                (
                    "successors (empty interner)",
                    unresolve(class.successors(cfg, &rule.guard, &empty), &empty),
                ),
                (
                    "successors (seeded interner)",
                    unresolve(class.successors(cfg, &rule.guard, &seeded), &seeded),
                ),
            ] {
                assert_eq!(
                    keys(&got),
                    keys(&reference),
                    "{label}: {how} of {cfg:?} under {:?} differ",
                    rule.guard
                );
            }
            pairs += 1;
        }
    }
    pairs
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

/// Corpus oracle: over every relational-class spec in `specs/` and
/// `specs/fuzz/`, `transitions` and `successors` (against an empty and a
/// seeded interner) return exactly the reference successor list, in the
/// same order.
#[test]
fn corpus_transitions_match_the_reference() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut specs = 0;
    let mut pairs = 0;
    for dir in [root.join("specs"), root.join("specs/fuzz")] {
        for path in spec_files(&dir) {
            let label = path.display().to_string();
            let lowered = load_spec(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
            let mut relational = false;
            for p in &lowered.properties {
                let Task::Reach(system) = &p.task else {
                    continue;
                };
                pairs += match &lowered.class {
                    AnyClass::Free(c) => check_transitions(c, system, &label),
                    AnyClass::Hom(c) => check_transitions(c, system, &label),
                    AnyClass::Order(c) => check_transitions(c, system, &label),
                    AnyClass::Equiv(c) => check_transitions(c, system, &label),
                    AnyClass::DataFree(c) => check_transitions(c, system, &label),
                    AnyClass::DataHom(c) => check_transitions(c, system, &label),
                    AnyClass::DataOrder(c) => check_transitions(c, system, &label),
                    AnyClass::DataEquiv(c) => check_transitions(c, system, &label),
                    AnyClass::Words(_) | AnyClass::Trees(_) | AnyClass::Counter(_) => continue,
                };
                relational = true;
            }
            specs += usize::from(relational);
        }
    }
    assert!(
        specs >= 15,
        "only {specs} relational specs found — corpus shrank?"
    );
    assert!(pairs >= 500, "only {pairs} (config, guard) pairs checked");
}

/// Relations of arity 5 and 6 go through the successor oracle and verify
/// end to end, with a certified witness. The class is `HOM` so that the
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
    assert!(check_transitions(class, system, "wide_arity") > 0);
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
    assert!(check_transitions(class, system, "nullary") > 0);
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
