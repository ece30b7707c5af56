//! Seeded random scenario generation, one generator per class family.
//!
//! Everything here is a pure function of the [`FuzzRng`] stream: the same
//! `(seed, class, iteration)` triple yields the same [`Scenario`] on every
//! machine, which is what makes `dds fuzz --seed` replayable and the CI
//! smoke job pinnable.
//!
//! Generators only emit *valid* scenarios: schemas are well-formed, rules
//! reference declared states, word/tree automata are re-rolled (bounded
//! rejection sampling with a deterministic fallback) until their language
//! is non-empty within the baseline bound, and counter programs only jump
//! to real locations.

use crate::rng::FuzzRng;
use crate::scenario::{ClassKind, DataValuesKind, Scenario, ScenarioClass, TreesDecl, WordsDecl};
use dds_reductions::counter::Instr;
use dds_trees::baseline::language_nonempty as tree_language_nonempty;
use dds_words::baseline::language_nonempty as word_language_nonempty;
use dds_words::WordClass;

/// Upper bound used when probing generated word/tree languages for
/// non-emptiness; the differential baselines use the same bound, so every
/// generated automaton has at least one member the brute force can reach.
pub const LANGUAGE_PROBE_BOUND: usize = 6;

/// Generates the scenario for `(seed, kind, iteration)` — the entry point
/// the fuzz driver and the property tests share.
pub fn generate_seeded(kind: ClassKind, seed: u64, iteration: u64, max_size: usize) -> Scenario {
    let tag = ClassKind::ALL.iter().position(|&k| k == kind).unwrap() as u64;
    let mut rng = FuzzRng::for_case(seed, tag, iteration);
    generate(kind, &mut rng, max_size)
}

/// Generates one scenario of the given class from an RNG stream.
/// `max_size` in `1..=3` scales registers, states, rules and guard width.
pub fn generate(kind: ClassKind, rng: &mut FuzzRng, max_size: usize) -> Scenario {
    let max_size = max_size.clamp(1, 3);
    let name = format!("fuzz_{}", kind.keyword().replace('-', "_"));
    if kind == ClassKind::Counter {
        return Scenario {
            name,
            class: gen_counter(rng, max_size),
            registers: Vec::new(),
            states: Vec::new(),
            accept: Vec::new(),
            rules: Vec::new(),
        };
    }

    let class = match kind {
        ClassKind::Free => gen_free(rng),
        ClassKind::Hom => gen_hom(rng),
        ClassKind::Equivalence => ScenarioClass::Equivalence,
        ClassKind::LinearOrder => ScenarioClass::LinearOrder,
        ClassKind::Words => gen_words(rng),
        ClassKind::Trees => gen_trees(rng),
        ClassKind::Data => gen_data(rng),
        ClassKind::Counter => unreachable!("handled above"),
    };

    // Tree patterns are exponential in the register count (a 2k-pointed
    // pattern per configuration); every other class takes two registers in
    // stride, but tree scenarios stay single-register so one unlucky seed
    // cannot eat half a minute of engine time.
    let reg_cap = if kind == ClassKind::Trees { 1 } else { 2 };
    let num_regs = rng.range(1, max_size.min(reg_cap));
    let registers: Vec<String> = ["x", "y"][..num_regs]
        .iter()
        .map(|r| r.to_string())
        .collect();
    let num_states = rng.range(2, 2 + max_size);
    let states: Vec<(String, bool)> = (0..num_states).map(|i| (format!("s{i}"), i == 0)).collect();
    let accept = vec![states[num_states - 1].0.clone()];

    // A chain s0 -> s1 -> .. guarantees multi-rule paths to the accepting
    // state; extra random rules add branching and loops.
    let atoms = atom_pool(&class);
    let vars = guard_vars(&registers);
    let width = 1 + max_size.min(2);
    let mut rules = Vec::new();
    for i in 0..num_states - 1 {
        rules.push((
            format!("s{i}"),
            format!("s{}", i + 1),
            gen_guard(rng, &atoms, &vars, width),
        ));
    }
    for _ in 0..rng.range(0, max_size) {
        let from = rng.below(num_states);
        let to = rng.below(num_states);
        rules.push((
            format!("s{from}"),
            format!("s{to}"),
            gen_guard(rng, &atoms, &vars, width),
        ));
    }

    Scenario {
        name,
        class,
        registers,
        states,
        accept,
        rules,
    }
}

/// The guard-variable names of a register list (`x` → `x_old`, `x_new`).
pub(crate) fn guard_vars(registers: &[String]) -> Vec<String> {
    registers
        .iter()
        .flat_map(|r| [format!("{r}_old"), format!("{r}_new")])
        .collect()
}

/// What one guard atom may mention, per class family.
#[derive(Debug)]
pub(crate) enum AtomPool {
    /// Relation atoms over declared `(name, arity)` relations.
    Relational(Vec<(String, usize)>),
    /// `v ~ w` atoms.
    Equivalence,
    /// `v < w` atoms.
    Order,
    /// Unary letter atoms plus the position order `<`.
    Letters(Vec<String>),
    /// Unary label atoms plus the ancestor order `<=`.
    Labels(Vec<String>),
    /// Inner atoms plus a data comparison (`~` or `<<`).
    Data(Box<AtomPool>, &'static str),
}

pub(crate) fn atom_pool(class: &ScenarioClass) -> AtomPool {
    match class {
        ScenarioClass::Free { relations } | ScenarioClass::Hom { relations, .. } => {
            AtomPool::Relational(relations.clone())
        }
        ScenarioClass::Equivalence => AtomPool::Equivalence,
        ScenarioClass::LinearOrder => AtomPool::Order,
        ScenarioClass::Words(d) => AtomPool::Letters(d.letters.clone()),
        ScenarioClass::Trees(d) => AtomPool::Labels(d.labels.clone()),
        ScenarioClass::Data { values, inner } => {
            AtomPool::Data(Box::new(atom_pool(inner)), values.symbol())
        }
        ScenarioClass::Counter { .. } => unreachable!("counter machines have no guards"),
    }
}

/// One guard: a conjunction of `1..=width` literals.
pub(crate) fn gen_guard(
    rng: &mut FuzzRng,
    pool: &AtomPool,
    vars: &[String],
    width: usize,
) -> String {
    let n = rng.range(1, width);
    let parts: Vec<String> = (0..n).map(|_| gen_literal(rng, pool, vars)).collect();
    parts.join(" & ")
}

fn gen_literal(rng: &mut FuzzRng, pool: &AtomPool, vars: &[String]) -> String {
    let v = |rng: &mut FuzzRng| rng.pick(vars).clone();
    match pool {
        AtomPool::Relational(relations) => {
            let atom = if rng.chance(7, 10) {
                let (name, arity) = rng.pick(relations);
                let args: Vec<String> = (0..*arity).map(|_| v(rng)).collect();
                format!("{name}({})", args.join(", "))
            } else {
                format!("{} = {}", v(rng), v(rng))
            };
            if rng.chance(1, 4) {
                format!("!({atom})")
            } else {
                atom
            }
        }
        AtomPool::Equivalence => {
            let atom = if rng.chance(3, 5) {
                format!("{} ~ {}", v(rng), v(rng))
            } else {
                format!("{} = {}", v(rng), v(rng))
            };
            if rng.chance(1, 4) {
                format!("!({atom})")
            } else {
                atom
            }
        }
        AtomPool::Order => match rng.below(5) {
            0 | 1 => format!("{} < {}", v(rng), v(rng)),
            2 => format!("{} = {}", v(rng), v(rng)),
            3 => format!("{} != {}", v(rng), v(rng)),
            _ => format!("!({} < {})", v(rng), v(rng)),
        },
        AtomPool::Letters(letters) => match rng.below(5) {
            0 | 1 => format!("{}({})", rng.pick(letters), v(rng)),
            2 | 3 => format!("{} < {}", v(rng), v(rng)),
            _ => format!("{} = {}", v(rng), v(rng)),
        },
        AtomPool::Labels(labels) => match rng.below(7) {
            0 | 1 => format!("{}({})", rng.pick(labels), v(rng)),
            2 | 3 => format!("{} <= {}", v(rng), v(rng)),
            4 => format!("{} != {}", v(rng), v(rng)),
            // A strict descent between two distinct variables: two of them
            // in a row walk down one chain.
            5 => {
                let a = rng.below(vars.len());
                let b = (a + 1 + rng.below(vars.len() - 1)) % vars.len();
                format!("{0} <= {1} & {0} != {1}", vars[a], vars[b])
            }
            _ => format!("{} = {}", v(rng), v(rng)),
        },
        AtomPool::Data(inner, sym) => {
            if rng.chance(7, 10) {
                gen_literal(rng, inner, vars)
            } else {
                format!("{} {sym} {}", v(rng), v(rng))
            }
        }
    }
}

/// A small relational schema: one binary relation, sometimes a unary one.
/// A second *binary* relation is deliberately off the table: together with
/// two registers (4-pointed configurations) it multiplies the per-transition
/// amalgam enumeration and the canonical-configuration space enough that a
/// single unlucky scenario can eat minutes of engine time — the fuzzer's
/// job is many small scenarios, not one enormous one.
fn gen_schema(rng: &mut FuzzRng) -> Vec<(String, usize)> {
    let mut relations = vec![("E".to_string(), 2)];
    if rng.chance(2, 3) {
        relations.push(("red".to_string(), 1));
    }
    relations
}

fn gen_free(rng: &mut FuzzRng) -> ScenarioClass {
    ScenarioClass::Free {
        relations: gen_schema(rng),
    }
}

fn gen_hom(rng: &mut FuzzRng) -> ScenarioClass {
    let relations = gen_schema(rng);
    let n = rng.range(1, 3);
    let elements: Vec<String> = (0..n).map(|i| format!("e{i}")).collect();
    let mut facts = Vec::new();
    for (name, arity) in &relations {
        // Every tuple over the template joins with ~1/2 probability, so
        // templates range from fact-free (nothing holds anywhere) to
        // near-complete (close to the free class).
        let tuples = n.pow(*arity as u32);
        for t in 0..tuples {
            if rng.chance(1, 2) {
                let args: Vec<String> = (0..*arity)
                    .map(|i| elements[(t / n.pow(i as u32)) % n].clone())
                    .collect();
                facts.push((name.clone(), args));
            }
        }
    }
    ScenarioClass::Hom {
        relations,
        elements,
        facts,
    }
}

fn gen_words(rng: &mut FuzzRng) -> ScenarioClass {
    for _ in 0..24 {
        let num_letters = rng.range(1, 3);
        let letters: Vec<String> = ["a", "b", "c"][..num_letters]
            .iter()
            .map(|l| l.to_string())
            .collect();
        let num_states = rng.range(1, 4);
        let states: Vec<(String, String)> = (0..num_states)
            .map(|i| (format!("n{i}"), rng.pick(&letters).clone()))
            .collect();
        let mut edges = Vec::new();
        for p in 0..num_states {
            for q in 0..num_states {
                if rng.chance(1, 2) {
                    edges.push((format!("n{p}"), format!("n{q}")));
                }
            }
        }
        let entry: Vec<String> = rng
            .nonempty_subset(num_states)
            .into_iter()
            .map(|i| format!("n{i}"))
            .collect();
        let accepting: Vec<String> = rng
            .nonempty_subset(num_states)
            .into_iter()
            .map(|i| format!("n{i}"))
            .collect();
        let decl = WordsDecl {
            letters,
            states,
            edges,
            entry,
            accepting,
        };
        if let Some(nfa) = decl.build() {
            if word_language_nonempty(&WordClass::new(nfa), LANGUAGE_PROBE_BOUND) {
                return ScenarioClass::Words(decl);
            }
        }
    }
    // Deterministic fallback: (ab)+, which is never empty.
    ScenarioClass::Words(WordsDecl {
        letters: vec!["a".into(), "b".into()],
        states: vec![("n0".into(), "a".into()), ("n1".into(), "b".into())],
        edges: vec![("n0".into(), "n1".into()), ("n1".into(), "n0".into())],
        entry: vec!["n0".into()],
        accepting: vec!["n1".into()],
    })
}

fn gen_trees(rng: &mut FuzzRng) -> ScenarioClass {
    for _ in 0..24 {
        let num_labels = rng.range(1, 3);
        let labels: Vec<String> = ["r", "a", "b"][..num_labels]
            .iter()
            .map(|l| l.to_string())
            .collect();
        let num_states = rng.range(1, 3);
        let states: Vec<(String, String)> = (0..num_states)
            .map(|i| (format!("t{i}"), rng.pick(&labels).clone()))
            .collect();
        let name_set = |rng: &mut FuzzRng| -> Vec<String> {
            rng.nonempty_subset(num_states)
                .into_iter()
                .map(|i| format!("t{i}"))
                .collect()
        };
        // Exactly one root and one leaf state: dense root/leaf sets multiply
        // the engine's per-transition tree-pattern enumeration by orders of
        // magnitude (a 5-config search over an every-state-is-a-leaf
        // automaton was measured at ~4 s), and real document schemas are
        // single-rooted with distinguished leaf kinds anyway. The rightmost
        // set stays an arbitrary non-empty subset.
        let leaf = vec![format!("t{}", rng.below(num_states))];
        let root = vec![format!("t{}", rng.below(num_states))];
        let rightmost = name_set(rng);
        let mut first_child = Vec::new();
        let mut next_sibling = Vec::new();
        for p in 0..num_states {
            for q in 0..num_states {
                if rng.chance(1, 3) {
                    first_child.push((format!("t{p}"), format!("t{q}")));
                }
                if rng.chance(1, 4) {
                    next_sibling.push((format!("t{p}"), format!("t{q}")));
                }
            }
        }
        let decl = TreesDecl {
            labels,
            states,
            leaf,
            root,
            rightmost,
            first_child,
            next_sibling,
        };
        if tree_language_nonempty(&decl.build(), LANGUAGE_PROBE_BOUND) {
            return ScenarioClass::Trees(decl);
        }
    }
    // Deterministic fallback: unary chains r a* b.
    ScenarioClass::Trees(TreesDecl {
        labels: vec!["r".into(), "a".into(), "b".into()],
        states: vec![
            ("t0".into(), "r".into()),
            ("t1".into(), "a".into()),
            ("t2".into(), "b".into()),
        ],
        leaf: vec!["t2".into()],
        root: vec!["t0".into()],
        rightmost: vec!["t0".into(), "t1".into(), "t2".into()],
        first_child: vec![
            ("t1".into(), "t0".into()),
            ("t2".into(), "t0".into()),
            ("t1".into(), "t1".into()),
            ("t2".into(), "t1".into()),
        ],
        next_sibling: Vec::new(),
    })
}

fn gen_data(rng: &mut FuzzRng) -> ScenarioClass {
    let inner = match rng.below(4) {
        0 => gen_free(rng),
        1 => ScenarioClass::Equivalence,
        2 => ScenarioClass::LinearOrder,
        _ => gen_hom(rng),
    };
    // `⊗/⊙ ⟨ℕ,=⟩` compares with `~`, which the equivalence class already
    // claims for itself — only the rational-order products compose with it.
    let values = if inner == ScenarioClass::Equivalence {
        *rng.pick(&[
            DataValuesKind::RationalOrder,
            DataValuesKind::RationalOrderInjective,
        ])
    } else {
        *rng.pick(&DataValuesKind::ALL)
    };
    ScenarioClass::Data {
        values,
        inner: Box::new(inner),
    }
}

fn gen_counter(rng: &mut FuzzRng, max_size: usize) -> ScenarioClass {
    let len = rng.range(2, 2 + 2 * max_size);
    let program: Vec<Instr> = (0..len)
        .map(|_| match rng.below(5) {
            0 | 1 => Instr::Inc {
                c: rng.below(2),
                next: rng.below(len),
            },
            2 | 3 => Instr::JzDec {
                c: rng.below(2),
                if_zero: rng.below(len),
                if_pos: rng.below(len),
            },
            _ => Instr::Halt,
        })
        .collect();
    ScenarioClass::Counter {
        program,
        bound: rng.range(3, 3 + max_size),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_class_generates_buildable_scenarios() {
        for kind in ClassKind::ALL {
            for iter in 0..20 {
                for size in 1..=3 {
                    let sc = generate_seeded(kind, 0xDD5, iter, size);
                    assert_eq!(sc.class.kind(), kind);
                    let built = sc
                        .build()
                        .unwrap_or_else(|e| panic!("{kind:?} iter {iter} size {size}: {e}"));
                    if kind != ClassKind::Counter {
                        let sys = built.system.expect("non-counter scenarios have systems");
                        assert!(!sys.initial().is_empty());
                        assert!(!sys.accepting().is_empty());
                        assert!(!sys.rules().is_empty());
                    }
                }
            }
        }
    }

    #[test]
    fn generation_is_a_pure_function_of_the_seed() {
        for kind in ClassKind::ALL {
            let a = generate_seeded(kind, 99, 4, 2);
            let b = generate_seeded(kind, 99, 4, 2);
            assert_eq!(a, b);
            let c = generate_seeded(kind, 100, 4, 2);
            // Different seeds virtually always differ; equality here would
            // indicate the stream ignores the seed.
            assert_ne!(a, c, "{kind:?} ignored the seed");
        }
    }
}
