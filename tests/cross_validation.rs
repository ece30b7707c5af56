//! Property-based cross-validation: the symbolic engine against brute force.

use dds::core::{Pointed, RelConfig};
use dds::prelude::*;
use dds::system::baseline::{bounded_emptiness_relational, BaselineStats};
use dds::words::baseline::bounded_emptiness as word_baseline;
use proptest::prelude::*;

/// A random single-rule system over the graph schema, described by which
/// atoms appear positively/negatively in the guard.
fn graph_system(bits: u16) -> (System, std::sync::Arc<Schema>) {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.add_relation("red", 1).unwrap();
    let schema = s.finish();
    let atoms = [
        "E(x_old, x_new)",
        "E(x_new, x_old)",
        "E(x_old, x_old)",
        "red(x_old)",
        "red(x_new)",
        "x_old = x_new",
    ];
    let mut parts: Vec<String> = Vec::new();
    for (i, a) in atoms.iter().enumerate() {
        match (bits >> (2 * i)) & 3 {
            1 => parts.push((*a).to_owned()),
            2 => parts.push(format!("!({a})")),
            _ => {}
        }
    }
    if parts.is_empty() {
        parts.push("x_old = x_old".into());
    }
    let guard = parts.join(" & ");
    let mut b = SystemBuilder::new(schema.clone(), &["x"]);
    b.state("s").initial();
    b.state("m");
    b.state("t").accepting();
    // Two steps of the same guard: exercises configuration chaining.
    b.rule("s", "m", &guard).unwrap();
    b.rule("m", "t", &guard).unwrap();
    (b.finish().unwrap(), schema)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Engine emptiness == brute-force emptiness over all databases of size
    /// <= 3 (sizes beyond 3 cannot matter for 1-register, 2-step systems:
    /// each configuration touches at most 1 element and each amalgam at most
    /// 2, so a witness of minimal size has <= 3 elements).
    #[test]
    fn engine_matches_bruteforce_on_random_guards(bits in 0u16..4096) {
        let (system, schema) = graph_system(bits);
        let class = FreeRelationalClass::new(schema);
        let engine_says = Engine::new(&class, &system).run().is_nonempty();
        let mut stats = BaselineStats::default();
        let brute = bounded_emptiness_relational(&system, 3, |_| true, &mut stats);
        prop_assert_eq!(engine_says, brute.is_some(), "guard bits {}", bits);
    }

    /// Canonicalization invariance: permuting a pointed structure never
    /// changes the configuration its points generate
    /// ([`RelConfig::generated_by`]), and two pointed structures generate
    /// equal configurations exactly when the brute-force canonical keys of
    /// their generated substructures agree.
    #[test]
    fn canonical_keys_are_permutation_invariant(
        edges in proptest::collection::vec((0u32..4, 0u32..4), 0..8),
        other_edges in proptest::collection::vec((0u32..3, 0u32..3), 0..4),
        raw_points in proptest::collection::vec(0u32..4, 0..4),
        other_points in proptest::collection::vec(0u32..3, 0..4),
        perm_seed in 0usize..24,
    ) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let schema = s.finish();
        let graph = |n: usize, edges: &[(u32, u32)]| {
            let mut g = Structure::new(schema.clone(), n);
            for &(a, b) in edges {
                g.add_fact(e, &[Element(a), Element(b)]).unwrap();
            }
            g
        };
        let g = graph(4, &edges);
        let points: Vec<Element> = raw_points.iter().map(|&p| Element(p)).collect();
        // A permutation of 4 elements from the seed.
        let mut items: Vec<u32> = (0..4).collect();
        let mut perm = Vec::new();
        let mut seed = perm_seed;
        while !items.is_empty() {
            let i = seed % items.len();
            seed /= items.len().max(1);
            perm.push(Element(items.remove(i)));
        }
        let h = g.map_elements(&perm);
        let mapped_points: Vec<Element> = points.iter().map(|p| perm[p.index()]).collect();
        let cfg = RelConfig::generated_by(&g, &points);
        prop_assert_eq!(&cfg, &RelConfig::generated_by(&h, &mapped_points));
        // Against the brute-force key, on a second small structure.
        let general = |s: &Structure, points: &[Element]| {
            let sub = Pointed::new(s.clone(), points.to_vec()).generated();
            dds::structure::canonical_key_general(&sub.structure, &sub.points)
        };
        let other = graph(3, &other_edges);
        let other_points: Vec<Element> = other_points.iter().map(|&p| Element(p)).collect();
        prop_assert_eq!(
            cfg == RelConfig::generated_by(&other, &other_points),
            general(&g, &points) == general(&other, &other_points)
        );
    }

    /// Fact 2 compilation preserves explicit-model-checking results on
    /// random small databases.
    #[test]
    fn fact2_agrees_on_random_databases(
        edges in proptest::collection::vec((0u32..3, 0u32..3), 0..6),
        reds in proptest::collection::vec(0u32..3, 0..3),
    ) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let red = s.add_relation("red", 1).unwrap();
        let schema = s.finish();
        let mut b = SystemBuilder::new(schema.clone(), &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", "x_old = x_new & (exists z . E(x_old, z) & red(z))").unwrap();
        let system = b.finish().unwrap();
        let compiled = dds::system::eliminate_existentials(&system).unwrap();

        let mut db = Structure::new(schema, 3);
        for (a, c) in edges {
            db.add_fact(e, &[Element(a), Element(c)]).unwrap();
        }
        for r in reds {
            db.add_fact(red, &[Element(r)]).unwrap();
        }
        let orig = dds::system::find_accepting_run(&system, &db).is_some();
        let comp = dds::system::find_accepting_run(&compiled, &db).is_some();
        prop_assert_eq!(orig, comp);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Equivalence class, multi-state multi-rule systems drawn from the
    /// `dds-gen` scenario generator: the engine must agree with brute force
    /// over every set partition up to the bound, across four engine
    /// configurations (1 vs 2 threads, certify vs no-certify), and any
    /// certified witness must replay. `dds_gen::check` bundles exactly
    /// those assertions.
    #[test]
    fn equivalence_engine_matches_bruteforce_on_generated_systems(seed in 0u64..1u64 << 32) {
        let sc = dds_gen::generate_seeded(dds_gen::ClassKind::Equivalence, seed, 0, 2);
        let report = dds_gen::check(&sc, &dds_gen::DiffOptions::default());
        prop_assert!(report.is_ok(), "seed {}: {}\n{}", seed, report.unwrap_err(), sc.render());
    }

    /// Linear-order class, same contract: brute force enumerates the
    /// canonical chains (the only members up to isomorphism).
    #[test]
    fn linear_order_engine_matches_bruteforce_on_generated_systems(seed in 0u64..1u64 << 32) {
        let sc = dds_gen::generate_seeded(dds_gen::ClassKind::LinearOrder, seed, 0, 2);
        let report = dds_gen::check(&sc, &dds_gen::DiffOptions::default());
        prop_assert!(report.is_ok(), "seed {}: {}\n{}", seed, report.unwrap_err(), sc.render());
    }
}

/// Word engine vs word baseline over a parameterized family of two-rule
/// systems (deterministic sweep rather than proptest: the space is small
/// and full coverage beats sampling).
#[test]
fn word_engine_matches_baseline_two_rules() {
    let nfa = Nfa::new(
        vec!["a".into(), "b".into()],
        vec![0, 1],
        vec![(0, 1), (1, 0), (1, 1)],
        vec![0],
        vec![1],
    )
    .unwrap();
    let class = WordClass::new(nfa);
    let steps = [
        "x_old < x_new",
        "x_new < x_old",
        "x_old = x_new & a(x_old)",
        "x_old = x_new & b(x_old)",
        "a(x_old) & b(x_new) & x_old < x_new",
    ];
    for g1 in steps {
        for g2 in steps {
            let schema = class.schema().clone();
            let mut b = SystemBuilder::new(schema, &["x"]);
            b.state("s").initial();
            b.state("m");
            b.state("t").accepting();
            b.rule("s", "m", g1).unwrap();
            b.rule("m", "t", g2).unwrap();
            let system = b.finish().unwrap();
            let engine_says = Engine::new(&class, &system).run().is_nonempty();
            let baseline_says = word_baseline(&class, &system, 7).is_some();
            assert_eq!(engine_says, baseline_says, "guards `{g1}` ; `{g2}`");
        }
    }
}

/// Tree engine vs tree baseline over two automata and a guard family.
#[test]
fn tree_engine_matches_baseline() {
    use dds::trees::baseline::bounded_emptiness as tree_baseline;
    let nested = TreeAutomaton::new(
        vec!["r".into(), "a".into(), "b".into()],
        vec![0, 1, 2],
        vec![2],
        vec![0],
        vec![0, 1, 2],
        vec![(1, 0), (2, 0), (1, 1), (2, 1)],
        vec![(2, 1), (1, 2)],
    );
    let class = TreeClass::new(nested);
    let guards = [
        "x_old <= x_new & x_old != x_new & b(x_new)",
        "x_new <= x_old & x_old != x_new",
        "cca(x_old, x_new) != x_old & cca(x_old, x_new) != x_new",
        "r(x_old) & b(x_old)",
    ];
    for g in guards {
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", g).unwrap();
        let system = b.finish().unwrap();
        let engine_says = Engine::new(&class, &system).run().is_nonempty();
        let baseline_says = tree_baseline(class.automaton(), &system, 6).is_some();
        assert_eq!(engine_says, baseline_says, "guard `{g}`");
    }
}
