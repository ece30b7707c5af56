//! Smoke test for the `dds` facade: everything a downstream user needs for
//! the core workflow — build a system, pick a class, run the Theorem 5
//! engine, inspect the outcome — must be reachable through `dds::prelude::*`
//! alone. Catches facade wiring regressions (dropped re-exports, renamed
//! prelude items) that per-crate tests cannot see.

use dds::prelude::*;

/// The graph schema `{E/2, red/1}` of the paper's running examples.
fn graph_schema() -> std::sync::Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.add_relation("red", 1).unwrap();
    s.finish()
}

/// A two-step system whose guard is given as text.
fn two_step(schema: std::sync::Arc<Schema>, guard: &str) -> System {
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("m");
    b.state("t").accepting();
    b.rule("s", "m", guard).unwrap();
    b.rule("m", "t", guard).unwrap();
    b.finish().unwrap()
}

#[test]
fn prelude_covers_the_free_class_workflow() {
    let schema = graph_schema();
    let system = two_step(schema.clone(), "E(x_old, x_new) & red(x_new)");
    let class = FreeRelationalClass::new(schema);
    let outcome = Engine::new(&class, &system).run();
    assert!(outcome.is_nonempty());
    // The engine certifies non-emptiness with a concrete database + run.
    let (db, run) = outcome
        .witness()
        .expect("non-empty outcomes carry a witness");
    assert!(db.size() > 0);
    assert!(run.len() >= 3, "two rules need three configurations");

    // An unsatisfiable guard is empty over every class.
    let contradiction = two_step(graph_schema(), "red(x_old) & !red(x_old)");
    let class = FreeRelationalClass::new(graph_schema());
    assert!(Engine::new(&class, &contradiction).run().is_empty());
}

#[test]
fn prelude_covers_restricted_classes() {
    // HOM(H) for H = a single non-red self-loop: "step along an edge to a
    // red node" is unsatisfiable in any graph mapping into H.
    let schema = graph_schema();
    let mut h = Structure::new(schema.clone(), 1);
    let e = schema.lookup("E").unwrap();
    h.add_fact(e, &[Element(0), Element(0)]).unwrap();
    let class = HomClass::new(h);
    let system = two_step(schema.clone(), "E(x_old, x_new) & red(x_new)");
    assert!(Engine::new(&class, &system).run().is_empty());
    // ...while plain edge-stepping still works.
    let system = two_step(schema, "E(x_old, x_new)");
    assert!(Engine::new(&class, &system).run().is_nonempty());

    // Linear orders: strictly ascending twice is satisfiable, and a
    // register cannot be strictly below itself.
    let class = DataClass::linear_order();
    let system = two_step(class.schema().clone(), "x_old < x_new");
    assert!(Engine::new(&class, &system).run().is_nonempty());
    let system = two_step(class.schema().clone(), "x_old < x_old");
    assert!(Engine::new(&class, &system).run().is_empty());
}

#[test]
fn prelude_covers_words_and_trees() {
    // Theorem 10: words of (ab)+ — a register can move strictly forward.
    let nfa = Nfa::new(
        vec!["a".into(), "b".into()],
        vec![0, 1],
        vec![(0, 1), (1, 0)],
        vec![0],
        vec![1],
    )
    .unwrap();
    let class = WordClass::new(nfa);
    let system = two_step(class.schema().clone(), "x_old < x_new");
    assert!(Engine::new(&class, &system).run().is_nonempty());

    // Theorem 3: trees r(a*) — descend strictly, then check the label.
    let aut = TreeAutomaton::new(
        vec!["r".into(), "a".into()],
        vec![0, 1],
        vec![1],
        vec![0],
        vec![0, 1],
        vec![(1, 0), (1, 1)],
        vec![],
    );
    let class = TreeClass::new(aut);
    let schema = class.schema().clone();
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old <= x_new & x_old != x_new & a(x_new)")
        .unwrap();
    let system = b.finish().unwrap();
    assert!(Engine::new(&class, &system).run().is_nonempty());
}
