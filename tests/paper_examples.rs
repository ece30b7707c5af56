//! Integration tests: every worked example of the paper, end to end.

use dds::prelude::*;
use dds::reductions::counter::CounterMachine;
use dds::reductions::lemma1::{lemma1_system, LinearTm};
use dds::reductions::trees_undec::{
    fact16_bounded_check, one_counter_bump, theorem17_bounded_check,
};
use dds::reductions::words_succ::bounded_check as fact15_check;

fn graph_schema() -> std::sync::Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.add_relation("red", 1).unwrap();
    s.finish()
}

fn example1(schema: std::sync::Arc<Schema>) -> System {
    let mut b = SystemBuilder::new(schema, &["x", "y"]);
    b.state("start").initial();
    b.state("q0");
    b.state("q1");
    b.state("end").accepting();
    b.rule(
        "start",
        "q0",
        "x_old = x_new & x_new = y_old & y_old = y_new",
    )
    .unwrap();
    b.rule("q0", "q1", "x_old = x_new & E(y_old, y_new) & red(y_new)")
        .unwrap();
    b.rule("q1", "q0", "x_old = x_new & E(y_old, y_new) & red(y_new)")
        .unwrap();
    b.rule("q1", "end", "x_old = x_new & x_new = y_old & y_old = y_new")
        .unwrap();
    b.finish().unwrap()
}

/// Example 1 + Example 2 (the paper's running example pair).
#[test]
fn examples_1_and_2() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    // Over all graphs: non-empty (odd red cycles exist), witness certified.
    let free = FreeRelationalClass::new(schema.clone());
    let outcome = Engine::new(&free, &system).run();
    let (db, run) = outcome.witness().expect("certified");
    system.check_run(db, run, true).unwrap();

    // Over HOM(H) with the bipartite-red template: empty (Example 2).
    let e = schema.lookup("E").unwrap();
    let red = schema.lookup("red").unwrap();
    let mut h = Structure::new(schema.clone(), 3);
    let (r0, r1, w) = (Element(0), Element(1), Element(2));
    h.add_fact(red, &[r0]).unwrap();
    h.add_fact(red, &[r1]).unwrap();
    for (a, b) in [
        (r0, r1),
        (r1, r0),
        (r0, w),
        (w, r0),
        (r1, w),
        (w, r1),
        (w, w),
    ] {
        h.add_fact(e, &[a, b]).unwrap();
    }
    let hom = HomClass::new(h);
    assert!(Engine::new(&hom, &system).run().is_empty());
}

/// The witness of Example 1 must itself fail to map into Example 2's
/// template — the two results are mutually consistent.
#[test]
fn example1_witness_escapes_example2_template() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    let free = FreeRelationalClass::new(schema.clone());
    let outcome = Engine::new(&free, &system).run();
    let (db, _) = outcome.witness().expect("certified");

    let e = schema.lookup("E").unwrap();
    let red = schema.lookup("red").unwrap();
    let mut h = Structure::new(schema, 3);
    let (r0, r1, w) = (Element(0), Element(1), Element(2));
    h.add_fact(red, &[r0]).unwrap();
    h.add_fact(red, &[r1]).unwrap();
    for (a, b) in [
        (r0, r1),
        (r1, r0),
        (r0, w),
        (w, r0),
        (r1, w),
        (w, r1),
        (w, w),
    ] {
        h.add_fact(e, &[a, b]).unwrap();
    }
    assert!(dds::structure::morphism::find_homomorphism(db, &h).is_none());
}

/// Lemma 1: the TM encoding decides blank-tape acceptance through system
/// emptiness over the pure-equality free class.
#[test]
fn lemma1_tm_encoding() {
    for (tm, expect) in [
        (LinearTm::flip_and_check(), true),
        (LinearTm::right_flipper(), false),
    ] {
        let system = lemma1_system(&tm, 2);
        let class = FreeRelationalClass::new(system.schema().clone());
        assert_eq!(Engine::new(&class, &system).run().is_nonempty(), expect);
    }
}

/// Fact 15: the counter-machine encoding over successor words accepts
/// exactly when the machine halts (checked bounded).
#[test]
fn fact15_counter_simulation() {
    let halting = CounterMachine::count_up_down(2);
    assert!(fact15_check(&halting, 5).is_some());
    assert!(fact15_check(&CounterMachine::diverges(), 5).is_none());
}

/// Fact 16: the cca+sibling encoding on binary trees.
#[test]
fn fact16_counter_simulation() {
    let m = one_counter_bump(2);
    assert!(fact16_bounded_check(&m, 2).is_some());
}

/// Theorem 17: data tree patterns count chunks.
#[test]
fn theorem17_pattern_simulation() {
    let m = one_counter_bump(2);
    assert!(theorem17_bounded_check(&m, 2).is_none());
    assert!(theorem17_bounded_check(&m, 3).is_some());
}

/// Fact 2 end to end: an existential-guard system and its quantifier-free
/// compilation agree on emptiness over the free class, and the engine's
/// witness run projects back.
#[test]
fn fact2_preserves_emptiness_over_the_engine() {
    let schema = graph_schema();
    let mut b = SystemBuilder::new(schema.clone(), &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule(
        "s",
        "t",
        "x_old = x_new & (exists z . E(x_old, z) & red(z))",
    )
    .unwrap();
    let system = b.finish().unwrap();
    let class = FreeRelationalClass::new(schema);
    let outcome = Engine::new(&class, &system).run();
    let (db, run) = outcome.witness().expect("certified");
    // Projected run satisfies the original existential system.
    system
        .check_run(db, &run.project_registers(1), true)
        .unwrap();
}

/// Linear orders: strictly-increasing walks of any fixed length are
/// satisfiable (the class has no maximal chain), strict cycles are not.
#[test]
fn linear_order_walks() {
    let class = DataClass::linear_order();
    let schema = class.schema().clone();
    let mut b = SystemBuilder::new(schema.clone(), &["x"]);
    b.state("s0").initial();
    b.state("s1");
    b.state("s2").accepting();
    b.rule("s0", "s1", "x_old < x_new").unwrap();
    b.rule("s1", "s2", "x_old < x_new").unwrap();
    let grow = b.finish().unwrap();
    let outcome = Engine::new(&class, &grow).run();
    let (db, run) = outcome.witness().expect("certified");
    grow.check_run(db, run, true).unwrap();
    assert!(db.size() >= 3);

    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old < x_new & x_new < x_old").unwrap();
    let cyclic = b.finish().unwrap();
    assert!(Engine::new(&class, &cyclic).run().is_empty());
}

/// Equivalence relations with data-style guards.
#[test]
fn equivalence_class_guards() {
    let class = DataClass::equivalence();
    let schema = class.schema().clone();
    // Reach an element equivalent to the start but distinct from it.
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old ~ x_new & x_old != x_new").unwrap();
    let system = b.finish().unwrap();
    let outcome = Engine::new(&class, &system).run();
    let (db, run) = outcome.witness().expect("certified");
    system.check_run(db, run, true).unwrap();
}

/// Data values over the free class: ⊗ allows equal values on distinct
/// elements, ⊙ forbids them (Proposition 1's two variants).
#[test]
fn data_products_otimes_vs_odot() {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    let base = s.finish();
    let guard = "x_old != x_new & x_old ~ x_new";
    for (spec, expect) in [
        (DataSpec::nat_eq(), true),
        (DataSpec::nat_eq_injective(), false),
    ] {
        let class = dds::core::DataClass::new(FreeRelationalClass::new(base.clone()), spec);
        let schema = class.schema().clone();
        let mut b = SystemBuilder::new(schema, &["x"]);
        b.state("s").initial();
        b.state("t").accepting();
        b.rule("s", "t", guard).unwrap();
        let system = b.finish().unwrap();
        assert_eq!(Engine::new(&class, &system).run().is_nonempty(), expect);
    }
}

/// Ordered data (⟨ℚ,<⟩): strictly descending data chains never get stuck
/// (density), unlike what a naive finite model would suggest.
#[test]
fn rational_order_data_is_dense() {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    let base = s.finish();
    let class =
        dds::core::DataClass::new(FreeRelationalClass::new(base), DataSpec::rational_order());
    let schema = class.schema().clone();
    let mut b = SystemBuilder::new(schema, &["x", "lo"]);
    b.state("s0").initial();
    b.state("s1");
    b.state("s2").accepting();
    // Two strict descents that stay above a fixed lower bound: density.
    b.rule(
        "s0",
        "s1",
        "lo_old = lo_new & x_new << x_old & lo_old << x_new",
    )
    .unwrap();
    b.rule(
        "s1",
        "s2",
        "lo_old = lo_new & x_new << x_old & lo_old << x_new",
    )
    .unwrap();
    let system = b.finish().unwrap();
    let outcome = Engine::new(&class, &system).run();
    let (db, run) = outcome.witness().expect("certified");
    system.check_run(db, run, true).unwrap();
}
