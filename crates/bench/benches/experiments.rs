//! The experiment suite E1–E10 (see EXPERIMENTS.md and DESIGN.md §6).
//!
//! Each group reproduces one claim of the paper as a measurable shape:
//! who wins, how cost scales with the theorem's parameters, and where the
//! crossovers fall. Absolute times are environment-specific; the shapes are
//! the reproduction target.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dds_bench::*;
use dds_core::{DataClass, DataSpec, Engine, FreeRelationalClass, SymbolicClass};
use dds_reductions::counter::CounterMachine;
use dds_reductions::lemma1::{lemma1_system, LinearTm};
use dds_reductions::words_succ;
use dds_system::baseline::{bounded_emptiness_relational, BaselineStats};
use dds_system::eliminate_existentials;
use dds_trees::pointers::{blowup_ratio, run_pointers};
use dds_trees::TreeClass;
use dds_words::{Nfa, WordClass};
use std::time::Duration;

/// E1 — Lemma 1: PSpace-hardness family; cost grows with tape length.
fn e01_lemma1_hardness(c: &mut Criterion) {
    let mut g = c.benchmark_group("e01_lemma1_hardness");
    for n in [1usize, 2] {
        let tm = LinearTm::flip_and_check();
        let system = lemma1_system(&tm, n);
        g.bench_with_input(BenchmarkId::new("tape", n), &n, |b, _| {
            b.iter(|| {
                let class = FreeRelationalClass::new(system.schema().clone());
                run_engine(&class, &system)
            })
        });
    }
    g.finish();
}

/// E2 — Fact 2: existential elimination is linear time in guard size.
fn e02_fact2_elimination(c: &mut Criterion) {
    let mut g = c.benchmark_group("e02_fact2_elimination");
    for n in [4usize, 16, 64, 256] {
        let system = existential_chain_system(n);
        g.bench_with_input(BenchmarkId::new("guard_size", n), &n, |bch, _| {
            bch.iter(|| eliminate_existentials(&system).unwrap())
        });
    }
    g.finish();
}

/// E3 — Theorem 4: HOM emptiness, template size sweep (Example 1/2 system).
fn e03_hom_emptiness(c: &mut Criterion) {
    let mut g = c.benchmark_group("e03_hom_emptiness");
    let schema = graph_schema();
    let system = example1(schema.clone());
    for n in [1usize, 2, 3] {
        let class = cycle_template(schema.clone(), n);
        g.bench_with_input(BenchmarkId::new("template_cycle", n), &n, |b, _| {
            b.iter(|| run_engine(&class, &system))
        });
    }
    g.finish();
}

/// E4 — Theorem 5: space/time vs #states (linear-ish) and #registers
/// (exponential).
fn e04_engine_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("e04_engine_scaling");
    let schema = graph_schema();
    for n in [1usize, 2, 4, 8] {
        let system = chain_system(schema.clone(), n);
        g.bench_with_input(BenchmarkId::new("states", n), &n, |b, _| {
            b.iter(|| run_free(&system))
        });
    }
    for k in [2usize, 3, 4] {
        let system = distinct_registers_system(k);
        g.bench_with_input(BenchmarkId::new("registers", k), &k, |b, _| {
            b.iter(|| {
                let class = FreeRelationalClass::new(system.schema().clone());
                run_engine(&class, &system)
            })
        });
    }
    g.finish();
}

/// E5 — Theorem 10: word emptiness vs automaton size.
fn e05_word_emptiness(c: &mut Criterion) {
    let mut g = c.benchmark_group("e05_word_emptiness");
    let nfas = [
        (
            2usize,
            Nfa::new(
                vec!["a".into(), "b".into()],
                vec![0, 1],
                vec![(0, 1), (1, 0)],
                vec![0],
                vec![1],
            )
            .unwrap(),
        ),
        (4, nfa4()),
    ];
    for (n, nfa) in nfas {
        let class = WordClass::new(nfa);
        let system = word_step_system(class.schema().clone());
        g.bench_with_input(BenchmarkId::new("nfa_states", n), &n, |bch, _| {
            bch.iter(|| run_engine(&class, &system))
        });
    }
    g.finish();
}

/// E6 — Theorem 3: tree emptiness; fixed automaton, system-state sweep.
fn e06_tree_emptiness(c: &mut Criterion) {
    let mut g = c.benchmark_group("e06_tree_emptiness");
    let class = TreeClass::new(abc_tree_automaton());
    for steps in [1usize, 2] {
        let system = tree_walk_system(class.schema().clone(), steps);
        g.bench_with_input(BenchmarkId::new("walk_steps", steps), &steps, |bch, _| {
            bch.iter(|| run_engine(&class, &system))
        });
    }
    g.finish();
}

/// E7 — Proposition 1: data values preserve the blowup (overhead factor).
fn e07_data_values(c: &mut Criterion) {
    let mut g = c.benchmark_group("e07_data_values");
    let schema = graph_schema();
    // Base: one register random walk.
    let base_system = data_walk_system(schema.clone(), "");
    g.bench_function("base", |b| b.iter(|| run_free(&base_system)));
    for (name, spec, atom) in [
        ("nat_eq", DataSpec::nat_eq(), " & !(x_old ~ x_new)"),
        (
            "rational_order",
            DataSpec::rational_order(),
            " & x_old << x_new",
        ),
    ] {
        let class = DataClass::new(FreeRelationalClass::new(schema.clone()), spec);
        let system = data_walk_system(class.schema().clone(), atom);
        g.bench_function(name, |b| b.iter(|| run_engine(&class, &system)));
    }
    g.finish();
}

/// E8 — Lemma 14: pointer-closure blowup stays constant as trees grow.
fn e08_blowup(c: &mut Criterion) {
    let mut g = c.benchmark_group("e08_blowup");
    let aut = abc_tree_automaton();
    for depth in [8usize, 64] {
        // Chain r a^depth b.
        let (t, states) = chain_tree(depth);
        g.bench_with_input(BenchmarkId::new("chain_depth", depth), &depth, |b, _| {
            b.iter(|| {
                let ptr = run_pointers(&aut, &t, &states);
                let mid = 1 + depth / 2;
                blowup_ratio(&t, &ptr, &[mid, t.len() - 1])
            })
        });
    }
    g.finish();
}

/// E9 — §6 undecidability: bounded counter-machine search cost grows with
/// the halting time (no a-priori bound exists — that is Fact 15).
fn e09_undecidable(c: &mut Criterion) {
    let mut g = c.benchmark_group("e09_undecidable");
    for n in [1usize, 2, 3] {
        let m = CounterMachine::count_up_down(n);
        g.bench_with_input(BenchmarkId::new("halting_steps", n), &n, |b, _| {
            b.iter(|| words_succ::bounded_check(&m, n + 2).is_some())
        });
    }
    g.finish();
}

/// E10 — amalgamation engine vs brute-force database enumeration
/// (Example 1 over all graphs): the headline comparison.
fn e10_vs_baseline(c: &mut Criterion) {
    let mut g = c.benchmark_group("e10_vs_baseline");
    let schema = graph_schema();
    let system = example1(schema.clone());
    // Non-empty case: brute force finds the 1-node witness immediately and
    // wins on tiny instances; the engine pays for completeness.
    g.bench_function("engine_nonempty", |b| b.iter(|| run_free(&system)));
    g.bench_function("bruteforce_nonempty", |b| {
        b.iter(|| {
            let mut stats = BaselineStats::default();
            bounded_emptiness_relational(&system, 2, |_| true, &mut stats).is_some()
        })
    });
    // Empty case (over HOM of the 2-cycle template): the engine proves
    // emptiness outright; brute force can only exhaust ever-larger size
    // bounds without ever concluding — its cost is the full enumeration.
    let class = cycle_template(schema, 2);
    g.bench_function("engine_empty_hom", |b| {
        b.iter(|| {
            let outcome = Engine::new(&class, &system).run();
            outcome.is_empty()
        })
    });
    for max in [2usize, 3] {
        g.bench_with_input(
            BenchmarkId::new("bruteforce_exhaust_maxsize", max),
            &max,
            |b, &max| {
                b.iter(|| {
                    let mut stats = BaselineStats::default();
                    bounded_emptiness_relational(
                        &system,
                        max,
                        |db| {
                            dds_structure::morphism::find_homomorphism(db, class.template())
                                .is_some()
                        },
                        &mut stats,
                    )
                    .is_none()
                })
            },
        );
    }
    g.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(600))
}

criterion_group! {
    name = benches;
    config = config();
    targets =
        e01_lemma1_hardness,
        e02_fact2_elimination,
        e03_hom_emptiness,
        e04_engine_scaling,
        e05_word_emptiness,
        e06_tree_emptiness,
        e07_data_values,
        e08_blowup,
        e09_undecidable,
        e10_vs_baseline
}
criterion_main!(benches);
