//! The parallel frontier engine must be bit-identical to the sequential one.
//!
//! `Engine::run` with `threads >= 2` expands BFS layers on pool workers
//! and merges deterministically; this suite pins the guarantee across
//! every class family (free relational, `HOM`, words, trees, data
//! products, linear orders) and both answer polarities: identical
//! [`Outcome`] variants, witness traces, certificates, and all
//! stats-invariant fields (`EngineStats` equality deliberately excludes the
//! wall-clock timings). At every point of the matrix `run` must also equal
//! the one-target projection of `run_multi`, the one search loop both
//! share.

use dds::core::{EngineOptions, ParallelMode, TargetStatus};
use dds::prelude::*;

/// `run_multi` over the compiled system's accepting states, mapped to the
/// [`Outcome`] that `run` must return (`Reached` → `NonEmpty`,
/// `Unreachable` → `Empty`, `Undecided` → `ResourceLimit`).
fn projected<C: SymbolicClass>(engine: &Engine<'_, C>) -> Outcome<C::Config> {
    let accepting = engine.compiled_system().accepting().to_vec();
    let out = engine.run_multi(&[accepting]);
    let stats = out.stats;
    match out.targets.into_iter().next().expect("one target set") {
        TargetStatus::Reached { trace, witness } => Outcome::NonEmpty {
            trace,
            witness,
            stats,
        },
        TargetStatus::Unreachable => Outcome::Empty { stats },
        TargetStatus::Undecided => Outcome::ResourceLimit { stats },
    }
}

/// Runs the engine at 1, 2, 4 and 8 workers (plus a tiny-chunk variant)
/// and asserts every configuration produces the identical outcome, and
/// that at every point `run` equals the one-target projection of `run_multi`. The matrix runs
/// in [`ParallelMode::Eager`] so the epoch path is genuinely exercised even
/// on a single-core host, where the default adaptive scheduler would
/// inline every layer; the adaptive default is pinned separately at the
/// end.
fn assert_deterministic<C: SymbolicClass>(class: &C, system: &System, expect_nonempty: bool)
where
    C::Config: PartialEq,
{
    let run = |options: EngineOptions| {
        let engine = Engine::new(class, system).with_options(options);
        let outcome = engine.run();
        assert_eq!(
            outcome,
            projected(&engine),
            "run() is not the run_multi projection at {options:?}"
        );
        outcome
    };
    let sequential = run(EngineOptions::default());
    assert_eq!(sequential.is_nonempty(), expect_nonempty);
    for threads in [1usize, 2, 4, 8] {
        let parallel = run(EngineOptions::default()
            .threads(threads)
            .parallel_mode(ParallelMode::Eager));
        assert_eq!(sequential, parallel, "threads = {threads}");
    }
    // Tiny chunks maximize scheduling interleavings; the merge must not care.
    let chunky = run(EngineOptions::default()
        .threads(3)
        .chunk_size(1)
        .parallel_mode(ParallelMode::Eager));
    assert_eq!(sequential, chunky, "chunk_size = 1");
    // The adaptive default may inline any subset of layers; the outcome and
    // the deterministic stats must not care where a layer ran.
    let adaptive = run(EngineOptions::default().threads(4));
    assert_eq!(sequential, adaptive, "adaptive scheduling");
}

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

/// Template: red cycle of length `n` plus an absorbing white node.
fn cycle_template(schema: std::sync::Arc<Schema>, n: usize) -> HomClass {
    let e = schema.lookup("E").unwrap();
    let red = schema.lookup("red").unwrap();
    let mut h = Structure::new(schema, n + 1);
    for i in 0..n {
        h.add_fact(red, &[Element(i as u32)]).unwrap();
        h.add_fact(e, &[Element(i as u32), Element(((i + 1) % n) as u32)])
            .unwrap();
    }
    let w = Element(n as u32);
    h.add_fact(e, &[w, w]).unwrap();
    HomClass::new(h)
}

#[test]
fn free_class_nonempty() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    let class = FreeRelationalClass::new(schema);
    assert_deterministic(&class, &system, true);
}

#[test]
fn hom_class_empty() {
    // Even cycle template: no odd red cycle maps, the search exhausts.
    let schema = graph_schema();
    let system = example1(schema.clone());
    let class = cycle_template(schema, 2);
    assert_deterministic(&class, &system, false);
}

#[test]
fn hom_class_nonempty() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    let class = cycle_template(schema, 1);
    assert_deterministic(&class, &system, true);
}

#[test]
fn word_class_nonempty() {
    let nfa = Nfa::new(
        vec!["a".into(), "b".into(), "c".into(), "d".into()],
        vec![0, 1, 2, 3],
        vec![(0, 1), (1, 2), (2, 3), (3, 0), (1, 1)],
        vec![0],
        vec![3],
    )
    .unwrap();
    let class = WordClass::new(nfa);
    let schema = class.schema().clone();
    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old < x_new").unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, true);
}

#[test]
fn tree_class_both_polarities() {
    let aut = TreeAutomaton::new(
        vec!["r".into(), "a".into(), "b".into()],
        vec![0, 1, 2],
        vec![2],
        vec![0],
        vec![0, 1, 2],
        vec![(1, 0), (2, 0), (1, 1), (2, 1)],
        vec![],
    );
    let class = TreeClass::new(aut);
    let schema = class.schema().clone();
    let mut b = SystemBuilder::new(schema.clone(), &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old <= x_new & x_old != x_new").unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, true);

    let mut b = SystemBuilder::new(schema, &["x"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "a(x_old) & b(x_old)").unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, false);
}

#[test]
fn data_product_nonempty() {
    let schema = graph_schema();
    let class = DataClass::new(FreeRelationalClass::new(schema), DataSpec::rational_order());
    let mut b = SystemBuilder::new(class.schema().clone(), &["x"]);
    b.state("s").initial();
    b.state("m");
    b.state("t").accepting();
    let guard = "E(x_old, x_new) & x_old << x_new";
    b.rule("s", "m", guard).unwrap();
    b.rule("m", "t", guard).unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, true);
}

#[test]
fn linear_order_nonempty() {
    let class = LinearOrderClass::new();
    let mut b = SystemBuilder::new(class.schema().clone(), &["x", "y"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old < y_old & x_old = x_new & y_old = y_new")
        .unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, true);
}

#[test]
fn equivalence_class_both_polarities() {
    // Nonempty: walk to a register outside x's block, then back into it.
    let class = EquivalenceClass::new();
    let mut b = SystemBuilder::new(class.schema().clone(), &["x", "y"]);
    b.state("s").initial();
    b.state("m");
    b.state("t").accepting();
    b.rule("s", "m", "x_old = x_new & !(x_old ~ y_new)")
        .unwrap();
    b.rule("m", "t", "x_old = x_new & x_new ~ y_new & !(y_old ~ y_new)")
        .unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, true);

    // Empty: `~` is symmetric, so a one-directional similarity is absurd.
    let mut b = SystemBuilder::new(class.schema().clone(), &["x", "y"]);
    b.state("s").initial();
    b.state("t").accepting();
    b.rule("s", "t", "x_old ~ y_old & !(y_old ~ x_old)")
        .unwrap();
    let system = b.finish().unwrap();
    assert_deterministic(&class, &system, false);
}

#[test]
fn counter_machine_fact15_both_polarities() {
    use dds::reductions::counter::CounterMachine;
    use dds::reductions::words_succ;

    // Halting machine: the Fact 15 system is non-empty over the free
    // successor class (a long-enough line hosts the halting run).
    let halting = CounterMachine::count_up_down(2);
    let system = words_succ::fact15_system(&halting);
    let class = FreeRelationalClass::new(words_succ::succ_schema());
    assert_deterministic(&class, &system, true);

    // A machine whose program never reaches `halt`: empty over *any*
    // database, which the engine proves outright.
    let diverging = CounterMachine::diverges();
    let system = words_succ::fact15_system(&diverging);
    assert_deterministic(&class, &system, false);
}

/// Schema rich enough that a single unconstrained expansion has 100+
/// distinct successor configurations (2-pointed structures over one binary
/// and two unary relations: hundreds of isomorphism classes).
fn skewed_schema() -> std::sync::Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.add_relation("red", 1).unwrap();
    s.add_relation("blue", 1).unwrap();
    s.finish()
}

/// Builds a system whose BFS layers are deliberately skewed: from every
/// configuration, one rule fans out into 100+ successors (all extensions by
/// two unconstrained fresh registers) while the sibling rule produces
/// exactly one. The `fat` state is a sink and the `thin` branch dead-ends
/// on an unsatisfiable guard, so the search must exhaust the whole skewed
/// space (no early accept can mask a scheduling bug).
fn skewed_system(schema: std::sync::Arc<Schema>) -> System {
    let mut b = SystemBuilder::new(schema, &["x", "y"]);
    b.state("s").initial();
    b.state("fat");
    b.state("thin");
    b.state("dead").accepting();
    // Unconstrained registers: every placement and every subset of new
    // tuples is an amalgam — the hot, wide task.
    b.rule("s", "fat", "x_new = x_new").unwrap();
    // Frozen registers: exactly one successor — the near-empty task.
    b.rule("s", "thin", "x_old = x_new & y_old = y_new")
        .unwrap();
    b.rule("thin", "dead", "x_old != x_old").unwrap();
    b.finish().unwrap()
}

/// One state with 100+ successors next to near-empty states, pinned
/// bit-identical at 1/2/4/8 workers (and at `chunk_size = 1`, the maximal
/// steal-interleaving setting).
#[test]
fn skewed_layers_bit_identical() {
    let schema = skewed_schema();
    let system = skewed_system(schema.clone());
    let class = FreeRelationalClass::new(schema);
    let sequential = Engine::new(&class, &system).run();
    // The unconstrained fat expansion is base-independent: every single
    // fat task yields every 2-pointed structure over the schema (250+
    // isomorphism classes), so the explored count certifies the per-task
    // fan-out the scheduler has to balance.
    assert!(
        sequential.stats().configs_explored >= 500,
        "the fat rule must actually fan out (got {})",
        sequential.stats().configs_explored
    );
    assert_deterministic(&class, &system, false);
}

/// A wide relational spec from the macro suite: 180 layers, most with 16
/// to 31 nodes, each resolving its successors by key against the
/// layer-start interner on the epoch path — far more published layers
/// than the toy systems above.
#[test]
fn wide_macro_spec_bit_identical() {
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/bench/macro/chain_free_exhaust.dds"
    );
    let lowered = dds_cli::load_spec(&std::fs::read_to_string(path).unwrap()).unwrap();
    let dds_cli::lower::AnyClass::Free(class) = &lowered.class else {
        panic!("{path}: free class expected");
    };
    let dds_cli::lower::Task::Reach(system) = &lowered.properties[0].task else {
        panic!("{path}: reach property expected");
    };
    assert_deterministic(class, system, false);
}

/// Scheduler counter sanity. The counters are diagnostics excluded from
/// `EngineStats` equality, but they must still tell the truth: a sequential
/// run never steals and never waits on the epoch gate.
#[test]
fn steal_and_scratch_counters_sane() {
    let schema = skewed_schema();
    let system = skewed_system(schema.clone());
    let class = FreeRelationalClass::new(schema);

    let sequential = Engine::new(&class, &system).run();
    assert_eq!(sequential.stats().tasks_stolen, 0);
    assert_eq!(sequential.stats().idle_ns, 0);

    // Parallel: the counters may differ (they are scheduling-dependent),
    // but stats equality — which excludes them — still holds, and the
    // steal counter stays within the total task count.
    let parallel = Engine::new(&class, &system)
        .with_options(
            EngineOptions::default()
                .threads(4)
                .chunk_size(1)
                .parallel_mode(ParallelMode::Eager),
        )
        .run();
    assert_eq!(sequential.stats(), parallel.stats());
    assert!(parallel.stats().tasks_stolen <= parallel.stats().configs_explored as u64 * 2);
}

/// The scheduling counters must distinguish where layers actually ran: a
/// sequential run touches neither the pool nor the gate (no inline or
/// published layers, no steals, no idle or merge time); an eager run
/// publishes every multi-task layer.
#[test]
fn scheduling_counters_distinguish_inline_from_published() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    let class = FreeRelationalClass::new(schema);

    let sequential = Engine::new(&class, &system).run();
    assert_eq!(sequential.stats().layers_inline, 0);
    assert_eq!(sequential.stats().layers_parallel, 0);
    assert_eq!(sequential.stats().tasks_stolen, 0);
    assert_eq!(sequential.stats().idle_ns, 0);
    assert_eq!(sequential.stats().merge_ns, 0);

    let eager = Engine::new(&class, &system)
        .with_options(
            EngineOptions::default()
                .threads(4)
                .parallel_mode(ParallelMode::Eager),
        )
        .run();
    assert_eq!(sequential, eager);
    assert!(eager.stats().layers_parallel > 0, "{:?}", eager.stats());
}

/// One equiv run at a given worker count; the spec pair is inlined so the
/// test pins engine behavior, not file contents.
fn equiv_report(spec_a: &str, spec_b: &str, threads: usize, bisim: bool) -> dds_cli::EquivReport {
    dds_cli::EquivRequest::new(spec_a, spec_b)
        .options(dds_cli::RunOptions {
            threads,
            ..dds_cli::RunOptions::default()
        })
        .bisim(bisim)
        .run()
        .unwrap_or_else(|e| panic!("equiv at {threads} workers: {e}"))
}

const EQUIV_BASE: &str = "
system odd_red_walk
schema {
  relation E/2
  relation red/1
}
class free
registers x y
states {
  start init
  hop
  end
}
rule start -> hop: x_old = x_new & E(y_old, y_new) & red(y_new)
rule hop -> end: x_old = x_new & x_new = y_old & y_old = y_new
property reach {
  accept end
}
";

/// `dds equiv` products run through the same engine; verdicts, witness
/// sides, traces and explored counts must be bit-identical at 1/2/4/8
/// workers — for an equivalent pair, a divergent pair (where the witness
/// must stay on the same side), and the stepwise `--bisim` mode.
#[test]
fn equiv_verdicts_bit_identical_across_workers() {
    let severed = EQUIV_BASE.replace(
        "rule hop -> end: x_old = x_new",
        "rule hop -> end: x_old != x_old & x_old = x_new",
    );
    assert_ne!(severed, EQUIV_BASE);
    for (label, spec_b, bisim, verdict) in [
        ("self", EQUIV_BASE.to_owned(), false, "equivalent"),
        ("severed", severed.clone(), false, "divergent"),
        ("bisim", EQUIV_BASE.to_owned(), true, "equivalent"),
        ("bisim-severed", severed, true, "divergent"),
    ] {
        let sequential = equiv_report(EQUIV_BASE, &spec_b, 1, bisim);
        assert_eq!(sequential.verdict(), verdict, "case {label}");
        if verdict == "divergent" {
            let pair = sequential.first_divergence().unwrap();
            assert_eq!(pair.witness_side.as_deref(), Some("a"), "case {label}");
            assert!(pair.trace.is_some(), "case {label}");
        }
        for threads in [2usize, 4, 8] {
            let parallel = equiv_report(EQUIV_BASE, &spec_b, threads, bisim);
            assert_eq!(
                dds_cli::render::equiv_text(&sequential, false),
                dds_cli::render::equiv_text(&parallel, false),
                "case {label}: report drifted at {threads} workers"
            );
            assert_eq!(
                sequential.fingerprint, parallel.fingerprint,
                "case {label}: fingerprint drifted at {threads} workers"
            );
            for (s, p) in sequential.pairs.iter().zip(&parallel.pairs) {
                assert_eq!(
                    (s.configs_explored, &s.verdict, &s.witness_side, &s.trace),
                    (p.configs_explored, &p.verdict, &p.witness_side, &p.trace),
                    "case {label}: pair `{}` drifted at {threads} workers",
                    s.name
                );
            }
        }
    }
}

/// The `threads = 0` auto setting must also agree (it resolves to whatever
/// the host offers, including 1).
#[test]
fn auto_threads_agrees() {
    let schema = graph_schema();
    let system = example1(schema.clone());
    let class = FreeRelationalClass::new(schema);
    let sequential = Engine::new(&class, &system).run();
    let auto = Engine::new(&class, &system)
        .with_options(EngineOptions::default().threads(0))
        .run();
    assert_eq!(sequential, auto);
}
