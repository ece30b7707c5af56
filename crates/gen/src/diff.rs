//! The differential checks: four engine configurations against each other
//! and against the bounded brute-force baselines.
//!
//! For every scenario the harness runs the symbolic engine four ways —
//! `threads = 1` vs `threads = N`, certification on vs off — and requires
//! bit-identical outcomes and deterministic statistics across all four.
//! Every class has a brute-force oracle (counter machines through the
//! Fact 15 word search), which it then cross-checks:
//!
//! * engine `empty` ⇒ the baseline finds **no** witness up to its bound
//!   (a baseline witness against an `empty` answer is a soundness bug);
//! * engine `nonempty` ⇒ the certified witness replays through
//!   [`System::check_run`] and is a member of the class.
//!
//! No claim is made on `resource-limit` outcomes beyond four-way equality —
//! the engine is undecided there, and the baselines stay sound either way.

use crate::scenario::{Built, Scenario, ScenarioClass};
use crate::AnyClass;
use dds_core::amalgam::{point_patterns, project_structure};
use dds_core::data::DataKind;
use dds_core::{DataSpec, Engine, EngineOptions, Outcome, SymbolicClass};
use dds_reductions::words_succ;
use dds_structure::{Element, Schema, Structure};
use dds_system::baseline::{bounded_emptiness, bounded_emptiness_relational, BaselineStats};
use dds_system::{Run, System};
use std::sync::Arc;

/// Differential-run tuning.
#[derive(Clone, Copy, Debug)]
pub struct DiffOptions {
    /// Worker count of the parallel leg (the sequential leg is pinned at 1).
    pub threads: usize,
    /// Engine exploration budget per leg.
    pub max_configs: usize,
    /// Database size bound for the relational baselines.
    pub db_bound: usize,
    /// Word length bound for the word baseline.
    pub word_bound: usize,
    /// Node budget for the tree baseline.
    pub tree_bound: usize,
}

impl Default for DiffOptions {
    fn default() -> DiffOptions {
        DiffOptions {
            threads: 2,
            max_configs: 100_000,
            db_bound: 3,
            word_bound: 6,
            tree_bound: 6,
        }
    }
}

/// What one differential check established.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DiffReport {
    /// Outcome keyword: `nonempty`, `empty`, `resource-limit`, `halts` or
    /// `open`.
    pub outcome: String,
    /// `EngineStats::configs_explored` of the agreed engine legs (for
    /// counter machines: of the Fact 15 system's run over the free
    /// successor class).
    pub configs_explored: usize,
    /// Full statistics of the agreed engine legs (`None` for counter
    /// machines, whose reported outcome comes from the bounded word
    /// search). Callers comparing a *fifth* engine configuration — the
    /// fuzz driver's lowered-spec leg — diff against this instead of
    /// re-running the built one.
    pub engine_stats: Option<dds_core::EngineStats>,
    /// A certified witness was replayed and membership-checked.
    pub witness_certified: bool,
}

/// Builds a scenario and runs every differential check against it.
pub fn check(sc: &Scenario, opts: &DiffOptions) -> Result<DiffReport, String> {
    let built = sc.build()?;
    check_built(sc, &built, opts)
}

/// Runs every differential check against an already-built scenario.
pub fn check_built(sc: &Scenario, built: &Built, opts: &DiffOptions) -> Result<DiffReport, String> {
    match &built.class {
        AnyClass::Counter(m) => {
            let ScenarioClass::Counter { bound, .. } = &sc.class else {
                return Err("counter class without a bounded-halt bound".into());
            };
            check_counter(m, *bound, opts)
        }
        class => {
            let system = built
                .system
                .as_ref()
                .ok_or("non-counter scenario without a system")?;
            match class {
                AnyClass::Free(c) => {
                    let four = four_way(c, system, opts)?;
                    finish_relational(four, system, opts, |_| true)
                }
                AnyClass::Hom(c) => {
                    let four = four_way(c, system, opts)?;
                    finish_relational(four, system, opts, |db| c.maps_into_template(db))
                }
                AnyClass::Equiv(c) | AnyClass::Order(c) => {
                    let four = four_way(c, system, opts)?;
                    let members = example3_members(system.schema(), c.spec(), opts.db_bound);
                    finish_members(four, system, members, |db| is_data_relation(c.spec(), db))
                }
                AnyClass::Words(c) => {
                    let four = four_way(c, system, opts)?;
                    let oracle = dds_words::baseline::bounded_emptiness(c, system, opts.word_bound);
                    finish_with_oracle(four, system, oracle.is_some(), |_| true)
                }
                AnyClass::Trees(c) => {
                    let four = four_way(c, system, opts)?;
                    let oracle = dds_trees::baseline::bounded_emptiness(
                        c.automaton(),
                        system,
                        opts.tree_bound,
                    );
                    finish_with_oracle(four, system, oracle.is_some(), |_| true)
                }
                AnyClass::DataFree(c) => {
                    let four = four_way(c, system, opts)?;
                    finish_relational(four, system, opts, |db| is_data_relation(c.spec(), db))
                }
                AnyClass::DataEquiv(c) | AnyClass::DataOrder(c) => {
                    let four = four_way(c, system, opts)?;
                    finish_relational(four, system, opts, |db| {
                        is_data_relation(c.spec(), db) && is_data_relation(c.inner().spec(), db)
                    })
                }
                AnyClass::DataHom(c) => {
                    let four = four_way(c, system, opts)?;
                    let sigma = c.inner().template().schema();
                    finish_relational(four, system, opts, |db| {
                        is_data_relation(c.spec(), db)
                            && c.inner().maps_into_template(&project_structure(db, sigma))
                    })
                }
                AnyClass::Counter(_) => unreachable!("handled above"),
            }
        }
    }
}

/// The agreed result of the four engine legs.
struct FourWay {
    outcome: &'static str,
    stats: dds_core::EngineStats,
    witness: Option<(Structure, Run)>,
}

/// Runs the engine at `(1, N) × (certify, no-certify)` and checks all four
/// legs agree: identical outcome variants and deterministic statistics
/// everywhere, identical traces and witnesses within each certification
/// mode.
fn four_way<C: SymbolicClass>(
    class: &C,
    system: &System,
    opts: &DiffOptions,
) -> Result<FourWay, String> {
    let run = |threads: usize, concretize: bool| {
        Engine::new(class, system)
            .with_options(
                EngineOptions::default()
                    .threads(threads)
                    .max_configs(opts.max_configs)
                    .concretize(concretize),
            )
            .run()
    };
    let certified_seq = run(1, true);
    let certified_par = run(opts.threads, true);
    let bare_seq = run(1, false);
    let bare_par = run(opts.threads, false);

    if certified_seq != certified_par {
        return Err(format!(
            "certify legs disagree between threads=1 and threads={}:\n  {certified_seq:?}\nvs\n  {certified_par:?}",
            opts.threads
        ));
    }
    if bare_seq != bare_par {
        return Err(format!(
            "no-certify legs disagree between threads=1 and threads={}:\n  {bare_seq:?}\nvs\n  {bare_par:?}",
            opts.threads
        ));
    }
    if certified_seq.keyword() != bare_seq.keyword() || certified_seq.stats() != bare_seq.stats() {
        return Err(format!(
            "certify and no-certify legs disagree:\n  {:?} {:?}\nvs\n  {:?} {:?}",
            certified_seq.keyword(),
            certified_seq.stats(),
            bare_seq.keyword(),
            bare_seq.stats()
        ));
    }
    if bare_seq.witness().is_some() {
        return Err("no-certify leg produced a witness".into());
    }
    let outcome = certified_seq.keyword();
    let stats = *certified_seq.stats();
    let witness = match certified_seq {
        Outcome::NonEmpty { witness, .. } => witness,
        _ => None,
    };
    Ok(FourWay {
        outcome,
        stats,
        witness,
    })
}

/// Relational classes: enumerate every database up to the bound through the
/// class filter; the same predicate later membership-checks the engine's
/// certified witness.
fn finish_relational(
    four: FourWay,
    system: &System,
    opts: &DiffOptions,
    is_member: impl Fn(&Structure) -> bool,
) -> Result<DiffReport, String> {
    let bound = relational_bound(system.schema(), opts.db_bound);
    let mut stats = BaselineStats::default();
    let oracle = bounded_emptiness_relational(system, bound, &is_member, &mut stats);
    finish_with_oracle(four, system, oracle.is_some(), is_member)
}

/// The largest database size `<= max` whose exhaustive enumeration stays
/// small (`2^slots <= 4096` structures). Two binary relations at size 3
/// already mean 2^18 databases — far past what a per-iteration oracle can
/// afford — while one binary plus one unary fits exactly.
fn relational_bound(schema: &dds_structure::Schema, max: usize) -> usize {
    let mut best = 1;
    for size in 1..=max {
        let slots: usize = schema
            .relations()
            .map(|r| size.pow(schema.arity(r) as u32))
            .sum();
        if slots <= 12 {
            best = size;
        }
    }
    best
}

/// Classes with a direct member enumeration (Example 3's equivalence
/// relations and linear orders).
fn finish_members(
    four: FourWay,
    system: &System,
    members: Vec<Structure>,
    is_member: impl Fn(&Structure) -> bool,
) -> Result<DiffReport, String> {
    let oracle = bounded_emptiness(system, members);
    finish_with_oracle(four, system, oracle.is_some(), is_member)
}

/// Joins the four-way result with a brute-force verdict.
fn finish_with_oracle(
    four: FourWay,
    system: &System,
    oracle_found: bool,
    is_member: impl Fn(&Structure) -> bool,
) -> Result<DiffReport, String> {
    if four.outcome == "empty" && oracle_found {
        return Err(
            "soundness violation: engine says empty but the bounded baseline found a witness"
                .into(),
        );
    }
    let witness_certified = certify_witness(&four, system, is_member)?;
    Ok(DiffReport {
        outcome: four.outcome.into(),
        configs_explored: four.stats.configs_explored,
        engine_stats: Some(four.stats),
        witness_certified,
    })
}

/// Whether the data relation of `db` (the symbol `spec.symbol`) has the
/// shape the data product demands (§4.4): an equivalence under
/// `⊗ ⟨ℕ,=⟩`, the identity under `⊙ ⟨ℕ,=⟩`, a strict weak order under
/// `⊗ ⟨ℚ,<⟩` and a strict total order under `⊙ ⟨ℚ,<⟩`. Read straight from
/// the definitions, independently of [`dds_core::DataClass`]: this is the
/// membership oracle of data products and of Example 3's classes, which
/// are data products over the empty free class.
pub fn is_data_relation(spec: &DataSpec, db: &Structure) -> bool {
    let Ok(sym) = db.schema().lookup(&spec.symbol) else {
        return false;
    };
    let r = |a: Element, b: Element| db.holds(sym, &[a, b]);
    let all = |p: &dyn Fn(Element, Element, Element) -> bool| {
        db.elements()
            .all(|a| db.elements().all(|b| db.elements().all(|c| p(a, b, c))))
    };
    match (spec.kind, spec.injective) {
        (DataKind::Equality, false) => {
            all(&|a, b, c| r(a, a) && r(a, b) == r(b, a) && (!r(a, b) || !r(b, c) || r(a, c)))
        }
        (DataKind::Equality, true) => all(&|a, b, _| r(a, b) == (a == b)),
        // Irreflexive, transitive, and incomparability is transitive.
        (DataKind::Order, false) => all(&|a, b, c| {
            !r(a, a) && (!r(a, b) || !r(b, c) || r(a, c)) && (!r(a, c) || r(a, b) || r(b, c))
        }),
        // Irreflexive, transitive and total.
        (DataKind::Order, true) => all(&|a, b, c| {
            !r(a, a) && (!r(a, b) || !r(b, c) || r(a, c)) && (a == b || r(a, b) || r(b, a))
        }),
    }
}

/// One member per isomorphism class, with `1..=max` elements, of the data
/// product `spec` over the empty free class: the set partitions under
/// `⊗ ⟨ℕ,=⟩` (finite equivalence relations) and one chain per size under
/// `⊙ ⟨ℚ,<⟩` (finite linear orders). An accepting run exists on a
/// structure iff it exists on any isomorphic copy, so these are a complete
/// brute-force emptiness basis up to the bound.
fn example3_members(schema: &Arc<Schema>, spec: &DataSpec, max: usize) -> Vec<Structure> {
    let sym = schema.lookup(&spec.symbol).expect("the data symbol");
    let mut out = Vec::new();
    for n in 1..=max {
        let assignments = match (spec.kind, spec.injective) {
            (DataKind::Equality, false) => point_patterns(n),
            (DataKind::Order, true) => vec![(0..n).collect()],
            _ => unreachable!("Example 3 has no class {spec:?}"),
        };
        for values in assignments {
            let mut s = Structure::new(schema.clone(), n);
            for (a, &va) in values.iter().enumerate() {
                for (b, &vb) in values.iter().enumerate() {
                    let holds = match spec.kind {
                        DataKind::Equality => va == vb,
                        DataKind::Order => va < vb,
                    };
                    if holds {
                        s.add_fact(sym, &[Element::from_index(a), Element::from_index(b)])
                            .expect("elements in range");
                    }
                }
            }
            out.push(s);
        }
    }
    out
}

/// Replays the certified witness, when one exists.
fn certify_witness(
    four: &FourWay,
    system: &System,
    is_member: impl Fn(&Structure) -> bool,
) -> Result<bool, String> {
    match &four.witness {
        None => Ok(false),
        Some((db, run)) => {
            system
                .check_run(db, run, true)
                .map_err(|e| format!("certified witness does not replay: {e:?}"))?;
            if !is_member(db) {
                return Err("certified witness database is not a member of the class".into());
            }
            Ok(true)
        }
    }
}

/// Counter machines: the direct simulation, the Fact 15 bounded word
/// search, and the engine over the free successor class must tell one
/// consistent story.
///
/// The reported outcome is the search at the *scenario's declared bound* —
/// exactly what `dds verify` will recompute when the rendered spec's
/// `bounded-halt` property replays — so an `expect` stamped from this
/// report always re-verifies. The deeper cross-checks run at a larger
/// probe bound.
fn check_counter(
    m: &dds_reductions::counter::CounterMachine,
    declared_bound: usize,
    opts: &DiffOptions,
) -> Result<DiffReport, String> {
    const SIM_STEPS: usize = 64;
    const PEAK_CAP: usize = 8;
    let probe_bound = (PEAK_CAP + 1).max(declared_bound);

    let sim = m.run(SIM_STEPS);
    let declared = words_succ::bounded_check(m, declared_bound);
    let probe = words_succ::bounded_check(m, probe_bound);

    // Monotonicity: a halting word within the declared bound is also one
    // within the (no smaller) probe bound.
    if declared.is_some() && probe.is_none() {
        return Err(format!(
            "Fact 15 search is not monotone: halts at bound {declared_bound} but not at {probe_bound}"
        ));
    }
    // Direct simulation halting with small counters ⇒ the word search must
    // find a run on a line long enough to host the peak counter value.
    if sim.is_some() {
        let peak = m.peak(SIM_STEPS) as usize;
        if peak < PEAK_CAP && probe.is_none() {
            return Err(format!(
                "machine halts (peak {peak}) but the Fact 15 search up to length {probe_bound} finds nothing"
            ));
        }
    }
    // The word search replays through the explicit checker.
    let system = words_succ::fact15_system(m);
    if let Some((db, run)) = &probe {
        system
            .check_run(db, run, true)
            .map_err(|e| format!("Fact 15 witness does not replay: {e:?}"))?;
    }

    // Engine leg: the Fact 15 system over the free successor class. Lines
    // are members, so a bounded-search witness forces a non-empty engine
    // answer (the converse does not hold: cyclic successor structures may
    // accept even for diverging machines).
    let class = dds_core::FreeRelationalClass::new(words_succ::succ_schema());
    let four = four_way(&class, &system, opts)?;
    if probe.is_some() && four.outcome == "empty" {
        return Err(
            "soundness violation: Fact 15 search found a halting word but the engine says empty"
                .into(),
        );
    }
    let witness_certified = certify_witness(&four, &system, |_| true)?;
    Ok(DiffReport {
        outcome: if declared.is_some() { "halts" } else { "open" }.into(),
        configs_explored: four.stats.configs_explored,
        engine_stats: None,
        witness_certified,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::generate_seeded;
    use crate::scenario::ClassKind;

    /// A light sweep: two iterations per class through the full harness.
    /// The heavy sweeps live in `dds fuzz` and the workspace property
    /// tests; this pins the harness itself against regressions.
    #[test]
    fn harness_passes_on_generated_scenarios() {
        let opts = DiffOptions::default();
        for kind in ClassKind::ALL {
            for iter in 0..2 {
                let sc = generate_seeded(kind, 7, iter, 2);
                let report = check(&sc, &opts)
                    .unwrap_or_else(|e| panic!("{kind:?} iter {iter}: {e}\n{}", sc.render()));
                assert!(!report.outcome.is_empty());
            }
        }
    }

    /// The data-relation oracle, on two elements: which of the four
    /// products admits each relation.
    #[test]
    fn data_relation_oracle_follows_the_definitions() {
        let specs = [
            DataSpec::nat_eq(),
            DataSpec::nat_eq_injective(),
            DataSpec::rational_order(),
            DataSpec::rational_order_injective(),
        ];
        let mut sc = Schema::new();
        sc.add_relation("~", 2).unwrap();
        sc.add_relation("<<", 2).unwrap();
        let schema = sc.finish();
        let db = |sym: &str, facts: &[(u32, u32)]| {
            let r = schema.lookup(sym).unwrap();
            let mut s = Structure::new(schema.clone(), 2);
            for &(a, b) in facts {
                s.add_fact(r, &[Element(a), Element(b)]).unwrap();
            }
            s
        };
        // (symbol, facts, [admitted by ⊗, admitted by ⊙])
        let cases = [
            ("~", &[(0, 0), (1, 1)][..], [true, true]),
            ("~", &[(0, 0), (1, 1), (0, 1), (1, 0)][..], [true, false]),
            ("~", &[(0, 0), (1, 1), (0, 1)][..], [false, false]), // not symmetric
            ("~", &[(0, 0)][..], [false, false]),                 // not reflexive
            ("<<", &[][..], [true, false]),                       // a tie: not total
            ("<<", &[(0, 1)][..], [true, true]),
            ("<<", &[(0, 1), (1, 0)][..], [false, false]), // not antisymmetric
            ("<<", &[(0, 0)][..], [false, false]),         // not irreflexive
        ];
        for (sym, facts, [otimes, odot]) in cases {
            let s = db(sym, facts);
            let (a, b) = if sym == "~" {
                (&specs[0], &specs[1])
            } else {
                (&specs[2], &specs[3])
            };
            assert_eq!(is_data_relation(a, &s), otimes, "{sym} {facts:?} under ⊗");
            assert_eq!(is_data_relation(b, &s), odot, "{sym} {facts:?} under ⊙");
        }
    }

    /// Example 3's member bases: Bell-many partitions, one chain per size,
    /// every one a member.
    #[test]
    fn example3_members_are_complete_and_members() {
        for (class, counts) in [
            (dds_core::DataClass::equivalence(), [1, 2, 5]),
            (dds_core::DataClass::linear_order(), [1, 1, 1]),
        ] {
            let members = example3_members(class.schema(), class.spec(), 3);
            for (n, &count) in counts.iter().enumerate() {
                let of_size = members.iter().filter(|s| s.size() == n + 1).count();
                assert_eq!(of_size, count, "{:?} size {}", class.spec(), n + 1);
            }
            assert!(members.iter().all(|s| is_data_relation(class.spec(), s)));
        }
    }

    /// The harness rejects a scenario whose expectation machinery is fed an
    /// inconsistent system — simulated by checking a witnessed baseline
    /// against a class whose engine cannot reach it. (Constructing a real
    /// soundness bug requires one, so this instead pins the error path by
    /// feeding the counter checker a machine that halts beyond the probe.)
    #[test]
    fn counter_checker_accepts_both_polarities() {
        let halting = dds_reductions::counter::CounterMachine::count_up_down(2);
        let report = check_counter(&halting, 5, &DiffOptions::default()).unwrap();
        assert_eq!(report.outcome, "halts");
        assert!(report.witness_certified);

        let diverging = dds_reductions::counter::CounterMachine::diverges();
        let report = check_counter(&diverging, 5, &DiffOptions::default()).unwrap();
        assert_eq!(report.outcome, "open");
    }

    /// The reported outcome must track the *declared* bound (what a
    /// rendered spec's `bounded-halt` property replays), not the deeper
    /// probe bound: `count_up_down(2)` needs a 3-position line, so a
    /// declared bound of 2 reports `open` even though the machine halts.
    #[test]
    fn counter_outcome_uses_the_declared_bound() {
        let halting = dds_reductions::counter::CounterMachine::count_up_down(2);
        let report = check_counter(&halting, 2, &DiffOptions::default()).unwrap();
        assert_eq!(report.outcome, "open");
    }
}
