//! Corpus-wide certification: every `specs/**/*.dds` reachability property,
//! and the six thin chains of `bench/macro/` whose traces are the longest,
//! must behave identically with and without certification, and every
//! non-empty outcome must produce a certified witness that replays.
//!
//! This complements `tests/cli_golden.rs` (which pins rendered outputs) by
//! checking the *semantics* of certification across the whole corpus:
//!
//! * certify vs `--no-certify` agree on the outcome and on every
//!   deterministic statistic (`EngineStats` equality excludes timings);
//! * a certified witness database + run passes the explicit model checker
//!   ([`System::check_run`]) against the accepting condition;
//! * the witness database is a member of the class, where a membership
//!   predicate exists (free — trivially, `HOM(H)`, equivalence relations,
//!   linear orders, data products over those three).

use dds::core::{Engine, EngineOptions, Outcome, SymbolicClass};
use dds_cli::load_spec;
use dds_cli::lower::{AnyClass, Task};
use dds_gen::diff::is_data_relation;
use std::fs;
use std::path::{Path, PathBuf};

fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("{}: {e}", dir.display()))
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "dds"))
        .collect();
    out.sort();
    assert!(!out.is_empty(), "no .dds files in {}", dir.display());
    out
}

/// Outcome + witness of one engine run, class-erased.
struct RunResult {
    kind: &'static str,
    stats: dds::core::EngineStats,
    witness: Option<(dds::structure::Structure, dds::system::Run)>,
    /// Whether the witness (if any) is a member of the class, when a
    /// membership predicate exists (`None` = no predicate for this class).
    member: Option<bool>,
}

fn run_one<C: SymbolicClass>(
    class: &C,
    system: &dds::system::System,
    concretize: bool,
    member: impl Fn(&dds::structure::Structure) -> Option<bool>,
) -> RunResult {
    let outcome = Engine::new(class, system)
        .with_options(EngineOptions::default().concretize(concretize))
        .run();
    let stats = *outcome.stats();
    let kind = outcome.keyword();
    let witness = match outcome {
        Outcome::NonEmpty { witness, .. } => witness,
        _ => None,
    };
    let member = witness.as_ref().and_then(|(db, _)| member(db));
    RunResult {
        kind,
        stats,
        witness,
        member,
    }
}

/// Dispatches a reach property over the lowered class, returning
/// `(certified run, bare run, tolerate_missing_witness)`.
fn dispatch(class: &AnyClass, system: &dds::system::System) -> (RunResult, RunResult, bool) {
    macro_rules! go {
        ($c:expr, $member:expr, $tolerate:expr) => {{
            let c = $c;
            (
                run_one(c, system, true, $member),
                run_one(c, system, false, $member),
                $tolerate,
            )
        }};
    }
    match class {
        AnyClass::Free(c) => go!(c, |_| Some(true), false),
        AnyClass::Hom(c) => go!(c, |db| Some(c.maps_into_template(db)), false),
        AnyClass::Order(c) | AnyClass::Equiv(c) => {
            go!(c, |db| Some(is_data_relation(c.spec(), db)), false)
        }
        AnyClass::Words(c) => go!(c, |_| None, false),
        // Tree concretization is best-effort (bounded by the certify node
        // budget), so a missing witness is tolerated — but a present one
        // must still replay.
        AnyClass::Trees(c) => go!(c, |_| None, true),
        AnyClass::DataFree(c) => go!(c, |db| Some(is_data_relation(c.spec(), db)), false),
        AnyClass::DataHom(c) => go!(c, |_| None, false),
        AnyClass::DataOrder(c) | AnyClass::DataEquiv(c) => go!(
            c,
            |db| Some(is_data_relation(c.spec(), db) && is_data_relation(c.inner().spec(), db)),
            false
        ),
        AnyClass::Counter(_) => unreachable!("reach properties never lower over counter machines"),
    }
}

/// Runs every reach property of the spec at `path` with and without
/// certification and checks the two agree, that the certified witness (if
/// any) replays and is a class member. Returns `(reach properties,
/// certified witnesses)`.
fn check_spec(root: &Path, path: &Path) -> (usize, usize) {
    let label = path
        .strip_prefix(root)
        .unwrap()
        .to_string_lossy()
        .into_owned();
    let src = fs::read_to_string(path).unwrap();
    let lowered = load_spec(&src).unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
    let (mut reach_properties, mut witnesses) = (0, 0);
    for p in &lowered.properties {
        let Task::Reach(system) = &p.task else {
            continue;
        };
        reach_properties += 1;
        let (certified, bare, tolerate_missing) = dispatch(&lowered.class, system);
        assert_eq!(
            certified.kind, bare.kind,
            "{label}::{}: outcome differs with certification off",
            p.name
        );
        assert_eq!(
            certified.stats, bare.stats,
            "{label}::{}: deterministic stats differ with certification off",
            p.name
        );
        assert!(
            bare.witness.is_none(),
            "{label}::{}: no-certify run produced a witness",
            p.name
        );
        if certified.kind == "nonempty" {
            match &certified.witness {
                None => assert!(
                    tolerate_missing,
                    "{label}::{}: nonempty outcome without a certified witness",
                    p.name
                ),
                Some((db, run)) => {
                    witnesses += 1;
                    system.check_run(db, run, true).unwrap_or_else(|e| {
                        panic!(
                            "{label}::{}: certified witness does not replay: {e:?}",
                            p.name
                        )
                    });
                    if let Some(member) = certified.member {
                        assert!(
                            member,
                            "{label}::{}: witness database is not a class member",
                            p.name
                        );
                    }
                }
            }
        }
    }
    (reach_properties, witnesses)
}

#[test]
fn corpus_certification_agrees_and_witnesses_replay() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut dirs = vec![root.join("specs")];
    let fuzz_dir = root.join("specs/fuzz");
    assert!(
        fuzz_dir.is_dir(),
        "specs/fuzz corpus directory is missing — it is pinned, so restore \
         it from version control rather than regenerating it \
         (see docs/SPEC_LANGUAGE.md)"
    );
    dirs.push(fuzz_dir);

    let mut reach_properties = 0usize;
    let mut witnesses = 0usize;
    for dir in dirs {
        for path in spec_files(&dir) {
            let (reach, certified) = check_spec(&root, &path);
            reach_properties += reach;
            witnesses += certified;
        }
    }
    // The corpus genuinely exercises this test.
    assert!(
        reach_properties >= 20,
        "only {reach_properties} reach properties found — corpus shrank?"
    );
    assert!(
        witnesses >= 10,
        "only {witnesses} certified witnesses found — corpus shrank?"
    );
}

/// The long traces: the six thin `nonempty` chains of `bench/macro/`
/// (the `witness-certify` benchmark workload) certify, agree with their
/// uncertified runs, and their witnesses replay and are class members.
#[test]
fn macro_chain_witnesses_certify() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    for id in [
        "data_order_deep",
        "order_deep",
        "hom_chain_k5",
        "chain_free_thin",
        "chain_free_deep",
        "equiv_deep",
    ] {
        let path = root.join("bench/macro").join(format!("{id}.dds"));
        assert_eq!(check_spec(&root, &path), (1, 1), "{id}");
    }
}
