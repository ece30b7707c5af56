//! Oracle for the explicit model checker's guard-directed enumeration:
//! [`find_accepting_run`] must return exactly the run — not just the
//! verdict — of the plain checker that tries every new valuation against
//! every guard. The corpus systems are checked over every database up to
//! size 3 (within a budget), the §6 reductions over the databases their
//! bounded searches use.

use dds::prelude::*;
use dds::reductions::counter::CounterMachine;
use dds::reductions::trees_undec::{
    binary_tree, chunk_tree, fact16_system, one_counter_bump, theorem17_system,
};
use dds::reductions::words_succ::{fact15_system, line};
use dds::structure::enumerate::StructureIter;
use dds::structure::structure::tuples_over;
use dds::system::explicit::find_accepting_run;
use dds::system::{Run, StateId};
use dds_cli::load_spec;
use dds_cli::lower::{AnyClass, Task};
use std::collections::HashMap;
use std::path::{Path, PathBuf};

/// The checker before guard-directed enumeration: BFS over `(state, val)`
/// trying all `n^k` new valuations per node and rule.
fn reference_run(system: &System, db: &Structure) -> Option<Run> {
    let k = system.num_registers();
    if db.size() == 0 {
        return None;
    }
    let mut arena: Vec<(StateId, Vec<Element>, Option<usize>)> = Vec::new();
    let mut seen: HashMap<(StateId, Vec<Element>), ()> = HashMap::new();
    let all_vals = tuples_over(&db.elements().collect::<Vec<_>>(), k);
    for &q in system.initial() {
        for val in &all_vals {
            if seen.insert((q, val.clone()), ()).is_none() {
                arena.push((q, val.clone(), None));
            }
        }
    }
    let mut head = 0;
    while head < arena.len() {
        let (state, val) = (arena[head].0, arena[head].1.clone());
        if system.is_accepting(state) {
            let (mut states, mut vals, mut idx) = (Vec::new(), Vec::new(), head);
            loop {
                states.push(arena[idx].0);
                vals.push(arena[idx].1.clone());
                match arena[idx].2 {
                    Some(p) => idx = p,
                    None => break,
                }
            }
            states.reverse();
            vals.reverse();
            return Some(Run { states, vals });
        }
        for rule in system.rules_from(state) {
            for new_val in &all_vals {
                let combined = system.combined_valuation(&val, new_val);
                if dds::logic::eval::eval(&rule.guard, db, &combined).unwrap_or(false)
                    && seen.insert((rule.to, new_val.clone()), ()).is_none()
                {
                    arena.push((rule.to, new_val.clone(), Some(head)));
                }
            }
        }
        head += 1;
    }
    None
}

fn assert_same_run(system: &System, db: &Structure, label: &str) -> bool {
    let run = find_accepting_run(system, db);
    assert_eq!(
        run,
        reference_run(system, db),
        "{label}: runs differ on {db:?}"
    );
    run.is_some()
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

/// Database sizes stop at the first one with more than this many possible
/// tuples (`2^MAX_TUPLES` databases): size 3 for the one- and two-relation
/// graph schemas, smaller for the data and business-process schemas.
const MAX_TUPLES: usize = 12;

/// Every relational reach system of `specs/` and `specs/fuzz/`, over every
/// database of size 1–3 of its schema (see [`MAX_TUPLES`]).
#[test]
fn corpus_runs_match_the_reference() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (mut systems, mut dbs, mut accepted) = (0, 0, 0);
    for dir in [root.join("specs"), root.join("specs/fuzz")] {
        for path in spec_files(&dir) {
            let label = path.display().to_string();
            let lowered = load_spec(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
            if matches!(
                lowered.class,
                AnyClass::Words(_) | AnyClass::Trees(_) | AnyClass::Counter(_)
            ) {
                continue;
            }
            for p in &lowered.properties {
                let Task::Reach(system) = &p.task else {
                    continue;
                };
                systems += 1;
                let schema = system.schema();
                for size in 1usize..=3 {
                    let tuples: usize = schema
                        .relations()
                        .map(|r| size.pow(schema.arity(r) as u32))
                        .sum();
                    if tuples > MAX_TUPLES {
                        break;
                    }
                    for db in StructureIter::new(schema.clone(), size) {
                        dbs += 1;
                        accepted += usize::from(assert_same_run(system, &db, &label));
                    }
                }
            }
        }
    }
    assert!(systems >= 15, "only {systems} relational systems found");
    assert!(accepted > 0 && accepted < dbs);
}

/// Fact 15's counter systems on every line length their bounded search
/// reaches, halting and diverging machines alike.
#[test]
fn counter_line_runs_match_the_reference() {
    let mut machines: Vec<CounterMachine> = (1..=4).map(CounterMachine::count_up_down).collect();
    let mut accepted = 0;
    machines.push(CounterMachine::diverges());
    for (i, m) in machines.iter().enumerate() {
        let system = fact15_system(m);
        for len in 1..=6 {
            accepted += usize::from(assert_same_run(
                &system,
                &line(len),
                &format!("machine {i}, line {len}"),
            ));
        }
    }
    // count_up_down(n) halts on lines of length n + 1 and longer.
    assert_eq!(accepted, 5 + 4 + 3 + 2);
}

/// The Fact 16 and Theorem 17 systems on the trees of their bounded
/// searches, up to the first one that accepts.
#[test]
fn tree_reduction_runs_match_the_reference() {
    let fact16 = fact16_system(&one_counter_bump(2));
    assert!(!assert_same_run(
        &fact16,
        &binary_tree(1),
        "fact 16, height 1"
    ));
    assert!(assert_same_run(
        &fact16,
        &binary_tree(2),
        "fact 16, height 2"
    ));
    // One increment needs two chunks (two needs three, whose reference run
    // alone takes seconds).
    let theorem17 = theorem17_system(&one_counter_bump(1));
    assert!(!assert_same_run(
        &theorem17,
        &chunk_tree(1),
        "theorem 17, 1 chunk"
    ));
    assert!(assert_same_run(
        &theorem17,
        &chunk_tree(2),
        "theorem 17, 2 chunks"
    ));
}
