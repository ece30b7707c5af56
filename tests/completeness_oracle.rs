//! Completeness oracle for the word and tree classes: every step of a real
//! run must be a step of the symbolic search.
//!
//! Theorem 5 needs one thing from a class: an abstraction `α` from a
//! concrete member and a valuation to a configuration, such that every
//! concrete step is an abstract step. This test checks exactly that, with
//! no system at all. For every accepted member of at most six positions
//! (words) or six nodes (trees), every pair of valuations `v`, `w` with
//! `k ≤ 2` registers must satisfy
//!
//! * `α(v) ∈ initial_configs(k)`, and
//! * `α(w) ∈ transitions(α(v), true)`.
//!
//! The abstractions:
//!
//! * words: the register positions plus the first and last position of
//!   every component present in the word (the normal form of
//!   `dds_words::config`);
//! * trees: the closure of the register nodes under `cca`, `ancestormost`
//!   and `descendantmost`, induced as a pattern (`TreePattern::of_run`).
//!
//! Every tree and word automaton of `specs/`, `specs/fuzz/` and
//! `bench/macro/` is covered, each once however many specs share it.
//! `transitions` is memoized per distinct `α(v)`, so each configuration is
//! glued once per `k`.

use dds::core::SymbolicClass;
use dds::logic::Formula;
use dds::trees::baseline::for_each_accepted_run;
use dds::trees::pointers::run_pointers;
use dds::trees::{TreeClass, TreePattern};
use dds::words::baseline::accepting_sequences;
use dds::words::{NfaStateId, WordClass, WordConfig};
use dds_cli::load_spec;
use dds_cli::lower::AnyClass;
use std::collections::{BTreeSet, HashMap, HashSet};
use std::hash::Hash;
use std::path::PathBuf;

/// Largest member (positions or nodes) the oracle enumerates.
const MAX_SIZE: usize = 6;
/// Largest register count the oracle checks.
const MAX_K: usize = 2;

/// Every `k`-tuple over `0..n`.
fn valuations(n: usize, k: usize) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new()];
    for _ in 0..k {
        out = out
            .into_iter()
            .flat_map(|v| {
                (0..n).map(move |x| {
                    let mut next = v.clone();
                    next.push(x);
                    next
                })
            })
            .collect();
    }
    out
}

/// Counts of one class's check, for the failure report.
#[derive(Default)]
struct Tally {
    members: usize,
    pairs: usize,
    missing_initial: usize,
    missing_steps: usize,
}

/// Checks one member: `alpha` maps a valuation to its configuration.
fn check_member<C: SymbolicClass>(
    class: &C,
    k: usize,
    size: usize,
    alpha: impl Fn(&[usize]) -> C::Config,
    initial: &HashSet<C::Config>,
    memo: &mut HashMap<C::Config, HashSet<C::Config>>,
    tally: &mut Tally,
) where
    C::Config: Hash + Eq + Clone,
{
    tally.members += 1;
    let abstracted: Vec<C::Config> = valuations(size, k).iter().map(|v| alpha(v)).collect();
    for from in &abstracted {
        if !initial.contains(from) {
            tally.missing_initial += 1;
        }
        let next = memo.entry(from.clone()).or_insert_with(|| {
            class
                .transitions(from, &Formula::True)
                .into_iter()
                .collect()
        });
        for to in &abstracted {
            tally.pairs += 1;
            if !next.contains(to) {
                tally.missing_steps += 1;
            }
        }
    }
}

/// `α` for words: the register positions plus the first and last position
/// of every component present, as a configuration.
fn word_alpha(class: &WordClass, seq: &[NfaStateId], v: &[usize]) -> WordConfig {
    let nfa = class.nfa();
    let mut keep: BTreeSet<usize> = v.iter().copied().collect();
    for c in 0..nfa.num_components() {
        let mut at = (0..seq.len()).filter(|&i| nfa.component(seq[i]) == c);
        if let Some(first) = at.next() {
            keep.insert(first);
            keep.insert(at.next_back().unwrap_or(first));
        }
    }
    let order: Vec<usize> = keep.into_iter().collect();
    WordConfig {
        states: order.iter().map(|&i| seq[i]).collect(),
        points: v
            .iter()
            .map(|x| order.iter().position(|i| i == x).unwrap() as u32)
            .collect(),
    }
}

fn check_trees(class: &TreeClass, k: usize) -> Tally {
    let initial: HashSet<TreePattern> = class.initial_configs(k).into_iter().collect();
    let mut memo = HashMap::new();
    let mut tally = Tally::default();
    for_each_accepted_run(class.automaton(), MAX_SIZE, |t, states| {
        let ptr = run_pointers(class.automaton(), t, states);
        let alpha = |v: &[usize]| TreePattern::of_run(t, states, &ptr, v);
        check_member(class, k, t.len(), alpha, &initial, &mut memo, &mut tally);
        true
    });
    tally
}

fn check_words(class: &WordClass, k: usize) -> Tally {
    let initial: HashSet<WordConfig> = class.initial_configs(k).into_iter().collect();
    let mut memo = HashMap::new();
    let mut tally = Tally::default();
    for seq in accepting_sequences(class, MAX_SIZE) {
        let alpha = |v: &[usize]| word_alpha(class, &seq, v);
        check_member(class, k, seq.len(), alpha, &initial, &mut memo, &mut tally);
    }
    tally
}

#[test]
fn corpus_steps_are_symbolic_steps() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let mut failures = Vec::new();
    let (mut trees, mut words) = (0, 0);
    let mut checked = HashSet::new();
    for dir in ["specs", "specs/fuzz", "bench/macro"] {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|x| x == "dds"))
            .collect();
        paths.sort();
        for path in paths {
            let label = format!("{dir}/{}", path.file_name().unwrap().to_string_lossy());
            let lowered = load_spec(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
            // Specs that share an automaton share the check.
            let automaton = match &lowered.class {
                AnyClass::Trees(c) => format!("{:?}", c.automaton()),
                AnyClass::Words(c) => format!("{:?}", c.nfa()),
                _ => continue,
            };
            match &lowered.class {
                AnyClass::Trees(_) => trees += 1,
                _ => words += 1,
            }
            if !checked.insert(automaton) {
                continue;
            }
            for k in 1..=MAX_K {
                let tally = match &lowered.class {
                    AnyClass::Trees(c) => check_trees(c, k),
                    AnyClass::Words(c) => check_words(c, k),
                    _ => unreachable!("filtered above"),
                };
                assert!(tally.members > 0, "{label}: no accepted member");
                if tally.missing_initial + tally.missing_steps > 0 {
                    failures.push(format!(
                        "{label} k={k}: {} of {} steps missing, {} valuations outside \
                         initial_configs ({} members)",
                        tally.missing_steps, tally.pairs, tally.missing_initial, tally.members
                    ));
                }
            }
        }
    }
    assert!(trees >= 9, "only {trees} tree specs");
    assert!(words >= 10, "only {words} word specs");
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
