//! Oracle for the initial configurations: every class builds them as the
//! successors, under the guard `true`, of its 0-point configurations. The
//! references below are the direct enumerators that did so before — every
//! `k`-pointed member generated by its points — and the two must give the
//! same set for every `k` up to each spec's register count, over `specs/`,
//! `specs/fuzz/` and `bench/macro/`. For words, where configurations are
//! canonical by construction, the order must match too.
//!
//! None of those specs has a nullary relation, so three hand-built classes
//! add them: a free schema, a `HOM` template that holds a nullary fact, and
//! a data product over that template.

use dds::core::amalgam::{point_patterns, project_structure, AmalgamClass, Family};
use dds::core::data::DataKind;
use dds::core::{Pointed, RelConfig};
use dds::prelude::*;
use dds::structure::enumerate::StructureIter;
use dds::structure::structure::tuples_over;
use dds::words::config::{allowed_in_gap, component_span};
use dds::words::{NfaStateId, WordConfig};
use dds_cli::load_spec;
use dds_cli::lower::{AnyClass, Task};
use std::collections::{BTreeSet, HashSet};
use std::ops::ControlFlow;
use std::path::{Path, PathBuf};

/// The direct enumeration of every `k`-pointed member generated by its
/// points (duplicates allowed), over the class's internal schema.
trait Reference: AmalgamClass {
    fn pointed_members(&self, k: usize) -> Vec<Pointed>;
}

/// The points of a pattern (which registers share a value) and its size.
fn pattern_points(pattern: &[usize]) -> (Vec<Element>, usize) {
    let m = pattern.iter().copied().max().map_or(0, |x| x + 1);
    (pattern.iter().map(|&c| Element::from_index(c)).collect(), m)
}

impl Reference for FreeRelationalClass {
    fn pointed_members(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        for pattern in point_patterns(k) {
            let (points, m) = pattern_points(&pattern);
            for s in StructureIter::new(self.internal_schema().clone(), m) {
                out.push(Pointed::new(s, points.clone()));
            }
        }
        out
    }
}

impl Reference for HomClass {
    fn pointed_members(&self, k: usize) -> Vec<Pointed> {
        let internal = self.internal_schema();
        let public = self.public_schema();
        let template = self.template();
        let nh = template.size();
        let mut out = Vec::new();
        if nh == 0 {
            return out;
        }
        let color_syms: Vec<_> = (0..nh)
            .map(|h| internal.lookup(&format!("__col{h}")).unwrap())
            .collect();
        let palette: Vec<Element> = (0..nh).map(Element::from_index).collect();
        for pattern in point_patterns(k) {
            let (points, m) = pattern_points(&pattern);
            let elems: Vec<Element> = (0..m).map(Element::from_index).collect();
            for colors in tuples_over(&palette, m) {
                let mut base = Structure::new(internal.clone(), m);
                for (e, h) in elems.iter().zip(&colors) {
                    base.add_fact(color_syms[h.index()], &[*e]).unwrap();
                }
                let mut optional = Vec::new();
                for r in public.relations() {
                    let r = internal.lookup(public.name(r)).unwrap();
                    for t in tuples_over(&elems, internal.arity(r)) {
                        let image: Vec<Element> = t.iter().map(|e| colors[e.index()]).collect();
                        if template.holds(r, &image) {
                            optional.push((r, t));
                        }
                    }
                }
                let mut family = Family {
                    cand: &mut base,
                    new_points: &points,
                    optional: &optional,
                };
                let _ = family.for_each(|s, _| {
                    out.push(Pointed::new(s.clone(), points.clone()));
                    ControlFlow::Continue(())
                });
            }
        }
        out
    }
}

/// Every data assignment of `m` elements: block ids for `=`, ranks for
/// `<`, pairwise distinct under `⊙`.
fn assignments(spec: &DataSpec, m: usize) -> Vec<Vec<usize>> {
    let values: Vec<Element> = (0..m).map(Element::from_index).collect();
    let all = tuples_over(&values, m)
        .into_iter()
        .map(|t| t.iter().map(|e| e.index()).collect::<Vec<usize>>());
    let distinct = |v: &Vec<usize>| v.iter().collect::<BTreeSet<_>>().len() == v.len();
    match (spec.kind, spec.injective) {
        (DataKind::Equality, false) => point_patterns(m),
        (DataKind::Equality, true) => vec![(0..m).collect()],
        // Weak orders: the ranks used are exactly `0..=max`.
        (DataKind::Order, false) => all
            .filter(|v| {
                let used: BTreeSet<usize> = v.iter().copied().collect();
                used.len() == v.iter().max().map_or(0, |x| x + 1)
            })
            .collect(),
        (DataKind::Order, true) => all.filter(distinct).collect(),
    }
}

impl<C: Reference> Reference for DataClass<C> {
    fn pointed_members(&self, k: usize) -> Vec<Pointed> {
        let internal = self.internal_schema();
        let sym = internal.lookup(&self.spec().symbol).unwrap();
        let mut out = Vec::new();
        for p in self.inner().pointed_members(k) {
            for classes in assignments(self.spec(), p.structure.size()) {
                let mut s = project_structure(&p.structure, internal);
                for (i, ci) in classes.iter().enumerate() {
                    for (j, cj) in classes.iter().enumerate() {
                        let keep = match self.spec().kind {
                            DataKind::Equality => ci == cj,
                            DataKind::Order => ci < cj,
                        };
                        if keep {
                            s.add_fact(sym, &[Element::from_index(i), Element::from_index(j)])
                                .unwrap();
                        }
                    }
                }
                out.push(Pointed::new(s, p.points.clone()));
            }
        }
        out
    }
}

/// Asserts that `initial_configs(k)` has no repeats and equals the
/// reference as a set of configurations; returns its size.
fn check_relational<C: Reference>(class: &C, k: usize, label: &str) -> usize {
    let got = class.initial_configs(k);
    let got_set: HashSet<&RelConfig> = got.iter().collect();
    assert_eq!(
        got_set.len(),
        got.len(),
        "{label}: repeated configurations at k={k}"
    );
    let want: Vec<RelConfig> = class
        .pointed_members(k)
        .iter()
        .map(|p| RelConfig::generated_by(&p.structure, &p.points))
        .collect();
    let want: HashSet<&RelConfig> = want.iter().collect();
    assert!(got_set == want, "{label}: initial sets differ at k={k}");
    got.len()
}

/// The word configurations as enumerated directly: every state sequence of
/// at most `k + 2·#components` positions, each covered point tuple, in
/// depth-first order (which is `(states, points)` order), without repeats.
fn reference_word_configs(nfa: &Nfa, k: usize) -> Vec<WordConfig> {
    /// Positions neither the first nor the latest occurrence of their
    /// component: only register values can justify them.
    fn forced(nfa: &Nfa, seq: &[NfaStateId]) -> Vec<u32> {
        let span = component_span(nfa, seq);
        (0..seq.len())
            .filter(|&i| {
                let (first, last) = span[nfa.component(seq[i])].unwrap();
                first != i && last != i
            })
            .map(|i| i as u32)
            .collect()
    }
    fn finish(nfa: &Nfa, k: usize, seq: &[NfaStateId], out: &mut Vec<WordConfig>) {
        let must = forced(nfa, seq);
        let span = component_span(nfa, seq);
        let realizable = (0..seq.len() - 1)
            .all(|a| nfa.reach_avoiding(seq[a], seq[a + 1], &|s| allowed_in_gap(nfa, &span, a, s)));
        if must.len() > k || !realizable {
            return;
        }
        let positions: Vec<Element> = (0..seq.len()).map(Element::from_index).collect();
        for points in tuples_over(&positions, k) {
            let points: Vec<u32> = points.iter().map(|e| e.index() as u32).collect();
            if must.iter().all(|p| points.contains(p)) {
                out.push(WordConfig {
                    states: seq.to_vec(),
                    points,
                });
            }
        }
    }
    fn dfs(
        nfa: &Nfa,
        k: usize,
        max_len: usize,
        seq: &mut Vec<NfaStateId>,
        out: &mut Vec<WordConfig>,
    ) {
        if seq.last().is_some_and(|&q| nfa.is_accepting(q)) {
            finish(nfa, k, seq, out);
        }
        if seq.len() == max_len {
            return;
        }
        for q in nfa.states() {
            let follows = match seq.last() {
                None => nfa.is_entry(q),
                Some(&prev) => nfa.reach_avoiding(prev, q, &|_| true),
            };
            if follows {
                seq.push(q);
                if forced(nfa, seq).len() <= k {
                    dfs(nfa, k, max_len, seq, out);
                }
                seq.pop();
            }
        }
    }
    let mut out = Vec::new();
    dfs(
        nfa,
        k,
        k + 2 * nfa.num_components(),
        &mut Vec::new(),
        &mut out,
    );
    let mut seen = std::collections::HashSet::new();
    out.retain(|c| seen.insert(c.clone()));
    out
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

#[test]
fn corpus_initial_configurations_match_the_reference() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    let (mut relational, mut words) = (0, 0);
    for dir in ["specs", "specs/fuzz", "bench/macro"] {
        for path in spec_files(&root.join(dir)) {
            let label = path.display().to_string();
            let lowered = load_spec(&std::fs::read_to_string(&path).unwrap())
                .unwrap_or_else(|e| panic!("{}", e.with_path(&label)));
            let Some(registers) = lowered
                .properties
                .iter()
                .filter_map(|p| match &p.task {
                    Task::Reach(system) => Some(system.num_registers()),
                    _ => None,
                })
                .max()
            else {
                continue;
            };
            for k in 0..=registers {
                match &lowered.class {
                    AnyClass::Free(c) => check_relational(c, k, &label),
                    AnyClass::Hom(c) => check_relational(c, k, &label),
                    AnyClass::Order(c) | AnyClass::Equiv(c) | AnyClass::DataFree(c) => {
                        check_relational(c, k, &label)
                    }
                    AnyClass::DataHom(c) => check_relational(c, k, &label),
                    AnyClass::DataOrder(c) | AnyClass::DataEquiv(c) => {
                        check_relational(c, k, &label)
                    }
                    AnyClass::Words(c) => {
                        assert_eq!(
                            c.initial_configs(k),
                            reference_word_configs(c.nfa(), k),
                            "{label}: word initial configurations differ at k={k}"
                        );
                        0
                    }
                    AnyClass::Trees(_) | AnyClass::Counter(_) => break,
                };
            }
            match &lowered.class {
                AnyClass::Words(_) => words += 1,
                AnyClass::Trees(_) | AnyClass::Counter(_) => {}
                _ => relational += 1,
            }
        }
    }
    assert!(relational >= 20, "only {relational} relational specs");
    assert!(words >= 3, "only {words} word specs");
}

/// `{P/0, Q/0, E/2}`.
fn nullary_schema() -> std::sync::Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("P", 0).unwrap();
    s.add_relation("Q", 0).unwrap();
    s.add_relation("E", 2).unwrap();
    s.finish()
}

/// A 2-clique that holds `P()` but not `Q()`.
fn nullary_template() -> HomClass {
    let schema = nullary_schema();
    let (p, e) = (schema.lookup("P").unwrap(), schema.lookup("E").unwrap());
    let mut h = Structure::new(schema, 2);
    h.add_fact(p, &[]).unwrap();
    h.add_fact(e, &[Element(0), Element(1)]).unwrap();
    h.add_fact(e, &[Element(1), Element(0)]).unwrap();
    HomClass::new(h)
}

#[test]
fn nullary_classes_match_the_reference() {
    let free = FreeRelationalClass::new(nullary_schema());
    // Each of the four sets of nullary facts over each graph on the points.
    assert_eq!(check_relational(&free, 0, "free"), 4);
    assert_eq!(check_relational(&free, 1, "free"), 4 * 2);
    assert_eq!(check_relational(&free, 2, "free"), 4 * (2 + 16));
    check_relational(&free, 3, "free");

    let hom = nullary_template();
    // `P()` or not; `Q()` never.
    assert_eq!(check_relational(&hom, 0, "hom"), 2);
    assert_eq!(check_relational(&hom, 1, "hom"), 2 * 2);
    for k in 2..=3 {
        check_relational(&hom, k, "hom");
    }

    for spec in [DataSpec::nat_eq(), DataSpec::rational_order_injective()] {
        let data = DataClass::new(nullary_template(), spec);
        for k in 0..=2 {
            check_relational(&data, k, "data over hom");
        }
    }
}
