//! Lowering: [`Spec`] → engine inputs.
//!
//! The invariant this module maintains (and `tests/cli_cross_validation.rs`
//! enforces): lowering a spec produces **the same** [`System`] values —
//! state names, register names, rule order, guard formulas — that the
//! programmatic [`dds_system::SystemBuilder`] calls it mirrors would
//! produce, so engine outcomes and statistics are bit-for-bit identical.

use crate::ast::*;
use crate::SpecError;
use dds_core::{DataClass, DataSpec, FreeRelationalClass, HomClass};
use dds_reductions::counter::{CounterMachine, Instr};
use dds_structure::{Element, Schema, Structure, SymbolKind};
use dds_system::{System, SystemBuilder};
use dds_trees::tree::Tree;
use dds_trees::{TreeAutomaton, TreeClass};
use dds_words::{Nfa, WordClass};
use std::collections::HashMap;
use std::sync::Arc;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T, SpecError> {
    Err(SpecError {
        line: Some(line),
        msg: msg.into(),
    })
}

/// The structure class a spec verifies over; defined next to the generator
/// that builds the same values, so lowering and `dds fuzz` share one type.
pub use dds_gen::AnyClass;

/// What one property asks the runner to execute.
#[derive(Clone, Debug)]
pub enum Task {
    /// Theorem 5 emptiness of the accepting states.
    Reach(System),
    /// Fact 2 existential elimination only.
    Elim(System),
    /// Lemma 14 pointer-closure blowup on a concrete tree + run.
    Blowup {
        /// The tree.
        tree: Tree,
        /// The (unique) automaton run on it.
        states: Vec<u32>,
        /// Nodes whose pointer closure is measured.
        targets: Vec<usize>,
    },
    /// Fact 15 bounded halting search.
    BoundedHalt {
        /// Maximum word length to try.
        bound: usize,
    },
}

/// A lowered property: name, expectation, and the task to run.
#[derive(Clone, Debug)]
pub struct LoweredProperty {
    /// Property name (`<system>::<name>` is the report id).
    pub name: String,
    /// Expected outcome string, when declared.
    pub expect: Option<String>,
    /// The task.
    pub task: Task,
}

/// A fully lowered spec, ready to run.
#[derive(Debug)]
pub struct Lowered {
    /// System name.
    pub name: String,
    /// The class.
    pub class: AnyClass,
    /// Properties in declaration order.
    pub properties: Vec<LoweredProperty>,
    /// Header facts for reports: states/rules/registers of the spec.
    pub shape: String,
}

/// Lowers a parsed spec.
pub fn lower(spec: &Spec) -> Result<Lowered, SpecError> {
    check_duplicates(spec)?;
    let base_schema = lower_schema(spec)?;
    let class = lower_class(&spec.class, base_schema)?;
    let mut properties = Vec::with_capacity(spec.properties.len());
    for p in &spec.properties {
        properties.push(lower_property(spec, &class, p)?);
    }
    let shape = match &class {
        AnyClass::Counter(_) => String::new(),
        _ => format!(
            "; {} states, {} rules, {} registers",
            spec.states.len(),
            spec.rules.len(),
            spec.registers.len()
        ),
    };
    Ok(Lowered {
        name: spec.name.clone(),
        class,
        properties,
        shape,
    })
}

fn check_duplicates(spec: &Spec) -> Result<(), SpecError> {
    for (i, s) in spec.states.iter().enumerate() {
        if spec.states[..i].iter().any(|t| t.name == s.name) {
            return err(s.line, format!("duplicate state `{}`", s.name));
        }
    }
    for (i, r) in spec.registers.iter().enumerate() {
        if spec.registers[..i].contains(r) {
            return err(spec.registers_line, format!("duplicate register `{r}`"));
        }
    }
    for (i, p) in spec.properties.iter().enumerate() {
        if spec.properties[..i].iter().any(|q| q.name == p.name) {
            return err(p.line, format!("duplicate property `{}`", p.name));
        }
    }
    Ok(())
}

/// Builds the declared schema, when the class calls for one.
fn lower_schema(spec: &Spec) -> Result<Option<Arc<Schema>>, SpecError> {
    match (&spec.schema, spec.class.wants_schema()) {
        (Some(decls), true) => {
            let mut sc = Schema::new();
            for d in decls {
                let res = if d.function {
                    sc.add_function(&d.name, d.arity)
                } else {
                    sc.add_relation(&d.name, d.arity)
                };
                if res.is_err() {
                    return err(d.line, format!("duplicate schema symbol `{}`", d.name));
                }
            }
            Ok(Some(sc.finish()))
        }
        (None, true) => err(
            1,
            format!(
                "class `{}` requires a `schema {{ .. }}` block",
                spec.class.keyword()
            ),
        ),
        (Some(_), false) => err(
            1,
            format!(
                "class `{}` defines its own schema; remove the `schema {{ .. }}` block",
                spec.class.keyword()
            ),
        ),
        (None, false) => Ok(None),
    }
}

fn lower_class(decl: &ClassDecl, schema: Option<Arc<Schema>>) -> Result<AnyClass, SpecError> {
    match decl {
        ClassDecl::Free => {
            let schema = schema.expect("checked by lower_schema");
            if !schema.is_relational() {
                return err(
                    1,
                    "class `free` requires a purely relational schema (no `function` symbols)",
                );
            }
            Ok(AnyClass::Free(FreeRelationalClass::new(schema)))
        }
        ClassDecl::Hom { elements, facts } => {
            let schema = schema.expect("checked by lower_schema");
            if !schema.is_relational() {
                return err(
                    1,
                    "class `hom` requires a purely relational schema (no `function` symbols)",
                );
            }
            let template = build_template(&schema, elements, facts)?;
            Ok(AnyClass::Hom(HomClass::new(template)))
        }
        ClassDecl::LinearOrder => Ok(AnyClass::Order(DataClass::linear_order())),
        ClassDecl::Equivalence => Ok(AnyClass::Equiv(DataClass::equivalence())),
        ClassDecl::Words { .. } => Ok(AnyClass::Words(build_words(decl)?)),
        ClassDecl::Trees { .. } => Ok(AnyClass::Trees(build_trees(decl)?)),
        ClassDecl::Data { values, inner } => {
            let data_spec = match values {
                DataValues::NatEq => DataSpec::nat_eq(),
                DataValues::NatEqInjective => DataSpec::nat_eq_injective(),
                DataValues::RationalOrder => DataSpec::rational_order(),
                DataValues::RationalOrderInjective => DataSpec::rational_order_injective(),
            };
            let inner = lower_class(inner, schema)?;
            // Check the *inner class's* schema, not just a declared one:
            // the fixed-schema classes clash too (`values nat-eq` compares
            // with `~`, which `over equivalence` already claims).
            if let Some(s) = inner.schema() {
                if s.lookup(&data_spec.symbol).is_ok() {
                    return err(
                        1,
                        format!(
                            "schema symbol `{}` clashes with the data-value relation",
                            data_spec.symbol
                        ),
                    );
                }
            }
            Ok(match inner {
                AnyClass::Free(c) => AnyClass::DataFree(DataClass::new(c, data_spec)),
                AnyClass::Hom(c) => AnyClass::DataHom(DataClass::new(c, data_spec)),
                AnyClass::Order(c) => AnyClass::DataOrder(DataClass::new(c, data_spec)),
                AnyClass::Equiv(c) => AnyClass::DataEquiv(DataClass::new(c, data_spec)),
                _ => unreachable!("parser restricts inner classes"),
            })
        }
        ClassDecl::Counter { program } => Ok(AnyClass::Counter(build_counter(program)?)),
    }
}

fn build_template(
    schema: &Arc<Schema>,
    elements: &[NameRef],
    facts: &[FactDecl],
) -> Result<Structure, SpecError> {
    let index: HashMap<&str, u32> = elements
        .iter()
        .enumerate()
        .map(|(i, (e, _))| (e.as_str(), i as u32))
        .collect();
    for (i, (e, line)) in elements.iter().enumerate() {
        if elements[..i].iter().any(|(o, _)| o == e) {
            return err(*line, format!("duplicate template element `{e}`"));
        }
    }
    let mut h = Structure::new(schema.clone(), elements.len());
    for f in facts {
        let Ok(rel) = schema.lookup(&f.relation) else {
            return err(f.line, format!("unknown relation `{}` in fact", f.relation));
        };
        if schema.kind(rel) != SymbolKind::Relation {
            return err(f.line, format!("`{}` is not a relation", f.relation));
        }
        if schema.arity(rel) != f.args.len() {
            return err(
                f.line,
                format!(
                    "relation `{}` has arity {}, fact has {} arguments",
                    f.relation,
                    schema.arity(rel),
                    f.args.len()
                ),
            );
        }
        let mut tuple = Vec::with_capacity(f.args.len());
        for a in &f.args {
            let Some(&e) = index.get(a.as_str()) else {
                return err(f.line, format!("unknown template element `{a}` in fact"));
            };
            tuple.push(Element(e));
        }
        h.add_fact(rel, &tuple)
            .expect("arity and domain checked above");
    }
    Ok(h)
}

fn build_words(decl: &ClassDecl) -> Result<WordClass, SpecError> {
    let ClassDecl::Words {
        letters,
        states,
        edges,
        entry,
        accepting,
    } = decl
    else {
        unreachable!()
    };
    let letter_idx: HashMap<&str, usize> = letters
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let state_idx: HashMap<&str, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.state.as_str(), i as u32))
        .collect();
    for (i, d) in states.iter().enumerate() {
        if states[..i].iter().any(|o| o.state == d.state) {
            return err(d.line, format!("duplicate NFA state `{}`", d.state));
        }
    }
    let mut state_letter = Vec::with_capacity(states.len());
    for s in states {
        let Some(&l) = letter_idx.get(s.reads.as_str()) else {
            return err(
                s.line,
                format!("state `{}` reads unknown letter `{}`", s.state, s.reads),
            );
        };
        state_letter.push(l);
    }
    let resolve = |name: &str, line: usize| -> Result<u32, SpecError> {
        state_idx.get(name).copied().ok_or_else(|| SpecError {
            line: Some(line),
            msg: format!("unknown NFA state `{name}`"),
        })
    };
    let mut e = Vec::with_capacity(edges.len());
    for (p, q, line) in edges {
        e.push((resolve(p, *line)?, resolve(q, *line)?));
    }
    let entry = entry
        .iter()
        .map(|(s, line)| resolve(s, *line))
        .collect::<Result<Vec<_>, _>>()?;
    let accepting = accepting
        .iter()
        .map(|(s, line)| resolve(s, *line))
        .collect::<Result<Vec<_>, _>>()?;
    match Nfa::new(letters.clone(), state_letter, e, entry, accepting) {
        Some(nfa) => Ok(WordClass::new(nfa)),
        None => err(
            1,
            "the word language is empty (no state lies on an accepting run)",
        ),
    }
}

fn build_trees(decl: &ClassDecl) -> Result<TreeClass, SpecError> {
    let ClassDecl::Trees {
        labels,
        states,
        leaf,
        root,
        rightmost,
        first_child,
        next_sibling,
    } = decl
    else {
        unreachable!()
    };
    let label_idx: HashMap<&str, usize> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (l.as_str(), i))
        .collect();
    let state_idx: HashMap<&str, u32> = states
        .iter()
        .enumerate()
        .map(|(i, s)| (s.state.as_str(), i as u32))
        .collect();
    for (i, d) in states.iter().enumerate() {
        if states[..i].iter().any(|o| o.state == d.state) {
            return err(
                d.line,
                format!("duplicate tree-automaton state `{}`", d.state),
            );
        }
    }
    let mut state_label = Vec::with_capacity(states.len());
    for s in states {
        let Some(&l) = label_idx.get(s.reads.as_str()) else {
            return err(
                s.line,
                format!("state `{}` reads unknown label `{}`", s.state, s.reads),
            );
        };
        state_label.push(l);
    }
    let resolve = |name: &str, line: usize| -> Result<u32, SpecError> {
        state_idx.get(name).copied().ok_or_else(|| SpecError {
            line: Some(line),
            msg: format!("unknown tree-automaton state `{name}`"),
        })
    };
    let set = |names: &[NameRef]| -> Result<Vec<u32>, SpecError> {
        names.iter().map(|(s, line)| resolve(s, *line)).collect()
    };
    let pairs = |ps: &[PairRef]| -> Result<Vec<(u32, u32)>, SpecError> {
        ps.iter()
            .map(|(p, q, line)| Ok((resolve(p, *line)?, resolve(q, *line)?)))
            .collect()
    };
    Ok(TreeClass::new(TreeAutomaton::new(
        labels.clone(),
        state_label,
        set(leaf)?,
        set(root)?,
        set(rightmost)?,
        pairs(first_child)?,
        pairs(next_sibling)?,
    )))
}

fn build_counter(program: &[(InstrDecl, usize)]) -> Result<CounterMachine, SpecError> {
    let n = program.len();
    let check = |loc: usize, line: usize| -> Result<usize, SpecError> {
        if loc < n {
            Ok(loc)
        } else {
            err(
                line,
                format!("program location {loc} out of range (program has {n} instructions)"),
            )
        }
    };
    let mut out = Vec::with_capacity(n);
    for (i, line) in program {
        out.push(match *i {
            InstrDecl::Inc { counter, next } => Instr::Inc {
                c: counter,
                next: check(next, *line)?,
            },
            InstrDecl::JzDec {
                counter,
                if_zero,
                if_pos,
            } => Instr::JzDec {
                c: counter,
                if_zero: check(if_zero, *line)?,
                if_pos: check(if_pos, *line)?,
            },
            InstrDecl::Halt => Instr::Halt,
        });
    }
    Ok(CounterMachine { program: out })
}

fn lower_property(
    spec: &Spec,
    class: &AnyClass,
    p: &PropertyDecl,
) -> Result<LoweredProperty, SpecError> {
    let task = match &p.kind {
        PropertyKind::Reach { accept } => Task::Reach(build_system(spec, class, accept, p.line)?),
        PropertyKind::Elim { accept } => Task::Elim(build_system(spec, class, accept, p.line)?),
        PropertyKind::Blowup { tree, targets } => {
            let AnyClass::Trees(tc) = class else {
                return err(p.line, "`kind blowup` requires `class trees`");
            };
            let (tree, states) = parse_tree_term(tc, tree, p.line)?;
            for &t in targets {
                if t >= tree.len() {
                    return err(
                        p.line,
                        format!(
                            "target node {t} out of range (tree has {} nodes)",
                            tree.len()
                        ),
                    );
                }
            }
            Task::Blowup {
                tree,
                states,
                targets: targets.clone(),
            }
        }
        PropertyKind::BoundedHalt { bound } => {
            if !matches!(class, AnyClass::Counter(_)) {
                return err(p.line, "`kind bounded-halt` requires `class counter`");
            }
            Task::BoundedHalt { bound: *bound }
        }
    };
    if matches!(class, AnyClass::Counter(_)) && !matches!(task, Task::BoundedHalt { .. }) {
        return err(
            p.line,
            "`class counter` supports only `kind bounded-halt` properties",
        );
    }
    Ok(LoweredProperty {
        name: p.name.clone(),
        expect: p.expect.clone(),
        task,
    })
}

/// Builds the property's [`System`] through [`SystemBuilder`] — the same
/// entry point the programmatic builders use, so guards parse identically.
fn build_system(
    spec: &Spec,
    class: &AnyClass,
    accept: &[String],
    at: usize,
) -> Result<System, SpecError> {
    let Some(schema) = class.schema() else {
        return err(at, "`class counter` has no guards; use `kind bounded-halt`");
    };
    if spec.states.is_empty() {
        return err(at, "reachability properties need a `states { .. }` block");
    }
    for a in accept {
        if !spec.states.iter().any(|s| &s.name == a) {
            return err(at, format!("`accept` names unknown state `{a}`"));
        }
    }
    let regs: Vec<&str> = spec.registers.iter().map(String::as_str).collect();
    let mut b = SystemBuilder::new(schema.clone(), &regs);
    for s in &spec.states {
        let h = b.state(&s.name);
        let h = if s.initial { h.initial() } else { h };
        if accept.contains(&s.name) {
            h.accepting();
        }
    }
    for r in &spec.rules {
        b.rule(&r.from, &r.to, &r.guard).map_err(|e| SpecError {
            line: Some(r.line),
            msg: e.to_string(),
        })?;
    }
    b.finish().map_err(|e| SpecError {
        line: Some(at),
        msg: e.to_string(),
    })
}

/// Parses a tree term `label(child, child, ..)` over the automaton's labels
/// and derives the (unique) run: each node's state is the automaton state
/// reading its label, which must be unique per label for `kind blowup`.
fn parse_tree_term(tc: &TreeClass, src: &str, at: usize) -> Result<(Tree, Vec<u32>), SpecError> {
    let aut = tc.automaton();
    let labels = aut.labels();
    let label_of = |name: &str| -> Result<usize, SpecError> {
        labels
            .iter()
            .position(|l| l == name)
            .ok_or_else(|| SpecError {
                line: Some(at),
                msg: format!("unknown tree label `{name}`"),
            })
    };
    let state_of = |label: usize| -> Result<u32, SpecError> {
        let states: Vec<u32> = (0..aut.num_states() as u32)
            .filter(|&q| aut.label(q) == label)
            .collect();
        match states.as_slice() {
            [q] => Ok(*q),
            _ => err(
                at,
                format!(
                    "label `{}` is read by {} automaton states; `kind blowup` needs exactly one",
                    labels[label],
                    states.len()
                ),
            ),
        }
    };

    // Tokenize: identifiers, `(`, `)`, `,`.
    let mut toks = Vec::new();
    let bytes = src.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b' ' | b'\t' => i += 1,
            b'(' | b')' | b',' => {
                toks.push(src[i..i + 1].to_owned());
                i += 1;
            }
            _ => {
                let start = i;
                while i < bytes.len() && !matches!(bytes[i], b' ' | b'\t' | b'(' | b')' | b',') {
                    i += 1;
                }
                toks.push(src[start..i].to_owned());
            }
        }
    }

    // Recursive descent over the token list, building the tree in preorder.
    struct P<'a> {
        toks: &'a [String],
        pos: usize,
    }
    fn node(
        p: &mut P,
        tree: &mut Option<Tree>,
        states: &mut Vec<u32>,
        parent: Option<usize>,
        at: usize,
        label_of: &dyn Fn(&str) -> Result<usize, SpecError>,
        state_of: &dyn Fn(usize) -> Result<u32, SpecError>,
    ) -> Result<(), SpecError> {
        let Some(name) = p.toks.get(p.pos).cloned() else {
            return err(at, "unexpected end of tree term");
        };
        if matches!(name.as_str(), "(" | ")" | ",") {
            return err(at, format!("expected a label in tree term, found `{name}`"));
        }
        p.pos += 1;
        let label = label_of(&name)?;
        let v = match parent {
            None => {
                *tree = Some(Tree::leaf(label));
                0
            }
            Some(par) => tree.as_mut().expect("root exists").push_child(par, label),
        };
        states.push(state_of(label)?);
        debug_assert_eq!(states.len() - 1, v);
        if p.toks.get(p.pos).map(String::as_str) == Some("(") {
            p.pos += 1;
            loop {
                node(p, tree, states, Some(v), at, label_of, state_of)?;
                match p.toks.get(p.pos).map(String::as_str) {
                    Some(",") => p.pos += 1,
                    Some(")") => {
                        p.pos += 1;
                        break;
                    }
                    _ => return err(at, "expected `,` or `)` in tree term"),
                }
            }
        }
        Ok(())
    }

    let mut p = P {
        toks: &toks,
        pos: 0,
    };
    let mut tree = None;
    let mut states = Vec::new();
    node(
        &mut p,
        &mut tree,
        &mut states,
        None,
        at,
        &label_of,
        &state_of,
    )?;
    if p.pos != toks.len() {
        return err(at, "trailing input after tree term");
    }
    Ok((tree.expect("root parsed"), states))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_spec;

    #[test]
    fn lowers_example1_to_the_builder_system() {
        let lowered = crate::load_spec(
            r#"
            system demo
            schema {
              relation E/2
              relation red/1
            }
            class free
            registers x y
            states {
              start init
              q0
              q1
              end
            }
            rule start -> q0: x_old = x_new & x_new = y_old & y_old = y_new
            rule q0 -> q1: x_old = x_new & E(y_old, y_new) & red(y_new)
            rule q1 -> q0: x_old = x_new & E(y_old, y_new) & red(y_new)
            rule q1 -> end: x_old = x_new & x_new = y_old & y_old = y_new
            property reach {
              accept end
              expect nonempty
            }
            "#,
        )
        .unwrap();
        let Task::Reach(sys) = &lowered.properties[0].task else {
            panic!("expected reach");
        };
        // Mirror programmatically and compare rule-for-rule.
        let mut sc = Schema::new();
        sc.add_relation("E", 2).unwrap();
        sc.add_relation("red", 1).unwrap();
        let schema = sc.finish();
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
        let want = b.finish().unwrap();
        assert_eq!(sys.rules(), want.rules());
        assert_eq!(sys.initial(), want.initial());
        assert_eq!(sys.accepting(), want.accepting());
    }

    #[test]
    fn schema_requirements_are_enforced() {
        let e = parse_spec("system s\nclass free\nproperty p {\n accept q\n}\n")
            .and_then(|s| lower(&s))
            .unwrap_err();
        assert!(e.msg.contains("requires a `schema"));
        let e = parse_spec(
            "system s\nschema {\n relation a/1\n}\nclass linear-order\nproperty p {\n accept q\n}\n",
        )
        .and_then(|s| lower(&s))
        .unwrap_err();
        assert!(e.msg.contains("defines its own schema"));
    }

    #[test]
    fn tree_terms_parse_in_preorder() {
        let lowered = crate::load_spec(
            r#"
            system demo
            class trees {
              labels r a b
              state R reads r
              state A reads a
              state B reads b
              leaf B
              root R
              rightmost R A B
              first-child A->R B->R A->A B->A
            }
            property p {
              kind blowup
              tree r(a(a(b)))
              targets 2 3
            }
            "#,
        )
        .unwrap();
        let Task::Blowup { tree, states, .. } = &lowered.properties[0].task else {
            panic!("expected blowup");
        };
        assert_eq!(tree.len(), 4);
        assert_eq!(states, &[0, 1, 1, 2]);
        assert_eq!(tree.label(3), 2);
        assert_eq!(tree.parent(3), Some(2));
    }
}
