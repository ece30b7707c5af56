//! The scenario IR: a generated system-plus-class, independent of the
//! `.dds` concrete syntax.
//!
//! A [`Scenario`] carries exactly the declarations a `.dds` file would —
//! class block, registers, states, guarded rules — as plain data. Two
//! consumers read it:
//!
//! * [`Scenario::build`] constructs the engine inputs directly (the
//!   [`AnyClass`] value and the [`System`] via [`SystemBuilder`], the same
//!   entry points the CLI lowering and the programmatic examples use);
//! * [`Scenario::render`] emits the scenario as `.dds` text.
//!
//! The fuzz harness in `dds-cli` closes the loop: rendering, re-parsing and
//! lowering a scenario must reproduce [`Scenario::build`]'s system
//! rule-for-rule (the round-trip property).

use crate::AnyClass;
use dds_core::{DataClass, DataSpec, FreeRelationalClass, HomClass};
use dds_reductions::counter::{CounterMachine, Instr};
use dds_structure::{Element, Schema, Structure};
use dds_system::{System, SystemBuilder};
use dds_trees::{TreeAutomaton, TreeClass};
use dds_words::{Nfa, WordClass};
use std::fmt::Write as _;
use std::sync::Arc;

/// The eight structure-class families the fuzzer covers.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum ClassKind {
    /// All finite databases over a generated relational schema.
    Free,
    /// `HOM(H)` for a generated template.
    Hom,
    /// Finite equivalence relations.
    Equivalence,
    /// Finite strict linear orders.
    LinearOrder,
    /// Regular word languages for a generated NFA.
    Words,
    /// Regular tree languages for a generated automaton.
    Trees,
    /// A data-value product over a generated inner class.
    Data,
    /// A §6 two-counter machine (`bounded-halt` properties).
    Counter,
}

impl ClassKind {
    /// Every class, in the fixed fuzzing order.
    pub const ALL: [ClassKind; 8] = [
        ClassKind::Free,
        ClassKind::Hom,
        ClassKind::Equivalence,
        ClassKind::LinearOrder,
        ClassKind::Words,
        ClassKind::Trees,
        ClassKind::Data,
        ClassKind::Counter,
    ];

    /// The `--class` keyword (matches the `.dds` class keyword).
    pub fn keyword(self) -> &'static str {
        match self {
            ClassKind::Free => "free",
            ClassKind::Hom => "hom",
            ClassKind::Equivalence => "equivalence",
            ClassKind::LinearOrder => "linear-order",
            ClassKind::Words => "words",
            ClassKind::Trees => "trees",
            ClassKind::Data => "data",
            ClassKind::Counter => "counter",
        }
    }

    /// Parses a `--class` keyword.
    pub fn parse(s: &str) -> Option<ClassKind> {
        ClassKind::ALL.into_iter().find(|k| k.keyword() == s)
    }
}

/// Which homogeneous structure a generated data product multiplies in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DataValuesKind {
    /// `⊗ ⟨ℕ,=⟩`.
    NatEq,
    /// `⊙ ⟨ℕ,=⟩`.
    NatEqInjective,
    /// `⊗ ⟨ℚ,<⟩`.
    RationalOrder,
    /// `⊙ ⟨ℚ,<⟩`.
    RationalOrderInjective,
}

impl DataValuesKind {
    /// All four products.
    pub const ALL: [DataValuesKind; 4] = [
        DataValuesKind::NatEq,
        DataValuesKind::NatEqInjective,
        DataValuesKind::RationalOrder,
        DataValuesKind::RationalOrderInjective,
    ];

    /// The `values` keyword of the `.dds` syntax.
    pub fn keyword(self) -> &'static str {
        match self {
            DataValuesKind::NatEq => "nat-eq",
            DataValuesKind::NatEqInjective => "nat-eq-injective",
            DataValuesKind::RationalOrder => "rational-order",
            DataValuesKind::RationalOrderInjective => "rational-order-injective",
        }
    }

    /// The infix guard symbol comparing data values.
    pub fn symbol(self) -> &'static str {
        match self {
            DataValuesKind::NatEq | DataValuesKind::NatEqInjective => "~",
            DataValuesKind::RationalOrder | DataValuesKind::RationalOrderInjective => "<<",
        }
    }

    /// The engine-side [`DataSpec`].
    pub fn spec(self) -> DataSpec {
        match self {
            DataValuesKind::NatEq => DataSpec::nat_eq(),
            DataValuesKind::NatEqInjective => DataSpec::nat_eq_injective(),
            DataValuesKind::RationalOrder => DataSpec::rational_order(),
            DataValuesKind::RationalOrderInjective => DataSpec::rational_order_injective(),
        }
    }
}

/// A generated NFA, kept as declarations so it renders losslessly.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WordsDecl {
    /// Alphabet.
    pub letters: Vec<String>,
    /// `(state name, letter read)` in index order.
    pub states: Vec<(String, String)>,
    /// One-step edges by state name.
    pub edges: Vec<(String, String)>,
    /// Entry state names.
    pub entry: Vec<String>,
    /// Accepting state names.
    pub accepting: Vec<String>,
}

impl WordsDecl {
    /// Builds the NFA (`None` when the word language is empty).
    pub fn build(&self) -> Option<Nfa> {
        let idx = |name: &String| self.states.iter().position(|(s, _)| s == name).unwrap() as u32;
        let letter = |l: &String| self.letters.iter().position(|x| x == l).unwrap();
        Nfa::new(
            self.letters.clone(),
            self.states.iter().map(|(_, l)| letter(l)).collect(),
            self.edges.iter().map(|(p, q)| (idx(p), idx(q))).collect(),
            self.entry.iter().map(idx).collect(),
            self.accepting.iter().map(idx).collect(),
        )
    }
}

/// A generated tree automaton, kept as declarations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreesDecl {
    /// Node labels.
    pub labels: Vec<String>,
    /// `(state name, label read)` in index order.
    pub states: Vec<(String, String)>,
    /// Leaf state names.
    pub leaf: Vec<String>,
    /// Root state names.
    pub root: Vec<String>,
    /// Rightmost-sibling state names.
    pub rightmost: Vec<String>,
    /// `first-child p->q` pairs by state name.
    pub first_child: Vec<(String, String)>,
    /// `next-sibling p->q` pairs by state name.
    pub next_sibling: Vec<(String, String)>,
}

impl TreesDecl {
    /// Builds the automaton.
    pub fn build(&self) -> TreeAutomaton {
        let idx = |name: &String| self.states.iter().position(|(s, _)| s == name).unwrap() as u32;
        let label = |l: &String| self.labels.iter().position(|x| x == l).unwrap();
        let set = |names: &[String]| names.iter().map(idx).collect::<Vec<_>>();
        let pairs =
            |ps: &[(String, String)]| ps.iter().map(|(p, q)| (idx(p), idx(q))).collect::<Vec<_>>();
        TreeAutomaton::new(
            self.labels.clone(),
            self.states.iter().map(|(_, l)| label(l)).collect(),
            set(&self.leaf),
            set(&self.root),
            set(&self.rightmost),
            pairs(&self.first_child),
            pairs(&self.next_sibling),
        )
    }
}

/// The class part of a scenario.
#[derive(Clone, Debug, PartialEq)]
pub enum ScenarioClass {
    /// Free relational class over the declared relations.
    Free {
        /// `(name, arity)` relation declarations.
        relations: Vec<(String, usize)>,
    },
    /// `HOM(H)` over the declared relations and template.
    Hom {
        /// `(name, arity)` relation declarations.
        relations: Vec<(String, usize)>,
        /// Template element names.
        elements: Vec<String>,
        /// Template facts `(relation, element args)`.
        facts: Vec<(String, Vec<String>)>,
    },
    /// Finite equivalence relations (fixed schema `{~}`).
    Equivalence,
    /// Finite strict linear orders (fixed schema `{<}`).
    LinearOrder,
    /// Regular word languages.
    Words(WordsDecl),
    /// Regular tree languages.
    Trees(TreesDecl),
    /// A data product over an inner class (free / `HOM` / equivalence /
    /// linear-order).
    Data {
        /// The homogeneous value structure.
        values: DataValuesKind,
        /// The inner class.
        inner: Box<ScenarioClass>,
    },
    /// A two-counter machine with a `bounded-halt` budget.
    Counter {
        /// The program; location 0 is initial.
        program: Vec<Instr>,
        /// `bounded-halt` word-length budget.
        bound: usize,
    },
}

impl ScenarioClass {
    /// The family this class belongs to.
    pub fn kind(&self) -> ClassKind {
        match self {
            ScenarioClass::Free { .. } => ClassKind::Free,
            ScenarioClass::Hom { .. } => ClassKind::Hom,
            ScenarioClass::Equivalence => ClassKind::Equivalence,
            ScenarioClass::LinearOrder => ClassKind::LinearOrder,
            ScenarioClass::Words(_) => ClassKind::Words,
            ScenarioClass::Trees(_) => ClassKind::Trees,
            ScenarioClass::Data { .. } => ClassKind::Data,
            ScenarioClass::Counter { .. } => ClassKind::Counter,
        }
    }
}

/// A generated system over a generated class — everything a `.dds` file
/// declares, as data.
#[derive(Clone, Debug, PartialEq)]
pub struct Scenario {
    /// System name (becomes `system <name>` and the report-id prefix).
    pub name: String,
    /// The class.
    pub class: ScenarioClass,
    /// Register names.
    pub registers: Vec<String>,
    /// `(name, initial)` control states in declaration order.
    pub states: Vec<(String, bool)>,
    /// Accepting state names.
    pub accept: Vec<String>,
    /// `(from, to, guard)` rules in declaration order.
    pub rules: Vec<(String, String, String)>,
}

/// A fully built scenario: class value plus the system (absent for counter
/// machines, whose `bounded-halt` check needs no guards).
#[derive(Debug)]
pub struct Built {
    /// The class.
    pub class: AnyClass,
    /// The system, built through [`SystemBuilder`].
    pub system: Option<System>,
}

impl Scenario {
    /// Builds the engine inputs. Errors mean the scenario is invalid (a
    /// shrink candidate that went too far, never a generator output).
    pub fn build(&self) -> Result<Built, String> {
        let class = self.build_class(&self.class)?;
        let system = match class.schema() {
            Some(schema) => Some(self.build_system(schema)?),
            None => None,
        };
        Ok(Built { class, system })
    }

    fn build_class(&self, decl: &ScenarioClass) -> Result<AnyClass, String> {
        Ok(match decl {
            ScenarioClass::Free { relations } => {
                AnyClass::Free(FreeRelationalClass::new(declared_schema(relations)?))
            }
            ScenarioClass::Hom {
                relations,
                elements,
                facts,
            } => {
                let schema = declared_schema(relations)?;
                let mut h = Structure::new(schema.clone(), elements.len());
                for (rel, args) in facts {
                    let sym = schema
                        .lookup(rel)
                        .map_err(|_| format!("unknown relation `{rel}` in template fact"))?;
                    let tuple: Vec<Element> = args
                        .iter()
                        .map(|a| {
                            elements
                                .iter()
                                .position(|e| e == a)
                                .map(Element::from_index)
                                .ok_or_else(|| format!("unknown template element `{a}`"))
                        })
                        .collect::<Result<_, _>>()?;
                    h.add_fact(sym, &tuple)
                        .map_err(|e| format!("bad template fact: {e:?}"))?;
                }
                AnyClass::Hom(HomClass::new(h))
            }
            ScenarioClass::Equivalence => AnyClass::Equiv(DataClass::equivalence()),
            ScenarioClass::LinearOrder => AnyClass::Order(DataClass::linear_order()),
            ScenarioClass::Words(decl) => AnyClass::Words(WordClass::new(
                decl.build().ok_or("generated word language is empty")?,
            )),
            ScenarioClass::Trees(decl) => AnyClass::Trees(TreeClass::new(decl.build())),
            ScenarioClass::Data { values, inner } => {
                let spec = values.spec();
                match self.build_class(inner)? {
                    AnyClass::Free(c) => AnyClass::DataFree(DataClass::new(c, spec)),
                    AnyClass::Hom(c) => AnyClass::DataHom(DataClass::new(c, spec)),
                    AnyClass::Equiv(c) => AnyClass::DataEquiv(DataClass::new(c, spec)),
                    AnyClass::Order(c) => AnyClass::DataOrder(DataClass::new(c, spec)),
                    other => return Err(format!("data product over unsupported class {other:?}")),
                }
            }
            ScenarioClass::Counter { program, bound: _ } => AnyClass::Counter(CounterMachine {
                program: program.clone(),
            }),
        })
    }

    /// Builds the system over the class's public schema — the same
    /// [`SystemBuilder`] path the CLI lowering uses, so round-tripping
    /// through `.dds` text must reproduce it exactly.
    fn build_system(&self, schema: &Arc<Schema>) -> Result<System, String> {
        let regs: Vec<&str> = self.registers.iter().map(String::as_str).collect();
        let mut b = SystemBuilder::new(schema.clone(), &regs);
        for (name, initial) in &self.states {
            let h = b.state(name);
            let h = if *initial { h.initial() } else { h };
            if self.accept.contains(name) {
                h.accepting();
            }
        }
        for (from, to, guard) in &self.rules {
            b.rule(from, to, guard).map_err(|e| e.to_string())?;
        }
        b.finish().map_err(|e| e.to_string())
    }

    /// Renders the scenario as `.dds` text (no `expect` line).
    pub fn render(&self) -> String {
        self.render_with_expect(None)
    }

    /// Renders the scenario as `.dds` text, stamping an `expect <outcome>`
    /// line when given — the form corpus seeds are written in, so replaying
    /// them re-verifies the recorded outcome.
    pub fn render_with_expect(&self, expect: Option<&str>) -> String {
        let mut out = String::new();
        let w = &mut out;
        let _ = writeln!(w, "system {}", self.name);
        render_class_schema(w, &self.class);
        render_class(w, &self.class, 0);
        if let ScenarioClass::Counter { bound, .. } = &self.class {
            let _ = writeln!(w, "\nproperty halts {{");
            let _ = writeln!(w, "  kind bounded-halt");
            let _ = writeln!(w, "  bound {bound}");
            if let Some(e) = expect {
                let _ = writeln!(w, "  expect {e}");
            }
            let _ = writeln!(w, "}}");
            return out;
        }
        if !self.registers.is_empty() {
            let _ = writeln!(w, "\nregisters {}", self.registers.join(" "));
        }
        let _ = writeln!(w, "\nstates {{");
        for (name, initial) in &self.states {
            let _ = writeln!(w, "  {name}{}", if *initial { " init" } else { "" });
        }
        let _ = writeln!(w, "}}");
        if !self.rules.is_empty() {
            let _ = writeln!(w);
        }
        for (from, to, guard) in &self.rules {
            let _ = writeln!(w, "rule {from} -> {to}: {guard}");
        }
        let _ = writeln!(w, "\nproperty reach {{");
        let _ = writeln!(w, "  accept {}", self.accept.join(" "));
        if let Some(e) = expect {
            let _ = writeln!(w, "  expect {e}");
        }
        let _ = writeln!(w, "}}");
        out
    }
}

fn declared_schema(relations: &[(String, usize)]) -> Result<Arc<Schema>, String> {
    let mut sc = Schema::new();
    for (name, arity) in relations {
        sc.add_relation(name, *arity)
            .map_err(|_| format!("duplicate schema symbol `{name}`"))?;
    }
    Ok(sc.finish())
}

fn render_class_schema(w: &mut String, class: &ScenarioClass) {
    let relations = match class {
        ScenarioClass::Free { relations } | ScenarioClass::Hom { relations, .. } => relations,
        ScenarioClass::Data { inner, .. } => return render_class_schema(w, inner),
        _ => return,
    };
    let _ = writeln!(w, "\nschema {{");
    for (name, arity) in relations {
        let _ = writeln!(w, "  relation {name}/{arity}");
    }
    let _ = writeln!(w, "}}");
}

fn render_class(w: &mut String, class: &ScenarioClass, depth: usize) {
    let pad = "  ".repeat(depth);
    let open = if depth == 0 { "\nclass" } else { "over" };
    match class {
        ScenarioClass::Free { .. } => {
            let _ = writeln!(w, "{pad}{open} free");
        }
        ScenarioClass::Equivalence => {
            let _ = writeln!(w, "{pad}{open} equivalence");
        }
        ScenarioClass::LinearOrder => {
            let _ = writeln!(w, "{pad}{open} linear-order");
        }
        ScenarioClass::Hom {
            elements, facts, ..
        } => {
            let _ = writeln!(w, "{pad}{open} hom {{");
            let _ = writeln!(w, "{pad}  element {}", elements.join(" "));
            for (rel, args) in facts {
                let _ = writeln!(w, "{pad}  fact {rel}({})", args.join(", "));
            }
            let _ = writeln!(w, "{pad}}}");
        }
        ScenarioClass::Words(d) => {
            let _ = writeln!(w, "{pad}{open} words {{");
            let _ = writeln!(w, "{pad}  letters {}", d.letters.join(" "));
            for (s, l) in &d.states {
                let _ = writeln!(w, "{pad}  state {s} reads {l}");
            }
            if !d.edges.is_empty() {
                let pairs: Vec<String> = d.edges.iter().map(|(p, q)| format!("{p}->{q}")).collect();
                let _ = writeln!(w, "{pad}  edges {}", pairs.join(" "));
            }
            let _ = writeln!(w, "{pad}  entry {}", d.entry.join(" "));
            let _ = writeln!(w, "{pad}  final {}", d.accepting.join(" "));
            let _ = writeln!(w, "{pad}}}");
        }
        ScenarioClass::Trees(d) => {
            let _ = writeln!(w, "{pad}{open} trees {{");
            let _ = writeln!(w, "{pad}  labels {}", d.labels.join(" "));
            for (s, l) in &d.states {
                let _ = writeln!(w, "{pad}  state {s} reads {l}");
            }
            let sets = [
                ("leaf", &d.leaf),
                ("root", &d.root),
                ("rightmost", &d.rightmost),
            ];
            for (kw, names) in sets {
                if !names.is_empty() {
                    let _ = writeln!(w, "{pad}  {kw} {}", names.join(" "));
                }
            }
            let rels = [
                ("first-child", &d.first_child),
                ("next-sibling", &d.next_sibling),
            ];
            for (kw, pairs) in rels {
                if !pairs.is_empty() {
                    let ps: Vec<String> = pairs.iter().map(|(p, q)| format!("{p}->{q}")).collect();
                    let _ = writeln!(w, "{pad}  {kw} {}", ps.join(" "));
                }
            }
            let _ = writeln!(w, "{pad}}}");
        }
        ScenarioClass::Data { values, inner } => {
            let _ = writeln!(w, "{pad}{open} data {{");
            let _ = writeln!(w, "{pad}  values {}", values.keyword());
            render_class(w, inner, depth + 1);
            let _ = writeln!(w, "{pad}}}");
        }
        ScenarioClass::Counter { program, .. } => {
            let _ = writeln!(w, "{pad}{open} counter {{");
            for instr in program {
                match *instr {
                    Instr::Inc { c, next } => {
                        let _ = writeln!(w, "{pad}  inc c{c} {next}");
                    }
                    Instr::JzDec { c, if_zero, if_pos } => {
                        let _ = writeln!(w, "{pad}  jzdec c{c} {if_zero} {if_pos}");
                    }
                    Instr::Halt => {
                        let _ = writeln!(w, "{pad}  halt");
                    }
                }
            }
            let _ = writeln!(w, "{pad}}}");
        }
    }
}
