//! Spec equivalence: `EquivRequest → EquivReport` via product construction.
//!
//! The "safe migration" decision procedure (ROADMAP item 3, after Wang et
//! al., arXiv:1710.07660): given two `.dds` specs over the same schema and
//! structure class, decide for every shared `reach` property whether the
//! two systems reach the same outcome. Both systems are joined into one
//! product system ([`dds_core::product`]) — disjoint control states, the
//! shared data domain — and the interned frontier engine explores it
//! **once** per property pair, deciding both sides' accepting sets in the
//! same search ([`dds_core::Engine::run_multi`]). A divergence comes back
//! with a replayable witness naming which spec it belongs to.
//!
//! Like [`crate::api`], this module is side-effect-free: no printing, no
//! exiting; every failure is a structured [`EquivError`] value, so the CLI
//! (`dds equiv`) and a future `dds serve` endpoint share the surface.
//!
//! Two modes:
//!
//! * **outcome equivalence** (default) — each side's accepting states are
//!   reachable-or-not; the verdict compares the two answers. A single
//!   `run_multi` search decides both sides with bit-identical statistics
//!   across thread counts.
//! * **stepwise equivalence** (`--bisim`) — the stricter
//!   [`dds_core::product::bisim`] check: after every BFS layer the
//!   cumulative accepting-configuration sets of the two sides must agree.
//!   Stepwise equivalence implies outcome equivalence, not vice versa.
//!
//! ```
//! use dds_cli::equiv::EquivRequest;
//!
//! let spec = "system s\n\
//!      schema {\n  relation E/2\n}\n\
//!      class free\n\
//!      registers x\n\
//!      states {\n  start init\n  acc\n}\n\
//!      rule start -> acc: E(x_old, x_new)\n\
//!      property reach {\n  accept acc\n}\n";
//! let report = EquivRequest::new(spec, spec).run().expect("comparable");
//! assert_eq!(report.verdict(), "equivalent");
//! ```

use crate::api::{fingerprint, RunError};
use crate::ast::{ClassDecl, FactDecl, ReadsDecl};
use crate::lower::{Lowered, Task};
use crate::runner::RunOptions;
use dds_core::product::{self, BisimOutcome, Product, Side};
use dds_core::{Engine, EngineOptions, EngineStats, SymbolicClass, TargetStatus, Trace};
use dds_gen::with_symbolic_class;
use dds_structure::{Schema, SymbolKind};
use dds_system::System;
use std::fmt;
use std::time::Instant;

/// A structured failure from the equivalence pipeline.
///
/// The mismatch variants are *comparability* errors: the two specs are
/// individually valid but cannot be compared (different schemas, classes,
/// register counts or property sets). [`EquivError::code`] names each for
/// the JSON error document.
#[derive(Clone, Debug)]
pub enum EquivError {
    /// One of the specs failed to read, parse or lower.
    Load(RunError),
    /// The two specs declare different schemas (symbols must match in
    /// declaration order — guard atoms are resolved positionally).
    SchemaMismatch {
        /// Rendered symbol list of the first spec.
        a: String,
        /// Rendered symbol list of the second spec.
        b: String,
    },
    /// The two specs verify over different structure classes.
    ClassMismatch {
        /// Class keyword of the first spec.
        a: String,
        /// Class keyword of the second spec.
        b: String,
    },
    /// The two specs have different register counts (guards address
    /// registers by position).
    RegisterMismatch {
        /// Register count of the first spec.
        a: usize,
        /// Register count of the second spec.
        b: usize,
    },
    /// The property name sets differ, so outcomes cannot be paired.
    PropertyMismatch {
        /// Properties only the first spec declares.
        a_only: Vec<String>,
        /// Properties only the second spec declares.
        b_only: Vec<String>,
    },
    /// The pair is syntactically comparable but outside what the product
    /// construction decides (counter machines, non-`reach` properties).
    Unsupported {
        /// Human-readable description of the unsupported feature.
        what: String,
    },
}

impl EquivError {
    /// Stable machine-readable code for the JSON error document.
    pub fn code(&self) -> &'static str {
        match self {
            EquivError::Load(RunError::Spec { .. }) => "spec-error",
            EquivError::Load(RunError::Io { .. }) => "io-error",
            EquivError::SchemaMismatch { .. } => "schema-mismatch",
            EquivError::ClassMismatch { .. } => "class-mismatch",
            EquivError::RegisterMismatch { .. } => "register-mismatch",
            EquivError::PropertyMismatch { .. } => "property-mismatch",
            EquivError::Unsupported { .. } => "unsupported",
        }
    }

    /// Source line for spec diagnostics, when one exists.
    pub fn line(&self) -> Option<usize> {
        match self {
            EquivError::Load(RunError::Spec { error, .. }) => error.line,
            _ => None,
        }
    }
}

impl fmt::Display for EquivError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EquivError::Load(e) => write!(f, "{e}"),
            EquivError::SchemaMismatch { a, b } => write!(
                f,
                "schema mismatch: spec a declares `{a}`, spec b declares `{b}` \
                 (symbols must match in declaration order)"
            ),
            EquivError::ClassMismatch { a, b } if a == b => write!(
                f,
                "class mismatch: both specs are `class {a}` but the declarations differ"
            ),
            EquivError::ClassMismatch { a, b } => {
                write!(
                    f,
                    "class mismatch: spec a is `class {a}`, spec b is `class {b}`"
                )
            }
            EquivError::RegisterMismatch { a, b } => write!(
                f,
                "register mismatch: spec a has {a} registers, spec b has {b} \
                 (guards address registers by position)"
            ),
            EquivError::PropertyMismatch { a_only, b_only } => {
                write!(f, "property mismatch:")?;
                if !a_only.is_empty() {
                    write!(f, " only in a: {}", a_only.join(", "))?;
                }
                if !b_only.is_empty() {
                    write!(
                        f,
                        "{}only in b: {}",
                        if a_only.is_empty() { " " } else { "; " },
                        b_only.join(", ")
                    )?;
                }
                Ok(())
            }
            EquivError::Unsupported { what } => write!(f, "unsupported for equivalence: {what}"),
        }
    }
}

impl std::error::Error for EquivError {}

impl From<RunError> for EquivError {
    fn from(e: RunError) -> EquivError {
        EquivError::Load(e)
    }
}

/// One equivalence request: two `.dds` sources, labels, engine tuning and
/// the mode flag. Mirrors [`crate::api::VerifyRequest`].
#[derive(Clone, Debug)]
pub struct EquivRequest {
    /// Label for the first spec (a path for the CLI).
    pub label_a: String,
    /// The first `.dds` specification text.
    pub spec_a: String,
    /// Label for the second spec.
    pub label_b: String,
    /// The second `.dds` specification text.
    pub spec_b: String,
    /// Engine tuning; `max_configs` is the `--up-to` bound.
    pub options: RunOptions,
    /// Run the stepwise ([`product::bisim`]) check instead of outcome
    /// equivalence.
    pub bisim: bool,
}

impl EquivRequest {
    /// A request with default labels (`<a>`, `<b>`) and options.
    pub fn new(spec_a: impl Into<String>, spec_b: impl Into<String>) -> EquivRequest {
        EquivRequest {
            label_a: "<a>".to_owned(),
            spec_a: spec_a.into(),
            label_b: "<b>".to_owned(),
            spec_b: spec_b.into(),
            options: RunOptions::default(),
            bisim: false,
        }
    }

    /// Sets the report labels.
    pub fn labels(mut self, a: impl Into<String>, b: impl Into<String>) -> EquivRequest {
        self.label_a = a.into();
        self.label_b = b.into();
        self
    }

    /// Sets the engine tuning.
    pub fn options(mut self, options: RunOptions) -> EquivRequest {
        self.options = options;
        self
    }

    /// Selects stepwise (`--bisim`) mode.
    pub fn bisim(mut self, bisim: bool) -> EquivRequest {
        self.bisim = bisim;
        self
    }

    /// Reads both specs from files, using the paths as labels.
    pub fn from_files(path_a: &str, path_b: &str) -> Result<EquivRequest, EquivError> {
        let read = |path: &str| -> Result<String, EquivError> {
            std::fs::read_to_string(path).map_err(|e| {
                EquivError::Load(RunError::Io {
                    path: path.to_owned(),
                    message: e.to_string(),
                })
            })
        };
        Ok(EquivRequest::new(read(path_a)?, read(path_b)?).labels(path_a, path_b))
    }

    /// Parses, checks comparability, and decides equivalence for every
    /// paired property: the whole pipeline as one call with no I/O.
    pub fn run(&self) -> Result<EquivReport, EquivError> {
        let spec_err = |label: &str| {
            let label = label.to_owned();
            move |error| {
                EquivError::Load(RunError::Spec {
                    label: label.clone(),
                    error,
                })
            }
        };
        let ast_a = crate::parse_spec(&self.spec_a).map_err(spec_err(&self.label_a))?;
        let ast_b = crate::parse_spec(&self.spec_b).map_err(spec_err(&self.label_b))?;

        // Order-sensitive content hash over both ASTs, the outcome-relevant
        // options, and the mode — the key a result cache could replay on.
        let fingerprint = fingerprint(&ast_a, &self.options)
            ^ fingerprint(&ast_b, &self.options).rotate_left(1)
            ^ (self.bisim as u128);

        // Comparability gauntlet, cheapest first. Classes are compared as
        // ASTs with source lines stripped: semantic template equality up to
        // whitespace and comments.
        if strip_lines(&ast_a.class) != strip_lines(&ast_b.class) {
            return Err(EquivError::ClassMismatch {
                a: ast_a.class.keyword().to_owned(),
                b: ast_b.class.keyword().to_owned(),
            });
        }
        if matches!(ast_a.class, ClassDecl::Counter { .. }) {
            return Err(EquivError::Unsupported {
                what: "class counter has no product construction \
                       (counter machines support bounded-halt only)"
                    .to_owned(),
            });
        }
        let lowered_a = crate::lower::lower(&ast_a).map_err(spec_err(&self.label_a))?;
        let lowered_b = crate::lower::lower(&ast_b).map_err(spec_err(&self.label_b))?;

        // Symbol ids are declaration-order indices, so `Schema` equality
        // (which is order-sensitive) guarantees the two specs' guards
        // resolve to the same symbols.
        let schema_a = lowered_a
            .class
            .schema()
            .expect("non-counter classes have schemas");
        let schema_b = lowered_b
            .class
            .schema()
            .expect("non-counter classes have schemas");
        if schema_a != schema_b {
            return Err(EquivError::SchemaMismatch {
                a: render_schema(schema_a),
                b: render_schema(schema_b),
            });
        }
        if ast_a.registers.len() != ast_b.registers.len() {
            return Err(EquivError::RegisterMismatch {
                a: ast_a.registers.len(),
                b: ast_b.registers.len(),
            });
        }

        let names = |l: &Lowered| {
            l.properties
                .iter()
                .map(|p| p.name.clone())
                .collect::<Vec<_>>()
        };
        let (names_a, names_b) = (names(&lowered_a), names(&lowered_b));
        let a_only: Vec<String> = names_a
            .iter()
            .filter(|n| !names_b.contains(n))
            .cloned()
            .collect();
        let b_only: Vec<String> = names_b
            .iter()
            .filter(|n| !names_a.contains(n))
            .cloned()
            .collect();
        if !a_only.is_empty() || !b_only.is_empty() {
            return Err(EquivError::PropertyMismatch { a_only, b_only });
        }

        let mut pairs = Vec::with_capacity(lowered_a.properties.len());
        for pa in &lowered_a.properties {
            let pb = lowered_b
                .properties
                .iter()
                .find(|p| p.name == pa.name)
                .expect("property name sets were checked equal");
            let sys_a = reach_system(&pa.task, &pa.name)?;
            let sys_b = reach_system(&pb.task, &pb.name)?;
            let prod = product::product(sys_a, sys_b).map_err(|e| match e {
                product::ProductError::SchemaMismatch => EquivError::SchemaMismatch {
                    a: render_schema(schema_a),
                    b: render_schema(schema_b),
                },
                product::ProductError::RegisterMismatch { a, b } => {
                    EquivError::RegisterMismatch { a, b }
                }
            })?;
            let t0 = Instant::now();
            let mut pair = with_symbolic_class!(
                &lowered_a.class,
                |c| run_pair(c, &prod, sys_a, sys_b, self),
                else unreachable!("counter classes have no reach properties")
            );
            pair.name = pa.name.clone();
            pair.wall_ns = t0.elapsed().as_nanos();
            pairs.push(pair);
        }

        Ok(EquivReport {
            label_a: self.label_a.clone(),
            label_b: self.label_b.clone(),
            system_a: lowered_a.name.clone(),
            system_b: lowered_b.name.clone(),
            class: lowered_a.class.describe(),
            bisim: self.bisim,
            pairs,
            fingerprint,
        })
    }
}

/// One compared property pair.
#[derive(Clone, Debug)]
pub struct PairReport {
    /// Property name (shared by both specs).
    pub name: String,
    /// Spec a's outcome keyword (`nonempty`, `empty`, `resource-limit`;
    /// `stepwise-equal`/`extra-outcome`/`missing-outcome` in bisim mode).
    pub a_outcome: String,
    /// Spec b's outcome keyword.
    pub b_outcome: String,
    /// `equivalent`, `divergent` or `resource-limit`.
    pub verdict: String,
    /// Which spec the divergence witness belongs to (`a` or `b`).
    pub witness_side: Option<String>,
    /// Witness trace through the diverging spec's own control states.
    pub trace: Option<String>,
    /// Certified witness database (replayable on the diverging side only).
    pub witness_db: Option<String>,
    /// Certified witness run, in the diverging spec's own state names.
    pub witness_run: Option<String>,
    /// Extra context (bisim depth, etc.).
    pub detail: Option<String>,
    /// Wall-clock time (nondeterministic; zeroed in golden snapshots).
    pub wall_ns: u128,
    /// Configurations explored by the joint search.
    pub configs_explored: u64,
    /// Full engine statistics (outcome mode only).
    pub stats: Option<EngineStats>,
}

/// The result of an equivalence request.
#[derive(Clone, Debug)]
pub struct EquivReport {
    /// Label of the first spec.
    pub label_a: String,
    /// Label of the second spec.
    pub label_b: String,
    /// System name of the first spec.
    pub system_a: String,
    /// System name of the second spec.
    pub system_b: String,
    /// Shared class description.
    pub class: String,
    /// Whether stepwise mode ran.
    pub bisim: bool,
    /// Per-property comparisons, in spec a's declaration order.
    pub pairs: Vec<PairReport>,
    /// Content hash of both parsed specs, the outcome-relevant options and
    /// the mode — equal fingerprints guarantee equal reports (up to labels
    /// and timings).
    pub fingerprint: u128,
}

impl EquivReport {
    /// The overall verdict: `divergent` if any pair diverged, else
    /// `resource-limit` if any pair was undecided, else `equivalent`.
    pub fn verdict(&self) -> &'static str {
        if self.pairs.iter().any(|p| p.verdict == "divergent") {
            "divergent"
        } else if self.pairs.iter().any(|p| p.verdict == "resource-limit") {
            "resource-limit"
        } else {
            "equivalent"
        }
    }

    /// True exactly when every pair verdicts `equivalent`.
    pub fn equivalent(&self) -> bool {
        self.verdict() == "equivalent"
    }

    /// The first diverging pair, when one exists.
    pub fn first_divergence(&self) -> Option<&PairReport> {
        self.pairs.iter().find(|p| p.verdict == "divergent")
    }
}

/// Extracts the reach system of a property, rejecting other task kinds.
fn reach_system<'t>(task: &'t Task, name: &str) -> Result<&'t System, EquivError> {
    let kind = match task {
        Task::Reach(sys) => return Ok(sys),
        Task::Elim(_) => "elim",
        Task::Blowup { .. } => "blowup",
        Task::BoundedHalt { .. } => "bounded-halt",
    };
    Err(EquivError::Unsupported {
        what: format!("property `{name}` is `{kind}`; only `reach` properties are comparable"),
    })
}

/// Renders a schema's symbol list for mismatch diagnostics.
fn render_schema(schema: &Schema) -> String {
    schema
        .symbols()
        .map(|id| {
            let fn_prefix = match schema.kind(id) {
                SymbolKind::Function => "fn ",
                SymbolKind::Relation => "",
            };
            format!("{fn_prefix}{}/{}", schema.name(id), schema.arity(id))
        })
        .collect::<Vec<_>>()
        .join(" ")
}

/// Clones a class declaration with every source line zeroed, so two
/// declarations compare equal iff they agree up to whitespace/comments.
fn strip_lines(class: &ClassDecl) -> ClassDecl {
    let names = |v: &[(String, usize)]| v.iter().map(|(n, _)| (n.clone(), 0)).collect();
    let pairs = |v: &[(String, String, usize)]| {
        v.iter()
            .map(|(p, q, _)| (p.clone(), q.clone(), 0))
            .collect()
    };
    let reads = |v: &[ReadsDecl]| {
        v.iter()
            .map(|r| ReadsDecl {
                state: r.state.clone(),
                reads: r.reads.clone(),
                line: 0,
            })
            .collect()
    };
    match class {
        ClassDecl::Free => ClassDecl::Free,
        ClassDecl::LinearOrder => ClassDecl::LinearOrder,
        ClassDecl::Equivalence => ClassDecl::Equivalence,
        ClassDecl::Hom { elements, facts } => ClassDecl::Hom {
            elements: names(elements),
            facts: facts
                .iter()
                .map(|f| FactDecl {
                    relation: f.relation.clone(),
                    args: f.args.clone(),
                    line: 0,
                })
                .collect(),
        },
        ClassDecl::Words {
            letters,
            states,
            edges,
            entry,
            accepting,
        } => ClassDecl::Words {
            letters: letters.clone(),
            states: reads(states),
            edges: pairs(edges),
            entry: names(entry),
            accepting: names(accepting),
        },
        ClassDecl::Trees {
            labels,
            states,
            leaf,
            root,
            rightmost,
            first_child,
            next_sibling,
        } => ClassDecl::Trees {
            labels: labels.clone(),
            states: reads(states),
            leaf: names(leaf),
            root: names(root),
            rightmost: names(rightmost),
            first_child: pairs(first_child),
            next_sibling: pairs(next_sibling),
        },
        ClassDecl::Data { values, inner } => ClassDecl::Data {
            values: *values,
            inner: Box::new(strip_lines(inner)),
        },
        ClassDecl::Counter { program } => ClassDecl::Counter {
            program: program.iter().map(|(i, _)| (*i, 0)).collect(),
        },
    }
}

/// Renders a product trace in the diverging spec's own vocabulary: side
/// prefixes dropped from state names, rule indices shifted to side-local.
fn render_side_trace<Cfg>(
    trace: &Trace<Cfg>,
    prod: &Product,
    side_sys: &System,
    rule_offset: usize,
) -> String {
    let mut t = String::new();
    for step in &trace.steps {
        let (_, local) = prod.side_of(step.state);
        match step.rule {
            None => t.push_str(side_sys.state_name(local)),
            Some(r) => t.push_str(&format!(
                " -[r{}]-> {}",
                r - rule_offset,
                side_sys.state_name(local)
            )),
        }
    }
    t
}

fn run_pair<C: SymbolicClass>(
    class: &C,
    prod: &Product,
    sys_a: &System,
    sys_b: &System,
    req: &EquivRequest,
) -> PairReport {
    if req.bisim {
        bisim_pair(class, prod, sys_a, sys_b, req.options.max_configs)
    } else {
        reach_pair(class, prod, sys_a, sys_b, req.options.engine_options())
    }
}

/// Outcome equivalence: one joint `run_multi` search decides both sides.
fn reach_pair<C: SymbolicClass>(
    class: &C,
    prod: &Product,
    sys_a: &System,
    sys_b: &System,
    eo: EngineOptions,
) -> PairReport {
    let out = Engine::new(class, prod.system())
        .with_options(eo)
        .run_multi(&[prod.a_targets().to_vec(), prod.b_targets().to_vec()]);
    let a_outcome = out.targets[0].keyword().to_owned();
    let b_outcome = out.targets[1].keyword().to_owned();
    let mut run = PairReport {
        name: String::new(),
        a_outcome,
        b_outcome,
        verdict: String::new(),
        witness_side: None,
        trace: None,
        witness_db: None,
        witness_run: None,
        detail: None,
        wall_ns: 0,
        configs_explored: out.stats.configs_explored as u64,
        stats: Some(out.stats),
    };
    let divergence = match (&out.targets[0], &out.targets[1]) {
        (TargetStatus::Reached { .. }, TargetStatus::Reached { .. })
        | (TargetStatus::Unreachable, TargetStatus::Unreachable) => {
            run.verdict = "equivalent".to_owned();
            None
        }
        (TargetStatus::Reached { trace, witness }, TargetStatus::Unreachable) => {
            Some((Side::A, trace, witness))
        }
        (TargetStatus::Unreachable, TargetStatus::Reached { trace, witness }) => {
            Some((Side::B, trace, witness))
        }
        _ => {
            run.verdict = "resource-limit".to_owned();
            run.detail = Some("undecided within the exploration bound".to_owned());
            None
        }
    };
    if let Some((side, trace, witness)) = divergence {
        let (side_sys, rule_offset) = match side {
            Side::A => (sys_a, 0),
            Side::B => (sys_b, sys_a.rules().len()),
        };
        run.verdict = "divergent".to_owned();
        run.witness_side = Some(side.label().to_owned());
        run.trace = Some(render_side_trace(trace, prod, side_sys, rule_offset));
        if let Some((db, product_run)) = witness {
            let (witness_side, local) = prod.project_run(product_run);
            debug_assert_eq!(witness_side, side);
            debug_assert!(
                side_sys.check_run(db, &local, true).is_ok(),
                "a projected divergence witness must replay on its own side"
            );
            run.witness_db = Some(db.to_string());
            run.witness_run = Some(local.to_string());
        }
    }
    run
}

/// Stepwise equivalence: the [`product::bisim`] layer-by-layer check.
fn bisim_pair<C: SymbolicClass>(
    class: &C,
    prod: &Product,
    sys_a: &System,
    sys_b: &System,
    max_configs: usize,
) -> PairReport {
    let check = product::bisim(class, prod, max_configs);
    let mut run = PairReport {
        name: String::new(),
        a_outcome: String::new(),
        b_outcome: String::new(),
        verdict: String::new(),
        witness_side: None,
        trace: None,
        witness_db: None,
        witness_run: None,
        detail: None,
        wall_ns: 0,
        configs_explored: check.configs_explored as u64,
        stats: None,
    };
    match check.outcome {
        BisimOutcome::Equivalent => {
            run.a_outcome = "stepwise-equal".to_owned();
            run.b_outcome = "stepwise-equal".to_owned();
            run.verdict = "equivalent".to_owned();
            run.detail = Some(format!(
                "stepwise equivalence established after {} layers",
                check.depth
            ));
        }
        BisimOutcome::Divergent { side, depth, trace } => {
            let (side_sys, rule_offset) = match side {
                Side::A => (sys_a, 0),
                Side::B => (sys_b, sys_a.rules().len()),
            };
            let (extra, missing) = ("extra-outcome".to_owned(), "missing-outcome".to_owned());
            (run.a_outcome, run.b_outcome) = match side {
                Side::A => (extra, missing),
                Side::B => (missing, extra),
            };
            run.verdict = "divergent".to_owned();
            run.witness_side = Some(side.label().to_owned());
            run.trace = Some(render_side_trace(&trace, prod, side_sys, rule_offset));
            run.detail = Some(format!(
                "accepting-configuration sets first differ at depth {depth}"
            ));
        }
        BisimOutcome::ResourceLimit => {
            run.a_outcome = "resource-limit".to_owned();
            run.b_outcome = "resource-limit".to_owned();
            run.verdict = "resource-limit".to_owned();
            run.detail = Some(format!(
                "undecided within the exploration bound (depth {} reached)",
                check.depth
            ));
        }
    }
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: &str = r#"
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
        }
    "#;

    /// BASE with the accepting entry rule severed: reaches nothing.
    fn severed() -> String {
        BASE.replace(
            "rule q1 -> end: x_old = x_new & x_new = y_old & y_old = y_new",
            "rule q1 -> end: x_old != x_old & x_new = y_old & y_old = y_new",
        )
    }

    #[test]
    fn self_equivalence() {
        let report = EquivRequest::new(BASE, BASE).run().unwrap();
        assert_eq!(report.verdict(), "equivalent");
        assert!(report.equivalent());
        let p = &report.pairs[0];
        assert_eq!(p.a_outcome, "nonempty");
        assert_eq!(p.b_outcome, "nonempty");
        assert!(p.witness_side.is_none());
    }

    #[test]
    fn divergence_names_the_reaching_side_with_replayable_witness() {
        let report = EquivRequest::new(BASE, severed()).run().unwrap();
        assert_eq!(report.verdict(), "divergent");
        let p = report.first_divergence().unwrap();
        assert_eq!(p.witness_side.as_deref(), Some("a"));
        assert!(p.trace.as_deref().unwrap().starts_with("start"));
        assert!(p.witness_db.is_some());
        assert!(p.witness_run.is_some());

        // Swapping the arguments flips the witness side.
        let flipped = EquivRequest::new(severed(), BASE).run().unwrap();
        assert_eq!(
            flipped.first_divergence().unwrap().witness_side.as_deref(),
            Some("b")
        );
    }

    #[test]
    fn verdicts_and_stats_are_thread_stable() {
        let seq = EquivRequest::new(BASE, severed()).run().unwrap();
        for threads in [2, 4, 8] {
            let par = EquivRequest::new(BASE, severed())
                .options(RunOptions {
                    threads,
                    ..RunOptions::default()
                })
                .run()
                .unwrap();
            assert_eq!(seq.pairs[0].verdict, par.pairs[0].verdict);
            assert_eq!(seq.pairs[0].trace, par.pairs[0].trace);
            assert_eq!(seq.pairs[0].witness_run, par.pairs[0].witness_run);
            assert_eq!(seq.pairs[0].stats, par.pairs[0].stats);
            assert_eq!(
                seq.fingerprint, par.fingerprint,
                "threads must not split the cache key"
            );
        }
    }

    #[test]
    fn bisim_mode_decides_both_directions() {
        let eq = EquivRequest::new(BASE, BASE).bisim(true).run().unwrap();
        assert_eq!(eq.verdict(), "equivalent");
        assert_eq!(eq.pairs[0].a_outcome, "stepwise-equal");

        let div = EquivRequest::new(BASE, severed())
            .bisim(true)
            .run()
            .unwrap();
        assert_eq!(div.verdict(), "divergent");
        assert_eq!(div.pairs[0].witness_side.as_deref(), Some("a"));
        assert!(div.pairs[0].detail.as_deref().unwrap().contains("depth"));
    }

    #[test]
    fn budget_exhaustion_is_resource_limit() {
        let report = EquivRequest::new(BASE, BASE)
            .options(RunOptions {
                max_configs: 1,
                ..RunOptions::default()
            })
            .run()
            .unwrap();
        assert_eq!(report.verdict(), "resource-limit");
    }

    #[test]
    fn schema_mismatch_is_structured() {
        let other = BASE.replace(
            "relation red/1",
            "relation red/1\n          relation blue/1",
        );
        let err = EquivRequest::new(BASE, other).run().unwrap_err();
        assert_eq!(err.code(), "schema-mismatch");
        assert!(err.to_string().contains("red/1"));
        assert!(err.to_string().contains("blue/1"));
    }

    #[test]
    fn class_mismatch_is_structured() {
        let other = BASE
            .replace("class free", "class linear-order")
            .replace(
                "schema {\n          relation E/2\n          relation red/1\n        }\n",
                "",
            )
            .replace("E(y_old, y_new) & red(y_new)", "y_old < y_new");
        let err = EquivRequest::new(BASE, other).run().unwrap_err();
        assert_eq!(err.code(), "class-mismatch");
        assert!(err.to_string().contains("free"));
        assert!(err.to_string().contains("linear-order"));
    }

    #[test]
    fn register_and_property_mismatches_are_structured() {
        let err = EquivRequest::new(BASE, BASE.replace("registers x y", "registers x y z"))
            .run()
            .unwrap_err();
        assert_eq!(err.code(), "register-mismatch");

        let err = EquivRequest::new(BASE, BASE.replace("property reach", "property other"))
            .run()
            .unwrap_err();
        assert_eq!(err.code(), "property-mismatch");
        assert!(err.to_string().contains("reach"));
        assert!(err.to_string().contains("other"));
    }

    #[test]
    fn non_reach_properties_are_unsupported() {
        let elim = BASE.replace(
            "property reach {\n          accept end\n        }",
            "property reach {\n          kind elim\n          accept end\n        }",
        );
        let err = EquivRequest::new(elim.clone(), elim).run().unwrap_err();
        assert_eq!(err.code(), "unsupported");
        assert!(err.to_string().contains("elim"));
    }

    #[test]
    fn line_offsets_do_not_break_comparability() {
        let shifted = format!("\n\n\n{BASE}");
        let report = EquivRequest::new(BASE, shifted).run().unwrap();
        assert_eq!(report.verdict(), "equivalent");
    }

    #[test]
    fn parse_errors_carry_the_right_label() {
        let err = EquivRequest::new(BASE, "system broken\nclass free\n")
            .labels("good.dds", "bad.dds")
            .run()
            .unwrap_err();
        assert_eq!(err.code(), "spec-error");
        assert!(err.to_string().starts_with("bad.dds"));
    }
}
