//! # dds-cli
//!
//! The `.dds` specification language and the `dds` command-line verifier —
//! the textual front-end to the whole reproduction of *"Verification of
//! database-driven systems via amalgamation"* (PODS 2013). Where the other
//! crates cover individual paper sections, this crate covers the paper's
//! *usage mode*: §2's systems and §3's classes written down declaratively
//! and decided by the Theorem 5 engine.
//!
//! A `.dds` file declares a schema, a structure class (free relational /
//! `HOM(H)` / linear orders / equivalence relations / regular words /
//! regular trees / data-value products, plus the §6 counter machines),
//! registers, control states, guarded transition rules and one or more
//! properties. The pipeline is:
//!
//! 1. [`parse::parse_spec`] — concrete syntax to [`ast::Spec`];
//! 2. [`lower::lower`] — AST to an [`AnyClass`] and one
//!    [`dds_system::System`] per property (the *same* `System` values the
//!    programmatic builders produce — pinned by `tests/cli_cross_validation.rs`).
//!    `AnyClass` is defined in `dds_gen`, whose generator builds the same
//!    values, and re-exported here;
//! 3. [`runner::run_spec`] — dispatch to [`dds_core::Engine`] through
//!    [`dds_gen::with_symbolic_class!`] (or the Fact 2 eliminator, the
//!    Lemma 14 pointer closure, the Fact 15 bounded search) and collect
//!    [`runner::SpecReport`]s;
//! 4. [`render`] — human-readable text or JSON records in the
//!    `BENCH_E1_E10.json` shape.
//!
//! The language reference lives in `docs/SPEC_LANGUAGE.md`; the spec corpus
//! under `specs/` exercises every construct.
//!
//! The [`fuzz`] module drives the pipeline backwards as well: `dds fuzz`
//! generates random scenarios (`dds_gen`), renders them as `.dds` text, and
//! requires parse + lower to reproduce the directly-built systems
//! rule-for-rule — on top of four-way engine agreement and brute-force
//! baseline checks.
//!
//! Two more layers sit on top of the pipeline:
//!
//! * [`api`] — the embeddable library surface
//!   ([`api::VerifyRequest`] → [`api::VerifyReport`]): no I/O, no
//!   printing, no exiting, structured [`api::RunError`] values, and the
//!   content fingerprint the result cache keys on. The CLI, the server
//!   and the bench/load harnesses all verify through it.
//! * [`serve`] — `dds serve`, a long-running multi-tenant daemon:
//!   HTTP/1.1 over [`std::net`], a bounded worker pool, per-request
//!   timeouts, and a single-flight content-hash result cache. Responses
//!   are the exact [`render::json`] documents the CLI prints.

#![warn(missing_docs)]

use std::fmt;

pub mod api;
pub mod ast;
pub mod equiv;
pub mod fuzz;
pub mod json;
pub mod lower;
pub mod parse;
pub mod render;
pub mod runner;
pub mod serve;

pub use api::{RunError, VerifyReport, VerifyRequest};
pub use ast::Spec;
pub use equiv::{EquivError, EquivReport, EquivRequest, PairReport};
pub use lower::{lower, AnyClass, Lowered, LoweredProperty, Task};
pub use parse::parse_spec;
pub use runner::{run_spec, PropertyReport, RunOptions, SpecReport};
pub use serve::{ServeOptions, Server};

/// An error in a `.dds` specification: where and what.
///
/// `Display` prints `line <n>: <msg>`; callers that know the file path
/// prepend it (`path:<n>: <msg>`, the format the golden error snapshots
/// pin).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError {
    /// 1-based source line, when attributable.
    pub line: Option<usize>,
    /// Human-readable message (see the catalogue in `docs/SPEC_LANGUAGE.md`).
    pub msg: String,
}

impl SpecError {
    /// Renders with the source path prepended: `specs/x.dds:12: message`.
    pub fn with_path(&self, path: &str) -> String {
        match self.line {
            Some(n) => format!("{path}:{n}: {}", self.msg),
            None => format!("{path}: {}", self.msg),
        }
    }
}

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.line {
            Some(n) => write!(f, "line {n}: {}", self.msg),
            None => write!(f, "{}", self.msg),
        }
    }
}

impl std::error::Error for SpecError {}

/// Parses and lowers a spec source in one step.
pub fn load_spec(src: &str) -> Result<Lowered, SpecError> {
    lower(&parse_spec(src)?)
}
