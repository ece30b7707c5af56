//! # dds-gen
//!
//! Seeded random scenario generation and differential checking for the
//! whole reproduction — the safety net every engine refactor runs behind.
//!
//! The paper's central claim is an asymmetry: the amalgamation engine
//! *decides* emptiness, while brute-force enumeration only approximates it
//! up to a bound. That asymmetry is also exactly what makes the engine easy
//! to get wrong silently — a pruning bug shows up not as a crash but as a
//! wrong `empty`. This crate closes the loop by generating random systems
//! across every supported structure class and racing the engine against the
//! bounded oracles:
//!
//! * [`generate::generate_seeded`] — deterministic scenario generation for
//!   all eight class families (free relational, `HOM(H)`, equivalence
//!   relations, linear orders, regular words, regular trees, data-value
//!   products, §6 counter machines);
//! * [`scenario::Scenario`] — the generated system as plain data, with
//!   [`scenario::Scenario::render`] emitting `.dds` text and
//!   [`scenario::Scenario::build`] producing engine inputs: an [`AnyClass`]
//!   plus the system;
//! * [`AnyClass`] — every class the engine runs over, shared with the
//!   `.dds` lowering in `dds-cli`, and
//!   [`with_symbolic_class!`](crate::with_symbolic_class), the one dispatch
//!   that makes the same generic call on each symbolic class;
//! * [`diff::check`] — four-way engine agreement (1 vs N threads, certify
//!   vs no-certify) plus brute-force baselines and witness replay;
//! * [`shrink::minimize`] — greedy minimization of failing scenarios.
//!
//! The `dds fuzz` subcommand (`crates/cli`) drives these pieces and adds
//! the spec-language round-trip property: *generated system → rendered
//! `.dds` → parse → lower* must reproduce the built system rule-for-rule.

#![warn(missing_docs)]

pub mod class;
pub mod diff;
pub mod generate;
pub mod macro_gen;
pub mod mutate;
pub mod rng;
pub mod scenario;
pub mod shrink;

pub use class::AnyClass;
pub use diff::{check, DiffOptions, DiffReport};
pub use generate::generate_seeded;
pub use macro_gen::{macro_suite, MacroScenario};
pub use mutate::Mutation;
pub use rng::FuzzRng;
pub use scenario::{Built, ClassKind, DataValuesKind, Scenario, ScenarioClass};
