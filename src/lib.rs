//! # dds — Verification of Database-Driven Systems via Amalgamation
//!
//! A full Rust reproduction of *"Verification of database-driven systems via
//! amalgamation"* (Mikołaj Bojańczyk, Luc Segoufin, Szymon Toruńczyk,
//! PODS 2013).
//!
//! Database-driven systems are register automata whose transition guards are
//! quantifier-free first-order formulas querying a read-only database drawn
//! from a class `C`. The paper shows that whenever `C` is (semi-)Fraïssé —
//! closed under embeddings and amalgamation — emptiness ("is there a database
//! in `C` driving an accepting run?") is decidable by a search over *small
//! configurations* (Theorem 5), and instantiates this for relational
//! databases with templates (Theorem 4), regular word languages
//! (Theorem 10), regular tree languages / XML (Theorem 3) and data values
//! (Corollary 8, Theorem 9).
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`structure`] — finite structures, morphisms, canonical forms;
//! * [`logic`] — quantifier-free / existential guards, parser, evaluation;
//! * [`system`] — database-driven systems, runs, explicit model checking,
//!   the Fact 2 guard elimination, and brute-force baselines;
//! * [`core`] — the Fraïssé framework: the [`core::SymbolicClass`] trait, the
//!   Theorem 5 engine, relational classes (free, `HOM(H)`), and data-value
//!   products — among them Example 3's linear orders and equivalence
//!   relations ([`core::DataClass::linear_order`],
//!   [`core::DataClass::equivalence`]);
//! * [`words`] — Theorem 10 for regular word languages;
//! * [`trees`] — Theorem 3 for regular tree languages;
//! * [`reductions`] — the undecidability encodings of §6.
//!
//! ## Quickstart
//!
//! The paper's Example 1 — a system whose accepting runs trace odd-length
//! red cycles — checked over all finite graphs:
//!
//! ```
//! use dds::prelude::*;
//!
//! // Schema: one edge relation, one color predicate.
//! let mut schema = Schema::new();
//! schema.add_relation("E", 2).unwrap();
//! schema.add_relation("red", 1).unwrap();
//! let schema = schema.finish();
//!
//! // The system of Example 1.
//! let mut b = SystemBuilder::new(schema.clone(), &["x", "y"]);
//! b.state("start").initial();
//! b.state("q0");
//! b.state("q1");
//! b.state("end").accepting();
//! b.rule("start", "q0", "x_old = x_new & x_new = y_old & y_old = y_new").unwrap();
//! b.rule("q0", "q1", "x_old = x_new & E(y_old, y_new) & red(y_new)").unwrap();
//! b.rule("q1", "q0", "x_old = x_new & E(y_old, y_new) & red(y_new)").unwrap();
//! b.rule("q1", "end", "x_old = x_new & x_new = y_old & y_old = y_new").unwrap();
//! let system = b.finish().unwrap();
//!
//! // Theorem 5 over the free class of all finite databases.
//! let class = FreeRelationalClass::new(schema);
//! let outcome = Engine::new(&class, &system).run();
//! assert!(outcome.is_nonempty()); // some graph has an odd red cycle
//! ```

pub use dds_core as core;
pub use dds_logic as logic;
pub use dds_reductions as reductions;
pub use dds_structure as structure;
pub use dds_system as system;
pub use dds_trees as trees;
pub use dds_words as words;

/// Convenient glob-import of the most common types.
///
/// Construct [`EngineOptions`](dds_core::EngineOptions) through its
/// builder — `EngineOptions::default().threads(4).max_configs(100_000)` —
/// rather than as a field-struct literal; literal construction is
/// deprecated and will stop compiling when a private field is added.
pub mod prelude {
    pub use dds_core::{
        DataClass, DataSpec, Engine, EngineOptions, EngineStats, FreeRelationalClass, HomClass,
        Outcome, SymbolicClass,
    };
    pub use dds_logic::{Formula, Term, Var};
    pub use dds_structure::{Element, Schema, Structure, SymbolId};
    pub use dds_system::{System, SystemBuilder};
    pub use dds_trees::{TreeAutomaton, TreeClass};
    pub use dds_words::{Nfa, WordClass};
}
