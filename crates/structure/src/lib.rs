//! # dds-structure
//!
//! Finite first-order structures ("databases") over schemas with relation and
//! function symbols, as used throughout *"Verification of database-driven
//! systems via amalgamation"* (Bojańczyk, Segoufin, Toruńczyk, PODS 2013).
//!
//! The paper models a database as a finite structure `A` over a schema `σ`:
//! a finite domain together with an interpretation of every relation symbol
//! as a relation and every function symbol as a **total** function on the
//! domain (§2). This crate provides:
//!
//! * [`Schema`] — declarations of relation/function symbols with arities;
//! * [`Structure`] — a finite structure with mutation and query APIs;
//! * substructure machinery — [`Structure::closure`] (closing a subset under
//!   the function symbols) and [`Structure::generated`] (the induced
//!   substructure generated by a seed set, §4.1 "n-generated");
//! * morphisms — homomorphism / embedding / isomorphism checks and
//!   backtracking search ([`morphism`]);
//! * a brute-force canonical key for *pointed* structures ([`canon`]), the
//!   reference the engine's canonical configurations are tested against;
//! * exhaustive enumeration of small structures ([`enumerate`]), used by the
//!   brute-force baselines that cross-validate the symbolic algorithms.
//!
//! Structures here are small by design (the amalgamation algorithm only ever
//! manipulates structures generated by at most `2k` register values), so the
//! representation favours determinism and clarity: relations are ordered sets
//! of tuples, functions are ordered maps. Determinism matters because
//! canonical configurations and every rendered artifact are derived from
//! iteration order.

pub mod canon;
pub mod element;
pub mod enumerate;
pub mod error;
pub mod morphism;
pub mod schema;
pub mod structure;

pub use canon::canonical_key_general;
pub use element::Element;
pub use error::StructureError;
pub use schema::{Schema, SymbolId, SymbolKind};
pub use structure::Structure;
