//! # dds-core
//!
//! The paper's central method (§4): deciding emptiness of database-driven
//! systems over **Fraïssé classes** by searching *small configurations* and
//! stitching them together with amalgamation (Theorem 5).
//!
//! ## The method, executably
//!
//! A class `C` of databases is Fraïssé when it is closed under embeddings and
//! amalgamation and has the joint embedding property. Theorem 5: emptiness
//! over such a `C` is decidable in space `log n · poly(blowup_C(2k))`. The
//! nondeterministic algorithm walks configurations `(B, q, val)` where `B` is
//! the member of `C` generated by the register values; a *sub-transition*
//! between small configurations is witnessed by an amalgam `A ∈ C` embedding
//! both sides and satisfying the guard. Soundness glues the witnesses back
//! into one database by induction on amalgamation; completeness restricts a
//! real run to the register-generated substructures.
//!
//! This crate determinises that algorithm:
//!
//! * [`SymbolicClass`] — what the engine needs from a class: enumerate
//!   canonical `k`-generated configurations and the sub-transition successors
//!   under a guard ([`class`]);
//! * [`Engine`] — BFS with canonical hashing, witness traces, statistics, and
//!   end-to-end **witness concretization**: for every non-empty answer the
//!   engine replays the trace into an actual database plus run, re-validated
//!   by the independent explicit model checker ([`engine`]);
//! * [`amalgam`] — the shared enumeration machinery for relational classes
//!   (point placements, guard-driven amalgam completion), used by:
//!   * [`FreeRelationalClass`] — all finite databases over a relational
//!     schema,
//!   * [`HomClass`] — `HOM(H)` via the paper's colored lift (Lemma 7,
//!     Theorem 4),
//!   * [`DataClass`] — the data-value products `C ⊗ F` and `C ⊙ F` for the
//!     homogeneous structures `⟨ℕ,=⟩` and `⟨ℚ,<⟩` (Proposition 1,
//!     Corollary 8). Example 3's classes are products over the empty free
//!     class: finite linear orders are `⊙ ⟨ℚ,<⟩`
//!     ([`DataClass::linear_order`]; the setting of Segoufin–Toruńczyk) and
//!     finite equivalence relations `⊗ ⟨ℕ,=⟩`
//!     ([`DataClass::equivalence`]).
//!
//! The word and tree instantiations (Theorems 10 and 3) implement
//! [`SymbolicClass`] in their own crates on top of this engine.
//!
//! **Paper coverage:** §3–§4 — Fraïssé classes and amalgamation (§3),
//! the Theorem 5 small-configuration procedure (§4.1–§4.2), the colored
//! lift for `HOM(H)` (Lemma 7, Theorem 4, §4.3), and the data-value
//! products (Proposition 1, Corollary 8, §4.4).

#![warn(missing_docs)]

pub mod amalgam;
pub mod class;
pub mod data;
pub mod engine;
pub mod free;
pub mod hom;
pub mod intern;
mod pool;
pub mod product;

pub use amalgam::AmalgamClass;
pub use class::{Pointed, RelConfig, SymbolicClass, Trace, TraceStep};
pub use data::{DataClass, DataSpec};
pub use engine::{
    Engine, EngineOptions, EngineStats, LayerWidths, MultiOutcome, Outcome, ParallelMode,
    TargetStatus,
};
pub use free::FreeRelationalClass;
pub use hom::HomClass;
pub use intern::{ConfigId, Interner};
