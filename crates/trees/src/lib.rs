//! # dds-trees
//!
//! Theorem 3: emptiness of database-driven systems over **regular tree
//! languages** (the XML case). A tree `t` is the database `Treedb(t)`:
//! nodes with label predicates, the descendant order `≼` (written `<=` in
//! guards), document order (`doc`, written `<<`) and the closest-common-
//! ancestor function `cca` (§3.1). Child/sibling axes are deliberately
//! absent — adding any of them is undecidable (§6.1).
//!
//! ## What is implemented
//!
//! * the paper's unranked tree automata with leaf/root/rightmost state sets
//!   and firstchild/nextsibling relations ([`automaton`]), including the
//!   derived relations: groundability, `kid`/`→v`/`→h` reachability,
//!   descendant and horizontal components, branching/linear classification
//!   and the `left(Γ)`/`right(Γ)` sets (Lemma 22);
//! * concrete runs, the pointer functions of §5.4 (`leftmost_q`,
//!   `rightmost_q`, `ancestormost_Γ`, `descendantmost_Γ`), pointer closure
//!   of node sets and the blowup measurement of Lemma 14 ([`pointers`]);
//! * the local run characterization of Lemma 23 ([`TreeAutomaton::is_run`](automaton::TreeAutomaton::is_run));
//! * exhaustive enumeration of accepted runs up to a size bound and the
//!   brute-force emptiness baseline ([`baseline`]);
//! * the symbolic [`TreeClass`] for the `dds-core` engine ([`class`]):
//!   configurations are *tree patterns* (cca-closed node sets with induced
//!   descendant/document order and states). Pattern validity implements the
//!   necessary conditions derived from the pointer discipline (edge
//!   components restricted by `ancestormost` closure, linear-component
//!   chains, per-node sibling-chain feasibility); the `leftmost_q` /
//!   `rightmost_q` child pointers are abstracted away. One pointer-closed
//!   glue builds both the initial patterns and the successors: a new point
//!   may bring its `ancestormost` and `descendantmost` nodes along as fresh
//!   nodes, since in a real run they can lie outside both configurations.
//!   `NonEmpty` answers are certified by concretizing through the bounded
//!   baseline and re-validating with the explicit model checker. `Empty`
//!   answers rest on the glue finding every step of a real run.
//!   `tests/completeness_oracle.rs` checks exactly that for every accepted
//!   run of at most 6 nodes over the corpus automata, with up to 2
//!   registers, and the cross-validation suite agrees with the bounded
//!   baseline on the evaluation workloads. Neither is a proof for larger
//!   runs (see `ARCHITECTURE.md`, "The engine core").

pub mod automaton;
pub mod baseline;
pub mod class;
pub mod pattern;
pub mod pointers;
pub mod tree;

pub use automaton::TreeAutomaton;
pub use class::TreeClass;
pub use pattern::TreePattern;
pub use tree::Tree;
