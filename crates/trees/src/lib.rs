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
//!   `rightmost_q` child pointers are abstracted away. `NonEmpty` answers
//!   are certified by concretizing through the bounded baseline and
//!   re-validating with the explicit model checker. `Empty` answers are
//!   **not known to be sound**: each new register gets one fresh node, and
//!   the successor is closed under the pointers computed inside that
//!   amalgam, so a step whose new points have `ancestormost` or
//!   `descendantmost` nodes outside both configurations is missed, and the
//!   class can answer `Empty` for a system with an accepting run. The
//!   cross-validation suite agrees with the bounded baseline on the
//!   evaluation workloads, which does not rule that out. See DESIGN.md §8.

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
