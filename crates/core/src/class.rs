//! The interface between the Theorem 5 engine and a (semi-)Fraïssé class.

use crate::intern::{Interner, Resolved};
use dds_structure::{
    canonicalize_generated_relational, canonicalize_pointed, CanonicalKey, Element, Schema,
    Structure,
};
use dds_system::{Run, StateId, System};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// A structure with a distinguished tuple of elements (the register values).
///
/// Configurations of the paper's algorithm are pointed structures generated
/// by their points; amalgams are pointed structures whose points are the
/// *new* register values.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Pointed {
    /// The underlying structure.
    pub structure: Structure,
    /// The distinguished tuple (length = number of registers).
    pub points: Vec<Element>,
}

impl Pointed {
    /// Creates a pointed structure, checking the points are in range.
    pub fn new(structure: Structure, points: Vec<Element>) -> Pointed {
        assert!(
            points.iter().all(|p| p.index() < structure.size()),
            "Pointed::new: point outside domain"
        );
        Pointed { structure, points }
    }

    /// Restricts to the substructure *generated by* the points — the "small
    /// configuration" of Theorem 5.
    pub fn generated(&self) -> Pointed {
        let (sub, old_names) = self.structure.generated(&self.points);
        // Remap points through the new→old name list.
        let points = self
            .points
            .iter()
            .map(|p| {
                Element::from_index(
                    old_names
                        .iter()
                        .position(|o| o == p)
                        .expect("points are in their own closure"),
                )
            })
            .collect();
        Pointed {
            structure: sub,
            points,
        }
    }
}

/// A canonical small configuration over a relational-style class: the
/// canonical representative of a pointed structure (over the class's
/// *internal* schema, e.g. the colored lift for `HOM`), hashed by canonical
/// key.
#[derive(Clone)]
pub struct RelConfig {
    /// Canonical representative (elements renumbered canonically).
    pub pointed: Pointed,
    key: CanonicalKey,
}

impl RelConfig {
    /// Canonicalizes a pointed structure (must be generated by its points).
    pub fn canonical(p: &Pointed) -> RelConfig {
        let (s, points, key) = canonicalize_pointed(&p.structure, &p.points);
        RelConfig {
            pointed: Pointed {
                structure: s,
                points,
            },
            key,
        }
    }

    /// The configuration `points` generate inside a relational structure,
    /// canonicalized in one pass: equal to (and with the same representative
    /// as) `RelConfig::canonical(&Pointed::new(s.clone(), points).generated())`
    /// without building the generated substructure first.
    ///
    /// # Panics
    /// Panics when the schema has function symbols.
    pub fn generated_by(s: &Structure, points: &[Element]) -> RelConfig {
        let (s, points, key) = canonicalize_generated_relational(s, points);
        RelConfig {
            pointed: Pointed {
                structure: s,
                points,
            },
            key,
        }
    }

    /// The canonical key.
    pub fn key(&self) -> &CanonicalKey {
        &self.key
    }

    /// The precomputed 64-bit hash of the canonical key (what the engine's
    /// interner probes with — see [`CanonicalKey::hash64`]).
    pub fn key_hash(&self) -> u64 {
        self.key.hash64()
    }
}

impl PartialEq for RelConfig {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for RelConfig {}
impl Hash for RelConfig {
    /// Feeds the key hash as a single `u64`, so the interner's probe hash
    /// of a configuration equals that of its [`RelConfig::key_hash`] —
    /// which is how successors are probed before they are built.
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key_hash().hash(state);
    }
}
impl fmt::Debug for RelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RelConfig({:?} @ {:?})",
            self.pointed.structure, self.pointed.points
        )
    }
}

/// One step of a witness trace: the configuration reached, the control state,
/// and the index of the rule used to arrive (None for the initial step).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep<C> {
    /// Control state at this step.
    pub state: StateId,
    /// Small configuration at this step.
    pub config: C,
    /// Index into `system.rules()` of the rule taken to arrive here.
    pub rule: Option<usize>,
}

/// A witness trace: the sequence of small configurations the engine walked
/// from an initial to an accepting state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Trace<C> {
    /// Steps in run order (first is initial, last is accepting).
    pub steps: Vec<TraceStep<C>>,
}

impl<C> Trace<C> {
    /// Number of configurations.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the trace has no steps (never produced by the engine).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

/// What the Theorem 5 engine requires of a class of databases.
///
/// Implementations must guarantee, for soundness and completeness of the
/// engine (mirroring the paper's proof):
///
/// * `initial_configs(k)` enumerates, up to the configuration equality, every
///   `k`-pointed member of the class generated by its points;
/// * `transitions(cfg, guard)` enumerates every configuration `B'` such that
///   some amalgam `A` in the class embeds `cfg` and `B'` with `A ⊨ guard`
///   under the combined old/new valuation (old = `cfg`'s points, new = `B'`'s
///   points), where `B'` is generated by the new points;
/// * the class is closed under embeddings and amalgamation, so that chains of
///   sub-transitions glue into one database (Theorem 5's soundness).
///
/// The `Sync` supertrait and the `Send + Sync` bound on
/// [`SymbolicClass::Config`] let the engine's parallel frontier share the
/// class across [`std::thread::scope`] workers and move successor
/// configurations back to the merge thread. Classes are plain immutable data
/// (structures, schemas, automata), so every implementation satisfies the
/// bounds automatically; `transitions` and `successors` must stay pure
/// functions of their arguments — the parallel engine may call them
/// speculatively and in any order.
pub trait SymbolicClass: Sync {
    /// Canonical small configuration.
    type Config: Clone + Eq + Hash + fmt::Debug + Send + Sync;

    /// The *public* schema guards are written against.
    fn schema(&self) -> &Arc<Schema>;

    /// All `k`-generated configurations (initial configurations may carry any
    /// register valuation, so every `k`-generated member can start a run).
    fn initial_configs(&self, k: usize) -> Vec<Self::Config>;

    /// Sub-transition successors of `cfg` under `guard` (quantifier-free).
    fn transitions(&self, cfg: &Self::Config, guard: &dds_logic::Formula) -> Vec<Self::Config>;

    /// [`SymbolicClass::transitions`], resolved against the search's
    /// interner: the same successors in the same order, each as the id
    /// `known` holds it under or, when `known` lacks it, as a fresh value
    /// with its probe hash. This is the one call the engine makes, inline
    /// and on pool workers alike.
    ///
    /// The result depends on `known` only through that Interned/Fresh
    /// split, so interning the fresh entries in list order yields the ids
    /// interning `transitions` would. The default is exactly that:
    /// `transitions`, then one lookup per successor. Overrides (the
    /// relational classes) resolve each candidate by its canonical key and
    /// build only the configurations `known` lacks.
    fn successors(
        &self,
        cfg: &Self::Config,
        guard: &dds_logic::Formula,
        known: &Interner<Self::Config>,
    ) -> Vec<Resolved<Self::Config>> {
        self.transitions(cfg, guard)
            .into_iter()
            .map(|succ| {
                let hash = Interner::hash_value(&succ);
                match known.lookup_prehashed(&succ, hash) {
                    Some(id) => Resolved::Interned(id),
                    None => Resolved::Fresh(Box::new(succ), hash),
                }
            })
            .collect()
    }

    /// A concrete pointed structure over the public schema representing the
    /// configuration (for display and debugging).
    fn materialize(&self, cfg: &Self::Config) -> Pointed;

    /// Replays a trace into a concrete database and run over the public
    /// schema, when the class supports it. The engine re-validates the
    /// result with the explicit model checker, so implementations may be
    /// best-effort; `None` simply skips certification.
    fn concretize(
        &self,
        _system: &System,
        _trace: &Trace<Self::Config>,
    ) -> Option<(Structure, Run)> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dds_structure::Schema;

    #[test]
    fn generated_restricts_to_point_closure() {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let schema = s.finish();
        let mut g = Structure::new(schema, 3);
        g.add_fact(e, &[Element(1), Element(2)]).unwrap();
        g.add_fact(e, &[Element(0), Element(1)]).unwrap();
        let p = Pointed::new(g, vec![Element(2), Element(1)]);
        let small = p.generated();
        assert_eq!(small.structure.size(), 2);
        assert_eq!(small.points, vec![Element(1), Element(0)]);
        assert!(small.structure.holds(e, &[Element(0), Element(1)]));
        assert_eq!(small.structure.fact_count(), 1);
    }

    #[test]
    fn rel_config_probe_hash_is_that_of_its_key_hash() {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let mut g = Structure::new(s.finish(), 2);
        g.add_fact(e, &[Element(1), Element(0)]).unwrap();
        let cfg = RelConfig::generated_by(&g, &[Element(1), Element(0)]);
        assert_eq!(
            Interner::hash_value(&cfg),
            crate::intern::probe_hash(&cfg.key_hash())
        );
        // Boxing `Fresh` keeps resolved successor lists compact.
        assert_eq!(std::mem::size_of::<Resolved<RelConfig>>(), 16);
    }

    #[test]
    fn rel_config_equality_is_pointed_isomorphism() {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let schema = s.finish();
        let mut a = Structure::new(schema.clone(), 2);
        a.add_fact(e, &[Element(0), Element(1)]).unwrap();
        let mut b = Structure::new(schema, 2);
        b.add_fact(e, &[Element(1), Element(0)]).unwrap();
        let ca = RelConfig::canonical(&Pointed::new(a.clone(), vec![Element(0), Element(1)]));
        let cb = RelConfig::canonical(&Pointed::new(b, vec![Element(1), Element(0)]));
        assert_eq!(ca, cb);
        let cc = RelConfig::canonical(&Pointed::new(a, vec![Element(1), Element(0)]));
        assert_ne!(ca, cc);
    }
}
