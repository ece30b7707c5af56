//! The interface between the Theorem 5 engine and a (semi-)Fraïssé class.

use crate::intern::{Interner, Resolved};
use dds_structure::{Element, Schema, Structure, SymbolId};
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
/// substructure a pointed structure's points generate (over the class's
/// *internal* schema, e.g. the colored lift for `HOM`), with its points
/// numbered by first occurrence. The schema is relational, so that
/// substructure is the one induced on the points, and the numbering makes
/// the representative canonical: two configurations are equal exactly when
/// their representatives are. The packed key ([`RelConfig::packed`]) is
/// only the representative's probe word, kept where its layout fits in 64
/// bits.
#[derive(Clone)]
pub struct RelConfig {
    /// Canonical representative: the points are numbered by first
    /// occurrence, and the elements are exactly the distinct points.
    pub pointed: Pointed,
    packed: Option<u64>,
}

impl RelConfig {
    /// The configuration `points` generate inside a relational structure:
    /// the points numbered by first occurrence, then the facts induced on
    /// them copied under that numbering.
    ///
    /// # Panics
    /// Panics when the schema has function symbols.
    pub fn generated_by(s: &Structure, points: &[Element]) -> RelConfig {
        assert!(s.schema().is_relational(), "generated_by: function symbols");
        let mut order = Vec::with_capacity(points.len());
        point_numbers(points, &mut order);
        let number = |e| order.iter().position(|u| u == e).map(Element::from_index);
        let mut structure = Structure::new(s.schema().clone(), order.len());
        for r in s.schema().relations() {
            for t in s.rel_tuples(r) {
                if let Some(row) = t.iter().map(number).collect::<Option<Vec<_>>>() {
                    structure.add_fact(r, &row).expect("numbers are in range");
                }
            }
        }
        let packed = PackedLayout::new(s.schema(), points.len(), order.len())
            .map(|layout| layout.key(s, points, &order));
        RelConfig {
            pointed: Pointed {
                structure,
                points: points.iter().filter_map(number).collect(),
            },
            packed,
        }
    }

    /// The *packed key*, when it fits in 64 bits: a pattern field holds
    /// each register's number, and one bit per tuple over the numbers (per
    /// relation, in schema order) tells whether the fact holds. Two
    /// configurations with the same number of points have equal packed keys
    /// exactly when they are equal, and the key depends only on the new
    /// points' pattern and the facts among them, so a candidate's key is
    /// known before its configuration is built.
    pub fn packed(&self) -> Option<u64> {
        self.packed
    }
}

impl PartialEq for RelConfig {
    fn eq(&self, other: &Self) -> bool {
        // The packed key is a function of the representative: unequal keys
        // settle most unequal pairs.
        self.packed == other.packed && self.pointed == other.pointed
    }
}
impl Eq for RelConfig {}
impl Hash for RelConfig {
    /// Feeds the packed key alone when there is one, so the interner's
    /// probe hash of a configuration is that of the word — which is how
    /// successors are probed before they are built. Whether a configuration
    /// has a packed key depends only on its register count, its number of
    /// distinct points and its schema, so every candidate generating it is
    /// probed the same way. Otherwise the representative's points and rows.
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self.packed {
            Some(packed) => packed.hash(state),
            None => {
                let s = &self.pointed.structure;
                self.pointed.points.hash(state);
                for r in s.schema().relations() {
                    s.rel_len(r).hash(state);
                    s.rel_tuples(r).for_each(|t| t.hash(state));
                }
            }
        }
    }
}

/// Where a packed key keeps its fields, for configurations over one schema
/// with `k` points of which `n` are distinct (see [`RelConfig::packed`]).
#[derive(Clone, Debug)]
pub(crate) struct PackedLayout {
    /// Bits per register in the pattern field.
    pattern_bits: u32,
    /// Per relation (by symbol index), the bit of its first tuple.
    offsets: Vec<u32>,
    n: u64,
}

impl PackedLayout {
    /// The layout, or `None` when it does not fit in 64 bits or the schema
    /// has function symbols.
    pub(crate) fn new(schema: &Schema, k: usize, n: usize) -> Option<PackedLayout> {
        if !schema.is_relational() {
            return None;
        }
        let pattern_bits = usize::BITS - k.saturating_sub(1).leading_zeros();
        let mut width = u64::from(pattern_bits) * k as u64;
        let mut offsets = Vec::with_capacity(schema.len());
        for r in schema.relations() {
            offsets.push(width as u32);
            width = (n as u64)
                .checked_pow(u32::try_from(schema.arity(r)).ok()?)
                .and_then(|tuples| width.checked_add(tuples))
                .filter(|&w| w <= 64)?;
        }
        Some(PackedLayout {
            pattern_bits,
            offsets,
            n: n as u64,
        })
    }

    /// The packed key of the configuration `points` generate in `s`, where
    /// `numbered` lists the distinct points ([`point_numbers`]).
    pub(crate) fn key(&self, s: &Structure, points: &[Element], numbered: &[Element]) -> u64 {
        let mut key = 0;
        for (i, p) in points.iter().enumerate() {
            let num = numbered.iter().position(|u| u == p).expect("a point");
            key |= (num as u64) << (i as u32 * self.pattern_bits);
        }
        for r in s.schema().relations() {
            for t in s.rel_tuples(r) {
                key |= self.fact_bit(r, t, numbered);
            }
        }
        key
    }

    /// The bit of the fact `rel(tuple)`: the tuple's rank among `rel`'s
    /// tuples, its elements' positions in `numbered` read as a base-`n`
    /// number. 0 when an element of the tuple is not numbered.
    pub(crate) fn fact_bit(&self, rel: SymbolId, tuple: &[Element], numbered: &[Element]) -> u64 {
        let mut rank = 0;
        for e in tuple {
            match numbered.iter().position(|u| u == e) {
                Some(num) => rank = rank * self.n + num as u64,
                None => return 0,
            }
        }
        1 << (u64::from(self.offsets[rel.index()]) + rank)
    }
}

/// The distinct elements of `points` in first-occurrence order: an
/// element's position is its number in a packed key.
pub(crate) fn point_numbers(points: &[Element], out: &mut Vec<Element>) {
    out.clear();
    for &p in points {
        if !out.contains(&p) {
            out.push(p);
        }
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
///   `k`-pointed member of the class generated by its points. Closure is
///   monotone, so each such member is an amalgam over the part that no
///   point generates: the initial configurations are the successors, under
///   the guard `true` and with `k` new points, of the class's 0-point
///   configurations, and the classes build them that way;
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
    /// register valuation, so every `k`-generated member can start a run):
    /// the successors under `true` of the 0-point configurations, with `k`
    /// new points, without repeats.
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
    /// relational classes) resolve each candidate by its packed key where
    /// it has one and build only the configurations `known` lacks.
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
    fn rel_config_probe_hash_is_that_of_its_packed_key() {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let mut g = Structure::new(s.finish(), 2);
        g.add_fact(e, &[Element(1), Element(0)]).unwrap();
        let cfg = RelConfig::generated_by(&g, &[Element(1), Element(0)]);
        // Pattern `[0, 1]` (one bit per register), then `E` over numbers
        // `{0, 1}`: the fact `E(0, 1)` of the renumbered points is tuple 1.
        assert_eq!(cfg.packed(), Some(0b10 | 1 << (2 + 1)));
        assert_eq!(
            Interner::hash_value(&cfg),
            crate::intern::probe_hash(&cfg.packed().unwrap())
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
        let ca = RelConfig::generated_by(&a, &[Element(0), Element(1)]);
        let cb = RelConfig::generated_by(&b, &[Element(1), Element(0)]);
        assert_eq!(ca, cb);
        let cc = RelConfig::generated_by(&a, &[Element(1), Element(0)]);
        assert_ne!(ca, cc);
    }

    #[test]
    fn unpacked_configurations_hash_by_their_representative() {
        // `R/9` over two distinct points spans 2^9 tuples: no packed key.
        let mut s = Schema::new();
        let r = s.add_relation("R", 9).unwrap();
        let mut g = Structure::new(s.finish(), 3);
        g.add_fact(r, &[Element(2); 9]).unwrap();
        g.add_fact(r, &[Element(1); 9]).unwrap();
        let cfg = RelConfig::generated_by(&g, &[Element(2), Element(0)]);
        assert_eq!(cfg.packed(), None);
        assert_eq!(cfg.pointed.points, vec![Element(0), Element(1)]);
        assert_eq!(cfg.pointed.structure.fact_count(), 1);
        let again = RelConfig::generated_by(&cfg.pointed.structure, &cfg.pointed.points);
        assert_eq!(Interner::hash_value(&again), Interner::hash_value(&cfg));
        assert_eq!(again, cfg);
        // Element 1 has the same fact, so it generates the same
        // configuration; with the fact on the second point it differs.
        assert_eq!(RelConfig::generated_by(&g, &[Element(1), Element(0)]), cfg);
        assert_ne!(RelConfig::generated_by(&g, &[Element(0), Element(2)]), cfg);
    }
}
