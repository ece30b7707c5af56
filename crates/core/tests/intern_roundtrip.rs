//! Property tests: hash-consing round-trips canonical configurations.
//!
//! The engine's interner replaces configuration clones with dense ids, so
//! its invariants carry the visited set's correctness: interning the same
//! canonical configuration must yield the same id, the stored value must be
//! the canonical representative itself, and the precomputed probe hash must
//! agree with recomputation.

use dds_core::{Interner, RelConfig};
use dds_structure::{Element, Schema, Structure};
use proptest::prelude::*;
use std::sync::Arc;

fn graph_schema() -> Arc<Schema> {
    let mut s = Schema::new();
    s.add_relation("E", 2).unwrap();
    s.finish()
}

/// Builds the configuration generated by `points` in the graph with the
/// given edges over 4 elements.
fn config_of(schema: &Arc<Schema>, edges: &[(u32, u32)], points: &[u32]) -> RelConfig {
    let e = schema.lookup("E").unwrap();
    let mut g = Structure::new(schema.clone(), 4);
    for &(a, b) in edges {
        let _ = g.add_fact(e, &[Element(a % 4), Element(b % 4)]);
    }
    let points: Vec<Element> = points.iter().map(|&p| Element(p % 4)).collect();
    RelConfig::generated_by(&g, &points)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn interning_roundtrips_canonical_keys(
        edges in proptest::collection::vec((0u32..4, 0u32..4), 0..10),
        points in proptest::collection::vec(0u32..4, 1..4),
    ) {
        let schema = graph_schema();
        let cfg = config_of(&schema, &edges, &points);
        let mut interner: Interner<RelConfig> = Interner::new();
        let (id, fresh) = interner.intern(cfg.clone());
        prop_assert!(fresh);
        // Idempotent: the same canonical configuration maps to the same id.
        let (id2, fresh2) = interner.intern(cfg.clone());
        prop_assert!(!fresh2);
        prop_assert_eq!(id, id2);
        // The stored value is the configuration, representative included.
        prop_assert_eq!(interner.get(id), &cfg);
        prop_assert_eq!(&interner.get(id).pointed, &cfg.pointed);
        prop_assert_eq!(interner.hash_of(id), Interner::hash_value(&cfg));
        // The canonical representative round-trips through
        // re-canonicalization with an identical representative, packed key
        // and probe hash.
        let stored = &interner.get(id).pointed;
        let again = RelConfig::generated_by(&stored.structure, &stored.points);
        prop_assert_eq!(&again, interner.get(id));
        prop_assert_eq!(&again.pointed, &cfg.pointed);
        prop_assert_eq!(again.packed(), cfg.packed());
        prop_assert_eq!(Interner::hash_value(&again), Interner::hash_value(&cfg));
    }

    #[test]
    fn distinct_keys_get_distinct_ids(
        edges_a in proptest::collection::vec((0u32..4, 0u32..4), 0..8),
        edges_b in proptest::collection::vec((0u32..4, 0u32..4), 0..8),
        points in proptest::collection::vec(0u32..4, 1..4),
    ) {
        let schema = graph_schema();
        let a = config_of(&schema, &edges_a, &points);
        let b = config_of(&schema, &edges_b, &points);
        let mut interner: Interner<RelConfig> = Interner::new();
        let (ida, _) = interner.intern(a.clone());
        let (idb, _) = interner.intern(b.clone());
        // Ids coincide exactly when the canonical configurations do.
        prop_assert_eq!(ida == idb, a == b);
        prop_assert_eq!(interner.lookup(&a), Some(ida));
        prop_assert_eq!(interner.lookup(&b), Some(idb));
    }

    /// The parallel engine's determinism contract leans on this: workers
    /// look successors up with a precomputed hash and the merge interns the
    /// fresh ones with it, so the prehashed entry points must assign exactly
    /// the ids plain `intern` assigns to the same stream, and a prehashed
    /// lookup must find a value exactly when it was interned before.
    #[test]
    fn prehashed_id_assignment_matches_intern(
        stream in proptest::collection::vec(
            (proptest::collection::vec((0u32..4, 0u32..4), 0..10),
             proptest::collection::vec(0u32..4, 1..4)),
            1..40,
        ),
    ) {
        let schema = graph_schema();
        let mut plain: Interner<RelConfig> = Interner::new();
        let mut prehashed: Interner<RelConfig> = Interner::new();
        for (edges, points) in &stream {
            let cfg = config_of(&schema, edges, points);
            let (id, fresh) = plain.intern(cfg.clone());
            let hash = Interner::hash_value(&cfg);
            let before = prehashed.lookup_prehashed(&cfg, hash);
            prop_assert_eq!(before, (!fresh).then_some(id));
            prop_assert_eq!(prehashed.intern_prehashed(cfg.clone(), hash), (id, fresh));
            prop_assert_eq!(prehashed.lookup_prehashed(&cfg, hash), Some(id));
        }
        prop_assert_eq!(prehashed.len(), plain.len());
    }
}
