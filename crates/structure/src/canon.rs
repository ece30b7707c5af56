//! The brute-force canonical key of pointed structures.
//!
//! The algorithm of Theorem 5 explores *small configurations*: structures
//! generated by the register values, considered up to isomorphisms that fix
//! the register tuple pointwise. For the relational classes such a
//! configuration is the substructure induced on the points, and numbering
//! the points by first occurrence already makes it canonical; the engine
//! builds that representative directly (`dds_core::RelConfig`).
//!
//! [`canonical_key_general`] is the reference that representative is tested
//! against: the least encoding over all element renamings (`O(n!)`), exact
//! for any structure, functions included, so only for small test
//! structures.

use crate::element::Element;
use crate::structure::Structure;

const SEP: u64 = u64::MAX;

/// The one word a nullary row (the empty tuple) is written as. Without it
/// the row would be a lone [`SEP`], and a present nullary fact in one
/// relation would read the same as one in the next relation.
const NULLARY_ROW: u64 = 0;

/// Encodes a structure under a given renaming `number[old.index()] = new
/// index` (which must be a bijection). Tuples are emitted in sorted order of
/// their renamed form so the encoding is renaming-canonical.
fn encode(s: &Structure, points: &[Element], number: &[u32]) -> Vec<u64> {
    let mut out = Vec::with_capacity(16 + s.fact_count() * 3);
    out.push(s.size() as u64);
    out.push(points.len() as u64);
    for p in points {
        out.push(number[p.index()] as u64);
    }
    out.push(SEP);
    for r in s.schema().relations() {
        let mut tuples: Vec<Vec<u32>> = s
            .rel_tuples(r)
            .map(|t| t.iter().map(|e| number[e.index()]).collect())
            .collect();
        tuples.sort_unstable();
        for t in tuples {
            if t.is_empty() {
                out.push(NULLARY_ROW);
            }
            for x in t {
                out.push(x as u64);
            }
            out.push(SEP);
        }
        out.push(SEP);
    }
    for f in s.schema().functions() {
        let mut entries: Vec<(Vec<u32>, u32)> = s
            .func_entries(f)
            .map(|(args, v)| {
                (
                    args.iter().map(|e| number[e.index()]).collect(),
                    number[v.index()],
                )
            })
            .collect();
        entries.sort_unstable();
        for (args, v) in entries {
            for x in args {
                out.push(x as u64);
            }
            out.push(v as u64);
            out.push(SEP);
        }
        out.push(SEP);
    }
    out
}

/// Reference canonical key: the least encoding over all `n!` element
/// renamings. Two pointed structures have equal keys exactly when they are
/// isomorphic by a map fixing the points. Exponential, so only for small
/// test structures and cross-validation.
pub fn canonical_key_general(s: &Structure, points: &[Element]) -> Vec<u64> {
    let n = s.size();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut best: Option<Vec<u64>> = None;
    permute(&mut perm, 0, &mut |p| {
        let enc = encode(s, points, p);
        if best.as_ref().map_or(true, |b| enc < *b) {
            best = Some(enc);
        }
    });
    best.unwrap_or_default()
}

fn permute(perm: &mut Vec<u32>, k: usize, visit: &mut impl FnMut(&[u32])) {
    if k == perm.len() {
        visit(perm);
        return;
    }
    for i in k..perm.len() {
        perm.swap(k, i);
        permute(perm, k + 1, visit);
        perm.swap(k, i);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Schema;

    fn pointed_graph(n: usize, edges: &[(u32, u32)], points: &[u32]) -> (Structure, Vec<Element>) {
        let mut s = Schema::new();
        let e = s.add_relation("E", 2).unwrap();
        let schema = s.finish();
        let mut g = Structure::new(schema, n);
        for &(a, b) in edges {
            g.add_fact(e, &[Element(a), Element(b)]).unwrap();
        }
        (g, points.iter().map(|&p| Element(p)).collect())
    }

    #[test]
    fn general_key_is_pointed_isomorphism() {
        let key = |(s, p): (Structure, Vec<Element>)| canonical_key_general(&s, &p);
        // Same pointed structure under a relabeling.
        assert_eq!(
            key(pointed_graph(2, &[(0, 1)], &[0, 1])),
            key(pointed_graph(2, &[(1, 0)], &[1, 0]))
        );
        // Different pointing: edge direction relative to points flips.
        assert_ne!(
            key(pointed_graph(2, &[(0, 1)], &[0, 1])),
            key(pointed_graph(2, &[(0, 1)], &[1, 0]))
        );
        // An element no point names is renamed too.
        assert_eq!(
            key(pointed_graph(3, &[(2, 0), (0, 1)], &[2])),
            key(pointed_graph(3, &[(0, 1), (1, 2)], &[0]))
        );
    }

    #[test]
    fn general_key_reaches_functions() {
        let mut s = Schema::new();
        let f = s.add_function("f", 1).unwrap();
        let schema = s.finish();
        let mut a = Structure::new(schema.clone(), 3);
        a.set_func(f, &[Element(0)], Element(2)).unwrap();
        a.set_func(f, &[Element(2)], Element(1)).unwrap();
        a.set_func(f, &[Element(1)], Element(1)).unwrap();
        let mut b = Structure::new(schema.clone(), 3);
        // Same shape, relabeled: 1 -> 0 -> 2 (sink 2)
        b.set_func(f, &[Element(1)], Element(0)).unwrap();
        b.set_func(f, &[Element(0)], Element(2)).unwrap();
        b.set_func(f, &[Element(2)], Element(2)).unwrap();
        assert_eq!(
            canonical_key_general(&a, &[Element(0)]),
            canonical_key_general(&b, &[Element(1)])
        );
        // A genuinely different shape (3-cycle instead of chain-to-sink).
        let mut c = Structure::new(schema, 3);
        c.set_func(f, &[Element(0)], Element(2)).unwrap();
        c.set_func(f, &[Element(2)], Element(1)).unwrap();
        c.set_func(f, &[Element(1)], Element(0)).unwrap();
        assert_ne!(
            canonical_key_general(&a, &[Element(0)]),
            canonical_key_general(&c, &[Element(0)])
        );
    }

    #[test]
    fn nullary_facts_in_different_relations_get_different_keys() {
        let mut sc = Schema::new();
        let p = sc.add_relation("P", 0).unwrap();
        sc.add_relation("E", 2).unwrap();
        let q = sc.add_relation("Q", 0).unwrap();
        let schema = sc.finish();
        let mut only_p = Structure::new(schema.clone(), 1);
        only_p.add_fact(p, &[]).unwrap();
        let mut only_q = Structure::new(schema, 1);
        only_q.add_fact(q, &[]).unwrap();
        let points = [Element(0)];
        assert_ne!(
            canonical_key_general(&only_p, &points),
            canonical_key_general(&only_q, &points)
        );
    }
}
