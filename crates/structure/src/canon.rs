//! Canonical forms of pointed structures.
//!
//! The algorithm of Theorem 5 explores *small configurations*: structures
//! generated by the register values, considered up to isomorphisms that fix
//! the register tuple pointwise. To run a deterministic search we need a
//! canonical key for each equivalence class.
//!
//! Because small configurations are **generated by their points**, every
//! element is reachable from the points by function applications, and a
//! canonical numbering can be computed deterministically without any
//! isomorphism search ([`canonical_key_pointed`]): number the points by first
//! occurrence, then repeatedly apply function symbols in declaration order to
//! argument tuples in lexicographic order of already-assigned numbers,
//! assigning fresh numbers to newly reached elements. The traversal consults
//! only canonical data, so pointed-isomorphic structures get identical keys,
//! and the key encodes the whole structure, so identical keys imply
//! isomorphism.
//!
//! [`canonical_key_general`] is a reference implementation by minimisation
//! over all permutations (`O(n!)`), used by tests to validate the fast path
//! and for non-generated structures.

use crate::element::Element;
use crate::structure::Structure;

/// An opaque, hashable canonical key. Equal keys ⟺ pointed-isomorphic
/// structures (for the constructor used).
///
/// The key carries a 64-bit hash precomputed at construction, so hash-table
/// probes (the hot operation of the engine's interned visited set) cost one
/// `u64` write instead of re-hashing the whole word vector.
#[derive(Clone, Debug)]
pub struct CanonicalKey {
    words: Vec<u64>,
    hash64: u64,
}

impl CanonicalKey {
    fn new(words: Vec<u64>) -> CanonicalKey {
        let hash64 = fnv1a(&words);
        CanonicalKey { words, hash64 }
    }

    /// Raw words of the key (stable within a process run; not a serialization
    /// format).
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// The precomputed 64-bit hash of the key. Equal keys have equal hashes;
    /// the converse holds up to ordinary hash collisions, so this is a
    /// probe accelerator, not an identity.
    pub fn hash64(&self) -> u64 {
        self.hash64
    }
}

impl PartialEq for CanonicalKey {
    fn eq(&self, other: &Self) -> bool {
        // The hash mismatch fast-path settles almost every unequal probe.
        self.hash64 == other.hash64 && self.words == other.words
    }
}
impl Eq for CanonicalKey {}

impl std::hash::Hash for CanonicalKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64);
    }
}

impl PartialOrd for CanonicalKey {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for CanonicalKey {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Order by content, not by hash, so ordered containers stay
        // deterministic in the face of hash-function changes.
        self.words.cmp(&other.words)
    }
}

const SEP: u64 = u64::MAX;

/// The one word a nullary row (the empty tuple) is written as. Without it
/// the row would be a lone [`SEP`], and a present nullary fact in one
/// relation would read the same as one in the next relation.
const NULLARY_ROW: u64 = 0;

/// FNV-1a over key words: deterministic across runs and platforms.
fn fnv1a(words: &[u64]) -> u64 {
    words.iter().fold(0xcbf2_9ce4_8422_2325, |h, &w| {
        (h ^ w).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

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

/// Canonical key of a structure generated by its `points` (every element must
/// be in `closure(points)`).
///
/// # Panics
/// Panics when the structure is not generated by `points`; callers in the
/// engine guarantee this by constructing configurations with
/// [`Structure::generated`].
pub fn canonical_key_pointed(s: &Structure, points: &[Element]) -> CanonicalKey {
    let number = pointed_numbering(s, points);
    CanonicalKey::new(encode(s, points, &number))
}

/// Canonically renumbers a pointed structure generated by its points:
/// returns the renamed structure, the renamed points and the canonical key.
/// Two pointed-isomorphic inputs produce identical outputs, so the result is
/// a canonical representative usable as a hash-map key and for deterministic
/// display.
pub fn canonicalize_pointed(
    s: &Structure,
    points: &[Element],
) -> (Structure, Vec<Element>, CanonicalKey) {
    let key = canonical_key_pointed(s, points);
    // Recompute the numbering (cheap; structures are tiny) to apply it.
    let number = pointed_numbering(s, points);
    let perm: Vec<Element> = number.iter().map(|&n| Element(n)).collect();
    let renamed = s.map_elements(&perm);
    let new_points: Vec<Element> = points.iter().map(|p| Element(number[p.index()])).collect();
    (renamed, new_points, key)
}

/// Caller-owned buffers of [`encode_generated_relational`]: the point
/// numbering, the row scratch and the key words it writes. Reusing one
/// across calls makes an encoding allocation-free once the buffers have
/// grown.
#[derive(Debug, Default)]
pub struct KeyScratch {
    number: Vec<u32>,
    rows: Vec<u64>,
    words: Vec<u64>,
}

impl KeyScratch {
    /// The key words of the last encoding — exactly
    /// [`CanonicalKey::as_words`] of the key it describes.
    pub fn words(&self) -> &[u64] {
        &self.words
    }
}

/// Writes the canonical key words of the substructure a relational
/// structure's `points` generate into `buf`, without building that
/// substructure, and returns the hash [`CanonicalKey::hash64`] computes for
/// them. Without function symbols the generated substructure is induced on
/// the points, and its canonical numbering is their first-occurrence order:
/// this numbers the points, then emits, per relation, the renumbered tuples
/// lying inside them in sorted order. The words equal those of
/// `canonicalize_pointed` on [`Structure::generated`] with the points
/// remapped.
///
/// Rows are sorted as packed `u64`s when `arity` renumbered elements fit in
/// 64 bits, and as slices otherwise, so every arity and size is handled.
///
/// # Panics
/// Panics when the schema has function symbols or a point is out of range.
pub fn encode_generated_relational(s: &Structure, points: &[Element], buf: &mut KeyScratch) -> u64 {
    const UNNUMBERED: u32 = u32::MAX;
    assert!(
        s.schema().is_relational(),
        "encode_generated_relational: schema has function symbols"
    );
    let KeyScratch {
        number,
        rows,
        words,
    } = buf;
    number.clear();
    number.resize(s.size(), UNNUMBERED);
    words.clear();
    // The size word is patched once the points are numbered.
    words.push(0);
    words.push(points.len() as u64);
    let mut size = 0u32;
    for p in points {
        let slot = &mut number[p.index()];
        if *slot == UNNUMBERED {
            *slot = size;
            size += 1;
        }
        words.push(*slot as u64);
    }
    words[0] = size as u64;
    words.push(SEP);
    // Bits per renumbered element: enough for `size - 1`, at least one.
    let bits = (u32::BITS - size.saturating_sub(1).leading_zeros()).max(1) as usize;
    let mask = (1u64 << bits) - 1;
    let inside = |t: &[Element]| t.iter().all(|e| number[e.index()] != UNNUMBERED);
    for r in s.schema().relations() {
        let arity = s.schema().arity(r);
        if arity <= 64 / bits {
            // Big-endian packing: numeric order is lexicographic row order.
            rows.clear();
            rows.extend(s.rel_tuples(r).filter(|t| inside(t)).map(|t| {
                t.iter()
                    .fold(0u64, |acc, e| acc << bits | number[e.index()] as u64)
            }));
            rows.sort_unstable();
            for &row in rows.iter() {
                if arity == 0 {
                    words.push(NULLARY_ROW);
                }
                words.extend((0..arity).rev().map(|i| row >> (i * bits) & mask));
                words.push(SEP);
            }
        } else {
            // One word per element, rows sorted as slices.
            rows.clear();
            for t in s.rel_tuples(r).filter(|t| inside(t)) {
                rows.extend(t.iter().map(|e| number[e.index()] as u64));
            }
            let mut sorted: Vec<&[u64]> = rows.chunks_exact(arity).collect();
            sorted.sort_unstable();
            for row in sorted {
                words.extend_from_slice(row);
                words.push(SEP);
            }
        }
        words.push(SEP);
    }
    fnv1a(words)
}

/// One-pass [`canonicalize_pointed`] of the substructure a relational
/// structure's `points` generate: [`encode_generated_relational`], then the
/// canonical representative rebuilt from the key words. The output
/// (structure, points and key words) is identical to `canonicalize_pointed`
/// on [`Structure::generated`] with the points remapped.
///
/// # Panics
/// Panics when the schema has function symbols.
pub fn canonicalize_generated_relational(
    s: &Structure,
    points: &[Element],
) -> (Structure, Vec<Element>, CanonicalKey) {
    let mut buf = KeyScratch::default();
    let hash64 = encode_generated_relational(s, points, &mut buf);
    let words = buf.words;
    let element = |w: u64| Element(w as u32);
    let k = words[1] as usize;
    let new_points: Vec<Element> = words[2..2 + k].iter().map(|&w| element(w)).collect();
    let mut out = Structure::new(s.schema().clone(), words[0] as usize);
    // Past the points and their separator.
    let mut at = 3 + k;
    let mut row: Vec<Element> = Vec::new();
    for r in s.schema().relations() {
        let arity = s.schema().arity(r);
        // Each row is its elements (or the nullary word) and a separator;
        // a separator in row position ends the section.
        while words[at] != SEP {
            row.clear();
            row.extend(words[at..at + arity].iter().map(|&w| element(w)));
            out.add_fact(r, &row).expect("key rows are in range");
            at += arity.max(1) + 1;
        }
        at += 1;
    }
    debug_assert_eq!(at, words.len());
    (out, new_points, CanonicalKey { words, hash64 })
}

/// The canonical numbering used by [`canonical_key_pointed`] (see its docs).
fn pointed_numbering(s: &Structure, points: &[Element]) -> Vec<u32> {
    const UNNUMBERED: u32 = u32::MAX;
    let mut number: Vec<u32> = vec![UNNUMBERED; s.size()];
    let mut order: Vec<Element> = Vec::with_capacity(s.size());
    for &p in points {
        if number[p.index()] == UNNUMBERED {
            number[p.index()] = order.len() as u32;
            order.push(p);
        }
    }
    let funcs: Vec<_> = s.schema().functions().collect();
    let mut frontier_grew = true;
    while frontier_grew {
        frontier_grew = false;
        let snapshot = order.clone();
        for &f in &funcs {
            let arity = s.schema().arity(f);
            for args in crate::structure::tuples_over(&snapshot, arity) {
                if let Some(v) = s.try_apply(f, &args) {
                    if number[v.index()] == UNNUMBERED {
                        number[v.index()] = order.len() as u32;
                        order.push(v);
                        frontier_grew = true;
                    }
                }
            }
            if frontier_grew {
                break;
            }
        }
    }
    assert!(
        order.len() == s.size(),
        "canonical_key_pointed: structure not generated by its points \
         ({} of {} elements reached)",
        order.len(),
        s.size()
    );
    number
}

/// Reference canonical key: minimum encoding over all `n!` element
/// renamings. Exact for any structure; exponential, so only for small test
/// structures and cross-validation.
pub fn canonical_key_general(s: &Structure, points: &[Element]) -> CanonicalKey {
    let n = s.size();
    let mut perm: Vec<u32> = (0..n as u32).collect();
    let mut best: Option<Vec<u64>> = None;
    permute(&mut perm, 0, &mut |p| {
        let enc = encode(s, points, p);
        if best.as_ref().map_or(true, |b| enc < *b) {
            best = Some(enc);
        }
    });
    CanonicalKey::new(best.unwrap_or_default())
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
    fn pointed_key_is_isomorphism_invariant() {
        // Same pointed structure under a relabeling.
        let (a, pa) = pointed_graph(2, &[(0, 1)], &[0, 1]);
        let (b, pb) = pointed_graph(2, &[(1, 0)], &[1, 0]);
        assert_eq!(
            canonical_key_pointed(&a, &pa),
            canonical_key_pointed(&b, &pb)
        );
        // Different pointing: edge direction relative to points flips.
        let (c, pc) = pointed_graph(2, &[(0, 1)], &[1, 0]);
        assert_ne!(
            canonical_key_pointed(&a, &pa),
            canonical_key_pointed(&c, &pc)
        );
    }

    #[test]
    fn repeated_points_collapse() {
        let (a, _) = pointed_graph(1, &[(0, 0)], &[]);
        let pa = vec![Element(0), Element(0)];
        let key = canonical_key_pointed(&a, &pa);
        assert_eq!(key.as_words()[0], 1); // one element
        assert_eq!(key.as_words()[1], 2); // two points
    }

    #[test]
    fn pointed_key_with_functions_reaches_closure() {
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
            canonical_key_pointed(&a, &[Element(0)]),
            canonical_key_pointed(&b, &[Element(1)])
        );
        // A genuinely different shape (3-cycle instead of chain-to-sink).
        let mut c = Structure::new(schema, 3);
        c.set_func(f, &[Element(0)], Element(2)).unwrap();
        c.set_func(f, &[Element(2)], Element(1)).unwrap();
        c.set_func(f, &[Element(1)], Element(0)).unwrap();
        assert_ne!(
            canonical_key_pointed(&a, &[Element(0)]),
            canonical_key_pointed(&c, &[Element(0)])
        );
    }

    #[test]
    #[should_panic(expected = "not generated")]
    fn pointed_key_rejects_ungenerated() {
        let (a, _) = pointed_graph(2, &[], &[]);
        canonical_key_pointed(&a, &[Element(0)]);
    }

    #[test]
    fn canonicalize_pointed_is_idempotent_and_invariant() {
        let (a, pa) = pointed_graph(3, &[(2, 0), (0, 1)], &[2, 0, 1]);
        let (ra, rpa, ka) = canonicalize_pointed(&a, &pa);
        // Canonical representative has the points renumbered 0,1,2.
        assert_eq!(rpa, vec![Element(0), Element(1), Element(2)]);
        // Idempotent: canonicalizing the representative is the identity.
        let (rb, rpb, kb) = canonicalize_pointed(&ra, &rpa);
        assert_eq!(ra, rb);
        assert_eq!(rpa, rpb);
        assert_eq!(ka, kb);
        // An isomorphic copy canonicalizes to the same representative.
        let (c, pc) = pointed_graph(3, &[(0, 1), (1, 2)], &[0, 1, 2]);
        let (rc, rpc, kc) = canonicalize_pointed(&c, &pc);
        assert_eq!(ra, rc);
        assert_eq!(rpa, rpc);
        assert_eq!(ka, kc);
    }

    /// `encode_generated_relational` against `canonicalize_pointed` on the
    /// generated substructure, reusing one scratch across calls.
    fn assert_encoder_matches(s: &Structure, points: &[Element], buf: &mut KeyScratch) {
        let (sub, names) = s.generated(points);
        let sub_points: Vec<Element> = points
            .iter()
            .map(|p| Element(names.iter().position(|n| n == p).unwrap() as u32))
            .collect();
        let (ref_structure, ref_points, reference) = canonicalize_pointed(&sub, &sub_points);
        let hash = encode_generated_relational(s, points, buf);
        assert_eq!(buf.words(), reference.as_words());
        assert_eq!(hash, reference.hash64());
        let (rebuilt, rebuilt_points, key) = canonicalize_generated_relational(s, points);
        assert_eq!(key, reference);
        assert_eq!((rebuilt, rebuilt_points), (ref_structure, ref_points));
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
            canonical_key_pointed(&only_p, &points),
            canonical_key_pointed(&only_q, &points)
        );
        let mut buf = KeyScratch::default();
        assert_encoder_matches(&only_p, &points, &mut buf);
        assert_encoder_matches(&only_q, &points, &mut buf);
    }

    #[test]
    fn encoder_sorts_rows_too_wide_to_pack() {
        // Seven distinct points take 3 bits each: arity 21 is the widest
        // packed row, arity 22 needs 66 bits and is sorted as slices. Both
        // must agree with the reference.
        let mut buf = KeyScratch::default();
        for arity in [1, 21, 22, 40] {
            let mut sc = Schema::new();
            let r = sc.add_relation("R", arity).unwrap();
            let nullary = sc.add_relation("P", 0).unwrap();
            let schema = sc.finish();
            let mut s = Structure::new(schema, 9);
            for seed in 0..12u32 {
                let row: Vec<Element> = (0..arity as u32)
                    .map(|i| Element((seed * 7 + i * (seed + 3)) % 9))
                    .collect();
                s.add_fact(r, &row).unwrap();
            }
            s.add_fact(nullary, &[]).unwrap();
            let points: Vec<Element> = [8, 3, 0, 3, 5, 1, 7, 2].map(Element).to_vec();
            assert_encoder_matches(&s, &points, &mut buf);
            assert_encoder_matches(&s, &points[..3], &mut buf);
            assert_encoder_matches(&s, &[], &mut buf);
        }
    }

    #[test]
    fn general_key_agrees_with_pointed_key_equivalence() {
        // For point-generated structures, the two keys must induce the same
        // equivalence relation.
        let cases = [
            pointed_graph(2, &[(0, 1)], &[0, 1]),
            pointed_graph(2, &[(1, 0)], &[1, 0]),
            pointed_graph(2, &[(0, 1)], &[1, 0]),
            pointed_graph(3, &[(0, 1), (1, 2)], &[0, 1, 2]),
            pointed_graph(3, &[(2, 1), (1, 0)], &[2, 1, 0]),
        ];
        for (i, (si, pi)) in cases.iter().enumerate() {
            for (j, (sj, pj)) in cases.iter().enumerate() {
                let fast = canonical_key_pointed(si, pi) == canonical_key_pointed(sj, pj);
                let slow = canonical_key_general(si, pi) == canonical_key_general(sj, pj);
                assert_eq!(fast, slow, "cases {i} vs {j} disagree");
            }
        }
    }
}
