//! Finite equivalence relations (Example 3).
//!
//! The class of all finite structures `⟨A, ~⟩` where `~` is an equivalence
//! relation is Fraïssé; it is also exactly the shape of the data part of the
//! `⊗ ⟨ℕ,=⟩` product (§4.4), which reuses the block-extension enumeration
//! implemented here.

use crate::amalgam::{
    combined_valuation, field_bits, placement_contexts, point_patterns, reset_extended, tag_field,
    AmalgamClass, AmalgamVisitor, Family, GuardHints,
};
use crate::class::Pointed;
use dds_structure::{Element, Schema, Structure, SymbolId};
use std::ops::ControlFlow;
use std::sync::Arc;

/// All finite equivalence relations, over the schema with one binary
/// relation `~`.
#[derive(Clone, Debug)]
pub struct EquivalenceClass {
    schema: Arc<Schema>,
    sim: SymbolId,
}

impl EquivalenceClass {
    /// Creates the class (and its schema, exposed via `schema()`).
    pub fn new() -> EquivalenceClass {
        let mut sc = Schema::new();
        let sim = sc.add_relation("~", 2).unwrap();
        EquivalenceClass {
            schema: sc.finish(),
            sim,
        }
    }

    /// The `~` symbol.
    pub fn sim(&self) -> SymbolId {
        self.sim
    }

    /// Builds the structure with the given block assignment (`blocks[e]` is
    /// the block id of element `e`); `~` is reflexive-symmetric-transitive
    /// by construction.
    pub fn from_blocks(&self, blocks: &[usize]) -> Structure {
        let mut s = Structure::new(self.schema.clone(), blocks.len());
        self.add_block_facts(&mut s, blocks, 0);
        s
    }

    /// Adds the `~`-facts of the block assignment that involve an element
    /// with index `>= from` (with `from = 0`, all of them).
    fn add_block_facts(&self, s: &mut Structure, blocks: &[usize], from: usize) {
        for (i, bi) in blocks.iter().enumerate() {
            for (j, bj) in blocks.iter().enumerate() {
                if bi == bj && i.max(j) >= from {
                    s.add_fact(self.sim, &[Element::from_index(i), Element::from_index(j)])
                        .expect("elements of the block assignment are in range");
                }
            }
        }
    }

    /// Reads the block assignment back from a member structure.
    pub fn blocks_of(&self, s: &Structure) -> Vec<usize> {
        let mut blocks: Vec<usize> = vec![usize::MAX; s.size()];
        let mut next = 0;
        for e in s.elements() {
            if blocks[e.index()] == usize::MAX {
                blocks[e.index()] = next;
                for f in s.elements() {
                    if s.holds(self.sim, &[e, f]) {
                        blocks[f.index()] = next;
                    }
                }
                next += 1;
            }
        }
        blocks
    }

    /// Enumerates one representative of every isomorphism class of members
    /// with `1..=max_size` elements (set partitions, in restricted-growth
    /// order). An accepting run exists on a structure iff it exists on any
    /// isomorphic copy, so feeding this list to
    /// `dds_system::baseline::bounded_emptiness` is a complete brute-force
    /// emptiness check up to the size bound — the oracle the fuzz harness
    /// races the symbolic engine against.
    pub fn members_up_to(&self, max_size: usize) -> Vec<Structure> {
        let mut out = Vec::new();
        for n in 1..=max_size {
            for blocks in block_extensions(&[], n) {
                out.push(self.from_blocks(&blocks));
            }
        }
        out
    }

    /// Membership: `~` is reflexive, symmetric and transitive.
    pub fn is_member(&self, s: &Structure) -> bool {
        for a in s.elements() {
            if !s.holds(self.sim, &[a, a]) {
                return false;
            }
            for b in s.elements() {
                if s.holds(self.sim, &[a, b]) != s.holds(self.sim, &[b, a]) {
                    return false;
                }
                for c in s.elements() {
                    if s.holds(self.sim, &[a, b])
                        && s.holds(self.sim, &[b, c])
                        && !s.holds(self.sim, &[a, c])
                    {
                        return false;
                    }
                }
            }
        }
        true
    }
}

impl Default for EquivalenceClass {
    fn default() -> Self {
        Self::new()
    }
}

/// All extensions of an existing block assignment by `extra` new elements:
/// each new element joins an existing block or a (normalized) new block.
/// Shared with the data-value product.
pub fn block_extensions(old_blocks: &[usize], extra: usize) -> Vec<Vec<usize>> {
    let base_count = old_blocks.iter().copied().max().map_or(0, |m| m + 1);
    let mut out = Vec::new();
    let mut cur = old_blocks.to_vec();
    fn go(extra: usize, next_new: usize, cur: &mut Vec<usize>, out: &mut Vec<Vec<usize>>) {
        if extra == 0 {
            out.push(cur.clone());
            return;
        }
        for b in 0..next_new {
            cur.push(b);
            go(extra - 1, next_new.max(b + 1), cur, out);
            cur.pop();
        }
        // A fresh block.
        cur.push(next_new);
        go(extra - 1, next_new + 1, cur, out);
        cur.pop();
    }
    go(extra, base_count, &mut cur, &mut out);
    out
}

impl AmalgamClass for EquivalenceClass {
    fn internal_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn public_schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    fn initial_pointed(&self, k: usize) -> Vec<Pointed> {
        let mut out = Vec::new();
        for pattern in point_patterns(k) {
            let m = pattern.iter().copied().max().map_or(0, |x| x + 1);
            let points: Vec<Element> = pattern.iter().map(|&c| Element::from_index(c)).collect();
            for blocks in point_patterns(m) {
                out.push(Pointed::new(self.from_blocks(&blocks), points.clone()));
            }
        }
        out
    }

    fn for_each_amalgam(
        &self,
        base: &Pointed,
        hints: &GuardHints,
        f: &mut AmalgamVisitor<'_>,
    ) -> ControlFlow<()> {
        let k = base.points.len();
        let m_old = base.structure.size();
        let old_blocks = self.blocks_of(&base.structure);
        let mut cand = base.structure.clone();
        let placements = placement_contexts(m_old, k);
        let pbits = field_bits(placements.len());
        for (pi, ctx) in placements.iter().enumerate() {
            let combined = combined_valuation(&base.points, &ctx.new_points);
            if !hints.placement_allows(&combined) {
                continue;
            }
            // The base is a member, so `from_blocks(&blocks)` is the base
            // plus the facts that involve a fresh element. Tag: the
            // placement, then the block extension.
            for (bi, blocks) in block_extensions(&old_blocks, ctx.fresh.len())
                .iter()
                .enumerate()
            {
                reset_extended(&mut cand, &base.structure, ctx.fresh.len());
                self.add_block_facts(&mut cand, blocks, m_old);
                f(&mut Family::single(
                    &mut cand,
                    &ctx.new_points,
                    tag_field(pi as u64, pbits, bi as u64),
                ))?;
            }
        }
        ControlFlow::Continue(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::amalgam::collect_amalgams;
    use crate::class::SymbolicClass;

    #[test]
    fn blocks_roundtrip() {
        let class = EquivalenceClass::new();
        let s = class.from_blocks(&[0, 1, 0, 2]);
        assert!(class.is_member(&s));
        assert_eq!(class.blocks_of(&s), vec![0, 1, 0, 2]);
        assert!(s.holds(class.sim(), &[Element(0), Element(2)]));
        assert!(!s.holds(class.sim(), &[Element(0), Element(1)]));
    }

    #[test]
    fn member_rejects_non_equivalences() {
        let class = EquivalenceClass::new();
        let mut s = Structure::new(class.public_schema().clone(), 2);
        assert!(!class.is_member(&s)); // not reflexive
        s.add_fact(class.sim(), &[Element(0), Element(0)]).unwrap();
        s.add_fact(class.sim(), &[Element(1), Element(1)]).unwrap();
        assert!(class.is_member(&s));
        s.add_fact(class.sim(), &[Element(0), Element(1)]).unwrap();
        assert!(!class.is_member(&s)); // not symmetric
    }

    #[test]
    fn block_extensions_cover_all_choices() {
        // 2 old blocks, 1 extra element: join block 0, block 1, or open a new
        // one -> 3.
        assert_eq!(block_extensions(&[0, 1], 1).len(), 3);
        // 1 old block, 2 extras: (old,old),(old,new),(new,old==same
        // normalized),(new,same-new),(new,other-new): RGS count = 1*?;
        // enumerate: e1 in {0,1}, e2 in {0,..,max+1}: 2 + 3 = 5.
        assert_eq!(block_extensions(&[0], 2).len(), 5);
    }

    #[test]
    fn initial_counts_follow_bell_numbers() {
        let class = EquivalenceClass::new();
        // k=2: pattern xx: m=1, 1 partition; pattern xy: m=2, 2 partitions.
        assert_eq!(class.initial_configs(2).len(), 3);
        for p in class.initial_pointed(3) {
            assert!(class.is_member(&p.structure));
        }
    }

    #[test]
    fn amalgams_stay_equivalences() {
        let class = EquivalenceClass::new();
        for base in class.initial_pointed(2) {
            for cand in collect_amalgams(&class, &base, &GuardHints::default()) {
                assert!(class.is_member(&cand.structure));
                // The in-place extension builds exactly the block structure.
                assert_eq!(
                    cand.structure,
                    class.from_blocks(&class.blocks_of(&cand.structure))
                );
            }
        }
    }
}
