//! Hash-consing arena for canonical configurations.
//!
//! The engine's visited set used to be a `HashSet<(StateId, Config)>`: every
//! dedup probe cloned the configuration and re-hashed its full canonical key.
//! The [`Interner`] replaces that with classic hash-consing — each distinct
//! canonical configuration is stored once and mapped to a dense [`ConfigId`]
//! (`u32`), and all further bookkeeping (visited bitmaps, transition
//! memoization, trace arenas) runs on ids:
//!
//! * a probe costs one precomputed 64-bit hash lookup in an open-addressed
//!   id table (full equality is only checked on hash agreement);
//! * configurations are moved in, never cloned, and duplicates are dropped
//!   on the spot;
//! * the dense id space makes the per-state visited set a bitmap and lets
//!   successor sets be cached as plain id slices.
//!
//! Ids are assigned in insertion order, so the same stream of values always
//! yields the same ids, whichever entry points interned them.
//!
//! Hashes are computed once per configuration with the standard library's
//! [`DefaultHasher`], which is deterministic for a fixed Rust release (and
//! [`crate::RelConfig`] feeds it a single precomputed word from
//! [`dds_structure::CanonicalKey::hash64`], so the per-probe cost is flat).
//! The `*_prehashed` entry points let the parallel engine's workers compute
//! that hash inside their tasks and look it up in the layer-start interner
//! (`&self`, so many threads may probe at once), handing the coordinator a
//! ready-to-intern `(value, hash)` pair for configurations it has not seen.
//!
//! [`DefaultHasher`]: std::collections::hash_map::DefaultHasher

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

/// Dense identifier of an interned configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const EMPTY: u32 = u32::MAX;

/// Initial slot count of the id table (power of two).
const INITIAL_SLOTS: usize = 16;

/// A hash-consing arena: owns each distinct value once, hands out dense ids.
#[derive(Clone, Debug)]
pub struct Interner<T> {
    values: Vec<T>,
    hashes: Vec<u64>,
    /// Open-addressed table of ids; length is a power of two.
    slots: Vec<u32>,
}

impl<T: Eq + Hash> Default for Interner<T> {
    fn default() -> Self {
        Interner::new()
    }
}

impl<T: Eq + Hash> Interner<T> {
    /// An empty interner.
    pub fn new() -> Interner<T> {
        Interner {
            values: Vec::new(),
            hashes: Vec::new(),
            slots: vec![EMPTY; INITIAL_SLOTS],
        }
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value behind an id.
    pub fn get(&self, id: ConfigId) -> &T {
        &self.values[id.index()]
    }

    /// The precomputed hash of an interned value.
    pub fn hash_of(&self, id: ConfigId) -> u64 {
        self.hashes[id.index()]
    }

    /// The deterministic 64-bit hash used for table probes.
    pub fn hash_value(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// The slot index a hash starts probing at in a table of `slot_count`
    /// slots.
    fn probe_start(hash: u64, slot_count: usize) -> usize {
        (hash as usize) & (slot_count - 1)
    }

    /// Interns a value, returning its id and whether it was newly inserted.
    /// The value is moved, never cloned; a duplicate is dropped.
    pub fn intern(&mut self, value: T) -> (ConfigId, bool) {
        let hash = Self::hash_value(&value);
        self.intern_prehashed(value, hash)
    }

    /// [`Interner::intern`] with the hash supplied by the caller (it must be
    /// [`Interner::hash_value`] of `value`).
    pub fn intern_prehashed(&mut self, value: T, hash: u64) -> (ConfigId, bool) {
        let mask = self.slots.len() - 1;
        let mut i = Self::probe_start(hash, mask + 1);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                let id = self.values.len() as u32;
                assert!(id != EMPTY, "interner capacity exhausted");
                self.values.push(value);
                self.hashes.push(hash);
                self.slots[i] = id;
                if self.values.len() * 8 >= self.slots.len() * 7 {
                    self.grow();
                }
                return (ConfigId(id), true);
            }
            let sid = slot as usize;
            if self.hashes[sid] == hash && self.values[sid] == value {
                return (ConfigId(slot), false);
            }
            i = (i + 1) & mask;
        }
    }

    /// Looks a value up without inserting.
    pub fn lookup(&self, value: &T) -> Option<ConfigId> {
        self.lookup_prehashed(value, Self::hash_value(value))
    }

    /// [`Interner::lookup`] with a caller-supplied hash. Safe to call from
    /// many threads at once — it takes `&self` and touches no interior
    /// mutability.
    pub fn lookup_prehashed(&self, value: &T, hash: u64) -> Option<ConfigId> {
        let mask = self.slots.len() - 1;
        let mut i = Self::probe_start(hash, mask + 1);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            let sid = slot as usize;
            if self.hashes[sid] == hash && &self.values[sid] == value {
                return Some(ConfigId(slot));
            }
            i = (i + 1) & mask;
        }
    }

    /// Doubles the table, re-bucketing every id from its stored hash
    /// (values untouched).
    fn grow(&mut self) {
        let new_len = self.slots.len() * 2;
        let mask = new_len - 1;
        let mut slots = vec![EMPTY; new_len];
        for (id, &hash) in self.hashes.iter().enumerate() {
            let mut i = Self::probe_start(hash, new_len);
            while slots[i] != EMPTY {
                i = (i + 1) & mask;
            }
            slots[i] = id as u32;
        }
        self.slots = slots;
    }

    /// Iterates over `(id, value)` pairs in insertion (= id) order.
    pub fn iter(&self) -> impl Iterator<Item = (ConfigId, &T)> {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| (ConfigId(i as u32), v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent_and_dense() {
        let mut it: Interner<String> = Interner::new();
        let (a, fresh_a) = it.intern("alpha".to_owned());
        let (b, fresh_b) = it.intern("beta".to_owned());
        let (a2, fresh_a2) = it.intern("alpha".to_owned());
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.index(), b.index()), (0, 1));
        assert_eq!(it.len(), 2);
        assert_eq!(it.get(a), "alpha");
        assert_eq!(it.lookup(&"beta".to_owned()), Some(b));
        assert_eq!(it.lookup(&"gamma".to_owned()), None);
    }

    #[test]
    fn growth_preserves_ids_and_hashes() {
        let mut it: Interner<u64> = Interner::new();
        let ids: Vec<ConfigId> = (0..1000u64).map(|v| it.intern(v).0).collect();
        for (v, id) in ids.iter().enumerate() {
            assert_eq!(*it.get(*id), v as u64);
            assert_eq!(it.hash_of(*id), Interner::hash_value(&(v as u64)));
            assert_eq!(it.intern(v as u64), (*id, false));
        }
        assert_eq!(it.len(), 1000);
        assert_eq!(it.iter().count(), 1000);
    }

    #[test]
    fn prehashed_paths_agree_with_plain_ones() {
        let mut it: Interner<u64> = Interner::new();
        for v in 0..500u64 {
            let hash = Interner::hash_value(&v);
            assert_eq!(it.lookup_prehashed(&v, hash), None);
            let (id, fresh) = it.intern_prehashed(v, hash);
            assert!(fresh);
            assert_eq!(it.lookup_prehashed(&v, hash), Some(id));
            assert_eq!(it.lookup(&v), Some(id));
            assert_eq!(it.intern(v), (id, false));
        }
    }
}
