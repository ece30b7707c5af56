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
//! Hashes are computed once per configuration (`probe_hash`): a value that
//! hashes as one `u64` word — a [`crate::RelConfig`] with a packed key
//! feeds just that — gets that word through a multiply-xorshift finalizer,
//! anything else (a wider `RelConfig` feeds its points and rows) the
//! standard library's [`DefaultHasher`], which is deterministic for a
//! fixed Rust release. [`Interner::lookup_with`] probes by hash and
//! predicate, so a class can ask whether a successor is interned before it
//! builds the value, by nothing more than its packed key; the answer comes
//! back as a [`Resolved`] entry, and the `*_prehashed` entry points intern
//! the fresh ones without re-hashing. Lookups take `&self`, so many threads
//! may probe the same interner at once.
//!
//! Next to each value sits its *successor memo* ([`Interner::memo`]): a map
//! from a guard specialised to the value (its residual, see
//! [`crate::amalgam::residual`]) to the ids of the value's successors under
//! it. It lives here, not in the class or the engine, because its entries
//! are ids of this interner: it is created with the value, lives exactly
//! as long as the search, and moves into a parallel layer's epoch with the
//! interner. A successor computation takes its list once, before it
//! enumerates anything, and keeps a list only when every successor was
//! already interned. Each memo sits behind its own [`Mutex`], so workers
//! resolving different configurations never contend, and an entry is a
//! pure function of the value and the residual, so any fill order yields
//! the same lookups.
//!
//! [`DefaultHasher`]: std::collections::hash_map::DefaultHasher

use dds_logic::Formula;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Dense identifier of an interned configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ConfigId(pub u32);

impl ConfigId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One sub-transition successor, resolved against an [`Interner`]: the id
/// of a value it already holds, or a value it does not hold yet, with the
/// probe hash the interner will file it under.
///
/// `Fresh` is boxed so that a successor list costs 16 bytes per entry
/// whatever the configuration's size.
#[derive(Debug)]
pub enum Resolved<Cfg> {
    /// Already interned under this id.
    Interned(ConfigId),
    /// Not interned; carries [`Interner::hash_value`] of the value.
    Fresh(Box<Cfg>, u64),
}

/// The deterministic 64-bit hash the interner files a value under. A value
/// that hashes as a single `u64` (such as a [`crate::RelConfig`] with a
/// packed key, which feeds just that) gets that word through a
/// multiply-xorshift finalizer, so callers holding only the word can
/// compute the probe hash without the value, in a few instructions. Any
/// other input goes through the standard library's [`DefaultHasher`].
pub(crate) fn probe_hash<V: Hash + ?Sized>(value: &V) -> u64 {
    let mut h = ProbeHasher::default();
    value.hash(&mut h);
    h.finish()
}

/// [`probe_hash`]'s hasher: holds a first `u64` word and starts a
/// [`DefaultHasher`] only when more input follows.
#[derive(Default)]
struct ProbeHasher {
    word: Option<u64>,
    sip: Option<DefaultHasher>,
}

impl ProbeHasher {
    fn sip(&mut self) -> &mut DefaultHasher {
        let word = self.word.take();
        self.sip.get_or_insert_with(|| {
            let mut sip = DefaultHasher::new();
            if let Some(word) = word {
                sip.write_u64(word);
            }
            sip
        })
    }
}

impl Hasher for ProbeHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.sip().write(bytes);
    }

    fn write_u64(&mut self, x: u64) {
        if self.word.is_none() && self.sip.is_none() {
            self.word = Some(x);
        } else {
            self.sip().write_u64(x);
        }
    }

    fn finish(&self) -> u64 {
        match (&self.sip, self.word) {
            (Some(sip), _) => sip.finish(),
            (None, Some(mut x)) => {
                // MurmurHash3's 64-bit finalizer.
                x ^= x >> 33;
                x = x.wrapping_mul(0xff51_afd7_ed55_8ccd);
                x ^= x >> 33;
                x = x.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
                x ^ x >> 33
            }
            (None, None) => DefaultHasher::new().finish(),
        }
    }
}

/// A cheap hasher for keys that are already one machine word (probe
/// hashes): a multiply and a fold, deterministic on every platform.
#[derive(Clone, Copy, Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        let h = (self.0 ^ x).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// [`std::collections::HashMap`] state for [`WordHasher`].
pub type BuildWordHasher = BuildHasherDefault<WordHasher>;

/// A value's successor memo: residual guard → the ids of the value's
/// successors under it (see the module docs).
pub type SuccessorMemo = HashMap<Formula, Arc<[ConfigId]>>;

const EMPTY: u32 = u32::MAX;

/// Initial slot count of the id table (power of two).
const INITIAL_SLOTS: usize = 16;

/// A hash-consing arena: owns each distinct value once, hands out dense ids.
#[derive(Debug)]
pub struct Interner<T> {
    values: Vec<T>,
    hashes: Vec<u64>,
    /// One successor memo per value, indexed by id.
    memos: Vec<Mutex<SuccessorMemo>>,
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
            memos: Vec::new(),
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

    /// Locks the successor memo of an interned value (see the module docs).
    /// Its ids are ids of this interner. A poisoned lock is taken over:
    /// entries are inserted whole, so a panic elsewhere cannot leave one
    /// half-written.
    pub fn memo(&self, id: ConfigId) -> MutexGuard<'_, SuccessorMemo> {
        self.memos[id.index()]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// The deterministic 64-bit hash used for table probes.
    pub fn hash_value(value: &T) -> u64 {
        probe_hash(value)
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
                self.memos.push(Mutex::default());
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
        self.lookup_with(hash, |v| v == value)
    }

    /// Looks up the value filed under `hash` that satisfies `eq`, without
    /// needing an owned value to compare against. `eq` must hold exactly
    /// for the value being looked for, and `hash` must be its
    /// [`Interner::hash_value`]. Like every lookup, safe to call from many
    /// threads at once.
    pub fn lookup_with(&self, hash: u64, mut eq: impl FnMut(&T) -> bool) -> Option<ConfigId> {
        let mask = self.slots.len() - 1;
        let mut i = Self::probe_start(hash, mask + 1);
        loop {
            let slot = self.slots[i];
            if slot == EMPTY {
                return None;
            }
            let sid = slot as usize;
            if self.hashes[sid] == hash && eq(&self.values[sid]) {
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
    fn lookup_with_finds_by_hash_and_predicate() {
        let mut it: Interner<String> = Interner::new();
        let (id, _) = it.intern("alpha".to_owned());
        let hash = probe_hash("alpha");
        assert_eq!(hash, Interner::hash_value(&"alpha".to_owned()));
        assert_eq!(it.lookup_with(hash, |v| v == "alpha"), Some(id));
        // The predicate decides, not the hash alone.
        assert_eq!(it.lookup_with(hash, |v| v == "beta"), None);
        assert_eq!(it.lookup_with(probe_hash("beta"), |_| true), None);
    }

    #[test]
    fn lookup_with_tells_apart_values_filed_under_one_hash() {
        // Two values forced under one hash: only the predicate separates
        // them, so an ignored predicate would return the first for both.
        let mut it: Interner<String> = Interner::new();
        let (a, _) = it.intern_prehashed("alpha".to_owned(), 7);
        let (b, _) = it.intern_prehashed("beta".to_owned(), 7);
        assert_ne!(a, b);
        assert_eq!(it.lookup_with(7, |v| v == "alpha"), Some(a));
        assert_eq!(it.lookup_with(7, |v| v == "beta"), Some(b));
        assert_eq!(it.lookup_with(7, |v| v == "gamma"), None);
    }

    /// Guards that differ only in atoms over old registers have one
    /// residual on a configuration, so they share its memo entry; a guard
    /// the configuration falsifies keeps nothing; and the memo stays with
    /// its value while the table grows.
    #[test]
    fn guards_with_one_residual_share_a_memo_entry() {
        use crate::class::{RelConfig, SymbolicClass};
        use crate::free::FreeRelationalClass;
        use dds_structure::{Element, Schema, Structure};
        use dds_system::{new_var, old_var};

        let mut sc = Schema::new();
        let e = sc.add_relation("E", 2).unwrap();
        let class = FreeRelationalClass::new(sc.finish());
        let mut known: Interner<RelConfig> = Interner::new();
        for cfg in class.initial_configs(1) {
            known.intern(cfg);
        }
        let (bare, looped) = {
            let mut ids = known
                .iter()
                .map(|(id, c)| (c.pointed.structure.fact_count(), id));
            let (a, b) = (ids.next().unwrap(), ids.next().unwrap());
            if a.0 == 0 {
                (a.1, b.1)
            } else {
                (b.1, a.1)
            }
        };
        let cfg = known.get(bare).clone();
        let ids = |guard: &Formula| -> Vec<ConfigId> {
            class
                .successors(&cfg, guard, &known)
                .into_iter()
                .map(|entry| match entry {
                    Resolved::Interned(id) => id,
                    Resolved::Fresh(..) => panic!("every 1-generated configuration is interned"),
                })
                .collect()
        };
        let edge = Formula::rel_vars(e, &[old_var(0), new_var(0)]);
        let self_loop = Formula::rel_vars(e, &[old_var(0), old_var(0)]);
        let first = ids(&edge);
        assert_eq!(first.len(), 2);
        assert_eq!(known.memo(bare).len(), 1);
        assert_eq!(
            known.memo(bare).get(&edge).map(|l| l.to_vec()),
            Some(first.clone())
        );
        // `E(x_old, x_old)` is false on `bare`: the disjunction's residual
        // is `edge`, answered from its entry.
        assert_eq!(
            ids(&Formula::or(vec![self_loop.clone(), edge.clone()])),
            first
        );
        assert_eq!(known.memo(bare).len(), 1);
        // The conjunction's residual is `false`: no successors, no entry.
        assert!(ids(&Formula::and(vec![self_loop, edge.clone()])).is_empty());
        assert_eq!(known.memo(bare).len(), 1);
        assert!(known.memo(looped).is_empty());
        // Growing the table keeps every memo with its value.
        let points: Vec<Element> = (0..7).map(Element::from_index).collect();
        for v in 0..100u64 {
            let mut g = Structure::new(cfg.pointed.structure.schema().clone(), 7);
            for &p in points.iter().filter(|p| v >> p.index() & 1 == 1) {
                g.add_fact(e, &[p, p]).unwrap();
            }
            known.intern(RelConfig::generated_by(&g, &points));
        }
        assert_eq!(known.len(), 102);
        assert_eq!(known.memo(bare).get(&edge).map(|l| l.to_vec()), Some(first));
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
