//! Feature-string interning: the dense integer vocabulary behind the
//! compiled retrieval index.
//!
//! Mirrors the simulator's signal interning (`rtlb_sim::compile`): every
//! feature string the model saw at finetune time gets a dense [`FeatureId`],
//! so the retrieval hot path works over `u32`s and `Vec` lookups instead of
//! `String`-keyed hash sets.
//!
//! Lookups hash with `FxHasher`, a small multiply-rotate hasher: interning
//! a corpus is one lookup per feature occurrence, and on the 2,000-pair
//! paper corpus a fine-tune takes about 38 ms with it against about 45 ms
//! with SipHash (2-core box, medians of 15). Fx has no resistance to keys
//! crafted to collide; the keys are feature strings of the training
//! corpora the pipeline generates itself.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// The Fx hash (as in `rustc`): per word, rotate, xor, multiply.
#[derive(Debug, Clone, Copy, Default)]
struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for chunk in &mut chunks {
            self.add(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
        }
        let mut tail = [0u8; 8];
        let rest = chunks.remainder();
        tail[..rest.len()].copy_from_slice(rest);
        self.add(u64::from_le_bytes(tail) ^ ((rest.len() as u64) << 59));
    }

    #[inline]
    fn write_u8(&mut self, byte: u8) {
        self.add(u64::from(byte));
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// Dense id of an interned feature string. Ids are assigned in first-seen
/// order at finetune time and index directly into the vocabulary's tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FeatureId(pub u32);

impl FeatureId {
    /// The id as a usize index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// An interned feature vocabulary: bijection between feature strings and
/// dense [`FeatureId`]s.
#[derive(Debug, Clone, Default)]
pub struct FeatureVocab {
    ids: HashMap<String, FeatureId, BuildHasherDefault<FxHasher>>,
    names: Vec<String>,
}

impl FeatureVocab {
    /// Creates an empty vocabulary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns `name`, returning its id (existing or freshly assigned).
    pub fn intern(&mut self, name: &str) -> FeatureId {
        if let Some(&id) = self.ids.get(name) {
            return id;
        }
        let id = FeatureId(u32::try_from(self.names.len()).expect("vocabulary fits in u32"));
        self.ids.insert(name.to_owned(), id);
        self.names.push(name.to_owned());
        id
    }

    /// The id of `name`, if it was interned.
    pub fn get(&self, name: &str) -> Option<FeatureId> {
        self.ids.get(name).copied()
    }

    /// The string of an interned id.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not produced by this vocabulary.
    pub fn name(&self, id: FeatureId) -> &str {
        &self.names[id.index()]
    }

    /// Number of interned features.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// `true` when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent_and_dense() {
        let mut v = FeatureVocab::new();
        let a = v.intern("w:adder");
        let b = v.intern("w:carry");
        let a2 = v.intern("w:adder");
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!(a.index(), 0);
        assert_eq!(b.index(), 1);
        assert_eq!(v.len(), 2);
        assert_eq!(v.name(a), "w:adder");
        assert_eq!(v.get("w:carry"), Some(b));
        assert_eq!(v.get("w:unseen"), None);
    }

    #[test]
    fn empty_vocab() {
        let v = FeatureVocab::new();
        assert!(v.is_empty());
        assert_eq!(v.get("anything"), None);
    }
}
