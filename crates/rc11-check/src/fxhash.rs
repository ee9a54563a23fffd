//! An FxHash-style hasher for integer-heavy keys — and its 128-bit
//! extension behind canonical fingerprints.
//!
//! Canonical configurations hash on every exploration step; the perf-book
//! guide recommends an Fx-class hasher for such integer-keyed maps, and
//! `rustc-hash` is outside the offline dependency set, so the (tiny,
//! well-known) algorithm is implemented here: a rotate–xor–multiply over
//! native words.
//!
//! [`Fx128Hasher`] runs two independently seeded rotate–xor–multiply lanes
//! over the same word stream and finalises them with an avalanche mix into
//! a 128-bit [`Fp128`]. The exploration walk keys its visited index on
//! the [`Fp128`] of a configuration's *canonical encoding* (the word
//! format of `rc11_core::canon`), via [`fingerprint`] — see DESIGN.md
//! ablation A4. A fingerprint hit is confirmed by comparing the encoding
//! with the interned representative's words before a state is treated as
//! visited, so a 128-bit collision can cost a bucket walk but never an
//! unsound verdict.

use std::hash::{BuildHasherDefault, Hasher};

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rotate–xor–multiply hasher.
#[derive(Debug, Clone, Copy, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.hash = (self.hash.rotate_left(5) ^ i).wrapping_mul(SEED);
    }
}

/// `Hasher` for a rotate–xor–multiply hasher with an `add_to_hash(u64)`
/// step: every integer is one word, raw bytes are length-prefixed words,
/// and `finish` is `$finish(self)`.
macro_rules! word_hasher {
    ($hasher:ty, $finish:expr) => {
        impl Hasher for $hasher {
            #[inline]
            fn write(&mut self, bytes: &[u8]) {
                // Mix the length in first: the remainder below is
                // zero-padded to a full word, so within a single `write`
                // call any zero-extended tail would collide (e.g. raw write
                // of [1,2,3] vs [1,2,3,0,0]). std's derived Hash guards
                // slices with a length prefix of its own, but raw
                // `Hasher::write` callers get no such protection.
                self.add_to_hash(bytes.len() as u64);
                let mut chunks = bytes.chunks_exact(8);
                for c in &mut chunks {
                    self.add_to_hash(u64::from_le_bytes(c.try_into().unwrap()));
                }
                let rem = chunks.remainder();
                if !rem.is_empty() {
                    let mut buf = [0u8; 8];
                    buf[..rem.len()].copy_from_slice(rem);
                    self.add_to_hash(u64::from_le_bytes(buf));
                }
            }

            #[inline]
            fn write_u8(&mut self, i: u8) {
                self.add_to_hash(i as u64);
            }

            #[inline]
            fn write_u16(&mut self, i: u16) {
                self.add_to_hash(i as u64);
            }

            #[inline]
            fn write_u32(&mut self, i: u32) {
                self.add_to_hash(i as u64);
            }

            #[inline]
            fn write_u64(&mut self, i: u64) {
                self.add_to_hash(i);
            }

            #[inline]
            fn write_usize(&mut self, i: usize) {
                self.add_to_hash(i as u64);
            }

            #[inline]
            fn finish(&self) -> u64 {
                $finish(self)
            }
        }
    };
}

word_hasher!(FxHasher, |h: &FxHasher| h.hash);

/// A 128-bit canonical fingerprint: the finalised output of
/// [`Fx128Hasher`]. The walk uses it as the visited-map key in place of
/// the canonical encoding itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fp128 {
    /// High 64 bits.
    pub hi: u64,
    /// Low 64 bits.
    pub lo: u64,
}

const SEED_HI: u64 = 0x9e_37_79_b9_7f_4a_7c_15;

/// SplitMix64's avalanche finaliser: every input bit influences every
/// output bit, so fingerprint bits are usable directly for sharding.
#[inline]
fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The 128-bit extension of [`FxHasher`]: two rotate–xor–multiply lanes
/// with distinct seeds, rotations and multipliers consume every written
/// word, then [`Fx128Hasher::finish128`] cross-mixes and avalanches them
/// into an [`Fp128`]. The lanes start at their (non-zero) seeds rather
/// than 0 so that all-zero word streams of different lengths still evolve
/// the state (0 is a fixed point of rotate–xor–multiply from a zero
/// state). Collisions require both independent lanes to collide
/// simultaneously, which at the state counts the explorer reaches (≤ the
/// `max_states` cap of 5·10⁶) has birthday probability ≈ 2⁻⁸⁴ — and are
/// survivable anyway: the engines confirm fingerprint hits against the
/// interned canonical representative.
#[derive(Debug, Clone, Copy)]
pub struct Fx128Hasher {
    lo: u64,
    hi: u64,
}

impl Default for Fx128Hasher {
    fn default() -> Fx128Hasher {
        Fx128Hasher { lo: SEED, hi: SEED_HI }
    }
}

impl Fx128Hasher {
    #[inline]
    fn add_to_hash(&mut self, i: u64) {
        self.lo = (self.lo.rotate_left(5) ^ i).wrapping_mul(SEED);
        self.hi = (self.hi.rotate_left(23) ^ i).wrapping_mul(SEED_HI);
    }

    /// Finalise both lanes into the 128-bit fingerprint.
    #[inline]
    pub fn finish128(&self) -> Fp128 {
        Fp128 {
            lo: mix64(self.lo ^ self.hi.rotate_left(32)),
            hi: mix64(self.hi.wrapping_add(SEED) ^ self.lo.rotate_left(32)),
        }
    }
}

// `finish` is the low finalised lane; prefer `Fx128Hasher::finish128`.
word_hasher!(Fx128Hasher, |h: &Fx128Hasher| h.finish128().lo);

/// The canonical fingerprint of an encoding: its [`Fx128Hasher`] hash
/// ([`rc11_core::canon::hash_words`]). Equal canonical forms encode, and
/// so fingerprint, equal; the converse holds up to 128-bit collisions,
/// which the walk survives by comparing the words themselves.
pub fn fingerprint(words: &[u32]) -> Fp128 {
    let mut h = Fx128Hasher::default();
    rc11_core::canon::hash_words(words, &mut h);
    h.finish128()
}

/// The interned-arena state ids behind one fingerprint, as used by the
/// exploration walk. Almost always a single id; a
/// genuine 128-bit collision grows the bucket, and lookups compare the
/// encoding with each interned candidate's words before declaring a
/// state visited.
pub(crate) enum IdBucket {
    /// The common case: one state per fingerprint, no heap allocation.
    One(u32),
    /// A 128-bit collision: several interned states share the fingerprint.
    Many(Vec<u32>),
}

impl IdBucket {
    /// The ids in this bucket.
    pub(crate) fn ids(&self) -> &[u32] {
        match self {
            IdBucket::One(id) => std::slice::from_ref(id),
            IdBucket::Many(ids) => ids,
        }
    }

    /// Add an id (promotes to the heap-allocated form on first collision).
    pub(crate) fn push(&mut self, id: u32) {
        match self {
            IdBucket::One(first) => *self = IdBucket::Many(vec![*first, id]),
            IdBucket::Many(ids) => ids.push(id),
        }
    }
}

/// `BuildHasher` for [`FxHasher`].
pub type FxBuildHasher = BuildHasherDefault<FxHasher>;

/// A `HashMap` keyed with [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, FxBuildHasher>;

/// A `HashSet` keyed with [`FxHasher`].
pub type FxHashSet<K> = std::collections::HashSet<K, FxBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        FxBuildHasher::default().hash_one(v)
    }

    #[test]
    fn deterministic() {
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
        assert_eq!(hash_of(&"hello"), hash_of(&"hello"));
    }

    #[test]
    fn distinguishes_values() {
        assert_ne!(hash_of(&1u64), hash_of(&2u64));
        assert_ne!(hash_of(&[1u8, 0]), hash_of(&[0u8, 1]));
    }

    #[test]
    fn byte_tail_is_hashed() {
        // Differ only in the last (non-multiple-of-8) byte.
        let a: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 9];
        let b: &[u8] = &[1, 2, 3, 4, 5, 6, 7, 8, 10];
        assert_ne!(hash_of(&a), hash_of(&b));
    }

    /// Raw `write` of a slice vs the same slice zero-extended: the tail is
    /// zero-padded into a full word, so only the length mix separates them.
    #[test]
    fn zero_extended_tail_does_not_collide() {
        fn raw_write(bytes: &[u8]) -> u64 {
            let mut h = FxHasher::default();
            h.write(bytes);
            h.finish()
        }
        assert_ne!(raw_write(&[1, 2, 3]), raw_write(&[1, 2, 3, 0, 0]));
        assert_ne!(raw_write(&[1, 2, 3]), raw_write(&[1, 2, 3, 0, 0, 0, 0, 0]));
        assert_ne!(raw_write(&[]), raw_write(&[0]));
        assert_ne!(raw_write(&[0; 8]), raw_write(&[0; 16]));
        // Zero-extension past the word boundary must also stay distinct.
        let a = [9u8, 8, 7, 6, 5, 4, 3, 2, 1];
        let mut b = a.to_vec();
        b.extend_from_slice(&[0, 0, 0]);
        assert_ne!(raw_write(&a), raw_write(&b));
    }

    fn fp_of_words(words: &[u64]) -> Fp128 {
        let mut h = Fx128Hasher::default();
        for &w in words {
            h.write_u64(w);
        }
        h.finish128()
    }

    #[test]
    fn fp128_is_deterministic_and_sensitive() {
        assert_eq!(fp_of_words(&[1, 2, 3]), fp_of_words(&[1, 2, 3]));
        assert_ne!(fp_of_words(&[1, 2, 3]), fp_of_words(&[1, 2, 4]));
        assert_ne!(fp_of_words(&[1, 2, 3]), fp_of_words(&[3, 2, 1]));
        assert_ne!(fp_of_words(&[]), fp_of_words(&[0]));
    }

    /// The two lanes are independent: single-bit input flips change both
    /// halves of the fingerprint (no lane is a copy of the other).
    #[test]
    fn fp128_lanes_are_independent() {
        let base = fp_of_words(&[0xdead_beef, 42]);
        for bit in 0..64 {
            let flipped = fp_of_words(&[0xdead_beef ^ (1u64 << bit), 42]);
            assert_ne!(base.lo, flipped.lo, "bit {bit} must disturb the low lane");
            assert_ne!(base.hi, flipped.hi, "bit {bit} must disturb the high lane");
        }
        assert_ne!(base.lo, base.hi);
    }

    /// No 128-bit collisions across a large family of short word streams
    /// (a smoke bound, not a proof: 2×10⁵ streams pairwise distinct).
    #[test]
    fn fp128_has_no_collisions_on_small_streams() {
        let mut seen = FxHashSet::default();
        for a in 0..200u64 {
            for b in 0..200u64 {
                assert!(seen.insert(fp_of_words(&[a, b])), "collision at ({a}, {b})");
                assert!(seen.insert(fp_of_words(&[a.wrapping_mul(1 << 17), b, a])));
            }
        }
    }

    /// `fingerprint` respects canonicalisation end to end: equal
    /// canonical forms fingerprint equal, distinct ones distinct, and the
    /// fingerprint is stable under materialised canonicalisation.
    #[test]
    fn canonical_fingerprint_tracks_canonical_forms() {
        use rc11_core::{Combined, Comp, InitLoc, Loc, OpId, Tid, Val};
        let fp = |s: &Combined| {
            let mut words = Vec::new();
            s.encode_canonical(&s.canonical_perms(), &mut words);
            fingerprint(&words)
        };
        let base = Combined::new(
            &[InitLoc::Var(Val::Int(0)), InitLoc::Var(Val::Int(0))],
            &[],
            2,
        );
        let a = base
            .apply_write(Comp::Client, Tid(0), Loc(0), Val::Int(1), false, OpId(0))
            .apply_write(Comp::Client, Tid(1), Loc(1), Val::Int(2), true, OpId(1));
        let b = base
            .apply_write(Comp::Client, Tid(1), Loc(1), Val::Int(2), true, OpId(1))
            .apply_write(Comp::Client, Tid(0), Loc(0), Val::Int(1), false, OpId(0));
        let c = base.apply_write(Comp::Client, Tid(0), Loc(0), Val::Int(9), false, OpId(0));

        assert_eq!(a.canonical(), b.canonical());
        assert_eq!(fp(&a), fp(&b));
        assert_ne!(fp(&a), fp(&c));
        assert_eq!(fp(&a), fp(&a.canonical()));
    }
}
