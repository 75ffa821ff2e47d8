//! Hash maps keyed by ids the simulator generates itself.
//!
//! Array ids, cache-line numbers and `(array, processor)` pairs are handed
//! out by the program (the allocator, the address map, the protocol
//! layer) and never read from request bytes, so the maps on the
//! per-access path need no flood-resistant hashing. [`IdMap`] swaps the
//! standard library's SipHash for [`IdHasher`], one multiply per integer
//! written.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// A `HashMap` hashed with [`IdHasher`]. Only for keys the simulator
/// allocates; iteration order is arbitrary, so sort before anything
/// observable depends on it.
pub type IdMap<K, V> = HashMap<K, V, BuildHasherDefault<IdHasher>>;

/// Multiplicative hasher for small integer keys (the Fx scheme: rotate,
/// xor, multiply by an odd constant). The multiply keeps keys that differ
/// in their low bits apart in the low bits, where the table picks its
/// bucket, and spreads them into the high bits it uses as tags.
#[derive(Debug, Clone, Copy, Default)]
pub struct IdHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl IdHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for IdHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.add(u64::from(b));
        }
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::{LineAddr, ProcId};
    use specrt_ir::ArrayId;
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(v: T) -> u64 {
        BuildHasherDefault::<IdHasher>::default().hash_one(v)
    }

    #[test]
    fn distinct_small_keys_hash_apart() {
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..4096u64 {
            // Low 12 bits pick the bucket in a 4096-slot table.
            assert!(seen.insert(hash_of(LineAddr(i)) & 0xfff));
        }
        assert_ne!(
            hash_of((ArrayId(1), ProcId(2))),
            hash_of((ArrayId(2), ProcId(1)))
        );
    }

    #[test]
    fn map_round_trips() {
        let mut m: IdMap<LineAddr, u32> = IdMap::default();
        for i in 0..1000 {
            m.insert(LineAddr(i * 64), i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m.get(&LineAddr(640)), Some(&10));
        assert_eq!(m.get(&LineAddr(641)), None);
    }
}
