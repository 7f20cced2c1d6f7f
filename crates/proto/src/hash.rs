//! A cheap hash for maps keyed by Zeus identifiers.
//!
//! Every identifier ([`crate::ObjectId`], [`crate::RequestId`], …) is one or
//! two small integers the application or the protocol hands out, and the
//! maps keyed by them sit on the per-transaction path. SipHash — the standard
//! library's default, built to resist keys crafted to collide — costs more
//! there than the lookup it guards, and the keys never come from an untrusted
//! peer. [`IdHasher`] is one multiplication and one fold per integer written.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// Spreads `x` over 64 bits: a Fibonacci multiplication, then the high half
/// folded onto the low half so the low bits — the ones a hash table indexes
/// by — depend on every input bit (ids that differ only in their high bits,
/// like `ObjectId::from_table_row` tables, or that share a power-of-two
/// stride, would otherwise pile into a few buckets).
#[inline]
pub fn spread(x: u64) -> u64 {
    let h = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 32)
}

/// [`Hasher`] for identifier keys; see the [module docs](self).
#[derive(Debug, Default, Clone, Copy)]
pub struct IdHasher(u64);

impl Hasher for IdHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, x: u64) {
        self.0 = spread(self.0.rotate_left(5) ^ x);
    }

    #[inline]
    fn write_u32(&mut self, x: u32) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u16(&mut self, x: u16) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_u8(&mut self, x: u8) {
        self.write_u64(u64::from(x));
    }

    #[inline]
    fn write_usize(&mut self, x: usize) {
        self.write_u64(x as u64);
    }
}

/// `BuildHasher` producing [`IdHasher`]s.
pub type IdBuildHasher = BuildHasherDefault<IdHasher>;

/// A `HashMap` hashed with [`IdHasher`].
pub type IdHashMap<K, V> = HashMap<K, V, IdBuildHasher>;

/// A `HashSet` hashed with [`IdHasher`].
pub type IdHashSet<K> = HashSet<K, IdBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NodeId, ObjectId, RequestId};
    use std::hash::{BuildHasher, Hash};

    fn hash_of<T: Hash>(value: T) -> u64 {
        IdBuildHasher::default().hash_one(value)
    }

    #[test]
    fn a_single_u64_key_hashes_to_its_spread() {
        assert_eq!(hash_of(ObjectId(42)), spread(42));
        assert_ne!(hash_of(ObjectId(42)), hash_of(ObjectId(43)));
    }

    #[test]
    fn every_field_of_a_compound_key_counts() {
        let a = hash_of(RequestId::new(NodeId(1), 7));
        assert_ne!(a, hash_of(RequestId::new(NodeId(2), 7)));
        assert_ne!(a, hash_of(RequestId::new(NodeId(1), 8)));
        assert_ne!(
            hash_of((NodeId(1), ObjectId(2))),
            hash_of((NodeId(2), ObjectId(1)))
        );
    }

    #[test]
    fn strided_and_table_tagged_ids_fill_the_low_bits() {
        // 4,096 ids per pattern into 256 buckets by the low 8 bits, the way
        // a hash table picks a bucket: no bucket may be badly overfull.
        let patterns: [fn(u64) -> u64; 4] = [
            |i| i,
            |i| i << 20,
            |i| ObjectId::from_table_row((i % 7) as u8, i / 7).0,
            |i| i * 60_000,
        ];
        for pattern in patterns {
            let mut buckets = [0u32; 256];
            for i in 0..4_096 {
                buckets[(spread(pattern(i)) & 0xFF) as usize] += 1;
            }
            let worst = buckets.iter().copied().max().unwrap();
            assert!(worst <= 48, "mean is 16 per bucket, worst was {worst}");
        }
    }
}
