//! Dense bitset mirror of [`crate::vector::QueryVector`].
//!
//! Clustering distance kernels touch every pair of distinct queries; for
//! those inner loops a dense `u64`-block bitset with popcount-based set
//! operations beats the sparse merge once vectors are materialized per
//! dataset. The two representations are interconvertible and agree on all
//! set operations (property-tested in `vector` round-trip tests).

use crate::codebook::FeatureId;
use crate::vector::QueryVector;

/// Fixed-width dense bitset over the feature universe.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct BitVec {
    bits: Vec<u64>,
    len: usize,
}

impl BitVec {
    /// All-zeros bitset over a universe of `len` features.
    pub fn zeros(len: usize) -> Self {
        BitVec { bits: vec![0; len.div_ceil(64)], len }
    }

    /// Build from a sparse vector given the universe size.
    ///
    /// # Panics
    /// Panics if any id is outside the universe.
    pub fn from_query_vector(v: &QueryVector, universe: usize) -> Self {
        let mut b = BitVec::zeros(universe);
        for id in v.iter() {
            b.set(id.index());
        }
        b
    }

    /// Convert back to a sparse vector.
    pub fn to_query_vector(&self) -> QueryVector {
        self.iter_ones().map(|i| FeatureId(i as u32)).collect()
    }

    /// Universe size in bits.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the universe is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Set bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.bits[i / 64] |= 1 << (i % 64);
    }

    /// Clear bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i` is out of range.
    #[inline]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.bits[i / 64] & (1 << (i % 64)) != 0
    }

    /// Number of set bits.
    pub fn count_ones(&self) -> usize {
        self.bits.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// `|self ⊕ other|` — Hamming distance.
    pub fn xor_count(&self, other: &BitVec) -> usize {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.bits.iter().zip(&other.bits).map(|(a, b)| (a ^ b).count_ones() as usize).sum()
    }

    /// `|self ⊕ other|` across unequal universes: the narrower bitset is
    /// implicitly zero-extended to the wider one. A feature universe only
    /// ever grows (codebooks intern, never forget), so a vector's set bits
    /// are identical under any universe at least as wide — which makes the
    /// mismatch count well-defined without re-materializing old bitsets.
    /// Equal-width calls agree with [`BitVec::xor_count`].
    pub fn xor_count_padded(&self, other: &BitVec) -> usize {
        let (short, long) =
            if self.bits.len() <= other.bits.len() { (self, other) } else { (other, self) };
        let (head, tail) = long.bits.split_at(short.bits.len());
        let common: usize =
            short.bits.iter().zip(head).map(|(a, b)| (a ^ b).count_ones() as usize).sum();
        common + tail.iter().map(|b| b.count_ones() as usize).sum::<usize>()
    }

    /// Append the bitset's little-endian wire form to `out`:
    /// `len` as a `u64`, then `⌈len / 64⌉` `u64` blocks, all LE. The form
    /// is self-describing (the block count follows from `len`), so records
    /// can concatenate bitsets back to back and
    /// [`BitVec::read_bytes`] them off sequentially — which is how the
    /// shard spill format (`logr-cluster::spill`) packs point payloads.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len as u64).to_le_bytes());
        for block in &self.bits {
            out.extend_from_slice(&block.to_le_bytes());
        }
    }

    /// Serialized size of [`BitVec::write_bytes`]'s output in bytes.
    pub fn wire_len(&self) -> usize {
        8 + 8 * self.bits.len()
    }

    /// Decode one bitset from the front of `bytes`, returning it and the
    /// number of bytes consumed. `None` when `bytes` is too short for the
    /// declared length or when a bit beyond `len` is set (every valid
    /// writer zero-pads the last block, and the equality/hash contract
    /// relies on canonical padding — garbage tails must not round-trip).
    pub fn read_bytes(bytes: &[u8]) -> Option<(BitVec, usize)> {
        let len_bytes: [u8; 8] = bytes.get(..8)?.try_into().ok()?;
        let len = usize::try_from(u64::from_le_bytes(len_bytes)).ok()?;
        let n_blocks = len.div_ceil(64);
        let consumed = 8usize.checked_add(n_blocks.checked_mul(8)?)?;
        let body = bytes.get(8..consumed)?;
        let bits: Vec<u64> = body
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes")))
            .collect();
        if let Some(&last) = bits.last() {
            let tail_bits = len % 64;
            if tail_bits != 0 && last >> tail_bits != 0 {
                return None;
            }
        }
        Some((BitVec { bits, len }, consumed))
    }

    /// Containment: every set bit of `other` is set here.
    pub fn contains_all(&self, other: &BitVec) -> bool {
        assert_eq!(self.len, other.len, "universe mismatch");
        self.bits.iter().zip(&other.bits).all(|(a, b)| b & !a == 0)
    }

    /// Call `f` with each set index in ascending order. Hand-rolled block
    /// loop: equivalent to [`BitVec::iter_ones`] but without iterator
    /// adaptor overhead, which matters in the clustering hot loops
    /// (especially in unoptimized builds).
    #[inline]
    pub fn for_each_one(&self, mut f: impl FnMut(usize)) {
        for (block_idx, &block) in self.bits.iter().enumerate() {
            let mut b = block;
            while b != 0 {
                let tz = b.trailing_zeros() as usize;
                b &= b - 1;
                f(block_idx * 64 + tz);
            }
        }
    }

    /// Iterate indexes of set bits in ascending order.
    pub fn iter_ones(&self) -> impl Iterator<Item = usize> + '_ {
        self.bits.iter().enumerate().flat_map(|(block_idx, &block)| {
            let mut b = block;
            std::iter::from_fn(move || {
                if b == 0 {
                    return None;
                }
                let tz = b.trailing_zeros() as usize;
                b &= b - 1;
                Some(block_idx * 64 + tz)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn qv(ids: &[u32]) -> QueryVector {
        QueryVector::new(ids.iter().map(|&i| FeatureId(i)).collect())
    }

    #[test]
    fn set_get_clear() {
        let mut b = BitVec::zeros(130);
        assert!(!b.get(129));
        b.set(129);
        assert!(b.get(129));
        b.clear(129);
        assert!(!b.get(129));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_panics() {
        BitVec::zeros(10).get(10);
    }

    #[test]
    fn round_trip_with_query_vector() {
        let v = qv(&[0, 5, 63, 64, 127]);
        let b = BitVec::from_query_vector(&v, 128);
        assert_eq!(b.to_query_vector(), v);
        assert_eq!(b.count_ones(), 5);
    }

    #[test]
    fn set_ops_match_sparse() {
        let a = qv(&[1, 2, 3, 70]);
        let b = qv(&[3, 70, 99]);
        let da = BitVec::from_query_vector(&a, 100);
        let db = BitVec::from_query_vector(&b, 100);
        assert_eq!(da.xor_count(&db), a.symmetric_difference_size(&b));
        assert_eq!(da.contains_all(&db), a.contains_all(&b));
        let sub = BitVec::from_query_vector(&qv(&[1, 70]), 100);
        assert!(da.contains_all(&sub));
    }

    #[test]
    fn iter_ones_crosses_block_boundaries() {
        let mut b = BitVec::zeros(200);
        for i in [0, 63, 64, 65, 128, 199] {
            b.set(i);
        }
        assert_eq!(b.iter_ones().collect::<Vec<_>>(), vec![0, 63, 64, 65, 128, 199]);
    }

    #[test]
    fn xor_count_padded_zero_extends() {
        let narrow = BitVec::from_query_vector(&qv(&[1, 60]), 64);
        let wide = BitVec::from_query_vector(&qv(&[1, 100, 190]), 200);
        // {60} ⊕ {100, 190} under zero extension.
        assert_eq!(narrow.xor_count_padded(&wide), 3);
        assert_eq!(wide.xor_count_padded(&narrow), 3);
        // Equal widths agree with the strict path.
        let a = BitVec::from_query_vector(&qv(&[0, 5]), 70);
        let b = BitVec::from_query_vector(&qv(&[5, 69]), 70);
        assert_eq!(a.xor_count_padded(&b), a.xor_count(&b));
        // Empty vs anything counts the set bits.
        assert_eq!(BitVec::zeros(0).xor_count_padded(&wide), 3);
    }

    #[test]
    fn wire_round_trip() {
        for ids in [&[][..], &[0], &[0, 63], &[64], &[1, 100, 190]] {
            for universe in [0usize, 1, 64, 65, 200] {
                if ids.iter().any(|&i| i as usize >= universe) {
                    continue;
                }
                let b = BitVec::from_query_vector(&qv(ids), universe);
                let mut buf = vec![0xAAu8; 3]; // leading garbage the writer must not touch
                let before = buf.len();
                b.write_bytes(&mut buf);
                assert_eq!(buf.len() - before, b.wire_len());
                let (back, consumed) = BitVec::read_bytes(&buf[before..]).unwrap();
                assert_eq!(back, b, "ids={ids:?} universe={universe}");
                assert_eq!(consumed, b.wire_len());
            }
        }
    }

    #[test]
    fn wire_reads_concatenate() {
        let a = BitVec::from_query_vector(&qv(&[1, 2]), 70);
        let b = BitVec::from_query_vector(&qv(&[0]), 3);
        let mut buf = Vec::new();
        a.write_bytes(&mut buf);
        b.write_bytes(&mut buf);
        let (ra, used) = BitVec::read_bytes(&buf).unwrap();
        let (rb, rest) = BitVec::read_bytes(&buf[used..]).unwrap();
        assert_eq!((ra, rb), (a, b));
        assert_eq!(used + rest, buf.len());
    }

    #[test]
    fn wire_rejects_truncation_and_padding_garbage() {
        let b = BitVec::from_query_vector(&qv(&[1, 100]), 130);
        let mut buf = Vec::new();
        b.write_bytes(&mut buf);
        // Every strict prefix is too short.
        for cut in 0..buf.len() {
            assert!(BitVec::read_bytes(&buf[..cut]).is_none(), "prefix of {cut} bytes decoded");
        }
        // A set bit beyond `len` (non-canonical padding) is rejected: only
        // bits 0..2 of the last block are inside the 130-bit universe.
        let mut dirty = buf.clone();
        let last_block = dirty.len() - 8;
        dirty[last_block] |= 1 << 4;
        assert!(BitVec::read_bytes(&dirty).is_none(), "padding garbage decoded");
        // An absurd declared length cannot allocate or wrap.
        let mut huge = buf;
        huge[..8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(BitVec::read_bytes(&huge).is_none());
    }

    #[test]
    fn empty_universe() {
        let b = BitVec::zeros(0);
        assert!(b.is_empty());
        assert_eq!(b.count_ones(), 0);
        assert_eq!(b.iter_ones().count(), 0);
    }
}
