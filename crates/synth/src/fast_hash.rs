//! A small multiplicative hasher for the regulatory pass's per-claim maps
//! and sets.
//!
//! Keys there are generator-owned integers (hex cells, technology codes,
//! town indices), so `std`'s DoS-resistant SipHash buys nothing and costs a
//! large share of the pass. Each written word is added to the state and the
//! sum multiplied by an odd constant; `finish` rotates the well-mixed high
//! bits down, because `HashMap` picks buckets from the low bits. The hash
//! never reaches an output: every map built with it is drained in sorted
//! order or only ever probed.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed through [`MulHasher`].
pub type FastMap<K, V> = HashMap<K, V, BuildHasherDefault<MulHasher>>;

/// `HashSet` keyed through [`MulHasher`].
pub type FastSet<T> = HashSet<T, BuildHasherDefault<MulHasher>>;

/// Odd multiplier with well-spread bits (the 64-bit constant of rustc's
/// `FxHasher` v2).
const K: u64 = 0xf135_7aea_2e62_a9c5;

/// Add-then-multiply word hasher; see the module docs.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

impl MulHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(K);
    }
}

impl Hasher for MulHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<MulHasher>::default().hash_one(value)
    }

    #[test]
    fn town_sized_hex_patches_spread_over_buckets() {
        // The hot keys are resolution-8 cells of one town's neighbourhood:
        // packed axial coordinates that differ only in a few bits of each
        // half. Their hashes must still spread over the low-bit buckets
        // `HashMap` indexes by.
        let centre = geoprim::LatLng::new(41.25, -96.0);
        let mut cells: Vec<hexgrid::HexCell> = (0..32)
            .flat_map(|i| (0..32).map(move |j| (i, j)))
            .map(|(i, j)| {
                let p = centre.destination(f64::from(i) * 11.25, f64::from(j) * 300.0);
                hexgrid::HexCell::containing(&p, hexgrid::NBM_RESOLUTION)
            })
            .collect();
        cells.sort_unstable();
        cells.dedup();
        assert!(cells.len() > 200, "only {} cells", cells.len());
        let buckets: FastSet<u64> = cells.iter().map(|c| hash(c) & 0x3ff).collect();
        assert!(
            buckets.len() * 10 > cells.len() * 7,
            "{} cells in {} of 1024 buckets",
            cells.len(),
            buckets.len()
        );
    }

    #[test]
    fn maps_behave_like_std_maps() {
        let mut fast: FastMap<(u64, u8), u32> = FastMap::default();
        let mut std_map = std::collections::BTreeMap::new();
        for i in 0..10_000u64 {
            let key = (i.wrapping_mul(0x9e37_79b9) % 997, (i % 7) as u8);
            *fast.entry(key).or_insert(0) += 1;
            *std_map.entry(key).or_insert(0) += 1;
        }
        let mut drained: Vec<_> = fast.into_iter().collect();
        drained.sort_unstable();
        assert_eq!(drained, std_map.into_iter().collect::<Vec<_>>());
    }
}
