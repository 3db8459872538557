//! Cache geometry: size, associativity and block size bookkeeping.

use lnuca_types::{Addr, ConfigError};

/// The geometric parameters of a set-associative cache and the address
/// slicing they imply.
///
/// # Example
///
/// ```
/// use lnuca_mem::CacheGeometry;
/// use lnuca_types::Addr;
///
/// // An 8 KB, 2-way, 32 B-block L-NUCA tile.
/// let g = CacheGeometry::new(8 * 1024, 2, 32)?;
/// assert_eq!(g.sets(), 128);
/// assert_eq!(g.lines(), 256);
/// let a = Addr(0x1_2345);
/// assert_eq!(g.set_index(a), ((0x1_2345u64 >> 5) % 128) as usize);
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheGeometry {
    size_bytes: u64,
    ways: usize,
    block_size: u64,
    sets: usize,
}

impl CacheGeometry {
    /// Creates a geometry for a cache of `size_bytes` bytes, `ways`-way
    /// set-associative, with `block_size`-byte blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any parameter is zero, if `size_bytes` or
    /// `block_size` is not a power of two, or if the implied number of sets
    /// is not a positive power of two.
    pub fn new(size_bytes: u64, ways: usize, block_size: u64) -> Result<Self, ConfigError> {
        if size_bytes == 0 || !size_bytes.is_power_of_two() {
            return Err(ConfigError::new(
                "size_bytes",
                format!("must be a nonzero power of two, got {size_bytes}"),
            ));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {block_size}"),
            ));
        }
        if ways == 0 {
            return Err(ConfigError::new("ways", "must be nonzero"));
        }
        let lines = size_bytes / block_size;
        if lines == 0 || lines % ways as u64 != 0 {
            return Err(ConfigError::new(
                "ways",
                format!("{ways} ways do not evenly divide {lines} lines"),
            ));
        }
        let sets = lines / ways as u64;
        if !sets.is_power_of_two() {
            return Err(ConfigError::new(
                "size_bytes",
                format!("implied set count {sets} is not a power of two"),
            ));
        }
        Ok(CacheGeometry {
            size_bytes,
            ways,
            block_size,
            sets: sets as usize,
        })
    }

    /// Fully-associative geometry: a single set holding `lines` blocks.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `lines` is zero or `block_size` is not a
    /// power of two.
    pub fn fully_associative(lines: usize, block_size: u64) -> Result<Self, ConfigError> {
        if lines == 0 {
            return Err(ConfigError::new("lines", "must be nonzero"));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {block_size}"),
            ));
        }
        Ok(CacheGeometry {
            size_bytes: lines as u64 * block_size,
            ways: lines,
            block_size,
            sets: 1,
        })
    }

    /// Total capacity in bytes.
    #[must_use]
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Associativity (ways per set).
    #[must_use]
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Block (line) size in bytes.
    #[must_use]
    pub fn block_size(&self) -> u64 {
        self.block_size
    }

    /// Number of sets.
    #[must_use]
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Total number of cache lines.
    #[must_use]
    pub fn lines(&self) -> usize {
        self.sets * self.ways
    }

    /// Set index for an address.
    #[must_use]
    pub fn set_index(&self, addr: Addr) -> usize {
        (addr.block_index(self.block_size) % self.sets as u64) as usize
    }

    /// Tag for an address (the block index bits above the set index).
    #[must_use]
    pub fn tag(&self, addr: Addr) -> u64 {
        addr.block_index(self.block_size) / self.sets as u64
    }

    /// The block-aligned base address corresponding to a (tag, set) pair.
    /// Inverse of [`CacheGeometry::tag`]/[`CacheGeometry::set_index`].
    #[must_use]
    pub fn reconstruct_addr(&self, tag: u64, set: usize) -> Addr {
        let block_index = tag * self.sets as u64 + set as u64;
        Addr(block_index * self.block_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn paper_geometries_are_valid() {
        // L1 / r-tile: 32 KB, 4-way, 32 B.
        let l1 = CacheGeometry::new(32 * 1024, 4, 32).unwrap();
        assert_eq!(l1.sets(), 256);
        // L-NUCA tile: 8 KB, 2-way, 32 B.
        let tile = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
        assert_eq!(tile.sets(), 128);
        // L2: 256 KB, 8-way, 64 B.
        let l2 = CacheGeometry::new(256 * 1024, 8, 64).unwrap();
        assert_eq!(l2.sets(), 512);
        // L3: 8 MB, 16-way, 128 B.
        let l3 = CacheGeometry::new(8 * 1024 * 1024, 16, 128).unwrap();
        assert_eq!(l3.sets(), 4096);
        // D-NUCA bank: 256 KB, 2-way, 128 B.
        let bank = CacheGeometry::new(256 * 1024, 2, 128).unwrap();
        assert_eq!(bank.sets(), 1024);
    }

    #[test]
    fn invalid_geometries_are_rejected() {
        assert!(CacheGeometry::new(0, 2, 32).is_err());
        assert!(CacheGeometry::new(3000, 2, 32).is_err());
        assert!(CacheGeometry::new(8 * 1024, 0, 32).is_err());
        assert!(CacheGeometry::new(8 * 1024, 2, 48).is_err());
        assert!(CacheGeometry::new(8 * 1024, 3, 32).is_err(), "3 ways over 256 lines leaves a non power-of-two set count");
    }

    #[test]
    fn fully_associative_single_set() {
        let g = CacheGeometry::fully_associative(16, 32).unwrap();
        assert_eq!(g.sets(), 1);
        assert_eq!(g.ways(), 16);
        assert_eq!(g.size_bytes(), 512);
        assert_eq!(g.set_index(Addr(0xdead_beef)), 0);
        assert!(CacheGeometry::fully_associative(0, 32).is_err());
        assert!(CacheGeometry::fully_associative(4, 33).is_err());
    }

    #[test]
    fn tag_and_index_partition_the_address() {
        let g = CacheGeometry::new(8 * 1024, 2, 32).unwrap();
        let a = Addr(0xABCD_EF00);
        let reconstructed = g.reconstruct_addr(g.tag(a), g.set_index(a));
        assert_eq!(reconstructed, a.block_base(32));
    }

    proptest! {
        #[test]
        fn reconstruct_round_trips(addr in any::<u64>()) {
            let g = CacheGeometry::new(256 * 1024, 8, 64).unwrap();
            let a = Addr(addr);
            let r = g.reconstruct_addr(g.tag(a), g.set_index(a));
            prop_assert_eq!(r, a.block_base(64));
        }

        #[test]
        fn set_index_in_range(addr in any::<u64>(), size_log in 13u32..24, ways in prop::sample::select(vec![1usize, 2, 4, 8, 16])) {
            let size = 1u64 << size_log;
            let g = CacheGeometry::new(size, ways, 64).unwrap();
            prop_assert!(g.set_index(Addr(addr)) < g.sets());
        }
    }
}
