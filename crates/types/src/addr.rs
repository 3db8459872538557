//! Byte addresses and block-level helpers.

use std::fmt;

/// A physical byte address.
///
/// The simulator operates on a flat 64-bit physical address space. Caches
/// derive their own block, set-index and tag fields from an `Addr` using the
/// helpers below, so that levels with different block sizes (32 B L-NUCA
/// tiles, 64 B L2, 128 B L3/D-NUCA banks) can share the same request stream.
///
/// # Example
///
/// ```
/// use lnuca_types::Addr;
///
/// let a = Addr(0x1234);
/// assert_eq!(a.block_base(64), Addr(0x1200));
/// assert_eq!(a.block_index(64), 0x48);
/// assert_eq!(a.offset_in_block(64), 0x34);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Addr(pub u64);

impl Addr {
    /// Returns the address of the first byte of the block containing `self`.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    #[must_use]
    pub fn block_base(self, block_size: u64) -> Addr {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        Addr(self.0 & !(block_size - 1))
    }

    /// Returns the block number (address divided by the block size).
    ///
    /// Two addresses with the same block index map to the same cache block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    #[must_use]
    pub fn block_index(self, block_size: u64) -> u64 {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        self.0 >> block_size.trailing_zeros()
    }

    /// Returns the byte offset of this address within its block.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is not a power of two.
    #[must_use]
    pub fn offset_in_block(self, block_size: u64) -> u64 {
        assert!(
            block_size.is_power_of_two(),
            "block size must be a power of two, got {block_size}"
        );
        self.0 & (block_size - 1)
    }

    /// Returns `true` if `self` and `other` fall in the same block of the
    /// given size.
    #[must_use]
    pub fn same_block(self, other: Addr, block_size: u64) -> bool {
        self.block_index(block_size) == other.block_index(block_size)
    }

    /// Returns the address `bytes` bytes above this one, wrapping on overflow.
    #[must_use]
    pub fn offset(self, bytes: u64) -> Addr {
        Addr(self.0.wrapping_add(bytes))
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

impl fmt::LowerHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

impl fmt::UpperHex for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::UpperHex::fmt(&self.0, f)
    }
}

impl From<u64> for Addr {
    fn from(value: u64) -> Self {
        Addr(value)
    }
}

impl From<Addr> for u64 {
    fn from(value: Addr) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn block_base_masks_low_bits() {
        assert_eq!(Addr(0xFFFF).block_base(32), Addr(0xFFE0));
        assert_eq!(Addr(0x20).block_base(32), Addr(0x20));
        assert_eq!(Addr(0x0).block_base(128), Addr(0x0));
    }

    #[test]
    fn block_index_divides_by_block_size() {
        assert_eq!(Addr(0x100).block_index(32), 8);
        assert_eq!(Addr(0x11F).block_index(32), 8);
        assert_eq!(Addr(0x120).block_index(32), 9);
    }

    #[test]
    fn offset_in_block_is_low_bits() {
        assert_eq!(Addr(0x1234).offset_in_block(64), 0x34);
        assert_eq!(Addr(0x1240).offset_in_block(64), 0);
    }

    #[test]
    fn same_block_respects_block_size() {
        assert!(Addr(0x100).same_block(Addr(0x11F), 32));
        assert!(!Addr(0x100).same_block(Addr(0x120), 32));
        assert!(Addr(0x100).same_block(Addr(0x17F), 128));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(255).to_string(), "0xff");
        assert_eq!(format!("{:x}", Addr(255)), "ff");
        assert_eq!(format!("{:X}", Addr(255)), "FF");
    }

    #[test]
    fn conversion_round_trip() {
        let a: Addr = 42u64.into();
        let v: u64 = a.into();
        assert_eq!(v, 42);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_block_size_panics() {
        let _ = Addr(0x100).block_base(48);
    }

    proptest! {
        #[test]
        fn block_base_is_aligned(addr in any::<u64>(), shift in 3u32..10) {
            let bs = 1u64 << shift;
            let base = Addr(addr).block_base(bs);
            prop_assert_eq!(base.0 % bs, 0);
            prop_assert!(base.0 <= addr);
            prop_assert!(addr - base.0 < bs);
        }

        #[test]
        fn base_plus_offset_recovers_address(addr in any::<u64>(), shift in 3u32..10) {
            let bs = 1u64 << shift;
            let a = Addr(addr);
            prop_assert_eq!(a.block_base(bs).0 + a.offset_in_block(bs), addr);
        }

        #[test]
        fn same_block_iff_same_index(a in any::<u64>(), b in any::<u64>(), shift in 3u32..10) {
            let bs = 1u64 << shift;
            let same = Addr(a).same_block(Addr(b), bs);
            prop_assert_eq!(same, a >> shift == b >> shift);
        }
    }
}
