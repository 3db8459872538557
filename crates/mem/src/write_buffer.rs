//! A coalescing write buffer.

use lnuca_types::{Addr, ConfigError};
use std::collections::VecDeque;

/// A FIFO write buffer that coalesces writes to the same block.
///
/// The paper's configuration places a 48-entry store buffer next to the core
/// and 32-entry write buffers in front of the L2 and L3 (Table I). The buffer
/// absorbs write-through traffic from the L1/r-tile and dirty evictions, and
/// drains one entry at a time to the next level.
///
/// # Example
///
/// ```
/// use lnuca_mem::WriteBuffer;
/// use lnuca_types::Addr;
///
/// let mut wb = WriteBuffer::new(4, 64)?;
/// assert!(wb.push(Addr(0x100)));
/// assert!(wb.push(Addr(0x13C))); // coalesces into the same 64 B block
/// assert_eq!(wb.occupancy(), 1);
/// assert_eq!(wb.drain_one(), Some(Addr(0x100)));
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WriteBuffer {
    entries: VecDeque<Addr>,
    capacity: usize,
    block_size: u64,
    coalesced: u64,
    accepted: u64,
    rejected: u64,
}

impl WriteBuffer {
    /// Creates a write buffer with `capacity` block entries for blocks of
    /// `block_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `capacity` is zero or `block_size` is not
    /// a power of two.
    pub fn new(capacity: usize, block_size: u64) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new("capacity", "must be nonzero"));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {block_size}"),
            ));
        }
        Ok(WriteBuffer {
            entries: VecDeque::with_capacity(capacity),
            capacity,
            block_size,
            coalesced: 0,
            accepted: 0,
            rejected: 0,
        })
    }

    /// Number of distinct blocks buffered.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` when no further non-coalescing writes can be accepted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Returns `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Tries to buffer a write to `addr`. Returns `false` if the buffer is
    /// full and the write does not coalesce with an existing entry, in which
    /// case the writer must stall.
    pub fn push(&mut self, addr: Addr) -> bool {
        let base = addr.block_base(self.block_size);
        if self.entries.iter().any(|&e| e == base) {
            self.coalesced += 1;
            self.accepted += 1;
            return true;
        }
        if self.is_full() {
            self.rejected += 1;
            return false;
        }
        self.entries.push_back(base);
        self.accepted += 1;
        true
    }

    /// Returns `true` if a write to the block containing `addr` is buffered
    /// (used to satisfy read-after-write forwarding checks).
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        let base = addr.block_base(self.block_size);
        self.entries.iter().any(|&e| e == base)
    }

    /// Removes and returns the oldest buffered block, if any.
    pub fn drain_one(&mut self) -> Option<Addr> {
        self.entries.pop_front()
    }

    /// Counts of (accepted, coalesced, rejected) pushes so far.
    #[must_use]
    pub fn counters(&self) -> (u64, u64, u64) {
        (self.accepted, self.coalesced, self.rejected)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn pushes_coalesce_within_a_block() {
        let mut wb = WriteBuffer::new(2, 32).unwrap();
        assert!(wb.push(Addr(0x100)));
        assert!(wb.push(Addr(0x11F)));
        assert_eq!(wb.occupancy(), 1);
        let (accepted, coalesced, rejected) = wb.counters();
        assert_eq!((accepted, coalesced, rejected), (2, 1, 0));
    }

    #[test]
    fn full_buffer_rejects_new_blocks_but_still_coalesces() {
        let mut wb = WriteBuffer::new(1, 32).unwrap();
        assert!(wb.push(Addr(0x000)));
        assert!(!wb.push(Addr(0x040)));
        assert!(wb.push(Addr(0x01C)), "coalescing write is accepted even when full");
        assert_eq!(wb.counters().2, 1);
    }

    #[test]
    fn drain_is_fifo() {
        let mut wb = WriteBuffer::new(4, 32).unwrap();
        wb.push(Addr(0x40));
        wb.push(Addr(0x80));
        assert_eq!(wb.drain_one(), Some(Addr(0x40)));
        assert_eq!(wb.drain_one(), Some(Addr(0x80)));
        assert_eq!(wb.drain_one(), None);
        assert!(wb.is_empty());
    }

    #[test]
    fn contains_matches_blocks() {
        let mut wb = WriteBuffer::new(4, 64).unwrap();
        wb.push(Addr(0x100));
        assert!(wb.contains(Addr(0x13F)));
        assert!(!wb.contains(Addr(0x140)));
    }

    #[test]
    fn invalid_configurations_rejected() {
        assert!(WriteBuffer::new(0, 64).is_err());
        assert!(WriteBuffer::new(4, 3).is_err());
    }

    proptest! {
        #[test]
        fn occupancy_bounded_and_drains_to_empty(addrs in proptest::collection::vec(0u64..0x1000, 0..100)) {
            let mut wb = WriteBuffer::new(8, 64).unwrap();
            for &a in &addrs {
                let _ = wb.push(Addr(a));
                prop_assert!(wb.occupancy() <= 8);
            }
            let mut drained = 0;
            while wb.drain_one().is_some() {
                drained += 1;
            }
            prop_assert!(drained <= 8);
            prop_assert!(wb.is_empty());
        }
    }
}
