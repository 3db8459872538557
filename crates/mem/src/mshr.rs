//! Miss status holding registers (MSHRs).

use lnuca_types::{Addr, ConfigError, Cycle, MemRequest, ServiceLevel};

/// Result of trying to allocate an MSHR for a missing block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MshrAllocation {
    /// The miss is the first one to this block: a new entry was allocated and
    /// a request must be sent to the next level.
    Primary,
    /// The block is already being fetched: the request was merged into the
    /// existing entry and no new downstream request is needed.
    Secondary,
    /// No entry could be allocated (all entries in use, or the entry for this
    /// block already holds the maximum number of secondary misses). The
    /// requester must stall and retry.
    Full,
}

impl MshrAllocation {
    /// Returns `true` when a downstream request must be issued.
    #[must_use]
    pub fn is_primary(self) -> bool {
        matches!(self, MshrAllocation::Primary)
    }

    /// Returns `true` when the requester must stall.
    #[must_use]
    pub fn is_full(self) -> bool {
        matches!(self, MshrAllocation::Full)
    }
}

/// One physical MSHR slot. Dead slots keep their `requests` allocation so a
/// steady-state allocate/retire cycle never touches the heap (DESIGN.md §9).
#[derive(Debug, Clone)]
struct MshrSlot {
    block: Addr,
    live: bool,
    /// When the block arrives and which level serves it, once known.
    arrival: Option<(Cycle, ServiceLevel)>,
    /// The primary request, then the merged secondaries, in arrival order.
    requests: Vec<MemRequest>,
}

/// A file of miss status holding registers with secondary-miss merging,
/// stored as a fixed array of physical slots (first-fit allocation, slot
/// order is the deterministic sweep order).
///
/// Each live entry holds the requests waiting on its block, so the file is
/// the only map from an in-flight block to its requests. An entry retires
/// either when its block arrives ([`MshrFile::retire`]) or, if its arrival
/// cycle was known at miss time ([`MshrFile::set_arrival`]), in the sweep of
/// [`MshrFile::retire_arrived`]. Both hand the requests back without
/// allocating.
///
/// The paper's configuration (Table I) uses 16 entries for the L1 and L2,
/// 8 for the L3, and allows 4 secondary misses per entry.
///
/// # Example
///
/// ```
/// use lnuca_mem::{MshrFile, MshrAllocation};
/// use lnuca_types::{Addr, Cycle, MemRequest, ReqId};
///
/// let read = |id, addr| MemRequest::read(ReqId(id), Addr(addr), Cycle(0));
/// let mut mshrs = MshrFile::new(16, 4, 64)?;
/// assert_eq!(mshrs.allocate(read(1, 0x100)), MshrAllocation::Primary);
/// assert_eq!(mshrs.allocate(read(2, 0x104)), MshrAllocation::Secondary);
/// let ids: Vec<ReqId> = mshrs.retire(Addr(0x100)).map(|r| r.id).collect();
/// assert_eq!(ids, vec![ReqId(1), ReqId(2)]);
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct MshrFile {
    /// Fixed-length slot array (`capacity` entries, live or dead).
    slots: Vec<MshrSlot>,
    occupancy: usize,
    secondary_per_entry: usize,
    block_size: u64,
    /// The earliest arrival set on a live entry (`None` when none is set).
    /// [`MshrFile::retire`] may leave it early, which only costs one sweep.
    next_arrival: Option<Cycle>,
}

impl MshrFile {
    /// Creates an MSHR file with `capacity` entries, each accepting up to
    /// `secondary_per_entry` merged misses beyond the primary one, tracking
    /// blocks of `block_size` bytes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `capacity` is zero or `block_size` is not
    /// a power of two.
    pub fn new(
        capacity: usize,
        secondary_per_entry: usize,
        block_size: u64,
    ) -> Result<Self, ConfigError> {
        if capacity == 0 {
            return Err(ConfigError::new("capacity", "must be nonzero"));
        }
        if block_size == 0 || !block_size.is_power_of_two() {
            return Err(ConfigError::new(
                "block_size",
                format!("must be a nonzero power of two, got {block_size}"),
            ));
        }
        Ok(MshrFile {
            slots: (0..capacity)
                .map(|_| MshrSlot {
                    block: Addr(0),
                    live: false,
                    arrival: None,
                    // Full capacity up front (primary + merged secondaries)
                    // so even the *first* allocate/merge cycle of a slot
                    // never grows the vector: the zero-allocation window of
                    // a batched run starts at construction, not after a
                    // warm-up (DESIGN.md §9/§13).
                    requests: Vec::with_capacity(1 + secondary_per_entry),
                })
                .collect(),
            occupancy: 0,
            secondary_per_entry,
            block_size,
            next_arrival: None,
        })
    }

    /// Number of entries currently in use.
    #[must_use]
    pub fn occupancy(&self) -> usize {
        self.occupancy
    }

    /// Returns `true` when no more primary misses can be accepted.
    #[must_use]
    pub fn is_full(&self) -> bool {
        self.occupancy >= self.slots.len()
    }

    /// Returns `true` if a fetch for the block containing `addr` is pending.
    #[must_use]
    pub fn is_pending(&self, addr: Addr) -> bool {
        self.live_slot(addr).is_some()
    }

    /// The earliest arrival cycle set on a live entry, or `None` when no
    /// entry has one: the horizon of [`MshrFile::retire_arrived`].
    #[must_use]
    pub fn next_arrival(&self) -> Option<Cycle> {
        self.next_arrival
    }

    /// Tries to register the miss of `req` on the block containing
    /// `req.addr`. An accepted request waits in the entry until it retires.
    pub fn allocate(&mut self, req: MemRequest) -> MshrAllocation {
        let block = req.addr.block_base(self.block_size);
        if let Some(i) = self.live_slot(block) {
            let slot = &mut self.slots[i];
            if slot.requests.len() > self.secondary_per_entry {
                return MshrAllocation::Full;
            }
            slot.requests.push(req);
            return MshrAllocation::Secondary;
        }
        let Some(slot) = self.slots.iter_mut().find(|s| !s.live) else {
            return MshrAllocation::Full;
        };
        // A dead slot has no arrival and no requests: both retire paths
        // clear them.
        slot.block = block;
        slot.live = true;
        slot.requests.push(req);
        self.occupancy += 1;
        MshrAllocation::Primary
    }

    /// Records that the block containing `addr` arrives at `at`, served by
    /// `served`, so its entry retires in [`MshrFile::retire_arrived`]. Does
    /// nothing if no entry is pending for the block.
    pub fn set_arrival(&mut self, addr: Addr, at: Cycle, served: ServiceLevel) {
        if let Some(i) = self.live_slot(addr) {
            self.slots[i].arrival = Some((at, served));
            self.next_arrival = Some(self.next_arrival.map_or(at, |e| e.min(at)));
        }
    }

    /// Frees the entry for the block containing `addr` and hands back the
    /// requests that waited on it, primary first, in allocation order. The
    /// entry is free as soon as this returns; the iterator is empty if no
    /// entry matched.
    pub fn retire(&mut self, addr: Addr) -> impl Iterator<Item = MemRequest> + '_ {
        let requests = match self.live_slot(addr) {
            Some(i) => {
                self.occupancy -= 1;
                let slot = &mut self.slots[i];
                slot.live = false;
                slot.arrival = None;
                Some(slot.requests.drain(..))
            }
            None => None,
        };
        requests.into_iter().flatten()
    }

    /// Frees every entry whose arrival is at or before `now`, sweeping the
    /// slots in index order, and hands each waiting request to `hand_back`
    /// with its entry's arrival cycle and service level. Returns at once
    /// while [`MshrFile::next_arrival`] is later than `now`.
    pub fn retire_arrived(
        &mut self,
        now: Cycle,
        mut hand_back: impl FnMut(MemRequest, Cycle, ServiceLevel),
    ) {
        if self.next_arrival.is_none_or(|e| e > now) {
            return;
        }
        let mut next: Option<Cycle> = None;
        for slot in &mut self.slots {
            let Some((at, served)) = slot.arrival else {
                continue;
            };
            if at <= now {
                slot.live = false;
                slot.arrival = None;
                self.occupancy -= 1;
                for req in slot.requests.drain(..) {
                    hand_back(req, at, served);
                }
            } else {
                next = Some(next.map_or(at, |e| e.min(at)));
            }
        }
        self.next_arrival = next;
    }

    /// Index of the live slot holding the block containing `addr`.
    fn live_slot(&self, addr: Addr) -> Option<usize> {
        let block = addr.block_base(self.block_size);
        self.slots.iter().position(|s| s.live && s.block == block)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lnuca_types::ReqId;
    use proptest::prelude::*;

    fn read(id: u64, addr: u64) -> MemRequest {
        MemRequest::read(ReqId(id), Addr(addr), Cycle(0))
    }

    fn ids(requests: impl Iterator<Item = MemRequest>) -> Vec<ReqId> {
        requests.map(|r| r.id).collect()
    }

    #[test]
    fn primary_then_secondary_then_full_per_entry() {
        let mut m = MshrFile::new(2, 1, 64).unwrap();
        assert_eq!(m.allocate(read(1, 0x00)), MshrAllocation::Primary);
        assert_eq!(m.allocate(read(2, 0x3F)), MshrAllocation::Secondary);
        assert_eq!(
            m.allocate(read(3, 0x20)),
            MshrAllocation::Full,
            "entry for block 0 is saturated"
        );
        assert_eq!(m.allocate(read(4, 0x40)), MshrAllocation::Primary);
        assert!(m.is_pending(Addr(0x00)));
        assert!(!m.is_pending(Addr(0x80)));
    }

    #[test]
    fn file_capacity_limits_primary_misses() {
        let mut m = MshrFile::new(2, 4, 64).unwrap();
        assert!(m.allocate(read(1, 0x000)).is_primary());
        assert!(m.allocate(read(2, 0x040)).is_primary());
        assert!(m.is_full());
        assert!(m.allocate(read(3, 0x080)).is_full());
        assert_eq!(m.occupancy(), 2);
    }

    #[test]
    fn retire_returns_waiters_in_order_and_frees_entry() {
        let mut m = MshrFile::new(4, 4, 64).unwrap();
        m.allocate(read(10, 0x100));
        m.allocate(read(11, 0x110));
        m.allocate(read(12, 0x120));
        assert_eq!(ids(m.retire(Addr(0x13C))), vec![ReqId(10), ReqId(11), ReqId(12)]);
        assert_eq!(m.occupancy(), 0);
        assert_eq!(m.retire(Addr(0x100)).count(), 0);
    }

    #[test]
    fn retire_frees_the_entry_and_reports_waiter_count() {
        let mut m = MshrFile::new(2, 4, 64).unwrap();
        m.allocate(read(1, 0x100));
        m.allocate(read(2, 0x110));
        assert_eq!(m.retire(Addr(0x100)).count(), 2);
        assert_eq!(m.occupancy(), 0);
        assert!(!m.is_pending(Addr(0x100)));
        assert_eq!(m.retire(Addr(0x100)).count(), 0, "already retired");
        // The freed slot is reusable immediately.
        assert!(m.allocate(read(3, 0x200)).is_primary());
    }

    #[test]
    fn a_dropped_hand_back_still_frees_the_entry() {
        let mut m = MshrFile::new(1, 4, 64).unwrap();
        m.allocate(read(1, 0x100));
        m.allocate(read(2, 0x104));
        let _ = m.retire(Addr(0x100));
        assert_eq!(m.occupancy(), 0);
        assert_eq!(ids(m.retire(Addr(0x100))), vec![]);
        assert!(m.allocate(read(3, 0x100)).is_primary());
        assert_eq!(ids(m.retire(Addr(0x100))), vec![ReqId(3)]);
    }

    #[test]
    fn timed_entries_retire_in_slot_order_once_they_arrive() {
        let mut m = MshrFile::new(4, 4, 64).unwrap();
        m.allocate(read(1, 0x000));
        m.allocate(read(2, 0x040));
        m.allocate(read(3, 0x008));
        m.set_arrival(Addr(0x040), Cycle(5), ServiceLevel::L2);
        m.set_arrival(Addr(0x000), Cycle(9), ServiceLevel::Memory);
        assert_eq!(m.next_arrival(), Some(Cycle(5)));

        let mut got = Vec::new();
        m.retire_arrived(Cycle(4), |r, at, by| got.push((r.id, at, by)));
        assert!(got.is_empty());
        m.retire_arrived(Cycle(7), |r, at, by| got.push((r.id, at, by)));
        assert_eq!(got, vec![(ReqId(2), Cycle(5), ServiceLevel::L2)]);
        assert_eq!(m.next_arrival(), Some(Cycle(9)));
        assert_eq!(m.occupancy(), 1);

        got.clear();
        m.retire_arrived(Cycle(9), |r, at, by| got.push((r.id, at, by)));
        assert_eq!(
            got,
            vec![
                (ReqId(1), Cycle(9), ServiceLevel::Memory),
                (ReqId(3), Cycle(9), ServiceLevel::Memory)
            ]
        );
        assert_eq!(m.next_arrival(), None);
        assert_eq!(m.occupancy(), 0);
    }

    #[test]
    fn invalid_configuration_is_rejected() {
        assert!(MshrFile::new(0, 4, 64).is_err());
        assert!(MshrFile::new(4, 4, 63).is_err());
    }

    proptest! {
        #[test]
        fn occupancy_never_exceeds_capacity(
            addrs in proptest::collection::vec(0u64..0x1000, 1..200),
            capacity in 1usize..8,
        ) {
            let mut m = MshrFile::new(capacity, 2, 64).unwrap();
            for (i, &a) in addrs.iter().enumerate() {
                let _ = m.allocate(read(i as u64, a));
                prop_assert!(m.occupancy() <= capacity);
                // Occasionally retire something to exercise both paths.
                if i % 5 == 0 {
                    let _ = m.retire(Addr(a));
                }
            }
        }

        #[test]
        fn every_allocated_waiter_is_returned_exactly_once(addrs in proptest::collection::vec(0u64..0x400, 1..100)) {
            let mut m = MshrFile::new(64, 64, 64).unwrap();
            let mut accepted = Vec::new();
            for (i, &a) in addrs.iter().enumerate() {
                match m.allocate(read(i as u64, a)) {
                    MshrAllocation::Primary | MshrAllocation::Secondary => accepted.push((a, ReqId(i as u64))),
                    MshrAllocation::Full => {}
                }
            }
            let mut returned = Vec::new();
            for &(a, _) in &accepted {
                returned.extend(ids(m.retire(Addr(a))));
            }
            returned.sort_by_key(|r| r.0);
            returned.dedup();
            let mut expected: Vec<ReqId> = accepted.iter().map(|&(_, id)| id).collect();
            expected.sort_by_key(|r| r.0);
            prop_assert_eq!(returned, expected);
        }
    }
}
