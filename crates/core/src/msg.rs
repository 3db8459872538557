//! The headerless messages carried by the three L-NUCA networks.
//!
//! Links are message-wide, so each message is its own flow-control unit
//! (flit). The structs below carry slightly more than the hardware would
//! (request identifiers, timestamps) purely for statistics and attribution;
//! the routing never looks at a destination field because the topologies
//! make every output link valid — that is what "headerless" means in the
//! paper.

use lnuca_types::{Addr, Cycle, ReqId};

/// A miss request travelling outward on the Search (broadcast tree) network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchMsg {
    /// Address being searched.
    pub addr: Addr,
    /// Request that triggered the search.
    pub req: ReqId,
    /// Whether the originating access was a write.
    pub is_write: bool,
    /// Cycle at which the root tile launched the search.
    pub injected_at: Cycle,
}

/// A hit block travelling toward the root tile on the Transport (2-D mesh)
/// network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransportMsg {
    /// Block-aligned address of the data.
    pub addr: Addr,
    /// Request being satisfied.
    pub req: ReqId,
    /// Whether the block carries modified data.
    pub dirty: bool,
    /// L-NUCA level (2-based) where the hit occurred.
    pub hit_level: u8,
    /// Cycle at which the hit occurred (start of transport).
    pub hit_at: Cycle,
    /// Minimum possible transport latency from the hitting tile to the root
    /// (its Manhattan distance), used for the contention statistics of
    /// Table III.
    pub min_latency: u64,
}

/// An evicted block travelling outward on the Replacement network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplMsg {
    /// Block-aligned address of the victim.
    pub addr: Addr,
    /// Whether the victim holds modified data.
    pub dirty: bool,
}

/// A hit block delivered to the root tile, as observed by the hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Block-aligned address of the delivered block.
    pub addr: Addr,
    /// Request being satisfied.
    pub req: ReqId,
    /// Whether the block carries modified data (must be re-marked dirty in
    /// the root tile or written back later).
    pub dirty: bool,
    /// L-NUCA level that serviced the request.
    pub hit_level: u8,
    /// Cycle at which the block is available at the root tile.
    pub available_at: Cycle,
    /// Observed transport latency in cycles.
    pub transport_latency: u64,
    /// Contention-free transport latency in cycles.
    pub min_transport_latency: u64,
}

/// A global miss: no tile holds the block, the request must go to the next
/// cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GlobalMiss {
    /// Address that missed everywhere.
    pub addr: Addr,
    /// Request that must be forwarded.
    pub req: ReqId,
    /// Whether the originating access was a write.
    pub is_write: bool,
    /// Cycle at which the miss determination is available.
    pub determined_at: Cycle,
}

/// A block evicted out of the fabric toward the next cache level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Spill {
    /// Block-aligned address of the spilled block.
    pub addr: Addr,
    /// Whether the block must be written back (dirty).
    pub dirty: bool,
    /// Cycle at which the spill leaves the fabric.
    pub at: Cycle,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_plain_copyable_data() {
        fn assert_copy<T: Copy + Send + Sync + 'static>() {}
        assert_copy::<SearchMsg>();
        assert_copy::<TransportMsg>();
        assert_copy::<ReplMsg>();
        assert_copy::<Arrival>();
        assert_copy::<GlobalMiss>();
        assert_copy::<Spill>();
    }

    #[test]
    fn transport_message_carries_attribution() {
        let m = TransportMsg {
            addr: Addr(0x40),
            req: ReqId(3),
            dirty: true,
            hit_level: 2,
            hit_at: Cycle(11),
            min_latency: 1,
        };
        assert_eq!(m.hit_level, 2);
        assert!(m.dirty);
        assert_eq!(m.min_latency, 1);
    }
}
