//! Memory requests, responses and hit attribution.

use crate::{Addr, Cycle};
use std::fmt;

/// Unique identifier of an in-flight memory request.
///
/// Identifiers are allocated by the request originator (the core model or an
/// experiment driver) and carried unchanged through the hierarchy so that
/// completions can be matched back to the issuing instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ReqId(pub u64);

impl fmt::Display for ReqId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "req#{}", self.0)
    }
}

/// The kind of memory access performed by a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// A data load (read).
    Read,
    /// A data store (write).
    Write,
}

impl AccessKind {
    /// Returns `true` for [`AccessKind::Read`].
    #[must_use]
    pub fn is_read(self) -> bool {
        matches!(self, AccessKind::Read)
    }

    /// Returns `true` for [`AccessKind::Write`].
    #[must_use]
    pub fn is_write(self) -> bool {
        matches!(self, AccessKind::Write)
    }
}

impl fmt::Display for AccessKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessKind::Read => write!(f, "read"),
            AccessKind::Write => write!(f, "write"),
        }
    }
}

/// Which hierarchy component ultimately serviced a request.
///
/// This is the attribution used by Table III of the paper (hits per L-NUCA
/// level) and by the energy accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceLevel {
    /// The L1 cache / L-NUCA root tile.
    L1,
    /// An L-NUCA tile level (2 = Le2, 3 = Le3, ...).
    LNucaLevel(u8),
    /// The conventional second-level cache.
    L2,
    /// The conventional third-level cache.
    L3,
    /// An intermediate conventional cache at depth `d ≥ 1` behind the first
    /// intermediate level (which reports [`ServiceLevel::L2`]). Only occurs
    /// in deep stacks composed through `lnuca-sim`'s `HierarchySpec`; the
    /// paper's hierarchies never produce it.
    Intermediate(u8),
    /// A D-NUCA bank at the given row distance from the controller (0 = closest).
    DNucaRow(u8),
    /// Main memory.
    Memory,
}

impl ServiceLevel {
    /// Returns the L-NUCA level number if the request was serviced by an
    /// L-NUCA tile, and `None` otherwise.
    #[must_use]
    pub fn lnuca_level(self) -> Option<u8> {
        match self {
            ServiceLevel::LNucaLevel(l) => Some(l),
            _ => None,
        }
    }

    /// Returns `true` if the access was serviced on chip (anywhere but main
    /// memory).
    #[must_use]
    pub fn is_on_chip(self) -> bool {
        !matches!(self, ServiceLevel::Memory)
    }
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServiceLevel::L1 => write!(f, "L1"),
            ServiceLevel::LNucaLevel(l) => write!(f, "Le{l}"),
            ServiceLevel::L2 => write!(f, "L2"),
            ServiceLevel::L3 => write!(f, "L3"),
            ServiceLevel::Intermediate(d) => write!(f, "intermediate {d}"),
            ServiceLevel::DNucaRow(r) => write!(f, "D-NUCA row {r}"),
            ServiceLevel::Memory => write!(f, "memory"),
        }
    }
}

/// A memory request flowing down the hierarchy.
///
/// # Example
///
/// ```
/// use lnuca_types::{Addr, AccessKind, Cycle, MemRequest, ReqId};
///
/// let req = MemRequest::new(ReqId(7), Addr(0x80), AccessKind::Write, Cycle(3));
/// assert_eq!(req.id, ReqId(7));
/// assert!(req.kind.is_write());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemRequest {
    /// Identifier used to match the response.
    pub id: ReqId,
    /// Requested byte address.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the originator issued the request.
    pub issued_at: Cycle,
}

impl MemRequest {
    /// Creates a new request.
    #[must_use]
    pub fn new(id: ReqId, addr: Addr, kind: AccessKind, issued_at: Cycle) -> Self {
        MemRequest {
            id,
            addr,
            kind,
            issued_at,
        }
    }

    /// Convenience constructor for a read request.
    #[must_use]
    pub fn read(id: ReqId, addr: Addr, issued_at: Cycle) -> Self {
        Self::new(id, addr, AccessKind::Read, issued_at)
    }

    /// Convenience constructor for a write request.
    #[must_use]
    pub fn write(id: ReqId, addr: Addr, issued_at: Cycle) -> Self {
        Self::new(id, addr, AccessKind::Write, issued_at)
    }
}

/// A completed memory request, annotated with where and when it was serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MemResponse {
    /// Identifier of the original request.
    pub id: ReqId,
    /// Address of the original request.
    pub addr: Addr,
    /// Read or write.
    pub kind: AccessKind,
    /// Cycle at which the originator issued the request.
    pub issued_at: Cycle,
    /// Cycle at which the data became available to the originator.
    pub completed_at: Cycle,
    /// Hierarchy component that provided the data.
    pub served_by: ServiceLevel,
}

impl MemResponse {
    /// Builds the response corresponding to `req`, completed at
    /// `completed_at` by `served_by`.
    #[must_use]
    pub fn for_request(req: &MemRequest, completed_at: Cycle, served_by: ServiceLevel) -> Self {
        MemResponse {
            id: req.id,
            addr: req.addr,
            kind: req.kind,
            issued_at: req.issued_at,
            completed_at,
            served_by,
        }
    }

    /// Total latency observed by the originator, in cycles.
    #[must_use]
    pub fn latency(&self) -> u64 {
        self.completed_at.since(self.issued_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn access_kind_predicates() {
        assert!(AccessKind::Read.is_read());
        assert!(!AccessKind::Read.is_write());
        assert!(AccessKind::Write.is_write());
        assert_eq!(AccessKind::Read.to_string(), "read");
        assert_eq!(AccessKind::Write.to_string(), "write");
    }

    #[test]
    fn service_level_helpers() {
        assert_eq!(ServiceLevel::LNucaLevel(3).lnuca_level(), Some(3));
        assert_eq!(ServiceLevel::L3.lnuca_level(), None);
        assert!(ServiceLevel::L2.is_on_chip());
        assert!(!ServiceLevel::Memory.is_on_chip());
        assert_eq!(ServiceLevel::LNucaLevel(2).to_string(), "Le2");
        assert_eq!(ServiceLevel::DNucaRow(1).to_string(), "D-NUCA row 1");
    }

    #[test]
    fn response_latency_measures_issue_to_completion() {
        let req = MemRequest::read(ReqId(1), Addr(0x40), Cycle(10));
        let resp = MemResponse::for_request(&req, Cycle(35), ServiceLevel::L2);
        assert_eq!(resp.latency(), 25);
        assert_eq!(resp.id, req.id);
        assert_eq!(resp.addr, req.addr);
        assert_eq!(resp.served_by, ServiceLevel::L2);
    }

    #[test]
    fn request_constructors_set_kind() {
        let r = MemRequest::read(ReqId(1), Addr(0), Cycle(0));
        let w = MemRequest::write(ReqId(2), Addr(0), Cycle(0));
        assert!(r.kind.is_read());
        assert!(w.kind.is_write());
    }

    #[test]
    fn req_id_displays_with_hash() {
        assert_eq!(ReqId(12).to_string(), "req#12");
    }
}
