//! Memory hierarchies: the four organisations of Fig. 1, all implementing
//! [`lnuca_cpu::DataMemory`] so the same core model drives every experiment.

mod classic;
mod lnuca;
mod outer;
mod root;

pub use classic::ClassicHierarchy;
pub use lnuca::LNucaHierarchy;
pub use outer::{Backing, OuterLevel};

use lnuca_cpu::DataMemory;
use lnuca_mem::{NoProbe, ProbeSink};
use lnuca_types::{Cycle, MemRequest, MemResponse};

/// A snapshot of every counter a hierarchy accumulated during a run, in the
/// shape the experiment and energy code consume.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HierarchyStats {
    /// Configuration label (e.g. `LN3-144KB`).
    pub label: String,
    /// L1 / root-tile counters.
    pub l1: lnuca_mem::CacheStats,
    /// L2 counters, if the hierarchy has a conventional L2 (the first
    /// intermediate level of the spec).
    pub l2: Option<lnuca_mem::CacheStats>,
    /// Counters of the intermediate conventional levels beyond the first,
    /// nearest first. Empty for every paper shape; populated only by deep
    /// stacks composed through `crate::spec::HierarchySpec`.
    pub deeper_levels: Vec<lnuca_mem::CacheStats>,
    /// L3 counters, if the hierarchy has an L3 (a cache backing).
    pub l3: Option<lnuca_mem::CacheStats>,
    /// L-NUCA fabric counters, if the hierarchy has a fabric.
    pub lnuca: Option<lnuca_core::LNucaStats>,
    /// Number of L-NUCA tiles (for leakage accounting).
    pub lnuca_tiles: usize,
    /// D-NUCA counters, if the hierarchy has a D-NUCA.
    pub dnuca: Option<lnuca_dnuca::DNucaStats>,
    /// D-NUCA mesh counters, if the hierarchy has a D-NUCA.
    pub dnuca_mesh: Option<lnuca_noc::mesh::MeshStats>,
    /// Number of D-NUCA banks (for leakage accounting).
    pub dnuca_banks: usize,
    /// Main-memory block fetches.
    pub memory_accesses: u64,
    /// Write-through / write-back traffic drained to the level below the
    /// L1 (after coalescing in the write buffer).
    pub write_drains: u64,
}

impl HierarchyStats {
    /// Read hits serviced by the second level of this hierarchy — the L2 for
    /// the conventional baseline, the whole L-NUCA fabric otherwise. This is
    /// the denominator/numerator pair used by Table III.
    #[must_use]
    pub fn second_level_read_hits(&self) -> u64 {
        if let Some(l2) = &self.l2 {
            l2.read_hits
        } else if let Some(lnuca) = &self.lnuca {
            lnuca.read_hits()
        } else if let Some(dnuca) = &self.dnuca {
            dnuca.hits()
        } else {
            0
        }
    }
}

/// Any of the four hierarchies, behind one type so [`crate::system::System`]
/// can drive them uniformly. Generic over the [`ProbeSink`] the wrapped
/// hierarchy reports functional transitions through ([`NoProbe`] — nothing —
/// by default). Every variant is boxed: the three differ by up to 1.4 kB,
/// and the box costs one pointer load per call.
#[derive(Debug)]
pub enum AnyHierarchy<P: ProbeSink = NoProbe> {
    /// Conventional 3-level or L1 + D-NUCA.
    Classic(Box<ClassicHierarchy<P>>),
    /// L-NUCA + (L3 or D-NUCA).
    LNuca(Box<LNucaHierarchy<P>>),
    /// The memory side of a multicore run (private domains + shared
    /// backing + MSI directory, DESIGN.md §17). Driven per core through
    /// `crate::cmp::CoreView`s; its own [`DataMemory::issue`] rejects.
    Cmp(Box<crate::cmp::CmpMemory<P>>),
}

impl<P: ProbeSink> AnyHierarchy<P> {
    /// Snapshot of the accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> HierarchyStats {
        match self {
            AnyHierarchy::Classic(h) => h.stats(),
            AnyHierarchy::LNuca(h) => h.stats(),
            AnyHierarchy::Cmp(h) => h.stats(),
        }
    }

    /// The probe sink (for reading back recorded events).
    #[must_use]
    pub fn probe(&self) -> &P {
        match self {
            AnyHierarchy::Classic(h) => h.probe(),
            AnyHierarchy::LNuca(h) => h.probe(),
            AnyHierarchy::Cmp(h) => h.probe(),
        }
    }

    /// Consumes the hierarchy, returning the probe sink.
    #[must_use]
    pub fn into_probe(self) -> P {
        match self {
            AnyHierarchy::Classic(h) => h.into_probe(),
            AnyHierarchy::LNuca(h) => h.into_probe(),
            AnyHierarchy::Cmp(h) => h.into_probe(),
        }
    }
}

impl<P: ProbeSink> DataMemory for AnyHierarchy<P> {
    fn issue(&mut self, req: MemRequest, now: Cycle) -> bool {
        match self {
            AnyHierarchy::Classic(h) => h.issue(req, now),
            AnyHierarchy::LNuca(h) => h.issue(req, now),
            AnyHierarchy::Cmp(h) => h.issue(req, now),
        }
    }

    fn drain_completions(&mut self, now: Cycle, out: &mut Vec<MemResponse>) {
        match self {
            AnyHierarchy::Classic(h) => h.drain_completions(now, out),
            AnyHierarchy::LNuca(h) => h.drain_completions(now, out),
            AnyHierarchy::Cmp(h) => h.drain_completions(now, out),
        }
    }

    fn tick(&mut self, now: Cycle) {
        match self {
            AnyHierarchy::Classic(h) => h.tick(now),
            AnyHierarchy::LNuca(h) => h.tick(now),
            AnyHierarchy::Cmp(h) => h.tick(now),
        }
    }

    fn next_event(&self, now: Cycle) -> Option<Cycle> {
        match self {
            AnyHierarchy::Classic(h) => h.next_event(now),
            AnyHierarchy::LNuca(h) => h.next_event(now),
            AnyHierarchy::Cmp(h) => h.next_event(now),
        }
    }
}
