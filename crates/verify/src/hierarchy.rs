//! The reference hierarchy: composes the [`crate::reference`] pieces into
//! the hierarchy a [`HierarchySpec`] describes and replays a recorded
//! [`ProbeEvent`] stream through it, cross-checking every functional
//! decision the detailed simulator made.

use crate::reference::{RefBacking, RefCache, RefOuter};
use lnuca_mem::{AccessClass, EvictedLine, ProbeEvent};
use lnuca_sim::hierarchy::HierarchyStats;
use lnuca_sim::spec::HierarchySpec;
use lnuca_types::{Addr, ConfigError, ServiceLevel};
use std::collections::BTreeMap;

/// The reference L-NUCA fabric: a pure content-exclusion set.
///
/// The detailed fabric's *placement* (which tile of a level holds a block)
/// depends on the seeded random distributed routing, so a timing-free model
/// cannot reproduce the per-tile layout. What it can reproduce exactly —
/// because the Search network broadcasts to every tile of a level and the
/// U-buffer comparators catch blocks in flight — is *custody*: a search
/// hits if and only if the block is anywhere in the fabric. The reference
/// therefore tracks the fabric as a set of blocks entering through root
/// evictions and leaving through hits and spills, and the harness checks
/// hit/miss totals, the spill/eviction ledger and the final custody set;
/// the per-level hit split is validated structurally (levels in range,
/// split summing to the custody-predicted total).
#[derive(Debug, Default)]
pub struct RefFabric {
    /// Block base address → dirty flag, for every block the fabric owns.
    blocks: BTreeMap<u64, bool>,
    /// Block base address → `is_write`, for every launched-but-unresolved
    /// search (mirrors the MSHR pending set).
    pending: BTreeMap<u64, bool>,
    /// Searches launched (== primary root-tile misses).
    pub searches: u64,
    /// Read hits serviced by the fabric (all levels).
    pub read_hits: u64,
    /// Write hits serviced by the fabric (all levels).
    pub write_hits: u64,
    /// Searches that missed every tile.
    pub global_misses: u64,
    /// Victims accepted from the root tile.
    pub root_evictions: u64,
    /// Blocks spilled to the next cache level.
    pub spills: u64,
}

/// The timing-free reference hierarchy the harness replays a probed run
/// through. Build one with [`RefHierarchy::from_spec`] from the same
/// [`HierarchySpec`] the detailed run used, [`RefHierarchy::apply`] every
/// recorded event in order, then compare with
/// [`RefHierarchy::check_stats`].
#[derive(Debug)]
pub struct RefHierarchy {
    /// First level (L1 / root tile).
    pub l1: RefCache,
    /// The level(s) behind the first level (and behind the fabric, if any).
    pub outer: RefOuter,
    /// The fabric custody set, for the two L-NUCA organisations.
    pub fabric: Option<RefFabric>,
    /// Fabric levels (for range-checking reported hit levels).
    levels: u8,
    /// First-level block size (for address normalisation).
    block_size: u64,
    /// Block fetches that fell through to DRAM.
    pub memory_accesses: u64,
    /// Write-buffer drains applied.
    pub write_drains: u64,
    /// Accesses merged into in-flight fetches (no state change).
    pub merged: u64,
    /// A root-tile victim the reference just produced, awaiting the
    /// matching [`ProbeEvent::RootVictim`].
    expected_victim: Option<EvictedLine>,
}

impl RefHierarchy {
    /// Builds the reference model of any composed [`HierarchySpec`] — the
    /// oracle is not limited to the paper's four shapes.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] for invalid or non-LRU configurations.
    pub fn from_spec(spec: &HierarchySpec) -> Result<Self, ConfigError> {
        Ok(RefHierarchy {
            l1: RefCache::new(&spec.root)?,
            outer: RefOuter::from_spec(spec)?,
            fabric: spec.fabric.as_ref().map(|_| RefFabric::default()),
            levels: spec.fabric.as_ref().map_or(0, |f| f.levels),
            block_size: spec.root.block_size,
            memory_accesses: 0,
            write_drains: 0,
            merged: 0,
            expected_victim: None,
        })
    }

    fn base(&self, addr: Addr) -> u64 {
        addr.block_base(self.block_size).0
    }

    /// Replays one recorded event, recomputing and cross-checking the
    /// functional decision it encodes.
    ///
    /// # Errors
    ///
    /// Returns a description of the first divergence between the reference
    /// model and the detailed simulator.
    pub fn apply(&mut self, event: ProbeEvent) -> Result<(), String> {
        // A root-tile fill that displaced a victim must be followed
        // immediately by the matching RootVictim event.
        if let Some(v) = self.expected_victim {
            if !matches!(event, ProbeEvent::RootVictim { .. }) {
                return Err(format!(
                    "reference displaced root victim {:?} but the next event is {event:?}, \
                     not RootVictim",
                    v
                ));
            }
        }
        match event {
            ProbeEvent::Access {
                addr,
                is_write,
                class,
            } => self.apply_access(addr, is_write, class),
            ProbeEvent::FabricHit { addr, level, dirty } => {
                self.apply_fabric_hit(addr, level, dirty)
            }
            ProbeEvent::OuterFetch {
                addr,
                is_write,
                served,
            } => self.apply_outer_fetch(addr, is_write, served),
            ProbeEvent::RootVictim { addr, dirty } => self.apply_root_victim(addr, dirty),
            ProbeEvent::Spill { addr, dirty } => self.apply_spill(addr, dirty),
            ProbeEvent::CoherentAccess { .. }
            | ProbeEvent::CoherentEvict { .. }
            | ProbeEvent::CoherentRecall { .. } => {
                Err("coherence events cannot occur in a single-core run; \
                 CMP streams are checked by the coherence oracle instead"
                    .to_owned())
            }
            ProbeEvent::WriteDrain { addr } => {
                self.outer.write_through(addr);
                self.write_drains += 1;
                Ok(())
            }
        }
    }

    fn apply_access(
        &mut self,
        addr: Addr,
        is_write: bool,
        class: AccessClass,
    ) -> Result<(), String> {
        match class {
            AccessClass::Merged => {
                // Scheduling input: the detailed MSHRs merged this access
                // into an in-flight fetch; no cache state changes.
                self.merged += 1;
                Ok(())
            }
            AccessClass::Hit => {
                if !self.l1.access(addr, is_write) {
                    return Err(format!("detailed L1 hit at {addr} but the reference says miss"));
                }
                Ok(())
            }
            AccessClass::Miss(served) => {
                if self.fabric.is_some() {
                    return Err(format!(
                        "synchronous miss resolution at {addr} on a fabric hierarchy"
                    ));
                }
                if self.l1.access(addr, is_write) {
                    return Err(format!("detailed L1 miss at {addr} but the reference says hit"));
                }
                let served_ref = self.outer.fetch(addr, is_write, &mut self.memory_accesses);
                if served_ref != served {
                    return Err(format!(
                        "miss at {addr} served by {served} in the detailed run, \
                         by {served_ref} in the reference"
                    ));
                }
                // Write-allocate into the L1; the victim is clean and (with
                // no fabric behind the L1) silently discarded.
                let _ = self.l1.fill(addr, false);
                Ok(())
            }
            AccessClass::MissLaunched => {
                let Some(fabric) = self.fabric.as_mut() else {
                    return Err(format!("search launched at {addr} without a fabric"));
                };
                if self.l1.access(addr, is_write) {
                    return Err(format!(
                        "detailed root-tile miss at {addr} but the reference says hit"
                    ));
                }
                let base = addr.block_base(self.block_size).0;
                if fabric.pending.insert(base, is_write).is_some() {
                    return Err(format!(
                        "second search launched for {addr} while one is in flight"
                    ));
                }
                fabric.searches += 1;
                Ok(())
            }
        }
    }

    fn apply_fabric_hit(&mut self, addr: Addr, level: u8, dirty: bool) -> Result<(), String> {
        let base = self.base(addr);
        let levels = self.levels;
        let Some(fabric) = self.fabric.as_mut() else {
            return Err(format!("fabric hit at {addr} without a fabric"));
        };
        let Some(is_write) = fabric.pending.remove(&base) else {
            return Err(format!("fabric hit at {addr} with no search in flight"));
        };
        match fabric.blocks.remove(&base) {
            None => {
                return Err(format!(
                    "fabric hit at {addr} but the reference custody set does not hold the block"
                ))
            }
            Some(ref_dirty) if ref_dirty != dirty => {
                return Err(format!(
                    "fabric hit at {addr} delivered dirty={dirty}, reference tracked {ref_dirty}"
                ))
            }
            Some(_) => {}
        }
        if !(2..=levels).contains(&level) {
            return Err(format!(
                "fabric hit at {addr} reports level {level}, outside 2..={levels}"
            ));
        }
        if is_write {
            fabric.write_hits += 1;
        } else {
            fabric.read_hits += 1;
        }
        self.expected_victim = self.l1.fill(addr, false);
        Ok(())
    }

    fn apply_outer_fetch(
        &mut self,
        addr: Addr,
        is_write: bool,
        served: ServiceLevel,
    ) -> Result<(), String> {
        let base = self.base(addr);
        let Some(fabric) = self.fabric.as_mut() else {
            return Err(format!("outer fetch at {addr} without a fabric"));
        };
        match fabric.pending.remove(&base) {
            None => return Err(format!("outer fetch at {addr} with no search in flight")),
            Some(w) if w != is_write => {
                return Err(format!(
                    "outer fetch at {addr} reports is_write={is_write}, search was {w}"
                ))
            }
            Some(_) => {}
        }
        if fabric.blocks.contains_key(&base) {
            return Err(format!(
                "false global miss: the fabric owns {addr} but the search missed it"
            ));
        }
        fabric.global_misses += 1;
        let served_ref = self.outer.fetch(addr, is_write, &mut self.memory_accesses);
        if served_ref != served {
            return Err(format!(
                "global miss at {addr} served by {served} in the detailed run, \
                 by {served_ref} in the reference"
            ));
        }
        self.expected_victim = self.l1.fill(addr, false);
        Ok(())
    }

    fn apply_root_victim(&mut self, addr: Addr, dirty: bool) -> Result<(), String> {
        let base = self.base(addr);
        let Some(expected) = self.expected_victim.take() else {
            return Err(format!(
                "RootVictim {addr} reported but the reference root tile displaced nothing"
            ));
        };
        if expected.addr.0 != base || expected.dirty != dirty {
            return Err(format!(
                "root victim mismatch: detailed evicted {addr} (dirty={dirty}), \
                 reference evicted {} (dirty={})",
                expected.addr, expected.dirty
            ));
        }
        let Some(fabric) = self.fabric.as_mut() else {
            return Err(format!("root victim at {addr} without a fabric"));
        };
        if fabric.blocks.insert(base, dirty).is_some() {
            return Err(format!(
                "exclusion violated: {addr} entered the fabric while already owned by it"
            ));
        }
        fabric.root_evictions += 1;
        Ok(())
    }

    fn apply_spill(&mut self, addr: Addr, dirty: bool) -> Result<(), String> {
        let base = self.base(addr);
        let Some(fabric) = self.fabric.as_mut() else {
            return Err(format!("spill at {addr} without a fabric"));
        };
        match fabric.blocks.remove(&base) {
            None => Err(format!("spill of {addr} which the reference custody set does not hold")),
            Some(ref_dirty) if ref_dirty != dirty => Err(format!(
                "spill of {addr} reported dirty={dirty}, reference tracked {ref_dirty}"
            )),
            Some(_) => {
                fabric.spills += 1;
                Ok(())
            }
        }
    }

    /// Compares every functional counter the reference recomputed against
    /// the detailed run's [`HierarchyStats`]. Returns all mismatches.
    ///
    /// # Errors
    ///
    /// Returns one description per diverging counter group.
    pub fn check_stats(&self, stats: &HierarchyStats) -> Result<(), Vec<String>> {
        let mut errors = Vec::new();
        fn check(errors: &mut Vec<String>, name: &str, ok: bool, detail: String) {
            if !ok {
                errors.push(format!("{name}: {detail}"));
            }
        }

        check(
            &mut errors,
            "L1 stats",
            stats.l1 == self.l1.stats,
            format!("detailed {:?} != reference {:?}", stats.l1, self.l1.stats),
        );
        // Intermediate chain: the first level sits in `stats.l2`, deeper
        // ones in `stats.deeper_levels`.
        let detailed_intermediates: Vec<&lnuca_mem::CacheStats> =
            stats.l2.iter().chain(stats.deeper_levels.iter()).collect();
        if detailed_intermediates.len() != self.outer.intermediates.len() {
            errors.push(format!(
                "intermediate chain length differs: detailed {} != reference {}",
                detailed_intermediates.len(),
                self.outer.intermediates.len()
            ));
        } else {
            for (i, (detailed, reference)) in detailed_intermediates
                .iter()
                .zip(&self.outer.intermediates)
                .enumerate()
            {
                check(
                    &mut errors,
                    if i == 0 {
                        "L2 stats"
                    } else {
                        "deeper intermediate stats"
                    },
                    **detailed == reference.stats,
                    format!("level {i}: detailed {detailed:?} != reference {:?}", reference.stats),
                );
            }
        }
        match (&self.outer.backing, &stats.l3, &stats.dnuca) {
            (RefBacking::Cache(l3), Some(d3), None) => {
                check(
                    &mut errors,
                    "L3 stats",
                    *d3 == l3.stats,
                    format!("detailed {d3:?} != reference {:?}", l3.stats),
                );
            }
            (RefBacking::DNuca(dnuca), None, Some(dd)) => {
                let c = &dnuca.counters;
                let functional = (
                    dd.accesses,
                    &dd.hits_per_row,
                    dd.bank_lookups,
                    dd.bank_fills,
                    dd.migrations,
                    dd.dirty_evictions,
                );
                let reference = (
                    c.accesses,
                    &c.hits_per_row,
                    c.bank_lookups,
                    c.bank_fills,
                    c.migrations,
                    c.dirty_evictions,
                );
                check(
                    &mut errors,
                    "D-NUCA stats",
                    functional == reference,
                    format!("detailed {functional:?} != reference {reference:?}"),
                );
            }
            (RefBacking::Memory, None, None) => {}
            _ => errors.push("backing shape does not match the detailed stats".to_owned()),
        }
        if let Some(fabric) = &self.fabric {
            match &stats.lnuca {
                None => errors.push("detailed stats carry no fabric counters".to_owned()),
                Some(ln) => {
                    // The harness quiesces the hierarchy before comparing,
                    // so every launched search has been injected and
                    // resolved: the ledgers must close exactly.
                    check(
                        &mut errors,
                        "unresolved searches after quiescing",
                        fabric.pending.is_empty(),
                        format!("{} searches never resolved", fabric.pending.len()),
                    );
                    check(
                        &mut errors,
                        "fabric searches",
                        ln.searches == fabric.searches,
                        format!("detailed {} != reference {}", ln.searches, fabric.searches),
                    );
                    check(
                        &mut errors,
                        "fabric read hits",
                        ln.read_hits() == fabric.read_hits,
                        format!("detailed {} != reference {}", ln.read_hits(), fabric.read_hits),
                    );
                    let detailed_writes: u64 = ln.write_hits_per_level.iter().sum();
                    check(
                        &mut errors,
                        "fabric write hits",
                        detailed_writes == fabric.write_hits,
                        format!("detailed {detailed_writes} != reference {}", fabric.write_hits),
                    );
                    check(
                        &mut errors,
                        "fabric global misses",
                        ln.global_misses == fabric.global_misses,
                        format!(
                            "detailed {} != reference {}",
                            ln.global_misses, fabric.global_misses
                        ),
                    );
                    check(
                        &mut errors,
                        "fabric root evictions",
                        ln.root_evictions == fabric.root_evictions,
                        format!(
                            "detailed {} != reference {}",
                            ln.root_evictions, fabric.root_evictions
                        ),
                    );
                    check(
                        &mut errors,
                        "fabric spills",
                        ln.spills == fabric.spills,
                        format!("detailed {} != reference {}", ln.spills, fabric.spills),
                    );
                }
            }
        } else if stats.lnuca.is_some() {
            errors.push(
                "detailed stats carry fabric counters but the reference has no fabric".to_owned(),
            );
        }
        check(
            &mut errors,
            "memory accesses",
            stats.memory_accesses == self.memory_accesses,
            format!("detailed {} != reference {}", stats.memory_accesses, self.memory_accesses),
        );
        check(
            &mut errors,
            "write drains",
            stats.write_drains == self.write_drains,
            format!("detailed {} != reference {}", stats.write_drains, self.write_drains),
        );
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors)
        }
    }

    /// The fabric custody set as sorted `(block base, dirty)` pairs.
    #[must_use]
    pub fn fabric_blocks(&self) -> Vec<(u64, bool)> {
        self.fabric
            .as_ref()
            .map(|f| f.blocks.iter().map(|(&a, &d)| (a, d)).collect())
            .unwrap_or_default()
    }
}
