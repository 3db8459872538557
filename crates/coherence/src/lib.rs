//! MSI directory coherence for multi-root hierarchies (DESIGN.md §17).
//!
//! A [`Directory`] sits logically at the shared level of a CMP
//! [`HierarchySpec`](https://docs.rs/lnuca-sim) — below the per-core
//! private caches, above the shared backing — and tracks, for every line
//! with at least one private copy, *which* cores hold it and in what MSI
//! state. The simulator consults it **synchronously** at the point a core's
//! demand access reaches the shared level, and applies the returned
//! [`Transaction`] (invalidations, downgrades, writebacks, capacity
//! recalls) before the access's completion time is even scheduled. All
//! protocol state therefore changes in program order per core and in core
//! index order across cores — there is no transient state and no message
//! interleaving for an execution engine to reorder, which is what keeps
//! `CycleStep`, `EventHorizon` and the batched runner bit-identical over
//! coherent runs.
//!
//! The directory is **fixed-slot** (DESIGN.md §9): a set-associative array
//! of entries sized at construction, sharer sets as `u64` bitmasks (hence
//! [`MAX_CORES`] = 64), owners as a core index. The steady-state
//! transition path allocates nothing; when a set fills up, the
//! least-recently-touched entry is *recalled* — every private copy is
//! invalidated (flushing a dirty owner) so the directory may forget the
//! line without losing information. Recalls are reported in the
//! [`Transaction`] so the caller can apply them to the private caches.
//!
//! States are plain MSI:
//!
//! - **Modified** — exactly one core (the *owner*) holds the line,
//!   dirty with respect to the shared level; `sharers` is the owner's bit.
//! - **Shared** — one or more cores hold clean read-only copies.
//! - **Invalid** — no private copies; the entry is free. (Lines the
//!   directory has never seen, or has recalled, are implicitly Invalid.)
//!
//! A dirty copy never silently disappears: every transition that removes
//! or downgrades a Modified copy sets [`Transaction::writeback`] (or
//! [`Recall::writeback`]), and `tests/msi_model.rs` property-tests the
//! state machine against a map-based model to pin exactly that — arbitrary
//! interleavings of read/write/evict can neither reach an illegal state
//! nor lose a dirty writeback.
//!
//! # Example
//!
//! ```
//! use lnuca_coherence::{Directory, DirectoryConfig, MsiState};
//!
//! let mut dir = Directory::new(DirectoryConfig::new(4))?;
//! let line = 0x40;
//! assert_eq!(dir.write(0, line).state, MsiState::Modified);
//! // A remote read downgrades the dirty owner and flushes its copy.
//! let tx = dir.read(1, line);
//! assert_eq!(tx.state, MsiState::Shared);
//! assert!(tx.writeback);
//! // A remote write invalidates both sharers' copies.
//! let tx = dir.write(2, line);
//! assert_eq!(tx.invalidate, 0b011);
//! assert_eq!(dir.state_of(line), (MsiState::Modified, 0b100, Some(2)));
//! # Ok::<(), lnuca_coherence::DirectoryConfigError>(())
//! ```

use std::fmt;

/// Hard ceiling on the number of cores a [`Directory`] can track: sharer
/// sets are `u64` bitmasks.
pub const MAX_CORES: usize = 64;

/// MSI stable states. There are no transient states: transitions are
/// applied synchronously (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsiState {
    /// No private copy exists.
    Invalid,
    /// One or more clean read-only copies exist.
    Shared,
    /// Exactly one dirty copy exists, held by the owner.
    Modified,
}

impl MsiState {
    /// Stable lowercase label (`"invalid"` / `"shared"` / `"modified"`).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            MsiState::Invalid => "invalid",
            MsiState::Shared => "shared",
            MsiState::Modified => "modified",
        }
    }
}

/// Geometry of a [`Directory`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub struct DirectoryConfig {
    /// Number of cores whose private caches the directory tracks
    /// (`1..=`[`MAX_CORES`]).
    pub cores: usize,
    /// Number of sets (a power of two).
    pub sets: usize,
    /// Entries per set.
    pub ways: usize,
}

impl DirectoryConfig {
    /// Default geometry for `cores` cores: 512 sets × 16 ways = 8192
    /// tracked lines, comfortably above the private capacity of the paper
    /// configurations so recalls stay a capacity corner case rather than
    /// the steady state.
    #[must_use]
    pub fn new(cores: usize) -> Self {
        DirectoryConfig {
            cores,
            sets: 512,
            ways: 16,
        }
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns a [`DirectoryConfigError`] naming the offending field if the
    /// core count is outside `1..=`[`MAX_CORES`], `sets` is zero or not a
    /// power of two, or `ways` is zero.
    pub fn validate(&self) -> Result<(), DirectoryConfigError> {
        if self.cores == 0 || self.cores > MAX_CORES {
            return Err(DirectoryConfigError(format!(
                "cores must be 1..={MAX_CORES}, got {}",
                self.cores
            )));
        }
        if self.sets == 0 || !self.sets.is_power_of_two() {
            return Err(DirectoryConfigError(format!(
                "sets must be a non-zero power of two, got {}",
                self.sets
            )));
        }
        if self.ways == 0 {
            return Err(DirectoryConfigError("ways must be non-zero".to_owned()));
        }
        Ok(())
    }
}

/// An invalid [`DirectoryConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirectoryConfigError(pub String);

impl fmt::Display for DirectoryConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid directory configuration: {}", self.0)
    }
}

impl std::error::Error for DirectoryConfigError {}

/// A directory capacity victim: the line every holder must drop so the
/// directory may forget it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Recall {
    /// The recalled line.
    pub line: u64,
    /// Bitmask of cores that must invalidate their copy.
    pub invalidate: u64,
    /// `true` when the recalled entry was Modified: the owner's dirty copy
    /// is flushed to the shared level as part of the recall.
    pub writeback: bool,
}

/// What one directory transition requires of the private caches. The
/// caller applies `recall` first (it concerns a *different* line), then
/// `invalidate` for the requested line, then installs its own copy in
/// `state`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Transaction {
    /// The requester's resulting state for the line (never
    /// [`MsiState::Invalid`]).
    pub state: MsiState,
    /// Bitmask of cores that must invalidate their copy of the requested
    /// line. Never includes the requester. Empty for reads (a remote owner
    /// *downgrades* to sharer rather than invalidating).
    pub invalidate: u64,
    /// `true` when a remote Modified copy was flushed to the shared level
    /// as part of this transition (downgrade on read, ownership transfer
    /// on write).
    pub writeback: bool,
    /// `true` when the directory already tracked the line (the requester
    /// may or may not have held a copy).
    pub hit: bool,
    /// Capacity victim evicted to make room for this line, if any.
    pub recall: Option<Recall>,
}

/// Monotonic transition counters, all starting at zero.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct DirectoryCounters {
    /// Read transitions processed.
    pub reads: u64,
    /// Write transitions processed.
    pub writes: u64,
    /// Private-cache eviction notices processed.
    pub evictions: u64,
    /// Transitions that found the line already tracked.
    pub hits: u64,
    /// Transitions that had to allocate an entry.
    pub misses: u64,
    /// Private copies invalidated by the protocol (sum over cores; recalls
    /// included).
    pub invalidations_sent: u64,
    /// Modified owners downgraded to Shared by a remote read.
    pub downgrades: u64,
    /// Dirty copies flushed to the shared level (downgrades, ownership
    /// transfers, dirty evictions, dirty recalls).
    pub writebacks: u64,
    /// Capacity victims recalled.
    pub recalls: u64,
    /// Invalidations *received* by each core (indexed by core, length =
    /// configured core count).
    pub per_core_invalidations: Vec<u64>,
}

impl DirectoryCounters {
    fn new(cores: usize) -> Self {
        DirectoryCounters {
            reads: 0,
            writes: 0,
            evictions: 0,
            hits: 0,
            misses: 0,
            invalidations_sent: 0,
            downgrades: 0,
            writebacks: 0,
            recalls: 0,
            per_core_invalidations: vec![0; cores],
        }
    }
}

/// One directory slot. `state == Invalid` means the slot is free; the
/// other fields are then meaningless.
#[derive(Debug, Clone, Copy)]
struct Entry {
    line: u64,
    sharers: u64,
    owner: u8,
    state: MsiState,
    /// LRU stamp: larger = touched more recently.
    stamp: u64,
}

const FREE: Entry = Entry {
    line: 0,
    sharers: 0,
    owner: 0,
    state: MsiState::Invalid,
    stamp: 0,
};

/// Fixed-slot set-associative MSI directory; see the [module docs](self)
/// for the protocol and determinism contract.
#[derive(Debug, Clone)]
pub struct Directory {
    config: DirectoryConfig,
    /// `config.sets * config.ways` slots, set-major.
    entries: Vec<Entry>,
    set_mask: u64,
    clock: u64,
    counters: DirectoryCounters,
}

impl Directory {
    /// Builds an empty directory; the only allocation the directory ever
    /// performs.
    ///
    /// # Errors
    ///
    /// Returns a [`DirectoryConfigError`] if `config` does not
    /// [validate](DirectoryConfig::validate).
    pub fn new(config: DirectoryConfig) -> Result<Self, DirectoryConfigError> {
        config.validate()?;
        Ok(Directory {
            entries: vec![FREE; config.sets * config.ways],
            set_mask: (config.sets - 1) as u64,
            clock: 0,
            counters: DirectoryCounters::new(config.cores),
            config,
        })
    }

    /// The geometry the directory was built with.
    #[must_use]
    pub fn config(&self) -> &DirectoryConfig {
        &self.config
    }

    /// The transition counters.
    #[must_use]
    pub fn counters(&self) -> &DirectoryCounters {
        &self.counters
    }

    /// Current state of `line`: `(state, sharer mask, owner)`. Untracked
    /// lines report `(Invalid, 0, None)`; the owner is `Some` only in
    /// Modified.
    #[must_use]
    pub fn state_of(&self, line: u64) -> (MsiState, u64, Option<usize>) {
        match self.find(line) {
            Some(idx) => {
                let e = &self.entries[idx];
                let owner = match e.state {
                    MsiState::Modified => Some(e.owner as usize),
                    _ => None,
                };
                (e.state, e.sharers, owner)
            }
            None => (MsiState::Invalid, 0, None),
        }
    }

    /// Iterates over every tracked line as `(line, state, sharer mask,
    /// owner)`, in slot order. For end-of-run audits (the coherence
    /// oracle's final owner/sharer-set check); not a steady-state path.
    pub fn lines(&self) -> impl Iterator<Item = (u64, MsiState, u64, Option<usize>)> + '_ {
        self.entries
            .iter()
            .filter(|e| e.state != MsiState::Invalid)
            .map(|e| {
                let owner = match e.state {
                    MsiState::Modified => Some(e.owner as usize),
                    _ => None,
                };
                (e.line, e.state, e.sharers, owner)
            })
    }

    /// A core's demand **read** of `line` reached the shared level. A
    /// remote Modified owner is downgraded to Shared (flushing its dirty
    /// copy — [`Transaction::writeback`]); the requester joins the sharer
    /// set.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `core` is out of range.
    pub fn read(&mut self, core: usize, line: u64) -> Transaction {
        debug_assert!(core < self.config.cores, "core {core} out of range");
        self.counters.reads += 1;
        let bit = 1u64 << core;
        self.clock += 1;
        let stamp = self.clock;
        match self.find(line) {
            Some(idx) => {
                self.counters.hits += 1;
                let e = &mut self.entries[idx];
                e.stamp = stamp;
                let mut writeback = false;
                if e.state == MsiState::Modified && e.sharers != bit {
                    // Remote owner: downgrade, keeping it as a sharer.
                    writeback = true;
                    self.counters.downgrades += 1;
                    self.counters.writebacks += 1;
                    e.state = MsiState::Shared;
                }
                if e.state == MsiState::Shared {
                    e.sharers |= bit;
                }
                Transaction {
                    state: e.state,
                    invalidate: 0,
                    writeback,
                    hit: true,
                    recall: None,
                }
            }
            None => {
                self.counters.misses += 1;
                let recall = self.allocate(line, stamp, MsiState::Shared, bit, core);
                Transaction {
                    state: MsiState::Shared,
                    invalidate: 0,
                    writeback: false,
                    hit: false,
                    recall,
                }
            }
        }
    }

    /// A core's demand **write** of `line` reached the shared level (a
    /// write miss, or an upgrade of a Shared copy). Every other holder is
    /// invalidated; a remote Modified owner's dirty copy is flushed first
    /// ([`Transaction::writeback`]). The requester becomes the owner.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `core` is out of range.
    pub fn write(&mut self, core: usize, line: u64) -> Transaction {
        debug_assert!(core < self.config.cores, "core {core} out of range");
        self.counters.writes += 1;
        let bit = 1u64 << core;
        self.clock += 1;
        let stamp = self.clock;
        match self.find(line) {
            Some(idx) => {
                self.counters.hits += 1;
                let e = &mut self.entries[idx];
                e.stamp = stamp;
                let invalidate = e.sharers & !bit;
                let writeback = e.state == MsiState::Modified && e.sharers != bit;
                e.state = MsiState::Modified;
                e.sharers = bit;
                e.owner = core as u8;
                if writeback {
                    self.counters.writebacks += 1;
                }
                self.apply_invalidations(invalidate);
                Transaction {
                    state: MsiState::Modified,
                    invalidate,
                    writeback,
                    hit: true,
                    recall: None,
                }
            }
            None => {
                self.counters.misses += 1;
                let recall = self.allocate(line, stamp, MsiState::Modified, bit, core);
                Transaction {
                    state: MsiState::Modified,
                    invalidate: 0,
                    writeback: false,
                    hit: false,
                    recall,
                }
            }
        }
    }

    /// A core's private cache **evicted** its copy of `line` (`dirty` =
    /// the copy was Modified and was written back to the shared level by
    /// the caller). The core leaves the sharer set; the entry is freed
    /// when the last copy goes.
    ///
    /// Returns `true` when the directory was tracking the core's copy. An
    /// eviction notice for an untracked copy is counted but otherwise
    /// ignored (it can only happen if the caller violates the protocol —
    /// debug builds assert instead).
    ///
    /// # Panics
    ///
    /// Panics in debug builds if `core` is out of range, if the line or
    /// copy is untracked, or if `dirty` is claimed by a non-owner.
    pub fn evict(&mut self, core: usize, line: u64, dirty: bool) -> bool {
        debug_assert!(core < self.config.cores, "core {core} out of range");
        self.counters.evictions += 1;
        let bit = 1u64 << core;
        let Some(idx) = self.find(line) else {
            debug_assert!(false, "evict of untracked line {line:#x}");
            return false;
        };
        let e = &mut self.entries[idx];
        if e.sharers & bit == 0 {
            debug_assert!(false, "core {core} evicting line {line:#x} it does not hold");
            return false;
        }
        debug_assert!(
            !dirty || (e.state == MsiState::Modified && e.owner as usize == core),
            "core {core} claims a dirty copy of line {line:#x} it does not own"
        );
        if dirty && e.state == MsiState::Modified && e.owner as usize == core {
            self.counters.writebacks += 1;
        }
        e.sharers &= !bit;
        if e.sharers == 0 {
            *e = FREE;
        } else if e.state == MsiState::Modified {
            // The owner left without a writeback claim (clean drop of an
            // exclusive copy cannot happen under MSI — the owner is dirty
            // by definition — so this is unreachable when the caller obeys
            // the protocol; `dirty` handled it above).
            e.state = MsiState::Shared;
        }
        true
    }

    /// Index of `line`'s slot, if tracked.
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_base(line);
        (base..base + self.config.ways)
            .find(|&i| self.entries[i].state != MsiState::Invalid && self.entries[i].line == line)
    }

    /// First slot of `line`'s set.
    fn set_base(&self, line: u64) -> usize {
        // Multiplicative hash so block-index keys spread over the sets
        // even for strided sharing patterns; determinism is all that is
        // required of it.
        let hashed = line.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 17;
        (hashed & self.set_mask) as usize * self.config.ways
    }

    /// Installs `line` in its set (evicting the LRU victim if the set is
    /// full — the returned [`Recall`]) with the given initial state.
    fn allocate(
        &mut self,
        line: u64,
        stamp: u64,
        state: MsiState,
        sharers: u64,
        owner: usize,
    ) -> Option<Recall> {
        let base = self.set_base(line);
        let set = base..base + self.config.ways;
        let slot = match set
            .clone()
            .find(|&i| self.entries[i].state == MsiState::Invalid)
        {
            Some(free) => free,
            None => {
                // Recall the least-recently-touched entry: every holder
                // drops its copy, a dirty owner flushes first.
                let victim = set
                    .min_by_key(|&i| self.entries[i].stamp)
                    .expect("ways is non-zero");
                let v = self.entries[victim];
                let writeback = v.state == MsiState::Modified;
                if writeback {
                    self.counters.writebacks += 1;
                }
                self.counters.recalls += 1;
                self.apply_invalidations(v.sharers);
                self.entries[victim] = FREE;
                let recall = Recall {
                    line: v.line,
                    invalidate: v.sharers,
                    writeback,
                };
                self.entries[victim] = Entry {
                    line,
                    sharers,
                    owner: owner as u8,
                    state,
                    stamp,
                };
                return Some(recall);
            }
        };
        self.entries[slot] = Entry {
            line,
            sharers,
            owner: owner as u8,
            state,
            stamp,
        };
        None
    }

    /// Books `mask`'s invalidations into the counters.
    fn apply_invalidations(&mut self, mask: u64) {
        if mask == 0 {
            return;
        }
        self.counters.invalidations_sent += u64::from(mask.count_ones());
        let mut rest = mask;
        while rest != 0 {
            let core = rest.trailing_zeros() as usize;
            if let Some(slot) = self.counters.per_core_invalidations.get_mut(core) {
                *slot += 1;
            }
            rest &= rest - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dir(cores: usize) -> Directory {
        Directory::new(DirectoryConfig::new(cores)).unwrap()
    }

    #[test]
    fn config_validation_rejects_bad_geometry() {
        assert!(DirectoryConfig::new(0).validate().is_err());
        assert!(DirectoryConfig::new(65).validate().is_err());
        assert!(DirectoryConfig::new(64).validate().is_ok());
        let mut c = DirectoryConfig::new(4);
        c.sets = 12;
        assert!(c.validate().is_err());
        c.sets = 16;
        c.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn private_read_and_write_transitions_follow_msi() {
        let mut d = dir(2);
        let tx = d.read(0, 0x80);
        assert_eq!(
            (tx.state, tx.invalidate, tx.writeback, tx.hit),
            (MsiState::Shared, 0, false, false)
        );
        // Upgrade: the lone sharer writes.
        let tx = d.write(0, 0x80);
        assert_eq!((tx.state, tx.invalidate, tx.writeback), (MsiState::Modified, 0, false));
        assert_eq!(d.state_of(0x80), (MsiState::Modified, 0b01, Some(0)));
        // Re-write by the owner is silent.
        let tx = d.write(0, 0x80);
        assert!(tx.hit && tx.invalidate == 0 && !tx.writeback);
    }

    #[test]
    fn remote_read_downgrades_the_owner_and_flushes() {
        let mut d = dir(2);
        d.write(0, 0x80);
        let tx = d.read(1, 0x80);
        assert_eq!(tx.state, MsiState::Shared);
        assert_eq!(tx.invalidate, 0, "MSI downgrades on read, it does not invalidate");
        assert!(tx.writeback);
        assert_eq!(d.state_of(0x80), (MsiState::Shared, 0b11, None));
        assert_eq!(d.counters().downgrades, 1);
        assert_eq!(d.counters().writebacks, 1);
    }

    #[test]
    fn remote_write_invalidates_every_other_holder() {
        let mut d = dir(4);
        for core in 0..3 {
            d.read(core, 0x100);
        }
        let tx = d.write(3, 0x100);
        assert_eq!(tx.invalidate, 0b0111);
        assert!(!tx.writeback, "sharers were clean");
        assert_eq!(d.state_of(0x100), (MsiState::Modified, 0b1000, Some(3)));
        assert_eq!(d.counters().invalidations_sent, 3);
        assert_eq!(d.counters().per_core_invalidations, vec![1, 1, 1, 0]);
    }

    #[test]
    fn ownership_transfer_flushes_the_previous_owner() {
        let mut d = dir(2);
        d.write(0, 0x40);
        let tx = d.write(1, 0x40);
        assert_eq!(tx.invalidate, 0b01);
        assert!(tx.writeback);
        assert_eq!(d.state_of(0x40), (MsiState::Modified, 0b10, Some(1)));
    }

    #[test]
    fn evictions_retire_copies_and_free_the_entry() {
        let mut d = dir(2);
        d.read(0, 0x40);
        d.read(1, 0x40);
        assert!(d.evict(0, 0x40, false));
        assert_eq!(d.state_of(0x40), (MsiState::Shared, 0b10, None));
        assert!(d.evict(1, 0x40, false));
        assert_eq!(d.state_of(0x40), (MsiState::Invalid, 0, None));
        d.write(0, 0x80);
        assert!(d.evict(0, 0x80, true));
        assert_eq!(d.counters().writebacks, 1);
        assert_eq!(d.state_of(0x80), (MsiState::Invalid, 0, None));
    }

    #[test]
    fn a_full_set_recalls_its_lru_entry() {
        let mut d = Directory::new(DirectoryConfig {
            cores: 2,
            sets: 1,
            ways: 2,
        })
        .unwrap();
        d.write(0, 1);
        d.read(1, 2);
        let tx = d.read(0, 3);
        let recall = tx.recall.expect("the set was full");
        assert_eq!(recall.line, 1, "line 1 was least recently touched");
        assert_eq!(recall.invalidate, 0b01);
        assert!(recall.writeback, "the recalled entry was Modified");
        assert_eq!(d.state_of(1), (MsiState::Invalid, 0, None));
        assert_eq!(d.state_of(3), (MsiState::Shared, 0b01, None));
        assert_eq!(d.counters().recalls, 1);
    }

    #[test]
    fn lines_iterates_the_tracked_population() {
        let mut d = dir(2);
        d.write(0, 0x10);
        d.read(1, 0x20);
        let mut lines: Vec<_> = d.lines().collect();
        lines.sort_by_key(|&(line, ..)| line);
        assert_eq!(
            lines,
            vec![
                (0x10, MsiState::Modified, 0b01, Some(0)),
                (0x20, MsiState::Shared, 0b10, None),
            ]
        );
    }
}
