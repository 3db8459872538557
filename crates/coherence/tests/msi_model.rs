//! Property tests: the fixed-slot [`Directory`] against a map-based
//! reference model (ISSUE 10 satellite; DESIGN.md §17).
//!
//! The model is the obvious one — a `BTreeMap` from line to "who holds it
//! and how" — maintained by applying exactly the actions the directory
//! returns (recalls first, then invalidations, then the requester's new
//! state). After every operation the directory and the model must agree on
//! the complete tracked population, and two protocol invariants are pinned
//! across arbitrary interleavings of read/write/evict per line:
//!
//! 1. **No illegal state**: a Modified line has exactly one holder (its
//!    owner); a Shared line has at least one and no owner.
//! 2. **No lost dirty writeback**: every removal or downgrade of a
//!    Modified copy — remote read, ownership transfer, dirty eviction,
//!    capacity recall — bumps the directory's writeback counter exactly
//!    once.

use lnuca_coherence::{Directory, DirectoryConfig, MsiState, Transaction};
use proptest::prelude::*;
use std::collections::BTreeMap;

const CORES: usize = 4;
/// Small line pool + tiny directory so capacity recalls are routine, not
/// a corner case.
const LINES: u64 = 24;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ModelLine {
    Shared(u64),
    Modified(usize),
}

#[derive(Debug, Default)]
struct Model {
    lines: BTreeMap<u64, ModelLine>,
    expected_writebacks: u64,
}

impl Model {
    fn holds(&self, core: usize, line: u64) -> bool {
        match self.lines.get(&line) {
            Some(ModelLine::Shared(mask)) => mask & (1 << core) != 0,
            Some(ModelLine::Modified(owner)) => *owner == core,
            None => false,
        }
    }

    fn holds_dirty(&self, core: usize, line: u64) -> bool {
        matches!(self.lines.get(&line), Some(ModelLine::Modified(owner)) if *owner == core)
    }

    /// Applies a transaction's side effects (recall, invalidations) and
    /// the requester's new state for `line`.
    fn apply(&mut self, core: usize, line: u64, tx: &Transaction) {
        if let Some(recall) = tx.recall {
            let victim = self
                .lines
                .remove(&recall.line)
                .expect("the directory recalled a line the model does not track");
            let (mask, was_dirty) = match victim {
                ModelLine::Shared(mask) => (mask, false),
                ModelLine::Modified(owner) => (1 << owner, true),
            };
            assert_eq!(recall.invalidate, mask, "recall names every holder");
            assert_eq!(recall.writeback, was_dirty, "dirty recalls flush");
            if was_dirty {
                self.expected_writebacks += 1;
            }
        }
        let prior = self.lines.get(&line).copied();
        // A remote Modified copy flushed on this transition?
        let remote_dirty = matches!(prior, Some(ModelLine::Modified(owner)) if owner != core);
        assert_eq!(
            tx.writeback, remote_dirty,
            "writeback exactly when a remote owner's dirty copy goes"
        );
        if remote_dirty {
            self.expected_writebacks += 1;
        }
        match tx.state {
            MsiState::Shared => {
                let mask = match prior {
                    Some(ModelLine::Shared(mask)) => mask,
                    Some(ModelLine::Modified(owner)) => 1 << owner,
                    None => 0,
                };
                assert_eq!(tx.invalidate, 0, "reads never invalidate");
                self.lines
                    .insert(line, ModelLine::Shared(mask | (1 << core)));
            }
            MsiState::Modified => {
                let others = match prior {
                    Some(ModelLine::Shared(mask)) => mask & !(1u64 << core),
                    Some(ModelLine::Modified(owner)) if owner != core => 1 << owner,
                    _ => 0,
                };
                assert_eq!(tx.invalidate, others, "writes invalidate every other holder");
                self.lines.insert(line, ModelLine::Modified(core));
            }
            MsiState::Invalid => panic!("a demand transition cannot leave the requester Invalid"),
        }
    }

    fn evict(&mut self, core: usize, line: u64, dirty: bool) {
        if dirty {
            self.expected_writebacks += 1;
        }
        match self.lines.get(&line).copied() {
            Some(ModelLine::Modified(owner)) => {
                assert_eq!(owner, core);
                self.lines.remove(&line);
            }
            Some(ModelLine::Shared(mask)) => {
                let rest = mask & !(1u64 << core);
                if rest == 0 {
                    self.lines.remove(&line);
                } else {
                    self.lines.insert(line, ModelLine::Shared(rest));
                }
            }
            None => panic!("model eviction of an untracked line"),
        }
    }
}

/// Directory and model must agree on the entire tracked population, and
/// the directory must be in a legal MSI state throughout.
fn check_agreement(dir: &Directory, model: &Model) {
    let mut tracked = 0usize;
    for (line, state, sharers, owner) in dir.lines() {
        tracked += 1;
        match state {
            MsiState::Modified => {
                assert_eq!(sharers.count_ones(), 1, "Modified line {line:#x} has one holder");
                let o = owner.expect("Modified lines have an owner");
                assert_eq!(sharers, 1 << o, "the owner is the holder");
                assert_eq!(model.lines.get(&line), Some(&ModelLine::Modified(o)));
            }
            MsiState::Shared => {
                assert!(sharers != 0, "Shared line {line:#x} has at least one holder");
                assert_eq!(owner, None);
                assert_eq!(model.lines.get(&line), Some(&ModelLine::Shared(sharers)));
            }
            MsiState::Invalid => panic!("lines() must not yield free slots"),
        }
    }
    assert_eq!(tracked, model.lines.len(), "same tracked population");
    assert_eq!(
        dir.counters().writebacks,
        model.expected_writebacks,
        "every dirty copy removal produced exactly one writeback"
    );
}

fn tiny_directory() -> Directory {
    let mut config = DirectoryConfig::new(CORES);
    config.sets = 4;
    config.ways = 2;
    Directory::new(config).unwrap()
}

proptest! {
    #[test]
    fn arbitrary_interleavings_stay_legal_and_conserve_dirty_writebacks(
        ops in proptest::collection::vec((0usize..CORES, 0u64..LINES, 0u8..4), 1..300)
    ) {
        let mut dir = tiny_directory();
        let mut model = Model::default();
        for (core, line, kind) in ops {
            match kind {
                0 | 1 => {
                    let tx = if kind == 0 { dir.read(core, line) } else { dir.write(core, line) };
                    model.apply(core, line, &tx);
                }
                // Evictions are only legal for a held copy; redraw the
                // no-op case as a read so every op advances the machine.
                _ => {
                    if model.holds(core, line) {
                        let dirty = kind == 3 && model.holds_dirty(core, line);
                        prop_assert!(dir.evict(core, line, dirty));
                        model.evict(core, line, dirty);
                    } else {
                        let tx = dir.read(core, line);
                        model.apply(core, line, &tx);
                    }
                }
            }
            check_agreement(&dir, &model);
        }
    }

    #[test]
    fn the_default_geometry_never_recalls_under_a_small_working_set(
        ops in proptest::collection::vec((0usize..CORES, 0u64..LINES, any::<bool>()), 1..200)
    ) {
        // With 8192 slots and 24 lines, allocation never needs a victim:
        // recalls are purely a capacity mechanism.
        let mut dir = Directory::new(DirectoryConfig::new(CORES)).unwrap();
        for (core, line, write) in ops {
            let tx = if write { dir.write(core, line) } else { dir.read(core, line) };
            prop_assert!(tx.recall.is_none());
        }
        prop_assert_eq!(dir.counters().recalls, 0);
    }
}

#[test]
fn a_torture_sequence_of_every_op_kind_agrees_with_the_model() {
    // Deterministic long mixed run (an LCG, not proptest) so the test is
    // reproducible under `cargo test` without the macro's case budget.
    let mut dir = tiny_directory();
    let mut model = Model::default();
    let mut x = 0x1234_5678_9ABC_DEF0u64;
    for _ in 0..5_000 {
        x = x
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let core = (x >> 7) as usize % CORES;
        let line = (x >> 23) % LINES;
        match (x >> 49) % 3 {
            0 => {
                let tx = dir.read(core, line);
                model.apply(core, line, &tx);
            }
            1 => {
                let tx = dir.write(core, line);
                model.apply(core, line, &tx);
            }
            _ if model.holds(core, line) => {
                let dirty = model.holds_dirty(core, line);
                assert!(dir.evict(core, line, dirty));
                model.evict(core, line, dirty);
            }
            _ => {
                let tx = dir.write(core, line);
                model.apply(core, line, &tx);
            }
        }
    }
    check_agreement(&dir, &model);
    let c = dir.counters();
    assert!(c.recalls > 0, "the tiny geometry must exercise recalls");
    assert!(c.downgrades > 0 && c.invalidations_sent > 0);
}
