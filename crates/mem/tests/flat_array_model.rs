//! Differential property test: the flat-lane [`CacheArray`] (packed tag
//! words, a dirty lane and one recency rank per way, DESIGN.md §10) must be
//! behaviorally identical to a straightforward reference model — nested
//! `Vec`s of `Option<Line>` with explicit `u64` recency stamps, the layout
//! the pre-flattening implementation used — over random interleavings of
//! every public operation, for LRU, FIFO and the deterministic Random
//! replacement policy, on every associativity from direct-mapped to a
//! 256-way fully associative set.

use lnuca_mem::{CacheArray, CacheGeometry, EvictedLine, Line, ReplacementPolicy};
use lnuca_types::Addr;
use proptest::prelude::*;

/// The obviously-correct model: one `Option`-per-way nested structure that
/// picks its victims from its own stamps (as `lnuca-verify`'s reference
/// does), sharing no victim code with the array under test.
struct ReferenceArray {
    geometry: CacheGeometry,
    policy: ReplacementPolicy,
    sets: Vec<Vec<RefWay>>,
    tick: u64,
    resident: usize,
}

#[derive(Clone, Copy)]
struct RefWay {
    line: Option<Line>,
    last_use: u64,
    inserted: u64,
}

impl ReferenceArray {
    fn new(geometry: CacheGeometry, policy: ReplacementPolicy) -> Self {
        ReferenceArray {
            geometry,
            policy,
            sets: vec![
                vec![
                    RefWay {
                        line: None,
                        last_use: 0,
                        inserted: 0
                    };
                    geometry.ways()
                ];
                geometry.sets()
            ],
            tick: 0,
            resident: 0,
        }
    }

    fn set_of(&mut self, addr: Addr) -> (&mut Vec<RefWay>, Addr) {
        let index = self.geometry.set_index(addr);
        let base = addr.block_base(self.geometry.block_size());
        (&mut self.sets[index], base)
    }

    fn contains(&self, addr: Addr) -> bool {
        let set = &self.sets[self.geometry.set_index(addr)];
        let base = addr.block_base(self.geometry.block_size());
        set.iter().any(|w| w.line.map(|l| l.addr) == Some(base))
    }

    fn lookup(&mut self, addr: Addr) -> Option<Line> {
        self.tick += 1;
        let tick = self.tick;
        let (set, base) = self.set_of(addr);
        for way in set.iter_mut() {
            if let Some(line) = way.line {
                if line.addr == base {
                    way.last_use = tick;
                    return Some(line);
                }
            }
        }
        None
    }

    fn mark_dirty(&mut self, addr: Addr) -> bool {
        let (set, base) = self.set_of(addr);
        for way in set.iter_mut() {
            if let Some(line) = way.line.as_mut() {
                if line.addr == base {
                    line.dirty = true;
                    return true;
                }
            }
        }
        false
    }

    fn fill(&mut self, addr: Addr, dirty: bool) -> Option<EvictedLine> {
        self.tick += 1;
        let tick = self.tick;
        let policy = self.policy;
        let (set, base) = self.set_of(addr);
        for way in set.iter_mut() {
            if let Some(line) = way.line.as_mut() {
                if line.addr == base {
                    line.dirty |= dirty;
                    way.last_use = tick;
                    return None;
                }
            }
        }
        if let Some(way) = set.iter_mut().find(|w| w.line.is_none()) {
            way.line = Some(Line { addr: base, dirty });
            way.last_use = tick;
            way.inserted = tick;
            self.resident += 1;
            return None;
        }
        let victim_way = victim_way(policy, set, tick);
        let way = &mut set[victim_way];
        let victim = way.line.expect("full set has a line in every way");
        way.line = Some(Line { addr: base, dirty });
        way.last_use = tick;
        way.inserted = tick;
        Some(EvictedLine {
            addr: victim.addr,
            dirty: victim.dirty,
        })
    }

    fn invalidate(&mut self, addr: Addr) -> Option<Line> {
        let (set, base) = self.set_of(addr);
        for way in set.iter_mut() {
            if let Some(line) = way.line {
                if line.addr == base {
                    way.line = None;
                    self.resident -= 1;
                    return Some(line);
                }
            }
        }
        None
    }

    fn has_free_way(&self, addr: Addr) -> bool {
        self.sets[self.geometry.set_index(addr)]
            .iter()
            .any(|w| w.line.is_none())
    }
}

/// The way a full set evicts: the smallest `last_use` (LRU) or `inserted`
/// (FIFO) stamp, the lowest way on a tie, or a SplitMix64 draw on `tick`
/// (Random).
fn victim_way(policy: ReplacementPolicy, set: &[RefWay], tick: u64) -> usize {
    let oldest = |stamp: fn(&RefWay) -> u64| {
        (0..set.len())
            .min_by_key(|&way| (stamp(&set[way]), way))
            .expect("a set has at least one way")
    };
    match policy {
        ReplacementPolicy::Lru => oldest(|w| w.last_use),
        ReplacementPolicy::Fifo => oldest(|w| w.inserted),
        ReplacementPolicy::Random => {
            let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            (z % set.len() as u64) as usize
        }
    }
}

/// One randomly chosen operation against both implementations.
#[derive(Debug, Clone, Copy)]
enum Op {
    Lookup(u64),
    Fill(u64, bool),
    MarkDirty(u64),
    Invalidate(u64),
    Probe(u64),
}

/// Operations on byte addresses below `addr_space`, weighted towards fills
/// (3 in 8) over invalidations (1 in 8) so even a 256-way set fills up and
/// evicts.
fn op_strategy(addr_space: u64) -> impl Strategy<Value = Op> {
    (0u8..8, 0..addr_space, any::<bool>()).prop_map(|(kind, addr, flag)| match kind {
        0..=2 => Op::Fill(addr, flag),
        3 | 4 => Op::Lookup(addr),
        5 => Op::MarkDirty(addr),
        6 => Op::Invalidate(addr),
        _ => Op::Probe(addr),
    })
}

fn policies() -> Vec<ReplacementPolicy> {
    vec![
        ReplacementPolicy::Lru,
        ReplacementPolicy::Fifo,
        ReplacementPolicy::Random,
    ]
}

/// Replays `ops` against both implementations, comparing every result and
/// the final residency.
fn check(geometry: CacheGeometry, policy: ReplacementPolicy, ops: &[Op]) {
    let mut flat = CacheArray::new(geometry, policy);
    let mut reference = ReferenceArray::new(geometry, policy);

    for (step, &op) in ops.iter().enumerate() {
        match op {
            Op::Lookup(a) => prop_assert_eq!(
                flat.lookup(Addr(a)),
                reference.lookup(Addr(a)),
                "lookup({:#x}) diverged at step {}",
                a,
                step
            ),
            Op::Fill(a, dirty) => prop_assert_eq!(
                flat.fill(Addr(a), dirty),
                reference.fill(Addr(a), dirty),
                "fill({:#x}, {}) diverged at step {}",
                a,
                dirty,
                step
            ),
            Op::MarkDirty(a) => prop_assert_eq!(
                flat.mark_dirty(Addr(a)),
                reference.mark_dirty(Addr(a)),
                "mark_dirty({:#x}) diverged at step {}",
                a,
                step
            ),
            Op::Invalidate(a) => prop_assert_eq!(
                flat.invalidate(Addr(a)),
                reference.invalidate(Addr(a)),
                "invalidate({:#x}) diverged at step {}",
                a,
                step
            ),
            Op::Probe(a) => {
                prop_assert_eq!(
                    flat.contains(Addr(a)),
                    reference.contains(Addr(a)),
                    "contains({:#x}) diverged at step {}",
                    a,
                    step
                );
                prop_assert_eq!(
                    flat.has_free_way(Addr(a)),
                    reference.has_free_way(Addr(a)),
                    "has_free_way({:#x}) diverged at step {}",
                    a,
                    step
                );
            }
        }
        prop_assert_eq!(flat.resident(), reference.resident);
    }

    // Final residency contents agree exactly (order-insensitively).
    let mut flat_lines: Vec<Line> = flat.iter().collect();
    let mut reference_lines: Vec<Line> = reference
        .sets
        .iter()
        .flat_map(|set| set.iter().filter_map(|w| w.line))
        .collect();
    flat_lines.sort_by_key(|l| l.addr.0);
    reference_lines.sort_by_key(|l| l.addr.0);
    prop_assert_eq!(flat_lines, reference_lines);
}

proptest! {
    #[test]
    fn flat_array_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(0x2000), 1..300),
        policy in prop::sample::select(policies()),
    ) {
        // 1 KB, 4-way, 32 B blocks: 8 sets, small enough that random
        // addresses collide constantly and every eviction path fires.
        check(CacheGeometry::new(1024, 4, 32).unwrap(), policy, &ops);
    }

    #[test]
    fn direct_mapped_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(0x400), 1..300),
        policy in prop::sample::select(policies()),
    ) {
        // 256 B, 1-way, 32 B blocks: 8 sets, 4 blocks competing per set.
        check(CacheGeometry::new(256, 1, 32).unwrap(), policy, &ops);
    }

    #[test]
    fn two_way_tile_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(0x800), 1..300),
        policy in prop::sample::select(policies()),
    ) {
        // The L-NUCA tile's associativity: 512 B, 2-way, 32 B blocks.
        check(CacheGeometry::new(512, 2, 32).unwrap(), policy, &ops);
    }

    #[test]
    fn sixteen_way_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(0x1000), 1..600),
        policy in prop::sample::select(policies()),
    ) {
        // The L3's associativity: 2 KB, 16-way, 32 B blocks (4 sets).
        check(CacheGeometry::new(2048, 16, 32).unwrap(), policy, &ops);
    }

    #[test]
    fn fully_associative_256_way_matches_the_reference_model(
        ops in proptest::collection::vec(op_strategy(0x6000), 800..1600),
        policy in prop::sample::select(policies()),
    ) {
        // The widest set a geometry accepts: one 256-way set of 32 B
        // blocks over an address space three times its capacity.
        check(CacheGeometry::fully_associative(256, 32).unwrap(), policy, &ops);
    }
}
