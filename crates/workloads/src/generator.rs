//! Deterministic synthetic trace generation.

use crate::instr::{Instr, InstrKind};
use crate::profile::{AccessPattern, WorkloadProfile};
use crate::trace::{TraceData, TraceReplay};
use lnuca_types::Addr;
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// Block size (bytes) used by the address generators. Matches the L1 /
/// L-NUCA block size so one "block" of the reuse model is one L1 block.
pub const TRACE_BLOCK_BYTES: u64 = 32;

/// Base virtual address of the hot region. The four regions are spaced far
/// apart so they never alias in any of the caches under study; the bases
/// are public so property tests can assert containment.
pub const HOT_BASE: u64 = 0x0000_1000_0000;
/// Base virtual address of the warm region.
pub const WARM_BASE: u64 = 0x0000_2000_0000;
/// Base virtual address of the cold region.
pub const COLD_BASE: u64 = 0x0000_4000_0000;
/// Base virtual address of the streaming region.
pub const STREAM_BASE: u64 = 0x0001_0000_0000;
/// Base virtual address of the **shared** region the CMP sharing patterns
/// ([`AccessPattern::ProducerConsumer`], [`AccessPattern::Migratory`],
/// [`AccessPattern::FalseSharing`]) operate on: every core of a CMP run
/// addresses the same [`WorkloadProfile::shared_blocks`]-block window
/// here, so cross-core conflicts are real sharing, never aliasing. Placed
/// well above the streaming region's maximum extent.
pub const SHARED_BASE: u64 = 0x0002_0000_0000;

/// A seeded, infinite iterator of synthetic instructions following a
/// [`WorkloadProfile`].
///
/// The generator is deterministic: the same profile and seed always produce
/// the same trace, which keeps every experiment in the repository
/// reproducible.
///
/// # Example
///
/// ```
/// use lnuca_workloads::{TraceGenerator, WorkloadProfile};
///
/// let profile = WorkloadProfile::default();
/// let a: Vec<_> = TraceGenerator::new(profile.clone(), 7).take(100).collect();
/// let b: Vec<_> = TraceGenerator::new(profile, 7).take(100).collect();
/// assert_eq!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    rng: SmallRng,
    /// Byte address of the previous memory access (for spatial strides).
    last_addr: u64,
    /// Current position of the streaming walker.
    stream_cursor: u64,
    /// Current node of the pointer chase (a block index in the cold
    /// region); advanced by a full-period permutation step.
    chase_cursor: u64,
    /// Per-static-branch bias direction (true = usually taken).
    branch_directions: Vec<bool>,
    /// Streaming reader over the ingested binary trace, present exactly for
    /// [`AccessPattern::Trace`] profiles.
    replay: Option<TraceReplay>,
    /// This stream's core index within a CMP run (`0` for solo runs).
    core_id: u64,
    /// Total cores of the CMP run this stream belongs to (`1` for solo).
    cores: u64,
    /// Producer cursor of the sharing patterns (walks the core's own
    /// window of the shared region).
    shared_write_cursor: u64,
    /// Consumer cursor of the sharing patterns (walks the upstream
    /// neighbour's window).
    shared_read_cursor: u64,
    /// The profile's probabilities as cut-offs on a 53-bit draw.
    cuts: DrawCuts,
    /// The profile's dependency-distance formula, tabulated.
    dep_table: DepDistanceTable,
    generated: u64,
}

/// The bits of one draw: the top 53 of a `next_u64`, which `gen_bool`,
/// `gen::<f64>` and `gen_range` over floats turn into their float.
const DRAW_BITS: u32 = 53;
/// The largest draw.
const DRAW_MAX: u64 = (1 << DRAW_BITS) - 1;
/// The bucket table is indexed by the top `BUCKET_BITS` bits of a draw.
const BUCKET_BITS: u32 = 12;
const BUCKETS: usize = 1 << BUCKET_BITS;
const BUCKET_SHIFT: u32 = DRAW_BITS - BUCKET_BITS;

/// `rng.gen_bool(p)` and `rng.gen::<f64>() < p` both test
/// `(bits >> 11) as f64 * 2^-53 < p`. Scaling by a power of two is exact,
/// so that is `bits >> 11 < p * 2^53`, and for an integer on the left,
/// `bits >> 11 < ceil(p * 2^53)`: one integer compare on the same draw.
fn draw_cut(p: f64) -> u64 {
    (p * (1u64 << DRAW_BITS) as f64).ceil() as u64
}

/// The next 53-bit draw: the bits `gen_bool` and `gen::<f64>` use.
#[inline]
fn draw(rng: &mut SmallRng) -> u64 {
    rng.next_u64() >> (64 - DRAW_BITS)
}

/// `rng.gen_bool(p)` for the probability `p` whose [`draw_cut`] is `cut`.
#[inline]
fn chance(rng: &mut SmallRng, cut: u64) -> bool {
    draw(rng) < cut
}

/// A profile's probabilities as [`draw_cut`]s. Sums are taken in the
/// order the generator always took them, before the cut.
#[derive(Debug, Clone, Copy)]
struct DrawCuts {
    load: u64,
    store: u64,
    branch: u64,
    fp: u64,
    spatial_stride: u64,
    hot: u64,
    hot_warm: u64,
    hot_warm_cold: u64,
    branch_bias: u64,
}

impl DrawCuts {
    fn new(p: &WorkloadProfile) -> Self {
        let store = p.load_fraction + p.store_fraction;
        let hot_warm = p.hot_prob + p.warm_prob;
        DrawCuts {
            load: draw_cut(p.load_fraction),
            store: draw_cut(store),
            branch: draw_cut(store + p.branch_fraction),
            fp: draw_cut(p.fp_fraction),
            spatial_stride: draw_cut(p.spatial_stride_prob),
            hot: draw_cut(p.hot_prob),
            hot_warm: draw_cut(hot_warm),
            hot_warm_cold: draw_cut(hot_warm + p.cold_prob),
            branch_bias: draw_cut(p.branch_bias),
        }
    }
}

/// An RNG whose every `next_u64` is the same word, so the dependency
/// formula can be evaluated on a chosen draw through the very
/// `gen_range` call the generator used to make.
struct FixedDraw(u64);

impl RngCore for FixedDraw {
    fn next_u64(&mut self) -> u64 {
        self.0
    }
}

/// The dependency distance of the 53-bit `draw` under `mean`, straight
/// from the formula: `gen_range(1e-9..1.0)` on that draw, then
/// `ceil(-ln(u) * mean)` clamped to `[1, 64]`. It builds
/// [`DepDistanceTable`] and is the tests' oracle.
fn formula_distance(mean: f64, draw: u64) -> u32 {
    let u: f64 = FixedDraw(draw << (64 - DRAW_BITS)).gen_range(1e-9..1.0);
    let d = (-u.ln() * mean).ceil();
    d.clamp(1.0, 64.0) as u32
}

/// [`formula_distance`] for one mean, as a lookup (DESIGN.md §5.1).
///
/// The formula is monotone non-increasing in the draw, so it is a step
/// function with at most 63 steps: `thresholds[i]` is the smallest draw
/// whose distance is at most `base + i`, found by searching the formula
/// itself, and a draw's distance is `base` plus the number of thresholds
/// above it. `buckets` holds the distance of every bucket of draws (top
/// [`BUCKET_BITS`] bits) that lies between two thresholds, and 0 for the
/// few buckets a threshold splits, which fall back to the thresholds.
#[derive(Clone)]
struct DepDistanceTable {
    /// The distance of the largest draw (the formula's minimum).
    base: u32,
    /// Non-increasing; empty when every draw has the same distance.
    thresholds: Box<[u64]>,
    buckets: Box<[u8; BUCKETS]>,
}

impl std::fmt::Debug for DepDistanceTable {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DepDistanceTable")
            .field("base", &self.base)
            .field("thresholds", &self.thresholds)
            .finish_non_exhaustive()
    }
}

impl DepDistanceTable {
    fn new(mean: f64) -> Self {
        let base = formula_distance(mean, DRAW_MAX);
        let top = formula_distance(mean, 0);
        let thresholds: Box<[u64]> = (base..top).map(|d| Self::threshold(mean, d)).collect();
        // The draws in `start..end` lie below exactly `steps_above`
        // thresholds. Every bucket wholly inside such a step gets its
        // distance; a bucket a threshold splits keeps 0.
        let mut buckets: Box<[u8; BUCKETS]> = vec![0; BUCKETS]
            .into_boxed_slice()
            .try_into()
            .expect("BUCKETS entries");
        for steps_above in 0..=thresholds.len() {
            let start = thresholds.get(steps_above).copied().unwrap_or(0);
            let end = steps_above
                .checked_sub(1)
                .map_or(DRAW_MAX + 1, |i| thresholds[i]);
            let first = start.div_ceil(1 << BUCKET_SHIFT) as usize;
            let past = (end >> BUCKET_SHIFT) as usize;
            if first < past {
                let distance = u8::try_from(base + steps_above as u32);
                buckets[first..past].fill(distance.expect("distances are at most 64"));
            }
        }
        DepDistanceTable {
            base,
            thresholds,
            buckets,
        }
    }

    /// The smallest draw whose distance is at most `d`, given that draw 0's
    /// is above `d` and [`DRAW_MAX`]'s is not. The search starts at the
    /// draw where `-ln(u) * mean` would reach `d` in exact arithmetic,
    /// which lies within a few draws of the answer, and widens its bracket
    /// by doubling from there.
    fn threshold(mean: f64, d: u32) -> u64 {
        let at_most_d = |draw: u64| formula_distance(mean, draw) <= d;
        let u = (-f64::from(d) / mean).exp();
        let estimate = ((u - 1e-9) / (1.0 - 1e-9) * (DRAW_MAX + 1) as f64) as u64;
        let estimate = estimate.clamp(1, DRAW_MAX);
        // Invariant once bracketed: `lo` is above `d`, `hi` is not.
        let (mut lo, mut hi);
        let mut step = 1;
        if at_most_d(estimate) {
            hi = estimate;
            lo = hi.saturating_sub(step);
            while at_most_d(lo) {
                hi = lo;
                step *= 2;
                lo = hi.saturating_sub(step);
            }
        } else {
            lo = estimate;
            hi = (lo + step).min(DRAW_MAX);
            while !at_most_d(hi) {
                lo = hi;
                step *= 2;
                hi = (lo + step).min(DRAW_MAX);
            }
        }
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if at_most_d(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        hi
    }

    /// The distance of the 53-bit `draw`: [`formula_distance`]`(mean, draw)`.
    #[inline]
    fn distance(&self, draw: u64) -> u32 {
        match self.buckets[(draw >> BUCKET_SHIFT) as usize] {
            0 => self.base + self.thresholds.partition_point(|&t| t > draw) as u32,
            distance => u32::from(distance),
        }
    }
}

impl TraceGenerator {
    /// Creates a generator for `profile` seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails validation, or — for an
    /// [`AccessPattern::Trace`] profile — if the file at its `trace_path`
    /// cannot be loaded as `lnuca-trace/v1`; construct profiles through
    /// [`WorkloadProfile::validate`]-checked paths (the built-in suites are
    /// always valid).
    #[must_use]
    pub fn new(profile: WorkloadProfile, seed: u64) -> Self {
        Self::for_core(profile, seed, 0, 1)
    }

    /// Creates the instruction stream of core `core_id` of a `cores`-wide
    /// CMP run. `for_core(profile, seed, 0, 1)` is bit-identical to
    /// [`TraceGenerator::new`]`(profile, seed)` — solo runs are the
    /// one-core special case, not a separate code path. Each core draws
    /// from its own decorrelated RNG stream; the sharing patterns
    /// additionally use `core_id`/`cores` to partition the shared region.
    ///
    /// # Panics
    ///
    /// Panics like [`TraceGenerator::new`], and if `core_id >= cores` or
    /// `cores == 0`.
    #[must_use]
    pub fn for_core(profile: WorkloadProfile, seed: u64, core_id: usize, cores: usize) -> Self {
        assert!(cores > 0, "a CMP run has at least one core");
        assert!(core_id < cores, "core {core_id} out of range for {cores} cores");
        profile
            .validate()
            .expect("trace generator requires a valid workload profile");
        // Core 0's perturbation is zero, which is what makes the solo
        // stream the one-core special case bit for bit.
        let perturb = (core_id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5EED_CAFE_F00D_u64 ^ perturb);
        let half = draw_cut(0.5);
        let branch_directions = (0..profile.static_branches)
            .map(|_| chance(&mut rng, half))
            .collect();
        let replay = match profile.pattern {
            AccessPattern::Trace => {
                let path = profile
                    .trace_path
                    .as_deref()
                    .expect("validation couples pattern `trace` to a trace_path");
                let data = TraceData::load(path)
                    .unwrap_or_else(|e| panic!("cannot replay trace {path:?}: {e}"));
                Some(TraceReplay::new(data))
            }
            _ => None,
        };
        TraceGenerator {
            last_addr: HOT_BASE,
            stream_cursor: 0,
            chase_cursor: 0,
            branch_directions,
            replay,
            core_id: core_id as u64,
            cores: cores as u64,
            shared_write_cursor: 0,
            shared_read_cursor: 0,
            cuts: DrawCuts::new(&profile),
            dep_table: DepDistanceTable::new(profile.mean_dep_distance),
            profile,
            rng,
            generated: 0,
        }
    }

    /// This stream's `(core index, total cores)` within its CMP run
    /// (`(0, 1)` for solo streams).
    #[must_use]
    pub fn core(&self) -> (usize, usize) {
        (self.core_id as usize, self.cores as usize)
    }

    /// The profile driving this generator.
    #[must_use]
    pub fn profile(&self) -> &WorkloadProfile {
        &self.profile
    }

    /// Number of instructions generated so far.
    #[must_use]
    pub fn generated(&self) -> u64 {
        self.generated
    }

    /// The pattern steering the *current* access: the profile's own class,
    /// except under [`AccessPattern::PhaseMix`] where the classes rotate
    /// every `phase_period` instructions.
    fn active_pattern(&self) -> AccessPattern {
        match self.profile.pattern {
            AccessPattern::PhaseMix => {
                const ROTATION: [AccessPattern; 4] = [
                    AccessPattern::Regions,
                    AccessPattern::Streaming,
                    AccessPattern::PointerChase,
                    AccessPattern::Gups,
                ];
                let phase = self.generated / self.profile.phase_period;
                ROTATION[(phase % 4) as usize]
            }
            pattern => pattern,
        }
    }

    /// One full-period permutation step over `[0, n)`: an LCG modulo the
    /// next power of two (multiplier ≡ 1 mod 4, odd increment ⇒ full
    /// period), cycle-walked down to `n`. Every block of the chase region is
    /// visited exactly once per lap, in an order with no spatial structure —
    /// a deterministic giant linked list.
    fn chase_step(cursor: u64, n: u64) -> u64 {
        let mask = n.next_power_of_two() - 1;
        let mut x = cursor;
        loop {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407)
                & mask;
            if x < n {
                return x;
            }
        }
    }

    fn next_memory_addr(&mut self, is_store: bool) -> Addr {
        // Spatial locality: continue the previous access one word (8 bytes)
        // further, so several consecutive accesses land in the same cache
        // block before the walk crosses into the next one — the behaviour of
        // array traversals and line-filling loops.
        if chance(&mut self.rng, self.cuts.spatial_stride) {
            self.last_addr += 8;
            return Addr(self.last_addr);
        }
        let addr = match self.active_pattern() {
            AccessPattern::Regions => self.next_regions_block() * TRACE_BLOCK_BYTES,
            AccessPattern::PointerChase => self.next_chase_block() * TRACE_BLOCK_BYTES,
            AccessPattern::Streaming => self.next_streaming_block() * TRACE_BLOCK_BYTES,
            AccessPattern::Gups => self.next_gups_block() * TRACE_BLOCK_BYTES,
            AccessPattern::ProducerConsumer => {
                self.next_producer_consumer_block(is_store) * TRACE_BLOCK_BYTES
            }
            AccessPattern::Migratory => self.next_migratory_block() * TRACE_BLOCK_BYTES,
            AccessPattern::FalseSharing => self.next_false_sharing_addr(),
            AccessPattern::PhaseMix => unreachable!("active_pattern resolves the rotation"),
            AccessPattern::Trace => {
                unreachable!("trace profiles take the replay path, never the synthetic one")
            }
        };
        self.last_addr = addr;
        Addr(self.last_addr)
    }

    /// The original three-region reuse model plus streaming walker.
    fn next_regions_block(&mut self) -> u64 {
        let p = &self.profile;
        let region = draw(&mut self.rng);
        if region < self.cuts.hot {
            HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks)
        } else if region < self.cuts.hot_warm {
            WARM_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.warm_blocks)
        } else if region < self.cuts.hot_warm_cold {
            COLD_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.cold_blocks)
        } else {
            // Streaming walker: strictly sequential over a huge footprint.
            self.stream_cursor = (self.stream_cursor + 1) % p.stream_blocks;
            STREAM_BASE / TRACE_BLOCK_BYTES + self.stream_cursor
        }
    }

    /// Pointer chase over the cold region (probability `hot_prob` of a hot
    /// touch, modelling the chasing loop's own stack/locals).
    fn next_chase_block(&mut self) -> u64 {
        let p = &self.profile;
        if chance(&mut self.rng, self.cuts.hot) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        self.chase_cursor = Self::chase_step(self.chase_cursor, p.cold_blocks);
        COLD_BASE / TRACE_BLOCK_BYTES + self.chase_cursor
    }

    /// Strided streaming over the streaming region (probability `hot_prob`
    /// of a hot touch).
    fn next_streaming_block(&mut self) -> u64 {
        let p = &self.profile;
        if chance(&mut self.rng, self.cuts.hot) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        self.stream_cursor = (self.stream_cursor + p.stream_stride_blocks) % p.stream_blocks;
        STREAM_BASE / TRACE_BLOCK_BYTES + self.stream_cursor
    }

    /// GUPS-like uniform-random access over the whole footprint: the four
    /// regions glued into one table, sampled uniformly.
    fn next_gups_block(&mut self) -> u64 {
        let p = &self.profile;
        let total = p.hot_blocks + p.warm_blocks + p.cold_blocks + p.stream_blocks;
        let slot = self.rng.gen_range(0..total);
        if slot < p.hot_blocks {
            HOT_BASE / TRACE_BLOCK_BYTES + slot
        } else if slot < p.hot_blocks + p.warm_blocks {
            WARM_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks)
        } else if slot < p.hot_blocks + p.warm_blocks + p.cold_blocks {
            COLD_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks - p.warm_blocks)
        } else {
            STREAM_BASE / TRACE_BLOCK_BYTES + (slot - p.hot_blocks - p.warm_blocks - p.cold_blocks)
        }
    }

    /// Producer-consumer ring over the shared region: the region is cut
    /// into one window per core; stores walk the core's own window, loads
    /// walk the upstream neighbour's, so every handed-off line goes
    /// through an M→S downgrade at the consumer and back to M at the
    /// producer. With one core both windows coincide (a rotating private
    /// buffer). Probability `hot_prob` of a private hot touch models the
    /// stage's own locals.
    fn next_producer_consumer_block(&mut self, is_store: bool) -> u64 {
        let p = &self.profile;
        if chance(&mut self.rng, self.cuts.hot) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        let window = (p.shared_blocks / self.cores).max(1);
        if is_store {
            let stage = self.core_id;
            self.shared_write_cursor = (self.shared_write_cursor + 1) % window;
            SHARED_BASE / TRACE_BLOCK_BYTES + stage * window + self.shared_write_cursor
        } else {
            let stage = (self.core_id + self.cores - 1) % self.cores;
            self.shared_read_cursor = (self.shared_read_cursor + 1) % window;
            SHARED_BASE / TRACE_BLOCK_BYTES + stage * window + self.shared_read_cursor
        }
    }

    /// Migratory sharing: the shared region is cut into one partition per
    /// core, and each core's active partition rotates every
    /// `phase_period` instructions — so a partition's accessor changes
    /// over time and its lines migrate core to core, one ownership
    /// transfer (and writeback) per hop. With one core the partition is
    /// stationary: a plain read-modify-write working set.
    fn next_migratory_block(&mut self) -> u64 {
        let p = &self.profile;
        if chance(&mut self.rng, self.cuts.hot) {
            return HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
        }
        let partition = (p.shared_blocks / self.cores).max(1);
        let stage = (self.generated / p.phase_period + self.core_id) % self.cores;
        SHARED_BASE / TRACE_BLOCK_BYTES + stage * partition + self.rng.gen_range(0..partition)
    }

    /// False sharing: every core hammers the word at its own index inside
    /// blocks drawn from the same small pool, so cores never touch the
    /// same word yet constantly invalidate each other's copies of the
    /// same lines. Returns a byte address (the word offset matters).
    fn next_false_sharing_addr(&mut self) -> u64 {
        let p = &self.profile;
        if chance(&mut self.rng, self.cuts.hot) {
            let block = HOT_BASE / TRACE_BLOCK_BYTES + self.rng.gen_range(0..p.hot_blocks);
            return block * TRACE_BLOCK_BYTES;
        }
        let line = self.rng.gen_range(0..p.shared_blocks);
        let word = self.core_id % (TRACE_BLOCK_BYTES / 8);
        (SHARED_BASE / TRACE_BLOCK_BYTES + line) * TRACE_BLOCK_BYTES + word * 8
    }

    /// Geometric-like distribution with the configured mean: short
    /// dependency chains are common, long ones rare. One `next_u64` per
    /// call, looked up in the profile's [`DepDistanceTable`].
    fn next_dep_distance(&mut self) -> u32 {
        self.dep_table.distance(draw(&mut self.rng))
    }

    fn next_branch(&mut self) -> InstrKind {
        let pc = self.rng.gen_range(0..self.profile.static_branches);
        let bias = self.branch_directions[pc as usize];
        let follows_bias = chance(&mut self.rng, self.cuts.branch_bias);
        InstrKind::Branch {
            pc,
            taken: if follows_bias { bias } else { !bias },
        }
    }

    /// One instruction of an [`AccessPattern::Trace`] replay: the class draw
    /// and the ALU/branch filler follow the profile's knobs like the
    /// synthetic patterns, but every memory slot consumes the next trace
    /// record, which dictates both the address and the load/store kind (so
    /// `load_fraction + store_fraction` sets the memory density while the
    /// trace sets everything else).
    fn next_replay_instr(&mut self) -> Instr {
        let class = draw(&mut self.rng);
        if class < self.cuts.store {
            let record = self
                .replay
                .as_mut()
                .expect("replay instructions only occur with a loaded trace")
                .next_record();
            Instr {
                kind: if record.write {
                    InstrKind::Store
                } else {
                    InstrKind::Load
                },
                addr: Some(Addr(record.addr)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < self.cuts.branch {
            Instr {
                kind: self.next_branch(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        } else {
            Instr {
                kind: self.next_alu(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        }
    }

    fn next_alu(&mut self) -> InstrKind {
        if chance(&mut self.rng, self.cuts.fp) {
            InstrKind::FpAlu
        } else {
            InstrKind::IntAlu
        }
    }
}

impl Iterator for TraceGenerator {
    type Item = Instr;

    fn next(&mut self) -> Option<Instr> {
        if self.replay.is_some() {
            let instr = self.next_replay_instr();
            self.generated += 1;
            return Some(instr);
        }
        let class = draw(&mut self.rng);
        let instr = if class < self.cuts.load {
            Instr {
                kind: InstrKind::Load,
                addr: Some(self.next_memory_addr(false)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < self.cuts.store {
            Instr {
                kind: InstrKind::Store,
                addr: Some(self.next_memory_addr(true)),
                dep_distance: self.next_dep_distance(),
            }
        } else if class < self.cuts.branch {
            Instr {
                kind: self.next_branch(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        } else {
            Instr {
                kind: self.next_alu(),
                addr: None,
                dep_distance: self.next_dep_distance(),
            }
        };
        self.generated += 1;
        Some(instr)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Suite;
    use proptest::prelude::*;
    use std::collections::HashSet;

    fn sample(profile: WorkloadProfile, n: usize, seed: u64) -> Vec<Instr> {
        TraceGenerator::new(profile, seed).take(n).collect()
    }

    #[test]
    fn traces_are_reproducible_and_seed_sensitive() {
        let p = WorkloadProfile::default();
        assert_eq!(sample(p.clone(), 500, 1), sample(p.clone(), 500, 1));
        assert_ne!(sample(p.clone(), 500, 1), sample(p, 500, 2));
    }

    #[test]
    fn instruction_mix_approximates_the_profile() {
        let p = WorkloadProfile::default();
        let n = 200_000;
        let trace = sample(p.clone(), n, 3);
        let loads = trace.iter().filter(|i| i.kind.is_load()).count() as f64 / n as f64;
        let stores = trace.iter().filter(|i| i.kind.is_store()).count() as f64 / n as f64;
        let branches = trace.iter().filter(|i| i.kind.is_branch()).count() as f64 / n as f64;
        assert!((loads - p.load_fraction).abs() < 0.01, "load fraction {loads}");
        assert!((stores - p.store_fraction).abs() < 0.01, "store fraction {stores}");
        assert!((branches - p.branch_fraction).abs() < 0.01, "branch fraction {branches}");
    }

    #[test]
    fn memory_instructions_carry_addresses_and_others_do_not() {
        let trace = sample(WorkloadProfile::default(), 5_000, 11);
        for i in &trace {
            assert_eq!(i.addr.is_some(), i.kind.is_memory());
        }
    }

    #[test]
    fn footprint_respects_region_sizes() {
        let p = WorkloadProfile {
            hot_blocks: 16,
            warm_blocks: 64,
            cold_blocks: 128,
            stream_blocks: 256,
            spatial_stride_prob: 0.0,
            ..WorkloadProfile::default()
        };
        let trace = sample(p, 50_000, 5);
        let blocks: HashSet<u64> = trace
            .iter()
            .filter_map(|i| i.addr)
            .map(|a| a.block_index(TRACE_BLOCK_BYTES))
            .collect();
        // Every touched block belongs to one of the four regions.
        for b in blocks {
            let addr = b * TRACE_BLOCK_BYTES;
            let in_hot = (HOT_BASE..HOT_BASE + 16 * TRACE_BLOCK_BYTES).contains(&addr);
            let in_warm = (WARM_BASE..WARM_BASE + 64 * TRACE_BLOCK_BYTES).contains(&addr);
            let in_cold = (COLD_BASE..COLD_BASE + 128 * TRACE_BLOCK_BYTES).contains(&addr);
            let in_stream = (STREAM_BASE..STREAM_BASE + 256 * TRACE_BLOCK_BYTES).contains(&addr);
            assert!(in_hot || in_warm || in_cold || in_stream, "stray address {addr:#x}");
        }
    }

    #[test]
    fn branch_outcomes_follow_the_bias() {
        let p = WorkloadProfile {
            branch_bias: 0.95,
            branch_fraction: 0.5,
            load_fraction: 0.2,
            store_fraction: 0.1,
            static_branches: 8,
            ..WorkloadProfile::default()
        };
        let trace = sample(p, 100_000, 9);
        // For each static branch, the majority outcome should appear ~95% of
        // the time.
        let mut per_pc: std::collections::HashMap<u64, (u64, u64)> = Default::default();
        for i in &trace {
            if let InstrKind::Branch { pc, taken } = i.kind {
                let e = per_pc.entry(pc).or_default();
                if taken {
                    e.0 += 1;
                } else {
                    e.1 += 1;
                }
            }
        }
        for (&pc, &(taken, not_taken)) in &per_pc {
            let total = taken + not_taken;
            let majority = taken.max(not_taken) as f64 / total as f64;
            assert!(majority > 0.90, "branch {pc} majority share {majority}");
        }
    }

    #[test]
    fn dependency_distances_are_positive_and_mean_tracks_profile() {
        let p = WorkloadProfile {
            mean_dep_distance: 12.0,
            ..WorkloadProfile::default()
        };
        let trace = sample(p, 50_000, 21);
        let mean: f64 =
            trace.iter().map(|i| f64::from(i.dep_distance)).sum::<f64>() / trace.len() as f64;
        assert!(trace.iter().all(|i| i.dep_distance >= 1));
        assert!((mean - 12.0).abs() < 2.0, "observed mean dependency distance {mean}");
    }

    #[test]
    fn fp_profiles_emit_fp_operations() {
        let p = WorkloadProfile {
            suite: Suite::FloatingPoint,
            fp_fraction: 0.8,
            ..WorkloadProfile::default()
        };
        let trace = sample(p, 20_000, 2);
        let fp = trace.iter().filter(|i| i.kind.is_fp()).count();
        let alu = trace
            .iter()
            .filter(|i| !i.kind.is_memory() && !i.kind.is_branch())
            .count();
        assert!(fp as f64 / alu as f64 > 0.7);
    }

    #[test]
    fn core_zero_of_one_is_the_solo_stream_bit_for_bit() {
        let p = WorkloadProfile::default();
        let solo: Vec<_> = TraceGenerator::new(p.clone(), 42).take(2_000).collect();
        let cmp0: Vec<_> = TraceGenerator::for_core(p, 42, 0, 1).take(2_000).collect();
        assert_eq!(solo, cmp0);
    }

    #[test]
    fn per_core_streams_are_decorrelated() {
        let p = WorkloadProfile::default();
        let a: Vec<_> = TraceGenerator::for_core(p.clone(), 7, 0, 4)
            .take(1_000)
            .collect();
        let b: Vec<_> = TraceGenerator::for_core(p, 7, 1, 4).take(1_000).collect();
        assert_ne!(a, b);
    }

    fn sharing_profile(pattern: AccessPattern) -> WorkloadProfile {
        WorkloadProfile {
            pattern,
            shared_blocks: 64,
            hot_prob: 0.2,
            warm_prob: 0.0,
            cold_prob: 0.0,
            spatial_stride_prob: 0.0,
            ..WorkloadProfile::default()
        }
    }

    #[test]
    fn producer_consumer_stores_stay_in_the_own_window_and_loads_upstream() {
        let p = sharing_profile(AccessPattern::ProducerConsumer);
        let window = 64 / 4;
        for core in 0..4usize {
            let trace: Vec<_> = TraceGenerator::for_core(p.clone(), 3, core, 4)
                .take(20_000)
                .collect();
            let own = SHARED_BASE + core as u64 * window * TRACE_BLOCK_BYTES;
            let upstream = SHARED_BASE + ((core as u64 + 3) % 4) * window * TRACE_BLOCK_BYTES;
            for i in &trace {
                let Some(addr) = i.addr else { continue };
                if addr.0 < SHARED_BASE {
                    continue; // hot-region touch
                }
                let expect = if i.kind.is_store() { own } else { upstream };
                assert!(
                    (expect..expect + window * TRACE_BLOCK_BYTES).contains(&addr.0),
                    "core {core} {:?} at {:#x}",
                    i.kind,
                    addr.0
                );
            }
        }
    }

    #[test]
    fn false_sharing_interleaves_words_within_a_small_line_pool() {
        let p = sharing_profile(AccessPattern::FalseSharing);
        let mut words_per_core = Vec::new();
        for core in 0..4usize {
            let trace: Vec<_> = TraceGenerator::for_core(p.clone(), 5, core, 4)
                .take(5_000)
                .collect();
            let words: HashSet<u64> = trace
                .iter()
                .filter_map(|i| i.addr)
                .filter(|a| a.0 >= SHARED_BASE)
                .map(|a| a.0 % TRACE_BLOCK_BYTES)
                .collect();
            assert_eq!(words.len(), 1, "each core sticks to its own word");
            assert!(trace
                .iter()
                .filter_map(|i| i.addr)
                .filter(|a| a.0 >= SHARED_BASE)
                .all(|a| a.0 < SHARED_BASE + 64 * TRACE_BLOCK_BYTES));
            words_per_core.push(words.into_iter().next().unwrap());
        }
        let distinct: HashSet<u64> = words_per_core.iter().copied().collect();
        assert_eq!(distinct.len(), 4, "four cores, four distinct words");
    }

    #[test]
    fn migratory_partitions_rotate_with_the_phase() {
        let mut p = sharing_profile(AccessPattern::Migratory);
        p.phase_period = 500;
        p.hot_prob = 0.0;
        let partition = 64 / 2 * TRACE_BLOCK_BYTES;
        let trace: Vec<_> = TraceGenerator::for_core(p, 9, 0, 2).take(3_000).collect();
        let mut seen_stage = [false; 2];
        for (n, i) in trace.iter().enumerate() {
            let Some(addr) = i.addr else { continue };
            let stage = ((addr.0 - SHARED_BASE) / partition) as usize;
            let expected = (n as u64 / 500) % 2;
            assert_eq!(stage as u64, expected, "instruction {n}");
            seen_stage[stage] = true;
        }
        assert_eq!(seen_stage, [true, true], "the working set migrated");
    }

    /// Every distinct `mean_dep_distance` the suites ship, the validation
    /// floor 1.0, a mean so large that the clamp at 64 binds for all but
    /// the very largest draws, and the non-finite means validation lets
    /// through.
    fn table_means() -> Vec<f64> {
        let mut means: Vec<f64> = crate::suites::extended()
            .iter()
            .chain([&WorkloadProfile::default()])
            .map(|p| p.mean_dep_distance)
            .collect();
        means.extend([1.0, 1e6, f64::INFINITY, f64::NAN]);
        means.sort_by(f64::total_cmp);
        means.dedup_by(|a, b| a.total_cmp(b).is_eq());
        means
    }

    #[test]
    fn the_dep_table_is_the_formula_at_every_threshold_and_bucket_edge() {
        // Draws checked on either side of each threshold.
        const WINDOW: u64 = 64;
        for mean in table_means() {
            let table = DepDistanceTable::new(mean);
            let check = |draw: u64| {
                assert_eq!(
                    table.distance(draw),
                    formula_distance(mean, draw),
                    "mean {mean}, draw {draw:#x}"
                );
            };
            assert!(table.thresholds.windows(2).all(|w| w[0] >= w[1]), "mean {mean}");
            assert_eq!(
                table.base + table.thresholds.len() as u32,
                formula_distance(mean, 0),
                "mean {mean}: one threshold per step"
            );
            for &t in table.thresholds.iter() {
                assert!(formula_distance(mean, t) < formula_distance(mean, t - 1), "mean {mean}");
                (t.saturating_sub(WINDOW)..=(t + WINDOW).min(DRAW_MAX)).for_each(check);
            }
            for bucket in 0..BUCKETS as u64 {
                check(bucket << BUCKET_SHIFT);
                check(((bucket + 1) << BUCKET_SHIFT) - 1);
            }
            let mut rng = SmallRng::seed_from_u64(mean.to_bits());
            for _ in 0..10_000 {
                check(rng.next_u64() >> (64 - DRAW_BITS));
            }
        }
    }

    #[test]
    fn a_draw_cut_is_the_float_compare_on_either_side_of_it() {
        let mut probabilities = vec![
            0.0,
            1.0,
            0.5,
            0.1 + 0.2,
            f64::MIN_POSITIVE,
            1.0 - f64::EPSILON / 2.0,
            1.0 + 1e-9,
        ];
        for p in crate::suites::extended() {
            let store = p.load_fraction + p.store_fraction;
            let hot_warm = p.hot_prob + p.warm_prob;
            probabilities.extend([
                p.load_fraction,
                store,
                store + p.branch_fraction,
                p.fp_fraction,
                p.spatial_stride_prob,
                p.hot_prob,
                hot_warm,
                hot_warm + p.cold_prob,
                p.branch_bias,
            ]);
        }
        for p in probabilities {
            let cut = draw_cut(p);
            let near = [0, 1, cut.saturating_sub(1), cut, cut + 1, DRAW_MAX];
            for draw in near.into_iter().filter(|&d| d <= DRAW_MAX) {
                let unit: f64 = FixedDraw(draw << (64 - DRAW_BITS)).gen();
                assert_eq!(draw < cut, unit < p, "p {p}, draw {draw:#x}");
            }
        }
    }

    #[test]
    fn a_table_spans_distance_1_to_the_smallest_draws_distance() {
        // The smallest float draw is 1e-9, so the largest distance is
        // `ceil(ln(1e9) * mean)`, clamped: 42 at mean 2, 64 from 3.5 up.
        for mean in table_means()
            .into_iter()
            .filter(|m| (1.0..=12.0).contains(m))
        {
            let table = DepDistanceTable::new(mean);
            let top = (1e9f64.ln() * mean).ceil().min(64.0) as usize;
            assert_eq!((table.base, table.thresholds.len()), (1, top - 1), "mean {mean}");
        }
        assert_eq!(DepDistanceTable::new(f64::NAN).distance(0), 0, "NaN casts to 0");
        assert_eq!(DepDistanceTable::new(f64::INFINITY).distance(DRAW_MAX), 64);
    }

    proptest! {
        #[test]
        fn generator_never_panics_and_respects_mix(seed in any::<u64>(), take in 100usize..2000) {
            let trace = sample(WorkloadProfile::default(), take, seed);
            prop_assert_eq!(trace.len(), take);
            for i in &trace {
                prop_assert_eq!(i.addr.is_some(), i.kind.is_memory());
                if i.kind.is_memory() {
                    // Addresses always land inside one of the four regions
                    // (strides only advance by a word at a time).
                    prop_assert!(i.addr.unwrap().0 >= HOT_BASE);
                }
            }
        }
    }
}
