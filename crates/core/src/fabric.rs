//! The L-NUCA fabric: tiles plus the Search, Transport and Replacement
//! networks, advanced one processor cycle at a time.

use crate::config::LNucaConfig;
use crate::geometry::{Hop, LNucaGeometry};
use crate::msg::{Arrival, GlobalMiss, ReplMsg, Spill, TransportMsg};
use crate::stats::LNucaStats;
use lnuca_mem::{CacheArray, CacheGeometry};
use lnuca_noc::{NodeId, OnOffBuffer, RoutingPolicy};
use lnuca_types::{Addr, ConfigError, Cycle, ReqId};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::VecDeque;

/// A search request travelling outward, one level per cycle.
#[derive(Debug, Clone)]
struct SearchInFlight {
    addr: Addr,
    req: ReqId,
    is_write: bool,
    /// Level whose tiles will be looked up next.
    level: u8,
    /// Tiles of `level` that received the request.
    active: Vec<usize>,
    /// Cycle at which `level` is looked up.
    process_at: Cycle,
    /// A tile (or U buffer) already produced the block.
    resolved: bool,
}

/// The set bits of `mask`, in ascending order.
fn bits(mut mask: u128) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        if mask == 0 {
            return None;
        }
        let bit = mask.trailing_zeros() as usize;
        mask &= mask - 1;
        Some(bit)
    })
}

/// A buffered network message plus the cycle from which it may be forwarded
/// (store-and-forward: one hop per cycle).
#[derive(Debug, Clone, Copy)]
struct Buffered<T> {
    msg: T,
    forwardable_at: Cycle,
}

/// The Light NUCA fabric (everything except the root tile).
///
/// The fabric owns the tile arrays, the per-tile Transport (D) and
/// Replacement (U) buffers and the in-flight search state. The root tile —
/// a conventional L1 — lives in the hierarchy model (`lnuca-sim`), which
/// drives the fabric through this interface each cycle:
///
/// 1. [`LNuca::inject_search`] when the root tile misses,
/// 2. [`LNuca::evict_from_root`] when a fill displaces a root-tile victim,
/// 3. [`LNuca::tick`] exactly once per cycle,
/// 4. [`LNuca::drain_arrivals_into`], [`LNuca::drain_global_misses_into`]
///    and [`LNuca::drain_spills_into`] to collect the fabric's outputs into
///    caller-owned scratch buffers (the allocating [`LNuca::pop_arrivals`]
///    et al. remain as conveniences for tests and examples).
///
/// # Busy-tile sets
///
/// A tick costs work only for tiles that hold a message. Two `u128` masks
/// track them: `transport_busy` has one bit per position in
/// `transport_order` (so ascending set bits are the Transport phase's visit
/// order), and `replacement_busy` one bit per tile index. A bit is set at
/// every push into the tile's buffers or pending slots and cleared when the
/// phase visiting the tile leaves it empty; a set bit on an idle tile is
/// harmless, a clear bit on a busy tile never happens. Both phases and
/// [`LNuca::next_event`] walk only the set bits, in ascending order, so the
/// routing RNG is drawn and the stall counters advance exactly as a walk
/// over every tile would. The masks bound a fabric to 128 tiles, which
/// [`LNucaGeometry::MAX_LEVELS`] (119 tiles) respects.
///
/// # Zero-allocation invariant
///
/// Steady-state cycles — `tick` plus the three `drain_*_into` calls —
/// perform **no heap allocation**: every per-cycle working set (hit lists,
/// search frontiers, routing candidates) lives in scratch buffers owned by
/// the fabric whose capacity is reached within the first few thousand
/// cycles and then reused forever. New fabric code must preserve this:
/// never `collect()` or build a fresh `Vec`/`VecDeque` inside `tick` or its
/// phases; add a reusable scratch field instead (see DESIGN.md §9).
///
/// # Example
///
/// ```
/// use lnuca_core::{LNuca, LNucaConfig};
/// use lnuca_types::{Addr, Cycle, ReqId};
///
/// let mut fabric = LNuca::new(LNucaConfig::paper(2)?)?;
/// // An empty fabric misses everywhere: the search reaches Le2 one cycle
/// // after injection and the global miss is known one cycle later.
/// assert!(fabric.inject_search(Addr(0x80), ReqId(1), false, Cycle(0)));
/// for c in 0..4 {
///     fabric.tick(Cycle(c));
/// }
/// let misses = fabric.pop_global_misses(Cycle(3));
/// assert_eq!(misses.len(), 1);
/// assert_eq!(misses[0].determined_at, Cycle(2));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct LNuca {
    config: LNucaConfig,
    geometry: LNucaGeometry,
    routing: RoutingPolicy,
    rng: SmallRng,

    tiles: Vec<CacheArray>,
    pending_victims: Vec<Option<ReplMsg>>,
    pending_transport: Vec<Vec<Buffered<TransportMsg>>>,
    transport_in: Vec<OnOffBuffer<Buffered<TransportMsg>>>,
    replacement_in: Vec<OnOffBuffer<Buffered<ReplMsg>>>,

    searches: Vec<SearchInFlight>,
    root_evict_queue: VecDeque<ReplMsg>,

    arrivals: VecDeque<Arrival>,
    global_misses: VecDeque<GlobalMiss>,
    spills: VecDeque<Spill>,

    // Cached geometry queries (the hot loop must not recompute them).
    search_roots: Vec<usize>,
    search_children: Vec<Vec<usize>>,
    transport_next: Vec<Vec<Hop>>,
    replacement_next: Vec<Vec<usize>>,
    root_targets: Vec<usize>,
    transport_order: Vec<usize>,
    /// Inverse of `transport_order`: a tile's bit in `transport_busy`.
    transport_pos: Vec<u8>,
    min_transport_latency: Vec<u64>,
    tile_level: Vec<u8>,

    /// Tiles the search phase looked up this cycle (bit = tile index).
    search_touched: u128,
    /// Tiles whose `transport_in` or `pending_transport` may hold a message
    /// (bit = position in `transport_order`).
    transport_busy: u128,
    /// Tiles whose `replacement_in` or `pending_victims` may hold a message
    /// (bit = tile index).
    replacement_busy: u128,
    last_injection: Option<Cycle>,
    stats: LNucaStats,

    // Reusable per-cycle scratch space (the zero-allocation invariant).
    // Each buffer is cleared at the start of the phase that uses it and
    // never escapes `tick`; retired search frontiers return to the pool so
    // `inject_search` does not allocate either.
    scratch_hits: Vec<(usize, TransportMsg)>,
    scratch_frontier: Vec<usize>,
    scratch_viable: Vec<NodeId>,
    frontier_pool: Vec<Vec<usize>>,
}

impl LNuca {
    /// Builds an empty fabric from its configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(config: LNucaConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        let geometry = LNucaGeometry::new(config.levels)?;
        let tile_geometry =
            CacheGeometry::new(config.tile_size_bytes, config.tile_ways, config.block_size)?;
        let n = geometry.tile_count();

        let tiles = (0..n)
            .map(|_| CacheArray::new(tile_geometry, config.tile_replacement))
            .collect();
        let transport_in = (0..n)
            .map(|_| OnOffBuffer::new(config.buffer_entries))
            .collect();
        let replacement_in = (0..n)
            .map(|_| OnOffBuffer::new(config.buffer_entries))
            .collect();

        let search_roots = geometry.search_roots();
        let search_children: Vec<Vec<usize>> =
            (0..n).map(|i| geometry.search_children(i)).collect();
        let transport_next: Vec<Vec<Hop>> = (0..n).map(|i| geometry.transport_next(i)).collect();
        let replacement_next: Vec<Vec<usize>> =
            (0..n).map(|i| geometry.replacement_next(i)).collect();
        let root_targets = geometry.root_evict_targets();
        let min_transport_latency: Vec<u64> = (0..n)
            .map(|i| geometry.coord(i).manhattan_to_root())
            .collect();
        let tile_level: Vec<u8> = (0..n).map(|i| geometry.coord(i).level()).collect();
        let mut transport_order: Vec<usize> = (0..n).collect();
        transport_order.sort_by_key(|&i| min_transport_latency[i]);
        assert!(n <= 128, "the busy-tile masks hold at most 128 tiles");
        let mut transport_pos = vec![0u8; n];
        for (pos, &tile) in transport_order.iter().enumerate() {
            transport_pos[tile] = pos as u8;
        }

        let stats = LNucaStats::new(config.levels);
        let rng = SmallRng::seed_from_u64(config.seed);
        let routing = config.routing;

        Ok(LNuca {
            config,
            geometry,
            routing,
            rng,
            tiles,
            pending_victims: vec![None; n],
            pending_transport: vec![Vec::new(); n],
            transport_in,
            replacement_in,
            searches: Vec::new(),
            root_evict_queue: VecDeque::new(),
            arrivals: VecDeque::new(),
            global_misses: VecDeque::new(),
            spills: VecDeque::new(),
            search_roots,
            search_children,
            transport_next,
            replacement_next,
            root_targets,
            transport_order,
            transport_pos,
            min_transport_latency,
            tile_level,
            search_touched: 0,
            transport_busy: 0,
            replacement_busy: 0,
            last_injection: None,
            stats,
            scratch_hits: Vec::new(),
            scratch_frontier: Vec::new(),
            scratch_viable: Vec::new(),
            frontier_pool: Vec::new(),
        })
    }

    /// The configuration this fabric was built with.
    #[must_use]
    pub fn config(&self) -> &LNucaConfig {
        &self.config
    }

    /// The geometry of this fabric.
    #[must_use]
    pub fn geometry(&self) -> &LNucaGeometry {
        &self.geometry
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &LNucaStats {
        &self.stats
    }

    /// Total tile capacity in bytes (the root tile is not included).
    #[must_use]
    pub fn capacity_bytes(&self) -> u64 {
        self.geometry.capacity_bytes(self.config.tile_size_bytes)
    }

    /// Number of blocks currently resident across all tiles (not counting
    /// blocks in flight in the Replacement network).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.tiles.iter().map(CacheArray::resident).sum()
    }

    /// Returns `true` if the block containing `addr` is anywhere in the
    /// fabric: in a tile, in an in-flight Replacement buffer, in a pending
    /// victim slot or in the root eviction queue.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        let base = addr.block_base(self.config.block_size);
        self.tiles.iter().any(|t| t.contains(base))
            || self
                .replacement_in
                .iter()
                .any(|b| b.iter().any(|m| m.msg.addr == base))
            || self
                .pending_victims
                .iter()
                .flatten()
                .any(|m| m.addr == base)
            || self.root_evict_queue.iter().any(|m| m.addr == base)
            || self
                .pending_transport
                .iter()
                .flatten()
                .any(|m| m.msg.addr == base)
            || self
                .transport_in
                .iter()
                .any(|b| b.iter().any(|m| m.msg.addr == base))
    }

    /// Every block currently owned by the fabric, with its dirty state:
    /// blocks resident in tiles, in flight in the Transport/Replacement
    /// buffers, parked in pending slots, queued for root eviction, and
    /// sitting in the undrained arrival/spill output queues.
    ///
    /// This is the full-custody enumeration the differential oracle in
    /// `lnuca-verify` compares against its exclusion-set reference model:
    /// a block handed to the fabric via [`LNuca::evict_from_root`] appears
    /// here until it leaves through an arrival or a spill. Allocates a
    /// fresh `Vec`; verification and tests only, never the hot loop.
    #[must_use]
    pub fn resident_lines(&self) -> Vec<lnuca_mem::Line> {
        let mut lines: Vec<lnuca_mem::Line> = Vec::new();
        for tile in &self.tiles {
            lines.extend(tile.iter());
        }
        let repl = |m: &ReplMsg| lnuca_mem::Line {
            addr: m.addr,
            dirty: m.dirty,
        };
        lines.extend(self.pending_victims.iter().flatten().map(repl));
        lines.extend(self.root_evict_queue.iter().map(repl));
        for buf in &self.replacement_in {
            lines.extend(buf.iter().map(|b| repl(&b.msg)));
        }
        for buf in &self.transport_in {
            lines.extend(buf.iter().map(|b| lnuca_mem::Line {
                addr: b.msg.addr,
                dirty: b.msg.dirty,
            }));
        }
        for pending in &self.pending_transport {
            lines.extend(pending.iter().map(|b| lnuca_mem::Line {
                addr: b.msg.addr,
                dirty: b.msg.dirty,
            }));
        }
        lines.extend(self.arrivals.iter().map(|a| lnuca_mem::Line {
            addr: a.addr,
            dirty: a.dirty,
        }));
        lines.extend(self.spills.iter().map(|s| lnuca_mem::Line {
            addr: s.addr,
            dirty: s.dirty,
        }));
        lines
    }

    /// Removes the block containing `addr` from every tile and buffer
    /// (needed to enforce inclusion/coherence invalidations from the next
    /// cache level). Returns `true` if anything was removed.
    pub fn invalidate(&mut self, addr: Addr) -> bool {
        let base = addr.block_base(self.config.block_size);
        let mut removed = false;
        for tile in &mut self.tiles {
            removed |= tile.invalidate(base).is_some();
        }
        for pv in &mut self.pending_victims {
            if pv.map(|m| m.addr) == Some(base) {
                *pv = None;
                removed = true;
            }
        }
        let before = self.root_evict_queue.len();
        self.root_evict_queue.retain(|m| m.addr != base);
        removed |= self.root_evict_queue.len() != before;
        for buf in &mut self.replacement_in {
            let before = buf.len();
            buf.retain(|m| m.msg.addr != base);
            removed |= buf.len() != before;
        }
        for buf in &mut self.transport_in {
            let before = buf.len();
            buf.retain(|m| m.msg.addr != base);
            removed |= buf.len() != before;
        }
        for pending in &mut self.pending_transport {
            let before = pending.len();
            pending.retain(|m| m.msg.addr != base);
            removed |= pending.len() != before;
        }
        removed
    }

    /// Injects a search for the block containing `addr` on behalf of request
    /// `req`. Returns `false` (and does nothing) if a search was already
    /// injected this cycle — the Search network has a single injection point,
    /// so the caller must retry next cycle.
    pub fn inject_search(&mut self, addr: Addr, req: ReqId, is_write: bool, now: Cycle) -> bool {
        if self.last_injection == Some(now) {
            return false;
        }
        self.last_injection = Some(now);
        self.stats.searches += 1;
        let base = addr.block_base(self.config.block_size);
        let mut active = self.frontier_pool.pop().unwrap_or_default();
        active.clear();
        active.extend_from_slice(&self.search_roots);
        self.searches.push(SearchInFlight {
            addr: base,
            req,
            is_write,
            level: 2,
            active,
            process_at: now.next(),
            resolved: false,
        });
        true
    }

    /// Hands the fabric a victim block displaced from the root tile. The
    /// block enters the Replacement network at one of the latency-3 level-2
    /// tiles (the paper's "evict a victim block to an Le2 tile").
    pub fn evict_from_root(&mut self, addr: Addr, dirty: bool) {
        let base = addr.block_base(self.config.block_size);
        self.stats.root_evictions += 1;
        self.root_evict_queue
            .push_back(ReplMsg { addr: base, dirty });
    }

    /// Appends the hit blocks delivered to the root tile up to and including
    /// `now` to `out`, oldest first.
    ///
    /// `out` is not cleared: the caller owns the scratch buffer, clears it
    /// once per cycle and reuses its capacity forever, so steady-state
    /// cycles allocate nothing.
    pub fn drain_arrivals_into(&mut self, now: Cycle, out: &mut Vec<Arrival>) {
        while let Some(front) = self.arrivals.front() {
            if front.available_at <= now {
                out.push(self.arrivals.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }

    /// Appends the global misses determined up to and including `now` to
    /// `out`, oldest first. Same buffer contract as
    /// [`LNuca::drain_arrivals_into`].
    pub fn drain_global_misses_into(&mut self, now: Cycle, out: &mut Vec<GlobalMiss>) {
        while let Some(front) = self.global_misses.front() {
            if front.determined_at <= now {
                out.push(self.global_misses.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }

    /// Appends the blocks evicted out of the fabric toward the next cache
    /// level up to and including `now` to `out`, oldest first. Same buffer
    /// contract as [`LNuca::drain_arrivals_into`].
    pub fn drain_spills_into(&mut self, now: Cycle, out: &mut Vec<Spill>) {
        while let Some(front) = self.spills.front() {
            if front.at <= now {
                out.push(self.spills.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
    }

    /// Hit blocks delivered to the root tile up to and including `now`.
    ///
    /// Allocates a fresh `Vec` per call; tests and examples only. The hot
    /// loop uses [`LNuca::drain_arrivals_into`].
    pub fn pop_arrivals(&mut self, now: Cycle) -> Vec<Arrival> {
        let mut out = Vec::new();
        self.drain_arrivals_into(now, &mut out);
        out
    }

    /// Global misses determined up to and including `now` (allocating
    /// convenience over [`LNuca::drain_global_misses_into`]).
    pub fn pop_global_misses(&mut self, now: Cycle) -> Vec<GlobalMiss> {
        let mut out = Vec::new();
        self.drain_global_misses_into(now, &mut out);
        out
    }

    /// Blocks evicted out of the fabric toward the next cache level up to and
    /// including `now` (allocating convenience over
    /// [`LNuca::drain_spills_into`]).
    pub fn pop_spills(&mut self, now: Cycle) -> Vec<Spill> {
        let mut out = Vec::new();
        self.drain_spills_into(now, &mut out);
        out
    }

    /// Earliest cycle strictly after `now` at which ticking the fabric could
    /// change its state, or `None` when the fabric is completely empty
    /// (event-horizon contract, DESIGN.md §10).
    ///
    /// The fabric moves something every cycle while *anything* is in flight
    /// — searches advance a level per cycle, buffered messages hop, parked
    /// messages retry (and count stall cycles) — so any in-flight state
    /// reports "busy" (`now + 1`). With the tiles and networks drained, the
    /// only remaining events are the timestamps of undelivered outputs,
    /// which the hierarchy must drain at exactly their maturity cycles.
    ///
    /// Only the tiles in the busy sets are inspected.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let floor = now.next();
        if !self.searches.is_empty() || !self.root_evict_queue.is_empty() {
            return Some(floor);
        }
        let mut horizon: Option<Cycle> = None;
        let merge = |cur: &mut Option<Cycle>, at: Cycle| Cycle::merge_horizon(cur, at, floor);
        for pos in bits(self.transport_busy) {
            let tile = self.transport_order[pos];
            if !self.pending_transport[tile].is_empty() {
                return Some(floor);
            }
            if let Some(at) = self.transport_in[tile].next_event_by(|m| m.forwardable_at) {
                merge(&mut horizon, at);
            }
        }
        for tile in bits(self.replacement_busy) {
            if self.pending_victims[tile].is_some() {
                return Some(floor);
            }
            if let Some(at) = self.replacement_in[tile].next_event_by(|m| m.forwardable_at) {
                merge(&mut horizon, at);
            }
        }
        self.merge_output_fronts(&mut horizon, floor);
        horizon
    }

    /// Folds the fronts of the three output queues into `horizon`.
    fn merge_output_fronts(&self, horizon: &mut Option<Cycle>, floor: Cycle) {
        let merge = |cur: &mut Option<Cycle>, at: Cycle| Cycle::merge_horizon(cur, at, floor);
        // Output queues are pushed in timestamp order, so the fronts are the
        // minima (the same ordering `drain_*_into` relies on).
        if let Some(arrival) = self.arrivals.front() {
            merge(horizon, arrival.available_at);
        }
        if let Some(miss) = self.global_misses.front() {
            merge(horizon, miss.determined_at);
        }
        if let Some(spill) = self.spills.front() {
            merge(horizon, spill.at);
        }
    }

    /// Advances the fabric by one cycle. Must be called exactly once per
    /// simulated cycle with a non-decreasing `now`.
    pub fn tick(&mut self, now: Cycle) {
        self.search_touched = 0;
        self.search_phase(now);
        self.transport_phase(now);
        self.replacement_phase(now);
        self.root_evict_phase(now);
    }

    // ----- tick phases -------------------------------------------------

    fn search_phase(&mut self, now: Cycle) {
        debug_assert!(self.scratch_hits.is_empty());
        let last_level = self.config.levels;

        let mut i = 0;
        while i < self.searches.len() {
            if self.searches[i].process_at != now {
                i += 1;
                continue;
            }
            let addr = self.searches[i].addr;
            let req = self.searches[i].req;
            let is_write = self.searches[i].is_write;
            let level = self.searches[i].level;
            // The frontier vector is taken out of the search (and later
            // either handed back or recycled into the pool) so the tile loop
            // can borrow the rest of `self` freely without cloning it.
            let mut active = std::mem::take(&mut self.searches[i].active);
            self.stats.search_link_traversals += active.len() as u64;

            self.scratch_frontier.clear();
            let mut hit_this_level = false;
            for &tile in &active {
                self.search_touched |= 1 << tile;
                self.stats.tile_lookups += 1;

                // The U buffers are searched in parallel with the tag array to
                // catch blocks in transit (avoiding false misses).
                let mut found_dirty: Option<bool> = None;
                if let Some(d) = self.take_from_replacement_buffers(tile, addr) {
                    self.stats.in_flight_hits += 1;
                    found_dirty = Some(d);
                } else if let Some(line) = self.tiles[tile].lookup(addr) {
                    // Content exclusion: the block moves to the root tile, so
                    // it leaves this tile.
                    self.tiles[tile].invalidate(addr);
                    found_dirty = Some(line.dirty);
                }

                if let Some(dirty) = found_dirty {
                    hit_this_level = true;
                    let bucket = (level - 2) as usize;
                    if is_write {
                        self.stats.write_hits_per_level[bucket] += 1;
                    } else {
                        self.stats.read_hits_per_level[bucket] += 1;
                    }
                    self.scratch_hits.push((
                        tile,
                        TransportMsg {
                            addr,
                            req,
                            dirty,
                            hit_level: level,
                            hit_at: now,
                            min_latency: self.min_transport_latency[tile],
                        },
                    ));
                } else {
                    self.scratch_frontier
                        .extend_from_slice(&self.search_children[tile]);
                }
            }

            let search = &mut self.searches[i];
            if hit_this_level {
                search.resolved = true;
            }
            if level >= last_level || self.scratch_frontier.is_empty() {
                // Last level processed: the global-miss line gathers the miss
                // status one cycle later.
                if !search.resolved {
                    self.stats.global_misses += 1;
                    self.global_misses.push_back(GlobalMiss {
                        addr,
                        req,
                        is_write,
                        determined_at: now.next(),
                    });
                }
                self.searches.swap_remove(i);
                active.clear();
                self.frontier_pool.push(active);
            } else {
                search.level = level + 1;
                active.clear();
                active.extend_from_slice(&self.scratch_frontier);
                search.active = active;
                search.process_at = now.next();
                i += 1;
            }
        }

        // A hit performs its cache access and one hop of routing in the same
        // cycle (the paper's single-cycle tile), so the block leaves the tile
        // now and is available one hop downstream at the start of next cycle.
        let mut hits = std::mem::take(&mut self.scratch_hits);
        for &(tile, msg) in &hits {
            self.forward_transport(tile, msg, now);
        }
        hits.clear();
        self.scratch_hits = hits;
    }

    fn take_from_replacement_buffers(&mut self, tile: usize, addr: Addr) -> Option<bool> {
        if let Some(pv) = self.pending_victims[tile] {
            if pv.addr == addr {
                self.pending_victims[tile] = None;
                return Some(pv.dirty);
            }
        }
        let buf = &mut self.replacement_in[tile];
        let mut dirty = None;
        buf.retain(|m| {
            if m.msg.addr == addr {
                dirty = Some(m.msg.dirty);
                false
            } else {
                true
            }
        });
        dirty
    }

    /// Sends a transport message one hop toward the root, or parks it in the
    /// tile's pending slot if every downstream buffer is Off.
    fn forward_transport(&mut self, tile: usize, msg: TransportMsg, now: Cycle) {
        let root = NodeId(self.tiles.len());
        self.scratch_viable.clear();
        for hop in &self.transport_next[tile] {
            match *hop {
                Hop::Root => self.scratch_viable.push(root),
                Hop::Tile(t) => {
                    if self.transport_in[t].is_on() {
                        self.scratch_viable.push(NodeId(t));
                    }
                }
            }
        }
        match self.routing.choose(&self.scratch_viable, &mut self.rng) {
            Some(node) if node.0 == self.tiles.len() => {
                self.stats.transport_link_traversals += 1;
                self.deliver_to_root(msg, now);
            }
            Some(node) => {
                self.stats.transport_link_traversals += 1;
                self.transport_in[node.0]
                    .push(Buffered {
                        msg,
                        forwardable_at: now.next(),
                    })
                    .unwrap_or_else(|_| unreachable!("buffer was checked to be On"));
                self.transport_busy |= 1 << self.transport_pos[node.0];
            }
            None => {
                // All downstream buffers Off: hold the message in the tile
                // and retry next cycle (the paper's contention-marked search
                // restart is a rare corner case; holding is equivalent in
                // timing and simpler).
                self.stats.transport_stall_cycles += 1;
                self.pending_transport[tile].push(Buffered {
                    msg,
                    forwardable_at: now.next(),
                });
                self.transport_busy |= 1 << self.transport_pos[tile];
            }
        }
    }

    fn deliver_to_root(&mut self, msg: TransportMsg, now: Cycle) {
        let available_at = now.next();
        let transport_latency = available_at.since(msg.hit_at);
        self.stats.transport_deliveries += 1;
        self.stats.transport_latency_sum += transport_latency;
        self.stats.transport_min_latency_sum += msg.min_latency;
        self.arrivals.push_back(Arrival {
            addr: msg.addr,
            req: msg.req,
            dirty: msg.dirty,
            hit_level: msg.hit_level,
            available_at,
            transport_latency,
            min_transport_latency: msg.min_latency,
        });
    }

    fn transport_phase(&mut self, now: Cycle) {
        // Walks a snapshot of the busy set in `transport_order`. A tile that
        // turns busy during the phase only holds messages pushed at `now`,
        // forwardable at `now + 1`, so skipping it changes nothing.
        for pos in bits(self.transport_busy) {
            let tile = self.transport_order[pos];
            // How many messages can this tile forward this cycle: one per
            // output link.
            let max_sends = self.transport_next[tile].len();
            let mut sent = 0;
            // First retry messages that stalled in this tile.
            while sent < max_sends {
                let candidate = self.pending_transport[tile]
                    .iter()
                    .position(|m| m.forwardable_at <= now);
                let Some(pos) = candidate else { break };
                let msg = self.pending_transport[tile].remove(pos);
                self.forward_transport(tile, msg.msg, now);
                sent += 1;
            }
            // Then drain the input buffers.
            while sent < max_sends {
                let forwardable = self.transport_in[tile]
                    .front()
                    .is_some_and(|m| m.forwardable_at <= now);
                if !forwardable {
                    break;
                }
                let msg = self.transport_in[tile].pop().expect("front exists");
                self.forward_transport(tile, msg.msg, now);
                sent += 1;
            }
            if self.pending_transport[tile].is_empty() && self.transport_in[tile].is_empty() {
                self.transport_busy &= !(1 << pos);
            }
        }
    }

    fn replacement_phase(&mut self, now: Cycle) {
        // Walks a snapshot of the busy set in tile order; as in the
        // Transport phase, a tile turning busy mid-phase holds nothing
        // forwardable before `now + 1`.
        for tile in bits(self.replacement_busy) {
            // Replacement only proceeds during search-idle cycles.
            if self.search_touched & (1 << tile) != 0 {
                continue;
            }
            // 1. Try to push the pending victim one hop outward.
            if let Some(victim) = self.pending_victims[tile] {
                if self.replacement_next[tile].is_empty() {
                    // Corner tile of the last level: evict to the next cache
                    // level.
                    self.pending_victims[tile] = None;
                    self.stats.spills += 1;
                    self.spills.push_back(Spill {
                        addr: victim.addr,
                        dirty: victim.dirty,
                        at: now,
                    });
                } else {
                    self.scratch_viable.clear();
                    for &t in &self.replacement_next[tile] {
                        if self.replacement_in[t].is_on() {
                            self.scratch_viable.push(NodeId(t));
                        }
                    }
                    match self.routing.choose(&self.scratch_viable, &mut self.rng) {
                        Some(node) => {
                            self.pending_victims[tile] = None;
                            self.stats.replacement_link_traversals += 1;
                            self.replacement_in[node.0]
                                .push(Buffered {
                                    msg: victim,
                                    forwardable_at: now.next(),
                                })
                                .unwrap_or_else(|_| unreachable!("buffer was checked to be On"));
                            self.replacement_busy |= 1 << node.0;
                        }
                        None => {
                            self.stats.replacement_stall_cycles += 1;
                        }
                    }
                }
            }
            // 2. Accept one incoming block if the victim slot is free.
            if self.pending_victims[tile].is_none() {
                let acceptable = self.replacement_in[tile]
                    .front()
                    .is_some_and(|m| m.forwardable_at <= now);
                if acceptable {
                    let incoming = self.replacement_in[tile].pop().expect("front exists");
                    self.stats.tile_fills += 1;
                    if let Some(evicted) =
                        self.tiles[tile].fill(incoming.msg.addr, incoming.msg.dirty)
                    {
                        self.pending_victims[tile] = Some(ReplMsg {
                            addr: evicted.addr,
                            dirty: evicted.dirty,
                        });
                    }
                }
            }
            if self.pending_victims[tile].is_none() && self.replacement_in[tile].is_empty() {
                self.replacement_busy &= !(1 << tile);
            }
        }
    }

    fn root_evict_phase(&mut self, now: Cycle) {
        if let Some(&victim) = self.root_evict_queue.front() {
            self.scratch_viable.clear();
            for &t in &self.root_targets {
                if self.replacement_in[t].is_on() {
                    self.scratch_viable.push(NodeId(t));
                }
            }
            if let Some(node) = self.routing.choose(&self.scratch_viable, &mut self.rng) {
                self.root_evict_queue.pop_front();
                self.stats.replacement_link_traversals += 1;
                self.replacement_in[node.0]
                    .push(Buffered {
                        msg: victim,
                        forwardable_at: now.next(),
                    })
                    .unwrap_or_else(|_| unreachable!("buffer was checked to be On"));
                self.replacement_busy |= 1 << node.0;
            } else {
                self.stats.replacement_stall_cycles += 1;
            }
        }
    }

    /// The level (2-based) of the tile with the given index. Exposed for the
    /// energy model and the tests.
    #[must_use]
    pub fn tile_level(&self, tile: usize) -> u8 {
        self.tile_level[tile]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    impl LNuca {
        /// Recounts the busy-tile sets from the buffers and panics unless
        /// every tile holding a message has its bit set and no bit names a
        /// tile past the fabric. Call after every tick.
        fn check_busy_sets(&self) {
            let n = self.tiles.len();
            for tile in 0..n {
                if !self.transport_in[tile].is_empty() || !self.pending_transport[tile].is_empty() {
                    let pos = self.transport_pos[tile];
                    assert!(self.transport_busy & (1 << pos) != 0, "tile {tile}: transport");
                }
                if !self.replacement_in[tile].is_empty() || self.pending_victims[tile].is_some() {
                    assert!(self.replacement_busy & (1 << tile) != 0, "tile {tile}: replacement");
                }
            }
            assert_eq!(self.transport_busy >> n, 0, "transport bit past the fabric");
            assert_eq!(self.replacement_busy >> n, 0, "replacement bit past the fabric");
        }

        /// [`LNuca::next_event`] as a scan of every tile, ignoring the busy
        /// sets: the reference the busy-set horizon must equal.
        fn next_event_full_scan(&self, now: Cycle) -> Option<Cycle> {
            let floor = now.next();
            if !self.searches.is_empty()
                || !self.root_evict_queue.is_empty()
                || self.pending_victims.iter().any(Option::is_some)
                || self.pending_transport.iter().any(|p| !p.is_empty())
            {
                return Some(floor);
            }
            let mut horizon: Option<Cycle> = None;
            fn ready<T>(m: &Buffered<T>) -> Cycle {
                m.forwardable_at
            }
            let transport = self.transport_in.iter().map(|b| b.next_event_by(ready));
            let replacement = self.replacement_in.iter().map(|b| b.next_event_by(ready));
            for at in transport.chain(replacement).flatten() {
                Cycle::merge_horizon(&mut horizon, at, floor);
            }
            self.merge_output_fronts(&mut horizon, floor);
            horizon
        }
    }

    fn fabric(levels: u8) -> LNuca {
        LNuca::new(LNucaConfig::paper(levels).unwrap()).unwrap()
    }

    #[test]
    fn the_largest_geometry_fits_the_busy_masks() {
        let geometry = LNucaGeometry::new(LNucaGeometry::MAX_LEVELS).unwrap();
        assert!(geometry.tile_count() <= 128, "a u128 busy mask holds at most 128 tiles");
    }

    proptest! {
        /// Random searches, root evictions and invalidations on 2..=8
        /// levels: after every tick each busy tile has its bit set, and the
        /// busy-set horizon equals the full scan.
        #[test]
        fn busy_sets_cover_every_busy_tile(
            levels in 2u8..=8,
            ops in proptest::collection::vec((0u8..4, 0u64..48), 1..120),
        ) {
            let mut f = fabric(levels);
            let mut out = (Vec::new(), Vec::new(), Vec::new());
            let mut tick = |f: &mut LNuca, c: u64| {
                f.tick(Cycle(c));
                f.drain_arrivals_into(Cycle(c), &mut out.0);
                f.drain_global_misses_into(Cycle(c), &mut out.1);
                f.drain_spills_into(Cycle(c), &mut out.2);
                f.check_busy_sets();
                assert_eq!(f.next_event(Cycle(c)), f.next_event_full_scan(Cycle(c)), "cycle {c}");
            };
            for (c, &(op, block)) in ops.iter().enumerate() {
                let c = c as u64;
                // Two sets of an Le tile, so dominoes and spills come quickly.
                let addr = Addr(block * 0x800);
                match op {
                    0 => {
                        let _ = f.inject_search(addr, ReqId(c), block % 3 == 0, Cycle(c));
                    }
                    1 => f.evict_from_root(addr, block % 2 == 0),
                    2 => {
                        let _ = f.invalidate(addr);
                    }
                    _ => {}
                }
                prop_assert_eq!(f.next_event(Cycle(c)), f.next_event_full_scan(Cycle(c)));
                tick(&mut f, c);
            }
            let end = ops.len() as u64;
            for c in end..end + 64 {
                tick(&mut f, c);
            }
        }
    }

    /// Runs the fabric for `cycles` cycles starting at `start`, collecting
    /// all outputs.
    fn run(f: &mut LNuca, start: u64, cycles: u64) -> (Vec<Arrival>, Vec<GlobalMiss>, Vec<Spill>) {
        let mut arrivals = Vec::new();
        let mut misses = Vec::new();
        let mut spills = Vec::new();
        for c in start..start + cycles {
            f.tick(Cycle(c));
            arrivals.extend(f.pop_arrivals(Cycle(c)));
            misses.extend(f.pop_global_misses(Cycle(c)));
            spills.extend(f.pop_spills(Cycle(c)));
        }
        (arrivals, misses, spills)
    }

    #[test]
    fn empty_fabric_reports_global_miss_after_last_level_plus_one() {
        for levels in 2..=8u8 {
            let mut f = fabric(levels);
            assert!(f.inject_search(Addr(0x1000), ReqId(1), false, Cycle(0)));
            let (arrivals, misses, _) = run(&mut f, 0, 16);
            assert!(arrivals.is_empty());
            assert_eq!(misses.len(), 1);
            // Level l is looked up at cycle l-1; the miss line adds one cycle.
            assert_eq!(misses[0].determined_at, Cycle(u64::from(levels)));
            assert_eq!(f.stats().global_misses, 1);
        }
    }

    #[test]
    fn only_one_search_injection_per_cycle() {
        let mut f = fabric(2);
        assert!(f.inject_search(Addr(0x100), ReqId(1), false, Cycle(5)));
        assert!(!f.inject_search(Addr(0x200), ReqId(2), false, Cycle(5)));
        assert!(f.inject_search(Addr(0x200), ReqId(2), false, Cycle(6)));
    }

    #[test]
    fn a_block_evicted_from_root_is_found_by_a_later_search() {
        let mut f = fabric(3);
        let addr = Addr(0x4_0000);
        f.evict_from_root(addr, false);
        // Give the fabric time to place the block in an Le2 tile.
        run(&mut f, 0, 6);
        assert!(f.contains(addr));
        assert!(f.inject_search(addr, ReqId(9), false, Cycle(6)));
        let (arrivals, misses, _) = run(&mut f, 6, 12);
        assert_eq!(misses.len(), 0, "the block is in the fabric, no global miss");
        assert_eq!(arrivals.len(), 1);
        let a = &arrivals[0];
        assert_eq!(a.addr, addr);
        assert_eq!(a.req, ReqId(9));
        assert_eq!(a.hit_level, 2);
        // Exclusion: after servicing the hit the block has left the fabric.
        assert!(!f.contains(addr));
        assert_eq!(f.stats().read_hits_in_level(2), 1);
    }

    #[test]
    fn le2_hit_latency_is_search_plus_one_hop() {
        let mut f = fabric(3);
        let addr = Addr(0x880);
        f.evict_from_root(addr, false);
        run(&mut f, 0, 6);
        let inject_at = Cycle(6);
        assert!(f.inject_search(addr, ReqId(1), false, inject_at));
        let (arrivals, _, _) = run(&mut f, 6, 10);
        assert_eq!(arrivals.len(), 1);
        // Search processed by Le2 at cycle 7; hit + one-hop routing in the
        // same cycle; available at the root tile at cycle 8.
        assert_eq!(arrivals[0].available_at, Cycle(8));
        assert_eq!(arrivals[0].transport_latency, 1);
        assert_eq!(arrivals[0].min_transport_latency, 1);
    }

    #[test]
    fn a_lone_hit_on_any_tile_costs_that_tiles_latency() {
        // PAPER.md: a hit in a tile costs its level's search delay plus the
        // Manhattan distance back to the root, `TileCoord::latency()`.
        let addr = Addr(0x4_0000);
        let inject = Cycle(3);
        for levels in 2..=8u8 {
            for t in 0..fabric(levels).geometry.tile_count() {
                let mut f = fabric(levels);
                let _ = f.tiles[t].fill(addr, false);
                assert!(f.inject_search(addr, ReqId(1), false, inject));
                let (arrivals, misses, _) = run(&mut f, inject.0, 40);
                let coord = f.geometry.coord(t);
                assert!(misses.is_empty(), "LN{levels} tile {coord}: false global miss");
                assert_eq!(arrivals.len(), 1, "LN{levels} tile {coord}");
                assert_eq!(
                    arrivals[0].available_at.since(inject) + 1,
                    coord.latency(),
                    "LN{levels} tile {coord}"
                );
            }
        }
    }

    #[test]
    fn write_searches_count_as_write_hits() {
        let mut f = fabric(2);
        let addr = Addr(0xABC0);
        f.evict_from_root(addr, true);
        run(&mut f, 0, 5);
        assert!(f.inject_search(addr, ReqId(1), true, Cycle(5)));
        let (arrivals, _, _) = run(&mut f, 5, 8);
        assert_eq!(arrivals.len(), 1);
        assert!(arrivals[0].dirty, "dirtiness travels with the block");
        assert_eq!(f.stats().write_hits_per_level[0], 1);
        assert_eq!(f.stats().read_hits(), 0);
    }

    #[test]
    fn in_flight_blocks_are_found_in_u_buffers() {
        let mut f = fabric(3);
        let addr = Addr(0x77C0);
        // Evict the block and search for it immediately: when the search
        // reaches Le2 (one cycle after injection) the block is still sitting
        // in an Le2 U buffer, not yet written into any tile array, so the
        // U-buffer comparators must catch it to avoid a false miss.
        f.evict_from_root(addr, false);
        assert!(f.inject_search(addr, ReqId(4), false, Cycle(0)));
        f.tick(Cycle(0));
        assert!(f.contains(addr));
        assert_eq!(f.resident_blocks(), 0, "not yet written into any tile");
        let (arrivals, misses, _) = run(&mut f, 1, 10);
        assert_eq!(misses.len(), 0, "U-buffer lookup avoids the false miss");
        assert_eq!(arrivals.len(), 1);
        assert_eq!(f.stats().in_flight_hits, 1);
    }

    #[test]
    fn evictions_cascade_and_eventually_spill() {
        // Fill the fabric far beyond its capacity with conflicting blocks and
        // check that spills appear and exclusion holds throughout.
        let mut f = fabric(2);
        let block = 32u64;
        let tile_sets = 8 * 1024 / 32 / 2; // 128 sets per tile
        let total_blocks = f.geometry().tile_count() as u64 * 2 + 8;
        let mut spilled = 0;
        for i in 0..total_blocks {
            // Same set in every tile: forces the domino quickly.
            let addr = Addr(i * tile_sets as u64 * block * 2);
            f.evict_from_root(addr, i % 2 == 0);
            let (_, _, spills) = run(&mut f, i * 4, 4);
            spilled += spills.len();
        }
        let (_, _, spills) = run(&mut f, total_blocks * 4, 200);
        spilled += spills.len();
        assert!(spilled > 0, "overflow must spill to the next level");
        assert_eq!(f.stats().spills, spilled as u64);
    }

    #[test]
    fn pipelined_searches_occupy_different_levels() {
        let mut f = fabric(4);
        // Inject three searches in consecutive cycles; all miss. They must
        // pipeline: global misses are determined in consecutive cycles.
        for (i, c) in (0..3u64).enumerate() {
            assert!(f.inject_search(
                Addr(0x1000 + i as u64 * 64),
                ReqId(i as u64),
                false,
                Cycle(c)
            ));
        }
        let (_, misses, _) = run(&mut f, 0, 12);
        assert_eq!(misses.len(), 3);
        let times: Vec<u64> = misses.iter().map(|m| m.determined_at.0).collect();
        assert_eq!(times, vec![4, 5, 6]);
    }

    #[test]
    fn invalidate_removes_blocks_everywhere() {
        let mut f = fabric(2);
        let addr = Addr(0x9999);
        f.evict_from_root(addr, false);
        run(&mut f, 0, 4);
        assert!(f.contains(addr));
        assert!(f.invalidate(addr));
        assert!(!f.contains(addr));
        assert!(!f.invalidate(addr));
    }

    #[test]
    fn invalidate_reports_removal_of_in_flight_blocks() {
        let mut f = fabric(2);
        let addr = Addr(0x5440);
        f.evict_from_root(addr, true);
        // One tick: the victim enters an Le2 U buffer but no tile array yet.
        f.tick(Cycle(0));
        assert!(f.contains(addr));
        assert_eq!(f.resident_blocks(), 0);
        assert!(f.invalidate(addr), "removal from a U buffer must report true");
        assert!(!f.contains(addr));
    }

    #[test]
    fn exclusion_no_block_is_duplicated() {
        let mut f = fabric(3);
        // Insert a set of blocks, search some of them, keep evicting others.
        let addrs: Vec<Addr> = (0..64u64).map(|i| Addr(i * 0x400)).collect();
        let mut cycle = 0u64;
        for (i, &a) in addrs.iter().enumerate() {
            f.evict_from_root(a, i % 3 == 0);
            f.tick(Cycle(cycle));
            cycle += 1;
            if i % 5 == 0 {
                let _ = f.inject_search(a, ReqId(i as u64), false, Cycle(cycle));
            }
            f.tick(Cycle(cycle));
            cycle += 1;
            let _ = f.pop_arrivals(Cycle(cycle));
            let _ = f.pop_global_misses(Cycle(cycle));
            let _ = f.pop_spills(Cycle(cycle));
        }
        // Count occurrences of each block across tiles; duplicates violate
        // content exclusion.
        for &a in &addrs {
            let in_tiles = f.tiles.iter().filter(|t| t.contains(a)).count();
            assert!(in_tiles <= 1, "block {a} duplicated across tiles");
        }
    }

    #[test]
    fn next_event_is_none_only_when_the_fabric_is_empty() {
        let mut f = fabric(3);
        assert_eq!(f.next_event(Cycle(0)), None, "an empty fabric has no events");
        // An in-flight search keeps the fabric busy every cycle.
        assert!(f.inject_search(Addr(0x40), ReqId(1), false, Cycle(0)));
        assert_eq!(f.next_event(Cycle(0)), Some(Cycle(1)));
        // Drive to completion; the undelivered global miss is the only
        // remaining event and is reported at its maturity cycle.
        for c in 0..2 {
            f.tick(Cycle(c));
        }
        let horizon = f.next_event(Cycle(1)).expect("a miss is pending delivery");
        assert!(horizon >= Cycle(2));
        // After every output drains the fabric goes quiet again.
        for c in 2..8 {
            f.tick(Cycle(c));
            let _ = f.pop_arrivals(Cycle(c));
            let _ = f.pop_global_misses(Cycle(c));
            let _ = f.pop_spills(Cycle(c));
        }
        assert_eq!(f.next_event(Cycle(8)), None);
    }

    #[test]
    fn next_event_reports_in_flight_replacement_traffic() {
        let mut f = fabric(2);
        f.evict_from_root(Addr(0x800), false);
        // The victim sits in the root eviction queue: busy.
        assert_eq!(f.next_event(Cycle(0)), Some(Cycle(1)));
        f.tick(Cycle(0));
        // Now it travels the Replacement network: still busy or timestamped.
        assert!(f.next_event(Cycle(0)).is_some());
        for c in 1..8 {
            f.tick(Cycle(c));
        }
        // Settled into a tile: quiet.
        assert_eq!(f.next_event(Cycle(8)), None);
        assert!(f.contains(Addr(0x800)));
    }

    #[test]
    fn stats_accumulate_traversals_and_lookups() {
        let mut f = fabric(3);
        f.inject_search(Addr(0x40), ReqId(0), false, Cycle(0));
        run(&mut f, 0, 8);
        // A full miss searches all 14 tiles of a 3-level fabric.
        assert_eq!(f.stats().tile_lookups, 14);
        assert_eq!(f.stats().search_link_traversals, 14);
        assert_eq!(f.stats().searches, 1);
    }
}
