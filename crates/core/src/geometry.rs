//! The L-NUCA tile grid: levels, coordinates and network neighbourhoods.
//!
//! An `L`-level L-NUCA consists of the root tile (the L1 cache, level Le1)
//! plus a grid of small tiles arranged around it. Using coordinates where the
//! r-tile sits at column offset 0, row 0 and tiles occupy rows `0..L-1` and
//! column offsets `-(L-1)..=(L-1)`, a tile belongs to level
//! `max(|col|, row) + 1`. This reproduces the paper's layout: 5 tiles in Le2,
//! 9 in Le3 and 13 in Le4, i.e. 72 KB, 144 KB and 248 KB total capacity with
//! 8 KB tiles and a 32 KB L1 (Fig. 1).
//!
//! The three networks are derived from the same coordinates:
//!
//! * **Search** (broadcast tree): each tile has exactly one parent in the
//!   previous level, so the maximum distance grows by one hop per level.
//! * **Transport** (2-D mesh toward the r-tile): each tile links to its
//!   4-neighbours with a strictly smaller Manhattan distance to the r-tile,
//!   giving multiple return paths.
//! * **Replacement** (latency-ordered): each tile links to its 8-neighbours
//!   whose total latency is exactly one cycle larger, reproducing the
//!   "domino" eviction chains of Fig. 2(c); the corner tiles of the last
//!   level have no successor and are the only tiles that evict to the next
//!   cache level.

use lnuca_types::{ByteSize, ConfigError};
use std::fmt;

/// Position of a tile relative to the root tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TileCoord {
    /// Column offset from the root tile (negative = left).
    pub col: i16,
    /// Row above the root tile (the root row is 0).
    pub row: i16,
}

impl TileCoord {
    /// Creates a coordinate.
    #[must_use]
    pub fn new(col: i16, row: i16) -> Self {
        TileCoord { col, row }
    }

    /// L-NUCA level of this coordinate (the root tile is level 1).
    #[must_use]
    pub fn level(self) -> u8 {
        (self.col.unsigned_abs().max(self.row.unsigned_abs()) + 1) as u8
    }

    /// Manhattan (4-neighbour mesh) distance to the root tile.
    #[must_use]
    pub fn manhattan_to_root(self) -> u64 {
        u64::from(self.col.unsigned_abs()) + u64::from(self.row.unsigned_abs())
    }

    /// Total tile latency in cycles: search propagation, tile access and
    /// minimum transport back to the r-tile, as annotated in Fig. 2(c) of
    /// the paper (the level-2 side tiles are latency 3, the outer corners of
    /// a 3-level L-NUCA latency 7).
    #[must_use]
    pub fn latency(self) -> u64 {
        u64::from(self.level()) + self.manhattan_to_root()
    }
}

impl fmt::Display for TileCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {})", self.col, self.row)
    }
}

/// Where a message goes next: to another tile or to the root tile.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Hop {
    /// Another tile, identified by its index in [`LNucaGeometry::tiles`].
    Tile(usize),
    /// The root tile (the L1 cache / processor interface).
    Root,
}

/// Geometry of an L-NUCA fabric with a given number of levels.
///
/// # Example
///
/// ```
/// use lnuca_core::geometry::LNucaGeometry;
///
/// let g = LNucaGeometry::new(3)?;
/// assert_eq!(g.tile_count(), 14);              // 5 + 9 tiles
/// assert_eq!(g.tiles_in_level(2), 5);
/// assert_eq!(g.tiles_in_level(3), 9);
/// assert_eq!(g.capacity_bytes(8 * 1024), 14 * 8 * 1024);
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LNucaGeometry {
    levels: u8,
    tiles: Vec<TileCoord>,
}

impl LNucaGeometry {
    /// Smallest supported number of levels (the r-tile plus one ring).
    pub const MIN_LEVELS: u8 = 2;
    /// Largest supported number of levels.
    pub const MAX_LEVELS: u8 = 8;

    /// Creates the geometry of an L-NUCA with `levels` levels (the root tile
    /// counts as level 1).
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if `levels` is outside
    /// [`MIN_LEVELS`](Self::MIN_LEVELS)..=[`MAX_LEVELS`](Self::MAX_LEVELS).
    pub fn new(levels: u8) -> Result<Self, ConfigError> {
        if !(Self::MIN_LEVELS..=Self::MAX_LEVELS).contains(&levels) {
            return Err(ConfigError::new(
                "levels",
                format!(
                    "must be between {} and {}, got {levels}",
                    Self::MIN_LEVELS,
                    Self::MAX_LEVELS
                ),
            ));
        }
        let reach = i16::from(levels) - 1;
        let mut tiles = Vec::new();
        for row in 0..=reach {
            for col in -reach..=reach {
                let coord = TileCoord::new(col, row);
                if coord == TileCoord::new(0, 0) {
                    continue; // the root tile is not part of the fabric
                }
                if coord.level() <= levels {
                    tiles.push(coord);
                }
            }
        }
        tiles.sort_by_key(|t| (t.level(), t.row, t.col));
        Ok(LNucaGeometry { levels, tiles })
    }

    /// Number of levels, including the root tile's level 1.
    #[must_use]
    pub fn levels(&self) -> u8 {
        self.levels
    }

    /// Number of tiles in the fabric (excluding the root tile).
    #[must_use]
    pub fn tile_count(&self) -> usize {
        self.tiles.len()
    }

    /// All tile coordinates, ordered by (level, row, column).
    #[must_use]
    pub fn tiles(&self) -> &[TileCoord] {
        &self.tiles
    }

    /// Coordinate of the tile with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn coord(&self, index: usize) -> TileCoord {
        self.tiles[index]
    }

    /// Index of the tile at `coord`, if it exists in this geometry.
    #[must_use]
    pub fn index_of(&self, coord: TileCoord) -> Option<usize> {
        self.tiles.iter().position(|&t| t == coord)
    }

    /// Number of tiles in level `level` (2-based; level 1 is the root tile
    /// and returns 0).
    #[must_use]
    pub fn tiles_in_level(&self, level: u8) -> usize {
        self.tiles.iter().filter(|t| t.level() == level).count()
    }

    /// Indices of all tiles in level `level`.
    #[must_use]
    pub fn level_tiles(&self, level: u8) -> Vec<usize> {
        (0..self.tiles.len())
            .filter(|&i| self.tiles[i].level() == level)
            .collect()
    }

    /// Total fabric capacity for a given tile size, in bytes (the r-tile is
    /// not included).
    #[must_use]
    pub fn capacity_bytes(&self, tile_size_bytes: u64) -> u64 {
        self.tile_count() as u64 * tile_size_bytes
    }

    /// Total fabric capacity as a [`ByteSize`].
    #[must_use]
    pub fn capacity(&self, tile_size_bytes: u64) -> ByteSize {
        ByteSize::new(self.capacity_bytes(tile_size_bytes))
    }

    /// The search-network parent of the tile at `index`: [`Hop::Root`] for
    /// level-2 tiles, otherwise the unique neighbouring tile one level
    /// closer to the root.
    #[must_use]
    pub fn search_parent(&self, index: usize) -> Hop {
        let c = self.tiles[index];
        if c.level() == 2 {
            return Hop::Root;
        }
        let parent = parent_coord(c);
        Hop::Tile(
            self.index_of(parent)
                .expect("parent of a non-level-2 tile exists in the grid"),
        )
    }

    /// The search-network children of the tile at `index` (tiles in the next
    /// level whose parent is this tile).
    #[must_use]
    pub fn search_children(&self, index: usize) -> Vec<usize> {
        (0..self.tiles.len())
            .filter(|&i| self.search_parent(i) == Hop::Tile(index))
            .collect()
    }

    /// The level-2 tiles, which receive search messages directly from the
    /// root tile.
    #[must_use]
    pub fn search_roots(&self) -> Vec<usize> {
        self.level_tiles(2)
    }

    /// Transport-network output hops of the tile at `index`: the
    /// 4-neighbours (or the root tile) with a strictly smaller Manhattan
    /// distance to the root.
    #[must_use]
    pub fn transport_next(&self, index: usize) -> Vec<Hop> {
        let c = self.tiles[index];
        let mut hops = Vec::new();
        let mut push = |col: i16, row: i16| {
            let n = TileCoord::new(col, row);
            if n.manhattan_to_root() < c.manhattan_to_root() {
                if n == TileCoord::new(0, 0) {
                    hops.push(Hop::Root);
                } else if let Some(i) = self.index_of(n) {
                    hops.push(Hop::Tile(i));
                }
            }
        };
        push(c.col - 1, c.row);
        push(c.col + 1, c.row);
        push(c.col, c.row - 1);
        push(c.col, c.row + 1);
        hops
    }

    /// Replacement-network output tiles of the tile at `index`: the
    /// 8-neighbours whose latency is exactly one cycle larger. Tiles with an
    /// empty result are the spill tiles that evict to the next cache level.
    #[must_use]
    pub fn replacement_next(&self, index: usize) -> Vec<usize> {
        let c = self.tiles[index];
        let target_latency = c.latency() + 1;
        let mut out = Vec::new();
        for dcol in -1..=1i16 {
            for drow in -1..=1i16 {
                if dcol == 0 && drow == 0 {
                    continue;
                }
                let n = TileCoord::new(c.col + dcol, c.row + drow);
                if n.latency() == target_latency {
                    if let Some(i) = self.index_of(n) {
                        out.push(i);
                    }
                }
            }
        }
        out
    }

    /// The tiles that receive evictions directly from the root tile: the
    /// latency-3 level-2 tiles (left, right and above the r-tile).
    #[must_use]
    pub fn root_evict_targets(&self) -> Vec<usize> {
        (0..self.tiles.len())
            .filter(|&i| self.tiles[i].level() == 2 && self.tiles[i].latency() == 3)
            .collect()
    }

    /// The tiles that evict blocks to the next cache level (the upper corner
    /// tiles of the outermost level).
    #[must_use]
    pub fn spill_tiles(&self) -> Vec<usize> {
        (0..self.tiles.len())
            .filter(|&i| self.replacement_next(i).is_empty())
            .collect()
    }

    /// Maximum tile latency in this geometry.
    #[must_use]
    pub fn max_latency(&self) -> u64 {
        self.tiles.iter().map(|t| t.latency()).max().unwrap_or(0)
    }

    /// Number of directed links per network:
    /// `(search, transport, replacement)`, counting links from/to the root
    /// tile.
    #[must_use]
    pub fn link_counts(&self) -> (usize, usize, usize) {
        let search = self.tile_count(); // one parent link per tile
        let transport: usize = (0..self.tile_count())
            .map(|i| self.transport_next(i).len())
            .sum();
        let replacement: usize = (0..self.tile_count())
            .map(|i| self.replacement_next(i).len())
            .sum::<usize>()
            + self.root_evict_targets().len();
        (search, transport, replacement)
    }
}

fn parent_coord(c: TileCoord) -> TileCoord {
    let abs_col = c.col.abs();
    let toward_center = c.col - c.col.signum();
    if abs_col > c.row {
        TileCoord::new(toward_center, c.row)
    } else if c.row > abs_col {
        TileCoord::new(c.col, c.row - 1)
    } else {
        TileCoord::new(toward_center, c.row - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn level_counts_match_the_paper() {
        for (levels, expected) in [(2u8, vec![5]), (3, vec![5, 9]), (4, vec![5, 9, 13])] {
            let g = LNucaGeometry::new(levels).unwrap();
            for (i, &count) in expected.iter().enumerate() {
                assert_eq!(g.tiles_in_level(i as u8 + 2), count, "level {} of LN{}", i + 2, levels);
            }
            assert_eq!(g.tile_count(), expected.iter().sum::<usize>());
        }
    }

    #[test]
    fn capacities_match_figure_1() {
        // 32 KB L1 + tiles of 8 KB: LN2 = 72 KB, LN3 = 144 KB, LN4 = 248 KB.
        let l1 = 32 * 1024u64;
        let tile = 8 * 1024u64;
        assert_eq!(LNucaGeometry::new(2).unwrap().capacity_bytes(tile) + l1, 72 * 1024);
        assert_eq!(LNucaGeometry::new(3).unwrap().capacity_bytes(tile) + l1, 144 * 1024);
        assert_eq!(LNucaGeometry::new(4).unwrap().capacity_bytes(tile) + l1, 248 * 1024);
    }

    #[test]
    fn invalid_level_counts_rejected() {
        assert!(LNucaGeometry::new(0).is_err());
        assert!(LNucaGeometry::new(1).is_err());
        assert!(LNucaGeometry::new(9).is_err());
    }

    #[test]
    fn tile_latencies_match_figure_2c() {
        // Fig. 2(c): in a 3-level L-NUCA tile latencies are
        // {3,3,3,4,4} in Le2 and {5,5,5,6,6,6,6,7,7} in Le3.
        let g = LNucaGeometry::new(3).unwrap();
        let mut le2: Vec<u64> = g.level_tiles(2).iter().map(|&i| g.coord(i).latency()).collect();
        let mut le3: Vec<u64> = g.level_tiles(3).iter().map(|&i| g.coord(i).latency()).collect();
        le2.sort_unstable();
        le3.sort_unstable();
        assert_eq!(le2, vec![3, 3, 3, 4, 4]);
        assert_eq!(le3, vec![5, 5, 5, 6, 6, 6, 6, 7, 7]);
    }

    #[test]
    fn adding_a_level_adds_three_cycles_to_the_worst_latency() {
        let l3 = LNucaGeometry::new(3).unwrap().max_latency();
        let l4 = LNucaGeometry::new(4).unwrap().max_latency();
        let l5 = LNucaGeometry::new(5).unwrap().max_latency();
        assert_eq!(l4 - l3, 3);
        assert_eq!(l5 - l4, 3);
    }

    #[test]
    fn search_tree_has_one_parent_per_tile_and_single_hop_growth() {
        for levels in 2..=5u8 {
            let g = LNucaGeometry::new(levels).unwrap();
            // Every tile has a parent in the previous level.
            for i in 0..g.tile_count() {
                match g.search_parent(i) {
                    Hop::Root => assert_eq!(g.coord(i).level(), 2),
                    Hop::Tile(p) => {
                        assert_eq!(g.coord(p).level(), g.coord(i).level() - 1);
                        // Parent is a grid neighbour (Chebyshev distance 1).
                        let a = g.coord(i);
                        let b = g.coord(p);
                        assert!((a.col - b.col).abs() <= 1 && (a.row - b.row).abs() <= 1);
                    }
                }
            }
            // Search distance from the root equals level - 1, so the maximum
            // distance grows by exactly one hop per level.
            let max_level = g.tiles().iter().map(|t| t.level()).max().unwrap();
            assert_eq!(max_level, levels);
        }
    }

    #[test]
    fn search_children_partition_the_next_level() {
        let g = LNucaGeometry::new(4).unwrap();
        for level in 2..4u8 {
            let mut children_of_level: Vec<usize> = g
                .level_tiles(level)
                .iter()
                .flat_map(|&i| g.search_children(i))
                .collect();
            children_of_level.sort_unstable();
            let mut next_level = g.level_tiles(level + 1);
            next_level.sort_unstable();
            assert_eq!(children_of_level, next_level);
        }
    }

    #[test]
    fn transport_always_progresses_toward_the_root() {
        let g = LNucaGeometry::new(4).unwrap();
        for i in 0..g.tile_count() {
            let hops = g.transport_next(i);
            assert!(!hops.is_empty(), "tile {i} must have a transport output");
            assert!(hops.len() <= 2, "path diversity never needs more than two outputs");
            for hop in hops {
                match hop {
                    Hop::Root => assert_eq!(g.coord(i).manhattan_to_root(), 1),
                    Hop::Tile(t) => {
                        assert!(g.coord(t).manhattan_to_root() < g.coord(i).manhattan_to_root());
                    }
                }
            }
        }
    }

    #[test]
    fn replacement_chains_increase_latency_by_one() {
        let g = LNucaGeometry::new(3).unwrap();
        for i in 0..g.tile_count() {
            for next in g.replacement_next(i) {
                assert_eq!(g.coord(next).latency(), g.coord(i).latency() + 1);
            }
        }
    }

    #[test]
    fn root_evictions_enter_at_latency_three_tiles() {
        let g = LNucaGeometry::new(3).unwrap();
        let targets = g.root_evict_targets();
        assert_eq!(targets.len(), 3);
        for t in targets {
            assert_eq!(g.coord(t).latency(), 3);
        }
    }

    #[test]
    fn spill_tiles_are_the_outer_upper_corners() {
        let g = LNucaGeometry::new(3).unwrap();
        let spills = g.spill_tiles();
        assert_eq!(spills.len(), 2);
        for s in spills {
            let c = g.coord(s);
            assert_eq!(c.latency(), g.max_latency());
            assert_eq!(c.row, 2);
            assert_eq!(c.col.abs(), 2);
        }
    }

    #[test]
    fn every_tile_can_reach_a_spill_tile_through_the_replacement_network() {
        let g = LNucaGeometry::new(4).unwrap();
        for start in 0..g.tile_count() {
            let mut frontier = vec![start];
            let mut reached_spill = false;
            let mut guard = 0;
            while let Some(t) = frontier.pop() {
                guard += 1;
                assert!(guard < 10_000, "replacement network must be acyclic");
                let next = g.replacement_next(t);
                if next.is_empty() {
                    reached_spill = true;
                    break;
                }
                frontier.extend(next);
            }
            assert!(reached_spill, "tile {start} cannot spill");
        }
    }

    #[test]
    fn index_and_coord_round_trip() {
        let g = LNucaGeometry::new(4).unwrap();
        for i in 0..g.tile_count() {
            assert_eq!(g.index_of(g.coord(i)), Some(i));
        }
        assert_eq!(g.index_of(TileCoord::new(0, 0)), None, "the root is not a fabric tile");
        assert_eq!(g.index_of(TileCoord::new(9, 9)), None);
    }

    #[test]
    fn link_counts_are_reported() {
        let g = LNucaGeometry::new(3).unwrap();
        let (search, transport, replacement) = g.link_counts();
        assert_eq!(search, 14);
        assert!(transport > 14, "mesh has more links than the tree");
        assert!(replacement >= 14);
    }

    #[test]
    fn coord_display_and_level() {
        let c = TileCoord::new(-2, 1);
        assert_eq!(c.to_string(), "(-2, 1)");
        assert_eq!(c.level(), 3);
        assert_eq!(c.manhattan_to_root(), 3);
        assert_eq!(c.latency(), 6);
    }

    proptest! {
        #[test]
        fn every_tile_level_is_within_bounds(levels in 2u8..=6) {
            let g = LNucaGeometry::new(levels).unwrap();
            for t in g.tiles() {
                prop_assert!(t.level() >= 2);
                prop_assert!(t.level() <= levels);
            }
        }

        #[test]
        fn tiles_per_level_follow_4k_plus_1(levels in 2u8..=8) {
            let g = LNucaGeometry::new(levels).unwrap();
            for level in 2..=levels {
                let k = u64::from(level) - 1;
                prop_assert_eq!(g.tiles_in_level(level) as u64, 4 * k + 1);
            }
        }

        #[test]
        fn transport_distance_equals_manhattan(levels in 2u8..=6) {
            // Following any chain of transport hops reaches the root in exactly
            // the Manhattan distance, so the minimum transport latency used by
            // the statistics equals the hop count.
            let g = LNucaGeometry::new(levels).unwrap();
            for i in 0..g.tile_count() {
                let mut hops = 0u64;
                let mut current = Hop::Tile(i);
                while let Hop::Tile(t) = current {
                    let next = g.transport_next(t);
                    prop_assert!(!next.is_empty());
                    current = next[0];
                    hops += 1;
                    prop_assert!(hops <= 64);
                }
                prop_assert_eq!(hops, g.coord(i).manhattan_to_root());
            }
        }
    }
}
