//! Replacement policies for set-associative arrays, and the recency ranks
//! they keep.
//!
//! A [`crate::CacheArray`] stores one rank byte per way and hands each set's
//! ranks to the policy; this module alone reads and writes them. Among a
//! set's valid ways the ranks are exactly `0..k`: rank 0 is the most
//! recently used line under LRU (the newest inserted under FIFO), and a full
//! set evicts the way ranked `ways - 1`. An empty way's rank is never read,
//! so the updates run over the whole set without consulting the tags, and
//! one byte holds any rank because a set has at most 256 ways.

/// Which line to evict when a set is full.
///
/// The paper uses LRU everywhere ("All caches use LRU replacement"); the
/// other policies are provided for the ablation benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReplacementPolicy {
    /// Evict the least-recently-used line (paper default).
    #[default]
    Lru,
    /// Evict the oldest-inserted line.
    Fifo,
    /// Evict a pseudo-random line (a SplitMix64 draw, deterministic per
    /// access count).
    Random,
}

impl ReplacementPolicy {
    /// Records a hit on way `way` of a set with recency ranks `ranks`.
    ///
    /// Only LRU reorders on a hit, and a hit on the youngest way has
    /// nothing to reorder: it costs only this test.
    #[inline]
    pub(crate) fn on_hit(self, ranks: &mut [u8], way: usize) {
        let rank = ranks[way];
        if self == ReplacementPolicy::Lru && rank != 0 {
            make_youngest(ranks, way, rank);
        }
    }

    /// Records that way `way` of the set now holds a newly filled line.
    /// The new line counts as older than every other before it becomes the
    /// youngest, so every valid way ages by one.
    pub(crate) fn on_fill(self, ranks: &mut [u8], way: usize) {
        if self != ReplacementPolicy::Random {
            make_youngest(ranks, way, u8::MAX);
        }
    }

    /// Records that way `way` of the set was invalidated: every valid way
    /// older than it moves up a rank.
    pub(crate) fn on_invalidate(self, ranks: &mut [u8], way: usize) {
        if self != ReplacementPolicy::Random {
            let rank = ranks[way];
            for age in ranks {
                *age -= u8::from(*age > rank);
            }
        }
    }

    /// Chooses the way to evict from a full set with recency ranks `ranks`.
    ///
    /// LRU and FIFO evict the first way ranked `ways - 1`; Random ignores
    /// the ranks and draws a way from `tick` (a SplitMix64 step,
    /// deterministic per tick).
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty, or, under LRU or FIFO, if no way holds
    /// the oldest rank.
    #[must_use]
    pub(crate) fn choose_victim(self, ranks: &[u8], tick: u64) -> usize {
        assert!(!ranks.is_empty(), "cannot choose a victim among zero ways");
        let ways = ranks.len();
        match self {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => ranks
                .iter()
                .position(|&age| usize::from(age) == ways - 1)
                .expect("a full set ranks one way oldest"),
            ReplacementPolicy::Random => {
                let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z % ways as u64) as usize
            }
        }
    }
}

/// Ages by one every way ranked below `rank` (the rank way `way` leaves)
/// and gives way `way` rank 0. Ranks below 255 never pass 255, so no byte
/// overflows.
#[inline]
fn make_youngest(ranks: &mut [u8], way: usize, rank: u8) {
    // The set sizes of the modelled caches age inline, a word of eight
    // ranks at a time; any other size ages out of line.
    match ranks.len() {
        2 => age_set::<2>(ranks, rank),
        4 => age_set::<4>(ranks, rank),
        8 => age_set::<8>(ranks, rank),
        16 => age_set::<16>(ranks, rank),
        _ => age_any_set(ranks, rank),
    }
    ranks[way] = 0;
}

/// Ages the `N` ranks of a set below `rank`, each run of up to eight as
/// one zero-extended word: padding bytes age too, then are dropped.
#[inline]
fn age_set<const N: usize>(ranks: &mut [u8], rank: u8) {
    let ranks: &mut [u8; N] = ranks.try_into().expect("a set of N ways");
    for run in ranks.chunks_mut(8) {
        let mut bytes = [0; 8];
        bytes[..run.len()].copy_from_slice(run);
        let aged = age_word(u64::from_le_bytes(bytes), rank).to_le_bytes();
        run.copy_from_slice(&aged[..run.len()]);
    }
}

/// Ages the ranks of a set of any size below `rank`, one at a time.
#[inline(never)]
fn age_any_set(ranks: &mut [u8], rank: u8) {
    for age in ranks {
        *age += u8::from(*age < rank);
    }
}

/// Adds one to every byte of `word` that is below `rank`, eight bytes at
/// once.
#[inline]
fn age_word(word: u64, rank: u8) -> u64 {
    const LOW: u64 = 0x0101_0101_0101_0101;
    const HIGH: u64 = 0x8080_8080_8080_8080;
    // Bit 7 of each byte of `low_ge` is set when the byte's low seven bits
    // are at least the rank's; `0x80 | low` minus a 7-bit value never
    // borrows from the next byte.
    let low_ge = (word | HIGH) - LOW * u64::from(rank & 0x7f);
    let below = if rank < 0x80 {
        // Below a rank under 128: a byte under 128 with smaller low bits.
        !word & !low_ge
    } else {
        // Below a rank of 128 or more: any byte under 128, or one with
        // smaller low bits.
        !word | !low_ge
    };
    word + ((below & HIGH) >> 7)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_picks_oldest_touch() {
        let ages = [0, 3, 1, 2];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&ages, 0), 1);
    }

    #[test]
    fn fifo_picks_oldest_insertion() {
        let ages = [2, 0, 3, 1];
        assert_eq!(ReplacementPolicy::Fifo.choose_victim(&ages, 0), 2);
    }

    #[test]
    fn random_is_deterministic_per_tick_and_in_range() {
        let ages = [0, 0, 0, 0];
        let a = ReplacementPolicy::Random.choose_victim(&ages, 42);
        let b = ReplacementPolicy::Random.choose_victim(&ages, 42);
        assert_eq!(a, b);
        assert!(a < 4);
    }

    #[test]
    fn lru_ties_resolve_to_lowest_way() {
        // Ranks never tie in a consistent set; the scan still settles on
        // the first way holding the oldest rank.
        let ages = [1, 2, 2];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&ages, 0), 1);
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn empty_ways_panics() {
        let _ = ReplacementPolicy::Lru.choose_victim(&[], 0);
    }

    #[test]
    fn a_word_ages_exactly_its_bytes_below_the_rank() {
        // Every byte against every rank, in every lane, beside neighbours
        // at both ends of both halves of the byte range.
        for rank in 0..=u8::MAX {
            for byte in 0..=u8::MAX {
                for lane in 0..8 {
                    for fill in [0, 0x7f, 0x80, 0xff] {
                        let mut bytes = [fill; 8];
                        bytes[lane] = byte;
                        let want = bytes.map(|b| b + u8::from(b < rank));
                        let aged = age_word(u64::from_le_bytes(bytes), rank).to_le_bytes();
                        assert_eq!(aged, want, "rank {rank}, bytes {bytes:?}");
                    }
                }
            }
        }
    }

    proptest! {
        #[test]
        fn victim_is_always_in_range(
            ways in 1usize..=256,
            tick in any::<u64>(),
            policy in prop::sample::select(vec![ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random])
        ) {
            let ages: Vec<u8> = (0..ways).rev().map(|age| age as u8).collect();
            let v = policy.choose_victim(&ages, tick);
            prop_assert!(v < ways);
        }

        #[test]
        fn lru_never_evicts_most_recent(ranks in proptest::collection::vec(any::<u64>(), 2..16)) {
            // Rank the ways by a random key: a random permutation of 0..ways.
            let mut order: Vec<usize> = (0..ranks.len()).collect();
            order.sort_by_key(|&way| (ranks[way], way));
            let mut ages = vec![0u8; ranks.len()];
            for (rank, &way) in order.iter().enumerate() {
                ages[way] = rank as u8;
            }
            let victim = ReplacementPolicy::Lru.choose_victim(&ages, 0);
            prop_assert_eq!(usize::from(ages[victim]), ages.len() - 1);
            prop_assert_ne!(ages[victim], 0);
        }

        #[test]
        fn making_a_way_youngest_ages_exactly_the_ways_below_its_rank(
            ways in prop::sample::select(vec![1usize, 2, 3, 4, 8, 12, 16, 32, 256]),
            bytes in proptest::collection::vec(any::<u8>(), 256..257),
            way in 0usize..256,
            rank in any::<u8>(),
        ) {
            // Any bytes at all, as the ranks of empty ways may be.
            let way = way % ways;
            let mut ranks = bytes[..ways].to_vec();
            let mut want: Vec<u8> = ranks.iter().map(|&r| r + u8::from(r < rank)).collect();
            want[way] = 0;
            make_youngest(&mut ranks, way, rank);
            prop_assert_eq!(ranks, want);
        }
    }
}
