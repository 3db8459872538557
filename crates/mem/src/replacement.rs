//! Replacement policies for set-associative arrays.


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
    /// Evict a pseudo-random line (deterministic xorshift sequence).
    Random,
}

impl ReplacementPolicy {
    /// Chooses the way to evict among `ways` candidate lines.
    ///
    /// `last_use[i]` is the last-touch timestamp of way `i`, `inserted[i]` its
    /// fill timestamp and `tick` a monotonically increasing value used to
    /// derandomise the `Random` policy deterministically.
    ///
    /// # Panics
    ///
    /// Panics if the slices are empty or have different lengths.
    #[must_use]
    pub fn choose_victim(self, last_use: &[u64], inserted: &[u64], tick: u64) -> usize {
        assert_eq!(last_use.len(), inserted.len(), "way metadata length mismatch");
        self.choose_victim_from(last_use.iter().copied().zip(inserted.iter().copied()), tick)
    }

    /// Chooses the way to evict, streaming `(last_use, inserted)` pairs
    /// instead of materialising two slices.
    ///
    /// This is the form the per-cycle loops use: a cache array can feed its
    /// way metadata straight from its set without building temporary `Vec`s
    /// (the zero-allocation invariant of DESIGN.md §9). Ties resolve to the
    /// lowest way index, exactly like [`ReplacementPolicy::choose_victim`].
    ///
    /// # Panics
    ///
    /// Panics if `ways` yields no items.
    #[must_use]
    pub fn choose_victim_from<I>(self, ways: I, tick: u64) -> usize
    where
        I: IntoIterator<Item = (u64, u64)>,
    {
        let mut count = 0usize;
        let mut min_last_use = (0usize, u64::MAX);
        let mut min_inserted = (0usize, u64::MAX);
        for (i, (last_use, inserted)) in ways.into_iter().enumerate() {
            count += 1;
            if last_use < min_last_use.1 {
                min_last_use = (i, last_use);
            }
            if inserted < min_inserted.1 {
                min_inserted = (i, inserted);
            }
        }
        assert!(count > 0, "cannot choose a victim among zero ways");
        match self {
            ReplacementPolicy::Lru => min_last_use.0,
            ReplacementPolicy::Fifo => min_inserted.0,
            ReplacementPolicy::Random => {
                // SplitMix64 step keeps the choice deterministic per tick.
                let mut z = tick.wrapping_add(0x9E37_79B9_7F4A_7C15);
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                z ^= z >> 31;
                (z % count as u64) as usize
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn lru_picks_oldest_touch() {
        let last_use = [10, 3, 7, 9];
        let inserted = [0, 0, 0, 0];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&last_use, &inserted, 0), 1);
    }

    #[test]
    fn fifo_picks_oldest_insertion() {
        let last_use = [10, 3, 7, 9];
        let inserted = [5, 9, 2, 8];
        assert_eq!(ReplacementPolicy::Fifo.choose_victim(&last_use, &inserted, 0), 2);
    }

    #[test]
    fn random_is_deterministic_per_tick_and_in_range() {
        let last_use = [0, 0, 0, 0];
        let inserted = [0, 0, 0, 0];
        let a = ReplacementPolicy::Random.choose_victim(&last_use, &inserted, 42);
        let b = ReplacementPolicy::Random.choose_victim(&last_use, &inserted, 42);
        assert_eq!(a, b);
        assert!(a < 4);
    }

    #[test]
    fn lru_ties_resolve_to_lowest_way() {
        let last_use = [5, 5, 5];
        let inserted = [0, 0, 0];
        assert_eq!(ReplacementPolicy::Lru.choose_victim(&last_use, &inserted, 0), 0);
    }

    #[test]
    #[should_panic(expected = "zero ways")]
    fn empty_ways_panics() {
        let _ = ReplacementPolicy::Lru.choose_victim(&[], &[], 0);
    }

    proptest! {
        #[test]
        fn victim_is_always_in_range(
            ways in 1usize..16,
            tick in any::<u64>(),
            policy in prop::sample::select(vec![ReplacementPolicy::Lru, ReplacementPolicy::Fifo, ReplacementPolicy::Random])
        ) {
            let last_use: Vec<u64> = (0..ways as u64).collect();
            let inserted: Vec<u64> = (0..ways as u64).rev().collect();
            let v = policy.choose_victim(&last_use, &inserted, tick);
            prop_assert!(v < ways);
        }

        #[test]
        fn lru_never_evicts_most_recent(ways in 2usize..16, touches in proptest::collection::vec(0u64..1000, 2..16)) {
            let ways = ways.min(touches.len());
            let last_use = &touches[..ways];
            let inserted = vec![0u64; ways];
            let victim = ReplacementPolicy::Lru.choose_victim(last_use, &inserted, 0);
            let max_pos = last_use.iter().enumerate().max_by_key(|(_, &v)| v).map(|(i, _)| i).unwrap();
            if last_use.iter().filter(|&&v| v == last_use[max_pos]).count() == 1 && last_use[victim] != last_use[max_pos] {
                prop_assert_ne!(victim, max_pos);
            }
        }
    }
}
