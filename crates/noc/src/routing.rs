//! Distributed routing policies.

use crate::NodeId;
use rand::Rng;

/// How a node chooses among several valid output links.
///
/// L-NUCA topologies guarantee that *every* output link of a node leads
/// toward the destination (the r-tile for Transport, outward for
/// Replacement), so routing reduces to picking one of them. The paper picks
/// randomly to spread load; dimension-order is provided as the ablation
/// baseline it is compared against ("reduces contention in comparison to
/// dimensional order routing").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum RoutingPolicy {
    /// Pick uniformly at random among the valid outputs (paper default).
    #[default]
    RandomValid,
    /// Always pick the first valid output in a fixed (X-then-Y) order, so
    /// all messages between the same pair of tiles follow the same path.
    DimensionOrder,
}

impl RoutingPolicy {
    /// Chooses one output among `candidates`.
    ///
    /// Returns `None` when `candidates` is empty. The random policy draws
    /// from `rng`, which the caller seeds once per simulation for
    /// reproducibility.
    pub fn choose<R: Rng + ?Sized>(self, candidates: &[NodeId], rng: &mut R) -> Option<NodeId> {
        if candidates.is_empty() {
            return None;
        }
        match self {
            RoutingPolicy::RandomValid => {
                let idx = rng.gen_range(0..candidates.len());
                Some(candidates[idx])
            }
            RoutingPolicy::DimensionOrder => Some(candidates[0]),
        }
    }

    /// Chooses one output among `candidates`, restricted to those whose
    /// index satisfies `usable`. Falls back to `None` if no candidate is
    /// usable (e.g. all downstream buffers are Off).
    ///
    /// This runs without heap allocation so it can sit inside per-cycle
    /// loops; the price is that `usable` may be evaluated up to twice per
    /// candidate (once to count, once to select), so it must be cheap and
    /// yield the same answer both times within one call. It consumes exactly
    /// the same RNG draws as building the viable list and calling
    /// [`RoutingPolicy::choose`], so simulations keep their cycle-accurate
    /// reproducibility either way.
    pub fn choose_filtered<R, F>(
        self,
        candidates: &[NodeId],
        rng: &mut R,
        mut usable: F,
    ) -> Option<NodeId>
    where
        R: Rng + ?Sized,
        F: FnMut(NodeId) -> bool,
    {
        match self {
            RoutingPolicy::DimensionOrder => candidates.iter().copied().find(|&n| usable(n)),
            RoutingPolicy::RandomValid => {
                let viable = candidates.iter().filter(|&&n| usable(n)).count();
                if viable == 0 {
                    return None;
                }
                let idx = rng.gen_range(0..viable);
                candidates.iter().copied().filter(|&n| usable(n)).nth(idx)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn empty_candidates_yield_none() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(RoutingPolicy::RandomValid.choose(&[], &mut rng), None);
        assert_eq!(RoutingPolicy::DimensionOrder.choose(&[], &mut rng), None);
    }

    #[test]
    fn dimension_order_is_deterministic() {
        let mut rng = SmallRng::seed_from_u64(1);
        let candidates = [NodeId(3), NodeId(5), NodeId(7)];
        for _ in 0..10 {
            assert_eq!(
                RoutingPolicy::DimensionOrder.choose(&candidates, &mut rng),
                Some(NodeId(3))
            );
        }
    }

    #[test]
    fn random_valid_only_returns_candidates_and_covers_them() {
        let mut rng = SmallRng::seed_from_u64(42);
        let candidates = [NodeId(1), NodeId(2)];
        let mut seen = [false, false];
        for _ in 0..100 {
            let c = RoutingPolicy::RandomValid
                .choose(&candidates, &mut rng)
                .unwrap();
            assert!(candidates.contains(&c));
            seen[c.0 - 1] = true;
        }
        assert!(seen[0] && seen[1], "both outputs should be exercised over 100 draws");
    }

    #[test]
    fn random_valid_is_reproducible_from_the_seed() {
        let candidates = [NodeId(1), NodeId(2), NodeId(3)];
        let draw = |seed: u64| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20)
                .map(|_| {
                    RoutingPolicy::RandomValid
                        .choose(&candidates, &mut rng)
                        .unwrap()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(7), draw(7));
    }

    #[test]
    fn filtered_choice_respects_the_filter() {
        let mut rng = SmallRng::seed_from_u64(3);
        let candidates = [NodeId(1), NodeId(2), NodeId(3)];
        for _ in 0..50 {
            let c = RoutingPolicy::RandomValid
                .choose_filtered(&candidates, &mut rng, |n| n.0 % 2 == 1)
                .unwrap();
            assert!(c == NodeId(1) || c == NodeId(3));
        }
        assert_eq!(
            RoutingPolicy::RandomValid.choose_filtered(&candidates, &mut rng, |_| false),
            None
        );
    }

    #[test]
    fn filtered_choice_consumes_the_same_draws_as_collect_then_choose() {
        // The allocation-free path must stay drop-in: same RNG stream, same
        // picks as materialising the viable list first.
        let candidates = [NodeId(1), NodeId(2), NodeId(3), NodeId(4)];
        let usable = |n: NodeId| n.0 != 3;
        let mut rng_a = SmallRng::seed_from_u64(11);
        let mut rng_b = SmallRng::seed_from_u64(11);
        for _ in 0..50 {
            let fast = RoutingPolicy::RandomValid.choose_filtered(&candidates, &mut rng_a, usable);
            let viable: Vec<NodeId> = candidates.iter().copied().filter(|&n| usable(n)).collect();
            let slow = RoutingPolicy::RandomValid.choose(&viable, &mut rng_b);
            assert_eq!(fast, slow);
        }
    }
}
