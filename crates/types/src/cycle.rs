//! Simulation time expressed in processor cycles.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, measured in processor clock cycles.
///
/// The whole simulator is clocked at the processor frequency (the paper
/// assumes a 19 FO4 cycle); slower components express their latencies as a
/// number of processor cycles.
///
/// # Example
///
/// ```
/// use lnuca_types::Cycle;
///
/// let start = Cycle(100);
/// let done = start + 20;
/// assert_eq!(done, Cycle(120));
/// assert_eq!(done - start, 20);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Cycle(pub u64);

impl Cycle {
    /// The zero cycle (simulation start).
    pub const ZERO: Cycle = Cycle(0);

    /// Returns the later of two cycles.
    #[must_use]
    pub fn max(self, other: Cycle) -> Cycle {
        Cycle(self.0.max(other.0))
    }

    /// Returns the earlier of two cycles.
    #[must_use]
    pub fn min(self, other: Cycle) -> Cycle {
        Cycle(self.0.min(other.0))
    }

    /// Returns the number of cycles elapsed since `earlier`, saturating at
    /// zero if `earlier` is in the future.
    #[must_use]
    pub fn since(self, earlier: Cycle) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// Returns this cycle advanced by one.
    #[must_use]
    pub fn next(self) -> Cycle {
        Cycle(self.0 + 1)
    }

    /// Folds the event time `at`, clamped to be no earlier than `floor`,
    /// into the running minimum `horizon`.
    ///
    /// This is the one building block of every `next_event` implementation
    /// (the event-horizon contract of DESIGN.md §10): horizons are minima
    /// over per-source event times, and no reported event may precede
    /// `floor` (= the cycle after the tick that just ran). Centralising the
    /// clamp keeps the strictly-after-`now` rule in one place.
    pub fn merge_horizon(horizon: &mut Option<Cycle>, at: Cycle, floor: Cycle) {
        let at = at.max(floor);
        *horizon = Some(horizon.map_or(at, |cur| cur.min(at)));
    }
}

impl fmt::Display for Cycle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}", self.0)
    }
}

impl Add<u64> for Cycle {
    type Output = Cycle;

    fn add(self, rhs: u64) -> Cycle {
        Cycle(self.0 + rhs)
    }
}

impl AddAssign<u64> for Cycle {
    fn add_assign(&mut self, rhs: u64) {
        self.0 += rhs;
    }
}

impl Sub<Cycle> for Cycle {
    type Output = u64;

    fn sub(self, rhs: Cycle) -> u64 {
        self.0 - rhs.0
    }
}

impl From<u64> for Cycle {
    fn from(value: u64) -> Self {
        Cycle(value)
    }
}

impl From<Cycle> for u64 {
    fn from(value: Cycle) -> Self {
        value.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic_behaves_like_u64() {
        let c = Cycle(5);
        assert_eq!(c + 3, Cycle(8));
        assert_eq!(Cycle(8) - c, 3);
        let mut m = Cycle(1);
        m += 9;
        assert_eq!(m, Cycle(10));
    }

    #[test]
    fn since_saturates() {
        assert_eq!(Cycle(10).since(Cycle(3)), 7);
        assert_eq!(Cycle(3).since(Cycle(10)), 0);
    }

    #[test]
    fn min_max_and_next() {
        assert_eq!(Cycle(3).max(Cycle(7)), Cycle(7));
        assert_eq!(Cycle(3).min(Cycle(7)), Cycle(3));
        assert_eq!(Cycle(3).next(), Cycle(4));
        assert_eq!(Cycle::ZERO, Cycle(0));
    }

    #[test]
    fn display_mentions_cycle() {
        assert_eq!(Cycle(42).to_string(), "cycle 42");
    }

    #[test]
    fn ordering_follows_time() {
        assert!(Cycle(1) < Cycle(2));
        assert!(Cycle(2) >= Cycle(2));
    }

    #[test]
    fn merge_horizon_takes_the_floored_minimum() {
        let floor = Cycle(10);
        let mut horizon = None;
        Cycle::merge_horizon(&mut horizon, Cycle(25), floor);
        assert_eq!(horizon, Some(Cycle(25)));
        Cycle::merge_horizon(&mut horizon, Cycle(40), floor);
        assert_eq!(horizon, Some(Cycle(25)), "later events do not lower the minimum");
        Cycle::merge_horizon(&mut horizon, Cycle(3), floor);
        assert_eq!(horizon, Some(Cycle(10)), "events before the floor clamp to it");
    }
}
