//! A per-cycle crossbar / switch-allocation model.

use lnuca_types::Cycle;

/// A cut-through crossbar that grants each output port to at most one input
/// per cycle and counts traversals for the energy model.
///
/// The paper reduces the L-NUCA transport crossbar from 5 inputs to 3 by
/// exploiting content exclusion (a block can hit either in the cache or in a
/// U buffer, never both); the input/output counts here are configuration
/// parameters so both the full and the cut-through variants can be modelled
/// and compared in the ablation benches.
///
/// # Example
///
/// ```
/// use lnuca_noc::Crossbar;
/// use lnuca_types::Cycle;
///
/// let mut xbar = Crossbar::new(3, 2);
/// assert!(xbar.try_grant(0, 1, Cycle(5)));
/// assert!(!xbar.try_grant(2, 1, Cycle(5)), "output 1 already granted this cycle");
/// assert!(xbar.try_grant(2, 0, Cycle(5)));
/// assert_eq!(xbar.traversals(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    inputs: usize,
    outputs: usize,
    granted_at: Vec<Cycle>,
    granted_valid: Vec<bool>,
    traversals: u64,
    conflicts: u64,
}

impl Crossbar {
    /// Creates a crossbar with the given number of input and output ports.
    ///
    /// # Panics
    ///
    /// Panics if either count is zero.
    #[must_use]
    pub fn new(inputs: usize, outputs: usize) -> Self {
        assert!(inputs > 0, "crossbar needs at least one input");
        assert!(outputs > 0, "crossbar needs at least one output");
        Crossbar {
            inputs,
            outputs,
            granted_at: vec![Cycle::ZERO; outputs],
            granted_valid: vec![false; outputs],
            traversals: 0,
            conflicts: 0,
        }
    }

    /// Number of input ports.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Number of output ports.
    #[must_use]
    pub fn outputs(&self) -> usize {
        self.outputs
    }

    /// Requests the crossbar to connect `input` to `output` during `now`.
    ///
    /// Returns `true` and records a traversal if the output port has not
    /// been granted to any input this cycle; returns `false` (a switch
    /// allocation conflict) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `input` or `output` is out of range.
    pub fn try_grant(&mut self, input: usize, output: usize, now: Cycle) -> bool {
        assert!(input < self.inputs, "input port {input} out of range");
        assert!(output < self.outputs, "output port {output} out of range");
        if self.granted_valid[output] && self.granted_at[output] == now {
            self.conflicts += 1;
            return false;
        }
        self.granted_at[output] = now;
        self.granted_valid[output] = true;
        self.traversals += 1;
        true
    }

    /// Total successful traversals (used by the Orion-style energy model).
    #[must_use]
    pub fn traversals(&self) -> u64 {
        self.traversals
    }

    /// Total switch-allocation conflicts.
    #[must_use]
    pub fn conflicts(&self) -> u64 {
        self.conflicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_granted_once_per_cycle() {
        let mut x = Crossbar::new(5, 2);
        assert!(x.try_grant(0, 0, Cycle(1)));
        assert!(!x.try_grant(1, 0, Cycle(1)));
        assert!(x.try_grant(1, 1, Cycle(1)));
        assert_eq!(x.traversals(), 2);
        assert_eq!(x.conflicts(), 1);
    }

    #[test]
    fn grants_refresh_in_later_cycles() {
        let mut x = Crossbar::new(2, 1);
        assert!(x.try_grant(0, 0, Cycle(1)));
        assert!(x.try_grant(1, 0, Cycle(2)));
        assert!(x.try_grant(0, 0, Cycle(3)));
        assert_eq!(x.traversals(), 3);
    }

    #[test]
    fn cycle_zero_is_grantable() {
        let mut x = Crossbar::new(1, 1);
        assert!(x.try_grant(0, 0, Cycle(0)));
        assert!(!x.try_grant(0, 0, Cycle(0)));
    }

    #[test]
    fn geometry_accessors() {
        let x = Crossbar::new(3, 4);
        assert_eq!(x.inputs(), 3);
        assert_eq!(x.outputs(), 4);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_port_panics() {
        let mut x = Crossbar::new(2, 2);
        let _ = x.try_grant(5, 0, Cycle(0));
    }
}
