//! A virtual-channel wormhole 2-D mesh latency model.
//!
//! This is the network the D-NUCA baseline uses (Table I: 32-byte flits,
//! 1–5 flits per message, four virtual channels with 4-entry buffers,
//! 1-cycle routing latency). L-NUCA deliberately avoids this router — the
//! comparison between the two is one of the paper's main arguments — so this
//! model lives in the generic NoC crate and is consumed by `lnuca-dnuca`.

use lnuca_types::{ConfigError, Cycle};

/// Configuration of a [`WormholeMesh`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MeshConfig {
    /// Number of columns of routers.
    pub cols: usize,
    /// Number of rows of routers.
    pub rows: usize,
    /// Per-hop routing (pipeline) latency in cycles, excluding link traversal.
    pub routing_latency: u64,
    /// Virtual channels per physical link.
    pub virtual_channels: usize,
}

impl Default for MeshConfig {
    fn default() -> Self {
        MeshConfig {
            cols: 8,
            rows: 4,
            routing_latency: 1,
            virtual_channels: 4,
        }
    }
}

impl MeshConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any dimension or the VC count is zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.cols == 0 || self.rows == 0 {
            return Err(ConfigError::new("cols/rows", "mesh dimensions must be nonzero"));
        }
        if self.virtual_channels == 0 {
            return Err(ConfigError::new("virtual_channels", "must be nonzero"));
        }
        Ok(())
    }
}

/// Statistics accumulated by a [`WormholeMesh`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MeshStats {
    /// Messages injected.
    pub messages: u64,
    /// Total hops traversed by all messages.
    pub hops: u64,
    /// Total flit-link traversals (for dynamic energy accounting).
    pub flit_hops: u64,
    /// Cycles spent waiting for a virtual channel to free.
    pub contention_cycles: u64,
}

/// An X-then-Y wormhole-routed mesh with per-link virtual-channel occupancy.
///
/// The model is latency-oriented: each directed link keeps, per virtual
/// channel, the cycle at which it becomes free; a message claims the
/// earliest-free VC at every hop, pays the routing + serialization latency
/// and advances. This captures the two effects the paper cares about —
/// multi-cycle bank-to-controller distance and queueing under miss bursts —
/// without simulating individual flits.
///
/// # Example
///
/// ```
/// use lnuca_noc::{MeshConfig, WormholeMesh};
/// use lnuca_types::Cycle;
///
/// let mut mesh = WormholeMesh::new(MeshConfig { cols: 4, rows: 4, ..MeshConfig::default() })?;
/// // A single-flit message across 3+3 hops, 2 cycles per hop.
/// let arrival = mesh.traverse((0, 0), (3, 3), 1, Cycle(0));
/// assert_eq!(arrival, Cycle(12));
/// # Ok::<(), lnuca_types::ConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct WormholeMesh {
    config: MeshConfig,
    /// `vc_free_at[link][vc]`, links indexed as directed edges.
    vc_free_at: Vec<Vec<Cycle>>,
    stats: MeshStats,
}

impl WormholeMesh {
    /// Creates an unloaded mesh.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if the configuration is invalid.
    pub fn new(config: MeshConfig) -> Result<Self, ConfigError> {
        config.validate()?;
        // Each node has up to 4 outgoing links; index = node * 4 + direction.
        let links = config.cols * config.rows * 4;
        Ok(WormholeMesh {
            config,
            vc_free_at: vec![vec![Cycle::ZERO; config.virtual_channels]; links],
            stats: MeshStats::default(),
        })
    }

    /// The configuration this mesh was built with.
    #[must_use]
    pub fn config(&self) -> &MeshConfig {
        &self.config
    }

    /// Accumulated statistics.
    #[must_use]
    pub fn stats(&self) -> &MeshStats {
        &self.stats
    }

    /// Earliest cycle strictly after `now` at which a currently-busy virtual
    /// channel frees, or `None` when every link is already idle.
    ///
    /// This documents the event-horizon contract (DESIGN.md §10) for the
    /// mesh, but the simulation engine does not need to consult it: the
    /// mesh is a passive latency model — its state only changes through
    /// [`WormholeMesh::traverse`], whose delays the hierarchies fold into
    /// eagerly computed completion times — so mesh contention is already
    /// covered by the completion horizons. Exposed for observability and
    /// for drivers that step the mesh directly.
    #[must_use]
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        self.vc_free_at
            .iter()
            .flatten()
            .copied()
            .filter(|&free_at| free_at > now)
            .min()
    }

    /// Manhattan hop count between two router coordinates.
    #[must_use]
    pub fn hop_count(&self, from: (usize, usize), to: (usize, usize)) -> u64 {
        (from.0.abs_diff(to.0) + from.1.abs_diff(to.1)) as u64
    }

    /// Sends a `flits`-flit message from router `from` to router `to`
    /// starting at `now`, using X-then-Y routing, and returns the cycle at
    /// which the last flit arrives at the destination.
    ///
    /// # Panics
    ///
    /// Panics if either coordinate lies outside the mesh or `flits` is zero.
    pub fn traverse(
        &mut self,
        from: (usize, usize),
        to: (usize, usize),
        flits: u64,
        now: Cycle,
    ) -> Cycle {
        assert!(flits > 0, "a message has at least one flit");
        assert!(
            from.0 < self.config.cols && from.1 < self.config.rows,
            "source router out of range"
        );
        assert!(
            to.0 < self.config.cols && to.1 < self.config.rows,
            "destination router out of range"
        );
        self.stats.messages += 1;

        let per_hop = self.config.routing_latency + 1; // route + link traversal
        let mut head_time = now;
        let mut pos = from;
        while pos != to {
            let (next, dir) = if pos.0 != to.0 {
                if pos.0 < to.0 {
                    ((pos.0 + 1, pos.1), 0)
                } else {
                    ((pos.0 - 1, pos.1), 1)
                }
            } else if pos.1 < to.1 {
                ((pos.0, pos.1 + 1), 2)
            } else {
                ((pos.0, pos.1 - 1), 3)
            };
            let link = (pos.1 * self.config.cols + pos.0) * 4 + dir;
            // Claim the earliest-free virtual channel on this link.
            let (vc_idx, &free_at) = self.vc_free_at[link]
                .iter()
                .enumerate()
                .min_by_key(|(_, &c)| c)
                .expect("at least one virtual channel");
            let start = head_time.max(free_at);
            self.stats.contention_cycles += start.since(head_time);
            // The link carries all flits of the message (wormhole): busy for
            // the serialization time after the head goes through.
            self.vc_free_at[link][vc_idx] = start + per_hop + (flits - 1);
            head_time = start + per_hop;
            self.stats.hops += 1;
            self.stats.flit_hops += flits;
            pos = next;
        }
        // Remaining flits stream in behind the head.
        head_time + (flits - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn mesh_4x4() -> WormholeMesh {
        WormholeMesh::new(MeshConfig {
            cols: 4,
            rows: 4,
            routing_latency: 1,
            virtual_channels: 4,
        })
        .unwrap()
    }

    #[test]
    fn invalid_configs_rejected() {
        assert!(WormholeMesh::new(MeshConfig { cols: 0, ..MeshConfig::default() }).is_err());
        assert!(WormholeMesh::new(MeshConfig { virtual_channels: 0, ..MeshConfig::default() }).is_err());
    }

    #[test]
    fn unloaded_latency_is_hops_times_per_hop_plus_serialization() {
        let mut m = mesh_4x4();
        // 6 hops, 2 cycles each, 1 flit.
        assert_eq!(m.traverse((0, 0), (3, 3), 1, Cycle(0)), Cycle(12));
        // 4-flit message adds 3 cycles of serialization.
        let mut m = mesh_4x4();
        assert_eq!(m.traverse((0, 0), (3, 3), 4, Cycle(0)), Cycle(15));
    }

    #[test]
    fn zero_hop_messages_only_pay_serialization() {
        let mut m = mesh_4x4();
        assert_eq!(m.traverse((2, 2), (2, 2), 5, Cycle(10)), Cycle(14));
        assert_eq!(m.stats().hops, 0);
    }

    #[test]
    fn contention_appears_when_vcs_are_exhausted() {
        let mut m = WormholeMesh::new(MeshConfig {
            cols: 2,
            rows: 1,
            routing_latency: 1,
            virtual_channels: 1,
        })
        .unwrap();
        let a = m.traverse((0, 0), (1, 0), 5, Cycle(0));
        let b = m.traverse((0, 0), (1, 0), 5, Cycle(0));
        assert_eq!(a, Cycle(6));
        assert!(b > a, "second message must queue behind the first on the single VC");
        assert!(m.stats().contention_cycles > 0);
    }

    #[test]
    fn more_virtual_channels_reduce_contention() {
        let run = |vcs: usize| {
            let mut m = WormholeMesh::new(MeshConfig {
                cols: 2,
                rows: 1,
                routing_latency: 1,
                virtual_channels: vcs,
            })
            .unwrap();
            for _ in 0..8 {
                m.traverse((0, 0), (1, 0), 5, Cycle(0));
            }
            m.stats().contention_cycles
        };
        assert!(run(4) < run(1));
    }

    #[test]
    fn next_event_tracks_busy_virtual_channels() {
        let mut m = mesh_4x4();
        assert_eq!(m.next_event(Cycle(0)), None, "an unloaded mesh has no events");
        m.traverse((0, 0), (1, 0), 4, Cycle(0));
        let horizon = m.next_event(Cycle(0)).expect("a link is busy");
        assert!(horizon > Cycle(0));
        assert_eq!(m.next_event(horizon), None, "after the horizon the mesh is idle again");
    }

    #[test]
    fn hop_count_is_manhattan_distance() {
        let m = mesh_4x4();
        assert_eq!(m.hop_count((0, 0), (3, 3)), 6);
        assert_eq!(m.hop_count((2, 1), (2, 1)), 0);
        assert_eq!(m.hop_count((3, 0), (0, 2)), 5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_coordinates_panic() {
        let mut m = mesh_4x4();
        let _ = m.traverse((0, 0), (9, 9), 1, Cycle(0));
    }

    proptest! {
        #[test]
        fn latency_is_at_least_unloaded_latency(
            from in (0usize..4, 0usize..4),
            to in (0usize..4, 0usize..4),
            flits in 1u64..6,
            start in 0u64..1000,
        ) {
            let mut m = mesh_4x4();
            let hops = m.hop_count(from, to);
            let arrival = m.traverse(from, to, flits, Cycle(start));
            let unloaded = start + hops * 2 + (flits - 1);
            prop_assert_eq!(arrival, Cycle(unloaded), "an unloaded mesh adds no contention");
        }

        #[test]
        fn repeated_traffic_is_monotonically_delayed(flits in 1u64..6, count in 1usize..20) {
            let mut m = WormholeMesh::new(MeshConfig { cols: 3, rows: 1, routing_latency: 1, virtual_channels: 2 }).unwrap();
            let mut last = Cycle(0);
            for _ in 0..count {
                let arrival = m.traverse((0, 0), (2, 0), flits, Cycle(0));
                prop_assert!(arrival >= last);
                last = arrival;
            }
        }
    }
}
