//! Directed network topologies over abstract node identifiers.

use std::collections::VecDeque;
use std::fmt;

/// Identifier of a network node (a tile, a bank or a router).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "node {}", self.0)
    }
}

/// A directed graph describing one of the L-NUCA networks (or any other
/// on-chip interconnect) as adjacency lists.
///
/// The L-NUCA paper relies on three structural properties that this type
/// makes easy to check and test: the number of links, the maximum distance
/// from/to the root tile, and the node degree (the paper argues its
/// topologies keep all three small). See [`Topology::out_degree`],
/// [`Topology::distance`] and [`Topology::link_count`].
///
/// # Example
///
/// ```
/// use lnuca_noc::{NodeId, Topology};
///
/// // A 3-node chain 0 -> 1 -> 2.
/// let mut t = Topology::new(3);
/// t.add_edge(NodeId(0), NodeId(1));
/// t.add_edge(NodeId(1), NodeId(2));
/// assert_eq!(t.link_count(), 2);
/// assert_eq!(t.distance(NodeId(0), NodeId(2)), Some(2));
/// assert_eq!(t.distance(NodeId(2), NodeId(0)), None); // links are unidirectional
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Topology {
    out_edges: Vec<Vec<NodeId>>,
    in_edges: Vec<Vec<NodeId>>,
}

impl Topology {
    /// Creates a topology with `nodes` isolated nodes.
    #[must_use]
    pub fn new(nodes: usize) -> Self {
        Topology {
            out_edges: vec![Vec::new(); nodes],
            in_edges: vec![Vec::new(); nodes],
        }
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.out_edges.len()
    }

    /// Total number of directed links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.out_edges.iter().map(Vec::len).sum()
    }

    /// Adds a unidirectional link `from -> to`. Duplicate links are ignored.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or if `from == to`.
    pub fn add_edge(&mut self, from: NodeId, to: NodeId) {
        assert!(from.0 < self.node_count(), "source {from} out of range");
        assert!(to.0 < self.node_count(), "destination {to} out of range");
        assert_ne!(from, to, "self-links are not allowed");
        if !self.out_edges[from.0].contains(&to) {
            self.out_edges[from.0].push(to);
            self.in_edges[to.0].push(from);
        }
    }

    /// Output neighbours of `node`.
    #[must_use]
    pub fn successors(&self, node: NodeId) -> &[NodeId] {
        &self.out_edges[node.0]
    }

    /// Input neighbours of `node`.
    #[must_use]
    pub fn predecessors(&self, node: NodeId) -> &[NodeId] {
        &self.in_edges[node.0]
    }

    /// Number of output links of `node`.
    #[must_use]
    pub fn out_degree(&self, node: NodeId) -> usize {
        self.out_edges[node.0].len()
    }

    /// Number of input links of `node`.
    #[must_use]
    pub fn in_degree(&self, node: NodeId) -> usize {
        self.in_edges[node.0].len()
    }

    /// Total degree (inputs + outputs) of `node`, the quantity the paper
    /// minimises for the Replacement network.
    #[must_use]
    pub fn degree(&self, node: NodeId) -> usize {
        self.in_degree(node) + self.out_degree(node)
    }

    /// Length (in hops) of the shortest directed path `from -> to`, or
    /// `None` if `to` is unreachable.
    #[must_use]
    pub fn distance(&self, from: NodeId, to: NodeId) -> Option<usize> {
        if from == to {
            return Some(0);
        }
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[from.0] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for &next in &self.out_edges[n.0] {
                if dist[next.0] == usize::MAX {
                    dist[next.0] = dist[n.0] + 1;
                    if next == to {
                        return Some(dist[next.0]);
                    }
                    queue.push_back(next);
                }
            }
        }
        None
    }

    /// Shortest-path distance from `from` to every node (`usize::MAX` when
    /// unreachable).
    #[must_use]
    pub fn distances_from(&self, from: NodeId) -> Vec<usize> {
        let mut dist = vec![usize::MAX; self.node_count()];
        dist[from.0] = 0;
        let mut queue = VecDeque::from([from]);
        while let Some(n) = queue.pop_front() {
            for &next in &self.out_edges[n.0] {
                if dist[next.0] == usize::MAX {
                    dist[next.0] = dist[n.0] + 1;
                    queue.push_back(next);
                }
            }
        }
        dist
    }

    /// The largest finite distance from `from` to any reachable node.
    #[must_use]
    pub fn eccentricity(&self, from: NodeId) -> usize {
        self.distances_from(from)
            .into_iter()
            .filter(|&d| d != usize::MAX)
            .max()
            .unwrap_or(0)
    }

    /// Returns `true` if every node is reachable from `from`.
    #[must_use]
    pub fn all_reachable_from(&self, from: NodeId) -> bool {
        self.distances_from(from).iter().all(|&d| d != usize::MAX)
    }

    /// Returns `true` if the directed graph contains a cycle.
    ///
    /// The L-NUCA deadlock-freedom argument rests on the absence of cyclic
    /// dependencies among messages; the individual Transport and Replacement
    /// topologies are acyclic by construction and the tests assert it.
    #[must_use]
    pub fn has_cycle(&self) -> bool {
        // Kahn's algorithm: a cycle exists iff not all nodes can be removed.
        let mut in_deg: Vec<usize> = (0..self.node_count())
            .map(|i| self.in_edges[i].len())
            .collect();
        let mut queue: VecDeque<usize> = in_deg
            .iter()
            .enumerate()
            .filter(|(_, &d)| d == 0)
            .map(|(i, _)| i)
            .collect();
        let mut removed = 0;
        while let Some(n) = queue.pop_front() {
            removed += 1;
            for &next in &self.out_edges[n] {
                in_deg[next.0] -= 1;
                if in_deg[next.0] == 0 {
                    queue.push_back(next.0);
                }
            }
        }
        removed != self.node_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn chain(n: usize) -> Topology {
        let mut t = Topology::new(n);
        for i in 0..n - 1 {
            t.add_edge(NodeId(i), NodeId(i + 1));
        }
        t
    }

    #[test]
    fn distances_on_a_chain() {
        let t = chain(5);
        assert_eq!(t.distance(NodeId(0), NodeId(4)), Some(4));
        assert_eq!(t.distance(NodeId(4), NodeId(0)), None);
        assert_eq!(t.distance(NodeId(2), NodeId(2)), Some(0));
        assert_eq!(t.eccentricity(NodeId(0)), 4);
        assert!(t.all_reachable_from(NodeId(0)));
        assert!(!t.all_reachable_from(NodeId(1)));
    }

    #[test]
    fn duplicate_edges_are_ignored() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(1));
        t.add_edge(NodeId(0), NodeId(1));
        assert_eq!(t.link_count(), 1);
        assert_eq!(t.out_degree(NodeId(0)), 1);
        assert_eq!(t.in_degree(NodeId(1)), 1);
        assert_eq!(t.degree(NodeId(1)), 1);
    }

    #[test]
    fn cycle_detection() {
        let mut t = chain(3);
        assert!(!t.has_cycle());
        t.add_edge(NodeId(2), NodeId(0));
        assert!(t.has_cycle());
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_links_rejected() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(1), NodeId(1));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_rejected() {
        let mut t = Topology::new(2);
        t.add_edge(NodeId(0), NodeId(5));
    }

    proptest! {
        #[test]
        fn distance_is_triangle_consistent(edges in proptest::collection::vec((0usize..12, 0usize..12), 0..60)) {
            let mut t = Topology::new(12);
            for (a, b) in edges {
                if a != b {
                    t.add_edge(NodeId(a), NodeId(b));
                }
            }
            // d(a,c) <= d(a,b) + d(b,c) whenever both legs exist.
            for a in 0..12 {
                for b in 0..12 {
                    for c in 0..12 {
                        if let (Some(ab), Some(bc)) = (t.distance(NodeId(a), NodeId(b)), t.distance(NodeId(b), NodeId(c))) {
                            let ac = t.distance(NodeId(a), NodeId(c)).expect("path a->b->c exists");
                            prop_assert!(ac <= ab + bc);
                        }
                    }
                }
            }
        }

        #[test]
        fn link_count_equals_sum_of_degrees_halved(edges in proptest::collection::vec((0usize..10, 0usize..10), 0..40)) {
            let mut t = Topology::new(10);
            for (a, b) in edges {
                if a != b {
                    t.add_edge(NodeId(a), NodeId(b));
                }
            }
            let total_degree: usize = (0..10).map(|i| t.degree(NodeId(i))).sum();
            prop_assert_eq!(total_degree, 2 * t.link_count());
        }
    }
}
