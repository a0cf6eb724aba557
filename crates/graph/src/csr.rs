use std::error::Error;
use std::fmt;

use ron_metric::Node;

/// Errors raised when building or validating graphs.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum GraphError {
    /// An edge endpoint is out of the declared node range.
    NodeOutOfRange {
        /// The offending node.
        node: Node,
        /// Declared node count.
        n: usize,
    },
    /// An edge weight is not a positive finite number.
    InvalidWeight {
        /// Edge tail.
        u: Node,
        /// Edge head.
        v: Node,
        /// The offending weight.
        weight: f64,
    },
    /// A self-loop was added.
    SelfLoop {
        /// The node with the loop.
        u: Node,
    },
    /// The graph is not connected but the operation requires it.
    Disconnected,
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, n } => {
                write!(f, "node {node} out of range for graph with {n} nodes")
            }
            GraphError::InvalidWeight { u, v, weight } => {
                write!(f, "edge ({u}, {v}) has invalid weight {weight}")
            }
            GraphError::SelfLoop { u } => write!(f, "self-loop at {u}"),
            GraphError::Disconnected => write!(f, "graph is not connected"),
            GraphError::Empty => write!(f, "graph has no nodes"),
        }
    }
}

impl Error for GraphError {}

/// Incremental builder for [`Graph`].
///
/// # Example
///
/// ```
/// use ron_graph::GraphBuilder;
/// use ron_metric::Node;
///
/// let mut b = GraphBuilder::new(3);
/// b.add_undirected(Node::new(0), Node::new(1), 1.0)?;
/// b.add_undirected(Node::new(1), Node::new(2), 2.5)?;
/// let g = b.build();
/// assert_eq!(g.out_degree(Node::new(1)), 2);
/// # Ok::<(), ron_graph::GraphError>(())
/// ```
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    arcs: Vec<(u32, u32, f64)>,
}

impl GraphBuilder {
    /// Starts a builder for a graph on `n` nodes.
    #[must_use]
    pub fn new(n: usize) -> Self {
        GraphBuilder {
            n,
            arcs: Vec::new(),
        }
    }

    /// Adds an undirected edge (two arcs) with the given positive weight.
    ///
    /// Duplicate edges are kept; the routing schemes treat parallel links as
    /// distinct out-links, which only wastes pointer bits.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops and non-positive or
    /// non-finite weights.
    pub fn add_undirected(&mut self, u: Node, v: Node, weight: f64) -> Result<(), GraphError> {
        self.add_directed(u, v, weight)?;
        self.add_directed(v, u, weight)
    }

    /// Adds a single directed arc with the given positive weight.
    ///
    /// # Errors
    ///
    /// Rejects out-of-range endpoints, self-loops and non-positive or
    /// non-finite weights.
    pub fn add_directed(&mut self, u: Node, v: Node, weight: f64) -> Result<(), GraphError> {
        if u.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: u, n: self.n });
        }
        if v.index() >= self.n {
            return Err(GraphError::NodeOutOfRange { node: v, n: self.n });
        }
        if u == v {
            return Err(GraphError::SelfLoop { u });
        }
        if !weight.is_finite() || weight <= 0.0 {
            return Err(GraphError::InvalidWeight { u, v, weight });
        }
        self.arcs.push((u.index() as u32, v.index() as u32, weight));
        Ok(())
    }

    /// Finalizes into a CSR [`Graph`]. Arcs are sorted by (tail, head).
    #[must_use]
    pub fn build(self) -> Graph {
        let mut arcs = self.arcs;
        arcs.sort_by_key(|a| (a.0, a.1));
        let mut offsets = vec![0u32; self.n + 1];
        for &(u, _, _) in &arcs {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..self.n {
            offsets[i + 1] += offsets[i];
        }
        let heads: Vec<u32> = arcs.iter().map(|a| a.1).collect();
        let weights: Vec<f64> = arcs.iter().map(|a| a.2).collect();
        Graph {
            n: self.n,
            offsets,
            heads,
            weights,
        }
    }
}

/// A weighted directed graph in compressed sparse row form.
///
/// Undirected graphs are represented as symmetric arc pairs. Out-links of a
/// node have stable *slot indices* `0..out_degree(u)`; the paper's
/// first-hop pointers and the link enumerations `phi_u` are exactly these
/// slots, so a pointer costs `ceil(log2 Dout)` bits.
#[derive(Clone, Debug, PartialEq)]
pub struct Graph {
    n: usize,
    offsets: Vec<u32>,
    heads: Vec<u32>,
    weights: Vec<f64>,
}

impl Graph {
    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Whether the graph has no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Number of arcs (an undirected edge counts twice).
    #[must_use]
    pub fn arc_count(&self) -> usize {
        self.heads.len()
    }

    /// Out-degree of `u`.
    #[must_use]
    pub fn out_degree(&self, u: Node) -> usize {
        let i = u.index();
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// Maximum out-degree over all nodes (the paper's `Dout`).
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        (0..self.n)
            .map(|i| self.out_degree(Node::new(i)))
            .max()
            .unwrap_or(0)
    }

    /// Out-links of `u` as `(head, weight)` pairs, in slot order.
    pub fn out_links(&self, u: Node) -> impl Iterator<Item = (Node, f64)> + '_ {
        let i = u.index();
        let (lo, hi) = (self.offsets[i] as usize, self.offsets[i + 1] as usize);
        (lo..hi).map(move |k| (Node::new(self.heads[k] as usize), self.weights[k]))
    }

    /// The `slot`-th out-link of `u` (the target of a first-hop pointer).
    ///
    /// # Panics
    ///
    /// Panics if `slot >= out_degree(u)`.
    #[must_use]
    pub fn link(&self, u: Node, slot: usize) -> (Node, f64) {
        let i = u.index();
        let k = self.offsets[i] as usize + slot;
        assert!(
            k < self.offsets[i + 1] as usize,
            "slot {slot} out of range at {u}"
        );
        (Node::new(self.heads[k] as usize), self.weights[k])
    }

    /// Whether the graph is (strongly) connected, via forward BFS from node
    /// 0 (sufficient for symmetric graphs; routing substrates here are
    /// symmetric).
    #[must_use]
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return false;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![Node::new(0)];
        seen[0] = true;
        let mut count = 1;
        while let Some(u) = stack.pop() {
            for (v, _) in self.out_links(u) {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    count += 1;
                    stack.push(v);
                }
            }
        }
        count == self.n
    }

    /// Total weight of the arcs along `path`, or `None` if a hop is missing.
    ///
    /// Uses the cheapest parallel arc for each hop.
    #[must_use]
    pub fn path_length(&self, path: &[Node]) -> Option<f64> {
        let mut total = 0.0;
        for w in path.windows(2) {
            let best = self
                .out_links(w[0])
                .filter(|&(head, _)| head == w[1])
                .map(|(_, weight)| weight)
                .fold(f64::INFINITY, f64::min);
            if !best.is_finite() {
                return None;
            }
            total += best;
        }
        Some(total)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_undirected(Node::new(0), Node::new(1), 1.0).unwrap();
        b.add_undirected(Node::new(1), Node::new(2), 2.0).unwrap();
        b.add_undirected(Node::new(0), Node::new(2), 4.0).unwrap();
        b.build()
    }

    #[test]
    fn degrees_and_links() {
        let g = triangle();
        assert_eq!(g.len(), 3);
        assert_eq!(g.arc_count(), 6);
        assert_eq!(g.out_degree(Node::new(0)), 2);
        assert_eq!(g.max_out_degree(), 2);
        let links: Vec<_> = g.out_links(Node::new(0)).collect();
        assert_eq!(links, vec![(Node::new(1), 1.0), (Node::new(2), 4.0)]);
    }

    #[test]
    fn rejects_bad_edges() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_undirected(Node::new(0), Node::new(5), 1.0),
            Err(GraphError::NodeOutOfRange { .. })
        ));
        assert!(matches!(
            b.add_undirected(Node::new(0), Node::new(0), 1.0),
            Err(GraphError::SelfLoop { .. })
        ));
        assert!(matches!(
            b.add_undirected(Node::new(0), Node::new(1), 0.0),
            Err(GraphError::InvalidWeight { .. })
        ));
        assert!(matches!(
            b.add_undirected(Node::new(0), Node::new(1), f64::NAN),
            Err(GraphError::InvalidWeight { .. })
        ));
    }

    #[test]
    fn connectivity() {
        let g = triangle();
        assert!(g.is_connected());
        let mut b = GraphBuilder::new(4);
        b.add_undirected(Node::new(0), Node::new(1), 1.0).unwrap();
        b.add_undirected(Node::new(2), Node::new(3), 1.0).unwrap();
        assert!(!b.build().is_connected());
    }

    #[test]
    fn path_length_follows_arcs() {
        let g = triangle();
        let p = [Node::new(0), Node::new(1), Node::new(2)];
        assert_eq!(g.path_length(&p), Some(3.0));
        let missing = [Node::new(0), Node::new(0)];
        assert_eq!(g.path_length(&missing), None);
    }

    #[test]
    fn empty_graph() {
        let g = GraphBuilder::new(0).build();
        assert!(g.is_empty());
        assert!(!g.is_connected());
        assert_eq!(g.max_out_degree(), 0);
    }
}
