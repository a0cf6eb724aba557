//! Shared routing-simulation types: traces, errors and the all-pairs
//! stretch run.

use std::error::Error;
use std::fmt;

use ron_core::stats::{stretch, PathStats};
use ron_graph::{Apsp, Graph};
use ron_metric::Node;

/// The outcome of routing one packet.
#[derive(Clone, Debug, PartialEq)]
pub struct RouteTrace {
    /// Nodes visited, starting at the source and ending at the target.
    pub path: Vec<Node>,
    /// Total weighted length of the traversed path.
    pub length: f64,
}

impl RouteTrace {
    /// Number of edges traversed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Stretch relative to the true shortest-path distance (1.0 for
    /// source == target).
    #[must_use]
    pub fn stretch(&self, shortest: f64) -> f64 {
        stretch(self.length, shortest)
    }
}

/// Errors during packet simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum RouteError {
    /// The packet exceeded the hop budget (routing loop).
    HopBudgetExceeded {
        /// Node where the packet was when the budget ran out.
        stuck_at: Node,
        /// The budget that was exceeded.
        budget: usize,
    },
    /// A node could not make a forwarding decision (broken invariant).
    NoDecision {
        /// The node without a next hop.
        at: Node,
        /// Human-readable description of the failed step.
        reason: &'static str,
    },
}

impl fmt::Display for RouteError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RouteError::HopBudgetExceeded { stuck_at, budget } => {
                write!(f, "packet exceeded {budget} hops, stuck near {stuck_at}")
            }
            RouteError::NoDecision { at, reason } => {
                write!(f, "no forwarding decision at {at}: {reason}")
            }
        }
    }
}

impl Error for RouteError {}

/// Routes every ordered pair of distinct nodes with `route` and
/// accumulates hops and stretch against the true distances `apsp`.
///
/// # Errors
///
/// Propagates the first routing failure.
pub fn over_all_pairs(
    graph: &Graph,
    apsp: &Apsp,
    mut route: impl FnMut(Node, Node) -> Result<RouteTrace, RouteError>,
) -> Result<PathStats, RouteError> {
    let n = graph.len();
    let mut paths = PathStats::default();
    for i in 0..n {
        for j in 0..n {
            if i == j {
                continue;
            }
            let (u, v) = (Node::new(i), Node::new(j));
            let trace = route(u, v)?;
            paths.record(trace.length, apsp.dist(u, v), trace.hops());
        }
    }
    Ok(paths)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_statistics() {
        let trace = RouteTrace {
            path: vec![Node::new(0), Node::new(1), Node::new(2)],
            length: 3.0,
        };
        assert_eq!(trace.hops(), 2);
        assert_eq!(trace.stretch(2.0), 1.5);
        assert_eq!(trace.stretch(0.0), 1.0);
    }

    #[test]
    fn errors_display() {
        let e = RouteError::HopBudgetExceeded {
            stuck_at: Node::new(3),
            budget: 10,
        };
        assert!(e.to_string().contains("10 hops"));
        let e = RouteError::NoDecision {
            at: Node::new(1),
            reason: "test",
        };
        assert!(e.to_string().contains("test"));
    }

    #[test]
    fn stats_over_pairs() {
        use ron_graph::gen;
        let graph = gen::grid_graph(3, 2);
        let apsp = Apsp::compute(&graph);
        // "Routing" that just walks true first hops: stretch exactly 1.
        let stats = over_all_pairs(&graph, &apsp, |u, v| {
            let path = apsp.walk_first_hops(&graph, u, v).unwrap();
            let length = graph.path_length(&path).unwrap();
            Ok(RouteTrace { path, length })
        })
        .unwrap();
        assert_eq!(stats.count, 72);
        assert!((stats.max_stretch - 1.0).abs() < 1e-12);
        assert!((stats.mean_stretch() - 1.0).abs() < 1e-12);
        assert_eq!(stats.max_hops, 4);
    }
}
