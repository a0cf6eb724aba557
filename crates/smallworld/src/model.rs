//! Common small-world machinery: contact graphs, strongly local routing
//! drivers and query statistics.

use ron_metric::{Metric, Node, Space};

/// A sampled graph of long-range contacts (the overlay of Definition 5.1).
#[derive(Clone, Debug)]
pub struct ContactGraph {
    contacts: Vec<Vec<Node>>,
}

impl ContactGraph {
    /// Wraps per-node contact lists (sorted and deduped internally).
    ///
    /// # Panics
    ///
    /// Panics if `contacts` is empty.
    #[must_use]
    pub fn new(mut contacts: Vec<Vec<Node>>) -> Self {
        assert!(
            !contacts.is_empty(),
            "contact graph needs at least one node"
        );
        for (i, list) in contacts.iter_mut().enumerate() {
            list.sort_unstable();
            list.dedup();
            // A node is never its own useful contact.
            list.retain(|v| v.index() != i);
        }
        ContactGraph { contacts }
    }

    /// Number of nodes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.contacts.len()
    }

    /// Whether the graph is empty (never by construction).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.contacts.is_empty()
    }

    /// The contacts of `u`.
    #[must_use]
    pub fn contacts_of(&self, u: Node) -> &[Node] {
        &self.contacts[u.index()]
    }

    /// Out-degree of `u`.
    #[must_use]
    pub fn out_degree(&self, u: Node) -> usize {
        self.contacts[u.index()].len()
    }

    /// Maximum out-degree — the quantity the small-world theorems bound.
    #[must_use]
    pub fn max_out_degree(&self) -> usize {
        self.contacts.iter().map(Vec::len).max().unwrap_or(0)
    }

    /// Mean out-degree.
    #[must_use]
    pub fn mean_out_degree(&self) -> f64 {
        let total: usize = self.contacts.iter().map(Vec::len).sum();
        total as f64 / self.contacts.len() as f64
    }

    /// Splits the graph into per-node contact lists: `partition()[u]` is
    /// exactly `contacts_of(u)`, owned.
    ///
    /// The input format of the message-passing simulator (`ron-sim`),
    /// where each simulated node holds only its own contact list and
    /// forwarding is strongly local (Definition 5.1).
    #[must_use]
    pub fn partition(&self) -> Vec<Vec<Node>> {
        self.contacts.clone()
    }
}

/// The result of one routed query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct QueryOutcome {
    /// Nodes visited, source first, target last.
    pub path: Vec<Node>,
}

impl QueryOutcome {
    /// Number of hops taken.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }
}

/// Routes one query with a strongly local rule: at each node, `rule`
/// receives the current node, its contact list and the target, and returns
/// the next hop (or `None`, a stall). Returns `None` if the query stalls
/// or exceeds `budget` hops.
pub fn route_with<M: Metric>(
    space: &Space<M>,
    contacts: &ContactGraph,
    src: Node,
    tgt: Node,
    budget: usize,
    mut rule: impl FnMut(Node, &[Node], Node) -> Option<Node>,
) -> Option<QueryOutcome> {
    let _ = space;
    let mut path = vec![src];
    let mut cur = src;
    while cur != tgt {
        if path.len() > budget {
            return None;
        }
        let next = rule(cur, contacts.contacts_of(cur), tgt)?;
        if next == cur {
            return None;
        }
        cur = next;
        path.push(cur);
    }
    Some(QueryOutcome { path })
}

/// The greedy strongly local choice at `u`: the contact closest to the
/// target `t` under `dist`, provided it is closer than `u` itself (ties
/// by node id). The one definition behind [`greedy_rule`] and the
/// simulator's greedy node.
pub fn greedy_choice(
    u: Node,
    contacts: &[Node],
    t: Node,
    dist: impl Fn(Node, Node) -> f64,
) -> Option<Node> {
    let du = dist(u, t);
    contacts
        .iter()
        .map(|&c| (dist(c, t), c))
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
        .filter(|&(d, _)| d < du)
        .map(|(_, c)| c)
}

/// [`greedy_choice`] over a space's metric, in the shape [`route_with`]
/// takes.
pub fn greedy_rule<M: Metric>(
    space: &Space<M>,
) -> impl FnMut(Node, &[Node], Node) -> Option<Node> + '_ {
    move |u, contacts, t| greedy_choice(u, contacts, t, |a, b| space.dist(a, b))
}

/// Aggregate hop statistics over a set of queries.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Number of queries attempted.
    pub queries: usize,
    /// Queries that reached the target within budget.
    pub completed: usize,
    /// Worst hop count among completed queries.
    pub max_hops: usize,
    /// Mean hop count among completed queries.
    pub mean_hops: f64,
}

impl QueryStats {
    /// Runs `route` over every ordered pair and accumulates statistics.
    pub fn over_all_pairs(
        n: usize,
        mut route: impl FnMut(Node, Node) -> Option<QueryOutcome>,
    ) -> QueryStats {
        let mut stats = QueryStats::default();
        let mut total = 0usize;
        for i in 0..n {
            for j in 0..n {
                if i == j {
                    continue;
                }
                stats.queries += 1;
                if let Some(outcome) = route(Node::new(i), Node::new(j)) {
                    stats.completed += 1;
                    stats.max_hops = stats.max_hops.max(outcome.hops());
                    total += outcome.hops();
                }
            }
        }
        if stats.completed > 0 {
            stats.mean_hops = total as f64 / stats.completed as f64;
        }
        stats
    }

    /// Fraction of queries that completed.
    #[must_use]
    pub fn completion_rate(&self) -> f64 {
        if self.queries == 0 {
            1.0
        } else {
            self.completed as f64 / self.queries as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::LineMetric;

    fn line(n: usize) -> Space<LineMetric> {
        Space::new(LineMetric::uniform(n).unwrap())
    }

    #[test]
    fn contact_graph_dedups_and_drops_self() {
        let g = ContactGraph::new(vec![
            vec![Node::new(0), Node::new(1), Node::new(1)],
            vec![Node::new(0)],
        ]);
        assert_eq!(g.contacts_of(Node::new(0)), &[Node::new(1)]);
        assert_eq!(g.out_degree(Node::new(0)), 1);
        assert_eq!(g.max_out_degree(), 1);
        assert!((g.mean_out_degree() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn greedy_routes_on_chain_contacts() {
        let space = line(8);
        // Everyone knows the next node on the line.
        let contacts = ContactGraph::new(
            (0..8)
                .map(|i| {
                    if i + 1 < 8 {
                        vec![Node::new(i + 1)]
                    } else {
                        vec![]
                    }
                })
                .collect(),
        );
        let outcome = route_with(
            &space,
            &contacts,
            Node::new(0),
            Node::new(7),
            20,
            greedy_rule(&space),
        )
        .unwrap();
        assert_eq!(outcome.hops(), 7);
    }

    #[test]
    fn greedy_stalls_without_progress() {
        let space = line(4);
        // Node 0 only knows node 1... but node 1 knows nothing.
        let contacts = ContactGraph::new(vec![vec![Node::new(1)], vec![], vec![], vec![]]);
        assert!(route_with(
            &space,
            &contacts,
            Node::new(0),
            Node::new(3),
            10,
            greedy_rule(&space)
        )
        .is_none());
    }

    #[test]
    fn budget_is_respected() {
        let space = line(16);
        let contacts = ContactGraph::new(
            (0..16)
                .map(|i| {
                    if i + 1 < 16 {
                        vec![Node::new(i + 1)]
                    } else {
                        vec![]
                    }
                })
                .collect(),
        );
        assert!(route_with(
            &space,
            &contacts,
            Node::new(0),
            Node::new(15),
            5,
            greedy_rule(&space)
        )
        .is_none());
    }

    #[test]
    fn stats_over_pairs() {
        let space = line(5);
        let contacts = ContactGraph::new(
            (0..5)
                .map(|i| {
                    let mut c = Vec::new();
                    if i > 0 {
                        c.push(Node::new(i - 1));
                    }
                    if i + 1 < 5 {
                        c.push(Node::new(i + 1));
                    }
                    c
                })
                .collect(),
        );
        let stats = QueryStats::over_all_pairs(5, |u, v| {
            route_with(&space, &contacts, u, v, 16, greedy_rule(&space))
        });
        assert_eq!(stats.queries, 20);
        assert_eq!(stats.completed, 20);
        assert_eq!(stats.max_hops, 4);
        assert!((stats.completion_rate() - 1.0).abs() < 1e-12);
    }
}
