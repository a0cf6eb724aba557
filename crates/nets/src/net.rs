use std::error::Error;
use std::fmt;

use ron_metric::mem::vec_capacity_bytes;
use ron_metric::{par, BallOracle, HeapBytes, Metric, Node, Space};

/// Errors raised when validating an [`Net`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum NetError {
    /// Two net members are closer than the net radius.
    SeparationViolated {
        /// First member.
        a: Node,
        /// Second member.
        b: Node,
        /// Their distance.
        dist: f64,
        /// Required minimum separation.
        radius: f64,
    },
    /// Some node is farther than the net radius from every member.
    CoveringViolated {
        /// The uncovered node.
        u: Node,
        /// Distance to the nearest member.
        nearest: f64,
        /// Required covering radius.
        radius: f64,
    },
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::SeparationViolated { a, b, dist, radius } => write!(
                f,
                "net members {a} and {b} are at distance {dist} < radius {radius}"
            ),
            NetError::CoveringViolated { u, nearest, radius } => write!(
                f,
                "node {u} is at distance {nearest} > radius {radius} from the net"
            ),
        }
    }
}

impl Error for NetError {}

/// An `r`-net over a metric space: an `r`-separated, `r`-covering node set.
///
/// Built greedily per Section 1.1: starting from any `r`-separated seed
/// set, scan the nodes in id order and add each node that is at distance at
/// least `r` from every member so far. The result covers the space (any
/// uncovered node would have been added) and is `r`-separated by
/// construction.
///
/// # Example
///
/// ```
/// use ron_metric::{LineMetric, Node, Space};
/// use ron_nets::Net;
///
/// let space = Space::new(LineMetric::uniform(16)?);
/// let net = Net::build(&space, 4.0, &[]);
/// net.verify(&space)?;
/// assert!(net.len() >= 2);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Clone, Debug)]
pub struct Net {
    radius: f64,
    members: Vec<Node>,
    is_member: Vec<bool>,
}

impl Net {
    /// Greedily builds an `r`-net, starting from `seeds` (which must be
    /// pairwise at distance at least `r`; this is debug-asserted).
    ///
    /// Passing the members of a coarser net as `seeds` yields the *nested*
    /// nets of Theorem 3.2 — see [`NestedNets`](crate::NestedNets).
    ///
    /// The construction is the *marking* formulation of the greedy scan:
    /// each accepted member marks the open ball `B_m(r)` through one
    /// unordered oracle ball query (a mark is an OR, so visit order is
    /// irrelevant), and a node joins exactly when no earlier member has
    /// marked it — the same net as the nearest-member scan, in
    /// `O(sum over members of |B_m(r)|)` work, which the packing bound
    /// keeps near-linear per level on doubling metrics. Seeds join
    /// unconditionally, so their balls are queried in parallel on
    /// [`par`] and merged in seed order. At a radius no larger than the
    /// minimum distance nothing can be marked, so every node joins without
    /// a query. It runs unchanged on the dense and the sparse backend.
    ///
    /// # Panics
    ///
    /// Panics if `radius` is negative or not finite.
    #[must_use]
    pub fn build<M: Metric, I: BallOracle>(
        space: &Space<M, I>,
        radius: f64,
        seeds: &[Node],
    ) -> Self {
        assert!(
            radius.is_finite() && radius >= 0.0,
            "net radius must be nonnegative"
        );
        let n = space.len();
        let oracle = space.index();
        if radius <= oracle.min_distance() {
            return Net {
                radius,
                members: space.nodes().collect(),
                is_member: vec![true; n],
            };
        }
        let mut is_member = vec![false; n];
        let mut covered = vec![false; n];
        let mut members = Vec::new();
        let seed_marks: Vec<Vec<u32>> = par::map(seeds.len(), |i| {
            let mut marks = Vec::new();
            oracle.for_each_in_ball_unordered(seeds[i], radius, &mut |d, v| {
                if d < radius {
                    marks.push(v.index() as u32);
                }
            });
            marks
        });
        for (&s, marks) in seeds.iter().zip(&seed_marks) {
            // A seed already covered by an earlier seed's open ball means
            // the seed set is not r-separated: an O(1) check per seed
            // derived from the oracle's ball marks.
            debug_assert!(
                is_member[s.index()] || !covered[s.index()],
                "seed set is not {radius}-separated"
            );
            if !is_member[s.index()] {
                is_member[s.index()] = true;
                members.push(s);
                for &v in marks {
                    covered[v as usize] = true;
                }
            }
        }
        for u in space.nodes() {
            // `u` joins unless an existing member is strictly within
            // radius, i.e. unless some earlier member marked it.
            if !is_member[u.index()] && !covered[u.index()] {
                is_member[u.index()] = true;
                members.push(u);
                oracle.for_each_in_ball_unordered(u, radius, &mut |d, v| {
                    if d < radius {
                        covered[v.index()] = true;
                    }
                });
            }
        }
        members.sort_unstable();
        Net {
            radius,
            members,
            is_member,
        }
    }

    /// The net radius `r`.
    #[must_use]
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the net has no members (only possible for an empty space).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The members in ascending node order.
    #[must_use]
    pub fn members(&self) -> &[Node] {
        &self.members
    }

    /// Whether `u` is a member.
    #[must_use]
    pub fn contains(&self, u: Node) -> bool {
        self.is_member[u.index()]
    }

    /// The member nearest to `u` and its distance (ties by node id).
    ///
    /// # Panics
    ///
    /// Panics if the net is empty.
    #[must_use]
    pub fn nearest_member<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        u: Node,
    ) -> (f64, Node) {
        space
            .index()
            .nearest_where(u, &mut |v| self.contains(v))
            .expect("net is nonempty and covers the space")
    }

    /// Members inside the closed ball `B_u(r)`, sorted by distance from `u`.
    ///
    /// This is the ring `B_u(r) ∩ G` the paper builds everywhere.
    #[must_use]
    pub fn members_in_ball<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        u: Node,
        r: f64,
    ) -> Vec<Node> {
        let mut members = Vec::new();
        space.index().for_each_in_ball(u, r, &mut |_, v| {
            if self.contains(v) {
                members.push(v);
            }
        });
        members
    }

    /// Checks the separation and covering properties exhaustively.
    ///
    /// # Errors
    ///
    /// Returns the first violated property.
    pub fn verify<M: Metric, I: BallOracle>(&self, space: &Space<M, I>) -> Result<(), NetError> {
        for (i, &a) in self.members.iter().enumerate() {
            for &b in &self.members[i + 1..] {
                let d = space.dist(a, b);
                if d < self.radius {
                    return Err(NetError::SeparationViolated {
                        a,
                        b,
                        dist: d,
                        radius: self.radius,
                    });
                }
            }
        }
        for u in space.nodes() {
            let (nearest, _) = self.nearest_member(space, u);
            if nearest > self.radius {
                return Err(NetError::CoveringViolated {
                    u,
                    nearest,
                    radius: self.radius,
                });
            }
        }
        Ok(())
    }
}

impl HeapBytes for Net {
    fn heap_bytes(&self) -> usize {
        vec_capacity_bytes(&self.members) + vec_capacity_bytes(&self.is_member)
    }
}

/// Lemma 1.4: an `r`-net has at most `(4 r'/r)^alpha` members in any ball
/// of radius `r' >= r`, for a metric of doubling dimension `alpha`.
///
/// Returns the bound value; tests compare it against measured counts.
///
/// # Panics
///
/// Panics if `r_prime < r` (the lemma's hypothesis) or `r <= 0`.
#[must_use]
pub fn net_cardinality_bound(r: f64, r_prime: f64, alpha: f64) -> f64 {
    assert!(r > 0.0, "net radius must be positive for the bound");
    assert!(r_prime >= r, "Lemma 1.4 requires r' >= r");
    (4.0 * r_prime / r).powf(alpha)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric};

    #[test]
    fn greedy_net_is_valid() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        for r in [1.0, 2.0, 5.0, 31.0, 100.0] {
            let net = Net::build(&space, r, &[]);
            net.verify(&space)
                .unwrap_or_else(|e| panic!("radius {r}: {e}"));
        }
    }

    #[test]
    fn radius_zero_net_is_everything() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let net = Net::build(&space, 0.0, &[]);
        assert_eq!(net.len(), 8);
    }

    #[test]
    fn at_most_min_dist_net_is_everything() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let net = Net::build(&space, 1.0, &[]);
        assert_eq!(net.len(), 8, "a min-distance net must contain every node");
    }

    #[test]
    fn large_radius_net_is_single_point() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let net = Net::build(&space, 100.0, &[]);
        assert_eq!(net.len(), 1);
        assert!(net.contains(Node::new(0)));
    }

    #[test]
    fn seeds_are_kept() {
        let space = Space::new(LineMetric::uniform(16).unwrap());
        let seeds = [Node::new(5), Node::new(15)];
        let net = Net::build(&space, 4.0, &seeds);
        assert!(net.contains(Node::new(5)));
        assert!(net.contains(Node::new(15)));
        net.verify(&space).unwrap();
    }

    #[test]
    fn nearest_member_and_ball_queries() {
        let space = Space::new(LineMetric::uniform(16).unwrap());
        let net = Net::build(&space, 4.0, &[]);
        let (d, m) = net.nearest_member(&space, Node::new(7));
        assert!(d <= 4.0);
        assert!(net.contains(m));
        let ring = net.members_in_ball(&space, Node::new(7), 6.0);
        for &v in &ring {
            assert!(net.contains(v));
            assert!(space.dist(Node::new(7), v) <= 6.0);
        }
    }

    #[test]
    fn lemma_1_4_on_random_points() {
        let space = Space::new(gen::uniform_cube(128, 2, 5));
        let r = 0.1;
        let net = Net::build(&space, r, &[]);
        // The plane has doubling dimension ~2; allow alpha = 2.5 for the
        // finite-sample estimate.
        let alpha = 2.5;
        for rp_mult in [1.0, 2.0, 4.0] {
            let rp = r * rp_mult;
            let bound = net_cardinality_bound(r, rp, alpha);
            for u in space.nodes() {
                let count = net.members_in_ball(&space, u, rp).len() as f64;
                assert!(
                    count <= bound,
                    "Lemma 1.4 violated: {count} members in B({u}, {rp}), bound {bound}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "r' >= r")]
    fn bound_requires_large_ball() {
        let _ = net_cardinality_bound(2.0, 1.0, 2.0);
    }

    #[test]
    fn verify_detects_separation_violation() {
        let space = Space::new(LineMetric::uniform(4).unwrap());
        // Hand-build a bogus net: members 0 and 1 are at distance 1 < 2.
        let net = Net {
            radius: 2.0,
            members: vec![Node::new(0), Node::new(1)],
            is_member: vec![true, true, false, false],
        };
        assert!(matches!(
            net.verify(&space),
            Err(NetError::SeparationViolated { .. })
        ));
    }

    #[test]
    fn verify_detects_covering_violation() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let net = Net {
            radius: 1.0,
            members: vec![Node::new(0)],
            is_member: {
                let mut v = vec![false; 8];
                v[0] = true;
                v
            },
        };
        assert!(matches!(
            net.verify(&space),
            Err(NetError::CoveringViolated { .. })
        ));
    }
}
