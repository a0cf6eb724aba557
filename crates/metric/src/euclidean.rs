use crate::{Metric, MetricError, Node};

/// A point set in `R^d` under the Euclidean (`l2`) distance.
///
/// Constant-dimensional Euclidean point sets are the motivating special case
/// of doubling metrics (doubling dimension `O(d)`, Assouad 1983). The
/// generators in [`gen`](crate::gen) produce these for the "polynomial
/// aspect ratio" experiment family.
///
/// # Example
///
/// ```
/// use ron_metric::{EuclideanMetric, Metric, Node};
///
/// let m = EuclideanMetric::new(vec![vec![0.0, 0.0], vec![3.0, 4.0]])?;
/// assert_eq!(m.dist(Node::new(0), Node::new(1)), 5.0);
/// assert_eq!(m.dim(), 2);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct EuclideanMetric {
    dim: usize,
    // Flattened row-major coordinates, n * dim entries.
    coords: Vec<f64>,
}

impl EuclideanMetric {
    /// Builds a metric from a list of points, all of the same dimension.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::ShapeMismatch`] if point dimensions differ,
    /// [`MetricError::InvalidDistance`] if a coordinate is not finite, and
    /// [`MetricError::ZeroDistance`] if two points coincide.
    pub fn new(points: Vec<Vec<f64>>) -> Result<Self, MetricError> {
        let dim = points.first().map_or(0, Vec::len);
        let mut coords = Vec::with_capacity(points.len() * dim);
        for (i, p) in points.iter().enumerate() {
            if p.len() != dim {
                return Err(MetricError::ShapeMismatch {
                    expected: dim,
                    actual: p.len(),
                });
            }
            for &c in p {
                if !c.is_finite() {
                    return Err(MetricError::InvalidDistance {
                        u: Node::new(i),
                        v: Node::new(i),
                        value: c,
                    });
                }
            }
            coords.extend_from_slice(p);
        }
        let m = EuclideanMetric { dim, coords };
        // Reject coincident points: the library requires a true metric.
        match m.first_zero_distance() {
            Some((u, v)) => Err(MetricError::ZeroDistance { u, v }),
            None => Ok(m),
        }
    }

    /// The first pair `u < v` in index order with `dist(u, v) == 0.0`.
    ///
    /// A zero distance needs every squared coordinate difference to be
    /// zero (underflow included: `1e-200` apart squares to zero), so the
    /// points are sorted on their first coordinate and each is compared
    /// only with its successors while that coordinate's squared
    /// difference stays zero — the same pairs an all-pairs scan would
    /// report, without the scan.
    fn first_zero_distance(&self) -> Option<(Node, Node)> {
        let x = |i: usize| self.coords[i * self.dim];
        let mut order: Vec<usize> = (0..self.len()).collect();
        order.sort_unstable_by(|&a, &b| x(a).total_cmp(&x(b)));
        let mut first: Option<(usize, usize)> = None;
        for (at, &i) in order.iter().enumerate() {
            for &j in &order[at + 1..] {
                let dx = x(j) - x(i);
                if dx * dx != 0.0 {
                    break;
                }
                if self.dist(Node::new(i), Node::new(j)) == 0.0 {
                    let pair = (i.min(j), i.max(j));
                    first = Some(first.map_or(pair, |best| best.min(pair)));
                }
            }
        }
        first.map(|(u, v)| (Node::new(u), Node::new(v)))
    }

    /// Dimension of the ambient space.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Coordinates of node `u`.
    #[must_use]
    pub fn point(&self, u: Node) -> &[f64] {
        let i = u.index();
        &self.coords[i * self.dim..(i + 1) * self.dim]
    }
}

impl Metric for EuclideanMetric {
    fn len(&self) -> usize {
        self.coords.len().checked_div(self.dim).unwrap_or(0)
    }

    fn dist(&self, u: Node, v: Node) -> f64 {
        let (a, b) = (self.point(u), self.point(v));
        a.iter()
            .zip(b)
            .map(|(x, y)| (x - y) * (x - y))
            .sum::<f64>()
            .sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricExt;

    #[test]
    fn pythagoras() {
        let m = EuclideanMetric::new(vec![vec![0.0, 0.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.dist(Node::new(0), Node::new(1)), 5.0);
    }

    #[test]
    fn rejects_dimension_mismatch() {
        let err = EuclideanMetric::new(vec![vec![0.0], vec![0.0, 1.0]]);
        assert!(matches!(err, Err(MetricError::ShapeMismatch { .. })));
    }

    #[test]
    fn rejects_duplicate_points() {
        let err = EuclideanMetric::new(vec![vec![1.0, 2.0], vec![1.0, 2.0]]);
        assert!(matches!(err, Err(MetricError::ZeroDistance { .. })));
    }

    #[test]
    fn reports_the_first_duplicate_pair_in_index_order() {
        // Duplicates far apart in index order, and a later pair that
        // sorts first on x: the error still names the smallest (u, v).
        let mut points: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![f64::from(i) * 0.5, f64::from(i % 7)])
            .collect();
        points[97] = points[3].clone();
        points[20] = vec![-1.0, 0.0];
        points[10] = points[20].clone();
        match EuclideanMetric::new(points) {
            Err(MetricError::ZeroDistance { u, v }) => {
                assert_eq!((u, v), (Node::new(3), Node::new(97)));
            }
            other => panic!("expected ZeroDistance, got {other:?}"),
        }
    }

    #[test]
    fn rejects_a_pair_whose_distance_underflows_to_zero() {
        // Nodes 0 and 2 differ, but by less than the square root of the
        // smallest positive float: their distance is 0.0. Node 1 sorts
        // between them lexicographically, so comparing neighbours in a
        // full-coordinate sort would let the pair through.
        let err = EuclideanMetric::new(vec![vec![0.0, 0.0], vec![0.0, 5.0], vec![1e-200, 0.0]]);
        assert_eq!(
            err,
            Err(MetricError::ZeroDistance {
                u: Node::new(0),
                v: Node::new(2),
            })
        );
    }

    #[test]
    fn sweep_agrees_with_the_all_pairs_definition() {
        // Every point set over a 3 x 3 lattice whose spacing mixes
        // underflowing and ordinary gaps, up to 4 points: the sweep
        // accepts, rejects and names exactly what the definition does.
        let lattice = [0.0, 1e-200, 1.0];
        let cells: Vec<Vec<f64>> = lattice
            .iter()
            .flat_map(|&x| lattice.iter().map(move |&y| vec![x, y]))
            .collect();
        for n in 2..=4u32 {
            for code in 0..9usize.pow(n) {
                let points: Vec<Vec<f64>> = (0..n)
                    .map(|k| cells[code / 9usize.pow(k) % 9].clone())
                    .collect();
                let m = EuclideanMetric {
                    dim: 2,
                    coords: points.concat(),
                };
                let nodes = || (0..n as usize).map(Node::new);
                let expected = nodes()
                    .flat_map(|u| nodes().map(move |v| (u, v)))
                    .find(|&(u, v)| u < v && m.dist(u, v) == 0.0);
                assert_eq!(m.first_zero_distance(), expected, "{points:?}");
            }
        }
    }

    #[test]
    fn distinctness_check_scales_to_a_large_grid() {
        // 2^16 points: an all-pairs scan is 2^31 unoptimized distance
        // calls, far outside the test budget.
        let m = crate::gen::perturbed_grid(256, 2, 0.25, 1);
        assert_eq!(m.len(), 65_536);
    }

    #[test]
    fn rejects_nan_coordinates() {
        let err = EuclideanMetric::new(vec![vec![f64::NAN]]);
        assert!(matches!(err, Err(MetricError::InvalidDistance { .. })));
    }

    #[test]
    fn satisfies_metric_axioms() {
        let m = EuclideanMetric::new(vec![
            vec![0.0, 0.0],
            vec![1.0, 0.5],
            vec![0.25, 2.0],
            vec![3.0, 3.0],
        ])
        .unwrap();
        assert!(m.validate().is_ok());
    }

    #[test]
    fn point_accessor() {
        let m = EuclideanMetric::new(vec![vec![1.0, 2.0], vec![3.0, 4.0]]).unwrap();
        assert_eq!(m.point(Node::new(1)), &[3.0, 4.0]);
        assert_eq!(m.dim(), 2);
    }
}
