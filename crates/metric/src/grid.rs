use crate::{Metric, MetricError, Node};

/// Which norm a [`GridMetric`] uses between lattice points.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum GridNorm {
    /// Manhattan / lattice distance (Kleinberg's small-world grid [30]).
    #[default]
    L1,
    /// Euclidean distance.
    L2,
    /// Chebyshev distance.
    LInf,
}

/// The `k`-dimensional integer lattice `{0..side}^k` as a metric space.
///
/// Grids are the canonical bounded-grid-dimension (hence doubling) metrics
/// and the substrate of Kleinberg's original small-world model, which
/// Section 5 of the paper generalizes. Node `i` maps to lattice coordinates
/// in row-major order.
///
/// # Example
///
/// ```
/// use ron_metric::{GridMetric, Metric, Node};
///
/// let g = GridMetric::new(3, 2)?; // 3x3 grid, 9 nodes
/// assert_eq!(g.len(), 9);
/// // corner (0,0) to corner (2,2) in L1:
/// assert_eq!(g.dist(Node::new(0), Node::new(8)), 4.0);
/// # Ok::<(), ron_metric::MetricError>(())
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct GridMetric {
    side: usize,
    dim: usize,
    norm: GridNorm,
}

impl GridMetric {
    /// Creates a `side^dim` grid under the default `GridNorm::L1` norm.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::Empty`] if `side == 0` or `dim == 0`.
    pub fn new(side: usize, dim: usize) -> Result<Self, MetricError> {
        Self::with_norm(side, dim, GridNorm::L1)
    }

    /// Creates a `side^dim` grid under the given norm.
    ///
    /// # Errors
    ///
    /// Returns [`MetricError::Empty`] if `side == 0` or `dim == 0`.
    pub fn with_norm(side: usize, dim: usize, norm: GridNorm) -> Result<Self, MetricError> {
        if side == 0 || dim == 0 {
            return Err(MetricError::Empty);
        }
        // Guard against overflow of side^dim.
        let mut n: usize = 1;
        for _ in 0..dim {
            n = n.checked_mul(side).ok_or(MetricError::Empty)?;
        }
        Ok(GridMetric { side, dim, norm })
    }

    /// Side length of the grid.
    #[must_use]
    pub fn side(&self) -> usize {
        self.side
    }

    /// Dimension of the grid.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Lattice coordinates of node `u` (row-major decoding).
    #[must_use]
    pub fn coords(&self, u: Node) -> Vec<usize> {
        let mut i = u.index();
        let mut out = vec![0; self.dim];
        for c in out.iter_mut().rev() {
            *c = i % self.side;
            i /= self.side;
        }
        out
    }

    /// Node at the given lattice coordinates (row-major encoding).
    ///
    /// # Panics
    ///
    /// Panics if `coords` has the wrong length or a coordinate is out of
    /// range.
    #[must_use]
    pub fn node_at(&self, coords: &[usize]) -> Node {
        assert_eq!(coords.len(), self.dim, "coordinate arity mismatch");
        let mut i = 0usize;
        for &c in coords {
            assert!(
                c < self.side,
                "coordinate {c} out of range 0..{}",
                self.side
            );
            i = i * self.side + c;
        }
        Node::new(i)
    }
}

impl Metric for GridMetric {
    fn len(&self) -> usize {
        self.side.pow(self.dim as u32)
    }

    fn dist(&self, u: Node, v: Node) -> f64 {
        // Decodes both nodes one coordinate at a time, least significant
        // first. Every term is an integer-valued f64 and every partial sum
        // is exact, so the order the terms meet in does not change a bit.
        let (mut i, mut j) = (u.index(), v.index());
        let mut acc = 0.0f64;
        for _ in 0..self.dim {
            let d = (i % self.side).abs_diff(j % self.side) as f64;
            (i, j) = (i / self.side, j / self.side);
            acc = match self.norm {
                GridNorm::L1 => acc + d,
                GridNorm::L2 => acc + d * d,
                GridNorm::LInf => acc.max(d),
            };
        }
        match self.norm {
            GridNorm::L2 => acc.sqrt(),
            GridNorm::L1 | GridNorm::LInf => acc,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MetricExt;

    #[test]
    fn coords_roundtrip() {
        let g = GridMetric::new(4, 3).unwrap();
        for i in 0..g.len() {
            let u = Node::new(i);
            assert_eq!(g.node_at(&g.coords(u)), u);
        }
    }

    #[test]
    fn l1_distance() {
        let g = GridMetric::new(5, 2).unwrap();
        let u = g.node_at(&[0, 0]);
        let v = g.node_at(&[3, 4]);
        assert_eq!(g.dist(u, v), 7.0);
    }

    #[test]
    fn l2_distance() {
        let g = GridMetric::with_norm(5, 2, GridNorm::L2).unwrap();
        let u = g.node_at(&[0, 0]);
        let v = g.node_at(&[3, 4]);
        assert_eq!(g.dist(u, v), 5.0);
    }

    #[test]
    fn linf_distance() {
        let g = GridMetric::with_norm(5, 2, GridNorm::LInf).unwrap();
        let u = g.node_at(&[0, 0]);
        let v = g.node_at(&[3, 4]);
        assert_eq!(g.dist(u, v), 4.0);
    }

    #[test]
    fn dist_matches_decoded_coordinates() {
        for norm in [GridNorm::L1, GridNorm::L2, GridNorm::LInf] {
            let g = GridMetric::with_norm(5, 3, norm).unwrap();
            for i in 0..g.len() {
                for j in 0..g.len() {
                    let (u, v) = (Node::new(i), Node::new(j));
                    let terms = g.coords(u).into_iter().zip(g.coords(v));
                    let terms = terms.map(|(x, y)| x.abs_diff(y) as f64);
                    let want = match norm {
                        GridNorm::L1 => terms.sum(),
                        GridNorm::L2 => terms.map(|d| d * d).sum::<f64>().sqrt(),
                        GridNorm::LInf => terms.fold(0.0, f64::max),
                    };
                    assert_eq!(g.dist(u, v).to_bits(), want.to_bits(), "{norm:?} {u} {v}");
                }
            }
        }
    }

    #[test]
    fn rejects_empty() {
        assert!(GridMetric::new(0, 2).is_err());
        assert!(GridMetric::new(2, 0).is_err());
    }

    #[test]
    fn is_a_metric() {
        let g = GridMetric::new(3, 2).unwrap();
        assert!(g.validate().is_ok());
    }

    #[test]
    fn aspect_ratio_of_grid() {
        let g = GridMetric::new(4, 2).unwrap();
        // min distance 1, diameter 6 (corner to corner in L1).
        assert_eq!(g.aspect_ratio(), 6.0);
    }
}
