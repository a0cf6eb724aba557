use std::error::Error;
use std::fmt;

use crate::Node;

/// Errors raised when constructing or validating metric spaces.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum MetricError {
    /// The distance matrix is not square or does not match the node count.
    ShapeMismatch {
        /// Expected number of entries (`n * n`).
        expected: usize,
        /// Number of entries actually provided.
        actual: usize,
    },
    /// A distance is negative, NaN or infinite.
    InvalidDistance {
        /// First endpoint.
        u: Node,
        /// Second endpoint.
        v: Node,
        /// The offending value.
        value: f64,
    },
    /// `d(u, u)` is nonzero.
    NonzeroSelfDistance {
        /// The node with nonzero self-distance.
        u: Node,
        /// The offending value.
        value: f64,
    },
    /// `d(u, v) != d(v, u)`.
    Asymmetric {
        /// First endpoint.
        u: Node,
        /// Second endpoint.
        v: Node,
    },
    /// Two distinct nodes are at distance zero.
    ZeroDistance {
        /// First endpoint.
        u: Node,
        /// Second endpoint.
        v: Node,
    },
    /// The triangle inequality fails on a triple.
    TriangleViolation {
        /// First endpoint of the violated pair.
        u: Node,
        /// Second endpoint of the violated pair.
        v: Node,
        /// The witness midpoint with `d(u,w) + d(w,v) < d(u,v)`.
        w: Node,
    },
    /// The metric has no nodes where at least one was required.
    Empty,
}

impl fmt::Display for MetricError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MetricError::ShapeMismatch { expected, actual } => {
                write!(
                    f,
                    "distance matrix has {actual} entries, expected {expected}"
                )
            }
            MetricError::InvalidDistance { u, v, value } => {
                write!(
                    f,
                    "distance d({u}, {v}) = {value} is not a finite nonnegative number"
                )
            }
            MetricError::NonzeroSelfDistance { u, value } => {
                write!(f, "self distance d({u}, {u}) = {value} is nonzero")
            }
            MetricError::Asymmetric { u, v } => {
                write!(f, "distances d({u}, {v}) and d({v}, {u}) differ")
            }
            MetricError::ZeroDistance { u, v } => {
                write!(f, "distinct nodes {u} and {v} are at distance zero")
            }
            MetricError::TriangleViolation { u, v, w } => {
                write!(
                    f,
                    "triangle inequality fails: d({u}, {v}) > d({u}, {w}) + d({w}, {v})"
                )
            }
            MetricError::Empty => write!(f, "metric space has no nodes"),
        }
    }
}

impl Error for MetricError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let err = MetricError::TriangleViolation {
            u: Node::new(0),
            v: Node::new(1),
            w: Node::new(2),
        };
        let text = err.to_string();
        assert!(text.contains("triangle"));
        assert!(text.contains("v0"));
    }

    #[test]
    fn implements_error_trait() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<MetricError>();
    }
}
