//! E-3.2: triangulation order and quality.

use ron_labels::{SharedBeaconTriangulation, Triangulation};

use crate::{f, metric_instance, Table};

/// Figure E-3.2: triangulation order and quality vs n, with the
/// shared-beacon baseline's failing fraction.
#[must_use]
pub fn table(delta: f64) -> Table {
    let mut t = Table::new(
        format!("E-3.2: (0,delta)-triangulation (delta = {delta})"),
        &[
            "metric",
            "n",
            "order",
            "worst D+/D-",
            "bound",
            "baseline eps (8 beacons)",
        ],
    );
    let bound = (1.0 + 2.0 * delta) / (1.0 - 2.0 * delta);
    for name in [
        "cube-64",
        "cube-128",
        "cube-256",
        "clusters-120",
        "exp-line-32",
    ] {
        let space = metric_instance(name);
        let tri = Triangulation::build(&space, delta);
        let baseline = SharedBeaconTriangulation::build(&space, 8.min(space.len()), 7);
        t.rows.push(vec![
            name.to_string(),
            space.len().to_string(),
            tri.order().to_string(),
            f(tri.max_ratio()),
            f(bound),
            format!("{:.3}", baseline.failing_fraction(3.0 * delta)),
        ]);
    }
    t
}
