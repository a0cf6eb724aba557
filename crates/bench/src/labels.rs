//! E-3.4: distance-label sizes.

use ron_labels::{CompactScheme, GlobalIdDls, Triangulation};

use crate::{f, metric_instance, Table};

/// Figure E-3.4: label sizes, compact (Thm 3.4) vs global-id DLS, vs n and
/// vs Delta.
#[must_use]
pub fn table(delta: f64) -> Table {
    let mut t = Table::new(
        format!("E-3.4: distance-label bits (delta = {delta})"),
        &[
            "metric",
            "n",
            "loglogDelta",
            "global-id bits",
            "compact bits",
            "worst est/d",
        ],
    );
    for name in ["cube-64", "cube-128", "exp-line-24", "exp-line-48"] {
        let space = metric_instance(name);
        let tri = Triangulation::build(&space, delta);
        let dls = GlobalIdDls::from_triangulation(&space, &tri);
        let compact = CompactScheme::build(&space, delta);
        let mut worst = 1.0f64;
        for u in space.nodes() {
            for v in space.nodes() {
                if u >= v {
                    continue;
                }
                worst = worst.max(compact.estimate(u, v) / space.dist(u, v));
            }
        }
        let llog = (space.index().aspect_ratio().log2() + 2.0).log2();
        t.rows.push(vec![
            name.to_string(),
            space.len().to_string(),
            f(llog),
            dls.max_label_bits().to_string(),
            compact.max_label_bits().to_string(),
            f(worst),
        ]);
    }
    t
}
