//! Quickstart: build a doubling metric, estimate distances from labels,
//! run a small-world query, and locate a published object — the faces of
//! rings of neighbors.
//!
//! Run with: `cargo run --example quickstart`

use rings_of_neighbors::labels::Triangulation;
use rings_of_neighbors::location::{DirectoryOverlay, ObjectId};
use rings_of_neighbors::metric::{gen, Node, Space};
use rings_of_neighbors::smallworld::GreedyModel;

fn main() {
    // 1. A doubling metric: 128 random points in the unit square.
    let space = Space::new(gen::uniform_cube(128, 2, 7));
    println!(
        "space: n = {}, aspect ratio = {:.1}",
        space.len(),
        space.index().aspect_ratio()
    );

    // 2. Distance estimation via (0, delta)-triangulation (Theorem 3.2):
    //    every node stores ~order beacons; any pair gets a certified
    //    estimate D- <= d <= D+ from labels alone.
    let tri = Triangulation::build(&space, 0.2);
    println!("triangulation order (beacons/node): {}", tri.order());
    let (u, v) = (Node::new(3), Node::new(97));
    let est = tri.estimate(u, v);
    let d = space.dist(u, v);
    println!(
        "pair ({u}, {v}): true d = {d:.4}, D- = {:.4}, D+ = {:.4}, ratio = {:.3}",
        est.lower,
        est.upper,
        est.ratio()
    );
    assert!(est.lower <= d && d <= est.upper);

    // 3. Object location via a searchable small world (Theorem 5.2a):
    //    greedy routing over sampled rings finds any target in O(log n)
    //    hops.
    let model = GreedyModel::sample(&space, 2.0, 42);
    let outcome = model.query(&space, u, v).expect("query completes w.h.p.");
    println!(
        "small world: out-degree <= {}, query {u} -> {v} took {} hops",
        model.contacts().max_out_degree(),
        outcome.hops()
    );
    println!("path: {:?}", outcome.path);

    // 4. Object location via the directory overlay: publish an object at
    //    `v`, find it from `u` by climbing `u`'s fingers and descending
    //    `v`'s zooming sequence. `lookup` returns numbers only (home,
    //    hops, length) and allocates nothing; `lookup_path` is the same
    //    walk for a caller that also wants the nodes it visited.
    let mut overlay = DirectoryOverlay::build(&space);
    overlay.publish(&space, ObjectId(1), v);
    let (found, path) = overlay
        .lookup_path(&space, u, ObjectId(1))
        .expect("a static overlay serves every lookup");
    println!(
        "directory: {u} found obj:1 at {} in {} hops, stretch {:.2}",
        found.home,
        found.hops(),
        found.stretch(d)
    );
    println!("path: {path:?}");
    assert_eq!((found.home, path.len()), (v, found.hops() + 1));
}
