//! Publishing objects into the directory overlay.
//!
//! `publish(obj, home)` installs, at every ladder level `j`, an entry for
//! `obj` on each member of the ring `B_home(c r_j) ∩ G_j`. The entry at
//! level `j > 0` forwards to `chain[j-1]`, the next point of the home's
//! zooming sequence ([`ron_core::zoom::ZoomSequence`]); level-0 entries
//! forward to the home itself. Lookups therefore descend the home's zoom
//! chain exactly as routing descends a target's chain in Theorem 2.1.

use std::sync::Arc;

use ron_core::par;
use ron_metric::{BallOracle, Metric, Node, Space};

use crate::directory::{DirectoryOverlay, ObjectId, Placement};

impl DirectoryOverlay {
    /// Publishes `obj` with home node `home`, installing directory
    /// pointers up the net ladder. Returns the number of pointer entries
    /// written.
    ///
    /// # Panics
    ///
    /// Panics if `home` is dead or `obj` is already published.
    pub fn publish<M: Metric, I: BallOracle>(
        &mut self,
        space: &Space<M, I>,
        obj: ObjectId,
        home: Node,
    ) -> usize {
        let _stage = ron_obs::stage("publish");
        let plan = self.plan_publish(space, home);
        self.install(obj, home, plan)
    }

    /// Publishes a batch of `(object, home)` pairs, computing every
    /// placement (zoom chain + per-level ring membership) in parallel on
    /// [`par`] and then installing the pointer entries sequentially in
    /// batch order. Returns the total pointer entries written.
    ///
    /// Placements depend only on net membership — never on previously
    /// published objects — so the result is byte-identical to calling
    /// [`publish`](DirectoryOverlay::publish) once per pair, in order
    /// (property-tested).
    ///
    /// # Panics
    ///
    /// Panics if any home is dead or any object is already published
    /// (including duplicates inside the batch).
    pub fn publish_batch<M: Metric, I: BallOracle>(
        &mut self,
        space: &Space<M, I>,
        items: &[(ObjectId, Node)],
    ) -> usize {
        let _stage = ron_obs::stage("publish");
        let _span = ron_obs::span("directory.publish_batch");
        // The workers allocate each placement whole; the sequential
        // install below only moves it in and writes the table entries.
        let plans = par::map(items.len(), |k| self.plan_publish(space, items[k].1));
        Arc::make_mut(&mut self.control.homes).reserve(items.len());
        self.control.placements.reserve(items.len());
        items
            .iter()
            .zip(plans)
            .map(|(&(obj, home), plan)| self.install(obj, home, plan))
            .sum()
    }

    /// Read-only half of a publish: the home's zoom chain and the
    /// `(level, node)` pairs of every ladder level's publish ring.
    fn plan_publish<M: Metric, I: BallOracle>(&self, space: &Space<M, I>, home: Node) -> Placement {
        let entries = (0..self.levels())
            .flat_map(|j| self.control.ring(home, j).into_iter().map(move |w| (j, w)))
            .collect();
        Placement {
            chain: self.control.chain(space, home),
            entries,
        }
    }

    /// Mutating half of a publish: registers the object and writes the
    /// planned entries.
    fn install(&mut self, obj: ObjectId, home: Node, placement: Placement) -> usize {
        assert!(self.is_alive(home), "cannot publish {obj} on dead {home}");
        assert!(
            !self.control.homes.contains_key(&obj),
            "{obj} is already published"
        );
        self.epoch += 1;
        for &(j, w) in &placement.entries {
            let target = if j == 0 { home } else { placement.chain[j - 1] };
            self.tables.node_mut(w).insert(j, obj, target);
        }
        let writes = placement.entries.len();
        self.control.register(obj, home, placement);
        // The publish fan-out: how many ring members one object's
        // pointers reach across all levels.
        ron_obs::observe("publish.fanout", writes as u64);
        writes
    }

    /// Removes `obj` from the directory, deleting every installed entry.
    /// Returns the number of entries deleted.
    ///
    /// # Panics
    ///
    /// Panics if `obj` is not published.
    pub fn unpublish(&mut self, obj: ObjectId) -> usize {
        let control = &mut self.control;
        assert!(control.homes.contains_key(&obj), "{obj} is not published");
        self.epoch += 1;
        let placement = control.placements.remove(&obj).unwrap_or_default();
        let mut deletes = 0usize;
        for (level, w) in placement.entries {
            if control.alive[w.index()] && self.tables.node_mut(w).remove(level, obj).is_some() {
                deletes += 1;
            }
        }
        Arc::make_mut(&mut control.homes).remove(&obj);
        control.objects.retain(|&o| o != obj);
        control.reindex();
        deletes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::LineMetric;

    fn published() -> (Space<LineMetric>, DirectoryOverlay) {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(7), Node::new(5));
        (space, ov)
    }

    #[test]
    fn publish_installs_ring_entries_at_every_level() {
        let (_space, ov) = published();
        let home = Node::new(5);
        for j in 0..ov.levels() {
            let ring = ov.rings().ring(home, j).unwrap();
            assert!(!ring.is_empty());
            for &w in ring.members() {
                // Every ring member holds the level-j entry.
                assert!(ring.contains(w));
                assert!(
                    ov.tables.node(w).get(j, ObjectId(7)).is_some(),
                    "level {j} at {w}"
                );
            }
        }
        assert_eq!(
            ov.total_entries(),
            ov.control.placements[&ObjectId(7)].entries.len()
        );
        assert_eq!(ov.home_of(ObjectId(7)), Some(home));
        assert_eq!(ov.objects(), &[ObjectId(7)]);
    }

    #[test]
    fn chain_descends_toward_home() {
        let (space, ov) = published();
        let home = Node::new(5);
        let chain = &ov.control.placements[&ObjectId(7)].chain;
        assert_eq!(chain[0], home, "G_0 contains every node");
        for (j, &c) in chain.iter().enumerate() {
            assert!(space.dist(c, home) <= ov.nets().radius(j) + 1e-12);
            assert!(ov.is_net_member(j, c));
        }
    }

    #[test]
    fn level_entries_point_down_the_chain() {
        let (_, ov) = published();
        let chain = ov.control.placements[&ObjectId(7)].chain.clone();
        for j in 1..ov.levels() {
            for &w in ov.rings().ring(Node::new(5), j).unwrap().members() {
                assert_eq!(ov.tables.node(w).get(j, ObjectId(7)), Some(chain[j - 1]));
            }
        }
    }

    #[test]
    fn unpublish_removes_everything() {
        let (_, mut ov) = published();
        let installed = ov.total_entries();
        let deleted = ov.unpublish(ObjectId(7));
        assert_eq!(deleted, installed);
        assert_eq!(ov.total_entries(), 0);
        assert_eq!(ov.home_of(ObjectId(7)), None);
        assert!(ov.objects().is_empty());
    }

    #[test]
    #[should_panic(expected = "already published")]
    fn double_publish_rejected() {
        let (space, mut ov) = published();
        ov.publish(&space, ObjectId(7), Node::new(6));
    }
}
