//! Locating published objects: climb the origin's fingers, descend the
//! home's zoom chain.
//!
//! From origin `s`, the lookup visits the fingers `f_s0, f_s1, ...`
//! (nearest net member per level — the reversed zooming sequence of `s`)
//! until one holds a directory entry for the object, then follows the
//! stored chain downward to the home. On a static (or repaired) overlay
//! the climb is guaranteed to hit by the top level, and the traversed
//! length is at most a constant multiple of `d(s, home)` — the geometric
//! sums of Theorem 2.1's analysis; tests pin a worst-case stretch of 18.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;

use ron_metric::{BallOracle, Metric, Node, Space};

use crate::directory::{DirectoryOverlay, ObjectId};
use crate::tables::{PointerTable, PointerTables};

/// The outcome of one successful lookup.
#[derive(Clone, Debug, PartialEq)]
pub struct LookupOutcome {
    /// The located home node.
    pub home: Node,
    /// Overlay nodes visited, starting at the origin, ending at the home.
    pub path: Vec<Node>,
    /// Total metric length of the traversed overlay path.
    pub length: f64,
    /// Ladder level at which the directory entry was found.
    pub found_level: usize,
    /// Finger probes made on the climb (levels emptied by churn are
    /// skipped without a probe).
    pub probes: u64,
}

impl LookupOutcome {
    /// Number of overlay hops traversed.
    #[must_use]
    pub fn hops(&self) -> usize {
        self.path.len().saturating_sub(1)
    }

    /// Stretch relative to the true origin-to-home distance (`1.0` when
    /// origin and home coincide).
    #[must_use]
    pub fn stretch(&self, true_dist: f64) -> f64 {
        if true_dist <= 0.0 {
            1.0
        } else {
            self.length / true_dist
        }
    }
}

/// Lookup failures. On a static or freshly repaired overlay none of these
/// can occur for alive origins and published objects; between churn and
/// repair they measure the degradation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LocateError {
    /// The querying node is dead.
    OriginDown {
        /// The dead origin.
        origin: Node,
    },
    /// The object was never published (or was unpublished).
    UnknownObject {
        /// The unknown object.
        obj: ObjectId,
    },
    /// The climb exhausted every ladder level without finding an entry.
    NotFound {
        /// The object looked up.
        obj: ObjectId,
        /// The origin of the query.
        origin: Node,
    },
    /// A chain entry pointed at a dead node, or a chain node lost its
    /// entry (directory damage awaiting repair).
    BrokenChain {
        /// The object looked up.
        obj: ObjectId,
        /// Node where the descent broke.
        at: Node,
        /// Ladder level of the broken step.
        level: usize,
    },
}

impl fmt::Display for LocateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LocateError::OriginDown { origin } => write!(f, "origin {origin} is dead"),
            LocateError::UnknownObject { obj } => write!(f, "{obj} is not published"),
            LocateError::NotFound { obj, origin } => {
                write!(f, "no directory entry for {obj} on the climb from {origin}")
            }
            LocateError::BrokenChain { obj, at, level } => {
                write!(f, "chain for {obj} broke at {at} (level {level})")
            }
        }
    }
}

impl Error for LocateError {}

/// What one node decides for a descending lookup packet it holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WalkStep {
    /// This node stores the object (or the chain bottomed out at level
    /// 0): the lookup ends here.
    Arrived,
    /// Hand the packet to `next`, which continues the descent from the
    /// level-`level` entry that named it.
    Forward {
        /// Ladder level of the entry followed.
        level: usize,
        /// The chain node the entry forwards to.
        next: Node,
    },
    /// This node should hold the level-`level` chain entry and does not
    /// (directory damage awaiting repair).
    Broken {
        /// Ladder level of the missing entry.
        level: usize,
    },
}

/// One node's share of a lookup walk: its pointer table and whether it
/// homes the object. The walk rule is written once, here; the
/// in-process loop of [`locate_view`] and the simulator's `Climb` /
/// `Descend` message handlers (through
/// [`DirectoryNodeState`](crate::DirectoryNodeState)) both ask it what
/// to do at each node they visit.
pub(crate) struct NodeView<'a> {
    pub(crate) node: Node,
    pub(crate) table: &'a PointerTable,
    pub(crate) obj: ObjectId,
    pub(crate) is_home: bool,
}

impl NodeView<'_> {
    /// The climb probe: `None` if this node holds no level-`level` entry
    /// for the object (keep climbing), otherwise the first descent step.
    pub(crate) fn probe(&self, level: usize) -> Option<WalkStep> {
        self.table.get(level, self.obj).map(|next| {
            if next == self.node {
                self.descend(level)
            } else {
                WalkStep::Forward { level, next }
            }
        })
    }

    /// The descent step for a packet that followed a level-`level` entry
    /// here. A node storing the object recognises arrival — entries may
    /// legitimately shortcut straight to the home (e.g. when a level
    /// below was emptied by churn at publish time). Chain entries that
    /// point back at this node are followed locally, without a hop.
    pub(crate) fn descend(&self, mut level: usize) -> WalkStep {
        loop {
            if self.is_home || level == 0 {
                return WalkStep::Arrived;
            }
            level -= 1;
            match self.table.get(level, self.obj) {
                None => return WalkStep::Broken { level },
                Some(next) if next == self.node => {}
                Some(next) => return WalkStep::Forward { level, next },
            }
        }
    }
}

/// The state a lookup walk reads, borrowed from whoever owns it: the
/// live [`DirectoryOverlay`] or an epoch-stamped
/// [`Snapshot`](crate::engine::Snapshot) — both answer the same walk, so
/// a published snapshot serves exactly what the overlay it was captured
/// from would have served.
pub(crate) struct LookupView<'a> {
    pub(crate) levels: usize,
    pub(crate) alive: &'a [bool],
    pub(crate) homes: &'a HashMap<ObjectId, Node>,
    pub(crate) tables: &'a PointerTables,
}

/// The lookup walk over a [`LookupView`] and a finger provider: climb
/// the origin's fingers until a level holds an entry, then descend the
/// stored chain to the home, one [`NodeView`] decision per visited node.
pub(crate) fn locate_view<M: Metric, I>(
    view: &LookupView<'_>,
    space: &Space<M, I>,
    origin: Node,
    obj: ObjectId,
    fingers: impl Fn(Node, usize) -> Option<Node>,
) -> Result<LookupOutcome, LocateError> {
    if !view.alive[origin.index()] {
        return Err(LocateError::OriginDown { origin });
    }
    let Some(&home) = view.homes.get(&obj) else {
        return Err(LocateError::UnknownObject { obj });
    };
    let at = |v: Node| NodeView {
        node: v,
        table: view.tables.node(v),
        obj,
        is_home: v == home,
    };
    let mut path = vec![origin];
    let mut cur = origin;
    let mut length = 0.0f64;
    let mut probes = 0u64;
    let mut hop = |path: &mut Vec<Node>, cur: &mut Node, to: Node| {
        if *cur != to {
            length += space.dist(*cur, to);
            path.push(to);
            *cur = to;
        }
    };
    for j in 0..view.levels {
        let Some(f) = fingers(origin, j) else {
            continue; // level emptied by churn; keep climbing
        };
        probes += 1;
        hop(&mut path, &mut cur, f);
        let Some(mut step) = at(cur).probe(j) else {
            continue;
        };
        // Hit at level j: descend the home's zoom chain.
        loop {
            match step {
                WalkStep::Arrived => break,
                WalkStep::Broken { level } => {
                    return Err(LocateError::BrokenChain {
                        obj,
                        at: cur,
                        level,
                    })
                }
                WalkStep::Forward { level, next } => {
                    if !view.alive[next.index()] {
                        return Err(LocateError::BrokenChain {
                            obj,
                            at: next,
                            level,
                        });
                    }
                    hop(&mut path, &mut cur, next);
                    step = at(cur).descend(level);
                }
            }
        }
        let outcome = LookupOutcome {
            home: cur,
            path,
            length,
            found_level: j,
            probes,
        };
        if ron_obs::enabled() {
            ron_obs::observe("lookup.hops", outcome.hops() as u64);
            ron_obs::observe("lookup.probes", probes);
            ron_obs::observe("lookup.found_level", j as u64);
        }
        return Ok(outcome);
    }
    ron_obs::count("lookup.not_found", 1);
    Err(LocateError::NotFound { obj, origin })
}

impl DirectoryOverlay {
    /// Locates `obj` from `origin`, returning the home and the traversed
    /// overlay path.
    ///
    /// # Errors
    ///
    /// See [`LocateError`]; errors other than `UnknownObject` and
    /// `OriginDown` only occur between churn and the next repair.
    pub fn lookup<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
    ) -> Result<LookupOutcome, LocateError> {
        let view = LookupView {
            levels: self.levels(),
            alive: &self.control.alive,
            homes: &self.control.homes,
            tables: &self.tables,
        };
        // The live overlay finds fingers on demand; engine snapshots
        // use a precomputed table.
        locate_view(&view, space, origin, obj, |s, j| {
            self.finger(space, s, j).map(|(_, f)| f)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ron_metric::{gen, LineMetric};

    #[test]
    fn every_origin_finds_every_object_on_the_line() {
        let space = Space::new(LineMetric::uniform(32).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        for (i, h) in [0usize, 13, 31].iter().enumerate() {
            ov.publish(&space, ObjectId(i as u64), Node::new(*h));
        }
        for s in space.nodes() {
            for (i, h) in [0usize, 13, 31].iter().enumerate() {
                let out = ov.lookup(&space, s, ObjectId(i as u64)).expect("static");
                assert_eq!(out.home, Node::new(*h));
                assert_eq!(*out.path.first().unwrap(), s);
                assert_eq!(*out.path.last().unwrap(), Node::new(*h));
            }
        }
    }

    #[test]
    fn lookup_stretch_is_bounded_on_random_points() {
        let space = Space::new(gen::uniform_cube(96, 2, 11));
        let mut ov = DirectoryOverlay::build(&space);
        let home_picks = [4usize, 40, 77];
        for (i, h) in home_picks.iter().enumerate() {
            ov.publish(&space, ObjectId(i as u64), Node::new(*h));
        }
        let mut worst = 1.0f64;
        for s in space.nodes() {
            for (i, h) in home_picks.iter().enumerate() {
                let out = ov.lookup(&space, s, ObjectId(i as u64)).expect("static");
                worst = worst.max(out.stretch(space.dist(s, Node::new(*h))));
            }
        }
        // Geometric-sum bound: climb <= 4 r*, first chain hop <= 3 r*,
        // descent <= 2 r*, with r* <= 2 d(s, h) -- so stretch <= 18.
        assert!(worst <= 18.0, "worst stretch {worst}");
    }

    #[test]
    fn self_lookup_is_free() {
        let space = Space::new(LineMetric::uniform(16).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(3));
        let out = ov.lookup(&space, Node::new(3), ObjectId(0)).unwrap();
        assert_eq!(out.home, Node::new(3));
        assert_eq!(out.length, 0.0);
        assert_eq!(out.hops(), 0);
        assert_eq!(out.stretch(0.0), 1.0);
        assert_eq!(out.found_level, 0);
    }

    #[test]
    fn unknown_object_and_errors_display() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let ov = DirectoryOverlay::build(&space);
        let err = ov
            .lookup(&space, Node::new(0), ObjectId(9))
            .expect_err("nothing published");
        assert_eq!(err, LocateError::UnknownObject { obj: ObjectId(9) });
        assert!(err.to_string().contains("not published"));
        let err = LocateError::BrokenChain {
            obj: ObjectId(1),
            at: Node::new(2),
            level: 3,
        };
        assert!(err.to_string().contains("level 3"));
        let err = LocateError::NotFound {
            obj: ObjectId(1),
            origin: Node::new(0),
        };
        assert!(err.to_string().contains("climb"));
        let err = LocateError::OriginDown {
            origin: Node::new(4),
        };
        assert!(err.to_string().contains("dead"));
    }
}
