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

use std::error::Error;
use std::fmt;

use ron_metric::{BallOracle, Metric, Node, Space};

use crate::directory::{DirectoryOverlay, IdMap, ObjectId};
use crate::tables::TableRow;

/// The outcome of one successful lookup: plain numbers, no heap. The
/// nodes visited on the way are handed out only on request
/// ([`DirectoryOverlay::lookup_path`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LookupOutcome {
    /// The located home node.
    pub home: Node,
    /// Overlay hops traversed, origin to home.
    hops: u32,
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
        self.hops as usize
    }

    /// Stretch relative to the true origin-to-home distance (`1.0` when
    /// origin and home coincide).
    #[must_use]
    pub fn stretch(&self, true_dist: f64) -> f64 {
        ron_core::stats::stretch(self.length, true_dist)
    }
}

/// Lookup failures. On a static or freshly repaired overlay none of these
/// can occur for alive origins and published objects; between churn and
/// repair they measure the degradation.
#[derive(Clone, Debug, PartialEq)]
#[non_exhaustive]
pub enum LocateError {
    /// The querying node is not one of the overlay's `0..n`.
    UnknownOrigin {
        /// The out-of-range origin.
        origin: Node,
    },
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
            LocateError::UnknownOrigin { origin } => {
                write!(f, "origin {origin} is not a node of the overlay")
            }
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

/// Counts a failed lookup by kind on its way out of [`locate_view`];
/// kept out of line so the walk's error arms stay a call.
#[cold]
fn failed(err: LocateError) -> LocateError {
    if ron_obs::enabled() {
        match &err {
            LocateError::UnknownOrigin { .. } => ron_obs::count("lookup.unknown_origin", 1),
            LocateError::OriginDown { .. } => ron_obs::count("lookup.origin_down", 1),
            LocateError::UnknownObject { .. } => ron_obs::count("lookup.unknown_object", 1),
            LocateError::NotFound { .. } => ron_obs::count("lookup.not_found", 1),
            LocateError::BrokenChain { level, .. } => ron_obs::count_labeled(
                "lookup.broken_chain",
                ron_obs::label(&format!("level{level}")),
                1,
            ),
        }
    }
    err
}

/// One finger slot in four bytes: a node id, or a sentinel for a level
/// emptied by churn. Constructed only through [`Finger::new`], which
/// refuses a node id equal to the sentinel, so `get` cannot mistake one
/// for the other.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct Finger(u32);

impl Finger {
    const NONE: u32 = u32::MAX;

    /// # Panics
    ///
    /// Panics if the node's id is the sentinel (an overlay of `2^32`
    /// nodes; `Node` itself allows the id).
    pub(crate) fn new(finger: Option<Node>) -> Self {
        match finger.map(u32::from) {
            Some(Self::NONE) => panic!("node id {} is the no-finger sentinel", Self::NONE),
            Some(id) => Finger(id),
            None => Finger(Self::NONE),
        }
    }

    pub(crate) fn get(self) -> Option<Node> {
        (self.0 != Self::NONE).then(|| Node::from(self.0))
    }
}

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

/// One node's share of a lookup walk: its pointer entries and whether it
/// homes the object. The walk rule is written once, here; the
/// in-process loop of [`locate_view`] and the simulator's `Climb` /
/// `Descend` message handlers (through
/// [`DirectoryNodeState`](crate::DirectoryNodeState)) both ask it what
/// to do at each node they visit.
pub(crate) struct NodeView<'a> {
    pub(crate) node: Node,
    pub(crate) table: TableRow<'a>,
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
pub(crate) struct LookupView<'a, R> {
    pub(crate) levels: usize,
    pub(crate) alive: &'a [bool],
    pub(crate) homes: &'a IdMap<ObjectId, Node>,
    /// Node `v`'s pointer entries: a per-node table of the overlay, a
    /// frozen row of the snapshot.
    pub(crate) rows: R,
}

/// The lookup walk over a [`LookupView`] and a finger provider: climb
/// the origin's fingers until a level holds an entry, then descend the
/// stored chain to the home, one [`NodeView`] decision per visited node.
/// `fingers(origin)` is asked once, after the origin checks, for the
/// origin's finger at each level.
///
/// The walk allocates nothing: it counts its hops and hands every node
/// it stands on — the origin first, the home last — to `visit`, which a
/// caller that wants the path makes a `push` and every other caller a
/// no-op.
pub(crate) fn locate_view<'a, M: Metric, I, F: Fn(usize) -> Option<Node>>(
    view: &LookupView<'a, impl Fn(Node) -> TableRow<'a>>,
    space: &Space<M, I>,
    origin: Node,
    obj: ObjectId,
    fingers: impl FnOnce(Node) -> F,
    mut visit: impl FnMut(Node),
) -> Result<LookupOutcome, LocateError> {
    match view.alive.get(origin.index()) {
        Some(true) => {}
        Some(false) => return Err(failed(LocateError::OriginDown { origin })),
        None => return Err(failed(LocateError::UnknownOrigin { origin })),
    }
    let Some(&home) = view.homes.get(&obj) else {
        return Err(failed(LocateError::UnknownObject { obj }));
    };
    let finger = fingers(origin);
    let at = |v: Node| NodeView {
        node: v,
        table: (view.rows)(v),
        obj,
        is_home: v == home,
    };
    visit(origin);
    let mut cur = origin;
    let mut length = 0.0f64;
    let mut hops = 0u32;
    let mut probes = 0u64;
    let mut hop = |cur: &mut Node, to: Node| {
        if *cur != to {
            length += space.dist(*cur, to);
            hops += 1;
            visit(to);
            *cur = to;
        }
    };
    for j in 0..view.levels {
        let Some(f) = finger(j) else {
            continue; // level emptied by churn; keep climbing
        };
        probes += 1;
        hop(&mut cur, f);
        let Some(mut step) = at(cur).probe(j) else {
            continue;
        };
        // Hit at level j: descend the home's zoom chain.
        loop {
            match step {
                WalkStep::Arrived => break,
                WalkStep::Broken { level } => {
                    return Err(failed(LocateError::BrokenChain {
                        obj,
                        at: cur,
                        level,
                    }))
                }
                WalkStep::Forward { level, next } => {
                    if !view.alive[next.index()] {
                        return Err(failed(LocateError::BrokenChain {
                            obj,
                            at: next,
                            level,
                        }));
                    }
                    hop(&mut cur, next);
                    step = at(cur).descend(level);
                }
            }
        }
        if ron_obs::enabled() {
            ron_obs::observe("lookup.hops", u64::from(hops));
            ron_obs::observe("lookup.probes", probes);
            ron_obs::observe("lookup.found_level", j as u64);
        }
        return Ok(LookupOutcome {
            home: cur,
            hops,
            length,
            found_level: j,
            probes,
        });
    }
    Err(failed(LocateError::NotFound { obj, origin }))
}

impl DirectoryOverlay {
    fn walk<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
        visit: impl FnMut(Node),
    ) -> Result<LookupOutcome, LocateError> {
        let view = LookupView {
            levels: self.levels(),
            alive: &self.control.alive,
            homes: &self.control.homes,
            rows: |v| self.tables.node(v).row(),
        };
        // The live overlay finds fingers on demand; engine snapshots
        // use a precomputed table.
        let fingers = |s| move |j| self.finger(space, s, j).map(|(_, f)| f);
        locate_view(&view, space, origin, obj, fingers, visit)
    }

    /// Locates `obj` from `origin`, returning the home and the cost of
    /// the traversed overlay path. Allocates nothing.
    ///
    /// # Errors
    ///
    /// See [`LocateError`]; errors other than `UnknownObject`,
    /// `UnknownOrigin` and `OriginDown` only occur between churn and the
    /// next repair.
    pub fn lookup<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
    ) -> Result<LookupOutcome, LocateError> {
        self.walk(space, origin, obj, |_| {})
    }

    /// [`lookup`](Self::lookup), also returning the overlay nodes the
    /// walk visited: `hops() + 1` of them, starting at the origin,
    /// ending at the home.
    ///
    /// # Errors
    ///
    /// As [`lookup`](Self::lookup).
    pub fn lookup_path<M: Metric, I: BallOracle>(
        &self,
        space: &Space<M, I>,
        origin: Node,
        obj: ObjectId,
    ) -> Result<(LookupOutcome, Vec<Node>), LocateError> {
        let mut path = Vec::new();
        let outcome = self.walk(space, origin, obj, |v| path.push(v))?;
        Ok((outcome, path))
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
                let obj = ObjectId(i as u64);
                let (out, path) = ov.lookup_path(&space, s, obj).expect("static");
                assert_eq!(out.home, Node::new(*h));
                assert_eq!(ov.lookup(&space, s, obj), Ok(out));
                assert_eq!(path.len(), out.hops() + 1);
                assert_eq!(*path.first().unwrap(), s);
                assert_eq!(*path.last().unwrap(), Node::new(*h));
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

    #[test]
    fn an_origin_outside_the_overlay_is_an_error_not_a_panic() {
        let space = Space::new(LineMetric::uniform(8).unwrap());
        let mut ov = DirectoryOverlay::build(&space);
        ov.publish(&space, ObjectId(0), Node::new(3));
        for origin in [Node::new(8), Node::new(u32::MAX as usize)] {
            let err = ov
                .lookup(&space, origin, ObjectId(0))
                .expect_err("no such node");
            assert_eq!(err, LocateError::UnknownOrigin { origin });
            assert!(err.to_string().contains("not a node"));
        }
    }

    #[test]
    fn finger_slots_round_trip_and_refuse_the_sentinel() {
        assert_eq!(Finger::new(None).get(), None);
        for i in [0usize, 7, u32::MAX as usize - 1] {
            assert_eq!(Finger::new(Some(Node::new(i))).get(), Some(Node::new(i)));
        }
        let clash = std::panic::catch_unwind(|| Finger::new(Some(Node::new(u32::MAX as usize))));
        assert!(clash.is_err(), "the sentinel id must be refused");
    }
}
