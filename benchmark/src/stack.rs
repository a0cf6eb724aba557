//! Building the stack through the crates' public API, one timed call
//! per layer: ball oracle → nets → rings → directory → published
//! objects → captured snapshot.

use std::time::Instant;

use ron_core::{par, RingFamily};
use ron_location::{DirectoryOverlay, EpochCell, ObjectId, Snapshot, DEFAULT_RING_FACTOR};
use ron_metric::{BallOracle, EuclideanMetric, HeapBytes, MetricIndex, NetTreeIndex, Node, Space};
use ron_nets::NestedNets;

use crate::spec::THREADS;
use crate::trace::Tracer;

/// A ball-oracle backend the benchmark can build a [`Space`] over.
pub trait Backend: BallOracle + HeapBytes + Sized {
    /// `Space::new` or `Space::new_sparse`.
    fn space(metric: EuclideanMetric) -> Space<EuclideanMetric, Self>;

    /// `QueryEngine` is typed over the dense `Space`, of which it only
    /// calls `dist`. The dense backend serves from the space itself; the
    /// sparse one needs a dense twin over the same points.
    fn twin(space: &Space<EuclideanMetric, Self>) -> Option<Space<EuclideanMetric>>;

    /// The space the engine serves over: `space` or its `twin`.
    fn engine_space<'a>(
        space: &'a Space<EuclideanMetric, Self>,
        twin: &'a Option<Space<EuclideanMetric>>,
    ) -> &'a Space<EuclideanMetric>;
}

impl Backend for MetricIndex {
    fn space(metric: EuclideanMetric) -> Space<EuclideanMetric> {
        Space::new(metric)
    }

    fn twin(_: &Space<EuclideanMetric>) -> Option<Space<EuclideanMetric>> {
        None
    }

    fn engine_space<'a>(
        space: &'a Space<EuclideanMetric>,
        _: &'a Option<Space<EuclideanMetric>>,
    ) -> &'a Space<EuclideanMetric> {
        space
    }
}

impl Backend for NetTreeIndex<EuclideanMetric> {
    fn space(metric: EuclideanMetric) -> Space<EuclideanMetric, Self> {
        Space::new_sparse(metric)
    }

    fn twin(space: &Space<EuclideanMetric, Self>) -> Option<Space<EuclideanMetric>> {
        Some(Space::new(space.metric().clone()))
    }

    fn engine_space<'a>(
        _: &'a Space<EuclideanMetric, Self>,
        twin: &'a Option<Space<EuclideanMetric>>,
    ) -> &'a Space<EuclideanMetric> {
        twin.as_ref().expect("sparse stacks carry a dense twin")
    }
}

/// Seconds each construction stage took.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimes {
    pub index_s: f64,
    pub nets_s: f64,
    pub rings_s: f64,
    pub directory_s: f64,
    pub publish_s: f64,
}

impl StageTimes {
    /// Index + nets + rings + directory (publishing is its own metric).
    #[must_use]
    pub fn build_s(&self) -> f64 {
        self.index_s + self.nets_s + self.rings_s + self.directory_s
    }
}

/// The exact counts of a built stack. Two builds from one seed must
/// agree on every one of them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts {
    pub n: usize,
    pub objects: usize,
    pub levels: usize,
    pub members_total: usize,
    pub ring_pointers: usize,
    pub max_ring_size: usize,
    pub entries: usize,
    pub index_bytes: usize,
    pub overlay_bytes: usize,
}

/// A built stack with what building it cost.
pub struct Stack<I> {
    pub space: Space<EuclideanMetric, I>,
    pub overlay: DirectoryOverlay,
    pub times: StageTimes,
    pub counts: Counts,
}

/// Builds index, nets, rings and directory and publishes `homes`, under
/// `par::with_threads(THREADS)`. A tracer gets one `build` span with a
/// child per stage, tagged with `request`.
pub fn build<I: Backend>(
    metric: EuclideanMetric,
    homes: &[(ObjectId, Node)],
    tracer: Option<(&mut Tracer, u64)>,
) -> Stack<I> {
    par::with_threads(THREADS, || {
        let t0 = Instant::now();
        let space = I::space(metric);
        let t1 = Instant::now();
        let nets = NestedNets::build(&space);
        let t2 = Instant::now();
        let rings = RingFamily::from_nets(&space, &nets, |_, r| Some(DEFAULT_RING_FACTOR * r));
        let t3 = Instant::now();
        let members_total = nets.iter().map(|(_, net)| net.len()).sum();
        let (ring_pointers, max_ring_size) = (rings.total_pointers(), rings.max_ring_size());
        let t4 = Instant::now();
        let mut overlay =
            DirectoryOverlay::from_structures(space.len(), nets, rings, DEFAULT_RING_FACTOR);
        let t5 = Instant::now();
        overlay.publish_batch(&space, homes);
        let t6 = Instant::now();
        if let Some((tracer, request)) = tracer {
            let root = tracer.record("build", t0, t6, None, request);
            for (name, start, end) in [
                ("metric.index_build", t0, t1),
                ("nets.build", t1, t2),
                ("core.rings_build", t2, t3),
                ("location.directory_build", t4, t5),
                ("location.publish_batch", t5, t6),
            ] {
                tracer.record(name, start, end, Some(root), request);
            }
        }
        let secs = |a: Instant, b: Instant| b.duration_since(a).as_secs_f64();
        Stack {
            times: StageTimes {
                index_s: secs(t0, t1),
                nets_s: secs(t1, t2),
                rings_s: secs(t2, t3),
                directory_s: secs(t4, t5),
                publish_s: secs(t5, t6),
            },
            counts: Counts {
                n: space.len(),
                objects: homes.len(),
                levels: overlay.levels(),
                members_total,
                ring_pointers,
                max_ring_size,
                entries: overlay.total_entries(),
                index_bytes: space.index().heap_bytes(),
                overlay_bytes: overlay.heap_bytes(),
            },
            space,
            overlay,
        }
    })
}

/// A stack with its snapshot captured and published: what the engine
/// serves from and the churn writer mutates.
pub struct Serving<I> {
    pub stack: Stack<I>,
    pub twin: Option<Space<EuclideanMetric>>,
    pub cell: EpochCell<Snapshot>,
    pub snapshot_bytes: usize,
}

impl<I: Backend> Serving<I> {
    /// Captures the stack's first snapshot into a fresh cell.
    #[must_use]
    pub fn capture(stack: Stack<I>) -> Self {
        let snapshot = Snapshot::capture(&stack.space, &stack.overlay);
        Serving {
            twin: I::twin(&stack.space),
            snapshot_bytes: snapshot.heap_bytes(),
            cell: EpochCell::new(snapshot),
            stack,
        }
    }

    /// The dense space the engine serves over.
    #[must_use]
    pub fn engine_space(&self) -> &Space<EuclideanMetric> {
        I::engine_space(&self.stack.space, &self.twin)
    }
}
