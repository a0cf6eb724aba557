//! Allocation guard for the serving path: a lookup allocates nothing,
//! and a reader never frees a snapshot — the writer's next publish does.
//!
//! The binary's global allocator counts blocks per thread, so the test
//! harness's own threads never land in a measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ron_location::{DirectoryOverlay, EpochCell, ObjectId, Snapshot};
use ron_metric::{gen, Node, Space};

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static FREED: Cell<u64> = const { Cell::new(0) };
}

fn bump(counter: &'static std::thread::LocalKey<Cell<u64>>) {
    counter.with(|c| c.set(c.get() + 1));
}

struct CountingAllocator;

// SAFETY: every method hands its arguments unchanged to `System` and
// returns what `System` returns, so `System`'s contract is this
// allocator's; the counters are const-initialised thread-local `Cell`s
// with no destructor, so touching them neither allocates nor re-enters.
unsafe impl GlobalAlloc for CountingAllocator {
    // SAFETY: the caller's `GlobalAlloc::alloc` obligations pass through.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump(&ALLOCATED);
        // SAFETY: same layout the caller vouched for.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: the caller's `GlobalAlloc::dealloc` obligations pass through.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        bump(&FREED);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: the caller's `GlobalAlloc::realloc` obligations pass through.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(&ALLOCATED);
        bump(&FREED);
        // SAFETY: `ptr` came from `System` through this allocator, with
        // this layout; `new_size` is the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Blocks `(allocated, freed)` on this thread while `f` ran.
fn blocks_during(f: impl FnOnce()) -> (u64, u64) {
    let before = (ALLOCATED.get(), FREED.get());
    f();
    (ALLOCATED.get() - before.0, FREED.get() - before.1)
}

const N: usize = 1024;
const OBJECTS: usize = 64;
const LOOKUPS: usize = 4096;

fn stack() -> (Space<ron_metric::EuclideanMetric>, DirectoryOverlay) {
    let space = Space::new(gen::uniform_cube(N, 2, 5));
    let mut overlay = DirectoryOverlay::build(&space);
    let items: Vec<(ObjectId, Node)> = (0..OBJECTS)
        .map(|i| (ObjectId(i as u64), Node::new((i * 37 + 11) % N)))
        .collect();
    overlay.publish_batch(&space, &items);
    (space, overlay)
}

fn query(q: usize) -> (Node, ObjectId) {
    (Node::new((q * 53 + 7) % N), ObjectId((q % OBJECTS) as u64))
}

#[test]
fn lookups_allocate_nothing() {
    let (space, overlay) = stack();
    let snapshot = Snapshot::capture(&space, &overlay);

    let mut hops = 0usize;
    let served = blocks_during(|| {
        for q in 0..LOOKUPS {
            let (origin, obj) = query(q);
            hops += snapshot.lookup(&space, origin, obj).expect("static").hops();
        }
    });
    assert!(hops > LOOKUPS, "the walks must have walked: {hops} hops");
    assert_eq!(served, (0, 0), "{LOOKUPS} Snapshot::lookup calls");

    let live = blocks_during(|| {
        for q in 0..LOOKUPS {
            let (origin, obj) = query(q);
            hops += overlay.lookup(&space, origin, obj).expect("static").hops();
        }
    });
    assert_eq!(live, (0, 0), "{LOOKUPS} DirectoryOverlay::lookup calls");

    // The failing arms allocate nothing either (obs is off).
    let refused = blocks_during(|| {
        assert!(snapshot.lookup(&space, Node::new(N), ObjectId(0)).is_err());
        assert!(snapshot
            .lookup(&space, Node::new(0), ObjectId(u64::MAX))
            .is_err());
    });
    assert_eq!(refused, (0, 0), "refused lookups");

    // The path is paid for only where it is asked for — and the counter
    // is live, so the zeros above are not a dead meter's.
    let (origin, obj) = query(1);
    let with_path = blocks_during(|| {
        let (out, path) = snapshot.lookup_path(&space, origin, obj).expect("static");
        assert_eq!(path.len(), out.hops() + 1);
    });
    assert!(with_path.0 > 0, "lookup_path builds a Vec");
}

/// A reader thread holding the last handle to a superseded snapshot
/// frees nothing when it lets go; the writer's next publish frees it.
#[test]
fn the_writer_frees_a_superseded_snapshot_and_the_reader_never_does() {
    let (space, overlay) = stack();
    let cell = EpochCell::new(Snapshot::capture(&space, &overlay));
    let superseded = cell.load();
    // Captured with no predecessor, epoch 1 shares no chunk with epoch 0,
    // and it stays held here: the publish measured below can free all of
    // epoch 0 and nothing else.
    cell.publish(Snapshot::capture(&space, &overlay));
    let current = cell.load();
    let successor = Snapshot::capture(&space, &overlay);

    let reader = std::thread::spawn(move || blocks_during(|| drop(superseded)));
    let dropped = reader.join().expect("reader thread");
    assert_eq!(dropped, (0, 0), "the reader's drop of the last handle");

    let (_, freed) = blocks_during(|| {
        cell.publish(successor);
    });
    // Every one of epoch 0's `N / 8` eight-node chunks of fingers is a
    // block of its own.
    assert!(
        freed >= (N / 8) as u64,
        "the writer's publish freed {freed} blocks"
    );
    drop(current);
}
