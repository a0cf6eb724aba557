//! E-BS: construction scaling on the sparse backend — the one timed
//! table, because it is the only path that runs the stack above `2^14`
//! nodes. Printed only on request (`report scale N [N...]`); every other
//! timed number belongs to the `benchmark/` package.

use std::time::Instant;

use ron_core::{par, RingFamily};
use ron_location::{DirectoryOverlay, ObjectId, Snapshot, DEFAULT_RING_FACTOR};
use ron_metric::{gen, HeapBytes, Node, Space};
use ron_nets::NestedNets;

use crate::{f, Table};

/// Heap budget for the built structures — sparse index plus directory
/// overlay with its nets, rings and pointer tables — in bytes per node.
/// The compact-id arenas hold the whole ladder within this on the 2-d
/// uniform cube at every size up to `2^20`; the table asserts it so a
/// layout regression fails loudly instead of silently doubling the
/// footprint.
pub const BYTES_PER_NODE_BUDGET: usize = 4096;

/// One construction pass over a 2-d uniform cube: ball index, net
/// ladder, publish rings, directory assembly, a batched publish, and
/// the serving snapshot's capture.
struct Build {
    /// Wall milliseconds of the six stages, in pipeline order.
    stage_ms: [f64; 6],
    struct_bytes: usize,
    fingerprint: u64,
}

/// Runs `stage` and returns its result with the wall milliseconds it took.
fn timed<T>(stage: impl FnOnce() -> T) -> (T, f64) {
    // ron-lint: allow(wall-clock): the scale table's per-stage build times are its output; nothing computed reads them
    let start = Instant::now();
    let out = stage();
    (out, start.elapsed().as_secs_f64() * 1e3)
}

fn fnv(hash: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// Order-sensitive digest of the built structures: ring contents, pointer
/// tables and homes. Two builds with the same digest placed every pointer
/// identically — the bit-identity check between thread counts.
fn fingerprint_overlay(overlay: &DirectoryOverlay) -> u64 {
    let rings = overlay.rings();
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for i in 0..rings.len() {
        let u = Node::new(i);
        for ring in rings.rings_of(u) {
            fnv(&mut hash, ring.level as u64);
            fnv(&mut hash, ring.radius.to_bits());
            for &m in ring.members() {
                fnv(&mut hash, m.index() as u64);
            }
        }
        fnv(&mut hash, overlay.entries_at(u) as u64);
    }
    fnv(&mut hash, overlay.total_entries() as u64);
    for &obj in overlay.objects() {
        fnv(&mut hash, obj.0);
        fnv(
            &mut hash,
            overlay.home_of(obj).map_or(u64::MAX, |h| h.index() as u64),
        );
    }
    hash
}

fn build(n: usize) -> Build {
    let (space, index_ms) = timed(|| Space::new_sparse(gen::uniform_cube(n, 2, 42)));
    let (nets, nets_ms) = timed(|| NestedNets::build(&space));
    let (rings, rings_ms) =
        timed(|| RingFamily::from_nets(&space, &nets, |_, r| Some(DEFAULT_RING_FACTOR * r)));
    let (mut overlay, directory_ms) =
        timed(|| DirectoryOverlay::from_structures(n, nets, rings, DEFAULT_RING_FACTOR));
    // Cap the batch: each publish walks one zoom chain whose coarse
    // levels cost ~|B| probes, so the object count — not n — sets this
    // stage's wall time.
    let objects: Vec<(ObjectId, Node)> = (0..(n / 16).clamp(4, 256))
        .map(|i| (ObjectId(i as u64), Node::new((i * 31 + 1) % n)))
        .collect();
    let ((), publish_ms) = timed(|| {
        overlay.publish_batch(&space, &objects);
    });
    // Every finger is a scan of a stored ring, so this stage stays
    // linear in n; an oracle search per (node, level) here is minutes
    // at 2^14.
    let (_snapshot, capture_ms) = timed(|| Snapshot::capture(&space, &overlay));
    Build {
        stage_ms: [
            index_ms,
            nets_ms,
            rings_ms,
            directory_ms,
            publish_ms,
            capture_ms,
        ],
        // The overlay owns its net ladder, ring arena and pointer
        // tables, so index + overlay is the whole resident structure.
        struct_bytes: space.index().heap_bytes() + overlay.heap_bytes(),
        fingerprint: fingerprint_overlay(&overlay),
    }
}

/// E-BS: one row per instance size, up to the million-node target `2^20`.
///
/// Each size runs the full construction pipeline single-threaded, then
/// again under a forced two-worker split (so the check runs even on a
/// one-core box), asserts the two fingerprints are bit-identical, and
/// asserts the resident structures fit [`BYTES_PER_NODE_BUDGET`]. The
/// row reports the serial per-stage times and the measured bytes per
/// node.
///
/// # Panics
///
/// Panics if the two-worker build differs from the serial one or a size
/// exceeds the bytes-per-node budget.
#[must_use]
pub fn table(ns: &[usize]) -> Table {
    let mut t = Table::new(
        "E-BS: sparse construction scaling, build time and bytes per node",
        &[
            "n",
            "index ms",
            "nets ms",
            "rings ms",
            "directory ms",
            "publish ms",
            "capture ms",
            "total ms",
            "bytes/node",
            "fingerprint",
            "2-worker check",
        ],
    );
    for &n in ns {
        let serial = par::with_threads(1, || build(n));
        let dual = par::with_threads(2, || build(n));
        assert_eq!(
            dual.fingerprint, serial.fingerprint,
            "n = {n}: two-worker construction must be bit-identical to single-threaded"
        );
        let bytes_per_node = serial.struct_bytes / n;
        assert!(
            bytes_per_node <= BYTES_PER_NODE_BUDGET,
            "n = {n}: {bytes_per_node} bytes/node exceeds the {BYTES_PER_NODE_BUDGET}-byte budget"
        );
        let mut row = vec![n.to_string()];
        row.extend(serial.stage_ms.iter().map(|&ms| f(ms)));
        row.extend([
            f(serial.stage_ms.iter().sum()),
            bytes_per_node.to_string(),
            format!("{:016x}", serial.fingerprint),
            "bit-identical".into(),
        ]);
        t.rows.push(row);
    }
    t
}

#[cfg(test)]
mod tests {
    #[test]
    fn scale_smoke() {
        // The table asserts its own invariants (two-worker bit-identity
        // and the bytes/node budget at every size); here we pin one row
        // per requested size and that bytes/node is populated.
        let t = super::table(&[96, 160]);
        assert_eq!(t.header[6], "capture ms");
        assert_eq!(t.header[8], "bytes/node");
        assert_eq!(t.rows.len(), 2);
        for row in &t.rows {
            let bytes: usize = row[8].parse().expect("bytes/node is an integer");
            assert!(bytes > 0);
            assert_eq!(row[10], "bit-identical");
        }
        assert_eq!(t.rows[0][0], "96");
        assert_eq!(t.rows[1][0], "160");
    }
}
