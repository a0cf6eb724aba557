//! Epoch-stamped atomic publication: the copy-on-write cell behind
//! serve-during-repair.
//!
//! An [`EpochCell`] holds one `Arc`-wrapped value — a *published* state —
//! together with a monotonically increasing epoch counter. Writers build
//! a successor value entirely off to the side (no lock held), then
//! [`publish`](EpochCell::publish) it with a single pointer swap; readers
//! [`load`](EpochCell::load) the current `Arc` and serve from it for as
//! long as they like. A reader therefore always observes one complete
//! published state — never a half-applied mutation — and the epoch tells
//! it *which* one, so per-epoch caches can reject entries that predate
//! the latest publication.
//!
//! Under the vendored-shim constraint there is no `arc-swap` crate, so
//! the swap is guarded by a [`std::sync::RwLock`] held only for the
//! pointer swap (a load is a momentary shared lock and an `Arc` clone).
//! Two things keep the writer's work off the readers:
//!
//! * [`epoch`](EpochCell::epoch) reads an atomic mirror of the counter,
//!   so a reader that pinned a state can ask "has anything newer been
//!   published?" with one load and no lock;
//! * the writer frees what it superseded. `publish` retires the old
//!   value, and after releasing the lock frees every retired value no
//!   reader still holds, so a reader dropping its last handle to a
//!   superseded state only decrements a count.
//!
//! A poisoned lock is recovered, not propagated: the guarded section is
//! one `Arc` swap, which a panic cannot leave half done.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A published value: a shared handle to one epoch's state.
///
/// Dereferences to `T`. Cloning is an `Arc` clone; the handle keeps the
/// epoch's state alive even after later publications replace it in the
/// cell (readers mid-flight finish on the state they loaded).
pub struct Published<T> {
    value: Arc<T>,
    epoch: u64,
}

impl<T> Published<T> {
    /// The cell epoch this state was published at.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }
}

impl<T> Clone for Published<T> {
    fn clone(&self) -> Self {
        Published {
            value: Arc::clone(&self.value),
            epoch: self.epoch,
        }
    }
}

impl<T> Deref for Published<T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.value
    }
}

impl<T: fmt::Debug> fmt::Debug for Published<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Published")
            .field("epoch", &self.epoch)
            .field("value", &*self.value)
            .finish()
    }
}

/// The publication cell: an atomically swappable `Arc<T>` plus a
/// monotonically increasing epoch counter.
///
/// # Example
///
/// ```
/// use ron_core::publish::EpochCell;
///
/// let cell = EpochCell::new(vec![1, 2, 3]);
/// let reader = cell.load(); // serve from this for as long as needed
/// assert_eq!(reader.epoch(), 0);
///
/// let successor = vec![4, 5, 6]; // built off to the side
/// assert_eq!(cell.publish(successor), 1);
///
/// assert_eq!(*reader, vec![1, 2, 3]); // old readers are undisturbed
/// assert_eq!(*cell.load(), vec![4, 5, 6]); // new loads see epoch 1
/// ```
pub struct EpochCell<T> {
    slot: RwLock<Published<T>>,
    /// `slot.epoch`, readable without the lock.
    epoch: AtomicU64,
    /// Superseded values a reader still held at their last sweep.
    retired: Mutex<Vec<Arc<T>>>,
}

impl<T> EpochCell<T> {
    /// Creates the cell with `value` as the epoch-0 publication.
    #[must_use]
    pub fn new(value: T) -> Self {
        EpochCell {
            slot: RwLock::new(Published {
                value: Arc::new(value),
                epoch: 0,
            }),
            epoch: AtomicU64::new(0),
            retired: Mutex::new(Vec::new()),
        }
    }

    /// Loads the currently published state (a shared-lock `Arc` clone).
    #[must_use]
    pub fn load(&self) -> Published<T> {
        self.slot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// The current epoch: the number of publications since [`new`]. One
    /// atomic load; a reader holding a [`Published`] of a smaller epoch
    /// knows a [`load`](EpochCell::load) would return something newer.
    ///
    /// [`new`]: EpochCell::new
    #[must_use]
    pub fn epoch(&self) -> u64 {
        // ordering: Acquire pairs with the Release store in `publish`; a
        // reader that sees epoch k and then loads gets epoch k or later
        // (the slot's lock orders the value itself).
        self.epoch.load(Ordering::Acquire)
    }

    /// Publishes `value` as the new current state, returning its epoch.
    /// Readers holding earlier states are undisturbed; new loads see the
    /// successor. The superseded state is retired, and every retired
    /// state no reader holds any more is freed here, by the writer.
    pub fn publish(&self, value: T) -> u64 {
        let value = Arc::new(value);
        let (superseded, epoch) = {
            let mut slot = self.slot.write().unwrap_or_else(PoisonError::into_inner);
            slot.epoch += 1;
            // ordering: Release pairs with `epoch()`'s Acquire. Stored
            // under the write lock, so concurrent publishers leave the
            // mirror monotone.
            self.epoch.store(slot.epoch, Ordering::Release);
            (std::mem::replace(&mut slot.value, value), slot.epoch)
        };
        let mut retired = self.retired.lock().unwrap_or_else(PoisonError::into_inner);
        retired.push(superseded);
        // A retired value is out of the slot, so no load can hand it out
        // again: a count of one is this list's own handle.
        retired.retain(|v| Arc::strong_count(v) > 1);
        epoch
    }
}

impl<T: fmt::Debug> fmt::Debug for EpochCell<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EpochCell")
            .field(
                "current",
                &*self.slot.read().unwrap_or_else(PoisonError::into_inner),
            )
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn epochs_increase_monotonically() {
        let cell = EpochCell::new(0u32);
        assert_eq!(cell.epoch(), 0);
        for k in 1..=5 {
            assert_eq!(cell.publish(k), u64::from(k));
            assert_eq!(cell.epoch(), u64::from(k));
            assert_eq!(*cell.load(), k);
        }
    }

    #[test]
    fn old_readers_survive_a_publish() {
        let cell = EpochCell::new(String::from("before"));
        let old = cell.load();
        cell.publish(String::from("after"));
        assert_eq!(&*old, "before");
        assert_eq!(old.epoch(), 0);
        let new = cell.load();
        assert_eq!(&*new, "after");
        assert_eq!(new.epoch(), 1);
    }

    #[test]
    fn concurrent_readers_always_see_a_complete_state() {
        // Publish pairs (k, k); a torn read would observe (k, k') with
        // k != k'.
        let cell = EpochCell::new((0u64, 0u64));
        std::thread::scope(|scope| {
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut last_epoch = 0;
                        for _ in 0..2000 {
                            let state = cell.load();
                            assert_eq!(state.0, state.1, "torn state");
                            assert!(state.epoch() >= last_epoch, "epoch went backwards");
                            last_epoch = state.epoch();
                        }
                    })
                })
                .collect();
            for k in 1..=500u64 {
                cell.publish((k, k));
            }
            for r in readers {
                r.join().expect("reader panicked");
            }
        });
    }

    /// Counts its drops.
    struct Tracked<'a>(&'a std::sync::atomic::AtomicUsize);

    impl Drop for Tracked<'_> {
        fn drop(&mut self) {
            // ordering: Relaxed -- a plain counter; the thread joins and
            // the cell's own locks order every read of it below.
            self.0.fetch_add(1, Ordering::Relaxed);
        }
    }

    #[test]
    fn the_writer_frees_what_it_superseded_and_readers_never_do() {
        let drops = std::sync::atomic::AtomicUsize::new(0);
        // ordering: Relaxed -- see `Tracked`.
        let dropped = || drops.load(Ordering::Relaxed);
        let cell = EpochCell::new(Tracked(&drops));
        // Nobody holds epoch 0: the publish that supersedes it frees it.
        cell.publish(Tracked(&drops));
        assert_eq!(dropped(), 1);

        // A reader holds epoch 1 across the next publish and drops its
        // handle on its own thread: nothing is freed there...
        let held = cell.load();
        cell.publish(Tracked(&drops));
        std::thread::scope(|s| s.spawn(move || drop(held)).join().unwrap());
        assert_eq!(dropped(), 1, "a reader's last drop frees nothing");
        // ...and the writer's next publish frees it, with epoch 2.
        cell.publish(Tracked(&drops));
        assert_eq!(dropped(), 3);
        drop(cell);
        assert_eq!(dropped(), 4, "the cell frees the current value");
    }

    #[test]
    fn debug_formats_mention_the_epoch() {
        let cell = EpochCell::new(7u8);
        let text = format!("{cell:?}");
        assert!(text.contains("epoch"), "{text}");
        assert!(text.contains('7'), "{text}");
    }
}
