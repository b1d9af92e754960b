//! Sharded object state for the concurrent invocation plane.
//!
//! The embedded platform splits per-object state (directory entry,
//! storage stack, commit records) into `S` shards keyed by the
//! [`ObjectId`] hash. Each shard sits behind its own mutex, so
//! invocations on objects in *different* shards never contend, while two
//! invocations racing on the *same* object serialize on its shard —
//! preserving the exactly-once commit semantics of the retry loop.
//!
//! Every shard owns a full [`StateLayer`] (hot tier → write-behind
//! buffer → persistent DB) for the objects it homes, so flushing shard
//! A's write-behind batches never blocks invokes on shard B. Which node
//! owns an object is not a shard's concern: the node plane's partition
//! map answers that without touching any shard lock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{Mutex, MutexGuard};

use oprc_core::invocation::TaskResult;
use oprc_core::object::{FileRef, ObjectId};

use super::state::StateLayer;
use crate::lockorder::{Tier, TierToken};

/// The shard count (a modest power of two: enough to spread a
/// multi-worker closed loop, small enough that per-shard storage stacks
/// stay cheap). Fixed, so an object's shard never depends on how the
/// platform was built.
pub(super) const SHARD_COUNT: usize = 16;

/// An object's directory entry (class, interned storage key, file refs).
#[derive(Debug, Clone)]
pub(super) struct ObjectEntry {
    pub class: String,
    /// The object's storage key (`class/obj-n`), computed once at
    /// creation so the invoke path never re-formats it.
    pub storage_key: std::sync::Arc<str>,
    pub files: BTreeMap<String, FileRef>,
    pub revision: u64,
}

/// The state a single shard owns exclusively while locked.
#[derive(Debug)]
pub(super) struct Shard {
    /// Objects whose ids hash into this shard.
    pub objects: BTreeMap<ObjectId, ObjectEntry>,
    /// This shard's tiered storage stack (its slice of the keyspace).
    pub state: StateLayer,
    /// Results of commits whose ack was torn, by idempotency key — the
    /// retry's double-commit guard and the final-attempt recovery
    /// record. Empty unless chaos tears an ack; an entry is removed when
    /// its invocation finishes.
    pub committed: BTreeMap<u64, TaskResult>,
}

/// One shard slot: the mutex plus lock-free contention counters.
#[derive(Debug)]
pub(super) struct ShardHandle {
    slot: Mutex<Shard>,
    acquisitions: AtomicU64,
    contended: AtomicU64,
}

/// A locked shard. Wraps the mutex guard together with the lock-order
/// token so the sanitizer sees the full hold duration; derefs to
/// [`Shard`], so call sites use it exactly like the raw guard.
#[derive(Debug)]
pub(super) struct ShardGuard<'a> {
    guard: MutexGuard<'a, Shard>,
    _token: TierToken,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = Shard;
    fn deref(&self) -> &Shard {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Shard {
        &mut self.guard
    }
}

/// A point-in-time view of one shard's occupancy and lock traffic
/// (for `oprc-ctl metrics` and the throughput bench).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Objects currently homed on the shard.
    pub objects: usize,
    /// Total lock acquisitions since startup.
    pub acquisitions: u64,
    /// Acquisitions that found the lock held (had to wait).
    pub contended: u64,
}

impl ShardHandle {
    pub(super) fn new(state: StateLayer) -> Self {
        ShardHandle {
            slot: Mutex::new(Shard {
                objects: BTreeMap::new(),
                state,
                committed: BTreeMap::new(),
            }),
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
        }
    }

    /// Locks the shard, counting the acquisition and whether it had to
    /// wait behind another holder. The returned guard carries a
    /// [`Tier::Shard`] token, so debug builds panic if a second shard
    /// (or a control-plane lock) is acquired while it is held.
    pub(super) fn lock(&self) -> ShardGuard<'_> {
        let token = TierToken::acquire(Tier::Shard);
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if let Some(guard) = self.slot.try_lock() {
            return ShardGuard {
                guard,
                _token: token,
            };
        }
        self.contended.fetch_add(1, Ordering::Relaxed);
        ShardGuard {
            guard: self.slot.lock(),
            _token: token,
        }
    }

    /// Lock-traffic counters: `(acquisitions, contended)`.
    pub(super) fn counters(&self) -> (u64, u64) {
        (
            self.acquisitions.load(Ordering::Relaxed),
            self.contended.load(Ordering::Relaxed),
        )
    }

    /// Runs `f` on the locked shard without counting the acquisition:
    /// observability reads are not invocation lock traffic, so reading
    /// the counters never moves them.
    pub(super) fn observe<R>(&self, f: impl FnOnce(&Shard) -> R) -> R {
        let _token = TierToken::acquire(Tier::Shard);
        f(&self.slot.lock())
    }

    /// A point-in-time stats snapshot (an uncounted
    /// [`ShardHandle::observe`]).
    pub(super) fn stats(&self, shard: usize) -> ShardStats {
        let objects = self.observe(|sh| sh.objects.len());
        let (acquisitions, contended) = self.counters();
        ShardStats {
            shard,
            objects,
            acquisitions,
            contended,
        }
    }
}

/// Maps an object id onto one of `count` shards (Fibonacci hashing: the
/// multiplicative spread keeps sequential ids from clustering).
pub(super) fn shard_index(id: ObjectId, count: usize) -> usize {
    debug_assert!(count > 0);
    let h = id.as_u64().wrapping_mul(0x9E37_79B9_7F4A_7C15);
    // Fold the well-mixed high bits down before reducing.
    ((h >> 32) as usize) % count
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_index_is_stable_and_in_range() {
        for count in [1, 2, 16, 24] {
            for raw in 0..200 {
                let a = shard_index(ObjectId(raw), count);
                let b = shard_index(ObjectId(raw), count);
                assert_eq!(a, b);
                assert!(a < count);
            }
        }
    }

    #[test]
    fn sequential_ids_spread_across_shards() {
        let mut hit = vec![0usize; 16];
        for raw in 0..256 {
            hit[shard_index(ObjectId(raw), 16)] += 1;
        }
        let empty = hit.iter().filter(|&&n| n == 0).count();
        assert_eq!(empty, 0, "sequential ids must reach every shard: {hit:?}");
    }

    #[test]
    fn lock_counts_acquisitions_and_contention() {
        let h = ShardHandle::new(StateLayer::with_defaults());
        drop(h.lock());
        drop(h.lock());
        let (acq, contended) = h.counters();
        assert_eq!(acq, 2);
        assert_eq!(contended, 0);
        // Hold the lock on one thread while another acquires it. The
        // contended counter bumps *before* the blocking lock, so spinning
        // on it is race-free: the guard is still held until we see it.
        std::thread::scope(|s| {
            let guard = h.lock();
            s.spawn(|| drop(h.lock()));
            while h.counters().1 == 0 {
                std::thread::yield_now();
            }
            drop(guard);
        });
        let (acq, contended) = h.counters();
        assert_eq!(acq, 4);
        assert_eq!(contended, 1);
    }
}
