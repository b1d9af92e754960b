//! The distributed in-memory hash table.
//!
//! Oparaca's class runtimes keep hot object state in a distributed
//! in-memory hash table (Infinispan in the real system) and "consolidate
//! data for batch write operations" to the database (paper §V). `Dht`
//! models the table itself: membership via a consistent-hash ring,
//! per-member in-memory partitions, synchronous replication to the next
//! `replication - 1` distinct members, and deterministic rebalancing on
//! membership changes.
//!
//! Durability is *not* this type's job — pair it with
//! [`crate::WriteBehindBuffer`] and [`crate::PersistentDb`].

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use oprc_value::Snapshot;

use crate::{HashRing, StoreError};

/// Identifier of a DHT member node.
///
/// In the platform, each class-runtime instance (or each worker VM)
/// hosts one member.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DhtNodeId(pub u64);

impl std::fmt::Display for DhtNodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "dht-{}", self.0)
    }
}

/// Replica sets up to this size live entirely on the stack.
pub const MAX_INLINE_OWNERS: usize = 8;

/// The replica set of one key, primary first — allocation-free for the
/// common case.
///
/// [`Dht::owners`] sits on the invoke hot path (every state read and
/// write resolves its replica set), so the set is an inline array up to
/// [`MAX_INLINE_OWNERS`] members and only spills to the heap for
/// replication factors larger than that. Dereferences to a slice of
/// [`DhtNodeId`], so slice idioms (`len`, indexing, `contains`) work
/// unchanged.
#[derive(Debug, Clone, Default)]
pub struct OwnerSet {
    len: usize,
    inline: [DhtNodeId; MAX_INLINE_OWNERS],
    /// Used only when the set outgrows the inline buffer; an empty `Vec`
    /// never allocates.
    spill: Vec<DhtNodeId>,
}

impl OwnerSet {
    fn new() -> Self {
        OwnerSet::default()
    }

    fn push(&mut self, id: DhtNodeId) {
        if self.spill.is_empty() && self.len < MAX_INLINE_OWNERS {
            self.inline[self.len] = id;
        } else {
            if self.spill.is_empty() {
                self.spill.extend_from_slice(&self.inline[..self.len]);
            }
            self.spill.push(id);
        }
        self.len += 1;
    }

    /// The owners as a slice, primary first.
    pub fn as_slice(&self) -> &[DhtNodeId] {
        if self.spill.is_empty() {
            &self.inline[..self.len]
        } else {
            &self.spill
        }
    }
}

impl std::ops::Deref for OwnerSet {
    type Target = [DhtNodeId];
    fn deref(&self) -> &[DhtNodeId] {
        self.as_slice()
    }
}

/// Consuming iterator over an [`OwnerSet`].
#[derive(Debug)]
pub struct OwnerSetIter {
    set: OwnerSet,
    pos: usize,
}

impl Iterator for OwnerSetIter {
    type Item = DhtNodeId;
    fn next(&mut self) -> Option<DhtNodeId> {
        let id = self.set.as_slice().get(self.pos).copied()?;
        self.pos += 1;
        Some(id)
    }
}

impl IntoIterator for OwnerSet {
    type Item = DhtNodeId;
    type IntoIter = OwnerSetIter;
    fn into_iter(self) -> OwnerSetIter {
        OwnerSetIter { set: self, pos: 0 }
    }
}

impl<'a> IntoIterator for &'a OwnerSet {
    type Item = &'a DhtNodeId;
    type IntoIter = std::slice::Iter<'a, DhtNodeId>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

/// Tunables for [`Dht`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DhtConfig {
    /// Copies of each record (1 = no redundancy).
    pub replication: usize,
    /// Virtual nodes per member on the hash ring.
    pub vnodes: u32,
}

impl Default for DhtConfig {
    fn default() -> Self {
        DhtConfig {
            replication: 2,
            vnodes: 64,
        }
    }
}

/// A partitioned, replicated, in-memory hash table.
///
/// # Examples
///
/// ```
/// use oprc_store::{Dht, DhtConfig, DhtNodeId};
/// use oprc_value::vjson;
///
/// let mut dht = Dht::new(DhtConfig::default());
/// dht.join(DhtNodeId(0));
/// dht.join(DhtNodeId(1));
/// dht.put("obj-1", vjson!({"n": 1}))?;
/// assert_eq!(dht.get("obj-1").unwrap()["n"].as_i64(), Some(1));
/// # Ok::<(), oprc_store::StoreError>(())
/// ```
#[derive(Debug)]
pub struct Dht {
    cfg: DhtConfig,
    ring: HashRing,
    /// member → partition data. Records are copy-on-write snapshots,
    /// so replicating a value to `replication` members or rebalancing a
    /// partition bumps refcounts instead of deep-cloning state.
    partitions: BTreeMap<DhtNodeId, BTreeMap<String, Snapshot>>,
    /// Operation counters are atomic so the read path ([`Dht::get`],
    /// [`Dht::owners`], [`Dht::primary`], [`Dht::partition_len`]) works
    /// through `&self` — concurrent readers never serialize on a counter.
    puts: AtomicU64,
    gets: AtomicU64,
    moved_records: AtomicU64,
}

impl Clone for Dht {
    fn clone(&self) -> Self {
        Dht {
            cfg: self.cfg.clone(),
            ring: self.ring.clone(),
            partitions: self.partitions.clone(),
            puts: AtomicU64::new(self.puts.load(Ordering::Relaxed)),
            gets: AtomicU64::new(self.gets.load(Ordering::Relaxed)),
            moved_records: AtomicU64::new(self.moved_records.load(Ordering::Relaxed)),
        }
    }
}

impl Dht {
    /// Creates an empty table with no members.
    pub fn new(cfg: DhtConfig) -> Self {
        let ring = HashRing::new(cfg.vnodes);
        Dht {
            cfg,
            ring,
            partitions: BTreeMap::new(),
            puts: AtomicU64::new(0),
            gets: AtomicU64::new(0),
            moved_records: AtomicU64::new(0),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &DhtConfig {
        &self.cfg
    }

    /// Current members in id order.
    pub fn members(&self) -> Vec<DhtNodeId> {
        self.partitions.keys().copied().collect()
    }

    /// Total `put` operations served.
    pub fn puts(&self) -> u64 {
        self.puts.load(Ordering::Relaxed)
    }

    /// Total `get` operations served.
    pub fn gets(&self) -> u64 {
        self.gets.load(Ordering::Relaxed)
    }

    /// Records moved by rebalances so far.
    pub fn moved_records(&self) -> u64 {
        self.moved_records.load(Ordering::Relaxed)
    }

    /// Adds a member and rebalances affected records onto it.
    ///
    /// Returns the number of records that moved.
    pub fn join(&mut self, node: DhtNodeId) -> u64 {
        if self.partitions.contains_key(&node) {
            return 0;
        }
        self.ring.add(node.0);
        self.partitions.insert(node, BTreeMap::new());
        self.rebalance()
    }

    /// Removes a member, redistributing the records it held.
    ///
    /// Returns the number of records that moved. Records survive as long
    /// as at least one replica member remains; with `replication` == 1 a
    /// leave is lossy only if the member held the sole copy and no other
    /// member exists.
    pub fn leave(&mut self, node: DhtNodeId) -> u64 {
        let Some(orphaned) = self.partitions.remove(&node) else {
            return 0;
        };
        self.ring.remove(node.0);
        // Re-insert orphaned records (replicas elsewhere may already hold
        // them; re-putting is idempotent).
        let mut moved = 0;
        for (k, v) in orphaned {
            if !self.ring.is_empty() {
                self.put_internal(&k, v);
                moved += 1;
            }
        }
        moved += self.rebalance();
        self.moved_records.fetch_add(moved, Ordering::Relaxed);
        moved
    }

    /// The members holding replicas of `key`, primary first.
    ///
    /// Allocation-free for replication factors up to
    /// [`MAX_INLINE_OWNERS`]: the distinct-member walk dedups into the
    /// returned set's inline buffer instead of a heap vector.
    pub fn owners(&self, key: &str) -> OwnerSet {
        let mut out = OwnerSet::new();
        let want = self.cfg.replication.min(self.ring.len());
        if want == 0 {
            return out;
        }
        for member in self.ring.walk(key) {
            let id = DhtNodeId(member);
            if !out.as_slice().contains(&id) {
                out.push(id);
                if out.len() == want {
                    break;
                }
            }
        }
        out
    }

    /// The primary owner of `key`.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoOwner`] on an empty table.
    pub fn primary(&self, key: &str) -> Result<DhtNodeId, StoreError> {
        self.ring
            .owner(key)
            .map(DhtNodeId)
            .ok_or(StoreError::NoOwner)
    }

    /// Stores `value` under `key` on all replica members.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::NoOwner`] when the table has no members.
    pub fn put(&mut self, key: &str, value: impl Into<Snapshot>) -> Result<(), StoreError> {
        if self.ring.is_empty() {
            return Err(StoreError::NoOwner);
        }
        self.put_internal(key, value.into());
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn put_internal(&mut self, key: &str, value: Snapshot) {
        for owner in self.owners(key) {
            let partition = self
                .partitions
                .get_mut(&owner)
                .expect("ring members have partitions");
            // An overwrite reuses the slot; only a first insert
            // allocates the key.
            match partition.get_mut(key) {
                Some(slot) => *slot = value.clone(),
                None => {
                    partition.insert(key.to_string(), value.clone());
                }
            }
        }
    }

    /// Visits `key`'s slot on every replica member that holds it,
    /// primary first, so a caller with exclusive access to the table
    /// can release and re-fill the replicas' handles without touching
    /// the maps. Counts as neither a `get` nor a `put`.
    pub fn for_each_slot(&mut self, key: &str, mut f: impl FnMut(&mut Snapshot)) {
        for owner in self.owners(key) {
            if let Some(slot) = self.partitions.get_mut(&owner).and_then(|p| p.get_mut(key)) {
                f(slot);
            }
        }
    }

    /// Reads `key` from its primary replica. The returned snapshot
    /// shares the partition's allocation (refcount bump, not a copy).
    ///
    /// Takes `&self`: the only mutation is the atomic `gets` counter, so
    /// any number of readers may probe the table concurrently.
    pub fn get(&self, key: &str) -> Option<Snapshot> {
        self.gets.fetch_add(1, Ordering::Relaxed);
        let primary = self.ring.owner(key).map(DhtNodeId)?;
        self.partitions.get(&primary)?.get(key).cloned()
    }

    /// Removes `key` from all replicas, returning the primary's copy.
    pub fn delete(&mut self, key: &str) -> Option<Snapshot> {
        let mut out = None;
        for owner in self.owners(key) {
            let removed = self.partitions.get_mut(&owner).and_then(|p| p.remove(key));
            out = out.or(removed);
        }
        out
    }

    /// Number of records on `node` (diagnostics / balance checks).
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::UnknownNode`] if the node is not a member.
    pub fn partition_len(&self, node: DhtNodeId) -> Result<usize, StoreError> {
        self.partitions
            .get(&node)
            .map(BTreeMap::len)
            .ok_or(StoreError::UnknownNode(node.0))
    }

    /// Total distinct keys (union over partitions).
    pub fn len(&self) -> usize {
        let mut keys: Vec<&String> = self.partitions.values().flat_map(|p| p.keys()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys.len()
    }

    /// True if no records exist.
    pub fn is_empty(&self) -> bool {
        self.partitions.values().all(BTreeMap::is_empty)
    }

    /// Moves every record to its correct replica set after a membership
    /// change; returns how many records moved.
    fn rebalance(&mut self) -> u64 {
        let mut moved = 0;
        // Collect all (key, value) with current holder.
        let snapshot: Vec<(DhtNodeId, String, Snapshot)> = self
            .partitions
            .iter()
            .flat_map(|(&n, p)| p.iter().map(move |(k, v)| (n, k.clone(), v.clone())))
            .collect();
        for (holder, key, value) in snapshot {
            let owners = self.owners(&key);
            if !owners.contains(&holder) {
                self.partitions
                    .get_mut(&holder)
                    .expect("holder exists")
                    .remove(&key);
                moved += 1;
            }
            for owner in owners {
                let p = self.partitions.get_mut(&owner).expect("owner exists");
                if !p.contains_key(&key) {
                    p.insert(key.clone(), value.clone());
                    moved += 1;
                }
            }
        }
        self.moved_records.fetch_add(moved, Ordering::Relaxed);
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_value::vjson;

    fn dht(members: u64, replication: usize) -> Dht {
        let mut d = Dht::new(DhtConfig {
            replication,
            vnodes: 32,
        });
        for m in 0..members {
            d.join(DhtNodeId(m));
        }
        d
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut d = dht(3, 2);
        d.put("a", vjson!({"v": 1})).unwrap();
        assert_eq!(d.get("a").unwrap()["v"].as_i64(), Some(1));
        assert_eq!(d.delete("a").unwrap()["v"].as_i64(), Some(1));
        assert_eq!(d.get("a"), None);
        assert_eq!(d.puts(), 1);
        assert!(d.gets() >= 2);
    }

    #[test]
    fn empty_table_rejects_puts() {
        let mut d = Dht::new(DhtConfig::default());
        assert_eq!(d.put("k", vjson!(1)), Err(StoreError::NoOwner));
        assert_eq!(d.primary("k"), Err(StoreError::NoOwner));
    }

    #[test]
    fn replication_places_copies_on_distinct_members() {
        let mut d = dht(4, 3);
        d.put("key", vjson!(1)).unwrap();
        let owners = d.owners("key");
        assert_eq!(owners.len(), 3);
        for o in &owners {
            assert!(d.partitions[o].contains_key("key"));
        }
        // Non-owners don't hold it.
        let holding = d
            .partitions
            .iter()
            .filter(|(_, p)| p.contains_key("key"))
            .count();
        assert_eq!(holding, 3);
    }

    #[test]
    fn replicas_share_one_allocation() {
        // Replication is a refcount bump per extra member, not a deep
        // clone — the CoW contract the hot path relies on.
        let mut d = dht(4, 3);
        d.put("key", vjson!({"payload": [1, 2, 3]})).unwrap();
        let owners = d.owners("key");
        let primary_copy = d.partitions[&owners[0]]["key"].clone();
        for o in &owners[1..] {
            assert!(Snapshot::ptr_eq(&primary_copy, &d.partitions[o]["key"]));
        }
        assert!(Snapshot::ptr_eq(&primary_copy, &d.get("key").unwrap()));
    }

    #[test]
    fn slots_are_visited_primary_first_without_counting() {
        let mut d = dht(4, 2);
        d.put("key", vjson!(1)).unwrap();
        let mut seen = 0;
        d.for_each_slot("key", |slot| {
            seen += 1;
            *slot = Snapshot::from(vjson!(2));
        });
        assert_eq!(seen, 2);
        assert_eq!(d.get("key").unwrap().as_i64(), Some(2));
        d.for_each_slot("absent", |_| panic!("no slot to visit"));
        assert_eq!((d.puts(), d.gets()), (1, 1));
    }

    #[test]
    fn records_survive_single_member_loss() {
        let mut d = dht(4, 2);
        for i in 0..200 {
            d.put(&format!("k{i}"), vjson!(i)).unwrap();
        }
        d.leave(DhtNodeId(1));
        for i in 0..200 {
            assert_eq!(
                d.get(&format!("k{i}")).and_then(|v| v.as_i64()),
                Some(i),
                "k{i} lost after leave"
            );
        }
    }

    #[test]
    fn join_rebalances_ownership() {
        let mut d = dht(2, 1);
        for i in 0..300 {
            d.put(&format!("k{i}"), vjson!(i)).unwrap();
        }
        let moved = d.join(DhtNodeId(2));
        assert!(moved > 0, "a join must take over some keys");
        // All keys still readable, and the new member holds some.
        for i in 0..300 {
            assert!(d.get(&format!("k{i}")).is_some());
        }
        assert!(d.partition_len(DhtNodeId(2)).unwrap() > 20);
        // Invariant: every key lives exactly on its owner set.
        for i in 0..300 {
            let k = format!("k{i}");
            let owners = d.owners(&k);
            let holders: Vec<DhtNodeId> = d
                .partitions
                .iter()
                .filter(|(_, p)| p.contains_key(&k))
                .map(|(&n, _)| n)
                .collect();
            assert_eq!(holders, owners.as_slice(), "key {k}");
        }
    }

    #[test]
    fn partition_sizes_roughly_balanced() {
        let mut d = dht(4, 1);
        for i in 0..2000 {
            d.put(&format!("key-{i}"), vjson!(i)).unwrap();
        }
        for m in d.members() {
            let n = d.partition_len(m).unwrap();
            assert!((200..=1000).contains(&n), "partition {m} has {n}");
        }
        assert_eq!(d.len(), 2000);
    }

    #[test]
    fn idempotent_join_leave() {
        let mut d = dht(2, 1);
        assert_eq!(d.join(DhtNodeId(0)), 0);
        assert_eq!(d.leave(DhtNodeId(77)), 0);
        assert_eq!(d.members().len(), 2);
    }

    #[test]
    fn unknown_partition_query_errors() {
        let d = dht(1, 1);
        assert_eq!(
            d.partition_len(DhtNodeId(9)),
            Err(StoreError::UnknownNode(9))
        );
    }

    #[test]
    fn shared_reads_count_atomically() {
        let mut d = dht(2, 1);
        d.put("k", vjson!(1)).unwrap();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..100 {
                        assert!(d.get("k").is_some());
                    }
                });
            }
        });
        assert_eq!(d.gets(), 400);
    }

    #[test]
    fn clone_carries_counters() {
        let mut d = dht(2, 1);
        d.put("k", vjson!(1)).unwrap();
        let _ = d.get("k");
        let c = d.clone();
        assert_eq!(c.puts(), 1);
        assert_eq!(c.gets(), 1);
        assert_eq!(c.get("k").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn replication_capped_by_membership() {
        let mut d = dht(2, 3);
        d.put("k", vjson!(1)).unwrap();
        assert_eq!(d.owners("k").len(), 2);
    }

    #[test]
    fn owner_set_matches_ring_replicas() {
        let d = dht(5, 3);
        for i in 0..100 {
            let k = format!("key-{i}");
            let owners = d.owners(&k);
            assert_eq!(owners.len(), 3);
            assert_eq!(owners[0], d.primary(&k).unwrap());
            let mut dedup: Vec<DhtNodeId> = owners.to_vec();
            dedup.dedup();
            assert_eq!(dedup.len(), owners.len(), "owners must be distinct");
        }
    }

    #[test]
    fn owner_set_spills_past_inline_capacity() {
        let mut d = dht(12, 12);
        d.put("wide", vjson!(1)).unwrap();
        let owners = d.owners("wide");
        assert_eq!(owners.len(), 12, "spill path must keep all members");
        let mut seen: Vec<DhtNodeId> = owners.as_slice().to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 12);
        for o in &owners {
            assert!(d.partitions[o].contains_key("wide"));
        }
    }
}
