//! Write-behind buffering with per-key consolidation.
//!
//! The paper attributes Oparaca's throughput advantage to "its reliance
//! on the distributed in-memory hash table to consolidate data for batch
//! write operations" (§V). The buffer implements that consolidation:
//!
//! - updates are keyed; a second update to the same key *replaces* the
//!   pending one (consolidation — hot objects cost one DB write per
//!   flush, not one per update);
//! - a flush is cut when the buffer reaches `max_batch` records **or**
//!   the oldest pending record has waited `max_delay`;
//! - flushes preserve FIFO order of first-dirty times, so staleness is
//!   bounded by `max_delay` + DB admission time.

use std::collections::{BTreeMap, VecDeque};

use oprc_simcore::SimTime;
use oprc_value::Snapshot;

/// Tunables for [`WriteBehindBuffer`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WriteBehindConfig {
    /// Cut a batch at this many distinct dirty keys.
    pub max_batch: usize,
    /// Cut a batch when the oldest dirty record reaches this age.
    pub max_delay: oprc_simcore::SimDuration,
}

impl Default for WriteBehindConfig {
    fn default() -> Self {
        WriteBehindConfig {
            max_batch: 100,
            max_delay: oprc_simcore::SimDuration::from_millis(50),
        }
    }
}

/// A batch of consolidated records ready to be written to the database.
#[derive(Debug, Clone, PartialEq)]
pub struct FlushBatch {
    /// Records in first-dirtied order, as copy-on-write snapshots
    /// shared with the in-memory tier (buffering costs no deep clone).
    pub records: Vec<(String, Snapshot)>,
    /// When the oldest record in the batch was first dirtied.
    pub oldest: SimTime,
}

impl FlushBatch {
    /// Number of records in the batch.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if the batch holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

/// The write-behind buffer.
///
/// # Examples
///
/// ```
/// use oprc_store::{WriteBehindBuffer, WriteBehindConfig};
/// use oprc_simcore::{SimDuration, SimTime};
/// use oprc_value::vjson;
///
/// let mut buf = WriteBehindBuffer::new(WriteBehindConfig {
///     max_batch: 2,
///     max_delay: SimDuration::from_millis(50),
/// });
/// buf.offer(SimTime::ZERO, "obj-1", vjson!(1));
/// buf.offer(SimTime::ZERO, "obj-1", vjson!(2)); // consolidated
/// assert!(!buf.batch_ready(SimTime::ZERO));     // 1 distinct key < max_batch
/// buf.offer(SimTime::ZERO, "obj-2", vjson!(3));
/// let batch = buf.take_batch(SimTime::ZERO).expect("full batch");
/// assert_eq!(batch.len(), 2);
/// assert_eq!(batch.records[0].1, vjson!(2));    // latest value won
/// ```
#[derive(Debug, Clone, Default)]
pub struct WriteBehindBuffer {
    cfg: WriteBehindConfig,
    /// key → latest pending value (a snapshot shared with the DHT)
    pending: BTreeMap<String, Snapshot>,
    /// first-dirty queue (key, time); stale entries skipped on drain
    order: VecDeque<(String, SimTime)>,
    offers: u64,
    consolidated: u64,
    batches: u64,
    flushed_records: u64,
}

impl WriteBehindBuffer {
    /// Creates an empty buffer.
    pub fn new(cfg: WriteBehindConfig) -> Self {
        WriteBehindBuffer {
            cfg,
            ..Default::default()
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> WriteBehindConfig {
        self.cfg
    }

    /// Updates offered (including consolidated ones).
    pub fn offers(&self) -> u64 {
        self.offers
    }

    /// Updates absorbed by consolidation (no extra DB record needed).
    pub fn consolidated(&self) -> u64 {
        self.consolidated
    }

    /// Batches taken so far.
    pub fn batches(&self) -> u64 {
        self.batches
    }

    /// Records flushed so far.
    pub fn flushed_records(&self) -> u64 {
        self.flushed_records
    }

    /// Distinct dirty keys currently pending.
    pub fn pending_len(&self) -> usize {
        self.pending.len()
    }

    /// Buffers an update for `key` at `now`.
    pub fn offer(&mut self, now: SimTime, key: &str, value: impl Into<Snapshot>) {
        self.offers += 1;
        // Consolidation reuses the pending slot; only a first-dirty
        // offer allocates the key.
        if let Some(slot) = self.pending.get_mut(key) {
            *slot = value.into();
            self.consolidated += 1;
        } else {
            self.pending.insert(key.to_string(), value.into());
            self.order.push_back((key.to_string(), now));
        }
    }

    /// The pending value of `key`, if it is dirty: lets a caller with
    /// exclusive access release and re-fill the buffer's handle in
    /// place. Not an offer — counters and first-dirty order do not move.
    pub fn pending_mut(&mut self, key: &str) -> Option<&mut Snapshot> {
        self.pending.get_mut(key)
    }

    /// When the next flush is due, if anything is pending: the earlier of
    /// "oldest + max_delay" and "now" when already full.
    pub fn next_due(&self, now: SimTime) -> Option<SimTime> {
        if self.pending.is_empty() {
            return None;
        }
        if self.pending.len() >= self.cfg.max_batch {
            return Some(now);
        }
        self.oldest().map(|t| t + self.cfg.max_delay)
    }

    fn oldest(&self) -> Option<SimTime> {
        self.order
            .iter()
            .find(|(k, _)| self.pending.contains_key(k))
            .map(|&(_, t)| t)
    }

    /// True if a batch should be cut at `now`.
    pub fn batch_ready(&self, now: SimTime) -> bool {
        match self.next_due(now) {
            Some(due) => due <= now,
            None => false,
        }
    }

    /// Cuts a batch if one is due at `now`.
    ///
    /// Takes up to `max_batch` records in first-dirtied order; remaining
    /// records stay pending for the next cut.
    pub fn take_batch(&mut self, now: SimTime) -> Option<FlushBatch> {
        if !self.batch_ready(now) {
            return None;
        }
        Some(self.drain(self.cfg.max_batch))
    }

    /// Cuts *all* due records at `now` as one batch, ignoring
    /// `max_batch`: N deltas committed inside a flush window coalesce
    /// into a single database write (one batched `put` covering every
    /// dirty key) instead of ⌈N / max_batch⌉ sequential batches. This is
    /// the flush path the platform's write-behind worker uses;
    /// [`Self::take_batch`] remains for callers that need bounded batch
    /// sizes (e.g. rate-limited DB admission).
    pub fn take_due(&mut self, now: SimTime) -> Option<FlushBatch> {
        if !self.batch_ready(now) {
            return None;
        }
        let batch = self.drain(usize::MAX);
        (!batch.is_empty()).then_some(batch)
    }

    /// Unconditionally drains up to `limit` records (shutdown / final
    /// flush).
    pub fn drain(&mut self, limit: usize) -> FlushBatch {
        let mut records = Vec::new();
        let mut oldest = None;
        while records.len() < limit {
            let Some((key, t)) = self.order.pop_front() else {
                break;
            };
            let Some(value) = self.pending.remove(&key) else {
                continue; // stale order entry (already flushed)
            };
            oldest.get_or_insert(t);
            records.push((key, value));
        }
        if !records.is_empty() {
            self.batches += 1;
            self.flushed_records += records.len() as u64;
        }
        FlushBatch {
            records,
            oldest: oldest.unwrap_or(SimTime::ZERO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_simcore::SimDuration;
    use oprc_value::vjson;

    fn buf(max_batch: usize, delay_ms: u64) -> WriteBehindBuffer {
        WriteBehindBuffer::new(WriteBehindConfig {
            max_batch,
            max_delay: SimDuration::from_millis(delay_ms),
        })
    }

    #[test]
    fn consolidation_replaces_pending_value() {
        let mut b = buf(10, 50);
        for i in 0..5 {
            b.offer(SimTime::ZERO, "hot", vjson!(i));
        }
        assert_eq!(b.offers(), 5);
        assert_eq!(b.consolidated(), 4);
        assert_eq!(b.pending_len(), 1);
        let batch = b.drain(10);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.records[0].1, vjson!(4));
    }

    #[test]
    fn size_trigger() {
        let mut b = buf(3, 1_000);
        b.offer(SimTime::ZERO, "a", vjson!(1));
        b.offer(SimTime::ZERO, "b", vjson!(2));
        assert!(!b.batch_ready(SimTime::ZERO));
        b.offer(SimTime::ZERO, "c", vjson!(3));
        assert!(b.batch_ready(SimTime::ZERO));
        let batch = b.take_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.len(), 3);
        assert_eq!(b.pending_len(), 0);
    }

    #[test]
    fn delay_trigger() {
        let mut b = buf(100, 50);
        b.offer(SimTime::ZERO, "a", vjson!(1));
        assert!(!b.batch_ready(SimTime::from_millis(49)));
        assert!(b.batch_ready(SimTime::from_millis(50)));
        assert_eq!(b.next_due(SimTime::ZERO), Some(SimTime::from_millis(50)));
        let batch = b.take_batch(SimTime::from_millis(50)).unwrap();
        assert_eq!(batch.oldest, SimTime::ZERO);
        assert_eq!(batch.len(), 1);
    }

    #[test]
    fn fifo_order_by_first_dirty() {
        let mut b = buf(10, 0);
        b.offer(SimTime::from_millis(1), "x", vjson!(1));
        b.offer(SimTime::from_millis(2), "y", vjson!(2));
        b.offer(SimTime::from_millis(3), "x", vjson!(3)); // re-dirty keeps slot
        let batch = b.drain(10);
        let keys: Vec<&str> = batch.records.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["x", "y"]);
        assert_eq!(batch.records[0].1, vjson!(3));
    }

    #[test]
    fn partial_drain_leaves_remainder() {
        let mut b = buf(2, 1_000);
        for i in 0..5 {
            b.offer(SimTime::ZERO, &format!("k{i}"), vjson!(i));
        }
        let batch = b.take_batch(SimTime::ZERO).unwrap();
        assert_eq!(batch.len(), 2);
        assert_eq!(b.pending_len(), 3);
        // Still due immediately (over max_batch? no, 3 > 2 → yes).
        assert!(b.batch_ready(SimTime::ZERO));
    }

    #[test]
    fn take_due_coalesces_all_pending_into_one_batch() {
        let mut b = buf(3, 1_000);
        for i in 0..7 {
            b.offer(SimTime::ZERO, &format!("k{i}"), vjson!(i));
        }
        // take_batch would need ⌈7/3⌉ = 3 cuts; take_due coalesces.
        let batch = b.take_due(SimTime::ZERO).unwrap();
        assert_eq!(batch.len(), 7);
        assert_eq!(b.pending_len(), 0);
        assert_eq!(b.batches(), 1);
        assert!(b.take_due(SimTime::ZERO).is_none());
    }

    #[test]
    fn buffered_records_share_the_offered_snapshot() {
        let mut b = buf(10, 0);
        let snap = Snapshot::from(vjson!({"n": 1}));
        b.offer(SimTime::ZERO, "k", snap.clone());
        let batch = b.drain(10);
        assert!(Snapshot::ptr_eq(&snap, &batch.records[0].1));
    }

    #[test]
    fn pending_mut_is_not_an_offer() {
        let mut b = buf(10, 0);
        b.offer(SimTime::from_millis(1), "x", vjson!(1));
        b.offer(SimTime::from_millis(2), "y", vjson!(2));
        *b.pending_mut("x").unwrap() = Snapshot::from(vjson!(9));
        assert!(b.pending_mut("clean").is_none());
        assert_eq!((b.offers(), b.consolidated(), b.pending_len()), (2, 0, 2));
        let batch = b.drain(10);
        assert_eq!(
            batch.records[0],
            ("x".to_string(), Snapshot::from(vjson!(9)))
        );
        assert_eq!(batch.records[1].0, "y");
        assert_eq!(batch.oldest, SimTime::from_millis(1));
    }

    #[test]
    fn empty_buffer_never_due() {
        let mut b = buf(1, 0);
        assert_eq!(b.next_due(SimTime::from_secs(9)), None);
        assert!(b.take_batch(SimTime::from_secs(9)).is_none());
        assert!(b.drain(10).is_empty());
        assert_eq!(b.batches(), 0);
    }

    #[test]
    fn stale_order_entries_skipped() {
        let mut b = buf(10, 0);
        b.offer(SimTime::ZERO, "a", vjson!(1));
        b.offer(SimTime::ZERO, "b", vjson!(2));
        let _ = b.drain(1); // flushes "a"
        b.offer(SimTime::from_millis(1), "a", vjson!(3)); // re-dirty a
        let batch = b.drain(10);
        let keys: Vec<&str> = batch.records.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, vec!["b", "a"]);
    }

    #[test]
    fn metrics_accumulate() {
        let mut b = buf(2, 1_000);
        for i in 0..6 {
            b.offer(SimTime::ZERO, &format!("k{}", i % 3), vjson!(i));
        }
        // 6 offers over 3 keys → 3 consolidated.
        assert_eq!(b.consolidated(), 3);
        b.take_batch(SimTime::ZERO);
        b.drain(10);
        assert_eq!(b.batches(), 2);
        assert_eq!(b.flushed_records(), 3);
    }
}
