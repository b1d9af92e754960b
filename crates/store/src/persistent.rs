//! The persistent database with a modelled write budget.
//!
//! In the paper's evaluation the external database's write throughput is
//! the shared bottleneck: "the throughput of Knative plateaus after
//! reaching 6 VMs [...] attributed to the database write operation
//! throughput bottleneck" (§V). `PersistentDb` is a real KV store whose
//! *admission times* are governed by a token bucket of write operations
//! per second, so a DES harness can ask "when would this write (or batch)
//! become durable?" while the data itself is stored for functional tests.
//!
//! A batch of N records costs **one** write operation plus a small
//! per-record increment — this is exactly the amortization that lets
//! Oparaca's write-behind batching outrun the direct-write baseline.

use std::collections::BTreeMap;

use oprc_simcore::queueing::TokenBucket;
use oprc_simcore::SimTime;
use oprc_value::Snapshot;

/// Tunables for [`PersistentDb`].
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentDbConfig {
    /// Write operations per second the backend sustains.
    pub write_ops_per_sec: f64,
    /// Burst capacity in write operations.
    pub write_burst: f64,
    /// Extra cost per record in a batch, in fractions of a write op.
    ///
    /// A batch of N records costs `1 + (N-1) * batch_record_cost` ops.
    /// `0.0` means batching is free beyond the first record; `1.0`
    /// degenerates to per-record writes.
    pub batch_record_cost: f64,
}

impl Default for PersistentDbConfig {
    fn default() -> Self {
        PersistentDbConfig {
            write_ops_per_sec: 4_000.0,
            write_burst: 400.0,
            batch_record_cost: 0.02,
        }
    }
}

/// Write-side statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Individual `put` operations admitted.
    pub single_writes: u64,
    /// Batched write operations admitted.
    pub batch_writes: u64,
    /// Records written via batches.
    pub batch_records: u64,
}

/// A durable KV store with write-throughput admission control.
///
/// Reads are unconstrained (the evaluation workload is write-bound).
/// Records are held as [`Snapshot`]s, so a write-behind flush *moves*
/// its handles in and a cold read hands one out by refcount bump; a
/// stored version is immutable — whoever writes the record next copies
/// it first ([`Snapshot::make_mut`]) because this handle still exists.
///
/// # Examples
///
/// ```
/// use oprc_store::{PersistentDb, PersistentDbConfig};
/// use oprc_simcore::SimTime;
/// use oprc_value::vjson;
///
/// let mut db = PersistentDb::new(PersistentDbConfig {
///     write_ops_per_sec: 100.0,
///     write_burst: 1.0,
///     batch_record_cost: 0.0,
/// });
/// let t1 = db.put(SimTime::ZERO, "k1", vjson!(1));
/// let t2 = db.put(SimTime::ZERO, "k2", vjson!(2));
/// assert_eq!(t1, SimTime::ZERO);
/// assert!(t2 > t1, "second write waits for the write budget");
/// ```
#[derive(Debug, Clone)]
pub struct PersistentDb {
    cfg: PersistentDbConfig,
    bucket: TokenBucket,
    data: BTreeMap<String, Snapshot>,
    stats: DbStats,
}

impl PersistentDb {
    /// Creates a database with the given write budget.
    pub fn new(cfg: PersistentDbConfig) -> Self {
        let bucket = TokenBucket::new(cfg.write_ops_per_sec, cfg.write_burst.max(1.0));
        PersistentDb {
            cfg,
            bucket,
            data: BTreeMap::new(),
            stats: DbStats::default(),
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &PersistentDbConfig {
        &self.cfg
    }

    /// Write statistics so far.
    pub fn stats(&self) -> DbStats {
        self.stats
    }

    /// Reads a record (no admission cost, no copy).
    pub fn get(&self, key: &str) -> Option<Snapshot> {
        self.data.get(key).cloned()
    }

    /// Number of durable records.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True if no records are durable yet.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Writes one record at `now`, returning when it becomes durable
    /// under the write budget.
    pub fn put(&mut self, now: SimTime, key: &str, value: impl Into<Snapshot>) -> SimTime {
        let durable_at = self.bucket.acquire(now, 1.0);
        self.data.insert(key.to_string(), value.into());
        self.stats.single_writes += 1;
        durable_at
    }

    /// Writes a batch of records as one consolidated operation,
    /// returning when the batch becomes durable.
    ///
    /// An empty batch is free and durable immediately. Records are
    /// accepted as anything convertible to [`Snapshot`]; the write-behind
    /// buffer's own snapshots move in as they are, keys included, so a
    /// flush costs no copy however large the records.
    pub fn put_batch<V: Into<Snapshot>>(
        &mut self,
        now: SimTime,
        records: impl IntoIterator<Item = (String, V)>,
    ) -> SimTime {
        let mut n = 0u64;
        for (k, v) in records {
            self.data.insert(k, v.into());
            n += 1;
        }
        if n == 0 {
            return now;
        }
        let cost = 1.0 + (n - 1) as f64 * self.cfg.batch_record_cost;
        let durable_at = self.bucket.acquire(now, cost);
        self.stats.batch_writes += 1;
        self.stats.batch_records += n;
        durable_at
    }
}

impl Default for PersistentDb {
    fn default() -> Self {
        PersistentDb::new(PersistentDbConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_value::{vjson, Value};

    fn db(rate: f64, burst: f64, per_record: f64) -> PersistentDb {
        PersistentDb::new(PersistentDbConfig {
            write_ops_per_sec: rate,
            write_burst: burst,
            batch_record_cost: per_record,
        })
    }

    #[test]
    fn writes_are_stored_and_readable() {
        let mut d = db(1000.0, 10.0, 0.0);
        d.put(SimTime::ZERO, "a", vjson!({"x": 1}));
        assert_eq!(d.get("a").unwrap()["x"].as_i64(), Some(1));
        assert_eq!(d.len(), 1);
        assert!(d.get("missing").is_none());
    }

    #[test]
    fn write_budget_throttles_singles() {
        let mut d = db(10.0, 1.0, 0.0);
        let mut last = SimTime::ZERO;
        for i in 0..21 {
            last = d.put(SimTime::ZERO, &format!("k{i}"), vjson!(i));
        }
        // 21 writes at 10/s with burst 1 → last durable at ~2s.
        assert!((last.as_secs_f64() - 2.0).abs() < 0.01, "{last}");
        assert_eq!(d.stats().single_writes, 21);
    }

    #[test]
    fn batches_amortize_the_budget() {
        // Direct: 1000 records at 100 ops/s → 10s.
        let mut direct = db(100.0, 1.0, 0.0);
        let mut last_direct = SimTime::ZERO;
        for i in 0..1000 {
            last_direct = direct.put(SimTime::ZERO, &format!("k{i}"), vjson!(i));
        }
        // Batched (100/batch, free records): 10 ops → durable almost
        // immediately.
        let mut batched = db(100.0, 1.0, 0.0);
        let mut last_batch = SimTime::ZERO;
        for b in 0..10 {
            let recs: Vec<(String, Value)> =
                (0..100).map(|i| (format!("k{b}-{i}"), vjson!(i))).collect();
            last_batch = batched.put_batch(SimTime::ZERO, recs);
        }
        assert!(last_batch.as_secs_f64() < last_direct.as_secs_f64() / 20.0);
        assert_eq!(batched.len(), 1000);
        assert_eq!(batched.stats().batch_writes, 10);
        assert_eq!(batched.stats().batch_records, 1000);
    }

    #[test]
    fn batch_record_cost_scales() {
        // cost = 1 + 99*1.0 = 100 ops per 100-record batch → same as
        // direct writes.
        let mut d = db(100.0, 1.0, 1.0);
        let recs: Vec<(String, Value)> = (0..100).map(|i| (format!("k{i}"), vjson!(i))).collect();
        let t = d.put_batch(SimTime::ZERO, recs);
        assert!((t.as_secs_f64() - 0.99).abs() < 0.02, "{t}");
    }

    #[test]
    fn empty_batch_is_free() {
        let mut d = db(1.0, 1.0, 0.0);
        let t = d.put_batch(SimTime::from_secs(5), Vec::<(String, Value)>::new());
        assert_eq!(t, SimTime::from_secs(5));
        assert_eq!(d.stats().batch_writes, 0);
    }

    #[test]
    fn batches_move_handles_and_reads_share_them() {
        let mut d = PersistentDb::default();
        let snap = Snapshot::from(vjson!({"big": [1, 2, 3]}));
        d.put_batch(SimTime::ZERO, vec![("k".to_string(), snap.clone())]);
        assert!(Snapshot::ptr_eq(&snap, &d.get("k").unwrap()));
    }
}
