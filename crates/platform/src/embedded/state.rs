//! The embedded platform's storage stack.
//!
//! Mirrors Oparaca's tiered design (§V): hot structured state in memory,
//! consolidated by the write-behind buffer into batched writes against
//! the persistent database, and unstructured state in the S3-like object
//! store. `StateLayer` is the single owner; the execution plane never
//! touches the stores directly.
//!
//! The platform holds one `StateLayer` **per shard** (DESIGN.md §12),
//! each covering its slice of the keyspace. The paper's DHT is split
//! between two owners: which node owns and replicates a record is the
//! node plane's [`oprc_store::PartitionMap`], and the in-node hot tier is
//! this layer's one map from storage key to [`Snapshot`] — one slot per
//! record. All methods take `&mut self` — exclusivity is provided by the
//! owning shard's lock — and write-behind flushing is driven through the
//! shard handle, so a due flush on one shard never blocks invocations
//! touching any other shard.

use std::collections::BTreeMap;

use oprc_simcore::SimTime;
use oprc_store::{PersistentDb, PersistentDbConfig, WriteBehindBuffer, WriteBehindConfig};
use oprc_telemetry::{TraceContext, TraceSink};
use oprc_value::{vjson, Snapshot, Value};

/// Tiered structured-state storage: hot tier → write-behind → persistent
/// DB.
///
/// Whether a record is written through to the durable tier is decided
/// *per write* by the caller — each class runtime's template dictates
/// its persistence (the `nonpersist` configuration skips the DB
/// entirely).
#[derive(Debug)]
pub struct StateLayer {
    /// The hot tier: storage key → the record's one in-memory slot.
    hot: BTreeMap<String, Snapshot>,
    /// Hot-tier writes: stores and cold re-warms.
    puts: u64,
    buffer: WriteBehindBuffer,
    db: PersistentDb,
}

impl StateLayer {
    /// Creates an empty stack.
    pub fn new(wb_cfg: WriteBehindConfig, db_cfg: PersistentDbConfig) -> Self {
        StateLayer {
            hot: BTreeMap::new(),
            puts: 0,
            buffer: WriteBehindBuffer::new(wb_cfg),
            db: PersistentDb::new(db_cfg),
        }
    }

    /// A stack with library defaults.
    pub fn with_defaults() -> Self {
        StateLayer::new(WriteBehindConfig::default(), PersistentDbConfig::default())
    }

    /// Reads structured state: hot tier first, falling back to the DB
    /// (cache-miss path after restart).
    pub fn load(&mut self, key: &str) -> Option<Snapshot> {
        self.load_traced(
            SimTime::ZERO,
            key,
            &TraceSink::disabled(),
            TraceContext::NONE,
        )
    }

    /// [`StateLayer::load`] with tracing: at
    /// [`oprc_telemetry::TelemetryLevel::Verbose`] each tier probe is a
    /// `kv.get` child span of `parent` recording the tier (`dht` for the
    /// hot tier, `db`) and whether it hit.
    pub fn load_traced(
        &mut self,
        now: SimTime,
        key: &str,
        sink: &TraceSink,
        parent: TraceContext,
    ) -> Option<Snapshot> {
        let verbose = sink.is_verbose();
        let trace_get = |tier: &str, hit: bool| {
            if verbose {
                sink.instant_under(
                    parent,
                    "kv.get",
                    vjson!({"key": key, "tier": tier, "hit": hit}),
                    now,
                );
            }
        };
        if let Some(v) = self.hot.get(key) {
            trace_get("dht", true);
            return Some(v.clone());
        }
        trace_get("dht", false);
        let from_db = self.db.get(key);
        trace_get("db", from_db.is_some());
        let from_db = from_db?;
        // Re-warm the hot tier (a refcount bump: it shares the durable
        // tier's snapshot until the next commit copies it).
        self.put(key, from_db.clone());
        Some(from_db)
    }

    /// Writes structured state at `now`: into the hot tier immediately
    /// and, when `persist` is set (the class runtime's template
    /// decision), into the write-behind buffer.
    pub fn store(&mut self, now: SimTime, key: &str, value: impl Into<Snapshot>, persist: bool) {
        self.store_traced(
            now,
            key,
            value,
            persist,
            &TraceSink::disabled(),
            TraceContext::NONE,
        );
    }

    /// [`StateLayer::store`] with tracing: at
    /// [`oprc_telemetry::TelemetryLevel::Verbose`] the write is a
    /// `kv.put` child span of `parent` recording whether it was offered
    /// to the write-behind buffer.
    pub fn store_traced(
        &mut self,
        now: SimTime,
        key: &str,
        value: impl Into<Snapshot>,
        persist: bool,
        sink: &TraceSink,
        parent: TraceContext,
    ) {
        if sink.is_verbose() {
            sink.instant_under(
                parent,
                "kv.put",
                vjson!({"key": key, "persist": persist}),
                now,
            );
        }
        // Both tiers share one allocation: the hot slot and the
        // write-behind record are refcount bumps on the same snapshot,
        // not deep clones.
        let value = value.into();
        self.put(key, value.clone());
        if persist {
            self.buffer.offer(now, key, value);
        }
    }

    /// Fills `key`'s hot slot and counts the put. An overwrite reuses
    /// the slot; only a first insert allocates the key.
    fn put(&mut self, key: &str, value: Snapshot) {
        self.puts += 1;
        match self.hot.get_mut(key) {
            Some(slot) => *slot = value,
            None => {
                self.hot.insert(key.to_string(), value);
            }
        }
    }

    /// Mutates the record under `key` where it lives and returns a
    /// handle to it: the merge half of a commit, at the cost of the
    /// patch instead of the state.
    ///
    /// `&mut self` is the caller's shard lock, so nobody can read the
    /// tiers meanwhile — that is the exclusivity. The layer releases its
    /// own handles on the record (the hot slot, the pending write-behind
    /// entry) and takes the caller's (`held`, by value), runs `f` on
    /// what is now the only handle through [`Snapshot::make_mut`], and
    /// re-fills the same slots before it returns. A handle nobody gave
    /// up — a task still holding its `state_in`, the flushed version in
    /// the durable tier — makes `make_mut` copy as it always has, so
    /// outsiders never see the write; the first commit after a flush
    /// pays that copy once. `f` must not fail or run user code: while it
    /// runs the slots hold a placeholder.
    ///
    /// Not a `load` or a `store`: no counter, trace event or
    /// write-behind offer moves, and no slot is created. A record the
    /// hot tier does not hold (a non-persistent or never-flushed object
    /// after memory loss) continues from `held`, so the caller's running
    /// state carries it until its [`StateLayer::store_traced`].
    pub fn modify(&mut self, key: &str, held: Snapshot, f: impl FnOnce(&mut Value)) -> Snapshot {
        let mut slot = self.hot.get_mut(key);
        let mut pending = self.buffer.pending_mut(key);
        if let Some(pending) = pending.as_deref_mut() {
            *pending = Snapshot::default();
        }
        let mut state = slot.as_deref_mut().map_or(held, std::mem::take);
        f(state.make_mut());
        for refill in slot.into_iter().chain(pending) {
            *refill = state.clone();
        }
        state
    }

    /// Flushes due write-behind batches into the DB; returns the number
    /// of records flushed.
    pub fn flush_due(&mut self, now: SimTime) -> usize {
        self.flush_due_traced(now, &TraceSink::disabled())
    }

    /// [`StateLayer::flush_due`] with tracing: a non-empty flush emits a
    /// `wb.flush` platform instant recording records and batches.
    ///
    /// All records due in this window coalesce into **one** batched DB
    /// write ([`WriteBehindBuffer::take_due`]): N committed deltas cost
    /// a single admission op plus the per-record increment, rather than
    /// ⌈N / max_batch⌉ sequential operations.
    pub fn flush_due_traced(&mut self, now: SimTime, sink: &TraceSink) -> usize {
        let mut flushed = 0;
        let mut batches = 0u64;
        if let Some(batch) = self.buffer.take_due(now) {
            flushed += batch.len();
            batches += 1;
            self.db.put_batch(now, batch.records);
        }
        if flushed > 0 && sink.is_enabled() {
            sink.instant(
                "wb.flush",
                vjson!({"records": flushed, "batches": batches}),
                now,
            );
        }
        flushed
    }

    /// Drains everything to the DB regardless of due times (shutdown).
    pub fn flush_all(&mut self, now: SimTime) -> usize {
        self.flush_due(now);
        let batch = self.buffer.drain(usize::MAX);
        let n = batch.len();
        self.db.put_batch(now, batch.records);
        n
    }

    /// Drops the hot tier (simulating instance restart) so reads must
    /// hit the DB. The restarted tier counts its puts from zero.
    pub fn clear_memory(&mut self) {
        self.hot.clear();
        self.puts = 0;
    }

    /// Direct read from the durable tier (diagnostics/tests).
    pub fn durable_get(&self, key: &str) -> Option<Value> {
        self.db.get(key).map(|v| v.value().clone())
    }

    /// `(hot-tier puts, buffer consolidated, db batch writes, db single
    /// writes)` counters.
    pub fn stats(&self) -> (u64, u64, u64, u64) {
        let db = self.db.stats();
        (
            self.puts,
            self.buffer.consolidated(),
            db.batch_writes,
            db.single_writes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_value::vjson;

    fn layer() -> StateLayer {
        StateLayer::new(
            WriteBehindConfig {
                max_batch: 3,
                max_delay: oprc_simcore::SimDuration::from_millis(10),
            },
            PersistentDbConfig::default(),
        )
    }

    #[test]
    fn store_load_round_trip() {
        let mut s = layer();
        s.store(SimTime::ZERO, "C/obj-1", vjson!({"a": 1}), true);
        assert_eq!(s.load("C/obj-1").unwrap()["a"].as_i64(), Some(1));
        assert_eq!(s.load("missing"), None);
    }

    #[test]
    fn persistence_survives_memory_loss() {
        let mut s = layer();
        s.store(SimTime::ZERO, "k", vjson!({"v": 7}), true);
        assert!(s.durable_get("k").is_none(), "not yet flushed");
        s.flush_all(SimTime::ZERO);
        assert_eq!(s.durable_get("k").unwrap()["v"].as_i64(), Some(7));
        s.clear_memory();
        assert_eq!(s.stats().0, 0, "the restarted tier counts from zero");
        // Read falls back to DB and re-warms: one put, then a hot hit.
        assert_eq!(s.load("k").unwrap()["v"].as_i64(), Some(7));
        assert_eq!(s.stats().0, 1);
        assert_eq!(s.load("k").unwrap()["v"].as_i64(), Some(7));
        assert_eq!(s.stats().0, 1);
    }

    #[test]
    fn nonpersist_writes_never_touch_db() {
        let mut s = layer();
        s.store(SimTime::ZERO, "k", vjson!(1), false);
        s.flush_all(SimTime::from_secs(10));
        assert!(s.durable_get("k").is_none());
        s.clear_memory();
        assert_eq!(s.load("k"), None, "state lost by design");
    }

    #[test]
    fn flush_due_coalesces_the_window_into_one_batch() {
        let mut s = layer();
        for i in 0..7 {
            s.store(SimTime::ZERO, &format!("k{i}"), vjson!(i), true);
        }
        // 7 pending with max_batch 3: the size trigger makes the flush
        // due, and the whole window coalesces into a single DB batch.
        let flushed = s.flush_due(SimTime::ZERO);
        assert_eq!(flushed, 7);
        assert_eq!(s.flush_due(SimTime::from_millis(10)), 0);
        let (_, _, batches, singles) = s.stats();
        assert_eq!(batches, 1);
        assert_eq!(singles, 0);
        for i in 0..7 {
            assert!(s.durable_get(&format!("k{i}")).is_some());
        }
    }

    #[test]
    fn consolidation_counted() {
        let mut s = layer();
        for _ in 0..5 {
            s.store(SimTime::ZERO, "hot", vjson!(1), true);
        }
        let (puts, consolidated, _, _) = s.stats();
        assert_eq!((puts, consolidated), (5, 4));
    }

    fn set_n(n: i64) -> impl FnOnce(&mut Value) {
        move |v| {
            v.insert("n", n);
        }
    }

    fn address(s: &mut StateLayer, key: &str) -> *const Value {
        std::ptr::from_ref(s.load(key).unwrap().value())
    }

    #[test]
    fn modify_is_in_place_when_only_the_tiers_hold_the_record() {
        // The hot slot and a pending write-behind entry share the value.
        let mut s = StateLayer::with_defaults();
        s.store(SimTime::ZERO, "a", vjson!({"n": 0}), true);
        s.store(SimTime::ZERO, "b", vjson!({"n": 0}), true);
        let before = address(&mut s, "a");
        let stats = s.stats();
        let held = s.load("a").unwrap();
        let out = s.modify("a", held, set_n(1));
        assert!(std::ptr::eq(before, out.value()), "no copy was needed");
        // Not a store or an offer.
        assert_eq!(s.stats(), stats);
        drop(out);
        // Every slot was re-filled with the one mutated allocation: the
        // hot slot and the pending entry (read after a flush, in
        // first-dirty order) — and nothing else holds it.
        let hot = s.load("a").unwrap();
        assert!(std::ptr::eq(before, hot.value()));
        assert_eq!(Snapshot::ref_count(&hot), 3, "hot slot, pending, `hot`");
        drop(hot);
        let batch = s.buffer.drain(usize::MAX);
        let keys: Vec<&str> = batch.records.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["a", "b"]);
        assert!(std::ptr::eq(before, batch.records[0].1.value()));
        assert_eq!(batch.records[0].1["n"].as_i64(), Some(1));
    }

    #[test]
    fn modify_copies_for_an_outside_handle_and_leaves_it_untouched() {
        let mut s = StateLayer::with_defaults();
        s.store(SimTime::ZERO, "k", vjson!({"n": 0}), true);
        let outsider = s.load("k").unwrap();
        let held = s.load("k").unwrap();
        let out = s.modify("k", held, set_n(1));
        assert!(!Snapshot::ptr_eq(&outsider, &out));
        assert_eq!(outsider["n"].as_i64(), Some(0));
        assert_eq!(s.load("k").unwrap()["n"].as_i64(), Some(1));
    }

    #[test]
    fn modify_leaves_the_flushed_version_alone_until_the_next_flush() {
        let mut s = StateLayer::with_defaults();
        s.store(SimTime::ZERO, "k", vjson!({"n": 0}), true);
        s.flush_all(SimTime::ZERO);
        // The durable tier holds a handle now: the first commit of the
        // window copies, the following ones mutate that copy in place.
        let flushed = address(&mut s, "k");
        let first = s.modify("k", Snapshot::object(), set_n(1));
        assert!(!std::ptr::eq(flushed, first.value()));
        s.store(SimTime::ZERO, "k", first, true);
        let window = address(&mut s, "k");
        let second = s.modify("k", Snapshot::object(), set_n(2));
        assert!(std::ptr::eq(window, second.value()));
        s.store(SimTime::ZERO, "k", second, true);
        assert_eq!(s.durable_get("k").unwrap()["n"].as_i64(), Some(0));
        s.flush_all(SimTime::ZERO);
        assert_eq!(s.durable_get("k").unwrap()["n"].as_i64(), Some(2));
    }

    #[test]
    fn modify_continues_from_the_held_handle_when_no_tier_has_the_record() {
        // After memory loss on a never-flushed record only the caller's
        // running state carries earlier patches: `modify` builds on it,
        // in place, and creates no slot of its own.
        let mut s = StateLayer::with_defaults();
        let held = Snapshot::from(vjson!({"a": 1}));
        let before = std::ptr::from_ref(held.value());
        let stats = s.stats();
        let out = s.modify("cold", held, set_n(7));
        assert!(std::ptr::eq(before, out.value()));
        assert_eq!(out, vjson!({"a": 1, "n": 7}));
        assert_eq!(s.load("cold"), None);
        assert_eq!(s.stats(), stats);
        // A held handle that differs from the tiers' record (a shipped
        // copy) is dropped: the record where it lives is the base.
        s.store(SimTime::ZERO, "k", vjson!({"n": 0}), false);
        let out = s.modify("k", Snapshot::from(vjson!({"stale": true})), set_n(1));
        assert_eq!(out, vjson!({"n": 1}));
    }

    #[test]
    fn verbose_sink_sees_kv_ops_and_flushes() {
        use oprc_telemetry::TelemetryConfig;
        let mut s = layer();
        let sink = TraceSink::new(TelemetryConfig::verbose());
        let parent = sink.begin_root("state.load", SimTime::ZERO);
        s.store_traced(SimTime::ZERO, "k", vjson!({"v": 1}), true, &sink, parent);
        assert!(s.load_traced(SimTime::ZERO, "k", &sink, parent).is_some());
        s.flush_due_traced(
            SimTime::ZERO + oprc_simcore::SimDuration::from_millis(10),
            &sink,
        );
        sink.end(parent, SimTime::ZERO);
        let spans = sink.finished();
        let names: Vec<&str> = spans.iter().map(|sp| sp.name.as_str()).collect();
        assert!(names.contains(&"kv.put"), "{names:?}");
        assert!(names.contains(&"kv.get"), "{names:?}");
        assert!(names.contains(&"wb.flush"), "{names:?}");
        let get = spans.iter().find(|sp| sp.name == "kv.get").unwrap();
        assert_eq!(get.parent, Some(parent.span_id));
        assert_eq!(get.attrs["hit"].as_bool(), Some(true));
        // Non-verbose sinks skip kv ops entirely.
        let quiet = TraceSink::new(TelemetryConfig::default());
        s.store_traced(
            SimTime::ZERO,
            "k2",
            vjson!(1),
            false,
            &quiet,
            TraceContext::NONE,
        );
        assert!(quiet.finished().is_empty());
    }
}
