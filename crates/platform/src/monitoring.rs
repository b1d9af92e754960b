//! Monitoring: the metrics hub feeding requirement-driven optimization.
//!
//! "Oparaca connects the runtime to the monitoring system and reacts to
//! changes in workload or performance" (§III-B). [`MetricsHub`] collects
//! per-class and per-function invocation metrics from the execution
//! plane and answers three kinds of questions:
//!
//! - **cumulative** — totals since startup (`oprc-ctl metrics` / `top`),
//! - **windowed** — `p50/p90/p99/p999`, rate, and error fraction over
//!   sliding lookbacks ([`FAST_LOOKBACK`] 10s / [`MID_LOOKBACK`] 1m /
//!   [`SLOW_LOOKBACK`] 5m), backed by one ring-of-buckets
//!   [`SlidingWindow`] per series, and
//! - **feedback** — live [`ObservedMetrics`] for the
//!   [`oprc_core::optimizer`] and error fractions for the SLO engine.
//!
//! # Hot-path discipline
//!
//! The invoke path records through [`MetricsHub::record_invocation`],
//! which appends one sample to a class-hashed **stripe buffer** — a
//! single uncontended leaf-tier lock acquisition, strictly fewer than
//! the two hub-mutex acquisitions the pre-window design took. Samples
//! are folded into the series maps (totals + windows) on
//! [`MetricsHub::flush_samples`] — called by the platform `tick` and
//! lazily by every read API, so views are always coherent. A stripe
//! that grows past `STRIPE_SELF_FLUSH` samples flushes itself, bounding
//! memory even if no tick ever runs.
//!
//! # Cardinality bound
//!
//! The per-class and per-function maps are bounded (default
//! [`DEFAULT_SERIES_CAPACITY`] each, mirroring the `lint_warnings`
//! bound): past the cap, samples for *new* keys are dropped and
//! [`MetricsHub::dropped_series`] counts them, so adversarial or
//! generated class names cannot grow memory without limit. Platform
//! totals (atomics) still count every event.

use std::collections::{BTreeMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use oprc_core::optimizer::ObservedMetrics;
use oprc_simcore::metrics::{Histogram, SlidingWindow, WindowStats};
use oprc_simcore::{SimDuration, SimTime};

/// Default bound on retained lint warnings.
pub const DEFAULT_LINT_CAPACITY: usize = 1024;

/// Default bound on distinct per-class and per-function series.
pub const DEFAULT_SERIES_CAPACITY: usize = 4096;

/// Short lookback: "what is happening right now" (SLO fast window).
pub const FAST_LOOKBACK: SimDuration = SimDuration::from_secs(10);

/// Medium lookback for dashboards and the optimizer.
pub const MID_LOOKBACK: SimDuration = SimDuration::from_secs(60);

/// Long lookback (SLO slow window; the full ring span).
pub const SLOW_LOOKBACK: SimDuration = SimDuration::from_secs(300);

/// Number of sample-buffer stripes (class-hashed).
const RECORD_STRIPES: usize = 8;

/// A stripe that grows past this many samples flushes itself into the
/// series maps, so buffers stay bounded without a tick.
const STRIPE_SELF_FLUSH: usize = 1024;

/// Cumulative per-key statistics (never reset).
#[derive(Debug, Default)]
struct Totals {
    completed: u64,
    errors: u64,
    retries: u64,
    latency: Histogram,
    first_event: Option<SimTime>,
    last_event: Option<SimTime>,
}

impl Totals {
    fn touch(&mut self, now: SimTime) {
        self.first_event.get_or_insert(now);
        self.last_event = Some(self.last_event.map_or(now, |t| t.max(now)));
    }
}

/// One monitored series: cumulative totals plus the sliding window.
#[derive(Debug, Default)]
struct Series {
    totals: Totals,
    window: SlidingWindow,
}

impl Series {
    fn record(&mut self, at: SimTime, latency: SimDuration, ok: bool) {
        if ok {
            self.totals.completed += 1;
            self.totals.latency.record(latency);
            self.window.record_ok(at, latency);
        } else {
            self.totals.errors += 1;
            self.window.record_err(at);
        }
        self.totals.touch(at);
    }
}

/// Cumulative per-class statistics snapshot (for `oprc-ctl top`).
#[derive(Debug, Clone, PartialEq)]
pub struct ClassSummary {
    /// Class name.
    pub class: String,
    /// Completed invocations since startup.
    pub completed: u64,
    /// Failed invocations since startup.
    pub errors: u64,
    /// `errors / (completed + errors)`, `0.0` when idle.
    pub error_rate: f64,
    /// Completions per second over the observed event span.
    pub throughput: f64,
    /// Median end-to-end latency (ms), cumulative.
    pub p50_ms: f64,
    /// 99th-percentile end-to-end latency (ms), cumulative.
    pub p99_ms: f64,
    /// 99th-percentile latency (ms) over the [`FAST_LOOKBACK`] window
    /// around the series' most recent event.
    pub window_p99_ms: f64,
}

/// Cumulative per-function statistics snapshot (for `oprc-ctl metrics`).
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSummary {
    /// Class name.
    pub class: String,
    /// Function (or dataflow) name.
    pub function: String,
    /// Completed invocations since startup.
    pub completed: u64,
    /// Failed invocations since startup.
    pub errors: u64,
    /// Retry attempts beyond the first, since startup.
    pub retries: u64,
    /// Circuit-breaker state (`closed` / `open` / `half-open`), or `-`
    /// when the function's retry policy arms no breaker.
    pub breaker: String,
    /// Mean latency (ms), cumulative.
    pub mean_ms: f64,
    /// Median latency (ms), cumulative.
    pub p50_ms: f64,
    /// 99th-percentile latency (ms), cumulative.
    pub p99_ms: f64,
    /// 99th-percentile latency (ms) over the [`FAST_LOOKBACK`] window
    /// around the series' most recent event.
    pub window_p99_ms: f64,
}

/// Cumulative per-tenant statistics snapshot (for `admission status`).
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSummary {
    /// Tenant name.
    pub tenant: String,
    /// Admitted invocations that completed successfully.
    pub completed: u64,
    /// Admitted invocations that failed in the execution plane.
    pub errors: u64,
    /// Requests refused at the admission edge.
    pub rejected: u64,
    /// 99th-percentile end-to-end latency (ms), cumulative.
    pub p99_ms: f64,
}

/// Windowed view of one series over a lookback: quantiles, rate, and
/// error fraction — everything the SLO engine and dashboards read.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSnapshot {
    /// Successful events inside the lookback.
    pub completed: u64,
    /// Failed events inside the lookback.
    pub errors: u64,
    /// Completions per second over the effective span (lookback, or
    /// the series' observed lifetime when younger).
    pub rate: f64,
    /// `errors / (completed + errors)` inside the lookback.
    pub error_fraction: f64,
    /// Median latency (ms).
    pub p50_ms: f64,
    /// 90th-percentile latency (ms).
    pub p90_ms: f64,
    /// 99th-percentile latency (ms).
    pub p99_ms: f64,
    /// 99.9th-percentile latency (ms).
    pub p999_ms: f64,
}

impl WindowSnapshot {
    /// Total events (completed + errors) inside the lookback.
    pub fn total(&self) -> u64 {
        self.completed + self.errors
    }
}

/// One buffered hot-path sample, folded into the series maps on flush.
#[derive(Debug)]
struct Sample {
    /// Global record order: flush sorts drained samples by this, so
    /// folding is insertion-ordered even across stripes (the
    /// cardinality bound's drop-new choice stays deterministic).
    seq: u64,
    class: String,
    /// `Some` to record the `(class, function)` series.
    function: Option<String>,
    /// Whether to record the per-class series (the per-function-only
    /// wrapper [`MetricsHub::record_function`] sets this false).
    class_series: bool,
    at: SimTime,
    latency: SimDuration,
    ok: bool,
}

#[derive(Debug)]
struct HubInner {
    class_series: BTreeMap<String, Series>,
    function_series: BTreeMap<(String, String), Series>,
    /// Per-tenant series fed by `invoke_as`: completed/error outcomes
    /// of *admitted* requests, windowed like every other series so the
    /// fairness index reads from the same sliding-window machinery.
    tenant_series: BTreeMap<String, Series>,
    /// Requests refused at the admission edge, per tenant (rejections
    /// never enter a series — they were not executed).
    tenant_rejections: BTreeMap<String, u64>,
    breaker_states: BTreeMap<(String, String), &'static str>,
    fault_totals: BTreeMap<String, u64>,
    lint_warnings: VecDeque<String>,
    lint_capacity: usize,
    lint_dropped: u64,
    series_capacity: usize,
    dropped_series: u64,
}

impl Default for HubInner {
    fn default() -> Self {
        HubInner {
            class_series: BTreeMap::new(),
            function_series: BTreeMap::new(),
            tenant_series: BTreeMap::new(),
            tenant_rejections: BTreeMap::new(),
            breaker_states: BTreeMap::new(),
            fault_totals: BTreeMap::new(),
            lint_warnings: VecDeque::new(),
            lint_capacity: DEFAULT_LINT_CAPACITY,
            lint_dropped: 0,
            series_capacity: DEFAULT_SERIES_CAPACITY,
            dropped_series: 0,
        }
    }
}

impl HubInner {
    fn apply(&mut self, sample: Sample) {
        if sample.class_series {
            match bounded_entry(
                &mut self.class_series,
                sample.class.clone(),
                self.series_capacity,
            ) {
                Some(series) => series.record(sample.at, sample.latency, sample.ok),
                None => self.dropped_series += 1,
            }
        }
        if let Some(function) = sample.function {
            match bounded_entry(
                &mut self.function_series,
                (sample.class, function),
                self.series_capacity,
            ) {
                Some(series) => series.record(sample.at, sample.latency, sample.ok),
                None => self.dropped_series += 1,
            }
        }
    }
}

/// `map.entry(key).or_default()` with a drop-new cardinality bound:
/// `None` when `key` is absent and the map is at capacity.
fn bounded_entry<K: Ord>(
    map: &mut BTreeMap<K, Series>,
    key: K,
    capacity: usize,
) -> Option<&mut Series> {
    if !map.contains_key(&key) && map.len() >= capacity {
        return None;
    }
    Some(map.entry(key).or_default())
}

/// Platform-wide cumulative counters, atomic so hot-path readers (ops/s
/// gauges, the throughput bench) never take the hub mutex.
#[derive(Debug, Default)]
struct CumulativeTotals {
    completed: AtomicU64,
    errors: AtomicU64,
    retries: AtomicU64,
    commits: AtomicU64,
    fused_units: AtomicU64,
    /// Items that went through the grouped `invoke_batch` fast path.
    batched_ops: AtomicU64,
    /// Shard groups executed by `invoke_batch` (one single-hold
    /// load→execute→commit loop each).
    batch_groups: AtomicU64,
    /// Next sample sequence number (see [`Sample::seq`]).
    sample_seq: AtomicU64,
}

/// Thread-safe collector of per-class runtime metrics.
#[derive(Debug, Clone)]
pub struct MetricsHub {
    inner: Arc<Mutex<HubInner>>,
    totals: Arc<CumulativeTotals>,
    /// Class-hashed hot-path sample buffers (leaf tier, uncontended in
    /// the common case; see the module docs).
    stripes: Arc<[Mutex<Vec<Sample>>; RECORD_STRIPES]>,
}

impl Default for MetricsHub {
    fn default() -> Self {
        MetricsHub {
            inner: Arc::default(),
            totals: Arc::default(),
            stripes: Arc::new(std::array::from_fn(|_| Mutex::new(Vec::new()))),
        }
    }
}

fn stripe_of(class: &str) -> usize {
    // FNV-1a over the class name; stripes are a power of two.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in class.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    (h as usize) & (RECORD_STRIPES - 1)
}

impl MetricsHub {
    /// Creates an empty hub with default capacities.
    pub fn new() -> Self {
        MetricsHub::default()
    }

    /// Creates an empty hub retaining at most `lint_capacity` lint
    /// warnings (drop-oldest beyond that; a minimum of 1 is enforced).
    pub fn with_lint_capacity(lint_capacity: usize) -> Self {
        let hub = MetricsHub::default();
        hub.inner.lock().lint_capacity = lint_capacity.max(1);
        hub
    }

    /// Creates an empty hub tracking at most `series_capacity` distinct
    /// classes (and as many functions). Past the cap, new series are
    /// dropped and counted (a minimum of 1 is enforced).
    pub fn with_series_capacity(series_capacity: usize) -> Self {
        let hub = MetricsHub::default();
        hub.inner.lock().series_capacity = series_capacity.max(1);
        hub
    }

    fn buffer(&self, mut sample: Sample) {
        sample.seq = self.totals.sample_seq.fetch_add(1, Ordering::Relaxed);
        let stripe = &self.stripes[stripe_of(&sample.class)];
        let mut buf = stripe.lock();
        buf.push(sample);
        let full = buf.len() >= STRIPE_SELF_FLUSH;
        drop(buf);
        if full {
            self.flush_samples();
        }
    }

    /// Folds every buffered hot-path sample into the series maps, in
    /// global record order. Called by the platform tick; read APIs also
    /// call it, so views never lag the buffers.
    pub fn flush_samples(&self) {
        let mut drained = Vec::new();
        for stripe in self.stripes.iter() {
            let mut buf = stripe.lock();
            if !buf.is_empty() {
                drained.append(&mut buf);
            }
        }
        if drained.is_empty() {
            return;
        }
        drained.sort_unstable_by_key(|s| s.seq);
        let mut inner = self.inner.lock();
        for s in drained {
            inner.apply(s);
        }
    }

    /// Records the full outcome of one invocation — class series,
    /// `(class, function)` series, and platform totals — with a single
    /// stripe-buffer lock acquisition. This is the hot-path entry.
    pub fn record_invocation(
        &self,
        class: &str,
        function: &str,
        now: SimTime,
        latency: SimDuration,
        ok: bool,
    ) {
        if ok {
            self.totals.completed.fetch_add(1, Ordering::Relaxed);
        } else {
            self.totals.errors.fetch_add(1, Ordering::Relaxed);
        }
        self.buffer(Sample {
            seq: 0,
            class: class.to_string(),
            function: Some(function.to_string()),
            class_series: true,
            at: now,
            latency,
            ok,
        });
    }

    /// Records a completed invocation of `class` at `now` with the given
    /// end-to-end latency (class series only — the invoke path uses
    /// [`MetricsHub::record_invocation`]).
    pub fn record_completion(&self, class: &str, now: SimTime, latency: SimDuration) {
        self.totals.completed.fetch_add(1, Ordering::Relaxed);
        self.buffer(Sample {
            seq: 0,
            class: class.to_string(),
            function: None,
            class_series: true,
            at: now,
            latency,
            ok: true,
        });
    }

    /// Records a failed invocation of `class` at `now` (class series
    /// only).
    pub fn record_error(&self, class: &str, now: SimTime) {
        self.totals.errors.fetch_add(1, Ordering::Relaxed);
        self.buffer(Sample {
            seq: 0,
            class: class.to_string(),
            function: None,
            class_series: true,
            at: now,
            latency: SimDuration::ZERO,
            ok: false,
        });
    }

    /// Records the per-function outcome of an invocation (function
    /// series only; feeds [`MetricsHub::function_summaries`]).
    pub fn record_function(
        &self,
        class: &str,
        function: &str,
        now: SimTime,
        latency: SimDuration,
        ok: bool,
    ) {
        self.buffer(Sample {
            seq: 0,
            class: class.to_string(),
            function: Some(function.to_string()),
            class_series: false,
            at: now,
            latency,
            ok,
        });
    }

    /// Records a retry (an attempt beyond the first) of `class::function`.
    pub fn record_retry(&self, class: &str, function: &str) {
        let mut inner = self.inner.lock();
        let capacity = inner.series_capacity;
        match bounded_entry(
            &mut inner.function_series,
            (class.to_string(), function.to_string()),
            capacity,
        ) {
            Some(series) => series.totals.retries += 1,
            None => inner.dropped_series += 1,
        }
        drop(inner);
        self.totals.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Records the outcome of one *admitted* tenant invocation. Off the
    /// per-invoke fast path (`invoke_as` only), so it takes the hub
    /// mutex directly like [`MetricsHub::record_retry`].
    pub fn record_tenant(&self, tenant: &str, now: SimTime, latency: SimDuration, ok: bool) {
        let mut inner = self.inner.lock();
        let capacity = inner.series_capacity;
        match bounded_entry(&mut inner.tenant_series, tenant.to_string(), capacity) {
            Some(series) => series.record(now, latency, ok),
            None => inner.dropped_series += 1,
        }
    }

    /// Records one request refused at the admission edge for `tenant`.
    pub fn record_tenant_rejection(&self, tenant: &str) {
        *self
            .inner
            .lock()
            .tenant_rejections
            .entry(tenant.to_string())
            .or_insert(0) += 1;
    }

    /// Cumulative per-tenant statistics, sorted by tenant name. Tenants
    /// that were only ever rejected (no admitted request) still appear.
    pub fn tenant_summaries(&self) -> Vec<TenantSummary> {
        let inner = self.inner.lock();
        let mut names: Vec<&String> = inner
            .tenant_series
            .keys()
            .chain(inner.tenant_rejections.keys())
            .collect();
        names.sort();
        names.dedup();
        names
            .into_iter()
            .map(|tenant| {
                let (completed, errors, p99_ms) =
                    inner.tenant_series.get(tenant).map_or((0, 0, 0.0), |s| {
                        (
                            s.totals.completed,
                            s.totals.errors,
                            s.totals.latency.quantile(0.99).as_millis_f64(),
                        )
                    });
                TenantSummary {
                    tenant: tenant.clone(),
                    completed,
                    errors,
                    rejected: inner.tenant_rejections.get(tenant).copied().unwrap_or(0),
                    p99_ms,
                }
            })
            .collect()
    }

    /// Windowed statistics for `tenant` over `[now - lookback, now]`,
    /// or `None` when the window holds no events.
    pub fn tenant_window(
        &self,
        tenant: &str,
        now: SimTime,
        lookback: SimDuration,
    ) -> Option<WindowSnapshot> {
        let inner = self.inner.lock();
        let s = inner.tenant_series.get(tenant)?;
        let stats = s.window.stats(now, lookback);
        if stats.total() == 0 {
            return None;
        }
        let span = Self::effective_span(s.totals.first_event, now, lookback);
        Some(Self::snapshot(&stats, span))
    }

    /// Jain's fairness index over every known tenant's *completed*
    /// count inside the sliding window `[now - lookback, now]`.
    ///
    /// Tenants that completed nothing in the window — including
    /// tenants only ever seen at the admission edge — contribute a
    /// zero allocation, so a starved tenant *lowers* the index instead
    /// of silently vanishing from it. Returns `None` while no tenant
    /// has ever been observed (the index would be vacuous).
    pub fn tenant_fairness(&self, now: SimTime, lookback: SimDuration) -> Option<f64> {
        let inner = self.inner.lock();
        let mut names: Vec<&String> = inner
            .tenant_series
            .keys()
            .chain(inner.tenant_rejections.keys())
            .collect();
        names.sort();
        names.dedup();
        if names.is_empty() {
            return None;
        }
        let shares: Vec<f64> = names
            .iter()
            .map(|tenant| {
                inner
                    .tenant_series
                    .get(tenant.as_str())
                    .map_or(0.0, |s| s.window.stats(now, lookback).completed as f64)
            })
            .collect();
        Some(oprc_simcore::metrics::jain_fairness(&shares))
    }

    /// Platform-wide completed invocations since startup. Lock-free:
    /// reads an atomic, never the hub mutex.
    pub fn completed_total(&self) -> u64 {
        self.totals.completed.load(Ordering::Relaxed)
    }

    /// Platform-wide failed invocations since startup (lock-free).
    pub fn errors_total(&self) -> u64 {
        self.totals.errors.load(Ordering::Relaxed)
    }

    /// Platform-wide retry attempts beyond the first (lock-free).
    pub fn retries_total(&self) -> u64 {
        self.totals.retries.load(Ordering::Relaxed)
    }

    /// Records one durable state commit (a `state.commit` on the
    /// invocation plane). Fused chains commit once per chain, so this
    /// counter is how the fusion benefit is asserted.
    pub fn record_commit(&self) {
        self.totals.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Platform-wide state commits since startup (lock-free).
    pub fn commits_total(&self) -> u64 {
        self.totals.commits.load(Ordering::Relaxed)
    }

    /// Records the execution of one fused same-object chain (multiple
    /// dataflow steps under a single shard-lock hold and commit).
    pub fn record_fused_unit(&self) {
        self.totals.fused_units.fetch_add(1, Ordering::Relaxed);
    }

    /// Fused chain executions since startup (lock-free).
    pub fn fused_units_total(&self) -> u64 {
        self.totals.fused_units.load(Ordering::Relaxed)
    }

    /// Records one grouped `invoke_batch` execution: `items` items
    /// across `groups` single-hold shard groups. Per-item outcomes go
    /// through [`MetricsHub::record_invocation`] as usual — these
    /// counters measure how much work the batch plane amortized.
    pub fn record_batch(&self, items: u64, groups: u64) {
        self.totals.batched_ops.fetch_add(items, Ordering::Relaxed);
        self.totals
            .batch_groups
            .fetch_add(groups, Ordering::Relaxed);
    }

    /// Items executed through the grouped batch path since startup
    /// (lock-free).
    pub fn batched_ops_total(&self) -> u64 {
        self.totals.batched_ops.load(Ordering::Relaxed)
    }

    /// Shard groups executed by the batch path since startup
    /// (lock-free).
    pub fn batch_groups_total(&self) -> u64 {
        self.totals.batch_groups.load(Ordering::Relaxed)
    }

    /// Records the current circuit-breaker state of `class::function`.
    pub fn record_breaker_state(&self, class: &str, function: &str, state: &'static str) {
        self.inner
            .lock()
            .breaker_states
            .insert((class.to_string(), function.to_string()), state);
    }

    /// Records one injected chaos fault at `site` (a stable span name
    /// such as `state.commit`).
    pub fn record_fault(&self, site: &str) {
        *self
            .inner
            .lock()
            .fault_totals
            .entry(site.to_string())
            .or_insert(0) += 1;
    }

    /// Cumulative injected-fault counts per site, sorted by site name.
    pub fn fault_totals(&self) -> Vec<(String, u64)> {
        self.inner
            .lock()
            .fault_totals
            .iter()
            .map(|(k, v)| (k.clone(), *v))
            .collect()
    }

    /// Records a non-fatal finding the deploy-time linter surfaced
    /// (rendered form). Deployment proceeds; the warnings stay visible
    /// through [`MetricsHub::lint_warnings`] for operators. Retention is
    /// bounded: beyond the configured capacity the oldest warning is
    /// dropped and [`MetricsHub::lint_dropped`] increments.
    pub fn record_lint_warning(&self, rendered: String) {
        let mut inner = self.inner.lock();
        if inner.lint_warnings.len() >= inner.lint_capacity {
            inner.lint_warnings.pop_front();
            inner.lint_dropped += 1;
        }
        inner.lint_warnings.push_back(rendered);
    }

    /// Retained lint warnings, oldest first.
    pub fn lint_warnings(&self) -> Vec<String> {
        self.inner.lock().lint_warnings.iter().cloned().collect()
    }

    /// Count of lint warnings evicted by the retention bound.
    pub fn lint_dropped(&self) -> u64 {
        self.inner.lock().lint_dropped
    }

    /// Count of samples dropped by the series-cardinality bound.
    pub fn dropped_series(&self) -> u64 {
        self.flush_samples();
        self.inner.lock().dropped_series
    }

    /// Cumulative completed-invocation count for `class`.
    pub fn completed(&self, class: &str) -> u64 {
        self.flush_samples();
        self.inner
            .lock()
            .class_series
            .get(class)
            .map_or(0, |s| s.totals.completed)
    }

    /// Cumulative per-class statistics, sorted by class name.
    pub fn class_summaries(&self) -> Vec<ClassSummary> {
        self.flush_samples();
        let inner = self.inner.lock();
        inner
            .class_series
            .iter()
            .map(|(class, s)| {
                let t = &s.totals;
                let total = t.completed + t.errors;
                let span = match (t.first_event, t.last_event) {
                    (Some(a), Some(b)) => (b - a).as_secs_f64().max(1e-3),
                    _ => 1e-3,
                };
                let at = t.last_event.unwrap_or(SimTime::ZERO);
                ClassSummary {
                    class: class.clone(),
                    completed: t.completed,
                    errors: t.errors,
                    error_rate: if total == 0 {
                        0.0
                    } else {
                        t.errors as f64 / total as f64
                    },
                    throughput: t.completed as f64 / span,
                    p50_ms: t.latency.quantile(0.5).as_millis_f64(),
                    p99_ms: t.latency.quantile(0.99).as_millis_f64(),
                    window_p99_ms: s
                        .window
                        .stats(at, FAST_LOOKBACK)
                        .quantile(0.99)
                        .as_millis_f64(),
                }
            })
            .collect()
    }

    /// Cumulative per-function statistics, sorted by (class, function).
    pub fn function_summaries(&self) -> Vec<FunctionSummary> {
        self.flush_samples();
        let inner = self.inner.lock();
        inner
            .function_series
            .iter()
            .map(|((class, function), s)| {
                let t = &s.totals;
                let at = t.last_event.unwrap_or(SimTime::ZERO);
                FunctionSummary {
                    class: class.clone(),
                    function: function.clone(),
                    completed: t.completed,
                    errors: t.errors,
                    retries: t.retries,
                    breaker: inner
                        .breaker_states
                        .get(&(class.clone(), function.clone()))
                        .unwrap_or(&"-")
                        .to_string(),
                    mean_ms: t.latency.mean().as_millis_f64(),
                    p50_ms: t.latency.quantile(0.5).as_millis_f64(),
                    p99_ms: t.latency.quantile(0.99).as_millis_f64(),
                    window_p99_ms: s
                        .window
                        .stats(at, FAST_LOOKBACK)
                        .quantile(0.99)
                        .as_millis_f64(),
                }
            })
            .collect()
    }

    fn snapshot(stats: &WindowStats, span: f64) -> WindowSnapshot {
        WindowSnapshot {
            completed: stats.completed,
            errors: stats.errors,
            rate: stats.completed as f64 / span,
            error_fraction: stats.error_fraction(),
            p50_ms: stats.quantile(0.5).as_millis_f64(),
            p90_ms: stats.quantile(0.9).as_millis_f64(),
            p99_ms: stats.quantile(0.99).as_millis_f64(),
            p999_ms: stats.quantile(0.999).as_millis_f64(),
        }
    }

    /// The effective rate denominator: the lookback, shortened to the
    /// series' observed lifetime while it is younger than the lookback
    /// (so a fresh platform doesn't under-report its rate).
    fn effective_span(first_event: Option<SimTime>, now: SimTime, lookback: SimDuration) -> f64 {
        let lifetime = first_event.map_or(0.0, |t| (now.max(t) - t).as_secs_f64());
        lifetime.min(lookback.as_secs_f64()).max(1e-3)
    }

    /// Windowed statistics for `class` over `[now - lookback, now]`,
    /// or `None` when the window holds no events.
    pub fn class_window(
        &self,
        class: &str,
        now: SimTime,
        lookback: SimDuration,
    ) -> Option<WindowSnapshot> {
        self.flush_samples();
        let inner = self.inner.lock();
        let s = inner.class_series.get(class)?;
        let stats = s.window.stats(now, lookback);
        if stats.total() == 0 {
            return None;
        }
        let span = Self::effective_span(s.totals.first_event, now, lookback);
        Some(Self::snapshot(&stats, span))
    }

    /// Windowed statistics for `class::function`, or `None` when the
    /// window holds no events.
    pub fn function_window(
        &self,
        class: &str,
        function: &str,
        now: SimTime,
        lookback: SimDuration,
    ) -> Option<WindowSnapshot> {
        self.flush_samples();
        let inner = self.inner.lock();
        let s = inner
            .function_series
            .get(&(class.to_string(), function.to_string()))?;
        let stats = s.window.stats(now, lookback);
        if stats.total() == 0 {
            return None;
        }
        let span = Self::effective_span(s.totals.first_event, now, lookback);
        Some(Self::snapshot(&stats, span))
    }

    /// The live observation window the optimizer consumes: windowed
    /// rate, p99, and error fraction for `class` over `lookback`.
    /// Non-destructive (the pre-window design drained and reset the
    /// observation state; the sliding window just rotates).
    ///
    /// `replicas_busy_fraction` is supplied by the execution plane (the
    /// hub cannot observe replica occupancy itself). `error_rate` is
    /// the *fraction* of the window's requests that failed, matching
    /// [`ObservedMetrics::error_rate`]. Returns `None` when the window
    /// holds no events.
    pub fn observe(
        &self,
        class: &str,
        now: SimTime,
        lookback: SimDuration,
        replicas_busy_fraction: f64,
    ) -> Option<ObservedMetrics> {
        let w = self.class_window(class, now, lookback)?;
        Some(ObservedMetrics {
            throughput: w.rate,
            p99_latency_ms: w.p99_ms,
            utilization: replicas_busy_fraction,
            error_rate: w.error_fraction,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_aggregate_without_reset() {
        let hub = MetricsHub::new();
        for i in 0..100u64 {
            hub.record_completion(
                "C",
                SimTime::from_millis(i * 10),
                SimDuration::from_millis(5),
            );
        }
        hub.record_error("C", SimTime::from_millis(500));
        assert_eq!(hub.completed("C"), 100);
        let now = SimTime::from_millis(990);
        let m = hub.observe("C", now, FAST_LOOKBACK, 0.8).unwrap();
        // 100 completions over the ~0.99s observed lifetime ≈ 101/s.
        assert!((m.throughput - 101.0).abs() < 2.0, "{}", m.throughput);
        assert!(m.p99_latency_ms >= 5.0);
        // error_rate is a fraction of requests: 1 error out of 101.
        assert!(
            (m.error_rate - 1.0 / 101.0).abs() < 1e-9,
            "{}",
            m.error_rate
        );
        assert_eq!(m.utilization, 0.8);
        // Observation does NOT reset: a second query sees the same data.
        assert!(hub.observe("C", now, FAST_LOOKBACK, 0.8).is_some());
        assert_eq!(hub.completed("C"), 100);
    }

    #[test]
    fn all_error_window_has_unit_error_rate() {
        let hub = MetricsHub::new();
        hub.record_error("C", SimTime::from_millis(1));
        hub.record_error("C", SimTime::from_millis(2));
        let m = hub
            .observe("C", SimTime::from_millis(2), FAST_LOOKBACK, 0.0)
            .unwrap();
        assert_eq!(m.error_rate, 1.0);
        assert_eq!(m.throughput, 0.0);
    }

    #[test]
    fn window_rotates_old_events_out() {
        let hub = MetricsHub::new();
        hub.record_error("C", SimTime::from_secs(1));
        hub.record_completion("C", SimTime::from_secs(1), SimDuration::from_millis(1));
        // Shortly after: both visible in the fast window.
        let w = hub
            .class_window("C", SimTime::from_secs(2), FAST_LOOKBACK)
            .unwrap();
        assert_eq!((w.completed, w.errors), (1, 1));
        assert!((w.error_fraction - 0.5).abs() < 1e-12);
        // 30s later the fast window is clear but the slow window still
        // holds the events (multi-window SLO recovery shape).
        let later = SimTime::from_secs(31);
        assert!(hub.class_window("C", later, FAST_LOOKBACK).is_none());
        let slow = hub.class_window("C", later, SLOW_LOOKBACK).unwrap();
        assert_eq!(slow.total(), 2);
        // Cumulative summaries keep everything.
        assert_eq!(hub.class_summaries()[0].completed, 1);
    }

    #[test]
    fn lint_warnings_accumulate() {
        let hub = MetricsHub::new();
        assert!(hub.lint_warnings().is_empty());
        hub.record_lint_warning("warning[OPRC010] class C > dataflow f > step s: dead".into());
        hub.record_lint_warning("warning[OPRC013] class C > dataflow g: shadow".into());
        let warnings = hub.lint_warnings();
        assert_eq!(warnings.len(), 2);
        assert!(warnings[0].contains("OPRC010"));
        assert_eq!(hub.lint_dropped(), 0);
    }

    #[test]
    fn lint_warnings_are_bounded_drop_oldest() {
        let hub = MetricsHub::with_lint_capacity(3);
        for i in 0..5 {
            hub.record_lint_warning(format!("w{i}"));
        }
        let warnings = hub.lint_warnings();
        assert_eq!(warnings, vec!["w2", "w3", "w4"]);
        assert_eq!(hub.lint_dropped(), 2);
    }

    #[test]
    fn series_cardinality_is_bounded_drop_new() {
        let hub = MetricsHub::with_series_capacity(2);
        hub.record_completion("A", SimTime::ZERO, SimDuration::from_millis(1));
        hub.record_completion("B", SimTime::ZERO, SimDuration::from_millis(1));
        hub.record_completion("C", SimTime::ZERO, SimDuration::from_millis(1));
        hub.record_completion("A", SimTime::ZERO, SimDuration::from_millis(1));
        // Existing series keep recording; the new one is dropped.
        assert_eq!(hub.completed("A"), 2);
        assert_eq!(hub.completed("B"), 1);
        assert_eq!(hub.completed("C"), 0);
        assert_eq!(hub.dropped_series(), 1);
        assert_eq!(hub.class_summaries().len(), 2);
        // Platform totals still count every event.
        assert_eq!(hub.completed_total(), 4);
        // Function series are bounded by the same capacity.
        for f in ["f1", "f2", "f3"] {
            hub.record_function("A", f, SimTime::ZERO, SimDuration::ZERO, true);
        }
        assert_eq!(hub.function_summaries().len(), 2);
        assert_eq!(hub.dropped_series(), 2);
        // record_retry respects the bound too (no resurrection).
        hub.record_retry("A", "f3");
        assert_eq!(hub.function_summaries().len(), 2);
        assert_eq!(hub.dropped_series(), 3);
    }

    #[test]
    fn commit_and_fusion_counters_are_lock_free_totals() {
        let hub = MetricsHub::new();
        assert_eq!(hub.commits_total(), 0);
        assert_eq!(hub.fused_units_total(), 0);
        hub.record_commit();
        hub.record_commit();
        hub.record_fused_unit();
        assert_eq!(hub.commits_total(), 2);
        assert_eq!(hub.fused_units_total(), 1);
        // Clones share the totals (same platform-wide counters).
        let h2 = hub.clone();
        h2.record_commit();
        assert_eq!(hub.commits_total(), 3);
    }

    #[test]
    fn unknown_class_is_none() {
        let hub = MetricsHub::new();
        assert!(hub
            .observe("nope", SimTime::ZERO, FAST_LOOKBACK, 0.5)
            .is_none());
        assert!(hub
            .class_window("nope", SimTime::ZERO, FAST_LOOKBACK)
            .is_none());
        assert!(hub
            .function_window("nope", "f", SimTime::ZERO, FAST_LOOKBACK)
            .is_none());
        assert_eq!(hub.completed("nope"), 0);
    }

    #[test]
    fn hub_is_shareable_across_threads() {
        let hub = MetricsHub::new();
        let h2 = hub.clone();
        std::thread::spawn(move || {
            h2.record_completion("C", SimTime::ZERO, SimDuration::from_millis(1));
        })
        .join()
        .unwrap();
        // Clones share the stripe buffers: the sample is visible here.
        assert_eq!(hub.completed("C"), 1);
    }

    #[test]
    fn single_event_window_uses_min_span() {
        let hub = MetricsHub::new();
        hub.record_completion("C", SimTime::from_secs(1), SimDuration::from_millis(2));
        let m = hub
            .observe("C", SimTime::from_secs(1), FAST_LOOKBACK, 0.1)
            .unwrap();
        // One event over the 1ms minimum span → finite, large number.
        assert!(m.throughput > 0.0);
        assert!(m.throughput.is_finite());
    }

    #[test]
    fn record_invocation_feeds_both_series_at_once() {
        let hub = MetricsHub::new();
        hub.record_invocation(
            "C",
            "f",
            SimTime::from_secs(1),
            SimDuration::from_millis(3),
            true,
        );
        hub.record_invocation("C", "f", SimTime::from_secs(1), SimDuration::ZERO, false);
        assert_eq!(hub.completed_total(), 1);
        assert_eq!(hub.errors_total(), 1);
        let classes = hub.class_summaries();
        assert_eq!((classes[0].completed, classes[0].errors), (1, 1));
        let functions = hub.function_summaries();
        assert_eq!((functions[0].completed, functions[0].errors), (1, 1));
        assert!(functions[0].window_p99_ms >= 3.0 * 0.9);
        let w = hub
            .function_window("C", "f", SimTime::from_secs(1), FAST_LOOKBACK)
            .unwrap();
        assert_eq!(w.total(), 2);
    }

    #[test]
    fn quantile_ladder_is_monotone_in_snapshots() {
        let hub = MetricsHub::new();
        for i in 1..=200u64 {
            hub.record_completion("C", SimTime::from_secs(1), SimDuration::from_micros(i * 50));
        }
        let w = hub
            .class_window("C", SimTime::from_secs(1), FAST_LOOKBACK)
            .unwrap();
        assert!(w.p50_ms <= w.p90_ms);
        assert!(w.p90_ms <= w.p99_ms);
        assert!(w.p99_ms <= w.p999_ms);
        assert!(w.rate > 0.0);
    }

    #[test]
    fn retries_breaker_and_faults_are_tracked() {
        let hub = MetricsHub::new();
        hub.record_function("C", "f", SimTime::ZERO, SimDuration::from_millis(1), true);
        hub.record_retry("C", "f");
        hub.record_retry("C", "f");
        hub.record_breaker_state("C", "f", "open");
        hub.record_fault("state.commit");
        hub.record_fault("state.commit");
        hub.record_fault("engine.execute");
        let summaries = hub.function_summaries();
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].retries, 2);
        assert_eq!(summaries[0].breaker, "open");
        assert_eq!(
            hub.fault_totals(),
            vec![("engine.execute".into(), 1), ("state.commit".into(), 2)]
        );
        // Functions with no breaker report "-".
        hub.record_function("C", "g", SimTime::ZERO, SimDuration::ZERO, false);
        let summaries = hub.function_summaries();
        assert_eq!(summaries[1].breaker, "-");
        assert_eq!(summaries[1].retries, 0);
    }

    #[test]
    fn tenant_series_feed_summaries_and_fairness() {
        let hub = MetricsHub::new();
        assert!(hub.tenant_fairness(SimTime::ZERO, FAST_LOOKBACK).is_none());
        let t = SimTime::from_secs(1);
        for _ in 0..10 {
            hub.record_tenant("a", t, SimDuration::from_millis(2), true);
            hub.record_tenant("b", t, SimDuration::from_millis(2), true);
        }
        // Equal completed shares → perfectly fair.
        let f = hub.tenant_fairness(t, FAST_LOOKBACK).unwrap();
        assert!((f - 1.0).abs() < 1e-12, "{f}");
        // A rejected-only tenant appears with a zero share and drags
        // the index down.
        hub.record_tenant_rejection("starved");
        let f = hub.tenant_fairness(t, FAST_LOOKBACK).unwrap();
        assert!((f - 2.0 / 3.0).abs() < 1e-12, "{f}");
        let sums = hub.tenant_summaries();
        assert_eq!(sums.len(), 3);
        assert_eq!(sums[0].tenant, "a");
        assert_eq!((sums[0].completed, sums[0].rejected), (10, 0));
        assert_eq!(sums[2].tenant, "starved");
        assert_eq!((sums[2].completed, sums[2].rejected), (0, 1));
        // Windowed view rotates out like every other series.
        assert!(hub.tenant_window("a", t, FAST_LOOKBACK).is_some());
        assert!(hub
            .tenant_window("a", t + SimDuration::from_secs(600), FAST_LOOKBACK)
            .is_none());
    }

    #[test]
    fn tenant_series_respect_cardinality_bound() {
        let hub = MetricsHub::with_series_capacity(1);
        hub.record_tenant("a", SimTime::ZERO, SimDuration::ZERO, true);
        hub.record_tenant("b", SimTime::ZERO, SimDuration::ZERO, true);
        assert_eq!(hub.tenant_summaries().len(), 1);
        assert_eq!(hub.dropped_series(), 1);
    }

    #[test]
    fn function_summaries_track_per_function_outcomes() {
        let hub = MetricsHub::new();
        hub.record_function("C", "f", SimTime::ZERO, SimDuration::from_millis(3), true);
        hub.record_function(
            "C",
            "f",
            SimTime::from_millis(1),
            SimDuration::from_millis(5),
            true,
        );
        hub.record_function("C", "g", SimTime::from_millis(2), SimDuration::ZERO, false);
        let summaries = hub.function_summaries();
        assert_eq!(summaries.len(), 2);
        assert_eq!(summaries[0].function, "f");
        assert_eq!(summaries[0].completed, 2);
        assert!(summaries[0].p99_ms >= 5.0 * 0.9);
        assert_eq!(summaries[1].function, "g");
        assert_eq!(summaries[1].errors, 1);
        assert_eq!(summaries[1].completed, 0);
    }
}
