//! The embedded execution plane: a real, in-process Oparaca.
//!
//! Everything in the tutorial flow (§IV) works here for real: deploy a
//! YAML package, create objects, invoke methods and dataflows, read and
//! write unstructured state through presigned URLs. Function bodies are
//! Rust closures registered per container-image name
//! ([`EmbeddedPlatform::register_function`]); they receive the same
//! self-contained [`InvocationTask`] a containerized function would.
//!
//! Dataflow stages execute their steps on scoped worker threads when
//! the steps' measured work pays for the handoff, and inline otherwise —
//! the "platform handles parallelism" half of §II-B — which is safe
//! because tasks are pure: all state effects are applied by the
//! platform afterwards, in deterministic step order (the engine is
//! `flow.rs`).
//!
//! # Concurrency
//!
//! The invocation plane takes `&self`: N worker threads may drive
//! [`EmbeddedPlatform::invoke`] (and `get_state`, presigned-URL issue,
//! uploads) concurrently on one shared platform. Object state is split
//! into shards keyed by [`ObjectId`] hash (see `shard.rs`): invocations
//! on objects in different shards never contend, while two invocations
//! racing on the *same* object serialize on its shard lock — which is
//! held across the whole retry loop, preserving the exactly-once commit
//! semantics of the idempotency-key protocol. Dispatch plans are
//! published as an atomically-swapped [`Arc`] table, so
//! [`EmbeddedPlatform::deploy_package`] never stalls in-flight invokes:
//! each invoke reads one consistent snapshot (old plan or new plan,
//! never a torn mix). Under a single worker the platform is
//! deterministic: every counter that names things (invocation ids, task
//! ids, span ids) is sequentially consistent with program order, so
//! chaos replay (fixed seed) and logical-clock telemetry exports stay
//! byte-identical.

mod batch;
mod flow;
mod functions;
mod nodes;
mod s3;
mod shard;
mod state;

pub use batch::BatchItem;
pub use functions::{FunctionImpl, FunctionRegistry};
pub use nodes::{MigrationReport, NodeStats, ObjectPlacement, PartitionSummary};
pub use s3::S3Gateway;
pub use shard::ShardStats;
pub use state::StateLayer;

use std::any::Any;
use std::collections::{BTreeMap, BTreeSet};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;

use oprc_analyzer::{analyze_with, doctor_with, AnalysisReport, LintConfig, Severity};
use oprc_chaos::{CircuitBreaker, FaultInjector, FaultKind, FaultPlan, InjectionSite, RetryPolicy};
use oprc_cluster::Cluster;
use oprc_core::dataflow::{DataRef, DataflowSpec, StepSpec};
use oprc_core::invocation::{InvocationTask, TaskError, TaskResult};
use oprc_core::object::{FileRef, ObjectId};
use oprc_core::optimizer::{self, OptimizerConfig, ScalePlan};
use oprc_core::slo::Slo;
use oprc_core::template::TemplateCatalog;
use oprc_core::AccessModifier;
use oprc_core::OPackage;
use oprc_simcore::{SimDuration, SimTime};
use oprc_store::presign::Method;
use oprc_store::{Dht, DhtConfig, DhtNodeId, ObjectMeta, StoredObject};
use oprc_telemetry::{TelemetryConfig, TraceContext, TraceSink};
use oprc_value::{merge, vjson, Snapshot, Value};

use crate::admission::{AdmissionConfig, AdmissionControl};
use crate::deployer::{self, ClassRuntimeSpec};
use crate::lockorder::{OrderedMutex, OrderedRwLock, Tier};
use crate::monitoring::{MetricsHub, FAST_LOOKBACK, MID_LOOKBACK, SLOW_LOOKBACK};
use crate::registry::PackageRegistry;
use crate::router::ObjectRouter;
use crate::PlatformError;

use flow::CompiledFlow;
use nodes::{NodeHop, NodeTable};
use shard::{shard_index, ObjectEntry, Shard, ShardHandle, SHARD_COUNT};

/// Presigned URLs issued by the embedded platform live this long.
const URL_TTL: SimDuration = SimDuration::from_secs(900);

/// Members of the instance ring on which a traced call's `route` span
/// names the class-runtime instance an [`ObjectRouter`] picks.
const ROUTING_MEMBERS: u64 = 4;

#[derive(Debug)]
struct ClassRuntime {
    spec: ClassRuntimeSpec,
    router: ObjectRouter,
    instances: Vec<u64>,
}

/// The deploy-time-resolved dispatch for one `(class, function)` pair:
/// everything `invoke` would otherwise recompute per call — the
/// polymorphic dispatch walk, the access check, the breaker-key string.
#[derive(Debug)]
struct DispatchPlan {
    /// Class providing the implementation (may be an ancestor).
    impl_class: Arc<str>,
    /// The function name as requested (dispatch key).
    function: Arc<str>,
    /// Container image implementing the function.
    image: Arc<str>,
    /// Whether the function is `access: internal`.
    internal: bool,
    /// Interned `class::function` breaker/metrics key.
    breaker_key: Arc<str>,
    /// The function's measured execute time in a dataflow stage: an
    /// EWMA of wall ns, `u64::MAX` until its first stage execute. The
    /// flow engine reads it to decide whether a stage's lanes pay for
    /// their thread handoffs; a redeploy rebuilds the plan and so
    /// forgets it.
    execute_ns: AtomicU64,
}

/// A `class::function` call resolved against a plan snapshot (by
/// [`EmbeddedPlatform::resolve_call`] for external callers, by the flow
/// engine for its steps): the plan entries stay borrowed from the
/// snapshot, which outlives the invocation.
struct ResolvedCall<'a> {
    plan: &'a ClassPlan,
    dispatch: &'a DispatchPlan,
    f: FunctionImpl,
}

/// Per-class invocation plan, built by
/// [`EmbeddedPlatform::rebuild_dispatch_plans`] at deploy time and
/// dropped wholesale on redeploy — the invoke hot path reads only this,
/// never the registry.
#[derive(Debug)]
struct ClassPlan {
    /// Resolved dispatch per visible function name (inherited included).
    functions: BTreeMap<String, DispatchPlan>,
    /// Compiled dataflows per dataflow name.
    dataflows: BTreeMap<String, Arc<CompiledFlow>>,
    /// File-typed key-spec names (presign list for task builds).
    file_keys: Arc<[String]>,
    /// The class's deploy-time retry policy.
    retry: RetryPolicy,
    /// Whether the class runtime's template persists state (resolved at
    /// deploy so commits never consult the runtimes lock).
    persists: bool,
    /// The runtime's locality-routing flag, the node hop's input.
    locality: bool,
    /// The monitored SLO derived from the class's NFRs at deploy time
    /// (availability tier → error budget, latency QoS → p99 objective),
    /// so burn-rate evaluation never consults the registry.
    slo: Slo,
}

/// The full dispatch-plan table, swapped atomically at deploy.
type PlanTable = BTreeMap<String, ClassPlan>;

/// One class's live SLO posture (from [`EmbeddedPlatform::slo_report`]):
/// the deploy-time [`Slo`] contract evaluated against the current
/// metric windows.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    /// Class name.
    pub class: String,
    /// Target availability (declared, or the default tier).
    pub availability: f64,
    /// Error budget: tolerated failure fraction.
    pub error_budget: f64,
    /// Declared p99 latency objective (ms), if any.
    pub max_p99_ms: Option<u64>,
    /// Observed p99 (ms) over the fast window (`0.0` when idle).
    pub window_p99_ms: f64,
    /// Whether the slow window holds any events (idle classes report
    /// `false` and zero burn).
    pub active: bool,
    /// Burn rate over the fast (10s) window.
    pub burn_fast: f64,
    /// Burn rate over the slow (5m) window.
    pub burn_slow: f64,
    /// Multi-window classification: `ok` / `slow-burn` / `fast-burn`.
    pub status: &'static str,
    /// Whether the observed p99 met the latency objective.
    pub latency_ok: bool,
}

/// A surgical edit to one deployed dataflow, applied by
/// [`EmbeddedPlatform::edit_flow`] as a plan → rewire → validate →
/// atomic-swap transaction.
#[derive(Debug, Clone)]
pub enum FlowEdit {
    /// Insert a step. With `before: Some(c)` the step is spliced into
    /// the edge feeding `c`: when its `inputs` are empty it inherits
    /// `c`'s previous inputs, and `c` is rewired to consume the new
    /// step's output. With `before: None` the step is appended as
    /// written (empty inputs default to the flow input).
    AddStep {
        /// The step to insert.
        step: StepSpec,
        /// The consumer to splice in front of, if any.
        before: Option<String>,
    },
    /// Delete the step named `id`, splicing its consumers (and the
    /// flow output, if it pointed here) onto its sole upstream step.
    DeleteStep {
        /// The step id to delete.
        id: String,
    },
}

/// Applies `edit` to `df` in place. Structural rewiring only — full
/// validation happens when the edited package re-enters the deploy
/// pipeline.
fn apply_flow_edit(df: &mut DataflowSpec, edit: FlowEdit) -> Result<(), PlatformError> {
    let invalid = |df: &DataflowSpec, reason: String| {
        PlatformError::Core(oprc_core::CoreError::InvalidDataflow {
            dataflow: df.name.clone(),
            reason,
        })
    };
    let refs_step = |s: &StepSpec, id: &str| {
        s.inputs
            .iter()
            .chain(s.target.iter())
            .any(|r| matches!(r, DataRef::Step { step, .. } if step == id))
    };
    match edit {
        FlowEdit::AddStep { mut step, before } => match before {
            Some(consumer) => {
                let Some(pos) = df.steps.iter().position(|s| s.id == consumer) else {
                    return Err(invalid(
                        df,
                        format!("no step '{consumer}' to insert before"),
                    ));
                };
                if step.inputs.is_empty() {
                    step.inputs = df.steps[pos].inputs.clone();
                }
                df.steps[pos].inputs = vec![DataRef::Step {
                    step: step.id.clone(),
                    pointer: None,
                }];
                df.steps.insert(pos, step);
                Ok(())
            }
            None => {
                if step.inputs.is_empty() {
                    step.inputs = vec![DataRef::Input];
                }
                df.steps.push(step);
                Ok(())
            }
        },
        FlowEdit::DeleteStep { id } => {
            let Some(pos) = df.steps.iter().position(|s| s.id == id) else {
                return Err(invalid(df, format!("no step '{id}' to delete")));
            };
            let deps: BTreeSet<String> = df.steps[pos]
                .inputs
                .iter()
                .filter_map(|r| match r {
                    DataRef::Step { step, .. } => Some(step.clone()),
                    _ => None,
                })
                .collect();
            let has_consumers = df.steps.iter().any(|s| s.id != id && refs_step(s, &id));
            let is_output = df.output.as_deref() == Some(id.as_str());
            let splice = if has_consumers || is_output {
                match deps.len() {
                    1 => deps.into_iter().next(),
                    n => {
                        return Err(invalid(
                            df,
                            format!(
                                "cannot delete '{id}': consumers need a single upstream \
                                 step to splice onto, found {n}"
                            ),
                        ))
                    }
                }
            } else {
                None
            };
            df.steps.remove(pos);
            if let Some(d) = splice {
                for s in &mut df.steps {
                    for r in s.inputs.iter_mut().chain(s.target.iter_mut()) {
                        if let DataRef::Step { step, .. } = r {
                            if *step == id {
                                step.clone_from(&d);
                            }
                        }
                    }
                }
                if is_output {
                    df.output = Some(d);
                }
            }
            Ok(())
        }
    }
}

/// The in-process Oparaca platform.
///
/// The platform is `Sync`: share it behind an `Arc` (or plain `&`) and
/// invoke from as many worker threads as you like. Setup-time methods
/// (registering functions, enabling telemetry/chaos) still take
/// `&mut self` — configure first, then serve.
///
/// See the [crate docs](crate) for a full walkthrough.
#[derive(Debug)]
pub struct EmbeddedPlatform {
    // -- Control plane (locked; never touched while a shard is held) --
    registry: OrderedRwLock<PackageRegistry>,
    functions: OrderedRwLock<FunctionRegistry>,
    runtimes: OrderedRwLock<BTreeMap<String, ClassRuntime>>,
    /// Per-class dispatch plans behind an atomically-swapped `Arc`:
    /// invokes clone the `Arc` once and read a consistent snapshot;
    /// deploys build a fresh table off-lock and swap it in (see
    /// [`EmbeddedPlatform::rebuild_dispatch_plans`]).
    plans: OrderedRwLock<Arc<PlanTable>>,
    /// Serializes whole deployments (lint → registry → runtimes → plan
    /// swap) without ever blocking the invoke read path.
    deploy_gate: OrderedMutex<()>,
    /// The simulated worker-node cluster backing the partition plane
    /// (topology changes run under the deploy gate).
    cluster: OrderedMutex<Cluster>,
    /// The node-level partition plane behind an atomically-swapped
    /// `Arc`, same discipline as `plans`: invokes read one consistent
    /// epoch; `node_join`/`node_leave` build the next table off-lock
    /// and swap it in (see [`nodes`]).
    nodes: OrderedRwLock<Arc<NodeTable>>,
    // -- Data plane --
    /// Sharded object state: directory entries, per-shard storage
    /// stacks, and in-flight commit records (see [`shard`]).
    shards: Box<[ShardHandle]>,
    /// Instance-routing ring: `primary(obj-N)` names the owning
    /// class-runtime instance, answered without touching any shard lock.
    routing: Dht,
    // -- Shared leaf services (internally synchronized) --
    s3: S3Gateway,
    metrics: MetricsHub,
    telemetry: TraceSink,
    /// Fault injector (disabled unless a chaos plan is enabled).
    chaos: FaultInjector,
    /// Per-tenant admission control (off unless enabled): the token
    /// buckets [`EmbeddedPlatform::invoke_as`] charges before touching
    /// any control-plane or shard lock.
    admission: Option<AdmissionControl>,
    /// Images that have executed at least once (cold-start attribution
    /// on `engine.execute` spans; tracked only while telemetry is on).
    warmed: OrderedMutex<BTreeSet<String>>,
    /// Per-`class::function` circuit breakers, created lazily for
    /// functions whose retry policy arms one. Keyed by the interned
    /// breaker key so the hot path never formats a lookup string.
    breakers: OrderedMutex<BTreeMap<Arc<str>, CircuitBreaker>>,
    // -- Plain configuration (set before serving) --
    catalog: TemplateCatalog,
    optimizer_cfg: OptimizerConfig,
    lint_config: LintConfig,
    /// Whether [`rebuild_dispatch_plans`](Self::rebuild_dispatch_plans)
    /// runs the same-object fusion pass (on by default; the equivalence
    /// tests and benches flip it off to get the one-commit-per-step
    /// reference the fused program is compared against).
    fuse_flows: bool,
    /// Seed for per-invocation backoff jitter streams.
    jitter_seed: u64,
    started: Instant,
    /// When true, [`EmbeddedPlatform::now`] reads only `clock_offset`
    /// (advanced manually), never the wall clock — making metric
    /// windows and SLO burn rates fully deterministic.
    virtual_clock: bool,
    // -- Atomic counters --
    next_object: AtomicU64,
    next_task: AtomicU64,
    next_instance: AtomicU64,
    /// Next idempotency key (one per logical invocation / dataflow step).
    next_invocation: AtomicU64,
    /// Records re-homed by partition migrations (all epochs).
    moved_records: AtomicU64,
    /// Round-robin cursor over ready nodes (locality-off node picks).
    node_rr: AtomicUsize,
    /// Virtual chaos clock (nanos): advanced by backoff sleeps and
    /// injected latency, never by wall time, so retry/breaker timing is
    /// deterministic.
    chaos_clock: AtomicU64,
    /// Manual offset (nanos) added to [`EmbeddedPlatform::now`]; the
    /// *whole* clock in virtual mode. Lets tests and deterministic
    /// benches advance platform time (rotate metric windows, age SLO
    /// burn) without sleeping. Behind an `Arc` so
    /// [`EmbeddedPlatform::clock_handle`] can hand function
    /// implementations a way to model service time.
    clock_offset: Arc<AtomicU64>,
}

/// A cloneable handle onto the platform's manual clock offset.
///
/// Function implementations cannot borrow the platform (the platform
/// owns them), but a deterministic service-time model needs to advance
/// platform time from *inside* an invocation so latencies are non-zero
/// under [`EmbeddedPlatform::enable_virtual_clock`]. Capture a handle
/// in the closure and call [`ClockHandle::advance`] per call.
#[derive(Debug, Clone)]
pub struct ClockHandle {
    offset: Arc<AtomicU64>,
}

impl ClockHandle {
    /// Advances the platform clock by `d` (identical in effect to
    /// [`EmbeddedPlatform::advance_clock`]).
    pub fn advance(&self, d: SimDuration) {
        self.offset.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }
}

impl Default for EmbeddedPlatform {
    fn default() -> Self {
        Self::new()
    }
}

impl EmbeddedPlatform {
    /// Creates a platform with the standard template catalog and default
    /// storage stack.
    pub fn new() -> Self {
        Self::with_catalog(TemplateCatalog::standard())
    }

    /// Creates a platform with a custom template catalog (the provider
    /// hook of §III-B).
    pub fn with_catalog(catalog: TemplateCatalog) -> Self {
        let started = Instant::now();
        let shards: Box<[ShardHandle]> = (0..SHARD_COUNT)
            .map(|_| ShardHandle::new(StateLayer::with_defaults()))
            .collect();
        let mut routing = Dht::new(DhtConfig::default());
        for m in 0..ROUTING_MEMBERS {
            routing.join(DhtNodeId(m));
        }
        let (cluster, node_table) = Self::boot_node_plane();
        EmbeddedPlatform {
            registry: OrderedRwLock::new(Tier::Control, PackageRegistry::new()),
            functions: OrderedRwLock::new(Tier::Control, FunctionRegistry::new()),
            runtimes: OrderedRwLock::new(Tier::Control, BTreeMap::new()),
            plans: OrderedRwLock::new(Tier::Control, Arc::new(PlanTable::new())),
            deploy_gate: OrderedMutex::new(Tier::Control, ()),
            cluster: OrderedMutex::new(Tier::Control, cluster),
            nodes: OrderedRwLock::new(Tier::Control, Arc::new(node_table)),
            shards,
            routing,
            s3: S3Gateway::new(b"oparaca-embedded-secret".to_vec(), started),
            metrics: MetricsHub::new(),
            telemetry: TraceSink::disabled(),
            chaos: FaultInjector::disabled(),
            admission: None,
            warmed: OrderedMutex::new(Tier::Leaf, BTreeSet::new()),
            breakers: OrderedMutex::new(Tier::Leaf, BTreeMap::new()),
            catalog,
            optimizer_cfg: OptimizerConfig::default(),
            lint_config: LintConfig::new(),
            fuse_flows: true,
            jitter_seed: 0,
            started,
            virtual_clock: false,
            next_object: AtomicU64::new(0),
            next_task: AtomicU64::new(0),
            next_instance: AtomicU64::new(0),
            next_invocation: AtomicU64::new(0),
            moved_records: AtomicU64::new(0),
            node_rr: AtomicUsize::new(0),
            chaos_clock: AtomicU64::new(0),
            clock_offset: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Per-shard occupancy and lock-contention counters, in shard order.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, h)| h.stats(i))
            .collect()
    }

    /// The shard owning `id`'s state.
    fn shard(&self, id: ObjectId) -> &ShardHandle {
        &self.shards[shard_index(id, self.shards.len())]
    }

    /// Enables telemetry with `cfg`, replacing any previous sink.
    /// With [`oprc_telemetry::ClockMode::Logical`] (the config default)
    /// traces are deterministic even on this wall-clock platform.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.telemetry = TraceSink::new(cfg);
    }

    /// Installs a caller-provided sink (e.g. one shared with a
    /// simulation driver). Pass [`TraceSink::disabled`] to turn
    /// telemetry off again.
    pub fn set_telemetry_sink(&mut self, sink: TraceSink) {
        self.telemetry = sink;
    }

    /// The active trace sink (disabled by default).
    pub fn telemetry(&self) -> &TraceSink {
        &self.telemetry
    }

    /// Arms deterministic fault injection with `plan`. The plan seed
    /// also seeds per-invocation backoff jitter, so a whole chaos run is
    /// a pure function of the seed.
    pub fn enable_chaos(&mut self, plan: FaultPlan) {
        self.jitter_seed = plan.seed;
        self.chaos = FaultInjector::new(plan);
    }

    /// Disarms fault injection (retry policies stay active).
    pub fn disable_chaos(&mut self) {
        self.chaos = FaultInjector::disabled();
    }

    /// The active fault injector (shared handle; disabled by default).
    pub fn chaos(&self) -> &FaultInjector {
        &self.chaos
    }

    /// Arms per-tenant admission control with `config`. Subsequent
    /// [`EmbeddedPlatform::invoke_as`] calls charge the caller's token
    /// bucket; plain [`EmbeddedPlatform::invoke`] stays un-gated
    /// (platform-internal traffic has no tenant). Configure before
    /// serving, like telemetry/chaos.
    pub fn enable_admission(&mut self, config: AdmissionConfig) {
        self.admission = Some(AdmissionControl::new(config));
    }

    /// Disarms admission control (tenant metrics keep accumulating).
    pub fn disable_admission(&mut self) {
        self.admission = None;
    }

    /// The active admission controller, if enabled.
    pub fn admission(&self) -> Option<&AdmissionControl> {
        self.admission.as_ref()
    }

    /// The virtual chaos clock: advanced by backoff sleeps and injected
    /// latency only, so breaker cooldowns are deterministic.
    pub fn chaos_clock(&self) -> SimTime {
        SimTime::from_nanos(self.chaos_clock.load(Ordering::Relaxed))
    }

    /// Manually advances the chaos clock (tests: let a breaker cooldown
    /// elapse without real time passing).
    pub fn advance_chaos_clock(&self, d: SimDuration) {
        self.chaos_clock.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// The circuit-breaker state of `class::function`: `closed` /
    /// `open` / `half-open`, or `None` while no breaker has been
    /// created (policy arms none, or the function was never invoked).
    pub fn breaker_state(&self, class: &str, function: &str) -> Option<&'static str> {
        self.breakers
            .lock()
            .get(format!("{class}::{function}").as_str())
            .map(|b| b.state().as_str())
    }

    /// The retry policy resolved for `class` at deploy time.
    pub fn retry_policy(&self, class: &str) -> Option<RetryPolicy> {
        self.plans.read().get(class).map(|p| p.retry.clone())
    }

    /// The S3 endpoint handle. Function closures may capture a clone —
    /// it only honours presigned URLs, so the platform secret stays in
    /// the control plane (§III-D).
    pub fn s3(&self) -> S3Gateway {
        self.s3.clone()
    }

    /// Platform-relative time: wall clock mapped onto [`SimTime`] plus
    /// any manual [`EmbeddedPlatform::advance_clock`] offset — or the
    /// offset alone under [`EmbeddedPlatform::enable_virtual_clock`].
    pub fn now(&self) -> SimTime {
        let offset = self.clock_offset.load(Ordering::Relaxed);
        if self.virtual_clock {
            SimTime::from_nanos(offset)
        } else {
            SimTime::from_nanos(self.started.elapsed().as_nanos() as u64 + offset)
        }
    }

    /// Switches [`EmbeddedPlatform::now`] to a purely manual clock
    /// (starting at zero, advanced only by
    /// [`EmbeddedPlatform::advance_clock`]). With logical-clock
    /// telemetry this makes every observability surface — metric
    /// windows, SLO burn rates, flamegraphs — a pure function of the
    /// call sequence. Configure before serving, like telemetry/chaos.
    pub fn enable_virtual_clock(&mut self) {
        self.virtual_clock = true;
    }

    /// Manually advances [`EmbeddedPlatform::now`] by `d` (tests and
    /// deterministic benches: rotate metric windows or let SLO fast
    /// windows clear without real time passing).
    pub fn advance_clock(&self, d: SimDuration) {
        self.clock_offset.fetch_add(d.as_nanos(), Ordering::Relaxed);
    }

    /// A cloneable handle that advances this platform's clock — what a
    /// registered function captures to model deterministic service time
    /// under the virtual clock (see [`ClockHandle`]).
    pub fn clock_handle(&self) -> ClockHandle {
        ClockHandle {
            offset: Arc::clone(&self.clock_offset),
        }
    }

    /// The metrics hub.
    pub fn metrics(&self) -> &MetricsHub {
        &self.metrics
    }

    /// Reconfigures the deploy-time lint severities (per-code
    /// deny/warn/allow overrides; [`LintConfig::permissive`] disables
    /// gating entirely).
    pub fn set_lint_config(&mut self, config: LintConfig) {
        self.lint_config = config;
    }

    /// The active deploy-time lint configuration.
    pub fn lint_config(&self) -> &LintConfig {
        &self.lint_config
    }

    /// Runs the static analyzer over `pkg` exactly as the deploy gate
    /// would: against this platform's template catalog and lint
    /// configuration, without deploying anything.
    pub fn lint_package(&self, pkg: &OPackage) -> AnalysisReport {
        analyze_with(pkg, &self.catalog, &self.lint_config)
    }

    /// Registers a function implementation for a container image name
    /// (§IV step 3).
    pub fn register_function<F>(&mut self, image: impl Into<String>, f: F)
    where
        F: Fn(&InvocationTask) -> Result<TaskResult, TaskError> + Send + Sync + 'static,
    {
        self.functions.write().register(image, f);
    }

    /// Parses and deploys a YAML package (§IV steps 4–5).
    ///
    /// # Errors
    ///
    /// Propagates parse/validation errors and template-selection
    /// failures.
    pub fn deploy_yaml(&self, text: &str) -> Result<(), PlatformError> {
        let pkg = oprc_core::parse::package_from_yaml(text)?;
        self.deploy_package(pkg)
    }

    /// Deploys an already-built package.
    ///
    /// The package first passes through the static analyzer (§III-B's
    /// pre-deploy validation): error-severity findings refuse the
    /// deployment before any class runtime is created, warnings are
    /// recorded on the metrics hub and deployment proceeds.
    ///
    /// Deployments serialize on an internal gate but never stall
    /// in-flight invocations: readers keep the plan snapshot they
    /// already hold and pick up the new table on their next invoke.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::LintRejected`] on error-severity lint
    /// findings; otherwise propagates registry and template-selection
    /// errors.
    pub fn deploy_package(&self, pkg: OPackage) -> Result<(), PlatformError> {
        let _gate = self.deploy_gate.lock();
        self.deploy_package_locked(pkg)
    }

    /// The deploy body, run under the deploy gate (shared by
    /// [`deploy_package`](Self::deploy_package) and
    /// [`edit_flow`](Self::edit_flow)).
    fn deploy_package_locked(&self, pkg: OPackage) -> Result<(), PlatformError> {
        let report = self.lint_package(&pkg);
        if report.has_errors() {
            return Err(PlatformError::LintRejected(
                report.errors().into_iter().cloned().collect(),
            ));
        }
        for warning in report.at(Severity::Warning) {
            self.metrics.record_lint_warning(warning.to_string());
        }
        let class_names: Vec<String> = pkg.classes.iter().map(|c| c.name.clone()).collect();
        self.registry.write().deploy(pkg)?;
        for name in class_names {
            let (spec, has_files) = {
                let registry = self.registry.read();
                let resolved = registry.require_class(&name)?;
                let spec = deployer::plan_runtime(resolved, &self.catalog)?;
                let has_files = resolved
                    .key_specs
                    .iter()
                    .any(|k| k.state_type == oprc_core::StateType::File);
                (spec, has_files)
            };
            let replicas = spec.config.min_replicas.max(1) as usize;
            let locality = spec.config.locality_routing;
            let mut instances = Vec::with_capacity(replicas);
            for _ in 0..replicas {
                instances.push(self.next_instance.fetch_add(1, Ordering::Relaxed));
            }
            self.runtimes.write().insert(
                name.clone(),
                ClassRuntime {
                    spec,
                    router: ObjectRouter::new(locality),
                    instances,
                },
            );
            if has_files {
                self.s3.ensure_bucket(&bucket_name(&name))?;
            }
        }
        self.rebuild_dispatch_plans()
    }

    /// Rebuilds the per-class dispatch-plan cache from the registry and
    /// publishes it with one atomic `Arc` swap.
    ///
    /// Runs at the end of every deploy (under the deploy gate). Deploys
    /// are rare and can change dispatch for *other* classes too (an
    /// upgraded package rewires inheritance), so the table is rebuilt
    /// wholesale off-lock and swapped in — trivially correct
    /// invalidation: no stale plan can survive a redeploy, in-flight
    /// invokes keep the consistent snapshot they cloned, and between
    /// deploys the registry is immutable.
    fn rebuild_dispatch_plans(&self) -> Result<(), PlatformError> {
        let configs: BTreeMap<String, (bool, bool)> = self
            .runtimes
            .read()
            .iter()
            .map(|(name, rt)| {
                let config = &rt.spec.config;
                (name.clone(), (config.persistent, config.locality_routing))
            })
            .collect();
        let mut table = PlanTable::new();
        {
            let registry = self.registry.read();
            for class in registry.class_names() {
                let resolved = registry.require_class(class)?;
                let mut functions = BTreeMap::new();
                for fname in resolved.function_names() {
                    let (impl_class, fdef) = resolved
                        .dispatch(fname)
                        .expect("function_names lists dispatchable functions");
                    functions.insert(
                        fname.to_string(),
                        DispatchPlan {
                            impl_class: Arc::from(impl_class),
                            function: Arc::from(fname),
                            image: Arc::from(fdef.image.as_str()),
                            internal: fdef.access == AccessModifier::Internal,
                            breaker_key: Arc::from(format!("{class}::{fname}").as_str()),
                            execute_ns: AtomicU64::new(u64::MAX),
                        },
                    );
                }
                let dataflows = resolved
                    .dataflows
                    .iter()
                    .map(|df| {
                        let flow = CompiledFlow::compile(df, class, resolved, self.fuse_flows);
                        (df.name.clone(), Arc::new(flow))
                    })
                    .collect();
                let file_keys: Arc<[String]> = resolved
                    .key_specs
                    .iter()
                    .filter(|k| k.state_type == oprc_core::StateType::File)
                    .map(|k| k.name.clone())
                    .collect();
                // A class without a runtime persists and routes by locality.
                let (persists, locality) = configs.get(class).copied().unwrap_or((true, true));
                table.insert(
                    class.to_string(),
                    ClassPlan {
                        functions,
                        dataflows,
                        file_keys,
                        retry: RetryPolicy::from_nfr(&resolved.nfr),
                        persists,
                        locality,
                        slo: Slo::from_nfr(&resolved.nfr),
                    },
                );
            }
        }
        *self.plans.write() = Arc::new(table);
        Ok(())
    }

    /// Enables or disables the same-object fusion pass and recompiles
    /// every deployed flow under the deploy gate. Fusion is on by
    /// default; the equivalence tests and benches flip it off to get
    /// the step-at-a-time baseline.
    ///
    /// # Errors
    ///
    /// Propagates registry resolution errors from the rebuild.
    pub fn set_flow_fusion(&mut self, on: bool) -> Result<(), PlatformError> {
        self.fuse_flows = on;
        let _gate = self.deploy_gate.lock();
        self.rebuild_dispatch_plans()
    }

    /// Runs the dataflow-aware analyzer (`flow doctor`) over every
    /// deployed package, with the same template catalog and lint
    /// configuration the deploy gate applies. One report per package,
    /// in package-name order.
    pub fn doctor(&self) -> Vec<AnalysisReport> {
        self.registry
            .read()
            .packages()
            .map(|pkg| doctor_with(pkg, &self.catalog, &self.lint_config))
            .collect()
    }

    /// Applies a surgical edit to one deployed dataflow: clone the
    /// owning package, rewire the flow, then re-run the full deploy
    /// pipeline (lint gate → registry → recompile → atomic plan swap)
    /// under the deploy gate. Invalid edits are rejected by the lint
    /// gate *before* any state changes; in-flight invocations keep the
    /// plan snapshot they already hold, so a live edit never tears a
    /// running flow.
    ///
    /// # Errors
    ///
    /// - [`PlatformError::Core`] when `class`/`flow`/a referenced step
    ///   does not exist or the edit leaves no valid splice;
    /// - [`PlatformError::LintRejected`] when the rewired flow fails
    ///   validation (the deployed flow is left untouched).
    pub fn edit_flow(&self, class: &str, flow: &str, edit: FlowEdit) -> Result<(), PlatformError> {
        let _gate = self.deploy_gate.lock();
        let mut pkg = self
            .registry
            .read()
            .package_of_class(class)
            .cloned()
            .ok_or_else(|| {
                PlatformError::Core(oprc_core::CoreError::UnknownClass(class.to_string()))
            })?;
        let df = pkg
            .classes
            .iter_mut()
            .find(|c| c.name == class)
            .and_then(|c| c.dataflows.iter_mut().find(|d| d.name == flow))
            .ok_or_else(|| {
                PlatformError::Core(oprc_core::CoreError::UnknownFunction {
                    class: class.to_string(),
                    function: flow.to_string(),
                })
            })?;
        apply_flow_edit(df, edit)?;
        self.deploy_package_locked(pkg)
    }

    /// Deliberately acquires a second shard lock while one is held,
    /// tripping the debug-build lock-order sanitizer (test hook).
    #[doc(hidden)]
    pub fn debug_violate_lock_order(&self) {
        let _a = self.shards[0].lock();
        let _b = self.shards[self.shards.len() - 1].lock();
    }

    /// The runtime spec chosen for `class`, if deployed.
    pub fn runtime_spec(&self, class: &str) -> Option<ClassRuntimeSpec> {
        self.runtimes.read().get(class).map(|r| r.spec.clone())
    }

    /// All deployed class names, in order.
    pub fn class_names(&self) -> Vec<String> {
        self.registry
            .read()
            .class_names()
            .into_iter()
            .map(String::from)
            .collect()
    }

    /// The live instance count of `class`'s runtime, if deployed.
    pub fn instance_count(&self, class: &str) -> Option<usize> {
        self.runtimes.read().get(class).map(|r| r.instances.len())
    }

    /// Creates an object of `class` with initial structured state
    /// (§IV step 5).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Core`] for unknown classes.
    pub fn create_object(&self, class: &str, initial: Value) -> Result<ObjectId, PlatformError> {
        self.registry.read().require_class(class)?;
        let id = ObjectId(self.next_object.fetch_add(1, Ordering::Relaxed));
        let mut value = initial;
        merge::normalize(&mut value);
        let key = storage_key(class, id);
        let now = self.now();
        let persist = self.plans.read().get(class).is_none_or(|p| p.persists);
        let mut sh = self.shard(id).lock();
        sh.state.store(now, &key, value, persist);
        sh.objects.insert(
            id,
            ObjectEntry {
                class: class.to_string(),
                storage_key: Arc::from(key.as_str()),
                files: BTreeMap::new(),
                revision: 0,
            },
        );
        Ok(id)
    }

    /// The class of an object.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownObject`].
    pub fn object_class(&self, id: ObjectId) -> Result<String, PlatformError> {
        self.shard(id)
            .lock()
            .objects
            .get(&id)
            .map(|e| e.class.clone())
            .ok_or(PlatformError::UnknownObject(id.as_u64()))
    }

    /// Reads an object's structured state.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownObject`].
    pub fn get_state(&self, id: ObjectId) -> Result<Value, PlatformError> {
        let mut sh = self.shard(id).lock();
        let key = sh
            .objects
            .get(&id)
            .map(|e| Arc::clone(&e.storage_key))
            .ok_or(PlatformError::UnknownObject(id.as_u64()))?;
        Ok(sh
            .state
            .load(&key)
            .map_or_else(Value::object, Snapshot::into_value))
    }

    /// Reads an object's *externally visible* structured state: key
    /// specs declared `access: internal` are stripped (the access-
    /// control half of §I's "data, access control, and workflow").
    /// Undeclared keys are public (classes may evolve state shape
    /// without redeploying specs).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownObject`] / [`PlatformError::Core`].
    pub fn get_state_public(&self, id: ObjectId) -> Result<Value, PlatformError> {
        let class = self.object_class(id)?;
        let internal: Vec<String> = {
            let registry = self.registry.read();
            registry
                .require_class(&class)?
                .key_specs
                .iter()
                .filter(|k| k.access == AccessModifier::Internal)
                .map(|k| k.name.clone())
                .collect()
        };
        let mut state = self.get_state(id)?;
        if let Some(map) = state.as_object_mut() {
            for key in &internal {
                map.remove(key);
            }
        }
        Ok(state)
    }

    /// An object's file reference for `key`, if the file was written.
    pub fn file_ref(&self, id: ObjectId, key: &str) -> Option<FileRef> {
        self.shard(id)
            .lock()
            .objects
            .get(&id)
            .and_then(|e| e.files.get(key).cloned())
    }

    /// Issues a presigned PUT URL for an object's file key (§III-D).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownObject`] for missing objects.
    pub fn upload_url(&self, id: ObjectId, key: &str) -> Result<String, PlatformError> {
        self.presigned(id, key, Method::Put)
    }

    /// Issues a presigned GET URL for an object's file key.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::UnknownObject`] for missing objects.
    pub fn download_url(&self, id: ObjectId, key: &str) -> Result<String, PlatformError> {
        self.presigned(id, key, Method::Get)
    }

    fn presigned(&self, id: ObjectId, key: &str, method: Method) -> Result<String, PlatformError> {
        let class = self.object_class(id)?;
        self.presign_for(&class, id, key, method)
    }

    /// Presigns a URL for `class`/`id`/`key` without consulting the
    /// object directory — callable while the object's shard is locked
    /// (the shard mutex is not reentrant).
    fn presign_for(
        &self,
        class: &str,
        id: ObjectId,
        key: &str,
        method: Method,
    ) -> Result<String, PlatformError> {
        let bucket = bucket_name(class);
        self.s3.ensure_bucket(&bucket)?;
        let object_key = format!("{id}/{key}");
        Ok(self.s3.presign(method, &bucket, &object_key, URL_TTL))
    }

    /// Uploads bytes through a presigned PUT URL, as user code or a
    /// function would, and records the resulting file reference.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Store`] on signature/expiry failures or
    /// when the URL grants GET only.
    pub fn upload(
        &self,
        url: &str,
        data: Bytes,
        content_type: &str,
    ) -> Result<ObjectMeta, PlatformError> {
        let meta = self.s3.put(url, data, content_type)?;
        // Record the file reference on the owning object (the gateway
        // validated the URL, so parsing its path is safe).
        if let Some((bucket, key)) = parse_url_path(url) {
            if let Some((obj, file_key)) = parse_object_key(&key) {
                let mut sh = self.shard(obj).lock();
                if let Some(entry) = sh.objects.get_mut(&obj) {
                    entry.files.insert(
                        file_key.to_string(),
                        FileRef {
                            bucket,
                            key: key.clone(),
                            etag: Some(meta.etag.clone()),
                        },
                    );
                    entry.revision += 1;
                }
            }
        }
        Ok(meta)
    }

    /// Fetches bytes through a presigned GET URL.
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Store`] on signature/expiry failures,
    /// wrong method, or missing objects.
    pub fn download(&self, url: &str) -> Result<StoredObject, PlatformError> {
        Ok(self.s3.get(url)?)
    }

    /// The virtual chaos clock as a [`SimTime`].
    fn chaos_now(&self) -> SimTime {
        SimTime::from_nanos(self.chaos_clock.load(Ordering::Relaxed))
    }

    /// Invokes a method or dataflow on an object (§IV step 5).
    ///
    /// Takes `&self`: any number of worker threads may invoke
    /// concurrently. Invocations on the same object serialize on its
    /// state shard; invocations on objects in different shards proceed
    /// in parallel.
    ///
    /// # Errors
    ///
    /// - [`PlatformError::UnknownObject`] / [`PlatformError::Core`] for
    ///   bad targets;
    /// - [`PlatformError::AccessDenied`] for internal functions;
    /// - [`PlatformError::UnknownImage`] when no implementation is
    ///   registered;
    /// - [`PlatformError::Task`] when the function itself fails.
    pub fn invoke(
        &self,
        id: ObjectId,
        function: &str,
        args: Vec<Value>,
    ) -> Result<TaskResult, PlatformError> {
        let started = self.now();
        let root = if self.telemetry.is_enabled() {
            let root = self.telemetry.begin_root("invoke", started);
            self.telemetry.attr(root, "object", id.as_u64());
            self.telemetry.attr(root, "function", function);
            root
        } else {
            TraceContext::NONE
        };
        let out = self.invoke_routed(id, function, args, started, root);
        if self.telemetry.is_enabled() {
            match &out {
                Ok(_) => self.telemetry.attr(root, "outcome", "ok"),
                Err(e) => self.telemetry.attr(root, "outcome", format!("error: {e}")),
            }
            self.telemetry.end(root, self.now());
        }
        out
    }

    /// Invokes `function` on object `id` on behalf of `tenant`: the
    /// multi-tenant entry point.
    ///
    /// When admission control is enabled
    /// ([`EmbeddedPlatform::enable_admission`]), one token is charged
    /// from the tenant's bucket *before* any control-plane or shard
    /// lock is taken; an empty bucket rejects the call with
    /// [`PlatformError::AdmissionRejected`] without touching the
    /// invocation plane. Admission is per logical invocation — a
    /// dataflow admitted here runs all of its steps even if the bucket
    /// empties mid-flight. Outcomes of admitted calls feed the
    /// per-tenant [`MetricsHub`] series that
    /// [`MetricsHub::tenant_fairness`] reads.
    ///
    /// # Errors
    ///
    /// [`PlatformError::AdmissionRejected`] on an empty bucket, plus
    /// everything [`EmbeddedPlatform::invoke`] can return.
    pub fn invoke_as(
        &self,
        tenant: &str,
        id: ObjectId,
        function: &str,
        args: Vec<Value>,
    ) -> Result<TaskResult, PlatformError> {
        let started = self.now();
        if let Some(admission) = &self.admission {
            if !admission.admit(tenant, started) {
                self.metrics.record_tenant_rejection(tenant);
                return Err(PlatformError::AdmissionRejected {
                    tenant: tenant.to_string(),
                });
            }
        }
        let out = self.invoke(id, function, args);
        let now = self.now();
        // Errors carry their real elapsed time too: a failed call
        // occupied the tenant for as long as it ran, and a zero
        // latency would skew the tenant windows toward zero.
        let latency = now - started;
        self.metrics
            .record_tenant(tenant, now, latency, out.is_ok());
        out
    }

    /// The body of [`EmbeddedPlatform::invoke`], running under the root
    /// `invoke` span.
    fn invoke_routed(
        &self,
        id: ObjectId,
        function: &str,
        args: Vec<Value>,
        started: SimTime,
        root: TraceContext,
    ) -> Result<TaskResult, PlatformError> {
        let class = self.object_class(id)?;
        self.telemetry.attr(root, "class", class.as_str());
        // One consistent plan snapshot for the whole invocation: a
        // concurrent redeploy swaps the table under new invokes without
        // tearing this one.
        let plans: Arc<PlanTable> = Arc::clone(&self.plans.read());
        let plan = plans.get(&class);
        if let Some(flow) = plan.and_then(|p| p.dataflows.get(function)) {
            let out = self.run_dataflow(id, &class, flow, args, root, &plans);
            self.record(&class, function, started, &out);
            return out;
        }
        // The call stays borrowed from the plan snapshot: `plans`
        // outlives the whole invocation, so no per-invoke clone is
        // needed; and the implementation is in hand before the shard
        // lock is taken, which is never held while consulting the
        // function registry.
        let call = self.resolve_call(&class, function, plan, &self.functions.read(), started)?;
        self.emit_route(&class, id, root);
        let hop = self.node_hop(id, call.plan.locality);
        hop.count();
        self.emit_node_hop(&hop, root);
        let out = self.invoke_with_retry(id, &class, &call, args, root, &hop);
        self.record(&class, function, started, &out);
        out
    }

    /// Resolves `class::function` for an external caller against one
    /// plan snapshot (`plan` is the snapshot's entry for `class`): class
    /// → plan → dispatch → access → implementation, failing at the first
    /// miss. Only an unknown image is recorded into
    /// the metric windows — it is the one miss that names a deployed,
    /// callable function; the earlier ones never reach a series.
    fn resolve_call<'a>(
        &self,
        class: &str,
        function: &str,
        plan: Option<&'a ClassPlan>,
        functions: &FunctionRegistry,
        started: SimTime,
    ) -> Result<ResolvedCall<'a>, PlatformError> {
        let Some(plan) = plan else {
            // Plans cover every registered class, so a missing plan
            // means an undeployed class — surface the registry's error.
            self.registry.read().require_class(class)?;
            unreachable!("deployed classes are planned")
        };
        let Some(dispatch) = plan.functions.get(function) else {
            return Err(PlatformError::Core(oprc_core::CoreError::UnknownFunction {
                class: class.to_string(),
                function: function.to_string(),
            }));
        };
        if dispatch.internal {
            return Err(PlatformError::AccessDenied {
                class: class.to_string(),
                function: function.to_string(),
            });
        }
        let Some(f) = functions.get(&dispatch.image) else {
            let miss = Err(PlatformError::UnknownImage(dispatch.image.to_string()));
            self.record(class, function, started, &miss);
            return miss;
        };
        Ok(ResolvedCall { plan, dispatch, f })
    }

    /// Records the node-level hop on the trace — only on a multi-node
    /// plane, so single-node telemetry (and seeded chaos replays) stay
    /// byte-identical.
    fn emit_node_hop(&self, hop: &NodeHop, parent: TraceContext) {
        if !hop.multi || !self.telemetry.is_enabled() {
            return;
        }
        self.telemetry.instant_under(
            parent,
            "node.route",
            vjson!({
                "partition": (hop.partition as u64),
                "owner": (hop.owner),
                "node": (hop.executing),
                "kind": (if hop.remote { "remote" } else { "local" }),
            }),
            self.now(),
        );
    }

    /// Runs one function invocation under its retry policy: breaker
    /// gate, [`retry_loop`](Self::retry_loop) over re-shipped attempts —
    /// with exactly-once state commits guaranteed by the task's
    /// idempotency key. The flow engine sends its steps here too when
    /// chaos is armed.
    ///
    /// The object's shard lock is held across the whole retry loop, so
    /// two invocations racing on one object serialize as units — their
    /// load→execute→commit sequences never interleave. The task is
    /// built once and *re-shipped* across attempts (§III-C: pure
    /// functions make the bundled task safely re-executable); only a
    /// failed build is rebuilt, since a build failure commits nothing.
    fn invoke_with_retry(
        &self,
        id: ObjectId,
        class: &str,
        call: &ResolvedCall<'_>,
        args: Vec<Value>,
        parent: TraceContext,
        hop: &NodeHop,
    ) -> Result<TaskResult, PlatformError> {
        let (dispatch, policy) = (call.dispatch, &call.plan.retry);
        let function: &str = &dispatch.function;
        self.breaker_admit(class, function, &dispatch.breaker_key, policy)?;
        let ikey = self.next_invocation.fetch_add(1, Ordering::Relaxed);
        let mut task: Option<InvocationTask> = None;
        let mut sh = self.shard(id).lock();
        let out = self.retry_loop(class, dispatch, policy, ikey, parent, |attempt| {
            let attempt_span = if attempt > 1 && self.telemetry.is_enabled() {
                let s = self
                    .telemetry
                    .begin_child(parent, "invoke.attempt", self.now());
                self.telemetry.attr(s, "attempt", u64::from(attempt));
                s
            } else {
                TraceContext::NONE
            };
            let result = self.run_attempt(
                &mut sh, id, class, call, &args, parent, ikey, &mut task, hop,
            );
            self.end_span(attempt_span, &result);
            result
        });
        // A torn ack left a committed record. After a success it can
        // never be consulted again (keys are globally unique) — dropping
        // it keeps the shard's map bounded. After a failure it is the
        // result: the state change landed exactly once and was recorded,
        // so recover it instead of reporting an error for work that
        // committed.
        let torn = sh.committed.remove(&ikey);
        drop(sh);
        let (out, recovered) = match (out, torn) {
            (Err(_), Some(result)) => (Ok(result), true),
            (out, _) => (out, false),
        };
        self.breaker_settle(class, function, &dispatch.breaker_key, out.is_ok());
        if recovered && self.telemetry.is_enabled() {
            self.telemetry.instant_under(
                parent,
                "commit.recovered",
                vjson!({"idempotency_key": ikey}),
                self.now(),
            );
        }
        out
    }

    /// The one retry loop: runs `attempt` (numbered from 1) until it
    /// succeeds, fails for good, or the policy gives up — at most
    /// `max_attempts`, a seeded backoff on the chaos clock before each
    /// retry, and a per-invocation deadline no backoff may cross.
    ///
    /// What an attempt *is* belongs to the caller (the direct path
    /// re-ships one saved task and commits per attempt; a batch item
    /// re-runs the arena's task shell and merges into its group), as do
    /// the breaker gate and the idempotency key; the jitter stream is a
    /// pure function of `(seed, ikey)`, so both callers back off
    /// identically.
    fn retry_loop(
        &self,
        class: &str,
        dispatch: &DispatchPlan,
        policy: &RetryPolicy,
        ikey: u64,
        parent: TraceContext,
        mut attempt: impl FnMut(u32) -> Result<TaskResult, PlatformError>,
    ) -> Result<TaskResult, PlatformError> {
        let function: &str = &dispatch.function;
        // Decorrelate concurrent invocations' jitter while keeping any
        // fixed (seed, ikey) pair exactly reproducible.
        let mut backoffs =
            policy.backoff_seq(self.jitter_seed ^ ikey.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let started = self.chaos_now();
        let mut n = 1;
        loop {
            let e = match attempt(n) {
                Ok(out) => return Ok(out),
                Err(e) if is_retryable(&e) && n < policy.max_attempts => e,
                Err(e) => return Err(e),
            };
            let delay = backoffs.next().expect("backoff sequence is infinite");
            if self.chaos_now() - started + delay > policy.deadline {
                return Err(PlatformError::DeadlineExceeded {
                    function: function.to_string(),
                    deadline_ms: policy.deadline.as_millis_f64() as u64,
                });
            }
            self.chaos_clock
                .fetch_add(delay.as_nanos(), Ordering::Relaxed);
            self.metrics.record_retry(class, function);
            if self.telemetry.is_enabled() {
                self.telemetry.instant_under(
                    parent,
                    "retry.backoff",
                    vjson!({
                        "attempt": (u64::from(n)),
                        "delay_ms": (delay.as_millis_f64()),
                        "error": (e.to_string()),
                    }),
                    self.now(),
                );
            }
            n += 1;
        }
    }

    /// Ends `span`, recording `out`'s error on it first. A no-op for
    /// the null context (telemetry off, or a span that was never
    /// opened).
    fn end_span<T>(&self, span: TraceContext, out: &Result<T, PlatformError>) {
        if span.is_none() {
            return;
        }
        if let Err(e) = out {
            self.telemetry.attr(span, "error", e.to_string());
        }
        self.telemetry.end(span, self.now());
    }

    /// Admits or rejects an invocation through the function's breaker.
    ///
    /// `key` is the dispatch plan's interned `class::function` breaker
    /// key — inserting shares it (a refcount bump), so the hot path
    /// never formats a key string. The breakers lock is a leaf: it is
    /// released before metrics/telemetry are touched.
    fn breaker_admit(
        &self,
        class: &str,
        function: &str,
        key: &Arc<str>,
        policy: &RetryPolicy,
    ) -> Result<(), PlatformError> {
        if policy.breaker_threshold == 0 {
            return Ok(());
        }
        let now = self.chaos_now();
        let (before, allowed, after) = {
            let mut breakers = self.breakers.lock();
            let breaker = breakers
                .entry(Arc::clone(key))
                .or_insert_with(|| CircuitBreaker::from_policy(policy));
            let before = breaker.state();
            let allowed = breaker.allow(now);
            (before, allowed, breaker.state())
        };
        self.metrics
            .record_breaker_state(class, function, after.as_str());
        if before != after {
            self.breaker_transition(class, function, before.as_str(), after.as_str());
        }
        if allowed {
            Ok(())
        } else {
            Err(PlatformError::CircuitOpen {
                class: class.to_string(),
                function: function.to_string(),
            })
        }
    }

    /// Feeds an invocation outcome to the function's breaker, if any.
    fn breaker_settle(&self, class: &str, function: &str, key: &Arc<str>, ok: bool) {
        let now = self.chaos_now();
        let Some((before, after)) = ({
            let mut breakers = self.breakers.lock();
            breakers.get_mut(&**key).map(|breaker| {
                let before = breaker.state();
                if ok {
                    breaker.on_success();
                } else {
                    breaker.on_failure(now);
                }
                (before, breaker.state())
            })
        }) else {
            return;
        };
        self.metrics
            .record_breaker_state(class, function, after.as_str());
        if before != after {
            self.breaker_transition(class, function, before.as_str(), after.as_str());
        }
    }

    fn breaker_transition(&self, class: &str, function: &str, from: &str, to: &str) {
        if self.telemetry.is_enabled() {
            self.telemetry.instant(
                "breaker.transition",
                vjson!({
                    "function": (format!("{class}::{function}")),
                    "from": from,
                    "to": to,
                }),
                self.now(),
            );
        }
    }

    /// Consults the fault injector at `site`. Latency faults advance the
    /// chaos clock and let the operation proceed; error faults return
    /// `Err`; a torn fault is handed back for the caller to give it the
    /// site's semantics (commit-then-lose-ack at `state.commit`,
    /// execute-then-lose-response at the offload boundary).
    fn chaos_fault(
        &self,
        site: InjectionSite,
        parent: TraceContext,
    ) -> Result<Option<FaultKind>, PlatformError> {
        let Some(kind) = self.chaos.decide(site) else {
            return Ok(None);
        };
        self.metrics.record_fault(site.as_str());
        if self.telemetry.is_enabled() {
            self.telemetry.instant_under(
                parent,
                "chaos.fault",
                vjson!({"site": (site.as_str()), "kind": (kind.as_str())}),
                self.now(),
            );
        }
        match kind {
            FaultKind::Latency(d) => {
                self.chaos_clock.fetch_add(d.as_nanos(), Ordering::Relaxed);
                Ok(None)
            }
            FaultKind::Error => Err(PlatformError::FaultInjected {
                site: site.as_str(),
                kind: "error",
            }),
            FaultKind::Torn => Ok(Some(FaultKind::Torn)),
        }
    }

    /// Like [`EmbeddedPlatform::chaos_fault`] for sites where a torn
    /// outcome has no distinct meaning: torn degrades to an error.
    fn chaos_gate(&self, site: InjectionSite, parent: TraceContext) -> Result<(), PlatformError> {
        match self.chaos_fault(site, parent)? {
            None => Ok(()),
            Some(_) => Err(PlatformError::FaultInjected {
                site: site.as_str(),
                kind: "torn",
            }),
        }
    }

    fn record<T>(
        &self,
        class: &str,
        function: &str,
        started: SimTime,
        out: &Result<T, PlatformError>,
    ) {
        let now = self.now();
        let (latency, ok) = match out {
            Ok(_) => (now - started, true),
            Err(_) => (SimDuration::ZERO, false),
        };
        // One stripe-buffer acquisition covers the class and function
        // series; samples fold into the windows on tick (or lazily on
        // read), keeping the hot path off the hub mutex.
        self.metrics
            .record_invocation(class, function, now, latency, ok);
    }

    /// Labels a traced call with the `route` span: the runtime instance
    /// the class's [`ObjectRouter`] picks on the instance ring. Placement
    /// is the node hop's; untraced, this takes no lock and walks no ring.
    fn emit_route(&self, class: &str, id: ObjectId, parent: TraceContext) {
        if !self.telemetry.is_enabled() {
            return;
        }
        let now = self.now();
        let runtimes = self.runtimes.read();
        let Some(rt) = runtimes.get(class) else {
            return;
        };
        let Some(route) = rt.router.route(id, &self.routing, &rt.instances) else {
            return;
        };
        let span = self.telemetry.begin_child(parent, "route", now);
        // A round-robin pick never computed the owner; it reads as
        // remote state access.
        let local = route.kind == crate::router::RouteKind::Local;
        self.telemetry
            .attr(span, "kind", if local { "local" } else { "remote" });
        self.telemetry.attr(span, "instance", route.instance);
        if let crate::router::RouteKind::Remote { owner } = route.kind {
            self.telemetry.attr(span, "owner", owner);
        }
        self.telemetry.end(span, self.now());
    }

    /// Builds the self-contained task for one attempt, reading state
    /// and the directory entry from the (already locked) shard.
    #[allow(clippy::too_many_arguments)]
    fn build_task(
        &self,
        sh: &mut Shard,
        id: ObjectId,
        class: &str,
        plan: &ClassPlan,
        dispatch: &DispatchPlan,
        args: Vec<Value>,
        parent: TraceContext,
    ) -> Result<InvocationTask, PlatformError> {
        let key = object_key(sh, class, id);
        let state_in = self.load_state(sh, &key, parent)?;
        let revision = sh.objects.get(&id).map_or(0, |e| e.revision);
        let file_urls = self.presign_traced(parent, class, id, &plan.file_keys)?;
        let task_id = self.next_task.fetch_add(1, Ordering::Relaxed);
        Ok(InvocationTask {
            task_id,
            object: id,
            impl_class: dispatch.impl_class.to_string(),
            function: dispatch.function.to_string(),
            image: dispatch.image.to_string(),
            state_in,
            state_revision: revision,
            args,
            file_urls,
            trace: self.telemetry.is_enabled().then_some(parent),
            // The caller stamps the real key; 0 marks "not yet assigned".
            idempotency_key: 0,
        })
    }

    /// The traced state read that opens every execution — a direct
    /// attempt, a fused chain, a batch group's first touch of an object:
    /// the `state.load` span under `parent`, the `state.load` fault
    /// gate, the tiered load. An object with no record yet reads as the
    /// empty object.
    fn load_state(
        &self,
        sh: &mut Shard,
        key: &Arc<str>,
        parent: TraceContext,
    ) -> Result<Snapshot, PlatformError> {
        let span = if self.telemetry.is_enabled() {
            let s = self.telemetry.begin_child(parent, "state.load", self.now());
            self.telemetry.attr(s, "key", &**key);
            s
        } else {
            TraceContext::NONE
        };
        let loaded = self
            .chaos_gate(InjectionSite::StateLoad, span)
            .map(|()| sh.state.load_traced(self.now(), key, &self.telemetry, span));
        if let Ok(loaded) = &loaded {
            self.telemetry.attr(span, "hit", loaded.is_some());
        }
        self.end_span(span, &loaded);
        Ok(loaded?.unwrap_or_else(Snapshot::object))
    }

    /// Presigns the file URLs a task on `class`/`id` carries: for every
    /// file-typed key spec (pre-resolved into the class's dispatch
    /// plan) a GET URL under the key name and a PUT URL under
    /// `"<key>:put"`. [`presign_for`](Self::presign_for) never consults
    /// the object directory, so holding the shard lock here is safe.
    fn presign_urls(
        &self,
        class: &str,
        id: ObjectId,
        file_keys: &[String],
    ) -> Result<BTreeMap<String, String>, PlatformError> {
        let mut file_urls = BTreeMap::new();
        for fk in file_keys {
            file_urls.insert(fk.clone(), self.presign_for(class, id, fk, Method::Get)?);
            file_urls.insert(
                format!("{fk}:put"),
                self.presign_for(class, id, fk, Method::Put)?,
            );
        }
        Ok(file_urls)
    }

    /// [`presign_urls`](Self::presign_urls) as a task build does it:
    /// under a `presign` span and behind the `storage.presign` fault
    /// gate. A class without file keys presigns nothing and leaves no
    /// span.
    fn presign_traced(
        &self,
        parent: TraceContext,
        class: &str,
        id: ObjectId,
        file_keys: &[String],
    ) -> Result<BTreeMap<String, String>, PlatformError> {
        if file_keys.is_empty() {
            return Ok(BTreeMap::new());
        }
        let span = if self.telemetry.is_enabled() {
            self.telemetry.begin_child(parent, "presign", self.now())
        } else {
            TraceContext::NONE
        };
        let file_urls = self
            .chaos_gate(InjectionSite::StoragePresign, span)
            .and_then(|()| self.presign_urls(class, id, file_keys));
        if let Ok(file_urls) = &file_urls {
            self.telemetry.attr(span, "urls", file_urls.len() as u64);
        }
        self.end_span(span, &file_urls);
        file_urls
    }

    /// One attempt: (re)build the task if none survives from a prior
    /// attempt, cross the offload boundary, execute, and commit.
    #[allow(clippy::too_many_arguments)]
    fn run_attempt(
        &self,
        sh: &mut Shard,
        id: ObjectId,
        class: &str,
        call: &ResolvedCall<'_>,
        args: &[Value],
        parent: TraceContext,
        ikey: u64,
        task: &mut Option<InvocationTask>,
        hop: &NodeHop,
    ) -> Result<TaskResult, PlatformError> {
        // Every attempt executes the one saved task by reference: a
        // re-ship costs nothing, and no attempt-local clone of
        // `state_in` outlives the execution to force a copy at commit.
        let task = match task {
            Some(task) => task,
            empty => {
                let (plan, dispatch) = (call.plan, call.dispatch);
                let mut built =
                    self.build_task(sh, id, class, plan, dispatch, args.to_vec(), parent)?;
                built.idempotency_key = ikey;
                empty.insert(built)
            }
        };
        // Crossing the offload RPC boundary: an error fault loses the
        // task before the engine sees it; a torn fault lets the engine
        // execute but loses the *response*, so nothing is committed.
        let offload_torn = self
            .chaos_fault(InjectionSite::OffloadRpc, parent)?
            .is_some();
        let exec_span = self.begin_execute_span(task, parent);
        let result = match self.chaos_gate(InjectionSite::EngineExecute, exec_span) {
            Err(e) => Err(e),
            Ok(()) if hop.remote => {
                // Function shipping across the node boundary: the
                // executing node materializes its own copy of the
                // object state, serialized on the owner's transport
                // channel — all remote traffic into one owner contends
                // here (the Fig. 3 mechanism). This copy *is* the
                // modelled transport cost, paid per attempt; the
                // owner's handle goes back into the saved task for the
                // commit (or a re-ship). Patches ship back inside the
                // result; `apply_result`'s patch clone is that return
                // copy.
                let (out, _shipped) = {
                    let _transport = hop.owner_state.transport.lock();
                    let copy = Snapshot::from(task.state_in.value().clone());
                    let home = std::mem::replace(&mut task.state_in, copy);
                    let out = call_function(&call.f, task);
                    (out, std::mem::replace(&mut task.state_in, home))
                };
                // `_shipped` is freed here, off the transport.
                out
            }
            Ok(()) => call_function(&call.f, task),
        };
        self.end_span(exec_span, &result);
        let result = result?;
        if offload_torn {
            return Err(PlatformError::FaultInjected {
                site: InjectionSite::OffloadRpc.as_str(),
                kind: "torn",
            });
        }
        self.apply_result(
            sh,
            id,
            class,
            call.plan.persists,
            &result,
            parent,
            ikey,
            Some(&mut task.state_in),
        )?;
        Ok(result)
    }

    /// Opens the `engine.execute` span for `task` as a child of the
    /// context the task carried across the offload boundary.
    fn begin_execute_span(&self, task: &InvocationTask, parent: TraceContext) -> TraceContext {
        if !self.telemetry.is_enabled() {
            return TraceContext::NONE;
        }
        let span = self
            .telemetry
            .begin_child(parent, "engine.execute", self.now());
        self.telemetry.attr(span, "image", task.image.as_str());
        self.telemetry.attr(span, "task_id", task.task_id);
        let cold = self.warmed.lock().insert(task.image.clone());
        self.telemetry.attr(span, "cold_start", cold);
        span
    }

    /// Commits `result` to object `id` under the held shard lock.
    ///
    /// `task_state` is the executed task's own handle on the state it
    /// ran against, if the caller still holds one. It is released once
    /// the invocation can no longer be re-executed with it — after the
    /// fault decision, unless the ack is torn — so the merge below finds
    /// the record unshared and mutates it in place. A torn commit keeps
    /// the handle (the retry re-executes the saved task and must see the
    /// same `state_in`) and pays one copy instead.
    #[allow(clippy::too_many_arguments)]
    fn apply_result(
        &self,
        sh: &mut Shard,
        id: ObjectId,
        class: &str,
        persists: bool,
        result: &TaskResult,
        parent: TraceContext,
        ikey: u64,
        task_state: Option<&mut Snapshot>,
    ) -> Result<(), PlatformError> {
        let now = self.now();
        let enabled = self.telemetry.is_enabled();
        // Exactly-once: a retried task whose earlier attempt already
        // committed (torn ack) must not re-apply its state effects.
        if sh.committed.contains_key(&ikey) {
            if enabled {
                self.telemetry.instant_under(
                    parent,
                    "commit.skipped",
                    vjson!({"idempotency_key": ikey}),
                    now,
                );
            }
            return Ok(());
        }
        let commit_span = if enabled {
            let s = self.telemetry.begin_child(parent, "state.commit", now);
            self.telemetry
                .attr(s, "patched", result.state_patch.is_some());
            self.telemetry
                .attr(s, "files_written", result.files_written.len() as u64);
            s
        } else {
            TraceContext::NONE
        };
        // An error fault rejects the commit before any effect lands; a
        // torn fault applies the commit but loses the acknowledgement,
        // so the caller sees a failure for work that *did* commit — the
        // idempotency guard above is what makes the retry safe.
        let torn = match self.chaos_fault(InjectionSite::StateCommit, commit_span) {
            Ok(kind) => kind.is_some(),
            Err(e) => {
                if enabled {
                    self.telemetry.attr(commit_span, "error", e.to_string());
                    self.telemetry.end(commit_span, self.now());
                }
                return Err(e);
            }
        };
        if let Some(patch) = &result.state_patch {
            let key = object_key(sh, class, id);
            if let (false, Some(held)) = (torn, task_state) {
                *held = Snapshot::default();
            }
            let sink = self.telemetry.clone();
            // The load re-warms a cold record (and is the commit's
            // `kv.get`); `modify` takes its handle, so what is left are
            // handles the platform does not own — an off-lock dataflow
            // task, a captured `state_in`, the flushed durable version —
            // and it copies for those alone.
            let held = sh
                .state
                .load_traced(now, &key, &sink, commit_span)
                .unwrap_or_else(Snapshot::object);
            let state = sh
                .state
                .modify(&key, held, |state| merge_patch(state, patch));
            sh.state
                .store_traced(now, &key, state, persists, &sink, commit_span);
            if let Some(entry) = sh.objects.get_mut(&id) {
                entry.revision += 1;
            }
        }
        if !result.files_written.is_empty() {
            if let Some(entry) = sh.objects.get_mut(&id) {
                record_files(entry, id, &result.files_written);
                entry.revision += 1;
            }
        }
        if torn {
            // Only a torn ack is ever looked up again: by the retry's
            // double-commit guard and by the final-attempt recovery.
            sh.committed.insert(ikey, result.clone());
        }
        self.metrics.record_commit();
        if enabled {
            if torn {
                self.telemetry.attr(commit_span, "torn", true);
            }
            self.telemetry.end(commit_span, self.now());
        }
        if torn {
            return Err(PlatformError::FaultInjected {
                site: InjectionSite::StateCommit.as_str(),
                kind: "torn",
            });
        }
        Ok(())
    }

    /// Runs one maintenance tick: flushes due write-behind batches and
    /// buffered metric samples, evaluates each class's SLO burn, and
    /// applies requirement-driven scaling per class (§III-B).
    ///
    /// Flushing is per shard — a due batch on shard A is flushed while
    /// invokes on shard B proceed untouched. The optimizer reads the
    /// live [`MID_LOOKBACK`] metric window (non-destructive: the
    /// pre-window design drained a reset-on-read accumulator). With
    /// telemetry on, every class with window activity emits a
    /// `slo.burn` instant carrying its multi-window burn rates.
    ///
    /// Returns the scaling plans that changed anything.
    pub fn tick(&self) -> Vec<(String, ScalePlan)> {
        let now = self.now();
        let sink = self.telemetry.clone();
        for shard in &self.shards {
            shard.lock().state.flush_due_traced(now, &sink);
        }
        self.metrics.flush_samples();
        if sink.is_enabled() {
            for status in self.slo_report() {
                if status.active {
                    sink.instant(
                        "slo.burn",
                        vjson!({
                            "class": (status.class.as_str()),
                            "burn_fast": (status.burn_fast),
                            "burn_slow": (status.burn_slow),
                            "status": (status.status),
                        }),
                        now,
                    );
                }
            }
        }
        let mut plans = Vec::new();
        let classes: Vec<String> = self.runtimes.read().keys().cloned().collect();
        for class in classes {
            let Some(nfr) = self
                .registry
                .read()
                .require_class(&class)
                .ok()
                .map(|resolved| resolved.nfr.clone())
            else {
                continue;
            };
            // The embedded plane has no replica occupancy signal; use a
            // neutral high utilization so declared-QoS rules can fire.
            let Some(metrics) = self.metrics.observe(&class, now, MID_LOOKBACK, 0.9) else {
                continue;
            };
            let mut runtimes = self.runtimes.write();
            let Some(rt) = runtimes.get_mut(&class) else {
                continue;
            };
            let current = rt.instances.len() as u32;
            let plan = optimizer::recommend(&nfr, &metrics, current, &self.optimizer_cfg);
            let target = plan.target_replicas.clamp(
                rt.spec.config.min_replicas.max(1),
                rt.spec.config.max_replicas,
            );
            if sink.is_enabled() {
                sink.instant(
                    "autoscaler.plan",
                    vjson!({
                        "class": (class.as_str()),
                        "current": current,
                        "recommended": (plan.target_replicas),
                        "applied": target,
                        "reasons": (plan.reasons.clone()),
                    }),
                    now,
                );
            }
            if target != current {
                while (rt.instances.len() as u32) < target {
                    rt.instances
                        .push(self.next_instance.fetch_add(1, Ordering::Relaxed));
                }
                rt.instances.truncate(target as usize);
                plans.push((class.clone(), plan));
            }
        }
        plans
    }

    /// The live SLO posture of every deployed class, sorted by class
    /// name: error-budget burn rates over the fast ([`FAST_LOOKBACK`])
    /// and slow ([`SLOW_LOOKBACK`]) windows, the Google-SRE
    /// multi-window classification, and the latency objective check.
    /// Classes with no window activity report as idle (`active` false,
    /// burn zero).
    pub fn slo_report(&self) -> Vec<SloStatus> {
        let now = self.now();
        let plans = self.plans.read().clone();
        plans
            .iter()
            .map(|(class, plan)| {
                let fast = self.metrics.class_window(class, now, FAST_LOOKBACK);
                let slow = self.metrics.class_window(class, now, SLOW_LOOKBACK);
                let p99_ms = fast.as_ref().map_or(0.0, |w| w.p99_ms);
                let assessment = plan.slo.assess(
                    fast.as_ref().map_or(0.0, |w| w.error_fraction),
                    slow.as_ref().map_or(0.0, |w| w.error_fraction),
                    p99_ms,
                );
                SloStatus {
                    class: class.clone(),
                    availability: plan.slo.availability,
                    error_budget: plan.slo.error_budget,
                    max_p99_ms: plan.slo.max_p99_ms,
                    window_p99_ms: p99_ms,
                    active: slow.is_some(),
                    burn_fast: assessment.burn_fast,
                    burn_slow: assessment.burn_slow,
                    status: assessment.status.as_str(),
                    latency_ok: assessment.latency_ok,
                }
            })
            .collect()
    }

    /// Flushes all pending writes to the durable tier, across every
    /// shard.
    pub fn flush(&self) -> usize {
        let now = self.now();
        self.shards
            .iter()
            .map(|shard| shard.lock().state.flush_all(now))
            .sum()
    }

    /// Storage-stack counters summed across shards: `(hot-tier puts,
    /// consolidated updates, db batch writes, db single writes)`. An
    /// observability read: the shard locks it takes are not counted.
    pub fn storage_stats(&self) -> (u64, u64, u64, u64) {
        let mut total = (0, 0, 0, 0);
        for shard in &self.shards {
            let (a, b, c, d) = shard.observe(|sh| sh.state.stats());
            total.0 += a;
            total.1 += b;
            total.2 += c;
            total.3 += d;
        }
        total
    }

    /// Direct read of the durable tier (tests/diagnostics).
    pub fn durable_state(&self, id: ObjectId) -> Option<Value> {
        let sh = self.shard(id).lock();
        let entry = sh.objects.get(&id)?;
        sh.state.durable_get(&entry.storage_key)
    }

    /// Simulates an in-memory-tier wipe (instance restart) on every
    /// shard.
    pub fn simulate_memory_loss(&self) {
        for shard in &self.shards {
            shard.lock().state.clear_memory();
        }
    }

    /// Exports all object data as a portable snapshot document — the
    /// §II-C portability claim made concrete: "as long as the cloud
    /// provider supports OaaS, the application can rely on the object
    /// abstraction to [...] comfortably migrate across different cloud
    /// environments."
    ///
    /// The snapshot carries object identities, classes, structured
    /// state, and (when `include_files`) file payloads hex-encoded.
    /// Objects are ordered by id regardless of which shard holds them,
    /// so the export is deterministic. Class definitions and function
    /// implementations are *not* included — they are the application
    /// package, redeployed on the target platform before
    /// [`EmbeddedPlatform::import_snapshot`].
    pub fn export_snapshot(&self, include_files: bool) -> Value {
        let mut collected: Vec<(u64, ObjectEntry, Value)> = Vec::new();
        for shard in &self.shards {
            let mut sh = shard.lock();
            let ids: Vec<ObjectId> = sh.objects.keys().copied().collect();
            for id in ids {
                let entry = sh.objects[&id].clone();
                let state = sh
                    .state
                    .load(&entry.storage_key)
                    .map_or_else(Value::object, Snapshot::into_value);
                collected.push((id.as_u64(), entry, state));
            }
        }
        collected.sort_by_key(|(raw, _, _)| *raw);
        let mut objects = Vec::new();
        for (raw, entry, state) in collected {
            let mut files = Value::object();
            for (name, fref) in &entry.files {
                let mut f = Value::object();
                f.insert("bucket", fref.bucket.as_str());
                f.insert("key", fref.key.as_str());
                if let Some(etag) = &fref.etag {
                    f.insert("etag", etag.as_str());
                }
                if include_files {
                    if let Ok(obj) = self.s3.raw_get(&fref.bucket, &fref.key) {
                        f.insert("content_type", obj.meta.content_type.as_str());
                        f.insert("data_hex", oprc_store::sha::to_hex(&obj.data));
                    }
                }
                files.insert(name.clone(), f);
            }
            let mut doc = Value::object();
            doc.insert("id", raw);
            doc.insert("class", entry.class.as_str());
            doc.insert("revision", entry.revision);
            doc.insert("state", state);
            doc.insert("files", files);
            objects.push(doc);
        }
        let mut snapshot = Value::object();
        snapshot.insert("format", "oprc-snapshot/1");
        snapshot.insert("objects", Value::Array(objects));
        snapshot
    }

    /// Imports a snapshot produced by
    /// [`EmbeddedPlatform::export_snapshot`], preserving object ids.
    ///
    /// The snapshot's classes must already be deployed here (deploy the
    /// application package first). Returns the number of objects
    /// imported.
    ///
    /// # Errors
    ///
    /// - [`PlatformError::Core`] for malformed snapshots or classes not
    ///   deployed on this platform;
    /// - [`PlatformError::Store`] when file payload restoration fails.
    pub fn import_snapshot(&self, snapshot: &Value) -> Result<usize, PlatformError> {
        if snapshot["format"].as_str() != Some("oprc-snapshot/1") {
            return Err(PlatformError::Core(oprc_core::CoreError::Parse(
                "not an oprc-snapshot/1 document".into(),
            )));
        }
        let objects = snapshot["objects"].as_array().ok_or_else(|| {
            PlatformError::Core(oprc_core::CoreError::Parse(
                "snapshot has no 'objects' array".into(),
            ))
        })?;
        let now = self.now();
        let mut imported = 0;
        for doc in objects {
            let raw = doc["id"].as_u64().ok_or_else(|| {
                PlatformError::Core(oprc_core::CoreError::Parse(
                    "snapshot object without id".into(),
                ))
            })?;
            let class = doc["class"]
                .as_str()
                .ok_or_else(|| {
                    PlatformError::Core(oprc_core::CoreError::Parse(
                        "snapshot object without class".into(),
                    ))
                })?
                .to_string();
            self.registry.read().require_class(&class)?;
            let id = ObjectId(raw);
            let persist = self.plans.read().get(&class).is_none_or(|p| p.persists);
            let mut files = BTreeMap::new();
            if let Some(fmap) = doc["files"].as_object() {
                for (name, f) in fmap {
                    let bucket = f["bucket"].as_str().unwrap_or_default().to_string();
                    let key = f["key"].as_str().unwrap_or_default().to_string();
                    let etag = f["etag"].as_str().map(str::to_string);
                    if let Some(hex) = f["data_hex"].as_str() {
                        let data = oprc_store::sha::from_hex(hex).ok_or_else(|| {
                            PlatformError::Core(oprc_core::CoreError::Parse(format!(
                                "bad hex payload for file '{name}'"
                            )))
                        })?;
                        self.s3.ensure_bucket(&bucket)?;
                        self.s3.raw_put(
                            &bucket,
                            &key,
                            bytes::Bytes::from(data),
                            f["content_type"]
                                .as_str()
                                .unwrap_or("application/octet-stream"),
                        )?;
                    }
                    files.insert(name.clone(), FileRef { bucket, key, etag });
                }
            }
            // State at rest is normalized, whichever way it arrived.
            let mut state = doc["state"].clone();
            merge::normalize(&mut state);
            let mut sh = self.shard(id).lock();
            sh.state
                .store(now, &storage_key(&class, id), state, persist);
            sh.objects.insert(
                id,
                ObjectEntry {
                    storage_key: Arc::from(storage_key(&class, id).as_str()),
                    class,
                    files,
                    revision: doc["revision"].as_u64().unwrap_or(0),
                },
            );
            drop(sh);
            self.next_object.fetch_max(raw + 1, Ordering::Relaxed);
            imported += 1;
        }
        Ok(imported)
    }
}

/// The merge half of every commit: infallible and free of user code,
/// so it may run while [`StateLayer::modify`] has a record's slots
/// released.
fn merge_patch(state: &mut Value, patch: &Value) {
    merge::deep_merge(state, patch.clone());
    merge::normalize(state);
}

/// Runs user code: `f` on `task`, a panic in it failing the call with the
/// retryable [`TaskError::Runtime`] (`"panicked: …"`) instead of
/// unwinding through a held shard lock or a task holding a shipped copy.
fn call_function(f: &FunctionImpl, task: &InvocationTask) -> Result<TaskResult, PlatformError> {
    match panic::catch_unwind(AssertUnwindSafe(|| f(task))) {
        Ok(result) => result.map_err(PlatformError::from),
        Err(payload) => Err(PlatformError::from(TaskError::Runtime(format!(
            "panicked: {}",
            panic_message(&*payload)
        )))),
    }
}

/// The message a panic carried, when it carried one.
fn panic_message(payload: &(dyn Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("a non-string payload")
}

/// Whether an invocation error is worth retrying: injected faults and
/// runtime task failures are transient; definition, access, and
/// application errors would fail identically on every attempt.
fn is_retryable(e: &PlatformError) -> bool {
    matches!(
        e,
        PlatformError::FaultInjected { .. } | PlatformError::Task(TaskError::Runtime(_))
    )
}

fn storage_key(class: &str, id: ObjectId) -> String {
    format!("{class}/{id}")
}

/// The storage key of object `id`: the one its directory entry interned
/// at creation, shared instead of re-formatted per invoke.
fn object_key(sh: &Shard, class: &str, id: ObjectId) -> Arc<str> {
    match sh.objects.get(&id) {
        Some(entry) => Arc::clone(&entry.storage_key),
        None => Arc::from(storage_key(class, id).as_str()),
    }
}

fn bucket_name(class: &str) -> String {
    format!("oaas-{}", class.to_ascii_lowercase())
}

/// Records the files a commit wrote on the object's directory entry:
/// one [`FileRef`] per `(file key, etag)`, in the class's bucket.
fn record_files<'a>(
    entry: &mut ObjectEntry,
    id: ObjectId,
    files_written: impl IntoIterator<Item = (&'a String, &'a String)>,
) {
    let bucket = bucket_name(&entry.class);
    for (file_key, etag) in files_written {
        entry.files.insert(
            file_key.clone(),
            FileRef {
                bucket: bucket.clone(),
                key: format!("{id}/{file_key}"),
                etag: Some(etag.clone()),
            },
        );
    }
}

/// Parses `obj-<n>/<key>` back into an object id and file key.
fn parse_object_key(key: &str) -> Option<(ObjectId, &str)> {
    let (obj, file_key) = key.split_once('/')?;
    let n = obj.strip_prefix("obj-")?.parse().ok()?;
    Some((ObjectId(n), file_key))
}

/// Extracts `(bucket, key)` from an `s3://bucket/key?query` URL.
fn parse_url_path(url: &str) -> Option<(String, String)> {
    let rest = url.strip_prefix("s3://")?;
    let path = rest.split_once('?').map_or(rest, |(p, _)| p);
    let (bucket, key) = path.split_once('/')?;
    Some((bucket.to_string(), key.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_value::vjson;

    fn counter_platform() -> EmbeddedPlatform {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/counter", |task| {
            let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
        });
        p.deploy_yaml(
            "
classes:
  - name: Counter
    keySpecs: [count]
    functions:
      - name: incr
        image: img/counter
",
        )
        .unwrap();
        p
    }

    #[test]
    fn deploy_gate_rejects_error_packages_before_runtime_creation() {
        let p = EmbeddedPlatform::new();
        // The undefined step function is an OPRC001 error.
        let bad = "
classes:
  - name: Image
    functions:
      - name: resize
        image: img/resize
    dataflows:
      - name: thumb
        steps:
          - id: s
            function: watermark
            inputs: [input]
";
        let err = p.deploy_yaml(bad).unwrap_err();
        let PlatformError::LintRejected(diags) = err else {
            panic!("expected LintRejected, got {err}");
        };
        assert!(diags.iter().any(|d| d.code == "OPRC001"));
        // No class runtime was created and the class is unknown.
        assert!(p.create_object("Image", Value::Null).is_err());
    }

    #[test]
    fn deploy_gate_logs_warnings_and_proceeds() {
        let p = EmbeddedPlatform::new();
        // Dead step `extra` → OPRC010 warning; deploy still succeeds.
        p.deploy_yaml(
            "
classes:
  - name: C
    functions:
      - name: f
        image: i/f
    dataflows:
      - name: flow
        output: a
        steps:
          - id: a
            function: f
            inputs: [input]
          - id: extra
            function: f
            inputs: [input]
",
        )
        .unwrap();
        let warnings = p.metrics().lint_warnings();
        assert!(
            warnings.iter().any(|w| w.contains("OPRC010")),
            "{warnings:?}"
        );
    }

    #[test]
    fn permissive_lint_config_disables_the_gate() {
        let mut p = EmbeddedPlatform::new();
        p.set_lint_config(LintConfig::permissive());
        // OPRC001 would normally reject; permissive caps it to warning.
        p.deploy_yaml(
            "
classes:
  - name: Image
    functions:
      - name: resize
        image: img/resize
    dataflows:
      - name: thumb
        steps:
          - id: s
            function: watermark
            inputs: [input]
",
        )
        .unwrap();
        // The finding is still visible, capped to a warning.
        assert!(p
            .metrics()
            .lint_warnings()
            .iter()
            .any(|w| w.contains("OPRC001")));
    }

    #[test]
    fn create_invoke_get_state() {
        let p = counter_platform();
        let id = p.create_object("Counter", vjson!({"count": 10})).unwrap();
        let out = p.invoke(id, "incr", vec![]).unwrap();
        assert_eq!(out.output.as_i64(), Some(11));
        assert_eq!(p.get_state(id).unwrap()["count"].as_i64(), Some(11));
        assert_eq!(p.object_class(id).unwrap(), "Counter");
    }

    #[test]
    fn unknown_targets_error() {
        let p = counter_platform();
        assert!(matches!(
            p.create_object("Ghost", Value::Null),
            Err(PlatformError::Core(_))
        ));
        let id = p.create_object("Counter", vjson!({})).unwrap();
        assert!(matches!(
            p.invoke(id, "nope", vec![]),
            Err(PlatformError::Core(
                oprc_core::CoreError::UnknownFunction { .. }
            ))
        ));
        assert!(matches!(
            p.invoke(ObjectId(999), "incr", vec![]),
            Err(PlatformError::UnknownObject(999))
        ));
    }

    #[test]
    fn unregistered_image_fails_cleanly() {
        let p = EmbeddedPlatform::new();
        p.deploy_yaml(
            "classes:\n  - name: C\n    functions:\n      - name: f\n        image: img/none\n",
        )
        .unwrap();
        let id = p.create_object("C", vjson!({})).unwrap();
        assert!(matches!(
            p.invoke(id, "f", vec![]),
            Err(PlatformError::UnknownImage(_))
        ));
    }

    #[test]
    fn internal_functions_not_externally_callable() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/i", |_| Ok(TaskResult::output(1)));
        p.deploy_yaml(
            "
classes:
  - name: C
    functions:
      - name: hidden
        image: img/i
        access: internal
",
        )
        .unwrap();
        let id = p.create_object("C", vjson!({})).unwrap();
        assert!(matches!(
            p.invoke(id, "hidden", vec![]),
            Err(PlatformError::AccessDenied { .. })
        ));
    }

    #[test]
    fn state_survives_memory_loss_when_persistent() {
        let p = counter_platform();
        let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
        for _ in 0..5 {
            p.invoke(id, "incr", vec![]).unwrap();
        }
        p.flush();
        p.simulate_memory_loss();
        assert_eq!(p.get_state(id).unwrap()["count"].as_i64(), Some(5));
    }

    #[test]
    fn write_behind_consolidates_hot_objects() {
        let p = counter_platform();
        let id = p.create_object("Counter", vjson!({"count": 0})).unwrap();
        for _ in 0..50 {
            p.invoke(id, "incr", vec![]).unwrap();
        }
        p.flush();
        let (_, consolidated, batch_writes, single_writes) = p.storage_stats();
        assert!(consolidated >= 40, "consolidated {consolidated}");
        assert!(batch_writes <= 10, "batch writes {batch_writes}");
        assert_eq!(single_writes, 0);
        assert_eq!(p.durable_state(id).unwrap()["count"].as_i64(), Some(50));
    }

    #[test]
    fn dataflow_runs_stages_and_returns_output() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/double", |t| {
            Ok(TaskResult::output(t.args[0].as_i64().unwrap_or(0) * 2))
        });
        p.register_function("img/add", |t| {
            let a = t.args[0].as_i64().unwrap_or(0);
            let b = t.args[1].as_i64().unwrap_or(0);
            Ok(TaskResult::output(a + b))
        });
        p.deploy_yaml(
            r#"
classes:
  - name: Math
    functions:
      - name: double
        image: img/double
      - name: add
        image: img/add
    dataflows:
      - name: quad_plus
        steps:
          - id: d1
            function: double
            inputs: [input]
          - id: d2
            function: double
            inputs: [input]
          - id: sum
            function: add
            inputs: ["step:d1", "step:d2"]
"#,
        )
        .unwrap();
        let id = p.create_object("Math", vjson!({})).unwrap();
        let out = p.invoke(id, "quad_plus", vec![vjson!(5)]).unwrap();
        assert_eq!(out.output.as_i64(), Some(20)); // 5*2 + 5*2
    }

    #[test]
    fn dataflow_state_effects_apply_in_step_order() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/tag", |t| {
            let tag = t.args[0].as_str().unwrap_or("?").to_string();
            Ok(TaskResult::output(tag.as_str()).with_patch(vjson!({"last": tag})))
        });
        p.deploy_yaml(
            r#"
classes:
  - name: T
    keySpecs: [last]
    functions:
      - name: tag
        image: img/tag
    dataflows:
      - name: both
        steps:
          - id: a
            function: tag
            inputs: ["first"]
          - id: b
            function: tag
            inputs: ["second"]
"#,
        )
        .unwrap();
        let id = p.create_object("T", vjson!({})).unwrap();
        p.invoke(id, "both", vec![]).unwrap();
        // Parallel stage, but effects applied in step order: "b" last.
        assert_eq!(p.get_state(id).unwrap()["last"].as_str(), Some("second"));
    }

    #[test]
    fn presigned_file_round_trip() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/noop", |_| Ok(TaskResult::output(Value::Null)));
        p.deploy_yaml(
            "
classes:
  - name: Image
    keySpecs:
      - name: image
        type: file
    functions:
      - name: noop
        image: img/noop
",
        )
        .unwrap();
        let id = p.create_object("Image", vjson!({})).unwrap();
        let put = p.upload_url(id, "image").unwrap();
        let meta = p
            .upload(&put, Bytes::from_static(b"pixels"), "image/png")
            .unwrap();
        assert_eq!(meta.size, 6);
        let fref = p.file_ref(id, "image").unwrap();
        assert_eq!(fref.etag.as_deref(), Some(meta.etag.as_str()));
        let get = p.download_url(id, "image").unwrap();
        let obj = p.download(&get).unwrap();
        assert_eq!(&obj.data[..], b"pixels");
        // Method confusion rejected: GET url cannot upload.
        assert!(p
            .upload(&get, Bytes::from_static(b"x"), "image/png")
            .is_err());
        assert!(p.download(&put).is_err());
    }

    #[test]
    fn functions_receive_file_urls() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/check", |t| {
            assert!(t.file_urls.contains_key("image"));
            assert!(t.file_urls.contains_key("image:put"));
            Ok(TaskResult::output(t.file_urls.len() as i64))
        });
        p.deploy_yaml(
            "
classes:
  - name: Image
    keySpecs:
      - name: image
        type: file
    functions:
      - name: check
        image: img/check
",
        )
        .unwrap();
        let id = p.create_object("Image", vjson!({})).unwrap();
        let out = p.invoke(id, "check", vec![]).unwrap();
        assert_eq!(out.output.as_i64(), Some(2));
    }

    #[test]
    fn inherited_method_dispatch_works_end_to_end() {
        let p = counter_platform();
        p.deploy_yaml(
            "
name: ext
classes:
  - name: DoubleCounter
    parent: Counter
    functions:
      - name: incr2
        image: img/counter2
",
        )
        .unwrap_err(); // parent in another package not visible at resolve
                       // Same-package inheritance instead:
        let mut p2 = EmbeddedPlatform::new();
        p2.register_function("img/counter", |task| {
            let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
        });
        p2.deploy_yaml(
            "
classes:
  - name: Counter
    keySpecs: [count]
    functions:
      - name: incr
        image: img/counter
  - name: NamedCounter
    parent: Counter
",
        )
        .unwrap();
        let id = p2.create_object("NamedCounter", vjson!({})).unwrap();
        let out = p2.invoke(id, "incr", vec![]).unwrap();
        assert_eq!(out.output.as_i64(), Some(1));
    }

    #[test]
    fn tick_scales_up_on_declared_throughput_deficit() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/f", |_| Ok(TaskResult::output(1)));
        p.deploy_yaml(
            "
classes:
  - name: Busy
    qos:
      throughput: 1000000
    functions:
      - name: f
        image: img/f
",
        )
        .unwrap();
        let id = p.create_object("Busy", vjson!({})).unwrap();
        for _ in 0..50 {
            p.invoke(id, "f", vec![]).unwrap();
        }
        let before = p.instance_count("Busy").unwrap();
        let plans = p.tick();
        assert!(!plans.is_empty(), "deficit should trigger a plan");
        assert!(p.instance_count("Busy").unwrap() > before);
    }

    #[test]
    fn cross_object_dataflow_steps() {
        use oprc_core::dataflow::{DataRef, DataflowSpec as Df, StepSpec};
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/read-n", |t| {
            Ok(TaskResult::output(t.state_in["n"].clone()))
        });
        p.register_function("img/store-sum", |t| {
            let a = t.args.first().and_then(Value::as_i64).unwrap_or(0);
            let b = t.args.get(1).and_then(Value::as_i64).unwrap_or(0);
            Ok(TaskResult::output(a + b).with_patch(vjson!({"sum": (a + b)})))
        });
        p.register_function("img/identity", |t| {
            Ok(TaskResult::output(
                t.args.first().cloned().unwrap_or_default(),
            ))
        });
        p.deploy_yaml(
            "classes:\n  - name: Cell\n    keySpecs: [n]\n    functions:\n      - name: read\n        image: img/read-n\n",
        )
        .unwrap();
        // Adder::addCells reads two *other* objects (Cells, whose ids
        // arrive in the dataflow input) and stores their sum on itself.
        let adder = oprc_core::ClassDef::new("Adder")
            .function(oprc_core::FunctionDef::new("storeSum", "img/store-sum"))
            .function(oprc_core::FunctionDef::new("identity", "img/identity"))
            .dataflow(
                Df::new("addCells")
                    .step(StepSpec::new("ids", "identity").from_input())
                    .step(StepSpec::new("a", "read").on_target(DataRef::Step {
                        step: "ids".into(),
                        pointer: Some("/left".into()),
                    }))
                    .step(StepSpec::new("b", "read").on_target(DataRef::Step {
                        step: "ids".into(),
                        pointer: Some("/right".into()),
                    }))
                    .step(
                        StepSpec::new("store", "storeSum")
                            .from_step("a")
                            .from_step("b"),
                    )
                    .output_from("store"),
            );
        p.deploy_package(oprc_core::OPackage::new("adder").class(adder))
            .unwrap();

        let left = p.create_object("Cell", vjson!({"n": 19})).unwrap();
        let right = p.create_object("Cell", vjson!({"n": 23})).unwrap();
        let adder_obj = p.create_object("Adder", vjson!({})).unwrap();
        let out = p
            .invoke(
                adder_obj,
                "addCells",
                vec![vjson!({
                    "left": (left.as_u64()),
                    "right": (right.as_u64()),
                })],
            )
            .unwrap();
        assert_eq!(out.output.as_i64(), Some(42));
        // The state effect landed on the *adder* object; cells untouched.
        assert_eq!(p.get_state(adder_obj).unwrap()["sum"].as_i64(), Some(42));
        assert_eq!(p.get_state(left).unwrap()["n"].as_i64(), Some(19));
    }

    #[test]
    fn cross_object_target_must_be_object_id() {
        use oprc_core::dataflow::{DataRef, DataflowSpec as Df, StepSpec};
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/noop2", |_| Ok(TaskResult::output(1)));
        let cls =
            oprc_core::ClassDef::new("T")
                .function(oprc_core::FunctionDef::new("noop", "img/noop2"))
                .dataflow(Df::new("bad").step(
                    StepSpec::new("s", "noop").on_target(DataRef::Const(vjson!("not-an-id"))),
                ));
        p.deploy_package(oprc_core::OPackage::new("t").class(cls))
            .unwrap();
        let id = p.create_object("T", vjson!({})).unwrap();
        let err = p.invoke(id, "bad", vec![]).unwrap_err();
        assert!(err.to_string().contains("not an object id"), "{err}");
        // Dangling object id also fails cleanly.
        let mut p2 = EmbeddedPlatform::new();
        p2.register_function("img/noop2", |_| Ok(TaskResult::output(1)));
        let cls = oprc_core::ClassDef::new("T")
            .function(oprc_core::FunctionDef::new("noop", "img/noop2"))
            .dataflow(
                Df::new("bad")
                    .step(StepSpec::new("s", "noop").on_target(DataRef::Const(vjson!(999)))),
            );
        p2.deploy_package(oprc_core::OPackage::new("t").class(cls))
            .unwrap();
        let id = p2.create_object("T", vjson!({})).unwrap();
        assert!(matches!(
            p2.invoke(id, "bad", vec![]),
            Err(PlatformError::UnknownObject(999))
        ));
    }

    #[test]
    fn internal_keys_hidden_from_public_state() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/set", |_| {
            Ok(TaskResult::output(Value::Null)
                .with_patch(vjson!({"balance": 100, "audit_log": ["created"]})))
        });
        p.deploy_yaml(
            "
classes:
  - name: Account
    keySpecs:
      - balance
      - name: audit_log
        access: internal
    functions:
      - name: set
        image: img/set
",
        )
        .unwrap();
        let id = p.create_object("Account", vjson!({})).unwrap();
        p.invoke(id, "set", vec![]).unwrap();
        // Full view (functions, operators) sees everything.
        let full = p.get_state(id).unwrap();
        assert!(full.get("audit_log").is_some());
        // Public view strips internal keys.
        let public = p.get_state_public(id).unwrap();
        assert_eq!(public, vjson!({"balance": 100}));
    }

    #[test]
    fn platform_is_send_and_sync() {
        fn assert_sync<T: Send + Sync>() {}
        assert_sync::<EmbeddedPlatform>();
    }

    #[test]
    fn shard_stats_report_occupancy() {
        let p = counter_platform();
        for _ in 0..32 {
            p.create_object("Counter", vjson!({})).unwrap();
        }
        let stats = p.shard_stats();
        assert_eq!(stats.len(), SHARD_COUNT);
        let total: usize = stats.iter().map(|s| s.objects).sum();
        assert_eq!(total, 32);
        assert!(stats.iter().filter(|s| s.objects > 0).count() > 1);
    }

    #[test]
    fn concurrent_invokes_on_distinct_objects() {
        let p = counter_platform();
        let ids: Vec<ObjectId> = (0..8)
            .map(|_| p.create_object("Counter", vjson!({"count": 0})).unwrap())
            .collect();
        std::thread::scope(|s| {
            for &id in &ids {
                let p = &p;
                s.spawn(move || {
                    for _ in 0..25 {
                        p.invoke(id, "incr", vec![]).unwrap();
                    }
                });
            }
        });
        for id in ids {
            assert_eq!(p.get_state(id).unwrap()["count"].as_i64(), Some(25));
        }
    }
}
