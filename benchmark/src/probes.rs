//! The traced pass and the per-layer probes.
//!
//! Tracing inside the program is a later change (ROADMAP item 1). Until
//! then the benchmark records its own spans: around the real call, and
//! around a *shadow* of it — the same op replayed by hand through each
//! layer's public function, on layer instances the harness owns and has
//! loaded with the workload's own keys, states and patches.

use std::collections::BTreeMap;
use std::time::Instant;

use oprc_core::flow_ir::{FlowIr, NodeBinding, PassConfig};
use oprc_core::invocation::InvocationTask;
use oprc_core::object::ObjectId;
use oprc_platform::admission::{AdmissionConfig, AdmissionControl};
use oprc_platform::embedded::{EmbeddedPlatform, StateLayer};
use oprc_platform::monitoring::MetricsHub;
use oprc_platform::router::ObjectRouter;
use oprc_simcore::{SimDuration, SimTime};
use oprc_store::{Dht, DhtConfig, DhtNodeId, PartitionMap};
use oprc_telemetry::{ClockMode, TelemetryConfig, TelemetryLevel};
use oprc_value::{merge, Snapshot, Value};

use crate::ops::{Call, Op};
use crate::spans::{self, SpanLog};
use crate::stats;
use crate::workloads::{self, Instance, Kind, PIPE8_STEPS, TENANTS};

/// The layer calls a shadow replay records: span name, and the metric
/// that reports the median of one call.
pub const LAYERS: [(&str, &str); 9] = [
    ("admission.admit", "admission.admit_ns"),
    ("router.route", "router.route_ns"),
    ("partition.owner_lookup", "partition.owner_lookup_ns"),
    ("state.load", "state.load_ns"),
    ("fn.execute", "fn.execute_ns"),
    ("value.snapshot_clone", "value.snapshot_clone_ns"),
    ("value.merge_patch", "value.merge_patch_ns"),
    ("state.store", "state.store_ns"),
    ("metrics.record", "metrics.record_ns"),
];

/// Samples the metrics hub buffers before the harness folds them, as
/// the platform's tick does every 4096 calls.
const RECORDS_PER_FLUSH: u64 = 4096;

/// Harness-owned instances of every layer an invoke crosses.
pub struct Shadow {
    kind: Kind,
    class: &'static str,
    persist: bool,
    admission: AdmissionControl,
    router: ObjectRouter,
    ring: Dht,
    instances: Vec<u64>,
    map: PartitionMap,
    nodes: Vec<u64>,
    next_node: usize,
    state: StateLayer,
    keys: Vec<String>,
    hub: MetricsHub,
    records: u64,
    started: Instant,
    /// `(ns, records)` of every write-behind flush.
    pub flushes: Vec<(u64, u64)>,
}

impl Shadow {
    /// Builds the layers and copies every object's present state in,
    /// under the key the platform stores it at.
    pub fn of(inst: &Instance) -> Self {
        let kind = inst.kind;
        let class = kind.class();
        let spec = inst
            .platform
            .runtime_spec(class)
            .expect("class is deployed");
        let mut ring = Dht::new(DhtConfig::default());
        for m in 0..4 {
            ring.join(DhtNodeId(m));
        }
        let nodes: Vec<u64> = (0..inst.platform.node_count() as u64).collect();
        let map = if nodes.len() == 1 {
            PartitionMap::single(0)
        } else {
            PartitionMap::assign(nodes.len() as u64 - 1, &nodes)
        };
        let started = Instant::now();
        let mut state = StateLayer::with_defaults();
        let keys: Vec<String> = inst.ids.iter().map(|id| format!("{class}/{id}")).collect();
        for (key, &id) in keys.iter().zip(&inst.ids) {
            let value = inst.platform.get_state(id).expect("object has state");
            state.store(SimTime::ZERO, key, value, spec.config.persistent);
        }
        state.flush_all(SimTime::ZERO);
        Shadow {
            kind,
            class,
            persist: spec.config.persistent,
            admission: AdmissionControl::new(AdmissionConfig::new(1e9, 1e9)),
            router: ObjectRouter::new(spec.config.locality_routing),
            ring,
            instances: (0..inst.platform.instance_count(class).unwrap_or(1).max(1) as u64)
                .collect(),
            map,
            nodes,
            next_node: 0,
            state,
            keys,
            hub: MetricsHub::new(),
            records: 0,
            started,
            flushes: Vec::new(),
        }
    }

    fn now(&self) -> SimTime {
        SimTime::from_nanos(self.started.elapsed().as_nanos() as u64)
    }

    fn task(
        &self,
        id: ObjectId,
        call: Call,
        state_in: Snapshot,
        args: Vec<Value>,
    ) -> InvocationTask {
        InvocationTask {
            task_id: 0,
            object: id,
            impl_class: self.class.to_string(),
            function: call.function().to_string(),
            image: String::new(),
            state_in,
            state_revision: 0,
            args,
            file_urls: BTreeMap::new(),
            trace: None,
            idempotency_key: 0,
        }
    }

    fn route(&self, log: &mut SpanLog, parent: u32, id: ObjectId) {
        log.span(parent, "router.route", || {
            self.router.route(id, &self.ring, &self.instances)
        });
    }

    fn load(&mut self, log: &mut SpanLog, parent: u32, object: usize) -> Snapshot {
        let (key, state) = (&self.keys[object], &mut self.state);
        let (loaded, _) = log.span(parent, "state.load", || state.load(key));
        loaded.unwrap_or_else(Snapshot::object)
    }

    /// The copy-on-write boundary of a commit: a handle on `shared`
    /// that owns its value.
    fn private_copy(log: &mut SpanLog, parent: u32, shared: &Snapshot) -> Snapshot {
        log.span(parent, "value.snapshot_clone", || {
            let mut mine = shared.clone();
            mine.make_mut();
            mine
        })
        .0
    }

    fn store(&mut self, log: &mut SpanLog, parent: u32, object: usize, snapshot: Snapshot) {
        let now = self.now();
        let (key, persist, state) = (&self.keys[object], self.persist, &mut self.state);
        log.span(parent, "state.store", || {
            state.store(now, key, snapshot, persist);
        });
    }

    fn record(&mut self, log: &mut SpanLog, parent: u32, function: &str) {
        let now = self.now();
        self.records += 1;
        let flush = self.records.is_multiple_of(RECORDS_PER_FLUSH);
        let (hub, class) = (&self.hub, self.class);
        log.span(parent, "metrics.record", || {
            hub.record_invocation(class, function, now, SimDuration::from_micros(10), true);
            if flush {
                hub.flush_samples();
            }
        });
    }

    /// Replays one direct invoke layer by layer under span `parent`.
    fn replay_direct(
        &mut self,
        log: &mut SpanLog,
        parent: u32,
        client: usize,
        id: ObjectId,
        op: Op,
    ) {
        let object = op.object as usize;
        if self.kind == Kind::ReadMostlyZipf {
            let now = self.now();
            log.span(parent, "admission.admit", || {
                self.admission.admit(TENANTS[client], now)
            });
        }
        self.route(log, parent, id);
        let (owner, _) = log.span(parent, "partition.owner_lookup", || {
            self.map.owner_of_object(id.as_u64())
        });
        // Locality off on a multi-node plane: the executing node is the
        // next in turn, and an off-owner execution ships the state.
        let remote = if self.nodes.len() > 1 && !self.router.locality() {
            self.next_node += 1;
            self.nodes[self.next_node % self.nodes.len()] != owner
        } else {
            false
        };
        let mut state_in = self.load(log, parent, object);
        if remote {
            (state_in, _) = log.span(parent, "value.snapshot_clone", || {
                Snapshot::from(state_in.value().clone())
            });
        }
        let task = self.task(id, op.call, state_in, op.call.args());
        let body = workloads::body_of(op.call);
        let (result, _) = log.span(parent, "fn.execute", || body(&task));
        drop(task);
        // The commit of `apply_result`: load again, copy-on-write,
        // merge a copy of the patch, store.
        let result = result.expect("function bodies do not fail");
        if let Some(patch) = &result.state_patch {
            let loaded = self.load(log, parent, object);
            let mut mine = Self::private_copy(log, parent, &loaded);
            drop(loaded);
            log.span(parent, "value.merge_patch", || {
                merge::deep_merge(mine.make_mut(), patch.clone());
            });
            self.store(log, parent, object, mine);
        }
        self.record(log, parent, op.call.function());
    }

    /// Replays `pipe8`: per step a route, a state load and the body;
    /// one record for the flow.
    fn replay_flow(&mut self, log: &mut SpanLog, parent: u32, id: ObjectId, op: Op) {
        let mut lane = 1_i64;
        for step in 0..PIPE8_STEPS {
            self.route(log, parent, id);
            let state_in = self.load(log, parent, op.object as usize);
            let args = if step < 2 {
                vec![Value::from(1_i64)]
            } else {
                vec![Value::from(lane), Value::from(lane)]
            };
            let task = self.task(id, Call::Pipe8, state_in, args);
            let (out, _) = log.span(parent, "fn.execute", || workloads::sum1(&task));
            // Both lanes of a stage give the same value; advance after
            // the second.
            if step % 2 == 1 || step == PIPE8_STEPS - 1 {
                lane = out
                    .expect("sum1 does not fail")
                    .output
                    .as_i64()
                    .unwrap_or(0);
            }
        }
        debug_assert_eq!(lane, workloads::PIPE8_OF_ONE);
        self.record(log, parent, op.call.function());
    }

    /// Replays one `invoke_batch` call: every object loaded and copied
    /// once, every item executed and merged, every object stored once.
    fn replay_batch(&mut self, log: &mut SpanLog, parent: u32, ids: &[ObjectId], ops: &[Op]) {
        let mut running: Vec<(usize, Snapshot)> = Vec::new();
        for op in ops {
            let object = op.object as usize;
            let id = ids[object];
            let slot = match running.iter().position(|(o, _)| *o == object) {
                Some(slot) => slot,
                None => {
                    self.route(log, parent, id);
                    let loaded = self.load(log, parent, object);
                    running.push((object, Self::private_copy(log, parent, &loaded)));
                    running.len() - 1
                }
            };
            let task = self.task(id, op.call, running[slot].1.clone(), Vec::new());
            let (result, _) = log.span(parent, "fn.execute", || workloads::incr(&task));
            drop(task);
            let patch = result
                .expect("incr does not fail")
                .state_patch
                .expect("incr patches");
            let state = running[slot].1.make_mut();
            log.span(parent, "value.merge_patch", || {
                merge::deep_merge(state, patch);
            });
            self.record(log, parent, op.call.function());
        }
        for (object, snapshot) in running {
            self.store(log, parent, object, snapshot);
        }
    }

    pub fn replay(
        &mut self,
        log: &mut SpanLog,
        parent: u32,
        client: usize,
        ids: &[ObjectId],
        ops: &[Op],
    ) {
        match self.kind {
            Kind::Batch64 => self.replay_batch(log, parent, ids, ops),
            Kind::FlowFanout => self.replay_flow(log, parent, ids[ops[0].object as usize], ops[0]),
            _ => self.replay_direct(log, parent, client, ids[ops[0].object as usize], ops[0]),
        }
    }

    /// What the platform's tick does to its write-behind buffers, timed
    /// per flushed record.
    fn flush(&mut self, log: &mut SpanLog) {
        let now = self.now();
        let state = &mut self.state;
        // `flush_all` reports only what its final drain took, so the
        // due batch is flushed, and counted, first.
        let (records, ns) = log.span(0, "store.wb_flush", || {
            state.flush_due(now) + state.flush_all(now)
        });
        if records > 0 {
            self.flushes.push((ns, records as u64));
        }
    }
}

/// What the traced pass measured.
pub struct Traced {
    pub log: SpanLog,
    /// One entry per [`LAYERS`] entry, in its order.
    pub layers: Vec<LayerStat>,
    pub invoke_p50_ns: f64,
    /// Median over ops of `invoke` minus the op's shadow layer calls.
    pub glue_ns: f64,
    pub wb_flush_ns_per_record: f64,
    /// Median self time of the `op` span per child span: what recording
    /// one span costs.
    pub span_cost_ns: f64,
}

/// What the shadow replays saw of one layer.
pub struct LayerStat {
    pub span: &'static str,
    pub metric: &'static str,
    /// Calls into the layer per op: with `ns_per_call`, its share of an
    /// op's latency.
    pub calls_per_op: f64,
    /// Median ns of one call; 0 for a layer the workload never enters.
    pub ns_per_call: f64,
}

impl Traced {
    pub fn ns_per_call(&self, span: &str) -> f64 {
        self.layers
            .iter()
            .find(|l| l.span == span)
            .map_or(0.0, |l| l.ns_per_call)
    }
}

fn median_u64(values: &[u64]) -> f64 {
    stats::median(&values.iter().map(|&v| v as f64).collect::<Vec<_>>())
}

/// Runs `calls` calls of client 0 on this thread, each under an `op`
/// span with the real call (`invoke`) and its layer-by-layer replay
/// (`shadow`) as children.
pub fn traced_pass(inst: &mut Instance, calls: u64) -> Traced {
    let mut shadow = Shadow::of(inst);
    let kind = inst.kind;
    let per_call = kind.ops_per_call() as usize;
    let mut log = SpanLog::with_capacity(calls as usize * (3 + 10 * per_call.min(16)));
    let (ctx, clients) = inst.split();
    let client = &mut clients[0];
    for call in 1..=calls {
        let prepared = client.prepare(ctx);
        let first = prepared.first;
        log.next_op();
        let op_span = log.begin(0, "op");
        let (reply, _) = log.span(op_span.id(), "invoke", || client.run(ctx, prepared));
        let shadow_span = log.begin(op_span.id(), "shadow");
        let ops = &client.trace()[first..first + per_call];
        shadow.replay(&mut log, shadow_span.id(), client.index, ctx.ids, ops);
        log.end(shadow_span);
        log.end(op_span);
        client.check(first, reply);
        if call % kind.tick_every() == 0 {
            ctx.platform.tick();
            shadow.flush(&mut log);
        }
    }
    shadow.flush(&mut log);
    summarize(log, &shadow, calls * per_call as u64)
}

fn summarize(log: SpanLog, shadow: &Shadow, ops: u64) -> Traced {
    let mut by_layer: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut invokes = Vec::new();
    let mut glue = Vec::new();
    for of_op in spans::by_op(log.spans()) {
        let Some(shadow_span) = of_op.iter().find(|s| s.name == "shadow") else {
            continue;
        };
        let mut layers_ns = 0;
        for s in of_op.iter().filter(|s| s.parent == shadow_span.id) {
            by_layer.entry(s.name).or_default().push(s.duration_ns());
            layers_ns += s.duration_ns();
        }
        if let Some(invoke) = of_op.iter().find(|s| s.name == "invoke") {
            invokes.push(invoke.duration_ns());
            glue.push(invoke.duration_ns() as f64 - layers_ns as f64);
        }
    }
    let layers = LAYERS
        .iter()
        .map(|&(span, metric)| {
            let calls = by_layer.get(span).map_or(&[][..], Vec::as_slice);
            LayerStat {
                span,
                metric,
                calls_per_op: calls.len() as f64 / ops as f64,
                ns_per_call: median_u64(calls),
            }
        })
        .collect();
    let per_record: Vec<f64> = shadow
        .flushes
        .iter()
        .map(|&(ns, records)| ns as f64 / records as f64)
        .collect();
    let op_selfs = spans::self_times_ns(log.spans(), "op");
    Traced {
        layers,
        invoke_p50_ns: median_u64(&invokes),
        glue_ns: stats::median(&glue),
        wb_flush_ns_per_record: stats::median(&per_record),
        span_cost_ns: median_u64(&op_selfs) / 2.0,
        log,
    }
}

/// `flow.compile_us`: lower → check → bind → optimize on `pipe8`,
/// median of 200 compilations.
pub fn flow_compile_us() -> f64 {
    let df = workloads::pipe8();
    let samples: Vec<f64> = (0..200)
        .map(|_| {
            let t0 = Instant::now();
            let defects = FlowIr::check(&df);
            let mut ir = FlowIr::lower(&df).expect("pipe8 lowers");
            ir.bind(|n| NodeBinding {
                class: n.target.is_none().then(|| "Flow8".to_string()),
                readonly: false,
                availability: None,
            });
            let program = ir.optimize(&PassConfig::default(), |n| n.binding.readonly);
            let us = t0.elapsed().as_nanos() as f64 / 1e3;
            assert!(defects.is_empty() && program.stages.len() == 8);
            us
        })
        .collect();
    stats::median(&samples)
}

const FUSED_YAML: &str = "
classes:
  - name: FusedDoc
    keySpecs: [count]
    functions:
      - name: incr
        image: img/hot-incr
    dataflows:
      - name: chain
        output: c
        steps:
          - id: a
            function: incr
            inputs: [input]
          - id: b
            function: incr
            inputs: [\"step:a\"]
          - id: c
            function: incr
            inputs: [\"step:b\"]
";

/// `flow.fused_chain_us`: p50 of a three-step same-object chain the
/// flow compiler fuses into one unit, on a `Hot`-sized object.
pub fn fused_chain_us(calls: u64) -> f64 {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/hot-incr", workloads::incr);
    p.deploy_yaml(FUSED_YAML).expect("FusedDoc deploys");
    let id = p
        .create_object("FusedDoc", workloads::big_state())
        .expect("object is created");
    let call = || {
        let t0 = Instant::now();
        let out = p.invoke(id, "chain", Vec::new()).expect("chain runs");
        let ns = t0.elapsed().as_nanos() as u32;
        std::hint::black_box(out);
        ns
    };
    for _ in 0..calls / 8 {
        call();
    }
    let mut samples: Vec<u32> = (0..calls).map(|_| call()).collect();
    f64::from(stats::percentile(&mut samples, 0.5)) / 1e3
}

/// p50 of `calls` calls of client 0.
fn p50_ns(inst: &mut Instance, calls: u64) -> f64 {
    let (ctx, clients) = inst.split();
    let mut samples: Vec<u32> = (0..calls).map(|_| clients[0].timed_step(ctx).0).collect();
    f64::from(stats::percentile(&mut samples, 0.5))
}

/// `telemetry.spans_overhead_pct`: the platform's own span telemetry on
/// (wall-clock stamps) against off, same platform, `calls` calls each.
pub fn telemetry_overhead_pct(inst: &mut Instance, calls: u64) -> f64 {
    let off = p50_ns(inst, calls);
    inst.platform.enable_telemetry(TelemetryConfig {
        level: TelemetryLevel::Spans,
        clock: ClockMode::External,
        ..TelemetryConfig::default()
    });
    let on = p50_ns(inst, calls);
    inst.platform.enable_telemetry(TelemetryConfig::disabled());
    (on - off) / off * 100.0
}
