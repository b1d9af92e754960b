//! The six workloads: what each deploys, what its clients call, and the
//! oracle that checks every reply and, at the end, every object.

use std::time::Instant;

use oprc_core::dataflow::{DataflowSpec, StepSpec};
use oprc_core::invocation::{InvocationTask, TaskError, TaskResult};
use oprc_core::object::ObjectId;
use oprc_core::template::{ClassRuntimeTemplate, RuntimeConfig, TemplateCatalog};
use oprc_core::{ClassDef, FunctionDef, OPackage};
use oprc_platform::admission::AdmissionConfig;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_platform::PlatformError;
use oprc_value::{vjson, Value};
use oprc_workloads::jsonrand::{self, randomized_doc};

use crate::ops::{self, Call, Op, DOC_KEYS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    HotCounter,
    JsonrandWrite,
    ReadMostlyZipf,
    FlowFanout,
    Batch64,
    Ship4Node,
}

/// Tenants of `read_mostly_zipf`, one per client.
pub const TENANTS: [&str; 2] = ["tenant-0", "tenant-1"];

/// `pipe8` on input 1: both lanes of stage 0 give 2, each later stage
/// maps x to 2x + 1 (2, 5, 11, 23, 47, 95, 191) and `combine` adds one
/// more: 191 + 191 + 1.
pub const PIPE8_OF_ONE: i64 = 383;

pub const HOT_YAML: &str = "
classes:
  - name: Hot
    keySpecs: [count]
    functions:
      - name: incr
        image: img/hot-incr
";

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::HotCounter,
        Kind::JsonrandWrite,
        Kind::ReadMostlyZipf,
        Kind::FlowFanout,
        Kind::Batch64,
        Kind::Ship4Node,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::HotCounter => "hot_counter",
            Kind::JsonrandWrite => "jsonrand_write",
            Kind::ReadMostlyZipf => "read_mostly_zipf",
            Kind::FlowFanout => "flow_fanout",
            Kind::Batch64 => "batch_64",
            Kind::Ship4Node => "ship_4node",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Closed-loop client threads: never more than this host's two CPUs.
    pub fn clients(self) -> usize {
        match self {
            Kind::ReadMostlyZipf => 2,
            _ => 1,
        }
    }

    pub fn objects(self) -> usize {
        match self {
            Kind::HotCounter | Kind::FlowFanout => 8,
            Kind::JsonrandWrite | Kind::ReadMostlyZipf => 1024,
            Kind::Batch64 => 16,
            Kind::Ship4Node => 256,
        }
    }

    /// Ops one call carries: throughput counts ops, latency times calls.
    pub fn ops_per_call(self) -> u64 {
        match self {
            Kind::Batch64 => 64,
            _ => 1,
        }
    }

    /// Client 0 calls `tick()` after every this many of its calls, so
    /// metric buffers and write-behind flushes do the same work per op
    /// in every run.
    pub fn tick_every(self) -> u64 {
        match self {
            Kind::FlowFanout => 256,
            Kind::Batch64 => 64,
            _ => 4096,
        }
    }

    /// Calls in the counted and the traced pass.
    pub fn fixed_calls(self) -> u64 {
        match self {
            Kind::FlowFanout => 2_000,
            Kind::Batch64 => 320,
            _ => 20_000,
        }
    }

    /// Warm-up calls at the end of set-up, over all clients.
    pub fn warmup_calls(self) -> u64 {
        match self {
            Kind::FlowFanout => 1_000,
            Kind::Batch64 => 160,
            _ => 10_000,
        }
    }

    pub fn class(self) -> &'static str {
        match self {
            Kind::HotCounter | Kind::Batch64 | Kind::Ship4Node => "Hot",
            Kind::JsonrandWrite | Kind::ReadMostlyZipf => "JsonDoc",
            Kind::FlowFanout => "Flow8",
        }
    }
}

impl Call {
    pub fn function(self) -> &'static str {
        match self {
            Call::Incr => "incr",
            Call::Randomize { .. } => "randomize",
            Call::Read => "read",
            Call::Pipe8 => "pipe8",
        }
    }

    pub fn args(self) -> Vec<Value> {
        match self {
            Call::Incr | Call::Read => Vec::new(),
            Call::Randomize { seed } => vec![vjson!({"keys": DOC_KEYS, "seed": seed})],
            Call::Pipe8 => vec![vjson!(1)],
        }
    }
}

// The function bodies. They are plain `fn`s so that the per-layer probe
// `fn.execute_ns` calls exactly what the platform calls.

pub fn incr(task: &InvocationTask) -> Result<TaskResult, TaskError> {
    let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
    Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
}

/// The paper's §V function: the document comes from the repository's
/// `randomized_doc`.
pub fn randomize(task: &InvocationTask) -> Result<TaskResult, TaskError> {
    let arg = task.args.first();
    let keys = arg.and_then(|a| a["keys"].as_u64()).unwrap_or(DOC_KEYS);
    let seed = arg.and_then(|a| a["seed"].as_u64()).unwrap_or(task.task_id);
    let doc = randomized_doc(seed, keys as usize);
    Ok(TaskResult::output(doc.clone()).with_patch(vjson!({ "doc": doc })))
}

pub fn read(task: &InvocationTask) -> Result<TaskResult, TaskError> {
    Ok(TaskResult::output(task.state_in["doc"].clone()))
}

pub fn sum1(task: &InvocationTask) -> Result<TaskResult, TaskError> {
    let s: i64 = task.args.iter().filter_map(Value::as_i64).sum();
    Ok(TaskResult::output(s + 1))
}

/// The function a call runs, for the probes.
pub fn body_of(call: Call) -> fn(&InvocationTask) -> Result<TaskResult, TaskError> {
    match call {
        Call::Incr => incr,
        Call::Randomize { .. } => randomize,
        Call::Read => read,
        Call::Pipe8 => sum1,
    }
}

/// The hot-object state of `invoke_hotpath`: 64 nested fields beside
/// the counter, so a whole-state copy is expensive and visible.
pub fn big_state() -> Value {
    let mut v = Value::object();
    for i in 0..64 {
        v.insert(
            format!("field_{i:02}"),
            vjson!({
                "idx": i,
                "payload": "0123456789abcdef0123456789abcdef",
                "tags": ["hot", "bench"],
            }),
        );
    }
    v.insert("count", 0_i64);
    v
}

/// Seven stages of two parallel lanes, every lane fed by both lanes of
/// the stage before, and a `combine` step: 15 cheap steps.
pub fn pipe8() -> DataflowSpec {
    let mut df = DataflowSpec::new("pipe8");
    for stage in 0..7_u32 {
        for lane in 0..2_u32 {
            let mut step = StepSpec::new(format!("s{stage}_{lane}"), "sum");
            if stage == 0 {
                step = step.from_input();
            } else {
                step = step
                    .from_step(format!("s{}_0", stage - 1))
                    .from_step(format!("s{}_1", stage - 1));
            }
            df = df.step(step);
        }
    }
    df.step(
        StepSpec::new("combine", "sum")
            .from_step("s6_0")
            .from_step("s6_1"),
    )
    .output_from("combine")
}

pub const PIPE8_STEPS: u64 = 15;

fn hot_platform(catalog: TemplateCatalog) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::with_catalog(catalog);
    p.register_function("img/hot-incr", incr);
    p.deploy_yaml(HOT_YAML).expect("Hot deploys");
    p
}

/// A catalog whose only template turns locality routing on or off.
pub fn locality_catalog(locality: bool) -> TemplateCatalog {
    let mut catalog = TemplateCatalog::new();
    catalog.add(ClassRuntimeTemplate::new(
        "default",
        0,
        RuntimeConfig {
            locality_routing: locality,
            ..RuntimeConfig::default()
        },
    ));
    catalog
}

fn jsondoc_platform(admission: bool) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/json-randomizer", randomize);
    p.register_function("img/json-reader", read);
    p.deploy_yaml(jsonrand::PACKAGE_YAML)
        .expect("JsonDoc deploys");
    if admission {
        // A rate no client can reach: the admission path runs on every
        // call and never refuses one.
        p.enable_admission(AdmissionConfig::new(1e9, 1e9));
    }
    p
}

fn flow_platform() -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/sum1", sum1);
    let class = ClassDef::new("Flow8")
        .function(FunctionDef::new("sum", "img/sum1"))
        .dataflow(pipe8());
    p.deploy_package(OPackage::new("flow8").class(class))
        .expect("Flow8 deploys");
    p
}

/// The seed the set-up prefill writes into object `object`.
fn prefill_seed(seed: u64, object: usize) -> u64 {
    (seed.wrapping_mul(0x2545_F491_4F6C_DD1D) ^ object as u64) >> 1
}

/// One closed-loop client: its trace, where it is in it, and what the
/// oracle needs to know about the calls it has made.
pub struct Client {
    pub index: usize,
    trace: Vec<Op>,
    cursor: usize,
    /// `incr`s that succeeded, per object.
    incrs: Vec<u64>,
    /// Seed of this client's last successful `randomize`, per object.
    last_seed: Vec<Option<u64>>,
    /// Ops attempted and ops that returned `Err` or a wrong reply.
    pub attempted: u64,
    pub failed: u64,
}

/// A call ready to be made: everything allocated, nothing timed yet.
pub struct Prepared {
    /// Trace position of the call's first op.
    pub first: usize,
    body: Body,
}

enum Body {
    Direct { op: Op, args: Vec<Value> },
    Batch(Vec<BatchItem>),
}

pub enum Reply {
    Direct(Result<TaskResult, PlatformError>),
    Batch(Vec<Result<TaskResult, PlatformError>>),
}

/// What the clients share.
#[derive(Clone, Copy)]
pub struct Ctx<'a> {
    pub kind: Kind,
    pub platform: &'a EmbeddedPlatform,
    pub ids: &'a [ObjectId],
}

impl Client {
    fn new(kind: Kind, seed: u64, index: usize) -> Self {
        Client {
            index,
            trace: ops::generate(kind, seed, index),
            cursor: 0,
            incrs: vec![0; kind.objects()],
            last_seed: vec![None; kind.objects()],
            attempted: 0,
            failed: 0,
        }
    }

    pub fn trace(&self) -> &[Op] {
        &self.trace
    }

    /// Takes the next call off the trace.
    pub fn prepare(&mut self, ctx: Ctx<'_>) -> Prepared {
        let first = self.cursor;
        let n = ctx.kind.ops_per_call() as usize;
        self.cursor = (first + n) % self.trace.len();
        let body = if ctx.kind == Kind::Batch64 {
            Body::Batch(
                self.trace[first..first + n]
                    .iter()
                    .map(|op| {
                        let id = ctx.ids[op.object as usize];
                        BatchItem::new(id, op.call.function(), op.call.args())
                    })
                    .collect(),
            )
        } else {
            let op = self.trace[first];
            Body::Direct {
                op,
                args: op.call.args(),
            }
        };
        Prepared { first, body }
    }

    /// Makes the call: the only part of an op that is timed as latency.
    pub fn run(&self, ctx: Ctx<'_>, prepared: Prepared) -> Reply {
        match prepared.body {
            Body::Direct { op, args } => {
                let id = ctx.ids[op.object as usize];
                let function = op.call.function();
                Reply::Direct(if ctx.kind == Kind::ReadMostlyZipf {
                    ctx.platform
                        .invoke_as(TENANTS[self.index], id, function, args)
                } else {
                    ctx.platform.invoke(id, function, args)
                })
            }
            Body::Batch(items) => Reply::Batch(ctx.platform.invoke_batch(items)),
        }
    }

    /// Checks every reply of the call that started at trace position
    /// `first` against the oracle.
    pub fn check(&mut self, first: usize, reply: Reply) {
        match reply {
            Reply::Direct(out) => self.check_one(first, out),
            Reply::Batch(outs) => {
                if outs.len() != 64 {
                    self.attempted += 64;
                    self.failed += 64;
                    return;
                }
                for (i, out) in outs.into_iter().enumerate() {
                    self.check_one(first + i, out);
                }
            }
        }
    }

    fn check_one(&mut self, at: usize, out: Result<TaskResult, PlatformError>) {
        self.attempted += 1;
        let Op { object, call } = self.trace[at];
        let object = object as usize;
        let ok = match (call, out) {
            (_, Err(_)) => false,
            (Call::Incr, Ok(out)) => {
                self.incrs[object] += 1;
                out.output.as_i64() == Some(self.incrs[object] as i64)
            }
            (Call::Randomize { seed }, Ok(out)) => {
                self.last_seed[object] = Some(seed);
                out.output.len() == DOC_KEYS as usize
            }
            (Call::Read, Ok(out)) => out.output.len() == DOC_KEYS as usize,
            (Call::Pipe8, Ok(out)) => out.output.as_i64() == Some(PIPE8_OF_ONE),
        };
        if !ok {
            self.failed += 1;
        }
    }

    /// One whole call: prepared, made, checked. Returns the latency of
    /// the call itself in ns and the instant its reply arrived.
    pub fn timed_step(&mut self, ctx: Ctx<'_>) -> (u32, Instant) {
        let prepared = self.prepare(ctx);
        let first = prepared.first;
        let t0 = Instant::now();
        let reply = self.run(ctx, prepared);
        let t1 = Instant::now();
        self.check(first, reply);
        ((t1 - t0).as_nanos().min(u128::from(u32::MAX)) as u32, t1)
    }

    /// One whole call, untimed: set-up warm-up and the counted pass.
    pub fn step(&mut self, ctx: Ctx<'_>) {
        let prepared = self.prepare(ctx);
        let first = prepared.first;
        let reply = self.run(ctx, prepared);
        self.check(first, reply);
    }
}

/// One workload's platform with its objects and clients.
pub struct Instance {
    pub kind: Kind,
    pub platform: EmbeddedPlatform,
    pub ids: Vec<ObjectId>,
    pub clients: Vec<Client>,
    /// Seeds the set-up prefill wrote, per object (`JsonDoc` workloads).
    prefill: Vec<u64>,
}

/// Builds the workload's platform, deploys its class, creates and
/// prefills its objects and runs the fixed warm-up: everything
/// `setup_s` times. `locality` is false for the real `ship_4node` and
/// true for its locality-on control; the other workloads ignore it.
pub fn setup(kind: Kind, seed: u64, warmup_calls: u64, locality: bool) -> Instance {
    let platform = match kind {
        Kind::HotCounter | Kind::Batch64 => hot_platform(TemplateCatalog::standard()),
        Kind::Ship4Node => hot_platform(locality_catalog(locality)),
        Kind::JsonrandWrite => jsondoc_platform(false),
        Kind::ReadMostlyZipf => jsondoc_platform(true),
        Kind::FlowFanout => flow_platform(),
    };
    let initial = match kind {
        Kind::HotCounter | Kind::Batch64 | Kind::Ship4Node => big_state(),
        _ => vjson!({}),
    };
    let ids: Vec<ObjectId> = (0..kind.objects())
        .map(|_| {
            platform
                .create_object(kind.class(), initial.clone())
                .expect("object is created")
        })
        .collect();
    let mut prefill = Vec::new();
    if kind.class() == "JsonDoc" {
        for (object, &id) in ids.iter().enumerate() {
            let seed = prefill_seed(seed, object);
            platform
                .invoke(id, "randomize", Call::Randomize { seed }.args())
                .expect("prefill succeeds");
            prefill.push(seed);
        }
    }
    if kind == Kind::Ship4Node {
        // Live joins: the objects already exist and re-home.
        for _ in 0..3 {
            platform.node_join().expect("node joins");
        }
    }
    let mut inst = Instance {
        kind,
        platform,
        ids,
        clients: (0..kind.clients())
            .map(|c| Client::new(kind, seed, c))
            .collect(),
        prefill,
    };
    let (ctx, clients) = inst.split();
    for client in clients.iter_mut() {
        for _ in 0..warmup_calls / kind.clients() as u64 {
            client.step(ctx);
        }
    }
    ctx.platform.tick();
    inst
}

impl Instance {
    /// The shared context and the clients, borrowed apart so that each
    /// client thread can hold its own client mutably.
    pub fn split(&mut self) -> (Ctx<'_>, &mut [Client]) {
        (
            Ctx {
                kind: self.kind,
                platform: &self.platform,
                ids: &self.ids,
            },
            &mut self.clients,
        )
    }

    pub fn attempted(&self) -> u64 {
        self.clients.iter().map(|c| c.attempted).sum()
    }

    pub fn failed(&self) -> u64 {
        self.clients.iter().map(|c| c.failed).sum()
    }

    /// The end-of-run oracle: every object holds what the calls made on
    /// it must have left. Returns `(objects checked, objects wrong)`.
    pub fn verify_objects(&self) -> (u64, u64) {
        let mut wrong = 0;
        match self.kind.class() {
            "Hot" => {
                for (object, &id) in self.ids.iter().enumerate() {
                    let expected: u64 = self.clients.iter().map(|c| c.incrs[object]).sum();
                    let got = self.platform.get_state(id).ok();
                    if got.and_then(|s| s["count"].as_i64()) != Some(expected as i64) {
                        wrong += 1;
                    }
                }
            }
            "JsonDoc" => {
                self.platform.flush();
                for (object, &id) in self.ids.iter().enumerate() {
                    // The parity split gives each object one writer.
                    let seed = self
                        .clients
                        .iter()
                        .find_map(|c| c.last_seed[object])
                        .unwrap_or(self.prefill[object]);
                    let expected = randomized_doc(seed, DOC_KEYS as usize);
                    let live = self.platform.get_state(id).ok();
                    let durable = self.platform.durable_state(id);
                    if live.as_ref().map(|s| &s["doc"]) != Some(&expected) || durable != live {
                        wrong += 1;
                    }
                }
            }
            // Stateless: every reply was already checked.
            _ => return (0, 0),
        }
        (self.ids.len() as u64, wrong)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(Kind::from_name("nope"), None);
    }

    #[test]
    fn a_wrong_expectation_is_caught() {
        let mut inst = setup(Kind::HotCounter, 42, 64, false);
        assert_eq!(inst.failed(), 0);
        assert_eq!(inst.verify_objects(), (8, 0));
        // The harness forgets one call it made: the object oracle must
        // now disagree with the platform, and so must the next reply.
        let object = inst.clients[0].trace[0].object as usize;
        inst.clients[0].incrs[object] -= 1;
        assert_eq!(inst.verify_objects(), (8, 1));
        let (ctx, clients) = inst.split();
        for _ in 0..8 {
            clients[0].step(ctx);
        }
        assert_eq!(inst.failed(), 1);
    }

    #[test]
    fn json_oracle_follows_the_last_write() {
        let mut inst = setup(Kind::ReadMostlyZipf, 7, 400, false);
        assert_eq!(inst.failed(), 0);
        assert_eq!(inst.verify_objects(), (1024, 0));
        inst.prefill[1023] ^= 1;
        inst.clients[1].last_seed[1023] = None;
        assert_eq!(inst.verify_objects(), (1024, 1));
    }
}
