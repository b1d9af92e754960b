//! The dataflow engine (DESIGN.md §13): one walk over a compiled
//! [`FlowProgram`], stage by stage.
//!
//! A stage's singleton steps are resolved and built one shard lock at a
//! time, executed, and committed in step order; a fused unit runs its
//! whole chain under one shard-lock hold with a single commit.
//!
//! Tasks are pure, so the platform owns the parallelism (§II-B) — and
//! with it the choice not to parallelise. Each function's dispatch plan
//! keeps an estimate of its execute time, and a stage hands lanes to
//! scoped threads only when the work that overlapping saves covers one
//! [`HANDOFF_NS`] per extra lane; a cheap stage runs on the calling
//! thread. A function not measured yet counts as expensive. Where a
//! step ran changes nothing else: a panic in its function is caught
//! and fails that step with `TaskError::Runtime`, spans open and
//! close on the calling thread, and a stage commits all its steps in
//! step order or, when any step failed, none of them.
//!
//! With the fault injector armed the walk takes the flow's *plain*
//! program — every pass off, one unit per step — and sends each step
//! serially through [`EmbeddedPlatform::invoke_with_retry`]. Faults are
//! drawn in per-site program order, so parallel workers racing to the
//! injector, or a chain skipping its intermediate commits, would make
//! the fault schedule depend on thread scheduling and on the optimizer;
//! the serial walk keeps a seeded replay byte-identical.
//!
//! A span reaches the export only when it ends, so every span the walk
//! opens is ended on every way out, the failing one carrying `error` and
//! a step its failed stage never committed carrying `aborted`.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::time::Instant;

use oprc_core::dataflow::{DataflowSpec, StepSpec};
use oprc_core::flow_ir::{FlowIr, FlowProgram, FlowUnit, NodeBinding, PassConfig};
use oprc_core::hierarchy::ResolvedClass;
use oprc_core::invocation::{InvocationTask, TaskResult};
use oprc_core::object::ObjectId;
use oprc_core::CoreError;
use oprc_telemetry::TraceContext;
use oprc_value::{Snapshot, Value};

use crate::PlatformError;

use super::{
    call_function, merge_patch, object_key, record_files, ClassPlan, DispatchPlan,
    EmbeddedPlatform, FunctionImpl, PlanTable, ResolvedCall,
};

/// What handing one lane of a stage to another thread costs: spawning
/// and joining a scoped thread measured ~26–30 µs per spawn on a 2-vCPU
/// Linux host. A stage goes parallel only when the execute time that
/// overlapping saves covers this per extra lane, so the constant is
/// rounded up: mistaking a cheap stage for an expensive one costs a
/// whole handoff, the reverse at most the margin.
const HANDOFF_NS: u64 = 50_000;

/// A dataflow compiled at deploy time: the source spec plus the
/// programs the engine walks.
///
/// `programs` is `Err` only when the spec fails validation — kept so
/// the invoke path surfaces the exact `validate()` error instead of a
/// plan miss; every flow the deploy gate lets through compiles.
#[derive(Debug)]
pub(super) struct CompiledFlow {
    spec: DataflowSpec,
    programs: Result<FlowPrograms, CoreError>,
}

/// The two schedules of one lowered flow.
#[derive(Debug)]
struct FlowPrograms {
    /// What runs when no fault injector is armed.
    optimized: FlowProgram,
    /// [`PassConfig::disabled`]: one unit per step, nothing eliminated —
    /// what runs under chaos.
    plain: FlowProgram,
}

impl CompiledFlow {
    /// Lowers and schedules `df`, a dataflow of `class`. `fuse` is the
    /// platform's [`set_flow_fusion`](EmbeddedPlatform::set_flow_fusion)
    /// switch for the optimized program's fusion pass.
    pub(super) fn compile(
        df: &DataflowSpec,
        class: &str,
        resolved: &ResolvedClass,
        fuse: bool,
    ) -> Self {
        let programs = match FlowIr::lower(df) {
            Ok(mut ir) => {
                ir.bind(|n| NodeBinding {
                    class: n.target.is_none().then(|| class.to_string()),
                    readonly: resolved.function(&n.function).is_some_and(|f| f.readonly),
                    availability: resolved.nfr.qos.availability,
                });
                let cfg = PassConfig {
                    fuse,
                    ..PassConfig::default()
                };
                Ok(FlowPrograms {
                    optimized: ir.optimize(&cfg, |n| n.binding.readonly),
                    plain: ir.optimize(&PassConfig::disabled(), |_| false),
                })
            }
            Err(_) => Err(df
                .validate()
                .expect_err("lowering fails on exactly the defects validate() rejects")),
        };
        CompiledFlow {
            spec: df.clone(),
            programs,
        }
    }
}

/// What one dataflow invocation carries from stage to stage.
struct FlowRun<'a> {
    /// The object the flow was invoked on, and its class.
    id: ObjectId,
    class: &'a str,
    df: &'a DataflowSpec,
    plans: &'a PlanTable,
    /// The flow input and every step output live behind snapshots:
    /// fanning a value into several downstream steps bumps a refcount
    /// instead of deep-cloning the payload per consumer.
    input: Snapshot,
    outputs: BTreeMap<String, Snapshot>,
}

/// One singleton step resolved against the plan snapshot, its
/// `dataflow.step` span open.
struct ResolvedStep<'a> {
    id: &'a str,
    target: ObjectId,
    class: String,
    call: ResolvedCall<'a>,
    span: TraceContext,
}

impl EmbeddedPlatform {
    /// Runs one dataflow invocation under the root `invoke` span.
    pub(super) fn run_dataflow(
        &self,
        id: ObjectId,
        class: &str,
        flow: &CompiledFlow,
        args: Vec<Value>,
        root: TraceContext,
        plans: &PlanTable,
    ) -> Result<TaskResult, PlatformError> {
        let programs = flow.programs.as_ref().map_err(Clone::clone)?;
        let program = if self.chaos.is_enabled() {
            &programs.plain
        } else {
            &programs.optimized
        };
        let mut run = FlowRun {
            id,
            class,
            df: &flow.spec,
            plans,
            input: Snapshot::from(args.into_iter().next().unwrap_or(Value::Null)),
            outputs: BTreeMap::new(),
        };
        for (index, stage) in program.stages.iter().enumerate() {
            let stage_span = if self.telemetry.is_enabled() {
                let width: usize = stage.iter().map(|u| u.steps.len()).sum();
                let s = self
                    .telemetry
                    .begin_child(root, "dataflow.stage", self.now());
                self.telemetry.attr(s, "index", index as u64);
                self.telemetry.attr(s, "parallelism", width as u64);
                s
            } else {
                TraceContext::NONE
            };
            let out = self.run_stage(&mut run, stage, stage_span);
            self.end_span(stage_span, &out);
            out?;
        }
        let out_step = run.df.output_step().expect("a lowered dataflow has steps");
        // Removing the entry usually leaves the snapshot unique, making
        // the final unwrap zero-copy.
        Ok(TaskResult::output(
            run.outputs
                .remove(out_step)
                .map_or(Value::Null, Snapshot::into_value),
        ))
    }

    /// Runs one stage: prepare every unit in order, execute the built
    /// tasks (in parallel where [`handoff_pays`]), commit their effects
    /// in step order. Shard locks are taken one step at a time (build,
    /// then later apply) — never two at once, and never across
    /// execution.
    fn run_stage(
        &self,
        run: &mut FlowRun<'_>,
        stage: &[FlowUnit],
        stage_span: TraceContext,
    ) -> Result<(), PlatformError> {
        let mut steps: Vec<ResolvedStep<'_>> = Vec::new();
        let mut tasks: Vec<InvocationTask> = Vec::new();
        for unit in stage {
            // A fused chain — and, under chaos, every step — runs to
            // completion right here; no data dependency can exist
            // between units of one stage, so order is free.
            let prepared = if unit.is_fused() {
                self.run_fused_unit(run, &unit.steps, stage_span)
                    .map(|()| None)
            } else {
                self.prepare_step(run, unit.steps[0], stage_span)
            };
            match prepared {
                Ok(Some((step, task))) => {
                    steps.push(step);
                    tasks.push(task);
                }
                Ok(None) => {}
                Err(e) => {
                    // The steps prepared so far never execute.
                    for step in &steps {
                        self.end_aborted(step.span);
                    }
                    return Err(e);
                }
            }
        }
        // Execute-span bookkeeping stays on the platform thread, in
        // step order, so span ids remain deterministic regardless of
        // worker-thread scheduling.
        let exec_spans: Vec<TraceContext> = tasks
            .iter()
            .zip(&steps)
            .map(|(task, step)| self.begin_execute_span(task, step.span))
            .collect();
        // Parallel execution (§II-B) only where it pays: the calling
        // thread runs the last task itself, so a parallel stage of width
        // n spawns n − 1 threads; a cheap stage spawns none.
        let mut jobs = tasks
            .iter()
            .zip(&steps)
            .map(|(task, step)| move || execute(step.call.dispatch, &step.call.f, task));
        let results: Vec<Result<TaskResult, PlatformError>> = if handoff_pays(&steps) {
            std::thread::scope(|scope| {
                let Some(last) = jobs.next_back() else {
                    return Vec::new();
                };
                let spawned: Vec<_> = jobs.map(|job| scope.spawn(job)).collect();
                let last = last();
                spawned
                    .into_iter()
                    .map(|h| h.join().expect("execute catches the function's panic"))
                    .chain(std::iter::once(last))
                    .collect()
            })
        } else {
            jobs.map(|job| job()).collect()
        };
        for (span, result) in exec_spans.into_iter().zip(&results) {
            self.end_span(span, result);
        }
        // Apply effects deterministically in step order. The tasks go
        // first: nothing re-executes them, and their `state_in` handles
        // would force a copy at each commit.
        let ikeys: Vec<u64> = tasks.into_iter().map(|t| t.idempotency_key).collect();
        // A stage commits all or nothing: the first failed step in step
        // order ends the flow and no step of the stage commits, though
        // every step span still ends. Past that, only a failing commit
        // stops the later ones.
        let failed = results.iter().position(Result::is_err);
        let mut out = Ok(());
        for (i, ((step, result), ikey)) in steps.iter().zip(results).zip(ikeys).enumerate() {
            if out.is_ok() && failed.is_none_or(|f| f == i) {
                out = result.and_then(|result| {
                    self.apply_result(
                        &mut self.shard(step.target).lock(),
                        step.target,
                        &step.class,
                        step.call.plan.persists,
                        &result,
                        step.span,
                        ikey,
                        None,
                    )?;
                    run.outputs
                        .insert(step.id.to_string(), Snapshot::from(result.output));
                    Ok(())
                });
                self.end_span(step.span, &out);
            } else {
                self.end_aborted(step.span);
            }
        }
        out
    }

    /// Ends the span of a step that failed nothing itself but was
    /// prepared or executed in a stage that failed: it never committed,
    /// so it carries `aborted` instead of reading as a success.
    fn end_aborted(&self, span: TraceContext) {
        self.telemetry.attr(span, "aborted", true);
        self.telemetry.end(span, self.now());
    }

    /// Resolves step `ix` and readies it for its stage. Under chaos the
    /// step runs here, through the retry loop, and `None` comes back;
    /// otherwise its task is built (one short shard hold) and returned
    /// for the stage to execute.
    fn prepare_step<'a>(
        &self,
        run: &mut FlowRun<'a>,
        ix: usize,
        stage_span: TraceContext,
    ) -> Result<Option<(ResolvedStep<'a>, InvocationTask)>, PlatformError> {
        let (step, inputs) = self.resolve_step(run, &run.df.steps[ix], stage_span)?;
        if self.chaos.is_enabled() {
            // Dataflow steps execute at the target's partition owner
            // (locality semantics): the coordinating node never ships
            // state for its own steps.
            let hop = self.node_hop(step.target, true);
            hop.count();
            let out = self
                .invoke_with_retry(
                    step.target,
                    &step.class,
                    &step.call,
                    inputs,
                    step.span,
                    &hop,
                )
                .map(|out| {
                    run.outputs
                        .insert(step.id.to_string(), Snapshot::from(out.output));
                    None
                });
            self.end_span(step.span, &out);
            return out;
        }
        let built = self.build_task(
            &mut self.shard(step.target).lock(),
            step.target,
            &step.class,
            step.call.plan,
            step.call.dispatch,
            inputs,
            step.span,
        );
        if built.is_err() {
            self.end_span(step.span, &built);
        }
        let mut task = built?;
        task.idempotency_key = self.next_invocation.fetch_add(1, Ordering::Relaxed);
        Ok(Some((step, task)))
    }

    /// Resolves one singleton step: target object, dispatch through the
    /// target class's cached plan (no registry walk or string formatting
    /// per step), the `dataflow.step` span and its `route` label, the
    /// input values, the implementation. Control locks are taken here
    /// only — never while a shard is held.
    fn resolve_step<'a>(
        &self,
        run: &FlowRun<'a>,
        step: &'a StepSpec,
        stage_span: TraceContext,
    ) -> Result<(ResolvedStep<'a>, Vec<Value>), PlatformError> {
        // Cross-object steps (§II-B extension): dispatch is polymorphic
        // on the *target's* class.
        let (target, class) = match &step.target {
            None => (run.id, run.class.to_string()),
            Some(r) => {
                let resolved = DataflowSpec::resolve_ref_shared(r, &run.input, &run.outputs);
                let raw = resolved.as_u64().ok_or_else(|| {
                    PlatformError::Core(CoreError::InvalidDataflow {
                        dataflow: run.df.name.clone(),
                        reason: format!(
                            "step '{}' target resolved to {resolved}, not an object id",
                            step.id
                        ),
                    })
                })?;
                let target = ObjectId(raw);
                (target, self.object_class(target)?)
            }
        };
        let plan = run.plans.get(&class);
        let Some(dispatch) = plan.and_then(|p| p.functions.get(&step.function)) else {
            // Distinguish an unknown class from an unknown function on
            // a known class.
            self.registry.read().require_class(&class)?;
            return Err(PlatformError::Core(CoreError::UnknownFunction {
                class,
                function: step.function.clone(),
            }));
        };
        let plan = plan.expect("dispatch resolved through the plan");
        let span = if self.telemetry.is_enabled() {
            let s = self
                .telemetry
                .begin_child(stage_span, "dataflow.step", self.now());
            self.telemetry.attr(s, "step", step.id.as_str());
            self.telemetry.attr(s, "function", step.function.as_str());
            self.telemetry.attr(s, "target", target.as_u64());
            s
        } else {
            TraceContext::NONE
        };
        self.emit_route(&class, target, span);
        let inputs: Vec<Value> =
            DataflowSpec::resolve_inputs_shared(step, &run.input, &run.outputs)
                .into_iter()
                .map(Snapshot::into_value)
                .collect();
        let f = self
            .functions
            .read()
            .get(&dispatch.image)
            .ok_or_else(|| PlatformError::UnknownImage(dispatch.image.to_string()));
        if f.is_err() {
            self.end_span(span, &f);
        }
        let resolved = ResolvedStep {
            id: &step.id,
            target,
            class,
            call: ResolvedCall {
                plan,
                dispatch,
                f: f?,
            },
            span,
        };
        Ok((resolved, inputs))
    }

    /// Executes one fused same-object chain: one shard-lock hold, one
    /// state load, one presign set, and a *single* state commit after
    /// every step in the chain has run. Sound because the fusion pass
    /// only emits chains covering the complete set of surviving
    /// self-bound steps — no other step can observe this object's state
    /// mid-chain.
    fn run_fused_unit(
        &self,
        run: &mut FlowRun<'_>,
        steps: &[usize],
        stage_span: TraceContext,
    ) -> Result<(), PlatformError> {
        let (id, class, df) = (run.id, run.class, run.df);
        let plan = run.plans.get(class).expect("invoking class is planned");
        // Resolve every dispatch and implementation up front: control
        // locks are never taken while the shard is held.
        let mut chain: Vec<(&StepSpec, &DispatchPlan, FunctionImpl)> =
            Vec::with_capacity(steps.len());
        for &ix in steps {
            let step = &df.steps[ix];
            let Some(dispatch) = plan.functions.get(&step.function) else {
                return Err(PlatformError::Core(CoreError::UnknownFunction {
                    class: class.to_string(),
                    function: step.function.clone(),
                }));
            };
            let f = self
                .functions
                .read()
                .get(&dispatch.image)
                .ok_or_else(|| PlatformError::UnknownImage(dispatch.image.to_string()))?;
            chain.push((step, dispatch, f));
        }
        let fused_span = if self.telemetry.is_enabled() {
            let s = self
                .telemetry
                .begin_child(stage_span, "dataflow.fused", self.now());
            let ids: Vec<&str> = steps.iter().map(|&ix| df.steps[ix].id.as_str()).collect();
            self.telemetry.attr(s, "steps", steps.len() as u64);
            self.telemetry.attr(s, "chain", ids.join("→"));
            s
        } else {
            TraceContext::NONE
        };
        self.emit_route(class, id, fused_span);
        let out = self.run_chain(run, plan, &chain, fused_span);
        self.end_span(fused_span, &out);
        out
    }

    /// The shard-held body of a fused unit, under its `dataflow.fused`
    /// span: load, presign, run the chain against a private running
    /// state, commit once. A failing step returns before the commit, so
    /// the chain aborts as a whole and the stored record is untouched.
    fn run_chain(
        &self,
        run: &mut FlowRun<'_>,
        plan: &ClassPlan,
        chain: &[(&StepSpec, &DispatchPlan, FunctionImpl)],
        fused_span: TraceContext,
    ) -> Result<(), PlatformError> {
        let (id, class) = (run.id, run.class);
        let enabled = self.telemetry.is_enabled();
        let mut sh = self.shard(id).lock();
        let key = object_key(&sh, class, id);
        let mut state = self.load_state(&mut sh, &key, fused_span)?;
        let revision = sh.objects.get(&id).map_or(0, |e| e.revision);
        let file_urls = self.presign_traced(fused_span, class, id, &plan.file_keys)?;

        let mut patched = false;
        let mut files_written: Vec<(String, String)> = Vec::new();
        for (step, dispatch, f) in chain {
            let args: Vec<Value> =
                DataflowSpec::resolve_inputs_shared(step, &run.input, &run.outputs)
                    .into_iter()
                    .map(Snapshot::into_value)
                    .collect();
            let task = InvocationTask {
                task_id: self.next_task.fetch_add(1, Ordering::Relaxed),
                object: id,
                impl_class: dispatch.impl_class.to_string(),
                function: dispatch.function.to_string(),
                image: dispatch.image.to_string(),
                // The chain's running state: each step observes its
                // predecessor's patch without an intervening commit.
                state_in: state.clone(),
                state_revision: revision,
                args,
                file_urls: file_urls.clone(),
                trace: enabled.then_some(fused_span),
                idempotency_key: self.next_invocation.fetch_add(1, Ordering::Relaxed),
            };
            let exec_span = self.begin_execute_span(&task, fused_span);
            let result = call_function(f, &task);
            // The step's handle on the running state goes before its
            // patch is merged, so the chain copies at most once: the
            // first patch detaches `state` from the committed version
            // (which stays untouched until the commit), later ones
            // merge in place.
            drop(task);
            self.end_span(exec_span, &result);
            let result = result?;
            if let Some(patch) = &result.state_patch {
                merge_patch(state.make_mut(), patch);
                patched = true;
            }
            files_written.extend(result.files_written);
            run.outputs
                .insert(step.id.clone(), Snapshot::from(result.output));
        }

        // One commit for the whole chain.
        let now = self.now();
        let commit_span = if enabled {
            let s = self.telemetry.begin_child(fused_span, "state.commit", now);
            self.telemetry.attr(s, "patched", patched);
            self.telemetry
                .attr(s, "files_written", files_written.len() as u64);
            self.telemetry.attr(s, "fused", true);
            s
        } else {
            TraceContext::NONE
        };
        if patched {
            sh.state.store_traced(
                now,
                &key,
                state,
                plan.persists,
                &self.telemetry,
                commit_span,
            );
            if let Some(entry) = sh.objects.get_mut(&id) {
                entry.revision += 1;
            }
        }
        if !files_written.is_empty() {
            if let Some(entry) = sh.objects.get_mut(&id) {
                record_files(entry, id, files_written.iter().map(|(k, etag)| (k, etag)));
                entry.revision += 1;
            }
        }
        self.telemetry.end(commit_span, self.now());
        drop(sh);
        self.metrics.record_commit();
        self.metrics.record_fused_unit();
        Ok(())
    }
}

impl DispatchPlan {
    /// The function's estimated execute time in ns, `None` until a
    /// stage has executed it once.
    fn execute_estimate(&self) -> Option<u64> {
        let ns = self.execute_ns.load(Ordering::Relaxed);
        (ns != u64::MAX).then_some(ns)
    }

    /// Folds one measured execute into the estimate (EWMA, weight ¼).
    /// Lanes of one stage racing here may lose a sample; an estimate
    /// needs no more.
    fn record_execute(&self, ns: u64) {
        let next = self
            .execute_estimate()
            .map_or(ns, |prev| prev - prev / 4 + ns / 4);
        // `u64::MAX` is reserved for "not measured".
        self.execute_ns
            .store(next.min(u64::MAX - 1), Ordering::Relaxed);
    }
}

/// Whether a stage's lanes pay for their handoffs. Run serially the
/// stage costs the sum of its steps' execute times; run in parallel, its
/// longest step plus one [`HANDOFF_NS`] per lane handed off. A step
/// with no estimate yet counts as expensive, so a function's first
/// stage still runs in parallel. A one-step stage has nothing to hand
/// off.
fn handoff_pays(steps: &[ResolvedStep<'_>]) -> bool {
    if steps.len() < 2 {
        return false;
    }
    let (mut sum, mut max) = (0_u64, 0_u64);
    for step in steps {
        let Some(ns) = step.call.dispatch.execute_estimate() else {
            return true;
        };
        sum = sum.saturating_add(ns);
        max = max.max(ns);
    }
    sum - max >= (steps.len() as u64 - 1) * HANDOFF_NS
}

/// Executes one stage task, on whichever thread the stage chose, and
/// folds its wall time into the function's estimate. A panic in the
/// function fails the step (see [`call_function`]) instead of
/// unwinding into the engine, so the outcome is the same on every
/// thread.
fn execute(
    dispatch: &DispatchPlan,
    f: &FunctionImpl,
    task: &InvocationTask,
) -> Result<TaskResult, PlatformError> {
    let started = Instant::now();
    let out = call_function(f, task);
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    dispatch.record_execute(ns);
    out
}
