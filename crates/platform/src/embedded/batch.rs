//! The batched invocation path: shard-grouped `invoke_batch`
//! (DESIGN.md §16).
//!
//! The paper's DHT layer exists to *consolidate batch write operations*
//! (§IV, Fig. 3); this module is the invocation-plane substrate that
//! claim rests on. A batch is grouped by **(owner node, state shard)**:
//! each group runs its whole load→execute→commit loop under a
//! **single** shard-lock hold, and every object a group touches is
//! committed **once** — so a write-behind flush window sees one entry
//! per object per group instead of one per invocation. On a single-node
//! plane the node key is constant and grouping degenerates to the
//! per-shard layout: one directory peek plus one execution hold per
//! shard (exactly two lock acquisitions). On a multi-node plane each
//! (node, shard) pair is its own group — the logical node-local shard —
//! and a group executing away from its partition owner takes the
//! owner's transport once around the whole hold, amortizing the
//! state-shipping channel across the group's items. A per-batch scratch
//! arena (the running snapshots plus one reusable task shell, reset
//! between groups) keeps the steady-state per-item allocation count in
//! the single digits for batch ≥ 16.
//!
//! Lock-order interaction with the §12 tiers (Control ≺ Shard ≺ Leaf):
//! classes are read in a short per-group directory peek, all
//! control-plane resolution (plans, function registry, routing) happens
//! strictly *before* the group's execution hold, and only leaf locks
//! (breakers, metric stripes) are taken under it. Groups execute one
//! shard at a time, honouring the one-shard-at-a-time rule.
//!
//! An item runs under the direct path's policy by construction, not by
//! copy: it resolves through [`EmbeddedPlatform::resolve_call`], retries
//! through [`EmbeddedPlatform::retry_loop`] and shares the object-side
//! steps (`load_state`, `presign_urls`, `record_files`). Only what an
//! attempt *is* differs: the arena's task shell, merged into its group.
//!
//! Pinned chaos behavior: with fault injection armed — or when any item
//! names a dataflow — the whole batch degrades to sequential
//! [`EmbeddedPlatform::invoke`] calls in submission order. Fault
//! schedules are consumed in per-site program order, so the grouped
//! path's reordering would change replay; degrading keeps a seeded
//! chaos run byte-identical to the sequential plane and makes
//! batch ≡ sequential equivalence exact by construction.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use oprc_core::invocation::{InvocationTask, TaskResult};
use oprc_core::object::ObjectId;
use oprc_telemetry::TraceContext;
use oprc_value::{Snapshot, Value};

use crate::PlatformError;

use super::shard::{shard_index, Shard};
use super::state::StateLayer;
use super::{merge_patch, object_key, record_files, EmbeddedPlatform, PlanTable, ResolvedCall};

/// One invocation in an [`EmbeddedPlatform::invoke_batch`] call.
#[derive(Debug, Clone)]
pub struct BatchItem {
    /// Target object.
    pub id: ObjectId,
    /// Function to invoke. An item naming a dataflow sends the whole
    /// batch down the sequential path (a flow may span shards, which
    /// must never happen under a held shard lock).
    pub function: String,
    /// Invocation arguments.
    pub args: Vec<Value>,
}

impl BatchItem {
    /// Convenience constructor.
    pub fn new(id: ObjectId, function: impl Into<String>, args: Vec<Value>) -> Self {
        BatchItem {
            id,
            function: function.into(),
            args,
        }
    }
}

/// A batch item resolved against one consistent plan snapshot:
/// everything the group runner needs without touching a control lock.
struct ResolvedItem<'a> {
    id: ObjectId,
    class: String,
    call: ResolvedCall<'a>,
}

/// Per-batch scratch: the group runner's working set. Reset between
/// groups with capacity retained, so steady-state items allocate close
/// to nothing.
#[derive(Default)]
struct BatchArena {
    /// Running state per object touched by the current group, in
    /// first-touch order. Groups are small: linear scans beat maps.
    objects: Vec<GroupObject>,
    /// The reusable task shell, rebuilt in place per item: dispatch
    /// strings keep their capacity across items, so a homogeneous
    /// group re-allocates none of them.
    task: Option<InvocationTask>,
}

/// One object's running state within a shard group: loaded on first
/// touch, re-pointed at the record after each item that patched it
/// ([`apply_to_group`]), stored — counted and offered — once at
/// group commit.
struct GroupObject {
    id: ObjectId,
    key: Arc<str>,
    state: Snapshot,
    /// Directory revision when loaded.
    revision: u64,
    /// Revision bumps accumulated by this group's items (mirrors the
    /// sequential path: +1 per patch, +1 per file-writing result).
    bumps: u64,
    /// Whether any item patched the state (the store trigger).
    dirty: bool,
    persists: bool,
    files_written: Vec<(String, String)>,
    /// Presigned file URLs, built once per object per group.
    file_urls: BTreeMap<String, String>,
}

impl EmbeddedPlatform {
    /// Invokes a batch of methods, grouped by state shard (DESIGN.md
    /// §16; the §IV batch-consolidation claim).
    ///
    /// Items are grouped by their target's shard; each group's
    /// load→execute→commit loop runs under a single shard-lock hold,
    /// and every object the group touched is committed once — later
    /// items targeting the same object observe their predecessors'
    /// patches, and items on the same object execute in submission
    /// order. Results come back in submission order, one slot per item.
    ///
    /// Pinned behavior: with chaos armed, or when any item names a
    /// dataflow, the whole batch degrades to sequential
    /// [`EmbeddedPlatform::invoke`] calls in submission order (see the
    /// module docs for why).
    pub fn invoke_batch(&self, items: Vec<BatchItem>) -> Vec<Result<TaskResult, PlatformError>> {
        if items.is_empty() {
            return Vec::new();
        }
        let started = self.now();
        if self.chaos.is_enabled() {
            return self.invoke_batch_sequential(items);
        }
        // Group slots by (owner node, shard) in first-touch order;
        // slots stay in submission order inside each group. The node
        // key comes from one partition-map snapshot for the whole
        // batch, so a concurrent migration never tears the grouping.
        let shard_count = self.shards.len();
        let table = Arc::clone(&self.nodes.read());
        let mut groups: Vec<((u64, usize), Vec<usize>)> = Vec::new();
        for (slot, item) in items.iter().enumerate() {
            let gx = (
                table.map.owner_of_object(item.id.as_u64()),
                shard_index(item.id, shard_count),
            );
            match groups.iter_mut().find(|(g, _)| *g == gx) {
                Some((_, slots)) => slots.push(slot),
                None => groups.push((gx, vec![slot])),
            }
        }
        // Directory peek: one short lock acquisition per distinct shard
        // to read target classes (groups on different nodes may share a
        // physical shard in this shared-address model). Never overlaps
        // another shard hold (§12's one-shard-at-a-time rule), and
        // never overlaps a control lock.
        let mut shards_touched: Vec<usize> = Vec::new();
        for ((_, sx), _) in &groups {
            if !shards_touched.contains(sx) {
                shards_touched.push(*sx);
            }
        }
        let mut classes: Vec<Option<String>> = vec![None; items.len()];
        for &sx in &shards_touched {
            let sh = self.shards[sx].lock();
            for ((_, gsx), slots) in &groups {
                if *gsx != sx {
                    continue;
                }
                for &slot in slots {
                    classes[slot] = sh.objects.get(&items[slot].id).map(|e| e.class.clone());
                }
            }
        }
        // Off-lock resolution against one consistent plan snapshot.
        let plans: Arc<PlanTable> = Arc::clone(&self.plans.read());
        for (slot, item) in items.iter().enumerate() {
            if let Some(class) = &classes[slot] {
                if plans
                    .get(class)
                    .is_some_and(|p| p.dataflows.contains_key(&item.function))
                {
                    return self.invoke_batch_sequential(items);
                }
            }
        }
        // Items that cannot execute get their error slotted here.
        let mut results: Vec<Option<Result<TaskResult, PlatformError>>> =
            Vec::with_capacity(items.len());
        let mut resolved: Vec<Option<ResolvedItem<'_>>> = Vec::with_capacity(items.len());
        {
            let functions = self.functions.read();
            for (item, class) in items.iter().zip(classes) {
                let call = class
                    .ok_or(PlatformError::UnknownObject(item.id.as_u64()))
                    .and_then(|class| {
                        let plan = plans.get(&class);
                        let call =
                            self.resolve_call(&class, &item.function, plan, &functions, started)?;
                        Ok(ResolvedItem {
                            id: item.id,
                            class,
                            call,
                        })
                    });
                let (call, miss) = match call {
                    Ok(call) => (Some(call), None),
                    Err(e) => (None, Some(Err(e))),
                };
                resolved.push(call);
                results.push(miss);
            }
        }
        let enabled = self.telemetry.is_enabled();
        let root = if enabled {
            let root = self.telemetry.begin_root("invoke.batch", started);
            self.telemetry.attr(root, "size", items.len() as u64);
            self.telemetry
                .attr(root, "shards", shards_touched.len() as u64);
            self.telemetry.attr(root, "groups", groups.len() as u64);
            root
        } else {
            TraceContext::NONE
        };
        let mut items = items;
        let mut arena = BatchArena::default();
        for ((_, sx), slots) in &groups {
            let group_span = if enabled {
                let s = self
                    .telemetry
                    .begin_child(root, "invoke.batch.group", self.now());
                self.telemetry.attr(s, "shard", *sx as u64);
                self.telemetry.attr(s, "items", slots.len() as u64);
                s
            } else {
                TraceContext::NONE
            };
            // Routing consults the control-plane runtimes lock, so it
            // runs per item *before* the group's shard hold. The node
            // hop is decided once per group, from the first resolved
            // item's locality flag: every item in the group shares the
            // same owner node by construction.
            let mut hop = None;
            for &slot in slots {
                if let Some(r) = &resolved[slot] {
                    let locality = self.route(&r.class, r.id, group_span);
                    if hop.is_none() {
                        hop = Some(self.node_hop(r.id, locality));
                    }
                }
            }
            let hop = match hop {
                Some(h) => h,
                // No item in this group resolved; the hop is never
                // consulted past the commit no-op below.
                None => self.node_hop(items[slots[0]].id, true),
            };
            if enabled && hop.multi {
                self.telemetry.attr(group_span, "node", hop.executing);
                self.telemetry.attr(
                    group_span,
                    "node_kind",
                    if hop.remote { "remote" } else { "local" },
                );
            }
            let mut sh = self.shards[*sx].lock();
            // A group executing away from its owner holds the owner's
            // transport channel (Leaf, under the shard hold) across the
            // whole group: one shipping round-trip amortized over the
            // group's items.
            let _transport = hop.remote.then(|| hop.owner_state.transport.lock());
            for &slot in slots {
                let Some(r) = resolved[slot].as_ref() else {
                    continue;
                };
                hop.count();
                let args = std::mem::take(&mut items[slot].args);
                let item_started = self.now();
                // Each item is a child span of its group: under a
                // single worker the child ids are allocated in
                // submission order, so per-item ids are deterministic.
                let item_span = if enabled {
                    let s =
                        self.telemetry
                            .begin_child(group_span, "invoke.batch.item", item_started);
                    self.telemetry.attr(s, "object", r.id.as_u64());
                    self.telemetry
                        .attr(s, "function", &*r.call.dispatch.function);
                    s
                } else {
                    TraceContext::NONE
                };
                let out = self.run_batch_item(&mut sh, &mut arena, r, args, item_span, hop.remote);
                if enabled {
                    match &out {
                        Ok(_) => self.telemetry.attr(item_span, "outcome", "ok"),
                        Err(e) => self
                            .telemetry
                            .attr(item_span, "outcome", format!("error: {e}")),
                    }
                    self.telemetry.end(item_span, self.now());
                }
                self.record(&r.class, &r.call.dispatch.function, item_started, &out);
                results[slot] = Some(out);
            }
            // Merged commit: each object this group touched is stored
            // once, no matter how many items patched it.
            self.commit_group(&mut sh, &mut arena, group_span);
            drop(sh);
            if enabled {
                self.telemetry.end(group_span, self.now());
            }
        }
        self.metrics
            .record_batch(items.len() as u64, groups.len() as u64);
        if enabled {
            self.telemetry.end(root, self.now());
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot resolved or executed"))
            .collect()
    }

    /// The multi-tenant batch entry point: charges one admission token
    /// per item *before* any control-plane or shard lock is taken.
    /// Rejected items fail with [`PlatformError::AdmissionRejected`] in
    /// their slot; admitted items proceed through
    /// [`EmbeddedPlatform::invoke_batch`]. Each admitted item's outcome
    /// feeds the per-tenant metric series (latency attributed as the
    /// whole batch's elapsed time — the batch is the unit the tenant
    /// waited on).
    pub fn invoke_batch_as(
        &self,
        tenant: &str,
        items: Vec<BatchItem>,
    ) -> Vec<Result<TaskResult, PlatformError>> {
        let started = self.now();
        let mut results: Vec<Option<Result<TaskResult, PlatformError>>> =
            items.iter().map(|_| None).collect();
        let mut admitted: Vec<BatchItem> = Vec::with_capacity(items.len());
        let mut admitted_slots: Vec<usize> = Vec::with_capacity(items.len());
        for (slot, item) in items.into_iter().enumerate() {
            let ok = self
                .admission
                .as_ref()
                .is_none_or(|a| a.admit(tenant, started));
            if ok {
                admitted_slots.push(slot);
                admitted.push(item);
            } else {
                self.metrics.record_tenant_rejection(tenant);
                results[slot] = Some(Err(PlatformError::AdmissionRejected {
                    tenant: tenant.to_string(),
                }));
            }
        }
        let outs = self.invoke_batch(admitted);
        let now = self.now();
        let latency = now - started;
        for (slot, out) in admitted_slots.into_iter().zip(outs) {
            self.metrics
                .record_tenant(tenant, now, latency, out.is_ok());
            results[slot] = Some(out);
        }
        results
            .into_iter()
            .map(|r| r.expect("admitted or rejected"))
            .collect()
    }

    /// The pinned degraded mode: every item through the sequential
    /// plane, in submission order.
    fn invoke_batch_sequential(
        &self,
        items: Vec<BatchItem>,
    ) -> Vec<Result<TaskResult, PlatformError>> {
        items
            .into_iter()
            .map(|it| self.invoke(it.id, &it.function, it.args))
            .collect()
    }

    /// Runs one item under the group's held shard lock, with the policy
    /// semantics of [`EmbeddedPlatform::invoke_with_retry`] — breaker
    /// gate, then [`EmbeddedPlatform::retry_loop`] — over a different
    /// attempt: the arena's task shell re-executed in place, a patch
    /// merged into the record at once ([`apply_to_group`]), the counted
    /// store deferred to the group commit.
    /// The committed-map/torn-ack machinery is not needed here: torn
    /// outcomes only exist under chaos, and chaos pins the batch to the
    /// sequential path.
    fn run_batch_item(
        &self,
        sh: &mut Shard,
        arena: &mut BatchArena,
        r: &ResolvedItem<'_>,
        args: Vec<Value>,
        parent: TraceContext,
        remote: bool,
    ) -> Result<TaskResult, PlatformError> {
        let (dispatch, policy) = (r.call.dispatch, &r.call.plan.retry);
        let function: &str = &dispatch.function;
        // Breakers are leaf-tier: taking them under the shard hold is
        // the sanctioned §12 order (Control ≺ Shard ≺ Leaf).
        self.breaker_admit(&r.class, function, &dispatch.breaker_key, policy)?;
        let ikey = self.next_invocation.fetch_add(1, Ordering::Relaxed);
        let ox = self.group_object(sh, arena, r, parent, remote)?;
        let enabled = self.telemetry.is_enabled();
        self.shape_task(arena, ox, r, args, ikey, parent, enabled);
        let out = self.retry_loop(&r.class, dispatch, policy, ikey, parent, |_| {
            let task = arena.task.as_mut().expect("shaped above");
            let exec_span = self.begin_execute_span(task, parent);
            let result = (r.call.f)(&*task).map_err(PlatformError::from);
            self.end_span(exec_span, &result);
            let out = result?;
            // Release the task shell's ref on the running snapshot so
            // the merge mutates it in place instead of deep-cloning.
            task.state_in = Snapshot::default();
            apply_to_group(&mut sh.state, &mut arena.objects[ox], &out);
            Ok(out)
        });
        self.breaker_settle(&r.class, function, &dispatch.breaker_key, out.is_ok());
        out
    }

    /// Finds or creates the group's running state for `r`'s object:
    /// first touch loads from the shard's storage stack (and presigns
    /// file URLs once); later items reuse the in-arena snapshot. For a
    /// `remote` group the first touch also ships the state across the
    /// node boundary — the executing node materializes its own deep
    /// copy, once per object per group.
    fn group_object(
        &self,
        sh: &mut Shard,
        arena: &mut BatchArena,
        r: &ResolvedItem<'_>,
        parent: TraceContext,
        remote: bool,
    ) -> Result<usize, PlatformError> {
        if let Some(ix) = arena.objects.iter().position(|o| o.id == r.id) {
            return Ok(ix);
        }
        let key = object_key(sh, &r.class, r.id);
        let state = self.load_state(sh, &key, parent)?;
        let state = if remote {
            // Function shipping: copy the owner's state onto the
            // executing node (under the group's transport hold).
            Snapshot::from(state.value().clone())
        } else {
            state
        };
        let revision = sh.objects.get(&r.id).map_or(0, |e| e.revision);
        let file_urls = self.presign_urls(&r.class, r.id, &r.call.plan.file_keys)?;
        arena.objects.push(GroupObject {
            id: r.id,
            key,
            state,
            revision,
            bumps: 0,
            dirty: false,
            persists: r.call.plan.persists,
            files_written: Vec::new(),
            file_urls,
        });
        Ok(arena.objects.len() - 1)
    }

    /// (Re)shapes the arena's reusable task shell for one item. The
    /// dispatch strings are rewritten only when they changed, so a
    /// homogeneous group allocates none of them after the first item.
    #[allow(clippy::too_many_arguments)]
    fn shape_task(
        &self,
        arena: &mut BatchArena,
        ox: usize,
        r: &ResolvedItem<'_>,
        args: Vec<Value>,
        ikey: u64,
        parent: TraceContext,
        enabled: bool,
    ) {
        let obj = &arena.objects[ox];
        let task_id = self.next_task.fetch_add(1, Ordering::Relaxed);
        match &mut arena.task {
            Some(task) => {
                task.task_id = task_id;
                task.object = r.id;
                set_str(&mut task.impl_class, &r.call.dispatch.impl_class);
                set_str(&mut task.function, &r.call.dispatch.function);
                set_str(&mut task.image, &r.call.dispatch.image);
                task.state_in = obj.state.clone();
                task.state_revision = obj.revision + obj.bumps;
                task.args = args;
                task.file_urls.clear();
                task.file_urls
                    .extend(obj.file_urls.iter().map(|(k, v)| (k.clone(), v.clone())));
                task.trace = enabled.then_some(parent);
                task.idempotency_key = ikey;
            }
            None => {
                arena.task = Some(InvocationTask {
                    task_id,
                    object: r.id,
                    impl_class: r.call.dispatch.impl_class.to_string(),
                    function: r.call.dispatch.function.to_string(),
                    image: r.call.dispatch.image.to_string(),
                    state_in: obj.state.clone(),
                    state_revision: obj.revision + obj.bumps,
                    args,
                    file_urls: obj.file_urls.clone(),
                    trace: enabled.then_some(parent),
                    idempotency_key: ikey,
                });
            }
        }
    }

    /// The merged group commit: every touched object stored once (when
    /// dirty), file refs and revision bumps applied, and the arena
    /// drained for the next group (capacity retained).
    fn commit_group(&self, sh: &mut Shard, arena: &mut BatchArena, group_span: TraceContext) {
        let enabled = self.telemetry.is_enabled();
        let now = self.now();
        let dirty = arena
            .objects
            .iter()
            .filter(|o| o.dirty || !o.files_written.is_empty())
            .count();
        let commit_span = if enabled && dirty > 0 {
            let s = self.telemetry.begin_child(group_span, "state.commit", now);
            self.telemetry.attr(s, "objects", dirty as u64);
            self.telemetry.attr(s, "merged", true);
            s
        } else {
            TraceContext::NONE
        };
        let sink = self.telemetry.clone();
        for obj in arena.objects.drain(..) {
            if obj.dirty {
                sh.state
                    .store_traced(now, &obj.key, obj.state, obj.persists, &sink, commit_span);
                self.metrics.record_commit();
            }
            if !obj.files_written.is_empty() {
                if let Some(entry) = sh.objects.get_mut(&obj.id) {
                    let files = obj.files_written.iter().map(|(k, etag)| (k, etag));
                    record_files(entry, obj.id, files);
                }
            }
            if obj.bumps > 0 {
                if let Some(entry) = sh.objects.get_mut(&obj.id) {
                    entry.revision += obj.bumps;
                }
            }
        }
        if !commit_span.is_none() {
            self.telemetry.end(commit_span, self.now());
        }
        // The task shell survives for the next group, but must not pin
        // snapshots or arguments across it.
        if let Some(task) = arena.task.as_mut() {
            task.state_in = Snapshot::default();
            task.args.clear();
            task.file_urls.clear();
        }
    }
}

/// Applies one successful result to the group's running object state
/// (the deferred-store half of the sequential `apply_result`).
///
/// The patch is merged into the record where it lives, per item: the
/// arena hands its own handle to [`StateLayer::modify`], which copies
/// only for handles the platform does not own (and continues from the
/// arena's running state when the tiers hold no record), and the tiers
/// are re-filled before the next item's function runs — a record is
/// never checked out across user code. The counted store (and the
/// revision bumps) stay in [`EmbeddedPlatform::commit_group`]; if a
/// later function in the group panics, the patches already merged stay
/// visible in memory without that store (DESIGN.md §11).
fn apply_to_group(layer: &mut StateLayer, obj: &mut GroupObject, out: &TaskResult) {
    if let Some(patch) = &out.state_patch {
        let held = std::mem::take(&mut obj.state);
        obj.state = layer.modify(&obj.key, held, |state| merge_patch(state, patch));
        obj.dirty = true;
        obj.bumps += 1;
    }
    if !out.files_written.is_empty() {
        obj.files_written.extend(
            out.files_written
                .iter()
                .map(|(k, v)| (k.clone(), v.clone())),
        );
        obj.bumps += 1;
    }
}

/// Overwrites `dst` with `src` in place, reusing capacity.
fn set_str(dst: &mut String, src: &str) {
    if dst != src {
        dst.clear();
        dst.push_str(src);
    }
}
