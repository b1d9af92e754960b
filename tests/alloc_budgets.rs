//! Integration: exact allocation budgets of the invocation hot path.
//!
//! What an invoke allocates is fixed by the code path it takes, not by
//! the machine, so these budgets are exact counts checked in the debug
//! profile like any other test. They catch the regressions a timing
//! cannot state exactly:
//!
//! - a warm invoke on a 64-field state costs what its task and patch
//!   cost, not a copy of the state (≈ 600 allocations at commit);
//! - a retry attempt re-runs the one saved task, it does not deep-clone
//!   the task or its state snapshot per attempt;
//! - a batch item runs out of the batch's scratch arena and merges in
//!   place, so per-item counts stay in the tens;
//! - a warm flow of cheap steps runs its stages on the calling thread
//!   and pays for no thread spawn.
//!
//! The global allocator forwards to `System` and counts per thread:
//! every measured call runs on the test's own thread (direct invokes,
//! single-object batches and warm cheap flows spawn none), so libtest
//! running other tests in parallel cannot pollute a count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oprc_chaos::{FaultKind, FaultPlan, InjectionSite};
use oprc_core::invocation::TaskResult;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_value::{vjson, Value};

/// Forwards every call to `System`, counting allocations and
/// reallocations made by the calling thread.
struct CountingAllocator;

thread_local! {
    /// Const-initialised and drop-free, so reading it never allocates
    /// and never needs a destructor: safe to touch inside the allocator.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a statistic and never influences what is allocated or freed.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Allocations of one warm invoke on the 64-field state, as measured.
/// The commit mutates the record in place under the shard lock, so the
/// count tracks the task and the patch, not the state (604 with a copy
/// per commit); an untraced invoke labels no `route` span (11 when it
/// still formatted the id for the instance ring).
const WARM_ALLOC_BUDGET: u64 = 10;

/// Allocations each retry attempt beyond the first may add on top of
/// the single-attempt control. Deep-cloning the task per attempt cost
/// 593 each on this state; executing the one saved task by reference
/// costs 3.
const RETRY_EXTRA_ATTEMPT_ALLOC_BUDGET: u64 = 160;

/// Allocations per item of a one-object batch of 64, as measured.
const BATCH64_ALLOC_BUDGET: u64 = 10;

/// Allocations per warm flow of two stages, two cheap lanes each, on a
/// stateless class, as measured; a thread spawn per wide stage would
/// add to it.
const FLOW_ALLOC_BUDGET: u64 = 41;

const SEED: u64 = 42;
/// Attempts the availability-0.999 tier arms.
const STORM_ATTEMPTS: u64 = 5;
/// Measured invokes (batch items) of the warm and batch cases, and of
/// each retry case. A direct-invoke case first warms up with an eighth
/// as many, the batch case with eight batches.
const OPS: u64 = 512;
const RETRY_OPS: u64 = 64;

/// Runs `op` `ops` times and returns this thread's allocations per op
/// (rounded down).
fn allocs_per_op(ops: u64, mut op: impl FnMut()) -> u64 {
    let before = ALLOCS.with(Cell::get);
    for _ in 0..ops {
        op();
    }
    (ALLOCS.with(Cell::get) - before) / ops
}

/// A hot-object state: 64 nested fields plus the counter, so any copy
/// of the whole state shows up as hundreds of allocations.
fn big_state() -> Value {
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

/// A platform with one counter class `class`, whose YAML carries the
/// extra `attrs` lines.
fn platform(class: &str, attrs: &str) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/hot-incr", |task| {
        let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
    });
    p.deploy_yaml(&format!(
        "
classes:
  - name: {class}
{attrs}
    functions:
      - name: incr
        image: img/hot-incr
"
    ))
    .expect("counter class deploys");
    p
}

/// A platform with the plain (single-attempt) hot class.
fn hot_platform() -> EmbeddedPlatform {
    platform("Hot", "    keySpecs: [count]")
}

/// A platform whose class earns the 5-attempt retry tier.
fn storm_platform() -> EmbeddedPlatform {
    platform("Stormy", "    qos:\n      availability: 0.999")
}

/// Allocations per invoke on a warm object of `p`'s class `class`,
/// after `warmup` unmeasured invokes.
fn warm_invoke_allocs(p: &EmbeddedPlatform, class: &str, warmup: u64, ops: u64) -> u64 {
    let id = p.create_object(class, big_state()).expect("creates");
    for _ in 0..warmup {
        p.invoke(id, "incr", vec![]).expect("warms up");
    }
    allocs_per_op(ops, || {
        p.invoke(id, "incr", vec![]).expect("invoke succeeds");
    })
}

#[test]
fn warm_invoke_does_not_copy_the_state() {
    let p = hot_platform();
    let allocs = warm_invoke_allocs(&p, "Hot", OPS / 8, OPS);
    assert!(
        allocs <= WARM_ALLOC_BUDGET,
        "warm invoke costs {allocs} allocs/op (budget {WARM_ALLOC_BUDGET}): \
         the commit is copying the object state"
    );
}

#[test]
fn retry_attempts_do_not_clone_the_task() {
    let warmup = RETRY_OPS / 8;

    // Control: chaos armed (the same code path as the storm) but
    // nothing scripted, so every invocation succeeds on attempt 1.
    let mut p = storm_platform();
    p.enable_chaos(FaultPlan::new(SEED));
    let single = warm_invoke_allocs(&p, "Stormy", warmup, RETRY_OPS);

    // Storm: `engine.execute` fails the first four attempts of every
    // invocation and the fifth succeeds. Backoffs run on the virtual
    // chaos clock, so nothing sleeps.
    let mut p = storm_platform();
    let mut plan = FaultPlan::new(SEED);
    for op in 0..warmup + RETRY_OPS {
        for attempt in 0..STORM_ATTEMPTS - 1 {
            plan = plan.script(
                InjectionSite::EngineExecute,
                op * STORM_ATTEMPTS + attempt,
                FaultKind::Error,
            );
        }
    }
    p.enable_chaos(plan);
    let storm = warm_invoke_allocs(&p, "Stormy", warmup, RETRY_OPS);
    assert_eq!(
        p.metrics().retries_total(),
        (warmup + RETRY_OPS) * (STORM_ATTEMPTS - 1),
        "every storm invocation retried four times"
    );

    let extra = storm.saturating_sub(single).div_ceil(STORM_ATTEMPTS - 1);
    assert!(
        extra <= RETRY_EXTRA_ATTEMPT_ALLOC_BUDGET,
        "retry storm costs {extra} allocations per extra attempt \
         (budget {RETRY_EXTRA_ATTEMPT_ALLOC_BUDGET}): \
         state snapshots are being deep-cloned per attempt"
    );
}

#[test]
fn batch_items_run_out_of_the_arena() {
    const SIZE: u64 = 64;
    let p = hot_platform();
    let id = p.create_object("Hot", big_state()).expect("creates");
    let batch = || -> Vec<BatchItem> {
        (0..SIZE)
            .map(|_| BatchItem::new(id, "incr", vec![]))
            .collect()
    };
    for _ in 0..8 {
        for r in p.invoke_batch(batch()) {
            r.expect("warms up");
        }
    }
    let per_batch = allocs_per_op(OPS / SIZE, || {
        for r in p.invoke_batch(batch()) {
            r.expect("batch item succeeds");
        }
    });
    let per_item = per_batch / SIZE;
    assert!(
        per_item <= BATCH64_ALLOC_BUDGET,
        "warm batch=64 costs {per_item} allocs/item (budget {BATCH64_ALLOC_BUDGET}): \
         the batch path is allocating per item instead of per group"
    );
}

#[test]
fn warm_cheap_flow_spawns_no_thread() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/one", |_| Ok(TaskResult::output(1)));
    p.deploy_yaml(
        "
classes:
  - name: Lanes
    functions:
      - name: one
        image: img/one
    dataflows:
      - name: square
        output: c
        steps:
          - id: a
            function: one
          - id: b
            function: one
          - id: c
            function: one
            inputs: [\"step:a\", \"step:b\"]
          - id: d
            function: one
            inputs: [\"step:a\", \"step:b\"]
",
    )
    .expect("Lanes deploys");
    let id = p.create_object("Lanes", vjson!({})).expect("creates");
    for _ in 0..OPS / 8 {
        p.invoke(id, "square", vec![]).expect("warms up");
    }
    let allocs = allocs_per_op(OPS, || {
        p.invoke(id, "square", vec![]).expect("flow succeeds");
    });
    assert!(
        allocs <= FLOW_ALLOC_BUDGET,
        "warm cheap flow costs {allocs} allocs/op (budget {FLOW_ALLOC_BUDGET}): \
         its stages are handing cheap lanes to other threads"
    );
}
