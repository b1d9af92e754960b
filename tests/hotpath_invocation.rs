//! Integration: the invocation hot path's copy-on-write snapshots and
//! cached dispatch plans.
//!
//! The dispatch-plan cache is rebuilt wholesale on every deploy, so a
//! redeploy must be observed by the *next* invoke — including dispatch
//! rewired through inheritance — and copy-on-write state snapshots must
//! be observationally identical to deep clones: committing a patch can
//! never mutate a snapshot an in-flight task still holds.

use std::sync::{Arc, Mutex};

use oprc_chaos::{FaultKind, FaultPlan, InjectionSite};
use oprc_core::invocation::{TaskError, TaskResult};
use oprc_core::object::ObjectId;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_value::{merge, vjson, Snapshot, Value};
use proptest::prelude::*;

/// Redeploying a package with a changed `FunctionDef` image swaps the
/// cached dispatch plan: the next invoke runs the new implementation.
#[test]
fn redeploy_swaps_dispatch_plan_for_changed_function() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/v1", |_| Ok(TaskResult::output("v1")));
    p.register_function("img/v2", |_| Ok(TaskResult::output("v2")));
    p.deploy_yaml(
        "classes:\n  - name: C\n    functions:\n      - name: f\n        image: img/v1\n",
    )
    .unwrap();
    let id = p.create_object("C", vjson!({})).unwrap();
    assert_eq!(
        p.invoke(id, "f", vec![]).unwrap().output.as_str(),
        Some("v1")
    );
    // Upgrade: same package (default name), same class, new image.
    p.deploy_yaml(
        "classes:\n  - name: C\n    functions:\n      - name: f\n        image: img/v2\n",
    )
    .unwrap();
    assert_eq!(
        p.invoke(id, "f", vec![]).unwrap().output.as_str(),
        Some("v2"),
        "stale dispatch plan survived the redeploy"
    );
}

/// Redeploy rewires *inherited* dispatch too: adding an override on a
/// subclass must take effect for existing objects of that subclass even
/// though the subclass's own entry never changed image before.
#[test]
fn redeploy_rewires_inherited_dispatch() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/base", |_| Ok(TaskResult::output("base")));
    p.register_function("img/loud", |_| Ok(TaskResult::output("LOUD")));
    let v1 = "
classes:
  - name: Base
    functions:
      - name: greet
        image: img/base
  - name: Loud
    parent: Base
";
    p.deploy_yaml(v1).unwrap();
    let loud = p.create_object("Loud", vjson!({})).unwrap();
    assert_eq!(
        p.invoke(loud, "greet", vec![]).unwrap().output.as_str(),
        Some("base"),
        "no override yet: dispatch inherits Base's implementation"
    );
    // v2 adds an override on the subclass only.
    let v2 = "
classes:
  - name: Base
    functions:
      - name: greet
        image: img/base
  - name: Loud
    parent: Base
    functions:
      - name: greet
        image: img/loud
";
    p.deploy_yaml(v2).unwrap();
    assert_eq!(
        p.invoke(loud, "greet", vec![]).unwrap().output.as_str(),
        Some("LOUD"),
        "inherited dispatch plan not rewired by the redeploy"
    );
}

/// Redeploying a changed dataflow spec invalidates the cached
/// `Arc<DataflowSpec>`: the same platform observes the rewired flow.
#[test]
fn redeploy_swaps_cached_dataflow_spec() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/add1", |t| {
        Ok(TaskResult::output(t.args[0].as_i64().unwrap_or(0) + 1))
    });
    p.register_function("img/double", |t| {
        Ok(TaskResult::output(t.args[0].as_i64().unwrap_or(0) * 2))
    });
    let flow = |first: &str, second: &str| {
        format!(
            "
classes:
  - name: M
    functions:
      - name: add1
        image: img/add1
      - name: double
        image: img/double
    dataflows:
      - name: calc
        steps:
          - id: a
            function: {first}
            inputs: [input]
          - id: b
            function: {second}
            inputs: [\"step:a\"]
"
        )
    };
    p.deploy_yaml(&flow("add1", "double")).unwrap();
    let id = p.create_object("M", vjson!({})).unwrap();
    // (10 + 1) * 2
    assert_eq!(
        p.invoke(id, "calc", vec![vjson!(10)])
            .unwrap()
            .output
            .as_i64(),
        Some(22)
    );
    p.deploy_yaml(&flow("double", "add1")).unwrap();
    // 10 * 2 + 1 — the cached spec must not survive the redeploy.
    assert_eq!(
        p.invoke(id, "calc", vec![vjson!(10)])
            .unwrap()
            .output
            .as_i64(),
        Some(21)
    );
}

/// A platform whose `incr` captures every `state_in` it is handed (a
/// refcount bump — exactly what a still-in-flight shipment would hold)
/// and whose `chain` dataflow is a same-object `incr → incr → last`
/// chain the flow compiler fuses into one unit. `qos` is spliced into
/// the class definition.
fn capturing_platform(qos: &str, last: &str) -> (EmbeddedPlatform, Arc<Mutex<Vec<Snapshot>>>) {
    let captured: Arc<Mutex<Vec<Snapshot>>> = Arc::new(Mutex::new(Vec::new()));
    let cap = Arc::clone(&captured);
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/incr", move |task| {
        cap.lock().unwrap().push(task.state_in.clone());
        let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
    });
    p.register_function("img/boom", |_| Err(TaskError::Application("boom".into())));
    p.deploy_yaml(&format!(
        "
classes:
  - name: K
{qos}    keySpecs: [count]
    functions:
      - name: incr
        image: img/incr
      - name: boom
        image: img/boom
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
            function: {last}
            inputs: [\"step:b\"]
"
    ))
    .unwrap();
    (p, captured)
}

const RETRYING: &str = "    qos:\n      availability: 0.99\n";

/// A committed state patch never mutates the snapshot an in-flight (or
/// captured) task still holds: commits mutate the record in place only
/// while the platform's own tiers are its sole holders, and copy on
/// write for everybody else — on the direct path, the grouped batch
/// path, a fused chain and under a multi-attempt retry policy alike.
#[test]
fn committed_state_does_not_alias_task_snapshot() {
    type Drive = fn(&EmbeddedPlatform, ObjectId);
    let thrice: Drive = |p, id| {
        for expect in 1..=3 {
            let out = p.invoke(id, "incr", vec![]).unwrap();
            assert_eq!(out.output.as_i64(), Some(expect));
        }
    };
    let batch: Drive = |p, id| {
        let items = (0..3).map(|_| BatchItem::new(id, "incr", vec![])).collect();
        for (out, expect) in p.invoke_batch(items).into_iter().zip(1..) {
            assert_eq!(out.unwrap().output.as_i64(), Some(expect));
        }
    };
    let chain: Drive = |p, id| {
        assert_eq!(
            p.invoke(id, "chain", vec![]).unwrap().output.as_i64(),
            Some(3)
        );
        assert_eq!(p.metrics().fused_units_total(), 1, "the chain ran fused");
    };
    for (path, qos, drive) in [
        ("invoke", "", thrice),
        ("invoke_batch", "", batch),
        ("fused chain", "", chain),
        ("max_attempts > 1", RETRYING, thrice),
    ] {
        let (p, captured) = capturing_platform(qos, "incr");
        let id = p.create_object("K", vjson!({"count": 0})).unwrap();
        drive(&p, id);
        assert_eq!(
            p.get_state(id).unwrap()["count"].as_i64(),
            Some(3),
            "{path}"
        );
        // Every captured snapshot still shows the state *its* execution
        // saw; no commit wrote through a handle somebody else held.
        let snaps = captured.lock().unwrap();
        let seen: Vec<_> = snaps.iter().map(|s| s["count"].as_i64()).collect();
        assert_eq!(seen, [Some(0), Some(1), Some(2)], "{path}");
    }
}

/// A torn `state.commit` keeps the saved task's `state_in`: the retry
/// re-executes on the state the first execution saw (not on its own
/// commit), returns the same output, and the patch lands once.
#[test]
fn torn_commit_reexecutes_on_the_same_state() {
    let (mut p, captured) = capturing_platform(RETRYING, "incr");
    p.enable_chaos(FaultPlan::new(0).script(InjectionSite::StateCommit, 0, FaultKind::Torn));
    let id = p.create_object("K", vjson!({"count": 0})).unwrap();
    assert_eq!(
        p.invoke(id, "incr", vec![]).unwrap().output.as_i64(),
        Some(1)
    );
    assert_eq!(
        p.invoke(id, "incr", vec![]).unwrap().output.as_i64(),
        Some(2)
    );
    assert_eq!(p.get_state(id).unwrap()["count"].as_i64(), Some(2));
    assert_eq!(p.metrics().commits_total(), 2);
    let snaps = captured.lock().unwrap();
    let seen: Vec<_> = snaps.iter().map(|s| s["count"].as_i64()).collect();
    assert_eq!(seen, [Some(0), Some(0), Some(1)], "torn, re-executed, next");
}

/// A fused chain commits all of its steps or none: a failing step leaves
/// the stored state, the commit count and the storage counters as they
/// were, although earlier steps had already patched the running state.
#[test]
fn failing_fused_step_leaves_state_untouched() {
    let (p, captured) = capturing_platform("", "boom");
    let id = p.create_object("K", vjson!({"count": 0})).unwrap();
    let (commits, storage) = (p.metrics().commits_total(), p.storage_stats());
    assert!(p.invoke(id, "chain", vec![]).is_err());
    assert_eq!(captured.lock().unwrap().len(), 2, "a and b ran");
    assert_eq!(p.get_state(id).unwrap(), vjson!({"count": 0}));
    assert_eq!(p.metrics().commits_total(), commits);
    assert_eq!(p.storage_stats(), storage);
}

/// A record no tier holds (memory loss before the first flush) is
/// carried by the caller's running state until the commit stores it:
/// patches to distinct keys accumulate, whether the items go one by one
/// or as one grouped batch, and every item sees its predecessors'.
#[test]
fn cold_record_accumulates_patches_across_a_batch_group() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/put", |task| {
        let seen = task.state_in.len() as i64;
        let mut patch = vjson!({});
        patch.insert(task.args[0].as_str().unwrap(), 1);
        Ok(TaskResult::output(seen).with_patch(patch))
    });
    p.deploy_yaml(
        "classes:\n  - name: Doc\n    functions:\n      - name: put\n        image: img/put\n",
    )
    .unwrap();
    for batched in [false, true] {
        let id = p.create_object("Doc", vjson!({"old": 1})).unwrap();
        p.simulate_memory_loss();
        let items: Vec<_> = ["a", "b", "c"]
            .map(|k| BatchItem::new(id, "put", vec![k.into()]))
            .into();
        let seen: Vec<_> = if batched {
            p.invoke_batch(items)
                .into_iter()
                .map(|out| out.unwrap().output.as_i64())
                .collect()
        } else {
            items
                .into_iter()
                .map(|it| {
                    p.invoke(it.id, &it.function, it.args)
                        .unwrap()
                        .output
                        .as_i64()
                })
                .collect()
        };
        assert_eq!(seen, [Some(0), Some(1), Some(2)], "batched: {batched}");
        assert_eq!(
            p.get_state(id).unwrap(),
            vjson!({"a": 1, "b": 1, "c": 1}),
            "batched: {batched}"
        );
        p.flush();
        assert_eq!(p.durable_state(id), p.get_state(id).ok());
    }
}

/// Strategy: an arbitrary state document — nested objects/arrays with
/// integer, boolean, string, and null leaves (floats excluded so value
/// equality is exact).
fn arb_state() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        any::<i64>().prop_map(Value::from),
        any::<bool>().prop_map(Value::from),
        "[a-z0-9]{0,12}".prop_map(Value::from),
        Just(Value::Null),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::from),
            prop::collection::btree_map("[a-z]{1,6}", inner, 0..4).prop_map(|m| {
                let mut obj = Value::object();
                for (k, v) in m {
                    obj.insert(k, v);
                }
                obj
            }),
        ]
    })
}

proptest! {
    /// Copy-on-write snapshots are observationally identical to deep
    /// clones: merging a patch through `Snapshot::make_mut` produces the
    /// same document as merging into a deep-cloned `Value`, and never
    /// disturbs other holders of the snapshot.
    #[test]
    fn cow_snapshot_commits_match_deep_clone_commits(
        state in arb_state(),
        patch in arb_state(),
    ) {
        // Control: the pre-optimisation deep-clone commit.
        let mut control = state.clone();
        merge::deep_merge(&mut control, patch.clone());
        merge::normalize(&mut control);

        // CoW path: `shared` plays the in-flight task's re-shipped
        // snapshot; `committing` is the engine's commit-boundary handle.
        let shared = Snapshot::from(state.clone());
        let mut committing = shared.clone();
        {
            let m = committing.make_mut();
            merge::deep_merge(m, patch);
            merge::normalize(m);
        }
        prop_assert_eq!(committing.value(), &control);
        // The other holder is untouched — no aliasing through the Arc.
        prop_assert_eq!(shared.value(), &state);
        prop_assert!(!Snapshot::ptr_eq(&shared, &committing) || state == control);
        // Unwrapping the committed snapshot materialises the same doc.
        prop_assert_eq!(Snapshot::into_value(committing), control);
    }
}
