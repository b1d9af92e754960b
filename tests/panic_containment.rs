//! Integration: a panic in a registered function is contained at the
//! call, on every path that runs user code.
//!
//! A panic fails its call with the retryable runtime error
//! (`"panicked: …"`) instead of unwinding through the platform: a
//! direct invoke returns the error, a batch fails only the panicking
//! item's slot while the rest of its shard group commits, and a fused
//! chain aborts as a whole. In every case the object's state and
//! revision are what the calls that did not panic left, and the next
//! invoke on the same shard runs.

use oprc_core::invocation::TaskResult;
use oprc_core::object::ObjectId;
use oprc_platform::embedded::{BatchItem, EmbeddedPlatform};
use oprc_value::{vjson, Value};

/// One default (single-attempt) class. `step` counts down: it panics
/// when its argument is 0, else bumps `count` and outputs the argument
/// less one. `chain` runs `step` twice on the same object, the second
/// on the first's output, so the optimizer fuses it into one unit.
const PACKAGE: &str = "
classes:
  - name: Steps
    keySpecs: [count]
    functions:
      - name: step
        image: img/step
    dataflows:
      - name: chain
        output: b
        steps:
          - id: a
            function: step
            inputs: [input]
          - id: b
            function: step
            inputs: [\"step:a\"]
";

fn platform() -> (EmbeddedPlatform, ObjectId) {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/step", |task| {
        let left = task.args.first().and_then(Value::as_i64).unwrap_or(1);
        assert!(left != 0, "asked to panic");
        let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(left - 1).with_patch(vjson!({"count": n})))
    });
    p.deploy_yaml(PACKAGE).expect("Steps deploys");
    let id = p
        .create_object("Steps", vjson!({"count": 0}))
        .expect("creates");
    (p, id)
}

/// The object's `(count, revision)`, read from a snapshot export.
fn count_and_revision(p: &EmbeddedPlatform, id: ObjectId) -> (i64, u64) {
    let snapshot = p.export_snapshot(false);
    let doc = snapshot["objects"]
        .as_array()
        .expect("snapshot lists objects")
        .iter()
        .find(|o| o["id"].as_u64() == Some(id.as_u64()))
        .expect("the object is in the snapshot");
    let count = doc["state"]["count"].as_i64().expect("count is set");
    (count, doc["revision"].as_u64().expect("revision is set"))
}

/// Asserts `err` is the contained panic of `step`.
fn assert_panicked(what: &str, err: &impl std::fmt::Display) {
    let msg = err.to_string();
    assert!(
        msg.contains("panicked: asked to panic"),
        "{what}: the panic reaches the caller as its error: {msg}"
    );
}

/// The next invoke on the object — and so on its shard — runs and
/// commits.
fn assert_serves(p: &EmbeddedPlatform, id: ObjectId, what: &str) {
    let before = count_and_revision(p, id);
    p.invoke(id, "step", vec![vjson!(5)])
        .unwrap_or_else(|e| panic!("{what}: the shard serves the next invoke: {e}"));
    assert_eq!(
        count_and_revision(p, id),
        (before.0 + 1, before.1 + 1),
        "{what}: the next invoke commits"
    );
}

#[test]
fn a_direct_invoke_returns_the_panic_as_its_error() {
    let (p, id) = platform();
    p.invoke(id, "step", vec![vjson!(5)])
        .expect("a plain call runs");
    let before = count_and_revision(&p, id);
    let err = p
        .invoke(id, "step", vec![vjson!(0)])
        .expect_err("the panicking call fails");
    assert_panicked("direct", &err);
    assert_eq!(count_and_revision(&p, id), before, "nothing committed");
    assert_serves(&p, id, "direct");
}

#[test]
fn a_batch_fails_only_the_panicking_item() {
    let (p, id) = platform();
    let before = count_and_revision(&p, id);
    // One object, so all three items share one shard group.
    let outs = p.invoke_batch(vec![
        BatchItem::new(id, "step", vec![vjson!(5)]),
        BatchItem::new(id, "step", vec![vjson!(0)]),
        BatchItem::new(id, "step", vec![vjson!(7)]),
    ]);
    assert_eq!(outs.len(), 3);
    assert_eq!(outs[0].as_ref().expect("first item runs").output, vjson!(4));
    assert_panicked(
        "batch",
        outs[1].as_ref().expect_err("the panicking item fails"),
    );
    assert_eq!(outs[2].as_ref().expect("third item runs").output, vjson!(6));
    assert_eq!(
        count_and_revision(&p, id),
        (before.0 + 2, before.1 + 2),
        "the group committed its two healthy items and nothing of the panic"
    );
    assert_serves(&p, id, "batch");
}

#[test]
fn a_fused_chain_aborts_whole_on_a_panic() {
    let (p, id) = platform();
    // 2 → 1 → 0: both steps run and the chain commits once.
    let out = p
        .invoke(id, "chain", vec![vjson!(2)])
        .expect("the chain runs");
    assert_eq!(out.output, vjson!(0));
    assert_eq!(p.metrics().fused_units_total(), 1, "the chain ran fused");
    let before = count_and_revision(&p, id);
    // 1 → 0 → panic: the second step panics after the first patched
    // the chain's running state.
    let err = p
        .invoke(id, "chain", vec![vjson!(1)])
        .expect_err("the chain fails");
    assert_panicked("fused chain", &err);
    assert_eq!(
        count_and_revision(&p, id),
        before,
        "the chain committed nothing of its first step"
    );
    assert_eq!(
        p.metrics().fused_units_total(),
        1,
        "no second unit committed"
    );
    assert_serves(&p, id, "fused chain");
}
