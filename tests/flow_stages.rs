//! Integration: where a dataflow stage runs is decided by the measured
//! work of its steps, and nothing else depends on it.
//!
//! A stage whose lanes cost less than a thread handoff runs on the
//! calling thread once its functions have been measured; a function not
//! measured yet counts as expensive, so the first call of a flow still
//! runs its wide stages in parallel, and a redeploy, which rebuilds the
//! dispatch plans, starts the measurement over. A function that panics
//! fails its flow with the same error inline or on a spawned thread,
//! ends every span the flow opened (the failing stage marked with the
//! error, its uncommitted healthy steps as aborted) and commits nothing
//! of its stage.

use std::sync::{Arc, Mutex};
use std::thread::{self, ThreadId};

use oprc_core::invocation::TaskResult;
use oprc_core::object::ObjectId;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_telemetry::TelemetryConfig;
use oprc_value::vjson;

/// Two lanes in one stage: `left` feeds the output, `right` runs beside
/// it.
const CHEAP: &str = "
classes:
  - name: Pair
    functions:
      - name: left
        image: img/left
      - name: right
        image: img/right
    dataflows:
      - name: pair
        output: l
        steps:
          - id: l
            function: left
          - id: r
            function: right
";

/// A stateful class whose two-lane flow has a lane that always panics
/// beside one that patches state, and a plain function to call after.
const PANICKY: &str = "
classes:
  - name: Lanes
    keySpecs: [ok, touched]
    functions:
      - name: boom
        image: img/boom
      - name: fine
        image: img/fine
      - name: touch
        image: img/touch
    dataflows:
      - name: pair
        output: ok
        steps:
          - id: boom
            function: boom
          - id: ok
            function: fine
";

/// The threads a function ran on, in call order. One per function, so
/// lanes of one stage never contend on it.
#[derive(Clone, Default)]
struct Threads(Arc<Mutex<Vec<ThreadId>>>);

impl Threads {
    fn record(&self) {
        self.0.lock().unwrap().push(thread::current().id());
    }

    /// Everything recorded since the last take.
    fn take(&self) -> Vec<ThreadId> {
        std::mem::take(&mut *self.0.lock().unwrap())
    }
}

/// Runs one `pair` invoke and returns the threads its two lanes ran on.
fn lanes_of(p: &EmbeddedPlatform, id: ObjectId, left: &Threads, right: &Threads) -> Vec<ThreadId> {
    p.invoke(id, "pair", vec![]).expect("the flow runs");
    let ran: Vec<ThreadId> = left.take().into_iter().chain(right.take()).collect();
    assert_eq!(ran.len(), 2, "each lane ran once");
    ran
}

/// A platform with `CHEAP` deployed and one `Pair` object, plus the
/// thread records of its two lanes.
fn cheap_platform() -> (EmbeddedPlatform, ObjectId, Threads, Threads) {
    let (left, right) = (Threads::default(), Threads::default());
    let mut p = EmbeddedPlatform::new();
    let l = left.clone();
    p.register_function("img/left", move |_| {
        l.record();
        Ok(TaskResult::output(1))
    });
    let r = right.clone();
    p.register_function("img/right", move |_| {
        r.record();
        Ok(TaskResult::output(2))
    });
    p.deploy_yaml(CHEAP).expect("Pair deploys");
    let id = p.create_object("Pair", vjson!({})).expect("creates");
    (p, id, left, right)
}

#[test]
fn a_measured_cheap_stage_runs_on_the_calling_thread() {
    let (p, id, left, right) = cheap_platform();
    let me = thread::current().id();
    let cold = lanes_of(&p, id, &left, &right);
    assert!(
        cold.iter().any(|&t| t != me),
        "the unmeasured first call hands a lane to another thread: {cold:?}"
    );
    for call in 0..3 {
        let warm = lanes_of(&p, id, &left, &right);
        assert!(
            warm.iter().all(|&t| t == me),
            "warm call {call}: a cheap stage ran a lane off the calling thread: {warm:?}"
        );
    }
}

#[test]
fn a_redeploy_forgets_the_estimate() {
    let (p, id, left, right) = cheap_platform();
    let me = thread::current().id();
    lanes_of(&p, id, &left, &right);
    let warm = lanes_of(&p, id, &left, &right);
    assert!(warm.iter().all(|&t| t == me), "warm call ran inline");
    p.deploy_yaml(CHEAP).expect("Pair redeploys");
    let after = lanes_of(&p, id, &left, &right);
    assert!(
        after.iter().any(|&t| t != me),
        "the first call after a redeploy runs unmeasured, in parallel: {after:?}"
    );
}

#[test]
fn a_panicking_lane_fails_the_flow_on_any_thread() {
    let (boom, fine) = (Threads::default(), Threads::default());
    let mut p = EmbeddedPlatform::new();
    p.enable_telemetry(TelemetryConfig::default());
    let b = boom.clone();
    p.register_function("img/boom", move |_| {
        b.record();
        panic!("lane exploded");
    });
    let f = fine.clone();
    p.register_function("img/fine", move |_| {
        f.record();
        Ok(TaskResult::output(1).with_patch(vjson!({"ok": true})))
    });
    p.register_function("img/touch", |_| {
        Ok(TaskResult::output(0).with_patch(vjson!({"touched": true})))
    });
    p.deploy_yaml(PANICKY).expect("Lanes deploys");
    let id = p.create_object("Lanes", vjson!({})).expect("creates");
    let me = thread::current().id();

    for (call, parallel) in [("cold", true), ("warm", false)] {
        let err = p
            .invoke(id, "pair", vec![])
            .expect_err("a panicking lane fails the flow");
        assert!(
            err.to_string().contains("panicked: lane exploded"),
            "{call}: the panic's own message reaches the caller: {err}"
        );
        let ran: Vec<ThreadId> = boom.take().into_iter().chain(fine.take()).collect();
        assert_eq!(ran.len(), 2, "{call}: both lanes ran");
        assert_eq!(
            ran.iter().any(|&t| t != me),
            parallel,
            "{call}: lanes ran on {ran:?}"
        );
    }
    let state = p.get_state(id).expect("reads");
    assert!(
        state.get("ok").is_none(),
        "the failing stage committed its healthy lane: {state}"
    );

    p.invoke(id, "touch", vec![])
        .expect("the object still serves invokes after the panics");
    assert_eq!(p.get_state(id).expect("reads")["touched"], vjson!(true));

    // Span ids are handed out in sequence from 1: a span left open by a
    // failed flow is a gap before the later invoke's spans.
    let spans = p.telemetry().finished();
    let ids: Vec<u64> = spans.iter().map(|s| s.id).collect();
    assert_eq!(
        ids.iter().copied().max(),
        Some(ids.len() as u64),
        "every opened span ended"
    );
    let panicked = spans
        .iter()
        .filter(|s| s.name == "engine.execute")
        .filter(|s| {
            s.attrs
                .get("error")
                .and_then(|e| e.as_str())
                .is_some_and(|e| e.contains("panicked: lane exploded"))
        })
        .count();
    assert_eq!(panicked, 2, "each failed execute carries the panic");

    // The healthy lane's step ran but never committed: its span says
    // so instead of reading as a success, and the stage it failed in
    // carries the error.
    let steps = |id: &str| {
        spans
            .iter()
            .filter(|s| s.name == "dataflow.step" && s.attrs["step"].as_str() == Some(id))
            .collect::<Vec<_>>()
    };
    assert_eq!(steps("ok").len(), 2, "one healthy step span per call");
    for step in steps("ok") {
        assert_eq!(
            step.attrs.get("aborted"),
            Some(&vjson!(true)),
            "the uncommitted healthy step is marked aborted: {:?}",
            step.attrs
        );
    }
    for step in steps("boom") {
        assert!(
            step.attrs.get("aborted").is_none(),
            "the failed step carries its error"
        );
    }
    let stages: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "dataflow.stage")
        .collect();
    assert_eq!(stages.len(), 2, "one stage span per failed call");
    for stage in stages {
        assert!(
            stage.attrs["error"]
                .as_str()
                .is_some_and(|e| e.contains("panicked: lane exploded")),
            "the failing stage carries the error: {:?}",
            stage.attrs
        );
    }
}
