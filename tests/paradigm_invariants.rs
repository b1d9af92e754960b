//! Integration: the paradigm-level invariants the paper claims.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oprc_core::invocation::TaskResult;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_value::{vjson, Value};

/// §III-C: "the code execution runtime is entirely decoupled from the
/// state management" — a function only ever sees the state snapshot in
/// its task; mutating the snapshot's source after task construction is
/// impossible, and state changes flow back exclusively via the patch.
#[test]
fn pure_function_decoupling() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/probe", |task| {
        // The task is a value: no handles, no store references. Returning
        // no patch must leave state untouched regardless of what the
        // function does to its copy.
        let mut local = task.state_in.value().clone();
        local.insert("attempted", true);
        Ok(TaskResult::output(local))
    });
    p.deploy_yaml(
        "classes:\n  - name: P\n    keySpecs: [v]\n    functions:\n      - name: probe\n        image: img/probe\n",
    )
    .unwrap();
    let id = p.create_object("P", vjson!({"v": 1})).unwrap();
    let out = p.invoke(id, "probe", vec![]).unwrap();
    assert_eq!(out.output["attempted"].as_bool(), Some(true));
    // Platform state unchanged: no patch was returned.
    assert_eq!(p.get_state(id).unwrap(), vjson!({"v": 1}));
}

/// §II-A: polymorphism — the same invocation name dispatches to the
/// subclass override when present, the inherited implementation
/// otherwise.
#[test]
fn polymorphic_dispatch_end_to_end() {
    let base_calls = Arc::new(AtomicU64::new(0));
    let override_calls = Arc::new(AtomicU64::new(0));
    let mut p = EmbeddedPlatform::new();
    let b = base_calls.clone();
    p.register_function("img/greet-base", move |_| {
        b.fetch_add(1, Ordering::SeqCst);
        Ok(TaskResult::output("hello from Base"))
    });
    let o = override_calls.clone();
    p.register_function("img/greet-loud", move |_| {
        o.fetch_add(1, Ordering::SeqCst);
        Ok(TaskResult::output("HELLO FROM LOUD"))
    });
    p.deploy_yaml(
        "
classes:
  - name: Base
    functions:
      - name: greet
        image: img/greet-base
  - name: Quiet
    parent: Base
  - name: Loud
    parent: Base
    functions:
      - name: greet
        image: img/greet-loud
",
    )
    .unwrap();
    let quiet = p.create_object("Quiet", vjson!({})).unwrap();
    let loud = p.create_object("Loud", vjson!({})).unwrap();
    assert_eq!(
        p.invoke(quiet, "greet", vec![]).unwrap().output.as_str(),
        Some("hello from Base")
    );
    assert_eq!(
        p.invoke(loud, "greet", vec![]).unwrap().output.as_str(),
        Some("HELLO FROM LOUD")
    );
    assert_eq!(base_calls.load(Ordering::SeqCst), 1);
    assert_eq!(override_calls.load(Ordering::SeqCst), 1);
}

/// §II-B: "developers can change the flow of invocation without changing
/// the function code, only by changing the dataflow definitions."
#[test]
fn dataflow_rewiring_without_code_change() {
    fn build(flow_yaml: &str) -> EmbeddedPlatform {
        let mut p = EmbeddedPlatform::new();
        // The *same* function registrations for both flow versions.
        p.register_function("img/add1", |t| {
            Ok(TaskResult::output(t.args[0].as_i64().unwrap_or(0) + 1))
        });
        p.register_function("img/double", |t| {
            Ok(TaskResult::output(t.args[0].as_i64().unwrap_or(0) * 2))
        });
        p.deploy_yaml(flow_yaml).unwrap();
        p
    }
    let v1 = "
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
            function: add1
            inputs: [input]
          - id: b
            function: double
            inputs: [\"step:a\"]
";
    // v2 swaps the order — double first, then add1.
    let v2 = v1
        .replace(
            "function: add1\n            inputs: [input]",
            "function: double\n            inputs: [input]",
        )
        .replace(
            "function: double\n            inputs: [\"step:a\"]",
            "function: add1\n            inputs: [\"step:a\"]",
        );

    let p1 = build(v1);
    let id = p1.create_object("M", vjson!({})).unwrap();
    assert_eq!(
        p1.invoke(id, "calc", vec![vjson!(10)])
            .unwrap()
            .output
            .as_i64(),
        Some(22) // (10+1)*2
    );
    let p2 = build(&v2);
    let id = p2.create_object("M", vjson!({})).unwrap();
    assert_eq!(
        p2.invoke(id, "calc", vec![vjson!(10)])
            .unwrap()
            .output
            .as_i64(),
        Some(21) // (10*2)+1
    );
}

/// §II-B: independent dataflow steps genuinely run concurrently.
#[test]
fn dataflow_parallelism_is_real() {
    use std::time::{Duration, Instant};
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/sleepy", |_| {
        std::thread::sleep(Duration::from_millis(30));
        Ok(TaskResult::output(1))
    });
    p.deploy_yaml(
        r#"
classes:
  - name: W
    functions:
      - name: work
        image: img/sleepy
    dataflows:
      - name: wide
        output: a
        steps:
          - id: a
            function: work
          - id: b
            function: work
          - id: c
            function: work
          - id: d
            function: work
"#,
    )
    .unwrap();
    let id = p.create_object("W", vjson!({})).unwrap();
    // The first call runs before any step is measured; the later ones
    // run on a measured 30ms estimate, which pays for the handoffs.
    for call in 1..=3 {
        let started = Instant::now();
        p.invoke(id, "wide", vec![]).unwrap();
        let wall = started.elapsed();
        // Four 30ms steps in one parallel stage: far below the 120ms
        // serial cost (generous bound for CI noise).
        assert!(
            wall < Duration::from_millis(100),
            "call {call}: parallel stage took {wall:?}"
        );
    }
}

/// NFR inheritance flows into template selection at deploy time.
#[test]
fn nfr_inheritance_drives_template_selection() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/f", |_| Ok(TaskResult::output(1)));
    p.deploy_yaml(
        "
classes:
  - name: Hot
    qos:
      throughput: 5000
    constraint:
      persistent: true
    functions:
      - name: f
        image: img/f
  - name: HotChild
    parent: Hot
",
    )
    .unwrap();
    // The child declared nothing, but inherits throughput 5000 → the
    // high-throughput template.
    assert_eq!(
        p.runtime_spec("HotChild").unwrap().template,
        "high-throughput"
    );
}

/// The object abstraction keeps structured state normalized (no
/// explicit-null members survive a round trip).
#[test]
fn state_normalization_invariant() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/nuller", |_| {
        Ok(TaskResult::output(Value::Null).with_patch(vjson!({"gone": null, "kept": 1})))
    });
    p.deploy_yaml(
        "classes:\n  - name: N\n    functions:\n      - name: f\n        image: img/nuller\n",
    )
    .unwrap();
    let id = p.create_object("N", vjson!({"gone": "soon"})).unwrap();
    p.invoke(id, "f", vec![]).unwrap();
    assert_eq!(p.get_state(id).unwrap(), vjson!({"kept": 1}));
}
