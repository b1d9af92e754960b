//! End-to-end telemetry: a seeded multi-stage dataflow run must export
//! a span tree that mirrors the invocation plane — one root `invoke`,
//! `dataflow.stage` spans matching the dataflow's DAG stages,
//! `route`/`state.load`/`engine.execute`/`state.commit` under every
//! step, correct parent links, non-decreasing timestamps — and the same
//! platform built twice must export byte-identical JSONL. A flow that
//! fails exports its spans too, the failing step marked.

use oprc_core::invocation::{TaskError, TaskResult};
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_telemetry::{Span, TelemetryConfig};
use oprc_value::{vjson, Value};

/// A fan-in dataflow: two parallel steps (`a`, `b`) feeding `merge`.
const PACKAGE: &str = "
classes:
  - name: Doc
    keySpecs: [a, b, merged]
    functions:
      - name: fa
        image: img/fa
      - name: fb
        image: img/fb
      - name: fmerge
        image: img/fmerge
    dataflows:
      - name: fanin
        output: merge
        steps:
          - id: a
            function: fa
            inputs: [input]
          - id: b
            function: fb
            inputs: [input]
          - id: merge
            function: fmerge
            inputs: [\"step:a\", \"step:b\"]
";

/// A traced platform with `PACKAGE` deployed. Every function patches
/// state so `state.commit` has work; with `merge_fails`, the second
/// stage's function returns an application error instead.
fn traced_platform(merge_fails: bool) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.enable_telemetry(TelemetryConfig::default());
    p.register_function("img/fa", |t| {
        let x = t.args.first().and_then(Value::as_i64).unwrap_or(0);
        Ok(TaskResult::output(x * 2).with_patch(vjson!({"a": (x * 2)})))
    });
    p.register_function("img/fb", |t| {
        let x = t.args.first().and_then(Value::as_i64).unwrap_or(0);
        Ok(TaskResult::output(x + 1).with_patch(vjson!({"b": (x + 1)})))
    });
    p.register_function("img/fmerge", move |t| {
        if merge_fails {
            return Err(TaskError::Application("merge refused".into()));
        }
        let a = t.args.first().and_then(Value::as_i64).unwrap_or(0);
        let b = t.args.get(1).and_then(Value::as_i64).unwrap_or(0);
        Ok(TaskResult::output(a + b).with_patch(vjson!({"merged": (a + b)})))
    });
    p.deploy_yaml(PACKAGE).expect("package deploys");
    p
}

/// Builds the platform, runs one `fanin` invocation under tracing, and
/// returns it.
fn traced_run() -> EmbeddedPlatform {
    let p = traced_platform(false);
    let id = p.create_object("Doc", vjson!({})).expect("creates");
    let out = p
        .invoke(id, "fanin", vec![vjson!(5)])
        .expect("dataflow runs");
    assert_eq!(out.output.as_i64(), Some(16), "(5*2) + (5+1)");
    p
}

fn children_of(spans: &[Span], parent: u64) -> Vec<&Span> {
    spans.iter().filter(|s| s.parent == Some(parent)).collect()
}

#[test]
fn span_tree_matches_the_dataflow_dag() {
    let p = traced_run();
    let spans = p.telemetry().finished();

    // Exactly one root: the invoke span, marked successful.
    let roots: Vec<&Span> = spans.iter().filter(|s| s.parent.is_none()).collect();
    assert_eq!(roots.len(), 1, "one invocation → one root");
    let root = roots[0];
    assert_eq!(root.name, "invoke");
    assert_eq!(root.attrs["function"].as_str(), Some("fanin"));
    assert_eq!(root.attrs["class"].as_str(), Some("Doc"));
    assert_eq!(root.attrs["outcome"].as_str(), Some("ok"));

    // Stage spans under the root must mirror the DAG computed from the
    // spec: [a, b] in parallel, then [merge].
    let pkg = oprc_core::parse::package_from_yaml(PACKAGE).expect("parses");
    let df = pkg.classes[0]
        .dataflows
        .iter()
        .find(|d| d.name == "fanin")
        .expect("dataflow present");
    let dag: Vec<Vec<String>> = df
        .try_stages()
        .expect("acyclic")
        .into_iter()
        .map(|stage| stage.iter().map(|s| s.id.clone()).collect())
        .collect();
    assert_eq!(
        dag,
        vec![vec!["a".to_string(), "b".into()], vec!["merge".into()]]
    );

    let stages: Vec<&Span> = children_of(&spans, root.id)
        .into_iter()
        .filter(|s| s.name == "dataflow.stage")
        .collect();
    assert_eq!(stages.len(), dag.len(), "one span per DAG stage");
    for (span, ids) in stages.iter().zip(&dag) {
        assert_eq!(span.attrs["parallelism"].as_u64(), Some(ids.len() as u64));
        let steps: Vec<&Span> = children_of(&spans, span.id)
            .into_iter()
            .filter(|s| s.name == "dataflow.step")
            .collect();
        let step_ids: Vec<&str> = steps
            .iter()
            .map(|s| s.attrs["step"].as_str().unwrap())
            .collect();
        assert_eq!(&step_ids, ids, "step spans in stage order");
        // Every step carries the full invocation-plane sub-tree.
        for step in steps {
            for name in ["route", "state.load", "engine.execute", "state.commit"] {
                assert_eq!(
                    children_of(&spans, step.id)
                        .iter()
                        .filter(|s| s.name == name)
                        .count(),
                    1,
                    "step '{}' needs one '{name}' child",
                    step.attrs["step"]
                );
            }
        }
    }

    // Commits patched state on every step.
    assert!(spans
        .iter()
        .filter(|s| s.name == "state.commit")
        .all(|s| s.attrs["patched"].as_bool() == Some(true)));

    // Timestamps are sane SimTimes: start ≤ end everywhere, and
    // children start no earlier than their parent.
    let by_id = |id: u64| spans.iter().find(|s| s.id == id).unwrap();
    for s in &spans {
        let end = s.end.expect("exported spans are finished");
        assert!(s.start <= end, "span {} runs backwards", s.id);
        if let Some(parent) = s.parent {
            assert!(
                by_id(parent).start <= s.start,
                "child {} precedes parent",
                s.id
            );
        }
    }
}

#[test]
fn same_seed_exports_byte_identical_jsonl() {
    let a = traced_run().telemetry().export_jsonl();
    let b = traced_run().telemetry().export_jsonl();
    assert!(!a.is_empty());
    assert_eq!(a, b, "logical-clock traces must be reproducible");
}

#[test]
fn direct_invocation_has_flat_execute_chain() {
    let p = {
        let p = traced_run();
        let id = p.create_object("Doc", vjson!({})).expect("creates");
        p.telemetry().clear();
        p.invoke(id, "fa", vec![vjson!(1)]).expect("invokes");
        p
    };
    let spans = p.telemetry().finished();
    let root = spans.iter().find(|s| s.name == "invoke").unwrap();
    let kids: Vec<&str> = children_of(&spans, root.id)
        .iter()
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        kids,
        vec!["route", "state.load", "engine.execute", "state.commit"]
    );
}

#[test]
fn failed_flow_exports_its_spans_with_the_failing_step_marked() {
    let p = traced_platform(true);
    let id = p.create_object("Doc", vjson!({})).expect("creates");
    let err = p.invoke(id, "fanin", vec![vjson!(5)]).unwrap_err();
    assert!(err.to_string().contains("merge refused"), "{err}");

    let spans = p.telemetry().finished();
    let root = spans
        .iter()
        .find(|s| s.name == "invoke")
        .expect("the failed invoke's root is exported");
    assert!(root.attrs["outcome"]
        .as_str()
        .is_some_and(|o| o.starts_with("error")));

    // Both stages are exported under the root: the one that ran clean
    // and the one whose step failed.
    let stages: Vec<&Span> = children_of(&spans, root.id)
        .into_iter()
        .filter(|s| s.name == "dataflow.stage")
        .collect();
    assert_eq!(stages.len(), 2, "one span per stage the flow entered");
    let steps_of = |stage: &Span| -> Vec<&Span> {
        children_of(&spans, stage.id)
            .into_iter()
            .filter(|s| s.name == "dataflow.step")
            .collect()
    };
    let first = steps_of(stages[0]);
    assert_eq!(first.len(), 2);
    assert!(first.iter().all(|s| s.attrs.get("error").is_none()));
    let second = steps_of(stages[1]);
    assert_eq!(second.len(), 1);
    assert_eq!(second[0].attrs["step"].as_str(), Some("merge"));
    assert!(
        second[0].attrs["error"]
            .as_str()
            .is_some_and(|e| e.contains("merge refused")),
        "the failing step carries the error: {:?}",
        second[0].attrs
    );
}
