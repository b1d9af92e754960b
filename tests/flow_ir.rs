//! Flow-IR compilation end-to-end (DESIGN.md §13).
//!
//! Three contracts:
//!
//! 1. **Fusion collapses the hot path** — a 3-step same-object chain
//!    runs as one fused unit: one shard-lock hold, one `state.commit`
//!    span, `commits_total` delta of exactly 1, while every step still
//!    gets its own `engine.execute` span.
//! 2. **Fusion is semantics-preserving** — with the fusion pass
//!    disabled the same chain produces the same output and final state,
//!    just with one commit per step.
//! 3. **Live edits never tear** — `edit_flow` racing a storm of
//!    in-flight dataflow invocations yields old-plan or new-plan
//!    results only, never an error or a mix; invalid edits are rejected
//!    by the lint gate with the flow left untouched.

use oprc_core::dataflow::{DataRef, StepSpec};
use oprc_core::invocation::TaskResult;
use oprc_platform::embedded::{EmbeddedPlatform, FlowEdit};
use oprc_platform::PlatformError;
use oprc_telemetry::TelemetryConfig;
use oprc_value::{vjson, Value};

/// A 3-step self-bound chain: every step targets the flow's own object,
/// so the optimizer fuses `a → b → c` into a single unit.
const CHAIN_PACKAGE: &str = "
classes:
  - name: Doc
    keySpecs: [n]
    functions:
      - name: f
        image: img/f
    dataflows:
      - name: chain
        output: c
        steps:
          - id: a
            function: f
            inputs: [input]
          - id: b
            function: f
            inputs: [\"step:a\"]
          - id: c
            function: f
            inputs: [\"step:b\"]
";

/// `f` threads its argument (+1 per hop) and bumps a state counter, so
/// both the flow output and the committed state observe every step.
fn chain_platform() -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/f", |t| {
        let x = t.args.first().and_then(Value::as_i64).unwrap_or(0);
        let n = t.state_in["n"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(x + 1).with_patch(vjson!({"n": n})))
    });
    p.deploy_yaml(CHAIN_PACKAGE).expect("chain package deploys");
    p
}

#[test]
fn fused_chain_commits_once() {
    let mut p = chain_platform();
    p.enable_telemetry(TelemetryConfig::default());
    let id = p.create_object("Doc", vjson!({})).expect("creates");

    let commits_before = p.metrics().commits_total();
    let fused_before = p.metrics().fused_units_total();
    let out = p.invoke(id, "chain", vec![vjson!(5)]).expect("chain runs");
    assert_eq!(out.output.as_i64(), Some(8), "5 + one per step");

    // One commit and one fused unit for the whole 3-step chain.
    assert_eq!(p.metrics().commits_total() - commits_before, 1);
    assert_eq!(p.metrics().fused_units_total() - fused_before, 1);
    // All three steps were applied to state in one transaction.
    assert_eq!(p.get_state(id).unwrap()["n"].as_i64(), Some(3));

    let spans = p.telemetry().finished();
    let fused: Vec<_> = spans
        .iter()
        .filter(|s| s.name == "dataflow.fused")
        .collect();
    assert_eq!(fused.len(), 1, "one fused unit span");
    assert_eq!(fused[0].attrs["chain"].as_str(), Some("a→b→c"));
    assert_eq!(fused[0].attrs["steps"].as_u64(), Some(3));

    let commits: Vec<_> = spans.iter().filter(|s| s.name == "state.commit").collect();
    assert_eq!(commits.len(), 1, "one state.commit span for the chain");
    assert_eq!(commits[0].attrs["fused"].as_bool(), Some(true));
    assert_eq!(commits[0].parent, Some(fused[0].id));

    let execs = spans.iter().filter(|s| s.name == "engine.execute").count();
    assert_eq!(execs, 3, "every step still gets an execute span");
    let loads = spans.iter().filter(|s| s.name == "state.load").count();
    assert_eq!(loads, 1, "one load for the whole chain");
}

#[test]
fn fusion_off_matches_fused_semantics() {
    // Fused run.
    let p_on = chain_platform();
    let id_on = p_on.create_object("Doc", vjson!({})).expect("creates");
    let commits_on_before = p_on.metrics().commits_total();
    let out_on = p_on
        .invoke(id_on, "chain", vec![vjson!(5)])
        .expect("fused chain runs");

    // One-commit-per-step reference: same package, fusion pass disabled.
    let mut p_off = chain_platform();
    p_off.set_flow_fusion(false).expect("recompiles");
    let id_off = p_off.create_object("Doc", vjson!({})).expect("creates");
    let commits_before = p_off.metrics().commits_total();
    let out_off = p_off
        .invoke(id_off, "chain", vec![vjson!(5)])
        .expect("unfused chain runs");

    assert_eq!(out_on.output, out_off.output, "same flow output");
    assert_eq!(
        p_on.get_state(id_on).unwrap(),
        p_off.get_state(id_off).unwrap(),
        "same final state"
    );
    assert_eq!(
        p_off.metrics().commits_total() - commits_before,
        3,
        "unfused: one commit per step"
    );
    assert_eq!(p_off.metrics().fused_units_total(), 0);
    assert_eq!(
        p_on.metrics().commits_total() - commits_on_before,
        1,
        "fused: one for the chain"
    );
}

#[test]
fn live_edit_never_tears_in_flight_invokes() {
    let p = chain_platform();
    let ids: Vec<_> = (0..4)
        .map(|_| p.create_object("Doc", vjson!({})).unwrap())
        .collect();

    // Splice step `d` before `c` mid-storm: old plan answers 8
    // (3 hops), new plan answers 9 (4 hops) — nothing else.
    let edit = FlowEdit::AddStep {
        step: StepSpec::new("d", "f"),
        before: Some("c".into()),
    };
    std::thread::scope(|s| {
        for w in 0..4 {
            let p = &p;
            let ids = &ids;
            s.spawn(move || {
                for i in 0..200 {
                    let out = p
                        .invoke(ids[(w + i) % ids.len()], "chain", vec![vjson!(5)])
                        .expect("invokes never fail during a live edit");
                    let got = out.output.as_i64().unwrap();
                    assert!(got == 8 || got == 9, "torn plan: {got}");
                }
            });
        }
        s.spawn(|| p.edit_flow("Doc", "chain", edit).expect("edit applies"));
    });

    // The edit is fully live: a fresh invoke takes the 4-hop path.
    let id = p.create_object("Doc", vjson!({})).unwrap();
    let out = p.invoke(id, "chain", vec![vjson!(5)]).unwrap();
    assert_eq!(out.output.as_i64(), Some(9));
    assert_eq!(p.get_state(id).unwrap()["n"].as_i64(), Some(4));
}

#[test]
fn invalid_edits_are_rejected_atomically() {
    let p = chain_platform();
    let id = p.create_object("Doc", vjson!({})).unwrap();

    // Unknown function: the re-lint gate rejects before any state swap.
    let err = p
        .edit_flow(
            "Doc",
            "chain",
            FlowEdit::AddStep {
                step: StepSpec::new("bad", "ghost"),
                before: Some("c".into()),
            },
        )
        .expect_err("unknown function must be rejected");
    assert!(matches!(err, PlatformError::LintRejected(_)), "got {err:?}");

    // Deleting a step another step depends on through a non-splicable
    // shape, or one that does not exist, errors without changing the flow.
    assert!(p
        .edit_flow("Doc", "chain", FlowEdit::DeleteStep { id: "nope".into() })
        .is_err());
    assert!(p
        .edit_flow("Ghost", "chain", FlowEdit::DeleteStep { id: "a".into() })
        .is_err());

    // The original 3-hop plan still serves.
    let out = p.invoke(id, "chain", vec![vjson!(5)]).unwrap();
    assert_eq!(out.output.as_i64(), Some(8));

    // A valid delete splices `b` out: a → c, two hops.
    p.edit_flow("Doc", "chain", FlowEdit::DeleteStep { id: "b".into() })
        .expect("splicable delete applies");
    let id2 = p.create_object("Doc", vjson!({})).unwrap();
    let out = p.invoke(id2, "chain", vec![vjson!(5)]).unwrap();
    assert_eq!(out.output.as_i64(), Some(7));
    assert_eq!(p.get_state(id2).unwrap()["n"].as_i64(), Some(2));
}

/// Readonly steps whose output never reaches the flow output are
/// eliminated from the optimized program: they are in the spec (and
/// in the plain program) but never run, and `flow doctor` says so.
#[test]
fn dead_readonly_step_is_eliminated_from_compiled_plan() {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/f", |t| {
        let x = t.args.first().and_then(Value::as_i64).unwrap_or(0);
        Ok(TaskResult::output(x + 1).with_patch(vjson!({"n": (x + 1)})))
    });
    let seen_spy = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let spy = std::sync::Arc::clone(&seen_spy);
    p.register_function("img/spy", move |_| {
        spy.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        Ok(TaskResult::output(Value::Null))
    });
    p.deploy_yaml(
        "
classes:
  - name: Doc
    keySpecs: [n]
    functions:
      - name: f
        image: img/f
      - name: peek
        image: img/spy
        readonly: true
    dataflows:
      - name: audited
        output: b
        steps:
          - id: a
            function: f
            inputs: [input]
          - id: spy
            function: peek
            inputs: [\"step:a\"]
          - id: b
            function: f
            inputs: [\"step:a\"]
",
    )
    .expect("deploys");
    let id = p.create_object("Doc", vjson!({})).unwrap();
    let out = p.invoke(id, "audited", vec![vjson!(1)]).unwrap();
    assert_eq!(out.output.as_i64(), Some(3));
    assert_eq!(
        seen_spy.load(std::sync::atomic::Ordering::SeqCst),
        0,
        "dead readonly step is not executed by the compiled plan"
    );

    // ... and the doctor names the elimination.
    let reports = p.doctor();
    assert!(reports.iter().any(|r| r
        .diagnostics
        .iter()
        .any(|d| d.code == "OPRC050" && d.source.ends_with("step spy"))));
}

/// `flow doctor` and `lint` share the platform's single [`LintConfig`]:
/// a per-code override set once silences the finding in both.
#[test]
fn doctor_and_lint_share_the_lint_config() {
    let dead_spy = "
classes:
  - name: Doc
    keySpecs: [n]
    functions:
      - name: f
        image: img/f
      - name: peek
        image: img/f
        readonly: true
    dataflows:
      - name: audited
        output: b
        steps:
          - id: a
            function: f
            inputs: [input]
          - id: spy
            function: peek
            inputs: [\"step:a\"]
          - id: b
            function: f
            inputs: [\"step:a\"]
";
    let platform_with_config = |config: Option<oprc_analyzer::LintConfig>| {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/f", |_| Ok(TaskResult::output(Value::Null)));
        if let Some(c) = config {
            p.set_lint_config(c);
        }
        p.deploy_yaml(dead_spy).expect("deploys");
        p
    };

    // Default config: both lint and doctor report the dead step.
    let p = platform_with_config(None);
    let pkg = oprc_core::parse::package_from_yaml(dead_spy).unwrap();
    assert!(p.lint_package(&pkg).has_code("OPRC050"));
    assert!(p.doctor().iter().any(|r| r.has_code("OPRC050")));

    // One `allow` override silences it in both — no separate doctor
    // configuration exists.
    let p = platform_with_config(Some(oprc_analyzer::LintConfig::new().allow("OPRC050")));
    assert!(!p.lint_package(&pkg).has_code("OPRC050"));
    assert!(!p.doctor().iter().any(|r| r.has_code("OPRC050")));
}

/// `DataRef` wiring survives a round-trip through a live edit: a
/// constant-input step appended at the tail changes the flow output.
#[test]
fn appended_tail_step_with_const_input() {
    let p = chain_platform();
    let mut step = StepSpec::new("tail", "f");
    step.inputs.push(DataRef::Step {
        step: "c".into(),
        pointer: None,
    });
    p.edit_flow("Doc", "chain", FlowEdit::AddStep { step, before: None })
        .expect("tail append applies");
    // Output still points at `c` (append does not rewire the output),
    // but `tail` runs and bumps the counter one more time.
    let id = p.create_object("Doc", vjson!({})).unwrap();
    let out = p.invoke(id, "chain", vec![vjson!(5)]).unwrap();
    assert_eq!(out.output.as_i64(), Some(8));
    assert_eq!(p.get_state(id).unwrap()["n"].as_i64(), Some(4));
}
