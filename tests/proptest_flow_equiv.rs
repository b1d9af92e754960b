//! Property: the flow compiler is semantics-preserving. For any random
//! DAG dataflow, running it through the optimized program
//! (dead-stage elimination + fusion + parallel stages) produces the
//! same flow output and the same final object state as running the
//! identical flow with the fusion pass disabled — with the same or
//! fewer state commits — and so does the plain program the engine
//! walks serially, through the retry loop, when chaos is armed. Plus:
//! chaos runs replay byte-identically, so fusion never leaks into the
//! deterministic fault-injection goldens.

use oprc_chaos::FaultPlan;
use oprc_core::dataflow::{DataRef, DataflowSpec, StepSpec};
use oprc_core::invocation::TaskResult;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_telemetry::TelemetryConfig;
use oprc_value::{vjson, Value};
use proptest::prelude::*;

/// Strategy: a random DAG dataflow where step `i` depends on a subset
/// of earlier steps (or the flow input when the subset is empty); the
/// flow output is the last step.
fn arb_dataflow() -> impl Strategy<Value = DataflowSpec> {
    prop::collection::vec(prop::collection::vec(any::<u16>(), 0..3), 2..7).prop_map(|deps| {
        let n = deps.len();
        let mut df = DataflowSpec::new("flow");
        for (i, picks) in deps.into_iter().enumerate() {
            let mut step = StepSpec::new(format!("s{i}"), "f");
            let mut used = std::collections::BTreeSet::new();
            for p in picks {
                if i > 0 {
                    used.insert(p as usize % i);
                }
            }
            if used.is_empty() {
                step = step.from_input();
            }
            for t in used {
                step = step.from_step(format!("s{t}"));
            }
            df = df.step(step);
        }
        df.output_from(format!("s{}", n - 1))
    })
}

/// Deploys `df` on a fresh platform whose single function is pure in
/// (state, args): output = 1 + Σ numeric args, state `n` accumulates
/// the outputs. Any reordering or batching the optimizer gets wrong
/// shows up in either the flow output or the committed state.
fn platform_with(df: &DataflowSpec, fuse: bool) -> EmbeddedPlatform {
    let mut p = EmbeddedPlatform::new();
    p.register_function("img/f", |t| {
        let s: i64 = t.args.iter().filter_map(Value::as_i64).sum();
        let out = s + 1;
        let n = t.state_in["n"].as_i64().unwrap_or(0) + out;
        Ok(TaskResult::output(out).with_patch(vjson!({"n": n})))
    });
    let mut yaml = String::from(
        "classes:\n  - name: Doc\n    keySpecs: [n]\n    functions:\n      - name: f\n        image: img/f\n    dataflows:\n      - name: flow\n        output: ",
    );
    yaml.push_str(df.output.as_deref().unwrap());
    yaml.push_str("\n        steps:\n");
    for step in &df.steps {
        yaml.push_str(&format!(
            "          - id: {}\n            function: f\n            inputs: [{}]\n",
            step.id,
            step.inputs
                .iter()
                .map(|r| match r {
                    DataRef::Input => "input".to_string(),
                    DataRef::Step { step, .. } => format!("\"step:{step}\""),
                    DataRef::Const(_) => unreachable!("not generated"),
                })
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    if !fuse {
        let mut p2 = p;
        p2.deploy_yaml(&yaml).expect("random DAG deploys");
        p2.set_flow_fusion(false).expect("recompiles unfused");
        return p2;
    }
    p.deploy_yaml(&yaml).expect("random DAG deploys");
    p
}

fn run(p: &EmbeddedPlatform, arg: i64) -> (Value, Value, u64) {
    let id = p.create_object("Doc", vjson!({})).expect("creates");
    let before = p.metrics().commits_total();
    let out = p.invoke(id, "flow", vec![vjson!(arg)]).expect("flow runs");
    let commits = p.metrics().commits_total() - before;
    (out.output, p.get_state(id).expect("state"), commits)
}

/// What a serial walk leaves in `n`: every step's output, each added
/// to the state its predecessor committed. (Declaration order is
/// topological: step `i` depends on earlier steps only.)
fn serial_sum(df: &DataflowSpec, arg: i64) -> i64 {
    let mut outs: std::collections::BTreeMap<&str, i64> = Default::default();
    for step in &df.steps {
        let args: i64 = step
            .inputs
            .iter()
            .map(|r| match r {
                DataRef::Input => arg,
                DataRef::Step { step, .. } => outs[step.as_str()],
                DataRef::Const(_) => unreachable!("not generated"),
            })
            .sum();
        outs.insert(&step.id, args + 1);
    }
    outs.values().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimized ≡ fusion-disabled ≡ plain-under-chaos: same output,
    /// same final state; the optimizer never adds commits, and the plain
    /// program commits exactly once per step. One caveat on state: the
    /// steps of a parallel stage all read the pre-stage state, while the
    /// serial walk commits between them — `f` adds to the `n` it read,
    /// so the plain arm's state equals the others' only on flows whose
    /// stages are one step wide, and [`serial_sum`] everywhere.
    #[test]
    fn optimized_flow_equals_interpreted(df in arb_dataflow(), arg in -100i64..100) {
        let p_on = platform_with(&df, true);
        let p_off = platform_with(&df, false);
        // Chaos armed at rate 0 injects nothing, but sends the flow down
        // the plain program, one step at a time through the retry loop.
        let mut p_plain = platform_with(&df, true);
        p_plain.enable_chaos(FaultPlan::new(7).rate_all(0.0));
        let (out_on, state_on, commits_on) = run(&p_on, arg);
        let (out_off, state_off, commits_off) = run(&p_off, arg);
        let (out_plain, state_plain, commits_plain) = run(&p_plain, arg);
        prop_assert_eq!(&out_on, &out_off);
        prop_assert_eq!(&state_on, &state_off);
        prop_assert!(
            commits_on <= commits_off,
            "optimizer added commits: {} > {}", commits_on, commits_off
        );
        prop_assert_eq!(out_plain, out_off);
        prop_assert_eq!(commits_plain, df.steps.len() as u64);
        prop_assert_eq!(state_plain["n"].as_i64(), Some(serial_sum(&df, arg)));
        if df.try_stages().expect("acyclic").iter().all(|stage| stage.len() == 1) {
            prop_assert_eq!(state_plain, state_off);
        }
    }
}

/// Chaos runs walk the plain program serially, so seeded fault
/// injection over a fusable chain stays byte-for-byte reproducible.
#[test]
fn seeded_chaos_replay_is_byte_identical() {
    let run = || {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/f", |t| {
            let x = t.args.first().and_then(Value::as_i64).unwrap_or(0);
            let n = t.state_in["n"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(x + 1).with_patch(vjson!({"n": n})))
        });
        p.enable_telemetry(TelemetryConfig::default());
        p.deploy_yaml(
            "
classes:
  - name: Doc
    qos:
      availability: 0.99
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
",
        )
        .expect("deploys");
        p.enable_chaos(FaultPlan::new(42).rate_all(0.25).latency_share(0.3));
        let id = p.create_object("Doc", vjson!({})).expect("creates");
        for _ in 0..16 {
            let _ = p.invoke(id, "chain", vec![vjson!(5)]);
        }
        (p.telemetry().export_jsonl(), p.get_state(id).unwrap())
    };
    let (jsonl_a, state_a) = run();
    let (jsonl_b, state_b) = run();
    assert_eq!(jsonl_a, jsonl_b, "chaos replay must be byte-identical");
    assert_eq!(state_a, state_b);
    assert_eq!(
        jsonl_a.matches("dataflow.fused").count(),
        0,
        "chaos runs take the interpreted engine"
    );
}
