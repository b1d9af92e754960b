//! Observability smoke: deterministic profile/SLO exports.
//!
//! Usage:
//!
//! ```text
//! cargo run -p oprc-bench --release --bin obs_smoke
//! ```
//!
//! Runs a fixed session (seed-42 platform, virtual clock, logical-clock
//! telemetry) twice and requires the `profile --json`,
//! `profile --collapsed`, and `slo --json` exports to be byte-identical
//! across runs, with their top-level JSON shapes pinned. This is what
//! makes the flamegraph and burn-rate surfaces scriptable: downstream
//! tooling can diff them. What observability *costs* is the benchmark's
//! `telemetry.spans_overhead_pct` (`benchmark/`), not a gate here.

use oprc_core::invocation::TaskResult;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_platform::gateway::OprcCtl;
use oprc_simcore::SimDuration;
use oprc_telemetry::{ClockMode, TelemetryConfig, TelemetryLevel};
use oprc_value::{json, vjson, Value};

const SEED: u64 = 42;

fn register_counter(p: &mut EmbeddedPlatform) {
    p.register_function("img/obs-incr", |task| {
        let n = task.state_in["count"].as_i64().unwrap_or(0) + 1;
        Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
    });
}

/// One fixed observability session: virtual clock, logical-clock
/// telemetry, 60 warm invokes spread over 30s of virtual time, one
/// platform tick, then the three deterministic exports.
fn observed_session() -> (String, String, String) {
    let mut p = EmbeddedPlatform::new();
    p.enable_virtual_clock();
    p.enable_telemetry(TelemetryConfig {
        level: TelemetryLevel::Spans,
        clock: ClockMode::Logical,
        capacity: 4096,
    });
    register_counter(&mut p);
    p.deploy_yaml(
        "
classes:
  - name: Obs
    keySpecs: [count]
    qos:
      availability: 0.999
      latency: 50
    functions:
      - name: incr
        image: img/obs-incr
",
    )
    .expect("obs class deploys");
    let id = p
        .create_object("Obs", vjson!({"count": 0}))
        .expect("creates");
    for _ in 0..60 {
        p.invoke(id, "incr", vec![]).expect("invokes");
        p.advance_clock(SimDuration::from_millis(500));
    }
    p.tick();
    let mut ctl = OprcCtl::new(p);
    let profile = ctl.execute("profile --json").expect("profile runs").text;
    let collapsed = ctl
        .execute("profile --collapsed")
        .expect("collapsed runs")
        .text;
    let slo = ctl.execute("slo --json").expect("slo runs").text;
    (profile, collapsed, slo)
}

fn main() {
    let mut failures: Vec<String> = Vec::new();

    // --- Determinism: two fresh sessions must export identical bytes.
    let (profile_a, collapsed_a, slo_a) = observed_session();
    let (profile_b, collapsed_b, slo_b) = observed_session();
    if profile_a != profile_b {
        failures.push("profile --json differs between identical runs".into());
    }
    if collapsed_a != collapsed_b {
        failures.push("profile --collapsed differs between identical runs".into());
    }
    if slo_a != slo_b {
        failures.push("slo --json differs between identical runs".into());
    }

    // --- Shape pins.
    match json::parse(&profile_a) {
        Err(e) => failures.push(format!("profile --json unparsable: {e}")),
        Ok(doc) => {
            let keys: Vec<&str> = doc
                .as_object()
                .map(|o| o.keys().map(String::as_str).collect())
                .unwrap_or_default();
            if keys != ["frames", "stacks"] {
                failures.push(format!("profile keys {keys:?} != [frames, stacks]"));
            }
            let frame_names: Vec<&str> = doc["frames"]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .filter_map(|f| f["name"].as_str())
                .collect();
            if !frame_names.contains(&"Obs::incr") {
                failures.push(format!(
                    "no Obs::incr root frame in profile (got {frame_names:?})"
                ));
            }
            for want in ["route", "engine.execute", "state.commit"] {
                if !frame_names.contains(&want) {
                    failures.push(format!("no '{want}' frame in profile"));
                }
            }
            for f in doc["frames"].as_array().unwrap_or(&[]) {
                for key in ["count", "name", "self_ns", "total_ns"] {
                    if f.get(key).is_none() {
                        failures.push(format!("profile frame lacks '{key}'"));
                    }
                }
            }
        }
    }
    if !collapsed_a.lines().any(|l| l.starts_with("Obs::incr")) {
        failures.push("collapsed stacks do not start at Obs::incr".into());
    }
    match json::parse(&slo_a) {
        Err(e) => failures.push(format!("slo --json unparsable: {e}")),
        Ok(doc) => {
            let row = doc["classes"]
                .as_array()
                .unwrap_or(&[])
                .iter()
                .find(|r| r["class"].as_str() == Some("Obs"))
                .cloned()
                .unwrap_or(Value::Null);
            let keys: Vec<&str> = row
                .as_object()
                .map(|o| o.keys().map(String::as_str).collect())
                .unwrap_or_default();
            if keys
                != [
                    "active",
                    "availability",
                    "burn_fast",
                    "burn_slow",
                    "class",
                    "error_budget",
                    "latency_ok",
                    "max_p99_ms",
                    "status",
                    "window_p99_ms",
                ]
            {
                failures.push(format!("slo row keys not pinned: {keys:?}"));
            }
            if row["status"].as_str() != Some("ok") {
                failures.push(format!(
                    "healthy class should be ok, got {:?}",
                    row["status"].as_str()
                ));
            }
            if row["active"].as_bool() != Some(true) {
                failures.push("class with window traffic should be active".into());
            }
            if row["max_p99_ms"].as_u64() != Some(50) {
                failures.push("declared latency objective not surfaced".into());
            }
        }
    }

    if failures.is_empty() {
        println!(
            "obs_smoke: ok — seed {SEED} exports byte-stable ({} profile bytes, {} slo bytes)",
            profile_a.len(),
            slo_a.len()
        );
    } else {
        for f in &failures {
            eprintln!("obs_smoke: FAIL — {f}");
        }
        std::process::exit(1);
    }
}
