//! Seeded scenario soak harness over the workload scenario suite.
//!
//! Usage:
//!
//! ```text
//! cargo run -p oprc-bench --release --bin scenario_soak [-- --quick] [--check] [--soak N]
//! ```
//!
//! Runs every builtin scenario (Zipf hot keys, flash crowd + chaos,
//! diurnal swell, multi-tenant flood with and without admission
//! control) on a virtual-clock platform, asserts each scenario's
//! invariants (linearizable per-object counters, exactly-once commits,
//! fairness floor), and emits `BENCH_scenarios.json` with per-scenario
//! p50/p99/throughput/fairness plus the cross-scenario comparisons the
//! `--check` gate enforces:
//!
//! - every scenario's invariants held;
//! - Jain fairness with admission control on (`multi_tenant_fair`)
//!   is at least [`FAIRNESS_FLOOR`], and exceeds the same mix with
//!   admission off (`tenant_flood`) by at least [`FAIRNESS_MARGIN`] —
//!   the token buckets demonstrably do something;
//! - the Zipf hot-key mix concentrates at least [`SKEW_MARGIN`] more
//!   of all shard-lock traffic onto its hottest shard than the uniform
//!   baseline — popularity skew visibly stresses the shard layout;
//! - the emitted JSON shape is pinned (re-parsed from disk).
//!
//! `--soak N` additionally re-runs each scenario under `N` derived
//! seeds. A failing seed is *minimized* (duration repeatedly quartered
//! while the failure reproduces) and written into `tests/seeds/` as a
//! regression case the `scenario_seeds` tier-1 test replays forever
//! after. All runs are virtual-time and single-threaded, so results
//! are byte-identical across hosts.

use oprc_value::{json, vjson, Value};
use oprc_workloads::scenario::{builtin_scenarios, run_scenario, ScenarioReport, ScenarioSpec};

/// `--check`: minimum Jain fairness for the admission-on flood mix.
const FAIRNESS_FLOOR: f64 = 0.8;
/// `--check`: admission-on fairness must beat admission-off by this.
const FAIRNESS_MARGIN: f64 = 0.1;
/// `--check`: zipf hot-shard share must beat uniform's by this.
const SKEW_MARGIN: f64 = 0.1;

/// Minimizes a failing spec: keep quartering the duration while the
/// invariant violation still reproduces, returning the smallest spec
/// that fails (cheapest deterministic regression case).
fn minimize(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut best = spec.clone();
    loop {
        let smaller = best.clone().quick();
        if smaller.duration.as_secs_f64() < 1.0 {
            return best;
        }
        if run_scenario(&smaller).passed() {
            return best;
        }
        best = smaller;
    }
}

/// Writes a failing seed (spec + pinned expectations) into
/// `tests/seeds/` for the replay test to pick up.
fn record_seed(spec: &ScenarioSpec, report: &ScenarioReport) -> std::io::Result<String> {
    let doc = vjson!({
        "spec": (spec.to_value()),
        "expect": (vjson!({
            "invocations": (report.invocations),
            "completed": (report.completed),
            "telemetry_digest": (format!("{:016x}", report.telemetry_digest)),
            "invariant_failures": ((report.invariant_failures.len()) as u64),
        })),
    });
    std::fs::create_dir_all("tests/seeds")?;
    let path = format!("tests/seeds/{}_{}.json", spec.name, spec.seed);
    std::fs::write(&path, json::to_string_pretty(&doc))?;
    Ok(path)
}

fn report_row(r: &ScenarioReport) -> Value {
    r.to_value()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = args.iter().any(|a| a == "--quick");
    let check = args.iter().any(|a| a == "--check");
    let soak: u64 = args
        .iter()
        .position(|a| a == "--soak")
        .and_then(|i| args.get(i + 1))
        .and_then(|n| n.parse().ok())
        .unwrap_or(0);

    let specs: Vec<ScenarioSpec> = builtin_scenarios()
        .into_iter()
        .map(|s| if quick { s.quick() } else { s })
        .collect();

    let mut reports = Vec::new();
    for spec in &specs {
        let r = run_scenario(spec);
        eprintln!(
            "  {:<20} seed={:<4} arrivals={:<6} ok={:<6} err={:<4} rej={:<5} \
             p50={:>7.2}ms p99={:>7.2}ms fair={:.3} hot-shard={:.3}{}",
            r.name,
            r.seed,
            r.invocations,
            r.completed,
            r.errors,
            r.rejected,
            r.p50_ms,
            r.p99_ms,
            r.fairness,
            r.shard_max_share,
            if r.passed() { "" } else { "  INVARIANT-FAIL" }
        );
        reports.push(r);
    }

    // Optional soak sweep: derived seeds per scenario; failures are
    // minimized and recorded as regression cases.
    let mut soak_runs = 0_u64;
    let mut soak_failures = Vec::new();
    for spec in &specs {
        for i in 0..soak {
            let mut derived = spec.clone();
            // Small prime stride: distinct seeds that stay well under
            // 2^53, so a recorded spec survives the JSON f64 round-trip.
            derived.seed = spec.seed + (i + 1) * 1_000_003;
            let r = run_scenario(&derived);
            soak_runs += 1;
            if !r.passed() {
                let minimal = minimize(&derived);
                let minimal_report = run_scenario(&minimal);
                match record_seed(&minimal, &minimal_report) {
                    Ok(path) => {
                        eprintln!(
                            "  SOAK FAIL {} seed={} -> minimized to {:.0}s, recorded {}",
                            derived.name,
                            derived.seed,
                            minimal.duration.as_secs_f64(),
                            path
                        );
                        soak_failures.push(format!("{} seed={}", derived.name, derived.seed));
                    }
                    Err(e) => eprintln!("  SOAK FAIL {}: could not record seed: {e}", derived.name),
                }
            }
        }
    }
    if soak > 0 {
        eprintln!(
            "  soak: {soak_runs} derived-seed runs, {} failures",
            soak_failures.len()
        );
    }

    let by = |name: &str| {
        reports
            .iter()
            .find(|r| r.name == name)
            .expect("builtin scenario ran")
    };
    let fairness_on = by("multi_tenant_fair").fairness;
    let fairness_off = by("tenant_flood").fairness;
    let zipf_share = by("zipf_hot_key").shard_max_share;
    let uniform_share = by("uniform_baseline").shard_max_share;

    let rows: Vec<Value> = reports.iter().map(report_row).collect();
    let soak_failure_rows: Vec<Value> = soak_failures
        .iter()
        .map(|s| Value::from(s.as_str()))
        .collect();
    let doc = vjson!({
        "experiment": "scenario_soak",
        "quick": quick,
        "fairness_floor": FAIRNESS_FLOOR,
        "fairness_margin": FAIRNESS_MARGIN,
        "skew_margin": SKEW_MARGIN,
        "fairness_admission_on": fairness_on,
        "fairness_admission_off": fairness_off,
        "zipf_hot_shard_share": zipf_share,
        "uniform_hot_shard_share": uniform_share,
        "soak_runs": soak_runs,
        "soak_failures": (Value::from(soak_failure_rows)),
        "scenarios": (Value::from(rows)),
    });
    match std::fs::write("BENCH_scenarios.json", json::to_string_pretty(&doc)) {
        Ok(()) => eprintln!("  wrote BENCH_scenarios.json"),
        Err(e) => eprintln!("  could not write BENCH_scenarios.json: {e}"),
    }

    if !check {
        return;
    }
    let mut failures = Vec::new();
    for r in &reports {
        for f in &r.invariant_failures {
            failures.push(format!("{}: {f}", r.name));
        }
    }
    if !soak_failures.is_empty() {
        failures.push(format!(
            "{} soak seed(s) violated invariants (recorded in tests/seeds/)",
            soak_failures.len()
        ));
    }
    if fairness_on < FAIRNESS_FLOOR {
        failures.push(format!(
            "admission-on fairness {fairness_on:.3} below floor {FAIRNESS_FLOOR}"
        ));
    }
    if fairness_on - fairness_off < FAIRNESS_MARGIN {
        failures.push(format!(
            "admission-on fairness {fairness_on:.3} does not beat admission-off \
             {fairness_off:.3} by {FAIRNESS_MARGIN}"
        ));
    }
    if zipf_share - uniform_share < SKEW_MARGIN {
        failures.push(format!(
            "zipf hot-shard share {zipf_share:.3} does not exceed uniform \
             {uniform_share:.3} by {SKEW_MARGIN}"
        ));
    }
    // Shape pin: re-parse the emitted file so downstream tooling reads
    // exactly what was gated.
    let emitted = std::fs::read_to_string("BENCH_scenarios.json")
        .ok()
        .and_then(|s| json::parse(&s).ok());
    match emitted {
        None => failures.push("BENCH_scenarios.json missing or unparsable".to_string()),
        Some(doc) => {
            for key in [
                "experiment",
                "quick",
                "fairness_admission_on",
                "fairness_admission_off",
                "zipf_hot_shard_share",
                "uniform_hot_shard_share",
                "scenarios",
            ] {
                if doc.get(key).is_none() {
                    failures.push(format!("BENCH_scenarios.json lacks '{key}'"));
                }
            }
            let rows = doc["scenarios"].as_array().unwrap_or(&[]).len();
            if rows != specs.len() {
                failures.push(format!(
                    "expected {} scenario rows, found {rows}",
                    specs.len()
                ));
            }
            for row in doc["scenarios"].as_array().unwrap_or(&[]) {
                for key in [
                    "name",
                    "seed",
                    "invocations",
                    "completed",
                    "errors",
                    "rejected",
                    "p50_ms",
                    "p99_ms",
                    "throughput",
                    "fairness",
                    "shard_max_share",
                    "telemetry_digest",
                    "passed",
                ] {
                    if row.get(key).is_none() {
                        failures.push(format!("scenario row lacks '{key}'"));
                    }
                }
            }
        }
    }

    if failures.is_empty() {
        println!(
            "scenario_soak: ok — {} scenarios, fairness on/off {fairness_on:.3}/{fairness_off:.3}, \
             hot-shard zipf/uniform {zipf_share:.3}/{uniform_share:.3}",
            reports.len()
        );
    } else {
        for f in &failures {
            eprintln!("scenario_soak: FAIL — {f}");
        }
        std::process::exit(1);
    }
}
