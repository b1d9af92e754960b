//! Metric definitions, the result document, and the A/A comparison.

use oprc_value::{json, vjson, Value};

use crate::passes::Rep;
use crate::stats;
use crate::workloads::Kind;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// A metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which an end-to-end metric may
    /// worsen before it counts as a regression; per-layer metrics have
    /// no bound.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the platform sees. The timing and allocation bounds
/// are wider than the issue first proposed, to cover the spread measured
/// on this host; see README, "Departures from the issue".
pub const END_TO_END: [MetricDef; 8] = [
    e2e("throughput_ops_s", "ops/s", Better::Higher, 0.25),
    e2e("invoke_p50_us", "us", Better::Lower, 0.25),
    e2e("invoke_p99_us", "us", Better::Lower, 0.25),
    e2e("ok_share", "ratio", Better::Higher, 0.001),
    e2e("allocs_per_op", "count", Better::Lower, 0.03),
    e2e("alloc_bytes_per_op", "bytes", Better::Lower, 0.06),
    e2e("heap_peak_mb", "MB", Better::Lower, 0.05),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

/// One layer each; layer names are module names.
pub const PER_LAYER: [MetricDef; 28] = [
    layer("shard.contended_share", "ratio", Better::Lower),
    layer("shard.acquisitions_per_op", "count", Better::Lower),
    layer("commit.commits_per_op", "count", Better::Lower),
    layer("batch.items_per_group", "count", Better::Higher),
    layer("store.dht_puts_per_op", "count", Better::Lower),
    layer("store.wb_consolidated_share", "ratio", Better::Higher),
    layer("store.db_batches_per_kop", "count", Better::Lower),
    layer("nodes.remote_share", "ratio", Better::Lower),
    layer("retry.retries_per_op", "count", Better::Lower),
    layer("metrics.errors_per_op", "count", Better::Lower),
    layer("admission.admit_ns", "ns", Better::Lower),
    layer("router.route_ns", "ns", Better::Lower),
    layer("metrics.record_ns", "ns", Better::Lower),
    layer("partition.owner_lookup_ns", "ns", Better::Lower),
    layer("state.load_ns", "ns", Better::Lower),
    layer("value.snapshot_clone_ns", "ns", Better::Lower),
    layer("value.merge_patch_ns", "ns", Better::Lower),
    layer("state.store_ns", "ns", Better::Lower),
    layer("store.wb_flush_ns_per_record", "ns", Better::Lower),
    layer("fn.execute_ns", "ns", Better::Lower),
    layer("flow.compile_us", "us", Better::Lower),
    layer("flow.step_overhead_us", "us", Better::Lower),
    layer("flow.fused_chain_us", "us", Better::Lower),
    layer("platform.glue_us", "us", Better::Lower),
    layer("nodes.locality_gain", "ratio", Better::Higher),
    layer("telemetry.spans_overhead_pct", "%", Better::Lower),
    layer("trace.overhead_pct", "%", Better::Lower),
    layer("trace.span_cost_ns", "ns", Better::Lower),
];

/// Named values, in declaration order.
pub type Metrics = Vec<(&'static str, f64)>;

/// Everything one workload's run produced.
pub struct WorkloadResult {
    pub kind: Kind,
    pub seed: u64,
    pub trace_fingerprints: Vec<u64>,
    pub setups_s: Vec<f64>,
    pub reps: Vec<Rep>,
    pub counted_calls: u64,
    pub traced_calls: u64,
    pub end_to_end: Option<Metrics>,
    pub per_layer: Option<Metrics>,
    /// Layer, calls per op, median ns per call: the share-of-latency
    /// table of the traced pass.
    pub layer_calls: Vec<(&'static str, f64, f64)>,
    pub attempted: u64,
    pub failed: u64,
    /// Oracle verdicts that are not per-op: object checks, remote share.
    pub complaints: Vec<String>,
}

impl WorkloadResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.complaints.is_empty()
    }

    fn defs_and_values(&self) -> impl Iterator<Item = (&'static MetricDef, f64)> + '_ {
        let e2e = self
            .end_to_end
            .iter()
            .flat_map(|m| END_TO_END.iter().zip(m.iter().map(|(_, v)| *v)));
        let layers = self
            .per_layer
            .iter()
            .flat_map(|m| PER_LAYER.iter().zip(m.iter().map(|(_, v)| *v)));
        e2e.chain(layers)
    }

    /// The `metrics` object of the result line.
    pub fn metrics_value(&self) -> Value {
        let mut out = Value::object();
        for (def, value) in self.defs_and_values() {
            out.insert(def.name, vjson!({"value": value, "unit": (def.unit)}));
        }
        out
    }

    /// Every metric by name with its unit, then what the medians stand
    /// on: each repetition's value and the sample counts.
    pub fn print(&self) {
        println!("== {} (seed {}) ==", self.kind.name(), self.seed);
        for (def, value) in self.defs_and_values() {
            println!("  {:<32} {:>16.4} {}", def.name, value, def.unit);
        }
        if !self.layer_calls.is_empty() {
            println!("  layer calls in the traced pass (calls/op x median ns/call):");
            for (name, per_op, ns) in &self.layer_calls {
                if *per_op > 0.0 {
                    println!("    {name:<28} {per_op:>8.3} x {ns:>10.1} ns");
                }
            }
        }
        let ops = self.kind.ops_per_call() as f64;
        for (i, r) in self.reps.iter().enumerate() {
            println!(
                "  rep {i}: {:.1} ops/s, p50 {:.2} us, p99 {:.2} us, {} calls, {} samples beyond p99{}",
                r.calls as f64 * ops / r.wall_s,
                f64::from(r.p50_ns) / 1e3,
                f64::from(r.p99_ns) / 1e3,
                r.calls,
                r.beyond_p99,
                if i == 0 && self.reps.len() > 1 {
                    " (settling, not used)"
                } else {
                    ""
                },
            );
        }
        let spread = |f: &dyn Fn(&Rep) -> f64| {
            stats::rel_range(&self.reps.iter().map(f).collect::<Vec<_>>()) * 100.0
        };
        println!(
            "  spread over repetitions, (max - min) / median: throughput {:.1}%, p50 {:.1}%, p99 {:.1}%",
            spread(&|r| r.calls as f64 / r.wall_s),
            spread(&|r| f64::from(r.p50_ns)),
            spread(&|r| f64::from(r.p99_ns)),
        );
        println!(
            "  set-ups: {:?} s; counted calls {}; traced calls {}; trace fingerprints {:x?}",
            self.setups_s, self.counted_calls, self.traced_calls, self.trace_fingerprints
        );
        println!(
            "  oracle: {} attempted, {} failed{}",
            self.attempted,
            self.failed,
            if self.correct() {
                ", correct"
            } else {
                ", WRONG"
            }
        );
        for c in &self.complaints {
            println!("  oracle: {c}");
        }
    }

    /// The record kept in the results file.
    pub fn to_value(&self) -> Value {
        let ops = self.kind.ops_per_call() as f64;
        let reps: Vec<Value> = self
            .reps
            .iter()
            .map(|r| {
                vjson!({
                    "calls": (r.calls),
                    "wall_s": (r.wall_s),
                    "throughput_ops_s": (r.calls as f64 * ops / r.wall_s),
                    "p50_us": (f64::from(r.p50_ns) / 1e3),
                    "p99_us": (f64::from(r.p99_ns) / 1e3),
                    "samples_beyond_p99": (r.beyond_p99 as u64),
                })
            })
            .collect();
        let fingerprints: Vec<Value> = self
            .trace_fingerprints
            .iter()
            .map(|f| Value::from(format!("{f:016x}")))
            .collect();
        vjson!({
            "workload": (self.kind.name()),
            "seed": (self.seed),
            "clients": (self.kind.clients() as u64),
            "trace_fingerprints": (Value::from(fingerprints)),
            "setups_s": (Value::from(self.setups_s.iter().copied().map(Value::from).collect::<Vec<_>>())),
            "repetitions": (Value::from(reps)),
            "counted_calls": (self.counted_calls),
            "traced_calls": (self.traced_calls),
            "metrics": (self.metrics_value()),
            "attempted": (self.attempted),
            "failed": (self.failed),
            "correct": (self.correct()),
            "complaints": (Value::from(self.complaints.iter().cloned().map(Value::from).collect::<Vec<_>>())),
        })
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed` and `metrics`. One workload's metrics go by their names; a
/// suite prefixes each with `<workload>/`.
pub fn result_line(results: &[WorkloadResult]) -> String {
    let metrics = if let [one] = results {
        one.metrics_value()
    } else {
        let mut all = Value::object();
        for r in results {
            if let Value::Object(map) = r.metrics_value() {
                for (name, v) in map {
                    all.insert(format!("{}/{name}", r.kind.name()), v);
                }
            }
        }
        all
    };
    json::to_string(&vjson!({
        "correct": (results.iter().all(WorkloadResult::correct)),
        "attempted": (results.iter().map(|r| r.attempted).sum::<u64>().max(1)),
        "failed": (results.iter().map(|r| r.failed).sum::<u64>()),
        "metrics": metrics,
    }))
}

/// By how much of `a` the value `b` is worse (positive) or better
/// (negative), in the metric's own direction.
pub fn worsening(def: &MetricDef, a: f64, b: f64) -> f64 {
    if a == 0.0 {
        return if b == 0.0 { 0.0 } else { f64::INFINITY };
    }
    match def.better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Compares two runs of the same code, metric by metric and workload
/// by workload. Prints both medians, their relative difference and the
/// bound; returns how many differences exceed their bound.
pub fn compare_aa(first: &[WorkloadResult], second: &[WorkloadResult]) -> usize {
    let mut over = 0;
    println!("== A/A: two runs of the same code ==");
    println!(
        "  {:<18} {:<20} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "first", "second", "diff", "bound"
    );
    for (a, b) in first.iter().zip(second) {
        let (Some(ma), Some(mb)) = (&a.end_to_end, &b.end_to_end) else {
            continue;
        };
        for (def, ((_, va), (_, vb))) in END_TO_END.iter().zip(ma.iter().zip(mb)) {
            let diff = worsening(def, *va, *vb).abs();
            let bound = def.bound.unwrap_or(f64::INFINITY);
            let verdict = if diff > bound {
                over += 1;
                "  OVER"
            } else {
                ""
            };
            println!(
                "  {:<18} {:<20} {:>14.4} {:>14.4} {:>8.2}% {:>6.1}%{verdict}",
                a.kind.name(),
                def.name,
                va,
                vb,
                diff * 100.0,
                bound * 100.0
            );
        }
    }
    over
}

/// Where the run happened: results from another host shape are another
/// experiment.
pub fn host_fingerprint() -> Value {
    let output_of = |program: &str, args: &[&str]| -> String {
        std::process::Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vjson!({
        "nproc": (nproc as u64),
        "cpu_model": cpu_model,
        "rustc": (output_of("rustc", &["--version"])),
        "git_commit": (output_of("git", &["rev-parse", "--short", "HEAD"])),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the tables above must say the same thing.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable"))
            .expect("BENCHMARK.json parses");
        let workloads: Vec<&str> = doc["workloads"]
            .as_array()
            .expect("workloads")
            .iter()
            .map(|w| w["name"].as_str().expect("name"))
            .collect();
        let ours: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
        assert_eq!(workloads, ours);
        for (section, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc[section].as_array().expect("metric list");
            assert_eq!(listed.len(), defs.len(), "{section}");
            for (entry, def) in listed.iter().zip(defs) {
                assert_eq!(entry["name"].as_str(), Some(def.name));
                assert_eq!(entry["unit"].as_str(), Some(def.unit), "{}", def.name);
                let better = match def.better {
                    Better::Lower => "lower",
                    Better::Higher => "higher",
                };
                assert_eq!(entry["better"].as_str(), Some(better), "{}", def.name);
                assert_eq!(
                    entry.get("bound").and_then(Value::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = &END_TO_END[1];
        let higher = &END_TO_END[0];
        assert!((worsening(lower, 10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 10.0, 11.0) + 0.1).abs() < 1e-12);
        assert_eq!(worsening(lower, 0.0, 0.0), 0.0);
    }
}
