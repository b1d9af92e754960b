//! One workload from set-up to verdict: set-ups, the timed pass, the
//! counted pass, the traced pass with its probes, and the oracle.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use crate::alloc::Gate;
use crate::ops;
use crate::passes::{self, Counters, Rep};
use crate::probes;
use crate::report::{Metrics, WorkloadResult, END_TO_END, PER_LAYER};
use crate::stats;
use crate::workloads::{self, Instance, Kind, PIPE8_STEPS};

/// How much of each pass a run does.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Set-ups per run; `setup_s` is their median.
    pub setups: usize,
    pub reps: usize,
    pub rep_secs: f64,
    /// Per client and repetition; `u64::MAX` when time alone ends it.
    pub max_calls: u64,
    /// Divides the workload's warm-up, counted, traced and probe counts.
    pub shrink: u64,
    /// Seconds of the locality-on control run of `ship_4node`.
    pub control_secs: f64,
}

impl Scale {
    /// Ten repetitions sharing `seconds`, three set-ups.
    pub fn full(seconds: f64) -> Self {
        Scale {
            setups: 3,
            reps: 10,
            rep_secs: seconds / 10.0,
            max_calls: u64::MAX,
            shrink: 1,
            control_secs: 3.0,
        }
    }

    /// About two hundred ops per pass: every code path, no statistics.
    pub fn smoke(kind: Kind) -> Self {
        Scale {
            setups: 1,
            reps: 1,
            rep_secs: 5.0,
            max_calls: (200 / kind.ops_per_call()).max(2),
            shrink: 100,
            control_secs: 5.0,
        }
    }

    fn calls(&self, full: u64) -> u64 {
        (full / self.shrink).max(2)
    }
}

/// Which metric sets a run produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Mode {
    pub end_to_end: bool,
    pub per_layer: bool,
}

fn throughput(kind: Kind, rep: &Rep) -> f64 {
    (rep.calls * kind.ops_per_call()) as f64 / rep.wall_s
}

fn timed_pass(inst: &mut Instance, reps: usize, secs: f64, max_calls: u64) -> (Vec<Rep>, Counters) {
    // Room for the fastest workload's samples, so that the buffers
    // never grow inside a repetition.
    let room = if max_calls == u64::MAX {
        (secs * 400_000.0) as usize
    } else {
        max_calls as usize
    };
    let mut latencies: Vec<Vec<u32>> = (0..inst.kind.clients())
        .map(|_| Vec::with_capacity(room))
        .collect();
    let before = Counters::read(&inst.platform);
    let reps = (0..reps)
        .map(|_| passes::timed_rep(inst, secs, max_calls, &mut latencies))
        .collect();
    (reps, Counters::read(&inst.platform).since(before))
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Orders `values` as `defs` lists them; a metric the tables name and
/// the run did not compute is a bug in the benchmark.
fn in_table_order(
    defs: &[crate::report::MetricDef],
    values: &BTreeMap<&'static str, f64>,
) -> Metrics {
    defs.iter()
        .map(|d| {
            let v = values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not computed", d.name));
            (d.name, *v)
        })
        .collect()
}

/// Runs one workload. Span files go to `trace_dir` when per-layer
/// metrics are asked for.
pub fn run_workload(
    kind: Kind,
    seed: u64,
    scale: Scale,
    mode: Mode,
    trace_dir: &Path,
) -> WorkloadResult {
    let warmup = scale.calls(kind.warmup_calls());
    let fixed = scale.calls(kind.fixed_calls());
    let mut complaints = Vec::new();

    // Set up several times and keep the last: `setup_s` is a median, so
    // one slow start does not decide it. Allocation counting runs from
    // the start of the last set-up to the end of the counted pass — one
    // thread, so the counters cost no contention — which makes the heap
    // peak a level of the whole platform, not of a pass.
    let setups = if mode.end_to_end { scale.setups } else { 1 };
    let mut setups_s = Vec::new();
    let mut built = None;
    let mut gate = None;
    for nth in 1..=setups {
        drop(built.take());
        if mode.end_to_end && nth == setups {
            gate = Some(Gate::open());
        }
        let t0 = Instant::now();
        built = Some(workloads::setup(kind, seed, warmup, false));
        setups_s.push(t0.elapsed().as_secs_f64());
    }
    let mut inst = built.expect("at least one set-up");
    let counted = gate.map(|gate| passes::counted_pass(&mut inst, fixed, &gate));
    let counted_calls = if counted.is_some() { fixed } else { 0 };

    let (reps, delta) = timed_pass(&mut inst, scale.reps, scale.rep_secs, scale.max_calls);
    let timed_ops: u64 = reps.iter().map(|r| r.calls).sum::<u64>() * kind.ops_per_call();
    // On this host interference only ever slows a repetition, and for
    // seconds at a time, so every timing metric is taken from the low
    // side of the repetitions, not their middle. A repetition's
    // throughput and p99 absorb every stolen millisecond: they are
    // those of the least disturbed repetition. Its p50 shrugs those
    // off but follows the host between its speed levels, and a lucky
    // placement of flow lanes can make one repetition's p50 too good:
    // it is the lower quartile over the repetitions.
    // The first repetition is left out: the scheduler is still placing
    // the client threads, and two clients sharing a CPU take turns
    // instead of contending, which reads as a p99 no later one reaches.
    let settled = &reps[usize::from(reps.len() > 1)..];
    let over_reps = |f: &dyn Fn(&Rep) -> f64| settled.iter().map(f).collect::<Vec<f64>>();
    let tput = over_reps(&|r| throughput(kind, r))
        .into_iter()
        .fold(0.0, f64::max);
    let p50_us = stats::lower_quartile(&over_reps(&|r| f64::from(r.p50_ns) / 1e3));
    let p99_us = over_reps(&|r| f64::from(r.p99_ns) / 1e3)
        .into_iter()
        .fold(f64::INFINITY, f64::min);
    let remote_share = ratio(delta.remote_invokes, timed_ops);
    if kind == Kind::Ship4Node && remote_share <= 0.5 {
        complaints.push(format!(
            "ship_4node: remote share {remote_share:.3} is not above 0.5"
        ));
    }

    let mut traced_calls = 0;
    let mut layer_calls = Vec::new();
    let mut layers: BTreeMap<&'static str, f64> = BTreeMap::new();
    if mode.per_layer {
        traced_calls = fixed;
        let traced = probes::traced_pass(&mut inst, fixed);
        let path = trace_dir.join(format!("trace_{}.jsonl", kind.name()));
        if let Err(e) = traced.log.write_jsonl(&path) {
            complaints.push(format!("cannot write {}: {e}", path.display()));
        }
        for l in &traced.layers {
            layer_calls.push((l.span, l.calls_per_op, l.ns_per_call));
            layers.insert(l.metric, l.ns_per_call);
        }
        layers.insert(
            "shard.contended_share",
            ratio(delta.contended, delta.acquisitions),
        );
        layers.insert(
            "shard.acquisitions_per_op",
            ratio(delta.acquisitions, timed_ops),
        );
        layers.insert("commit.commits_per_op", ratio(delta.commits, timed_ops));
        layers.insert(
            "batch.items_per_group",
            ratio(delta.batched_ops, delta.batch_groups),
        );
        layers.insert("store.dht_puts_per_op", ratio(delta.dht_puts, timed_ops));
        layers.insert(
            "store.wb_consolidated_share",
            ratio(delta.wb_consolidated, delta.dht_puts),
        );
        layers.insert(
            "store.db_batches_per_kop",
            ratio(delta.db_batches, timed_ops) * 1e3,
        );
        layers.insert("nodes.remote_share", remote_share);
        layers.insert("retry.retries_per_op", ratio(delta.retries, timed_ops));
        layers.insert("metrics.errors_per_op", ratio(delta.errors, timed_ops));
        layers.insert(
            "store.wb_flush_ns_per_record",
            traced.wb_flush_ns_per_record,
        );
        layers.insert("platform.glue_us", traced.glue_ns / 1e3);
        layers.insert("trace.span_cost_ns", traced.span_cost_ns);
        layers.insert(
            "trace.overhead_pct",
            (traced.invoke_p50_ns / 1e3 - p50_us) / p50_us * 100.0,
        );
        // The probes with a home workload; elsewhere they read 0.
        for metric in [
            "flow.compile_us",
            "flow.step_overhead_us",
            "flow.fused_chain_us",
            "nodes.locality_gain",
            "telemetry.spans_overhead_pct",
        ] {
            layers.insert(metric, 0.0);
        }
        match kind {
            Kind::FlowFanout => {
                let steps = PIPE8_STEPS as f64;
                let bodies_ns = steps * traced.ns_per_call("fn.execute");
                layers.insert("flow.compile_us", probes::flow_compile_us());
                layers.insert(
                    "flow.step_overhead_us",
                    (traced.invoke_p50_ns - bodies_ns) / steps / 1e3,
                );
                layers.insert(
                    "flow.fused_chain_us",
                    probes::fused_chain_us(scale.calls(2_000)),
                );
            }
            Kind::Ship4Node => {
                let mut control = workloads::setup(kind, seed, warmup, true);
                let (control_reps, control_delta) =
                    timed_pass(&mut control, 1, scale.control_secs, scale.max_calls);
                layers.insert(
                    "nodes.locality_gain",
                    throughput(kind, &control_reps[0]) / tput,
                );
                if control_delta.remote_invokes != 0 || control.failed() != 0 {
                    complaints.push(format!(
                        "ship_4node control: {} remote invokes, {} failed ops with locality on",
                        control_delta.remote_invokes,
                        control.failed()
                    ));
                }
            }
            Kind::HotCounter => {
                layers.insert(
                    "telemetry.spans_overhead_pct",
                    probes::telemetry_overhead_pct(&mut inst, scale.calls(10_000)),
                );
            }
            _ => {}
        }
    }

    let (checked, wrong) = inst.verify_objects();
    if wrong > 0 {
        complaints.push(format!(
            "{wrong} of {checked} objects do not hold what the calls left"
        ));
    }
    let attempted = inst.attempted() + checked;
    let failed = inst.failed() + wrong;

    let end_to_end = counted.map(|seen| {
        let counted_ops = (counted_calls * kind.ops_per_call()) as f64;
        let values = BTreeMap::from([
            ("throughput_ops_s", tput),
            ("invoke_p50_us", p50_us),
            ("invoke_p99_us", p99_us),
            ("ok_share", 1.0 - ratio(failed, attempted)),
            ("allocs_per_op", seen.allocs as f64 / counted_ops),
            ("alloc_bytes_per_op", seen.bytes as f64 / counted_ops),
            ("heap_peak_mb", seen.peak_live_bytes as f64 / 1e6),
            ("setup_s", stats::median(&setups_s)),
        ]);
        in_table_order(&END_TO_END, &values)
    });
    let per_layer = mode.per_layer.then(|| in_table_order(&PER_LAYER, &layers));

    WorkloadResult {
        kind,
        seed,
        trace_fingerprints: inst
            .clients
            .iter()
            .map(|c| ops::fingerprint(c.trace()))
            .collect(),
        setups_s,
        reps,
        counted_calls,
        traced_calls,
        end_to_end,
        per_layer,
        layer_calls,
        attempted,
        failed,
        complaints,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload end to end at smoke size: all passes, all probes,
    /// the oracle on, no bounds.
    #[test]
    fn smoke_run_of_all_six_workloads() {
        let dir = crate::artifact_dir().join("smoke-test");
        let mode = Mode {
            end_to_end: true,
            per_layer: true,
        };
        for kind in Kind::ALL {
            let r = run_workload(kind, 42, Scale::smoke(kind), mode, &dir);
            assert!(r.correct(), "{}: {:?}", kind.name(), r.complaints);
            assert!(r.attempted >= 200, "{}: {}", kind.name(), r.attempted);
            let e2e = r.end_to_end.as_ref().expect("end-to-end metrics");
            assert!(
                e2e.iter().all(|(_, v)| v.is_finite() && *v > 0.0),
                "{e2e:?}"
            );
            let layers = r.per_layer.as_ref().expect("per-layer metrics");
            assert!(layers.iter().all(|(_, v)| v.is_finite()), "{layers:?}");
            assert!(dir.join(format!("trace_{}.jsonl", kind.name())).is_file());
        }
        std::fs::remove_dir_all(&dir).expect("smoke traces are removed");
    }
}
