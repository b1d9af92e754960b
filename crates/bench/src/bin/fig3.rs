//! Regenerates the paper's Figure 3 plus the ablation tables.
//!
//! Usage:
//!
//! ```text
//! cargo run -p oprc-bench --bin fig3 --release [-- --quick]
//! ```
//!
//! Prints, in order:
//!
//! 1. **Figure 3** — throughput vs worker VMs for the four systems;
//! 2. a latency companion table (p50/p99 per system at each scale);
//! 3. **A1** — write-behind batch-size sweep (why batching wins);
//! 4. **A2** — template-selection ablation (selected template vs the
//!    one-size-fits-all default for a high-throughput class);
//! 5. **A4** — locality-routing ablation on the embedded platform.
//!
//! All runs are deterministic (fixed seeds).

use oprc_bench::{format_table, sim_config_for_template};
use oprc_core::nfr::NfrSpec;
use oprc_core::template::TemplateCatalog;
use oprc_platform::embedded::EmbeddedPlatform;
use oprc_platform::sim::{self, ExperimentConfig, SystemVariant};
use oprc_simcore::SimDuration;
use oprc_value::vjson;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (warmup, measure) = if quick { (5, 8) } else { (10, 20) };
    let vm_counts = [3u32, 6, 9, 12];

    println!("== Oparaca reproduction: paper Figure 3 ==");
    println!(
        "(closed-loop JSON-randomization workload; {warmup}s warmup, {measure}s window; seed 42)\n"
    );

    let mut results = Vec::new();
    for &vms in &vm_counts {
        for variant in SystemVariant::all() {
            let mut cfg = ExperimentConfig::fig3(variant, vms);
            cfg.warmup = SimDuration::from_secs(warmup);
            cfg.measure = SimDuration::from_secs(measure);
            let r = sim::run(cfg);
            eprintln!(
                "  ran {:<24} vms={:<2} throughput={:>8.0}/s p99={:>7.1}ms",
                r.variant.label(),
                r.vms,
                r.throughput,
                r.p99_ms
            );
            results.push(r);
        }
    }

    // Machine-readable results for downstream tooling/regression
    // tracking.
    let json_results: Vec<oprc_value::Value> = results
        .iter()
        .map(|r| {
            vjson!({
                "system": (r.variant.label()),
                "vms": (r.vms),
                "throughput": (r.throughput),
                "p50_ms": (r.p50_ms),
                "p99_ms": (r.p99_ms),
                "replicas": (r.replicas),
            })
        })
        .collect();
    let doc = vjson!({
        "experiment": "fig3",
        "seed": 42,
        "quick": quick,
        "results": (oprc_value::Value::from(json_results)),
    });
    match std::fs::write("BENCH_fig3.json", oprc_value::json::to_string_pretty(&doc)) {
        Ok(()) => eprintln!("  wrote BENCH_fig3.json"),
        Err(e) => eprintln!("  could not write BENCH_fig3.json: {e}"),
    }

    let throughput_of = |variant: SystemVariant, vms: u32| -> f64 {
        results
            .iter()
            .find(|r| r.variant == variant && r.vms == vms)
            .map_or(f64::NAN, |r| r.throughput)
    };

    // --- Figure 3 table ---
    let header: Vec<String> = std::iter::once("vms".to_string())
        .chain(SystemVariant::all().iter().map(|v| v.label().to_string()))
        .collect();
    let rows: Vec<Vec<String>> = vm_counts
        .iter()
        .map(|&vms| {
            std::iter::once(vms.to_string())
                .chain(
                    SystemVariant::all()
                        .iter()
                        .map(|&v| format!("{:.0}", throughput_of(v, vms))),
                )
                .collect()
        })
        .collect();
    println!("\nFigure 3 — throughput (req/s) vs worker VMs");
    println!("{}", format_table(&header, &rows));

    // --- Latency companion ---
    let mut rows = Vec::new();
    for r in &results {
        rows.push(vec![
            r.variant.label().to_string(),
            r.vms.to_string(),
            format!("{:.1}", r.p50_ms),
            format!("{:.1}", r.p99_ms),
            r.replicas.to_string(),
            r.db_single_writes.to_string(),
            r.db_batch_writes.to_string(),
            r.consolidated.to_string(),
        ]);
    }
    println!("Companion table — latency and storage behaviour");
    println!(
        "{}",
        format_table(
            &[
                "system".into(),
                "vms".into(),
                "p50 ms".into(),
                "p99 ms".into(),
                "replicas".into(),
                "db singles".into(),
                "db batches".into(),
                "consolidated".into(),
            ],
            &rows
        )
    );

    // --- Shape checks (paper's qualitative findings) ---
    println!("Shape checks vs the paper:");
    let kn6 = throughput_of(SystemVariant::Knative, 6);
    let kn12 = throughput_of(SystemVariant::Knative, 12);
    check(
        "knative plateaus after 6 VMs (§V)",
        kn12 < kn6 * 1.15,
        format!("6→12 VMs: {kn6:.0} → {kn12:.0} req/s"),
    );
    let op12 = throughput_of(SystemVariant::Oprc, 12);
    check(
        "oprc significantly above knative at 12 VMs",
        op12 > kn12 * 1.5,
        format!("knative {kn12:.0} vs oprc {op12:.0} req/s"),
    );
    let np3 = throughput_of(SystemVariant::OprcBypassNonPersist, 3);
    let np12 = throughput_of(SystemVariant::OprcBypassNonPersist, 12);
    check(
        "nonpersist scales ~linearly (DB-unconstrained ceiling)",
        np12 / np3 > 3.3,
        format!("3→12 VMs: {:.2}x", np12 / np3),
    );
    let by12 = throughput_of(SystemVariant::OprcBypass, 12);
    check(
        "oprc variants sublinear but ordered: oprc ≤ bypass ≤ nonpersist",
        op12 <= by12 * 1.05 && by12 <= np12 * 1.02,
        format!("oprc {op12:.0}, bypass {by12:.0}, nonpersist {np12:.0}"),
    );

    // --- A1: batch-size sweep ---
    println!("\nA1 — write-behind batch size (oprc-bypass, 9 VMs)");
    let mut rows = Vec::new();
    for batch in [1usize, 10, 50, 100, 500] {
        let mut cfg = ExperimentConfig::fig3(SystemVariant::OprcBypass, 9);
        cfg.warmup = SimDuration::from_secs(warmup);
        cfg.measure = SimDuration::from_secs(measure);
        cfg.write_behind.max_batch = batch;
        let r = sim::run(cfg);
        rows.push(vec![
            batch.to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.p99_ms),
            r.db_batch_writes.to_string(),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "batch".into(),
                "req/s".into(),
                "p99 ms".into(),
                "db batches".into()
            ],
            &rows
        )
    );

    // --- A2: template selection vs one-size-fits-all ---
    println!("A2 — requirement-driven template vs default template (throughput-1000 class, 9 VMs)");
    let catalog = TemplateCatalog::standard();
    let hot_nfr = NfrSpec::from_value(&vjson!({"qos": {"throughput": 5000}})).unwrap();
    let selected = catalog.select(&hot_nfr).expect("standard catalog matches");
    let default_cfg = catalog
        .templates()
        .iter()
        .find(|t| t.name == "default")
        .expect("default template exists");
    let mut rows = Vec::new();
    for (label, template) in [("selected", selected), ("default", default_cfg)] {
        let mut cfg = sim_config_for_template(SystemVariant::Oprc, 9, &template.config);
        cfg.warmup = SimDuration::from_secs(warmup);
        cfg.measure = SimDuration::from_secs(measure);
        let r = sim::run(cfg);
        rows.push(vec![
            label.to_string(),
            template.name.clone(),
            r.variant.label().to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.p99_ms),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "catalog".into(),
                "template".into(),
                "maps to".into(),
                "req/s".into(),
                "p99 ms".into()
            ],
            &rows
        )
    );

    // --- A4: locality routing ---
    println!("A4a — data-locality routing in simulation (oprc-bypass-nonpersist, 9 VMs)");
    let mut rows = Vec::new();
    for locality in [true, false] {
        let mut cfg = ExperimentConfig::fig3(SystemVariant::OprcBypassNonPersist, 9);
        cfg.warmup = SimDuration::from_secs(warmup);
        cfg.measure = SimDuration::from_secs(measure);
        cfg.locality_routing = locality;
        let r = sim::run(cfg);
        rows.push(vec![
            if locality {
                "locality"
            } else {
                "random replica"
            }
            .to_string(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.p50_ms),
            format!("{:.1}", r.p99_ms),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "routing".into(),
                "req/s".into(),
                "p50 ms".into(),
                "p99 ms".into()
            ],
            &rows
        )
    );

    println!("A4b — data-locality routing (embedded 4-node plane, 2000 invocations)");
    let mut rows = Vec::new();
    for locality in [true, false] {
        let (local, remote) = locality_run(locality);
        rows.push(vec![
            if locality { "locality" } else { "round-robin" }.to_string(),
            local.to_string(),
            remote.to_string(),
            format!(
                "{:.0}%",
                100.0 * local as f64 / (local + remote).max(1) as f64
            ),
        ]);
    }
    println!(
        "{}",
        format_table(
            &[
                "routing".into(),
                "state-local".into(),
                "state-remote".into(),
                "local %".into()
            ],
            &rows
        )
    );
    println!("(a state-remote execution pays one extra network hop per invocation — §II-A)");
}

fn check(what: &str, ok: bool, detail: String) {
    println!("  [{}] {what} — {detail}", if ok { "ok" } else { "MISS" });
}

/// Runs 2000 invocations on a 4-node embedded plane with locality
/// routing on or off, returning the `(local, remote)` node-hop counts
/// summed over the nodes.
fn locality_run(locality: bool) -> (u64, u64) {
    use oprc_core::invocation::TaskResult;
    use oprc_core::template::{ClassRuntimeTemplate, RuntimeConfig};

    let mut catalog = TemplateCatalog::new();
    catalog.add(ClassRuntimeTemplate::new(
        "bench",
        0,
        RuntimeConfig {
            locality_routing: locality,
            ..RuntimeConfig::default()
        },
    ));
    let mut p = EmbeddedPlatform::with_catalog(catalog);
    p.register_function("img/touch", |t| {
        Ok(TaskResult::output(t.state_in["n"].as_i64().unwrap_or(0)))
    });
    p.deploy_yaml(
        "classes:\n  - name: K\n    keySpecs: [n]\n    functions:\n      - name: touch\n        image: img/touch\n",
    )
    .expect("deploys");
    for _ in 0..3 {
        p.node_join().expect("a node joins");
    }
    let ids: Vec<_> = (0..100)
        .map(|_| p.create_object("K", vjson!({"n": 1})).expect("creates"))
        .collect();
    for i in 0..2000usize {
        let id = ids[i % ids.len()];
        p.invoke(id, "touch", vec![]).expect("invokes");
    }
    p.node_stats().iter().fold((0, 0), |(local, remote), n| {
        (local + n.local_invokes, remote + n.remote_invokes)
    })
}
