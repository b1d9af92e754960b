//! Shared helpers for the experiment binaries.
//!
//! The paper's quantitative reproduction lives in the `fig3` binary
//! (`cargo run -p oprc-bench --bin fig3 --release`), which runs the
//! discrete-event model, and the smoke and `scenario_soak` binaries are
//! seeded, virtual-time CI gates. The embedded invocation plane's checked
//! numbers come from the repository benchmark (`benchmark/`, declared
//! by `BENCHMARK.json`), and the invoke path's exact allocation budgets
//! are the `alloc_budgets` integration test. This library holds the
//! table formatting and the template→simulation-config mapping used by
//! the ablations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use oprc_core::template::{EngineBacking, RuntimeConfig};
use oprc_platform::sim::{ExperimentConfig, SystemVariant};
use oprc_simcore::SimDuration;
use oprc_store::WriteBehindConfig;

/// Formats a rows×cols table with a header, aligned for terminal
/// output.
pub fn format_table(header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(std::string::String::len).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>width$}", c, width = widths.get(i).copied().unwrap_or(0)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let mut out = String::new();
    out.push_str(&fmt_row(header));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

/// Maps a class-runtime template's [`RuntimeConfig`] onto the simulation
/// parameters it would induce, for the template ablation (A2).
pub fn sim_config_for_template(
    base: SystemVariant,
    vms: u32,
    config: &RuntimeConfig,
) -> ExperimentConfig {
    let variant = match (config.engine, config.persistent) {
        (_, false) => SystemVariant::OprcBypassNonPersist,
        (EngineBacking::Knative, true) => SystemVariant::Oprc,
        (EngineBacking::PlainDeployment, true) => SystemVariant::OprcBypass,
    };
    let mut cfg = ExperimentConfig::fig3(variant, vms);
    cfg.write_behind = WriteBehindConfig {
        max_batch: config.write_behind_batch,
        max_delay: SimDuration::from_millis(config.write_behind_delay_ms),
    };
    // Keep the caller's requested baseline when it is the plain FaaS
    // control.
    if base == SystemVariant::Knative {
        cfg.variant = SystemVariant::Knative;
    }
    cfg
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_core::nfr::NfrSpec;
    use oprc_core::template::TemplateCatalog;

    #[test]
    fn table_alignment() {
        let t = format_table(
            &["vms".into(), "throughput".into()],
            &[
                vec!["3".into(), "1234".into()],
                vec!["12".into(), "56789".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("vms"));
        assert!(lines[3].ends_with("56789"));
    }

    #[test]
    fn template_mapping_covers_variants() {
        let catalog = TemplateCatalog::standard();
        let nfr = NfrSpec::from_value(&oprc_value::vjson!({
            "qos": {"throughput": 5000},
        }))
        .unwrap();
        let t = catalog.select(&nfr).unwrap();
        let cfg = sim_config_for_template(SystemVariant::Oprc, 6, &t.config);
        assert_eq!(cfg.variant, SystemVariant::OprcBypass);
        assert_eq!(cfg.write_behind.max_batch, 500);
        // Non-persistent config maps to the nonpersist variant.
        let mut c = t.config.clone();
        c.persistent = false;
        let cfg = sim_config_for_template(SystemVariant::Oprc, 6, &c);
        assert_eq!(cfg.variant, SystemVariant::OprcBypassNonPersist);
    }
}
