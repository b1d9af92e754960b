//! The management gateway: a CLI-style command surface (§IV step 2).
//!
//! "Oparaca includes the CLI to facilitate the Oparaca API interaction.
//! This CLI can be used to manage the deployment, access the deployed
//! object, and invoke the function on the object."
//!
//! [`OprcCtl`] wraps an [`EmbeddedPlatform`] behind a line-oriented
//! command grammar, so a REPL, a script, or a test can drive the
//! platform the way `oprc-cli` drives real Oparaca:
//!
//! ```text
//! deploy <inline-yaml | @path>        deploy a package
//! lint [--json] <inline-yaml | @path> analyze a package without deploying
//! classes                             list deployed classes
//! describe <class>                    show a class's runtime plan
//! create <class> [json-state]        create an object
//! invoke <obj-id> <fn> [json-arg]*   invoke a method/dataflow
//! state <obj-id>                      print structured state
//! upload-url <obj-id> <key>           presigned PUT URL
//! download-url <obj-id> <key>         presigned GET URL
//! flush                               flush write-behind to the DB
//! stats                               storage counters
//! telemetry <on|verbose|off|status>   control the trace sink
//! trace [--last N] [--export chrome|jsonl <path>]
//!                                     show or export the span tree
//! metrics [--class C] [--json]        per-function latency/error stats
//! profile [--json|--collapsed] [class]
//!                                     span-derived flamegraph (self time)
//! slo [--json]                        per-class error-budget burn status
//! top                                 per-class summary table
//! chaos on [--seed N] [--rate P] ...  enable deterministic fault injection
//! chaos script <site> <kind>          arm a fault at a site's next call
//! chaos status [--json]               injector call/fault counters
//! chaos off                           disable fault injection
//! admission on [--rate R] [--burst B] [--tenant <name> <rate> <burst>]...
//!                                     arm per-tenant token-bucket admission
//! admission status [--json]           bucket levels, tenant stats, fairness
//! admission off                       disable admission control
//! invoke-as <tenant> <obj-id> <fn> [json-arg]*
//!                                     invoke charged to a tenant's budget
//! invoke-batch <obj-id> <fn> [json-arg]* [ ; ... ]*
//!                                     batch-invoke methods, grouped by shard
//! ```

use oprc_chaos::{FaultKind, FaultPlan, InjectionSite};
use oprc_core::dataflow::{DataRef, StepSpec};
use oprc_core::object::ObjectId;
use oprc_simcore::SimDuration;
use oprc_telemetry::{
    render_tree, to_chrome, to_jsonl, Flamegraph, Span, TelemetryConfig, TraceSink,
};
use oprc_value::{json, Value};

use crate::admission::AdmissionConfig;
use crate::embedded::{BatchItem, EmbeddedPlatform, FlowEdit};
use crate::monitoring::MID_LOOKBACK;
use crate::PlatformError;

/// Outcome of one gateway command.
#[derive(Debug, Clone, PartialEq)]
pub struct CommandOutput {
    /// Human-readable rendering (what a CLI prints).
    pub text: String,
    /// Structured payload when the command returns data.
    pub value: Option<Value>,
}

impl CommandOutput {
    fn text(s: impl Into<String>) -> Self {
        CommandOutput {
            text: s.into(),
            value: None,
        }
    }

    fn with_value(s: impl Into<String>, v: Value) -> Self {
        CommandOutput {
            text: s.into(),
            value: Some(v),
        }
    }
}

/// Errors specific to command parsing (platform errors pass through).
#[derive(Debug, Clone, PartialEq)]
pub enum CommandError {
    /// The command word is not recognized.
    UnknownCommand(String),
    /// Arguments missing or malformed.
    Usage(String),
    /// A platform operation failed.
    Platform(PlatformError),
    /// `lint` found error-severity defects (the rendered report).
    Lint(String),
}

impl std::fmt::Display for CommandError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CommandError::UnknownCommand(c) => write!(f, "unknown command '{c}'"),
            CommandError::Usage(u) => write!(f, "usage: {u}"),
            CommandError::Platform(e) => write!(f, "{e}"),
            CommandError::Lint(report) => write!(f, "{report}"),
        }
    }
}

impl std::error::Error for CommandError {}

impl From<PlatformError> for CommandError {
    fn from(e: PlatformError) -> Self {
        CommandError::Platform(e)
    }
}

/// The CLI-style controller.
#[derive(Debug)]
pub struct OprcCtl {
    platform: EmbeddedPlatform,
}

impl OprcCtl {
    /// Wraps a platform.
    pub fn new(platform: EmbeddedPlatform) -> Self {
        OprcCtl { platform }
    }

    /// Shared access to the underlying platform.
    pub fn platform(&self) -> &EmbeddedPlatform {
        &self.platform
    }

    /// Exclusive access to the underlying platform (e.g. to register
    /// function implementations, which a text CLI cannot express).
    pub fn platform_mut(&mut self) -> &mut EmbeddedPlatform {
        &mut self.platform
    }

    /// Executes one command line.
    ///
    /// # Errors
    ///
    /// Returns [`CommandError`] on unknown commands, bad arguments, or
    /// failing platform operations.
    pub fn execute(&mut self, line: &str) -> Result<CommandOutput, CommandError> {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            return Ok(CommandOutput::text(""));
        }
        let (cmd, rest) = match line.split_once(char::is_whitespace) {
            Some((c, r)) => (c, r.trim()),
            None => (line, ""),
        };
        match cmd {
            "deploy" => self.deploy(rest),
            "lint" => self.lint(rest),
            "classes" => self.classes(),
            "describe" => self.describe(rest),
            "create" => self.create(rest),
            "invoke" => self.invoke(rest),
            "state" => self.state(rest),
            "upload-url" => self.url(rest, true),
            "download-url" => self.url(rest, false),
            "flush" => {
                let n = self.platform.flush();
                Ok(CommandOutput::text(format!("flushed {n} records")))
            }
            "stats" => {
                let (dht, consolidated, batches, singles) = self.platform.storage_stats();
                Ok(CommandOutput::with_value(
                    format!(
                        "dht-puts={dht} consolidated={consolidated} db-batches={batches} db-singles={singles}"
                    ),
                    oprc_value::vjson!({
                        "dht_puts": dht,
                        "consolidated": consolidated,
                        "db_batches": batches,
                        "db_singles": singles,
                    }),
                ))
            }
            "telemetry" => self.telemetry_cmd(rest),
            "trace" => self.trace(rest),
            "metrics" => self.metrics_cmd(rest),
            "profile" => self.profile_cmd(rest),
            "slo" => self.slo_cmd(rest),
            "top" => self.top(),
            "chaos" => self.chaos_cmd(rest),
            "admission" => self.admission_cmd(rest),
            "invoke-as" => self.invoke_as_cmd(rest),
            "invoke-batch" => self.invoke_batch_cmd(rest),
            "cluster" => self.cluster_cmd(rest),
            "partitions" => self.partitions_cmd(rest),
            "flow" => self.flow_cmd(rest),
            "help" => Ok(CommandOutput::text(HELP.trim())),
            other => Err(CommandError::UnknownCommand(other.to_string())),
        }
    }

    fn deploy(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        if rest.is_empty() {
            return Err(CommandError::Usage("deploy <yaml | @path>".into()));
        }
        let yaml = if let Some(path) = rest.strip_prefix('@') {
            std::fs::read_to_string(path)
                .map_err(|e| CommandError::Usage(format!("cannot read '{path}': {e}")))?
        } else {
            rest.to_string()
        };
        self.platform.deploy_yaml(&yaml)?;
        Ok(CommandOutput::text("deployed"))
    }

    /// `lint [--json] <yaml | @path>`: run the static analyzer without
    /// deploying. Loads the package leniently, so even semantically
    /// broken documents (cyclic dataflows, duplicate names) are
    /// analyzed instead of rejected at parse time.
    fn lint(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        let (as_json, rest) = match rest.strip_prefix("--json") {
            Some(r) => (true, r.trim()),
            None => (false, rest),
        };
        if rest.is_empty() {
            return Err(CommandError::Usage("lint [--json] <yaml | @path>".into()));
        }
        let yaml = if let Some(path) = rest.strip_prefix('@') {
            std::fs::read_to_string(path)
                .map_err(|e| CommandError::Usage(format!("cannot read '{path}': {e}")))?
        } else {
            rest.to_string()
        };
        let pkg =
            oprc_core::parse::package_from_yaml_lenient(&yaml).map_err(PlatformError::from)?;
        let report = self.platform.lint_package(&pkg);
        let text = if as_json {
            json::to_string_pretty(&report.to_value())
        } else {
            report.render()
        };
        if report.has_errors() {
            return Err(CommandError::Lint(text));
        }
        Ok(CommandOutput::with_value(text, report.to_value()))
    }

    fn classes(&mut self) -> Result<CommandOutput, CommandError> {
        let names: Vec<String> = self.platform.class_names();
        Ok(CommandOutput::with_value(
            names.join("\n"),
            Value::from(names.clone()),
        ))
    }

    fn describe(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        if rest.is_empty() {
            return Err(CommandError::Usage("describe <class>".into()));
        }
        let spec = self
            .platform
            .runtime_spec(rest)
            .ok_or_else(|| {
                CommandError::Platform(PlatformError::Core(oprc_core::CoreError::UnknownClass(
                    rest.to_string(),
                )))
            })?
            .clone();
        let fns: Vec<String> = spec
            .function_deployments
            .iter()
            .map(|f| {
                format!(
                    "  {} ({}) -> {} [template {}]",
                    f.function, f.image, f.deployment, f.template
                )
            })
            .collect();
        Ok(CommandOutput::text(format!(
            "class {}\n  template: {}\n  engine: {:?}\n  persistent: {}\n  batch: {}\nfunctions:\n{}",
            spec.class,
            spec.template,
            spec.config.engine,
            spec.config.persistent,
            spec.config.write_behind_batch,
            fns.join("\n"),
        )))
    }

    fn create(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        let (class, state) = match rest.split_once(char::is_whitespace) {
            Some((c, s)) => (c, s.trim()),
            None if !rest.is_empty() => (rest, ""),
            None => return Err(CommandError::Usage("create <class> [json-state]".into())),
        };
        let initial = if state.is_empty() {
            Value::object()
        } else {
            json::parse(state).map_err(|e| CommandError::Usage(format!("bad state JSON: {e}")))?
        };
        let id = self.platform.create_object(class, initial)?;
        Ok(CommandOutput::with_value(
            id.to_string(),
            Value::from(id.as_u64()),
        ))
    }

    fn invoke(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        let mut parts = split_args(rest);
        if parts.len() < 2 {
            return Err(CommandError::Usage(
                "invoke <obj-id> <function> [json-arg]*".into(),
            ));
        }
        let id = parse_object(&parts.remove(0))?;
        let function = parts.remove(0);
        let mut args = Vec::new();
        for a in parts {
            args.push(
                json::parse(&a)
                    .map_err(|e| CommandError::Usage(format!("bad argument JSON '{a}': {e}")))?,
            );
        }
        let result = self.platform.invoke(id, &function, args)?;
        Ok(CommandOutput::with_value(
            json::to_string(&result.output),
            result.output,
        ))
    }

    fn state(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        let id = parse_object(rest)?;
        let v = self.platform.get_state(id)?;
        Ok(CommandOutput::with_value(json::to_string_pretty(&v), v))
    }

    /// `telemetry <on|verbose|off|status>`: switch the platform's trace
    /// sink. `on` records spans, `verbose` additionally records per-key
    /// KV operations, `off` restores the zero-cost disabled sink.
    fn telemetry_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        match rest.trim() {
            "on" => {
                self.platform.enable_telemetry(TelemetryConfig::default());
                Ok(CommandOutput::text("telemetry: spans"))
            }
            "verbose" => {
                self.platform.enable_telemetry(TelemetryConfig::verbose());
                Ok(CommandOutput::text("telemetry: verbose"))
            }
            "off" => {
                self.platform.set_telemetry_sink(TraceSink::disabled());
                Ok(CommandOutput::text("telemetry: off"))
            }
            "" | "status" => {
                let sink = self.platform.telemetry();
                Ok(CommandOutput::text(format!(
                    "telemetry: {:?}, finished spans: {}, dropped: {}",
                    sink.level(),
                    sink.finished().len(),
                    sink.dropped(),
                )))
            }
            _ => Err(CommandError::Usage(
                "telemetry <on|verbose|off|status>".into(),
            )),
        }
    }

    /// `trace [--last N] [--export chrome|jsonl <path>]`: render the
    /// finished spans as an indented tree, or export them to a file.
    /// `--last N` keeps only the newest N traces (root invocations).
    fn trace(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "trace [--last N] [--export chrome|jsonl <path>]";
        let parts = split_args(rest);
        let mut last: Option<usize> = None;
        let mut export: Option<(String, String)> = None;
        let mut i = 0;
        while i < parts.len() {
            match parts[i].as_str() {
                "--last" => {
                    let n = parts
                        .get(i + 1)
                        .and_then(|s| s.parse::<usize>().ok())
                        .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                    last = Some(n);
                    i += 2;
                }
                "--export" => {
                    let fmt = parts.get(i + 1).cloned();
                    let path = parts.get(i + 2).cloned();
                    match (fmt, path) {
                        (Some(f), Some(p)) if f == "chrome" || f == "jsonl" => {
                            export = Some((f, p));
                        }
                        _ => return Err(CommandError::Usage(USAGE.into())),
                    }
                    i += 3;
                }
                _ => return Err(CommandError::Usage(USAGE.into())),
            }
        }
        let mut spans = self.platform.telemetry().finished();
        if let Some(n) = last {
            spans = newest_traces(spans, n);
        }
        if let Some((fmt, path)) = export {
            let data = if fmt == "chrome" {
                to_chrome(&spans)
            } else {
                to_jsonl(&spans)
            };
            std::fs::write(&path, &data)
                .map_err(|e| CommandError::Usage(format!("cannot write '{path}': {e}")))?;
            return Ok(CommandOutput::text(format!(
                "exported {} spans to {path}",
                spans.len()
            )));
        }
        if spans.is_empty() {
            return Ok(CommandOutput::text(
                "no finished spans (try `telemetry on`)",
            ));
        }
        Ok(CommandOutput::text(render_tree(&spans).trim_end()))
    }

    /// `metrics [--class C] [--json]`: cumulative per-function latency
    /// and error statistics from the [`crate::monitoring::MetricsHub`].
    fn metrics_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "metrics [--class C] [--json]";
        let parts = split_args(rest);
        let mut as_json = false;
        let mut class: Option<String> = None;
        let mut i = 0;
        while i < parts.len() {
            match parts[i].as_str() {
                "--json" => {
                    as_json = true;
                    i += 1;
                }
                "--class" => {
                    class = Some(
                        parts
                            .get(i + 1)
                            .cloned()
                            .ok_or_else(|| CommandError::Usage(USAGE.into()))?,
                    );
                    i += 2;
                }
                _ => return Err(CommandError::Usage(USAGE.into())),
            }
        }
        let mut rows = self.platform.metrics().function_summaries();
        if let Some(c) = &class {
            rows.retain(|r| &r.class == c);
        }
        let functions: Vec<Value> = rows
            .iter()
            .map(|r| {
                oprc_value::vjson!({
                    "class": (r.class.as_str()),
                    "function": (r.function.as_str()),
                    "completed": (r.completed),
                    "errors": (r.errors),
                    "retries": (r.retries),
                    "breaker": (r.breaker.as_str()),
                    "mean_ms": (r.mean_ms),
                    "p50_ms": (r.p50_ms),
                    "p99_ms": (r.p99_ms),
                    "window_p99_ms": (r.window_p99_ms),
                })
            })
            .collect();
        let mut faults = Value::object();
        for (site, n) in self.platform.metrics().fault_totals() {
            faults.insert(site, n);
        }
        // Platform-wide throughput from the lock-free cumulative
        // counters, plus the per-shard contention picture.
        let completed = self.platform.metrics().completed_total();
        let errors = self.platform.metrics().errors_total();
        let uptime_s = self.platform.now().as_secs_f64();
        let ops_per_sec = if uptime_s > 0.0 {
            completed as f64 / uptime_s
        } else {
            0.0
        };
        let throughput = oprc_value::vjson!({
            "completed_total": completed,
            "errors_total": errors,
            "retries_total": (self.platform.metrics().retries_total()),
            "batched_ops_total": (self.platform.metrics().batched_ops_total()),
            "batch_groups_total": (self.platform.metrics().batch_groups_total()),
            "uptime_s": uptime_s,
            "ops_per_sec": ops_per_sec,
        });
        let shard_rows = self.platform.shard_stats();
        let shards: Vec<Value> = shard_rows
            .iter()
            .map(|s| {
                oprc_value::vjson!({
                    "shard": (s.shard as u64),
                    "objects": (s.objects as u64),
                    "acquisitions": (s.acquisitions),
                    "contended": (s.contended),
                })
            })
            .collect();
        let node_rows = self.platform.node_stats();
        let nodes: Vec<Value> = node_rows
            .iter()
            .map(|n| {
                oprc_value::vjson!({
                    "node": (n.node),
                    "status": (n.status),
                    "primary_partitions": (n.primary_partitions as u64),
                    "replica_partitions": (n.replica_partitions as u64),
                    "local_invokes": (n.local_invokes),
                    "remote_invokes": (n.remote_invokes),
                    "migrated_in": (n.migrated_in),
                    "migrated_out": (n.migrated_out),
                })
            })
            .collect();
        let summary = self.platform.partition_summary();
        let partitions = oprc_value::vjson!({
            "epoch": (summary.epoch),
            "partitions": (summary.partitions as u64),
            "nodes": (summary.nodes as u64),
            "moved_records": (summary.moved_records),
        });
        let value = oprc_value::vjson!({
            "functions": (Value::from(functions)),
            "faults": (faults),
            "shards": (Value::from(shards)),
            "nodes": (Value::from(nodes)),
            "partitions": (partitions),
            "throughput": (throughput),
        });
        if as_json {
            return Ok(CommandOutput::with_value(
                json::to_string_pretty(&value),
                value,
            ));
        }
        let mut text = format!(
            "{:<16} {:<16} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9} {:>9} {:>9}",
            "CLASS",
            "FUNCTION",
            "COMPLETED",
            "ERRORS",
            "RETRIES",
            "BREAKER",
            "MEAN_MS",
            "P50_MS",
            "P99_MS",
            "P99_10S"
        );
        for r in &rows {
            text.push_str(&format!(
                "\n{:<16} {:<16} {:>9} {:>7} {:>7} {:>9} {:>9.2} {:>9.2} {:>9.2} {:>9.2}",
                r.class,
                r.function,
                r.completed,
                r.errors,
                r.retries,
                r.breaker,
                r.mean_ms,
                r.p50_ms,
                r.p99_ms,
                r.window_p99_ms
            ));
        }
        text.push_str(&format!(
            "\n\ntotal: {completed} completed, {errors} errors ({ops_per_sec:.1} ops/s over {uptime_s:.1}s)"
        ));
        let batched = self.platform.metrics().batched_ops_total();
        if batched > 0 {
            text.push_str(&format!(
                "\nbatched: {batched} ops in {} shard groups",
                self.platform.metrics().batch_groups_total()
            ));
        }
        let busy: Vec<&crate::embedded::ShardStats> =
            shard_rows.iter().filter(|s| s.acquisitions > 0).collect();
        if !busy.is_empty() {
            text.push_str("\nshards (busy):");
            for s in busy {
                text.push_str(&format!(
                    "\n  #{:<3} objects {:>5}  lock acquisitions {:>8}  contended {:>6}",
                    s.shard, s.objects, s.acquisitions, s.contended
                ));
            }
        }
        // A boot plane is one node at epoch 0; only the multi-node (or
        // post-migration) picture is worth a section in text mode.
        if node_rows.len() > 1 || summary.epoch > 0 {
            text.push_str(&format!(
                "\nnodes (epoch {}, {} records migrated):",
                summary.epoch, summary.moved_records
            ));
            for n in &node_rows {
                text.push_str(&format!(
                    "\n  node-{:<3} {:<8} primaries {:>3}  replicas {:>3}  local {:>7}  remote {:>7}  in {:>6}  out {:>6}",
                    n.node,
                    n.status,
                    n.primary_partitions,
                    n.replica_partitions,
                    n.local_invokes,
                    n.remote_invokes,
                    n.migrated_in,
                    n.migrated_out
                ));
            }
        }
        Ok(CommandOutput::with_value(text, value))
    }

    /// `profile [--json|--collapsed] [class]`: fold the finished spans
    /// into a deterministic flamegraph — self time (duration minus
    /// children) per frame and per collapsed stack, optionally
    /// restricted to traces rooted at one class.
    fn profile_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "profile [--json|--collapsed] [class]";
        let parts = split_args(rest);
        let mut as_json = false;
        let mut collapsed = false;
        let mut class: Option<String> = None;
        for p in &parts {
            match p.as_str() {
                "--json" => as_json = true,
                "--collapsed" => collapsed = true,
                flag if flag.starts_with("--") => return Err(CommandError::Usage(USAGE.into())),
                c if class.is_none() => class = Some(c.to_string()),
                _ => return Err(CommandError::Usage(USAGE.into())),
            }
        }
        if as_json && collapsed {
            return Err(CommandError::Usage(USAGE.into()));
        }
        let spans = self.platform.telemetry().finished();
        let fg = Flamegraph::from_spans_filtered(&spans, class.as_deref());
        if as_json {
            let value = fg.to_value();
            return Ok(CommandOutput::with_value(
                json::to_string_pretty(&value),
                value,
            ));
        }
        if collapsed {
            return Ok(CommandOutput::text(fg.to_collapsed().trim_end()));
        }
        if fg.is_empty() {
            return Ok(CommandOutput::text(
                "no finished spans (try `telemetry on`)",
            ));
        }
        // Human view: hottest frames first (ties broken by name so the
        // table stays deterministic).
        let mut frames: Vec<_> = fg.frames.iter().collect();
        frames.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then_with(|| a.name.cmp(&b.name)));
        let mut text = format!(
            "{:<32} {:>7} {:>12} {:>12}",
            "FRAME", "COUNT", "SELF_MS", "TOTAL_MS"
        );
        for f in frames {
            text.push_str(&format!(
                "\n{:<32} {:>7} {:>12.3} {:>12.3}",
                f.name,
                f.count,
                f.self_ns as f64 / 1e6,
                f.total_ns as f64 / 1e6
            ));
        }
        Ok(CommandOutput::text(text))
    }

    /// `slo [--json]`: per-class SLO posture from the deploy-time plan
    /// table — error budget, multi-window burn rates, and conformance
    /// with the declared latency objective.
    fn slo_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "slo [--json]";
        let parts = split_args(rest);
        for p in &parts {
            if p != "--json" {
                return Err(CommandError::Usage(USAGE.into()));
            }
        }
        let as_json = !parts.is_empty();
        let statuses = self.platform.slo_report();
        let classes: Vec<Value> = statuses
            .iter()
            .map(|s| {
                let mut v = Value::object();
                v.insert("active", s.active);
                v.insert("availability", s.availability);
                v.insert("burn_fast", s.burn_fast);
                v.insert("burn_slow", s.burn_slow);
                v.insert("class", s.class.as_str());
                v.insert("error_budget", s.error_budget);
                v.insert("latency_ok", s.latency_ok);
                match s.max_p99_ms {
                    Some(ms) => v.insert("max_p99_ms", ms),
                    None => v.insert("max_p99_ms", Value::Null),
                };
                v.insert("status", s.status);
                v.insert("window_p99_ms", s.window_p99_ms);
                v
            })
            .collect();
        let mut value = Value::object();
        value.insert("classes", classes);
        if as_json {
            return Ok(CommandOutput::with_value(
                json::to_string_pretty(&value),
                value,
            ));
        }
        if statuses.is_empty() {
            return Ok(CommandOutput::text("no deployed classes"));
        }
        let mut text = format!(
            "{:<16} {:>7} {:>9} {:>9} {:>9} {:>9} {:>10} {:>4}",
            "CLASS", "AVAIL", "BUDGET", "BURN_10S", "BURN_5M", "P99_MS", "STATUS", "LAT"
        );
        for s in &statuses {
            text.push_str(&format!(
                "\n{:<16} {:>7.4} {:>9.4} {:>9.2} {:>9.2} {:>9.2} {:>10} {:>4}",
                s.class,
                s.availability,
                s.error_budget,
                s.burn_fast,
                s.burn_slow,
                s.window_p99_ms,
                if s.active { s.status } else { "idle" },
                if s.latency_ok { "ok" } else { "MISS" },
            ));
        }
        Ok(CommandOutput::with_value(text, value))
    }

    /// `chaos <on|script|status|off>`: control the platform's
    /// deterministic fault injector.
    ///
    /// `on` installs a [`FaultPlan`] (same seed ⇒ same fault schedule);
    /// `script` arms a one-shot fault at a site's *next* call; `status`
    /// reports per-site call/fault counters; `off` removes injection.
    fn chaos_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "chaos on [--seed N] [--rate P] [--site <site> <rate>] \
             [--latency-ms M] [--latency-share F] | chaos script <site> <error|torn|latency[:ms]> \
             | chaos status [--json] | chaos off";
        let parts = split_args(rest);
        match parts.first().map(String::as_str) {
            Some("on") => {
                let mut plan = FaultPlan::new(0);
                let mut i = 1;
                while i < parts.len() {
                    match parts[i].as_str() {
                        "--seed" => {
                            plan.seed = parse_flag::<u64>(&parts, i, USAGE)?;
                            i += 2;
                        }
                        "--rate" => {
                            let p = parse_flag::<f64>(&parts, i, USAGE)?;
                            plan = plan.rate_all(p);
                            i += 2;
                        }
                        "--site" => {
                            let site = parts
                                .get(i + 1)
                                .and_then(|s| InjectionSite::parse(s))
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            let p = parts
                                .get(i + 2)
                                .and_then(|s| s.parse::<f64>().ok())
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            plan = plan.rate(site, p);
                            i += 3;
                        }
                        "--latency-ms" => {
                            let ms = parse_flag::<u64>(&parts, i, USAGE)?;
                            plan = plan.latency(SimDuration::from_millis(ms));
                            i += 2;
                        }
                        "--latency-share" => {
                            let f = parse_flag::<f64>(&parts, i, USAGE)?;
                            plan = plan.latency_share(f);
                            i += 2;
                        }
                        _ => return Err(CommandError::Usage(USAGE.into())),
                    }
                }
                let seed = plan.seed;
                self.platform.enable_chaos(plan);
                Ok(CommandOutput::text(format!("chaos: on (seed {seed})")))
            }
            Some("script") => {
                let site = parts
                    .get(1)
                    .and_then(|s| InjectionSite::parse(s))
                    .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                let kind = parts
                    .get(2)
                    .and_then(|s| parse_fault_kind(s))
                    .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                if !self.platform.chaos().is_enabled() {
                    return Err(CommandError::Usage(
                        "chaos script requires `chaos on` first".into(),
                    ));
                }
                self.platform.chaos().script_next(site, kind);
                Ok(CommandOutput::text(format!(
                    "chaos: scripted {} at next {site} call",
                    kind.as_str()
                )))
            }
            Some("status") | None => {
                let as_json = parts.get(1).is_some_and(|s| s == "--json");
                let injector = self.platform.chaos();
                let enabled = injector.is_enabled();
                let mut calls = Value::object();
                let mut injected = Value::object();
                for (site, n) in injector.calls() {
                    calls.insert(site.as_str(), n);
                }
                for (site, n) in injector.injected_totals() {
                    injected.insert(site.as_str(), n);
                }
                let value = oprc_value::vjson!({
                    "enabled": (enabled),
                    "seed": (injector.seed()),
                    "calls": (calls),
                    "injected": (injected),
                });
                if as_json {
                    return Ok(CommandOutput::with_value(
                        json::to_string_pretty(&value),
                        value,
                    ));
                }
                let mut text = if enabled {
                    format!("chaos: on (seed {})", injector.seed())
                } else {
                    "chaos: off".to_string()
                };
                for (site, n) in injector.calls() {
                    let hit = injector.injected_totals().get(&site).copied().unwrap_or(0);
                    text.push_str(&format!("\n  {site}: {n} calls, {hit} faults"));
                }
                Ok(CommandOutput::with_value(text, value))
            }
            Some("off") => {
                self.platform.disable_chaos();
                Ok(CommandOutput::text("chaos: off"))
            }
            _ => Err(CommandError::Usage(USAGE.into())),
        }
    }

    /// `admission on|status|off`: per-tenant token-bucket admission
    /// control at the gateway edge. `status` reports bucket levels,
    /// per-tenant completion/rejection counters, and the windowed Jain
    /// fairness index over tenant completions.
    fn admission_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "admission on [--rate R] [--burst B] \
             [--tenant <name> <rate> <burst>]... | admission status [--json] | admission off";
        let parts = split_args(rest);
        match parts.first().map(String::as_str) {
            Some("on") => {
                let mut config = AdmissionConfig::default();
                let mut i = 1;
                while i < parts.len() {
                    match parts[i].as_str() {
                        "--rate" => {
                            config.default_rate = parse_flag::<f64>(&parts, i, USAGE)?;
                            i += 2;
                        }
                        "--burst" => {
                            config.default_burst = parse_flag::<f64>(&parts, i, USAGE)?;
                            i += 2;
                        }
                        "--tenant" => {
                            let name = parts
                                .get(i + 1)
                                .cloned()
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            let rate = parts
                                .get(i + 2)
                                .and_then(|s| s.parse::<f64>().ok())
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            let burst = parts
                                .get(i + 3)
                                .and_then(|s| s.parse::<f64>().ok())
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            config = config.tenant(name, rate, burst);
                            i += 4;
                        }
                        _ => return Err(CommandError::Usage(USAGE.into())),
                    }
                }
                let (rate, burst) = (config.default_rate, config.default_burst);
                self.platform.enable_admission(config);
                Ok(CommandOutput::text(format!(
                    "admission: on (default {rate}/s, burst {burst})"
                )))
            }
            Some("status") | None => {
                let as_json = parts.get(1).is_some_and(|s| s == "--json");
                let now = self.platform.now();
                let enabled = self.platform.admission().is_some();
                let mut buckets = Vec::new();
                if let Some(ctl) = self.platform.admission() {
                    for s in ctl.stats(now) {
                        buckets.push(oprc_value::vjson!({
                            "tenant": (s.tenant.as_str()),
                            "admitted": (s.admitted),
                            "rejected": (s.rejected),
                            "tokens": (s.tokens),
                            "rate": (s.rate),
                            "burst": (s.burst),
                        }));
                    }
                }
                let tenants: Vec<Value> = self
                    .platform
                    .metrics()
                    .tenant_summaries()
                    .iter()
                    .map(|t| {
                        oprc_value::vjson!({
                            "tenant": (t.tenant.as_str()),
                            "completed": (t.completed),
                            "errors": (t.errors),
                            "rejected": (t.rejected),
                            "p99_ms": (t.p99_ms),
                        })
                    })
                    .collect();
                let fairness = self
                    .platform
                    .metrics()
                    .tenant_fairness(now, MID_LOOKBACK)
                    .unwrap_or(1.0);
                let value = oprc_value::vjson!({
                    "enabled": (enabled),
                    "buckets": (Value::from(buckets)),
                    "tenants": (Value::from(tenants)),
                    "fairness": (fairness),
                });
                if as_json {
                    return Ok(CommandOutput::with_value(
                        json::to_string_pretty(&value),
                        value,
                    ));
                }
                let mut text = if enabled {
                    "admission: on".to_string()
                } else {
                    "admission: off".to_string()
                };
                if let Some(ctl) = self.platform.admission() {
                    for s in ctl.stats(now) {
                        text.push_str(&format!(
                            "\n  {}: {:.1}/{} tokens ({}/s), {} admitted, {} rejected",
                            s.tenant, s.tokens, s.burst, s.rate, s.admitted, s.rejected
                        ));
                    }
                }
                text.push_str(&format!("\nfairness (60s window): {fairness:.3}"));
                Ok(CommandOutput::with_value(text, value))
            }
            Some("off") => {
                self.platform.disable_admission();
                Ok(CommandOutput::text("admission: off"))
            }
            _ => Err(CommandError::Usage(USAGE.into())),
        }
    }

    /// `invoke-as <tenant> <obj-id> <fn> [json-arg]*`: like `invoke`,
    /// but charged to the tenant's admission budget and recorded in the
    /// per-tenant metric series.
    fn invoke_as_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        let mut parts = split_args(rest);
        if parts.len() < 3 {
            return Err(CommandError::Usage(
                "invoke-as <tenant> <obj-id> <function> [json-arg]*".into(),
            ));
        }
        let tenant = parts.remove(0);
        let id = parse_object(&parts.remove(0))?;
        let function = parts.remove(0);
        let mut args = Vec::new();
        for a in parts {
            args.push(
                json::parse(&a)
                    .map_err(|e| CommandError::Usage(format!("bad argument JSON '{a}': {e}")))?,
            );
        }
        let result = self.platform.invoke_as(&tenant, id, &function, args)?;
        Ok(CommandOutput::with_value(
            json::to_string(&result.output),
            result.output,
        ))
    }

    /// `invoke-batch <obj-id> <fn> [json-arg]* [ ; <obj-id> <fn> [json-arg]* ]*`:
    /// submits all items as one [`EmbeddedPlatform::invoke_batch`] call
    /// — grouped by shard, one lock hold and one merged commit per
    /// group. Items are separated by a standalone `;` token. The output
    /// is one line per item (in submission order) and a JSON array
    /// carrying each item's output or `{"error": ...}`.
    fn invoke_batch_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str =
            "invoke-batch <obj-id> <fn> [json-arg]* [ ; <obj-id> <fn> [json-arg]* ]*";
        let parts = split_args(rest);
        let mut items = Vec::new();
        for raw in parts.split(|p| p == ";") {
            if raw.is_empty() {
                continue;
            }
            if raw.len() < 2 {
                return Err(CommandError::Usage(USAGE.into()));
            }
            let id = parse_object(&raw[0])?;
            let function = raw[1].clone();
            let mut args = Vec::new();
            for a in &raw[2..] {
                args.push(
                    json::parse(a).map_err(|e| {
                        CommandError::Usage(format!("bad argument JSON '{a}': {e}"))
                    })?,
                );
            }
            items.push(BatchItem::new(id, function, args));
        }
        if items.is_empty() {
            return Err(CommandError::Usage(USAGE.into()));
        }
        let outs = self.platform.invoke_batch(items);
        let mut text = String::new();
        let mut values = Vec::with_capacity(outs.len());
        for (i, out) in outs.into_iter().enumerate() {
            if i > 0 {
                text.push('\n');
            }
            match out {
                Ok(result) => {
                    text.push_str(&format!("[{i}] {}", json::to_string(&result.output)));
                    values.push(result.output);
                }
                Err(e) => {
                    text.push_str(&format!("[{i}] error: {e}"));
                    values.push(oprc_value::vjson!({"error": (e.to_string())}));
                }
            }
        }
        Ok(CommandOutput::with_value(text, Value::Array(values)))
    }

    /// `top`: one-line-per-class health table (completions, error
    /// fraction, throughput, latency percentiles).
    fn top(&mut self) -> Result<CommandOutput, CommandError> {
        let rows = self.platform.metrics().class_summaries();
        let mut text = format!(
            "{:<16} {:>9} {:>7} {:>7} {:>9} {:>9} {:>9}",
            "CLASS", "COMPLETED", "ERRORS", "ERR%", "RPS", "P50_MS", "P99_MS"
        );
        for r in &rows {
            text.push_str(&format!(
                "\n{:<16} {:>9} {:>7} {:>6.1}% {:>9.2} {:>9.2} {:>9.2}",
                r.class,
                r.completed,
                r.errors,
                r.error_rate * 100.0,
                r.throughput,
                r.p50_ms,
                r.p99_ms
            ));
        }
        Ok(CommandOutput::text(text))
    }

    /// `cluster join|leave|status`: node lifecycle for the partition
    /// plane. `join` adds a worker node and live-migrates partition
    /// ownership onto it; `leave <node>` fails a node and migrates its
    /// partitions away; `status` lists every node the plane has seen.
    fn cluster_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "cluster <join | leave <node> | status [--json]>";
        let parts = split_args(rest);
        match parts.first().map(String::as_str) {
            Some("join") => {
                let r = self.platform.node_join()?;
                Ok(CommandOutput::with_value(
                    format!(
                        "node-{} joined: epoch {}, {} partitions re-homed, {} records migrated",
                        r.node, r.epoch, r.partitions_moved, r.records_moved
                    ),
                    migration_value(&r),
                ))
            }
            Some("leave") => {
                let node = parts
                    .get(1)
                    .map(|s| s.strip_prefix("node-").unwrap_or(s))
                    .and_then(|s| s.parse::<u64>().ok())
                    .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                let r = self.platform.node_leave(node)?;
                Ok(CommandOutput::with_value(
                    format!(
                        "node-{} left: epoch {}, {} partitions re-homed, {} records migrated",
                        r.node, r.epoch, r.partitions_moved, r.records_moved
                    ),
                    migration_value(&r),
                ))
            }
            Some("status") => {
                let as_json = parts.get(1).map(String::as_str) == Some("--json");
                let rows = self.platform.node_stats();
                let value: Value = rows
                    .iter()
                    .map(|n| {
                        oprc_value::vjson!({
                            "node": (n.node),
                            "status": (n.status),
                            "primary_partitions": (n.primary_partitions as u64),
                            "replica_partitions": (n.replica_partitions as u64),
                            "local_invokes": (n.local_invokes),
                            "remote_invokes": (n.remote_invokes),
                            "migrated_in": (n.migrated_in),
                            "migrated_out": (n.migrated_out),
                        })
                    })
                    .collect::<Vec<Value>>()
                    .into();
                if as_json {
                    return Ok(CommandOutput::with_value(
                        json::to_string_pretty(&value),
                        value,
                    ));
                }
                let mut text = format!(
                    "{:<10} {:<10} {:>9} {:>8} {:>7} {:>7} {:>7} {:>7}",
                    "NODE", "STATUS", "PRIMARIES", "REPLICAS", "LOCAL", "REMOTE", "IN", "OUT"
                );
                for n in &rows {
                    text.push_str(&format!(
                        "\n{:<10} {:<10} {:>9} {:>8} {:>7} {:>7} {:>7} {:>7}",
                        format!("node-{}", n.node),
                        n.status,
                        n.primary_partitions,
                        n.replica_partitions,
                        n.local_invokes,
                        n.remote_invokes,
                        n.migrated_in,
                        n.migrated_out
                    ));
                }
                Ok(CommandOutput::with_value(text, value))
            }
            _ => Err(CommandError::Usage(USAGE.into())),
        }
    }

    /// `partitions [--json] [obj-id]`: the partition map's posture, or
    /// — given an object id — that object's placement under the
    /// current epoch.
    fn partitions_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "partitions [--json] [obj-id]";
        let parts = split_args(rest);
        let mut as_json = false;
        let mut object: Option<ObjectId> = None;
        for p in &parts {
            if p == "--json" {
                as_json = true;
            } else if object.is_none() {
                object = Some(parse_object(p)?);
            } else {
                return Err(CommandError::Usage(USAGE.into()));
            }
        }
        if let Some(id) = object {
            let placement = self.platform.object_placement(id);
            let value = oprc_value::vjson!({
                "object": (id.as_u64()),
                "partition": (placement.partition as u64),
                "primary": (placement.primary),
                "replica": (match placement.replica {
                    Some(r) => Value::from(r),
                    None => Value::Null,
                }),
            });
            if as_json {
                return Ok(CommandOutput::with_value(
                    json::to_string_pretty(&value),
                    value,
                ));
            }
            let replica = placement
                .replica
                .map_or("none".to_string(), |r| format!("node-{r}"));
            return Ok(CommandOutput::with_value(
                format!(
                    "obj-{} -> partition {} (primary node-{}, replica {replica})",
                    id.as_u64(),
                    placement.partition,
                    placement.primary
                ),
                value,
            ));
        }
        let s = self.platform.partition_summary();
        let value = oprc_value::vjson!({
            "epoch": (s.epoch),
            "partitions": (s.partitions as u64),
            "nodes": (s.nodes as u64),
            "moved_records": (s.moved_records),
        });
        if as_json {
            return Ok(CommandOutput::with_value(
                json::to_string_pretty(&value),
                value,
            ));
        }
        Ok(CommandOutput::with_value(
            format!(
                "epoch {}: {} partitions over {} nodes, {} records migrated",
                s.epoch, s.partitions, s.nodes, s.moved_records
            ),
            value,
        ))
    }

    /// `flow doctor|add-step|delete-step`: dataflow-aware analysis and
    /// safe live edits of deployed flows.
    fn flow_cmd(&mut self, rest: &str) -> Result<CommandOutput, CommandError> {
        const USAGE: &str = "flow doctor [--json] [class [flow]] \
             | flow add-step <class> <flow> <id> <function> [--input <ref>]... \
             [--target <ref>] [--before <step>] \
             | flow delete-step <class> <flow> <id>";
        let parts = split_args(rest);
        match parts.first().map(String::as_str) {
            Some("doctor") => {
                let mut as_json = false;
                let mut scope: Vec<String> = Vec::new();
                for p in &parts[1..] {
                    if p == "--json" {
                        as_json = true;
                    } else {
                        scope.push(p.clone());
                    }
                }
                if scope.len() > 2 {
                    return Err(CommandError::Usage(USAGE.into()));
                }
                let mut reports = self.platform().doctor();
                if let Some(class) = scope.first() {
                    let class_tag = format!("class {class} >");
                    for r in &mut reports {
                        r.diagnostics.retain(|d| d.source.starts_with(&class_tag));
                    }
                }
                if let Some(flow) = scope.get(1) {
                    // Sources read "class C > dataflow F [> step S]";
                    // match F exactly up to the next segment.
                    for r in &mut reports {
                        r.diagnostics.retain(|d| {
                            d.source
                                .split("> dataflow ")
                                .nth(1)
                                .map(|tail| tail.split(" >").next() == Some(flow.as_str()))
                                == Some(true)
                        });
                    }
                }
                reports.retain(|r| !r.diagnostics.is_empty());
                let value = oprc_value::vjson!({
                    "reports": (Value::from(
                        reports
                            .iter()
                            .map(oprc_analyzer::AnalysisReport::to_value)
                            .collect::<Vec<_>>()
                    )),
                });
                if as_json {
                    return Ok(CommandOutput::with_value(
                        json::to_string_pretty(&value),
                        value,
                    ));
                }
                if reports.is_empty() {
                    return Ok(CommandOutput::with_value(
                        "flow doctor: no findings".to_string(),
                        value,
                    ));
                }
                let text = reports
                    .iter()
                    .map(|r| format!("package {}\n{}", r.package, r.render()))
                    .collect::<Vec<_>>()
                    .join("\n");
                Ok(CommandOutput::with_value(
                    text.trim_end().to_string(),
                    value,
                ))
            }
            Some("add-step") => {
                if parts.len() < 5 {
                    return Err(CommandError::Usage(USAGE.into()));
                }
                let (class, flow, id, function) = (&parts[1], &parts[2], &parts[3], &parts[4]);
                let mut step = StepSpec::new(id.clone(), function.clone());
                let mut before: Option<String> = None;
                let mut i = 5;
                while i < parts.len() {
                    match parts[i].as_str() {
                        "--input" => {
                            let r = parts
                                .get(i + 1)
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            step.inputs.push(parse_data_ref(r));
                            i += 2;
                        }
                        "--target" => {
                            let r = parts
                                .get(i + 1)
                                .ok_or_else(|| CommandError::Usage(USAGE.into()))?;
                            step.target = Some(parse_data_ref(r));
                            i += 2;
                        }
                        "--before" => {
                            before = Some(
                                parts
                                    .get(i + 1)
                                    .cloned()
                                    .ok_or_else(|| CommandError::Usage(USAGE.into()))?,
                            );
                            i += 2;
                        }
                        _ => return Err(CommandError::Usage(USAGE.into())),
                    }
                }
                self.platform
                    .edit_flow(class, flow, FlowEdit::AddStep { step, before })?;
                Ok(CommandOutput::text(format!(
                    "flow {class}/{flow}: added step '{id}'"
                )))
            }
            Some("delete-step") => {
                if parts.len() != 4 {
                    return Err(CommandError::Usage(USAGE.into()));
                }
                let (class, flow, id) = (&parts[1], &parts[2], &parts[3]);
                self.platform
                    .edit_flow(class, flow, FlowEdit::DeleteStep { id: id.clone() })?;
                Ok(CommandOutput::text(format!(
                    "flow {class}/{flow}: deleted step '{id}'"
                )))
            }
            _ => Err(CommandError::Usage(USAGE.into())),
        }
    }

    fn url(&mut self, rest: &str, put: bool) -> Result<CommandOutput, CommandError> {
        let (obj, key) = rest
            .split_once(char::is_whitespace)
            .ok_or_else(|| CommandError::Usage("(upload|download)-url <obj-id> <key>".into()))?;
        let id = parse_object(obj)?;
        let url = if put {
            self.platform.upload_url(id, key.trim())?
        } else {
            self.platform.download_url(id, key.trim())?
        };
        Ok(CommandOutput::text(url))
    }
}

const HELP: &str = "
deploy <yaml | @path>             deploy a package
lint [--json] <yaml | @path>      analyze a package without deploying
classes                           list deployed classes
describe <class>                  show a class's runtime plan
create <class> [json-state]      create an object
invoke <obj-id> <fn> [json-arg]* invoke a method or dataflow
state <obj-id>                    print structured state
upload-url <obj-id> <key>         presigned PUT URL
download-url <obj-id> <key>       presigned GET URL
flush                             flush write-behind to the DB
stats                             storage counters
telemetry <on|verbose|off|status> control the trace sink
trace [--last N] [--export chrome|jsonl <path>]
                                  show or export the span tree
metrics [--class C] [--json]      per-function latency/error/retry stats
profile [--json|--collapsed] [class]
                                  span-derived flamegraph (self time)
slo [--json]                      per-class error-budget burn status
top                               per-class summary table
chaos on [--seed N] [--rate P] [--site <site> <rate>] [--latency-ms M] [--latency-share F]
                                  enable deterministic fault injection
chaos script <site> <error|torn|latency[:ms]>
                                  arm a fault at a site's next call
chaos status [--json]             injector call/fault counters
chaos off                         disable fault injection
admission on [--rate R] [--burst B] [--tenant <name> <rate> <burst>]...
                                  arm per-tenant token-bucket admission
admission status [--json]         bucket levels, tenant stats, fairness
admission off                     disable admission control
invoke-as <tenant> <obj-id> <fn> [json-arg]*
                                  invoke charged to a tenant's budget
invoke-batch <obj-id> <fn> [json-arg]* [ ; <obj-id> <fn> [json-arg]* ]*
                                  invoke many methods in one shard-grouped batch
cluster join                      add a worker node (live-migrates partitions)
cluster leave <node>              fail a node, migrating its partitions away
cluster status [--json]           per-node partition/ownership counters
partitions [--json] [obj-id]      partition-map posture, or one object's placement
flow doctor [--json] [class [flow]]
                                  dataflow diagnostics (OPRC050-054)
flow add-step <class> <flow> <id> <fn> [--input <ref>]* [--target <ref>] [--before <step>]
                                  splice a step into a live flow
flow delete-step <class> <flow> <id>
                                  remove a step, rewiring its consumers
";

/// Keeps only the spans belonging to the newest `n` traces. Platform
/// instants (trace id 0: flushes, autoscaler plans) are kept whenever
/// any trace survives, since they interleave with every invocation.
fn newest_traces(spans: Vec<Span>, n: usize) -> Vec<Span> {
    let mut ids: Vec<u64> = spans
        .iter()
        .map(|s| s.trace_id)
        .filter(|t| *t != 0)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    let keep: std::collections::BTreeSet<u64> = ids.iter().rev().take(n).copied().collect();
    spans
        .into_iter()
        .filter(|s| keep.contains(&s.trace_id) || (s.trace_id == 0 && !keep.is_empty()))
        .collect()
}

/// Parses the value following flag `parts[i]`.
fn parse_flag<T: std::str::FromStr>(
    parts: &[String],
    i: usize,
    usage: &str,
) -> Result<T, CommandError> {
    parts
        .get(i + 1)
        .and_then(|s| s.parse::<T>().ok())
        .ok_or_else(|| CommandError::Usage(usage.into()))
}

/// Parses `error`, `torn`, `latency`, or `latency:<ms>`.
fn parse_fault_kind(s: &str) -> Option<FaultKind> {
    match s {
        "error" => Some(FaultKind::Error),
        "torn" => Some(FaultKind::Torn),
        "latency" => Some(FaultKind::Latency(SimDuration::from_millis(5))),
        _ => {
            let ms = s.strip_prefix("latency:")?.parse::<u64>().ok()?;
            Some(FaultKind::Latency(SimDuration::from_millis(ms)))
        }
    }
}

/// Parses the CLI data-ref notation: `input`, `step:<id>`,
/// `step:<id>#<json-pointer>`, or any other token as a constant (JSON
/// when it parses, a bare string otherwise).
fn parse_data_ref(s: &str) -> DataRef {
    if s == "input" {
        return DataRef::Input;
    }
    if let Some(rest) = s.strip_prefix("step:") {
        let (step, pointer) = match rest.split_once('#') {
            Some((st, p)) => (st.to_string(), Some(p.to_string())),
            None => (rest.to_string(), None),
        };
        return DataRef::Step { step, pointer };
    }
    match json::parse(s) {
        Ok(v) => DataRef::Const(v),
        Err(_) => DataRef::Const(Value::from(s)),
    }
}

/// Renders a [`crate::embedded::MigrationReport`] as a JSON value.
fn migration_value(r: &crate::embedded::MigrationReport) -> Value {
    oprc_value::vjson!({
        "epoch": (r.epoch),
        "node": (r.node),
        "partitions_moved": (r.partitions_moved as u64),
        "records_moved": (r.records_moved),
    })
}

fn parse_object(s: &str) -> Result<ObjectId, CommandError> {
    let s = s.trim();
    let digits = s.strip_prefix("obj-").unwrap_or(s);
    digits
        .parse::<u64>()
        .map(ObjectId)
        .map_err(|_| CommandError::Usage(format!("'{s}' is not an object id")))
}

/// Splits a command tail into arguments, keeping bracketed/quoted JSON
/// intact (`invoke 1 f {"a": 1} [2, 3]` → 4 parts).
fn split_args(s: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut depth = 0i32;
    let mut in_str = false;
    let mut cur = String::new();
    for c in s.chars() {
        match c {
            '"' => {
                in_str = !in_str;
                cur.push(c);
            }
            '{' | '[' if !in_str => {
                depth += 1;
                cur.push(c);
            }
            '}' | ']' if !in_str => {
                depth -= 1;
                cur.push(c);
            }
            c if c.is_whitespace() && depth == 0 && !in_str => {
                if !cur.is_empty() {
                    out.push(std::mem::take(&mut cur));
                }
            }
            c => cur.push(c),
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use oprc_core::invocation::TaskResult;
    use oprc_value::vjson;

    fn ctl() -> OprcCtl {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/counter", |t| {
            let n = t.state_in["count"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(n).with_patch(vjson!({"count": n})))
        });
        p.register_function("img/add", |t| {
            let a = t.args.first().and_then(Value::as_i64).unwrap_or(0);
            let b = t.args.get(1).and_then(Value::as_i64).unwrap_or(0);
            Ok(TaskResult::output(a + b))
        });
        let mut ctl = OprcCtl::new(p);
        ctl.execute(
            "deploy classes:\n  - name: Counter\n    keySpecs: [count]\n    functions:\n      - name: incr\n        image: img/counter\n      - name: add\n        image: img/add\n",
        )
        .unwrap();
        ctl
    }

    #[test]
    fn full_session() {
        let mut ctl = ctl();
        assert_eq!(ctl.execute("classes").unwrap().text, "Counter");
        let out = ctl.execute("create Counter {\"count\": 41}").unwrap();
        assert_eq!(out.text, "obj-0");
        let out = ctl.execute("invoke obj-0 incr").unwrap();
        assert_eq!(out.value, Some(vjson!(42)));
        let out = ctl.execute("state 0").unwrap();
        assert_eq!(out.value.unwrap()["count"].as_i64(), Some(42));
        let out = ctl.execute("describe Counter").unwrap();
        assert!(out.text.contains("template: default"));
        assert!(ctl.execute("flush").unwrap().text.starts_with("flushed"));
        assert!(ctl.execute("stats").unwrap().text.contains("db-batches"));
    }

    #[test]
    fn json_args_survive_splitting() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        // A JSON object argument stays one argument; `add` reads it as
        // non-numeric (0) and adds the second argument.
        let out = ctl.execute("invoke 0 add {\"x\": 1} 5").unwrap();
        assert_eq!(out.value, Some(vjson!(5)));
        let out = ctl.execute("invoke 0 add 20 22").unwrap();
        assert_eq!(out.value, Some(vjson!(42)));
    }

    #[test]
    fn errors_are_reported_not_panicked() {
        let mut ctl = ctl();
        assert!(matches!(
            ctl.execute("frobnicate"),
            Err(CommandError::UnknownCommand(_))
        ));
        assert!(matches!(ctl.execute("create"), Err(CommandError::Usage(_))));
        assert!(matches!(
            ctl.execute("create Ghost"),
            Err(CommandError::Platform(_))
        ));
        assert!(matches!(
            ctl.execute("invoke zzz incr"),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            ctl.execute("state 999"),
            Err(CommandError::Platform(PlatformError::UnknownObject(999)))
        ));
        assert!(matches!(
            ctl.execute("deploy @/no/such/file.yaml"),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn invoke_batch_command_runs_items_in_order() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        ctl.execute("create Counter").unwrap();
        // Two items on obj-0 serialize in submission order; the add on
        // obj-1 rides the same batch. A missing function errors in its
        // slot without failing the command.
        let out = ctl
            .execute("invoke-batch obj-0 incr ; obj-1 add 2 3 ; obj-0 incr ; obj-0 nope")
            .unwrap();
        let values = match out.value.unwrap() {
            Value::Array(v) => v,
            other => panic!("expected array, got {other:?}"),
        };
        assert_eq!(values[0].as_i64(), Some(1));
        assert_eq!(values[1].as_i64(), Some(5));
        assert_eq!(values[2].as_i64(), Some(2));
        assert!(values[3]["error"].as_str().unwrap().contains("nope"));
        assert!(out.text.contains("[3] error:"));
        let state = ctl.execute("state obj-0").unwrap().value.unwrap();
        assert_eq!(state["count"].as_i64(), Some(2));
        assert!(matches!(
            ctl.execute("invoke-batch"),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            ctl.execute("invoke-batch obj-0"),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn admission_commands_gate_tenants() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        // Off by default: invoke-as records tenant metrics, never blocks.
        ctl.execute("invoke-as acme 0 incr").unwrap();
        // Tiny refill rate so wall-clock time cannot top the bucket up
        // mid-test; burst 2 admits exactly two.
        ctl.execute("admission on --rate 0.001 --burst 2 --tenant vip 100 50")
            .unwrap();
        ctl.execute("invoke-as acme 0 incr").unwrap();
        ctl.execute("invoke-as acme 0 incr").unwrap();
        assert!(matches!(
            ctl.execute("invoke-as acme 0 incr"),
            Err(CommandError::Platform(PlatformError::AdmissionRejected { tenant })) if tenant == "acme"
        ));
        // The override tenant has its own, larger budget.
        for _ in 0..10 {
            ctl.execute("invoke-as vip 0 incr").unwrap();
        }

        let v = ctl
            .execute("admission status --json")
            .unwrap()
            .value
            .unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, ["buckets", "enabled", "fairness", "tenants"]);
        assert_eq!(v["enabled"].as_bool(), Some(true));
        let buckets = v["buckets"].as_array().unwrap();
        assert_eq!(buckets.len(), 2, "acme and vip have buckets");
        assert_eq!(buckets[0]["tenant"].as_str(), Some("acme"));
        assert_eq!(buckets[0]["rejected"].as_u64(), Some(1));
        assert_eq!(buckets[1]["burst"].as_f64(), Some(50.0));
        let tenants = v["tenants"].as_array().unwrap();
        assert_eq!(tenants.len(), 2);
        assert!(v["fairness"].as_f64().unwrap() > 0.0);

        ctl.execute("admission off").unwrap();
        ctl.execute("invoke-as acme 0 incr").unwrap();
        let v = ctl
            .execute("admission status --json")
            .unwrap()
            .value
            .unwrap();
        assert_eq!(v["enabled"].as_bool(), Some(false));

        assert!(matches!(
            ctl.execute("admission bogus"),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            ctl.execute("invoke-as acme 0"),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn lint_command_reports_without_deploying() {
        let mut ctl = ctl();
        // Clean package: zero findings, nothing deployed.
        let out = ctl
            .execute("lint classes:\n  - name: Pure\n    functions:\n      - name: f\n        image: i/f\n")
            .unwrap();
        assert!(out.text.contains("0 error(s)"));
        assert_eq!(ctl.execute("classes").unwrap().text, "Counter");

        // Error-severity findings fail the command with the report.
        let broken = "lint classes:\n  - name: C\n    dataflows:\n      - name: flow\n        steps:\n          - id: s\n            function: ghost\n";
        let Err(CommandError::Lint(report)) = ctl.execute(broken) else {
            panic!("expected lint failure");
        };
        assert!(report.contains("OPRC001"));
        assert!(report.contains("class C > dataflow flow > step s"));

        // --json renders the structured report.
        let broken_json = broken.replacen("lint ", "lint --json ", 1);
        let Err(CommandError::Lint(report)) = ctl.execute(&broken_json) else {
            panic!("expected lint failure");
        };
        let v = json::parse(&report).unwrap();
        assert_eq!(v["errors"].as_u64(), Some(1));
        assert_eq!(v["diagnostics"][0]["code"].as_str(), Some("OPRC001"));
    }

    #[test]
    fn lint_accepts_unparseable_deploy_rejects() {
        // A cyclic dataflow fails strict parsing (deploy), but lint
        // loads it leniently and names the cycle.
        let cyclic = "classes:\n  - name: C\n    functions:\n      - name: f\n        image: i/f\n    dataflows:\n      - name: loop\n        steps:\n          - id: a\n            function: f\n            inputs: [\"step:b\"]\n          - id: b\n            function: f\n            inputs: [\"step:a\"]\n";
        let mut ctl = ctl();
        assert!(ctl.execute(&format!("deploy {cyclic}")).is_err());
        let Err(CommandError::Lint(report)) = ctl.execute(&format!("lint {cyclic}")) else {
            panic!("expected lint failure");
        };
        assert!(report.contains("OPRC030"), "{report}");
    }

    /// A platform with a 2-step self-chain flow plus a dead readonly
    /// step, so `flow doctor` has findings at every severity.
    fn flow_ctl() -> OprcCtl {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/step", |t| {
            let n = t.state_in["n"].as_i64().unwrap_or(0) + 1;
            Ok(TaskResult::output(n).with_patch(vjson!({"n": n})))
        });
        let mut ctl = OprcCtl::new(p);
        ctl.execute(
            "deploy classes:\n  - name: Pipe\n    keySpecs: [n]\n    functions:\n      - name: f\n        image: img/step\n      - name: peek\n        image: img/step\n        readonly: true\n    dataflows:\n      - name: chain\n        steps:\n          - id: a\n            function: f\n            inputs: [input]\n          - id: spy\n            function: peek\n            inputs: [\"step:a\"]\n          - id: b\n            function: f\n            inputs: [\"step:a\"]\n        output: b\n",
        )
        .unwrap();
        ctl
    }

    #[test]
    fn flow_doctor_reports_and_filters() {
        let mut ctl = flow_ctl();
        let out = ctl.execute("flow doctor").unwrap();
        assert!(out.text.contains("OPRC050"), "{}", out.text);
        assert!(out.text.contains("OPRC051"), "{}", out.text);
        assert!(out.text.contains("a → b"), "{}", out.text);

        // Scope filters: wrong class or flow name finds nothing.
        let out = ctl.execute("flow doctor Ghost").unwrap();
        assert_eq!(out.text, "flow doctor: no findings");
        let out = ctl.execute("flow doctor Pipe ghost").unwrap();
        assert_eq!(out.text, "flow doctor: no findings");
        let out = ctl.execute("flow doctor Pipe chain").unwrap();
        assert!(out.text.contains("OPRC050"));
    }

    #[test]
    fn flow_doctor_json_shape_is_pinned() {
        let mut ctl = flow_ctl();
        let out = ctl.execute("flow doctor --json").unwrap();
        let v = out.value.unwrap();
        let top: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(top, vec!["reports"]);
        let report = &v["reports"][0];
        let keys: Vec<&str> = report
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            keys,
            vec!["diagnostics", "errors", "infos", "package", "warnings"]
        );
        let d = &report["diagnostics"][0];
        let dkeys: Vec<&str> = d.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(dkeys, vec!["code", "message", "severity", "source"]);
    }

    #[test]
    fn flow_live_edits_apply_and_reject() {
        let mut ctl = flow_ctl();
        ctl.execute("create Pipe").unwrap();
        let out = ctl.execute("invoke 0 chain").unwrap();
        assert_eq!(out.value, Some(vjson!(2)), "a then b increments twice");

        // Valid edit: splice `c` before `b` — the chain grows a stage
        // without a redeploy.
        ctl.execute("flow add-step Pipe chain c f --before b")
            .unwrap();
        ctl.execute("create Pipe").unwrap();
        let out = ctl.execute("invoke 1 chain").unwrap();
        assert_eq!(out.value, Some(vjson!(3)), "a, c, b increment thrice");

        // Invalid edit: unknown function is rejected by the lint gate
        // and the flow keeps working unchanged.
        assert!(matches!(
            ctl.execute("flow add-step Pipe chain bad ghost_fn"),
            Err(CommandError::Platform(PlatformError::LintRejected(_)))
        ));
        assert!(matches!(
            ctl.execute("flow delete-step Pipe chain nosuch"),
            Err(CommandError::Platform(_))
        ));
        let out = ctl.execute("invoke 1 chain").unwrap();
        assert_eq!(out.value, Some(vjson!(6)), "3 more increments from 3");

        // Deleting the spliced step restores the original plan.
        ctl.execute("flow delete-step Pipe chain c").unwrap();
        ctl.execute("create Pipe").unwrap();
        let out = ctl.execute("invoke 2 chain").unwrap();
        assert_eq!(out.value, Some(vjson!(2)));
    }

    #[test]
    fn blank_and_comment_lines_are_noops() {
        let mut ctl = ctl();
        assert_eq!(ctl.execute("").unwrap().text, "");
        assert_eq!(ctl.execute("  # a comment").unwrap().text, "");
        assert!(ctl.execute("help").unwrap().text.contains("deploy"));
    }

    #[test]
    fn presigned_url_commands() {
        let mut p = EmbeddedPlatform::new();
        p.register_function("img/noop", |_| Ok(TaskResult::output(Value::Null)));
        let mut ctl = OprcCtl::new(p);
        ctl.execute(
            "deploy classes:\n  - name: F\n    keySpecs:\n      - name: blob\n        type: file\n    functions:\n      - name: noop\n        image: img/noop\n",
        )
        .unwrap();
        ctl.execute("create F").unwrap();
        let put = ctl.execute("upload-url 0 blob").unwrap().text;
        assert!(put.contains("method=PUT"));
        let get = ctl.execute("download-url 0 blob").unwrap().text;
        assert!(get.contains("method=GET"));
    }

    #[test]
    fn telemetry_trace_and_metrics_commands() {
        let mut ctl = ctl();
        assert!(ctl
            .execute("telemetry status")
            .unwrap()
            .text
            .contains("Off"));
        ctl.execute("telemetry on").unwrap();
        ctl.execute("create Counter").unwrap();
        ctl.execute("invoke 0 incr").unwrap();
        ctl.execute("invoke 0 incr").unwrap();

        // Tree rendering shows the invocation span hierarchy.
        let tree = ctl.execute("trace").unwrap().text;
        assert!(tree.contains("invoke #"), "{tree}");
        assert!(tree.contains("  route #"), "{tree}");
        assert!(tree.contains("engine.execute"), "{tree}");

        // --last 1 keeps only the newest invocation's trace.
        let last = ctl.execute("trace --last 1").unwrap().text;
        assert_eq!(last.matches("invoke #").count(), 1, "{last}");

        // Export to both formats and parse them back.
        let dir = std::env::temp_dir();
        let chrome = dir.join("oprc_gateway_trace.json");
        let jsonl = dir.join("oprc_gateway_trace.jsonl");
        let out = ctl
            .execute(&format!("trace --export chrome {}", chrome.display()))
            .unwrap();
        assert!(out.text.starts_with("exported"));
        let doc = json::parse(&std::fs::read_to_string(&chrome).unwrap()).unwrap();
        assert!(!doc.as_array().unwrap().is_empty());
        ctl.execute(&format!("trace --export jsonl {}", jsonl.display()))
            .unwrap();
        let first = std::fs::read_to_string(&jsonl).unwrap();
        let line = json::parse(first.lines().next().unwrap()).unwrap();
        assert_eq!(line["name"].as_str(), Some("invoke"));

        // Metrics: per-function rows, filterable, JSON mode.
        let m = ctl.execute("metrics").unwrap();
        assert!(m.text.contains("incr"), "{}", m.text);
        let mj = ctl.execute("metrics --class Counter --json").unwrap();
        let rows = &mj.value.unwrap()["functions"];
        assert_eq!(rows[0]["class"].as_str(), Some("Counter"));
        assert_eq!(rows[0]["function"].as_str(), Some("incr"));
        assert_eq!(rows[0]["completed"].as_u64(), Some(2));
        let none = ctl.execute("metrics --class Ghost --json").unwrap();
        assert!(none.value.unwrap()["functions"]
            .as_array()
            .unwrap()
            .is_empty());

        // Top shows the class health table.
        let top = ctl.execute("top").unwrap().text;
        assert!(top.contains("Counter"), "{top}");
        assert!(top.contains("ERR%"), "{top}");

        // Off restores the disabled sink.
        ctl.execute("telemetry off").unwrap();
        ctl.execute("invoke 0 incr").unwrap();
        assert!(ctl
            .execute("trace")
            .unwrap()
            .text
            .contains("no finished spans"));

        assert!(matches!(
            ctl.execute("telemetry sideways"),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            ctl.execute("trace --export png /tmp/x"),
            Err(CommandError::Usage(_))
        ));
        let _ = std::fs::remove_file(chrome);
        let _ = std::fs::remove_file(jsonl);
    }

    /// Pins the `metrics --json` document shape: a `functions` array
    /// whose rows carry retry/breaker columns, a `faults` object of
    /// per-site injected totals, a `shards` array of per-shard lock
    /// traffic, a `nodes` array of per-node partition/ownership
    /// counters, a `partitions` map summary, and a `throughput`
    /// summary. Downstream tooling parses this.
    #[test]
    fn metrics_json_shape_is_pinned() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        ctl.execute("invoke 0 incr").unwrap();
        let v = ctl.execute("metrics --json").unwrap().value.unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            vec![
                "faults",
                "functions",
                "nodes",
                "partitions",
                "shards",
                "throughput"
            ]
        );
        assert_eq!(v["throughput"]["completed_total"].as_u64(), Some(1));
        assert!(v["throughput"]["ops_per_sec"].as_f64().is_some());
        let node_rows = v["nodes"].as_array().unwrap();
        assert_eq!(node_rows.len(), 1, "boot plane is a single node");
        let node_cols: Vec<&str> = node_rows[0]
            .as_object()
            .unwrap()
            .keys()
            .map(String::as_str)
            .collect();
        assert_eq!(
            node_cols,
            vec![
                "local_invokes",
                "migrated_in",
                "migrated_out",
                "node",
                "primary_partitions",
                "remote_invokes",
                "replica_partitions",
                "status"
            ]
        );
        assert_eq!(node_rows[0]["status"].as_str(), Some("ready"));
        assert_eq!(node_rows[0]["local_invokes"].as_u64(), Some(1));
        assert_eq!(v["partitions"]["epoch"].as_u64(), Some(0));
        assert_eq!(v["partitions"]["nodes"].as_u64(), Some(1));
        assert_eq!(v["partitions"]["moved_records"].as_u64(), Some(0));
        let shard_rows = v["shards"].as_array().unwrap();
        assert!(!shard_rows.is_empty());
        let occupied: u64 = shard_rows
            .iter()
            .map(|s| s["objects"].as_u64().unwrap())
            .sum();
        assert_eq!(occupied, 1);
        let row = v["functions"].as_array().unwrap()[0].as_object().unwrap();
        let cols: Vec<&str> = row.keys().map(String::as_str).collect();
        assert_eq!(
            cols,
            vec![
                "breaker",
                "class",
                "completed",
                "errors",
                "function",
                "mean_ms",
                "p50_ms",
                "p99_ms",
                "retries",
                "window_p99_ms"
            ]
        );
        // The windowed p99 rides alongside the cumulative one and, for
        // a class whose whole history fits in the fast window, agrees
        // with it.
        assert!(row["window_p99_ms"].as_f64().is_some());
        assert_eq!(row["retries"].as_u64(), Some(0));
        assert_eq!(row["breaker"].as_str(), Some("-"));
        assert!(v["faults"].as_object().unwrap().is_empty());

        // With chaos on, injected faults surface in the `faults` object
        // and the text table grows RETRIES/BREAKER columns.
        ctl.execute("chaos on --seed 7").unwrap();
        ctl.execute("chaos script engine.execute error").unwrap();
        assert!(ctl.execute("invoke 0 incr").is_err());
        let v = ctl.execute("metrics --json").unwrap().value.unwrap();
        assert_eq!(v["faults"]["engine.execute"].as_u64(), Some(1));
        let text = ctl.execute("metrics").unwrap().text;
        assert!(text.contains("RETRIES"), "{text}");
        assert!(text.contains("BREAKER"), "{text}");
    }

    /// Observability reads are not invocation lock traffic: reading the
    /// shard counters (or the storage counters behind the same locks)
    /// never moves them.
    #[test]
    fn observability_reads_leave_shard_counters_alone() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        ctl.execute("invoke 0 incr").unwrap();
        let acquisitions = |v: &Value| -> Vec<u64> {
            v["shards"]
                .as_array()
                .unwrap()
                .iter()
                .map(|s| s["acquisitions"].as_u64().unwrap())
                .collect()
        };
        let first = ctl.execute("metrics --json").unwrap().value.unwrap();
        let second = ctl.execute("metrics --json").unwrap().value.unwrap();
        assert_eq!(acquisitions(&first), acquisitions(&second));
        let shards = ctl.platform().shard_stats();
        let _ = ctl.platform().storage_stats();
        ctl.execute("stats").unwrap();
        ctl.execute("partitions --json").unwrap();
        assert_eq!(ctl.platform().shard_stats(), shards);
    }

    /// The cluster/partitions commands drive node lifecycle end to end:
    /// join publishes a new epoch and re-homes partitions, status lists
    /// every node, placement names the object's primary/replica, and
    /// degenerate leaves are refused with typed errors.
    #[test]
    fn cluster_and_partition_commands() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();
        ctl.execute("invoke 0 incr").unwrap();

        // Boot posture: epoch 0, a single node owning everything.
        let v = ctl.execute("partitions --json").unwrap().value.unwrap();
        assert_eq!(v["epoch"].as_u64(), Some(0));
        assert_eq!(v["nodes"].as_u64(), Some(1));

        // A join publishes epoch 1 and re-homes some partitions.
        let out = ctl.execute("cluster join").unwrap();
        assert!(out.text.contains("node-1 joined"), "{}", out.text);
        let v = out.value.unwrap();
        assert_eq!(v["epoch"].as_u64(), Some(1));
        assert!(v["partitions_moved"].as_u64().unwrap() > 0);

        // Status shows both nodes; the object's placement names a
        // primary and (with two nodes) a replica.
        let status = ctl.execute("cluster status --json").unwrap().value.unwrap();
        assert_eq!(status.as_array().unwrap().len(), 2);
        let placement = ctl
            .execute("partitions --json obj-0")
            .unwrap()
            .value
            .unwrap();
        assert!(placement["primary"].as_u64().unwrap() <= 1);
        assert!(placement["replica"].as_u64().is_some());
        let text = ctl.execute("partitions obj-0").unwrap().text;
        assert!(text.contains("partition"), "{text}");

        // The new node leaves again; the last ready node cannot, and a
        // malformed id is a usage error.
        let out = ctl.execute("cluster leave node-1").unwrap();
        assert!(out.text.contains("node-1 left"), "{}", out.text);
        assert!(matches!(
            ctl.execute("cluster leave 0"),
            Err(CommandError::Platform(PlatformError::ClusterTopology(_)))
        ));
        assert!(matches!(
            ctl.execute("cluster leave bogus"),
            Err(CommandError::Usage(_))
        ));
        let text = ctl.execute("cluster status").unwrap().text;
        assert!(text.contains("down"), "{text}");

        // Post-migration, the metrics text view grows a nodes section.
        let text = ctl.execute("metrics").unwrap().text;
        assert!(text.contains("nodes (epoch 2"), "{text}");
    }

    #[test]
    fn profile_and_slo_commands() {
        let mut ctl = ctl();
        // Profiling an idle platform with telemetry off folds nothing.
        assert!(ctl
            .execute("profile")
            .unwrap()
            .text
            .contains("no finished spans"));
        ctl.execute("telemetry on").unwrap();
        ctl.execute("create Counter").unwrap();
        ctl.execute("invoke 0 incr").unwrap();

        // Table view labels invoke roots Class::function and shows the
        // engine frame's self time.
        let text = ctl.execute("profile").unwrap().text;
        assert!(text.contains("Counter::incr"), "{text}");
        assert!(text.contains("engine.execute"), "{text}");

        // Collapsed-stack export starts each line at the root frame.
        let collapsed = ctl.execute("profile --collapsed").unwrap().text;
        assert!(
            collapsed.lines().all(|l| l.starts_with("Counter::incr")),
            "{collapsed}"
        );

        // JSON shape is pinned; a class filter selects trace trees.
        let v = ctl
            .execute("profile --json Counter")
            .unwrap()
            .value
            .unwrap();
        let keys: Vec<&str> = v.as_object().unwrap().keys().map(String::as_str).collect();
        assert_eq!(keys, vec!["frames", "stacks"]);
        assert!(!v["frames"].as_array().unwrap().is_empty());
        let v = ctl.execute("profile --json Ghost").unwrap().value.unwrap();
        assert!(v["frames"].as_array().unwrap().is_empty());

        // SLO: Counter declared no NFRs → default tier, ok.
        let v = ctl.execute("slo --json").unwrap().value.unwrap();
        let row = v["classes"].as_array().unwrap()[0].as_object().unwrap();
        let keys: Vec<&str> = row.keys().map(String::as_str).collect();
        assert_eq!(
            keys,
            vec![
                "active",
                "availability",
                "burn_fast",
                "burn_slow",
                "class",
                "error_budget",
                "latency_ok",
                "max_p99_ms",
                "status",
                "window_p99_ms"
            ]
        );
        assert_eq!(row["class"].as_str(), Some("Counter"));
        assert_eq!(row["status"].as_str(), Some("ok"));
        assert_eq!(row["active"].as_bool(), Some(true));
        assert!(row["max_p99_ms"].is_null());
        let text = ctl.execute("slo").unwrap().text;
        assert!(text.contains("CLASS"), "{text}");
        assert!(text.contains("Counter"), "{text}");

        assert!(matches!(
            ctl.execute("slo --bogus"),
            Err(CommandError::Usage(_))
        ));
        assert!(matches!(
            ctl.execute("profile --json --collapsed"),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn chaos_commands_control_the_injector() {
        let mut ctl = ctl();
        ctl.execute("create Counter").unwrap();

        // Off by default; scripting without enabling is an error.
        assert!(ctl.execute("chaos status").unwrap().text.contains("off"));
        assert!(matches!(
            ctl.execute("chaos script engine.execute error"),
            Err(CommandError::Usage(_))
        ));

        ctl.execute("chaos on --seed 9 --rate 0").unwrap();
        let out = ctl.execute("chaos script state.commit torn").unwrap();
        assert!(out.text.contains("state.commit"), "{}", out.text);
        // A torn commit loses only the acknowledgement: the platform
        // notices the idempotency key committed and recovers the result
        // instead of reporting an error for work that landed. State is
        // applied exactly once.
        assert_eq!(ctl.execute("invoke 0 incr").unwrap().value, Some(vjson!(1)));
        assert_eq!(
            ctl.execute("state 0").unwrap().value.unwrap()["count"].as_i64(),
            Some(1)
        );

        let status = ctl.execute("chaos status --json").unwrap().value.unwrap();
        assert_eq!(status["enabled"].as_bool(), Some(true));
        assert_eq!(status["seed"].as_u64(), Some(9));
        assert_eq!(status["injected"]["state.commit"].as_u64(), Some(1));

        ctl.execute("chaos off").unwrap();
        assert!(ctl.execute("chaos status").unwrap().text.contains("off"));
        assert!(matches!(
            ctl.execute("chaos bogus"),
            Err(CommandError::Usage(_))
        ));
    }

    #[test]
    fn split_args_handles_nesting() {
        assert_eq!(
            split_args(r#"0 f {"a": [1, 2], "b": "x y"} [3, 4] "lone string""#),
            vec![
                "0",
                "f",
                r#"{"a": [1, 2], "b": "x y"}"#,
                "[3, 4]",
                r#""lone string""#
            ]
        );
        assert!(split_args("   ").is_empty());
    }
}
