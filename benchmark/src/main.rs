//! The repository's benchmark: six closed-loop workloads over the
//! embedded invocation plane, eight end-to-end metrics, and a per-layer
//! probe trace. See README.md beside this package's manifest.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa] [--smoke]
//! ```
//!
//! It drives only public API of the program crates and none of
//! `oprc-bench`, so a refactor of the older bench binaries cannot move
//! its numbers.

mod alloc;
mod ops;
mod passes;
mod probes;
mod report;
mod run;
mod spans;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use oprc_value::{json, vjson, Value};

use report::WorkloadResult;
use run::{Mode, Scale};
use workloads::Kind;

#[global_allocator]
static ALLOCATOR: alloc::GatedAllocator = alloc::GatedAllocator;

const USAGE: &str =
    "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--aa] [--smoke]
  --workload NAME  one of hot_counter, jsonrand_write, read_mostly_zipf, flow_fanout, batch_64,
                   ship_4node (default: all six, one after the other)
  --seed N         seed of the op traces (default 42)
  --seconds S      seconds the timed pass measures, shared by its ten repetitions (default 10)
  --trace 0|1      0: end-to-end metrics only; 1: per-layer metrics only (default: both)
  --aa             run everything twice and compare the two runs against the bounds
  --smoke          about 200 ops per pass: checks the harness, measures nothing";

struct Args {
    workloads: Vec<Kind>,
    seed: u64,
    seconds: f64,
    mode: Mode,
    aa: bool,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workloads: Kind::ALL.to_vec(),
        seed: 42,
        seconds: 10.0,
        mode: Mode {
            end_to_end: true,
            per_layer: true,
        },
        aa: false,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .map(String::as_str)
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                let kind =
                    Kind::from_name(name).ok_or_else(|| format!("unknown workload {name}"))?;
                out.workloads = vec![kind];
            }
            "--seed" => {
                out.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.05..=600.0).contains(&s) {
                    return Err(format!("--seconds {s} is outside 0.05..=600"));
                }
                out.seconds = s;
            }
            "--trace" => {
                let per_layer = match value()? {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                };
                out.mode = Mode {
                    end_to_end: !per_layer,
                    per_layer,
                };
            }
            "--aa" => out.aa = true,
            "--smoke" => out.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(out)
}

/// Where span files and the results document go: beside the benchmark's
/// executable, inside the build directory.
fn artifact_dir() -> PathBuf {
    std::env::current_exe()
        .ok()
        .and_then(|exe| exe.parent().map(|dir| dir.join("benchmark-out")))
        .unwrap_or_else(|| PathBuf::from("benchmark-out"))
}

fn run_suite(args: &Args, mode: Mode) -> Vec<WorkloadResult> {
    args.workloads
        .iter()
        .map(|&kind| {
            let scale = if args.smoke {
                Scale::smoke(kind)
            } else {
                Scale::full(args.seconds)
            };
            let result = run::run_workload(kind, args.seed, scale, mode, &artifact_dir());
            result.print();
            result
        })
        .collect()
}

fn write_results(host: &Value, args: &Args, runs: &[&[WorkloadResult]]) {
    let runs: Vec<Value> = runs
        .iter()
        .map(|run| Value::from(run.iter().map(WorkloadResult::to_value).collect::<Vec<_>>()))
        .collect();
    let doc = vjson!({
        "benchmark": "oprc-benchmark",
        "host": (host.clone()),
        "seed": (args.seed),
        "seconds": (args.seconds),
        "smoke": (args.smoke),
        "runs": (Value::from(runs)),
    });
    let path = artifact_dir().join("results.json");
    let written = std::fs::create_dir_all(artifact_dir())
        .and_then(|()| std::fs::write(&path, json::to_string_pretty(&doc)));
    match written {
        Ok(()) => println!("results: {}", path.display()),
        Err(e) => eprintln!("cannot write {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let host = report::host_fingerprint();
    println!("host: {}", json::to_string(&host));

    let first = run_suite(&args, args.mode);
    let mut ok = first.iter().all(WorkloadResult::correct);
    if args.aa {
        // The second run only needs what is compared.
        let mode = Mode {
            end_to_end: true,
            per_layer: false,
        };
        let second = run_suite(&args, mode);
        ok &= second.iter().all(WorkloadResult::correct);
        let over = report::compare_aa(&first, &second);
        if over > 0 && !args.smoke {
            println!("A/A: {over} differences exceed their bound");
            ok = false;
        }
        write_results(&host, &args, &[&first, &second]);
    } else {
        write_results(&host, &args, &[&first]);
    }
    println!("{}", report::result_line(&first));
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = parse(&[
            "--workload",
            "batch_64",
            "--seed",
            "7",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .expect("parses");
        assert_eq!(a.workloads, vec![Kind::Batch64]);
        assert_eq!((a.seed, a.seconds), (7, 10.0));
        assert_eq!(
            a.mode,
            Mode {
                end_to_end: false,
                per_layer: true
            }
        );
        assert!(parse(&[]).expect("defaults").workloads.len() == 6);
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--trace", "2"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
