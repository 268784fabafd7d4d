//! `pmbench` command line.
//!
//! ```text
//! pmbench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! pmbench compare <a.jsonl> <b.jsonl> [--benchmark BENCHMARK.json]
//! pmbench kernels
//! ```

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use pmbench::host::HostInfo;
use pmbench::metrics::expected;
use pmbench::record::{complete, record_line, result_line};
use pmbench::run::{run, RunRequest};
use pmbench::{compare, kernels, workloads};

const USAGE: &str = "usage:
  pmbench [run] --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
  pmbench compare <a.jsonl> <b.jsonl> [--benchmark BENCHMARK.json]
  pmbench kernels";

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") => compare::main(&args[1..]),
        Some("kernels") => {
            kernels::main();
            Ok(true)
        }
        Some("run") => run_main(&args[1..], process_start),
        Some(flag) if flag.starts_with("--") => run_main(&args, process_start),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}

fn run_main(args: &[String], process_start: Instant) -> Result<bool, String> {
    let mut workload = None;
    let mut seed = 42u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut out = PathBuf::from("pmbench/out");
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n{USAGE}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("--workload")?.clone()),
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|seconds: &f64| seconds.is_finite() && *seconds >= 0.0)
                    .ok_or_else(|| "--seconds takes a non-negative number".to_string())?
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--out" => out = PathBuf::from(value("--out")?),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    let name = workload.ok_or_else(|| format!("--workload is required\n{USAGE}"))?;
    let workload = workloads::find(&name).ok_or_else(|| {
        let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
        format!(
            "unknown workload {name}; the workloads are {}",
            names.join(", ")
        )
    })?;

    let result = run(&RunRequest {
        shape: workload.shape,
        seed,
        measure: Duration::from_secs_f64(seconds),
        trace,
        process_start,
    });
    let metrics = complete(expected(trace), &result.metrics);

    println!(
        "{name}  seed {seed}  {} samples  {} attempted  {} failed  digest {}",
        result.samples, result.attempted, result.failed, result.outcome_digest
    );
    for (def, value) in &metrics {
        println!("{:<28} {value:>16.6} {}", def.name, def.unit);
    }
    write_outputs(&out, &name, seed, trace, seconds, &result, &metrics)
        .map_err(|error| format!("cannot write under {}: {error}", out.display()))?;
    println!("{}", result_line(&result, &metrics));
    Ok(result.failed == 0)
}

fn write_outputs(
    out: &Path,
    name: &str,
    seed: u64,
    trace: bool,
    seconds: f64,
    result: &pmbench::run::RunResult,
    metrics: &[(pmbench::metrics::MetricDef, f64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(out)?;
    if let Some(tracer) = &result.tracer {
        println!("{}", tracer.self_time_table());
        let spans = out.join(format!("{name}-seed{seed}.spans.jsonl"));
        std::fs::write(&spans, tracer.to_jsonl())?;
        println!("spans: {}", spans.display());
    }
    let record = record_line(
        name,
        seed,
        trace,
        seconds,
        result,
        metrics,
        &HostInfo::read(),
    );
    let mut records = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(out.join("records.jsonl"))?;
    writeln!(records, "{record}")
}
