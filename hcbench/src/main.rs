//! Benchmark command.
//!
//! ```text
//! cargo run --release --manifest-path hcbench/Cargo.toml -- \
//!     --workload <chat|long_context|restore_burst> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints a table of every metric (value, unit, samples) and the
//! attempted/succeeded/failed counts, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` holding the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Exits 1 when an operation failed or a correctness check
//! did not pass, 2 on bad arguments.

use std::path::PathBuf;
use std::process::ExitCode;

use hcbench::common::{Budget, Report, RunOpts};
use hcbench::{END_TO_END, PER_LAYER};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn print_report(r: &Report, names: &[&str]) {
    println!(
        "{:<42} {:>16} {:<9} {:>8}",
        "metric", "value", "unit", "samples"
    );
    for m in &r.metrics {
        println!(
            "{:<42} {:>16.6} {:<9} {:>8}",
            m.name, m.value, m.unit, m.samples
        );
    }
    if let Some(&(root, _, root_ms)) = r.breakdown.iter().find(|b| b.0 == "core.round") {
        println!("\nspan breakdown (share of {root} time)");
        for (name, calls, ms) in &r.breakdown {
            println!(
                "{name:<42} {calls:>8} calls {ms:>12.1} ms {:>7.1}%",
                100.0 * ms / root_ms
            );
        }
        println!();
    }
    println!(
        "attempted {} succeeded {} failed {}; correctness checks {} failed {}",
        r.attempted,
        r.attempted - r.failed,
        r.failed,
        r.checks,
        r.check_failures.len()
    );
    for f in &r.check_failures {
        println!("CHECK FAILED: {f}");
    }
    let metrics: Vec<String> = names
        .iter()
        .map(|name| {
            let m = r.metrics.iter().find(|m| m.name == *name);
            let (value, unit) = m.map_or((0.0, "count"), |m| (m.value, m.unit));
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted.max(1),
        r.failed,
        metrics.join(", ")
    );
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hcbench: {e}");
            eprintln!(
                "usage: hcbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                hcbench::WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let opts = RunOpts {
        seed: args.seed,
        budget: Budget::Seconds(args.seconds),
        trace: args.trace,
        run_dir: PathBuf::from(".bench_run"),
    };
    match hcbench::run(&args.workload, &opts) {
        Ok(report) => {
            let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
            print_report(&report, names);
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("hcbench: {} failed: {e}", args.workload);
            ExitCode::from(1)
        }
    }
}
