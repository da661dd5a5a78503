//! Benchmark command line.
//!
//! ```text
//! perfbench --workload <exact_corpus|sparse_stream|serve_wire> --seed <n>
//!           --seconds <s> --trace <0|1> [--repeat <k>]
//! ```
//!
//! The last line of standard output is the JSON result. `--repeat k` runs
//! the workload k times in child processes (seeds n, n+1, ...) and prints
//! each metric's median, quartiles, minimum and maximum plus the host
//! steal share of every run, instead of a result line.

use std::process::{Command, ExitCode};

use qsp_core::json::{self, Value};
use qsp_perfbench::{
    exact_corpus, serve_wire, sparse_stream, stats, RunArgs, END_TO_END, PER_LAYER, WORKLOADS,
};

struct Cli {
    workload: String,
    run: RunArgs,
    repeat: Option<u32>,
}

fn parse(args: &[String]) -> Result<Cli, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut repeat) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or_else(bad)?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            "--repeat" => {
                repeat = Some(
                    value
                        .parse::<u32>()
                        .ok()
                        .filter(|k| *k > 0)
                        .ok_or_else(bad)?,
                )
            }
            _ => return Err(bad()),
        }
    }
    Ok(Cli {
        workload: workload.ok_or("--workload is required")?,
        run: RunArgs {
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.unwrap_or(false),
        },
        repeat,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse(&args) {
        Ok(cli) => cli,
        Err(message) => {
            eprintln!("perfbench: {message}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--repeat <k>]",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    if let Some(k) = cli.repeat {
        return repeat(&cli, k);
    }
    let result = match cli.workload.as_str() {
        "exact_corpus" => exact_corpus::run(&cli.run),
        "sparse_stream" => sparse_stream::run(&cli.run),
        _ => serve_wire::run(&cli.run),
    };
    if result.attempted == 0 {
        eprintln!("perfbench: no operation completed");
        return ExitCode::FAILURE;
    }
    let mut result = result;
    if cli.run.trace {
        // A layer the workload never calls reads zero.
        for (name, _) in PER_LAYER {
            result.metrics.entry(name).or_insert(0.0);
        }
    }
    println!("{}", result.to_json(cli.run.trace));
    ExitCode::SUCCESS
}

/// Steadiness mode: k runs in child processes, one summary row per metric.
fn repeat(cli: &Cli, k: u32) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let catalogue = if cli.run.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); catalogue.len()];
    for i in 0..u64::from(k) {
        let seed = cli.run.seed + i;
        let before = stats::cpu_jiffies();
        let output = Command::new(&exe)
            .args(["--workload", &cli.workload])
            .args(["--seed", &seed.to_string()])
            .args(["--seconds", &cli.run.seconds.to_string()])
            .args(["--trace", if cli.run.trace { "1" } else { "0" }])
            .output();
        let steal = match (before, stats::cpu_jiffies()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => (s1 - s0) as f64 / (t1 - t0) as f64,
            _ => f64::NAN,
        };
        let parsed = output
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .and_then(|out| out.lines().last().and_then(|l| json::parse(l).ok()));
        let Some(parsed) = parsed else {
            eprintln!("perfbench: run with seed {seed} failed");
            return ExitCode::FAILURE;
        };
        let correct = matches!(parsed.get("correct"), Some(Value::Bool(true)));
        let mut row = format!(
            "seed {seed}: correct {correct}, steal {:.2}%",
            steal * 100.0
        );
        for (j, (name, _)) in catalogue.iter().enumerate() {
            let value = parsed
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(|m| m.get("value"))
                .and_then(Value::as_f64)
                .unwrap_or(f64::NAN);
            values[j].push(value);
            row += &format!(", {name} {value}");
        }
        println!("{row}");
    }
    println!(
        "{:<32} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8}",
        "metric", "median", "q1", "q3", "min", "max", "iqr/med"
    );
    for ((name, unit), v) in catalogue.iter().zip(&values) {
        let median = stats::median(v);
        let (q1, q3) = stats::quartiles(v);
        let min = v.iter().copied().fold(f64::INFINITY, f64::min);
        let max = v.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        println!(
            "{:<32} {median:>12.4} {q1:>12.4} {q3:>12.4} {min:>12.4} {max:>12.4} {:>7.2}%",
            format!("{name} ({unit})"),
            (q3 - q1) / median.abs() * 100.0
        );
    }
    ExitCode::SUCCESS
}
