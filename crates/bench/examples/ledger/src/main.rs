//! `ledger` — the repo's benchmark: five fixed-work workloads, twelve
//! end-to-end metrics, a per-layer traced pass. See README.md beside this
//! package for the metric glossary and how to read the output.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one pass
//! ledger run --seed <n> [--out <file>] [--smoke]                     every workload, both passes
//! ledger selfcheck                                                   same seed, same counts
//! ledger diff <a.json> <b.json>                                      two `run` outputs compared
//! ```

mod embedded;
mod gen;
mod layers;
mod measure;
mod replay;
mod report;
mod server;
mod spec;
mod stats;
mod trace;

use measure::{Outcome, Workload};
use std::process::ExitCode;

pub type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// `--key value` pairs after the subcommand.
pub struct Args(Vec<String>);

impl Args {
    pub fn get(&self, key: &str) -> Option<&str> {
        let at = self.0.iter().position(|a| a == key)?;
        self.0.get(at + 1).map(String::as_str)
    }

    pub fn has(&self, key: &str) -> bool {
        self.0.iter().any(|a| a == key)
    }

    pub fn parsed<T: std::str::FromStr>(&self, key: &str) -> Res<Option<T>> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.parse().map(Some).map_err(|_| format!("bad value for {key}: {v}").into()),
        }
    }

    pub fn positional(&self, at: usize) -> Option<&str> {
        self.0.get(at).map(String::as_str)
    }
}

/// This program again, as a process of its own; its standard output.
pub fn run_self(args: &[&str]) -> Res<String> {
    let output = std::process::Command::new(std::env::current_exe()?)
        .args(args)
        .stderr(std::process::Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(format!("`ledger {}` exited with {}", args.join(" "), output.status).into());
    }
    Ok(String::from_utf8_lossy(&output.stdout).into_owned())
}

/// `--workload`, `--seed` and `--scale-pct` (100 unless given).
fn target(args: &Args) -> Res<(&str, u64, u64, Workload)> {
    let name = args.get("--workload").ok_or("--workload <name> is required")?;
    let seed: u64 = args.parsed("--seed")?.ok_or("--seed <n> is required")?;
    let pct: u64 = args.parsed("--scale-pct")?.unwrap_or(100);
    let workload = Workload::find(name, pct).ok_or_else(|| format!("unknown workload {name}"))?;
    Ok((name, seed, pct, workload))
}

/// One workload, one pass: the invocation `BENCHMARK.json` names. Prints
/// every metric with its unit, then the result object as the last line.
fn one(args: &Args) -> Res<ExitCode> {
    let (name, seed, pct, workload) = target(args)?;
    let seconds: f64 = args.parsed("--seconds")?.ok_or("--seconds <s> is required")?;
    let trace: u8 = args.parsed("--trace")?.unwrap_or(0);
    let outcome = match trace {
        0 => measure::end_to_end(name, seed, seconds, pct)?,
        _ => layers::per_layer(&workload, seed, seconds)?,
    };
    print_outcome(name, seed, &outcome);
    Ok(ExitCode::SUCCESS)
}

/// One untraced round, for the process `measure::end_to_end` starts.
fn round(args: &Args) -> Res<ExitCode> {
    let (_, seed, _, workload) = target(args)?;
    let with_fidelity = args.parsed::<u8>("--fidelity")?.unwrap_or(0) != 0;
    println!("{}", measure::round_report(&workload, seed, with_fidelity)?.to_line());
    Ok(ExitCode::SUCCESS)
}

fn print_outcome(workload: &str, seed: u64, outcome: &Outcome) {
    println!("workload {workload} seed {seed}");
    for (name, value) in &outcome.metrics {
        println!("{name:32} {value:>16.6} {}", spec::unit_of(name));
    }
    let samples: Vec<String> =
        outcome.samples.iter().map(|(k, n)| format!("\"{k}\":{n}")).collect();
    println!("samples {{{}}}", samples.join(","));
    println!("{}", report::result_line(outcome));
}

fn main() -> ExitCode {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let command = match argv.first() {
        Some(first) if !first.starts_with("--") => argv.remove(0),
        _ => String::new(),
    };
    let args = Args(argv);
    let done = match command.as_str() {
        "" => one(&args),
        "round" => round(&args),
        "run" => report::run(&args),
        "selfcheck" => report::selfcheck(),
        "diff" => report::diff(&args),
        other => Err(format!("unknown command {other}; see README.md").into()),
    };
    match done {
        Ok(code) => code,
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::FAILURE
        }
    }
}
