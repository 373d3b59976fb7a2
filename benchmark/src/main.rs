//! `odyssey-benchmark`: the wall-clock, layered benchmark of the Space
//! Odyssey reproduction. See `README.md` next to this crate for what it
//! measures and why, and `../BENCHMARK.json` for the declared contract.

mod canary;
mod compare;
mod data;
mod ops;
mod probes;
mod run;
mod spec;
mod stats;
mod trace;
mod workloads;

use run::RunArgs;
use spec::{WorkloadDecl, NOMINAL_SECONDS, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage:
  odyssey-benchmark --workload <name> --seed <n> [--seconds <s>] [--trace <0|1>]
                    [--quick] [--store-base <dir>] [--out <results.jsonl>]
  odyssey-benchmark compare <a.jsonl> <b.jsonl> [--spec <BENCHMARK.json>]
  odyssey-benchmark spec        (prints the contents of BENCHMARK.json)";

/// The crate's own directory: stores, traces and result sets live under it
/// unless the command line says otherwise.
fn crate_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn value_of<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, String> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|v| Some(v.as_str()))
            .ok_or(format!("{flag} needs a value")),
    }
}

fn number(args: &[String], flag: &str, default: Option<u64>) -> Result<u64, String> {
    match value_of(args, flag)? {
        Some(v) => v
            .parse()
            .map_err(|_| format!("{flag}: '{v}' is not a whole number")),
        None => default.ok_or(format!("{flag} is required")),
    }
}

fn parse_run(args: &[String]) -> Result<(RunArgs, Option<PathBuf>), String> {
    let name = value_of(args, "--workload")?.ok_or("--workload is required")?;
    let workload = WorkloadDecl::by_name(name).ok_or_else(|| {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload '{name}' (known: {})", known.join(", "))
    })?;
    let seconds = number(args, "--seconds", Some(NOMINAL_SECONDS))?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be between 1 and 60".into());
    }
    let trace = match number(args, "--trace", Some(0))? {
        0 => false,
        1 => true,
        _ => return Err("--trace must be 0 or 1".into()),
    };
    // Stores go to tmpfs, where a flush is a system call without a device
    // wait, and fall back to the crate's own directory where there is none.
    let store_bases = match value_of(args, "--store-base")? {
        Some(base) => vec![PathBuf::from(base)],
        None => vec![PathBuf::from("/dev/shm"), crate_dir().join(".stores")],
    };
    Ok((
        RunArgs {
            workload,
            seed: number(args, "--seed", None)?,
            seconds,
            trace,
            quick: args.iter().any(|a| a == "--quick"),
            store_bases,
            results_dir: crate_dir().join("results"),
        },
        value_of(args, "--out")?.map(PathBuf::from),
    ))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("spec") {
        print!("{}", spec::benchmark_json());
        return ExitCode::SUCCESS;
    }
    if args.first().map(String::as_str) == Some("compare") {
        let (Some(a), Some(b)) = (args.get(1), args.get(2)) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        let spec = match value_of(&args, "--spec") {
            Ok(spec) => spec.map_or_else(|| crate_dir().join("../BENCHMARK.json"), PathBuf::from),
            Err(e) => {
                eprintln!("{e}\n{USAGE}");
                return ExitCode::from(2);
            }
        };
        return match compare::run(Path::new(a), Path::new(b), &spec) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let (run_args, out) = match parse_run(&args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match run::run(&run_args, started) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark run failed: {e}");
            return ExitCode::from(1);
        }
    };
    if let Some(out) = out {
        if let Err(e) = run::append_result(&out, &run_args, &report) {
            eprintln!("cannot append to {}: {e}", out.display());
            return ExitCode::from(1);
        }
    }
    // The contract's last line of standard output.
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
