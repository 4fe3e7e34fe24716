//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a human-readable report (lines starting
//! with `#`) followed by one JSON result line. WAL files and the span
//! file go to `.perfbench_run/` under the current directory. Exits 1 when a
//! correctness check fails, 2 on bad arguments or a set-up error.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::workloads::{bulk_commit, point_commit, server_ledger, Args};

const USAGE: &str = "usage: perfbench --workload point-commit|bulk-commit|server-ledger \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 0.0,
        trace: false,
        out_dir: PathBuf::from(".perfbench_run"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !args.seconds.is_finite() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "point-commit" => point_commit(&args),
        "bulk-commit" => bulk_commit(&args),
        "server-ledger" => server_ledger(&args),
        other => Err(format!("unknown workload {other}\n{USAGE}")),
    };
    let mut out = match result {
        Ok(o) => o,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if out.attempted == 0 {
        out.correct = false;
        out.note("# no operation completed");
    }
    println!(
        "# workload {} seed {} seconds {} trace {}",
        args.workload, args.seed, args.seconds, args.trace as u8
    );
    for line in &out.notes {
        println!("{line}");
    }
    println!(
        "# error_rate {} ({} failed of {} attempted)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    );
    let catalog = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.result_json(catalog));
    if out.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
