//! `ledger` — this repository's benchmark. See `ledger/README.md`.
//!
//! ```text
//! ledger --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]
//! ledger --aa <n> [--workload <name>] [--seconds <s>] [--seed <first>]
//! ```
//!
//! A run prints every metric by name with its unit and ends with one JSON
//! line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.

mod aa;
mod input;
mod layers;
mod metrics;
mod procfs;
mod run;
mod stats;
mod sut;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;

/// `--seconds` when the caller names none: `run_seconds` of
/// `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 16;

/// The value after `--name`, if the flag is present.
fn value_of(args: &[String], name: &str) -> Option<String> {
    let at = args.iter().position(|a| a == name)?;
    args.get(at + 1).cloned()
}

fn parsed<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match value_of(args, name) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("{name} {v:?}: not a number")),
    }
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    // `run.sh` builds `sss` into the same directory as this binary.
    let sss = value_of(&args, "--sss").map_or_else(|| exe.with_file_name("sss"), PathBuf::from);
    let out_dir =
        value_of(&args, "--out").map_or_else(|| PathBuf::from("ledger/out"), PathBuf::from);
    let seconds = parsed(&args, "--seconds", DEFAULT_SECONDS)?;
    let seed = parsed(&args, "--seed", 1u64)?;
    let workload = value_of(&args, "--workload");

    if let Some(runs) = value_of(&args, "--aa") {
        let runs: usize = runs.parse().map_err(|_| "--aa: not a number".to_string())?;
        let workloads: Vec<&str> = match &workload {
            Some(w) => vec![w.as_str()],
            None => metrics::WORKLOADS.to_vec(),
        };
        let runner = aa::Runner {
            exe: &exe,
            sss: &sss,
            out_dir: &out_dir,
            seconds,
        };
        return aa::check(&runner, &workloads, runs, seed);
    }

    let opts = run::Options {
        workload: workload.ok_or("usage: ledger --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--smoke] | ledger --aa <n>")?,
        seed,
        seconds,
        trace: parsed(&args, "--trace", 0u8)? != 0,
        smoke: args.iter().any(|a| a == "--smoke"),
        sss,
        out_dir,
    };
    let outcome = run::run(&opts)?;
    println!("{}", outcome.json());
    // An incorrect answer is a result, not a crash: the line above says
    // so and the exit code stays 0.
    Ok(true)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("ledger: {e}");
            ExitCode::from(2)
        }
    }
}
