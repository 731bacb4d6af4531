//! The A/A check: two sets of runs of the *same* build, interleaved
//! ABAB, compared exactly the way a later change will be compared with
//! its parent. If the same code does not agree with itself within a
//! metric's bound, the bound (or the metric) is wrong.

use crate::metrics::{EndToEnd, END_TO_END};
use crate::stats::{iqr_share, median};
use std::path::Path;
use std::process::Command;

/// The value of `name` in a run's last line
/// (`…"name":{"value":1.25,"unit":"s"}…`).
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let needle = format!("\"{name}\":{{\"value\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// A top-level count (`"attempted":7,`) of a run's last line.
pub fn count_value(line: &str, name: &str) -> Option<u64> {
    let needle = format!("\"{name}\":");
    let rest = &line[line.find(&needle)? + needle.len()..];
    rest[..rest.find(',')?].parse().ok()
}

/// By how much of set A's median set B's median is *worse* (negative
/// when it is better).
pub fn worsening(m: &EndToEnd, a: f64, b: f64) -> f64 {
    if m.higher_is_better {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

/// What every run of the check shares: this binary, the `sss` it drives,
/// the output directory and the run length.
pub struct Runner<'a> {
    pub exe: &'a Path,
    pub sss: &'a Path,
    pub out_dir: &'a Path,
    pub seconds: u64,
}

impl Runner<'_> {
    /// One untraced run in a child process; its result line.
    fn one_run(&self, workload: &str, seed: u64) -> Result<String, String> {
        let output = Command::new(self.exe)
            .args(["--workload", workload, "--trace", "0"])
            .args(["--seconds", &self.seconds.to_string()])
            .args(["--seed", &seed.to_string()])
            .arg("--sss")
            .arg(self.sss)
            .arg("--out")
            .arg(self.out_dir)
            .output()
            .map_err(|e| format!("spawn {}: {e}", self.exe.display()))?;
        Self::result_line(workload, seed, &output)
    }

    fn result_line(
        workload: &str,
        seed: u64,
        output: &std::process::Output,
    ) -> Result<String, String> {
        if !output.status.success() {
            return Err(format!(
                "{workload} seed {seed} exited {}: {}",
                output.status,
                String::from_utf8_lossy(&output.stderr)
            ));
        }
        let stdout = String::from_utf8_lossy(&output.stdout);
        let last = stdout.lines().last().unwrap_or("").to_string();
        if !last.contains("\"correct\":true") || !last.contains("\"failed\":0,") {
            return Err(format!("{workload} seed {seed} was not correct: {last}"));
        }
        Ok(last)
    }
}

/// Run the check; `Ok(false)` when any difference exceeds its bound.
pub fn check(
    runner: &Runner,
    workloads: &[&str],
    runs: usize,
    first_seed: u64,
) -> Result<bool, String> {
    if runs < 5 {
        return Err("--aa needs at least 5 runs per set".to_string());
    }
    println!(
        "# A/A check: {runs} runs per set, {} s, seeds {first_seed}..",
        runner.seconds
    );
    println!();
    println!("host: {}", crate::procfs::host_line());
    let mut agree = true;
    for workload in workloads {
        // values[set][metric][run]
        let mut values = [
            vec![Vec::with_capacity(runs); END_TO_END.len()],
            vec![Vec::with_capacity(runs); END_TO_END.len()],
        ];
        let mut attempted = Vec::new();
        for i in 0..runs {
            for set in &mut values {
                // Both sets use the same seeds, one after the other.
                let line = runner.one_run(workload, first_seed + i as u64)?;
                for (m, column) in END_TO_END.iter().zip(set.iter_mut()) {
                    column.push(
                        metric_value(&line, m.name)
                            .ok_or_else(|| format!("{} missing in {line}", m.name))?,
                    );
                }
                attempted.push(count_value(&line, "attempted"));
            }
        }
        println!();
        println!("## {workload}");
        println!();
        println!("| metric | unit | median A | IQR/median A | median B | IQR/median B | B worse by | bound | |");
        println!("|---|---|---|---|---|---|---|---|---|");
        for (i, m) in END_TO_END.iter().enumerate() {
            let (a, b) = (&values[0][i], &values[1][i]);
            let worse = worsening(m, median(a), median(b));
            let (spread_a, spread_b) = (iqr_share(a), iqr_share(b));
            let verdict = if worse.abs() > m.bound {
                agree = false;
                "DISAGREE"
            } else if spread_a.max(spread_b) > m.bound && m.name != "setup_s" {
                agree = false;
                "SPREAD > bound"
            } else if worse.abs() > m.bound / 2.0 {
                "over half the bound"
            } else if spread_a.max(spread_b) > m.bound / 3.0 && m.name != "setup_s" {
                "spread over a third of the bound"
            } else {
                "ok"
            };
            println!(
                "| {} | {} | {:.6} | {:.4} | {:.6} | {:.4} | {:+.4} | {} | {verdict} |",
                m.name,
                m.unit,
                median(a),
                spread_a,
                median(b),
                spread_b,
                worse,
                m.bound
            );
        }
        let same = attempted.windows(2).all(|w| w[0] == w[1]);
        println!();
        println!(
            "ops_attempted identical across all {} runs: {same} ({:?})",
            attempted.len(),
            attempted[0]
        );
        agree &= same;
    }
    println!();
    println!(
        "verdict: {}",
        if agree {
            "the two sets agree within every bound"
        } else {
            "DISAGREEMENT"
        }
    );
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_metrics_out_of_a_result_line() {
        let line = "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\
                    \"setup_s\":{\"value\":1.25,\"unit\":\"s\"},\
                    \"query_p50_us\":{\"value\":80.5,\"unit\":\"us\"}}}";
        assert_eq!(metric_value(line, "setup_s"), Some(1.25));
        assert_eq!(metric_value(line, "query_p50_us"), Some(80.5));
        assert_eq!(metric_value(line, "query_p90_us"), None);
        assert_eq!(count_value(line, "attempted"), Some(7));
        assert_eq!(count_value(line, "failed"), Some(0));
    }

    #[test]
    fn worsening_follows_the_direction() {
        let lower = END_TO_END
            .iter()
            .find(|m| m.name == "query_p50_us")
            .unwrap();
        let higher = END_TO_END
            .iter()
            .find(|m| m.name == "ingest_tuples_per_s")
            .unwrap();
        assert!((worsening(lower, 100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((worsening(lower, 100.0, 90.0) + 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!((worsening(higher, 100.0, 110.0) + 0.1).abs() < 1e-12);
    }
}
