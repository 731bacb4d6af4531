//! # sss-bench — the experiment harness
//!
//! One binary per figure of the paper's evaluation (Section VII), plus the
//! speed-up table behind the §I / §VII-E headline claim:
//!
//! | Binary | Paper exhibit | What it prints |
//! |---|---|---|
//! | `fig1` | Figure 1 | size-of-join variance decomposition vs skew (analytic) |
//! | `fig2` | Figure 2 | self-join variance decomposition vs skew (analytic) |
//! | `fig3` | Figure 3 | size-of-join relative error vs skew, Bernoulli p sweep |
//! | `fig4` | Figure 4 | self-join relative error vs skew, Bernoulli p sweep |
//! | `fig5` | Figure 5 | size-of-join error vs WR sample fraction |
//! | `fig6` | Figure 6 | self-join error vs WR sample fraction |
//! | `fig7` | Figure 7 | size-of-join error vs WOR scan rate (mini TPC-H) |
//! | `fig8` | Figure 8 | self-join error vs WOR scan rate (mini TPC-H) |
//! | `speedup` | §VII-E table | sketch-update speed-up vs shedding probability |
//!
//! Every binary prints a CSV series (header first) so results can be
//! plotted directly, and accepts `--key=value` overrides for the workload
//! parameters (see each binary's `--help`). Defaults are scaled for a
//! laptop run; EXPERIMENTS.md records both the defaults used and the
//! paper-scale settings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use std::fmt::Display;

/// Parse `--name=value` from the process arguments, falling back to
/// `default`. Prints and exits on `--help`.
pub fn arg<T: std::str::FromStr + Display + Copy>(name: &str, default: T) -> T {
    let prefix = format!("--{name}=");
    for a in std::env::args() {
        if let Some(v) = a.strip_prefix(&prefix) {
            match v.parse() {
                Ok(parsed) => return parsed,
                Err(_) => {
                    eprintln!("invalid value for --{name}: {v} (using default {default})");
                    return default;
                }
            }
        }
    }
    default
}

/// Print a standard experiment banner (goes to stderr so stdout stays a
/// clean CSV).
pub fn banner(figure: &str, description: &str, params: &[(&str, String)]) {
    eprintln!("# {figure}: {description}");
    for (k, v) in params {
        eprintln!("#   {k} = {v}");
    }
}

/// Run `f` over `tuples` tuples and return the wall-clock rate in millions
/// of tuples per second.
pub fn mtps(tuples: usize, f: impl FnOnce()) -> f64 {
    let start = std::time::Instant::now();
    f();
    tuples as f64 / start.elapsed().as_secs_f64() / 1e6
}

/// Mean of the absolute relative errors of `estimates` against `truth`.
pub fn mean_relative_error(estimates: &[f64], truth: f64) -> f64 {
    if estimates.is_empty() || truth == 0.0 {
        return f64::NAN;
    }
    estimates
        .iter()
        .map(|e| ((e - truth) / truth).abs())
        .sum::<f64>()
        / estimates.len() as f64
}

/// The skew grid used by the synthetic experiments (paper: 0 to 5).
pub fn skew_grid(step: f64) -> Vec<f64> {
    let mut v = Vec::new();
    let mut z = 0.0f64;
    while z <= 5.0 + 1e-9 {
        v.push((z * 100.0).round() / 100.0);
        z += step;
    }
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_relative_error_basics() {
        assert!((mean_relative_error(&[110.0, 90.0], 100.0) - 0.1).abs() < 1e-12);
        assert!(mean_relative_error(&[], 100.0).is_nan());
        assert!(mean_relative_error(&[1.0], 0.0).is_nan());
    }

    #[test]
    fn skew_grid_covers_zero_to_five() {
        let g = skew_grid(0.5);
        assert_eq!(g.first(), Some(&0.0));
        assert_eq!(g.last(), Some(&5.0));
        assert_eq!(g.len(), 11);
    }

    #[test]
    fn arg_returns_default_when_absent() {
        assert_eq!(arg("definitely-not-passed", 42u64), 42);
        assert_eq!(arg("also-not-passed", 0.5f64), 0.5);
    }
}
