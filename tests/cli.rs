//! End-to-end tests of the `sss` command-line tool.

use sketch_sampled_streams::core::wire::Head;
use sketch_sampled_streams::datagen::ZipfGenerator;
use std::io::Write;
use std::process::Command;

fn write_keys(path: &std::path::Path, keys: impl IntoIterator<Item = u64>) {
    let mut f = std::fs::File::create(path).unwrap();
    for k in keys {
        writeln!(f, "{k}").unwrap();
    }
}

fn sss() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sss"))
}

#[test]
fn selfjoin_with_exact_reports_error() {
    let dir = std::env::temp_dir().join("sss-cli-test-selfjoin");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..60_000u64).map(|i| i % 300));
    let out = sss()
        .args([
            "selfjoin",
            file.to_str().unwrap(),
            "--p=0.5",
            "--exact",
            "--seed=7",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("tuples     60000"), "stdout: {stdout}");
    // The digits of this file and seed under the counter coins (PR 26):
    // a change to the sampler's draws shows here.
    assert!(stdout.contains("sketched   30022"), "stdout: {stdout}");
    assert!(
        stdout.contains("estimate   12014708.00"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("exact      12000000.00"),
        "stdout: {stdout}"
    );
    // The reported relative error should be small at p = 0.5 / 5000 buckets.
    let err_line = stdout.lines().find(|l| l.starts_with("rel_error")).unwrap();
    let pct: f64 = err_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    assert!(pct < 10.0, "reported error {pct}%");
}

#[test]
fn join_command_runs() {
    let dir = std::env::temp_dir().join("sss-cli-test-join");
    std::fs::create_dir_all(&dir).unwrap();
    let f = dir.join("f.txt");
    let g = dir.join("g.txt");
    write_keys(&f, (0..20_000u64).map(|i| i % 200));
    write_keys(&g, (0..30_000u64).map(|i| i % 300));
    let out = sss()
        .args(["join", f.to_str().unwrap(), g.to_str().unwrap(), "--exact"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Exact join: 200 overlapping keys × 100 × 100 = 2,000,000.
    assert!(stdout.contains("exact      2000000.00"), "stdout: {stdout}");

    // Sampled on both sides: the counter-coin digits (PR 26).
    let out = sss()
        .args(["join", f.to_str().unwrap(), g.to_str().unwrap()])
        .args(["--p=0.5", "--q=0.25", "--seed=5"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("sketched   10062 + 7591"),
        "stdout: {stdout}"
    );
    assert!(stdout.contains("estimate   2050056.00"), "stdout: {stdout}");
}

#[test]
fn confidence_flag_prints_both_intervals() {
    let dir = std::env::temp_dir().join("sss-cli-test-confidence");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..60_000u64).map(|i| i % 300));
    let out = sss()
        .args([
            "selfjoin",
            file.to_str().unwrap(),
            "--p=0.5",
            "--seed=7",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The point estimate is unchanged by the flag, and each bound gets an
    // interval line centered on it.
    let est_line = stdout.lines().find(|l| l.starts_with("estimate")).unwrap();
    let est = est_line.split_whitespace().nth(1).unwrap();
    let intervals: Vec<&str> = stdout
        .lines()
        .filter(|l| l.starts_with("interval"))
        .collect();
    assert_eq!(intervals.len(), 2, "stdout: {stdout}");
    assert!(intervals[0].contains("[chebyshev 95%]"), "stdout: {stdout}");
    assert!(intervals[1].contains("[clt 95%]"), "stdout: {stdout}");
    for line in &intervals {
        assert!(line.contains(est), "interval not centered: {line}");
        assert!(line.contains('±'), "no half-width: {line}");
    }

    // A Chebyshev interval is never tighter than the CLT interval at the
    // same level.
    let half = |line: &str| -> f64 {
        line.split('±')
            .nth(1)
            .unwrap()
            .split_whitespace()
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    assert!(half(intervals[0]) >= half(intervals[1]), "stdout: {stdout}");

    // Out-of-range and malformed levels are usage errors.
    for bad in ["--confidence=1.5", "--confidence=0", "--confidence=maybe"] {
        let out = sss()
            .args(["selfjoin", file.to_str().unwrap(), bad])
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{bad} should be a usage error");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("--confidence"),
            "{bad}: stderr should explain the flag"
        );
    }
}

#[test]
fn bad_usage_and_bad_files_fail_cleanly() {
    let out = sss().output().unwrap();
    assert_eq!(out.status.code(), Some(2), "no args → usage");
    let out = sss().args(["frobnicate"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2), "unknown command → usage");
    let out = sss()
        .args(["selfjoin", "/definitely/not/a/file"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "missing file → failure");
    assert!(String::from_utf8_lossy(&out.stderr).contains("cannot read"));

    // Non-numeric content is rejected with a location.
    let dir = std::env::temp_dir().join("sss-cli-test-bad");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("bad.txt");
    std::fs::write(&file, "1 2 three 4").unwrap();
    let out = sss()
        .args(["selfjoin", file.to_str().unwrap()])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("three"));
}

#[test]
fn topk_reports_heavy_keys_with_recall() {
    let dir = std::env::temp_dir().join("sss-cli-test-topk");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // Key k (0..10) appears 2^(9-k)·50 times: a sharply skewed stream.
    write_keys(
        &file,
        (0..10u64).flat_map(|k| std::iter::repeat(k).take((1usize << (9 - k)) * 50)),
    );
    let out = sss()
        .args([
            "topk",
            file.to_str().unwrap(),
            "--k=3",
            "--p=0.5",
            "--seed=7",
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // The heaviest key leads the ranking with its exact count beside it.
    let top1 = stdout.lines().find(|l| l.starts_with("top1")).unwrap();
    assert!(top1.contains("key 0:"), "stdout: {stdout}");
    assert!(stdout.contains("(exact 25600)"), "stdout: {stdout}");
    assert!(stdout.contains("[clt 95%]"), "stdout: {stdout}");
    // On a 2× separated spectrum the sampled top-3 is exact.
    assert!(
        stdout.contains("recall     1.0000 (3/3 of the exact top-3)"),
        "stdout: {stdout}"
    );
}

/// `topk`'s and `multi`'s `top*` lines of one run each over `file`.
fn top_lines(cmd: &str, file: &std::path::Path, flags: &[&str]) -> Vec<String> {
    let out = sss().arg(cmd).arg(file).args(flags).output().unwrap();
    assert!(
        out.status.success(),
        "{cmd} stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let lines = stdout.lines().filter(|l| l.starts_with("top"));
    lines.map(str::to_string).collect()
}

/// A seeded Zipf key file, `tuples` long over 10⁵ keys.
fn zipf_file(name: &str, skew: f64, tuples: usize) -> std::path::PathBuf {
    use rand::SeedableRng;
    let dir = std::env::temp_dir().join(name);
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    write_keys(
        &file,
        ZipfGenerator::new(100_000, skew).relation(tuples, &mut rng),
    );
    file
}

/// `topk` answers through the composite `multi` answers through: at the
/// composite's 256 candidates, the same `--p` and the same `--seed`, its
/// ranked keys and estimates are `multi`'s, line for line.
#[test]
fn topk_at_the_composites_capacity_prints_multis_top_lines() {
    let file = zipf_file("sss-cli-test-topk-is-multi", 1.1, 50_000);
    for p in ["--p=1", "--p=0.1"] {
        let topk = top_lines("topk", &file, &[p, "--seed=3", "--k=10", "--capacity=256"]);
        let multi = top_lines("multi", &file, &[p, "--seed=3", "--k=10"]);
        assert_eq!(topk.len(), 10, "{p}: {topk:?}");
        assert_eq!(topk, multi, "{p}");
    }
}

/// Top-10 recall of `sss topk --exact` on a seeded Zipf(0.8) file — the
/// flattest skew, where the tenth and eleventh keys lie closest — summed
/// over five seeds at p = 1 and p = 0.1. The floors are the Misra–Gries
/// front's readings; the Count-Sketch tracker it replaced read 46 and 45.
#[test]
fn topk_recall_on_a_zipf_file_holds_at_full_and_tenth_rates() {
    let file = zipf_file("sss-cli-test-topk-recall", 0.8, 200_000);
    for (p, floor) in [("--p=1", 49), ("--p=0.1", 45)] {
        let hits: usize = (1..=5)
            .map(|seed| {
                let seed = format!("--seed={seed}");
                let out = sss()
                    .arg("topk")
                    .arg(&file)
                    .args([p, &seed, "--exact"])
                    .output()
                    .unwrap();
                let stdout = String::from_utf8_lossy(&out.stdout);
                let recall = stdout.lines().find(|l| l.starts_with("recall")).unwrap();
                let (hits, _) = recall.split_once('(').unwrap().1.split_once('/').unwrap();
                hits.parse::<usize>().unwrap()
            })
            .sum();
        assert!(
            hits >= floor,
            "{p}: {hits} of 50 top-10 keys, below {floor}"
        );
    }
}

/// A reader that closes the pipe after one line (`sss topk … | head -1`)
/// ends the command quietly: exit 0, nothing on stderr. The answer is far
/// longer than a pipe buffer, so the command is still writing when the
/// pipe closes.
#[test]
fn a_closed_stdout_ends_the_command_quietly() {
    use std::io::BufRead;
    let dir = std::env::temp_dir().join("sss-cli-test-closed-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..20_000u64).map(|i| i % 5_000));
    let mut child = sss()
        .args(["topk", file.to_str().unwrap(), "--k=5000"])
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut first = String::new();
    std::io::BufReader::new(child.stdout.take().unwrap())
        .read_line(&mut first)
        .unwrap();
    assert!(first.starts_with("tuples"), "{first:?}");
    let out = child.wait_with_output().unwrap();
    assert!(out.status.success(), "{:?}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stderr), "");
}

#[test]
fn distinct_estimates_cardinality() {
    let dir = std::env::temp_dir().join("sss-cli-test-distinct");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // 5000 distinct keys, four occurrences each.
    write_keys(&file, (0..20_000u64).map(|i| i % 5000));
    let out = sss()
        .args([
            "distinct",
            file.to_str().unwrap(),
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("exact      5000.00"), "stdout: {stdout}");
    assert!(stdout.contains("[chebyshev 95%]"), "stdout: {stdout}");
    let err_line = stdout.lines().find(|l| l.starts_with("rel_error")).unwrap();
    let pct: f64 = err_line
        .split_whitespace()
        .nth(1)
        .unwrap()
        .trim_end_matches('%')
        .parse()
        .unwrap();
    // Precision 12 → ±1.6% standard error; 10% is many sigmas out.
    assert!(pct < 10.0, "reported error {pct}%");
}

#[test]
fn quantiles_report_rank_envelopes() {
    let dir = std::env::temp_dir().join("sss-cli-test-quantiles");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100_000u64);
    let out = sss()
        .args(["quantiles", file.to_str().unwrap(), "--exact", "--seed=5"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // One line per default quantile, each with an envelope and the truth.
    for q in ["q0.5", "q0.95", "q0.99"] {
        let line = stdout.lines().find(|l| l.starts_with(q)).unwrap();
        assert!(line.contains('∈') && line.contains("(exact "), "{line}");
    }
    // The median of 0..100_000 is ~50_000; rank error 2.296/200^0.9433
    // ≈ 1.6% → the estimate must land within a few thousand.
    let median: f64 = stdout
        .lines()
        .find(|l| l.starts_with("q0.5"))
        .unwrap()
        .split_whitespace()
        .nth(1)
        .unwrap()
        .parse()
        .unwrap();
    assert!((median - 50_000.0).abs() < 5_000.0, "median {median}");
    // `--at=` narrows the report to the one requested rank.
    let out = sss()
        .args(["quantiles", file.to_str().unwrap(), "--at=0.25"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("q0.25"), "stdout: {stdout}");
    assert!(!stdout.contains("q0.95"), "stdout: {stdout}");
}

#[test]
fn multi_answers_all_families_in_one_pass() {
    let dir = std::env::temp_dir().join("sss-cli-test-multi");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    // 1000 background keys × 20, plus key 7 another 20_000 times.
    write_keys(
        &file,
        (0..20_000u64)
            .map(|i| i % 1000)
            .chain(std::iter::repeat(7).take(20_000)),
    );
    let out = sss()
        .args([
            "multi",
            file.to_str().unwrap(),
            "--p=0.5",
            "--k=1",
            "--seed=3",
            "--exact",
            "--confidence=0.95",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Roughly half the stream was sketched, yet every family answers.
    for prefix in ["self_join", "distinct", "median", "p99", "top1"] {
        assert!(
            stdout.lines().any(|l| l.starts_with(prefix)),
            "missing {prefix}: {stdout}"
        );
    }
    assert!(stdout.contains("[chebyshev 95%]"), "stdout: {stdout}");
    let top1 = stdout.lines().find(|l| l.starts_with("top1")).unwrap();
    assert!(top1.contains("key 7:"), "stdout: {stdout}");
    assert!(top1.contains("(exact 20020)"), "stdout: {stdout}");
}

/// `save --kind=multi` in two processes, `merge-snapshots` in a third,
/// `load` in a fourth: the composite's snapshot body crosses process
/// boundaries, the merged self-join is the one-pass one to the digit, and
/// the key that is a fifth of the tuples leads the loaded top-k.
#[test]
fn multi_snapshots_save_merge_and_load_across_processes() {
    let dir = std::env::temp_dir().join("sss-cli-test-multi-snapshots");
    std::fs::create_dir_all(&dir).unwrap();
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let skewed = |i: u64| if i % 5 == 0 { 4242 } else { i % 900 };
    let halves = [
        (0..6_000u64, "a.txt", "a.sss"),
        (6_000..12_000, "b.txt", "b.sss"),
    ];
    for (range, file, snapshot) in halves {
        write_keys(&dir.join(file), range.map(skewed));
        let out = sss()
            .args(["save", &path(file), &path(snapshot), "--kind=multi"])
            .args(["--width=512", "--seed=9"])
            .output()
            .unwrap();
        assert!(out.status.success());
        assert!(String::from_utf8_lossy(&out.stdout).contains("kind        multi"));
    }
    let merged = sss()
        .args(["merge-snapshots", &path("a.sss"), &path("b.sss")])
        .arg(format!("--out={}", path("ab.sss")))
        .output()
        .unwrap();
    assert!(merged.status.success());
    let loaded = sss().args(["load", &path("ab.sss")]).output().unwrap();
    let loaded = String::from_utf8_lossy(&loaded.stdout).to_string();
    let top1 = loaded.lines().find(|l| l.starts_with("top1")).unwrap();
    assert!(top1.contains("key 4242:"), "{loaded}");

    write_keys(&dir.join("ab.txt"), (0..12_000u64).map(skewed));
    let direct = sss()
        .args(["selfjoin", &path("ab.txt"), "--width=512", "--seed=9"])
        .output()
        .unwrap();
    let direct = String::from_utf8_lossy(&direct.stdout).to_string();
    let digits = |text: &str, label: &str| {
        let line = text.lines().find(|l| l.starts_with(label)).unwrap();
        line.split_whitespace().nth(1).unwrap().to_string()
    };
    assert_eq!(digits(&loaded, "self_join"), digits(&direct, "estimate"));

    // A join snapshot and a multi snapshot of the same seed do not mix.
    let join = sss()
        .args(["save", &path("a.txt"), &path("a-join.sss")])
        .args(["--width=512", "--seed=9"])
        .output()
        .unwrap();
    assert!(join.status.success());
    let mixed = sss()
        .args(["merge-snapshots", &path("a.sss"), &path("a-join.sss")])
        .output()
        .unwrap();
    assert_eq!(mixed.status.code(), Some(1));

    // A snapshot in an older format is refused: `load` and
    // `merge-snapshots` say which format they found and exit 1, on either
    // side of a merge. A binary head naming format 3 is refused by its
    // format; a file of the JSON generation (format 3 and before) by its
    // first byte.
    let current = std::fs::read(path("a.sss")).unwrap();
    let (head, body) = Head::open(&current).unwrap();
    assert_eq!(head.format, 4, "multi snapshots are format 4");
    let v3 = Head {
        format: 3,
        ..head.clone()
    };
    std::fs::write(path("a-v3.sss"), v3.seal(body)).unwrap();
    std::fs::write(
        path("a-json.sss"),
        format!(
            "{{\"kind\":\"multi\",\"format\":3,\"fingerprint\":{},\"body\":{{\"join\":{{}}}}}}",
            v3.fingerprint
        ),
    )
    .unwrap();
    for (old, says) in [
        ("a-v3.sss", ["multi v3", "multi v4"]),
        ("a-json.sss", ["JSON", "binary"]),
    ] {
        let refusals = [
            vec!["load".to_string(), path(old)],
            vec!["merge-snapshots".to_string(), path(old), path("b.sss")],
            vec!["merge-snapshots".to_string(), path("b.sss"), path(old)],
        ];
        for args in refusals {
            let out = sss().args(&args).output().unwrap();
            assert_eq!(out.status.code(), Some(1), "{args:?}");
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert!(
                stderr.starts_with("error:") && says.iter().all(|s| stderr.contains(s)),
                "{args:?}: {stderr}"
            );
        }
    }

    // A truncated snapshot is refused as well, not a panic; and so is a
    // head that names another configuration than its body, before `load`
    // prints a fingerprint the body does not have.
    let other = Head {
        fingerprint: head.fingerprint ^ 1,
        ..head
    };
    std::fs::write(path("a-cut.sss"), &current[..100]).unwrap();
    std::fs::write(path("a-other.sss"), other.seal(body)).unwrap();
    for bad in ["a-cut.sss", "a-other.sss"] {
        let out = sss().args(["load", &path(bad)]).output().unwrap();
        assert_eq!(out.status.code(), Some(1), "{bad}");
        assert!(out.stdout.is_empty(), "{bad}");
        assert!(String::from_utf8_lossy(&out.stderr).starts_with("error:"));
    }
}

#[test]
fn topk_rejects_p_zero_loudly() {
    let dir = std::env::temp_dir().join("sss-cli-test-topk-p0");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100u64);
    // p = 0 must be a loud runtime failure (nothing could ever be
    // sampled), not a silent all-zero answer.
    let out = sss()
        .args(["topk", file.to_str().unwrap(), "--p=0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1), "p = 0 → runtime failure");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("probability") && stderr.contains('0'),
        "stderr should name the bad probability: {stderr}"
    );
    // The join paths reject it identically.
    let out = sss()
        .args(["selfjoin", file.to_str().unwrap(), "--p=0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
}

/// Below p ≈ 1.1e-16, `1 − p` rounds to 1 in f64. A skip sampler that
/// took `ln(1 − p)` drew every gap as 0 and kept the whole stream; the
/// sampler keeps (almost surely) nothing at p = 1e-17.
#[test]
fn tiny_p_samples_instead_of_keeping_everything() {
    let dir = std::env::temp_dir().join("sss-cli-test-tiny-p");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..1_000u64);
    let out = sss()
        .args(["selfjoin", file.to_str().unwrap(), "--p=1e-17"])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let count = |label: &str| -> u64 {
        let line = stdout.lines().find(|l| l.starts_with(label)).unwrap();
        line.split_whitespace().nth(1).unwrap().parse().unwrap()
    };
    assert_eq!(count("tuples"), 1_000, "stdout: {stdout}");
    assert!(count("sketched") < count("tuples"), "stdout: {stdout}");
}

/// A flag that is present but does not parse is a usage error naming the
/// flag — not a silent fallback to the default (`--p=0,1` used to run
/// unsampled, `--shards=two` served two shards, `--at=x` meant 0.5).
#[test]
fn unparseable_flag_values_are_usage_errors() {
    let dir = std::env::temp_dir().join("sss-cli-test-bad-flags");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100u64);
    let file = file.to_str().unwrap();
    for (args, flag) in [
        (vec!["selfjoin", file, "--p=abc"], "--p"),
        (vec!["selfjoin", file, "--p=0,1"], "--p"),
        (vec!["selfjoin", file, "--width=5k"], "--width"),
        (vec!["quantiles", file, "--at=x"], "--at"),
        (vec!["serve", "--shards=two"], "--shards"),
        (vec!["serve", "--partition=hsah"], "--partition"),
    ] {
        let out = sss().args(&args).output().unwrap();
        assert_eq!(
            out.status.code(),
            Some(2),
            "{args:?} should be a usage error"
        );
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("error: {flag}=")),
            "{args:?}: stderr should name {flag}: {stderr}"
        );
    }
    // Absent flags still take their defaults.
    let out = sss().args(["quantiles", file]).output().unwrap();
    assert!(out.status.success());
    assert_eq!(
        String::from_utf8_lossy(&out.stdout)
            .matches("\nq0.")
            .count(),
        3
    );
}

/// `--p` on a command that samples nothing is a usage error naming the
/// flag: `save --p=0.1` used to write an unsampled sketch and exit 0, and
/// `serve --p=0.1` served at p = 1.
#[test]
fn p_on_a_command_that_samples_nothing_is_a_usage_error() {
    use std::process::Stdio;
    use std::time::{Duration, Instant};
    let dir = std::env::temp_dir().join("sss-cli-test-p-unused");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, 0..100u64);
    let (file, out) = (file.to_str().unwrap(), dir.join("out.sss"));
    let out = out.to_str().unwrap();
    for args in [
        vec!["save", file, out, "--p=0.1"],
        vec!["save", file, out, "--kind=multi", "--p=1"],
        vec!["load", out, "--p=0.1"],
        vec!["merge-snapshots", out, out, "--p=0.1"],
        vec!["bench-client", "127.0.0.1:1", "--p=0.1"],
        vec![
            "serve",
            "--ingest=127.0.0.1:0",
            "--query=127.0.0.1:0",
            "--p=0.1",
        ],
    ] {
        let mut child = sss()
            .args(&args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        // A server that took the flag would run until told to stop.
        let deadline = Instant::now() + Duration::from_secs(20);
        while child.try_wait().unwrap().is_none() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(10));
        }
        if child.try_wait().unwrap().is_none() {
            child.kill().unwrap();
            child.wait().unwrap();
            panic!("{args:?} kept running");
        }
        let done = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert_eq!(done.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(
            stderr.contains("error: --p"),
            "{args:?}: stderr should name --p: {stderr}"
        );
    }
}

/// The exact `sss serve` lines the ledger spawns still parse: the server
/// comes up, prints its banner, and drains on a client `shutdown`.
#[test]
fn serve_accepts_the_ledger_spawn_lines() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    for (shards, partition) in [
        ("--shards=1", "--partition=rr"),
        ("--shards=2", "--partition=hash"),
    ] {
        let mut child = sss()
            .args(["serve", "--ingest=127.0.0.1:0", "--query=127.0.0.1:0"])
            .args([
                shards,
                "--queue-depth=64",
                partition,
                "--seed=1",
                "--max-pending=0",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .unwrap();
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let mut query_addr = None;
        for line in lines.by_ref() {
            let line = line.unwrap();
            if let Some(addr) = line.strip_prefix("query") {
                query_addr = Some(addr.trim().to_string());
            }
            if line.starts_with("fingerprint") {
                break;
            }
        }
        let query_addr = query_addr.expect("banner carries the query address");
        sketch_sampled_streams::net::QueryClient::connect(query_addr.as_str())
            .unwrap()
            .shutdown()
            .unwrap();
        let rest: Vec<String> = lines.map(|l| l.unwrap()).collect();
        assert!(child.wait().unwrap().success(), "{shards} {partition}");
        assert!(
            rest.iter().any(|l| l.starts_with("tuples      0")),
            "{rest:?}"
        );
    }
}

/// FNV-1a, 64-bit.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The whole stdout of the three single-family commands and of `multi` at
/// `--p=0.5 --seed=7`, pinned as FNV-1a hashes. Each command draws its
/// summary's seeds and then its sampler's from one seeded RNG, so a change
/// to that order, to what the summary keeps or to what the command prints
/// moves a hash.
#[test]
fn sampled_family_commands_keep_their_golden_stdout() {
    let dir = std::env::temp_dir().join("sss-cli-test-golden-stdout");
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("keys.txt");
    write_keys(&file, (0..40_000u64).map(|i| i * i % 4099));
    let got: Vec<(&str, u64)> = ["topk", "distinct", "quantiles", "multi"]
        .into_iter()
        .map(|cmd| {
            let out = sss()
                .args([cmd, file.to_str().unwrap(), "--p=0.5", "--seed=7"])
                .output()
                .unwrap();
            assert!(
                out.status.success(),
                "{cmd} stderr: {}",
                String::from_utf8_lossy(&out.stderr)
            );
            (cmd, fnv1a(&out.stdout))
        })
        .collect();
    assert_eq!(
        got,
        [
            ("topk", 0x522440d574218ce2),
            ("distinct", 0x6afbf4cf6671fa82),
            ("quantiles", 0x2e70026c2ccfcfc8),
            ("multi", 0x1f4f097d1accfcb7),
        ],
        "{got:#x?}"
    );
}
