//! `sss` — command-line join-size estimation over key files.
//!
//! Reads whitespace/newline-separated unsigned integer keys and estimates
//! the requested aggregate with an F-AGMS sketch over an (optional)
//! Bernoulli sample:
//!
//! ```text
//! sss selfjoin <file> [--p=0.1] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]
//! sss join <file_f> <file_g> [--p=0.1] [--q=0.1] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]
//! sss topk <file> [--k=10] [--p=0.1] [--capacity=4k] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]
//! sss distinct <file> [--p=0.1] [--precision=12] [--seed=1] [--exact] [--confidence=0.95]
//! sss quantiles <file> [--p=0.1] [--k=200] [--at=0.5] [--seed=1] [--exact]
//! sss multi <file> [--k=10] [--p=0.1] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]
//! sss save <file> <out.sss> [--kind=join|multi] [--depth=3] [--width=5000] [--seed=1]
//! sss load <snapshot.sss> [--confidence=0.95]
//! sss merge-snapshots <in1.sss> <in2.sss> [more...] [--out=merged.sss] [--confidence=0.95]
//! sss serve [--ingest=127.0.0.1:0] [--query=127.0.0.1:0] [--shards=2] [--snapshot=final.sss]
//! sss bench-client <host:port> [--connections=4] [--tuples=100000] [--check] [--shutdown]
//! ```
//!
//! `topk` reports the `k` heaviest keys of the (optionally
//! Bernoulli-sampled) stream, each with its `1/p`-corrected full-stream
//! frequency estimate. It answers through the composite `multi` and `serve`
//! answer through, with `--capacity` Misra–Gries candidates priced by the
//! F-AGMS join sketch, so at `--capacity=256` its lines are `multi`'s top-k
//! lines; memory stays O(capacity + depth·width) regardless of the file
//! size.
//!
//! `distinct` estimates the number of distinct keys with a HyperLogLog
//! (`2^precision` bytes), `quantiles` reports the median/p95/p99 (or a
//! single `--at=q`) from a KLL sketch with rank-error envelopes, and
//! `multi` answers *all four* query families — self-join, distinct,
//! quantiles, top-k — from **one pass** over one Bernoulli sample via a
//! `MultiSummary`, with the per-family sampling corrections applied on
//! the way out.
//!
//! With `--exact` the true aggregate is also computed (hash map over the
//! full data) and the relative error reported — useful for calibrating a
//! sketch configuration against a data sample before deploying it on the
//! full stream.
//!
//! With `--confidence=<level>` (a probability in `(0, 1)`) the typed
//! estimate's error bars are printed as `value ± half_width` at that
//! level — the distribution-free Chebyshev interval and the tighter CLT
//! interval, both centered on the same bit-identical point estimate.
//!
//! `save` sketches a key file into a **portable snapshot**: the F-AGMS
//! join sketch's versioned binary payload (kind + format + configuration
//! fingerprint head, then its state), or with `--kind=multi` the whole `MultiSummary`
//! that `serve` with the same `--depth/--width/--seed` runs. `load` reads
//! one back and answers the self-join query (a `multi` snapshot also its
//! distinct count and top keys); `merge-snapshots` combines snapshots
//! produced by *different processes* — the fingerprint check refuses
//! payloads built from different seeds/dimensions, so only like-configured
//! sketches merge — and by sketch linearity the merged estimate is
//! bit-identical to sketching the concatenated streams in one process.
//!
//! `serve` runs the network ingest service (binary batch protocol on the
//! ingest plane, line-delimited JSON on the query plane) until a query
//! client sends `{"cmd":"shutdown"}`; `bench-client` drives it with
//! concurrent deterministic load and can verify the served self-join
//! estimate against a locally recomputed exact answer (`--check`).

use std::io::Read;
use std::process::ExitCode;

use rand::rngs::StdRng;
use rand::SeedableRng;
use sketch_sampled_streams::core::sketch::{JoinSchema, JoinSketch};
use sketch_sampled_streams::core::{
    wire, JoinQuery, MultiSpec, MultiSummary, Portable, QuantileQuery, Sampled, SlimQuery, Summary,
};
use sketch_sampled_streams::exact::ExactAggregator;
use sketch_sampled_streams::net::{self, QueryClient, RunningServer, ServerConfig};
use sketch_sampled_streams::sketch::{HyperLogLog, KllSketch};
use sketch_sampled_streams::stream::runtime::RuntimeConfig;
use sketch_sampled_streams::stream::Partition;
use sketch_sampled_streams::{Error, Result};

/// `println!`, except that a closed stdout (`sss load x.sss | head -1`)
/// ends the command quietly with success: the reader has what it wanted.
/// Any other write error is reported, with exit status 1.
macro_rules! out {
    ($($arg:tt)*) => {{
        use std::io::Write as _;
        if let Err(e) = writeln!(std::io::stdout(), $($arg)*) {
            stdout_failed(e)
        }
    }};
}

fn stdout_failed(e: std::io::Error) -> ! {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        std::process::exit(0);
    }
    eprintln!("error: writing to stdout: {e}");
    std::process::exit(1)
}

/// The parsed value of `--name=<v>`, `None` when the flag is absent. A
/// flag that is present but does not parse is a usage error (exit 2,
/// stderr names the flag) — never a silent fallback to the default. Every
/// call happens before a command starts a thread or opens a socket, so
/// exiting here leaves nothing behind.
fn flag<T: std::str::FromStr>(args: &[String], name: &str) -> Option<T> {
    let prefix = format!("--{name}=");
    let raw = args.iter().find_map(|a| a.strip_prefix(&prefix))?;
    Some(raw.parse().unwrap_or_else(|_| bad_flag(name, raw)))
}

fn bad_flag(name: &str, raw: &str) -> ! {
    eprintln!("error: --{name}={raw}: not a valid value for --{name}");
    usage();
    std::process::exit(2)
}

fn arg_value<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> T {
    flag(args, name).unwrap_or(default)
}

fn has_flag(args: &[String], name: &str) -> bool {
    args.iter().any(|a| a == &format!("--{name}"))
}

fn read_keys(path: &str) -> Result<Vec<u64>> {
    let mut text = String::new();
    std::fs::File::open(path)
        .and_then(|mut f| f.read_to_string(&mut text))
        .map_err(|source| Error::Io {
            path: path.to_string(),
            source,
        })?;
    let mut keys = Vec::new();
    for (i, token) in text.split_whitespace().enumerate() {
        keys.push(token.parse::<u64>().map_err(|_| Error::Parse {
            path: path.to_string(),
            token_index: i + 1,
            token: token.to_string(),
        })?);
    }
    if keys.is_empty() {
        return Err(Error::NoKeys {
            path: path.to_string(),
        });
    }
    Ok(keys)
}

fn exact_self_join(keys: &[u64]) -> f64 {
    ExactAggregator::from_keys(keys.iter().copied()).self_join()
}

fn exact_join(f: &[u64], g: &[u64]) -> f64 {
    ExactAggregator::from_keys(f.iter().copied())
        .join(&ExactAggregator::from_keys(g.iter().copied()))
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  sss selfjoin <file> [--p=1.0] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]\n  sss join <file_f> <file_g> [--p=1.0] [--q=1.0] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]\n  sss topk <file> [--k=10] [--p=1.0] [--capacity=4k] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]\n  sss distinct <file> [--p=1.0] [--precision=12] [--seed=1] [--exact] [--confidence=0.95]\n  sss quantiles <file> [--p=1.0] [--k=200] [--at=0.5] [--seed=1] [--exact]\n  sss multi <file> [--k=10] [--p=1.0] [--depth=3] [--width=5000] [--seed=1] [--exact] [--confidence=0.95]\n  sss save <file> <out.sss> [--kind=join|multi] [--depth=3] [--width=5000] [--seed=1]\n  sss load <snapshot.sss> [--confidence=0.95]\n  sss merge-snapshots <in1.sss> <in2.sss> [more...] [--out=merged.sss] [--confidence=0.95]\n  sss serve [--ingest=127.0.0.1:0] [--query=127.0.0.1:0] [--shards=2] [--queue-depth=64] [--partition=rr|hash] [--depth=3] [--width=5000] [--seed=1] [--max-pending=0] [--snapshot=final.sss]\n  sss bench-client <host:port> [--connections=1] [--tuples=100000] [--batch=512] [--domain=10000] [--seed=7] [--query-addr=host:port] [--check] [--shutdown]"
    );
    ExitCode::from(2)
}

/// Print the typed estimate's two intervals at `level`, Chebyshev
/// (distribution-free) first, CLT (normal) second. Rendering goes
/// through `ConfidenceInterval::describe`, which says
/// `± ∞ (no error state)` for estimates with unknown variance instead
/// of printing a raw `inf`.
fn print_intervals(est: &sketch_sampled_streams::core::Estimate, level: f64) {
    out!(
        "interval   {} [chebyshev {:.0}%]",
        est.chebyshev(level)
            .expect("level validated in (0,1)")
            .describe(est.value),
        100.0 * level
    );
    out!(
        "interval   {} [clt {:.0}%]",
        est.clt(level)
            .expect("level validated in (0,1)")
            .describe(est.value),
        100.0 * level
    );
}

fn run_selfjoin(
    args: &[String],
    schema: &JoinSchema,
    p: f64,
    confidence: Option<f64>,
    rng: &mut StdRng,
) -> Result<()> {
    let path = &args[1];
    let keys = read_keys(path)?;
    let mut shed = Sampled::new(schema.sketch(), p, rng)?;
    for &k in &keys {
        shed.observe(k);
    }
    let estimate = shed.self_join_estimate();
    let est = estimate.value;
    out!("tuples     {}", keys.len());
    out!("sketched   {}", shed.kept());
    out!("estimate   {est:.2}");
    if let Some(level) = confidence {
        print_intervals(&estimate, level);
    }
    if has_flag(args, "exact") {
        let truth = exact_self_join(&keys);
        out!("exact      {truth:.2}");
        out!(
            "rel_error  {:.4}%",
            100.0 * (est - truth).abs() / truth.max(1.0)
        );
    }
    Ok(())
}

fn run_join(
    args: &[String],
    schema: &JoinSchema,
    p: f64,
    confidence: Option<f64>,
    rng: &mut StdRng,
) -> Result<()> {
    let (pf, pg) = (&args[1], &args[2]);
    let q: f64 = arg_value(args, "q", 1.0);
    let f_keys = read_keys(pf)?;
    let g_keys = read_keys(pg)?;
    let mut fs = Sampled::new(schema.sketch(), p, rng)?;
    let mut gs = Sampled::new(schema.sketch(), q, rng)?;
    for &k in &f_keys {
        fs.observe(k);
    }
    for &k in &g_keys {
        gs.observe(k);
    }
    let estimate = fs.size_of_join_estimate(&gs)?;
    let est = estimate.value;
    out!("tuples     {} ⋈ {}", f_keys.len(), g_keys.len());
    out!("sketched   {} + {}", fs.kept(), gs.kept());
    out!("estimate   {est:.2}");
    if let Some(level) = confidence {
        print_intervals(&estimate, level);
    }
    if has_flag(args, "exact") {
        let truth = exact_join(&f_keys, &g_keys);
        out!("exact      {truth:.2}");
        out!(
            "rel_error  {:.4}%",
            100.0 * (est - truth).abs() / truth.max(1.0)
        );
    }
    Ok(())
}

fn run_topk(
    args: &[String],
    schema: &JoinSchema,
    p: f64,
    confidence: Option<f64>,
    rng: &mut StdRng,
) -> Result<()> {
    let path = &args[1];
    let keys = read_keys(path)?;
    let k: usize = arg_value(args, "k", 10);
    let capacity: usize = arg_value(args, "capacity", (4 * k).max(64));
    let mut tracker = MultiSpec::new(schema.clone(), rng)
        .top_k(capacity)
        .sampled(p, rng)?;
    tracker.feed_batch(&keys);
    out!("tuples     {}", keys.len());
    out!("sketched   {}", tracker.kept());
    let exact = has_flag(args, "exact").then(|| ExactAggregator::from_keys(keys.iter().copied()));
    let top = tracker.top_k(k);
    for (rank, (key, est)) in top.iter().enumerate() {
        let mut line = match confidence {
            None => format!("top{:<3}     key {key}: {:.2}", rank + 1, est.value),
            Some(level) => format!(
                "top{:<3}     key {key}: {} [clt {:.0}%]",
                rank + 1,
                est.clt(level)
                    .expect("level validated in (0,1)")
                    .describe(est.value),
                100.0 * level
            ),
        };
        if let Some(truth) = &exact {
            line.push_str(&format!(" (exact {})", truth.get(*key)));
        }
        out!("{line}");
    }
    if let Some(truth) = &exact {
        let true_top: std::collections::HashSet<u64> =
            truth.top_k(k).into_iter().map(|(key, _)| key).collect();
        let hits = top.iter().filter(|(key, _)| true_top.contains(key)).count();
        out!(
            "recall     {:.4} ({hits}/{} of the exact top-{k})",
            hits as f64 / true_top.len().max(1) as f64,
            true_top.len()
        );
    }
    Ok(())
}

fn run_distinct(args: &[String], p: f64, seed: u64, confidence: Option<f64>) -> Result<()> {
    let path = &args[1];
    let keys = read_keys(path)?;
    let precision: u8 = arg_value(args, "precision", 12);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut counter = Sampled::new(HyperLogLog::new(precision, &mut rng)?, p, &mut rng)?;
    counter.feed_batch(&keys);
    let est = counter.distinct_estimate();
    out!("tuples     {}", keys.len());
    out!("sketched   {}", counter.kept());
    out!("estimate   {:.2}", est.value);
    if let Some(level) = confidence {
        print_intervals(&est, level);
    }
    if has_flag(args, "exact") {
        let truth = ExactAggregator::from_keys(keys.iter().copied()).distinct() as f64;
        out!("exact      {truth:.2}");
        out!(
            "rel_error  {:.4}%",
            100.0 * (est.value - truth).abs() / truth.max(1.0)
        );
    }
    Ok(())
}

fn run_quantiles(args: &[String], p: f64, seed: u64) -> Result<()> {
    let path = &args[1];
    let keys = read_keys(path)?;
    let k: usize = arg_value(args, "k", 200);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut summary = Sampled::new(KllSketch::new(k, &mut rng)?, p, &mut rng)?;
    summary.feed_batch(&keys);
    out!("tuples     {}", keys.len());
    out!("sketched   {}", summary.kept());
    // `--at=q` narrows the report to one quantile; the default covers the
    // operational trio.
    let ranks: Vec<f64> = match flag(args, "at") {
        Some(q) => vec![q],
        None => vec![0.5, 0.95, 0.99],
    };
    let exact = has_flag(args, "exact").then(|| {
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted
    });
    for &q in &ranks {
        let (value, (lo, hi)) = summary.quantile_with_bounds(q)?;
        let mut line = format!(
            "q{q:<8}  {value:.2} ∈ [{lo:.2}, {hi:.2}] (rank ± {:.4})",
            summary.rank_error(q)
        );
        if let Some(sorted) = &exact {
            let idx = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len()) - 1;
            line.push_str(&format!(" (exact {})", sorted[idx]));
        }
        out!("{line}");
    }
    Ok(())
}

fn run_multi(
    args: &[String],
    schema: &JoinSchema,
    p: f64,
    confidence: Option<f64>,
    rng: &mut StdRng,
) -> Result<()> {
    let path = &args[1];
    let keys = read_keys(path)?;
    let k: usize = arg_value(args, "k", 10);
    let mut s = MultiSpec::new(schema.clone(), rng).sampled(p, rng)?;
    // The one pass: every query below is answered from this single
    // Bernoulli-sampled ingestion.
    s.feed_batch(&keys);
    out!("tuples     {}", keys.len());
    out!("sketched   {}", s.kept());
    let exact = has_flag(args, "exact").then(|| ExactAggregator::from_keys(keys.iter().copied()));
    let sj = s.self_join_estimate();
    out!("self_join  {:.2}", sj.value);
    if let Some(level) = confidence {
        print_intervals(&sj, level);
    }
    if let Some(truth) = &exact {
        out!("           (exact {:.2})", truth.self_join());
    }
    let d = s.distinct_estimate();
    out!("distinct   {:.2}", d.value);
    if let Some(truth) = &exact {
        out!("           (exact {})", truth.distinct());
    }
    for (label, q) in [("median", 0.5), ("p99", 0.99)] {
        let (value, (lo, hi)) = s.quantile_with_bounds(q)?;
        out!("{label:<10} {value:.2} ∈ [{lo:.2}, {hi:.2}]");
    }
    let top = s.top_k(k);
    for (rank, (key, est)) in top.iter().enumerate() {
        let mut line = format!("top{:<3}     key {key}: {:.2}", rank + 1, est.value);
        if let Some(truth) = &exact {
            line.push_str(&format!(" (exact {})", truth.get(*key)));
        }
        out!("{line}");
    }
    Ok(())
}

fn read_snapshot(path: &str) -> Result<Vec<u8>> {
    std::fs::read(path).map_err(|source| Error::Io {
        path: path.to_string(),
        source,
    })
}

fn write_snapshot(path: &str, bytes: &[u8]) -> Result<()> {
    std::fs::write(path, bytes).map_err(|source| Error::Io {
        path: path.to_string(),
        source,
    })
}

/// `sss save <file> <out.sss>`: sketch the key file and write the
/// summary's portable payload. Processes that agree on
/// `--depth/--width/--seed` produce fingerprint-compatible snapshots
/// that `merge-snapshots` will combine.
fn run_save<S: Summary + Portable>(args: &[String], mut summary: S) -> Result<()> {
    let (path, out) = (&args[1], &args[2]);
    let keys = read_keys(path)?;
    summary.update_batch(&keys);
    let bytes = summary.encode()?;
    write_snapshot(out, &bytes)?;
    out!("tuples      {}", keys.len());
    out!("kind        {}", S::KIND);
    out!("format      {}", S::FORMAT);
    out!("fingerprint {:#018x}", summary.fingerprint());
    out!("bytes       {}", bytes.len());
    out!("saved       {out}");
    Ok(())
}

/// `sss load <snapshot.sss>`: peek the payload head, decode the
/// sketch, and answer the self-join query — plus the slim projection's
/// size, to show what a read replica of this snapshot would ship. The
/// head's kind picks the decoder: `join` snapshots come from `save` /
/// `merge-snapshots`, `multi` snapshots from `serve --snapshot=` (and
/// answer all four query families).
fn run_load(args: &[String], confidence: Option<f64>) -> Result<()> {
    let path = &args[1];
    let bytes = read_snapshot(path)?;
    // Decoded before anything is printed: a head whose body is another
    // configuration's is refused, not reported.
    let print_head = |kind: &str, format: u32, fingerprint: u64| {
        out!("kind        {kind}");
        out!("format      {format}");
        out!("fingerprint {fingerprint:#018x}");
        out!("bytes       {}", bytes.len());
    };
    if wire::peek(&bytes)?.kind == MultiSummary::KIND {
        use sketch_sampled_streams::core::{DistinctQuery as _, TopKQuery as _};
        let summary = MultiSummary::decode(&bytes)?;
        print_head(
            MultiSummary::KIND,
            MultiSummary::FORMAT,
            summary.fingerprint(),
        );
        let est = summary.self_join_estimate();
        out!("self_join   {:.2}", est.value);
        if let Some(level) = confidence {
            print_intervals(&est, level);
        }
        out!("distinct    {:.2}", summary.distinct_estimate().value);
        for (rank, (key, est)) in summary.top_k_estimates(5).iter().enumerate() {
            out!("top{:<3}     key {key}: {:.2}", rank + 1, est.value);
        }
        return Ok(());
    }
    let sketch = JoinSketch::decode(&bytes)?;
    print_head(JoinSketch::KIND, JoinSketch::FORMAT, sketch.fingerprint());
    let est = sketch.self_join_estimate();
    out!("self_join   {:.2}", est.value);
    if let Some(level) = confidence {
        print_intervals(&est, level);
    }
    let slim_bytes = sketch.slim().encode()?;
    out!(
        "slim        {} bytes ({:.1}% of fat)",
        slim_bytes.len(),
        100.0 * slim_bytes.len() as f64 / bytes.len().max(1) as f64
    );
    Ok(())
}

/// `sss merge-snapshots <in1> <in2> [more...]`: combine snapshots from
/// separate processes through the fingerprint-checked wire merge and
/// answer the self-join query over the union stream. With `--out=` the
/// merged snapshot is written back out (itself a valid `load`/merge
/// input).
fn run_merge_snapshots(args: &[String], confidence: Option<f64>) -> Result<()> {
    let inputs: Vec<&String> = args[1..].iter().filter(|a| !a.starts_with("--")).collect();
    let first = read_snapshot(inputs[0])?;
    // The first snapshot's kind picks the decoder, as in `load`; the
    // others have to match its fingerprint, so its kind as well.
    if wire::peek(&first)?.kind == MultiSummary::KIND {
        merge_snapshots_as::<MultiSummary>(args, &inputs, &first, confidence)
    } else {
        merge_snapshots_as::<JoinSketch>(args, &inputs, &first, confidence)
    }
}

fn merge_snapshots_as<S: Portable + JoinQuery>(
    args: &[String],
    inputs: &[&String],
    first: &[u8],
    confidence: Option<f64>,
) -> Result<()> {
    let mut merged = S::decode(first)?;
    out!("loaded      {} ({} bytes)", inputs[0], first.len());
    for path in &inputs[1..] {
        let bytes = read_snapshot(path)?;
        merged.merge_encoded(&bytes)?;
        out!("merged      {path} ({} bytes)", bytes.len());
    }
    out!("fingerprint {:#018x}", merged.fingerprint());
    let est = merged.self_join_estimate();
    out!("self_join   {:.2}", est.value);
    if let Some(level) = confidence {
        print_intervals(&est, level);
    }
    if let Some(out) = args.iter().find_map(|a| a.strip_prefix("--out=")) {
        let bytes = merged.encode()?;
        write_snapshot(out, &bytes)?;
        out!("saved       {out} ({} bytes)", bytes.len());
    }
    Ok(())
}

/// `sss serve`: run the network ingest service until a query-plane
/// `shutdown` command arrives. Binds the ingest and query planes (port 0
/// picks ephemeral ports), prints the bound addresses and the summary
/// fingerprint as machine-parseable `key value` lines, then blocks on
/// the ingest loop. On shutdown the shard rings drain, the final merged
/// summary is (optionally) snapshotted, and its headline estimates are
/// printed.
fn run_serve(args: &[String]) -> Result<()> {
    let depth: usize = arg_value(args, "depth", 3);
    let width: usize = arg_value(args, "width", 5000);
    let seed: u64 = arg_value(args, "seed", 1);
    let shards: usize = arg_value(args, "shards", 2);
    let queue_depth: usize = arg_value(args, "queue-depth", 64);
    let max_pending: u64 = arg_value(args, "max-pending", 0);
    let partition = match flag::<String>(args, "partition").as_deref() {
        None | Some("rr") => Partition::RoundRobin,
        Some("hash") => Partition::Hash,
        Some(other) => bad_flag("partition", other),
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let spec = MultiSpec::new(JoinSchema::fagms(depth, width, &mut rng), &mut rng);
    let fingerprint = Portable::fingerprint(&spec.summary()?);

    let config = ServerConfig {
        ingest_addr: arg_value(args, "ingest", "127.0.0.1:0".to_string()),
        query_addr: arg_value(args, "query", "127.0.0.1:0".to_string()),
        runtime: RuntimeConfig {
            shards,
            queue_depth,
            partition,
        },
        max_pending,
        snapshot_path: args
            .iter()
            .find_map(|a| a.strip_prefix("--snapshot="))
            .map(std::path::PathBuf::from),
    };
    let snapshot = config.snapshot_path.clone();
    let srv = RunningServer::start(config, &spec)?;
    // Machine-parseable banner: scripts (and the CI smoke test) scrape
    // the ephemeral ports from these lines, so flush before blocking.
    out!("ingest      {}", srv.ingest_addr());
    out!("query       {}", srv.query_addr());
    out!("fingerprint {fingerprint:#018x}");
    use std::io::Write as _;
    std::io::stdout().flush().ok();

    let stats = srv.stats();
    let merged = srv.wait()?;
    out!("tuples      {}", stats.tuples_ingested());
    out!("batches     {}", stats.batches_ingested());
    let pool = stats.pool_stats();
    out!(
        "pool        {} allocations, {} reuses",
        pool.allocations,
        pool.reuses
    );
    out!("self_join   {:.2}", merged.self_join_estimate().value);
    use sketch_sampled_streams::core::DistinctQuery as _;
    out!("distinct    {:.2}", merged.distinct_estimate().value);
    if let Some(path) = snapshot {
        out!("snapshot    {}", path.display());
    }
    Ok(())
}

/// `sss bench-client`: drive a running ingest plane with `--connections`
/// concurrent clients, each sending its deterministic `synth_key` stream
/// in batched pipelined writes ending with a `SYNC` barrier. With
/// `--check` the exact self-join of the generated keys is recomputed
/// locally and the server's estimate must cover it within its Chebyshev
/// interval (a failed check is a typed error and a nonzero exit). With
/// `--shutdown` the server is asked to drain and exit afterwards.
fn run_bench_client(args: &[String]) -> Result<()> {
    let addr = &args[1];
    let cfg = net::LoadConfig {
        connections: arg_value(args, "connections", 1),
        tuples_per_connection: arg_value(args, "tuples", 100_000),
        batch: arg_value(args, "batch", 512),
        domain: arg_value(args, "domain", 10_000),
        seed: arg_value(args, "seed", 7),
    };
    let report = net::run_load(addr.as_str(), &cfg)?;
    out!("connections {}", cfg.connections);
    out!("tuples      {}", report.tuples);
    out!("elapsed     {:.3}s", report.elapsed.as_secs_f64());
    out!("tuples/s    {:.0}", report.tuples_per_sec);
    for (i, tps) in report.per_connection_tps.iter().enumerate() {
        out!("conn{i:<3}     {tps:.0} tuples/s");
    }

    let query_addr = args.iter().find_map(|a| a.strip_prefix("--query-addr="));
    if has_flag(args, "check") {
        let Some(query_addr) = query_addr else {
            eprintln!("error: --check needs --query-addr=<host:port>");
            return Err(Error::CheckFailed {
                what: "bench-client",
                estimate: f64::NAN,
                half_width: f64::NAN,
                exact: f64::NAN,
            });
        };
        // The oracle regenerates the exact tuple streams the load
        // generator sent (synth_key is deterministic in seed /
        // connection / index) and the server's answer must cover the
        // exact self-join within its own stated error bars.
        let mut exact = ExactAggregator::new();
        for conn in 0..cfg.connections as u64 {
            for index in 0..cfg.tuples_per_connection {
                exact.update(net::synth_key(cfg.seed, conn, index, cfg.domain), 1);
            }
        }
        let truth = exact.self_join();
        let mut queries = QueryClient::connect(query_addr)?;
        let line = queries.request("{\"cmd\":\"self_join\",\"confidence\":0.99}")?;
        let estimate = net::protocol::response_f64(&line, "value");
        let half_width = net::protocol::response_f64(&line, "half_width_chebyshev");
        let (Some(estimate), Some(half_width)) = (estimate, half_width) else {
            return Err(Error::CheckFailed {
                what: "self_join response",
                estimate: f64::NAN,
                half_width: f64::NAN,
                exact: truth,
            });
        };
        out!("check       estimate {estimate:.2} ± {half_width:.2}, exact {truth:.2}");
        if (estimate - truth).abs() > half_width {
            return Err(Error::CheckFailed {
                what: "self_join",
                estimate,
                half_width,
                exact: truth,
            });
        }
        out!("check       ok (within chebyshev 99%)");
    }
    if has_flag(args, "shutdown") {
        let Some(query_addr) = query_addr else {
            eprintln!("error: --shutdown needs --query-addr=<host:port>");
            return Err(Error::CheckFailed {
                what: "bench-client",
                estimate: f64::NAN,
                half_width: f64::NAN,
                exact: f64::NAN,
            });
        };
        let mut queries = QueryClient::connect(query_addr)?;
        queries.shutdown()?;
        out!("shutdown    requested");
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    // A command that samples nothing must not accept a rate it would
    // ignore: `save --p=0.1` would write an unsampled sketch.
    if matches!(
        cmd.as_str(),
        "save" | "load" | "merge-snapshots" | "serve" | "bench-client"
    ) {
        if let Some(raw) = args.iter().find(|a| *a == "--p" || a.starts_with("--p=")) {
            eprintln!("error: {raw}: `sss {cmd}` samples nothing and takes no --p");
            return usage();
        }
    }
    let depth: usize = arg_value(&args, "depth", 3);
    let width: usize = arg_value(&args, "width", 5000);
    let seed: u64 = arg_value(&args, "seed", 1);
    let p: f64 = arg_value(&args, "p", 1.0);
    // `--confidence` is optional with no default; a malformed or
    // out-of-range level is a usage error, not a silent fallback.
    let confidence = match args.iter().find_map(|a| a.strip_prefix("--confidence=")) {
        None => None,
        Some(v) => match v.parse::<f64>() {
            Ok(level) if level > 0.0 && level < 1.0 => Some(level),
            _ => {
                eprintln!("error: --confidence must be a probability strictly between 0 and 1");
                return usage();
            }
        },
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let schema = JoinSchema::fagms(depth, width, &mut rng);

    // Errors from every layer — I/O, parsing, sampling, sketching — reach
    // this one match as a single `Error`, never as pre-formatted strings.
    let result = match cmd.as_str() {
        "selfjoin" if args.len() >= 2 => run_selfjoin(&args, &schema, p, confidence, &mut rng),
        "join" if args.len() >= 3 => run_join(&args, &schema, p, confidence, &mut rng),
        "topk" if args.len() >= 2 => run_topk(&args, &schema, p, confidence, &mut rng),
        "distinct" if args.len() >= 2 => run_distinct(&args, p, seed, confidence),
        "quantiles" if args.len() >= 2 => run_quantiles(&args, p, seed),
        "multi" if args.len() >= 2 => run_multi(&args, &schema, p, confidence, &mut rng),
        "save" if args.len() >= 3 && !args[2].starts_with("--") => {
            match flag::<String>(&args, "kind").as_deref() {
                None | Some("join") => run_save(&args, schema.sketch()),
                // Drawn as `serve` draws it, so the two merge.
                Some("multi") => MultiSpec::new(schema.clone(), &mut rng)
                    .summary()
                    .map_err(Error::from)
                    .and_then(|summary| run_save(&args, summary)),
                Some(other) => bad_flag("kind", other),
            }
        }
        "load" if args.len() >= 2 => run_load(&args, confidence),
        "merge-snapshots" if args[1..].iter().filter(|a| !a.starts_with("--")).count() >= 2 => {
            run_merge_snapshots(&args, confidence)
        }
        "serve" => run_serve(&args),
        "bench-client" if args.len() >= 2 && !args[1].starts_with("--") => run_bench_client(&args),
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
