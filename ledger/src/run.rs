//! One run of one workload: [`ROUNDS`] rounds, each a fresh system taken
//! through set-up, the closed-loop bulk phase, the serial fresh phase and
//! the correctness gates; then — in a traced run — the span file, the
//! replay and the per-layer table.
//!
//! The amount of work is a fixed function of `--seconds` (rule R1): a
//! number of segments and of fresh iterations, never a time window. On
//! the reference host that work takes about `--seconds` seconds.
//!
//! Why rounds: on the reference host one runtime instance is steady to
//! about 2% from one six-second window to the next, but two instances
//! differ by up to 12% (most likely by where the buffer pool and the
//! counters land in a two-megabyte L2 that megabytes of coalesced batches
//! stream through). A run that measured one instance inherited that draw;
//! a run pools five.

use crate::input::{median_rank_error, Input, BLOCK, GRAIN};
use crate::layers::{self, Rows};
use crate::metrics::{END_TO_END, PER_LAYER};
use crate::procfs::{cpu_of, process_cpu, rss_peak_mb, thread_cpu};
use crate::stats::{iqr_share, median, percentile, quiet_rate, quiet_time, samples_beyond, sorted};
use crate::sut::{Answer, Finals, InprocFull, InprocSampled, Res, Sut, Wire, QUEUE_DEPTH};
use crate::trace::{fold_self_time, Tracer};
use sss_net::protocol;
use std::path::PathBuf;
use std::time::Instant;

/// Keys per batch in warm-up and bulk segments.
const BATCH: usize = 4096;
/// Keys in the one batch of a fresh iteration.
const FRESH_BATCH: usize = GRAIN;
/// Fresh iterations per block: the unit tracing alternates on, and the
/// "segment" of a workload without a bulk phase.
const FRESH_BLOCK: u64 = 100;
/// Fresh systems per run; every metric pools the samples of all of them.
const ROUNDS: u64 = 5;

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub smoke: bool,
    /// The `sss` binary the wire workloads spawn.
    pub sss: PathBuf,
    /// Where the span file and the child's pid file go.
    pub out_dir: PathBuf,
}

/// How much work one round does.
#[derive(Debug, Clone, Copy)]
struct Plan {
    /// Batches per segment (then one barrier query).
    segment_batches: u64,
    /// Segments fed before the first answer that ends set-up (R5: sized
    /// so set-up lasts at least a second).
    warmup_segments: u64,
    bulk_segments: u64,
    fresh_blocks: u64,
}

impl Plan {
    /// Per second of `--seconds`, over the whole run: so many bulk
    /// segments and fresh iterations, sized on the reference host so the
    /// two phases together take about that long.
    fn of(workload: &str, seconds: u64, smoke: bool) -> Option<Plan> {
        let (segment_batches, warmup_segments, bulk_rate, fresh_rate) = match workload {
            "inproc_full" => (128, 9, 5.0, 315.0),
            "inproc_sampled" => (256, 36, 16.0, 1500.0),
            "wire_bulk" => (128, 9, 5.0, 315.0),
            "wire_fresh" => (64, 30, 0.0, 500.0),
            _ => return None,
        };
        let scale = if smoke { 1.0 / 16.0 } else { 1.0 };
        let per_round = seconds as f64 * scale / ROUNDS as f64;
        Some(Plan {
            segment_batches,
            warmup_segments: ((warmup_segments as f64 * scale).ceil() as u64).max(1),
            bulk_segments: if bulk_rate == 0.0 {
                0
            } else {
                ((bulk_rate * per_round).round() as u64).max(2)
            },
            // At least two of each, so a traced run has a traced and an
            // untraced half to compare.
            fresh_blocks: ((fresh_rate * per_round / FRESH_BLOCK as f64).round() as u64).max(2),
        })
    }
}

/// The system under test plus the ledger of what was asked of it.
struct Driver<'a> {
    sut: Box<dyn Sut>,
    input: &'a Input,
    /// Tuples sent to this system so far.
    sent: u64,
    attempted: u64,
    failed: u64,
    /// Every served `self_join`, with the tuples it had to reflect.
    answers: Vec<(u64, Answer)>,
}

impl Driver<'_> {
    fn send(&mut self, len: usize, tr: &mut Tracer) -> Res<()> {
        let keys = self.input.batch(self.sent, len);
        self.attempted += 1;
        self.sut.send(keys, tr)?;
        self.sent += len as u64;
        Ok(())
    }

    fn barrier(&mut self, tr: &mut Tracer) -> Res<Answer> {
        self.attempted += 1;
        let answer = self.sut.query(tr)?;
        self.answers.push((self.sent, answer));
        Ok(answer)
    }

    fn segment(&mut self, batches: u64, tr: &mut Tracer) -> Res<()> {
        for _ in 0..batches {
            self.send(BATCH, tr)?;
        }
        self.barrier(tr)?;
        Ok(())
    }
}

fn start(opts: &Options) -> Res<Box<dyn Sut>> {
    Ok(match opts.workload.as_str() {
        "inproc_full" => Box::new(InprocFull::start()?),
        "inproc_sampled" => Box::new(InprocSampled::start()?),
        "wire_bulk" => Box::new(Wire::start(&opts.sss, &opts.out_dir, false)?),
        _ => Box::new(Wire::start(&opts.sss, &opts.out_dir, true)?),
    })
}

/// On-CPU time of the measured process by thread, and of the harness
/// itself, at a phase boundary.
struct CpuSnapshot {
    threads: Vec<(String, u64)>,
    harness: u64,
    at: Instant,
}

impl CpuSnapshot {
    fn take(pid: u32) -> Self {
        Self {
            threads: thread_cpu(pid),
            harness: process_cpu(std::process::id()),
            at: Instant::now(),
        }
    }

    /// On-CPU ns of the measured process, all threads.
    fn total(&self) -> u64 {
        cpu_of(&self.threads, "")
    }
}

/// What one phase cost, between two snapshots; summed over rounds.
#[derive(Debug, Clone, Copy, Default)]
struct PhaseCost {
    tuples: u64,
    wall_s: f64,
    /// On-CPU ns of the measured process, all threads.
    cpu: u64,
    shard_cpu: u64,
    net_ingest_cpu: u64,
    net_query_cpu: u64,
    harness_cpu: u64,
}

impl PhaseCost {
    fn between(from: &CpuSnapshot, to: &CpuSnapshot, tuples: u64) -> Self {
        let delta = |prefix: &str| cpu_of(&to.threads, prefix) - cpu_of(&from.threads, prefix);
        Self {
            tuples,
            wall_s: (to.at - from.at).as_secs_f64(),
            cpu: delta(""),
            shard_cpu: delta("sss-shard-"),
            net_ingest_cpu: delta("sss-net-ingest"),
            net_query_cpu: delta("sss-net-query"),
            harness_cpu: to.harness - from.harness,
        }
    }

    fn add(&mut self, other: &PhaseCost) {
        self.tuples += other.tuples;
        self.wall_s += other.wall_s;
        self.cpu += other.cpu;
        self.shard_cpu += other.shard_cpu;
        self.net_ingest_cpu += other.net_ingest_cpu;
        self.net_query_cpu += other.net_query_cpu;
        self.harness_cpu += other.harness_cpu;
    }
}

/// Bytes the ingest plane carries for `batches` batches of `len` keys
/// and `syncs` barriers, measured on the protocol's own encoder.
fn frame_bytes(len: usize, batches: u64, syncs: u64) -> u64 {
    let mut out = Vec::new();
    protocol::write_batch(&mut out, &vec![0u64; len]);
    let batch = out.len() as u64;
    out.clear();
    protocol::write_sync(&mut out, protocol::FRAME_SYNC, 0);
    batch * batches + out.len() as u64 * syncs
}

/// Latency of one block of [`FRESH_BLOCK`] fresh iterations.
#[derive(Debug, Clone, Copy)]
struct Block {
    p50_us: f64,
    p90_us: f64,
    traced: bool,
}

/// On-CPU ns per tuple between consecutive `(cpu_ns, tuples_sent)` marks.
fn cpu_windows(marks: &[(u64, u64)]) -> Vec<f64> {
    marks
        .windows(2)
        .filter(|w| w[1].1 > w[0].1)
        .map(|w| (w[1].0 - w[0].0) as f64 / (w[1].1 - w[0].1) as f64)
        .collect()
}

/// What one round measured. Rate and CPU come from the bulk phase, or,
/// for a workload without one, from the fresh phase.
struct Round {
    setup_s: f64,
    /// Tuples/s of every segment (bulk segment, or fresh block with its
    /// side reads), and whether it was traced.
    rates: Vec<(f64, bool)>,
    /// On-CPU ns per tuple of each half of that phase (a half spans at
    /// least half a second: the kernel advances `schedstat` every 4 ms).
    cpu_windows: Vec<f64>,
    /// What that phase cost, and what the fresh phase cost.
    rated: PhaseCost,
    fresh: PhaseCost,
    blocks: Vec<Block>,
    latencies_us: Vec<f64>,
    side_reads: u64,
    sent: u64,
    attempted: u64,
    failed: u64,
    answers: usize,
    answers_outside: usize,
    last: Answer,
    finals: Finals,
    pool_growth: u64,
    pool_limit: u64,
    rss_peak_mb: f64,
}

fn one_round(
    opts: &Options,
    plan: &Plan,
    input: &Input,
    round: u64,
    tr: &mut Tracer,
) -> Res<Round> {
    // ---- set-up: key block ready → first answer after warm-up ----------
    let started = Instant::now();
    let mut d = Driver {
        sut: start(opts)?,
        input,
        sent: 0,
        attempted: 0,
        failed: 0,
        answers: Vec::new(),
    };
    let pid = d.sut.cpu_pid();
    for _ in 0..plan.warmup_segments {
        d.segment(plan.segment_batches, tr)?;
    }
    let setup_s = started.elapsed().as_secs_f64();
    let pool_after_warmup = d.sut.pool_allocations()?;
    let first_segment = round * (plan.bulk_segments + plan.fresh_blocks);

    // ---- bulk: fixed segments, one in flight (R1, R2) -------------------
    let segment_tuples = plan.segment_batches * BATCH as u64;
    let mut segment_rates = Vec::with_capacity(plan.bulk_segments as usize);
    let at_bulk_start = CpuSnapshot::take(pid);
    let mut bulk_marks = vec![(at_bulk_start.total(), d.sent)];
    for seg in 0..plan.bulk_segments {
        if seg > 0 && seg == plan.bulk_segments / 2 {
            bulk_marks.push((process_cpu(pid), d.sent));
        }
        let traced = opts.trace && seg % 2 == 1;
        tr.set_enabled(traced);
        tr.set_segment((first_segment + seg) as u32);
        let t = Instant::now();
        let span = tr.enter("segment");
        d.segment(plan.segment_batches, tr)?;
        tr.exit(span);
        segment_rates.push((segment_tuples as f64 / t.elapsed().as_secs_f64(), traced));
    }
    tr.set_enabled(false);

    // ---- fresh: one small batch, then its query, serially (R3) ----------
    let at_fresh_start = CpuSnapshot::take(pid);
    bulk_marks.push((at_fresh_start.total(), d.sent));
    let mut fresh_marks = vec![(at_fresh_start.total(), d.sent)];
    let block_tuples = FRESH_BLOCK * FRESH_BATCH as u64;
    let mut latencies_us = Vec::with_capacity((plan.fresh_blocks * FRESH_BLOCK) as usize);
    let mut blocks = Vec::with_capacity(plan.fresh_blocks as usize);
    let mut block_rates = Vec::with_capacity(plan.fresh_blocks as usize);
    let mut side_reads = 0;
    for block in 0..plan.fresh_blocks {
        if block > 0 && block == plan.fresh_blocks / 2 {
            fresh_marks.push((process_cpu(pid), d.sent));
        }
        let traced = opts.trace && block % 2 == 1;
        tr.set_enabled(traced);
        tr.set_segment((first_segment + plan.bulk_segments + block) as u32);
        let block_started = Instant::now();
        for _ in 0..FRESH_BLOCK {
            let t = Instant::now();
            let span = tr.enter("fresh");
            d.send(FRESH_BATCH, tr)?;
            d.barrier(tr)?;
            tr.exit(span);
            latencies_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            let (issued, refused) = d.sut.side_reads(tr)?;
            d.attempted += issued;
            d.failed += refused;
            side_reads += issued;
        }
        block_rates.push((
            block_tuples as f64 / block_started.elapsed().as_secs_f64(),
            traced,
        ));
        let in_block = sorted(&latencies_us[latencies_us.len() - FRESH_BLOCK as usize..]);
        blocks.push(Block {
            p50_us: percentile(&in_block, 0.5),
            p90_us: percentile(&in_block, 0.9),
            traced,
        });
    }
    tr.set_enabled(false);
    let at_fresh_end = CpuSnapshot::take(pid);
    fresh_marks.push((at_fresh_end.total(), d.sent));
    let bulk = PhaseCost::between(
        &at_bulk_start,
        &at_fresh_start,
        plan.bulk_segments * segment_tuples,
    );
    let fresh = PhaseCost::between(
        &at_fresh_start,
        &at_fresh_end,
        plan.fresh_blocks * block_tuples,
    );

    // ---- the final answer, at a whole number of replays -----------------
    // There a linear sketch no longer depends on the arrival order, so
    // `f2_rel_halfwidth` at p = 1 is the same number for every seed.
    while !d.sent.is_multiple_of(BLOCK as u64) {
        d.send(GRAIN, tr)?;
    }
    let last = d.barrier(tr)?;
    let finals = d.sut.finals()?;
    let pool_growth = d.sut.pool_allocations()? - pool_after_warmup;
    let answers_outside = d
        .answers
        .iter()
        .filter(|(sent, a)| !a.covers(input.exact_f2(*sent)))
        .count();
    let no_bulk = plan.bulk_segments == 0;
    Ok(Round {
        setup_s,
        rates: if no_bulk { block_rates } else { segment_rates },
        cpu_windows: cpu_windows(if no_bulk { &fresh_marks } else { &bulk_marks }),
        rated: if no_bulk { fresh } else { bulk },
        fresh,
        blocks,
        latencies_us,
        side_reads,
        sent: d.sent,
        attempted: d.attempted,
        failed: d.failed,
        answers: d.answers.len(),
        answers_outside,
        last,
        finals,
        pool_growth,
        pool_limit: d.sut.shards() as u64 * (QUEUE_DEPTH as u64 + 4),
        rss_peak_mb: rss_peak_mb(pid),
    })
    // The system is torn down here, before the next round starts one.
}

/// What a run prints as its last line.
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    /// `(name, value, unit)` — the end-to-end metrics of an untraced run,
    /// the per-layer metrics of a traced one.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

impl Outcome {
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// The rates of `wanted` (traced or untraced) segments.
fn rates_where(rates: &[(f64, bool)], wanted: bool) -> Vec<f64> {
    rates
        .iter()
        .filter(|(_, traced)| *traced == wanted)
        .map(|(r, _)| *r)
        .collect()
}

/// Print every correctness gate over all rounds; returns how many failed.
fn gates(rounds: &[Round], input: &Input, sampled: bool) -> u64 {
    let mut failed = 0;
    let mut gate = |ok: bool, what: String| {
        println!("gate {} {what}", if ok { "ok  " } else { "FAIL" });
        failed += u64::from(!ok);
    };
    let sent = rounds[0].sent;
    gate(
        rounds.iter().all(|r| r.sent == sent),
        format!("every round sent {sent} tuples"),
    );
    let answers: usize = rounds.iter().map(|r| r.answers).sum();
    let outside: usize = rounds.iter().map(|r| r.answers_outside).sum();
    gate(
        outside == 0,
        format!(
            "exact F2 inside the served 99% Chebyshev interval: {} of {answers} answers",
            answers - outside
        ),
    );
    let exact = input.exact_after(sent);
    let last = rounds[0].last;
    gate(
        exact.self_join() == input.exact_f2(sent)
            && rounds.iter().all(|r| r.last.value == last.value),
        format!(
            "final F2 {:.6e} (exact {:.6e}; sss-exact agrees with the oracle, all rounds agree)",
            last.value,
            exact.self_join()
        ),
    );
    let worst = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(f64::MIN, f64::max);
    let f0_error =
        worst(&|r| (r.finals.distinct - exact.distinct() as f64).abs() / exact.distinct() as f64);
    let truth: Vec<u64> = exact.top_k(10).into_iter().map(|(k, _)| k).collect();
    let miss = worst(&|r| {
        truth.iter().filter(|k| !r.finals.top10.contains(k)).count() as f64 / truth.len() as f64
    });
    let rank_error = worst(&|r| median_rank_error(&exact, r.finals.median));
    if sampled {
        // Printed, not gated: the F0 plug-in under-corrects on Zipf input
        // (ROADMAP item 4a), and the issue gates p = 1 only.
        println!(
            "info      p = 0.1, worst round: F0 relative error {f0_error:.4}, top-10 recall {:.2}, \
             median rank error {rank_error:.4}",
            1.0 - miss
        );
    } else {
        gate(
            f0_error <= 0.1,
            format!("F0 relative error {f0_error:.4} <= 0.1"),
        );
        gate(
            miss <= 0.2,
            format!("top-10 recall {:.2} >= 0.8", 1.0 - miss),
        );
        gate(
            rank_error <= 0.05,
            format!("median rank error {rank_error:.4} <= 0.05"),
        );
    }
    gate(
        rounds.iter().all(|r| r.pool_growth <= r.pool_limit),
        format!(
            "pool growth after warm-up {} <= {}",
            rounds.iter().map(|r| r.pool_growth).max().unwrap_or(0),
            rounds[0].pool_limit
        ),
    );
    gate(
        rounds.iter().all(|r| r.finals.runtime_tuples == sent),
        format!("runtime_tuples == tuples sent ({sent})"),
    );
    gate(
        rounds.iter().all(|r| r.finals.protocol_errors == 0),
        "no protocol errors".to_string(),
    );
    failed
}

/// The samples of a run, pooled over its rounds, and the end-to-end
/// metrics they give.
struct Pooled {
    setup_s: Vec<f64>,
    /// Untraced segment rates, and all of them with their traced flag.
    untraced: Vec<f64>,
    rates: Vec<(f64, bool)>,
    cpu_windows: Vec<f64>,
    block_p50: Vec<f64>,
    block_p90: Vec<f64>,
    sorted_latency: Vec<f64>,
    rated: PhaseCost,
    fresh: PhaseCost,
    side_reads: u64,
    f2_rel_halfwidth: f64,
}

impl Pooled {
    fn of(rounds: &[Round]) -> Self {
        let rates: Vec<(f64, bool)> = rounds.iter().flat_map(|r| &r.rates).copied().collect();
        let untraced_blocks = || {
            rounds
                .iter()
                .flat_map(|r| r.blocks.iter().filter(|b| !b.traced))
        };
        let (mut rated, mut fresh) = (PhaseCost::default(), PhaseCost::default());
        for r in rounds {
            rated.add(&r.rated);
            fresh.add(&r.fresh);
        }
        let last = rounds[0].last;
        Self {
            setup_s: rounds.iter().map(|r| r.setup_s).collect(),
            untraced: rates_where(&rates, false),
            rates,
            cpu_windows: rounds
                .iter()
                .flat_map(|r| &r.cpu_windows)
                .copied()
                .collect(),
            block_p50: untraced_blocks().map(|b| b.p50_us).collect(),
            block_p90: untraced_blocks().map(|b| b.p90_us).collect(),
            sorted_latency: sorted(
                &rounds
                    .iter()
                    .flat_map(|r| &r.latencies_us)
                    .copied()
                    .collect::<Vec<_>>(),
            ),
            rated,
            fresh,
            side_reads: rounds.iter().map(|r| r.side_reads).sum(),
            f2_rel_halfwidth: last.half_width / last.value,
        }
    }

    /// In the order of [`END_TO_END`]. Interference on a shared host only
    /// ever slows a sample down, so every timed metric is the decile on
    /// the quiet side of its samples (see `stats::quiet_time`).
    fn end_to_end(&self) -> [f64; 5] {
        [
            quiet_time(&self.setup_s),
            quiet_rate(&self.untraced),
            quiet_time(&self.cpu_windows),
            quiet_time(&self.block_p50),
            self.f2_rel_halfwidth,
        ]
    }

    fn print(&self, segment_tuples: u64) {
        let n = self.sorted_latency.len();
        println!(
            "samples   {} set-ups, {} segments of {segment_tuples} tuples, {} on-CPU windows, \
             {n} fresh iterations in {} blocks",
            self.setup_s.len(),
            self.untraced.len(),
            self.cpu_windows.len(),
            self.block_p50.len(),
        );
        println!(
            "phases    rated {:.2} s ({} tuples), fresh {:.2} s ({} tuples, {} side reads)",
            self.rated.wall_s,
            self.rated.tuples,
            self.fresh.wall_s,
            self.fresh.tuples,
            self.side_reads
        );
        let quantiles = |v: &[f64]| {
            let v = sorted(v);
            [0.1, 0.25, 0.5, 0.75, 0.9].map(|q| percentile(&v, q))
        };
        println!("spread    p10/p25/p50/p75/p90 of the samples behind each timed metric");
        println!(
            "spread    set-up s             {:.3?}",
            quantiles(&self.setup_s)
        );
        println!(
            "spread    segment tuples/s     {:.0?}",
            quantiles(&self.untraced)
        );
        println!(
            "spread    on-CPU ns/tuple      {:.1?}",
            quantiles(&self.cpu_windows)
        );
        println!(
            "spread    block p50 us         {:.1?}",
            quantiles(&self.block_p50)
        );
        println!(
            "spread    block p90 us         {:.1?}",
            quantiles(&self.block_p90)
        );
        println!(
            "pooled    latency p50 {:.1} us, p90 {:.1} us ({} samples beyond), p99 {:.1} us ({} beyond)",
            percentile(&self.sorted_latency, 0.5),
            percentile(&self.sorted_latency, 0.9),
            samples_beyond(n, 0.9),
            percentile(&self.sorted_latency, 0.99),
            samples_beyond(n, 0.99),
        );
    }
}

pub fn run(opts: &Options) -> Res<Outcome> {
    let plan = Plan::of(&opts.workload, opts.seconds, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    std::fs::create_dir_all(&opts.out_dir)
        .map_err(|e| format!("create {}: {e}", opts.out_dir.display()))?;

    let input = Input::generate(opts.seed);
    println!(
        "workload {} seed {} seconds {} trace {} smoke {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8, opts.smoke
    );
    println!("host {}", crate::procfs::host_line());
    println!(
        "plan {ROUNDS} rounds, each {} warm-up + {} bulk segments of {} x {BATCH} keys, \
         then {} fresh iterations of {FRESH_BATCH} keys",
        plan.warmup_segments,
        plan.bulk_segments,
        plan.segment_batches,
        plan.fresh_blocks * FRESH_BLOCK
    );

    let mut tr = Tracer::new(false);
    let mut rounds = Vec::with_capacity(ROUNDS as usize);
    for round in 0..ROUNDS {
        rounds.push(one_round(opts, &plan, &input, round, &mut tr)?);
    }

    let attempted: u64 = rounds.iter().map(|r| r.attempted).sum();
    let mut failed: u64 = rounds.iter().map(|r| r.failed).sum();
    failed += gates(&rounds, &input, opts.workload == "inproc_sampled");

    let pooled = Pooled::of(&rounds);
    pooled.print(if plan.bulk_segments == 0 {
        FRESH_BLOCK * FRESH_BATCH as u64
    } else {
        plan.segment_batches * BATCH as u64
    });
    let end_to_end = pooled.end_to_end();
    for (m, value) in END_TO_END.iter().zip(end_to_end) {
        println!("{:<36} {value:>16.6} {}", m.name, m.unit);
    }

    let metrics: Vec<(&'static str, f64, &'static str)> = if opts.trace {
        let span_file = opts.out_dir.join(format!("trace-{}.json", opts.workload));
        std::fs::write(&span_file, tr.to_json())
            .map_err(|e| format!("write {}: {e}", span_file.display()))?;
        println!("spans     {} in {}", tr.spans().len(), span_file.display());
        println!(
            "{:<28} {:>9} {:>14} {:>14}",
            "span", "count", "total_us", "self_us"
        );
        for (name, fold) in fold_self_time(tr.spans()) {
            println!(
                "{name:<28} {:>9} {:>14.1} {:>14.1}",
                fold.count,
                fold.total_ns as f64 / 1e3,
                fold.self_ns as f64 / 1e3
            );
        }
        let rows = layer_rows(opts, &plan, &input, &rounds, &pooled, &tr)?;
        PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = row(&rows, name);
                println!("{name:<36} {value:>16.4} {unit}");
                (name, value, unit)
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .zip(end_to_end)
            .map(|(m, value)| (m.name, value, m.unit))
            .collect()
    };
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    println!(
        "gate {} every reported value is finite",
        if finite { "ok  " } else { "FAIL" }
    );
    failed += u64::from(!finite);

    println!("ops_attempted {attempted}");
    println!("ops_failed    {failed}");
    Ok(Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// The value of row `name` (`NaN` if no layer produced it, which fails
/// the finite gate).
fn row(rows: &Rows, name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .map_or(f64::NAN, |(_, v)| *v)
}

/// The per-layer table of a traced run: the replay's rows, then the rows
/// measured in situ, then the sums that tie them to `cpu_ns_per_tuple`.
fn layer_rows(
    opts: &Options,
    plan: &Plan,
    input: &Input,
    rounds: &[Round],
    pooled: &Pooled,
    tr: &Tracer,
) -> Res<Rows> {
    let mut rows: Rows = layers::replay(input)?;
    let wire = opts.workload.starts_with("wire_");
    let (rated, fresh) = (pooled.rated, pooled.fresh);
    let per_tuple = |ns: u64| ns as f64 / rated.tuples as f64;
    let traced_wall = tr.total_ns(if plan.bulk_segments == 0 {
        "fresh"
    } else {
        "segment"
    });
    let call_share = |name: &str| {
        if traced_wall == 0 {
            0.0
        } else {
            tr.total_ns(name) as f64 / traced_wall as f64
        }
    };
    let shards = rounds[0].pool_limit / (QUEUE_DEPTH as u64 + 4);
    let cpu_ns_per_tuple = quiet_time(&pooled.cpu_windows);

    // The replayed rows on the path of this workload's tuples. One
    // replica refresh is a clone and a merge per shard, then one
    // projection, one encode and one decode.
    let us = |name: &str| row(&rows, name) * 1e3;
    let refresh_ns = shards as f64 * (us("core.multi_clone_us") + us("core.multi_merge_us"))
        + us("core.slim_project_us")
        + us("core.slim_encode_us")
        + us("core.slim_decode_us");
    let path_rows: Vec<f64> = match opts.workload.as_str() {
        "inproc_full" => vec![
            row(&rows, "core.multi_update_ns_per_tuple"),
            row(&rows, "stream.push_ns_per_tuple"),
        ],
        "inproc_sampled" => vec![
            row(&rows, "core.sampled_update_ns_per_tuple"),
            row(&rows, "stream.push_ns_per_tuple"),
        ],
        "wire_bulk" => vec![
            row(&rows, "core.multi_update_ns_per_tuple"),
            row(&rows, "net.decode_ns_per_tuple"),
        ],
        // One refresh per 512-tuple write.
        _ => vec![
            row(&rows, "core.multi_update_ns_per_tuple"),
            row(&rows, "net.decode_ns_per_tuple"),
            refresh_ns / FRESH_BATCH as f64,
        ],
    };
    let path_sum: f64 = path_rows.iter().sum();
    let sketch_sum: f64 = [
        "sketch.fagms_update_ns_per_tuple",
        "sketch.topk_update_ns_per_tuple",
        "sketch.hll_update_ns_per_tuple",
        "sketch.kll_update_ns_per_tuple",
    ]
    .iter()
    .map(|r| row(&rows, r))
    .sum();
    let fresh_iters = ROUNDS * plan.fresh_blocks * FRESH_BLOCK;
    let wire_bytes = frame_bytes(
        BATCH,
        ROUNDS * plan.bulk_segments * plan.segment_batches,
        ROUNDS * plan.bulk_segments,
    ) + frame_bytes(FRESH_BATCH, fresh_iters, fresh_iters);
    let wire_tuples = ROUNDS * plan.bulk_segments * plan.segment_batches * BATCH as u64
        + fresh_iters * FRESH_BATCH as u64;
    let sum = |f: &dyn Fn(&Finals) -> u64| rounds.iter().map(|r| f(&r.finals)).sum::<u64>() as f64;
    let max = |f: &dyn Fn(&Round) -> f64| rounds.iter().map(f).fold(0.0, f64::max);

    rows.extend([
        (
            "sampling.kept_share",
            median(
                &rounds
                    .iter()
                    .map(|r| r.finals.kept_share)
                    .collect::<Vec<_>>(),
            ),
        ),
        ("stream.push_call_share", call_share("stream.push")),
        ("stream.worker_cpu_ns_per_tuple", per_tuple(rated.shard_cpu)),
        (
            "stream.pool_allocations_after_warmup",
            max(&|r| r.pool_growth as f64),
        ),
        ("stream.pool_reuses", sum(&|f| f.pool_reuses)),
        (
            "stream.queue_high_water",
            max(&|r| r.finals.queue_high_water as f64),
        ),
        ("stream.cache_hits", sum(&|f| f.cache_hits)),
        ("stream.cache_rebuilds", sum(&|f| f.cache_rebuilds)),
        (
            "net.ingest_cpu_ns_per_tuple",
            per_tuple(rated.net_ingest_cpu),
        ),
        (
            "net.query_cpu_us_per_query",
            fresh.net_query_cpu as f64 / 1e3 / (fresh_iters + pooled.side_reads) as f64,
        ),
        (
            "net.client_cpu_ns_per_tuple",
            if wire {
                per_tuple(rated.harness_cpu)
            } else {
                0.0
            },
        ),
        ("net.send_call_share", call_share("net.send_batch")),
        (
            "net.bytes_per_tuple",
            if wire {
                wire_bytes as f64 / wire_tuples as f64
            } else {
                0.0
            },
        ),
        ("net.protocol_errors", sum(&|f| f.protocol_errors)),
        ("query.p90_us", quiet_time(&pooled.block_p90)),
        ("query.p99_us", percentile(&pooled.sorted_latency, 0.99)),
        (
            "query.pooled_p50_us",
            percentile(&pooled.sorted_latency, 0.5),
        ),
        (
            "query.pooled_p90_us",
            percentile(&pooled.sorted_latency, 0.9),
        ),
        ("query.cpu_us", fresh.cpu as f64 / 1e3 / fresh_iters as f64),
        ("gen.keys_s", input.gen_s),
        ("proc.rss_peak_mb", max(&|r| r.rss_peak_mb)),
        ("ledger.segment_rate_median", median(&pooled.untraced)),
        ("ledger.segment_rate_iqr_share", iqr_share(&pooled.untraced)),
        (
            "ledger.worker_sum_ratio",
            sketch_sum / row(&rows, "core.multi_update_ns_per_tuple"),
        ),
        ("ledger.e2e_sum_ratio", path_sum / cpu_ns_per_tuple),
        (
            "ledger.unattributed_ns_per_tuple",
            cpu_ns_per_tuple - path_sum,
        ),
        (
            "ledger.trace_overhead_share",
            1.0 - median(&rates_where(&pooled.rates, true)) / median(&pooled.untraced),
        ),
    ]);
    println!(
        "ledger    path rows {path_rows:.1?} ns + unattributed {:.1} ns = cpu_ns_per_tuple {cpu_ns_per_tuple:.1} ns",
        cpu_ns_per_tuple - path_sum
    );
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_bytes_follow_the_protocol() {
        // [u32 len][u8 type][u32 count][keys…] and [u32 len][u8 type][u64].
        assert_eq!(frame_bytes(512, 1, 0), 4 + 1 + 4 + 8 * 512);
        assert_eq!(frame_bytes(512, 0, 1), 4 + 1 + 8);
        assert_eq!(frame_bytes(4096, 3, 2), 3 * (9 + 8 * 4096) + 2 * 13);
    }

    #[test]
    fn work_is_a_fixed_function_of_seconds() {
        let a = Plan::of("inproc_full", 16, false).unwrap();
        let b = Plan::of("inproc_full", 16, false).unwrap();
        assert_eq!(a.bulk_segments, b.bulk_segments);
        assert_eq!(a.fresh_blocks, b.fresh_blocks);
        // R4: at least 80 segments and 5000 iterations in a run.
        for w in crate::metrics::WORKLOADS {
            let p = Plan::of(w, 16, false).unwrap();
            let segments = if p.bulk_segments == 0 {
                p.fresh_blocks
            } else {
                p.bulk_segments
            };
            assert!(ROUNDS * segments >= 80, "{w}: {segments} segments a round");
            assert!(ROUNDS * p.fresh_blocks * FRESH_BLOCK >= 5000, "{w}");
        }
        assert_eq!(Plan::of("wire_fresh", 16, false).unwrap().bulk_segments, 0);
        let smoke = Plan::of("inproc_full", 16, true).unwrap();
        assert!(smoke.bulk_segments * 8 <= a.bulk_segments);
        assert!(Plan::of("nope", 16, false).is_none());
        // Every batch length keeps the stream on grain boundaries.
        assert_eq!(BATCH % GRAIN, 0);
        assert_eq!(BLOCK % BATCH, 0);
    }

    #[test]
    fn phase_cost_splits_threads_by_name() {
        let snap = |shard: u64, ingest: u64, harness: u64, at: Instant| CpuSnapshot {
            threads: vec![
                ("sss-shard-0".to_string(), shard),
                ("sss-net-ingest".to_string(), ingest),
                ("sss".to_string(), 1),
            ],
            harness,
            at,
        };
        let t = Instant::now();
        let cost = PhaseCost::between(&snap(10, 20, 5, t), &snap(110, 50, 9, t), 10);
        assert_eq!(cost.shard_cpu, 100);
        assert_eq!(cost.net_ingest_cpu, 30);
        assert_eq!(cost.net_query_cpu, 0);
        assert_eq!(cost.cpu, 130);
        assert_eq!(cost.harness_cpu, 4);
    }

    #[test]
    fn outcome_is_one_json_object() {
        let o = Outcome {
            correct: true,
            attempted: 7,
            failed: 0,
            metrics: vec![("setup_s", 1.25, "s"), ("query_p50_us", 80.5, "us")],
        };
        assert_eq!(
            o.json(),
            "{\"correct\":true,\"attempted\":7,\"failed\":0,\"metrics\":{\
             \"setup_s\":{\"value\":1.25,\"unit\":\"s\"},\
             \"query_p50_us\":{\"value\":80.5,\"unit\":\"us\"}}}"
        );
    }
}
