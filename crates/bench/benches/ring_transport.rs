//! Microbenchmarks of the SPSC ring transport underneath the sharded
//! runtime.
//!
//! Two cases isolate the layers the runtime composes:
//!
//! * `spsc_uncontended` — one thread pushes and pops `u64`s through a
//!   [`ring`](sss_stream::ring::ring): the raw slot protocol (two atomic
//!   cursor updates per element, no parking).
//! * `spsc_cross_thread` — a producer thread streams batches of keys to
//!   a consumer thread through the ring while a recycle ring returns
//!   buffers, the exact buffer circulation of the runtime's ingest lane:
//!   steady state allocates nothing.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sss_stream::ring::ring;
use std::hint::black_box;
use std::thread;

const DEPTH: usize = 8;
const BATCH: usize = 4_096;
const BATCHES: usize = 64;

fn spsc_uncontended(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_transport");
    group.throughput(Throughput::Elements((DEPTH * 64) as u64));
    group.bench_function("spsc_uncontended", |b| {
        let (mut tx, mut rx) = ring::<u64>(DEPTH);
        b.iter(|| {
            for round in 0..64u64 {
                for i in 0..DEPTH as u64 {
                    tx.try_push(round * DEPTH as u64 + i).expect("has room");
                }
                for _ in 0..DEPTH {
                    black_box(rx.try_pop().expect("has elements"));
                }
            }
        })
    });
    group.finish();
}

fn spsc_cross_thread(c: &mut Criterion) {
    let mut group = c.benchmark_group("ring_transport");
    group.throughput(Throughput::Elements((BATCHES * BATCH) as u64));
    group.bench_function("spsc_cross_thread", |b| {
        b.iter(|| {
            let (mut data_tx, mut data_rx) = ring::<Vec<u64>>(DEPTH);
            let (mut recycle_tx, mut recycle_rx) = ring::<Vec<u64>>(DEPTH + 2);
            let consumer = thread::spawn(move || {
                let mut sum = 0u64;
                while let Some(mut buf) = data_rx.pop() {
                    sum += buf.iter().sum::<u64>();
                    buf.clear();
                    let _ = recycle_tx.try_push(buf);
                }
                sum
            });
            let mut spare: Vec<Vec<u64>> = Vec::new();
            for round in 0..BATCHES as u64 {
                let mut buf = spare
                    .pop()
                    .or_else(|| recycle_rx.try_pop())
                    .unwrap_or_else(|| Vec::with_capacity(BATCH));
                buf.extend((0..BATCH as u64).map(|i| round + i));
                data_tx.push(buf).expect("consumer alive");
                if let Some(returned) = recycle_rx.try_pop() {
                    spare.push(returned);
                }
            }
            drop(data_tx);
            black_box(consumer.join().expect("consumer exits cleanly"))
        })
    });
    group.finish();
}

criterion_group!(ring_transport, spsc_uncontended, spsc_cross_thread);
criterion_main!(ring_transport);
