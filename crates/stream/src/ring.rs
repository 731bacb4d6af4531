//! Lock-free single-producer/single-consumer ring buffers — the ingest
//! transport under [`ShardedRuntime`](crate::ShardedRuntime).
//!
//! Every shard lane is a pair of these rings: a *data* ring carrying
//! filled batch buffers producer → worker, and a *recycle* ring carrying
//! the emptied buffers back, so the steady-state ingest path performs
//! **zero heap allocations per batch**. Compared to the
//! `std::sync::mpsc::sync_channel` transport this replaces, a push or pop
//! is a handful of atomic operations on cache-line-padded cursors instead
//! of a mutex/futex round-trip, and wakeups only happen when the peer has
//! actually escalated its [`Backoff`] to a park.
//!
//! # Memory model
//!
//! The ring is the textbook SPSC design: a power-of-two slot array with
//! two monotonically increasing cursors.
//!
//! * The **producer** owns `tail`: it writes the slot at `tail & mask`,
//!   then publishes with a `Release` store of `tail + 1`. The consumer's
//!   `Acquire` load of `tail` therefore observes the slot write
//!   (release/acquire pairing on `tail`).
//! * The **consumer** owns `head`: it reads the slot at `head & mask`,
//!   then releases it with a `Release` store of `head + 1`. The
//!   producer's `Acquire` load of `head` therefore knows the slot is free
//!   before reusing it.
//! * Each side keeps a **shadow copy** of the cursor it does not own and
//!   refreshes it only when the ring looks full/empty, so the fast path
//!   touches a single shared cache line instead of two.
//! * The cursors live in `CachePadded` cells (128-byte aligned — two
//!   64-byte lines, covering adjacent-line prefetchers) so producer and
//!   consumer never false-share.
//!
//! Waiting escalates spin → yield → park ([`Backoff`]): a short
//! exponential spin for the "peer is mid-operation" case, a few
//! `yield_now`s for the "peer needs the core" case (this matters on the
//! single-core hosts the benches document), then a real `park_timeout`
//! behind a [`Parker`] handshake. The park protocol is the standard
//! flag-then-recheck dance: the waiter publishes `parked = true`
//! (SeqCst), re-checks the condition, and only then parks; the waker
//! performs its state change first and then swaps `parked` to false,
//! unparking on observation. Either the waiter's re-check sees the state
//! change or the waker sees the flag — both racing stores are
//! sequentially consistent — so no wakeup is lost. The park still uses a
//! 1 ms timeout as a belt-and-braces bound, never for correctness: the
//! tests stretch it to 10 s, so a lost wakeup stalls them instead of
//! costing a millisecond.
//!
//! This module is the **only** unsafe code in the crate (`unsafe` is
//! denied crate-wide and allowed here, mirroring the SIMD kernel policy
//! of `sss-xi`): the unsafety is confined to slot reads/writes through
//! `UnsafeCell<MaybeUninit<T>>` justified by the cursor discipline above,
//! and to the `Send`/`Sync` impls stating that discipline. Everything
//! above this module (lanes, snapshot cache, runtime) is safe code. Run
//! the tests under Miri with `cargo +nightly miri test -p sss-stream
//! ring` where a nightly toolchain is available (the threaded tests
//! shrink their iteration counts under `cfg(miri)`).

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::Thread;
use std::time::Duration;

/// Pad-and-align wrapper keeping producer and consumer cursors on
/// different cache lines (128 bytes: two 64-byte lines, so adjacent-line
/// prefetching cannot re-introduce false sharing).
#[repr(align(128))]
struct CachePadded<T>(T);

/// How long one park lasts unless woken: a safety net, never the wake-up
/// a waiter relies on.
const PARK_TIMEOUT: Duration = Duration::from_millis(1);

/// One side's park/unpark slot. See the module docs for the lost-wakeup
/// argument; the `Mutex` guards only the `Thread` handle registration and
/// is touched exclusively on the park slow path.
#[derive(Debug)]
pub struct Parker {
    parked: AtomicBool,
    thread: Mutex<Option<Thread>>,
    /// [`PARK_TIMEOUT`], except in tests that make a lost wakeup stall.
    timeout: Duration,
}

impl Default for Parker {
    fn default() -> Self {
        Self::new(PARK_TIMEOUT)
    }
}

impl Parker {
    fn new(timeout: Duration) -> Self {
        Self {
            parked: AtomicBool::new(false),
            thread: Mutex::new(None),
            timeout,
        }
    }

    /// Park the current thread until [`Parker::wake`] or the safety-net
    /// timeout. `ready` is re-checked *after* the `parked` flag is
    /// published, closing the race window against a concurrent waker.
    fn park(&self, ready: impl Fn() -> bool) {
        *self.thread.lock().expect("parker registration") = Some(std::thread::current());
        self.parked.store(true, Ordering::SeqCst);
        // Dekker handshake, waiter side: the `parked` publication must be
        // globally ordered against the peer's condition write *before*
        // `ready` reads that condition. The peer's cursor stores are only
        // Release and `ready`'s loads only Acquire, which do not join the
        // SeqCst total order — without this fence (and its twin in
        // [`Parker::wake`]) both sides can read stale values: the pusher
        // sees "not parked" (skips the unpark) while we see the old
        // cursor (park anyway) and eat the full safety-net timeout.
        std::sync::atomic::fence(Ordering::SeqCst);
        if ready() {
            self.parked.store(false, Ordering::SeqCst);
            return;
        }
        std::thread::park_timeout(self.timeout);
        self.parked.store(false, Ordering::SeqCst);
    }

    /// Wake the parked peer, if there is one. Cheap when nobody is parked
    /// (a fence plus one atomic load).
    pub fn wake(&self) {
        // Dekker handshake, waker side: order the caller's preceding
        // condition write (a Release cursor store) before the `parked`
        // read. Paired with the fence in [`Parker::park`], at least one
        // side is guaranteed to see the other's store — the lost-wakeup
        // case where both read stale is impossible.
        std::sync::atomic::fence(Ordering::SeqCst);
        if self.parked.load(Ordering::SeqCst) && self.parked.swap(false, Ordering::SeqCst) {
            if let Some(t) = self.thread.lock().expect("parker registration").clone() {
                t.unpark();
            }
        }
    }
}

/// Escalating wait strategy: exponential spin, then yields, then parks.
///
/// Reset it whenever progress is made so the next stall starts cheap.
#[derive(Debug)]
pub struct Backoff {
    step: u32,
}

/// 2⁰..2⁵ `spin_loop` hints before the first yield. Deliberately short:
/// on a single-core host a spinning producer only delays the worker it is
/// waiting for.
const SPIN_STEPS: u32 = 6;
/// Yields between spinning and the first park.
const YIELD_STEPS: u32 = 4;

impl Backoff {
    /// A fresh (fully patient) backoff.
    pub fn new() -> Self {
        Self { step: 0 }
    }

    /// Record progress: the next stall starts from the cheap end.
    pub fn reset(&mut self) {
        self.step = 0;
    }

    /// Wait one escalation step. `parker` is this thread's park slot and
    /// `ready` the wake condition re-checked before a real park.
    pub fn snooze(&mut self, parker: &Parker, ready: impl Fn() -> bool) {
        if self.step < SPIN_STEPS {
            for _ in 0..(1u32 << self.step) {
                std::hint::spin_loop();
            }
        } else if self.step < SPIN_STEPS + YIELD_STEPS {
            std::thread::yield_now();
        } else {
            parker.park(ready);
        }
        self.step = self.step.saturating_add(1);
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Self::new()
    }
}

/// The state shared by a [`Producer`]/[`Consumer`] pair.
struct Shared<T> {
    /// Power-of-two slot array; a slot is initialized iff its index is in
    /// `head..tail` (the cursor discipline the unsafe blocks rely on).
    slots: Box<[UnsafeCell<MaybeUninit<T>>]>,
    /// `slots.len() - 1`, for cheap index masking.
    mask: usize,
    /// Logical capacity (≤ `slots.len()`): the exact bound the runtime's
    /// `queue_depth` semantics promise, independent of the power-of-two
    /// rounding.
    capacity: usize,
    /// Next slot the consumer will read. Written only by the consumer.
    head: CachePadded<AtomicUsize>,
    /// Next slot the producer will write. Written only by the producer.
    tail: CachePadded<AtomicUsize>,
    /// Set when either side drops; the other side observes it instead of
    /// blocking forever.
    closed: AtomicBool,
    /// Park slot of a producer blocked on a full ring.
    producer: Parker,
    /// Park slot of a consumer blocked on an empty ring, or of the one
    /// thread waiting on it through a [`Watch`].
    consumer: Parker,
}

// SAFETY: the ring moves `T` values across threads (so `T: Send` is
// required), and the only shared mutable state — the slot array — is
// partitioned by the head/tail cursor discipline: the producer writes
// only slots outside `head..tail`, the consumer reads only slots inside
// it, and each handoff is ordered by a Release store / Acquire load on
// the corresponding cursor. The atomics and the parker mutex are
// themselves thread-safe.
#[allow(unsafe_code)]
unsafe impl<T: Send> Send for Shared<T> {}
#[allow(unsafe_code)]
unsafe impl<T: Send> Sync for Shared<T> {}

impl<T> Drop for Shared<T> {
    fn drop(&mut self) {
        // Both handles are gone (`&mut self` proves it), so plain loads
        // suffice and every slot in `head..tail` is initialized.
        let mut head = *self.head.0.get_mut();
        let tail = *self.tail.0.get_mut();
        while head != tail {
            // SAFETY: `head..tail` slots hold initialized values that no
            // other thread can touch any more.
            #[allow(unsafe_code)]
            unsafe {
                (*self.slots[head & self.mask].get()).assume_init_drop();
            }
            head = head.wrapping_add(1);
        }
    }
}

/// A failed [`Producer::try_push`], handing the value back.
#[derive(Debug, PartialEq, Eq)]
pub enum PushError<T> {
    /// The ring is at capacity; the caller decides whether to retry,
    /// block, or route the value elsewhere (the runtime's overflow leg).
    Full(T),
    /// The consumer is gone; no push can ever succeed again.
    Closed(T),
}

impl<T> PushError<T> {
    /// The value that could not be pushed.
    pub fn into_inner(self) -> T {
        match self {
            PushError::Full(v) | PushError::Closed(v) => v,
        }
    }
}

/// The sending half of an SPSC ring. Not cloneable — the *single*
/// producer is enforced by ownership.
pub struct Producer<T> {
    shared: Arc<Shared<T>>,
    /// Shadow of `head`, refreshed only when the ring looks full.
    cached_head: usize,
}

/// The receiving half of an SPSC ring. Not cloneable — the *single*
/// consumer is enforced by ownership.
pub struct Consumer<T> {
    shared: Arc<Shared<T>>,
    /// Shadow of `tail`, refreshed only when the ring looks empty.
    cached_tail: usize,
}

/// Create a bounded SPSC ring holding at most `capacity` values.
///
/// # Panics
///
/// If `capacity` is zero (a zero-capacity ring could never transfer a
/// value without a rendezvous, which an SPSC ring cannot express).
pub fn ring<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    parking_ring(capacity, PARK_TIMEOUT)
}

/// [`ring`], with both sides' parks lasting `park_timeout` unless woken.
fn parking_ring<T>(capacity: usize, park_timeout: Duration) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be at least 1");
    let slots = capacity.next_power_of_two();
    let shared = Arc::new(Shared {
        slots: (0..slots)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect(),
        mask: slots - 1,
        capacity,
        head: CachePadded(AtomicUsize::new(0)),
        tail: CachePadded(AtomicUsize::new(0)),
        closed: AtomicBool::new(false),
        producer: Parker::new(park_timeout),
        consumer: Parker::new(park_timeout),
    });
    (
        Producer {
            shared: Arc::clone(&shared),
            cached_head: 0,
        },
        Consumer {
            shared,
            cached_tail: 0,
        },
    )
}

impl<T> Producer<T> {
    /// Push without blocking. On a full ring or a hung-up consumer the
    /// value comes back in the error.
    pub fn try_push(&mut self, value: T) -> Result<(), PushError<T>> {
        let s = &*self.shared;
        if s.closed.load(Ordering::Acquire) {
            return Err(PushError::Closed(value));
        }
        // Only this thread writes `tail`, so a relaxed load is exact.
        let tail = s.tail.0.load(Ordering::Relaxed);
        if tail.wrapping_sub(self.cached_head) >= s.capacity {
            self.cached_head = s.head.0.load(Ordering::Acquire);
            if tail.wrapping_sub(self.cached_head) >= s.capacity {
                return Err(PushError::Full(value));
            }
        }
        // SAFETY: `tail - head < capacity ≤ slots.len()`, so this slot is
        // outside `head..tail` — the consumer will not touch it until the
        // Release store below publishes it.
        #[allow(unsafe_code)]
        unsafe {
            (*s.slots[tail & s.mask].get()).write(value);
        }
        s.tail.0.store(tail.wrapping_add(1), Ordering::Release);
        s.consumer.wake();
        Ok(())
    }

    /// Push, blocking (spin → yield → park) while the ring is full.
    /// Returns the value if the consumer is gone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        let mut value = value;
        let mut backoff = Backoff::new();
        loop {
            match self.try_push(value) {
                Ok(()) => return Ok(()),
                Err(PushError::Closed(v)) => return Err(v),
                Err(PushError::Full(v)) => value = v,
            }
            let s = &*self.shared;
            backoff.snooze(&s.producer, || {
                s.closed.load(Ordering::SeqCst)
                    || s.tail
                        .0
                        .load(Ordering::Relaxed)
                        .wrapping_sub(s.head.0.load(Ordering::SeqCst))
                        < s.capacity
            });
        }
    }

    /// Values currently in the ring.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .0
            .load(Ordering::Relaxed)
            .wrapping_sub(s.head.0.load(Ordering::Acquire))
    }

    /// Whether the ring holds no values right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The logical capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.shared.capacity
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.consumer.wake();
    }
}

impl<T> Consumer<T> {
    /// Pop without blocking; `None` when the ring is empty (closed or
    /// not — a closed ring still drains).
    pub fn try_pop(&mut self) -> Option<T> {
        let s = &*self.shared;
        // Only this thread writes `head`, so a relaxed load is exact.
        let head = s.head.0.load(Ordering::Relaxed);
        if self.cached_tail == head {
            self.cached_tail = s.tail.0.load(Ordering::Acquire);
            if self.cached_tail == head {
                return None;
            }
        }
        // SAFETY: `head < tail`, so this slot holds a value the producer
        // published with the Release store our Acquire load paired with;
        // the producer will not reuse it until the Release store below.
        #[allow(unsafe_code)]
        let value = unsafe { (*s.slots[head & s.mask].get()).assume_init_read() };
        s.head.0.store(head.wrapping_add(1), Ordering::Release);
        s.producer.wake();
        Some(value)
    }

    /// Pop, blocking (spin → yield → park) while the ring is empty.
    /// `None` only when the producer is gone **and** the ring is drained.
    pub fn pop(&mut self) -> Option<T> {
        let mut backoff = Backoff::new();
        loop {
            if let Some(v) = self.try_pop() {
                return Some(v);
            }
            if self.shared.closed.load(Ordering::SeqCst) {
                // The producer may have pushed right before hanging up:
                // one more check after observing `closed`.
                return self.try_pop();
            }
            let s = &*self.shared;
            backoff.snooze(&s.consumer, || {
                s.closed.load(Ordering::SeqCst)
                    || s.tail.0.load(Ordering::Acquire) != s.head.0.load(Ordering::Relaxed)
            });
        }
    }

    /// Whether the producer has hung up (the ring may still hold values).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Values currently in the ring.
    pub fn len(&self) -> usize {
        let s = &*self.shared;
        s.tail
            .0
            .load(Ordering::Acquire)
            .wrapping_sub(s.head.0.load(Ordering::Relaxed))
    }

    /// Whether the ring holds no values right now.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A lock-free look at this ring for a thread that does not hold the
    /// consumer (see [`Watch`]).
    pub fn watch(&self) -> Watch<T> {
        Watch {
            shared: Arc::clone(&self.shared),
        }
    }
}

/// A lock-free look at a ring whose [`Consumer`] sits behind a lock that
/// several threads take in turn: whether a value waits, whether the
/// producer hung up, and the consumer side's park slot to wait on until
/// either changes. The runtime's shard worker checks its data ring
/// through one before it takes the shard lock, so an idle worker never
/// touches that lock.
pub struct Watch<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Watch<T> {
    /// Whether the ring holds no values right now.
    pub fn is_empty(&self) -> bool {
        let s = &*self.shared;
        s.tail.0.load(Ordering::Acquire) == s.head.0.load(Ordering::Acquire)
    }

    /// Whether either side has hung up (the ring may still hold values).
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::SeqCst)
    }

    /// Wait one step of `backoff` for a value or a hang-up. Only one
    /// thread may wait on a ring's consumer side.
    pub fn snooze(&self, backoff: &mut Backoff) {
        backoff.snooze(&self.shared.consumer, || {
            self.is_closed() || !self.is_empty()
        });
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::SeqCst);
        self.shared.producer.wake();
    }
}

impl<T> std::fmt::Debug for Producer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Producer")
            .field("len", &self.len())
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl<T> std::fmt::Debug for Consumer<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ring::Consumer")
            .field("len", &self.len())
            .field("closed", &self.is_closed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;
    use std::sync::atomic::AtomicU64;

    /// Iteration counts shrink under Miri (it interprets every memory
    /// access; the point there is the memory model, not throughput).
    const STRESS: u64 = if cfg!(miri) { 300 } else { 200_000 };

    #[test]
    fn fifo_order_and_capacity_single_thread() {
        let (mut tx, mut rx) = ring::<u64>(3);
        assert_eq!(tx.capacity(), 3);
        assert!(rx.try_pop().is_none(), "fresh ring is empty");
        assert!(tx.try_push(1).is_ok());
        assert!(tx.try_push(2).is_ok());
        assert!(tx.try_push(3).is_ok());
        match tx.try_push(4) {
            Err(PushError::Full(4)) => {}
            other => panic!("expected Full(4), got {other:?}"),
        }
        assert_eq!(rx.try_pop(), Some(1));
        assert!(tx.try_push(4).is_ok(), "slot freed by the pop");
        assert_eq!(rx.try_pop(), Some(2));
        assert_eq!(rx.try_pop(), Some(3));
        assert_eq!(rx.try_pop(), Some(4));
        assert!(rx.try_pop().is_none());
    }

    /// Wrap the cursors around the slot array many times; order and
    /// occupancy stay exact (exercises the masking arithmetic).
    #[test]
    fn wraparound_preserves_order_and_occupancy() {
        let (mut tx, mut rx) = ring::<u64>(5); // slots rounded to 8
        let mut next_in = 0u64;
        let mut next_out = 0u64;
        for round in 0..if cfg!(miri) { 40 } else { 10_000 } {
            let burst = (round % 5) + 1;
            for _ in 0..burst {
                tx.try_push(next_in).unwrap();
                next_in += 1;
            }
            assert!(tx.len() <= 5, "occupancy within logical capacity");
            for _ in 0..burst {
                assert_eq!(rx.try_pop(), Some(next_out));
                next_out += 1;
            }
        }
        assert!(rx.is_empty());
    }

    /// The threaded contract: every value arrives exactly once, in order,
    /// across a tiny ring that forces constant blocking on both sides.
    #[test]
    fn spsc_threads_deliver_everything_in_order() {
        let (mut tx, mut rx) = ring::<u64>(2);
        let producer = std::thread::spawn(move || {
            for i in 0..STRESS {
                tx.push(i).expect("consumer alive");
            }
            // Dropping tx closes the ring.
        });
        let mut expect = 0u64;
        while let Some(v) = rx.pop() {
            assert_eq!(v, expect);
            expect += 1;
        }
        assert_eq!(expect, STRESS, "every pushed value was popped");
        producer.join().unwrap();
    }

    /// Dropping the consumer makes pushes fail with the value handed
    /// back; dropping the producer lets the consumer drain then end.
    #[test]
    fn close_semantics_both_directions() {
        // Consumer hangs up first.
        let (mut tx, rx) = ring::<String>(4);
        tx.try_push("a".into()).unwrap();
        drop(rx);
        assert_eq!(tx.push("b".into()), Err("b".to_string()));
        match tx.try_push("c".into()) {
            Err(PushError::Closed(v)) => assert_eq!(v, "c"),
            other => panic!("expected Closed, got {other:?}"),
        }

        // Producer hangs up first: the ring still drains.
        let (mut tx, mut rx) = ring::<u64>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        assert!(rx.is_closed());
        assert_eq!(rx.pop(), Some(1));
        assert_eq!(rx.pop(), Some(2));
        assert_eq!(rx.pop(), None, "closed and drained");
    }

    /// Values still in the ring when both handles drop are dropped
    /// exactly once (the `Shared::drop` cleanup loop).
    #[test]
    fn dropping_a_nonempty_ring_drops_contents_exactly_once() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        #[derive(Debug)]
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        DROPS.store(0, Ordering::SeqCst);
        let (mut tx, mut rx) = ring::<Counted>(8);
        for _ in 0..5 {
            tx.try_push(Counted).unwrap();
        }
        drop(rx.try_pop()); // one popped and dropped by us
        drop(tx);
        drop(rx); // four remain in the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// A parked consumer is woken by a push and a parked producer by a
    /// pop — stalls on both sides, no lost wakeups, everything arrives.
    #[test]
    fn park_and_wake_across_stalls() {
        let rounds = if cfg!(miri) { 20 } else { 400 };
        let (mut tx, mut rx) = ring::<u64>(1);
        let consumer = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = rx.pop() {
                got.push(v);
                if v % 7 == 0 {
                    // Let the producer fill the ring and park.
                    std::thread::sleep(Duration::from_micros(200));
                }
            }
            got
        });
        for i in 0..rounds {
            if i % 5 == 0 {
                // Let the consumer drain the ring and park.
                std::thread::sleep(Duration::from_micros(200));
            }
            tx.push(i).unwrap();
        }
        drop(tx);
        let got = consumer.join().unwrap();
        assert_eq!(got, (0..rounds).collect::<Vec<_>>());
    }

    /// A thread waiting through a [`Watch`] is woken by a push even
    /// though the consumer it pops with sits behind a mutex.
    #[test]
    fn a_watch_wakes_on_a_push_to_a_locked_consumer() {
        let (mut tx, rx) = ring::<u64>(4);
        let watch = rx.watch();
        let rx = Arc::new(Mutex::new(rx));
        let worker_rx = Arc::clone(&rx);
        let worker = std::thread::spawn(move || {
            let mut backoff = Backoff::new();
            while watch.is_empty() {
                watch.snooze(&mut backoff);
            }
            worker_rx.lock().unwrap().try_pop()
        });
        // Give the worker time to escalate all the way to parking.
        std::thread::sleep(Duration::from_millis(if cfg!(miri) { 1 } else { 20 }));
        tx.try_push(7).unwrap();
        assert_eq!(worker.join().unwrap(), Some(7));
        drop(tx);
        assert!(rx.lock().unwrap().watch().is_closed());
    }

    /// SplitMix64 stepping `state`: a tiny deterministic RNG.
    fn next(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A seeded pause: nothing, a yield, or a sleep of up to 200 µs.
    fn pause(state: &mut u64) {
        match next(state) % 10 {
            0..=4 => {}
            5..=7 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(next(state) % 200)),
        }
    }

    /// The runtime's shard worker over a bare ring: wait on an empty
    /// ring, then drain what is queued (the worker's run) and `pause`.
    fn drain_like_a_shard_worker(mut rx: Consumer<u64>, mut pause: impl FnMut()) -> Vec<u64> {
        let watch = rx.watch();
        let mut backoff = Backoff::new();
        let mut got = Vec::new();
        loop {
            let closed = watch.is_closed();
            if watch.is_empty() {
                if closed {
                    return got;
                }
                watch.snooze(&mut backoff);
                continue;
            }
            while let Some(v) = rx.try_pop() {
                got.push(v);
            }
            backoff.reset();
            pause();
        }
    }

    /// The park/wake handshake under seeded interleavings: a park here
    /// lasts 10 s unless woken, so a lost wakeup — of the consumer parked
    /// on an empty ring, or of the producer parked on a full one — stalls
    /// the run past its bound, while every value still arrives once and in
    /// order. A capacity-1 ring is full after every push, so there the
    /// producer's park is exercised as often as the consumer's.
    #[test]
    fn parks_lose_no_wakeup_under_seeded_interleavings() {
        let stall = Duration::from_secs(10);
        let values = if cfg!(miri) { 30 } else { 1_000 };
        let start = std::time::Instant::now();
        for seed in 0..if cfg!(miri) { 1 } else { 6 } {
            for capacity in [1usize, 2, 5] {
                let case = format!("seed {seed}, capacity {capacity}");
                let (mut tx, rx) = parking_ring::<u64>(capacity, stall);
                let mut consumer_rng = seed ^ 0xc0ff_ee00;
                let consumer = std::thread::spawn(move || {
                    drain_like_a_shard_worker(rx, move || pause(&mut consumer_rng))
                });
                let mut producer_rng = seed;
                for v in 0..values {
                    pause(&mut producer_rng);
                    tx.push(v).expect("consumer alive");
                    // Unwinding drops `tx`, which wakes the consumer.
                    assert!(start.elapsed() < stall / 2, "{case}: a wakeup was lost");
                }
                drop(tx);
                let got = consumer.join().unwrap();
                assert_eq!(got, (0..values).collect::<Vec<_>>(), "{case}");
            }
        }
    }

    /// Model-based check: a random push/pop interleaving agrees with a
    /// `VecDeque` oracle at every step (single-threaded, so the oracle is
    /// exact). Skipped under Miri — the threaded tests cover the memory
    /// model there; this one checks the cursor arithmetic.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn random_ops_match_a_vecdeque_model() {
        // SplitMix64 as a tiny deterministic RNG.
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut rand = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        for capacity in [1usize, 2, 3, 7, 8] {
            let (mut tx, mut rx) = ring::<u64>(capacity);
            let mut model: VecDeque<u64> = VecDeque::new();
            let mut next = 0u64;
            for _ in 0..20_000 {
                if rand() % 2 == 0 {
                    match tx.try_push(next) {
                        Ok(()) => {
                            assert!(model.len() < capacity, "push succeeded past capacity");
                            model.push_back(next);
                            next += 1;
                        }
                        Err(PushError::Full(_)) => {
                            assert_eq!(model.len(), capacity, "spurious Full");
                        }
                        Err(PushError::Closed(_)) => unreachable!("never closed here"),
                    }
                } else {
                    assert_eq!(rx.try_pop(), model.pop_front());
                }
                assert_eq!(tx.len(), model.len());
                assert_eq!(rx.len(), model.len());
            }
        }
    }
}
