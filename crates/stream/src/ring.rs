//! Bounded rings, the ingest transport under
//! [`ShardedRuntime`](crate::ShardedRuntime): each shard lane is a *data*
//! ring carrying batch buffers to the worker and a *recycle* ring carrying
//! them back emptied. A ring is a `VecDeque` behind one `Mutex`, with a
//! `closed` flag and two `Condvar`s: a batch holds hundreds of keys or
//! more, so one short lock per push or pop is noise beside the sketching.
//!
//! Two calls block: [`Producer::push`] on a full ring and [`Watch::wait`]
//! on an empty one. Each records under the lock that it waits, and the
//! other side notifies only then, clearing the flag: a futex `notify_one`
//! is a system call even when nobody waits. No wait has a timeout, so an
//! idle worker sleeps until a batch or a hang-up. Dropping either handle
//! closes the ring and wakes both sides. One thread at most may block on
//! each side.
//!
//! [`Producer::push_deferred`] leaves a sleeping consumer asleep, so a
//! producer that pushes several values, or that may pop them itself, pays
//! one wake-up for all of them ([`Producer::wake`]), or none. A full ring
//! still wakes the consumer before the producer sleeps on it.

use std::collections::VecDeque;
use std::mem::take;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A ring's queue and flags, all under its one lock.
struct State<T> {
    queue: VecDeque<T>,
    /// Set when either handle drops.
    closed: bool,
    /// A producer sleeps in [`Producer::push`] until a pop or a hang-up.
    producer_waits: bool,
    /// A [`Watch`] sleeps in [`Watch::wait`] until a push or a hang-up.
    consumer_waits: bool,
}

/// The state shared by a [`Producer`], a [`Consumer`] and its [`Watch`]es.
struct Shared<T> {
    state: Mutex<State<T>>,
    capacity: usize,
    /// Signalled while `producer_waits`.
    not_full: Condvar,
    /// Signalled while `consumer_waits`.
    not_empty: Condvar,
}

impl<T> Shared<T> {
    /// Lock the ring, recovering from poison: no code under the lock can
    /// leave the queue or the flags half-changed.
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Mark the ring closed and wake whichever side sleeps.
    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        notify_if(take(&mut state.producer_waits), &self.not_full);
        notify_if(take(&mut state.consumer_waits), &self.not_empty);
    }
}

/// Wake the sleeper on `condvar` if `waits`, the flag it set, was up.
fn notify_if(waits: bool, condvar: &Condvar) {
    if waits {
        condvar.notify_one();
    }
}

/// The sending half of a ring. Not cloneable: one producer per ring.
pub struct Producer<T>(Arc<Shared<T>>);

/// The receiving half of a ring. Not cloneable: one consumer per ring.
pub struct Consumer<T>(Arc<Shared<T>>);

/// Create a ring holding at most `capacity` values, at least one.
pub fn bounded<T>(capacity: usize) -> (Producer<T>, Consumer<T>) {
    assert!(capacity > 0, "ring capacity must be at least 1");
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity),
            closed: false,
            producer_waits: false,
            consumer_waits: false,
        }),
        capacity,
        not_full: Condvar::new(),
        not_empty: Condvar::new(),
    });
    (Producer(Arc::clone(&shared)), Consumer(shared))
}

impl<T> Producer<T> {
    /// Push without blocking. On a full ring or a hung-up consumer the
    /// value comes back.
    pub fn try_push(&mut self, value: T) -> Result<(), T> {
        let state = self.0.lock();
        if state.closed || state.queue.len() >= self.0.capacity {
            return Err(value);
        }
        self.append(state, value, true);
        Ok(())
    }

    /// Push, sleeping while the ring is full. The value comes back if the
    /// consumer is gone.
    pub fn push(&mut self, value: T) -> Result<(), T> {
        self.push_waking(value, true)
    }

    /// [`push`](Self::push), but a consumer sleeping on the ring is left
    /// asleep unless the ring is full: then it is woken before the
    /// producer sleeps, so the producer never waits on a ring nobody
    /// drains. [`wake`](Self::wake) wakes it for what is queued.
    pub fn push_deferred(&mut self, value: T) -> Result<(), T> {
        self.push_waking(value, false)
    }

    /// Wake a consumer sleeping on the ring if a value waits for it.
    pub fn wake(&self) {
        let mut state = self.0.lock();
        let consumer = !state.queue.is_empty() && take(&mut state.consumer_waits);
        drop(state);
        notify_if(consumer, &self.0.not_empty);
    }

    fn push_waking(&mut self, value: T, wake: bool) -> Result<(), T> {
        let s = &*self.0;
        let full = |state: &mut State<T>| {
            state.producer_waits = !state.closed && state.queue.len() >= s.capacity;
            if state.producer_waits {
                notify_if(take(&mut state.consumer_waits), &s.not_empty);
            }
            state.producer_waits
        };
        let state = s.not_full.wait_while(s.lock(), full);
        let state = state.unwrap_or_else(PoisonError::into_inner);
        if state.closed {
            return Err(value);
        }
        self.append(state, value, wake);
        Ok(())
    }

    fn append(&self, mut state: MutexGuard<'_, State<T>>, value: T, wake: bool) {
        state.queue.push_back(value);
        let consumer = wake && take(&mut state.consumer_waits);
        drop(state);
        notify_if(consumer, &self.0.not_empty);
    }
}

impl<T> Consumer<T> {
    /// Pop without blocking; `None` when the ring is empty (closed or
    /// not: a closed ring still drains).
    pub fn try_pop(&mut self) -> Option<T> {
        let mut state = self.0.lock();
        let value = state.queue.pop_front()?;
        let producer = take(&mut state.producer_waits);
        drop(state);
        notify_if(producer, &self.0.not_full);
        Some(value)
    }

    /// A look at this ring for a thread that does not hold the consumer
    /// (see [`Watch`]).
    pub fn watch(&self) -> Watch<T> {
        Watch(Arc::clone(&self.0))
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// A look at a ring whose [`Consumer`] sits behind a lock that several
/// threads take in turn. The runtime's shard worker sleeps on its data
/// ring through one, so an idle worker never touches its shard's lock.
pub struct Watch<T>(Arc<Shared<T>>);

impl<T> Watch<T> {
    /// Sleep until a value waits (`true`) or the ring is closed and
    /// drained (`false`).
    pub fn wait(&self) -> bool {
        let s = &*self.0;
        let empty = |state: &mut State<T>| {
            state.consumer_waits = state.queue.is_empty() && !state.closed;
            state.consumer_waits
        };
        let state = s.not_empty.wait_while(s.lock(), empty);
        let state = state.unwrap_or_else(PoisonError::into_inner);
        !state.queue.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sss_xi::splitmix64;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn fifo_order_and_capacity_single_thread() {
        let (mut tx, mut rx) = bounded::<u64>(3);
        assert_eq!(rx.try_pop(), None, "fresh ring is empty");
        let pushed: Vec<_> = (1..=4).map(|v| tx.try_push(v)).collect();
        assert_eq!(pushed, [Ok(()), Ok(()), Ok(()), Err(4)], "full at capacity");
        assert_eq!(rx.try_pop(), Some(1));
        assert_eq!(tx.try_push(4), Ok(()), "slot freed by the pop");
        assert!(std::iter::from_fn(|| rx.try_pop()).eq([2, 3, 4]));
    }

    /// Dropping the consumer makes pushes fail with the value handed
    /// back, and wakes a producer sleeping on a full ring; dropping the
    /// producer lets the consumer drain, then `wait` ends.
    #[test]
    fn close_semantics_both_directions() {
        // Consumer hangs up first.
        let (mut tx, rx) = bounded::<String>(1);
        tx.try_push("a".into()).unwrap();
        let hang_up = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
        });
        assert_eq!(tx.push("b".into()), Err("b".into()), "woken by the hang-up");
        assert_eq!(tx.try_push("c".into()), Err("c".into()));
        hang_up.join().unwrap();

        // Producer hangs up first: the ring still drains.
        let (mut tx, mut rx) = bounded::<u64>(4);
        tx.try_push(1).unwrap();
        tx.try_push(2).unwrap();
        drop(tx);
        let watch = rx.watch();
        assert!(watch.wait());
        assert_eq!(rx.try_pop(), Some(1));
        assert!(watch.wait());
        assert_eq!(rx.try_pop(), Some(2));
        assert!(!watch.wait(), "closed and drained");
        assert_eq!(rx.try_pop(), None);
    }

    /// Values still in the ring when both handles drop are dropped
    /// exactly once.
    #[test]
    fn dropping_a_nonempty_ring_drops_contents_exactly_once() {
        static DROPS: AtomicU64 = AtomicU64::new(0);
        struct Counted;
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPS.fetch_add(1, Ordering::SeqCst);
            }
        }
        let (mut tx, mut rx) = bounded::<Counted>(8);
        (0..5).for_each(|_| assert!(tx.try_push(Counted).is_ok()));
        drop(rx.try_pop()); // one popped and dropped by us
        drop(tx);
        drop(rx); // four remain in the ring
        assert_eq!(DROPS.load(Ordering::SeqCst), 5);
    }

    /// Push `0..values` through a ring of `capacity` to a thread that
    /// drains it as the runtime's shard worker does (wait, then pop what
    /// is queued), each side calling its pause between steps; `deferred`
    /// pushes wake the consumer only on a full ring and at the hang-up.
    /// The relay runs on a thread of its own: no wait times out, so a lost
    /// wake-up hangs it, and the case fails after 10 s. Every value
    /// arrives once and in order.
    fn relay(
        case: &str,
        capacity: usize,
        values: u64,
        deferred: bool,
        mut producer_pause: impl FnMut() + Send + 'static,
        mut consumer_pause: impl FnMut() + Send + 'static,
    ) {
        let (done, finished) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let (mut tx, mut rx) = bounded::<u64>(capacity);
            let consumer = std::thread::spawn(move || {
                let (watch, mut got) = (rx.watch(), Vec::new());
                while watch.wait() {
                    got.extend(std::iter::from_fn(|| rx.try_pop()));
                    consumer_pause();
                }
                got
            });
            for v in 0..values {
                producer_pause();
                let pushed = if deferred {
                    tx.push_deferred(v)
                } else {
                    tx.push(v)
                };
                pushed.expect("consumer alive");
            }
            drop(tx);
            done.send(consumer.join().unwrap())
        });
        let got = finished
            .recv_timeout(Duration::from_secs(10))
            .unwrap_or_else(|e| panic!("{case}: a wake-up was lost or a side panicked ({e})"));
        assert!(got.into_iter().eq(0..values), "{case}");
    }

    /// Every value arrives, across a tiny ring that keeps both sides blocking.
    #[test]
    fn spsc_threads_deliver_everything_in_order() {
        relay("spsc", 2, 200_000, false, || {}, || {});
        relay("spsc deferred", 2, 200_000, true, || {}, || {});
    }

    /// A sleeping consumer is woken by a push and a sleeping producer by a
    /// pop: every fifth push waits for the consumer to drain the ring and
    /// sleep, every seventh run for the producer to fill it and sleep.
    #[test]
    fn park_and_wake_across_stalls() {
        fn nap_every(count: &mut u64, period: u64) {
            *count += 1;
            if *count % period == 0 {
                std::thread::sleep(Duration::from_micros(200));
            }
        }
        let (mut pushes, mut runs) = (0, 0);
        let producer = move || nap_every(&mut pushes, 5);
        let consumer = move || nap_every(&mut runs, 7);
        relay("stalls", 1, 400, false, producer, consumer);
    }

    /// A thread waiting through a [`Watch`] is woken by a push even
    /// though the consumer it pops with sits behind a mutex.
    #[test]
    fn a_watch_wakes_on_a_push_to_a_locked_consumer() {
        let (mut tx, rx) = bounded::<u64>(4);
        let watch = rx.watch();
        let rx = Arc::new(Mutex::new(rx));
        let worker_rx = Arc::clone(&rx);
        let worker = std::thread::spawn(move || {
            assert!(watch.wait());
            worker_rx.lock().unwrap().try_pop()
        });
        // Give the worker time to fall asleep.
        std::thread::sleep(Duration::from_millis(20));
        tx.try_push(7).unwrap();
        assert_eq!(worker.join().unwrap(), Some(7));
        drop(tx);
        assert!(!rx.lock().unwrap().watch().wait(), "closed and drained");
    }

    /// A deferred push leaves a sleeping consumer asleep; `wake` wakes it,
    /// and so does a full ring, before the producer would wait on it.
    #[test]
    fn a_deferred_push_wakes_on_wake_or_a_full_ring() {
        let (mut tx, rx) = bounded::<u64>(2);
        let watch = rx.watch();
        let (woke, wakes) = std::sync::mpsc::channel();
        let worker = std::thread::spawn(move || {
            let mut rx = rx;
            while watch.wait() {
                let got: Vec<u64> = std::iter::from_fn(|| rx.try_pop()).collect();
                woke.send(got).unwrap();
            }
        });
        // Give the worker time to fall asleep.
        std::thread::sleep(Duration::from_millis(20));
        tx.push_deferred(1).unwrap();
        let quiet = Duration::from_millis(50);
        assert!(
            wakes.recv_timeout(quiet).is_err(),
            "a deferred push woke it"
        );
        tx.wake();
        let long = Duration::from_secs(10);
        assert_eq!(wakes.recv_timeout(long).unwrap(), [1]);
        std::thread::sleep(Duration::from_millis(20)); // asleep again
        tx.push_deferred(2).unwrap();
        tx.push_deferred(3).unwrap();
        assert!(
            wakes.recv_timeout(quiet).is_err(),
            "a deferred push woke it"
        );
        tx.push_deferred(4).unwrap(); // full: woken before the wait
        let mut got = wakes.recv_timeout(long).unwrap();
        if got.len() < 3 {
            tx.wake();
            got.extend(wakes.recv_timeout(long).unwrap());
        }
        assert_eq!(got, [2, 3, 4]);
        drop(tx);
        worker.join().unwrap();
    }

    /// A seeded pause: nothing, a yield, or a sleep of up to 200 µs.
    fn pause(state: &mut u64) {
        *state = splitmix64(*state);
        match *state % 10 {
            0..=4 => {}
            5..=7 => std::thread::yield_now(),
            _ => std::thread::sleep(Duration::from_micros(splitmix64(*state) % 200)),
        }
    }

    /// The wait/wake handshake under seeded interleavings: a lost wake-up
    /// of the worker sleeping on an empty ring, or of the producer sleeping
    /// on a full one, fails its case. A capacity-1 ring is full after
    /// every push, so there the producer sleeps as often as the worker.
    #[test]
    fn parks_lose_no_wakeup_under_seeded_interleavings() {
        for seed in 0..6u64 {
            for capacity in [1usize, 2, 5] {
                let case = format!("seed {seed}, capacity {capacity}");
                let (mut producer_rng, mut consumer_rng) = (seed, seed ^ 0xc0ff_ee00);
                let producer = move || pause(&mut producer_rng);
                let consumer = move || pause(&mut consumer_rng);
                relay(&case, capacity, 1_000, seed % 2 == 1, producer, consumer);
            }
        }
    }
}
