//! A bounded, lock-free multi-producer queue — the arrival path between
//! tenant handles and a shard's worker thread.
//!
//! The offline build has no crossbeam, so the daemon carries its own ring:
//! the classic bounded MPMC queue of per-slot sequence numbers (Dmitry
//! Vyukov's design, the ancestor of `crossbeam::ArrayQueue`).  Each slot
//! carries an atomic *sequence*; producers and consumers claim positions
//! with a CAS on the global enqueue/dequeue cursors and then hand the slot
//! over by bumping its sequence, so the two sides never contend on the same
//! cacheline protocol and no operation ever blocks.
//!
//! The two cursors are cache-padded, as crossbeam's `CachePadded` pads
//! them on x86_64: each sits alone in a 128-byte-aligned block (two
//! 64-byte lines, because the spatial prefetcher pulls lines in adjacent
//! pairs).  The daemon's worker polls [`ArrivalQueue::is_empty`] in a
//! tight loop for a moment after each batch.  Without the padding both
//! cursors would share one line, possibly with fields of the enclosing
//! struct such as the daemon's admission counters, so every producer CAS
//! and every admission RMW would pull that line away from the polling
//! worker and back: the poll would slow the very submissions it waits
//! for.  Padded, a submission that does not push touches no line the
//! polling worker reads.
//!
//! The queue is deliberately *bounded*: a full queue returns the value to
//! the producer ([`ArrivalQueue::push`] → `Err`), which the daemon surfaces
//! as the typed, retryable `IngressError::QueueFull` — the first layer of
//! backpressure, ahead of the dual-price admission gate.  The capacity is
//! rounded up to a power of two (sequence arithmetic needs it); callers
//! that must *fill* the ring — the chaos driver's queue-full storm waves —
//! size their bursts to the rounded capacity, not the requested one.
//!
//! This is the only `unsafe` code in the workspace.  The invariant is the
//! standard one: a slot's value is initialised exactly when its sequence
//! admits a consumer (`seq == pos + 1`) and uninitialised when it admits a
//! producer (`seq == pos`); the `Acquire`/`Release` pairs on the sequence
//! make the value write happen-before the matching read.  The concurrent
//! stress tests below (multi-producer, full/empty races, drop accounting,
//! tiny capacities with many wrap-arounds) exercise it under real
//! contention, and the model-checked build (`--cfg pss_model_check`, see
//! `pss-check`) explores the interleavings exhaustively: the atomics and
//! the slot cells come from the `pss_check` facade, so every operation is
//! a schedule point and every cell access is race-checked.  The
//! publication store goes through `publish_ordering`, which the model
//! tests can weaken to `Relaxed` to prove the checker detects the
//! resulting race (the mutation gate).

use std::mem::MaybeUninit;

use pss_check::cell::UnsafeCell;
use pss_check::sync::atomic::{AtomicUsize, Ordering};

/// The ordering of the sequence store that publishes a slot to the other
/// side: `Release`, so the value write happens-before the `Acquire` load
/// that admits the next owner.
#[cfg(not(pss_model_check))]
#[inline(always)]
fn publish_ordering() -> Ordering {
    Ordering::Release
}

/// Model-checked builds can weaken the publication to `Relaxed` via
/// [`mutation::weaken_publish`]; the model checker must then report the
/// data race on the slot cell — the mutation gate that proves the checker
/// has teeth.  The flag itself is a plain `std` atomic (test control
/// plane, not modelled state).
#[cfg(pss_model_check)]
fn publish_ordering() -> Ordering {
    if mutation::WEAKEN_PUBLISH.load(std::sync::atomic::Ordering::Relaxed) {
        Ordering::Relaxed
    } else {
        Ordering::Release
    }
}

/// Mutation hooks for the model-checked build's self-tests.
#[cfg(pss_model_check)]
pub mod mutation {
    pub(super) static WEAKEN_PUBLISH: std::sync::atomic::AtomicBool =
        std::sync::atomic::AtomicBool::new(false);

    /// Weakens (or restores) the queue's publication ordering.  Only for
    /// the mutation-gate test; affects every queue in the process.
    pub fn weaken_publish(on: bool) {
        WEAKEN_PUBLISH.store(on, std::sync::atomic::Ordering::Relaxed);
    }
}

/// A value alone in a 128-byte-aligned block, so no other hot field
/// shares its cache lines (see the module docs).
#[repr(align(128))]
struct CachePadded<T>(T);

impl<T> std::ops::Deref for CachePadded<T> {
    type Target = T;

    #[inline(always)]
    fn deref(&self) -> &T {
        &self.0
    }
}

/// One slot of the ring: a sequence number and a possibly-initialised value.
struct Slot<T> {
    sequence: AtomicUsize,
    value: UnsafeCell<MaybeUninit<T>>,
}

/// A bounded, lock-free multi-producer queue (used single-consumer by the
/// daemon: one worker drains each shard's queue).
///
/// Capacity is rounded up to the next power of two (minimum 2) so position
/// arithmetic is a mask.  `push` fails — returning the value — when the
/// queue is full; `pop` returns `None` when it is empty.  Neither ever
/// blocks or spins unboundedly.
pub struct ArrivalQueue<T> {
    slots: Box<[Slot<T>]>,
    mask: usize,
    enqueue_pos: CachePadded<AtomicUsize>,
    dequeue_pos: CachePadded<AtomicUsize>,
}

// SAFETY: the protocol hands each value from exactly one producer to
// exactly one consumer through the slot's Acquire/Release sequence, so the
// queue is Sync whenever T may be sent between threads.
unsafe impl<T: Send> Sync for ArrivalQueue<T> {}
unsafe impl<T: Send> Send for ArrivalQueue<T> {}

impl<T> ArrivalQueue<T> {
    /// Creates a queue holding at least `capacity` elements (rounded up to
    /// the next power of two, minimum 2).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(2).next_power_of_two();
        let slots: Box<[Slot<T>]> = (0..cap)
            .map(|i| Slot {
                sequence: AtomicUsize::new(i),
                value: UnsafeCell::new(MaybeUninit::uninit()),
            })
            .collect();
        Self {
            slots,
            mask: cap - 1,
            enqueue_pos: CachePadded(AtomicUsize::new(0)),
            dequeue_pos: CachePadded(AtomicUsize::new(0)),
        }
    }

    /// The queue's (rounded) capacity.
    pub fn capacity(&self) -> usize {
        self.mask + 1
    }

    /// A snapshot of the number of queued elements.  Approximate under
    /// concurrent pushes/pops (the two cursors are read independently) —
    /// good for depth telemetry, not for synchronisation.
    pub fn len(&self) -> usize {
        let head = self.enqueue_pos.load(Ordering::Relaxed);
        let tail = self.dequeue_pos.load(Ordering::Relaxed);
        head.saturating_sub(tail).min(self.capacity())
    }

    /// Whether the queue currently holds no elements (same snapshot caveat
    /// as [`len`](Self::len)).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Enqueues `value`, or returns it if the queue is full at the instant
    /// the producer observed it.
    pub fn push(&self, value: T) -> Result<(), T> {
        let mut pos = self.enqueue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let diff = seq as isize - pos as isize;
            if diff == 0 {
                // The slot is free at `pos`; try to claim it.
                match self.enqueue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY (sequence-number invariant): we observed
                        // `seq == pos` with `Acquire`, which means the slot
                        // is producer-owned and its `MaybeUninit` holds no
                        // initialised value — either it was never written
                        // (fresh ring, `seq` initialised to the slot index)
                        // or the previous lap's consumer moved the value
                        // out with `assume_init_read` before releasing
                        // `seq = pos` (its store happened-before our load).
                        // The CAS on `enqueue_pos` then made us the *only*
                        // producer holding this `pos`, so until the
                        // publication store below no other thread touches
                        // the cell: writing uninitialised memory through
                        // the exclusive pointer is sound and leaks nothing.
                        slot.value.with_mut(|p| unsafe { (*p).write(value) });
                        // Publish: `Release` makes the value write above
                        // happen-before the consumer's `Acquire` load of
                        // `seq == pos + 1` (weakened only by the mutation
                        // gate, which the model checker must catch).
                        slot.sequence.store(pos + 1, publish_ordering());
                        return Ok(());
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                // The slot still holds a value from the previous lap: the
                // queue was full when observed.
                return Err(value);
            } else {
                // Another producer claimed `pos`; reload and retry.
                pos = self.enqueue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Dequeues the oldest element, or `None` if the queue is empty at the
    /// instant the consumer observed it.
    pub fn pop(&self) -> Option<T> {
        let mut pos = self.dequeue_pos.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask];
            let seq = slot.sequence.load(Ordering::Acquire);
            let diff = seq as isize - (pos + 1) as isize;
            if diff == 0 {
                match self.dequeue_pos.compare_exchange_weak(
                    pos,
                    pos + 1,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        // SAFETY (sequence-number invariant): we observed
                        // `seq == pos + 1` with `Acquire`, which only the
                        // producer that claimed `pos` stores, *after* its
                        // value write, with `Release` — so the write
                        // happens-before this read and the cell holds an
                        // initialised value.  The CAS on `dequeue_pos`
                        // made us the only consumer holding this `pos`,
                        // and no producer touches the cell until it
                        // observes the `seq = pos + mask + 1` we store
                        // below; `assume_init_read` therefore moves the
                        // value out of memory we exclusively own, and the
                        // slot returns to "uninitialised, producer-owned"
                        // exactly when the next-lap producer is admitted.
                        let value = slot.value.with_mut(|p| unsafe { (*p).assume_init_read() });
                        slot.sequence.store(pos + self.mask + 1, publish_ordering());
                        return Some(value);
                    }
                    Err(current) => pos = current,
                }
            } else if diff < 0 {
                return None;
            } else {
                pos = self.dequeue_pos.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops up to `max` elements into `out` (appending), returning how many
    /// were drained.  The worker's batch-drain entry point.
    pub fn drain_into(&self, out: &mut Vec<T>, max: usize) -> usize {
        let mut drained = 0;
        while drained < max {
            match self.pop() {
                Some(v) => {
                    out.push(v);
                    drained += 1;
                }
                None => break,
            }
        }
        drained
    }
}

impl<T> Drop for ArrivalQueue<T> {
    fn drop(&mut self) {
        // Drain remaining initialised slots so their destructors run.
        while self.pop().is_some() {}
    }
}

impl<T> std::fmt::Debug for ArrivalQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ArrivalQueue")
            .field("capacity", &self.capacity())
            .field("len", &self.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize as Counter;
    use std::sync::Arc;

    #[test]
    fn fifo_order_single_threaded() {
        let q = ArrivalQueue::with_capacity(8);
        assert!(q.is_empty());
        for i in 0..8 {
            q.push(i).unwrap();
        }
        assert_eq!(q.len(), 8);
        // Full: the value comes back.
        assert_eq!(q.push(99), Err(99));
        for i in 0..8 {
            assert_eq!(q.pop(), Some(i));
        }
        assert_eq!(q.pop(), None);
        // Wrap around several laps.
        for lap in 0..5 {
            for i in 0..6 {
                q.push(lap * 10 + i).unwrap();
            }
            for i in 0..6 {
                assert_eq!(q.pop(), Some(lap * 10 + i));
            }
        }
    }

    #[test]
    fn capacity_rounds_up_to_powers_of_two() {
        assert_eq!(ArrivalQueue::<u8>::with_capacity(0).capacity(), 2);
        assert_eq!(ArrivalQueue::<u8>::with_capacity(3).capacity(), 4);
        assert_eq!(ArrivalQueue::<u8>::with_capacity(8).capacity(), 8);
        assert_eq!(ArrivalQueue::<u8>::with_capacity(1000).capacity(), 1024);
    }

    #[test]
    fn drain_into_respects_the_batch_bound() {
        let q = ArrivalQueue::with_capacity(16);
        for i in 0..10 {
            q.push(i).unwrap();
        }
        let mut out = Vec::new();
        assert_eq!(q.drain_into(&mut out, 4), 4);
        assert_eq!(out, vec![0, 1, 2, 3]);
        assert_eq!(q.drain_into(&mut out, 100), 6);
        assert_eq!(out.len(), 10);
        assert_eq!(q.drain_into(&mut out, 100), 0);
    }

    #[test]
    fn multi_producer_single_consumer_preserves_every_element() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: usize = 20_000;
        let q = Arc::new(ArrivalQueue::with_capacity(64));
        let mut handles = Vec::new();
        for p in 0..PRODUCERS {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..PER_PRODUCER {
                    let mut v = (p, i);
                    // Spin on full: the consumer is draining concurrently.
                    loop {
                        match q.push(v) {
                            Ok(()) => break,
                            Err(back) => {
                                v = back;
                                std::thread::yield_now();
                            }
                        }
                    }
                }
            }));
        }
        // Single consumer: per-producer sequences must arrive in order.
        let mut next = [0usize; PRODUCERS];
        let mut total = 0usize;
        while total < PRODUCERS * PER_PRODUCER {
            match q.pop() {
                Some((p, i)) => {
                    assert_eq!(i, next[p], "producer {p} reordered");
                    next[p] += 1;
                    total += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(q.pop(), None);
        assert!(next.iter().all(|&n| n == PER_PRODUCER));
    }

    #[test]
    fn tiny_capacity_queues_survive_heavy_wraparound() {
        // Capacities 2 and 4 with more producers than slots force maximal
        // contention: every push fights for one or two live slots and the
        // sequence numbers lap the ring thousands of times, hammering the
        // wrap-around arithmetic (`seq = pos + mask + 1`) that larger
        // capacities rarely stress.  The consumer asserts the exact
        // multiset (every element once) and per-producer FIFO order.
        // The checker's MPSC model explores the same protocol
        // exhaustively at small bounds; this is the full-scale twin.
        for capacity in [2usize, 4] {
            const PRODUCERS: usize = 6;
            const PER_PRODUCER: usize = 2_000;
            let q = Arc::new(ArrivalQueue::with_capacity(capacity));
            let mut handles = Vec::new();
            for p in 0..PRODUCERS {
                let q = Arc::clone(&q);
                handles.push(std::thread::spawn(move || {
                    for i in 0..PER_PRODUCER {
                        let mut v = (p, i);
                        loop {
                            match q.push(v) {
                                Ok(()) => break,
                                Err(back) => {
                                    v = back;
                                    std::thread::yield_now();
                                }
                            }
                        }
                    }
                }));
            }
            let mut next = [0usize; PRODUCERS];
            let mut total = 0usize;
            while total < PRODUCERS * PER_PRODUCER {
                match q.pop() {
                    Some((p, i)) => {
                        assert_eq!(i, next[p], "producer {p} reordered at capacity {capacity}");
                        next[p] += 1;
                        total += 1;
                    }
                    None => std::thread::yield_now(),
                }
            }
            for h in handles {
                h.join().unwrap();
            }
            assert_eq!(q.pop(), None, "stray element at capacity {capacity}");
            assert!(
                next.iter().all(|&n| n == PER_PRODUCER),
                "lost elements at capacity {capacity}"
            );
        }
    }

    #[test]
    fn dropping_a_nonempty_queue_drops_the_elements() {
        #[derive(Debug)]
        struct Tracked(Arc<Counter>);
        impl Drop for Tracked {
            fn drop(&mut self) {
                // Relaxed is enough: the whole test is single-threaded, so
                // program order alone sequences the bumps and the reads.
                self.0.fetch_add(1, Ordering::Relaxed);
            }
        }
        let drops = Arc::new(Counter::new(0));
        let q = ArrivalQueue::with_capacity(8);
        for _ in 0..5 {
            q.push(Tracked(Arc::clone(&drops))).unwrap();
        }
        drop(q.pop()); // one explicit
        assert_eq!(drops.load(Ordering::Relaxed), 1);
        drop(q); // four remaining
        assert_eq!(drops.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn cursors_sit_on_their_own_cache_lines() {
        let q = ArrivalQueue::<u64>::with_capacity(8);
        let enqueue = &*q.enqueue_pos as *const AtomicUsize as usize;
        let dequeue = &*q.dequeue_pos as *const AtomicUsize as usize;
        assert!(
            enqueue.abs_diff(dequeue) >= 128,
            "cursors {} B apart",
            enqueue.abs_diff(dequeue)
        );
        assert_eq!(enqueue % 128, 0);
        assert_eq!(dequeue % 128, 0);
    }

    #[test]
    fn len_is_a_sane_snapshot() {
        let q = ArrivalQueue::with_capacity(4);
        assert_eq!(q.len(), 0);
        q.push(1).unwrap();
        q.push(2).unwrap();
        assert_eq!(q.len(), 2);
        q.pop().unwrap();
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }
}
