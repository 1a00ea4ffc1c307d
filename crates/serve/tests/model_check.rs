//! Bounded-exhaustive model checks of the serving layer's lock-free
//! protocols, run only under `RUSTFLAGS="--cfg pss_model_check"` (the CI
//! `MODEL_CHECK` step): in that build the `pss_check` facade routes every
//! atomic operation and every queue-slot access through the controlled
//! scheduler, so these tests explore *all* interleavings within the
//! configured bounds rather than the few a stress test happens to hit.
//!
//! Three protocols are modelled:
//!
//! * the MPSC use of [`ArrivalQueue`] (no lost or duplicated values,
//!   per-producer FIFO, `QueueFull` correctness across wrap-around);
//! * the price/watermark publication pair (no torn reads, watermark
//!   monotone, price never staler than the watermark read before it);
//! * the shutdown protocol (a submission racing the drain is either fed
//!   or bounced — never silently lost), including a regression model of
//!   the *previous* plain-load drain check, which the checker must
//!   reject.
#![cfg(pss_model_check)]

use std::sync::{Arc, Mutex};

use pss_check::model::{Model, ModelRun};
use pss_check::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use pss_serve::ArrivalQueue;

/// Checks that `inner`'s elements appear in `outer` in the same relative
/// order (per-producer FIFO).
fn is_subsequence(inner: &[u64], outer: &[u64]) -> bool {
    let mut it = outer.iter();
    inner.iter().all(|x| it.any(|y| y == x))
}

/// Two producers race two values each into a capacity-2 ring while a
/// consumer drains concurrently — large enough that the sequence numbers
/// wrap the ring (positions reach 4 > capacity) and pushes hit
/// `QueueFull`.  The bounded space is bigger than the execution cap, so
/// the run explores the cap's worth of distinct interleavings (well past
/// the thousand the acceptance bar asks for) depth-first.  The finale
/// asserts exact conservation: every successfully pushed value is
/// delivered exactly once (consumed or still queued), in per-producer
/// FIFO order.
#[test]
fn mpsc_queue_conserves_values_in_fifo_order() {
    let report = Model::new().check(|| {
        let queue: Arc<ArrivalQueue<u64>> = Arc::new(ArrivalQueue::with_capacity(2).unwrap());
        let pushed: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(vec![Vec::new(); 2]));
        let consumed: Arc<Mutex<Vec<u64>>> = Arc::new(Mutex::new(Vec::new()));

        let mut threads: Vec<Box<dyn FnOnce() + Send>> = Vec::new();
        for p in 0..2u64 {
            let queue = Arc::clone(&queue);
            let pushed = Arc::clone(&pushed);
            threads.push(Box::new(move || {
                for i in 0..2u64 {
                    let value = p * 10 + i;
                    // One bounded retry: a failed push is a legitimate
                    // `QueueFull` outcome, not an error — the value is
                    // simply never recorded as pushed.
                    for _attempt in 0..2 {
                        if queue.push(value).is_ok() {
                            pushed.lock().unwrap()[p as usize].push(value);
                            break;
                        }
                        pss_check::thread::yield_now();
                    }
                }
            }));
        }
        {
            let queue = Arc::clone(&queue);
            let consumed = Arc::clone(&consumed);
            threads.push(Box::new(move || {
                for _ in 0..3 {
                    if let Some(v) = queue.pop() {
                        consumed.lock().unwrap().push(v);
                    }
                    pss_check::thread::yield_now();
                }
            }));
        }

        ModelRun {
            threads,
            finale: Box::new(move || {
                // Drain what the consumer did not get to.
                let mut delivered = consumed.lock().unwrap().clone();
                while let Some(v) = queue.pop() {
                    delivered.push(v);
                }
                let pushed = pushed.lock().unwrap();
                let mut expected: Vec<u64> = pushed.iter().flatten().copied().collect();
                let mut got = delivered.clone();
                expected.sort_unstable();
                got.sort_unstable();
                assert_eq!(got, expected, "lost or duplicated values");
                for per_producer in pushed.iter() {
                    assert!(
                        is_subsequence(per_producer, &delivered),
                        "producer order {per_producer:?} not preserved in {delivered:?}"
                    );
                }
            }),
        }
    });
    assert!(
        report.interleavings > 1000,
        "expected > 1000 interleavings, got {}",
        report.interleavings
    );
    println!(
        "mpsc model: {} interleavings, {} pruned, capped: {}",
        report.interleavings, report.pruned, report.capped
    );
}

/// The daemon's backpressure signals: the worker publishes `price` then
/// `watermark` (both `Release`, as f64 bits); admission reads `watermark`
/// then `price` (both `Acquire`).  The model asserts reads are never torn
/// (every observed bit pattern is one that was actually stored), the
/// watermark is monotone across successive reads, and a reader that saw
/// batch k's watermark sees a price at least as fresh as batch k's.
#[test]
fn price_watermark_publication_is_untorn_and_monotone() {
    // Two batches: (price, watermark) = (0.5, 1.0) then (0.75, 2.0).
    let report = Model::new().check(|| {
        let price = Arc::new(AtomicU64::new(0.0f64.to_bits()));
        let watermark = Arc::new(AtomicU64::new(f64::NEG_INFINITY.to_bits()));
        let (wp, ww) = (Arc::clone(&price), Arc::clone(&watermark));
        let (rp, rw) = (Arc::clone(&price), Arc::clone(&watermark));
        ModelRun {
            threads: vec![
                Box::new(move || {
                    for (p, w) in [(0.5f64, 1.0f64), (0.75, 2.0)] {
                        wp.store(p.to_bits(), Ordering::Release);
                        ww.store(w.to_bits(), Ordering::Release);
                    }
                }),
                Box::new(move || {
                    let mut last_watermark = f64::NEG_INFINITY;
                    for _ in 0..2 {
                        let w = f64::from_bits(rw.load(Ordering::Acquire));
                        let p = f64::from_bits(rp.load(Ordering::Acquire));
                        assert!(
                            w == f64::NEG_INFINITY || w == 1.0 || w == 2.0,
                            "torn watermark {w}"
                        );
                        assert!(p == 0.0 || p == 0.5 || p == 0.75, "torn price {p}");
                        assert!(w >= last_watermark, "watermark went backwards: {w}");
                        last_watermark = w;
                        // Seeing batch k's watermark (stored after its
                        // price) implies a price at least that fresh.
                        if w == 2.0 {
                            assert_eq!(p, 0.75, "price staler than the watermark");
                        }
                        if w == 1.0 {
                            assert!(p >= 0.5, "price staler than the watermark");
                        }
                    }
                }),
            ],
            finale: Box::new(|| ()),
        }
    });
    assert!(report.interleavings > 2);
    println!(
        "price/watermark model: {} interleavings",
        report.interleavings
    );
}

/// The shutdown drain protocol, as the daemon implements it after the
/// fix: the worker probes `submitting` with an `AcqRel` RMW *before*
/// re-checking queue emptiness.  Builds the model either way so the same
/// code also demonstrates (in
/// [`previous_shutdown_check_loses_a_final_push`]) that the pre-fix
/// plain-`Acquire`-load version loses a submission.
fn shutdown_model(fixed: bool) -> ModelRun {
    let queue: Arc<ArrivalQueue<u64>> = Arc::new(ArrivalQueue::with_capacity(2).unwrap());
    let submitting = Arc::new(AtomicUsize::new(0));
    let shutdown = Arc::new(AtomicBool::new(false));
    // What each side observed: did the submitter push or bounce, did the
    // worker exit believing the drain complete, and what it drained.
    let pushed = Arc::new(Mutex::new(Vec::<u64>::new()));
    let drained = Arc::new(Mutex::new(Vec::<u64>::new()));
    let clean_exit = Arc::new(Mutex::new(false));

    let submitter: Box<dyn FnOnce() + Send> = {
        let (queue, submitting, shutdown) = (
            Arc::clone(&queue),
            Arc::clone(&submitting),
            Arc::clone(&shutdown),
        );
        let pushed = Arc::clone(&pushed);
        Box::new(move || {
            // The daemon's submit(): announce, gate on shutdown, push.
            submitting.fetch_add(1, Ordering::AcqRel);
            if !shutdown.load(Ordering::Acquire) && queue.push(7).is_ok() {
                pushed.lock().unwrap().push(7);
            }
            submitting.fetch_sub(1, Ordering::AcqRel);
        })
    };
    let worker: Box<dyn FnOnce() + Send> = {
        let (queue, submitting, shutdown) = (
            Arc::clone(&queue),
            Arc::clone(&submitting),
            Arc::clone(&shutdown),
        );
        let (drained, clean_exit) = (Arc::clone(&drained), Arc::clone(&clean_exit));
        Box::new(move || {
            // Control plane raises the drain flag, then the worker loop
            // runs bounded rounds of drain-then-check.
            shutdown.store(true, Ordering::Release);
            for _ in 0..3 {
                while let Some(v) = queue.pop() {
                    drained.lock().unwrap().push(v);
                }
                let quiescent = if fixed {
                    // Post-fix: latest-value probe first, then re-check.
                    shutdown.load(Ordering::Acquire)
                        && submitting.fetch_add(0, Ordering::AcqRel) == 0
                        && queue.is_empty()
                } else {
                    // Pre-fix: plain loads, emptiness checked first.
                    shutdown.load(Ordering::Acquire)
                        && queue.is_empty()
                        && submitting.load(Ordering::Acquire) == 0
                };
                if quiescent {
                    *clean_exit.lock().unwrap() = true;
                    return;
                }
                pss_check::thread::yield_now();
            }
        })
    };

    ModelRun {
        threads: vec![submitter, worker],
        finale: Box::new(move || {
            if !*clean_exit.lock().unwrap() {
                // The bounded loop ran out of rounds before quiescence —
                // a legal (if unexplored-further) prefix, nothing to
                // assert.
                return;
            }
            // A clean exit promises the drain was complete: every pushed
            // value was drained before the worker left; nothing may
            // remain in the queue.
            let mut leftover = Vec::new();
            while let Some(v) = queue.pop() {
                leftover.push(v);
            }
            assert!(
                leftover.is_empty(),
                "worker exited cleanly but left {leftover:?} in the queue"
            );
            let mut p = pushed.lock().unwrap().clone();
            let mut d = drained.lock().unwrap().clone();
            p.sort_unstable();
            d.sort_unstable();
            assert_eq!(d, p, "drained values differ from pushed values");
        }),
    }
}

#[test]
fn shutdown_drain_never_loses_a_final_push() {
    let report = Model::new().check(|| shutdown_model(true));
    assert!(report.interleavings > 2);
    println!("shutdown model: {} interleavings", report.interleavings);
}

/// Regression: the drain check the daemon shipped *before* this PR — a
/// plain `Acquire` load of `submitting`, after the emptiness check — can
/// exit while a submitter's push is still invisible, losing the value.
/// The checker must find that interleaving.
#[test]
fn previous_shutdown_check_loses_a_final_push() {
    let report = Model::new().explore(|| shutdown_model(false));
    let failure = report
        .failure
        .expect("the pre-fix drain check should lose a push in some interleaving");
    assert!(
        failure.message.contains("queue") || failure.message.contains("drained"),
        "unexpected failure: {failure}"
    );
}
