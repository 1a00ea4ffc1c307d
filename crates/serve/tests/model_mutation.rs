//! The mutation gate: proof that the model checker has teeth.
//!
//! The queue's correctness hinges on one store — the `Release`
//! publication of a slot's sequence number after the value write.  This
//! test first checks the intact queue passes a small handoff model, then
//! flips [`pss_serve::queue::mutation::weaken_publish`] to demote that
//! store to `Relaxed` and demands the checker *fail* (the consumer's
//! read of the slot is no longer ordered after the producer's write — a
//! data race on uninitialised memory).  If the checker ever stops
//! catching the weakened queue, this test fails CI.
//!
//! Lives in its own integration-test binary because the mutation flag is
//! process-global: nothing else may model-check queues in this process.
#![cfg(pss_model_check)]

use std::sync::Arc;

use pss_check::model::{Model, ModelRun};
use pss_serve::queue::mutation;
use pss_serve::ArrivalQueue;

/// One producer hands one value to one consumer through a fresh ring.
fn handoff_model() -> ModelRun {
    let queue: Arc<ArrivalQueue<u64>> = Arc::new(ArrivalQueue::with_capacity(2).unwrap());
    let producer = Arc::clone(&queue);
    let consumer = Arc::clone(&queue);
    ModelRun {
        threads: vec![
            Box::new(move || {
                producer.push(42).expect("capacity-2 queue cannot be full");
            }),
            Box::new(move || {
                if let Some(v) = consumer.pop() {
                    assert_eq!(v, 42);
                }
            }),
        ],
        finale: Box::new(move || {
            // Drain so the Drop impl never sees a non-quiescent ring.
            while queue.pop().is_some() {}
        }),
    }
}

#[test]
fn weakened_publication_is_caught_by_the_model() {
    // Phase 1: the intact queue must pass.
    let clean = Model::new().check(handoff_model);
    assert!(
        clean.interleavings > 2,
        "suspiciously few interleavings: {clean:?}"
    );

    // Phase 2: weaken the publication store to Relaxed; the checker must
    // report the resulting race on the slot cell.
    mutation::weaken_publish(true);
    let mutated = Model::new().explore(handoff_model);
    mutation::weaken_publish(false);
    let failure = mutated
        .failure
        .expect("the Relaxed-publication mutant must be rejected by the model");
    assert!(
        failure.message.contains("race"),
        "expected a data-race report, got: {failure}"
    );

    // Phase 3: restored, the queue passes again (the flag really was the
    // only difference).
    Model::new().check(handoff_model);
}
