//! The one wake-up of a node loop.

use std::sync::{Arc, OnceLock};
use std::thread::Thread;
use std::time::Duration;

/// What a node loop sleeps on, and what everything that hands it work rings.
///
/// A loop has several inputs — its command queue, its transport's inbox, its
/// own timers — and can block on one thing only, so that one thing is the
/// loop thread's park token (`std::thread::park`): [`Doorbell::ring`] is
/// `Thread::unpark`, an atomic swap that reaches the kernel only when the
/// loop is actually parked. While the loop is awake a ring costs nothing and
/// is never lost, because the token stays set until the next park consumes
/// it.
///
/// **Why no wake-up is lost.** A producer pushes its item into the queue,
/// *then* rings; the loop re-checks every input after its last drain, *then*
/// parks. Both sides go through the queue's lock, so either the loop's check
/// sees the item, or the ring comes after that check — and a ring that lands
/// between the check and the park sets the token, which turns the park into
/// a no-op.
///
/// The loop [attaches](Doorbell::attach) its own thread when it starts and
/// drains its inputs after that; a ring before the attachment does nothing,
/// which is safe by the same argument (the item is in the queue the starting
/// loop is about to drain). Clones ring the same loop.
#[derive(Debug, Clone, Default)]
pub struct Doorbell {
    thread: Arc<OnceLock<Thread>>,
}

impl Doorbell {
    /// A doorbell no loop has attached to yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Makes the calling thread the one [`Doorbell::ring`] wakes. A doorbell
    /// serves one loop for its whole life: the first attachment stays.
    pub fn attach(&self) {
        let _ = self.thread.set(std::thread::current());
    }

    /// Wakes the attached loop if it is parked, and makes its next park
    /// return at once if it is not. Call *after* the push it announces.
    pub fn ring(&self) {
        if let Some(thread) = self.thread.get() {
            thread.unpark();
        }
    }

    /// Parks the calling thread — the attached loop — until a ring or for
    /// `timeout`, whichever comes first. May return early for no reason;
    /// the caller re-checks its inputs either way.
    pub fn park_timeout(&self, timeout: Duration) {
        debug_assert!(
            self.thread
                .get()
                .is_some_and(|t| t.id() == std::thread::current().id()),
            "only the attached loop parks on its doorbell"
        );
        std::thread::park_timeout(timeout);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crossbeam::channel::unbounded;
    use std::time::Instant;

    /// A lost ring costs this long, which fails every test below.
    const LOST: Duration = Duration::from_secs(10);

    #[test]
    fn a_ring_before_the_attachment_is_a_no_op_and_one_after_it_is_kept() {
        let bell = Doorbell::new();
        bell.ring();
        bell.attach();
        // The early ring left no token behind: this park runs its course.
        let start = Instant::now();
        bell.park_timeout(Duration::from_millis(20));
        assert!(start.elapsed() >= Duration::from_millis(20));
        // A ring while the loop is awake is remembered until it parks.
        bell.clone().ring();
        let start = Instant::now();
        bell.park_timeout(LOST);
        assert!(start.elapsed() < LOST / 2, "the token turned the park off");
    }

    #[test]
    fn a_parked_loop_is_woken_from_another_thread() {
        let bell = Doorbell::new();
        bell.attach();
        let (tx, rx) = unbounded();
        let ringer = {
            let bell = bell.clone();
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                tx.send(()).unwrap();
                bell.ring();
            })
        };
        let start = Instant::now();
        while rx.try_recv().is_err() {
            bell.park_timeout(LOST);
        }
        assert!(start.elapsed() < LOST / 2);
        ringer.join().unwrap();
    }

    /// The stress CI repeats in release: two producers push and ring as fast
    /// as they can while the consumer parks whenever it finds the queue
    /// empty, so the window between its last look and its park is hit many
    /// thousands of times. One ring lost in that window parks the consumer
    /// for [`LOST`] with items queued, and the deadline fails.
    #[test]
    fn no_wake_up_is_lost_between_the_last_look_and_the_park() {
        const PRODUCERS: u64 = 2;
        const ITEMS: u64 = 200_000;
        let bell = Doorbell::new();
        let (tx, rx) = unbounded::<u64>();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|_| {
                let (tx, bell) = (tx.clone(), bell.clone());
                std::thread::spawn(move || {
                    for item in 0..ITEMS {
                        tx.send(item).unwrap();
                        bell.ring();
                    }
                })
            })
            .collect();
        drop(tx);

        bell.attach();
        let start = Instant::now();
        let (mut received, mut sum, mut parks) = (0u64, 0u64, 0u64);
        let mut batch = Vec::new();
        while received < PRODUCERS * ITEMS {
            if rx.drain_into(&mut batch, 64) == 0 {
                parks += 1;
                bell.park_timeout(LOST);
            }
            received += batch.len() as u64;
            sum += batch.drain(..).sum::<u64>();
        }
        let took = start.elapsed();
        for producer in producers {
            producer.join().unwrap();
        }
        assert_eq!(sum, PRODUCERS * ITEMS * (ITEMS - 1) / 2);
        assert!(
            took < Duration::from_secs(5),
            "{received} items took {took:?} over {parks} parks: a ring was lost"
        );
    }
}
