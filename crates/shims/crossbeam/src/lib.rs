//! Minimal vendored stand-in for the `crossbeam` crate.
//!
//! The build environment has no network access to crates.io, so the workspace
//! vendors the `crossbeam::channel` API surface it uses: MPMC `unbounded` and
//! `bounded` channels with cloneable senders *and* receivers, built on a
//! `Mutex<VecDeque>` plus condition variables. Throughput is adequate for the
//! simulator and tests; the real crate's lock-free internals are not needed.
//!
//! A condition variable is notified only while a thread is blocked on it:
//! the channel counts its blocked receivers and senders under the queue's
//! lock, so a send to a receiver that polls — every node loop, every polled
//! ticket — costs the lock and nothing else.

#![forbid(unsafe_code)]

/// Multi-producer multi-consumer channels, mirroring `crossbeam::channel`.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers blocked on `not_empty` right now.
        blocked_receivers: usize,
        /// Senders blocked on `not_full` right now.
        blocked_senders: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        /// Capacity bound; `None` means unbounded.
        cap: Option<usize>,
        /// Signalled when an item is pushed or all senders drop, if a
        /// receiver is blocked.
        not_empty: Condvar,
        /// Signalled when an item is popped or all receivers drop, if a
        /// sender is blocked.
        not_full: Condvar,
    }

    impl<T> Shared<T> {
        /// Releases `state`, then wakes one receiver (`all`: every receiver)
        /// if any is blocked. The count is read under the lock a receiver
        /// holds from its look at the queue until it blocks, so a receiver
        /// this misses has yet to look.
        fn wake_receivers(&self, state: MutexGuard<'_, State<T>>, all: bool) {
            let blocked = state.blocked_receivers;
            drop(state);
            wake(&self.not_empty, blocked, all);
        }

        /// [`Shared::wake_receivers`] for the senders of a bounded channel.
        fn wake_senders(&self, state: MutexGuard<'_, State<T>>, all: bool) {
            let blocked = state.blocked_senders;
            drop(state);
            wake(&self.not_full, blocked, all);
        }

        /// Blocks a receiver until `not_empty` is signalled or `timeout`
        /// has passed.
        fn block_receiver<'a>(
            &self,
            mut state: MutexGuard<'a, State<T>>,
            timeout: Option<Duration>,
        ) -> MutexGuard<'a, State<T>> {
            state.blocked_receivers += 1;
            let mut state = match timeout {
                None => self.not_empty.wait(state).unwrap(),
                Some(timeout) => self.not_empty.wait_timeout(state, timeout).unwrap().0,
            };
            state.blocked_receivers -= 1;
            state
        }
    }

    fn wake(condvar: &Condvar, blocked: usize, all: bool) {
        match (blocked, all) {
            (0, _) => {}
            (_, false) => condvar.notify_one(),
            (_, true) => condvar.notify_all(),
        }
    }

    /// Error returned by [`Sender::send`] when all receivers are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// all senders are gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty and disconnected channel")
        }
    }

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// The channel is currently empty.
        Empty,
        /// All senders have disconnected and the channel is empty.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The timeout elapsed with the channel still empty.
        Timeout,
        /// All senders have disconnected and the channel is empty.
        Disconnected,
    }

    /// The sending half of a channel.
    pub struct Sender<T> {
        shared: Arc<Shared<T>>,
    }

    /// The receiving half of a channel.
    pub struct Receiver<T> {
        shared: Arc<Shared<T>>,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender { .. }")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver { .. }")
        }
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        with_capacity(None)
    }

    /// Creates a bounded MPMC channel holding at most `cap` messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        with_capacity(Some(cap))
    }

    fn with_capacity<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                blocked_receivers: 0,
                blocked_senders: 0,
            }),
            cap,
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (
            Sender {
                shared: Arc::clone(&shared),
            },
            Receiver { shared },
        )
    }

    impl<T> Sender<T> {
        /// Sends `msg`, blocking while a bounded channel is full.
        ///
        /// Returns `Err` with the message if every receiver has dropped.
        pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
            self.send_counting(msg).map(|_| ())
        }

        /// Sends `msg` like [`Sender::send`] and returns the queue depth
        /// right after the push. (Shim-only extension: callers that track
        /// backpressure would otherwise pay a second lock acquisition for a
        /// separate `len()` call on every send.)
        pub fn send_counting(&self, msg: T) -> Result<usize, SendError<T>> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if state.receivers == 0 {
                    return Err(SendError(msg));
                }
                match self.shared.cap {
                    Some(cap) if state.queue.len() >= cap => {
                        state.blocked_senders += 1;
                        state = self.shared.not_full.wait(state).unwrap();
                        state.blocked_senders -= 1;
                    }
                    _ => break,
                }
            }
            state.queue.push_back(msg);
            let depth = state.queue.len();
            self.shared.wake_receivers(state, false);
            Ok(depth)
        }

        /// Moves every message out of `msgs` into the channel under a single
        /// lock acquisition and returns the queue depth right after the last
        /// push; `msgs` is left empty with its capacity, so a caller that
        /// flushes batch after batch reuses one buffer. (Shim-only
        /// extension, like [`Sender::send_counting`]: the node event loops
        /// flush a whole outbox batch to the same destination, and paying a
        /// lock round-trip plus condvar notify per message dominates the hot
        /// send path.) Only supported on unbounded channels — a bounded
        /// channel would need partial-blocking semantics no caller wants.
        ///
        /// Returns `Err`, leaving `msgs` as it was, if every receiver has
        /// dropped.
        pub fn send_batch(&self, msgs: &mut Vec<T>) -> Result<usize, SendError<()>> {
            assert!(
                self.shared.cap.is_none(),
                "send_batch requires an unbounded channel"
            );
            if msgs.is_empty() {
                return Ok(self.len());
            }
            let mut state = self.shared.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(()));
            }
            state.queue.extend(msgs.drain(..));
            let depth = state.queue.len();
            self.shared.wake_receivers(state, true);
            Ok(depth)
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        /// Returns true if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().senders += 1;
            Sender {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                self.shared.wake_receivers(state, true);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Receives a message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.shared.state.lock().unwrap();
            match state.queue.pop_front() {
                Some(msg) => {
                    self.shared.wake_senders(state, false);
                    Ok(msg)
                }
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Receives a message, blocking until one is available.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    self.shared.wake_senders(state, false);
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.shared.block_receiver(state, None);
            }
        }

        /// Receives a message, blocking for at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.shared.state.lock().unwrap();
            loop {
                if let Some(msg) = state.queue.pop_front() {
                    self.shared.wake_senders(state, false);
                    return Ok(msg);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self.shared.block_receiver(state, Some(deadline - now));
            }
        }

        /// Number of messages currently queued.
        pub fn len(&self) -> usize {
            self.shared.state.lock().unwrap().queue.len()
        }

        /// Returns true if no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Pops up to `max` queued messages into `buf` under a single lock
        /// acquisition, returning how many were moved.
        ///
        /// This is the batched-receive fast path: with this channel's
        /// `Mutex<VecDeque>` implementation, draining a burst one
        /// `try_recv` at a time pays one lock round-trip (plus a condvar
        /// notify) per message, which dominates the cost of hot receive
        /// loops. (The real `crossbeam` has no equivalent; this shim-only
        /// extension exists for the node event loops.)
        pub fn drain_into(&self, buf: &mut Vec<T>, max: usize) -> usize {
            if max == 0 {
                return 0;
            }
            let mut state = self.shared.state.lock().unwrap();
            let n = max.min(state.queue.len());
            buf.extend(state.queue.drain(..n));
            if n > 0 {
                self.shared.wake_senders(state, true);
            }
            n
        }

        /// Blocking iterator over received messages; ends at disconnection.
        pub fn iter(&self) -> Iter<'_, T> {
            Iter { receiver: self }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.shared.state.lock().unwrap().receivers += 1;
            Receiver {
                shared: Arc::clone(&self.shared),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut state = self.shared.state.lock().unwrap();
            state.receivers -= 1;
            if state.receivers == 0 {
                // Nobody can receive what is queued, and a message may own
                // something its sender waits on (a reply slot): discard it
                // now, as the real crate does, not when the last sender goes
                // — and outside the lock, since dropping runs foreign code.
                let orphaned = std::mem::take(&mut state.queue);
                self.shared.wake_senders(state, true);
                drop(orphaned);
            }
        }
    }

    /// Blocking iterator returned by [`Receiver::iter`].
    pub struct Iter<'a, T> {
        receiver: &'a Receiver<T>,
    }

    impl<T> Iterator for Iter<'_, T> {
        type Item = T;

        fn next(&mut self) -> Option<T> {
            self.receiver.recv().ok()
        }
    }

    impl<'a, T> IntoIterator for &'a Receiver<T> {
        type Item = T;
        type IntoIter = Iter<'a, T>;

        fn into_iter(self) -> Iter<'a, T> {
            self.iter()
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn unbounded_fifo() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            assert_eq!(rx.len(), 10);
            for i in 0..10 {
                assert_eq!(rx.try_recv(), Ok(i));
            }
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            drop(tx);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Disconnected));
            let (tx2, rx2) = unbounded::<u32>();
            drop(rx2);
            assert!(tx2.send(1).is_err());
        }

        #[test]
        fn cross_thread_bounded() {
            let (tx, rx) = bounded(1);
            let handle = thread::spawn(move || {
                let mut sum = 0u64;
                for _ in 0..100 {
                    sum += rx.recv().unwrap();
                }
                sum
            });
            for i in 1..=100u64 {
                tx.send(i).unwrap();
            }
            assert_eq!(handle.join().unwrap(), 5050);
        }

        #[test]
        fn drain_into_moves_a_batch_under_one_lock() {
            let (tx, rx) = unbounded();
            for i in 0..10 {
                tx.send(i).unwrap();
            }
            let mut buf = Vec::new();
            assert_eq!(rx.drain_into(&mut buf, 4), 4);
            assert_eq!(buf, vec![0, 1, 2, 3]);
            assert_eq!(rx.drain_into(&mut buf, 100), 6);
            assert_eq!(buf.len(), 10);
            assert_eq!(rx.drain_into(&mut buf, 100), 0);
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn drain_into_unblocks_bounded_senders() {
            let (tx, rx) = bounded(2);
            tx.send(1u32).unwrap();
            tx.send(2).unwrap();
            let handle = thread::spawn(move || tx.send(3).is_ok());
            let mut buf = Vec::new();
            // Draining must notify `not_full` so the blocked sender resumes.
            while rx.drain_into(&mut buf, 8) == 0 {
                std::thread::yield_now();
            }
            assert!(handle.join().unwrap());
        }

        #[test]
        fn send_batch_pushes_everything_in_order() {
            let (tx, rx) = unbounded();
            tx.send(0u32).unwrap();
            let mut batch = vec![1, 2, 3];
            assert_eq!(tx.send_batch(&mut batch).unwrap(), 4);
            assert!(batch.is_empty() && batch.capacity() >= 3, "drained, kept");
            let mut buf = Vec::new();
            rx.drain_into(&mut buf, 10);
            assert_eq!(buf, vec![0, 1, 2, 3]);
            // Empty batches are free and report the current depth.
            assert_eq!(tx.send_batch(&mut batch).unwrap(), 0);
        }

        #[test]
        fn send_batch_fails_when_receivers_gone() {
            let (tx, rx) = unbounded::<u32>();
            drop(rx);
            let mut batch = vec![1, 2];
            assert!(tx.send_batch(&mut batch).is_err());
            assert_eq!(batch, vec![1, 2], "nothing was taken");
        }

        #[test]
        fn dropping_the_last_receiver_discards_what_is_queued() {
            // What a queued message owns (here: the other handle of an
            // `Arc`) must go with the receiver, not linger for as long as
            // some sender does.
            let witness = Arc::new(());
            let (tx, rx) = unbounded();
            let spare = rx.clone();
            tx.send(Arc::clone(&witness)).unwrap();
            tx.send(Arc::clone(&witness)).unwrap();
            drop(rx);
            assert_eq!(Arc::strong_count(&witness), 3, "a receiver is left");
            drop(spare);
            assert_eq!(Arc::strong_count(&witness), 1, "queued items dropped");
            assert_eq!(tx.len(), 0);
            assert!(tx.send(Arc::clone(&witness)).is_err(), "and sends fail");
            assert!(tx.send_batch(&mut vec![Arc::clone(&witness)]).is_err());
        }

        #[test]
        fn a_receiver_that_blocks_is_woken_by_send_batch_and_by_disconnection() {
            let (tx, rx) = unbounded();
            let receiver = thread::spawn(move || {
                let first: Result<u32, _> = rx.recv();
                (first, rx.recv())
            });
            // Whether these land before or after the receiver blocks, it
            // must come back with both outcomes.
            tx.send_batch(&mut vec![7]).unwrap();
            drop(tx);
            assert_eq!(receiver.join().unwrap(), (Ok(7), Err(RecvError)));
        }

        #[test]
        fn recv_timeout_times_out() {
            let (_tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
        }
    }
}
