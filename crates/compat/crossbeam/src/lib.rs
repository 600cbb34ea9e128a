//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate.
//!
//! The runtime crate needs exactly one thing from crossbeam: an unbounded
//! MPMC channel whose `Sender` *and* `Receiver` are cloneable, with a
//! `recv_timeout`. This shim implements that over a `Mutex<VecDeque>` +
//! `Condvar`. It is not lock-free — fine for the thread-per-replica runtime,
//! whose message rates are far below contention territory. A send signals
//! the `Condvar` only while a receiver is parked on it (counted under the
//! mutex), so a receiver that is already running costs the sender no
//! syscall. Swap in the real crate for serious wall-clock benchmarking.

#![warn(missing_docs)]

/// Multi-producer multi-consumer channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers parked on `ready` inside `recv` / `recv_timeout`.
        waiting: usize,
    }

    struct Inner<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
    }

    /// The sending half of an unbounded channel. Cloneable.
    pub struct Sender<T> {
        inner: Arc<Inner<T>>,
    }

    /// The receiving half of an unbounded channel. Cloneable (MPMC: each
    /// message is delivered to exactly one receiver).
    pub struct Receiver<T> {
        inner: Arc<Inner<T>>,
    }

    /// Error returned by [`Sender::send`] when every receiver is gone; the
    /// unsent message is handed back.
    #[derive(PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    impl<T> fmt::Debug for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("SendError(..)")
        }
    }

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// The wait elapsed with no message available.
        Timeout,
        /// The channel is empty and every sender is gone.
        Disconnected,
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let inner = Arc::new(Inner {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                waiting: 0,
            }),
            ready: Condvar::new(),
        });
        (
            Sender {
                inner: inner.clone(),
            },
            Receiver { inner },
        )
    }

    impl<T> Sender<T> {
        /// Enqueues `value`, failing only if all receivers were dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.inner.state.lock().unwrap();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            // A receiver checks the queue and parks under this same lock,
            // so none waiting now means none can miss this message — and
            // a running receiver is spared the wake-up syscall.
            let wake = state.waiting > 0;
            drop(state);
            if wake {
                self.inner.ready.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().senders += 1;
            Sender {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.inner.state.lock().unwrap();
            state.senders -= 1;
            if state.senders == 0 {
                drop(state);
                self.inner.ready.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or all senders are gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state.waiting += 1;
                state = self.inner.ready.wait(state).unwrap();
                state.waiting -= 1;
            }
        }

        /// Blocks until a message arrives, all senders are gone, or `timeout`
        /// elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut state = self.inner.state.lock().unwrap();
            loop {
                if let Some(v) = state.queue.pop_front() {
                    return Ok(v);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state.waiting += 1;
                let (guard, result) = self
                    .inner
                    .ready
                    .wait_timeout(state, deadline - now)
                    .unwrap();
                state = guard;
                state.waiting -= 1;
                if result.timed_out() && state.queue.is_empty() {
                    if state.senders == 0 {
                        return Err(RecvTimeoutError::Disconnected);
                    }
                    return Err(RecvTimeoutError::Timeout);
                }
            }
        }

        /// Returns a queued message if one is immediately available.
        pub fn try_recv(&self) -> Option<T> {
            self.inner.state.lock().unwrap().queue.pop_front()
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.inner.state.lock().unwrap().receivers += 1;
            Receiver {
                inner: self.inner.clone(),
            }
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.inner.state.lock().unwrap().receivers -= 1;
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::time::Duration;

        #[test]
        fn send_recv_fifo() {
            let (tx, rx) = unbounded();
            tx.send(1).unwrap();
            tx.send(2).unwrap();
            assert_eq!(rx.recv(), Ok(1));
            assert_eq!(rx.recv(), Ok(2));
        }

        #[test]
        fn timeout_then_delivery() {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(10)),
                Err(RecvTimeoutError::Timeout)
            );
            let handle = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                tx.send(7).unwrap();
            });
            assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
            handle.join().unwrap();
        }

        #[test]
        fn disconnect_semantics() {
            let (tx, rx) = unbounded::<u32>();
            tx.send(9).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(9));
            assert_eq!(rx.recv(), Err(RecvError));
            let (tx2, rx2) = unbounded::<u32>();
            drop(rx2);
            assert!(tx2.send(1).is_err());
        }

        #[test]
        fn mpmc_each_message_once() {
            let (tx, rx) = unbounded::<u32>();
            let rx2 = rx.clone();
            for i in 0..100 {
                tx.send(i).unwrap();
            }
            drop(tx);
            let h1 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx.recv() {
                    got.push(v);
                }
                got
            });
            let h2 = std::thread::spawn(move || {
                let mut got = Vec::new();
                while let Ok(v) = rx2.recv() {
                    got.push(v);
                }
                got
            });
            let mut all = h1.join().unwrap();
            all.extend(h2.join().unwrap());
            all.sort_unstable();
            assert_eq!(all, (0..100).collect::<Vec<_>>());
        }

        /// A sender wakes only a parked receiver; a wake-up lost to that
        /// shortcut would leave a consumer parked on a non-empty queue.
        /// Consumers mix all three receive calls, so they park, time out
        /// and poll while the producers run; each stops at the first stop
        /// mark it receives, and a sender stays alive throughout, so no
        /// disconnect wakes anyone: a lost wake-up hangs the test.
        #[test]
        fn concurrent_producers_and_consumers_lose_no_message_and_no_wakeup() {
            const PRODUCERS: u64 = 4;
            const CONSUMERS: usize = 2;
            const PER_PRODUCER: u64 = 100_000;
            const STOP: u64 = u64::MAX;
            let (tx, rx) = unbounded::<u64>();
            let producers: Vec<_> = (0..PRODUCERS)
                .map(|p| {
                    let tx = tx.clone();
                    std::thread::spawn(move || {
                        for i in 0..PER_PRODUCER {
                            tx.send(p * PER_PRODUCER + i).unwrap();
                        }
                    })
                })
                .collect();
            let consumers: Vec<_> = (0..CONSUMERS)
                .map(|_| {
                    let rx = rx.clone();
                    std::thread::spawn(move || {
                        let mut got = Vec::new();
                        for round in 0u64.. {
                            let next = match round % 3 {
                                0 => rx.recv().ok(),
                                1 => rx.recv_timeout(Duration::from_micros(50)).ok(),
                                _ => rx.try_recv(),
                            };
                            match next {
                                Some(STOP) => break,
                                Some(v) => got.push(v),
                                None => {}
                            }
                        }
                        got
                    })
                })
                .collect();
            for producer in producers {
                producer.join().unwrap();
            }
            // Let the consumers drain the queue and park, so that each stop
            // mark has a parked receiver to wake.
            std::thread::sleep(Duration::from_millis(50));
            for _ in 0..CONSUMERS {
                tx.send(STOP).unwrap();
            }
            let mut all: Vec<u64> = Vec::new();
            for consumer in consumers {
                all.extend(consumer.join().unwrap());
            }
            all.sort_unstable();
            assert!(all.iter().copied().eq(0..PRODUCERS * PER_PRODUCER));
        }
    }
}
