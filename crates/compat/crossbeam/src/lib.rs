//! Offline stand-in for the [`crossbeam`](https://crates.io/crates/crossbeam)
//! crate: its unbounded channel, as a facade over [`std::sync::mpsc`], whose
//! implementation has been crossbeam-channel's since Rust 1.67.

#![warn(missing_docs)]

/// Unbounded multi-producer channels.
pub mod channel {
    use std::sync::mpsc;
    use std::time::Duration;

    pub use std::sync::mpsc::{RecvTimeoutError, Sender};

    /// The receiving half of an unbounded channel.
    pub struct Receiver<T>(mpsc::Receiver<T>);

    /// Creates an unbounded channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let (tx, rx) = mpsc::channel();
        (tx, Receiver(rx))
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is gone.
        pub fn recv(&self) -> Result<T, mpsc::RecvError> {
            self.0.recv()
        }

        /// Blocks until a message arrives, every sender is gone, or
        /// `timeout` elapses.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            self.0.recv_timeout(timeout)
        }

        /// Returns a queued message if one is immediately available.
        ///
        /// Vestige: answers `Option`, not std's `Result`, because the frozen
        /// `benchmark/src/loadgen.rs` matches on it.
        pub fn try_recv(&self) -> Option<T> {
            self.0.try_recv().ok()
        }
    }
}
