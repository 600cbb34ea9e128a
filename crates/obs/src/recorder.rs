//! The flight recorder: a bounded ring of structured protocol events.
//!
//! Where counters answer "how many", the recorder answers "what happened,
//! in what order": view changes, path decisions, snapshot installs, MAC
//! rejections — the events a post-mortem needs. The ring is bounded
//! ([`DEFAULT_CAPACITY`](FlightRecorder::DEFAULT_CAPACITY) events);
//! older entries are overwritten, like an aircraft flight recorder. Each
//! event carries a monotone sequence number, so a snapshot shows exactly
//! how much history was evicted.
//!
//! Recording takes a mutex — the recorder is for **rare** control-plane
//! events, not per-frame traffic (that is what [`Counter`](crate::Counter)
//! is for).

use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded protocol event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Monotone per-recorder sequence number (0 = first ever recorded);
    /// gaps at the front of a snapshot mean the ring evicted history.
    pub seq: u64,
    /// Microseconds since the recorder was created.
    pub at_us: u64,
    /// Event taxonomy tag, e.g. `"view-change"`, `"commit-fast"`,
    /// `"snapshot-install"`, `"mac-reject"`.
    pub kind: &'static str,
    /// Human-readable detail line.
    pub detail: String,
}

struct Inner {
    events: VecDeque<Event>,
    next_seq: u64,
}

/// A bounded ring buffer of [`Event`]s.
pub struct FlightRecorder {
    inner: Mutex<Inner>,
    capacity: usize,
    start: Instant,
}

impl fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl Default for FlightRecorder {
    fn default() -> Self {
        FlightRecorder::new()
    }
}

impl FlightRecorder {
    /// Default ring capacity: enough for every control-plane event of a
    /// long test run, small enough to snapshot casually.
    pub const DEFAULT_CAPACITY: usize = 1024;

    /// A recorder with the default capacity.
    pub fn new() -> Self {
        FlightRecorder::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A recorder holding at most `capacity` events (≥ 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        FlightRecorder {
            inner: Mutex::new(Inner {
                events: VecDeque::with_capacity(capacity),
                next_seq: 0,
            }),
            capacity,
            start: Instant::now(),
        }
    }

    /// Appends an event, evicting the oldest if the ring is full.
    pub fn record(&self, kind: &'static str, detail: String) {
        let at_us = u64::try_from(self.start.elapsed().as_micros()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock().expect("recorder poisoned");
        let seq = inner.next_seq;
        inner.next_seq += 1;
        if inner.events.len() == self.capacity {
            inner.events.pop_front();
        }
        inner.events.push_back(Event {
            seq,
            at_us,
            kind,
            detail,
        });
    }

    /// A copy of the current ring contents, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        let inner = self.inner.lock().expect("recorder poisoned");
        inner.events.iter().cloned().collect()
    }

    /// Events currently held (≤ capacity).
    pub fn len(&self) -> usize {
        self.inner.lock().expect("recorder poisoned").events.len()
    }

    /// Whether nothing has been recorded (or everything was evicted —
    /// impossible, eviction only happens on insert).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever recorded, including evicted ones.
    pub fn total_recorded(&self) -> u64 {
        self.inner.lock().expect("recorder poisoned").next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_evicts_oldest() {
        let r = FlightRecorder::with_capacity(3);
        for i in 0..5 {
            r.record("test", format!("event {i}"));
        }
        let events = r.snapshot();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].seq, 2, "two oldest evicted");
        assert_eq!(events[2].detail, "event 4");
        assert_eq!(r.total_recorded(), 5);
    }

    #[test]
    fn timestamps_are_monotone() {
        let r = FlightRecorder::new();
        r.record("a", String::new());
        r.record("b", String::new());
        let events = r.snapshot();
        assert!(events[0].at_us <= events[1].at_us);
    }
}
