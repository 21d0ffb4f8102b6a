//! A ticket counter and a bounded handoff channel.
//!
//! The runtime's worker pool (`crate::pool`) does not use these. They
//! stay public because the benchmark's replay, the A/B throughput bench
//! and the loom models drive them directly (see `tests/loom.rs`):
//!
//! * [`TicketCounter`] — a package queue as one atomic counter. Packages
//!   are uniform, so instead of work stealing every worker claims the
//!   next index; each ticket is handed out exactly once.
//! * [`channel`] — a bounded MPSC channel carrying formatted package
//!   buffers from workers to a single output stage, with backpressure
//!   (workers stall rather than buffering the whole project when a sink
//!   is slow) and hang-up semantics in both directions: dropping the
//!   [`Receiver`] makes every [`Sender::send`] fail (how a sink error
//!   stops the workers), and dropping all senders ends the receiver's
//!   iteration (how the output stage knows the run is complete).
//!
//! Everything is built on the [`crate::sync`] facade, so compiling with
//! `--cfg loom` swaps the primitives for loom's instrumented versions.
//! Lock poisoning is deliberately ignored (`PoisonError::into_inner`):
//! the protected state is a plain queue that stays valid if a peer
//! panicked mid-send.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, MutexGuard, PoisonError};

use crate::sync::{AtomicU64, Condvar, Mutex, Ordering};

/// A claim-once ticket dispenser over `0..limit`.
///
/// Every call to [`claim`](Self::claim) returns a ticket no other call
/// ever received; once `limit` tickets are out, all callers get `None`.
#[derive(Debug)]
pub struct TicketCounter {
    next: AtomicU64,
    limit: u64,
}

impl TicketCounter {
    /// Dispenser for tickets `0..limit`.
    pub fn new(limit: u64) -> Self {
        Self {
            next: AtomicU64::new(0),
            limit,
        }
    }

    /// Claim the next ticket, or `None` when all have been handed out.
    pub fn claim(&self) -> Option<u64> {
        let t = self.next.fetch_add(1, Ordering::Relaxed);
        (t < self.limit).then_some(t)
    }
}

struct Shared<T> {
    state: Mutex<State<T>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receiver_alive: bool,
}

impl<T> Shared<T> {
    fn state(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Error returned by [`Sender::send`] after the receiver hung up; carries
/// the unsent value back to the caller.
pub struct SendError<T>(pub T);

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

/// Sending half of a [`channel`]. Cloneable; the channel disconnects for
/// the receiver once every clone is dropped.
pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    /// Deliver `value`, blocking while the channel is at capacity.
    /// Fails (returning the value) once the receiver is gone.
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut state = self.shared.state();
        loop {
            if !state.receiver_alive {
                return Err(SendError(value));
            }
            if state.queue.len() < self.shared.capacity {
                break;
            }
            state = self
                .shared
                .not_full
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
        state.queue.push_back(value);
        drop(state);
        self.shared.not_empty.notify_one();
        Ok(())
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.state().senders += 1;
        Self {
            shared: self.shared.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut state = self.shared.state();
        state.senders -= 1;
        let disconnected = state.senders == 0;
        drop(state);
        if disconnected {
            // Wake a receiver blocked on an empty queue so it can see
            // the disconnect and finish.
            self.shared.not_empty.notify_all();
        }
    }
}

/// Receiving half of a [`channel`].
pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Receiver<T> {
    /// Take the next value, blocking while the channel is empty.
    /// Returns `None` once the queue is drained and all senders are gone.
    pub fn recv(&self) -> Option<T> {
        let mut state = self.shared.state();
        loop {
            if let Some(v) = state.queue.pop_front() {
                drop(state);
                self.shared.not_full.notify_one();
                return Some(v);
            }
            if state.senders == 0 {
                return None;
            }
            state = self
                .shared
                .not_empty
                .wait(state)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.shared.state().receiver_alive = false;
        // Wake senders blocked on a full queue so they can observe the
        // hang-up instead of waiting forever.
        self.shared.not_full.notify_all();
    }
}

/// Iterate by draining: `for v in rx` receives until disconnect.
impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;

    fn into_iter(self) -> IntoIter<T> {
        IntoIter { rx: self }
    }
}

/// Draining iterator over a [`Receiver`].
pub struct IntoIter<T> {
    rx: Receiver<T>,
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;

    fn next(&mut self) -> Option<T> {
        self.rx.recv()
    }
}

/// A bounded multi-producer single-consumer channel holding at most
/// `capacity` values (at least 1).
pub fn channel<T>(capacity: usize) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::with_capacity(capacity.max(1)),
            senders: 1,
            receiver_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
    });
    (
        Sender {
            shared: shared.clone(),
        },
        Receiver { shared },
    )
}

#[cfg(all(test, not(loom)))]
mod tests {
    use super::*;

    #[test]
    fn tickets_cover_the_range_exactly_once() {
        let tickets = TicketCounter::new(1000);
        let seen = std::sync::Mutex::new(vec![0u32; 1000]);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some(t) = tickets.claim() {
                        mine.push(t);
                    }
                    let mut seen = seen.lock().unwrap();
                    for t in mine {
                        seen[t as usize] += 1;
                    }
                });
            }
        });
        assert!(seen.lock().unwrap().iter().all(|&n| n == 1));
        assert_eq!(tickets.claim(), None, "exhausted counter stays exhausted");
    }

    #[test]
    fn zero_ticket_counter_is_empty() {
        assert_eq!(TicketCounter::new(0).claim(), None);
    }

    #[test]
    fn channel_delivers_in_fifo_order() {
        let (tx, rx) = channel::<u32>(2);
        let t = std::thread::spawn(move || {
            for v in 0..100 {
                tx.send(v).unwrap();
            }
        });
        let got: Vec<u32> = rx.into_iter().collect();
        t.join().unwrap();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn receiver_ends_when_all_senders_drop() {
        let (tx, rx) = channel::<u32>(4);
        let tx2 = tx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.into_iter().collect::<Vec<_>>(), vec![1, 2]);
    }

    #[test]
    fn send_fails_after_receiver_drop() {
        let (tx, rx) = channel::<u32>(1);
        drop(rx);
        let err = tx.send(7).unwrap_err();
        assert_eq!(err.0, 7, "the value comes back");
    }

    #[test]
    fn receiver_drop_unblocks_a_full_channel_sender() {
        let (tx, rx) = channel::<u32>(1);
        tx.send(0).unwrap();
        let sender = std::thread::spawn(move || tx.send(1).is_err());
        std::thread::sleep(std::time::Duration::from_millis(20));
        drop(rx);
        assert!(
            sender.join().unwrap(),
            "blocked sender must fail, not hang, on receiver drop"
        );
    }

    #[test]
    fn backpressure_bounds_the_queue() {
        let (tx, rx) = channel::<u32>(2);
        let counter = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = counter.clone();
        let t = std::thread::spawn(move || {
            for v in 0..10 {
                tx.send(v).unwrap();
                c.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            }
        });
        std::thread::sleep(std::time::Duration::from_millis(30));
        let sent_before_any_recv = counter.load(std::sync::atomic::Ordering::SeqCst);
        assert!(
            sent_before_any_recv <= 3,
            "sender ran {sent_before_any_recv} sends past a capacity-2 channel"
        );
        assert_eq!(rx.into_iter().count(), 10);
        t.join().unwrap();
    }
}
