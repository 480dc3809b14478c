//! Multi-producer multi-consumer channels mirroring `crossbeam-channel`.
//!
//! One mutex-guarded queue and two condition variables. A `Condvar::notify_*`
//! is a `futex` system call on Linux whether or not anyone waits, so the
//! channel counts its parked receivers and senders under the same mutex and
//! only signals when the count is non-zero: a hand-off between two running
//! threads costs the lock and nothing else. The count is raised before the
//! mutex is released into `wait` and the peer reads it while holding the
//! mutex for its push or pop, so a thread that is about to park is always
//! seen — no wake-up can be lost.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct Inner<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
    /// Receivers parked on `not_empty` (or about to be: raised under the
    /// mutex that `wait` releases).
    recv_waiting: usize,
    /// Senders parked on `not_full`.
    send_waiting: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

/// Error returned by [`Sender::send`] when all receivers are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The channel is bounded and at capacity.
    Full(T),
    /// All receivers are gone.
    Disconnected(T),
}

/// Error returned by [`Receiver::recv`] when the channel is empty and all
/// senders are gone.
#[derive(Debug, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived before the deadline.
    Timeout,
    /// The channel is empty and all senders are gone.
    Disconnected,
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
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
        f.write_str("Sender")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver")
    }
}

fn lock<T>(shared: &Shared<T>) -> MutexGuard<'_, Inner<T>> {
    shared.inner.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<T> Shared<T> {
    /// Queue `msg` (the caller checked there is room) and wake one parked
    /// receiver, if any is parked.
    fn push(&self, mut inner: MutexGuard<'_, Inner<T>>, msg: T) {
        inner.queue.push_back(msg);
        let wake = inner.recv_waiting > 0;
        drop(inner);
        if wake {
            self.not_empty.notify_one();
        }
    }

    /// Take the oldest message, if any, and wake one parked sender, if any
    /// is parked. Hands the guard back when the queue is empty.
    fn pop<'a>(&self, mut inner: MutexGuard<'a, Inner<T>>) -> Result<T, MutexGuard<'a, Inner<T>>> {
        let Some(msg) = inner.queue.pop_front() else { return Err(inner) };
        let wake = inner.send_waiting > 0;
        drop(inner);
        if wake {
            self.not_full.notify_one();
        }
        Ok(msg)
    }
}

/// Channel with unlimited buffering.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    with_cap(None)
}

/// Channel buffering at most `cap` messages. A capacity of zero is rounded
/// up to one (the real crate's rendezvous semantics are not needed here).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    with_cap(Some(cap.max(1)))
}

fn with_cap<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
            recv_waiting: 0,
            send_waiting: 0,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (Sender { shared: Arc::clone(&shared) }, Receiver { shared })
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).senders += 1;
        Sender { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.shared);
        inner.senders -= 1;
        if inner.senders == 0 {
            drop(inner);
            self.shared.not_empty.notify_all();
        }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        lock(&self.shared).receivers += 1;
        Receiver { shared: Arc::clone(&self.shared) }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = lock(&self.shared);
        inner.receivers -= 1;
        if inner.receivers == 0 {
            drop(inner);
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Sender<T> {
    /// Send, blocking while a bounded channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut inner = lock(&self.shared);
        loop {
            if inner.receivers == 0 {
                return Err(SendError(msg));
            }
            let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
            if !full {
                self.shared.push(inner, msg);
                return Ok(());
            }
            inner.send_waiting += 1;
            inner = self.shared.not_full.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.send_waiting -= 1;
        }
    }

    /// Send without blocking.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let inner = lock(&self.shared);
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
            return Err(TrySendError::Full(msg));
        }
        self.shared.push(inner, msg);
        Ok(())
    }
}

impl<T> Receiver<T> {
    /// Receive, blocking until a message or disconnect.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = lock(&self.shared);
        loop {
            inner = match self.shared.pop(inner) {
                Ok(msg) => return Ok(msg),
                Err(inner) => inner,
            };
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner.recv_waiting += 1;
            inner = self.shared.not_empty.wait(inner).unwrap_or_else(PoisonError::into_inner);
            inner.recv_waiting -= 1;
        }
    }

    /// Receive without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.shared.pop(lock(&self.shared)) {
            Ok(msg) => Ok(msg),
            Err(inner) if inner.senders == 0 => Err(TryRecvError::Disconnected),
            Err(_) => Err(TryRecvError::Empty),
        }
    }

    /// Receive, blocking for at most `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = lock(&self.shared);
        loop {
            inner = match self.shared.pop(inner) {
                Ok(msg) => return Ok(msg),
                Err(inner) => inner,
            };
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            inner.recv_waiting += 1;
            let (guard, _) = self
                .shared
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = guard;
            inner.recv_waiting -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_round_trip() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn bounded_try_send_reports_full() {
        let (tx, rx) = bounded(1);
        tx.try_send(1).unwrap();
        assert_eq!(tx.try_send(2), Err(TrySendError::Full(2)));
        assert_eq!(rx.recv(), Ok(1));
        tx.try_send(3).unwrap();
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(1), Err(SendError(1)));
        let (tx, rx) = unbounded::<u32>();
        tx.send(9).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(9));
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.recv_timeout(Duration::from_millis(1)), Err(RecvTimeoutError::Disconnected));
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        let (tx, rx) = unbounded();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Err(RecvTimeoutError::Timeout));
        let handle = thread::spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(5)), Ok(7));
        handle.join().unwrap();
    }

    #[test]
    fn cross_thread_fan_in() {
        let (tx, rx) = unbounded();
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let tx = tx.clone();
                thread::spawn(move || tx.send(i).unwrap())
            })
            .collect();
        drop(tx);
        let mut got: Vec<u32> = (0..4).map(|_| rx.recv().unwrap()).collect();
        got.sort_unstable();
        assert_eq!(got, vec![0, 1, 2, 3]);
        assert_eq!(rx.recv(), Err(RecvError));
        for h in handles {
            h.join().unwrap();
        }
    }

    /// Spin until `parked(inner)` holds: the counts are raised under the
    /// mutex that `wait` releases, so once one reads non-zero the peer is
    /// parked, or will be before anyone else can take the mutex.
    fn until_parked<T>(shared: &Shared<T>, parked: impl Fn(&Inner<T>) -> bool) {
        while !parked(&lock(shared)) {
            thread::yield_now();
        }
    }

    #[test]
    fn try_send_wakes_a_receiver_parked_in_recv_timeout() {
        let (tx, rx) = bounded(1);
        let receiver = thread::spawn(move || {
            let started = Instant::now();
            (rx.recv_timeout(Duration::from_secs(60)), started.elapsed())
        });
        until_parked(&tx.shared, |inner| inner.recv_waiting == 1);
        tx.try_send(7).unwrap();
        let (got, waited) = receiver.join().unwrap();
        assert_eq!(got, Ok(7));
        assert!(waited < Duration::from_secs(30), "woken by the send, not the timeout: {waited:?}");
        assert_eq!(lock(&tx.shared).recv_waiting, 0);
    }

    #[test]
    fn try_recv_wakes_a_sender_parked_on_a_full_channel() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        let sender = {
            let tx = tx.clone();
            thread::spawn(move || tx.send(2))
        };
        until_parked(&tx.shared, |inner| inner.send_waiting == 1);
        assert_eq!(rx.try_recv(), Ok(1));
        // Joining is the assertion: a sender nobody woke never returns.
        assert_eq!(sender.join().unwrap(), Ok(()));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(lock(&tx.shared).send_waiting, 0);
    }

    #[test]
    fn no_wake_up_is_lost_through_a_small_bounded_channel() {
        // Both sides park constantly at capacity 8; a single skipped signal
        // would leave the run hanging with everyone asleep.
        const PRODUCERS: u64 = 4;
        const EACH: u64 = 100_000;
        let (tx, rx) = bounded(8);
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                thread::spawn(move || {
                    for i in 0..EACH {
                        tx.send(p * EACH + i).unwrap();
                    }
                })
            })
            .collect();
        drop(tx);
        let (mut count, mut sum) = (0u64, 0u64);
        while let Ok(v) = rx.recv() {
            count += 1;
            sum += v;
        }
        for p in producers {
            p.join().unwrap();
        }
        let n = PRODUCERS * EACH;
        assert_eq!(count, n);
        assert_eq!(sum, n * (n - 1) / 2);
    }
}
