//! Admission control: a counting semaphore over evaluation slots.
//!
//! The server admits at most `max_inflight` concurrent *evaluations*, that
//! is, prepare and execute requests; connections themselves are cheap and
//! unlimited. A request that
//! cannot get a slot within the admission timeout is answered with a typed
//! `busy` error instead of queueing unboundedly — the client decides whether
//! to retry, so overload sheds load at the edge rather than accumulating
//! latency inside the server.

use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// A counting semaphore (std-only: `Mutex` + `Condvar`).
#[derive(Debug)]
pub struct Semaphore {
    permits: Mutex<usize>,
    available: Condvar,
}

impl Semaphore {
    /// A semaphore with `permits` slots. Zero permits admits nothing — every
    /// acquire times out — which is occasionally useful in tests.
    pub fn new(permits: usize) -> Semaphore {
        Semaphore {
            permits: Mutex::new(permits),
            available: Condvar::new(),
        }
    }

    /// Acquire a permit, waiting at most `timeout`. Returns a guard that
    /// releases on drop, or `None` if the timeout elapsed first.
    pub fn try_acquire_for(&self, timeout: Duration) -> Option<SemaphoreGuard<'_>> {
        let give_up = Instant::now() + timeout;
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        loop {
            if *permits > 0 {
                *permits -= 1;
                return Some(SemaphoreGuard { semaphore: self });
            }
            let remaining = give_up.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return None;
            }
            let (next, result) = self
                .available
                .wait_timeout(permits, remaining)
                .expect("semaphore poisoned");
            permits = next;
            if result.timed_out() && *permits == 0 {
                return None;
            }
        }
    }

    fn release(&self) {
        let mut permits = self.permits.lock().expect("semaphore poisoned");
        *permits += 1;
        drop(permits);
        self.available.notify_one();
    }
}

/// An acquired evaluation slot; dropping it releases the slot.
#[derive(Debug)]
pub struct SemaphoreGuard<'a> {
    semaphore: &'a Semaphore,
}

impl Drop for SemaphoreGuard<'_> {
    fn drop(&mut self) {
        self.semaphore.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn permits_bound_concurrency() {
        let sem = Semaphore::new(2);
        let a = sem.try_acquire_for(Duration::from_millis(10)).unwrap();
        let _b = sem.try_acquire_for(Duration::from_millis(10)).unwrap();
        assert!(sem.try_acquire_for(Duration::from_millis(10)).is_none());
        drop(a);
        assert!(sem.try_acquire_for(Duration::from_millis(10)).is_some());
    }

    #[test]
    fn waiters_wake_on_release() {
        let sem = Arc::new(Semaphore::new(1));
        let held = sem.try_acquire_for(Duration::from_millis(10)).unwrap();
        let waiter = {
            let sem = Arc::clone(&sem);
            std::thread::spawn(move || sem.try_acquire_for(Duration::from_secs(5)).is_some())
        };
        std::thread::sleep(Duration::from_millis(20));
        drop(held);
        assert!(waiter.join().unwrap());
    }

    #[test]
    fn zero_permit_semaphore_always_times_out() {
        let sem = Semaphore::new(0);
        assert!(sem.try_acquire_for(Duration::from_millis(5)).is_none());
    }
}
