//! Minimal lock primitives with a `parking_lot`-style API over `std::sync`.
//!
//! The workspace builds in hermetic environments with no registry access, so
//! the runtime cannot pull in `parking_lot`. These wrappers keep the ergonomic
//! API the rest of the crate was written against — `lock()` returning a guard
//! directly — while delegating to the standard library; `Condvar::wait`
//! keeps std's by-value signature. Poisoning is deliberately ignored
//! (parking_lot semantics): a panicked critical section in this codebase
//! only ever holds plain data, and the pool already propagates worker
//! panics explicitly.

use std::sync::PoisonError;

/// A mutex whose `lock` returns the guard directly, ignoring poison.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(std::sync::Mutex<T>);

/// Guard type returned by [`Mutex::lock`].
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

impl<T> Mutex<T> {
    /// Creates a new mutex protecting `value`.
    pub const fn new(value: T) -> Self {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking until available.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A condition variable whose `wait` ignores poison.
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    /// Blocks until notified, atomically releasing the lock behind `guard`
    /// and returning it reacquired: `let st = cv.wait(st)`, as in std.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0.wait(guard).unwrap_or_else(PoisonError::into_inner)
    }

    /// Wakes one waiter.
    #[inline]
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes all waiters.
    #[inline]
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

    #[test]
    fn lock_and_mutate() {
        let m = Mutex::new(1);
        *m.lock() += 41;
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn lock_survives_poisoning_panic() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison");
        })
        .join();
        // parking_lot semantics: the lock is still usable.
        *m.lock() = 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn condvar_wait_and_notify() {
        let shared = Arc::new((Mutex::new(false), Condvar::new()));
        let ready = Arc::new(AtomicBool::new(false));
        let (s2, r2) = (Arc::clone(&shared), Arc::clone(&ready));
        let h = std::thread::spawn(move || {
            let (lock, cv) = &*s2;
            let mut done = lock.lock();
            r2.store(true, Ordering::SeqCst);
            while !*done {
                done = cv.wait(done);
            }
        });
        while !ready.load(Ordering::SeqCst) {
            std::thread::yield_now();
        }
        let (lock, cv) = &*shared;
        *lock.lock() = true;
        cv.notify_all();
        h.join().unwrap();
    }
}
