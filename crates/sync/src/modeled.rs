//! Facade implementation used under `--cfg obr_model`: every operation
//! reports to the scheduler in [`crate::model`] as a yield point before
//! touching the real primitive.
//!
//! Each lock wraps a *real* `parking_lot` shim primitive for data access:
//! the scheduler only grants an acquisition when the lock is virtually
//! free, so the inner acquisition never blocks — which keeps the whole
//! model free of `unsafe`. Operations on threads that are not part of a
//! controlled run fall through to the plain behavior.
//!
//! Constraint (documented, not enforced): a lock or condvar used inside a
//! controlled scenario must only be touched by threads of that scenario.
//! Mixing controlled and uncontrolled threads on one primitive bypasses
//! the virtual state and can wedge the inner lock.

use std::ops::{Deref, DerefMut};
use std::sync::OnceLock;
use std::time::Instant;

use crate::model;

fn obj_id(slot: &OnceLock<u64>) -> u64 {
    *slot.get_or_init(model::alloc_obj_id)
}

/// A mutual-exclusion lock whose acquisitions are scheduled by the model
/// runtime inside controlled runs.
pub struct Mutex<T> {
    class: &'static str,
    obj: OnceLock<u64>,
    inner: parking_lot::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Creates an anonymous mutex (lock class `"mutex.anon"`).
    pub const fn new(value: T) -> Self {
        Self::named(value, "mutex.anon")
    }

    /// Creates a mutex tagged with a lock-class name for the model
    /// scheduler's lock-order graph.
    pub const fn named(value: T, class: &'static str) -> Self {
        Self {
            class,
            obj: OnceLock::new(),
            inner: parking_lot::Mutex::new(value),
        }
    }

    fn obj(&self) -> u64 {
        obj_id(&self.obj)
    }

    /// Acquires the mutex — a scheduler yield point in controlled runs.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let controlled = model::on_mutex_lock(self.obj(), self.class);
        // Inside a controlled run the scheduler granted the lock while it
        // was virtually free, so this inner acquisition cannot block.
        let inner = self.inner.lock();
        MutexGuard {
            lock: self,
            controlled,
            inner: Some(inner),
        }
    }

    /// Attempts to acquire the mutex without blocking. In controlled runs
    /// the attempt itself is a yield point and its outcome is decided by
    /// the virtual lock state at the granted moment.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match model::on_mutex_try_lock(self.obj(), self.class) {
            Some(true) => Some(MutexGuard {
                lock: self,
                controlled: true,
                inner: Some(self.inner.lock()),
            }),
            Some(false) => None,
            None => self.inner.try_lock().map(|g| MutexGuard {
                lock: self,
                controlled: false,
                inner: Some(g),
            }),
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the mutex, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Mutex({})", self.class)
    }
}

/// RAII guard returned by [`Mutex::lock`].
pub struct MutexGuard<'a, T> {
    lock: &'a Mutex<T>,
    controlled: bool,
    inner: Option<parking_lot::MutexGuard<'a, T>>,
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard active")
    }
}

impl<T> Drop for MutexGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if self.controlled {
                model::on_release(self.lock.obj(), self.lock.class, true);
            }
        }
    }
}

/// A reader-writer lock whose acquisitions are scheduled by the model
/// runtime inside controlled runs.
pub struct RwLock<T> {
    class: &'static str,
    obj: OnceLock<u64>,
    inner: parking_lot::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates an anonymous reader-writer lock (class `"rwlock.anon"`).
    pub const fn new(value: T) -> Self {
        Self::named(value, "rwlock.anon")
    }

    /// Creates a reader-writer lock tagged with a lock-class name.
    pub const fn named(value: T, class: &'static str) -> Self {
        Self {
            class,
            obj: OnceLock::new(),
            inner: parking_lot::RwLock::new(value),
        }
    }

    fn obj(&self) -> u64 {
        obj_id(&self.obj)
    }

    /// Acquires shared read access — a scheduler yield point in
    /// controlled runs.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let controlled = model::on_rw_acquire(self.obj(), self.class, false);
        RwLockReadGuard {
            lock: self,
            controlled,
            inner: Some(self.inner.read()),
        }
    }

    /// Acquires exclusive write access — a scheduler yield point in
    /// controlled runs.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let controlled = model::on_rw_acquire(self.obj(), self.class, true);
        RwLockWriteGuard {
            lock: self,
            controlled,
            inner: Some(self.inner.write()),
        }
    }

    /// Returns a mutable reference to the protected value.
    pub fn get_mut(&mut self) -> &mut T {
        self.inner.get_mut()
    }

    /// Consumes the lock, returning the protected value.
    pub fn into_inner(self) -> T {
        self.inner.into_inner()
    }
}

impl<T: Default> Default for RwLock<T> {
    fn default() -> Self {
        Self::new(T::default())
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RwLock({})", self.class)
    }
}

/// RAII shared-read guard returned by [`RwLock::read`].
pub struct RwLockReadGuard<'a, T> {
    lock: &'a RwLock<T>,
    controlled: bool,
    inner: Option<parking_lot::RwLockReadGuard<'a, T>>,
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T> Drop for RwLockReadGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if self.controlled {
                model::on_release(self.lock.obj(), self.lock.class, false);
            }
        }
    }
}

/// RAII exclusive-write guard returned by [`RwLock::write`].
pub struct RwLockWriteGuard<'a, T> {
    lock: &'a RwLock<T>,
    controlled: bool,
    inner: Option<parking_lot::RwLockWriteGuard<'a, T>>,
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard active")
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard active")
    }
}

impl<T> Drop for RwLockWriteGuard<'_, T> {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            drop(g);
            if self.controlled {
                model::on_release(self.lock.obj(), self.lock.class, true);
            }
        }
    }
}

/// Result of a timed condition-variable wait.
pub struct WaitTimeoutResult {
    timed_out: bool,
}

impl WaitTimeoutResult {
    /// True when the wait returned because the deadline passed rather
    /// than because the condvar was notified.
    pub fn timed_out(&self) -> bool {
        self.timed_out
    }
}

/// A condition variable whose waits are scheduled by the model runtime
/// inside controlled runs (no spurious wakeups; `notify_one` wakes the
/// FIFO-first waiter).
pub struct Condvar {
    obj: OnceLock<u64>,
    inner: parking_lot::Condvar,
}

impl Condvar {
    /// Creates a new condition variable.
    pub const fn new() -> Self {
        Self {
            obj: OnceLock::new(),
            inner: parking_lot::Condvar::new(),
        }
    }

    fn obj(&self) -> u64 {
        obj_id(&self.obj)
    }

    fn model_wait<T>(&self, guard: &mut MutexGuard<'_, T>, timed: bool) -> bool {
        let mutex = guard.lock;
        // Drop the inner guard before the virtual release so the real
        // lock is free by the time another thread is granted it.
        drop(guard.inner.take());
        let timed_out = model::on_cond_wait(self.obj(), mutex.obj(), mutex.class, timed)
            .expect("controlled wait outside a controlled run");
        // The grant reacquired the mutex virtually, so this cannot block.
        guard.inner = Some(mutex.inner.lock());
        timed_out
    }

    /// Atomically releases the guard's mutex and parks until notified,
    /// reacquiring the mutex before returning.
    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        if guard.controlled {
            self.model_wait(guard, false);
        } else {
            self.inner.wait(guard.inner.as_mut().expect("guard active"));
        }
    }

    /// Like [`Condvar::wait`] but with a deadline. In controlled runs the
    /// wall-clock deadline is ignored: the timeout fires only in
    /// schedules where no other thread is enabled (i.e. where real
    /// execution would also have waited the timeout out).
    pub fn wait_until<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        deadline: Instant,
    ) -> WaitTimeoutResult {
        if guard.controlled {
            WaitTimeoutResult {
                timed_out: self.model_wait(guard, true),
            }
        } else {
            let r = self
                .inner
                .wait_until(guard.inner.as_mut().expect("guard active"), deadline);
            WaitTimeoutResult {
                timed_out: r.timed_out(),
            }
        }
    }

    /// Wakes one waiter (the FIFO-first un-notified one in controlled
    /// runs).
    pub fn notify_one(&self) {
        if !model::on_notify(self.obj(), false) {
            self.inner.notify_one();
        }
    }

    /// Wakes all waiters.
    pub fn notify_all(&self) {
        if !model::on_notify(self.obj(), true) {
            self.inner.notify_all();
        }
    }
}

impl Default for Condvar {
    fn default() -> Self {
        Self::new()
    }
}

/// Modeled atomics: every operation is a scheduler yield point carrying
/// its declared `Ordering` (recorded in the schedule trace).
pub mod atomic {
    use std::sync::OnceLock;

    use crate::model;

    pub use std::sync::atomic::Ordering;

    fn ord_name(ord: Ordering) -> &'static str {
        match ord {
            // protocol: relaxed naming the ordering for traces, not performing an
            // atomic access.
            Ordering::Relaxed => "Relaxed",
            Ordering::Acquire => "Acquire",
            Ordering::Release => "Release",
            Ordering::AcqRel => "AcqRel",
            Ordering::SeqCst => "SeqCst",
            _ => "Other",
        }
    }

    macro_rules! model_atomic {
        ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
            $(#[$meta])*
            pub struct $name {
                obj: OnceLock<u64>,
                inner: $std,
            }

            impl $name {
                /// Creates a new atomic with the given initial value.
                pub const fn new(v: $prim) -> Self {
                    Self { obj: OnceLock::new(), inner: <$std>::new(v) }
                }

                fn hook(&self, write: bool, rmw: bool, ord: Ordering) {
                    let obj = *self.obj.get_or_init(model::alloc_obj_id);
                    model::on_atomic(obj, write, rmw, ord_name(ord));
                }

                /// Loads the value.
                pub fn load(&self, ord: Ordering) -> $prim {
                    self.hook(false, false, ord);
                    self.inner.load(ord)
                }

                /// Stores a value.
                pub fn store(&self, v: $prim, ord: Ordering) {
                    self.hook(true, false, ord);
                    self.inner.store(v, ord);
                }

                /// Swaps the value, returning the previous one.
                pub fn swap(&self, v: $prim, ord: Ordering) -> $prim {
                    self.hook(true, true, ord);
                    self.inner.swap(v, ord)
                }

                /// Returns a mutable reference to the underlying value.
                pub fn get_mut(&mut self) -> &mut $prim {
                    self.inner.get_mut()
                }

                /// Consumes the atomic, returning the contained value.
                pub fn into_inner(self) -> $prim {
                    self.inner.into_inner()
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new(<$prim>::default())
                }
            }

            impl std::fmt::Debug for $name {
                fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                    self.inner.fmt(f)
                }
            }
        };
    }

    macro_rules! model_atomic_int {
        ($(#[$meta:meta])* $name:ident, $std:ty, $prim:ty) => {
            model_atomic!($(#[$meta])* $name, $std, $prim);

            impl $name {
                /// Adds to the value, returning the previous one.
                pub fn fetch_add(&self, v: $prim, ord: Ordering) -> $prim {
                    self.hook(true, true, ord);
                    self.inner.fetch_add(v, ord)
                }

                /// Subtracts from the value, returning the previous one.
                pub fn fetch_sub(&self, v: $prim, ord: Ordering) -> $prim {
                    self.hook(true, true, ord);
                    self.inner.fetch_sub(v, ord)
                }

                /// Stores the maximum of the current and given values,
                /// returning the previous one.
                pub fn fetch_max(&self, v: $prim, ord: Ordering) -> $prim {
                    self.hook(true, true, ord);
                    self.inner.fetch_max(v, ord)
                }

                /// Stores the minimum of the current and given values,
                /// returning the previous one.
                pub fn fetch_min(&self, v: $prim, ord: Ordering) -> $prim {
                    self.hook(true, true, ord);
                    self.inner.fetch_min(v, ord)
                }

                /// Applies a closure to the value until it succeeds or
                /// the closure returns `None`.
                pub fn fetch_update<F>(
                    &self,
                    set_order: Ordering,
                    fetch_order: Ordering,
                    f: F,
                ) -> Result<$prim, $prim>
                where
                    F: FnMut($prim) -> Option<$prim>,
                {
                    self.hook(true, true, set_order);
                    self.inner.fetch_update(set_order, fetch_order, f)
                }

                /// Compare-and-exchange; returns `Ok(previous)` on
                /// success.
                pub fn compare_exchange(
                    &self,
                    current: $prim,
                    new: $prim,
                    success: Ordering,
                    failure: Ordering,
                ) -> Result<$prim, $prim> {
                    self.hook(true, true, success);
                    self.inner.compare_exchange(current, new, success, failure)
                }
            }
        };
    }

    model_atomic!(
        /// Modeled `AtomicBool`.
        AtomicBool,
        std::sync::atomic::AtomicBool,
        bool
    );
    model_atomic_int!(
        /// Modeled `AtomicU32`.
        AtomicU32,
        std::sync::atomic::AtomicU32,
        u32
    );
    model_atomic_int!(
        /// Modeled `AtomicU64`.
        AtomicU64,
        std::sync::atomic::AtomicU64,
        u64
    );
    model_atomic_int!(
        /// Modeled `AtomicUsize`.
        AtomicUsize,
        std::sync::atomic::AtomicUsize,
        usize
    );
    model_atomic_int!(
        /// Modeled `AtomicI64`.
        AtomicI64,
        std::sync::atomic::AtomicI64,
        i64
    );

    impl AtomicBool {
        /// Logical-or with the value, returning the previous one.
        pub fn fetch_or(&self, v: bool, ord: Ordering) -> bool {
            self.hook(true, true, ord);
            self.inner.fetch_or(v, ord)
        }

        /// Logical-and with the value, returning the previous one.
        pub fn fetch_and(&self, v: bool, ord: Ordering) -> bool {
            self.hook(true, true, ord);
            self.inner.fetch_and(v, ord)
        }
    }
}
