//! Synchronization facade for the whole engine.
//!
//! Every concurrent hot path in the workspace takes its `Mutex`, `RwLock`,
//! `Condvar`, and atomics from this crate instead of importing
//! `parking_lot` or `std::sync::atomic` directly (`obr-cli check --protocol`
//! enforces this). The facade has two personalities:
//!
//! * **Normal builds** (the default): a zero-cost passthrough. Lock types
//!   are `#[inline]` newtypes over the in-repo `parking_lot` shim, atomics
//!   are literal re-exports of `std::sync::atomic` — the optimizer sees
//!   exactly the code it would have seen without the facade.
//! * **Model builds** (`RUSTFLAGS="--cfg obr_model"`): every lock
//!   acquisition/release, condvar wait/notify, and atomic operation (with
//!   its `Ordering`) becomes a *yield point* routed through the
//!   cooperative scheduler in `model` (the module only exists in model
//!   builds, hence no doc link). The `obr-race` crate drives that
//!   scheduler to replay seeded-random and bounded-exhaustive thread
//!   interleavings over scripted scenarios, record the global
//!   lock-acquisition-order graph, and detect deadlocks — deterministic:
//!   the same seed always yields the same schedule.
//!
//! Locks carry an optional *class name* (`Mutex::named(v, "wal.mem")`)
//! identifying them in the lock-order graph that is diffed against the
//! manifest in `check/lockorder.toml`; anonymous locks report as
//! `"mutex.anon"`/`"rwlock.anon"`. Class names are free in normal builds
//! (the constructor ignores them).
//!
//! Code outside a controlled scenario still works in model builds: an
//! operation on a thread that is not registered with a scheduler falls
//! through to the plain implementation.

#[cfg(not(obr_model))]
mod plain;
#[cfg(not(obr_model))]
pub use plain::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(obr_model)]
mod modeled;
#[cfg(obr_model)]
pub use modeled::{
    Condvar, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard, WaitTimeoutResult,
};

#[cfg(obr_model)]
pub mod model;

pub mod atomic;
pub mod thread;

/// True when this build routes synchronization through the model scheduler
/// (`--cfg obr_model`). Lets shared code and docs branch on the build
/// personality without sprinkling `cfg` everywhere.
pub const fn is_model_build() -> bool {
    cfg!(obr_model)
}
